//! Equivalence pruning end-to-end: skipping candidates whose canonical
//! schedule was already executed — or whose *semantic quotient* under the
//! target's flow model matches a settled result — must be a pure
//! execution-saving measure: byte-identical corpus, coverage, and repro
//! digests with pruning on or off, at any worker count, while the saved
//! executions surface in the `pruned` and `inert` counters and round-trip
//! through the journal.

use std::sync::Arc;

use pfi_testgen::{
    explore, explore_fleet, CampaignFleet, ExploreConfig, GmpTarget, Journal, ProtocolSpec,
    TcpTarget, TestTarget, TpcTarget,
};

/// The loop-heavy target: short post-fault horizon, so big-budget
/// campaigns (where canonical collisions actually occur) stay fast.
fn heavy() -> GmpTarget {
    GmpTarget {
        fault_secs: 5,
        ..GmpTarget::default()
    }
}

/// A config at which seed 42 provably generates canonical duplicates
/// (asserted below), so the pruning-on arm has something to skip.
fn config(budget: usize) -> ExploreConfig {
    ExploreConfig {
        seed: 42,
        budget,
        max_faults: 2,
        epoch: 8,
        ..ExploreConfig::default()
    }
}

const PRUNING_BUDGET: usize = 1024;

/// The budget at which the semantic-vs-syntactic strictness acceptance is
/// pinned (loop-heavy corpus; see `semantic_pruning_strictly_exceeds…`).
const STRICTNESS_BUDGET: usize = 2048;

/// The tentpole invariance pin, mirroring `--no-prefilter`: all three
/// pruning tiers on, semantic off (syntactic-only), and pruning fully off
/// are digest-identical at jobs 1, 2, and 4, and the off arm's execution
/// count decomposes exactly: `executed_off == executed_on + pruned_on +
/// inert_on`.
#[test]
fn pruning_on_off_digests_agree_across_jobs() {
    let spec = ProtocolSpec::gmp();
    let on_cfg = config(PRUNING_BUDGET);
    let syn_cfg = ExploreConfig {
        semantic: false,
        ..config(PRUNING_BUDGET)
    };
    let off_cfg = ExploreConfig {
        pruning: false,
        ..config(PRUNING_BUDGET)
    };

    let on = explore(&heavy(), &spec, &on_cfg);
    let syn = explore(&heavy(), &spec, &syn_cfg);
    let off = explore(&heavy(), &spec, &off_cfg);
    assert!(
        on.pruned > 0,
        "budget {PRUNING_BUDGET} must generate at least one canonical duplicate \
         or this test pins nothing"
    );
    assert!(
        on.inert > 0,
        "budget {PRUNING_BUDGET} must generate at least one semantically-inert \
         candidate or the third tier pins nothing"
    );
    assert_eq!(syn.inert, 0, "semantic off must never skip semantically");
    assert_eq!(off.pruned, 0, "pruning off must never prune");
    assert_eq!(off.inert, 0, "pruning off disables the semantic tier too");
    assert_eq!(on.digest(), off.digest());
    assert_eq!(syn.digest(), off.digest());
    assert_eq!(
        off.executed,
        on.executed + on.pruned + on.inert,
        "every skipped candidate must be an execution the off arm actually spent"
    );
    assert_eq!(
        off.executed,
        syn.executed + syn.pruned,
        "the syntactic-only arm keeps the PR 8 decomposition"
    );
    assert_eq!(on.rejected, off.rejected);
    assert_eq!(on.rejected, syn.rejected);

    for jobs in [1usize, 2, 4] {
        let (fleet_on, report) = explore_fleet(Arc::new(heavy()), &spec, &on_cfg, jobs);
        let (fleet_syn, _) = explore_fleet(Arc::new(heavy()), &spec, &syn_cfg, jobs);
        let (fleet_off, _) = explore_fleet(Arc::new(heavy()), &spec, &off_cfg, jobs);
        assert_eq!(fleet_on.digest(), off.digest(), "jobs={jobs} semantic on");
        assert_eq!(fleet_syn.digest(), off.digest(), "jobs={jobs} semantic off");
        assert_eq!(fleet_off.digest(), off.digest(), "jobs={jobs} pruning off");
        assert_eq!(fleet_on.pruned, on.pruned, "jobs={jobs} pruned count");
        assert_eq!(fleet_on.inert, on.inert, "jobs={jobs} inert count");
        assert_eq!(report.pruned, on.pruned as u64);
        assert_eq!(report.inert, on.inert as u64);
    }
}

/// The strategy lattice on all three targets: every execution strategy —
/// each switch off alone, and all four off together (the plainest path,
/// the reference) — reaches one digest per (target, seed, epoch), rejects
/// the same candidates, and accounts for every candidate the plainest
/// path executed: `executed_plain == executed + rejected + pruned + inert`
/// (`rejected` counted only where the pre-filter kept them from running).
#[test]
fn strategy_lattice_agrees_on_every_target() {
    let targets: [(&str, Box<dyn TestTarget>, ProtocolSpec); 3] = [
        ("gmp", Box::new(heavy()), ProtocolSpec::gmp()),
        ("tcp", Box::new(TcpTarget::default()), ProtocolSpec::tcp()),
        ("tpc", Box::new(TpcTarget), ProtocolSpec::two_phase_commit()),
    ];
    // (name, prefilter, pruning, semantic, snapshots); the all-off row last.
    let rows = [
        ("default", true, true, true, true),
        ("prefilter off", false, true, true, true),
        ("pruning off", true, false, true, true),
        ("semantic off", true, true, false, true),
        ("snapshots off", true, true, true, false),
        ("all off", false, false, false, false),
    ];
    for (name, target, spec) in &targets {
        for seed in [7u64, 42] {
            for epoch in [1usize, 8] {
                let outcomes: Vec<_> = rows
                    .iter()
                    .map(|&(_, prefilter, pruning, semantic, snapshots)| {
                        let config = ExploreConfig {
                            seed,
                            budget: 256,
                            epoch,
                            prefilter,
                            pruning,
                            semantic,
                            snapshots,
                            ..ExploreConfig::default()
                        };
                        explore(target.as_ref(), spec, &config)
                    })
                    .collect();
                let plain = outcomes.last().unwrap();
                assert_eq!((plain.pruned, plain.inert), (0, 0));
                assert!(
                    outcomes[0].rejected > 0 && outcomes[0].inert > 0,
                    "{name} seed={seed} epoch={epoch}: the default row skipped nothing, \
                     so this cell pins nothing"
                );
                for (row, outcome) in rows.iter().zip(&outcomes) {
                    let at = format!("{name} seed={seed} epoch={epoch} [{}]", row.0);
                    assert_eq!(outcome.digest(), plain.digest(), "{at}");
                    assert_eq!(outcome.rejected, plain.rejected, "{at}");
                    let unexecuted_rejects = if row.1 { outcome.rejected } else { 0 };
                    assert_eq!(
                        plain.executed,
                        outcome.executed + unexecuted_rejects + outcome.pruned + outcome.inert,
                        "{at}"
                    );
                }
            }
        }
    }
}

/// The ISSUE 9 acceptance bar: on the loop-heavy 2048-budget corpus,
/// semantic+inert pruning skips strictly more executions than the
/// syntactic-only canonical tier — while staying digest-identical.
#[test]
fn semantic_pruning_strictly_exceeds_syntactic_only() {
    let spec = ProtocolSpec::gmp();
    let sem = explore(&heavy(), &spec, &config(STRICTNESS_BUDGET));
    let syn = explore(
        &heavy(),
        &spec,
        &ExploreConfig {
            semantic: false,
            ..config(STRICTNESS_BUDGET)
        },
    );
    assert_eq!(sem.digest(), syn.digest());
    assert!(sem.inert > 0);
    assert!(
        sem.pruned + sem.inert > syn.pruned,
        "semantic pruning ({} + {}) must strictly exceed syntactic-only ({})",
        sem.pruned,
        sem.inert,
        syn.pruned
    );
    assert_eq!(
        sem.executed + sem.pruned + sem.inert,
        syn.executed + syn.pruned,
        "both arms account for the same candidate stream"
    );
}

/// Campaign counters are non-identity journal lines: a completed journal
/// carries them, and `Journal::reconstruct` rebuilds the outcome — digest
/// included — without re-executing anything, which is what lets the serve
/// daemon answer `results` after a restart.
#[test]
fn journal_counters_round_trip_and_reconstruct_matches_the_live_outcome() {
    let spec = ProtocolSpec::gmp();
    let path = std::env::temp_dir().join(format!(
        "pfi_pruning_counters_{}.journal",
        std::process::id()
    ));
    let mut cfg = config(PRUNING_BUDGET);
    cfg.journal = Some(path.clone());
    let live = explore(&heavy(), &spec, &cfg);

    let journal = Journal::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let counters = journal
        .counters
        .expect("a complete journal records counters");
    assert_eq!(counters.executed, live.executed);
    assert_eq!(counters.rejected, live.rejected);
    assert_eq!(counters.pruned, live.pruned);
    assert!(counters.pruned > 0);
    assert_eq!(counters.inert, live.inert);
    assert!(counters.inert > 0);
    assert_eq!(counters.replayed, live.replayed);
    assert_eq!(counters.crashed, live.crashed);
    assert_eq!(counters.hung, live.hung);

    let rebuilt = journal.reconstruct();
    assert_eq!(rebuilt.digest(), live.digest());
    assert_eq!(rebuilt.executed, live.executed);
    assert_eq!(rebuilt.pruned, live.pruned);
    assert_eq!(rebuilt.inert, live.inert);
    assert_eq!(rebuilt.failures.len(), live.failures.len());
}

/// A seed corpus executes as the zeroth batch through the normal
/// machinery: deterministic digest, seeds counted in `executed`, and the
/// seeded exploration merges identically across worker counts.
#[test]
fn seed_corpus_is_deterministic_and_counts_toward_executed() {
    let spec = ProtocolSpec::gmp();
    let donor = explore(&heavy(), &spec, &config(24));
    let seeds: Vec<_> = donor
        .corpus
        .iter()
        .filter(|s| !s.is_empty())
        .cloned()
        .collect();
    assert!(!seeds.is_empty());

    let mut cfg = config(24);
    cfg.seed_corpus = seeds.clone();
    let a = explore(&heavy(), &spec, &cfg);
    let b = explore(&heavy(), &spec, &cfg);
    assert_eq!(
        a.digest(),
        b.digest(),
        "seeded exploration must be deterministic"
    );
    assert!(
        a.executed > seeds.len(),
        "seeds ({}) must count toward executed ({}) on top of the baseline \
         and the budgeted search",
        seeds.len(),
        a.executed
    );

    // The seeded config is a different campaign identity than the unseeded
    // one — resume matching pins that via the seed-corpus digest in the
    // journal meta, not via the outcome digest (seeding a run with its own
    // corpus legitimately converges to the same outcome).
    assert_ne!(
        pfi_testgen::seed_corpus_digest(&seeds),
        pfi_testgen::seed_corpus_digest(&[])
    );

    // Fleet execution of the same seeded config merges identically.
    let (fleet, _) = explore_fleet(Arc::new(heavy()), &spec, &cfg, 3);
    assert_eq!(fleet.digest(), a.digest());
}

/// One long-lived pool serves consecutive campaigns — different targets
/// and configs, same threads — and each outcome is byte-identical to a
/// fresh fleet's.
#[test]
fn campaign_fleet_reuse_is_outcome_invariant() {
    let spec = ProtocolSpec::gmp();
    let mut pool = CampaignFleet::new(3);
    assert_eq!(pool.workers(), 3);

    let first = pool.explore(Arc::new(GmpTarget::default()), &spec, &config(24));
    let second = pool.explore(Arc::new(heavy()), &spec, &config(40));
    let report = pool.shutdown();
    assert_eq!(report.workers.len(), 3);

    let (fresh_first, _) = explore_fleet(Arc::new(GmpTarget::default()), &spec, &config(24), 3);
    let (fresh_second, _) = explore_fleet(Arc::new(heavy()), &spec, &config(40), 3);
    assert_eq!(first.digest(), fresh_first.digest());
    assert_eq!(second.digest(), fresh_second.digest());
    // The baseline runs on the master; everything else was dispatched
    // through the shared pool.
    assert_eq!(
        report.dispatched,
        (first.executed - 1 + second.executed - 1) as u64,
        "the shared pool dispatched exactly both campaigns' work"
    );
}
