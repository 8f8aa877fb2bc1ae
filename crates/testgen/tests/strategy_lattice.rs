//! The strategy lattice: every way of executing a campaign — worker
//! count, epoch width aside, snapshot/fork on or off, the static
//! pre-filter on or off — must reach the digest the plainest path reaches,
//! on every target and every seed swept, and account for every candidate
//! the plainest path executed. Plus the bookkeeping that rides along: the
//! journal's counters, seed corpora, and a pool reused across campaigns.

use std::sync::Arc;

use pfi_testgen::{
    explore, explore_fleet, CampaignFleet, ExploreConfig, GmpTarget, Journal, ProtocolSpec,
    TcpTarget, TestTarget, TpcTarget,
};

/// The loop-heavy target: short post-fault horizon, so big-budget
/// campaigns stay fast.
fn heavy() -> GmpTarget {
    GmpTarget {
        fault_secs: 5,
        ..GmpTarget::default()
    }
}

fn config(budget: usize) -> ExploreConfig {
    ExploreConfig {
        seed: 42,
        budget,
        max_faults: 2,
        epoch: 8,
        ..ExploreConfig::default()
    }
}

/// How many campaign seeds (1, 2, …) the lattice sweeps per target:
/// `PFI_LATTICE_SEEDS`, 3 when unset. CI runs 60.
fn lattice_seeds() -> u64 {
    std::env::var("PFI_LATTICE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// {gmp 5 s, tcp, tpc} × seeds × {default, prefilter off, snapshots off,
/// all off} × epoch {1, 8} × jobs {1, 2}: one digest per (target, seed,
/// epoch) — the plainest path's, all off at one job — the same rejected
/// candidates, and `executed_plain == executed + rejected` wherever the
/// pre-filter kept the rejects from running (`== executed` where not).
#[test]
fn strategy_lattice_agrees_on_every_target() {
    let targets: [(&str, Arc<dyn TestTarget>, ProtocolSpec); 3] = [
        ("gmp", Arc::new(heavy()), ProtocolSpec::gmp()),
        ("tcp", Arc::new(TcpTarget::default()), ProtocolSpec::tcp()),
        ("tpc", Arc::new(TpcTarget), ProtocolSpec::two_phase_commit()),
    ];
    // (name, prefilter, snapshots); the plainest path last.
    let rows = [
        ("default", true, true),
        ("prefilter off", false, true),
        ("snapshots off", true, false),
        ("all off", false, false),
    ];
    // One pool per worker count, reused by every cell (reuse is itself
    // outcome-invariant: `campaign_fleet_reuse_is_outcome_invariant`).
    let mut pools = [CampaignFleet::new(1), CampaignFleet::new(2)];
    for (name, target, spec) in &targets {
        for seed in 1..=lattice_seeds() {
            for epoch in [1usize, 8] {
                let config = |prefilter, snapshots| ExploreConfig {
                    seed,
                    budget: 256,
                    epoch,
                    prefilter,
                    snapshots,
                    ..ExploreConfig::default()
                };
                let plain = pools[0].explore(Arc::clone(target), spec, &config(false, false));
                for (row, prefilter, snapshots) in rows {
                    for pool in &mut pools {
                        let jobs = pool.workers();
                        let at = format!("{name} seed={seed} epoch={epoch} jobs={jobs} [{row}]");
                        let outcome =
                            pool.explore(Arc::clone(target), spec, &config(prefilter, snapshots));
                        assert_eq!(outcome.digest(), plain.digest(), "{at}");
                        assert_eq!(outcome.rejected, plain.rejected, "{at}");
                        let unexecuted_rejects = if prefilter { outcome.rejected } else { 0 };
                        assert_eq!(
                            plain.executed,
                            outcome.executed + unexecuted_rejects,
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}

/// The seed the retired semantic prune tier got wrong (`pfi-campaign tcp
/// --explore --budget 256 --epoch 8 --seed 17000 --digest` printed
/// `3de6487cdf17e71e` with it on): every strategy now prints the digest
/// the plainest path always printed.
#[test]
fn tcp_seed_17000_reaches_the_plainest_digest() {
    for (prefilter, snapshots) in [(true, true), (false, false)] {
        let config = ExploreConfig {
            seed: 17000,
            budget: 256,
            epoch: 8,
            prefilter,
            snapshots,
            ..ExploreConfig::default()
        };
        let outcome = explore(&TcpTarget::default(), &ProtocolSpec::tcp(), &config);
        assert_eq!(outcome.digest64(), "a1c4e5c0ae00747c");
    }
}

/// Campaign counters are non-identity journal lines: a completed journal
/// carries them, and `Journal::reconstruct` rebuilds the outcome — digest
/// included — without re-executing anything, which is what lets the serve
/// daemon answer `results` after a restart.
#[test]
fn journal_counters_round_trip_and_reconstruct_matches_the_live_outcome() {
    let spec = ProtocolSpec::gmp();
    let path = std::env::temp_dir().join(format!(
        "pfi_lattice_counters_{}.journal",
        std::process::id()
    ));
    let mut cfg = config(256);
    cfg.journal = Some(path.clone());
    let live = explore(&heavy(), &spec, &cfg);

    let journal = Journal::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let counters = journal
        .counters
        .expect("a complete journal records counters");
    assert_eq!(counters.executed, live.executed);
    assert_eq!(counters.rejected, live.rejected);
    assert!(counters.rejected > 0);
    assert_eq!(counters.replayed, live.replayed);
    assert_eq!(counters.crashed, live.crashed);
    assert_eq!(counters.hung, live.hung);

    let rebuilt = journal.reconstruct();
    assert_eq!(rebuilt.digest(), live.digest());
    assert_eq!(rebuilt.executed, live.executed);
    assert_eq!(rebuilt.rejected, live.rejected);
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
