//! The strategy lattice: every way of executing a campaign — worker
//! count, epoch width aside, snapshot/fork on or off — must reach the
//! digest the plainest path reaches, on every target and every seed
//! swept, and account for every candidate the plainest path executed. Plus the bookkeeping that rides along: the
//! journal's counters, seed corpora, and a pool reused across campaigns.

use std::sync::Arc;

use pfi_testgen::{
    bundled, explore, explore_fleet, CampaignFleet, ExploreConfig, ExploreOutcome, GmpTarget,
    Journal, ProtocolSpec, TcpTarget, TestTarget, TpcTarget,
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

/// {gmp 5 s, tcp, tpc} × seeds × {default, snapshots off} × epoch {1, 8}
/// × jobs {1, 2}: one digest per (target, seed, epoch) — the plainest
/// path's, snapshots off at one job — the same rejected candidates, and
/// the same executed count.
#[test]
fn strategy_lattice_agrees_on_every_target() {
    let targets: [(&str, Arc<dyn TestTarget>, ProtocolSpec); 3] = [
        ("gmp", Arc::new(heavy()), ProtocolSpec::gmp()),
        ("tcp", Arc::new(TcpTarget::default()), ProtocolSpec::tcp()),
        ("tpc", Arc::new(TpcTarget), ProtocolSpec::two_phase_commit()),
    ];
    // (name, snapshots); the plainest path last.
    let rows = [("default", true), ("snapshots off", false)];
    // One pool per worker count, reused by every cell (reuse is itself
    // outcome-invariant: `campaign_fleet_reuse_is_outcome_invariant`).
    let mut pools = [CampaignFleet::new(1), CampaignFleet::new(2)];
    for (name, target, spec) in &targets {
        for seed in 1..=lattice_seeds() {
            for epoch in [1usize, 8] {
                let config = |snapshots| ExploreConfig {
                    seed,
                    budget: 256,
                    epoch,
                    snapshots,
                    ..ExploreConfig::default()
                };
                let plain = pools[0].explore(Arc::clone(target), spec, &config(false));
                for (row, snapshots) in rows {
                    for pool in &mut pools {
                        let jobs = pool.workers();
                        let at = format!("{name} seed={seed} epoch={epoch} jobs={jobs} [{row}]");
                        let outcome = pool.explore(Arc::clone(target), spec, &config(snapshots));
                        assert_eq!(outcome.digest(), plain.digest(), "{at}");
                        assert_eq!(outcome.rejected, plain.rejected, "{at}");
                        assert_eq!(outcome.executed, plain.executed, "{at}");
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
    for snapshots in [true, false] {
        let config = ExploreConfig {
            seed: 17000,
            budget: 256,
            epoch: 8,
            snapshots,
            ..ExploreConfig::default()
        };
        let outcome = explore(&TcpTarget::default(), &ProtocolSpec::tcp(), &config);
        assert_eq!(outcome.digest64(), "a1c4e5c0ae00747c");
    }
}

/// The same seed on the other bundled targets, as `pfi-campaign P
/// [--buggy] --explore --budget 256 --epoch 8 --seed 17000 --digest`
/// prints it: campaign digests cover every edge string, so a change to
/// how coverage is extracted or merged that moves one edge moves these.
#[test]
fn seed_17000_digests_hold_on_gmp_and_tpc() {
    let config = ExploreConfig {
        seed: 17000,
        budget: 256,
        epoch: 8,
        ..ExploreConfig::default()
    };
    for (proto, buggy, digest) in [
        ("gmp", false, "62b2c325090418ca"),
        ("gmp", true, "738ae6ccfdf45ed5"),
        ("tpc", false, "b8afbebab39709d1"),
    ] {
        let (spec, target) = bundled(proto, buggy, 60).expect("a bundled protocol");
        let outcome = explore(target.as_ref(), &spec, &config);
        assert_eq!(outcome.digest64(), digest, "{proto} buggy={buggy}");
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
    std::fs::remove_file(&path).ok(); // the engine appends to what it finds
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
/// fresh fleet's. Back to back on one target handle under equal limits,
/// the second campaign starts from the base world and baseline the first
/// one left on the pool: its baseline is settled by that root, one more
/// replayed run with no hit, no miss and nothing stored, and digest and
/// journal bytes stay a fresh fleet's. Another handle or another step
/// budget prepares afresh.
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
    // The baseline runs on the master, and so does the settle step: a
    // candidate handed its parent's or the baseline's outcome is never
    // dispatched. Everything else went through the shared pool.
    let driven =
        |o: &ExploreOutcome| o.executed as u64 - 1 - o.snapshots.replayed - o.snapshots.inherited;
    assert_eq!(
        report.dispatched,
        driven(&first) + driven(&second),
        "the shared pool dispatched exactly both campaigns' driven work"
    );

    let journal = |name: &str| {
        let file = format!("pfi_lattice_reuse_{}_{name}.journal", std::process::id());
        std::env::temp_dir().join(file)
    };
    let journaled = |name| {
        std::fs::remove_file(journal(name)).ok(); // the engine appends
        ExploreConfig {
            journal: Some(journal(name)),
            ..config(40)
        }
    };
    let handle: Arc<dyn TestTarget> = Arc::new(heavy());
    let mut pool = CampaignFleet::new(2);
    pool.explore(Arc::clone(&handle), &spec, &config(24));
    let kept = pool.explore(Arc::clone(&handle), &spec, &journaled("kept"));
    let (fresh, _) = explore_fleet(Arc::new(heavy()), &spec, &journaled("fresh"), 2);
    let (kept_snap, fresh_snap) = (&kept.snapshots, &fresh.snapshots);
    assert_eq!((fresh_snap.misses, fresh_snap.stored), (1, 1));
    assert_eq!((kept_snap.misses, kept_snap.stored), (0, 0));
    assert_eq!(kept_snap.hits, fresh_snap.hits);
    assert_eq!(kept_snap.events_skipped, fresh_snap.events_skipped);
    assert_eq!(kept_snap.replayed, fresh_snap.replayed + 1);
    assert_eq!(kept.digest(), fresh.digest());
    let bytes = |name| {
        let path = journal(name);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    assert_eq!(bytes("kept"), bytes("fresh"), "journal bytes");

    // The kept base is the first handle's: an equal target behind another
    // handle prepares its own, and so does that handle under a step budget.
    let other: Arc<dyn TestTarget> = Arc::new(heavy());
    let equal = pool.explore(Arc::clone(&other), &spec, &config(40));
    assert_eq!(equal.snapshots.misses, 1);
    assert_eq!(equal.digest(), fresh.digest());
    let budgeted = ExploreConfig {
        step_budget: 5000,
        ..config(40)
    };
    let budgeted = pool.explore(other, &spec, &budgeted);
    assert_eq!(budgeted.snapshots.misses, 1);
    pool.shutdown();
}
