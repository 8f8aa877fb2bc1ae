//! Acceptance tests for the coverage-guided campaign engine: the seeded
//! exploration loop must rediscover every seeded GMP bug within a fixed
//! budget, shrink each failure to a 1-minimal fault set, emit a repro
//! artifact that replays byte-identically, beat the grid on
//! coverage at equal case count, and be bit-for-bit deterministic.

use std::sync::Arc;

use pfi_gmp::GmpBugs;
use pfi_testgen::{
    explore, explore_fleet, grid, run_schedule_limited, run_schedule_snapshotted, Coverage,
    ExploreConfig, GmpTarget, ProtocolSpec, RunLimits, SnapshotStore, TestTarget,
};

/// The fixed seed the rediscovery tests run under. The budgets below were
/// sized so each bug is found well inside them at this seed; bumping a
/// budget is fine, silently changing the seed is not (it would invalidate
/// the sizing).
const SEED: u64 = 42;

fn buggy(bug: &str) -> GmpTarget {
    GmpTarget {
        bugs: GmpBugs {
            self_death: bug == "self_death",
            proclaim_forward: bug == "proclaim_forward",
            timer_unset: bug == "timer_unset",
        },
        fault_secs: 60,
    }
}

/// Runs the full rediscovery contract for one seeded bug: explore finds a
/// violation of `oracle`, the shrunk schedule is 1-minimal under
/// re-execution, and the repro artifact round-trips and replays.
fn rediscovers(bug: &str, oracle: &str, budget: usize) {
    let target = buggy(bug);
    let spec = ProtocolSpec::gmp();
    let outcome = explore(
        &target,
        &spec,
        // epoch: 1 pins the classic sequential trajectory these budgets
        // were sized against (epoch width changes the search walk).
        &ExploreConfig {
            seed: SEED,
            budget,
            max_faults: 3,
            epoch: 1,
            ..ExploreConfig::default()
        },
    );
    let failure = outcome
        .failures
        .iter()
        .find(|f| f.oracle == oracle)
        .unwrap_or_else(|| {
            panic!(
                "{bug}: no {oracle} violation in budget {budget}; found {:?}",
                outcome
                    .failures
                    .iter()
                    .map(|f| f.oracle.as_str())
                    .collect::<Vec<_>>()
            )
        });

    // The shrunk schedule still reproduces the violation from scratch.
    assert!(
        !failure.shrunk.faults.is_empty(),
        "{bug}: empty shrunk schedule"
    );
    assert!(failure.shrunk.len() <= failure.schedule.len());
    let rerun = run_schedule_limited(&target, &failure.shrunk, &RunLimits::default());
    assert!(
        rerun.verdict.is_violation() && rerun.oracle.as_deref() == Some(oracle),
        "{bug}: shrunk schedule no longer violates {oracle}: {:?}",
        rerun.verdict
    );

    // 1-minimality: dropping any single fault loses this violation.
    for i in 0..failure.shrunk.faults.len() {
        let mut cand = failure.shrunk.clone();
        let removed = cand.faults.remove(i);
        let run = run_schedule_limited(&target, &cand, &RunLimits::default());
        assert!(
            !(run.verdict.is_violation() && run.oracle.as_deref() == Some(oracle)),
            "{bug}: still violates {oracle} without fault {}",
            removed.to_line()
        );
    }

    // The repro artifact round-trips byte-identically and replays to the
    // same verdict against a fresh target.
    let text = failure.repro.to_text();
    let parsed = pfi_testgen::Repro::from_text(&text).expect("repro parses back");
    assert_eq!(parsed, failure.repro, "{bug}: repro round-trip changed it");
    assert_eq!(parsed.to_text(), text, "{bug}: re-serialization differs");
    assert_eq!(parsed.target, "gmp");
    assert_eq!(parsed.seed, target.seed());
    let replayed = run_schedule_limited(&target, &parsed.schedule, &RunLimits::default());
    assert!(
        replayed.verdict.is_violation() && replayed.oracle.as_deref() == Some(oracle),
        "{bug}: replayed repro gave {:?}",
        replayed.verdict
    );
}

#[test]
fn explore_rediscovers_gmp_self_death() {
    rediscovers("self_death", "gmp-no-self-death", 60);
}

#[test]
fn explore_rediscovers_gmp_proclaim_forwarding() {
    rediscovers("proclaim_forward", "gmp-proclaim-routing", 60);
}

#[test]
fn explore_rediscovers_gmp_timer_unset() {
    // Needs two coordinated faults on different sites (park one node in
    // transition, induce churn from another), hence the larger budget.
    rediscovers("timer_unset", "gmp-timer-discipline", 150);
}

#[test]
fn coverage_guided_search_beats_the_grid() {
    let spec = ProtocolSpec::gmp();
    let target = GmpTarget {
        bugs: GmpBugs::none(),
        fault_secs: 60,
    };
    let schedules = grid(&spec, target.primary_site());
    let mut grid_coverage = Coverage::new();
    let mut store = SnapshotStore::default();
    for schedule in &schedules {
        let run =
            run_schedule_snapshotted(&target, schedule, &RunLimits::default(), Some(&mut store));
        grid_coverage.merge(&run.coverage);
    }

    // Equal case count: the grid ran schedules.len() rows, exploration
    // gets a budget of schedules.len() - 1 mutations plus its baseline.
    // The fixed target yields no failures — so no shrink re-runs inflate
    // the count and exploration can never out-run the grid.
    let outcome = explore(
        &target,
        &spec,
        &ExploreConfig {
            seed: SEED,
            budget: schedules.len() - 1,
            max_faults: 3,
            epoch: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(outcome.executed <= schedules.len());
    assert!(
        outcome.coverage.len() > grid_coverage.len(),
        "explore reached {} edges in {} runs, grid reached {} in {}",
        outcome.coverage.len(),
        outcome.executed,
        grid_coverage.len(),
        schedules.len()
    );
    // Not just more edges: edges the whole grid never reaches at all
    // (composed multi-fault schedules drive states single faults cannot).
    assert!(outcome.coverage.difference(&grid_coverage).next().is_some());
}

#[test]
fn exploration_is_deterministic() {
    let target = buggy("self_death");
    let spec = ProtocolSpec::gmp();
    let config = ExploreConfig {
        seed: 7,
        budget: 40,
        max_faults: 3,
        epoch: 1,
        ..ExploreConfig::default()
    };
    let a = explore(&target, &spec, &config);
    let b = explore(&target, &spec, &config);
    assert_eq!(
        a.digest(),
        b.digest(),
        "same seed must give identical outcomes"
    );
    // And a different seed actually changes the walk (digest is not a
    // constant function).
    let c = explore(&target, &spec, &ExploreConfig { seed: 8, ..config });
    assert_ne!(a.digest(), c.digest());
}

/// Admission refuses uninstallable candidates on the master thread before
/// dispatch, so a campaign with refusals stays byte-stable across worker
/// counts, and the fleet report carries the rejection count.
#[test]
fn prefiltered_exploration_is_worker_count_invariant() {
    let spec = ProtocolSpec::gmp();
    let config = ExploreConfig {
        seed: SEED,
        budget: 24,
        max_faults: 3,
        epoch: 8,
        ..ExploreConfig::default()
    };
    let mut outcomes = Vec::new();
    for jobs in [1, 4] {
        let (outcome, report) = explore_fleet(Arc::new(buggy("self_death")), &spec, &config, jobs);
        assert_eq!(
            report.rejected, outcome.rejected as u64,
            "fleet report must carry the campaign's rejection count"
        );
        outcomes.push((jobs, outcome));
    }
    let (_, first) = &outcomes[0];
    assert!(first.rejected > 0, "seed {SEED} must reject some mutants");
    for (jobs, outcome) in &outcomes {
        assert_eq!(outcome.digest(), first.digest(), "jobs={jobs} diverged");
        assert_eq!(outcome.rejected, first.rejected, "jobs={jobs} diverged");
        assert_eq!(outcome.executed, first.executed, "jobs={jobs} diverged");
    }
}

#[test]
fn clean_target_yields_no_failures() {
    let outcome = explore(
        &GmpTarget {
            bugs: GmpBugs::none(),
            fault_secs: 60,
        },
        &ProtocolSpec::gmp(),
        &ExploreConfig {
            seed: SEED,
            budget: 24,
            max_faults: 3,
            epoch: 1,
            ..ExploreConfig::default()
        },
    );
    assert!(
        outcome.failures.is_empty(),
        "fixed GMP violated an oracle: {:?}",
        outcome
            .failures
            .iter()
            .map(|f| (&f.oracle, &f.message))
            .collect::<Vec<_>>()
    );
    assert!(!outcome.coverage.is_empty());
}
