//! The fleet's campaign-level determinism contract, asserted against the
//! real explorer (dev-only dependency cycle, allowed by cargo):
//!
//! 1. At `epoch: 1`, `explore`, and `explore_fleet` at any worker count,
//!    all reproduce the **pre-fleet sequential explorer** byte-for-byte —
//!    digest, corpus order, executed count, and repro artifact bytes. The
//!    reference below is a verbatim re-implementation of that original
//!    generate-one/run-one/merge-one loop.
//! 2. At wide epochs the walk differs from the sequential one, but the
//!    outcome is still a pure function of the config: jobs ∈ {1, 2, 4}
//!    give identical digests.
//! 3. The digest for the CI smoke configuration matches the committed
//!    golden value.

use std::collections::BTreeSet;
use std::sync::Arc;

use pfi_gmp::GmpBugs;
use pfi_sim::SimRng;
use pfi_testgen::{
    explore, explore_fleet, run_schedule, shrink_schedule, ExploreConfig, ExploreOutcome,
    FaultSchedule, FoundFailure, GmpTarget, ProtocolSpec, Repro, ScheduleMutator, TestTarget,
    Verdict,
};

/// The seed all determinism assertions run under (same as the testgen
/// acceptance suite).
const SEED: u64 = 42;

fn buggy_gmp() -> GmpTarget {
    GmpTarget {
        bugs: GmpBugs {
            self_death: true,
            ..GmpBugs::none()
        },
        fault_secs: 60,
    }
}

fn fixed_gmp() -> GmpTarget {
    GmpTarget {
        bugs: GmpBugs::none(),
        fault_secs: 60,
    }
}

/// The pre-fleet sequential explorer, verbatim: pick a parent, mutate,
/// dedup, run, merge coverage, shrink-and-confirm violations — one
/// candidate at a time on one thread. The epoch engine at `epoch: 1` must
/// reproduce this loop exactly (same RNG stream, same executed counts,
/// same artifact bytes). This loop predates static pre-filtering, so it
/// runs uninstallable candidates (which refuse at install time with
/// empty coverage) — the comparison below therefore uses
/// `prefilter: false`; digest equality between the filtered and
/// unfiltered engines is asserted separately in the testgen suite.
fn reference_sequential_explore(
    target: &dyn TestTarget,
    spec: &ProtocolSpec,
    config: &ExploreConfig,
) -> ExploreOutcome {
    let mut rng = SimRng::seed_from(config.seed);
    let mutator = ScheduleMutator::new(spec, target.node_count(), target.fault_sites());

    let baseline = FaultSchedule::empty();
    let base_run = run_schedule(target, &baseline);
    let mut coverage = base_run.coverage;
    let mut corpus = vec![baseline.clone()];
    let mut executed = 1usize;

    let mut seen = BTreeSet::new();
    seen.insert(baseline.id());
    let mut failures: Vec<FoundFailure> = Vec::new();
    let mut failure_keys = BTreeSet::new();

    for _ in 0..config.budget {
        let parent = &corpus[rng.uniform_u64(0, corpus.len() as u64) as usize];
        let candidate = mutator.mutate(parent, config.max_faults, &mut rng);
        if !seen.insert(candidate.id()) {
            continue;
        }
        let run = run_schedule(target, &candidate);
        executed += 1;
        if coverage.merge(&run.coverage) > 0 {
            corpus.push(candidate.clone());
        }
        if !run.verdict.is_violation() {
            continue;
        }
        let oracle = run.oracle.clone().unwrap_or_else(|| "target".to_string());
        let shrunk = shrink_schedule(&candidate, |s| {
            executed += 1;
            let rerun = run_schedule(target, s);
            rerun.verdict.is_violation() && rerun.oracle.as_deref() == Some(oracle.as_str())
        });
        if !failure_keys.insert((oracle.clone(), shrunk.id())) {
            continue;
        }
        let final_run = run_schedule(target, &shrunk);
        executed += 1;
        let message = match &final_run.verdict {
            Verdict::Violated(m) => m
                .strip_prefix(&format!("{oracle}: "))
                .unwrap_or(m)
                .to_string(),
            other => unreachable!("shrunk schedule stopped failing: {other:?}"),
        };
        failures.push(FoundFailure {
            schedule: candidate,
            shrunk: shrunk.clone(),
            oracle: oracle.clone(),
            message: message.clone(),
            repro: Repro {
                target: target.name().to_string(),
                seed: target.seed(),
                oracle,
                message,
                schedule: shrunk,
            },
        });
    }

    ExploreOutcome {
        corpus,
        coverage,
        failures,
        executed,
        rejected: 0,
        replayed: 0,
        crashed: 0,
        hung: 0,
        quarantined: Vec::new(),
        snapshots: pfi_testgen::SnapshotStats::default(),
    }
}

fn repro_bytes(outcome: &ExploreOutcome) -> Vec<String> {
    outcome.failures.iter().map(|f| f.repro.to_text()).collect()
}

fn corpus_ids(outcome: &ExploreOutcome) -> Vec<String> {
    outcome.corpus.iter().map(FaultSchedule::id).collect()
}

#[test]
fn epoch_one_fleet_reproduces_the_prefleet_sequential_explorer() {
    let target = buggy_gmp();
    let spec = ProtocolSpec::gmp();
    let config = ExploreConfig {
        seed: SEED,
        budget: 40, // smallest budget at which this seed rediscovers the bug
        max_faults: 3,
        epoch: 1,
        prefilter: false,
        ..ExploreConfig::default()
    };

    let reference = reference_sequential_explore(&target, &spec, &config);
    assert!(
        !reference.failures.is_empty(),
        "the buggy target must fail within the budget for the repro-bytes \
         comparison to mean anything"
    );

    let inline = explore(&target, &spec, &config);
    assert_eq!(inline.digest(), reference.digest(), "inline explore");
    assert_eq!(inline.executed, reference.executed, "inline executed");

    for jobs in [1, 2, 4] {
        let (outcome, report) = explore_fleet(Arc::new(target.clone()), &spec, &config, jobs);
        assert_eq!(
            outcome.digest(),
            reference.digest(),
            "digest diverged at jobs={jobs}"
        );
        assert_eq!(
            corpus_ids(&outcome),
            corpus_ids(&reference),
            "corpus order diverged at jobs={jobs}"
        );
        assert_eq!(
            repro_bytes(&outcome),
            repro_bytes(&reference),
            "repro artifact bytes diverged at jobs={jobs}"
        );
        assert_eq!(
            outcome.executed, reference.executed,
            "executed count diverged at jobs={jobs}"
        );
        assert_eq!(report.workers.len(), jobs);
        assert!(report.executed() > 0);
    }
}

#[test]
fn wide_epoch_outcomes_are_worker_count_invariant() {
    let target = buggy_gmp();
    let spec = ProtocolSpec::gmp();
    for epoch in [8, 16] {
        let config = ExploreConfig {
            seed: SEED,
            budget: 24,
            max_faults: 3,
            epoch,
            prefilter: true,
            ..ExploreConfig::default()
        };
        let mut digests = Vec::new();
        for jobs in [1, 2, 4] {
            let (outcome, _) = explore_fleet(Arc::new(target.clone()), &spec, &config, jobs);
            digests.push((jobs, outcome.digest64(), outcome.executed));
        }
        let (_, first_digest, first_executed) = digests[0].clone();
        for (jobs, digest, executed) in &digests {
            assert_eq!(
                (digest, executed),
                (&first_digest, &first_executed),
                "epoch {epoch}, jobs {jobs} diverged"
            );
        }
    }
}

/// The CI parallel-campaign smoke job runs
/// `pfi-campaign gmp --explore --seed 42 --budget 24 --epoch 8 --digest`
/// at `--jobs 1` and `--jobs 4` and diffs the output against the
/// committed golden line. This test pins the same value from inside the
/// test suite so a digest-changing edit fails locally, not just in CI.
#[test]
fn golden_campaign_digest_is_stable() {
    let golden = include_str!("golden_campaign_digest.txt");
    let config = ExploreConfig {
        seed: SEED,
        budget: 24,
        max_faults: 3,
        epoch: 8,
        prefilter: true,
        ..ExploreConfig::default()
    };
    let (outcome, _) = explore_fleet(Arc::new(fixed_gmp()), &ProtocolSpec::gmp(), &config, 2);
    let line = format!(
        "pfi-campaign digest gmp seed={} budget={} epoch={} {}",
        config.seed,
        config.budget,
        config.epoch,
        outcome.digest64()
    );
    assert_eq!(
        line,
        golden.trim_end(),
        "campaign digest changed; if intentional, regenerate \
         crates/fleet/tests/golden_campaign_digest.txt with \
         `cargo run --release -p pfi-testgen --bin pfi-campaign -- \
         gmp --explore --seed 42 --budget 24 --epoch 8 --digest`"
    );
}
