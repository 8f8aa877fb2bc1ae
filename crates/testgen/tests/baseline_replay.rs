//! The fault-free baseline is the root parent of every corpus, as a
//! differential property.
//!
//! With snapshots on, the run that captures the base world is the
//! baseline, and every fault site tallies the traffic that reaches it. A
//! schedule none of whose faults can act on that traffic is neither forked
//! nor driven: it is handed the baseline's outcome (`replayed`). That is
//! only right if such a schedule's run really is the baseline's, message
//! for message — so over mutated schedules on every bundled shape (gmp
//! 5 s, gmp 60 s, tcp, tpc, and gmp under the panicking chaos oracle) this
//! suite checks, against runs that never go near the store:
//!
//! * the snapshotted run (handed on or forked and driven) equals a cold
//!   `--no-snapshots` run in verdict, oracle and coverage, and
//! * whenever the baseline handed its outcome on, a fully driven run of
//!   the same schedule — built, installed, driven and harvested here from
//!   public pieces — renders the same trace as the fault-free baseline,
//!   line for line.
//!
//! A driven candidate starts from a restored retired world; if that world
//! were not byte-identical to a fresh fork, the first check fails.
//!
//! Seed count from `PFI_REPLAY_SEEDS` (default 2; CI and the numbers in
//! EXPERIMENTS.md use more).

use std::sync::Arc;

use pfi_core::{Filter, PfiControl, PfiReply};
use pfi_sim::SimRng;
use pfi_testgen::{
    run_schedule_limited, run_schedule_snapshotted, schedule_is_installable, ChaosOracleTarget,
    FaultSchedule, GmpTarget, ProtocolSpec, RunLimits, ScheduleMutator, SnapshotStore, TcpTarget,
    TestTarget, TpcTarget,
};

/// Schedules tried per target per seed.
const SCHEDULES: usize = 16;

fn seeds() -> u64 {
    std::env::var("PFI_REPLAY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// Builds the target's world, installs `schedule`'s filters, drives and
/// harvests — no store — and renders the trace.
fn driven_trace(target: &dyn TestTarget, schedule: &FaultSchedule) -> Vec<String> {
    let (mut world, sites) = target.build();
    world.trace_timers = true;
    for s in &schedule.lower() {
        let (node, pfi_layer) = sites[s.site as usize];
        for (script, install) in [
            (&s.send, PfiControl::SetSendFilter as fn(Filter) -> _),
            (&s.recv, PfiControl::SetRecvFilter as fn(Filter) -> _),
        ] {
            if !script.is_empty() {
                let filter = Filter::script(script).expect("lowered scripts parse");
                let _: PfiReply = world.control(node, pfi_layer, install(filter));
            }
        }
    }
    target.drive(&mut world, &RunLimits::default());
    target.harvest(&mut world);
    world.trace().render()
}

/// A chain of installable mutants: each mutates a random earlier one, the
/// way a campaign's corpus grows. The chain starts from the empty schedule
/// and from `acting` — a fault on a message that does flow — so that both
/// sides of the rule's answer are well represented (mutants of the empty
/// schedule mostly fault message types a converged run never sends).
fn mutants(
    target: &dyn TestTarget,
    spec: &ProtocolSpec,
    acting: &str,
    seed: u64,
) -> Vec<FaultSchedule> {
    let mutator = ScheduleMutator::new(spec, target.node_count(), target.fault_sites());
    let mut rng = SimRng::seed_from(seed);
    let acting = FaultSchedule::from_lines([acting]).expect("fixture schedule");
    let mut pool = vec![FaultSchedule::empty(), acting];
    let mut attempts = 0;
    while pool.len() <= SCHEDULES && attempts < SCHEDULES * 8 {
        attempts += 1;
        let parent = pool[rng.uniform_u64(0, pool.len() as u64) as usize].clone();
        let child = mutator.mutate(&parent, 3, &mut rng);
        if schedule_is_installable(&child, target.fault_sites())
            && !pool.iter().any(|s| s.id() == child.id())
        {
            pool.push(child);
        }
    }
    pool.remove(0);
    pool
}

/// The property on one target; returns `(replayed, tried)`.
fn check(target: &dyn TestTarget, spec: &ProtocolSpec, acting: &str) -> (u64, usize) {
    let limits = RunLimits::default();
    let baseline_trace = driven_trace(target, &FaultSchedule::empty());
    let mut store = SnapshotStore::default();
    run_schedule_snapshotted(target, &FaultSchedule::empty(), &limits, Some(&mut store));
    assert_eq!(store.stats().stored, 1, "{}: the base forks", target.name());

    let mut tried = 0;
    for seed in 0..seeds() {
        for schedule in mutants(target, spec, acting, 0x5eed_0000 + seed) {
            tried += 1;
            let before = store.stats().replayed;
            let forked = run_schedule_snapshotted(target, &schedule, &limits, Some(&mut store));
            let replayed = store.stats().replayed > before;
            let cold = run_schedule_limited(target, &schedule, &limits);
            let id = schedule.id();
            assert_eq!(forked.verdict, cold.verdict, "{}: {id}", target.name());
            assert_eq!(forked.oracle, cold.oracle, "{}: {id}", target.name());
            assert_eq!(forked.coverage, cold.coverage, "{}: {id}", target.name());
            if replayed {
                let driven = driven_trace(target, &schedule);
                assert_eq!(
                    driven.len(),
                    baseline_trace.len(),
                    "{}: {id} was handed the baseline's outcome but its driven trace is \
                     not the baseline's",
                    target.name()
                );
                for (n, (got, want)) in driven.iter().zip(&baseline_trace).enumerate() {
                    assert_eq!(got, want, "{}: {id}, trace line {n}", target.name());
                }
            }
        }
    }
    let stats = store.stats();
    assert_eq!(
        (stats.hits + stats.replayed) as usize,
        tried,
        "{}: a schedule handed the baseline's outcome is not forked",
        target.name()
    );
    (stats.replayed, tried)
}

#[test]
fn replayed_or_driven_a_forked_run_equals_the_cold_one_on_every_shape() {
    let gmp_short = GmpTarget {
        fault_secs: 5,
        ..GmpTarget::default()
    };
    let chaos = ChaosOracleTarget {
        inner: Arc::new(gmp_short.clone()),
    };
    let (gmp, tcp, tpc) = (
        ProtocolSpec::gmp(),
        ProtocolSpec::tcp(),
        ProtocolSpec::two_phase_commit(),
    );
    let heartbeat = "n1 recv drop-nth HEARTBEAT 3";
    let shapes: [(&str, &dyn TestTarget, &ProtocolSpec, &str); 5] = [
        ("gmp 5 s", &gmp_short, &gmp, heartbeat),
        ("gmp 60 s", &GmpTarget::default(), &gmp, heartbeat),
        (
            "tcp",
            &TcpTarget::default(),
            &tcp,
            "n0 recv drop-nth DATA 2",
        ),
        ("tpc", &TpcTarget, &tpc, "n1 recv delay-ms PREPARE 250"),
        ("gmp 5 s, chaos oracle", &chaos, &gmp, heartbeat),
    ];
    for (shape, target, spec, acting) in shapes {
        let (replayed, tried) = check(target, spec, acting);
        println!("{shape}: {replayed} of {tried} runs handed the baseline's outcome");
        let driven = tried as u64 - replayed;
        assert!(
            replayed >= 3 && driven >= 3,
            "{shape}: {replayed} replayed, {driven} driven — one side of the property is vacuous"
        );
    }
}
