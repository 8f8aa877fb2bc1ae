//! End-to-end campaigns: grid schedules actually find the paper's bugs.

use pfi_gmp::GmpBugs;
use pfi_testgen::{
    grid, run_schedule_limited, FaultOp, FaultSchedule, GmpTarget, ProtocolSpec, RunLimits,
    ScheduleRun, TcpTarget, TestTarget, TpcTarget, Verdict,
};

fn run(target: &dyn TestTarget, schedule: &FaultSchedule) -> ScheduleRun {
    run_schedule_limited(target, schedule, &RunLimits::default())
}

/// Runs the schedule a one-line id names.
fn run_id(target: &dyn TestTarget, id: &str) -> ScheduleRun {
    run(target, &FaultSchedule::from_id(id).unwrap())
}

#[test]
fn fixed_gmp_passes_the_full_drop_campaign() {
    // Every single-message-type drop, both directions, against the fixed
    // implementation: plenty of degradation, zero invariant violations.
    let target = GmpTarget {
        bugs: GmpBugs::none(),
        fault_secs: 60,
    };
    let drops: Vec<FaultSchedule> = grid(&ProtocolSpec::gmp(), target.primary_site())
        .into_iter()
        .filter(|s| matches!(s.faults[0].op, FaultOp::DropAll { .. }))
        .collect();
    assert_eq!(drops.len(), 16);
    let violations: Vec<_> = drops
        .iter()
        .map(|s| run(&target, s))
        .filter(|r| r.verdict.is_violation())
        .collect();
    assert!(
        violations.is_empty(),
        "fixed GMP must not violate invariants: {violations:?}"
    );
}

#[test]
fn campaign_discovers_the_self_death_bug_automatically() {
    // The grid's send-side heartbeat drop against the buggy implementation
    // finds the self-death bug: dropping outgoing heartbeats (which
    // includes the daemon's own loopback heartbeat) trips it.
    let target = GmpTarget {
        bugs: GmpBugs {
            self_death: true,
            ..GmpBugs::none()
        },
        fault_secs: 60,
    };
    let heartbeat = run_id(&target, "n1 send drop-all HEARTBEAT");
    assert!(
        heartbeat.verdict.is_violation(),
        "the grid's heartbeat-drop row must find the bug: {heartbeat:?}"
    );
    // And the discovery is *selective*: dropping e.g. NAKs does not trip it.
    let nak = run_id(&target, "n1 send drop-all NAK");
    assert!(!nak.verdict.is_violation(), "{nak:?}");
}

#[test]
fn delay_campaign_matches_the_papers_delayed_equals_dropped_observation() {
    // "Delayed heartbeats are like dropped ones": a 5-second delay (beyond
    // the 3.5-second timeout) gets the member expelled exactly like a drop
    // would. (A *constant* delay then resumes regular arrival, so the
    // member is eventually readmitted; probing mid-expulsion shows the
    // degradation.)
    let result = run_id(&GmpTarget::default(), "n1 send delay-ms HEARTBEAT 5000");
    match &result.verdict {
        Verdict::Degraded(_) => {}
        other => panic!("expected degradation from delayed heartbeats, got {other:?}"),
    }
}

#[test]
fn tcp_campaign_corruption_never_violates_integrity() {
    // Corrupting bytes in DATA/ACK segments must never corrupt the
    // delivered stream — the checksum is the invariant's enforcer.
    let target = TcpTarget {
        fault_secs: 120,
        payload_len: 4_096,
        ..TcpTarget::default()
    };
    for msg in &ProtocolSpec::tcp().messages {
        let m = &msg.name;
        for id in [
            format!("n0 recv corrupt-byte {m} 6 64"),
            format!("n0 recv duplicate {m} 1"),
            format!("n0 recv drop-all {m}"),
        ] {
            let r = run_id(&target, &id);
            assert!(!r.verdict.is_violation(), "integrity violated: {r:?}");
        }
    }
    // Duplicating DATA must be fully transparent.
    let dup = run_id(&target, "n0 recv duplicate DATA 1");
    assert_eq!(dup.verdict, Verdict::Pass, "{dup:?}");
    // Dropping all DATA degrades but does not violate.
    let drop = run_id(&target, "n0 recv drop-all DATA");
    assert!(matches!(drop.verdict, Verdict::Degraded(_)), "{drop:?}");
}

#[test]
fn tcp_syn_drop_prevents_connection_degraded_only() {
    let target = TcpTarget {
        fault_secs: 60,
        ..TcpTarget::default()
    };
    let result = run_id(&target, "n0 recv drop-all SYN");
    assert!(
        matches!(result.verdict, Verdict::Degraded(ref m) if m.contains("never established")),
        "{result:?}"
    );
}

#[test]
fn destination_selective_drops_are_generated_and_run() {
    // The paper's partition experiments drop by destination; the grid
    // covers that dimension too.
    let target = GmpTarget::default();
    let hb = grid(&ProtocolSpec::gmp(), target.primary_site())
        .into_iter()
        .find(|s| s.id() == "n1 send drop-to-dest HEARTBEAT 0")
        .expect("the grid drops heartbeats toward node 0");
    assert!(hb.lower()[0].send.contains("msg_dst"));
    let result = run(&target, &hb);
    // Node 1 mute toward the leader only: it gets expelled (leader can't
    // hear it) but no invariant breaks.
    assert!(!result.verdict.is_violation(), "{result:?}");
}

#[test]
fn tpc_campaign_never_splits_the_decision() {
    // Every grid fault against 2PC may abort or block, never split the
    // commit/abort decision between nodes.
    let schedules = grid(&ProtocolSpec::two_phase_commit(), TpcTarget.primary_site());
    assert_eq!(schedules.len(), 6 * 11);
    let results: Vec<ScheduleRun> = schedules.iter().map(|s| run(&TpcTarget, s)).collect();
    for r in &results {
        assert!(
            !r.verdict.is_violation(),
            "decision agreement violated: {r:?}"
        );
    }
    // The blocking window is discovered by the grid, not hand-staged: at
    // least one grid row leaves a participant blocked.
    let blocked = results
        .iter()
        .filter(|r| matches!(&r.verdict, Verdict::Degraded(m) if m.contains("blocked")))
        .count();
    assert!(blocked > 0, "some row must expose the blocking window");
}
