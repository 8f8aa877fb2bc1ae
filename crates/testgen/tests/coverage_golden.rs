//! Golden coverage fixtures: the verdict and the full sorted edge list of
//! fixed schedules against each bundled target, recorded with the
//! string-building extractor that preceded the single-pass one and compared
//! byte for byte. Edge strings are journal, digest and wire content, so an
//! extractor change that alters one of them must fail here first.

use std::sync::Arc;

use pfi_gmp::GmpBugs;
use pfi_testgen::{
    run_schedule_limited, ChaosOracleTarget, FaultSchedule, GmpTarget, RunLimits, ScheduleRun,
    TcpTarget, TestTarget, TpcTarget,
};

fn run(target: &dyn TestTarget, faults: &[&str]) -> ScheduleRun {
    let schedule = FaultSchedule::from_lines(faults.iter().copied()).expect("fixture schedule");
    run_schedule_limited(target, &schedule, &RunLimits::default())
}

/// The fixture text of one run: the verdict, then one edge per line.
fn render(run: &ScheduleRun) -> String {
    let mut out = format!("# verdict: {:?}\n", run.verdict);
    for edge in run.coverage.edges() {
        out.push_str(edge);
        out.push('\n');
    }
    out
}

macro_rules! golden {
    ($name:literal, $target:expr, $faults:expr) => {{
        let run = run(&$target, &$faults);
        assert_eq!(
            render(&run),
            include_str!(concat!("fixtures/coverage_", $name, ".txt")),
            "coverage fixture {}",
            $name
        );
        run
    }};
}

fn has_edge(run: &ScheduleRun, needle: &str) -> bool {
    run.coverage.edges().any(|e| e.contains(needle))
}

#[test]
fn gmp_coverage_matches_the_recorded_edges() {
    let gmp = GmpTarget::default();
    golden!("gmp_baseline", gmp, []);
    let timers = golden!("gmp_drop_heartbeats", gmp, ["n1 recv drop-all HEARTBEAT"]);
    assert!(
        has_edge(&timers, "timer:n1:gmp:fired:gt8"),
        "timer-heavy run"
    );
    golden!(
        "gmp_delay_commit_drop_ack",
        gmp,
        ["n1 recv delay-ms COMMIT 2500", "n0 recv drop-nth ACK 1"]
    );
    golden!(
        "gmp_partition_then_duplicate",
        gmp,
        [
            "n2 send drop-after HEARTBEAT 3",
            "n1 recv duplicate PROCLAIM 2",
            "n0 send drop-to-dest HEARTBEAT 2"
        ]
    );
    let buggy = GmpTarget {
        bugs: GmpBugs::all(),
        ..GmpTarget::default()
    };
    let violated = golden!(
        "gmp_buggy_drop_heartbeats",
        buggy,
        ["n1 send drop-all HEARTBEAT"]
    );
    assert!(violated.verdict.is_violation(), "{:?}", violated.verdict);
}

#[test]
fn crashed_runs_keep_their_recorded_pre_crash_coverage() {
    let chaos = ChaosOracleTarget {
        inner: Arc::new(GmpTarget::default()),
    };
    let crashed = golden!("gmp_chaos_crashed", chaos, ["n1 recv drop-all HEARTBEAT"]);
    assert!(crashed.verdict.is_crashed(), "{:?}", crashed.verdict);
    assert!(!crashed.coverage.is_empty());
}

#[test]
fn tcp_coverage_matches_the_recorded_edges() {
    let tcp = TcpTarget::default();
    golden!("tcp_baseline", tcp, []);
    let retx = golden!("tcp_drop_second_data", tcp, ["n0 recv drop-nth DATA 2"]);
    assert!(has_edge(&retx, "tcp:n0:retx:"), "retransmitting run");
    // Long enough for the client to exhaust its retransmissions and close.
    let patient = TcpTarget {
        fault_secs: 1_500,
        ..TcpTarget::default()
    };
    let starved = golden!(
        "tcp_starved_until_timeout",
        patient,
        ["n0 recv drop-all DATA"]
    );
    assert!(has_edge(&starved, "tcp:n0:retx:gt8"), "timeout run");
    assert!(has_edge(&starved, "tcp:n0:Closed:Timeout"), "timeout run");
    golden!("tcp_delay_acks", tcp, ["n0 send delay-ms ACK 3000"]);
    golden!(
        "tcp_corrupt_and_reorder",
        tcp,
        ["n0 recv corrupt-byte DATA 4 64", "n0 recv reorder DATA 2"]
    );
}

#[test]
fn tpc_coverage_matches_the_recorded_edges() {
    let tpc = TpcTarget;
    golden!("tpc_baseline", tpc, []);
    golden!("tpc_drop_commit", tpc, ["n1 recv drop-all COMMIT"]);
    golden!("tpc_drop_first_vote", tpc, ["n0 recv drop-nth VOTE_YES 1"]);
    golden!(
        "tpc_vote_lost_and_slow_prepare",
        tpc,
        ["n2 send drop-all VOTE_YES", "n3 recv delay-ms PREPARE 5000"]
    );
}
