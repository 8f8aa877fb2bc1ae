//! Automatic test-script generation — the paper's future work (ii),
//! realised: generate the grid of one-fault schedules from a protocol
//! specification, run it against both the buggy and the fixed group
//! membership implementation, and diff the verdicts.
//!
//! ```text
//! cargo run --release --example testgen_campaign
//! ```

use pfi::gmp::GmpBugs;
use pfi::testgen::{
    grid, run_schedule_snapshotted, FaultSchedule, GmpTarget, ProtocolSpec, RunLimits, ScheduleRun,
    SnapshotStore, TestTarget, Verdict,
};

/// Runs every grid row against `target`, forking one base world.
fn run_grid(target: &GmpTarget, grid: &[FaultSchedule]) -> Vec<ScheduleRun> {
    let mut store = SnapshotStore::default();
    grid.iter()
        .map(|s| run_schedule_snapshotted(target, s, &RunLimits::default(), Some(&mut store)))
        .collect()
}

fn main() {
    let spec = ProtocolSpec::gmp();
    let fixed_target = GmpTarget {
        bugs: GmpBugs::none(),
        fault_secs: 60,
    };
    let grid = grid(&spec, fixed_target.primary_site());
    println!(
        "generated {} one-fault schedules from the {} specification ({} message types)\n",
        grid.len(),
        spec.name,
        spec.messages.len(),
    );
    println!("a generated schedule and its filter script:");
    let sample = grid
        .iter()
        .find(|s| s.id() == "n1 send drop-all HEARTBEAT")
        .unwrap();
    println!("    {}", sample.id());
    for line in sample.lower()[0].send.lines() {
        println!("    {line}");
    }

    println!("\nrunning the grid against the FIXED implementation…");
    let fixed = run_grid(&fixed_target, &grid);
    println!("…and against the implementation WITH the paper's bugs…\n");
    let buggy = run_grid(
        &GmpTarget {
            bugs: GmpBugs::all(),
            fault_secs: 60,
        },
        &grid,
    );

    let mut pass = 0;
    let mut degraded = 0;
    let mut found = Vec::new();
    for (f, b) in fixed.iter().zip(&buggy) {
        match &f.verdict {
            Verdict::Pass => pass += 1,
            Verdict::Degraded(_) => degraded += 1,
            Verdict::Violated(v) => panic!("fixed implementation violated an invariant: {v}"),
            Verdict::Invalid(v) => panic!("grid row refused to install: {v}"),
            Verdict::Crashed(v) => panic!("fixed implementation crashed: {v}"),
            Verdict::Hung(v) => panic!("fixed implementation hung: {v}"),
        }
        if b.verdict.is_violation() && !f.verdict.is_violation() {
            found.push((b.schedule_id.clone(), b.verdict.clone()));
        }
    }
    println!("fixed implementation:  {pass} pass, {degraded} degraded, 0 violations");
    println!(
        "buggy implementation:  {} rows exposed a bug the fixed version survives:\n",
        found.len()
    );
    for (id, verdict) in found.iter().take(10) {
        println!("  {id:<44} {verdict:?}");
    }
    if found.len() > 10 {
        println!("  … and {} more", found.len() - 10);
    }
    assert!(
        !found.is_empty(),
        "the grid must discover the injected bugs"
    );
}
