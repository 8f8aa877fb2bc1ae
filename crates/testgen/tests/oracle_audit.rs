//! The oracle audit, GMP slice: every GMP oracle against the paper's
//! seeded bugs, end to end.
//!
//! `fixtures/oracle_audit_gmp.txt` is the table. For a row naming a
//! `GmpBugs` switch, its schedule, run on the build with only that switch
//! on, is judged violated by the row's oracle; without any one of its
//! faults it is not; and on the fixed build it violates nothing. The
//! row's grid count is how many of the one-fault grid rows that build
//! reports under the oracle. A row with no switch names an oracle that no
//! grid row trips on any single-switch build or on the build with every
//! bug: an oracle kept although no mutant shows it can fire. Every GMP
//! oracle has exactly one row.

use pfi_gmp::GmpBugs;
use pfi_testgen::{
    grid, run_schedule_limited, run_schedule_snapshotted, FaultSchedule, GmpTarget, ProtocolSpec,
    RunLimits, SnapshotStore, TestTarget,
};

const TABLE: &str = include_str!("fixtures/oracle_audit_gmp.txt");

/// The build with only `switch` on (`-`: every bug).
fn build(switch: &str) -> GmpTarget {
    let none = GmpBugs::none();
    let bugs = match switch {
        "self_death" => GmpBugs {
            self_death: true,
            ..none
        },
        "proclaim_forward" => GmpBugs {
            proclaim_forward: true,
            ..none
        },
        "timer_unset" => GmpBugs {
            timer_unset: true,
            ..none
        },
        "-" => GmpBugs::all(),
        other => panic!("no GmpBugs switch {other:?}"),
    };
    GmpTarget {
        bugs,
        ..GmpTarget::default()
    }
}

/// The oracle `schedule`'s run on `target` is judged violated by, if any.
fn tripped(target: &GmpTarget, schedule: &FaultSchedule) -> Option<String> {
    let run = run_schedule_limited(target, schedule, &RunLimits::default());
    run.verdict.is_violation().then(|| run.oracle.unwrap())
}

/// How many grid rows `target` reports under `oracle`.
fn grid_rows(target: &GmpTarget, oracle: &str) -> usize {
    let mut store = SnapshotStore::default();
    grid(&ProtocolSpec::gmp(), target.primary_site())
        .iter()
        .map(|s| run_schedule_snapshotted(target, s, &RunLimits::default(), Some(&mut store)))
        .filter(|run| run.oracle.as_deref() == Some(oracle))
        .count()
}

#[test]
fn each_gmp_oracle_is_tripped_by_its_bug_or_listed_as_tripped_by_none() {
    let rows: Vec<Vec<&str>> = TABLE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split('\t').collect())
        .collect();
    let mut oracles: Vec<&str> = rows.iter().map(|row| row[1]).collect();
    oracles.sort_unstable();
    let mut want: Vec<&str> = GmpTarget::default()
        .oracles()
        .iter()
        .map(|o| o.name())
        .collect();
    want.sort_unstable();
    assert_eq!(oracles, want, "one row per GMP oracle");

    let fixed = GmpTarget::default();
    for row in rows {
        let [switch, oracle, count, schedule] = row[..] else {
            panic!("a row is four tab-separated fields: {row:?}")
        };
        let count: usize = count.parse().unwrap();
        if switch == "-" {
            assert_eq!(count, 0, "{oracle}");
            for build in ["self_death", "proclaim_forward", "timer_unset", "-"].map(build) {
                assert_eq!(grid_rows(&build, oracle), 0, "{oracle} on {:?}", build.bugs);
            }
            continue;
        }
        let target = build(switch);
        let schedule = FaultSchedule::from_id(schedule).unwrap();
        let id = schedule.id();
        assert_eq!(
            tripped(&target, &schedule).as_deref(),
            Some(oracle),
            "{switch}: {id}"
        );
        for drop in 0..schedule.faults.len() {
            let mut fewer = schedule.clone();
            fewer.faults.remove(drop);
            let got = tripped(&target, &fewer);
            assert_ne!(
                got.as_deref(),
                Some(oracle),
                "{switch}: {id} is not 1-minimal"
            );
        }
        assert_eq!(tripped(&fixed, &schedule), None, "the fixed build: {id}");
        assert_eq!(grid_rows(&target, oracle), count, "{switch}: grid rows");
    }
}
