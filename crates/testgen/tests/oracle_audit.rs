//! The oracle audit: every GMP oracle against the paper's seeded bugs, and
//! every TCP oracle against the paper's four vendor personalities, end to
//! end.
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
//!
//! `fixtures/oracle_audit_tcp.txt` is the TCP slice: one row per vendor
//! personality (`TcpProfile::vendors()`) and TCP oracle, saying whether
//! the oracle judges the fault-free baseline violated, else on how many of
//! the 66 one-fault grid rows it does and the first of them. Each oracle
//! checks the driven trace on its own, so an earlier oracle in
//! `TcpTarget::oracles()` cannot mask a later one.

use pfi_core::{Filter, PfiControl, PfiReply};
use pfi_gmp::GmpBugs;
use pfi_tcp::TcpProfile;
use pfi_testgen::{
    grid, run_schedule_limited, run_schedule_snapshotted, FaultSchedule, GmpTarget, ProtocolSpec,
    RunLimits, SnapshotStore, TcpTarget, TestTarget,
};

const TABLE: &str = include_str!("fixtures/oracle_audit_gmp.txt");
const TCP_TABLE: &str = include_str!("fixtures/oracle_audit_tcp.txt");

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

/// The names of the oracles `schedule`'s driven run on `target` violates,
/// each judged on its own over the harvested trace.
fn violated_alone(target: &dyn TestTarget, schedule: &FaultSchedule) -> Vec<&'static str> {
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
    target
        .oracles()
        .iter()
        .filter(|o| o.check(world.trace()).is_err())
        .map(|o| o.name())
        .collect()
}

/// Every vendor personality against every TCP oracle, over the baseline
/// and the grid, as `fixtures/oracle_audit_tcp.txt` records it.
#[test]
fn each_tcp_oracle_over_each_vendor_matches_the_audit_table() {
    // A silent row is only worth what the harness sees: on the GMP slice's
    // first row it reports the oracle that row records.
    let self_death = FaultSchedule::from_id("n1 send drop-all HEARTBEAT").unwrap();
    assert!(violated_alone(&build("self_death"), &self_death).contains(&"gmp-no-self-death"));
    let mut table = String::new();
    for profile in TcpProfile::vendors() {
        let name = profile.name;
        let target = TcpTarget {
            profile,
            ..TcpTarget::default()
        };
        let baseline = violated_alone(&target, &FaultSchedule::empty());
        let rows: Vec<(String, Vec<&str>)> = grid(&ProtocolSpec::tcp(), target.primary_site())
            .iter()
            .map(|s| (s.id(), violated_alone(&target, s)))
            .collect();
        assert_eq!(rows.len(), 66, "{name}: the tcp grid");
        for oracle in target.oracles() {
            let oracle = oracle.name();
            let line = if baseline.contains(&oracle) {
                format!("{name}\t{oracle}\tbaseline\t-")
            } else {
                let mut tripping = rows.iter().filter(|(_, v)| v.contains(&oracle));
                let first = tripping.clone().next().map_or("-", |(id, _)| id.as_str());
                format!("{name}\t{oracle}\t{}\t{first}", tripping.by_ref().count())
            };
            table.push_str(&line);
            table.push('\n');
        }
    }
    let recorded: String = TCP_TABLE
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(table, recorded, "the tcp oracle audit table");
}
