//! The grid's outcomes, pinned row for row.
//!
//! `fixtures/grid_golden.txt` holds one block per bundled configuration
//! (fixed gmp, buggy gmp, tcp, tpc): for every grid schedule, its id, the
//! verdict, the violated oracle (`-` for none), the number of coverage
//! edges and the FNV-1a hash of the sorted edges joined by newlines. Each
//! row was recorded from a cold run; here every row runs the way
//! `pfi-campaign PROTO` runs it, forked from one snapshot store, and must
//! come out the same.

use pfi_sim::fnv::fnv64;
use pfi_testgen::{bundled, grid, run_schedule_snapshotted, RunLimits, SnapshotStore};

const GOLDEN: &str = include_str!("fixtures/grid_golden.txt");

/// One golden row for one run.
fn row(id: &str, run: &pfi_testgen::ScheduleRun) -> String {
    let mut edges: Vec<&str> = run.coverage.edges().collect();
    edges.sort_unstable();
    format!(
        "{id}\t{:?}\t{}\t{}\t{:016x}",
        run.verdict,
        run.oracle.as_deref().unwrap_or("-"),
        edges.len(),
        fnv64(edges.join("\n").as_bytes())
    )
}

#[test]
fn grid_outcomes_match_the_recorded_rows() {
    let mut blocks = GOLDEN.split("## ").filter(|b| !b.is_empty());
    for (label, proto, buggy) in [
        ("gmp", "gmp", false),
        ("gmp --buggy", "gmp", true),
        ("tcp", "tcp", false),
        ("tpc", "tpc", false),
    ] {
        let block = blocks.next().expect("one golden block per configuration");
        let mut lines = block.lines();
        assert_eq!(lines.next(), Some(label));
        let golden: Vec<&str> = lines.collect();

        let (spec, target) = bundled(proto, buggy, 60).unwrap();
        let mut store = SnapshotStore::default();
        let actual: Vec<String> = grid(&spec, target.primary_site())
            .iter()
            .map(|s| {
                let run = run_schedule_snapshotted(
                    target.as_ref(),
                    s,
                    &RunLimits::default(),
                    Some(&mut store),
                );
                row(&s.id(), &run)
            })
            .collect();
        for (want, got) in golden.iter().zip(&actual) {
            assert_eq!(want, got, "{label}: grid row changed");
        }
        assert_eq!(golden.len(), actual.len(), "{label}: grid size changed");
    }
    assert!(blocks.next().is_none(), "a golden block nothing checks");
}
