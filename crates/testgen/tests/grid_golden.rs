//! The grid's outcomes, pinned row for row.
//!
//! `fixtures/grid_golden.txt` holds one block per bundled configuration
//! (fixed gmp, buggy gmp, tcp, tpc): for every grid schedule, its id, the
//! verdict, the violated oracle (`-` for none), the number of coverage
//! edges and the FNV-1a hash of the sorted edges joined by newlines. Each
//! row was recorded from a cold run; here every row runs the way
//! `pfi-campaign PROTO` runs it, through one snapshot store, and must come
//! out the same. The first row's miss makes the fault-free baseline
//! prepare the store's base, and every row whose fault cannot act on the
//! traffic the baseline tallied is handed the baseline's outcome instead of
//! being forked: the block's `settled` line pins how many, so each block is
//! a differential check of that rule against cold runs.

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
        let settled = lines.next().and_then(|line| line.strip_prefix("settled "));
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
        let stats = store.stats();
        assert_eq!((stats.misses, stats.stored), (1, 1), "{label}: one base");
        let counted = format!("{} of {}", stats.replayed, actual.len());
        assert_eq!(settled, Some(counted.as_str()), "{label}: rows settled");
    }
    assert!(blocks.next().is_none(), "a golden block nothing checks");
}
