//! Where a killed campaign tears its journal, for the resume tests.

/// A cut through `journal` after its middle `case end` line plus half of
/// the record that follows, and how many cases the cut keeps.
///
/// A cut at a fraction of the bytes can land inside the baseline record,
/// which lists the baseline's whole edge set and so holds most of a short
/// journal; this one always leaves cases to replay and cases to re-execute.
pub fn torn_cut(journal: &str) -> (usize, usize) {
    let ends: Vec<usize> = journal
        .match_indices("case end\n")
        .map(|(at, line)| at + line.len())
        .collect();
    assert!(
        ends.len() >= 2,
        "{} case(s) leave nothing to tear between",
        ends.len()
    );
    let kept = ends.len().div_ceil(2);
    let (mid, next) = (ends[kept - 1], ends[kept]);
    (mid + (next - mid) / 2, kept)
}
