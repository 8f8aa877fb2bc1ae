//! Parser for what `pfi-campaign --explore --digest --stats` prints.
//!
//! The end-to-end driver never links testgen; the campaign's counters
//! reach it the way they reach a user — as text on stdout. The fixture in
//! `golden/stats-fixture.txt` is the current output verbatim, so a change
//! to the report format fails `cargo test` here before it silently zeroes
//! a metric.

/// Everything read off one campaign's stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutput {
    /// The whole `pfi-campaign digest …` line (what golden files hold).
    pub digest_line: String,
    /// Its last token: the 64-bit outcome digest in hex.
    pub digest: String,
    /// The `--stats` block, when one was printed.
    pub stats: Option<FleetStats>,
}

/// The counters of the `snapshots:` and `fleet:` report lines.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetStats {
    /// Worker threads.
    pub workers: u64,
    /// Dispatch epochs.
    pub epochs: u64,
    /// Candidates executed on workers.
    pub jobs: u64,
    /// Candidates the static pre-filter rejected.
    pub rejected: u64,
    /// Candidates skipped as canonical duplicates.
    pub pruned: u64,
    /// Candidates skipped by the semantic tier.
    pub inert: u64,
    /// Worker panics.
    pub panics: u64,
    /// Quarantined candidates.
    pub quarantined: u64,
    /// Fleet wall time, ms.
    pub wall_ms: u64,
    /// Summed worker busy time, ms.
    pub busy_ms: u64,
    /// Snapshot store hits (0 with snapshots off).
    pub snapshot_hits: u64,
    /// Snapshot store misses.
    pub snapshot_misses: u64,
    /// Prefix events forking skipped.
    pub events_skipped: u64,
}

/// The unsigned integer immediately before `label` in `line`.
fn number_before(line: &str, label: &str) -> Option<u64> {
    let end = line.find(label)?;
    let head = line[..end].trim_end();
    let start = head
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    head[start..].parse().ok()
}

/// Parses a campaign's stdout.
///
/// # Errors
///
/// Names the missing line or counter.
pub fn parse(stdout: &str) -> Result<CampaignOutput, String> {
    let digest_line = stdout
        .lines()
        .find(|l| l.starts_with("pfi-campaign digest "))
        .ok_or("no `pfi-campaign digest` line")?
        .to_string();
    let digest = digest_line
        .rsplit(' ')
        .next()
        .filter(|d| d.len() == 16 && d.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| format!("digest line does not end in 16 hex digits: {digest_line:?}"))?
        .to_string();
    let stats = match stdout.lines().find(|l| l.starts_with("fleet: ")) {
        None => None,
        Some(fleet) => {
            let field = |label: &str| {
                number_before(fleet, label)
                    .ok_or_else(|| format!("fleet line has no `N{label}`: {fleet:?}"))
            };
            let mut stats = FleetStats {
                workers: field(" worker(s)")?,
                epochs: field(" epoch(s)")?,
                jobs: field(" job(s)")?,
                rejected: field(" rejected pre-dispatch")?,
                pruned: field(" pruned as equivalent")?,
                inert: field(" pruned as inert")?,
                panics: field(" panic(s)")?,
                quarantined: field(" quarantined")?,
                wall_ms: field(" ms wall")?,
                busy_ms: field(" ms busy")?,
                ..FleetStats::default()
            };
            let snap = stdout
                .lines()
                .find(|l| l.starts_with("snapshots: "))
                .ok_or("--stats block has no `snapshots:` line")?;
            if !snap.starts_with("snapshots: disabled") {
                let field = |label: &str| {
                    number_before(snap, label)
                        .ok_or_else(|| format!("snapshots line has no `N{label}`: {snap:?}"))
                };
                stats.snapshot_hits = field(" hit(s)")?;
                stats.snapshot_misses = field(" miss(es)")?;
                stats.events_skipped = field(" prefix event(s) skipped")?;
            }
            Some(stats)
        }
    };
    Ok(CampaignOutput {
        digest_line,
        digest,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = include_str!("../golden/stats-fixture.txt");

    #[test]
    fn parses_the_current_stats_output_verbatim() {
        let out = parse(FIXTURE).unwrap();
        assert_eq!(
            out.digest_line,
            "pfi-campaign digest gmp seed=42000 budget=1024 epoch=8 16db2f3b9748561b"
        );
        assert_eq!(out.digest, "16db2f3b9748561b");
        let s = out.stats.unwrap();
        assert_eq!(
            (s.workers, s.epochs, s.jobs, s.rejected, s.pruned, s.inert),
            (2, 127, 565, 105, 2, 12)
        );
        assert_eq!((s.panics, s.quarantined), (0, 0));
        assert_eq!(
            (s.snapshot_hits, s.snapshot_misses, s.events_skipped),
            (565, 1, 526_015)
        );
        // Wall and busy are the only host-time fields; the fixture pins
        // that they are found, not what they read.
        assert!(s.wall_ms > 0 && s.busy_ms > 0);
    }

    #[test]
    fn digest_only_output_has_no_stats() {
        let out =
            parse("pfi-campaign digest tcp seed=1 budget=8 epoch=8 00ff00ff00ff00ff\n").unwrap();
        assert_eq!(out.digest, "00ff00ff00ff00ff");
        assert_eq!(out.stats, None);
    }

    #[test]
    fn disabled_snapshots_read_as_zero() {
        let text = FIXTURE.replace(
            FIXTURE
                .lines()
                .find(|l| l.starts_with("snapshots:"))
                .unwrap(),
            "snapshots: disabled (every world rebuilt from scratch)",
        );
        let s = parse(&text).unwrap().stats.unwrap();
        assert_eq!(
            (s.snapshot_hits, s.snapshot_misses, s.events_skipped),
            (0, 0, 0)
        );
        assert_eq!(s.jobs, 565);
    }

    #[test]
    fn malformed_output_is_an_error() {
        assert!(parse("").is_err());
        assert!(parse("pfi-campaign digest gmp seed=1 budget=8 epoch=8 nothex\n").is_err());
        assert!(parse(&FIXTURE.replace(" job(s)", " jobs")).is_err());
        let no_snap: String = FIXTURE
            .lines()
            .filter(|l| !l.starts_with("snapshots:"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse(&no_snap).is_err());
    }
}
