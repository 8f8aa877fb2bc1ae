//! Metric rows and check tallies: what every benchmark binary produces,
//! how the helper binaries hand theirs to the driver (plain `metric …` /
//! `check …` lines on stdout), and how rows are printed and serialised.

use crate::json::Value;
use crate::stats::{summarize, Summary};

/// One metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload the metric was taken on.
    pub workload: String,
    /// Metric name (`throughput_per_s`, `testgen.drive_us`, …).
    pub metric: String,
    /// Unit (`ms`, `1/s`, `count`, …).
    pub unit: String,
    /// Median, quartiles, n.
    pub summary: Summary,
}

impl Row {
    /// A row summarising samples by their median.
    pub fn samples(workload: &str, metric: &str, unit: &str, samples: &[f64]) -> Row {
        Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            summary: summarize(samples),
        }
    }

    /// A row holding one exact value (a count, a ratio of counts, bytes).
    pub fn exact(workload: &str, metric: &str, unit: &str, value: f64) -> Row {
        Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            summary: Summary::exact(value),
        }
    }

    /// The helper-binary line form: `metric NAME UNIT MEDIAN Q1 Q3 N`.
    pub fn to_line(&self) -> String {
        let s = &self.summary;
        format!(
            "metric {} {} {} {} {} {}",
            self.metric, self.unit, s.median, s.q1, s.q3, s.n
        )
    }

    /// Parses [`to_line`](Row::to_line) output, attributing it to
    /// `workload`. `None` for any other line.
    pub fn parse_line(workload: &str, line: &str) -> Option<Row> {
        let mut tok = line.split(' ');
        if tok.next()? != "metric" {
            return None;
        }
        let metric = tok.next()?.to_string();
        let unit = tok.next()?.to_string();
        let mut num = || tok.next()?.parse::<f64>().ok();
        let (median, q1, q3) = (num()?, num()?, num()?);
        let n = tok.next()?.parse().ok()?;
        Some(Row {
            workload: workload.to_string(),
            metric,
            unit,
            summary: Summary { median, q1, q3, n },
        })
    }

    /// The row as a JSON object (baseline documents).
    pub fn to_json(&self) -> Value {
        let s = &self.summary;
        Value::obj([
            ("workload", Value::Str(self.workload.clone())),
            ("metric", Value::Str(self.metric.clone())),
            ("unit", Value::Str(self.unit.clone())),
            ("median", Value::Num(s.median)),
            ("q1", Value::Num(s.q1)),
            ("q3", Value::Num(s.q3)),
            ("n", Value::Num(s.n as f64)),
        ])
    }
}

/// Operations attempted and failed: every digest, count, golden, reply
/// and exit-code check the benchmark makes lands here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What each failure was (printed; the first few suffice to debug).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Records an unconditional failure.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check(false, || what.into());
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// The helper-binary line forms: one `check pass N` line for the
    /// passes, one `check FAIL text` line per failure.
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = vec![format!("check pass {}", self.attempted - self.failed)];
        lines.extend(self.failures.iter().map(|f| format!("check FAIL {f}")));
        lines
    }

    /// Folds in one [`to_lines`](Checks::to_lines) line; `false` for any
    /// other line.
    pub fn absorb_line(&mut self, line: &str) -> bool {
        if let Some(n) = line.strip_prefix("check pass ") {
            self.attempted += n.trim().parse::<u64>().unwrap_or(0);
            true
        } else if let Some(what) = line.strip_prefix("check FAIL ") {
            self.fail(what);
            true
        } else {
            false
        }
    }
}

/// Prints rows as an aligned table: workload, metric, median, unit,
/// quartiles, n.
pub fn print_rows(rows: &[Row]) {
    let w = rows.iter().map(|r| r.workload.len()).max().unwrap_or(0);
    let m = rows.iter().map(|r| r.metric.len()).max().unwrap_or(0);
    for r in rows {
        let s = &r.summary;
        println!(
            "{:<w$}  {:<m$}  {:>14.4} {:<6}  q1={:<12.4} q3={:<12.4} n={}",
            r.workload, r.metric, s.median, r.unit, s.q1, s.q3, s.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_through_their_line_form() {
        let row = Row::samples(
            "interpose",
            "core.ns_per_msg.loop8",
            "ns",
            &[8012.5, 7990.25, 8100.0],
        );
        let back = Row::parse_line("interpose", &row.to_line()).unwrap();
        assert_eq!(back, row);
        assert_eq!(Row::parse_line("w", "check pass 3"), None);
        assert_eq!(Row::parse_line("w", "metric short ns 1"), None);
    }

    #[test]
    fn checks_tally_and_round_trip() {
        let mut c = Checks::default();
        assert!(c.check(true, || unreachable!()));
        assert!(!c.check(false, || "digest mismatch seed 3".to_string()));
        c.fail("daemon said err");
        assert_eq!((c.attempted, c.failed), (3, 2));
        let mut back = Checks::default();
        for line in c.to_lines() {
            assert!(back.absorb_line(&line));
        }
        assert_eq!(back, c);
        assert!(!back.absorb_line("metric x ns 1 1 1 1"));
    }
}
