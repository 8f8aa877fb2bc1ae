//! The `interpose` workload: `pfi-bench-interpose` spawned once per
//! slice. The harness process is the thing a script author's messages
//! run through, so its peak RSS and its bursts are the end-to-end
//! figures.

use std::process::Command;

use pfi_benchkit::report::{Checks, Row};

use crate::proc;
use crate::{Ctx, Sample, Workload};

const W: &str = "interpose";

/// Repetitions (six bursts each, ≈13 ms together) per slice. Slices are
/// kept short — the host flips between speed levels faster than once a
/// second at times, and only a slice shorter than an episode can fall
/// wholly outside one.
const REPS_PER_SLICE: usize = 8;

/// The `interpose` workload.
pub struct Interpose;

impl Interpose {
    fn harness(ctx: &Ctx, reps: usize, traced: bool) -> Command {
        let mut cmd = Command::new(ctx.binary("pfi-bench-interpose"));
        cmd.args(["--seed", &ctx.seed.to_string()])
            .args(["--reps", &reps.to_string()])
            .arg("--scripts")
            .arg(ctx.root.join("scripts"));
        if traced {
            cmd.arg("--trace");
        }
        cmd
    }
}

fn median_of(rows: &[Row], metric: &str) -> Option<f64> {
    rows.iter()
        .find(|r| r.metric == metric)
        .map(|r| r.summary.median)
}

impl Workload for Interpose {
    fn name(&self) -> &'static str {
        W
    }

    /// Two repetitions: every filter's hand-computed delivered / dropped /
    /// delayed / corrupted / logged counts are verified before anything
    /// is timed, and the binary is paged in.
    fn setup(&mut self, ctx: &Ctx, checks: &mut Checks) {
        proc::helper_rows(&mut Self::harness(ctx, 2, false), W, checks);
    }

    /// One harness run: messages per second as the geometric mean over
    /// the four scripted filters, the same mean as wall per 1 000-message
    /// burst, and the harness's peak RSS.
    fn slice(&mut self, ctx: &Ctx, _index: usize, checks: &mut Checks) -> Option<Sample> {
        let (rows, child) =
            proc::helper(&mut Self::harness(ctx, REPS_PER_SLICE, false), W, checks)?;
        let (Some(throughput), Some(latency_ms)) = (
            median_of(&rows, "interpose.msgs_per_s"),
            median_of(&rows, "interpose.burst_ms"),
        ) else {
            checks.fail("interpose: harness printed no throughput row");
            return None;
        };
        Some(Sample {
            throughput,
            latency_ms,
            rss_mb: Some(child.usage.max_rss_kb as f64 / 1024.0),
        })
    }

    fn finish(&mut self, _ctx: &Ctx, _checks: &mut Checks) -> Option<f64> {
        None
    }

    /// One long harness run with the interpreter and simulator extras,
    /// then the paper-table guard: twenty runs of `repro`, each
    /// byte-equal to the committed golden.
    fn traced(&mut self, ctx: &Ctx, checks: &mut Checks) -> Vec<Row> {
        let reps = ((ctx.trace_seconds * 0.5 / 0.013) as usize).clamp(10, 1000);
        let mut rows = proc::helper_rows(&mut Self::harness(ctx, reps, true), W, checks);
        rows.retain(|r| !r.metric.starts_with("interpose."));

        let golden_path = ctx.root.join("bench/golden/repro-stdout.txt");
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
        let mut suite_ms = Vec::new();
        for _ in 0..if ctx.check { 3 } else { 20 } {
            match proc::run(&mut Command::new(ctx.binary("repro")), "\0") {
                Ok(child) => {
                    checks.check(
                        child.usage.exit_code == Some(0)
                            && !golden.is_empty()
                            && child.stdout == golden,
                        || {
                            format!(
                                "repro: exit {:?}, stdout differs from {}",
                                child.usage.exit_code,
                                golden_path.display()
                            )
                        },
                    );
                    suite_ms.push(child.wall_s * 1e3);
                }
                Err(e) => checks.fail(format!("cannot run repro: {e}")),
            }
        }
        rows.push(Row::samples(W, "experiments.suite_ms_p50", "ms", &suite_ms));
        rows
    }
}
