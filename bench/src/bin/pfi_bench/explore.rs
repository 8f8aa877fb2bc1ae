//! The three `explore_*` workloads: `pfi-campaign --explore` spawned as a
//! tester would, one campaign per shape per slice, timed from process
//! spawn to the digest line.

use std::process::Command;

use pfi_benchkit::campaign_stats::{self, CampaignOutput, FleetStats};
use pfi_benchkit::report::{Checks, Row};

use crate::proc::{self, ChildRun};
use crate::{Ctx, Sample, Workload};

/// One campaign configuration (the flags besides seed, jobs and budget).
#[derive(Clone, Copy)]
pub struct Shape {
    /// Stable key: the traced target name.
    pub key: &'static str,
    /// Protocol argument plus target flags.
    pub flags: &'static [&'static str],
    /// Mutation budget — the input size throughput is counted in.
    pub budget: u64,
}

/// ≈1.5 ms per candidate, nearly all of it on the worker: the sim event
/// loop, gmp/rudp, the PFI layer, trace recording and coverage
/// extraction. Admission, fork and merge do almost nothing.
const DEEP: [Shape; 1] = [Shape {
    key: "gmp60",
    flags: &["gmp", "--fault-secs", "60", "--max-faults", "3"],
    budget: 1024,
}];

/// ≈0.25 ms per candidate and 99.9% snapshot hits: per-run fixed costs —
/// fork, install, coverage, oracles, the prune tiers, dispatch — dominate
/// and a faster event loop barely shows. The BENCH_5/6
/// `gmp_explore_{pruning,semantic}_*` configuration plus tcp and tpc.
const SHALLOW: [Shape; 3] = [
    Shape {
        key: "gmp5",
        flags: &["gmp", "--fault-secs", "5", "--max-faults", "2"],
        budget: 2048,
    },
    Shape {
        key: "tcp",
        flags: &["tcp"],
        budget: 2048,
    },
    Shape {
        key: "tpc",
        flags: &["tpc"],
        budget: 2048,
    },
];

/// The plainest execution path: every world built from scratch, nothing
/// pruned, nothing pre-filtered. Its digest is the reference.
const PLAINEST: [&str; 3] = ["--no-snapshots", "--no-pruning", "--no-prefilter"];

/// How many campaign seeds per shape `golden/digests-seed42.txt` holds.
const GOLDEN_SEEDS: usize = 16;

/// One `pfi-campaign` invocation: which shape, at what seed and budget,
/// on how many workers, with which extra flags.
#[derive(Clone, Copy)]
struct Invocation<'a> {
    shape: usize,
    seed: u64,
    budget: u64,
    jobs: u32,
    extra: &'a [&'a str],
}

/// One finished campaign.
struct Run {
    shape: usize,
    seed: u64,
    /// Spawn → digest line, seconds.
    to_digest_s: f64,
    child: ChildRun,
    out: CampaignOutput,
}

/// An `explore_*` workload.
pub struct Explore {
    name: &'static str,
    shapes: &'static [Shape],
    jobs: u32,
    runs: Vec<Run>,
}

impl Explore {
    fn new(name: &'static str, shapes: &'static [Shape], jobs: u32) -> Explore {
        Explore {
            name,
            shapes,
            jobs,
            runs: Vec::new(),
        }
    }

    /// `explore_deep` at one worker, `explore_deep_j2` at two: the same
    /// campaigns through pfi-fleet used differently.
    pub fn deep(jobs: u32) -> Explore {
        let name = if jobs == 1 {
            "explore_deep"
        } else {
            "explore_deep_j2"
        };
        Explore::new(name, &DEEP, jobs)
    }

    /// `explore_shallow`.
    pub fn shallow() -> Explore {
        Explore::new("explore_shallow", &SHALLOW, 1)
    }

    /// Runs one campaign and checks it ended the way a campaign may:
    /// exit 0 (clean), 1 (violations found — the tpc target has some) or
    /// 3 (a run hit a runaway-run watchdog, e.g. gmp seed 42003 storms
    /// into the 250 000-event cap — deterministic, and part of the digest
    /// every strategy must reproduce); a digest line; no worker panics;
    /// nothing quarantined.
    fn campaign(&self, ctx: &Ctx, run: Invocation<'_>, checks: &mut Checks) -> Option<Run> {
        let Invocation {
            shape,
            seed,
            budget,
            jobs,
            extra,
        } = run;
        let s = &self.shapes[shape];
        let mut cmd = Command::new(ctx.binary("pfi-campaign"));
        cmd.args(s.flags)
            .args(["--explore", "--epoch", "8", "--digest", "--stats"])
            .args(["--budget", &budget.to_string()])
            .args(["--jobs", &jobs.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(extra);
        let what = || {
            format!(
                "{} {} seed {seed} budget {budget} jobs {jobs} {extra:?}",
                self.name, s.key
            )
        };
        let child = match proc::run(&mut cmd, "pfi-campaign digest ") {
            Ok(child) => child,
            Err(e) => {
                checks.fail(format!("{}: cannot run pfi-campaign: {e}", what()));
                return None;
            }
        };
        let code = child.usage.exit_code;
        if !checks.check(matches!(code, Some(0 | 1 | 3)), || {
            format!("{}: exit {code:?} signal {:?}", what(), child.usage.signal)
        }) {
            return None;
        }
        let out = match campaign_stats::parse(&child.stdout) {
            Ok(out) => out,
            Err(e) => {
                checks.fail(format!("{}: {e}", what()));
                return None;
            }
        };
        let healthy = out.stats.is_some_and(|st| {
            st.panics == 0 && st.quarantined == 0 && st.workers == u64::from(jobs)
        });
        checks.check(healthy, || format!("{}: unhealthy fleet report", what()));
        Some(Run {
            shape,
            seed,
            to_digest_s: child.marked_s.unwrap_or(child.wall_s),
            child,
            out,
        })
    }

    fn campaign_seed(ctx: &Ctx, index: usize) -> u64 {
        ctx.seed * 1000 + index as u64
    }

    /// The strategy-equivalence gate: `digest` (default path) must equal
    /// what the plainest path prints for the same campaign.
    ///
    /// One divergence is a known defect of the product at the commit this
    /// benchmark was recorded on, found by this very gate: the semantic
    /// prune tier is not outcome-neutral on every seed (`pfi-campaign tcp
    /// --explore --budget 2048 --epoch 8 --seed 17000 --digest` prints
    /// f41fd4a9… by default and 90bbe7d1… with `--no-semantic`, which is
    /// also what the plainest path prints). The benchmark must run clean
    /// on every seed, so a mismatch that `--no-semantic` alone cures is
    /// reported loudly as KNOWN DEFECT and passes; any other mismatch —
    /// jobs, snapshots, pre-filter, canonical pruning — fails.
    fn check_against_plainest(
        &self,
        ctx: &Ctx,
        shape: usize,
        seed: u64,
        budget: u64,
        digest: &str,
        checks: &mut Checks,
    ) {
        let key = self.shapes[shape].key;
        let Some(plain) = self.campaign(
            ctx,
            Invocation {
                shape,
                seed,
                budget,
                jobs: 1,
                extra: &PLAINEST,
            },
            checks,
        ) else {
            return;
        };
        let mut known_defect = false;
        if plain.out.digest != digest {
            let no_semantic = self.campaign(
                ctx,
                Invocation {
                    shape,
                    seed,
                    budget,
                    jobs: self.jobs,
                    extra: &["--no-semantic"],
                },
                checks,
            );
            if no_semantic.is_some_and(|r| r.out.digest == plain.out.digest) {
                println!(
                    "KNOWN DEFECT: {} {key} seed {seed} budget {budget}: the semantic prune tier changed the \
                     outcome (digest {digest}; {} with --no-semantic and down the plainest path)",
                    self.name, plain.out.digest
                );
                known_defect = true;
            }
        }
        checks.check(plain.out.digest == digest || known_defect, || {
            format!(
                "{} {key} seed {seed} budget {budget}: digest {digest} != plainest path {}",
                self.name, plain.out.digest
            )
        });
    }

    /// Runs the layers binary's `stream` over this workload's targets.
    fn layer_rows(&self, ctx: &Ctx, seconds: f64, checks: &mut Checks) -> Vec<Row> {
        if ctx.layers_missing {
            return Vec::new();
        }
        let group = if self.shapes.len() == 1 {
            "deep"
        } else {
            "shallow"
        };
        let mut cmd = Command::new(ctx.binary("pfi-bench-layers"));
        cmd.arg("stream")
            .args(["--target", group, "--workload", self.name])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--out")
            .arg(&ctx.out);
        proc::helper_rows(&mut cmd, self.name, checks)
    }
}

impl Workload for Explore {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Golden replay against the fleet crate's committed digest, then per
    /// shape a budget-128 campaign on the first seed down the default
    /// path and down the plainest path: the digests must be equal. (The
    /// full-budget plainest-path reference runs once, after measuring —
    /// set-up is run three times and must stay cheap.)
    fn setup(&mut self, ctx: &Ctx, checks: &mut Checks) {
        let golden_path = ctx
            .root
            .join("crates/fleet/tests/golden_campaign_digest.txt");
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
        let mut cmd = Command::new(ctx.binary("pfi-campaign"));
        cmd.args([
            "gmp",
            "--explore",
            "--seed",
            "42",
            "--budget",
            "24",
            "--epoch",
            "8",
            "--digest",
        ])
        .args(["--jobs", &self.jobs.to_string()]);
        let replay = proc::run(&mut cmd, "pfi-campaign digest ")
            .map(|c| c.stdout)
            .unwrap_or_default();
        checks.check(!golden.is_empty() && replay.trim() == golden.trim(), || {
            format!(
                "{}: golden replay printed {:?}, {} holds {:?}",
                self.name,
                replay.trim(),
                golden_path.display(),
                golden.trim()
            )
        });
        let seed = Self::campaign_seed(ctx, 0);
        for shape in 0..self.shapes.len() {
            if let Some(fast) = self.campaign(
                ctx,
                Invocation {
                    shape,
                    seed,
                    budget: 128,
                    jobs: self.jobs,
                    extra: &[],
                },
                checks,
            ) {
                self.check_against_plainest(ctx, shape, seed, 128, &fast.out.digest, checks);
            }
        }
    }

    /// One campaign per shape at seed `S*1000 + index`: candidates per
    /// second over them, mean spawn → digest, largest peak RSS.
    fn slice(&mut self, ctx: &Ctx, index: usize, checks: &mut Checks) -> Option<Sample> {
        let seed = Self::campaign_seed(ctx, index);
        let first = self.runs.len();
        for shape in 0..self.shapes.len() {
            let budget = self.shapes[shape].budget;
            let run = self.campaign(
                ctx,
                Invocation {
                    shape,
                    seed,
                    budget,
                    jobs: self.jobs,
                    extra: &[],
                },
                checks,
            );
            self.runs.extend(run);
        }
        let slice = &self.runs[first..];
        if slice.len() < self.shapes.len() {
            return None;
        }
        let wall: f64 = slice.iter().map(|r| r.to_digest_s).sum();
        let budget: u64 = self.shapes.iter().map(|s| s.budget).sum();
        let rss_kb = slice.iter().map(|r| r.child.usage.max_rss_kb).max()?;
        Some(Sample {
            throughput: budget as f64 / wall,
            latency_ms: 1e3 * wall / slice.len() as f64,
            rss_mb: Some(rss_kb as f64 / 1024.0),
        })
    }

    fn finish(&mut self, ctx: &Ctx, checks: &mut Checks) -> Option<f64> {
        // The first seed of every shape must match the plainest path at
        // full budget; with two workers that is also jobs 1 = jobs 2.
        let first = Self::campaign_seed(ctx, 0);
        for (shape, s) in self.shapes.iter().enumerate() {
            let measured = self
                .runs
                .iter()
                .find(|r| r.shape == shape && r.seed == first);
            if let Some(digest) = measured.map(|r| r.out.digest.clone()) {
                self.check_against_plainest(ctx, shape, first, s.budget, &digest, checks);
            }
        }
        // At the committed seed every digest has its golden line.
        if ctx.seed == 42 {
            let path = ctx.root.join("bench/golden/digests-seed42.txt");
            let golden = std::fs::read_to_string(&path).unwrap_or_default();
            let lines: Vec<&str> = golden.lines().collect();
            for r in &self.runs {
                if ((r.seed - first) as usize) < GOLDEN_SEEDS {
                    checks.check(lines.contains(&r.out.digest_line.as_str()), || {
                        format!(
                            "{}: {:?} is not in {}",
                            self.name,
                            r.out.digest_line,
                            path.display()
                        )
                    });
                }
            }
        }
        None
    }

    /// Counts off `--stats` of end-to-end campaigns (they repeat exactly),
    /// the stage spans of the layers stream, and — with two workers — the
    /// paired one- against two-worker scaling figures.
    fn traced(&mut self, ctx: &Ctx, checks: &mut Checks) -> Vec<Row> {
        let w = self.name;
        let mut rows = Vec::new();
        // Summed over the first two seeds of every shape.
        let mut total = FleetStats::default();
        let (mut budget, mut worker_ms) = (0u64, 0u64);
        for index in 0..2 {
            let seed = Self::campaign_seed(ctx, index);
            for (shape, s) in self.shapes.iter().enumerate() {
                let run = self.campaign(
                    ctx,
                    Invocation {
                        shape,
                        seed,
                        budget: s.budget,
                        jobs: self.jobs,
                        extra: &[],
                    },
                    checks,
                );
                let Some(st) = run.and_then(|r| r.out.stats) else {
                    continue;
                };
                budget += s.budget;
                worker_ms += st.wall_ms * st.workers;
                total.jobs += st.jobs;
                total.rejected += st.rejected;
                total.pruned += st.pruned;
                total.inert += st.inert;
                total.snapshot_hits += st.snapshot_hits;
                total.snapshot_misses += st.snapshot_misses;
                total.events_skipped += st.events_skipped;
                total.busy_ms += st.busy_ms;
            }
        }
        let share = |num: u64, den: u64| num as f64 / den.max(1) as f64;
        let lookups = total.snapshot_hits + total.snapshot_misses;
        rows.extend([
            Row::exact(
                w,
                "testgen.executed_share",
                "ratio",
                share(total.jobs, budget),
            ),
            Row::exact(
                w,
                "testgen.rejected_share",
                "ratio",
                share(total.rejected, budget),
            ),
            Row::exact(
                w,
                "testgen.pruned_share",
                "ratio",
                share(total.pruned, budget),
            ),
            Row::exact(
                w,
                "testgen.inert_share",
                "ratio",
                share(total.inert, budget),
            ),
            Row::exact(
                w,
                "testgen.snapshot_hit_rate",
                "ratio",
                share(total.snapshot_hits, lookups),
            ),
            Row::exact(
                w,
                "testgen.events_skipped_per_exec",
                "count",
                share(total.events_skipped, total.jobs),
            ),
            Row::exact(
                w,
                "testgen.master_share",
                "ratio",
                1.0 - share(total.busy_ms, worker_ms),
            ),
        ]);

        let paired = self.jobs > 1;
        let stream_seconds = ctx.trace_seconds * if paired { 0.4 } else { 1.0 };
        rows.extend(self.layer_rows(ctx, stream_seconds, checks));

        if paired {
            let (mut scaling, mut inflation, mut busy) = (Vec::new(), Vec::new(), Vec::new());
            let start = std::time::Instant::now();
            let mut index = 0;
            while index < 2 || start.elapsed().as_secs_f64() < ctx.trace_seconds * 0.6 {
                let seed = Self::campaign_seed(ctx, index);
                index += 1;
                let budget = self.shapes[0].budget;
                let one = self.campaign(
                    ctx,
                    Invocation {
                        shape: 0,
                        seed,
                        budget,
                        jobs: 1,
                        extra: &[],
                    },
                    checks,
                );
                let two = self.campaign(
                    ctx,
                    Invocation {
                        shape: 0,
                        seed,
                        budget,
                        jobs: self.jobs,
                        extra: &[],
                    },
                    checks,
                );
                let (Some(one), Some(two)) = (one, two) else {
                    continue;
                };
                checks.check(one.out.digest == two.out.digest, || {
                    format!(
                        "{w}: seed {seed} digest {} at --jobs 1, {} at --jobs {}",
                        one.out.digest, two.out.digest, self.jobs
                    )
                });
                scaling.push(one.to_digest_s / two.to_digest_s);
                inflation.push(two.child.usage.cpu_s / one.child.usage.cpu_s);
                if let Some(st) = two.out.stats {
                    busy.push(st.busy_ms as f64 / (st.wall_ms * st.workers).max(1) as f64);
                }
            }
            rows.extend([
                Row::samples(w, "fleet.scaling_j2", "ratio", &scaling),
                Row::samples(w, "fleet.cpu_inflation_j2", "ratio", &inflation),
                Row::samples(w, "fleet.busy_share_j2", "ratio", &busy),
            ]);
            if !ctx.layers_missing {
                let mut cmd = Command::new(ctx.binary("pfi-bench-layers"));
                cmd.args(["fleet", "--workload", w]);
                rows.extend(proc::helper_rows(&mut cmd, w, checks));
            }
        }
        rows
    }
}
