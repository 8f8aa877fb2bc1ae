//! `pfi-bench` — the end-to-end benchmark driver.
//!
//! Drives the system the way its users do: spawns the release
//! `pfi-campaign` and `pfi-serve` binaries, speaks the daemon's wire
//! protocol, checks every output, and prints every metric by name. It
//! imports **no product crate** — only `std` and this package's own
//! helper library — so the end-to-end numbers survive any refactor of
//! the product's APIs. Per-layer numbers come from a separate traced run
//! that delegates to `pfi-bench-interpose` (sim/core/script) and
//! `pfi-bench-layers` (testgen/fleet).
//!
//! See `bench/README.md` for the glossary of workloads and metrics.

mod explore;
mod host;
mod interpose;
mod meta;
mod proc;
mod serve;

use std::path::PathBuf;
use std::time::Instant;

use pfi_benchkit::json::{self, Value};
use pfi_benchkit::report::{print_rows, Checks, Row};
use pfi_benchkit::stats::summarize;

/// The five workloads, in the order a round runs them.
pub const WORKLOADS: [&str; 5] = [
    "explore_deep",
    "explore_deep_j2",
    "explore_shallow",
    "serve_mix",
    "interpose",
];

/// End-to-end metrics: defined and non-zero on every workload, measured
/// with tracing off. What one unit of work is per workload is in the
/// README's glossary.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A metric reads 0 on a workload
/// that does not exercise its layer.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("testgen.mutate_us", "us"),
    ("testgen.admit_validate_us", "us"),
    ("testgen.admit_canonical_us", "us"),
    ("testgen.admit_semantic_us", "us"),
    ("testgen.lower_us", "us"),
    ("testgen.build_us", "us"),
    ("testgen.fork_us", "us"),
    ("testgen.install_us", "us"),
    ("testgen.drive_us", "us"),
    ("testgen.harvest_us", "us"),
    ("testgen.coverage_us", "us"),
    ("testgen.oracle_us", "us"),
    ("testgen.merge_us", "us"),
    ("testgen.journal_us", "us"),
    ("testgen.executed_share", "ratio"),
    ("testgen.rejected_share", "ratio"),
    ("testgen.pruned_share", "ratio"),
    ("testgen.inert_share", "ratio"),
    ("testgen.snapshot_hit_rate", "ratio"),
    ("testgen.events_skipped_per_exec", "count"),
    ("testgen.master_share", "ratio"),
    ("sim.events_per_exec", "count"),
    ("sim.trace_records_per_exec", "count"),
    ("sim.drive_ns_per_event", "ns"),
    ("sim.snapshot_us", "us"),
    ("sim.timer_events_per_s", "1/s"),
    ("sim.message_hops_per_s", "1/s"),
    ("gmp.drive_us_per_exec", "us"),
    ("tcp.drive_us_per_exec", "us"),
    ("tpc.drive_us_per_exec", "us"),
    ("core.ns_per_msg.none", "ns"),
    ("core.ns_per_msg.native", "ns"),
    ("core.ns_per_msg.exp1_recv", "ns"),
    ("core.ns_per_msg.typed_delay", "ns"),
    ("core.ns_per_msg.lowered3", "ns"),
    ("core.ns_per_msg.loop8", "ns"),
    ("core.interpose_ratio", "ratio"),
    ("script.parse_ns", "ns"),
    ("script.eval_ns.loop8", "ns"),
    ("script.cache_hit_rate", "ratio"),
    ("fleet.scaling_j2", "ratio"),
    ("fleet.cpu_inflation_j2", "ratio"),
    ("fleet.busy_share_j2", "ratio"),
    ("fleet.epoch_overhead_us.j1", "us"),
    ("fleet.epoch_overhead_us.j2", "us"),
    ("daemon.connect_ms_p50", "ms"),
    ("proto.ping_rtt_us_p50", "us"),
    ("daemon.submit_ack_ms_p50", "ms"),
    ("daemon.wait_ms_p50", "ms"),
    ("daemon.results_ms_p50", "ms"),
    ("daemon.time_to_digest_ms_p99", "ms"),
    ("daemon.exec_overhead_share", "ratio"),
    ("daemon.status_ms_p50", "ms"),
    ("daemon.status_late_ms_p50", "ms"),
    ("daemon.recover_s", "s"),
    ("store.bytes_per_candidate", "bytes"),
    ("store.journal_bytes_per_exec", "bytes"),
    ("store.index_bytes_per_campaign", "bytes"),
    ("store.recover_us_per_case", "us"),
    ("faultio.idle_rtt_delta_us", "us"),
    ("experiments.suite_ms_p50", "ms"),
    ("trace.coverage_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.fail_share", "ratio"),
];

/// Where things are and how big the run is.
pub struct Ctx {
    /// Directory holding the release binaries.
    pub bin: PathBuf,
    /// Scratch directory (`bench/out`): stores, sockets, span files.
    pub out: PathBuf,
    /// The checkout root (golden files, `scripts/`).
    pub root: PathBuf,
    /// Workload seed; campaign seeds are `seed * 1000 + i`.
    pub seed: u64,
    /// `--check`: one round, small serve batch, one set-up.
    pub check: bool,
    /// Seconds the traced run of one workload may measure for.
    pub trace_seconds: f64,
    /// `pfi-bench-layers` failed to build: its rows are reported missing.
    pub layers_missing: bool,
}

impl Ctx {
    /// Path of a release binary.
    pub fn binary(&self, name: &str) -> PathBuf {
        self.bin.join(name)
    }
}

/// What one slice measured, in wall-clock terms.
pub struct Sample {
    /// Units of work per second of the slice.
    pub throughput: f64,
    /// The slice's median (or, for a handful of campaigns, mean) wall per
    /// user-visible operation, ms.
    pub latency_ms: f64,
    /// Peak RSS of the measured process, MB — `None` where it is only
    /// known at teardown (the daemon's).
    pub rss_mb: Option<f64>,
}

/// One workload: set up (possibly several times — each call replaces the
/// previous set-up), run slices, then check and tear down.
pub trait Workload {
    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// Everything that must happen before measuring: reference runs,
    /// golden replays, daemon spawn, warm-up.
    fn setup(&mut self, ctx: &Ctx, checks: &mut Checks);
    /// One slice of measured work; `None` if it could not complete.
    fn slice(&mut self, ctx: &Ctx, index: usize, checks: &mut Checks) -> Option<Sample>;
    /// Post-measurement checks and teardown. Returns the peak RSS in MB
    /// when it is only known now.
    fn finish(&mut self, ctx: &Ctx, checks: &mut Checks) -> Option<f64>;
    /// The traced run: per-layer rows, self-contained.
    fn traced(&mut self, ctx: &Ctx, checks: &mut Checks) -> Vec<Row>;
}

fn make_workload(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "explore_deep" => Box::new(explore::Explore::deep(1)),
        "explore_deep_j2" => Box::new(explore::Explore::deep(2)),
        "explore_shallow" => Box::new(explore::Explore::shallow()),
        "serve_mix" => Box::new(serve::ServeMix::default()),
        "interpose" => Box::new(interpose::Interpose),
        _ => return None,
    })
}

/// How long the measured phase runs.
#[derive(Clone, Copy)]
enum Length {
    /// A fixed number of rounds (one slice of every workload per round).
    Rounds(usize),
    /// Until this many seconds per workload have been measured.
    Seconds(f64),
}

struct Opts {
    workloads: Vec<String>,
    length: Length,
    /// `None`: untraced, then traced if `traced`. `Some(t)`: the driver's
    /// contract — exactly one of the two runs, JSON object last.
    contract_trace: Option<bool>,
    traced: bool,
    repeat: usize,
    json: Option<PathBuf>,
}

/// Result of one set of runs over the selected workloads.
struct SetResult {
    rows: Vec<Row>,
    checks: Checks,
}

/// Everything timed on one workload: each wall-clock reading paired with
/// the host's slowdown while it was taken (see `host.rs`).
#[derive(Default)]
struct Timed {
    setup_s: Vec<(f64, f64)>,
    throughput: Vec<(f64, f64)>,
    latency_ms: Vec<(f64, f64)>,
    rss_mb: Vec<f64>,
}

impl Timed {
    /// The end-to-end rows — medians of the readings scaled to nominal
    /// host speed — then, for transparency, the medians of the unscaled
    /// readings and the slowdown itself.
    fn rows(&self, w: &str) -> Vec<Row> {
        // A duration shrinks to what it would have been at nominal speed;
        // a rate grows by the same factor.
        let durations =
            |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(x, slow)| x / slow).collect() };
        let rates = |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(x, slow)| x * slow).collect() };
        let raw = |v: &[(f64, f64)]| -> Vec<f64> { v.iter().map(|(x, _)| *x).collect() };
        let slowdown: Vec<f64> = self.throughput.iter().map(|(_, slow)| *slow).collect();
        vec![
            Row::samples(w, "setup_s", "s", &durations(&self.setup_s)),
            Row::samples(w, "throughput_per_s", "1/s", &rates(&self.throughput)),
            Row::samples(w, "latency_ms_p50", "ms", &durations(&self.latency_ms)),
            Row::samples(w, "peak_rss_mb", "MB", &self.rss_mb),
            Row::samples(w, "setup_s.raw", "s", &raw(&self.setup_s)),
            Row::samples(w, "throughput_per_s.raw", "1/s", &raw(&self.throughput)),
            Row::samples(w, "latency_ms_p50.raw", "ms", &raw(&self.latency_ms)),
            Row::samples(w, "host.slowdown", "ratio", &slowdown),
        ]
    }
}

/// The untraced run: set-up (timed, three times), interleaved rounds,
/// checks. Rounds interleave workloads so a slow episode of the host
/// lands on a slice of each instead of on all of one; the yardstick
/// reading after one slice is the reading before the next.
fn run_untraced(ctx: &Ctx, names: &[String], length: Length) -> SetResult {
    let mut checks = Checks::default();
    let mut workloads: Vec<(Box<dyn Workload>, Timed)> = names
        .iter()
        .map(|n| {
            (
                make_workload(n).expect("names were validated"),
                Timed::default(),
            )
        })
        .collect();
    let mut yardstick = host::reading();
    // The slowdown since the previous reading, which the new one replaces.
    let mut slowdown = || {
        let before = std::mem::replace(&mut yardstick, host::reading());
        host::slowdown(before, yardstick)
    };
    for (w, timed) in &mut workloads {
        for _ in 0..if ctx.check { 1 } else { 3 } {
            let start = Instant::now();
            w.setup(ctx, &mut checks);
            timed
                .setup_s
                .push((start.elapsed().as_secs_f64(), slowdown()));
        }
    }
    let start = Instant::now();
    let mut round = 0;
    loop {
        for (w, timed) in &mut workloads {
            let sample = w.slice(ctx, round, &mut checks);
            let slow = slowdown();
            if let Some(sample) = sample {
                timed.throughput.push((sample.throughput, slow));
                timed.latency_ms.push((sample.latency_ms, slow));
                timed.rss_mb.extend(sample.rss_mb);
            }
        }
        round += 1;
        let done = match length {
            Length::Rounds(r) => round >= r,
            Length::Seconds(s) => start.elapsed().as_secs_f64() >= s * workloads.len() as f64,
        };
        if done {
            break;
        }
    }
    let mut rows = Vec::new();
    for (w, timed) in &mut workloads {
        timed.rss_mb.extend(w.finish(ctx, &mut checks));
        checks.check(!timed.throughput.is_empty(), || {
            format!("{}: no complete slice", w.name())
        });
        rows.extend(timed.rows(w.name()));
    }
    SetResult { rows, checks }
}

/// The traced run of each selected workload, padded to the full
/// per-layer registry (0 where the workload does not exercise a layer).
fn run_traced(ctx: &Ctx, names: &[String]) -> SetResult {
    let mut checks = Checks::default();
    let mut rows = Vec::new();
    for name in names {
        let mut w = make_workload(name).expect("names were validated");
        let mut own = Checks::default();
        let mut got = w.traced(ctx, &mut own);
        let share = own.failed as f64 / own.attempted.max(1) as f64;
        got.push(Row::exact(name, "trace.fail_share", "ratio", share));
        for (metric, unit) in PER_LAYER {
            if !got.iter().any(|r| r.metric == metric) {
                got.push(Row::exact(name, metric, unit, 0.0));
            }
        }
        rows.extend(got);
        checks.merge(own);
    }
    SetResult { rows, checks }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, the latter holding exactly the named metrics.
fn contract_line(rows: &[Row], checks: &Checks, workload: &str, names: &[(&str, &str)]) -> String {
    let metrics = names.iter().filter_map(|(metric, _)| {
        let row = rows
            .iter()
            .find(|r| r.workload == workload && r.metric == *metric)?;
        Some((
            *metric,
            Value::obj([
                ("value", Value::Num(row.summary.median)),
                ("unit", Value::Str(row.unit.clone())),
            ]),
        ))
    });
    Value::obj([
        ("correct", Value::Bool(checks.failed == 0)),
        ("attempted", Value::Num(checks.attempted.max(1) as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .to_line()
}

/// `--check`: every workload and metric `BENCHMARK.json` names must be
/// printed exactly once per pairing, with the unit it declares, and the
/// benchmark must name nothing the file does not.
fn check_against_contract(
    ctx: &Ctx,
    untraced: &SetResult,
    traced: Option<&SetResult>,
    checks: &mut Checks,
) {
    let path = ctx.root.join("BENCHMARK.json");
    let doc = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => {
            checks.fail(format!("cannot read {}: {e}", path.display()));
            return;
        }
    };
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .map(Value::items)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (text("name"), text("unit"))
            })
            .collect()
    };
    let declared_workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    checks.check(declared_workloads == WORKLOADS, || {
        format!("BENCHMARK.json workloads {declared_workloads:?} != {WORKLOADS:?}")
    });
    let same = |declared: &[(String, String)], ours: &[(&str, &str)]| {
        declared.len() == ours.len()
            && declared
                .iter()
                .zip(ours)
                .all(|((n, u), (on, ou))| n == on && u == ou)
    };
    let (e2e, per_layer) = (names("end_to_end"), names("per_layer"));
    checks.check(same(&e2e, &END_TO_END), || {
        "BENCHMARK.json end_to_end differs from the benchmark's END_TO_END list".to_string()
    });
    checks.check(same(&per_layer, &PER_LAYER), || {
        "BENCHMARK.json per_layer differs from the benchmark's PER_LAYER list".to_string()
    });
    let mut pairings = vec![(untraced, &e2e)];
    if let Some(traced) = traced {
        pairings.push((traced, &per_layer));
    }
    for (result, metrics) in pairings {
        for workload in &declared_workloads {
            for (metric, unit) in metrics {
                let hits: Vec<&Row> = result
                    .rows
                    .iter()
                    .filter(|r| &r.workload == workload && &r.metric == metric)
                    .collect();
                checks.check(hits.len() == 1 && &hits[0].unit == unit, || {
                    format!(
                        "{workload}/{metric} [{unit}] printed {} time(s)",
                        hits.len()
                    )
                });
            }
        }
    }
}

/// `--repeat K`: the between-set spread of every end-to-end metric —
/// what the bounds in `BENCHMARK.json` were calibrated from. Set `k`
/// runs at seed `seed + k`, as the acceptance driver varies it.
fn print_spreads(sets: &[SetResult]) {
    println!(
        "\nbetween-set spread over {} sets (IQR / median):",
        sets.len()
    );
    let first = &sets[0];
    for row in &first.rows {
        let values: Vec<f64> = sets
            .iter()
            .filter_map(|s| {
                s.rows
                    .iter()
                    .find(|r| r.workload == row.workload && r.metric == row.metric)
                    .map(|r| r.summary.median)
            })
            .collect();
        let s = summarize(&values);
        println!(
            "{:<16} {:<18} median {:>12.4} {:<4} spread {:>6.2}%   [{}]",
            row.workload,
            row.metric,
            s.median,
            row.unit,
            100.0 * s.spread(),
            values
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: pfi-bench --bin DIR [--root DIR] [--out DIR] [--workload NAME]... [--seed N]\n\
         \x20      [--seconds T | --rounds R] [--trace 0|1 | --traced] [--check] [--repeat K]\n\
         \x20      [--json PATH] [--layers-missing]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> (Ctx, Opts) {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        bin: PathBuf::from("target/release"),
        out: PathBuf::from("bench/out"),
        root: PathBuf::from("."),
        seed: 42,
        check: false,
        trace_seconds: 10.0,
        layers_missing: false,
    };
    let mut opts = Opts {
        workloads: Vec::new(),
        length: Length::Rounds(10),
        contract_trace: None,
        traced: false,
        repeat: 1,
        json: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--bin" => ctx.bin = PathBuf::from(value()),
            "--root" => ctx.root = PathBuf::from(value()),
            "--out" => ctx.out = PathBuf::from(value()),
            "--workload" => opts.workloads.push(value()),
            "--seed" => ctx.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage());
                opts.length = Length::Seconds(s);
                ctx.trace_seconds = s;
            }
            "--rounds" => {
                opts.length = Length::Rounds(value().parse().unwrap_or_else(|_| usage()));
            }
            "--trace" => {
                opts.contract_trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                });
            }
            "--traced" => opts.traced = true,
            "--check" => ctx.check = true,
            "--repeat" => opts.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--json" => opts.json = Some(PathBuf::from(value())),
            "--layers-missing" => ctx.layers_missing = true,
            _ => usage(),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if opts
        .workloads
        .iter()
        .any(|w| !WORKLOADS.contains(&w.as_str()))
        || opts.repeat == 0
    {
        usage();
    }
    if ctx.check {
        opts.length = Length::Rounds(1);
        ctx.trace_seconds = ctx.trace_seconds.min(3.0);
    }
    (ctx, opts)
}

fn main() {
    let (mut ctx, opts) = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("cannot create {}: {e}", ctx.out.display());
        std::process::exit(2);
    }
    let load_before = meta::loadavg();
    let base_seed = ctx.seed;
    let run_untraced_too = opts.contract_trace != Some(true);
    let run_traced_too = opts.contract_trace == Some(true) || opts.traced;

    let mut untraced_sets = Vec::new();
    let mut traced_sets = Vec::new();
    for k in 0..opts.repeat {
        ctx.seed = base_seed + k as u64;
        if opts.repeat > 1 {
            println!("== set {} of {} (seed {}) ==", k + 1, opts.repeat, ctx.seed);
        }
        if run_untraced_too {
            let set = run_untraced(&ctx, &opts.workloads, opts.length);
            print_rows(&set.rows);
            untraced_sets.push(set);
        }
        if run_traced_too {
            let set = run_traced(&ctx, &opts.workloads);
            print_rows(&set.rows);
            traced_sets.push(set);
        }
    }
    ctx.seed = base_seed;
    if opts.repeat > 1 {
        for sets in [&untraced_sets, &traced_sets] {
            if !sets.is_empty() {
                print_spreads(sets);
            }
        }
    }

    let mut checks = Checks::default();
    if ctx.check {
        if let Some(untraced) = untraced_sets.first() {
            check_against_contract(&ctx, untraced, traced_sets.first(), &mut checks);
        }
    }
    let mut rows = Vec::new();
    for set in untraced_sets.iter().chain(&traced_sets) {
        checks.merge(set.checks.clone());
        rows.extend(set.rows.iter().cloned());
    }
    let fail_share = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "\nchecks: {} attempted, {} failed (fail_share {fail_share})",
        checks.attempted, checks.failed
    );
    for failure in checks.failures.iter().take(20) {
        println!("FAILED: {failure}");
    }
    if ctx.layers_missing && run_traced_too {
        println!("MISSING: pfi-bench-layers did not build; its per-layer rows read 0");
    }

    if let Some(path) = &opts.json {
        let length = match opts.length {
            Length::Rounds(r) => format!("rounds={r}"),
            Length::Seconds(s) => format!("seconds={s}"),
        };
        let doc = Value::obj([
            ("_meta", meta::meta(&ctx, &length, &load_before)),
            ("attempted", Value::Num(checks.attempted as f64)),
            ("failed", Value::Num(checks.failed as f64)),
            ("rows", Value::Arr(rows.iter().map(Row::to_json).collect())),
        ]);
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("wrote {}", path.display());
    }

    if let Some(traced) = opts.contract_trace {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        println!(
            "{}",
            contract_line(&rows, &checks, &opts.workloads[0], names)
        );
    }
    let code = if checks.failed > 0 {
        1
    } else if ctx.layers_missing && run_traced_too {
        4
    } else {
        0
    };
    std::process::exit(code);
}
