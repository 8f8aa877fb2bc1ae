//! `pfi-bench-layers` — the traced run: where one campaign execution's
//! time goes, layer by layer, measured from outside the product.
//!
//! `stream` re-composes an execution from the public pieces the engine
//! itself is built from — `ScheduleMutator::mutate`,
//! `schedule_is_installable`, `canonical_id`, `FlowModel::semantic_id`,
//! `FaultSchedule::lower`, `World::try_snapshot` + `fork`,
//! `Filter::script` + `PfiControl::Set{Send,Recv}Filter`,
//! `TestTarget::{drive,harvest,verdict}`, `Coverage::{from_trace,merge}`,
//! `first_violation`, `JournalWriter::{dispatch,case}` — over a fixed
//! candidate stream, recording a span around each call. Every eighth
//! executed candidate is also run through `run_schedule_limited` and must
//! give the same verdict, oracle and coverage, so the re-composition is
//! the program and not a model of it. A second, untraced copy of the same
//! stream advances in lock-step; the wall difference is the tracing
//! overhead, and the two copies must end in the same state.
//!
//! This is the only benchmark binary that imports testgen and fleet. It
//! is built by its own `cargo build --bin` call: if a refactor of those
//! APIs breaks it, the per-layer rows go missing and the end-to-end
//! metrics do not.

use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pfi_benchkit::report::{Checks, Row};
use pfi_benchkit::stats::median;
use pfi_core::{Filter, PfiControl, PfiEvent, PfiReply};
use pfi_fleet::{Fleet, JobRunner};
use pfi_sim::{NodeId, SimRng, WorldSnapshot};
use pfi_testgen::{
    explore, first_violation, run_schedule_limited, schedule_is_installable, Coverage,
    ExploreConfig, FaultSchedule, FlowModel, GmpTarget, JournalCase, JournalWriter, ProtocolSpec,
    RunLimits, ScheduleMutator, TcpTarget, TestTarget, TpcTarget, Verdict,
};

/// The stages of one candidate, in pipeline order. Metric `testgen.<name>_us`.
const STAGES: [&str; 14] = [
    "mutate",
    "admit_validate",
    "admit_canonical",
    "admit_semantic",
    "lower",
    "build",
    "fork",
    "install",
    "drive",
    "harvest",
    "coverage",
    "oracle",
    "merge",
    "journal",
];

/// One recorded span. `parent == 0` marks an `exec` root.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    exec: u64,
}

/// In-memory span recorder. Off, `begin`/`end` touch no clock and no
/// memory — that copy of the stream is the tracing-overhead baseline.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: u64,
    exec: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: 0,
            exec: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of candidate `exec`.
    fn begin_exec(&mut self, exec: u64) -> u64 {
        if !self.on {
            return 0;
        }
        self.exec = exec;
        self.root = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: self.root,
            parent: 0,
            name: "exec",
            start_ns,
            end_ns: start_ns,
            exec,
        });
        self.root
    }

    fn end_exec(&mut self, root: u64) {
        if self.on {
            let end_ns = self.now_ns();
            self.spans[root as usize - 1].end_ns = end_ns;
        }
    }

    /// Runs `f` under a stage span of the current root.
    fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: self.spans.len() as u64 + 1,
            parent: self.root,
            name,
            start_ns,
            end_ns,
            exec: self.exec,
        });
        out
    }
}

/// What one executed candidate produced — compared against
/// `run_schedule_limited` on every eighth one.
struct Executed {
    schedule: FaultSchedule,
    verdict: Verdict,
    oracle: Option<String>,
    coverage: Coverage,
}

/// Counters of one stream; the traced and untraced copies must agree.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counters {
    candidates: u64,
    duplicates: u64,
    rejected: u64,
    pruned: u64,
    inert: u64,
    executed: u64,
    violations: u64,
    events: u64,
    trace_records: u64,
}

/// One target's candidate stream: the corpus of a budget-256 `explore()`
/// at the benchmark seed, mutated round-robin under a seeded RNG.
struct Stream<'a> {
    target: &'a dyn TestTarget,
    limits: RunLimits,
    max_faults: usize,
    mutator: ScheduleMutator,
    model: Option<FlowModel>,
    corpus: Vec<FaultSchedule>,
    rng: SimRng,
    base: WorldSnapshot,
    sites: Vec<(NodeId, usize)>,
    seen: BTreeSet<String>,
    settled: BTreeSet<String>,
    settled_sem: BTreeSet<String>,
    coverage: Coverage,
    journal: JournalWriter,
    counters: Counters,
    snapshot_us: Vec<f64>,
}

impl<'a> Stream<'a> {
    /// Builds the target once under a `build` span (the one world a
    /// snapshotting campaign ever builds), snapshots it five times (timed
    /// into `snapshot_us`), and opens the journal.
    fn new(
        target: &'a dyn TestTarget,
        spec: &ProtocolSpec,
        config: &ExploreConfig,
        corpus: &[FaultSchedule],
        journal_path: &Path,
        tracer: &mut Tracer,
    ) -> Stream<'a> {
        let root = tracer.begin_exec(0);
        let (mut world, sites) = tracer.stage("build", || target.build());
        tracer.end_exec(root);
        world.trace_timers = true;
        let mut base = None;
        let mut snapshot_us = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            let snap = world.try_snapshot().expect("bundled targets snapshot");
            snapshot_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            base = Some(snap);
        }
        let journal = JournalWriter::create(journal_path, &config.journal_meta(target))
            .expect("journal file in the benchmark's out dir is writable");
        let baseline = FaultSchedule::empty();
        let model = target.flow_model();
        Stream {
            target,
            limits: config.limits(),
            max_faults: config.max_faults,
            mutator: ScheduleMutator::new(spec, target.node_count(), target.fault_sites()),
            settled_sem: model.iter().map(|_| baseline.id()).collect(),
            model,
            corpus: corpus.to_vec(),
            rng: SimRng::seed_from(config.seed),
            base: base.expect("five snapshots were taken"),
            sites,
            seen: BTreeSet::from([baseline.id()]),
            settled: BTreeSet::new(),
            coverage: Coverage::new(),
            journal,
            counters: Counters::default(),
            snapshot_us,
        }
    }

    /// Processes the next candidate end to end; `Some` iff it executed.
    fn step(&mut self, tr: &mut Tracer) -> Option<Executed> {
        let k = self.counters.candidates;
        self.counters.candidates += 1;
        let root = tr.begin_exec(k + 1);
        let out = self.step_inner(k, tr);
        tr.end_exec(root);
        out
    }

    fn step_inner(&mut self, k: u64, tr: &mut Tracer) -> Option<Executed> {
        let sites = self.target.fault_sites();
        let candidate = tr.stage("mutate", || {
            let parent = &self.corpus[k as usize % self.corpus.len()];
            let c = self.mutator.mutate(parent, self.max_faults, &mut self.rng);
            self.seen.insert(c.id()).then_some(c)
        });
        let Some(candidate) = candidate else {
            self.counters.duplicates += 1;
            return None;
        };
        if !tr.stage("admit_validate", || {
            schedule_is_installable(&candidate, sites)
        }) {
            self.counters.rejected += 1;
            return None;
        }
        if tr.stage("admit_canonical", || {
            self.settled.contains(&candidate.canonical_id())
        }) {
            self.counters.pruned += 1;
            return None;
        }
        if let Some(model) = &self.model {
            if tr.stage("admit_semantic", || {
                self.settled_sem.contains(&model.semantic_id(&candidate))
            }) {
                self.counters.inert += 1;
                return None;
            }
        }

        let scripts = tr.stage("lower", || candidate.lower());
        let mut world = tr.stage("fork", || self.base.fork());
        let events_before = world.events_processed();
        let records_before = world.trace().len();
        tr.stage("install", || {
            for s in &scripts {
                let (node, layer) = self.sites[s.site as usize];
                for (script, make) in [
                    (
                        &s.send,
                        PfiControl::SetSendFilter as fn(Filter) -> PfiControl,
                    ),
                    (
                        &s.recv,
                        PfiControl::SetRecvFilter as fn(Filter) -> PfiControl,
                    ),
                ] {
                    if !script.is_empty() {
                        let filter = Filter::script(script).expect("admitted scripts parse");
                        let _: PfiReply = world.control(node, layer, make(filter));
                    }
                }
            }
        });
        let capped = tr.stage("drive", || self.target.drive(&mut world, &self.limits));
        tr.stage("harvest", || self.target.harvest(&mut world));
        self.counters.executed += 1;
        self.counters.events += world.events_processed() - events_before;
        self.counters.trace_records += (world.trace().len() - records_before) as u64;
        let coverage = tr.stage("coverage", || Coverage::from_trace(world.trace()));
        // The runner's verdict priority: a violation on the (possibly
        // truncated) trace, then the event-cap and script-budget
        // watchdogs, then the target's own service verdict.
        let (verdict, oracle) = tr.stage("oracle", || {
            if let Some((name, msg)) = first_violation(&self.target.oracles(), world.trace()) {
                return (
                    Verdict::Violated(format!("{name}: {msg}")),
                    Some(name.to_string()),
                );
            }
            if capped {
                let cap = self.limits.event_cap;
                let why = format!("drive exhausted its {cap} simulator-event budget");
                return (Verdict::Hung(why), None);
            }
            let burned = world
                .trace()
                .events_with_nodes::<PfiEvent>()
                .into_iter()
                .find_map(|(_, node, event)| match event {
                    PfiEvent::ScriptFailed {
                        budget_exhausted: true,
                        dir,
                        error,
                    } => Some(format!("{node} {dir:?} filter: {error}")),
                    _ => None,
                });
            match burned {
                Some(error) => (
                    Verdict::Hung(format!("filter script watchdog fired: {error}")),
                    None,
                ),
                None => (self.target.verdict(&mut world), None),
            }
        });
        tr.stage("merge", || {
            if verdict.is_violation() {
                self.counters.violations += 1;
            } else {
                self.settled.insert(candidate.canonical_id());
                if let Some(model) = &self.model {
                    self.settled_sem.insert(model.semantic_id(&candidate));
                }
            }
            self.coverage.merge(&coverage);
        });
        tr.stage("journal", || {
            self.journal
                .dispatch(&candidate.id())
                .expect("journal append");
            self.journal
                .case(&JournalCase {
                    schedule: candidate.clone(),
                    verdict: verdict.clone(),
                    oracle: oracle.clone(),
                    coverage: coverage.edges().map(str::to_string).collect(),
                    shrink: None,
                })
                .expect("journal append");
        });
        Some(Executed {
            schedule: candidate,
            verdict,
            oracle,
            coverage,
        })
    }
}

/// One traced target: its name in metric keys and its campaign shape.
struct TargetSpec {
    key: &'static str,
    target: Box<dyn TestTarget>,
    spec: ProtocolSpec,
    max_faults: usize,
}

fn targets(group: &str) -> Vec<TargetSpec> {
    let gmp = |fault_secs, max_faults| TargetSpec {
        key: "gmp",
        target: Box::new(GmpTarget {
            fault_secs,
            ..GmpTarget::default()
        }),
        spec: ProtocolSpec::gmp(),
        max_faults,
    };
    match group {
        "deep" => vec![gmp(60, 3)],
        "shallow" => vec![
            gmp(5, 2),
            TargetSpec {
                key: "tcp",
                target: Box::new(TcpTarget::default()),
                spec: ProtocolSpec::tcp(),
                max_faults: ExploreConfig::default().max_faults,
            },
            TargetSpec {
                key: "tpc",
                target: Box::new(TpcTarget),
                spec: ProtocolSpec::two_phase_commit(),
                max_faults: ExploreConfig::default().max_faults,
            },
        ],
        other => {
            eprintln!("unknown --target {other:?} (expected deep or shallow)");
            std::process::exit(2);
        }
    }
}

/// Candidates per lock-step chunk of the traced / untraced copies.
const CHUNK: usize = 32;

/// Totals of one traced target, folded into the group's rows.
#[derive(Default)]
struct Totals {
    stage_ns: [u64; STAGES.len()],
    root_ns: u64,
    counters: Counters,
    overhead: Vec<f64>,
    snapshot_us: Vec<f64>,
}

fn run_target(
    t: &TargetSpec,
    seed: u64,
    budget: Duration,
    out_dir: &Path,
    spans_out: &mut impl Write,
    checks: &mut Checks,
    totals: &mut Totals,
) -> (u64, u64) {
    let config = ExploreConfig {
        seed,
        budget: 256,
        max_faults: t.max_faults,
        epoch: 8,
        ..ExploreConfig::default()
    };
    let corpus = explore(t.target.as_ref(), &t.spec, &config).corpus;
    let journal = |tag: &str| out_dir.join(format!("layers-{}-{tag}.journal", t.key));
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (traced_path, plain_path) = (journal("traced"), journal("plain"));
    let target = t.target.as_ref();
    let mut a = Stream::new(target, &t.spec, &config, &corpus, &traced_path, &mut on);
    let mut b = Stream::new(target, &t.spec, &config, &corpus, &plain_path, &mut off);
    totals.snapshot_us.append(&mut a.snapshot_us);

    let deadline = Instant::now() + budget;
    let mut executed = 0u64;
    while Instant::now() < deadline {
        let mut wall_on = Duration::ZERO;
        for _ in 0..CHUNK {
            let start = Instant::now();
            let done = a.step(&mut on);
            wall_on += start.elapsed();
            let Some(done) = done else { continue };
            executed += 1;
            if executed % 8 == 1 {
                let reference = run_schedule_limited(t.target.as_ref(), &done.schedule, &a.limits);
                checks.check(
                    reference.verdict == done.verdict
                        && reference.oracle == done.oracle
                        && reference.coverage == done.coverage,
                    || {
                        format!(
                            "{} candidate {}: re-composed run gave {:?}, run_schedule_limited {:?}",
                            t.key,
                            done.schedule.id(),
                            done.verdict,
                            reference.verdict
                        )
                    },
                );
            }
        }
        let start = Instant::now();
        for _ in 0..CHUNK {
            b.step(&mut off);
        }
        let wall_off = start.elapsed();
        totals
            .overhead
            .push((wall_on.as_secs_f64() - wall_off.as_secs_f64()) / wall_off.as_secs_f64());
    }
    checks.check(a.counters == b.counters && a.coverage == b.coverage, || {
        format!(
            "{}: traced and untraced streams diverged: {:?} vs {:?}",
            t.key, a.counters, b.counters
        )
    });
    for path in [traced_path, plain_path] {
        let _ = std::fs::remove_file(path);
    }

    // Fold this target's spans into the group totals and write them out.
    let mut drive_ns = 0u64;
    for s in &on.spans {
        let dur = s.end_ns - s.start_ns;
        if s.parent == 0 {
            totals.root_ns += dur;
        } else {
            let stage = STAGES
                .iter()
                .position(|n| *n == s.name)
                .expect("known stage");
            totals.stage_ns[stage] += dur;
            if s.name == "drive" {
                drive_ns += dur;
            }
        }
        writeln!(
            spans_out,
            "{{\"target\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"exec\":{}}}",
            t.key, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.exec
        )
        .expect("span file is writable");
    }
    let c = &a.counters;
    totals.counters.candidates += c.candidates;
    totals.counters.executed += c.executed;
    totals.counters.events += c.events;
    totals.counters.trace_records += c.trace_records;
    println!(
        "# {}: {} candidates ({} duplicate, {} rejected, {} pruned, {} inert), {} executed, {} violating",
        t.key, c.candidates, c.duplicates, c.rejected, c.pruned, c.inert, c.executed, c.violations
    );
    (drive_ns, c.executed)
}

/// `stream --target deep|shallow --seed S --seconds T --out DIR --workload W`
fn stream(args: &Args) {
    let group = args.text("--target", "deep");
    let workload = args.text("--workload", "explore_deep");
    let seed = args.number("--seed", 42);
    let seconds: f64 = args
        .value("--seconds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let out_dir = PathBuf::from(args.text("--out", "bench/out"));
    std::fs::create_dir_all(&out_dir).expect("out dir can be created");
    let span_path = out_dir.join(format!("trace-{group}.jsonl"));
    let mut spans_out = BufWriter::new(std::fs::File::create(&span_path).expect("span file"));

    let targets = targets(&group);
    let per_target = Duration::from_secs_f64(seconds / targets.len() as f64);
    let mut checks = Checks::default();
    let mut totals = Totals::default();
    let mut rows = Vec::new();
    for t in &targets {
        let (drive_ns, executed) = run_target(
            t,
            seed,
            per_target,
            &out_dir,
            &mut spans_out,
            &mut checks,
            &mut totals,
        );
        rows.push(Row::exact(
            &workload,
            &format!("{}.drive_us_per_exec", t.key),
            "us",
            drive_ns as f64 / 1e3 / executed.max(1) as f64,
        ));
    }
    spans_out.flush().expect("span file flushes");

    let c = &totals.counters;
    let per_candidate = c.candidates.max(1) as f64;
    let per_exec = c.executed.max(1) as f64;
    let staged: u64 = totals.stage_ns.iter().sum();
    println!("# stage            total_ms        us/call   share of exec wall");
    for (name, ns) in STAGES.iter().zip(totals.stage_ns) {
        // Every stage is per candidate generated, except `build`: a
        // snapshotting campaign builds one world, so it is per build.
        let calls = if *name == "build" {
            targets.len() as f64
        } else {
            per_candidate
        };
        println!(
            "# {name:<16} {:>8.1}   {:>12.2}   {:>6.2}%",
            ns as f64 / 1e6,
            ns as f64 / 1e3 / calls,
            100.0 * ns as f64 / totals.root_ns.max(1) as f64
        );
        rows.push(Row::exact(
            &workload,
            &format!("testgen.{name}_us"),
            "us",
            ns as f64 / 1e3 / calls,
        ));
    }
    let drive_ns = totals.stage_ns[STAGES.iter().position(|n| *n == "drive").expect("drive")];
    rows.extend([
        Row::exact(
            &workload,
            "sim.events_per_exec",
            "count",
            c.events as f64 / per_exec,
        ),
        Row::exact(
            &workload,
            "sim.trace_records_per_exec",
            "count",
            c.trace_records as f64 / per_exec,
        ),
        Row::exact(
            &workload,
            "sim.drive_ns_per_event",
            "ns",
            drive_ns as f64 / c.events.max(1) as f64,
        ),
        Row::samples(&workload, "sim.snapshot_us", "us", &totals.snapshot_us),
        Row::exact(
            &workload,
            "trace.coverage_share",
            "ratio",
            staged as f64 / totals.root_ns.max(1) as f64,
        ),
        Row::exact(
            &workload,
            "trace.overhead_share",
            "ratio",
            median(&totals.overhead),
        ),
    ]);
    println!("# spans written to {}", span_path.display());
    finish(&rows, &checks);
}

/// `inproc --seed S --n N`: the serve workload's small campaign through
/// `explore()` in-process — the floor `daemon.wait_ms_p50` sits on.
fn inproc(args: &Args) {
    let seed = args.number("--seed", 42);
    let n = args.number("--n", 50);
    let target = GmpTarget {
        fault_secs: 5,
        ..GmpTarget::default()
    };
    let spec = ProtocolSpec::gmp();
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let config = ExploreConfig {
                seed: seed * 1000 + i,
                budget: 24,
                max_faults: 2,
                epoch: 8,
                ..ExploreConfig::default()
            };
            let start = Instant::now();
            let outcome = explore(&target, &spec, &config);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(outcome.executed > 0);
            ms
        })
        .collect();
    let rows = [Row::samples(
        "serve_mix",
        "daemon.inproc_explore_ms",
        "ms",
        &samples,
    )];
    finish(&rows, &Checks::default());
}

/// `fleet`: the cost of one dispatch epoch of eight no-op jobs at one and
/// two workers — pure pool overhead, no campaign in it.
fn fleet(args: &Args) {
    let workload = args.text("--workload", "explore_deep_j2");
    let mut rows = Vec::new();
    for workers in [1usize, 2] {
        let mut pool: Fleet<u64, u64> = Fleet::new(workers, |_| {
            Box::new(|job: u64| job + 1) as Box<dyn JobRunner<u64, u64>>
        });
        let mut samples = Vec::new();
        for _ in 0..40 {
            let start = Instant::now();
            for _ in 0..50 {
                let out = pool.run_epoch((0..8).collect());
                assert_eq!(out.len(), 8);
            }
            samples.push(start.elapsed().as_nanos() as f64 / 1e3 / 50.0);
        }
        pool.shutdown();
        rows.push(Row::samples(
            &workload,
            &format!("fleet.epoch_overhead_us.j{workers}"),
            "us",
            &samples,
        ));
    }
    finish(&rows, &Checks::default());
}

fn finish(rows: &[Row], checks: &Checks) -> ! {
    for row in rows {
        println!("{}", row.to_line());
    }
    for line in checks.to_lines() {
        println!("{line}");
    }
    std::process::exit(if checks.failed == 0 { 0 } else { 1 });
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&String> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
    }
    fn text(&self, name: &str, default: &str) -> String {
        self.value(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
    fn number(&self, name: &str, default: u64) -> u64 {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv);
    match command.as_str() {
        "stream" => stream(&args),
        "inproc" => inproc(&args),
        "fleet" => fleet(&args),
        _ => {
            eprintln!("usage: pfi-bench-layers stream|inproc|fleet [--target deep|shallow] [--seed N] [--seconds T] [--out DIR] [--workload NAME]");
            std::process::exit(2);
        }
    }
}
