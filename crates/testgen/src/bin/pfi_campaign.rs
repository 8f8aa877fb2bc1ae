//! Command-line campaign runner: run the grid of one-fault schedules
//! generated from a bundled protocol specification against the matching
//! target, or run a coverage-guided exploration instead. The grid runs on
//! the calling thread; exploration fans candidates out across
//! a worker fleet (`--jobs`), with outcomes byte-identical for any worker
//! count.
//!
//! ```text
//! pfi-campaign gmp                      # full grid campaign, fixed GMP
//! pfi-campaign gmp --buggy              # against the implementation with the paper's bugs
//! pfi-campaign tcp                      # against a TCP transfer
//! pfi-campaign tpc                      # against a two-phase commit transaction
//! pfi-campaign gmp --list               # print each grid schedule and its script, don't run
//! pfi-campaign gmp --explore            # coverage-guided search instead of the grid
//! pfi-campaign gmp --explore --budget 64 --seed 7
//! pfi-campaign gmp --explore --jobs 4 --stats
//! pfi-campaign gmp --explore --digest   # one-line outcome digest (CI golden)
//! pfi-campaign gmp --explore --no-snapshots   # rebuild every world (same digest)
//! pfi-campaign gmp --explore --journal run.journal        # crash-safe record
//! pfi-campaign gmp --explore --resume run.journal --journal run.journal
//! ```
//!
//! Exploration prints each discovered failure as a replayable `pfi-repro`
//! artifact (shrunk to a 1-minimal fault set).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use pfi_testgen::{
    bundled, explore_fleet, grid, run_schedule_snapshotted, unknown_protocol, ChaosOracleTarget,
    ExploreConfig, RunLimits, SnapshotStore, Verdict,
};

const HELP: &str = "pfi-campaign — script-driven fault-injection campaigns

USAGE:
    pfi-campaign [PROTOCOL] [FLAGS]

PROTOCOL (default gmp):
    gmp        group membership daemon cluster
    tcp        client/server TCP transfer
    tpc        two-phase commit transaction

FLAGS:
    --buggy           use the implementation with the paper's seeded bugs (gmp)
    --list            print each grid schedule and its filter script and exit
    --explore         coverage-guided schedule search instead of the fixed grid
    --seed N          exploration RNG seed
    --budget N        exploration mutation budget
    --epoch N         candidates per dispatch epoch (determinism unit; outcomes
                      depend on it, never on --jobs; 1 = classic sequential walk)
    --max-faults N    cap on faults per generated schedule (outcome input)
    --jobs N          (--explore only; the grid runs on the calling thread)
                      workers: the calling thread plus N-1 spawned ones, so
                      --jobs 1 spawns none; 0 or omitted auto-detects the
                      host's available parallelism. Any value yields
                      byte-identical campaign results (the resolved count is
                      printed, shown in --stats, and recorded in the journal)
    --fault-secs N    gmp fault-window length in virtual seconds (default 60;
                      5 is the loop-heavy shallow corpus)
    --no-snapshots    rebuild every candidate's world from scratch instead of
                      forking the prepared fault-free world captured once
                      (same digest either way). By default a forked candidate
                      whose filters never act on the traffic the baseline run
                      recorded is not driven: it would re-simulate the
                      baseline, so it gets the baseline's outcome (--stats: N
                      replayed from the baseline; the same N at every --jobs)
    --journal PATH    write-ahead journal: record dispatch intent and every
                      result to PATH as the exploration runs (crash-safe)
    --resume PATH     replay the completed work recorded in PATH instead of
                      re-executing it; must be the same campaign config.
                      Combine with --journal (same path is fine) to end up
                      with a journal byte-identical to an uninterrupted run's
    --max-retries N   panic retries before a candidate is quarantined and its
                      lineage dropped (any --jobs, 1 included; default 2)
    --step-budget N   interpreter steps one filter evaluation may take (the
                      budget refills for every message); a script that
                      burns it out reports the run as HUNG
    --inject-panic    add a sabotage oracle that panics whenever a run drops
                      a message — exercises crash containment (CI resilience)
    --stats           (--explore only) print the fleet execution report
                      (workers, exec/sec, queues)
    --digest          print a one-line outcome digest (for golden comparisons)
    --help            this text

RETIRED (accepted and ignored):
    --no-pruning      the prune tiers are gone: every admitted candidate runs
    --no-semantic     (or is handed the baseline's outcome), whatever the flags
    --no-prefilter    a candidate that cannot install is always refused before
                      dispatch (it would be refused at install time anyway)

EXIT CODES:
    0   clean: no violations, no infrastructure trouble
    1   at least one oracle violation was found (the campaign's purpose)
    2   usage error (unknown argument, missing or malformed value)
    3   infrastructure trouble only: crashed / hung / quarantined /
        uninstallable cases, but no violations
";

const SWITCHES: [&str; 10] = [
    "--buggy",
    "--list",
    "--explore",
    "--stats",
    "--digest",
    "--no-snapshots",
    "--inject-panic",
    // Retired no-ops, kept while bench/src/bin/pfi_bench/explore.rs (its
    // PLAINEST path and KNOWN DEFECT branch) passes them.
    "--no-pruning",
    "--no-semantic",
    "--no-prefilter",
];
const NUMBERS: [&str; 8] = [
    "--seed",
    "--budget",
    "--epoch",
    "--max-faults",
    "--jobs",
    "--fault-secs",
    "--max-retries",
    "--step-budget",
];
const PATHS: [&str; 2] = ["--journal", "--resume"];

/// The command line with every argument accounted for.
struct Cli {
    proto: String,
    switches: BTreeSet<String>,
    numbers: BTreeMap<String, u64>,
    paths: BTreeMap<String, PathBuf>,
}

impl Cli {
    /// Refuses what `HELP` does not list: an unknown argument, a flag
    /// without its value, a number that does not parse.
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            proto: "gmp".to_string(),
            switches: BTreeSet::new(),
            numbers: BTreeMap::new(),
            paths: BTreeMap::new(),
        };
        let mut rest = args.iter().enumerate();
        while let Some((i, arg)) = rest.next() {
            let name = arg.as_str();
            if SWITCHES.contains(&name) {
                cli.switches.insert(arg.clone());
            } else if NUMBERS.contains(&name) || PATHS.contains(&name) {
                let value = rest
                    .next()
                    .map(|(_, v)| v)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{name} needs a value"))?;
                if PATHS.contains(&name) {
                    cli.paths.insert(arg.clone(), PathBuf::from(value));
                } else {
                    let n = value.parse().map_err(|_| {
                        format!("{name} takes a non-negative integer, not {value:?}")
                    })?;
                    cli.numbers.insert(arg.clone(), n);
                }
            } else if i == 0 && !name.starts_with('-') {
                cli.proto = arg.clone();
            } else {
                return Err(format!("unrecognised argument {name:?}"));
            }
        }
        Ok(cli)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(switch)
    }
}

/// Exit 2, naming what was wrong with the command line.
fn usage(error: &str) -> ! {
    eprintln!("pfi-campaign: {error} (--help lists the flags)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let cli = Cli::parse(&args).unwrap_or_else(|e| usage(&e));
    let proto = cli.proto.as_str();
    let list_only = cli.has("--list");
    let explore_mode = cli.has("--explore");
    let stats = cli.has("--stats");
    let digest = cli.has("--digest");
    let flag_value = |name: &str| cli.numbers.get(name).copied();
    if !explore_mode {
        // The grid runs on the calling thread: there is no fleet to size
        // or to report on.
        if flag_value("--jobs").is_some() {
            usage("--jobs needs --explore");
        }
        if stats {
            usage("--stats needs --explore");
        }
    }

    let fault_secs = flag_value("--fault-secs").unwrap_or(60);
    let (spec, mut target) = bundled(proto, cli.has("--buggy"), fault_secs)
        .unwrap_or_else(|| usage(&unknown_protocol(proto)));
    if cli.has("--inject-panic") {
        target = Arc::new(ChaosOracleTarget { inner: target });
    }

    if explore_mode {
        // `--jobs 0` (and no flag at all) auto-detects the host's cores; the
        // resolved count is what gets printed, reported, and journaled.
        let jobs = match flag_value("--jobs") {
            Some(0) | None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(j) => j as usize,
        };
        let mut config = ExploreConfig::default();
        if let Some(seed) = flag_value("--seed") {
            config.seed = seed;
        }
        if let Some(budget) = flag_value("--budget") {
            config.budget = budget as usize;
        }
        if let Some(epoch) = flag_value("--epoch") {
            config.epoch = (epoch as usize).max(1);
        }
        if let Some(max_faults) = flag_value("--max-faults") {
            config.max_faults = (max_faults as usize).max(1);
        }
        if cli.has("--no-snapshots") {
            config.snapshots = false;
        }
        if let Some(retries) = flag_value("--max-retries") {
            config.max_retries = retries as u32;
        }
        if let Some(steps) = flag_value("--step-budget") {
            config.step_budget = steps;
        }
        config.journal = cli.paths.get("--journal").cloned();
        if let Some(path) = cli.paths.get("--resume") {
            match pfi_testgen::Journal::load(path) {
                Ok(journal) => config.resume = Some(journal),
                Err(e) => {
                    eprintln!("cannot resume from {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
        }
        // The engine appends to the journal file, and this run's journal is
        // the whole file: empty it, once `--resume` has been read (the two
        // may name one file).
        if let Some(path) = &config.journal {
            if let Err(e) = std::fs::File::create(path) {
                eprintln!("cannot create journal {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        if !digest {
            println!(
                "exploring {} (seed {}, budget {}, ≤{} faults per schedule, epoch {}, {} job(s))…\n",
                proto, config.seed, config.budget, config.max_faults, config.epoch, jobs
            );
        }
        let (outcome, report) = explore_fleet(target, &spec, &config, jobs);
        if digest {
            // One line, a pure function of (target, seed, budget,
            // max_faults, epoch) — CI compares it across --jobs values.
            println!(
                "pfi-campaign digest {} seed={} budget={} epoch={} {}",
                proto,
                config.seed,
                config.budget,
                config.epoch,
                outcome.digest64()
            );
        } else {
            println!(
                "ran {} schedules; corpus kept {} ({} coverage edges); {} candidate(s) rejected as uninstallable before dispatch",
                outcome.executed,
                outcome.corpus.len(),
                outcome.coverage.len(),
                outcome.rejected,
            );
            if outcome.replayed > 0 {
                println!(
                    "resumed: {} of those results were replayed from the journal, not re-executed",
                    outcome.replayed
                );
            }
            if outcome.crashed > 0 || outcome.hung > 0 {
                println!(
                    "infrastructure: {} run(s) crashed (panic contained, coverage salvaged), {} cut short by a runaway-run watchdog",
                    outcome.crashed, outcome.hung
                );
            }
            for q in &outcome.quarantined {
                println!(
                    "QUARANTINED {} after {} attempt(s): {}",
                    q.schedule.id(),
                    q.attempts,
                    q.error
                );
            }
            for failure in &outcome.failures {
                println!(
                    "\nVIOLATION (shrunk from {} to {} fault(s)):\n{}",
                    failure.schedule.len(),
                    failure.shrunk.len(),
                    failure.repro.to_text()
                );
            }
        }
        if stats {
            println!();
            println!("resolved jobs: {jobs} worker thread(s)");
            let snap = &outcome.snapshots;
            if config.snapshots {
                println!(
                    "snapshots: {} hit(s), {} miss(es) ({:.1}% hit rate), {} stored, {} prefix event(s) skipped, {} replayed from the baseline",
                    snap.hits,
                    snap.misses,
                    snap.hit_rate() * 100.0,
                    snap.stored,
                    snap.events_skipped,
                    snap.replayed
                );
            } else {
                println!("snapshots: disabled (every world rebuilt from scratch)");
            }
            print!("{report}");
        }
        // Same exit-code contract as the grid.
        match outcome.exit_code() {
            0 => return,
            code => std::process::exit(code),
        }
    }

    let grid = grid(&spec, target.primary_site());
    println!(
        "grid: {} schedules for protocol {}\n",
        grid.len(),
        spec.name
    );

    if list_only {
        for schedule in &grid {
            // One site, one direction: the other script is empty.
            let [site] = &schedule.lower()[..] else {
                unreachable!("a grid row faults one site")
            };
            println!("## {}\n{}{}", schedule.id(), site.send, site.recv);
        }
        return;
    }

    // One store for the whole grid: the first row builds and captures the
    // base world, every later one forks it, as in every campaign.
    let mut store = SnapshotStore::default();
    let results = grid.iter().map(|schedule| {
        run_schedule_snapshotted(
            target.as_ref(),
            schedule,
            &RunLimits::default(),
            Some(&mut store),
        )
    });

    let mut pass = 0;
    let mut degraded = 0;
    let mut violated = 0;
    let mut infra = 0;
    for r in results {
        match &r.verdict {
            Verdict::Pass => pass += 1,
            Verdict::Degraded(_) => degraded += 1,
            Verdict::Violated(why) => {
                violated += 1;
                println!("VIOLATION {:<44} {}", r.schedule_id, why);
            }
            // Grid rows are generated against the target's own primary
            // site, so refusal can only mean a harness bug — infra class.
            Verdict::Invalid(why) => {
                infra += 1;
                println!("INVALID   {:<44} {}", r.schedule_id, why);
            }
            Verdict::Crashed(why) => {
                infra += 1;
                println!("CRASHED   {:<44} {}", r.schedule_id, why);
            }
            Verdict::Hung(why) => {
                infra += 1;
                println!("HUNG      {:<44} {}", r.schedule_id, why);
            }
        }
    }
    println!("\n{pass} pass, {degraded} degraded, {violated} violations, {infra} infrastructure");
    // Exit codes: violations are findings (1); crashes, hangs, and
    // uninstallable grid rows are harness trouble (3). A run with both
    // reports the findings — they are the result the campaign exists for.
    if violated > 0 {
        std::process::exit(1);
    }
    if infra > 0 {
        std::process::exit(3);
    }
}
