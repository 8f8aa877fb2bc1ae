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

use std::path::PathBuf;
use std::sync::Arc;

use pfi_testgen::{
    explore_fleet, grid, run_schedule_snapshotted, ChaosOracleTarget, Flags, RunLimits,
    SnapshotStore, Takes, Verdict, CAMPAIGN_FLAGS, CAMPAIGN_HELP,
};

const HELP: &str = "pfi-campaign — script-driven fault-injection campaigns

USAGE:
    pfi-campaign [PROTOCOL] [FLAGS]

PROTOCOL (default gmp):
    gmp        group membership daemon cluster
    tcp        client/server TCP transfer
    tpc        two-phase commit transaction

";

const FLAGS_HELP: &str = "
FLAGS:
    --list            print each grid schedule and its filter script and exit
    --explore         coverage-guided schedule search instead of the fixed grid.
                      Without it, --jobs, --journal, --resume, --max-retries,
                      --stats, --digest and every campaign flag but --buggy
                      and --fault-secs exit 2: the grid does not read them
    --jobs N          (--explore only; the grid runs on the calling thread)
                      workers: the calling thread plus N-1 spawned ones, so
                      --jobs 1 spawns none; 0 or omitted auto-detects the
                      host's available parallelism. Any value yields
                      byte-identical campaign results (the resolved count is
                      printed, shown in --stats, and recorded in the journal)
    --journal PATH    write-ahead journal: record dispatch intent and every
                      result to PATH as the exploration runs (crash-safe)
    --resume PATH     replay the completed work recorded in PATH instead of
                      re-executing it; must be the same campaign (exit 2
                      naming the first journal line that differs otherwise).
                      Combine with --journal (same path is fine) to end up
                      with a journal byte-identical to an uninterrupted run's
    --max-retries N   panic retries before a candidate is quarantined and its
                      lineage dropped (any --jobs, 1 included; default 2)
    --inject-panic    add a sabotage oracle that panics whenever a run drops
                      a message — exercises crash containment (CI resilience)
    --stats           (--explore only) print the fleet execution report
                      (workers, exec/sec, queues, snapshot hits)
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
    2   usage error (unknown argument, missing or malformed value, a
        --resume journal of another campaign)
    3   infrastructure trouble only: crashed / hung / quarantined /
        uninstallable cases, but no violations
";

/// The flags besides [`CAMPAIGN_FLAGS`].
const FLAGS: [(&str, Takes); 12] = [
    ("--list", Takes::Nothing),
    ("--explore", Takes::Nothing),
    ("--stats", Takes::Nothing),
    ("--digest", Takes::Nothing),
    ("--inject-panic", Takes::Nothing),
    ("--jobs", Takes::Number),
    ("--max-retries", Takes::Number),
    ("--journal", Takes::Text),
    ("--resume", Takes::Text),
    // Retired no-ops, kept while bench/src/bin/pfi_bench/explore.rs (its
    // PLAINEST path and KNOWN DEFECT branch) passes them.
    ("--no-pruning", Takes::Nothing),
    ("--no-semantic", Takes::Nothing),
    ("--no-prefilter", Takes::Nothing),
];

/// The flags only an exploration reads.
const EXPLORE_ONLY: [&str; 12] = [
    "--seed",
    "--budget",
    "--max-faults",
    "--epoch",
    "--step-budget",
    "--no-snapshots",
    "--jobs",
    "--stats",
    "--digest",
    "--journal",
    "--resume",
    "--max-retries",
];

/// Exit 2, naming what was wrong with the command line.
fn usage(error: &str) -> ! {
    eprintln!("pfi-campaign: {error} (--help lists the flags)");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}{CAMPAIGN_HELP}{FLAGS_HELP}");
        return;
    }
    let table = [&CAMPAIGN_FLAGS[..], &FLAGS].concat();
    let flags = Flags::parse(&args, &table, 1).unwrap_or_else(|e| usage(&e));
    let params = flags.campaign().unwrap_or_else(|e| usage(&e));
    let proto = params.proto.as_str();
    let explore_mode = flags.has("--explore");
    let stats = flags.has("--stats");
    let digest = flags.has("--digest");
    if !explore_mode {
        // The grid runs each of its fixed rows once, on the calling thread,
        // under the default limits: there is no search to seed or budget,
        // no fleet to size or report on, and nothing journaled or digested.
        for flag in EXPLORE_ONLY {
            if flags.has(flag) {
                usage(&format!("{flag} needs --explore"));
            }
        }
    }

    let (spec, mut target) = params.target().unwrap_or_else(|e| usage(&e));
    if flags.has("--inject-panic") {
        target = Arc::new(ChaosOracleTarget { inner: target });
    }

    if explore_mode {
        // The resolved worker count is what gets printed, reported, and
        // journaled.
        let jobs = flags.jobs();
        let mut config = params.to_config();
        if let Some(retries) = flags.number("--max-retries") {
            config.max_retries = retries as u32;
        }
        config.journal = flags.text("--journal").map(PathBuf::from);
        if let Some(path) = flags.text("--resume") {
            let journal = pfi_testgen::Journal::load(path.as_ref())
                .unwrap_or_else(|e| usage(&format!("cannot resume from {path}: {e}")));
            let here = config.journal_meta(target.as_ref());
            if let Some((recorded, wanted)) = journal.meta.first_difference(&here) {
                usage(&format!(
                    "--resume {path} was recorded for a different campaign: \
                     it has `{recorded}` where this one has `{wanted}`"
                ));
            }
            config.resume = Some(journal);
        }
        // The engine appends to the journal file, and this run's journal is
        // the whole file: empty it, once `--resume` has been read (the two
        // may name one file).
        if let Some(path) = &config.journal {
            if let Err(e) = std::fs::File::create(path) {
                usage(&format!("cannot create journal {}: {e}", path.display()));
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
                    "snapshots: {} hit(s), {} miss(es) ({:.1}% hit rate), {} stored, {} prefix event(s) skipped, {} inherited from the parent, {} replayed from the baseline",
                    snap.hits,
                    snap.misses,
                    snap.hit_rate() * 100.0,
                    snap.stored,
                    snap.events_skipped,
                    snap.inherited,
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

    if flags.has("--list") {
        for schedule in &grid {
            // One site, one direction: the other script is empty.
            let [site] = &schedule.lower()[..] else {
                unreachable!("a grid row faults one site")
            };
            println!("## {}\n{}{}", schedule.id(), site.send, site.recv);
        }
        return;
    }

    // One store for the whole grid, as in every campaign: the first row's
    // miss makes the fault-free baseline prepare the base world, and every
    // row is then handed the baseline's outcome or forks that world.
    let mut store = SnapshotStore::default();
    let results = grid.iter().map(|schedule| {
        run_schedule_snapshotted(
            target.as_ref(),
            schedule,
            &RunLimits::default(),
            Some(&mut store),
        )
    });

    let (mut pass, mut degraded, mut violated, mut infra) = (0, 0, 0, 0);
    for r in results {
        // Grid rows are generated against the target's own primary site,
        // so refusal can only mean a harness bug — infra class.
        let (count, row) = match &r.verdict {
            Verdict::Pass => (&mut pass, None),
            Verdict::Degraded(_) => (&mut degraded, None),
            Verdict::Violated(why) => (&mut violated, Some(("VIOLATION", why))),
            Verdict::Invalid(why) => (&mut infra, Some(("INVALID", why))),
            Verdict::Crashed(why) => (&mut infra, Some(("CRASHED", why))),
            Verdict::Hung(why) => (&mut infra, Some(("HUNG", why))),
        };
        *count += 1;
        if let Some((label, why)) = row {
            println!("{label:<9} {:<44} {why}", r.schedule_id);
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
