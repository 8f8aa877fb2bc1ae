//! The coverage-guided campaign engine, expressed as a fleet of epochs.
//!
//! Where [`crate::grid`] enumerates fixed one-fault schedules, [`explore`]
//! *searches*: starting from the fault-free baseline, it repeatedly picks
//! a corpus schedule, mutates it under a seeded RNG, runs the mutant
//! against a fresh target, and keeps it iff it reaches coverage no earlier
//! schedule reached. Violations are delta-debugged to 1-minimal fault sets and
//! rendered as replayable [`Repro`] artifacts.
//!
//! # Determinism across worker counts
//!
//! The search runs in **epochs** of [`ExploreConfig::epoch`] candidates:
//! the master generates the whole epoch serially (consuming the seeded RNG
//! against the epoch-start corpus), the candidates execute on a
//! [`pfi_fleet::Fleet`] (the master's own thread plus `jobs − 1` spawned
//! workers), and the
//! results merge back in canonical schedule-id order. Every run is a pure
//! function of its schedule, so corpus evolution, coverage, `executed`
//! counts, and repro artifact bytes are a function of
//! `(seed, budget, max_faults, epoch)` and **never** of the worker count.
//! With `epoch == 1` the engine *is* the classic sequential explorer —
//! generate one, run one, merge one — reproducing its digests exactly;
//! larger epochs trade a little search adaptivity for dispatch width.
//!
//! There is one engine, [`CampaignFleet`]: [`explore`] is a pool of one —
//! the calling thread, no thread spawned — and [`explore_fleet`] a pool of
//! `jobs` that lives for one campaign. So there is also one panic policy,
//! the fleet supervisor's ([`ExploreConfig::max_retries`]).
//!
//! Candidates cross the thread boundary as typed [`FaultSchedule`]s with
//! the scripts admission already lowered them to and the compiled form the
//! install check parsed — plain `Send` data, no text round-trip, nothing
//! lowered, install-checked or parsed twice. A candidate that cannot
//! install is refused there, at admission on the master, and never
//! reaches a worker.
//! With snapshot/fork execution on (the default), the campaign context
//! each candidate carries holds the captured base world, so workers *fork*
//! the prepared world instead of replaying `TestTarget::build` per run;
//! with it off, each worker builds its own worlds from the campaign's one
//! shared [`TestTarget`] — a read-only description, never re-made. Either
//! way the outcome bytes are identical — forking a snapshot continues
//! exactly the run a cold build would have produced.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pfi_core::Tally;
use pfi_fleet::{Fleet, FleetReport, DEFAULT_MAX_RETRIES};
use pfi_sim::fnv::{fnv64, Fnv};
use pfi_sim::{SimRng, World};

use crate::coverage::Coverage;
use crate::journal::{
    Journal, JournalCase, JournalCounters, JournalMeta, JournalQuarantine, JournalShrink,
    JournalWriter,
};
use crate::repro::Repro;
use crate::runner::{
    execute, run_schedule_snapshotted, Lowered, RunLimits, ScheduleRun, TestTarget, Verdict,
};
use crate::schedule::{FaultSchedule, ScheduleMutator};
use crate::shrink::shrink_schedule;
use crate::snapshot::{base_digest, BaseWorld, Parent, SnapshotStats, SnapshotStore};
use crate::spec::ProtocolSpec;

/// Exploration parameters.
///
/// Admission is one check: a candidate is lowered, install-checked
/// against the target, and refused before dispatch if it cannot install
/// (counted in [`ExploreOutcome::rejected`]). Every admitted candidate
/// executes. The execution-saving equivalences are dynamic, not static:
/// with [`snapshots`](ExploreConfig::snapshots) on, a mutant whose
/// changed faults cannot act on the traffic its parent's driven run
/// tallied is handed the parent's outcome instead of being driven, and a
/// candidate none of whose faults can act on the traffic the baseline run
/// tallied is handed the baseline's. Schedule analysis —
/// canonical forms, statically-inert faults, the semantic quotient — lives
/// on as lint and dedup keys ([`crate::FlowModel`]), never as a reason to
/// skip a run: a static rewrite that is wrong changes what a campaign
/// finds (DESIGN.md, "Schedule analysis (lint, not admission)").
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Seed for every mutation / corpus-selection decision.
    pub seed: u64,
    /// How many mutants to attempt (the run budget).
    pub budget: usize,
    /// Maximum faults per schedule.
    pub max_faults: usize,
    /// Mutation attempts per dispatch epoch — the determinism unit. One
    /// corpus parent is drawn per epoch and every candidate of the batch
    /// mutates it (batched corpus scheduling). Outcomes depend on it
    /// (corpus selection sees the epoch-start corpus) but never on the
    /// worker count executing the epoch. `1` reproduces the classic
    /// fully-sequential explorer byte-for-byte.
    pub epoch: usize,
    /// Schedules to execute before the budgeted search begins — a corpus
    /// pool carried over from earlier campaigns against the same target
    /// (the pfi-serve store shares coverage-novel schedules across
    /// campaigns on one target build). Seeds run through the ordinary
    /// dispatch/merge machinery (journaled, replayable) right
    /// after the baseline: coverage-novel ones join the corpus and steer
    /// parent selection from epoch one.
    /// They count toward `executed` but consume no mutation budget and no
    /// RNG draws. Identity: the journal records a digest of the seed ids,
    /// and resume must be handed the same seeds. Default empty.
    pub seed_corpus: Vec<FaultSchedule>,
    /// How many times a candidate whose execution *panics* (escaping the
    /// runner's own containment) is retried — with exponential virtual
    /// backoff, on whichever worker takes it next — before it is
    /// quarantined with `attempts == max_retries + 1` and its lineage
    /// dropped. One policy at every pool size, [`explore`]'s pool of one
    /// included: a deterministic panic quarantines the same schedule after
    /// the same number of attempts, so corpus, coverage and journal bytes
    /// stay worker-count-independent. Default [`DEFAULT_MAX_RETRIES`].
    pub max_retries: u32,
    /// Interpreter steps each filter evaluation may take, installed per run
    /// on every fault site's filter interpreters; a filter script that
    /// exhausts it on any one message is cut short and the run reports
    /// [`Verdict::Hung`]. `0` (the default) keeps the interpreter's own
    /// generous default fuel.
    pub step_budget: u64,
    /// Write-ahead journal path. When set, the campaign appends its
    /// journal — dispatch intent and every merged result — to this file as
    /// it runs, so an interrupted campaign can resume. The file is created
    /// if missing and never truncated: the journal starts where the file
    /// ends, and whoever owns the file decides whether it starts empty
    /// (`pfi-campaign --journal` empties it; pfi-serve appends every
    /// campaign to one store file). Journal I/O failure panics: a
    /// crash-safety journal that silently stopped recording would be worse
    /// than none.
    pub journal: Option<PathBuf>,
    /// Snapshot/fork execution: capture the prepared fault-free base world
    /// once and fork it per candidate instead of replaying
    /// `TestTarget::build` for every run. Outcomes — digest included — are
    /// byte-identical with snapshots on or off (the differential tests
    /// prove it), so this is deliberately **not** part of the journal
    /// identity: a journal recorded with snapshots off resumes fine with
    /// them on, and vice versa. Default `true`.
    pub snapshots: bool,
    /// A journal loaded from an interrupted run of the *same* campaign
    /// (the metadata is checked; a mismatch panics). Recorded results are
    /// replayed without re-execution; only unrecorded work runs. The
    /// resulting [`ExploreOutcome`] — digest included — is byte-identical
    /// to an uninterrupted run's, and the journal written alongside is
    /// byte-identical to an uninterrupted run's journal.
    pub resume: Option<Journal>,
    /// Counters the search raises as it records progress, for an observer
    /// on another thread (pfi-serve answers `status` from them). Strictly
    /// observational: outcomes, digests and journal bytes are identical
    /// with it present or absent, and nothing here is ever read back.
    /// Default `None`.
    pub progress: Option<Arc<LiveProgress>>,
}

/// What a running search has recorded so far, as [`ExploreConfig::progress`]
/// publishes it: one count per kind of journal record, whether or not a
/// journal is being written.
#[derive(Debug, Default)]
pub struct LiveProgress {
    /// Candidates dispatched (`dispatch` records), baseline included.
    pub dispatched: AtomicU64,
    /// Results merged (`case` records), baseline included.
    pub cases: AtomicU64,
    /// Distinct coverage edges merged so far.
    pub edges: AtomicU64,
}

impl LiveProgress {
    /// Raises each counter to at least the given value. The search passes
    /// its absolute tallies, so counters an observer pre-loaded from the
    /// journal being resumed hold still while the replayed prefix is
    /// re-recorded instead of counting it twice.
    pub fn raise(&self, dispatched: usize, cases: usize, edges: usize) {
        // Relaxed: statistics, publishing no other data.
        self.dispatched
            .fetch_max(dispatched as u64, Ordering::Relaxed);
        self.cases.fetch_max(cases as u64, Ordering::Relaxed);
        self.edges.fetch_max(edges as u64, Ordering::Relaxed);
    }
}

impl ExploreConfig {
    /// The per-run runaway-run watchdog budgets this config implies.
    pub fn limits(&self) -> RunLimits {
        RunLimits {
            step_budget: self.step_budget,
            ..RunLimits::default()
        }
    }

    /// The journal metadata identifying this campaign on `target`.
    pub fn journal_meta(&self, target: &dyn TestTarget) -> JournalMeta {
        JournalMeta {
            target: target.name().to_string(),
            world_seed: target.seed(),
            seed: self.seed,
            budget: self.budget,
            max_faults: self.max_faults,
            epoch: self.epoch,
            seed_corpus: seed_corpus_digest(&self.seed_corpus),
            step_budget: self.step_budget,
            max_retries: self.max_retries,
        }
    }
}

/// FNV-1a digest over the seed-corpus schedule ids (newline-separated);
/// `0` for an empty seed corpus. This is the `seed-corpus` identity line
/// of the campaign journal: two campaigns handed different seed schedules
/// are different campaigns.
pub fn seed_corpus_digest(seeds: &[FaultSchedule]) -> u64 {
    if seeds.is_empty() {
        return 0;
    }
    let mut h = Fnv::new();
    for s in seeds {
        h.write(s.id().as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// The default epoch width: wide enough to keep a handful of workers busy,
/// narrow enough that corpus feedback still steers the search.
pub const DEFAULT_EPOCH: usize = 16;

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seed: 0x7061_7065_7266_6975, // "paperfiu"
            budget: 48,
            max_faults: 3,
            epoch: DEFAULT_EPOCH,
            seed_corpus: Vec::new(),
            max_retries: DEFAULT_MAX_RETRIES,
            step_budget: 0,
            snapshots: true,
            journal: None,
            resume: None,
            progress: None,
        }
    }
}

/// One campaign-found, shrunk failure.
#[derive(Debug, Clone)]
pub struct FoundFailure {
    /// The schedule as the search first found it.
    pub schedule: FaultSchedule,
    /// Its 1-minimal shrunk form.
    pub shrunk: FaultSchedule,
    /// Name of the violated oracle.
    pub oracle: String,
    /// The violation message.
    pub message: String,
    /// The replayable artifact.
    pub repro: Repro,
}

/// Everything an exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Schedules that each reached new coverage, in discovery order
    /// (index 0 is the fault-free baseline).
    pub corpus: Vec<FaultSchedule>,
    /// The union of all reached coverage.
    pub coverage: Coverage,
    /// Shrunk failures, deduplicated by their minimal schedule.
    pub failures: Vec<FoundFailure>,
    /// How many schedules were settled: the baseline plus every admitted
    /// novel mutation (≤ budget + 1), plus the re-executions shrinking
    /// performs for each found failure and the confirmation run of each.
    /// A settled schedule was not necessarily driven: with snapshots on,
    /// one handed the baseline's outcome ([`SnapshotStats::replayed`]) or
    /// its parent's ([`SnapshotStats::inherited`]) counts here too, as
    /// does one replayed from a resume journal ([`replayed`](Self::replayed)).
    pub executed: usize,
    /// How many candidates admission refused as uninstallable — exactly
    /// the ones the runner would refuse at install time
    /// ([`crate::Verdict::Invalid`]). They never consume a worker and do
    /// not count toward `executed`.
    pub rejected: usize,
    /// How many of the `executed` results were replayed from a resume
    /// journal instead of re-executed. An uninterrupted campaign reports
    /// 0; a resumed one reports the work the interruption did not lose.
    pub replayed: usize,
    /// Runs whose target or oracle panicked mid-run ([`Verdict::Crashed`]).
    /// Their pre-crash coverage still fed the corpus.
    pub crashed: usize,
    /// Runs a runaway-run watchdog cut short ([`Verdict::Hung`]): event-cap
    /// exhaustion or a filter script burning out its step budget.
    pub hung: usize,
    /// Candidates the worker supervisor quarantined after exhausting panic
    /// retries. They produced no result at all — each entry is a dropped
    /// search lineage, reported loudly so a crashing target cannot leave a
    /// silent hole in the explored space.
    pub quarantined: Vec<JournalQuarantine>,
    /// Snapshot/fork statistics: the master store's counters plus every
    /// executed candidate's own counters. All zeros when
    /// [`ExploreConfig::snapshots`] is off. Statistics only — never part
    /// of the [`digest`](ExploreOutcome::digest), since replayed work
    /// legitimately skips the forks an uninterrupted run performs.
    pub snapshots: SnapshotStats,
}

impl ExploreOutcome {
    /// A stable digest of the whole outcome; two explorations are
    /// byte-identical iff their digests are equal.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        out.push_str("corpus:\n");
        for s in &self.corpus {
            out.push_str(&format!("  {}\n", s.id()));
        }
        out.push_str("coverage:\n");
        for e in self.coverage.edges() {
            out.push_str(&format!("  {e}\n"));
        }
        out.push_str("failures:\n");
        for f in &self.failures {
            out.push_str(&f.repro.to_text());
        }
        out
    }

    /// A short fixed-width form of [`digest`](ExploreOutcome::digest)
    /// (FNV-1a, hex) for golden files and CI comparisons.
    pub fn digest64(&self) -> String {
        format!("{:016x}", fnv64(self.digest().as_bytes()))
    }

    /// The campaign exit-code contract: a violation is a finding (1) and
    /// outranks infrastructure trouble — a crashed or hung run, or a
    /// quarantined candidate (3); a clean campaign is 0.
    pub fn exit_code(&self) -> i32 {
        if !self.failures.is_empty() {
            1
        } else if self.crashed > 0 || self.hung > 0 || !self.quarantined.is_empty() {
            3
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------
// Worker-side candidate execution
// ---------------------------------------------------------------------

/// One candidate past admission ([`Admission::admit`]): lowered and
/// install-checked once. It is the job a worker receives — which
/// therefore neither re-lowers nor re-validates the main run.
#[derive(Debug, Clone)]
struct CandidateJob {
    /// The candidate as the mutator produced it.
    schedule: FaultSchedule,
    /// Its id and lowered scripts; admission refused it unless its
    /// install errors are empty.
    lowered: Lowered,
    /// The corpus member it mutates, when that member can hand its
    /// outcome on ([`Parent::new`]) — one `Arc` shared by the epoch.
    parent: Option<Arc<Parent>>,
}

/// Everything one candidate execution produced. Computed entirely on the
/// worker that ran the candidate — a pure function of the schedule — so
/// the master can merge reports in canonical order without re-running
/// anything.
#[derive(Debug, Clone)]
struct CandidateReport {
    /// The candidate schedule (crosses the fleet boundary typed — no
    /// serialization round-trip).
    schedule: FaultSchedule,
    /// The run itself.
    run: ScheduleRun,
    /// Shrink results, when the run violated an oracle.
    shrink: Option<ShrinkReport>,
    /// Which worker ran it (statistics only; 0 is the calling thread).
    worker: usize,
    /// Snapshot counters of this candidate's run and shrink re-runs — a
    /// pure function of the candidate (each is counted from zero against
    /// the base it was dispatched with), so totals are independent of job
    /// scheduling and worker count.
    snapshots: SnapshotStats,
    /// Each fault site's tally of the run, when it was forked and driven:
    /// what the run's own mutants read if it joins the corpus.
    tally: Option<Vec<Tally>>,
}

#[derive(Debug, Clone)]
struct ShrinkReport {
    /// The violated oracle the shrink preserved.
    oracle: String,
    /// The 1-minimal schedule.
    shrunk: FaultSchedule,
    /// How many re-executions shrinking performed.
    runs: usize,
    /// The confirmed bare violation message, when this report was replayed
    /// from a journal (the original run already confirmed it on the
    /// master; replay must not re-execute). `None` on live runs — the
    /// master confirms as usual.
    message: Option<String>,
}

/// Runs one candidate: execute, and delta-debug to 1-minimal if it
/// violated an oracle. Shrinking re-runs against the *same* oracle: the
/// minimal schedule must reproduce this failure, not just any failure.
///
/// With snapshots on, the candidate goes through its own store, holding
/// the base it was dispatched with: it is settled without forking anything
/// when its epoch parent [hands on](Parent::inherits) its verdict and
/// oracle, or else the fault-free baseline, the root of the corpus, does
/// ([`SnapshotStore::settle`]) — with no coverage, since the campaign's
/// union already holds the one it would have. Only tallied runs hand on,
/// so this happens exactly when snapshots are on. Otherwise the main run
/// forks the campaign's base world instead of rebuilding, and every shrink
/// re-run is settled or forks it again (shrunk schedules share the same
/// base). Hits and misses are counted per candidate, from zero. `retired`
/// is the executing worker's own: the world its last run left behind,
/// which every run here restores into and the last one leaves there again.
fn candidate_report(
    ctx: &CampaignContext,
    job: CandidateJob,
    retired: &mut Option<World>,
) -> CandidateReport {
    let CandidateJob {
        schedule,
        lowered,
        parent,
    } = job;
    let (target, limits) = (ctx.target.as_ref(), &ctx.limits);
    let mut local = ctx.snapshots.then(|| SnapshotStore {
        key: Some(ctx.key),
        base: ctx.base.clone(),
        retired: retired.take(),
        candidates: true,
        ..SnapshotStore::default()
    });
    let parent = parent.as_deref();
    let (run, tally) = execute(
        target,
        Some(&schedule),
        lowered,
        limits,
        local.as_mut(),
        parent,
    );
    let shrink = match &run.verdict {
        Verdict::Violated(_) => {
            let oracle = run.oracle.clone().unwrap_or_else(|| "target".to_string());
            let mut runs = 0usize;
            let shrunk = shrink_schedule(&schedule, |s| {
                runs += 1;
                let rerun = run_schedule_snapshotted(target, s, limits, local.as_mut());
                rerun.verdict.is_violation() && rerun.oracle.as_deref() == Some(oracle.as_str())
            });
            Some(ShrinkReport {
                oracle,
                shrunk,
                runs,
                message: None,
            })
        }
        _ => None,
    };
    let snapshots = match local {
        Some(store) => {
            *retired = store.retired;
            store.stats
        }
        None => SnapshotStats::default(),
    };
    CandidateReport {
        schedule,
        run,
        shrink,
        worker: 0,
        snapshots,
        tally,
    }
}

/// Rebuilds a candidate report from a journaled case — the no-execution
/// path resume takes for work the interrupted run already finished.
fn replayed_report(world_seed: u64, case: JournalCase, job: CandidateJob) -> CandidateReport {
    let run = ScheduleRun {
        schedule_id: job.lowered.id,
        seed: world_seed,
        scripts: job.lowered.scripts,
        verdict: case.verdict,
        oracle: case.oracle.clone(),
        coverage: Coverage::from_edges(case.coverage),
    };
    let shrink = case.shrink.map(|s| ShrinkReport {
        oracle: case.oracle.unwrap_or_else(|| "target".to_string()),
        shrunk: s.shrunk,
        runs: s.runs,
        message: s.message,
    });
    CandidateReport {
        schedule: case.schedule,
        run,
        shrink,
        worker: 0,
        // Replayed work performed no runs at all — no forks to count,
        // nothing tallied.
        snapshots: SnapshotStats::default(),
        tally: None,
    }
}

// ---------------------------------------------------------------------
// Epoch execution
// ---------------------------------------------------------------------

/// What became of one dispatched candidate: its report (possibly of a
/// [`Verdict::Crashed`] run — contained panics still yield reports), or a
/// quarantine notice after execution itself panicked past containment
/// every time the supervisor tried it, so the candidate produced nothing.
type EpochResult = Result<CandidateReport, JournalQuarantine>;

/// Everything a fleet worker needs to execute one campaign's candidates —
/// attached to each dispatched job so the *same* long-lived worker pool
/// serves campaign after campaign (different targets, limits, and
/// snapshot settings) without respawning threads. The target is shared,
/// not re-made: it is read-only plain data, and the expensive part — the
/// world — is built inside the run, or forked from `base`.
struct CampaignContext {
    target: Arc<dyn TestTarget>,
    limits: RunLimits,
    snapshots: bool,
    /// The [`crate::base_digest`] of `target` under `limits`.
    key: u64,
    /// Snapshots on: the base world the master's baseline prepared, which
    /// workers settle against and fork instead of rebuilding (`None` when
    /// the target's world refuses capture — those runs build cold). World
    /// snapshots are `Send + Sync` plain data, so the `Arc` crosses the
    /// fleet boundary as it is.
    base: Option<Arc<BaseWorld>>,
}

/// One candidate paired with its campaign context, crossing the fleet's
/// thread boundary: typed [`FaultSchedule`]s out (plain data, `Send` — no
/// text round-trip), `Send` reports back.
#[derive(Clone)]
struct FleetJob {
    job: CandidateJob,
    ctx: Arc<CampaignContext>,
}

/// A long-lived campaign worker pool: one [`pfi_fleet::Fleet`] whose
/// workers outlive any single exploration, serving submitted campaigns
/// back to back — the execution tier under the pfi-serve daemon, and the
/// one engine under [`explore`] (a pool of one) and [`explore_fleet`].
/// Each campaign hands its own target and limits along with every
/// dispatched candidate, so consecutive campaigns may target different
/// protocols entirely. Outcomes are byte-identical at the same config for
/// any pool size and history. Across [`explore`](CampaignFleet::explore)
/// calls the pool carries warm threads, cumulative statistics and one
/// base world: the last one a campaign prepared or forked, with the
/// baseline's run, the root parent of a corpus. The next campaign on the
/// same target handle (`Arc::ptr_eq`) under equal [`RunLimits`] starts
/// from it instead of building the target and driving the baseline again:
/// its baseline is settled by that root, one replayed run, with no hit, no
/// miss and nothing stored.
pub struct CampaignFleet {
    fleet: Fleet<FleetJob, CandidateReport>,
    kept: Option<KeptBase>,
}

/// A base world outliving its campaign, with the target handle and limits
/// it was prepared under. Only that handle under equal limits forks it —
/// an equal target behind another handle prepares its own base — and a
/// handle held here cannot be freed and its address reused by another.
type KeptBase = (Arc<dyn TestTarget>, RunLimits, Arc<BaseWorld>);

impl CampaignFleet {
    /// Builds a pool of `jobs` workers (0 is clamped to 1): the calling
    /// thread — which must also be the one that calls
    /// [`explore`](CampaignFleet::explore) — plus `jobs − 1` spawned ones.
    pub fn new(jobs: usize) -> Self {
        let fleet = Fleet::new(jobs, |_worker| {
            // Runner state, on the worker's own thread for the pool's
            // life: the world its last snapshot-forked run retired. A
            // runner lost to a panic takes its world with it.
            let mut retired: Option<World> = None;
            Box::new(move |fj: FleetJob| candidate_report(&fj.ctx, fj.job, &mut retired))
        });
        CampaignFleet { fleet, kept: None }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.fleet.workers()
    }

    /// Runs one campaign on the pool. Byte-identical to [`explore`] /
    /// [`explore_fleet`] at the same config, for any pool size and any
    /// number of campaigns run before it.
    pub fn explore(
        &mut self,
        target: Arc<dyn TestTarget>,
        spec: &ProtocolSpec,
        config: &ExploreConfig,
    ) -> ExploreOutcome {
        self.fleet.set_max_retries(config.max_retries);
        explore_with(&mut self.fleet, &mut self.kept, target, spec, config)
    }

    /// Cumulative pool statistics since construction (non-consuming; the
    /// pool keeps running). Per-campaign accounting (`rejected`) lives on
    /// each campaign's [`ExploreOutcome`], not here.
    pub fn report(&self) -> FleetReport {
        self.fleet.report()
    }

    /// Stops the workers and returns the final cumulative statistics.
    pub fn shutdown(self) -> FleetReport {
        self.fleet.shutdown()
    }
}

// ---------------------------------------------------------------------
// The search loop
// ---------------------------------------------------------------------

/// Admission: the install check, and the count of what it refused.
struct Admission {
    /// The target's fault-site count (the install predicate's bound).
    sites: u32,
    rejected: usize,
}

impl Admission {
    /// One pass over one candidate: lower once, install-check once. An
    /// uninstallable candidate is refused here (`None`, counted in
    /// `rejected`) instead of reaching a worker, where the runner would
    /// refuse it with empty coverage. This happens *after* generation —
    /// the RNG and the `seen` set have already advanced — so refusing
    /// changes which runs execute, never what the campaign finds.
    fn admit(&mut self, id: String, schedule: FaultSchedule) -> Option<CandidateJob> {
        let lowered = Lowered::check(id, schedule.lower(), self.sites);
        if !lowered.install_errors.is_empty() {
            self.rejected += 1;
            return None;
        }
        Some(CandidateJob {
            schedule,
            lowered,
            parent: None,
        })
    }
}

/// Merges a run's coverage into the campaign's union; returns the edges it
/// added, in text order — what its journal record lists.
fn merge_coverage(union: &mut Coverage, run: &Coverage) -> Vec<String> {
    let mut added = Vec::new();
    union.merge_with(run, |edge| added.push(edge.to_string()));
    added.sort_unstable();
    added
}

/// Appends one merged result to the write-ahead journal (no-op without a
/// writer), its `cover` lines the edges it `added` to the union. `message`
/// is the confirmed bare violation message, present exactly when this
/// report first discovered its failure — its presence is what lets resume
/// skip the confirmation run.
fn journal_record(
    writer: Option<&mut JournalWriter>,
    report: &CandidateReport,
    added: &[String],
    message: Option<&str>,
) {
    let Some(w) = writer else { return };
    let shrink = report.shrink.as_ref().map(|s| JournalShrink {
        shrunk: s.shrunk.clone(),
        runs: s.runs,
        message: message.map(str::to_string),
    });
    let run = &report.run;
    w.live_case(
        &report.schedule,
        &run.verdict,
        run.oracle.as_deref(),
        added,
        shrink.as_ref(),
    )
    .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
}

/// The epoch-synchronous search. The calling thread is the master: it
/// handles everything that must stay serial — candidate generation (the
/// RNG), the baseline run, the final confirmation run of each unique
/// shrunk failure, and the write-ahead journal — and hands each epoch's
/// live candidates to `fleet`, whose supervisor retries a panicking one and
/// finally quarantines it instead of aborting the epoch. With snapshots
/// on, `kept` is the pool's base world: the master store starts from it
/// when it was prepared for this target handle under these limits, and
/// holds the base this campaign forked from when it ends.
fn explore_with(
    fleet: &mut Fleet<FleetJob, CandidateReport>,
    kept: &mut Option<KeptBase>,
    target: Arc<dyn TestTarget>,
    spec: &ProtocolSpec,
    config: &ExploreConfig,
) -> ExploreOutcome {
    assert!(config.epoch > 0, "epoch width must be at least 1");
    let master = target.as_ref();
    let limits = config.limits();
    let key = base_digest(master, &limits);
    let meta = config.journal_meta(master);
    let mut replay: BTreeMap<String, JournalCase> = match &config.resume {
        Some(journal) => {
            assert_eq!(
                journal.meta, meta,
                "resume journal was recorded for a different campaign"
            );
            journal.replay_map()
        }
        None => BTreeMap::new(),
    };
    let mut writer = config.journal.as_ref().map(|path| {
        let mut w = JournalWriter::append_to(path, &meta)
            .unwrap_or_else(|e| panic!("cannot open campaign journal: {e}"));
        // Worker count is recorded for the campaign record but kept out of
        // the identity `meta` — outcomes never depend on it, so resuming
        // under a different `--jobs` is legitimate.
        w.jobs(fleet.workers())
            .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
        // Snapshot/fork execution is likewise statistics, not identity:
        // outcomes are byte-identical with it on or off, so resume never
        // checks this line either.
        w.snapshots(config.snapshots)
            .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
        w
    });

    // A kept base settles the baseline below (or, when that base's own
    // baseline neither passed nor degraded, is forked for it) —
    // byte-identical to preparing it afresh.
    let mut master_store = config.snapshots.then(|| SnapshotStore {
        key: Some(key),
        base: kept
            .as_ref()
            .filter(|(handle, under, _)| Arc::ptr_eq(handle, &target) && *under == limits)
            .map(|(.., base)| Arc::clone(base)),
        ..SnapshotStore::default()
    });
    let mut snap_stats = SnapshotStats::default();

    let mut rng = SimRng::seed_from(config.seed);
    let mutator = ScheduleMutator::new(spec, master.node_count(), master.fault_sites());

    let mut replayed = 0usize;
    let mut crashed = 0usize;
    let mut hung = 0usize;
    let mut quarantined: Vec<JournalQuarantine> = Vec::new();

    let mut admission = Admission {
        sites: master.fault_sites(),
        rejected: 0,
    };

    // The baseline is the zeroth admitted candidate.
    let empty = FaultSchedule::empty();
    let baseline = admission
        .admit(empty.id(), empty)
        .expect("the fault-free baseline installs");
    if let Some(w) = writer.as_mut() {
        w.dispatch(&baseline.lowered.id)
            .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
    }
    // With snapshots on and no base yet, the baseline's run prepares the
    // base every live candidate forks, so it runs even when the journal
    // recorded its case — which is then what merges.
    let recorded = replay.remove(&baseline.lowered.id);
    let unprepared = master_store.as_ref().is_some_and(|s| s.base.is_none());
    let run = (recorded.is_none() || unprepared).then(|| {
        run_schedule_snapshotted(master, &baseline.schedule, &limits, master_store.as_mut())
    });
    let base_report = match recorded {
        Some(case) => {
            replayed += 1;
            replayed_report(master.seed(), case, baseline)
        }
        None => CandidateReport {
            run: run.expect("a baseline the journal did not record runs"),
            schedule: baseline.schedule,
            shrink: None,
            worker: 0,
            snapshots: SnapshotStats::default(),
            tally: None,
        },
    };
    // The union starts empty, so the baseline journals its whole set.
    let mut coverage = Coverage::new();
    let added = merge_coverage(&mut coverage, &base_report.run.coverage);
    journal_record(writer.as_mut(), &base_report, &added, None);
    if base_report.run.verdict.is_crashed() {
        crashed += 1;
    }
    if base_report.run.verdict.is_hung() {
        hung += 1;
    }
    // What every live candidate forks is fixed here (not a lookup: the
    // executing worker's own does the hit accounting), and it is what the
    // pool keeps for the next campaign.
    let base = master_store.as_ref().and_then(|store| store.base.clone());
    if let Some(base) = &base {
        *kept = Some((Arc::clone(&target), limits, Arc::clone(base)));
    }
    let ctx = Arc::new(CampaignContext {
        target: Arc::clone(&target),
        limits,
        snapshots: config.snapshots,
        key,
        base,
    });
    let mut corpus = vec![base_report.schedule];
    // Index for index with `corpus`: what each member hands its mutants.
    // The baseline hands on to every candidate through the base it forks
    // (`SnapshotStore::settle`), so its mutants have no other parent.
    let mut parents: Vec<Option<Arc<Parent>>> = vec![None];
    let mut executed = 1usize;
    // The `dispatch` and `case` records so far, for `config.progress`.
    let (mut dispatched, mut cases) = (1usize, 1usize);
    let publish = |dispatched, cases, edges| {
        if let Some(live) = &config.progress {
            live.raise(dispatched, cases, edges);
        }
    };
    publish(dispatched, cases, coverage.len());

    let mut seen = BTreeSet::new();
    seen.insert(corpus[0].id());
    let mut failures: Vec<FoundFailure> = Vec::new();
    let mut failure_keys = BTreeSet::new();
    let mut seeds_pending = !config.seed_corpus.is_empty();
    let mut attempted = 0usize;
    while seeds_pending || attempted < config.budget {
        // Each candidate with its id, rendered once.
        let mut batch: Vec<(String, FaultSchedule)> = Vec::new();
        let mut parent = None;
        if seeds_pending {
            // The seed corpus is the zeroth batch: schedules carried over
            // from earlier campaigns run through the ordinary dispatch
            // and merge machinery (journaled, replayable), so
            // coverage-novel ones steer parent selection from epoch one.
            // They consume no mutation budget and no RNG draws.
            seeds_pending = false;
            for s in &config.seed_corpus {
                let id = s.id();
                if !s.is_empty() && seen.insert(id.clone()) {
                    batch.push((id, s.clone()));
                }
            }
        } else {
            // Generate the epoch serially against the epoch-start corpus.
            // One parent is drawn per epoch and every candidate of the batch
            // mutates *it* (batched corpus scheduling). An epoch consumes up
            // to `epoch` mutation *attempts* (a mutant that re-derives an
            // already-seen schedule still consumes budget but is not
            // re-run), which at `epoch == 1` reproduces the classic
            // sequential explorer's RNG stream exactly: one parent draw per
            // attempt.
            let pick = rng.uniform_u64(0, corpus.len() as u64) as usize;
            parent = parents[pick].clone();
            let mut batch_attempts = 0usize;
            while attempted < config.budget && batch_attempts < config.epoch {
                batch_attempts += 1;
                attempted += 1;
                let candidate = mutator.mutate(&corpus[pick], config.max_faults, &mut rng);
                let id = candidate.id();
                if seen.insert(id.clone()) {
                    batch.push((id, candidate));
                }
            }
        }
        let batch: Vec<CandidateJob> = batch
            .into_iter()
            .filter_map(|(id, candidate)| admission.admit(id, candidate))
            .map(|job| CandidateJob {
                parent: parent.clone(),
                ..job
            })
            .collect();
        if batch.is_empty() {
            continue;
        }

        // Journal the epoch's dispatch intent before any of it executes —
        // replayed candidates included, so a resumed run's journal stays
        // byte-identical to an uninterrupted run's.
        if let Some(w) = writer.as_mut() {
            for candidate in &batch {
                w.dispatch(&candidate.lowered.id)
                    .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
            }
        }
        dispatched += batch.len();
        publish(dispatched, cases, coverage.len());

        // Split candidates the resume journal already settled from the
        // ones that must actually execute.
        let mut results: Vec<EpochResult> = Vec::new();
        let mut dispatch: Vec<FleetJob> = Vec::new();
        for job in batch {
            match replay.remove(&job.lowered.id) {
                Some(case) => {
                    replayed += 1;
                    results.push(Ok(replayed_report(master.seed(), case, job)));
                }
                None => {
                    let ctx = Arc::clone(&ctx);
                    dispatch.push(FleetJob { job, ctx });
                }
            }
        }
        // `run_epoch_checked` returns items in dispatch order (an empty
        // epoch is a no-op), so zipping recovers a quarantined job's
        // schedule without threading it through the failure path.
        let schedules: Vec<FaultSchedule> =
            dispatch.iter().map(|fj| fj.job.schedule.clone()).collect();
        let live = fleet.run_epoch_checked(dispatch).into_iter().zip(schedules);
        results.extend(live.map(|(item, schedule)| match item.result {
            Ok(mut report) => {
                report.worker = item.worker;
                Ok(report)
            }
            Err(failure) => Err(JournalQuarantine {
                schedule,
                attempts: failure.attempts,
                error: failure.error,
            }),
        }));
        // Execute anywhere, merge canonically: schedule-id order makes the
        // merge independent of completion order, worker count, and of how
        // the epoch split between replayed and live candidates.
        results.sort_by_cached_key(|result| match result {
            Ok(report) => report.run.schedule_id.clone(),
            Err(quarantine) => quarantine.schedule.id(),
        });

        for result in results {
            let mut report = match result {
                Ok(report) => report,
                Err(q) => {
                    // The supervisor gave up on this candidate: no result,
                    // no coverage, a dropped search lineage. Record it
                    // loudly (journal + outcome) instead of leaving a
                    // silent hole in the explored space.
                    if let Some(w) = writer.as_mut() {
                        w.quarantine(&q)
                            .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
                    }
                    quarantined.push(q);
                    continue;
                }
            };
            // Every path below journals exactly one `case` record.
            cases += 1;
            snap_stats.merge(&report.snapshots);
            executed += 1 + report.shrink.as_ref().map_or(0, |s| s.runs);
            if report.run.verdict.is_crashed() {
                crashed += 1;
            }
            if report.run.verdict.is_hung() {
                hung += 1;
            }
            let added = merge_coverage(&mut coverage, &report.run.coverage);
            if !added.is_empty() {
                corpus.push(report.schedule.clone());
                let run = &report.run;
                let parent = Parent::new(
                    &report.schedule,
                    report.tally.take(),
                    run.verdict.clone(),
                    run.oracle.clone(),
                );
                parents.push(parent.map(Arc::new));
                fleet.note_novel(report.worker);
            }
            let Some(shrink) = report.shrink.clone() else {
                journal_record(writer.as_mut(), &report, &added, None);
                continue;
            };
            if !failure_keys.insert((shrink.oracle.clone(), shrink.shrunk.id())) {
                // Same minimal failure already reported.
                journal_record(writer.as_mut(), &report, &added, None);
                continue;
            }
            let message = match &shrink.message {
                // Replayed first discovery: the interrupted run already
                // confirmed on its master and journaled the message. Count
                // the confirmation run it performed, don't repeat it.
                Some(m) => {
                    executed += 1;
                    m.clone()
                }
                // Confirm the shrunk schedule on the master and harvest
                // the violation message for the artifact.
                None => {
                    let final_run = run_schedule_snapshotted(
                        master,
                        &shrink.shrunk,
                        &limits,
                        master_store.as_mut(),
                    );
                    executed += 1;
                    match &final_run.verdict {
                        // The verdict text is "oracle-name: message"; the
                        // artifact keeps the oracle on its own line, so
                        // store the bare message.
                        Verdict::Violated(m) => m
                            .strip_prefix(&format!("{}: ", shrink.oracle))
                            .unwrap_or(m)
                            .to_string(),
                        other => unreachable!("shrunk schedule stopped failing: {other:?}"),
                    }
                }
            };
            journal_record(writer.as_mut(), &report, &added, Some(&message));
            failures.push(FoundFailure {
                schedule: report.schedule,
                shrunk: shrink.shrunk.clone(),
                oracle: shrink.oracle.clone(),
                message: message.clone(),
                repro: Repro {
                    target: master.name().to_string(),
                    seed: master.seed(),
                    oracle: shrink.oracle,
                    message,
                    schedule: shrink.shrunk,
                },
            });
        }
        // An epoch's results arrive together and merge in microseconds, so
        // once per epoch is as fine as an observer can tell apart.
        publish(dispatched, cases, coverage.len());
    }

    if let Some(w) = writer.as_mut() {
        // The counters line is non-identity (a resumed run reports its
        // own `replayed`), written last so `results`-style tooling can
        // read the final accounting without replaying the campaign.
        w.counters(&JournalCounters {
            executed,
            rejected: admission.rejected,
            replayed,
            crashed,
            hung,
        })
        .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
        w.complete()
            .unwrap_or_else(|e| panic!("cannot append to campaign journal: {e}"));
    }

    if let Some(store) = &master_store {
        snap_stats.merge(store.stats());
    }

    ExploreOutcome {
        corpus,
        coverage,
        failures,
        executed,
        rejected: admission.rejected,
        replayed,
        crashed,
        hung,
        quarantined,
        snapshots: snap_stats,
    }
}

/// Runs a coverage-guided exploration of `target` within `config.budget`
/// on a [`CampaignFleet`] of one: every candidate executes on the calling
/// thread and no thread is spawned. Byte-identical to [`explore_fleet`] at
/// the same config for any job count.
pub fn explore(
    target: &dyn TestTarget,
    spec: &ProtocolSpec,
    config: &ExploreConfig,
) -> ExploreOutcome {
    CampaignFleet::new(1).explore(target.share(), spec, config)
}

/// Runs the same exploration with candidate execution shared between the
/// calling thread and `jobs − 1` spawned workers, all reading the one
/// shared target; candidates travel as typed schedules. The outcome is
/// byte-identical to [`explore`] with the same config — worker count
/// affects only wall-clock time and the [`FleetReport`] statistics.
pub fn explore_fleet(
    target: Arc<dyn TestTarget>,
    spec: &ProtocolSpec,
    config: &ExploreConfig,
    jobs: usize,
) -> (ExploreOutcome, FleetReport) {
    let mut pool = CampaignFleet::new(jobs);
    let outcome = pool.explore(target, spec, config);
    let mut report = pool.shutdown();
    report.rejected = outcome.rejected as u64;
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(failures: usize, crashed: usize, hung: usize, quarantined: usize) -> ExploreOutcome {
        let failure = FoundFailure {
            schedule: FaultSchedule::empty(),
            shrunk: FaultSchedule::empty(),
            oracle: "agreement".into(),
            message: "two views".into(),
            repro: Repro {
                target: "gmp".into(),
                seed: 42,
                oracle: "agreement".into(),
                message: "two views".into(),
                schedule: FaultSchedule::empty(),
            },
        };
        let quarantine = JournalQuarantine {
            schedule: FaultSchedule::empty(),
            attempts: 3,
            error: "panicked".into(),
        };
        ExploreOutcome {
            corpus: vec![FaultSchedule::empty()],
            coverage: Coverage::default(),
            failures: vec![failure; failures],
            executed: 1,
            rejected: 0,
            replayed: 0,
            crashed,
            hung,
            quarantined: vec![quarantine; quarantined],
            snapshots: SnapshotStats::default(),
        }
    }

    /// A violation is the finding a campaign exists for: it outranks every
    /// kind of infrastructure trouble, and each of those alone is 3.
    #[test]
    fn exit_code_puts_violations_before_infrastructure_trouble() {
        assert_eq!(outcome(0, 0, 0, 0).exit_code(), 0);
        assert_eq!(outcome(1, 0, 0, 0).exit_code(), 1);
        assert_eq!(outcome(2, 1, 1, 1).exit_code(), 1);
        assert_eq!(outcome(0, 1, 0, 0).exit_code(), 3);
        assert_eq!(outcome(0, 0, 1, 0).exit_code(), 3);
        assert_eq!(outcome(0, 0, 0, 1).exit_code(), 3);
        assert_eq!(outcome(0, 2, 3, 4).exit_code(), 3);
    }
}
