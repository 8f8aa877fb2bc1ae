//! Crash-safety end-to-end: the write-ahead journal's kill/resume
//! contract, panic containment, and the runaway-run watchdogs.
//!
//! The campaign engine's durability promise has three parts, each pinned
//! here: (1) a campaign killed mid-epoch and resumed from its torn journal
//! reproduces the uninterrupted run byte-for-byte — digest, executed
//! counts, and the journal it writes — without re-executing any completed
//! case; (2) a panicking oracle is contained per-run (`Verdict::Crashed`),
//! its pre-crash coverage salvaged, so sabotage cannot abort the campaign
//! *or* skew its search; (3) a filter script that burns out its step
//! budget escalates to `Verdict::Hung` instead of wedging a worker; (4) a
//! panic *past* the runner's containment meets one supervisor at every
//! pool size, `explore`'s pool of one included: retried, then quarantined
//! with the same attempt count, digest and journal bytes.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pfi_core::PfiEvent;
use pfi_sim::{NodeId, TraceLog, World};
use pfi_testgen::{
    explore, explore_fleet, ChaosOracleTarget, ExploreConfig, ExploreOutcome, FlowModel, GmpTarget,
    Journal, LiveProgress, Oracle, ProtocolSpec, RunLimits, TestTarget, Verdict,
};

/// The seed the acceptance criteria pin: resumed digest == uninterrupted
/// digest at seed 42.
const SEED: u64 = 42;

fn config() -> ExploreConfig {
    ExploreConfig {
        seed: SEED,
        budget: 24,
        max_faults: 3,
        epoch: 8,
        ..ExploreConfig::default()
    }
}

/// A journal path holding no file: the engine appends to what it finds.
fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("pfi_resilience_{}_{name}", std::process::id()));
    fs::remove_file(&path).ok();
    path
}

/// Journal equality modulo the `counters` line. Counters are non-identity
/// by design — a resumed run truthfully reports `replayed > 0` where the
/// uninterrupted run reports 0 — so byte-identity is demanded for every
/// line *except* `counters `, and the counters themselves are compared
/// field-by-field with `replayed` exempted.
fn assert_journals_equivalent(resumed_text: &str, full_text: &str) {
    let strip = |text: &str| -> String {
        text.lines()
            .filter(|l| !l.starts_with("counters "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(
        strip(resumed_text),
        strip(full_text),
        "journals must be byte-identical outside the non-identity counters line"
    );
    let resumed = Journal::from_text(resumed_text).unwrap().counters.unwrap();
    let full = Journal::from_text(full_text).unwrap().counters.unwrap();
    assert_eq!(resumed.executed, full.executed);
    assert_eq!(resumed.rejected, full.rejected);
    assert_eq!(resumed.crashed, full.crashed);
    assert_eq!(resumed.hung, full.hung);
}

/// The tentpole acceptance test: write a journal while exploring, simulate
/// a SIGKILL by tearing that journal mid-record at 50%, resume from the
/// torn journal, and demand the resumed campaign is indistinguishable from
/// the uninterrupted one — same digest, same executed count, zero
/// completed cases re-executed, and a byte-identical journal on disk.
#[test]
fn killed_campaign_resumes_to_identical_digest_and_journal() {
    let target = GmpTarget::default();
    let spec = ProtocolSpec::gmp();

    let full_path = tmp("full.journal");
    let mut cfg = config();
    cfg.journal = Some(full_path.clone());
    let uninterrupted = explore(&target, &spec, &cfg);
    assert_eq!(uninterrupted.replayed, 0);
    let full_bytes = fs::read_to_string(&full_path).unwrap();
    assert!(
        full_bytes.ends_with("complete\n"),
        "an uninterrupted journal must carry the completion terminator"
    );

    // A process kill tears the journal at an arbitrary byte; cutting at
    // 50% lands mid-record, which the loader must tolerate by dropping
    // only the partial trailing block.
    let cut = full_bytes.len() / 2;
    let torn = Journal::from_text(&full_bytes[..cut]).unwrap();
    assert!(!torn.complete, "a torn journal must not read as complete");
    let survivors = torn.cases.len();
    assert!(
        survivors > 0,
        "the 50% cut must leave completed work worth resuming"
    );

    // The resumed run is also watched through `progress`, pre-loaded with
    // what the torn journal holds the way pfi-serve does on a restart;
    // the uninterrupted run above was not, so the equalities below also
    // show the counters change neither the digest nor a journal byte.
    let progress = Arc::new(LiveProgress::default());
    progress.raise(torn.dispatched.len(), survivors, 0);
    let resumed_path = tmp("resumed.journal");
    let mut cfg = config();
    cfg.journal = Some(resumed_path.clone());
    cfg.resume = Some(torn.clone());
    cfg.progress = Some(Arc::clone(&progress));
    let resumed = explore(&target, &spec, &cfg);

    // Absolute tallies: the replayed prefix is not counted a second time.
    let full = Journal::from_text(&full_bytes).unwrap();
    let counted = |c: &AtomicU64| c.load(Ordering::Relaxed) as usize;
    assert_eq!(counted(&progress.dispatched), full.dispatched.len());
    assert_eq!(counted(&progress.cases), full.cases.len());
    assert_eq!(counted(&progress.edges), resumed.coverage.len());

    assert_eq!(resumed.digest(), uninterrupted.digest());
    assert_eq!(resumed.executed, uninterrupted.executed);
    assert_eq!(
        resumed.replayed, survivors,
        "every journaled case must be replayed, never re-executed"
    );
    let resumed_bytes = fs::read_to_string(&resumed_path).unwrap();
    assert_journals_equivalent(&resumed_bytes, &full_bytes);

    // The same resume fanned out across fleet workers merges to the same
    // outcome: replay happens on the master, before dispatch.
    let mut cfg = config();
    cfg.resume = Some(torn);
    let (fleet_resumed, _) = explore_fleet(Arc::new(GmpTarget::default()), &spec, &cfg, 2);
    assert_eq!(fleet_resumed.digest(), uninterrupted.digest());
    assert_eq!(fleet_resumed.replayed, survivors);

    fs::remove_file(&full_path).ok();
    fs::remove_file(&resumed_path).ok();
}

/// A journal written while the engine had prune tiers: their two switches
/// in the header, their two counters in the counters line.
fn prune_tier_era(text: &str, pruning: bool, semantic: bool) -> String {
    text.replace(
        "prefilter true\n",
        &format!("prefilter true\npruning {pruning}\nsemantic {semantic}\n"),
    )
    .replace(" replayed=", " pruned=0 inert=0 replayed=")
}

/// Journals from before the prune tiers were retired resume into today's
/// engine: one torn mid-campaign with pruning on — the candidates a tier
/// skipped never reached it, so they simply run now — and one complete
/// with pruning off. Either way the resumed campaign is the uninterrupted
/// one, digest and journal bytes.
#[test]
fn a_journal_from_the_prune_tier_era_resumes_to_the_same_campaign() {
    let target = GmpTarget::default();
    let spec = ProtocolSpec::gmp();
    let full_path = tmp("era_full.journal");
    let mut cfg = config();
    cfg.journal = Some(full_path.clone());
    let uninterrupted = explore(&target, &spec, &cfg);
    let full_bytes = fs::read_to_string(&full_path).unwrap();

    // Pruning on: every third non-violating case never ran, and the
    // process died 60% of the way through what it did write.
    let mut pruned = Journal::from_text(&full_bytes).unwrap();
    let skipped: Vec<String> = pruned.cases[1..]
        .iter()
        .filter(|c| !c.verdict.is_violation())
        .step_by(3)
        .map(|c| c.schedule.id())
        .collect();
    assert!(!skipped.is_empty());
    pruned.cases.retain(|c| !skipped.contains(&c.schedule.id()));
    pruned.dispatched.retain(|id| !skipped.contains(id));
    pruned.counters = None;
    pruned.complete = false;
    let pruned_text = prune_tier_era(&pruned.to_text(), true, true);
    let torn = &pruned_text[..pruned_text.len() * 3 / 5];

    // Pruning off: the whole campaign, as the parent wrote it.
    let complete_text = prune_tier_era(&full_bytes, false, true);
    assert!(complete_text.contains("pruning false\n") && complete_text.contains(" inert=0 "));

    let cases = [
        ("torn, pruning on", torn),
        ("complete, pruning off", complete_text.as_str()),
    ];
    for (what, old) in cases {
        let journal = Journal::from_text(old).unwrap();
        if journal.complete {
            assert_eq!(journal.reconstruct().digest(), uninterrupted.digest());
        }
        let resumed_path = tmp("era_resumed.journal");
        let mut cfg = config();
        cfg.journal = Some(resumed_path.clone());
        cfg.resume = Some(journal);
        let resumed = explore(&target, &spec, &cfg);
        assert_eq!(resumed.digest(), uninterrupted.digest(), "{what}");
        assert!(resumed.replayed > 0, "{what}");
        let resumed_bytes = fs::read_to_string(&resumed_path).unwrap();
        assert_journals_equivalent(&resumed_bytes, &full_bytes);
        fs::remove_file(&resumed_path).ok();
    }
    fs::remove_file(&full_path).ok();
}

/// A journal the engine wrote with the retired `--no-prefilter` (`pfi-
/// campaign gmp --explore --seed 42 --budget 24 --epoch 8 --jobs 1
/// --no-prefilter --journal …`, torn mid-record in its second epoch): its
/// header says `prefilter false`, and uninstallable candidates were
/// dispatched and recorded with an `invalid` verdict. Admission now refuses
/// those before dispatch, so their records are never looked up, and the
/// resumed campaign is the default one, digest and journal bytes.
#[test]
fn a_torn_no_prefilter_journal_resumes_to_the_default_campaign() {
    let target = GmpTarget::default();
    let spec = ProtocolSpec::gmp();
    let full_path = tmp("nopf_full.journal");
    let mut cfg = config();
    cfg.journal = Some(full_path.clone());
    let uninterrupted = explore(&target, &spec, &cfg);
    let full_bytes = fs::read_to_string(&full_path).unwrap();

    let old = include_str!("fixtures/journal_no_prefilter_torn.txt");
    assert!(old.contains("\nprefilter false\n") && old.contains("\nverdict invalid "));
    let journal = Journal::from_text(old).unwrap();
    assert!(!journal.complete);
    assert!(journal.cases.iter().any(|c| c.verdict.is_invalid()));

    let resumed_path = tmp("nopf_resumed.journal");
    let mut cfg = config();
    cfg.journal = Some(resumed_path.clone());
    cfg.resume = Some(journal);
    let resumed = explore(&target, &spec, &cfg);
    assert_eq!(resumed.digest(), uninterrupted.digest());
    assert_eq!(resumed.executed, uninterrupted.executed);
    assert_eq!(resumed.rejected, uninterrupted.rejected);
    assert!(resumed.replayed > 0);
    let resumed_bytes = fs::read_to_string(&resumed_path).unwrap();
    assert_journals_equivalent(&resumed_bytes, &full_bytes);
    fs::remove_file(&resumed_path).ok();
    fs::remove_file(&full_path).ok();
}

/// Crash containment is not just survival — it must not skew the search.
/// An oracle that panics whenever a run drops a message turns verdicts
/// into `Crashed`, but coverage is salvaged from the pre-crash trace and
/// violations are judged before the saboteur runs, so corpus evolution,
/// coverage, and repro artifacts are byte-identical to the unsabotaged
/// campaign. No quarantine, no lost lineage, no silent corpus hole.
#[test]
fn panicking_oracle_cannot_abort_or_skew_the_campaign() {
    let spec = ProtocolSpec::gmp();
    let cfg = config();
    let plain = explore(&GmpTarget::default(), &spec, &cfg);
    let chaos = explore(
        &ChaosOracleTarget {
            inner: Arc::new(GmpTarget::default()),
        },
        &spec,
        &cfg,
    );
    assert!(
        chaos.crashed > 0,
        "seed {SEED} must produce at least one dropping schedule for the saboteur"
    );
    assert_eq!(plain.crashed, 0);
    assert_eq!(
        chaos.digest(),
        plain.digest(),
        "contained crashes must salvage coverage: the sabotaged campaign \
         explores exactly the same space"
    );
    assert_eq!(chaos.executed, plain.executed);
    assert!(chaos.quarantined.is_empty());
}

/// The same sabotage across a worker fleet: every crash is contained on
/// its worker, counters surface in the fleet report, and the merged
/// outcome still matches the inline one.
#[test]
fn fleet_contains_crashes_identically() {
    let spec = ProtocolSpec::gmp();
    let cfg = config();
    let inline = explore(
        &ChaosOracleTarget {
            inner: Arc::new(GmpTarget::default()),
        },
        &spec,
        &cfg,
    );
    let (fleet, _report) = explore_fleet(
        Arc::new(ChaosOracleTarget {
            inner: Arc::new(GmpTarget::default()),
        }),
        &spec,
        &cfg,
        3,
    );
    assert_eq!(fleet.digest(), inline.digest());
    assert_eq!(fleet.crashed, inline.crashed);
    assert_eq!(fleet.executed, inline.executed);
}

/// A starvation-level interpreter step budget makes every filter script
/// burn out, and the watchdog escalates those runs to `Hung` — the
/// campaign still runs to completion instead of wedging.
#[test]
fn step_budget_watchdog_escalates_instead_of_wedging() {
    let spec = ProtocolSpec::gmp();
    let mut cfg = config();
    cfg.budget = 16;
    cfg.step_budget = 1;
    let outcome = explore(&GmpTarget::default(), &spec, &cfg);
    assert!(
        outcome.hung > 0,
        "a 1-step budget must starve at least one filter script"
    );
    assert!(!outcome.corpus.is_empty());
    assert!(outcome.quarantined.is_empty());
}

/// Hung and Crashed verdicts round-trip through the journal: a campaign
/// with watchdog escalations resumes to the same digest and journal bytes
/// like any other.
#[test]
fn resume_replays_watchdog_verdicts_too() {
    let spec = ProtocolSpec::gmp();
    let full_path = tmp("hung_full.journal");
    let mut cfg = config();
    cfg.budget = 16;
    cfg.step_budget = 1;
    cfg.journal = Some(full_path.clone());
    let target = ChaosOracleTarget {
        inner: Arc::new(GmpTarget::default()),
    };
    let uninterrupted = explore(&target, &spec, &cfg);
    let full_bytes = fs::read_to_string(&full_path).unwrap();

    let torn = Journal::from_text(&full_bytes[..full_bytes.len() / 2]).unwrap();
    let survivors = torn.cases.len();
    assert!(survivors > 0);

    let resumed_path = tmp("hung_resumed.journal");
    cfg.journal = Some(resumed_path.clone());
    cfg.resume = Some(torn);
    let resumed = explore(&target, &spec, &cfg);

    assert_eq!(resumed.digest(), uninterrupted.digest());
    assert_eq!(resumed.hung, uninterrupted.hung);
    assert_eq!(resumed.crashed, uninterrupted.crashed);
    assert_eq!(resumed.replayed, survivors);
    assert_journals_equivalent(&fs::read_to_string(&resumed_path).unwrap(), &full_bytes);

    fs::remove_file(&full_path).ok();
    fs::remove_file(&resumed_path).ok();
}

/// GMP judged by one extra oracle whose violation message spans lines, as
/// a message built from a multi-line `Debug` or a panic payload does.
#[derive(Clone)]
struct MultiLineMessages(GmpTarget);

struct MultiLineOracle;

impl Oracle for MultiLineOracle {
    fn name(&self) -> &'static str {
        "multi-line"
    }
    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        let drops = trace
            .iter_of::<PfiEvent>()
            .filter(|(_, _, e)| matches!(e, PfiEvent::Dropped { .. }))
            .count();
        match drops {
            0 => Ok(()),
            n => Err(format!("saw {n} dropped message(s):\nfirst\r\nsecond")),
        }
    }
}

impl TestTarget for MultiLineMessages {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn seed(&self) -> u64 {
        self.0.seed()
    }
    fn node_count(&self) -> u32 {
        self.0.node_count()
    }
    fn fault_sites(&self) -> u32 {
        self.0.fault_sites()
    }
    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        self.0.build()
    }
    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        self.0.drive(world, limits)
    }
    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        let mut oracles = self.0.oracles();
        oracles.push(Box::new(MultiLineOracle));
        oracles
    }
    fn verdict(&self, world: &mut World) -> Verdict {
        self.0.verdict(world)
    }
    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }
}

/// A violation message that spans lines reads the same live and rebuilt
/// from the journal, which is how `pfi-serve` answers `results` after a
/// restart: the same digest and the same repro bytes.
#[test]
fn a_multi_line_violation_message_reads_the_same_from_the_journal() {
    let path = tmp("multi_line.journal");
    let cfg = ExploreConfig {
        journal: Some(path.clone()),
        ..config()
    };
    let live = explore(&MultiLineMessages(short_gmp()), &ProtocolSpec::gmp(), &cfg);
    assert!(
        live.failures.iter().any(|f| f.message.contains('\n')),
        "the multi-line oracle must fire"
    );
    let rebuilt = Journal::load(&path).unwrap().reconstruct();
    fs::remove_file(&path).ok();
    assert_eq!(rebuilt.digest(), live.digest());
    let repros = |o: &ExploreOutcome| -> Vec<String> {
        o.failures.iter().map(|f| f.repro.to_text()).collect()
    };
    assert_eq!(repros(&rebuilt), repros(&live));
}

/// Resuming under a journal recorded for a different campaign must refuse
/// loudly, not silently replay the wrong results.
#[test]
#[should_panic(expected = "different campaign")]
fn resume_refuses_a_mismatched_journal() {
    let spec = ProtocolSpec::gmp();
    let full_path = tmp("mismatch.journal");
    let mut cfg = config();
    cfg.journal = Some(full_path.clone());
    explore(&GmpTarget::default(), &spec, &cfg);
    let journal = Journal::load(&full_path).unwrap();
    fs::remove_file(&full_path).ok();

    let mut other = config();
    other.seed = SEED + 1; // not the campaign the journal records
    other.journal = None;
    other.resume = Some(journal);
    explore(&GmpTarget::default(), &spec, &other);
}

/// The GMP target with two ways to panic *past* the runner's containment
/// (`build` and filter installation run outside its guards) — the panics
/// the fleet supervisor exists for.
#[derive(Clone)]
struct Sabotaged {
    inner: GmpTarget,
    /// `build` calls so far, counted across every handle on this target.
    builds: Arc<AtomicUsize>,
    /// Panic in this `build` call (1-based), once.
    panic_on_build: Option<usize>,
    /// Build one fault site fewer than `fault_sites` promises: installing
    /// a schedule that touches the last site panics, on every attempt.
    hide_last_site: bool,
}

impl Sabotaged {
    fn new(panic_on_build: Option<usize>, hide_last_site: bool) -> Self {
        Sabotaged {
            inner: short_gmp(),
            builds: Arc::default(),
            panic_on_build,
            hide_last_site,
        }
    }
}

/// A 5 s fault window keeps the cold builds these tests force cheap.
fn short_gmp() -> GmpTarget {
    GmpTarget {
        fault_secs: 5,
        ..GmpTarget::default()
    }
}

impl TestTarget for Sabotaged {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn seed(&self) -> u64 {
        self.inner.seed()
    }
    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }
    fn fault_sites(&self) -> u32 {
        self.inner.fault_sites()
    }
    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        let call = self.builds.fetch_add(1, Ordering::SeqCst) + 1;
        if self.panic_on_build == Some(call) {
            panic!("sabotaged build #{call}");
        }
        let (world, mut sites) = self.inner.build();
        if self.hide_last_site {
            sites.pop();
        }
        (world, sites)
    }
    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        self.inner.drive(world, limits)
    }
    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        self.inner.oracles()
    }
    fn verdict(&self, world: &mut World) -> Verdict {
        self.inner.verdict(world)
    }
    fn flow_model(&self) -> Option<FlowModel> {
        self.inner.flow_model()
    }
    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }
}

/// Runs one campaign through each entry point — `explore`, then
/// `explore_fleet` at 1 and 2 workers — handing each a fresh target from
/// `make`. Returns `(outcome, journal text without its `jobs N` line,
/// supervisor retries)` per engine; `explore` returns no fleet report, so
/// its retry count is `None`.
fn through_every_engine(
    tag: &str,
    make: impl Fn() -> Arc<dyn TestTarget>,
) -> Vec<(ExploreOutcome, String, Option<u64>)> {
    let spec = ProtocolSpec::gmp();
    let path = tmp(tag);
    // Cold builds (so every candidate calls `build`) and one retry.
    let cfg = ExploreConfig {
        snapshots: false,
        max_retries: 1,
        journal: Some(path.clone()),
        ..config()
    };
    let journal = || -> String {
        let text = fs::read_to_string(&path).unwrap();
        let _ = fs::remove_file(&path);
        text.lines()
            .filter(|l| !l.starts_with("jobs "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let mut runs = Vec::new();
    let outcome = explore(make().as_ref(), &spec, &cfg);
    runs.push((outcome, journal(), None));
    for jobs in [1, 2] {
        let (outcome, report) = explore_fleet(make(), &spec, &cfg, jobs);
        runs.push((outcome, journal(), Some(report.retries)));
    }
    runs
}

/// A transient panic past containment — the fifth `build` of the campaign
/// dies, once — is retried by the supervisor and leaves no trace: digest
/// and journal equal the unsabotaged campaign's, through `explore` as
/// through a fleet of two.
#[test]
fn a_transient_build_panic_is_retried_and_leaves_no_trace() {
    let clean = through_every_engine("clean.journal", || Arc::new(short_gmp()));
    let builds = std::cell::RefCell::new(Vec::new());
    let flaky = through_every_engine("flaky.journal", || {
        let target = Sabotaged::new(Some(5), false);
        builds.borrow_mut().push(Arc::clone(&target.builds));
        Arc::new(target)
    });
    for (((clean, clean_journal, _), (flaky, journal, retries)), builds) in
        clean.iter().zip(&flaky).zip(builds.take())
    {
        assert_eq!(flaky.digest(), clean.digest());
        assert_eq!(flaky.executed, clean.executed);
        assert!(flaky.quarantined.is_empty());
        assert_eq!(journal, clean_journal);
        // Cold builds: one per executed run, plus the one that died.
        assert_eq!(builds.load(Ordering::SeqCst), clean.executed + 1);
        if let Some(retries) = retries {
            assert_eq!(*retries, 1);
        }
    }
}

/// A persistent one — every schedule touching the hidden site panics at
/// install, every time — is quarantined after `max_retries + 1` attempts,
/// and outcome, digest and journal bytes are the same through `explore`,
/// `explore_fleet(…, 1)` and `explore_fleet(…, 2)`: one engine, one panic
/// policy, whatever the pool size.
#[test]
fn a_persistent_install_panic_quarantines_identically_at_every_pool_size() {
    let runs = through_every_engine("quarantine.journal", || {
        Arc::new(Sabotaged::new(None, true))
    });
    let (reference, reference_journal, _) = &runs[0];
    assert!(
        !reference.quarantined.is_empty(),
        "seed {SEED} must mutate a fault onto the hidden site"
    );
    for q in &reference.quarantined {
        assert_eq!(q.attempts, 2, "max_retries 1: the dispatch plus one retry");
        assert!(q.error.contains("has only 2"), "{}", q.error);
    }
    assert!(reference_journal.contains("\nattempts 2\n"));
    for (outcome, journal, retries) in &runs {
        assert_eq!(outcome.digest(), reference.digest());
        assert_eq!(outcome.quarantined, reference.quarantined);
        assert_eq!(outcome.executed, reference.executed);
        assert_eq!(journal, reference_journal);
        if let Some(retries) = retries {
            assert_eq!(*retries, reference.quarantined.len() as u64);
        }
    }
}
