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
//! budget escalates to `Verdict::Hung` instead of wedging a worker.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pfi_testgen::{
    explore, explore_fleet, ChaosOracleTarget, ExploreConfig, GmpTarget, Journal, LiveProgress,
    ProtocolSpec,
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
        prefilter: true,
        ..ExploreConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pfi_resilience_{}_{name}", std::process::id()))
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
    assert_eq!(resumed.pruned, full.pruned);
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
            inner: GmpTarget::default(),
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
            inner: GmpTarget::default(),
        },
        &spec,
        &cfg,
    );
    let (fleet, _report) = explore_fleet(
        Arc::new(ChaosOracleTarget {
            inner: GmpTarget::default(),
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
        inner: GmpTarget::default(),
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
