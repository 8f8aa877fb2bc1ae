//! Property-based tests for the campaign engine's pure parts: the
//! delta-debugging shrinker, the schedule text codec, the mutator, and the
//! two places a result is remembered — coverage keys and the flow model's
//! memo — against the same answer computed from scratch.

use pfi_core::Direction;
use pfi_script::Script;
use pfi_sim::SimRng;
use pfi_testgen::{
    schedule_is_installable, shrink_schedule, FaultOp, FaultSchedule, Journal, JournalCase,
    JournalMeta, JournalQuarantine, JournalShrink, ProtocolSpec, ScheduleMutator, ScheduledFault,
    Verdict,
};
use proptest::prelude::*;

const MSGS: [&str; 4] = ["HEARTBEAT", "COMMIT", "PROCLAIM", "ACK"];

/// Builds one fault from small generated integers (a poor man's strategy —
/// the shim has no `prop_oneof` over heterogeneous structs).
fn fault(site: u32, dir_bit: bool, kind: u8, msg_ix: usize, param: u32) -> ScheduledFault {
    let msg_type = MSGS[msg_ix % MSGS.len()].to_string();
    let op = match kind % 6 {
        0 => FaultOp::DropAll { msg_type },
        1 => FaultOp::DropNth {
            msg_type,
            nth: 1 + param % 9,
        },
        2 => FaultOp::DelayMs {
            msg_type,
            ms: 100 * (1 + param as u64 % 50),
        },
        3 => FaultOp::Duplicate {
            msg_type,
            copies: 1 + param % 3,
        },
        4 => FaultOp::CorruptByteAt {
            msg_type,
            offset: (param % 12) as usize,
            mask: 0x40,
        },
        _ => FaultOp::ReorderWindow {
            msg_type,
            hold: 1 + param % 4,
        },
    };
    ScheduledFault {
        site: site % 3,
        dir: if dir_bit {
            Direction::Send
        } else {
            Direction::Receive
        },
        op,
    }
}

fn schedule_from(raw: &[(u32, bool, u8, usize, u32)]) -> FaultSchedule {
    FaultSchedule {
        faults: raw
            .iter()
            .map(|&(s, d, k, m, p)| fault(s, d, k, m, p))
            .collect(),
    }
}

proptest! {
    /// Whatever the failing predicate, the shrunk schedule still fails it.
    #[test]
    fn shrunk_schedule_still_fails(
        raw in proptest::collection::vec(
            (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 1..7),
        culprit_ix in 0usize..7,
    ) {
        let start = schedule_from(&raw);
        let culprit = start.faults[culprit_ix % start.faults.len()].clone();
        let fails = |s: &FaultSchedule| s.faults.contains(&culprit);
        let shrunk = shrink_schedule(&start, fails);
        prop_assert!(fails(&shrunk));
    }

    /// For a predicate that needs an exact subset of faults, the shrinker
    /// returns that subset and nothing else — and the result is 1-minimal.
    #[test]
    fn shrinking_is_one_minimal(
        raw in proptest::collection::vec(
            (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 2..7),
        picks in proptest::collection::vec(any::<bool>(), 7..8),
    ) {
        let start = schedule_from(&raw);
        // The culprit set: every fault whose index is picked; when the
        // picks select nothing, fall back to the first fault (the shim has
        // no prop_assume).
        let mut culprits: Vec<ScheduledFault> = start
            .faults
            .iter()
            .enumerate()
            .filter(|(i, _)| picks[*i % picks.len()])
            .map(|(_, f)| f.clone())
            .collect();
        if culprits.is_empty() {
            culprits.push(start.faults[0].clone());
        }
        let fails = |s: &FaultSchedule| culprits.iter().all(|c| s.faults.contains(c));
        let shrunk = shrink_schedule(&start, fails);
        prop_assert!(fails(&shrunk));
        // 1-minimality: removing any single remaining fault breaks it.
        for i in 0..shrunk.faults.len() {
            let mut cand = shrunk.clone();
            cand.faults.remove(i);
            prop_assert!(!fails(&cand), "removing fault {i} still fails");
        }
    }

    /// Shrinking is deterministic: same input, same predicate, same result.
    #[test]
    fn shrinking_is_deterministic(
        raw in proptest::collection::vec(
            (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 1..7),
        culprit_ix in 0usize..7,
    ) {
        let start = schedule_from(&raw);
        let culprit = start.faults[culprit_ix % start.faults.len()].clone();
        let fails = |s: &FaultSchedule| s.faults.contains(&culprit);
        let a = shrink_schedule(&start, fails);
        let b = shrink_schedule(&start, fails);
        prop_assert_eq!(a, b);
    }

    /// Every schedule round-trips through its text form byte-identically.
    #[test]
    fn schedule_text_round_trips(
        raw in proptest::collection::vec(
            (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 0..7),
    ) {
        let sched = schedule_from(&raw);
        let lines = sched.to_lines();
        let back = FaultSchedule::from_lines(lines.iter().map(String::as_str)).unwrap();
        prop_assert_eq!(&back, &sched);
        prop_assert_eq!(back.to_lines(), lines);
    }

    /// Any mutation chain stays within bounds, and every child campaign
    /// admission admits lowers to parseable filter scripts, whatever the
    /// seed. (One mutation roll in ten is a deliberate *scramble* — an
    /// out-of-topology site or a brace-breaking message type — so "every
    /// child is lowerable" is intentionally false; `schedule_is_installable`
    /// is exactly the predicate that keeps those off the workers, and a
    /// scrambled child must always be caught by it.)
    #[test]
    fn mutation_chains_stay_lowerable(seed in any::<u64>(), steps in 1usize..30) {
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(seed);
        let mut sched = FaultSchedule::empty();
        for _ in 0..steps {
            sched = mutator.mutate(&sched, 4, &mut rng);
            prop_assert!(sched.len() <= 4);
            if schedule_is_installable(&sched, 3) {
                for site in sched.lower() {
                    prop_assert!(Script::parse(&site.send).is_ok(), "{}", site.send);
                    prop_assert!(Script::parse(&site.recv).is_ok(), "{}", site.recv);
                }
            }
        }
    }

    /// Every journal round-trips through its text form value-identically —
    /// whatever mix of verdicts, shrink records, and quarantines it holds.
    #[test]
    fn journal_text_round_trips(
        raw_cases in proptest::collection::vec(
            (proptest::collection::vec(
                (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 0..4),
             0u8..6, any::<bool>(), 0usize..8, 0u32..4),
            0..5),
        raw_quarantines in proptest::collection::vec(
            (proptest::collection::vec(
                (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 1..4),
             1u32..5, 0usize..4),
            0..3),
        complete in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut journal = Journal::new(journal_meta(seed));
        for (raw, verdict_kind, with_oracle, msg_ix, cover_n) in &raw_cases {
            let schedule = schedule_from(raw);
            journal.dispatched.push(schedule.id());
            journal.cases.push(journal_case(
                schedule, *verdict_kind, *with_oracle, *msg_ix, *cover_n));
        }
        for (raw, attempts, msg_ix) in &raw_quarantines {
            let schedule = schedule_from(raw);
            journal.dispatched.push(schedule.id());
            journal.quarantined.push(JournalQuarantine {
                schedule,
                attempts: *attempts,
                error: MESSAGES[*msg_ix % MESSAGES.len()].to_string(),
            });
        }
        journal.complete = complete;
        let text = journal.to_text();
        let back = Journal::from_text(&text).unwrap();
        prop_assert_eq!(&back, &journal);
        prop_assert_eq!(back.to_text(), text);
    }

    /// Cutting a journal anywhere after its metadata never makes it
    /// unreadable: the torn tail drops at most the partial trailing record,
    /// and everything parsed is a prefix of the full journal.
    #[test]
    fn torn_journals_stay_loadable(
        raw_cases in proptest::collection::vec(
            (proptest::collection::vec(
                (0u32..3, any::<bool>(), 0u8..6, 0usize..4, 0u32..100), 0..4),
             0u8..6, any::<bool>(), 0usize..8, 0u32..4),
            1..5),
        cut_frac in 0u32..1000,
        seed in any::<u64>(),
    ) {
        let mut journal = Journal::new(journal_meta(seed));
        for (raw, verdict_kind, with_oracle, msg_ix, cover_n) in &raw_cases {
            let schedule = schedule_from(raw);
            journal.dispatched.push(schedule.id());
            journal.cases.push(journal_case(
                schedule, *verdict_kind, *with_oracle, *msg_ix, *cover_n));
        }
        journal.complete = true;
        let text = journal.to_text();
        let meta_len = Journal::new(journal_meta(seed)).to_text().len();
        let cut = meta_len + (text.len() - meta_len) * cut_frac as usize / 1000;
        let torn = Journal::from_text(&text[..cut]).unwrap();
        prop_assert_eq!(&torn.meta, &journal.meta);
        prop_assert!(torn.cases.len() <= journal.cases.len());
        prop_assert_eq!(
            &torn.cases[..],
            &journal.cases[..torn.cases.len()],
            "torn cases must be a prefix of the full journal's"
        );
        prop_assert!(!torn.complete || cut == text.len());
    }
}

const MESSAGES: [&str; 4] = [
    "leader vanished",
    "oracle gmp-agreement: views diverged",
    "panic: index out of bounds",
    "drive exhausted its 250000 simulator-event budget",
];

fn journal_meta(seed: u64) -> JournalMeta {
    JournalMeta {
        target: "gmp".to_string(),
        world_seed: seed.wrapping_mul(3),
        seed,
        budget: (seed % 100) as usize,
        max_faults: 3,
        epoch: 1 + (seed % 16) as usize,
        seed_corpus: seed.wrapping_mul(7),
        step_budget: seed % 5000,
        max_retries: (seed % 4) as u32,
    }
}

/// Builds one journal case from small generated integers, honouring the
/// codec's validity rules (shrink data only on violated verdicts).
fn journal_case(
    schedule: FaultSchedule,
    verdict_kind: u8,
    with_oracle: bool,
    msg_ix: usize,
    cover_n: u32,
) -> JournalCase {
    let msg = MESSAGES[msg_ix % MESSAGES.len()].to_string();
    let verdict = match verdict_kind % 6 {
        0 => Verdict::Pass,
        1 => Verdict::Degraded(msg.clone()),
        2 => Verdict::Violated(msg.clone()),
        3 => Verdict::Invalid(msg.clone()),
        4 => Verdict::Crashed(msg.clone()),
        _ => Verdict::Hung(msg.clone()),
    };
    let shrink = matches!(verdict, Verdict::Violated(_)).then(|| JournalShrink {
        shrunk: FaultSchedule {
            faults: schedule.faults.first().cloned().into_iter().collect(),
        },
        runs: schedule.len() * 2,
        message: msg_ix.is_multiple_of(2).then(|| msg.clone()),
    });
    JournalCase {
        schedule,
        verdict,
        oracle: with_oracle.then(|| "gmp-agreement".to_string()),
        coverage: (0..cover_n).map(|i| format!("gmp:n{i}:Started")).collect(),
        shrink,
    }
}

// ---------------------------------------------------------------------------
// Master-thread vs worker-thread execution equality. Exploration outcomes
// are a pure function of the campaign config; shipping candidates to fleet
// worker threads (arena worlds, Send payloads) must not perturb the digest
// for any seed. Budgets are tiny — each case runs two real explorations.

// ---------------------------------------------------------------------------
// Snapshot/fork differential. Forking a candidate run off the captured
// base world (restore it, install the schedule's filters) must be
// observationally identical to replaying it cold from t=0 — verdict,
// oracle, and coverage edges — for any seed-derived mutation chain. The store-accounting property rides along: the base snapshot is
// captured at most once, after which every installable run forks.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn forked_runs_match_cold_replays(seed in any::<u64>(), steps in 1usize..8) {
        use pfi_testgen::{
            run_schedule_limited, run_schedule_snapshotted, GmpTarget, RunLimits, SnapshotStore,
            TestTarget,
        };

        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let mutator = ScheduleMutator::new(
            &ProtocolSpec::gmp(),
            target.node_count(),
            target.fault_sites(),
        );
        let mut rng = SimRng::seed_from(seed);
        let mut store = SnapshotStore::default();
        let mut sched = FaultSchedule::empty();
        let mut installable = 0u64;
        for _ in 0..steps {
            sched = mutator.mutate(&sched, 3, &mut rng);
            if schedule_is_installable(&sched, target.fault_sites()) {
                installable += 1;
            }
            let forked = run_schedule_snapshotted(&target, &sched, &limits, Some(&mut store));
            let cold = run_schedule_limited(&target, &sched, &limits);
            prop_assert_eq!(&forked.verdict, &cold.verdict);
            prop_assert_eq!(&forked.oracle, &cold.oracle);
            prop_assert_eq!(
                forked.coverage.edges().collect::<Vec<_>>(),
                cold.coverage.edges().collect::<Vec<_>>()
            );
        }
        // The first installable run misses and prepares the base; every
        // one is then forked or handed the baseline's outcome.
        let stats = store.stats();
        prop_assert_eq!(stats.misses, u64::from(installable > 0));
        prop_assert_eq!(
            stats.hits + stats.replayed,
            installable,
            "uninstallable schedules must never touch the store"
        );
    }
}

// ---------------------------------------------------------------------------
// Coverage algebra over real runs. Whatever traces a mutation chain
// produces, the extracted coverage must be a proper set of edge strings:
// strictly sorted, rebuilt exactly from its own edge list (the journal
// path), and merged idempotently with `merge`'s count equal to the set
// difference it reports.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn coverage_of_mutation_chains_is_a_sorted_mergeable_set(
        seed in any::<u64>(), steps in 1usize..8,
    ) {
        use pfi_testgen::{run_schedule_limited, Coverage, GmpTarget, RunLimits, TestTarget};

        let target = GmpTarget { fault_secs: 5, ..GmpTarget::default() };
        let mutator = ScheduleMutator::new(
            &ProtocolSpec::gmp(),
            target.node_count(),
            target.fault_sites(),
        );
        let mut rng = SimRng::seed_from(seed);
        let mut sched = FaultSchedule::empty();
        let mut union = Coverage::new();
        for _ in 0..steps {
            sched = mutator.mutate(&sched, 3, &mut rng);
            let c = run_schedule_limited(&target, &sched, &RunLimits::default()).coverage;

            let edges: Vec<&str> = c.edges().collect();
            prop_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges() strictly sorted");
            prop_assert_eq!(edges.len(), c.len());
            prop_assert_eq!(&Coverage::from_edges(c.edges()), &c);

            let expected_new = c.difference(&union).count();
            let before = union.len();
            prop_assert_eq!(union.merge(&c), expected_new);
            prop_assert_eq!(union.len(), before + expected_new);
            prop_assert_eq!(union.merge(&c), 0, "merge is idempotent");
            prop_assert_eq!(c.difference(&union).count(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Keys against text. `merge` answers from integer keys when it can and
// from text when it must (replayed runs are text only). A union fed live
// runs and replayed ones in any interleaving must be indistinguishable
// from one that only ever saw rendered strings: the same `merge` return
// values, the same `len()`, the same edge text, the same `difference`.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn a_union_merged_by_key_equals_one_merged_as_text(
        seed in any::<u64>(), steps in 4usize..14,
    ) {
        use pfi_testgen::{run_schedule_limited, Coverage, GmpTarget, RunLimits, TestTarget};

        let target = GmpTarget { fault_secs: 5, ..GmpTarget::default() };
        let mutator = ScheduleMutator::new(
            &ProtocolSpec::gmp(),
            target.node_count(),
            target.fault_sites(),
        );
        let replayed = |c: &Coverage| Coverage::from_edges(c.edges().map(str::to_string));
        let mut rng = SimRng::seed_from(seed);
        let mut sched = FaultSchedule::empty();
        // The baseline run becomes the union, as in the engine: a live
        // run on one side, its text on the other.
        let baseline = run_schedule_limited(&target, &sched, &RunLimits::default()).coverage;
        let mut by_text = replayed(&baseline);
        let mut by_key = baseline;
        for _ in 0..steps {
            sched = mutator.mutate(&sched, 3, &mut rng);
            // A fresh, never-rendered run for the key side; the text side
            // only ever sees strings.
            let run = || run_schedule_limited(&target, &sched, &RunLimits::default()).coverage;
            let text = replayed(&run());
            let live = run();
            prop_assert_eq!(live.len(), text.len(), "len() from keys");
            let new = by_text.merge(&text);
            if rng.coin(0.3) {
                prop_assert_eq!(by_key.merge(&text), new, "a replayed run, interleaved");
            } else {
                prop_assert_eq!(by_key.merge(&live), new, "a live run");
                prop_assert_eq!(by_key.merge(&live), 0, "known keys add nothing");
            }
            prop_assert_eq!(by_key.len(), by_text.len());
            prop_assert!(by_key.edges().eq(by_text.edges()), "edge text");
            prop_assert!(by_key.difference(&live).eq(by_text.difference(&text)));
            prop_assert!(live.difference(&by_key).eq(text.difference(&by_text)));
            prop_assert_eq!(&by_key, &by_text);
        }
    }
}

// ---------------------------------------------------------------------------
// The flow model's memo. What `fault_inertness` learns about a fault op it
// keeps, so a model that has answered for a thousand schedules — scrambled
// ones included, whose ops never parse — must still answer exactly as one
// that has answered for none.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn a_warmed_flow_model_answers_like_a_fresh_one(seed in any::<u64>()) {
        use pfi_testgen::FlowModel;

        // (a fresh model, its spec, nodes, fault sites)
        let fresh_models: [fn() -> FlowModel; 3] =
            [FlowModel::gmp, FlowModel::tcp, FlowModel::two_phase_commit];
        let shapes = [
            (ProtocolSpec::gmp(), 3, 3),
            (ProtocolSpec::tcp(), 2, 1),
            (ProtocolSpec::two_phase_commit(), 4, 4),
        ];
        for (fresh, (spec, nodes, sites)) in fresh_models.into_iter().zip(shapes) {
            let warm = fresh();
            let mutator = ScheduleMutator::new(&spec, nodes, sites);
            let mut rng = SimRng::seed_from(seed);
            let mut sched = FaultSchedule::empty();
            let mut scrambled = 0usize;
            for _ in 0..1000 {
                sched = mutator.mutate(&sched, 4, &mut rng);
                scrambled += usize::from(!schedule_is_installable(&sched, sites));
                let cold = fresh();
                prop_assert_eq!(warm.semantic_schedule(&sched), cold.semantic_schedule(&sched));
                prop_assert_eq!(warm.semantic_id(&sched), cold.semantic_id(&sched));
                prop_assert_eq!(warm.inert_facts(&sched), cold.inert_facts(&sched));
                // Warm or not, a model states the same facts, and a clone
                // of a warm one answers the same again.
                prop_assert_eq!(&warm, &cold);
                prop_assert_eq!(warm.clone().inert_facts(&sched), cold.inert_facts(&sched));
            }
            prop_assert!(scrambled > 20, "only {} scrambled schedules", scrambled);
        }
    }
}

// ---------------------------------------------------------------------------
// Inert-fault differential. A fault the flow model proves statically inert
// must be *unobservable* — the claim `pfi-lint --spec` makes to a user:
// the schedule with its inert faults removed in place runs to
// byte-identical verdicts, oracles, and coverage edges. And the quotient
// differs from the canonical form only by such faults, so those two run
// alike too. (The canonical form is a dedup key, not an equivalent of the
// original: reach.rs, "Soundness".) On every bundled target.

/// Cases for the seed-swept properties: `PFI_LATTICE_SEEDS` when set (CI
/// raises it with the strategy lattice's sweep), else `default`.
fn swept_cases(default: u32) -> u32 {
    std::env::var("PFI_LATTICE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(swept_cases(8)))]

    #[test]
    fn inert_faults_are_execution_equivalent_to_their_quotient(
        seed in any::<u64>(), steps in 1usize..10,
    ) {
        use pfi_testgen::{
            run_schedule_limited, GmpTarget, RunLimits, ScheduleRun, TcpTarget, TestTarget, TpcTarget,
        };

        let targets: [(Box<dyn TestTarget>, ProtocolSpec); 3] = [
            (Box::new(GmpTarget { fault_secs: 5, ..GmpTarget::default() }), ProtocolSpec::gmp()),
            (Box::new(TcpTarget::default()), ProtocolSpec::tcp()),
            (Box::new(TpcTarget), ProtocolSpec::two_phase_commit()),
        ];
        for (target, spec) in &targets {
            let target = target.as_ref();
            let model = target.flow_model().expect("bundled targets have flow models");
            let mutator = ScheduleMutator::new(spec, target.node_count(), target.fault_sites());
            let run = |s: &FaultSchedule| -> ScheduleRun {
                run_schedule_limited(target, s, &RunLimits::default())
            };
            let runs_alike = |a: &FaultSchedule, b: &FaultSchedule| {
                let (a, b) = (run(a), run(b));
                a.verdict == b.verdict && a.oracle == b.oracle && a.coverage == b.coverage
            };
            let mut rng = SimRng::seed_from(seed);
            let mut sched = FaultSchedule::empty();
            for _ in 0..steps {
                sched = mutator.mutate(&sched, 3, &mut rng);
                // Admission's predicate is the runner's refusal: a
                // candidate is refused iff running it comes back Invalid.
                let installable = schedule_is_installable(&sched, target.fault_sites());
                prop_assert_eq!(
                    !installable,
                    run(&sched).verdict.is_invalid(),
                    "{}: {}", target.name(), sched.id()
                );
                if !installable {
                    continue;
                }
                let inert: Vec<usize> = model.inert_facts(&sched).iter().map(|f| f.fault).collect();
                if inert.is_empty() {
                    continue; // nothing to strip; nothing to differentiate
                }
                let live = FaultSchedule {
                    faults: (0..sched.len())
                        .filter(|i| !inert.contains(i))
                        .map(|i| sched.faults[i].clone())
                        .collect(),
                };
                prop_assert!(runs_alike(&sched, &live), "{}: {} vs {}", target.name(), sched.id(), live.id());
                let (canonical, quotient) = (sched.canonical(), model.semantic_schedule(&sched));
                prop_assert!(
                    runs_alike(&canonical, &quotient),
                    "{}: {} vs {}", target.name(), canonical.id(), quotient.id()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn explore_digest_is_worker_thread_independent(seed in 0u64..1_000_000, jobs in 2usize..4) {
        use std::sync::Arc;
        use pfi_testgen::{explore, explore_fleet, ExploreConfig, GmpTarget};

        let config = ExploreConfig {
            seed,
            budget: 8,
            epoch: 4,
            ..ExploreConfig::default()
        };
        let spec = ProtocolSpec::gmp();
        let inline = explore(&GmpTarget::default(), &spec, &config);
        let (fleet, _report) =
            explore_fleet(Arc::new(GmpTarget::default()), &spec, &config, jobs);
        prop_assert_eq!(inline.digest64(), fleet.digest64());
    }
}
