//! Golden-digest acceptance for snapshot/fork execution: a campaign that
//! forks every run from one captured base world must be byte-for-byte
//! indistinguishable from one that rebuilds every world from scratch —
//! same digest, same corpus order, same repro artifact bytes — at every
//! worker count, when the target refuses capture, and composed with
//! journal resume. Snapshots are an execution strategy, never an outcome
//! input.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pfi_sim::{Context, Layer, Message, NodeId, World};
use pfi_testgen::{
    explore, explore_fleet, ExploreConfig, ExploreOutcome, FaultSchedule, GmpTarget, Journal,
    Oracle, ProtocolSpec, RunLimits, TcpTarget, TestTarget, TpcTarget, Verdict,
};

/// The seed the acceptance criteria pin (same as the CI smoke job and the
/// committed golden digest).
const SEED: u64 = 42;

fn config(snapshots: bool) -> ExploreConfig {
    ExploreConfig {
        seed: SEED,
        budget: 24,
        max_faults: 3,
        epoch: 8,
        prefilter: true,
        snapshots,
        ..ExploreConfig::default()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pfi_snapshot_fork_{}_{name}", std::process::id()))
}

fn corpus_ids(outcome: &ExploreOutcome) -> Vec<String> {
    outcome.corpus.iter().map(FaultSchedule::id).collect()
}

fn repro_bytes(outcome: &ExploreOutcome) -> Vec<String> {
    outcome.failures.iter().map(|f| f.repro.to_text()).collect()
}

/// The acceptance test proper: at seed 42, the snapshot-forking campaign
/// and the cold-rebuild campaign produce byte-identical outcomes at jobs
/// 1, 2, and 4 — and the forking one actually forks (nonzero hit rate,
/// nonzero prefix events skipped), so the equality is not vacuous. The
/// digest is additionally pinned to the committed golden line shared with
/// the fleet determinism suite and the CI smoke job.
#[test]
fn snapshot_and_cold_campaigns_are_byte_identical() {
    let target = Arc::new(GmpTarget::default());
    let spec = ProtocolSpec::gmp();

    for jobs in [1, 2, 4] {
        let journal = |snapshots: bool| tmp(&format!("j{jobs}-{snapshots}.journal"));
        let run = |snapshots: bool| {
            let mut cfg = config(snapshots);
            cfg.journal = Some(journal(snapshots));
            explore_fleet(Arc::clone(&target) as _, &spec, &cfg, jobs).0
        };
        let (on, off) = (run(true), run(false));

        assert_eq!(on.digest(), off.digest(), "digest diverged at jobs={jobs}");
        // The journals say which strategy ran, and nothing else differs:
        // a candidate replayed from the baseline is journaled exactly as
        // if it had been driven.
        let [on_journal, off_journal] = [true, false].map(|snapshots| {
            let text = fs::read_to_string(journal(snapshots)).unwrap();
            let _ = fs::remove_file(journal(snapshots));
            text
        });
        assert!(on_journal.contains("\nsnapshots on\n"));
        assert_eq!(
            on_journal.replace("\nsnapshots on\n", "\nsnapshots off\n"),
            off_journal,
            "journal bytes diverged at jobs={jobs}"
        );
        assert_eq!(
            corpus_ids(&on),
            corpus_ids(&off),
            "corpus order diverged at jobs={jobs}"
        );
        assert_eq!(
            repro_bytes(&on),
            repro_bytes(&off),
            "repro artifact bytes diverged at jobs={jobs}"
        );
        assert_eq!(on.executed, off.executed, "executed count, jobs={jobs}");

        assert!(
            on.snapshots.hits > 0,
            "the forking campaign must fork its base (jobs={jobs})"
        );
        assert!(
            on.snapshots.events_skipped > 0,
            "forking must skip replayed prefix events (jobs={jobs})"
        );
        assert!(
            on.snapshots.replayed > 0 && on.snapshots.replayed < on.snapshots.hits,
            "some forks re-simulate the baseline and are not driven, most act (jobs={jobs}): {:?}",
            on.snapshots
        );
        assert_eq!(
            off.snapshots,
            Default::default(),
            "the cold campaign must never touch a snapshot store (jobs={jobs})"
        );

        // Pin the digest to the committed golden line so this suite fails
        // alongside the fleet determinism suite if the walk ever changes.
        let golden = include_str!("../../fleet/tests/golden_campaign_digest.txt");
        let line = format!(
            "pfi-campaign digest gmp seed={SEED} budget=24 epoch=8 {}",
            on.digest64()
        );
        assert_eq!(line, golden.trim_end(), "golden digest, jobs={jobs}");
    }
}

/// Snapshot stats are a pure function of the campaign, not of how it was
/// scheduled: counting per candidate makes hit/miss counts — and how many
/// forks were replayed from the baseline instead of driven — identical at
/// every worker count.
#[test]
fn snapshot_stats_are_worker_count_invariant() {
    let target = Arc::new(GmpTarget::default());
    let spec = ProtocolSpec::gmp();

    let (reference, _) = explore_fleet(Arc::clone(&target) as _, &spec, &config(true), 1);
    assert!(reference.snapshots.replayed > 0);
    for jobs in [2, 4] {
        let (outcome, _) = explore_fleet(Arc::clone(&target) as _, &spec, &config(true), jobs);
        assert_eq!(
            outcome.snapshots, reference.snapshots,
            "snapshot stats diverged at jobs={jobs}"
        );
    }
}

/// A pass-through layer that keeps [`Layer::clone_box`]'s default (`None`):
/// any world holding one refuses `try_snapshot`.
struct Unclonable;

impl Layer for Unclonable {
    fn name(&self) -> &'static str {
        "unclonable"
    }
    fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
        ctx.send_down(msg);
    }
    fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
        ctx.send_up(msg);
    }
}

/// The GMP target plus a bystander node whose one layer is [`Unclonable`]
/// — the shape of a target carrying a native filter or a stub that cannot
/// be deep-copied.
#[derive(Clone)]
struct CaptureRefusingTarget(GmpTarget);

impl TestTarget for CaptureRefusingTarget {
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
        let (mut world, sites) = self.0.build();
        world.add_node(vec![Box::new(Unclonable)]);
        (world, sites)
    }
    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        self.0.drive(world, limits)
    }
    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        self.0.oracles()
    }
    fn verdict(&self, world: &mut World) -> Verdict {
        self.0.verdict(world)
    }
    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }
}

/// Capture refusal degrades to cold: with snapshots on, every run of a
/// target whose world cannot be captured misses and builds from scratch,
/// and the campaign lands on the digest it reaches with snapshots off.
#[test]
fn capture_refusal_degrades_to_cold() {
    let target = CaptureRefusingTarget(GmpTarget::default());
    let spec = ProtocolSpec::gmp();
    let on = explore(&target, &spec, &config(true));
    let off = explore(&target, &spec, &config(false));
    assert_eq!(on.digest(), off.digest());
    assert_eq!(on.executed, off.executed);
    assert_eq!((on.snapshots.hits, on.snapshots.stored), (0, 0));
    assert!(on.snapshots.misses > 0, "every run asked, none could fork");
}

/// Journal resume composes with snapshot forking: tear a journal written
/// by a forking campaign at 50%, resume it — with forking on and with it
/// off — and both resumed runs land on the uninterrupted digest with the
/// journaled prefix replayed, not re-executed. So does the same journal as
/// the engine wrote it while its store was a keyed cache (`snapshots on
/// cache=64`): stores written then still resume.
#[test]
fn resume_composes_with_snapshot_fork() {
    let target = GmpTarget::default();
    let spec = ProtocolSpec::gmp();

    let full_path = tmp("full.journal");
    let mut cfg = config(true);
    cfg.journal = Some(full_path.clone());
    let uninterrupted = explore(&target, &spec, &cfg);
    assert!(uninterrupted.snapshots.hits > 0);
    let full_bytes = fs::read_to_string(&full_path).unwrap();
    let _ = fs::remove_file(&full_path);

    let keyed = full_bytes.replace("\nsnapshots on\n", "\nsnapshots on cache=64\n");
    assert_ne!(keyed, full_bytes);

    for text in [&full_bytes, &keyed] {
        let torn = Journal::from_text(&text[..text.len() / 2]).unwrap();
        assert!(!torn.cases.is_empty(), "the cut must leave work to replay");

        for snapshots in [true, false] {
            let mut cfg = config(snapshots);
            cfg.resume = Some(torn.clone());
            let resumed = explore(&target, &spec, &cfg);
            assert_eq!(
                resumed.digest(),
                uninterrupted.digest(),
                "resumed digest diverged (snapshots={snapshots})"
            );
            assert_eq!(resumed.executed, uninterrupted.executed);
            assert_eq!(
                resumed.replayed,
                torn.cases.len(),
                "journaled cases must be replayed, never re-executed"
            );
            // The resume's unrecorded re-run of the baseline captures the
            // base *and* records its traffic like any baseline, so the
            // live remainder is still replayed from it; the counter, like
            // `hits`, counts live executions only.
            let live = &resumed.snapshots;
            if snapshots {
                assert!(live.replayed > 0, "{live:?}");
                assert!(live.replayed < uninterrupted.snapshots.replayed);
            } else {
                assert_eq!(*live, Default::default());
            }
        }
    }
}

/// A pass-through bystander whose `clone_box` panics exactly once: on its
/// `fuse`-th call, counted across every copy of it on every thread.
struct FusedBystander {
    clones: Arc<AtomicUsize>,
    fuse: usize,
}

impl Layer for FusedBystander {
    fn name(&self) -> &'static str {
        "fused-bystander"
    }
    fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
        ctx.send_down(msg);
    }
    fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
        ctx.send_up(msg);
    }
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        if self.clones.fetch_add(1, Ordering::SeqCst) + 1 == self.fuse {
            panic!("fused bystander refuses this one clone");
        }
        Some(Box::new(FusedBystander {
            clones: Arc::clone(&self.clones),
            fuse: self.fuse,
        }))
    }
}

/// The GMP target plus a bystander node carrying a [`FusedBystander`].
#[derive(Clone)]
struct FusedTarget {
    gmp: GmpTarget,
    clones: Arc<AtomicUsize>,
    fuse: usize,
}

impl TestTarget for FusedTarget {
    fn name(&self) -> &'static str {
        self.gmp.name()
    }
    fn seed(&self) -> u64 {
        self.gmp.seed()
    }
    fn node_count(&self) -> u32 {
        self.gmp.node_count()
    }
    fn fault_sites(&self) -> u32 {
        self.gmp.fault_sites()
    }
    fn build(&self) -> (World, Vec<(NodeId, usize)>) {
        let (mut world, sites) = self.gmp.build();
        world.add_node(vec![Box::new(FusedBystander {
            clones: Arc::clone(&self.clones),
            fuse: self.fuse,
        })]);
        (world, sites)
    }
    fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
        self.gmp.drive(world, limits)
    }
    fn oracles(&self) -> Vec<Box<dyn Oracle>> {
        self.gmp.oracles()
    }
    fn verdict(&self, world: &mut World) -> Verdict {
        self.gmp.verdict(world)
    }
    fn share(&self) -> Arc<dyn TestTarget> {
        Arc::new(self.clone())
    }
}

/// One layer clone that panics while a worker restores the shared base
/// costs the campaign that one attempt and nothing else. The base's
/// guarded state is only ever read under its lock, so the lock the panic
/// poisoned is recovered; it used to be `expect`ed, which quarantined
/// every later candidate of the campaign at its fork.
#[test]
fn one_panicking_layer_clone_loses_exactly_that_candidate() {
    let spec = ProtocolSpec::gmp();
    let fused = |fuse: usize| FusedTarget {
        gmp: GmpTarget {
            fault_secs: 5,
            ..GmpTarget::default()
        },
        clones: Arc::new(AtomicUsize::new(0)),
        fuse,
    };
    let (clean, _) = explore_fleet(Arc::new(fused(usize::MAX)), &spec, &config(true), 2);
    assert!(clean.quarantined.is_empty());
    assert!(
        clean.snapshots.hits > 8,
        "the fuse below must land in a fork"
    );

    // No retries: the candidate whose restore hit the fuse is quarantined,
    // alone. (Clone 1 is the capture; every restore after it clones once
    // more, or twice when a probe is followed by a drive.)
    let mut strict = config(true);
    strict.max_retries = 0;
    let (lossy, report) = explore_fleet(Arc::new(fused(6)), &spec, &strict, 2);
    assert_eq!(lossy.quarantined.len(), 1, "{:?}", lossy.quarantined);
    assert!(lossy.quarantined[0].error.contains("fused bystander"));
    assert_eq!(report.workers.iter().map(|w| w.panics).sum::<u64>(), 1);
    assert!(
        lossy.snapshots.hits > 8,
        "candidates after the fuse still forked the base: {:?}",
        lossy.snapshots
    );

    // With the default retries the candidate runs on its second attempt
    // and the campaign is the clean one.
    let (healed, report) = explore_fleet(Arc::new(fused(6)), &spec, &config(true), 2);
    assert!(healed.quarantined.is_empty());
    assert_eq!(report.retries, 1);
    assert_eq!(healed.digest(), clean.digest());
    assert_eq!(healed.executed, clean.executed);
}

/// A worker's retired world is whatever its last run left: another
/// schedule's run, another target's world, a storm the event cap cut
/// short. Restoring a base into any of them gives the world a fresh fork
/// of that base would be — same digest, same continuation, same trace.
#[test]
fn a_base_restored_into_any_retired_world_continues_like_a_fresh_fork() {
    let limits = RunLimits::default();
    let driven = |target: &dyn TestTarget, cap: u64| {
        let (mut world, _) = target.build();
        world.trace_timers = true;
        let capped = target.drive(
            &mut world,
            &RunLimits {
                event_cap: cap,
                ..limits
            },
        );
        assert_eq!(capped, cap < limits.event_cap);
        world
    };
    let gmp = GmpTarget {
        fault_secs: 5,
        ..GmpTarget::default()
    };
    let targets: [&dyn TestTarget; 3] = [&gmp, &TcpTarget::default(), &TpcTarget];
    for base_target in targets {
        let (mut base, _) = base_target.build();
        base.trace_timers = true;
        let snapshot = base.try_snapshot().expect("bundled targets fork");
        let mut fresh = snapshot.fork();
        base_target.drive(&mut fresh, &limits);
        let want = (fresh.trace().render(), fresh.snapshot_digest());

        let mut retired: Vec<World> = targets
            .iter()
            .map(|t| driven(*t, limits.event_cap))
            .collect();
        retired.push(driven(&gmp, 40));
        for mut world in retired {
            world.restore(&snapshot);
            assert_eq!(world.snapshot_digest(), snapshot.digest());
            base_target.drive(&mut world, &limits);
            assert_eq!(world.snapshot_digest(), want.1, "{}", base_target.name());
            assert_eq!(world.trace().render(), want.0, "{}", base_target.name());
        }
    }
}
