//! Snapshot/fork execution: one forkable base world per campaign.
//!
//! Every schedule run used to start from `TestTarget::build()` — for the
//! GMP target 40 virtual seconds of convergence traffic before the first
//! fault is even installed, repeated identically for every candidate.
//! Worlds are deep-clonable ([`pfi_sim::WorldSnapshot`]), so the engine
//! captures the prepared fault-free world once and *forks* it per run —
//! the paper's own shape: filters go into a system that is already running.
//! There is exactly one such world per (target, limits), named by
//! [`base_digest`]; a [`SnapshotStore`] is the slot holding it.
//!
//! The run that captures the base is the fault-free baseline, and it runs
//! as a pure probe: every fault site records the traffic that reaches its
//! filters. That recording stays with the base ([`Baseline`]), and a
//! forked candidate first *probes* its filters against it. A candidate
//! whose filters never act on the baseline's traffic would re-simulate the
//! baseline message for message, so it gets the baseline's outcome without
//! being driven (`SnapshotStats::replayed` counts them). Every driven fork
//! is tallied in the same spirit ([`Tally`]), and a mutant whose changed
//! faults cannot act on its corpus parent's tally gets the parent's
//! outcome without being forked at all ([`Parent`],
//! `SnapshotStats::inherited`). And the world a
//! run leaves behind is kept by the store
//! ([`SnapshotStore::retired`]) for the next run to restore into, so a
//! fork stops allocating a world and freeing one.
//!
//! Fork-equivalence is load-bearing: filter installation emits no trace
//! events and draws no RNG, and preparation never advances virtual time,
//! so a forked run is byte-identical to a cold one (`tests/snapshot_fork.rs`
//! and the property suite prove it). [`Verdict::Invalid`](crate::Verdict)
//! schedules are refused *before* the store is consulted — they never
//! perturb its statistics.

use std::fmt;
use std::sync::Arc;

use pfi_core::{PfiControl, PfiReply, RecordedMsg, Tally};
use pfi_sim::fnv::Fnv;
use pfi_sim::{NodeId, World, WorldSnapshot};

use crate::runner::{Outcome, RunLimits, TestTarget, Verdict};
use crate::schedule::{FaultOp, FaultSchedule, ScheduledFault, SiteScripts};

/// The digest identifying `target`'s prepared fault-free base world under
/// `limits`, and the baseline recorded from it. Covers everything that
/// shapes either: the target's name, world seed and configuration — its
/// `Debug` form, so a GMP target's fault window and bugs, a TCP target's
/// profile and a wrapper's inner target all count — the interpreter step
/// budget (armed on every fault site at prepare time) and the event cap
/// (which decides whether the baseline's drive ran to its end).
pub fn base_digest(target: &dyn TestTarget, limits: &RunLimits) -> u64 {
    let mut h = Fnv::new();
    h.write_str(target.name());
    h.write_u64(target.seed());
    h.write_str(&format!("{target:?}"));
    h.write_u64(limits.step_budget);
    h.write_u64(limits.event_cap);
    h.finish()
}

/// The captured base world: built, armed, no filter installed. `Send +
/// Sync` (the world snapshot is): every dispatched job carries an `Arc` of
/// it across the fleet's thread boundary, and workers fork it concurrently.
pub(crate) struct BaseWorld {
    /// The [`base_digest`] it was captured under.
    digest: u64,
    /// The target's fault sites, as built.
    pub(crate) sites: Vec<(NodeId, usize)>,
    pub(crate) world: WorldSnapshot,
    /// What the capturing run went on to do, when it was the fault-free
    /// baseline and ended without crash or hang.
    pub(crate) baseline: Option<Baseline>,
}

/// What the baseline already ran: the traffic each fault site's filters
/// would have seen, and how the run was judged. It lives with the
/// campaign's base world and nowhere shared — it is only meaningful
/// against that world (same target, same limits), and goes when it goes:
/// at the campaign's end, or, on a [`crate::CampaignFleet`] that keeps
/// the base for the next campaign of the same target, when that pool
/// lets it go.
pub(crate) struct Baseline {
    /// Per fault site, the messages that reached its filters, in order.
    traffic: Vec<Arc<[RecordedMsg]>>,
    /// `(site, index into that site's traffic)` of every recorded message,
    /// in recorded-time order (ties by site, then arrival).
    order: Vec<(u32, u32)>,
    /// The baseline's verdict, violated oracle and coverage — the outcome
    /// of every run that re-simulates it.
    pub(crate) outcome: Outcome,
}

impl Baseline {
    pub(crate) fn new(traffic: Vec<Vec<RecordedMsg>>, outcome: Outcome) -> Baseline {
        let mut order: Vec<(u32, u32)> = (0u32..)
            .zip(&traffic)
            .flat_map(|(site, msgs)| (0..msgs.len() as u32).map(move |i| (site, i)))
            .collect();
        // Stable, and each site's slice is already in time order.
        order.sort_by_key(|&(site, i)| traffic[site as usize][i as usize].time);
        Baseline {
            traffic: traffic.into_iter().map(Arc::from).collect(),
            order,
            outcome,
        }
    }

    /// Whether any filter of `scripts` — installed in `world`, a fresh
    /// restore of the base, at `sites` — acts on the traffic the baseline
    /// recorded ([`PfiControl::Probe`] defines *acts*). Messages are
    /// probed in recorded-time order across sites, so the first one that
    /// is acted on — the first heartbeat, for most candidates — ends the
    /// probe after a handful of evaluations.
    ///
    /// `false` means the candidate's run *is* the baseline's, by
    /// induction over its events: up to the first message that reaches a
    /// fault site both worlds are the base; a filter evaluation that does
    /// not act leaves everything outside its interpreter pair as a
    /// filterless layer would, so the next message is the baseline's next
    /// message, at the baseline's time, meeting the interpreter state the
    /// probe has just left. Sites share nothing a non-acting evaluation
    /// can write, so the order in which they are probed does not matter.
    ///
    /// Leaves `world` used up: restore it before driving it.
    pub(crate) fn acts(
        &self,
        world: &mut World,
        sites: &[(NodeId, usize)],
        scripts: &[SiteScripts],
    ) -> bool {
        let mut active = vec![false; self.traffic.len()];
        for s in scripts {
            active[s.site as usize] |= !s.is_empty();
        }
        let mut next = 0;
        while next < self.order.len() {
            let (site, first) = self.order[next];
            next += 1;
            if !active[site as usize] {
                continue;
            }
            // One call covers this site's messages up to the next message
            // of another active site.
            let mut last = first;
            while let Some(&(s, i)) = self.order.get(next) {
                if s == site {
                    last = i;
                } else if active[s as usize] {
                    break;
                }
                next += 1;
            }
            let (node, layer) = sites[site as usize];
            let probe = PfiControl::Probe {
                traffic: Arc::clone(&self.traffic[site as usize]),
                range: first as usize..last as usize + 1,
            };
            match world.control::<PfiReply>(node, layer, probe) {
                PfiReply::Probe(None) => {}
                PfiReply::Probe(Some(_)) => return true,
                other => panic!("fault site n{site} answered a probe with {other:?}"),
            }
        }
        false
    }
}

/// A corpus member this campaign drove, as its mutants read it: the faults
/// it ran, what reached each fault site's filters ([`Tally`]) and how it
/// was judged. Only a forked, driven run that passed or degraded leaves
/// one ([`Parent::new`]): the baseline's mutants have [`Baseline::acts`],
/// a member replayed from a resume journal has no tally, and a violating
/// or infrastructure outcome is not one to hand on.
#[derive(Debug)]
pub(crate) struct Parent {
    schedule: FaultSchedule,
    /// Per fault site, the tally of its driven run.
    tally: Vec<Tally>,
    /// Its verdict, oracle (none) and coverage.
    pub(crate) outcome: Outcome,
}

impl Parent {
    /// The parent `schedule`'s run makes, when it was tallied and judged
    /// `Pass` or `Degraded`.
    pub(crate) fn new(
        schedule: &FaultSchedule,
        tally: Option<Vec<Tally>>,
        outcome: Outcome,
    ) -> Option<Parent> {
        let handed_on = matches!(outcome.0, Verdict::Pass | Verdict::Degraded(_));
        Some(Parent {
            schedule: schedule.clone(),
            tally: tally.filter(|_| handed_on)?,
            outcome,
        })
    }

    /// Whether `fault` cannot act on the traffic the parent tallied at its
    /// site and direction: its lowered clause finds no message of its
    /// type, or its window never opens, or its guard never holds.
    fn inert(&self, fault: &ScheduledFault) -> bool {
        let rows = self.tally[fault.site as usize]
            .rows()
            .iter()
            .filter(|r| r.dir == fault.dir && r.msg_type == fault.op.msg_type());
        let count = rows.clone().map(|r| r.count).sum::<u64>();
        match &fault.op {
            FaultOp::DropAll { .. }
            | FaultOp::DelayMs { .. }
            | FaultOp::Duplicate { .. }
            | FaultOp::ReorderWindow { .. } => count == 0,
            FaultOp::DropNth { nth, .. } => count < u64::from(*nth),
            FaultOp::DropAfter { after, .. } => count <= u64::from(*after),
            FaultOp::DropToDest { dst, .. } => rows.clone().all(|r| r.dst != *dst as usize),
            FaultOp::CorruptByteAt { offset, .. } => rows.clone().all(|r| r.longest <= *offset),
        }
    }

    /// Whether `child` runs exactly as this parent did, so that its
    /// outcome is the parent's. It does when, against the parent's tally:
    ///
    /// * its filters cannot run out of steps: every clause of every fault,
    ///   run in full, fits in `fuel` (the step budget each evaluation
    ///   gets);
    /// * the two schedules are the same sequence once every fault that is
    ///   [inert](Parent::inert) is taken out of both — so every fault one
    ///   has and the other lacks is inert;
    /// * on a site and direction where the two differ, no `corrupt-byte`
    ///   they share can rewrite a message before a fault that differs
    ///   reads its type, length or destination: the tally counted each
    ///   message as it reached the filter.
    ///
    /// By induction over the child's run, as for [`Baseline::acts`]: up to
    /// the first message that reaches a fault site both runs are the
    /// base's; a filter evaluation makes the parent's decisions — the
    /// shared clauses see the parent's message in the parent's state, and
    /// an inert one does nothing, its counter private to it — so the next
    /// message is the parent's next message.
    pub(crate) fn inherits(&self, child: &FaultSchedule, fuel: u64) -> bool {
        let steps: u64 = child
            .faults
            .iter()
            .flat_map(|f| f.op.clauses())
            .map(|clause| clause.max_steps())
            .sum();
        let parent = &self.schedule;
        let live = |f: &&ScheduledFault| !self.inert(f);
        let same_filters = |f: &ScheduledFault| {
            let on = |g: &&ScheduledFault| g.site == f.site && g.dir == f.dir;
            child
                .faults
                .iter()
                .filter(on)
                .eq(parent.faults.iter().filter(on))
        };
        // A corruption the two share, on a filter where they differ.
        let unguarded = |f: &ScheduledFault| {
            matches!(f.op, FaultOp::CorruptByteAt { .. })
                && parent.faults.contains(f)
                && !same_filters(f)
        };
        steps <= fuel
            && child
                .faults
                .iter()
                .filter(live)
                .eq(parent.faults.iter().filter(live))
            && !child.faults.iter().any(unguarded)
    }
}

impl fmt::Debug for BaseWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BaseWorld({:016x})", self.digest)
    }
}

/// Counters describing how much replayed work snapshot/fork execution
/// saved (or failed to save). Purely additive, so per-worker stats merge
/// in any order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Runs that forked the base instead of building cold.
    pub hits: u64,
    /// Runs that found no base to fork and built from scratch.
    pub misses: u64,
    /// Base worlds captured.
    pub stored: u64,
    /// Simulator events forks skipped re-processing, summed over hits.
    pub events_skipped: u64,
    /// Forked runs that were not driven at all: their filters never act on
    /// the traffic the baseline recorded, so they were handed the
    /// baseline's outcome. A pure function of the candidate, like `hits`
    /// (and like `hits` it counts live executions only — work a resume
    /// replays from its journal ran nothing).
    pub replayed: u64,
    /// Mutants that were not forked at all: every fault they add to,
    /// remove from or replace in their epoch parent cannot act on the
    /// traffic that parent's driven run tallied, so they were handed the
    /// parent's outcome (`Parent::inherits`). A pure function of the
    /// candidate and its parent, counted, like `replayed`, only for live
    /// executions.
    pub inherited: u64,
}

impl SnapshotStats {
    /// Hit fraction over all lookups; 0.0 before any lookup happened.
    pub fn hit_rate(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            total => self.hits as f64 / total as f64,
        }
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &SnapshotStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stored += other.stored;
        self.events_skipped += other.events_skipped;
        self.replayed += other.replayed;
        self.inherited += other.inherited;
    }
}

/// The longest trace a world may carry into retirement
/// ([`SnapshotStore::retire`]): ten times a 60 s GMP run's, a thousandth
/// of what a storm stopped at the default event cap can reach.
const RETIRED_TRACE_RECORDS: usize = 1 << 15;

/// The slot for a campaign's one base world, with its counters. Starts
/// empty ([`Default`]): the first run through it misses, builds the world
/// and captures it; every later run of the same target and limits forks.
/// The campaign master fills one with its baseline run; every executing
/// candidate gets its own, holding the base it was dispatched with, so
/// hit/miss statistics are a pure function of the candidate (never of how
/// candidates landed on workers).
#[derive(Debug, Default)]
pub struct SnapshotStore {
    /// The [`base_digest`] of the one target and limits this store serves,
    /// when the campaign engine built it for them: computed once per
    /// campaign, not once per run. A store without one computes each
    /// run's, and so may serve several targets.
    pub(crate) key: Option<u64>,
    /// What dispatch attaches to every job. A store built around it has
    /// not stored it: that counted once, on the master.
    pub(crate) base: Option<Arc<BaseWorld>>,
    pub(crate) stats: SnapshotStats,
    /// The world the last forked run through this store left behind; the
    /// next one restores the base into it ([`World::restore`] reuses what
    /// it overwrites) instead of forking a fresh world. Whatever that run
    /// did to it — another schedule, a capped storm, a contained panic —
    /// the restore overwrites. A campaign worker carries it from one
    /// candidate's store to the next.
    pub(crate) retired: Option<World>,
}

impl SnapshotStore {
    /// The store's counters so far.
    pub fn stats(&self) -> &SnapshotStats {
        &self.stats
    }

    /// The fork-vs-cold decision: the held base, for the caller to fork, or
    /// `None` to build cold — which a base captured under another `digest`
    /// also is: a miss, never a wrong fork. Counts one hit — plus the
    /// simulator events the fork skips — or one miss.
    pub(crate) fn lookup(&mut self, digest: u64) -> Option<Arc<BaseWorld>> {
        let hit = self.base.as_ref().filter(|base| base.digest == digest);
        match hit {
            Some(base) => {
                self.stats.hits += 1;
                self.stats.events_skipped += base.world.events_processed();
            }
            None => self.stats.misses += 1,
        }
        hit.cloned()
    }

    /// Captures `world` — freshly built with fault sites `sites` — as the
    /// base under `digest`, replacing any other; counts toward
    /// [`SnapshotStats::stored`]. A world that refuses (a layer that cannot
    /// clone: native filters, unclonable stubs) leaves the slot as it was
    /// and answers `false`.
    pub(crate) fn capture(
        &mut self,
        digest: u64,
        sites: &[(NodeId, usize)],
        world: &World,
    ) -> bool {
        let Ok(world) = world.try_snapshot() else {
            return false;
        };
        self.stats.stored += 1;
        self.base = Some(Arc::new(BaseWorld {
            digest,
            sites: sites.to_vec(),
            world,
            baseline: None,
        }));
        true
    }

    /// Keeps `world`, just run, for the next run to restore into — unless
    /// that run grew it far past a healthy one's size. A message storm
    /// driven up to the event cap leaves a trace arena of tens of
    /// megabytes, which a retired world would hold on to for the rest of
    /// the campaign (in pfi-serve, for the pool's life); such a world is
    /// dropped, and the next run forks a fresh one.
    pub(crate) fn retire(&mut self, world: World) {
        self.retired = (world.trace().len() <= RETIRED_TRACE_RECORDS).then_some(world);
    }

    /// Attaches what the run that captured the base went on to do. Only
    /// that run calls this, while the store still holds the one handle.
    pub(crate) fn record_baseline(&mut self, baseline: Baseline) {
        let base = self.base.as_mut().and_then(Arc::get_mut);
        base.expect("the capturing run holds the base's only handle")
            .baseline = Some(baseline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{GmpTarget, TcpTarget};

    #[test]
    fn base_digest_tracks_target_config_and_limits() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let d = base_digest(&target, &limits);
        assert_eq!(
            d,
            base_digest(&target.clone(), &limits),
            "equal configs share"
        );
        let capped = RunLimits {
            event_cap: 10,
            ..limits
        };
        assert_ne!(
            d,
            base_digest(&target, &capped),
            "the cap can hang the baseline"
        );
        let budgeted = RunLimits {
            step_budget: 500,
            ..limits
        };
        assert_ne!(d, base_digest(&target, &budgeted));
        assert_ne!(d, base_digest(&TcpTarget::default(), &limits));
        let short = GmpTarget {
            fault_secs: 5,
            ..GmpTarget::default()
        };
        let buggy = GmpTarget {
            bugs: pfi_gmp::GmpBugs::all(),
            ..GmpTarget::default()
        };
        let solaris = TcpTarget {
            profile: pfi_tcp::TcpProfile::solaris_2_3(),
            ..TcpTarget::default()
        };
        let chaos = crate::runner::ChaosOracleTarget {
            inner: target.share(),
        };
        for other in [&short as &dyn TestTarget, &buggy, &chaos] {
            assert_ne!(d, base_digest(other, &limits), "{other:?}");
        }
        let tcp = base_digest(&TcpTarget::default(), &limits);
        assert_ne!(tcp, base_digest(&solaris, &limits));
    }

    #[test]
    fn lookup_under_another_digest_is_a_miss() {
        let mut store = SnapshotStore::default();
        assert!(store.lookup(10).is_none(), "an empty slot misses");
        store.capture(10, &[], &World::new(7));
        assert!(store.lookup(10).is_some());
        assert!(store.lookup(99).is_none(), "never a wrong fork");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.stored), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_world_a_storm_blew_up_is_not_kept() {
        let mut store = SnapshotStore::default();
        let mut world = World::new(7);
        let record = |world: &mut World, n: usize| {
            for _ in 0..n {
                let now = world.now();
                world.trace_mut().record(now, NodeId::new(0), "test", 0u8);
            }
        };
        record(&mut world, RETIRED_TRACE_RECORDS);
        store.retire(world);
        let mut world = store.retired.take().expect("a healthy run's world is kept");
        record(&mut world, 1);
        store.retire(world);
        assert!(store.retired.is_none());
    }

    #[test]
    fn seeding_does_not_count_as_stored() {
        let mut master = SnapshotStore::default();
        master.capture(1, &[], &World::new(7));
        assert!(master.base.is_some());
        let store = SnapshotStore {
            base: master.base.clone(),
            ..SnapshotStore::default()
        };
        assert_eq!(store.stats().stored, 0);
        let other = SnapshotStats {
            hits: 2,
            misses: 1,
            stored: 1,
            events_skipped: 50,
            replayed: 1,
            inherited: 3,
        };
        let mut merged = store.stats().clone();
        merged.merge(&other);
        assert_eq!(merged, other);
    }
}

/// The inheritance rule ([`Parent::inherits`]) at each fault's boundary,
/// against the corruption it must guard, and as a differential property
/// over every bundled shape: a child the rule inherits, driven in full,
/// is its parent's run.
#[cfg(test)]
mod inheritance {
    use std::borrow::Cow;

    use pfi_core::{Direction, Filter, PacketStub, PfiLayer};
    use pfi_sim::{Context, Layer, Message, SimDuration, SimRng, SimTime};

    use super::*;
    use crate::coverage::Coverage;
    use crate::oracle::Oracle;
    use crate::runner::{
        bundled, execute, run_schedule_limited, Lowered, ScheduleRun, TcpTarget, TpcTarget,
    };
    use crate::schedule::ScheduleMutator;
    use crate::spec::ProtocolSpec;
    use crate::validate::schedule_is_installable;

    /// The default interpreter fuel: what every evaluation gets without a
    /// step budget.
    fn fuel() -> u64 {
        pfi_script::Interp::new().step_budget()
    }

    /// Knows one thing about a message: its first payload byte, as a
    /// one-letter type (`A`, `B`, …).
    #[derive(Debug, Clone, Copy)]
    struct FirstByte;

    impl PacketStub for FirstByte {
        fn protocol(&self) -> &'static str {
            "first-byte"
        }
        fn type_of(&self, msg: &Message) -> Option<String> {
            msg.byte_at(0).map(|b| char::from(b).to_string())
        }
        fn field(&self, _msg: &Message, _name: &str) -> Option<i64> {
            None
        }
        fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
            false
        }
        fn generate(&self, _src: NodeId, _args: &[String]) -> Result<Message, String> {
            Err("first-byte generates nothing".into())
        }
        fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
            Some(Box::new(*self))
        }
    }

    /// `n` messages of type `A` to node `dst`, `len` bytes each, as they
    /// reach the receive filter of node 0's layer.
    fn traffic(n: usize, dst: u32, len: usize) -> Vec<RecordedMsg> {
        let mut payload = vec![b'x'; len];
        payload[0] = b'A';
        (0..n)
            .map(|i| RecordedMsg {
                dir: Direction::Receive,
                time: SimTime::from_micros(i as u64),
                msg: Message::new(NodeId::new(1), NodeId::new(dst), &payload),
            })
            .collect()
    }

    /// What a tallying layer counts of `traffic`.
    fn tally_of(traffic: &[RecordedMsg]) -> Tally {
        let mut tally = Tally::default();
        for rec in traffic {
            let msg_type = FirstByte
                .type_name(&rec.msg)
                .unwrap_or(Cow::Borrowed("unknown"));
            tally.add(rec.dir, msg_type, rec.msg.dst().index(), rec.msg.len());
        }
        tally
    }

    /// Whether `op`'s lowered clause, the receive filter of a layer over
    /// [`FirstByte`], acts on `traffic` ([`PfiControl::Probe`]).
    fn acts(op: &FaultOp, traffic: Vec<RecordedMsg>) -> bool {
        let fault = ScheduledFault {
            site: 0,
            dir: Direction::Receive,
            op: op.clone(),
        };
        let [scripts] = &FaultSchedule {
            faults: vec![fault],
        }
        .lower()[..] else {
            unreachable!("one fault, one site")
        };
        let filter = Filter::script(&scripts.recv).expect("lowered scripts parse");
        let mut world = World::new(1);
        let node = world.add_node(vec![Box::new(
            PfiLayer::new(Box::new(FirstByte)).with_recv_filter(filter),
        )]);
        let range = 0..traffic.len();
        let probe = PfiControl::Probe {
            traffic: traffic.into(),
            range,
        };
        match world.control::<PfiReply>(node, 0, probe) {
            PfiReply::Probe(first) => first.is_some(),
            other => panic!("a probe answers with an index, not {other:?}"),
        }
    }

    /// A parent that added nothing, whose one fault site saw `traffic`.
    fn parent_of(traffic: &[RecordedMsg]) -> Parent {
        let outcome = (Verdict::Pass, None, Coverage::new());
        Parent::new(
            &FaultSchedule::empty(),
            Some(vec![tally_of(traffic)]),
            outcome,
        )
        .unwrap()
    }

    /// At the boundary of `op`, the rule and the lowered clause agree:
    /// over `quiet` the child adding `op` inherits and the clause does not
    /// act; over `loud` it does not inherit and the clause acts.
    fn boundary(op: FaultOp, quiet: Vec<RecordedMsg>, loud: Vec<RecordedMsg>) {
        let child = FaultSchedule {
            faults: vec![ScheduledFault {
                site: 0,
                dir: Direction::Receive,
                op: op.clone(),
            }],
        };
        assert!(parent_of(&quiet).inherits(&child, fuel()), "{op:?}, quiet");
        assert!(!acts(&op, quiet), "{op:?} acts on the quiet traffic");
        assert!(!parent_of(&loud).inherits(&child, fuel()), "{op:?}, loud");
        assert!(acts(&op, loud), "{op:?} does not act on the loud traffic");
    }

    fn a() -> String {
        "A".to_string()
    }

    #[test]
    fn drop_nth_is_inert_below_its_nth() {
        let op = FaultOp::DropNth {
            msg_type: a(),
            nth: 3,
        };
        boundary(op, traffic(2, 1, 4), traffic(3, 1, 4));
    }

    #[test]
    fn drop_after_is_inert_up_to_its_after() {
        let op = FaultOp::DropAfter {
            msg_type: a(),
            after: 3,
        };
        boundary(op, traffic(3, 1, 4), traffic(4, 1, 4));
    }

    #[test]
    fn drop_to_dest_is_inert_without_a_message_to_it() {
        let op = FaultOp::DropToDest {
            msg_type: a(),
            dst: 2,
        };
        boundary(
            op,
            traffic(5, 1, 4),
            [traffic(5, 1, 4), traffic(1, 2, 4)].concat(),
        );
    }

    #[test]
    fn corrupt_byte_is_inert_up_to_its_offset() {
        let op = FaultOp::CorruptByteAt {
            msg_type: a(),
            offset: 6,
            mask: 0x40,
        };
        boundary(
            op,
            traffic(5, 1, 6),
            [traffic(5, 1, 6), traffic(1, 1, 7)].concat(),
        );
    }

    #[test]
    fn every_other_fault_is_inert_without_its_type() {
        let ops = [
            FaultOp::DropAll { msg_type: a() },
            FaultOp::DelayMs {
                msg_type: a(),
                ms: 250,
            },
            FaultOp::Duplicate {
                msg_type: a(),
                copies: 1,
            },
            FaultOp::ReorderWindow {
                msg_type: a(),
                hold: 2,
            },
        ];
        for op in ops {
            boundary(op, traffic(0, 1, 4), traffic(1, 1, 4));
        }
    }

    /// Inert faults may come and go in a child; the live ones must stay,
    /// in order, and the step budget must cover every clause run in full.
    #[test]
    fn live_faults_and_the_step_budget_must_agree() {
        let fault = |op| ScheduledFault {
            site: 0,
            dir: Direction::Receive,
            op,
        };
        let drop = fault(FaultOp::DropAll { msg_type: a() });
        let delay = fault(FaultOp::DelayMs {
            msg_type: a(),
            ms: 250,
        });
        let inert = fault(FaultOp::DropAll {
            msg_type: "B".into(),
        });
        let schedule = |faults: &[&ScheduledFault]| FaultSchedule {
            faults: faults.iter().map(|&f| f.clone()).collect(),
        };
        let outcome = (Verdict::Pass, None, Coverage::new());
        let tally = Some(vec![tally_of(&traffic(3, 1, 4))]);
        let parent = Parent::new(&schedule(&[&drop, &delay]), tally, outcome).unwrap();
        assert!(parent.inherits(&schedule(&[&drop, &inert, &delay]), fuel()));
        assert!(
            !parent.inherits(&schedule(&[&delay, &drop]), fuel()),
            "reordered"
        );
        assert!(
            !parent.inherits(&schedule(&[&drop]), fuel()),
            "a live fault removed"
        );
        // `if`, `[msg_type]` and the action: three steps a clause.
        let child = schedule(&[&drop, &inert, &delay]);
        assert!(parent.inherits(&child, 9));
        assert!(!parent.inherits(&child, 8), "an evaluation could run out");
    }

    /// A violating or tally-less run hands nothing on.
    #[test]
    fn only_a_tallied_pass_or_degraded_run_is_a_parent() {
        let empty = FaultSchedule::empty();
        let tally = || Some(vec![Tally::default()]);
        let judged = |verdict| (verdict, None, Coverage::new());
        assert!(Parent::new(&empty, tally(), judged(Verdict::Pass)).is_some());
        assert!(Parent::new(&empty, tally(), judged(Verdict::Degraded("slow".into()))).is_some());
        for verdict in [
            Verdict::Violated("x".into()),
            Verdict::Crashed("x".into()),
            Verdict::Hung("x".into()),
        ] {
            assert!(Parent::new(&empty, tally(), judged(verdict)).is_none());
        }
        assert!(Parent::new(&empty, None, judged(Verdict::Pass)).is_none());
    }

    /// Sends node 1 a message every 100 ms whose first byte is `A`.
    #[derive(Debug, Clone)]
    struct Ticker;

    impl Layer for Ticker {
        fn name(&self) -> &'static str {
            "ticker"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, _msg: Message, _ctx: &mut Context<'_>) {}
        fn timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            ctx.send_down(Message::new(ctx.node(), NodeId::new(1), b"Ahello"));
            ctx.set_timer(SimDuration::from_millis(100), 0);
        }
        fn control(
            &mut self,
            _op: Box<dyn std::any::Any>,
            ctx: &mut Context<'_>,
        ) -> Box<dyn std::any::Any> {
            ctx.set_timer(SimDuration::from_millis(100), 0);
            Box::new(())
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Traces the type of every message that reaches it.
    #[derive(Debug, Clone)]
    struct Sink;

    /// A [`Sink`]'s trace record, read through its rendered form.
    #[derive(Debug, Clone)]
    #[allow(dead_code)]
    struct Delivered(char);

    impl Layer for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.emit(Delivered(char::from(msg.byte_at(0).unwrap_or(0))));
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Node 0 ticks `A` messages at node 1, whose [`FirstByte`] PFI layer
    /// is the one fault site.
    #[derive(Debug, Clone)]
    struct TickTarget;

    impl TestTarget for TickTarget {
        fn name(&self) -> &'static str {
            "tick"
        }
        fn seed(&self) -> u64 {
            1
        }
        fn node_count(&self) -> u32 {
            2
        }
        fn build(&self) -> (World, Vec<(NodeId, usize)>) {
            let mut world = World::new(self.seed());
            let source = world.add_node(vec![Box::new(Ticker)]);
            let sink = world.add_node(vec![
                Box::new(Sink),
                Box::new(PfiLayer::new(Box::new(FirstByte))),
            ]);
            world.control::<()>(source, 0, ());
            (world, vec![(sink, 1)])
        }
        fn drive(&self, world: &mut World, limits: &RunLimits) -> bool {
            world.run_for_capped(SimDuration::from_secs(1), limits.event_cap) == limits.event_cap
        }
        fn oracles(&self) -> Vec<Box<dyn Oracle>> {
            Vec::new()
        }
        fn verdict(&self, _world: &mut World) -> Verdict {
            Verdict::Pass
        }
        fn share(&self) -> Arc<dyn TestTarget> {
            Arc::new(self.clone())
        }
    }

    /// `schedule` built, installed, driven and harvested in full — no
    /// store, no probe, no parent — and its trace rendered.
    fn driven_trace(target: &dyn TestTarget, schedule: &FaultSchedule) -> Vec<String> {
        let (mut world, sites) = target.build();
        world.trace_timers = true;
        for s in &schedule.lower() {
            let (node, pfi_layer) = sites[s.site as usize];
            for (script, install) in [
                (&s.send, PfiControl::SetSendFilter as fn(Filter) -> _),
                (&s.recv, PfiControl::SetRecvFilter as fn(Filter) -> _),
            ] {
                if !script.is_empty() {
                    let filter = Filter::script(script).expect("lowered scripts parse");
                    let _: PfiReply = world.control(node, pfi_layer, install(filter));
                }
            }
        }
        target.drive(&mut world, &RunLimits::default());
        target.harvest(&mut world);
        world.trace().render()
    }

    /// `schedule`'s forked run through `store`, and the parent it makes.
    fn forked(
        target: &dyn TestTarget,
        schedule: &FaultSchedule,
        store: &mut SnapshotStore,
    ) -> (ScheduleRun, Option<Parent>) {
        let lowered = Lowered::check(schedule.id(), schedule.lower(), target.fault_sites());
        let (run, tally) = execute(target, lowered, &RunLimits::default(), Some(store));
        let outcome = (
            run.verdict.clone(),
            run.oracle.clone(),
            run.coverage.clone(),
        );
        (run, Parent::new(schedule, tally, outcome))
    }

    /// The tally counts a message as it reaches the filter. A
    /// `corrupt-byte` that turns `A` into `B` ahead of a clause makes that
    /// clause see a `B` the tally never counted: a child adding
    /// `drop-all B` behind the parent's corruption drops what the parent
    /// delivered, so the rule must refuse it.
    #[test]
    fn a_shared_corruption_guards_the_faults_behind_it() {
        let target = TickTarget;
        let mut store = SnapshotStore::default();
        forked(&target, &FaultSchedule::empty(), &mut store);
        let parent_schedule = FaultSchedule::from_id("n0 recv corrupt-byte A 0 3").unwrap();
        let child =
            FaultSchedule::from_id("n0 recv corrupt-byte A 0 3 + n0 recv drop-all B").unwrap();
        let (_, parent) = forked(&target, &parent_schedule, &mut store);
        let parent = parent.expect("a driven, passing run is a parent");
        let tally = &parent.tally[0];
        assert!(
            tally.rows().iter().all(|r| r.msg_type == "A"),
            "the tally saw only A: {tally:?}"
        );
        assert!(!parent.inherits(&child, fuel()), "the guard refuses");
        let (parent_trace, child_trace) = (
            driven_trace(&target, &parent_schedule),
            driven_trace(&target, &child),
        );
        assert!(parent_trace.iter().any(|l| l.contains("Delivered('B')")));
        assert_ne!(
            child_trace, parent_trace,
            "the child drops what the parent delivered"
        );
        // Without the corruption, the same added fault is inert.
        let (_, plain) = forked(&target, &FaultSchedule::empty(), &mut store);
        assert!(plain.is_none(), "the baseline's replay is no parent");
        let parent_schedule = FaultSchedule::from_id("n0 recv delay-ms A 250").unwrap();
        let child = FaultSchedule::from_id("n0 recv delay-ms A 250 + n0 recv drop-all B").unwrap();
        let (_, parent) = forked(&target, &parent_schedule, &mut store);
        assert!(parent.unwrap().inherits(&child, fuel()));
        assert_eq!(
            driven_trace(&target, &parent_schedule),
            driven_trace(&target, &child)
        );
    }

    /// Parents tried per shape per seed, and mutants tried per parent.
    const PARENTS: usize = 12;
    const CHILDREN: usize = 8;

    fn seeds() -> u64 {
        std::env::var("PFI_INHERIT_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }

    /// The property on one shape: parents grown as a campaign grows its
    /// corpus, each forked and driven through one store; every mutant the
    /// rule says inherits is driven in full and must be its parent's run —
    /// verdict, oracle, coverage and trace. Returns `(inherited, tried)`.
    /// The chain starts from `acting`, a fault on a message that does
    /// flow: mutants of the empty schedule mostly fault types a run never
    /// sends, and are replayed from the baseline rather than parents.
    fn inherited_children_are_their_parents_runs(
        target: &dyn TestTarget,
        spec: &ProtocolSpec,
        acting: &str,
        seed: u64,
    ) -> (usize, usize) {
        let mutator = ScheduleMutator::new(spec, target.node_count(), target.fault_sites());
        let mut rng = SimRng::seed_from(seed);
        let mut store = SnapshotStore::default();
        forked(target, &FaultSchedule::empty(), &mut store);
        let mut pool: Vec<FaultSchedule> = Vec::new();
        let mut next = FaultSchedule::from_id(acting).expect("fixture schedule");
        let (mut inherited, mut tried) = (0, 0);
        let installable = |s: &FaultSchedule| schedule_is_installable(s, target.fault_sites());
        while pool.len() < PARENTS {
            let schedule = next;
            let pick = rng.uniform_u64(0, pool.len() as u64 + 1) as usize;
            next = mutator.mutate(pool.get(pick).unwrap_or(&schedule), 3, &mut rng);
            if !installable(&schedule) || pool.contains(&schedule) {
                continue;
            }
            pool.push(schedule.clone());
            let (run, Some(parent)) = forked(target, &schedule, &mut store) else {
                continue;
            };
            let mut parent_trace = None;
            for _ in 0..CHILDREN {
                let child = mutator.mutate(&schedule, 3, &mut rng);
                if !installable(&child) {
                    continue;
                }
                tried += 1;
                if !parent.inherits(&child, fuel()) {
                    continue;
                }
                inherited += 1;
                let id = format!("{} <- {}", child.id(), schedule.id());
                let driven = run_schedule_limited(target, &child, &RunLimits::default());
                assert_eq!(driven.verdict, run.verdict, "{id}");
                assert_eq!(driven.oracle, run.oracle, "{id}");
                assert_eq!(driven.coverage, run.coverage, "{id}");
                let want = parent_trace.get_or_insert_with(|| driven_trace(target, &schedule));
                let got = driven_trace(target, &child);
                assert_eq!(got.len(), want.len(), "{id}");
                for (n, (got, want)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(got, want, "{id}, trace line {n}");
                }
            }
        }
        (inherited, tried)
    }

    #[test]
    fn an_inherited_child_runs_as_its_parent_on_every_shape() {
        let (_, buggy) = bundled("gmp", true, 60).unwrap();
        let heartbeat = "n1 recv drop-nth HEARTBEAT 3";
        let shapes: [(&str, Arc<dyn TestTarget>, ProtocolSpec, &str); 5] = [
            (
                "gmp 5 s",
                bundled("gmp", false, 5).unwrap().1,
                ProtocolSpec::gmp(),
                heartbeat,
            ),
            (
                "gmp 60 s",
                bundled("gmp", false, 60).unwrap().1,
                ProtocolSpec::gmp(),
                heartbeat,
            ),
            ("gmp --buggy", buggy, ProtocolSpec::gmp(), heartbeat),
            (
                "tcp",
                Arc::new(TcpTarget::default()),
                ProtocolSpec::tcp(),
                "n0 recv drop-nth DATA 2",
            ),
            (
                "tpc",
                Arc::new(TpcTarget),
                ProtocolSpec::two_phase_commit(),
                "n1 recv delay-ms PREPARE 250",
            ),
        ];
        for (shape, target, spec, acting) in shapes {
            let (mut inherited, mut tried) = (0, 0);
            for seed in 0..seeds() {
                let (i, t) = inherited_children_are_their_parents_runs(
                    target.as_ref(),
                    &spec,
                    acting,
                    0x1e1 + seed,
                );
                inherited += i;
                tried += t;
            }
            println!("{shape}: {inherited} of {tried} mutants inherited, each driven and equal");
            assert!(
                inherited >= 2,
                "{shape}: {inherited} of {tried} — the property is vacuous"
            );
        }
    }
}
