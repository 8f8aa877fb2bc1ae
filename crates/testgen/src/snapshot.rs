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
//! Two steps use the store. Preparing ([`SnapshotStore::prepare`], on a
//! miss) builds the world, arms it, captures it and drives the fault-free
//! baseline from it with every fault site tallied ([`Tally`]): the
//! baseline is the only run that makes a base. When it passes or degrades
//! it is the root of the corpus, a [`Parent`] like every forked and driven
//! member. Settling ([`SnapshotStore::settle`], before every lookup) is
//! the only place a run is handed an earlier run's outcome: a schedule
//! whose faults cannot act on the traffic its epoch parent tallied runs as
//! that parent did (`SnapshotStats::inherited`), and one whose faults
//! cannot act on the baseline's runs as the baseline did
//! (`SnapshotStats::replayed`); neither is forked. And the world a run
//! leaves behind is kept by the store ([`SnapshotStore::retired`]) for the
//! next run to restore into, so a fork stops allocating a world and
//! freeing one.
//!
//! Fork-equivalence is load-bearing: filter installation emits no trace
//! events and draws no RNG, and preparation never advances virtual time,
//! so a forked run is byte-identical to a cold one (`tests/snapshot_fork.rs`
//! and the property suite prove it). [`Verdict::Invalid`](crate::Verdict)
//! schedules are refused *before* the store is consulted — they never
//! perturb its statistics.

use std::fmt;
use std::sync::Arc;

use pfi_core::lower::{Clause, Reach};
use pfi_core::{Direction, Tally, TallyRow};
use pfi_sim::fnv::Fnv;
use pfi_sim::{NodeId, World, WorldSnapshot};

use crate::coverage::Coverage;
use crate::runner::{
    armed, judge, take_tallies, tally, Built, Outcome, RunLimits, TestTarget, Verdict,
};
use crate::schedule::{FaultOp, FaultSchedule, ScheduledFault};

/// The digest identifying `target`'s prepared fault-free base world under
/// `limits`, and the baseline run from it. Covers everything that
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
    /// The fault-free baseline driven from it, when it passed or degraded.
    pub(crate) baseline: Option<Baseline>,
}

/// The fault-free baseline's run, as every later run from its base world
/// reads it. It lives with the campaign's base world and nowhere shared —
/// it is only meaningful against that world (same target, same limits),
/// and goes when it goes: at the campaign's end, or, on a
/// [`crate::CampaignFleet`] that keeps the base for the next campaign of
/// the same target, when that pool lets it go.
pub(crate) struct Baseline {
    /// What it hands on: no fault, each site's tally, its verdict.
    pub(crate) root: Parent,
    /// Its coverage, which a run it settles outside a campaign's
    /// candidates reports too.
    coverage: Coverage,
}

/// A corpus member this campaign drove, as its mutants read it: the faults
/// it ran, what reached each fault site's filters ([`Tally`]) and how it
/// was judged. Only a tallied run that passed or degraded leaves one
/// ([`Parent::new`]): the baseline, and every forked, driven run. A member
/// replayed from a resume journal has no tally, and a violating or
/// infrastructure outcome is not one to hand on.
#[derive(Debug)]
pub(crate) struct Parent {
    schedule: FaultSchedule,
    /// Per fault site, the tally of its run.
    tally: Vec<Tally>,
    /// Its verdict and oracle (none). Its coverage is not kept: a child
    /// handed them adds nothing to a union that already holds it.
    verdict: Verdict,
    oracle: Option<String>,
}

impl Parent {
    /// The parent `schedule`'s run makes, when it was tallied and judged
    /// `Pass` or `Degraded`.
    pub(crate) fn new(
        schedule: &FaultSchedule,
        tally: Option<Vec<Tally>>,
        verdict: Verdict,
        oracle: Option<String>,
    ) -> Option<Parent> {
        let handed_on = matches!(verdict, Verdict::Pass | Verdict::Degraded(_));
        Some(Parent {
            schedule: schedule.clone(),
            tally: tally.filter(|_| handed_on)?,
            verdict,
            oracle,
        })
    }

    /// The rows of `site`'s tally for `dir`'s filter.
    fn rows(&self, site: u32, dir: Direction) -> impl Iterator<Item = &TallyRow> + Clone {
        self.tally[site as usize]
            .rows()
            .iter()
            .filter(move |r| r.dir == dir)
    }

    /// Whether `fault` cannot act on the traffic the parent tallied at its
    /// site and direction: its lowered clause finds no message of its
    /// type, or its window never opens, or its guard never holds.
    fn inert(&self, fault: &ScheduledFault) -> bool {
        let rows = self
            .rows(fault.site, fault.dir)
            .filter(|r| r.msg_type == fault.op.msg_type());
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

    /// Whether no evaluation of `child`'s filters on the parent's traffic
    /// can run out of `fuel`, the steps each evaluation gets. A message
    /// costs a filter each clause's [steps](Clause::steps) as far as the
    /// clause can get on a message of its type: past a guard of another
    /// type, to another destination, into a shut window, or through its
    /// action on the longest message it admits. So a message whose type
    /// no clause names costs the `if` and `[msg_type]` of each — what the
    /// type gate skips when the budget covers them — and any other costs
    /// those guards plus the bodies of the clauses for its type.
    fn fits(&self, child: &FaultSchedule, fuel: u64) -> bool {
        let clauses: Vec<(&ScheduledFault, Clause)> = child
            .faults
            .iter()
            .flat_map(|f| f.op.clauses().into_iter().map(move |c| (f, c)))
            .collect();
        let in_full: u64 = clauses
            .iter()
            .map(|(_, c)| c.steps(Reach::Open(usize::MAX)))
            .sum();
        if in_full <= fuel {
            return true;
        }
        clauses.iter().all(|(f, _)| {
            let rows = self.rows(f.site, f.dir);
            let filter = || {
                clauses
                    .iter()
                    .filter(|(g, _)| g.site == f.site && g.dir == f.dir)
            };
            rows.clone().all(|row| {
                let cost: u64 = filter()
                    .map(|(_, c)| most_steps(c, &row.msg_type, rows.clone()))
                    .sum();
                cost <= fuel
            })
        })
    }

    /// Whether `child` runs exactly as this parent did, so that its
    /// outcome is the parent's. It does when, against the parent's tally:
    ///
    /// * the two schedules are the same sequence once every fault that is
    ///   [inert](Parent::inert) is taken out of both — so every fault one
    ///   has and the other lacks is inert;
    /// * on a site and direction where the two differ, no `corrupt-byte`
    ///   they share can rewrite a message before a fault that differs
    ///   reads its type, length or destination: the tally counted each
    ///   message as it reached the filter;
    /// * its filters cannot run out of steps ([`fits`](Parent::fits)).
    ///   The parent's did not: a run whose filter ran out is judged hung,
    ///   and leaves no parent.
    ///
    /// By induction over the child's run: up to the first message that
    /// reaches a fault site both runs are the base's; a filter evaluation
    /// makes the parent's decisions — the shared clauses see the parent's
    /// message in the parent's state, and an inert one does nothing, its
    /// counter private to it — so the next message is the parent's next
    /// message.
    pub(crate) fn inherits(&self, child: &FaultSchedule, fuel: u64) -> bool {
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
        child
            .faults
            .iter()
            .filter(live)
            .eq(parent.faults.iter().filter(live))
            && !child.faults.iter().any(unguarded)
            && self.fits(child, fuel)
    }
}

/// The most steps `clause` takes on a message of type `label`, at a
/// filter whose traffic over a run is `rows`.
fn most_steps<'a>(clause: &Clause, label: &str, rows: impl Iterator<Item = &'a TallyRow>) -> u64 {
    if clause.msg_type.as_deref().is_some_and(|t| t != label) {
        return clause.steps(Reach::OtherType);
    }
    let (mut admitted, mut longest, mut missed) = (0, 0, 0);
    for row in rows.filter(|r| clause.msg_type.is_none() || r.msg_type == label) {
        if clause.dst.is_some_and(|d| row.dst != d as usize) {
            missed = clause.steps(Reach::OtherDst);
        } else {
            admitted += row.count;
            longest = longest.max(row.longest);
        }
    }
    let reach = match admitted {
        0 => return missed,
        n if clause.window.opens_within(n) => Reach::Open(longest),
        _ => Reach::Shut,
    };
    missed.max(clause.steps(reach))
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
    /// Runs that were not forked at all: none of their faults can act on
    /// the traffic the fault-free baseline tallied, so settling handed
    /// them the baseline's outcome — a later campaign's baseline on a
    /// kept base too. A pure function of the candidate, like `hits` (and
    /// like `hits` it counts live executions only — work a resume replays
    /// from its journal ran nothing).
    pub replayed: u64,
    /// Mutants that were not forked at all: every fault they add to,
    /// remove from or replace in their epoch parent cannot act on the
    /// traffic that parent's driven run tallied, so settling handed them
    /// the parent's outcome (`Parent::inherits`). A pure function of the
    /// candidate and its parent, counted, like `replayed`, only for live
    /// executions; settling asks the parent first.
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
/// empty ([`Default`]): the first run through it misses and prepares the
/// base; every later run of the same target and limits is settled or
/// forks. The campaign master fills one with its baseline run; every
/// executing candidate gets its own, holding the base it was dispatched
/// with, so hit/miss statistics are a pure function of the candidate
/// (never of how candidates landed on workers).
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
    /// Whether the runs through this store are a campaign's candidates,
    /// merged into a union that holds the baseline's coverage from the
    /// start: a run the baseline settles then reports none, rather than a
    /// copy of it for the merge to walk.
    pub(crate) candidates: bool,
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

    /// Prepares the base under `digest` on a miss: builds `target`'s
    /// world, arms it, captures it — replacing any other base, and counting
    /// toward [`SnapshotStats::stored`] — and drives the fault-free
    /// baseline from it with every fault site tallied. A baseline that
    /// passed or degraded stays with the base, the root of every corpus
    /// forked from it. Answers the baseline's outcome; or, from a world
    /// that refuses capture (a layer that cannot clone: native filters,
    /// unclonable stubs), that world as built, for the run to go on cold in
    /// it, with the slot as it was.
    pub(crate) fn prepare(
        &mut self,
        target: &dyn TestTarget,
        digest: u64,
        limits: &RunLimits,
    ) -> Result<Outcome, Box<Built>> {
        let (mut world, sites) = armed(target, limits);
        let Ok(snapshot) = world.try_snapshot() else {
            return Err(Box::new((world, sites)));
        };
        self.stats.stored += 1;
        // Captured before anything tallies, so no fork ever does.
        tally(&mut world, &sites);
        let outcome = judge(target, &mut world, limits);
        let (verdict, oracle, coverage) = outcome.clone();
        let tally = Some(take_tallies(&mut world, &sites));
        let root = Parent::new(&FaultSchedule::empty(), tally, verdict, oracle);
        self.base = Some(Arc::new(BaseWorld {
            digest,
            sites,
            world: snapshot,
            baseline: root.map(|root| Baseline { root, coverage }),
        }));
        Ok(outcome)
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

    /// The outcome `schedule` is handed without being forked, when a run
    /// it repeats [hands it on](Parent::inherits) at `fuel` steps an
    /// evaluation: its epoch `parent`'s (one inherited), asked first, or
    /// else the baseline's, the root of the base held under `digest` (one
    /// replayed). A parent's coverage is not kept, so a run it settles
    /// reports none; one the baseline settles reports the baseline's,
    /// unless it is a campaign's [candidate](SnapshotStore::candidates).
    pub(crate) fn settle(
        &mut self,
        digest: u64,
        schedule: &FaultSchedule,
        parent: Option<&Parent>,
        fuel: u64,
    ) -> Option<Outcome> {
        if let Some(parent) = parent.filter(|parent| parent.inherits(schedule, fuel)) {
            self.stats.inherited += 1;
            return Some((
                parent.verdict.clone(),
                parent.oracle.clone(),
                Coverage::new(),
            ));
        }
        let base = self.base.as_ref().filter(|base| base.digest == digest)?;
        let Baseline { root, coverage } = base.baseline.as_ref()?;
        if !root.inherits(schedule, fuel) {
            return None;
        }
        self.stats.replayed += 1;
        let coverage = match self.candidates {
            true => Coverage::new(),
            false => coverage.clone(),
        };
        Some((root.verdict.clone(), root.oracle.clone(), coverage))
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

    /// A base of an empty world under `digest`, with no baseline.
    fn bare_base(digest: u64) -> Option<Arc<BaseWorld>> {
        Some(Arc::new(BaseWorld {
            digest,
            sites: Vec::new(),
            world: World::new(7).try_snapshot().unwrap(),
            baseline: None,
        }))
    }

    #[test]
    fn lookup_under_another_digest_is_a_miss() {
        let mut store = SnapshotStore::default();
        assert!(store.lookup(10).is_none(), "an empty slot misses");
        store.base = bare_base(10);
        assert!(store.lookup(10).is_some());
        assert!(store.lookup(99).is_none(), "never a wrong fork");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.stored), (1, 2, 0));
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
        let store = SnapshotStore {
            base: bare_base(1),
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
    use pfi_core::{Direction, Filter, PacketStub, PfiControl, PfiLayer, PfiReply};
    use pfi_sim::{Context, Layer, Message, SimDuration, SimRng};

    use super::*;
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

    /// Passes messages through, and sends down a message its control op
    /// hands it.
    #[derive(Debug, Clone)]
    struct Wire;

    impl Layer for Wire {
        fn name(&self) -> &'static str {
            "wire"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_up(msg);
        }
        fn control(
            &mut self,
            op: Box<dyn std::any::Any>,
            ctx: &mut Context<'_>,
        ) -> Box<dyn std::any::Any> {
            let msg = op.downcast::<Message>().expect("a message to send");
            ctx.send_down(*msg);
            Box::new(())
        }
    }

    /// `n` messages of type `A` from node 0 to node `dst`, `len` bytes
    /// each.
    fn traffic(n: usize, dst: u32, len: usize) -> Vec<Message> {
        let mut payload = vec![b'x'; len];
        payload[0] = b'A';
        let msg = Message::new(NodeId::new(0), NodeId::new(dst), &payload);
        vec![msg; n]
    }

    /// `traffic`, sent 10 ms apart through node 0's send filter `script`
    /// (none when empty) — a tallying PFI layer over [`FirstByte`], at a
    /// step budget of `fuel` — to nodes 1 and 2: what came out, every
    /// delivered message with its time and the trace, and the tally of
    /// what reached the filter.
    fn drive(script: &str, traffic: &[Message], fuel: u64) -> (Vec<String>, Tally) {
        let mut pfi = PfiLayer::new(Box::new(FirstByte));
        if !script.is_empty() {
            pfi = pfi.with_send_filter(Filter::script(script).expect("lowered scripts parse"));
        }
        let mut world = World::new(1);
        let node = world.add_node(vec![Box::new(Wire), Box::new(pfi)]);
        let sinks = [
            world.add_node(vec![Box::new(Wire)]),
            world.add_node(vec![Box::new(Wire)]),
        ];
        let _: PfiReply = world.control(node, 1, PfiControl::SetStepBudget(fuel));
        let _: PfiReply = world.control(node, 1, PfiControl::Tally);
        for msg in traffic {
            world.control::<()>(node, 0, msg.clone());
            world.run_for(SimDuration::from_millis(10));
        }
        world.run_for(SimDuration::from_secs(1));
        let PfiReply::Tally(tally) = world.control(node, 1, PfiControl::TakeTally) else {
            panic!("TakeTally answers with the tally");
        };
        let mut out: Vec<String> = sinks
            .into_iter()
            .flat_map(|sink| world.drain_inbox(sink))
            .map(|(at, msg)| format!("{at:?} {} {:?}", msg.dst(), msg.bytes()))
            .collect();
        out.extend(world.trace().render());
        (out, tally)
    }

    /// A parent that added nothing, whose one fault site tallied `tally`.
    fn parent_of(tally: Tally) -> Parent {
        Parent::new(
            &FaultSchedule::empty(),
            Some(vec![tally]),
            Verdict::Pass,
            None,
        )
        .unwrap()
    }

    /// At the boundary of `op` on node 0's send filter, the rule and the
    /// lowered clause agree: over `quiet` the child adding `op` inherits
    /// and the clause changes nothing that comes out; over `loud` it does
    /// not inherit and the clause changes what comes out.
    fn boundary(op: FaultOp, quiet: Vec<Message>, loud: Vec<Message>) {
        let child = FaultSchedule {
            faults: vec![ScheduledFault {
                site: 0,
                dir: Direction::Send,
                op: op.clone(),
            }],
        };
        let [scripts] = &child.lower()[..] else {
            unreachable!("one fault, one site")
        };
        for (traffic, inert) in [(quiet, true), (loud, false)] {
            let (plain, tally) = drive("", &traffic, fuel());
            let inherits = parent_of(tally).inherits(&child, fuel());
            assert_eq!(inherits, inert, "{op:?}, inert: {inert}");
            let (faulted, _) = drive(&scripts.send, &traffic, fuel());
            assert_eq!(faulted == plain, inert, "{op:?}, inert: {inert}");
        }
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
    /// in order, and no evaluation of the child's filters may run out of
    /// steps.
    #[test]
    fn live_faults_and_the_step_budget_must_agree() {
        let fault = |op| ScheduledFault {
            site: 0,
            dir: Direction::Send,
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
        let (_, tally) = drive("", &traffic(3, 1, 4), fuel());
        let parent = Parent::new(
            &schedule(&[&drop, &delay]),
            Some(vec![tally]),
            Verdict::Pass,
            None,
        )
        .unwrap();
        assert!(parent.inherits(&schedule(&[&drop, &inert, &delay]), fuel()));
        assert!(
            !parent.inherits(&schedule(&[&delay, &drop]), fuel()),
            "reordered"
        );
        assert!(
            !parent.inherits(&schedule(&[&drop]), fuel()),
            "a live fault removed"
        );
        // On an `A`: the `if` and `[msg_type]` of every clause, and the
        // action of the two for `A` — eight steps.
        let child = schedule(&[&drop, &inert, &delay]);
        assert!(parent.inherits(&child, 8));
        assert!(!parent.inherits(&child, 7), "an evaluation could run out");
    }

    /// The step bound is the evaluation's, message type by message type:
    /// a type no clause names costs only the guards, which the type gate
    /// skips; an inert clause of the type costs its guard and a shut
    /// window, not its action. At each bound the child's filter runs on
    /// the parent's traffic without running out, and one step below it
    /// the filter fails and changes what comes out.
    #[test]
    fn the_step_bound_is_what_the_filter_takes_on_the_traffic() {
        let fault = |op| ScheduledFault {
            site: 0,
            dir: Direction::Send,
            op,
        };
        let quiet = traffic(2, 1, 4);
        let (plain, tally) = drive("", &quiet, fuel());
        let parent = parent_of(tally);
        let cases = [
            // Not an `A` in sight for `B`: two steps a clause.
            (
                vec![FaultOp::DropAll {
                    msg_type: "B".into(),
                }],
                2,
            ),
            (
                vec![
                    FaultOp::DropAll {
                        msg_type: "B".into(),
                    },
                    FaultOp::DelayMs {
                        msg_type: "C".into(),
                        ms: 5,
                    },
                ],
                4,
            ),
            // An `A` meets `drop-nth A 3` with its window shut: `if`,
            // `[msg_type]`, `incr` and the window's `if`.
            (
                vec![FaultOp::DropNth {
                    msg_type: a(),
                    nth: 3,
                }],
                4,
            ),
            // No `A` goes to node 2: `[msg_dst]` is as far as it gets.
            (
                vec![
                    FaultOp::DropToDest {
                        msg_type: a(),
                        dst: 2,
                    },
                    FaultOp::DropAll {
                        msg_type: "B".into(),
                    },
                ],
                5,
            ),
            // Four bytes is not longer than offset 6: the length guard.
            (
                vec![FaultOp::CorruptByteAt {
                    msg_type: a(),
                    offset: 6,
                    mask: 1,
                }],
                4,
            ),
        ];
        for (ops, steps) in cases {
            let child = FaultSchedule {
                faults: ops.into_iter().map(fault).collect(),
            };
            let [scripts] = &child.lower()[..] else {
                unreachable!("one site")
            };
            assert!(parent.inherits(&child, steps), "{}", child.id());
            assert!(!parent.inherits(&child, steps - 1), "{}", child.id());
            assert_eq!(
                drive(&scripts.send, &quiet, steps).0,
                plain,
                "{}",
                child.id()
            );
            assert_ne!(
                drive(&scripts.send, &quiet, steps - 1).0,
                plain,
                "{}",
                child.id()
            );
        }
    }

    /// A violating or tally-less run hands nothing on.
    #[test]
    fn only_a_tallied_pass_or_degraded_run_is_a_parent() {
        let empty = FaultSchedule::empty();
        let tally = || Some(vec![Tally::default()]);
        assert!(Parent::new(&empty, tally(), Verdict::Pass, None).is_some());
        assert!(Parent::new(&empty, tally(), Verdict::Degraded("slow".into()), None).is_some());
        for verdict in [
            Verdict::Violated("x".into()),
            Verdict::Crashed("x".into()),
            Verdict::Hung("x".into()),
        ] {
            assert!(Parent::new(&empty, tally(), verdict, None).is_none());
        }
        assert!(Parent::new(&empty, None, Verdict::Pass, None).is_none());
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
    /// store, no parent — and its trace rendered.
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

    /// `schedule`'s run through `store` — forked and driven whatever the
    /// rule says, as a hand-written filter is — and the parent it makes.
    fn forked(
        target: &dyn TestTarget,
        schedule: &FaultSchedule,
        store: &mut SnapshotStore,
    ) -> (ScheduleRun, Option<Parent>) {
        let lowered = Lowered::check(schedule.id(), schedule.lower(), target.fault_sites());
        let limits = RunLimits::default();
        let (run, tally) = execute(target, None, lowered, &limits, Some(store), None);
        let parent = Parent::new(schedule, tally, run.verdict.clone(), run.oracle.clone());
        (run, parent)
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

    /// Mutates `schedule`, whose run was `run`, [`CHILDREN`] times: every
    /// installable mutant `parent` hands on to is driven in full and must
    /// be that run — verdict, oracle, coverage and trace. Returns
    /// `(inherited, tried)`.
    fn children_run_as_their_parent(
        target: &dyn TestTarget,
        mutator: &ScheduleMutator,
        rng: &mut SimRng,
        (schedule, run, parent): (&FaultSchedule, &ScheduleRun, &Parent),
    ) -> (usize, usize) {
        let (mut inherited, mut tried) = (0, 0);
        let mut parent_trace = None;
        for _ in 0..CHILDREN {
            let child = mutator.mutate(schedule, 3, rng);
            if !schedule_is_installable(&child, target.fault_sites()) {
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
            let want = parent_trace.get_or_insert_with(|| driven_trace(target, schedule));
            let got = driven_trace(target, &child);
            assert_eq!(got.len(), want.len(), "{id}");
            for (n, (got, want)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(got, want, "{id}, trace line {n}");
            }
        }
        (inherited, tried)
    }

    /// The property on one shape: the baseline, the corpus's root, and
    /// parents grown as a campaign grows its corpus, each forked and driven
    /// through one store; every mutant the rule says inherits is driven in
    /// full and must be its parent's run. Returns `(inherited from the
    /// baseline, inherited, tried)`. The chain of other parents starts from
    /// `acting`, a fault on a message that does flow: mutants of the empty
    /// schedule mostly fault types a run never sends, and inherit from the
    /// baseline.
    fn inherited_children_are_their_parents_runs(
        target: &dyn TestTarget,
        spec: &ProtocolSpec,
        acting: &str,
        seed: u64,
    ) -> (usize, usize, usize) {
        let mutator = ScheduleMutator::new(spec, target.node_count(), target.fault_sites());
        let mut rng = SimRng::seed_from(seed);
        let mut store = SnapshotStore::default();
        let empty = FaultSchedule::empty();
        let (baseline_run, _) = forked(target, &empty, &mut store);
        let base = Arc::clone(store.base.as_ref().expect("the baseline captures the base"));
        let root = &base.baseline.as_ref().expect("a passing baseline").root;
        let (from_root, mut tried) =
            children_run_as_their_parent(target, &mutator, &mut rng, (&empty, &baseline_run, root));
        let mut inherited = from_root;
        let mut pool: Vec<FaultSchedule> = Vec::new();
        let mut next = FaultSchedule::from_id(acting).expect("fixture schedule");
        while pool.len() < PARENTS {
            let schedule = next;
            let pick = rng.uniform_u64(0, pool.len() as u64 + 1) as usize;
            next = mutator.mutate(pool.get(pick).unwrap_or(&schedule), 3, &mut rng);
            if !schedule_is_installable(&schedule, target.fault_sites()) || pool.contains(&schedule)
            {
                continue;
            }
            pool.push(schedule.clone());
            let (run, Some(parent)) = forked(target, &schedule, &mut store) else {
                continue;
            };
            let (i, t) = children_run_as_their_parent(
                target,
                &mutator,
                &mut rng,
                (&schedule, &run, &parent),
            );
            inherited += i;
            tried += t;
        }
        (from_root, inherited, tried)
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
            let (mut from_root, mut inherited, mut tried) = (0, 0, 0);
            for seed in 0..seeds() {
                let (r, i, t) = inherited_children_are_their_parents_runs(
                    target.as_ref(),
                    &spec,
                    acting,
                    0x1e1 + seed,
                );
                from_root += r;
                inherited += i;
                tried += t;
            }
            println!(
                "{shape}: {inherited} of {tried} mutants inherited ({from_root} from the \
                 baseline), each driven and equal"
            );
            assert!(
                from_root >= 2 && inherited - from_root >= 2,
                "{shape}: {inherited} of {tried}, {from_root} from the baseline — the property \
                 is vacuous"
            );
        }
    }
}
