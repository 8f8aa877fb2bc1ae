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
//! being driven (`SnapshotStats::replayed` counts them). And the world a
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

use pfi_core::{PfiControl, PfiReply, RecordedMsg};
use pfi_sim::fnv::Fnv;
use pfi_sim::{NodeId, World, WorldSnapshot};

use crate::runner::{Outcome, RunLimits, TestTarget};
use crate::schedule::SiteScripts;

/// The digest identifying `target`'s prepared fault-free base world under
/// `limits`. Covers exactly what shapes the world before any filter is
/// installed: the target's name and world seed, and the interpreter step
/// budget (armed on every fault site at prepare time). The event cap is
/// deliberately excluded — it bounds the *drive*, not the prepared world.
pub fn base_digest(target: &dyn TestTarget, limits: &RunLimits) -> u64 {
    let mut h = Fnv::new();
    h.write_str(target.name());
    h.write_u64(target.seed());
    h.write_u64(limits.step_budget);
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
/// against that world (same target, same limits), and goes when it goes.
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
    fn base_digest_tracks_target_and_limits_but_not_event_cap() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let d = base_digest(&target, &limits);
        let capped = RunLimits {
            event_cap: 10,
            ..limits
        };
        assert_eq!(d, base_digest(&target, &capped), "event cap is drive state");
        let budgeted = RunLimits {
            step_budget: 500,
            ..limits
        };
        assert_ne!(d, base_digest(&target, &budgeted));
        assert_ne!(d, base_digest(&TcpTarget::default(), &limits));
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
        };
        let mut merged = store.stats().clone();
        merged.merge(&other);
        assert_eq!(merged, other);
    }
}
