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
//! Fork-equivalence is load-bearing: filter installation emits no trace
//! events and draws no RNG, and preparation never advances virtual time,
//! so a forked run is byte-identical to a cold one (`tests/snapshot_fork.rs`
//! and the property suite prove it). [`Verdict::Invalid`](crate::Verdict)
//! schedules are refused *before* the store is consulted — they never
//! perturb its statistics.

use std::fmt;
use std::sync::Arc;

use pfi_sim::fnv::Fnv;
use pfi_sim::{NodeId, World, WorldSnapshot};

use crate::runner::{RunLimits, TestTarget};

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
    }
}

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
    /// clone: native filters, unclonable stubs) leaves the slot as it was.
    pub(crate) fn capture(&mut self, digest: u64, sites: &[(NodeId, usize)], world: &World) {
        if let Ok(world) = world.try_snapshot() {
            let sites = sites.to_vec();
            self.stats.stored += 1;
            self.base = Some(Arc::new(BaseWorld {
                digest,
                sites,
                world,
            }));
        }
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
        };
        let mut merged = store.stats().clone();
        merged.merge(&other);
        assert_eq!(merged, other);
    }
}
