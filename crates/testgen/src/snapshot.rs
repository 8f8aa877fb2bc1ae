//! Snapshot/fork execution: stop replaying shared schedule prefixes.
//!
//! Every schedule run used to start from `TestTarget::build()` — for the
//! GMP target that means 40 virtual seconds of convergence traffic before
//! the first fault is even installed, repeated identically for every one
//! of a campaign's hundreds of candidates. Worlds are deep-clonable now
//! ([`pfi_sim::WorldSnapshot`]), so the campaign engine captures the
//! prepared world once and *forks* it per candidate instead.
//!
//! The cache key is a **prefix digest chain** over the schedule's faults:
//! `d_0` identifies the fault-free prepared base (target name, world seed,
//! step budget — everything that shapes the world before any filter is
//! installed), and `d_i` extends `d_{i-1}` with the i-th fault's stable
//! text line. Two schedules share a cached snapshot exactly when they
//! share a fault-vector prefix, so a fork only needs the *suffix* of
//! filters installed before driving. Lookup walks the chain longest-first;
//! the store is a bounded LRU so a long campaign cannot hoard worlds.
//!
//! Fork-equivalence is load-bearing: filter installation emits no trace
//! events and draws no RNG, and preparation never advances virtual time,
//! so a forked run is byte-identical to a cold one (the differential
//! tests in `tests/snapshot_fork.rs` and the property suite prove it).
//! [`Verdict::Invalid`](crate::Verdict::Invalid) schedules are refused
//! *before* the store is consulted — corrupted candidates never enter the
//! cache and never perturb its statistics.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use pfi_sim::fnv::Fnv;
use pfi_sim::{NodeId, World, WorldSnapshot};

use crate::runner::{RunLimits, TestTarget};
use crate::schedule::{FaultSchedule, SiteScripts};

/// The digest identifying `target`'s prepared fault-free base world under
/// `limits` — the `d_0` every schedule's prefix chain starts from. Covers
/// exactly what shapes the world before any filter is installed: the
/// target's name and world seed, and the interpreter step budget (armed on
/// every fault site at prepare time). The event cap is deliberately
/// excluded — it bounds the *drive*, not the prepared world's state.
pub fn base_digest(target: &dyn TestTarget, limits: &RunLimits) -> u64 {
    let mut h = Fnv::new();
    h.write_str(target.name());
    h.write_u64(target.seed());
    h.write_u64(limits.step_budget);
    h.finish()
}

/// The full prefix digest chain of `schedule`: `n + 1` digests for an
/// `n`-fault schedule, where `digests[i]` identifies the world state
/// "prepared base plus the first `i` faults installed". Two schedules
/// produce equal `digests[i]` iff they agree on target, limits, and their
/// first `i` faults in order.
pub fn prefix_digests(
    target: &dyn TestTarget,
    limits: &RunLimits,
    schedule: &FaultSchedule,
) -> Vec<u64> {
    let mut out = Vec::with_capacity(schedule.len() + 1);
    let mut chain = Fnv(base_digest(target, limits));
    out.push(chain.finish());
    for fault in &schedule.faults {
        chain.write_str(&fault.to_line());
        out.push(chain.finish());
    }
    out
}

/// How many leading faults `a` and `b` share (order-sensitive — the
/// number of chain digests they have in common, minus the base).
pub fn shared_prefix_len(a: &FaultSchedule, b: &FaultSchedule) -> usize {
    a.faults
        .iter()
        .zip(&b.faults)
        .take_while(|(x, y)| x == y)
        .count()
}

/// One cached, forkable world: the prepared base plus the schedule prefix
/// already installed on it. `Send + Sync` (the world snapshot is), so one
/// `Arc<CaseSnapshot>` is forked concurrently by many fleet workers.
pub struct CaseSnapshot {
    prefix_digest: u64,
    installed: FaultSchedule,
    sites: Vec<(NodeId, usize)>,
    world: WorldSnapshot,
}

// Compile-enforced: cached snapshots must stay dispatchable across fleet
// worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CaseSnapshot>();
};

impl CaseSnapshot {
    /// Wraps a captured world with the prefix it had installed when
    /// captured (`FaultSchedule::empty()` for the fault-free base).
    pub fn new(
        prefix_digest: u64,
        installed: FaultSchedule,
        sites: Vec<(NodeId, usize)>,
        world: WorldSnapshot,
    ) -> Self {
        CaseSnapshot {
            prefix_digest,
            installed,
            sites,
            world,
        }
    }

    /// The prefix-chain digest this snapshot is cached under.
    pub fn prefix_digest(&self) -> u64 {
        self.prefix_digest
    }

    /// The schedule prefix already installed on the captured world.
    pub fn installed(&self) -> &FaultSchedule {
        &self.installed
    }

    /// The lowered per-site scripts already installed — what a fork diffs
    /// against to install only the suffix.
    pub fn installed_scripts(&self) -> Vec<SiteScripts> {
        self.installed.lower()
    }

    /// The target's fault sites, as built.
    pub fn sites(&self) -> &[(NodeId, usize)] {
        &self.sites
    }

    /// Simulator events the captured world had already processed — the
    /// work a fork skips instead of replaying.
    pub fn events_processed(&self) -> u64 {
        self.world.events_processed()
    }

    /// A fresh world continuing byte-identically from the captured
    /// instant.
    pub fn fork(&self) -> World {
        self.world.fork()
    }
}

impl fmt::Debug for CaseSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CaseSnapshot")
            .field(
                "prefix_digest",
                &format_args!("{:016x}", self.prefix_digest),
            )
            .field("installed", &self.installed.id())
            .field("sites", &self.sites.len())
            .field("events_processed", &self.world.events_processed())
            .finish()
    }
}

/// Counters describing how much replayed work snapshot/fork execution
/// saved (or failed to save). Purely additive, so per-worker stats merge
/// in any order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Runs that forked a cached snapshot instead of building cold.
    pub hits: u64,
    /// Runs that found no usable prefix and built from scratch.
    pub misses: u64,
    /// Snapshots captured into a store (seeding a worker-local store with
    /// a dispatched snapshot does not count — it was stored once, on the
    /// master).
    pub stored: u64,
    /// Snapshots evicted by the LRU capacity bound.
    pub evicted: u64,
    /// Simulator events forks skipped re-processing, summed over hits.
    pub events_skipped: u64,
}

impl SnapshotStats {
    /// Hit fraction over all lookups; 0.0 before any lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &SnapshotStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.stored += other.stored;
        self.evicted += other.evicted;
        self.events_skipped += other.events_skipped;
    }
}

/// A bounded LRU cache of forkable worlds, keyed by prefix digest.
///
/// The campaign master holds one for dispatch; each executing candidate
/// gets a fresh store seeded with the snapshot it was dispatched with, so
/// hit/miss statistics are a pure function of the candidate (never of how
/// candidates landed on workers).
#[derive(Debug)]
pub struct SnapshotStore {
    capacity: usize,
    map: HashMap<u64, Arc<CaseSnapshot>>,
    /// Recency order: front = least recently used, back = most.
    order: VecDeque<u64>,
    stats: SnapshotStats,
}

impl SnapshotStore {
    /// A store holding at most `capacity` snapshots (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SnapshotStore {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
            stats: SnapshotStats::default(),
        }
    }

    /// How many snapshots are cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The store's counters so far.
    pub fn stats(&self) -> &SnapshotStats {
        &self.stats
    }

    fn touch(&mut self, digest: u64) {
        if let Some(pos) = self.order.iter().position(|&d| d == digest) {
            self.order.remove(pos);
        }
        self.order.push_back(digest);
    }

    fn insert_inner(&mut self, snap: Arc<CaseSnapshot>) {
        let digest = snap.prefix_digest();
        if self.map.insert(digest, snap).is_none() && self.map.len() > self.capacity {
            if let Some(lru) = self.order.pop_front() {
                self.map.remove(&lru);
                self.stats.evicted += 1;
            }
        }
        self.touch(digest);
    }

    /// Caches a snapshot, evicting the least recently used entry if the
    /// store is full. Counts toward [`SnapshotStats::stored`].
    pub fn insert(&mut self, snap: Arc<CaseSnapshot>) {
        self.stats.stored += 1;
        self.insert_inner(snap);
    }

    /// Caches a snapshot captured elsewhere (a dispatched `Arc` seeding a
    /// worker-local store) without counting it as newly stored.
    pub fn seed(&mut self, snap: Arc<CaseSnapshot>) {
        self.insert_inner(snap);
    }

    /// The fork-vs-cold decision: the cached snapshot for the *longest*
    /// prefix in `digests` (a chain from [`prefix_digests`], walked
    /// longest-first) for the caller to fork, or `None` to build cold.
    /// Counts one hit — plus the simulator events the fork skips — or one
    /// miss, and refreshes the hit entry's recency.
    pub fn lookup_longest(&mut self, digests: &[u64]) -> Option<Arc<CaseSnapshot>> {
        for &d in digests.iter().rev() {
            if let Some(snap) = self.map.get(&d) {
                let snap = Arc::clone(snap);
                self.stats.hits += 1;
                self.stats.events_skipped += snap.events_processed();
                self.touch(d);
                return Some(snap);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// [`lookup_longest`](Self::lookup_longest) without counting or
    /// touching — what dispatch uses to attach a snapshot to a job
    /// (the executing worker's own lookup does the counting).
    pub fn peek_longest(&self, digests: &[u64]) -> Option<Arc<CaseSnapshot>> {
        digests
            .iter()
            .rev()
            .find_map(|d| self.map.get(d).map(Arc::clone))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::GmpTarget;
    use crate::schedule::ScheduleMutator;
    use crate::spec::ProtocolSpec;
    use pfi_core::Direction;
    use pfi_sim::SimRng;

    fn fault(msg: &str) -> crate::schedule::ScheduledFault {
        crate::schedule::ScheduledFault {
            site: 1,
            dir: Direction::Receive,
            op: crate::schedule::FaultOp::DropAll {
                msg_type: msg.to_string(),
            },
        }
    }

    fn snap_with_digest(d: u64) -> Arc<CaseSnapshot> {
        let world = World::new(7);
        Arc::new(CaseSnapshot::new(
            d,
            FaultSchedule::empty(),
            Vec::new(),
            world.try_snapshot().unwrap(),
        ))
    }

    #[test]
    fn prefix_chain_shares_exactly_the_common_prefix() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let parent = FaultSchedule {
            faults: vec![fault("HEARTBEAT"), fault("COMMIT")],
        };
        let mut child = parent.clone();
        child.faults.push(fault("PROCLAIM"));
        let dp = prefix_digests(&target, &limits, &parent);
        let dc = prefix_digests(&target, &limits, &child);
        assert_eq!(dp.len(), 3);
        assert_eq!(dc.len(), 4);
        // An appended child shares the parent's entire chain...
        assert_eq!(&dc[..3], &dp[..]);
        assert_ne!(dc[3], dp[2]);
        // ...and order matters: swapping faults changes every digest past
        // the divergence point.
        let swapped = FaultSchedule {
            faults: vec![fault("COMMIT"), fault("HEARTBEAT")],
        };
        let ds = prefix_digests(&target, &limits, &swapped);
        assert_eq!(ds[0], dp[0]);
        assert_ne!(ds[1], dp[1]);
        assert_ne!(ds[2], dp[2]);
        assert_eq!(shared_prefix_len(&parent, &child), 2);
        assert_eq!(shared_prefix_len(&parent, &swapped), 0);
        assert_eq!(shared_prefix_len(&parent, &parent), 2);
    }

    #[test]
    fn base_digest_tracks_target_and_limits_but_not_event_cap() {
        let target = GmpTarget::default();
        let d = base_digest(&target, &RunLimits::default());
        let capped = RunLimits {
            event_cap: 10,
            ..RunLimits::default()
        };
        assert_eq!(
            d,
            base_digest(&target, &capped),
            "event cap is drive state, not world state"
        );
        let budgeted = RunLimits {
            step_budget: 500,
            ..RunLimits::default()
        };
        assert_ne!(d, base_digest(&target, &budgeted));
        assert_ne!(
            d,
            base_digest(&crate::runner::TcpTarget::default(), &RunLimits::default())
        );
    }

    #[test]
    fn digests_are_stable_across_text_round_trips() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(11);
        let mut schedule = FaultSchedule::empty();
        for _ in 0..20 {
            schedule = mutator.mutate(&schedule, 4, &mut rng);
            let back =
                FaultSchedule::from_lines(schedule.to_lines().iter().map(String::as_str)).unwrap();
            assert_eq!(
                prefix_digests(&target, &limits, &schedule),
                prefix_digests(&target, &limits, &back),
                "serializing a schedule must not move it in the cache"
            );
        }
    }

    #[test]
    fn mutated_children_report_the_expected_shared_prefix() {
        let target = GmpTarget::default();
        let limits = RunLimits::default();
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(5);
        let mut parent = FaultSchedule::empty();
        let mut appends = 0usize;
        for _ in 0..200 {
            let child = mutator.mutate(&parent, 4, &mut rng);
            let shared = shared_prefix_len(&parent, &child);
            // The manual count and the digest chain must agree exactly.
            let dp = prefix_digests(&target, &limits, &parent);
            let dc = prefix_digests(&target, &limits, &child);
            let chain_shared = dp.iter().zip(&dc).take_while(|(a, b)| a == b).count() - 1;
            assert_eq!(shared, chain_shared);
            if child.len() == parent.len() + 1 && shared == parent.len() {
                // A pure append: the child forks the parent's deepest
                // snapshot and installs one fault.
                appends += 1;
            }
            if crate::validate::schedule_is_installable(&child, 3) {
                parent = child;
            }
        }
        assert!(appends > 0, "mutator never appended in 200 draws");
    }

    #[test]
    fn store_evicts_least_recently_used() {
        let mut store = SnapshotStore::new(2);
        let (a, b, c) = (1u64, 2u64, 3u64);
        store.insert(snap_with_digest(a));
        store.insert(snap_with_digest(b));
        // Touch `a` so `b` becomes the eviction victim.
        assert!(store.lookup_longest(&[a]).is_some());
        store.insert(snap_with_digest(c));
        assert_eq!(store.len(), 2);
        assert!(store.peek_longest(&[a]).is_some());
        assert!(store.peek_longest(&[b]).is_none(), "b was LRU");
        assert!(store.peek_longest(&[c]).is_some());
        assert_eq!(store.stats().stored, 3);
        assert_eq!(store.stats().evicted, 1);
    }

    #[test]
    fn lookup_prefers_the_longest_prefix_and_counts_once() {
        let mut store = SnapshotStore::new(4);
        store.insert(snap_with_digest(10));
        store.insert(snap_with_digest(20));
        let hit = store.lookup_longest(&[10, 20, 30]).unwrap();
        assert_eq!(hit.prefix_digest(), 20, "longest cached prefix wins");
        assert!(store.lookup_longest(&[99]).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.events_skipped, hit.events_processed());
        assert!((store.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn seeding_does_not_count_as_stored() {
        let mut store = SnapshotStore::new(4);
        store.seed(snap_with_digest(1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().stored, 0);
        let mut merged = SnapshotStats::default();
        merged.merge(store.stats());
        merged.merge(&SnapshotStats {
            hits: 2,
            misses: 1,
            stored: 1,
            evicted: 0,
            events_skipped: 50,
        });
        assert_eq!(merged.hits, 2);
        assert_eq!(merged.stored, 1);
        assert_eq!(merged.events_skipped, 50);
    }
}
