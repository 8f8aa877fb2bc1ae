//! Deterministic world snapshots for fork-based campaign execution.
//!
//! A [`WorldSnapshot`] is a deep structural copy of a
//! [`World`](crate::World) — event queue, virtual clock, RNG state,
//! network, layers, blackboards, and trace log — taken at one instant of
//! virtual time. Restoring (or [forking](WorldSnapshot::fork)) produces a
//! world that continues *byte-identically* to the original: same event
//! order, same RNG draws, same trace. That is what lets a campaign engine
//! run many mutated fault schedules off one shared prefix instead of
//! replaying every case from t=0.
//!
//! # Sharing across threads
//!
//! `WorldSnapshot` is `Send + Sync`, so an `Arc<WorldSnapshot>` can be
//! handed to many fleet workers at once. Most captured state is plain data
//! and genuinely shareable; the two pieces that are `Send`-but-not-`Sync`
//! — cloned [`Layer`] boxes and the [`TraceLog`] (both hold `Send`-only
//! trait objects) — live behind a `Mutex` that fork/restore locks briefly
//! while re-cloning them out. The only user code that runs under the lock
//! is a layer's `clone_box` / `restore_from`; the guarded state is never
//! written, so if one of those panics the poisoned lock still guards
//! valid data and the next restore simply recovers it — one bad clone
//! costs one restore, not the snapshot.
//!
//! # What is (and is not) captured
//!
//! Everything a deterministic continuation needs is captured. Two kinds of
//! world refuse to snapshot (a [`SnapshotError`]):
//!
//! * pending [`schedule_at`](crate::World::schedule_at) callbacks — they
//!   are `FnOnce` closures and cannot be cloned;
//! * layers that do not implement [`Layer::clone_box`] (e.g. a PFI layer
//!   holding a native Rust closure filter).

use std::fmt;
use std::sync::Mutex;

use crate::board::BoardStore;
use crate::ids::{NodeId, TimerId};
use crate::layer::Layer;
use crate::message::Message;
use crate::network::Network;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::TraceLog;
use crate::world::TimerTable;

/// Why a world could not be snapshotted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The event queue holds a scheduled harness callback (`schedule_at` /
    /// `schedule_in`), which is a `FnOnce` closure and cannot be cloned.
    PendingCall {
        /// Virtual time of the earliest such callback.
        at: SimTime,
    },
    /// A layer does not support cloning ([`Layer::clone_box`] returned
    /// `None`) — typically because it holds a native closure.
    UnclonableLayer {
        /// The node whose stack refused.
        node: NodeId,
        /// Name of the refusing layer.
        layer: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::PendingCall { at } => {
                write!(f, "world has a pending scheduled callback at {at}")
            }
            SnapshotError::UnclonableLayer { node, layer } => {
                write!(f, "layer {layer:?} on {node} does not support clone_box")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A captured node event (the clonable subset of the queue's event kinds).
#[derive(Debug, Clone)]
pub(crate) enum SnapEvent {
    /// A message in flight toward a node's bottom layer.
    Deliver(Message),
    /// A pending timer firing.
    Timer {
        layer: usize,
        id: TimerId,
        token: u64,
    },
}

/// One captured event-queue entry, kept sorted by `(at, seq)`.
#[derive(Debug, Clone)]
pub(crate) struct SnapEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) node: NodeId,
    pub(crate) ev: SnapEvent,
}

/// Captured per-node state, minus the layer stack (which lives in the
/// guarded section).
#[derive(Debug, Clone)]
pub(crate) struct SnapNode {
    pub(crate) inbox: Vec<(SimTime, Message)>,
    pub(crate) crashed: bool,
    pub(crate) suspended: Option<Vec<SnapEvent>>,
}

/// The `Send`-but-not-`Sync` portion of a snapshot: cloned layer stacks and
/// the trace log (both hold `Send`-only trait objects). Fork/restore locks
/// this briefly to re-clone the contents out.
pub(crate) struct GuardedState {
    /// One cloned stack per node, same order as `nodes`.
    pub(crate) layers: Vec<Vec<Box<dyn Layer>>>,
    pub(crate) trace: TraceLog,
}

/// A deep, deterministic copy of a [`World`](crate::World) at one instant.
///
/// Created by [`World::try_snapshot`](crate::World::try_snapshot); consumed
/// by [`fork`](WorldSnapshot::fork) (new world) or
/// [`World::restore`](crate::World::restore) (in place). `Send + Sync`, so
/// one `Arc<WorldSnapshot>` can seed many concurrent forks.
pub struct WorldSnapshot {
    pub(crate) now: SimTime,
    pub(crate) seq: u64,
    pub(crate) timer_seq: u64,
    pub(crate) events_processed: u64,
    pub(crate) queue: Vec<SnapEntry>,
    pub(crate) nodes: Vec<SnapNode>,
    pub(crate) network: Network,
    pub(crate) rng: SimRng,
    pub(crate) boards: BoardStore,
    pub(crate) timers: TimerTable,
    pub(crate) trace_packets: bool,
    pub(crate) trace_timers: bool,
    /// Digest of the captured state, computed once at capture time; equal
    /// to [`World::snapshot_digest`](crate::World::snapshot_digest) of the
    /// source world and of any faithful restore.
    pub(crate) digest: u64,
    pub(crate) guarded: Mutex<GuardedState>,
}

impl WorldSnapshot {
    /// The digest of the captured state ([`World::snapshot_digest`] of the
    /// source world at capture time).
    ///
    /// [`World::snapshot_digest`]: crate::World::snapshot_digest
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Virtual time at which the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events the source world had processed at capture time.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of nodes captured.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl fmt::Debug for WorldSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .field("digest", &format_args!("{:016x}", self.digest))
            .finish()
    }
}

/// Compile-time proof of the snapshot contract: one `Arc<WorldSnapshot>`
/// may be shared by many worker threads at once. The `Send`-only interior
/// (layer boxes, trace log) is mutex-guarded, which is exactly what makes
/// the whole snapshot `Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorldSnapshot>();
};

/// Incremental 64-bit FNV-1a — the workspace's one digest hash, public as
/// [`pfi_sim::fnv`](crate::fnv). World snapshot digests, the campaign
/// layer's prefix-digest chains and outcome digests, and the pfi-serve
/// client's retry jitter all run through it, so renders stay comparable.
/// The state is the public field: `Fnv(d)` resumes a chain from digest `d`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a `u64` in, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes a `usize` in as a `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Mixes a string in, length-prefixed — so `("ab", "c")` and
    /// `("a", "bc")` chain differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv::new();
        a.write(b"ab");
        let mut b = Fnv::new();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // The published FNV-1a 64-bit test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental writes and resuming from a state agree with one shot.
        let mut h = Fnv::new();
        h.write(b"foo");
        let mut resumed = Fnv(h.finish());
        resumed.write(b"bar");
        assert_eq!(resumed.finish(), fnv64(b"foobar"));
    }
}
