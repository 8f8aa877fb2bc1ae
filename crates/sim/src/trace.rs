//! Typed trace log.
//!
//! Every experiment in the paper works by "logging each packet with a
//! timestamp" and analysing the resulting trace. The simulator generalises
//! this: any layer can emit a typed trace event, and experiments query the
//! log by event type, node, and time.

use std::any::{Any, TypeId};
use std::fmt;

use crate::ids::NodeId;
use crate::time::SimTime;

/// A trace event payload: any `Debug`-printable value.
///
/// Implemented automatically for every `'static + Send + Clone` type that
/// implements [`Debug`](fmt::Debug); protocol crates define their own event
/// enums (e.g. `TcpEvent`) and experiments downcast records back to them.
///
/// The `Send` bound is what lets a fully-constructed [`World`](crate::World)
/// (which owns its trace log) cross thread boundaries; the `Clone` bound
/// (via [`clone_box`](TraceEvent::clone_box)) is what lets a world
/// *snapshot* carry a deep copy of the log.
pub trait TraceEvent: Any + fmt::Debug + Send {
    /// Upcast for downcasting by the query helpers.
    fn as_any(&self) -> &dyn Any;

    /// Deep copy behind the trait object (snapshot support).
    fn clone_box(&self) -> Box<dyn TraceEvent>;
}

impl<T: Any + fmt::Debug + Send + Clone> TraceEvent for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Box<dyn TraceEvent> {
        Box::new(self.clone())
    }
}

/// One entry in the trace log.
#[derive(Debug)]
pub struct TraceRecord {
    /// Virtual time at which the event was emitted.
    pub time: SimTime,
    /// Node that emitted it.
    pub node: NodeId,
    /// Name of the emitting layer (or `"world"` for simulator-level events).
    pub layer: &'static str,
    /// The typed payload.
    pub event: Box<dyn TraceEvent>,
    /// The payload's concrete type, kept beside the box so a typed query
    /// rejects a non-matching record without a virtual call.
    type_id: TypeId,
}

impl TraceRecord {
    /// The payload as a `T`, if that is its concrete type.
    pub fn event_as<T: Any>(&self) -> Option<&T> {
        if self.type_id != TypeId::of::<T>() {
            return None;
        }
        // `as_ref()` first: calling `.as_any()` on the `Box` directly would
        // resolve the blanket impl for `Box<dyn TraceEvent>` itself and
        // downcast to the wrong type.
        self.event.as_ref().as_any().downcast_ref::<T>()
    }
}

impl Clone for TraceRecord {
    fn clone(&self) -> Self {
        TraceRecord {
            time: self.time,
            node: self.node,
            layer: self.layer,
            // `as_ref()` first, as in `event_as`: cloning through the box
            // keeps the concrete payload type (and thus downcasting) intact.
            event: self.event.as_ref().clone_box(),
            type_id: self.type_id,
        }
    }
}

/// An append-only log of trace records, owned by the [`World`](crate::World).
///
/// The log is a plain arena: one owned `Vec`, no shared handles. Appending
/// requires `&mut` access (routed through the world or a layer
/// [`Context`](crate::Context)); queries take `&self`. Because every record
/// payload is `Send`, the log — and therefore the world that owns it — can
/// be moved across threads between runs.
///
/// # Examples
///
/// ```
/// use pfi_sim::{TraceLog, SimTime, NodeId};
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Ping(u32);
///
/// let mut log = TraceLog::new();
/// log.record(SimTime::ZERO, NodeId::new(0), "test", Ping(7));
/// let pings = log.events_of::<Ping>(Some(NodeId::new(0)));
/// assert_eq!(pings, vec![(SimTime::ZERO, Ping(7))]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn record<E: TraceEvent>(
        &mut self,
        time: SimTime,
        node: NodeId,
        layer: &'static str,
        event: E,
    ) {
        self.records.push(TraceRecord {
            time,
            node,
            layer,
            event: Box::new(event),
            type_id: TypeId::of::<E>(),
        });
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all records.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Borrowing typed query: every record whose payload is a `T`, in
    /// emission order, as `(time, node, &event)`.
    ///
    /// A type-id comparison per record and one downcast per match, nothing
    /// cloned and nothing collected — the read path for per-run analyses
    /// (oracles, verdicts). The collecting helpers below are thin wrappers
    /// over it.
    pub fn iter_of<T: Any>(&self) -> impl Iterator<Item = (SimTime, NodeId, &T)> {
        self.records
            .iter()
            .filter_map(|r| r.event_as::<T>().map(|e| (r.time, r.node, e)))
    }

    /// All events of type `T`, optionally restricted to one node, in
    /// emission order, cloned out of the log.
    pub fn events_of<T: Any + Clone>(&self, node: Option<NodeId>) -> Vec<(SimTime, T)> {
        self.iter_of::<T>()
            .filter(|&(_, n, _)| node.is_none_or(|want| n == want))
            .map(|(t, _, e)| (t, e.clone()))
            .collect()
    }

    /// All events of type `T` from every node, in emission order, with the
    /// emitting node attached, cloned out of the log.
    pub fn events_with_nodes<T: Any + Clone>(&self) -> Vec<(SimTime, NodeId, T)> {
        self.iter_of::<T>()
            .map(|(t, n, e)| (t, n, e.clone()))
            .collect()
    }

    /// Per-node ordered sequences of a key derived from events of type `T`
    /// (records where `key` returns `None` are skipped).
    ///
    /// Adjacent pairs of the returned sequences are the *transition edges*
    /// of each node's observable behaviour.
    pub fn sequences_of<T: Any, K>(
        &self,
        key: impl Fn(&T) -> Option<K>,
    ) -> std::collections::BTreeMap<NodeId, Vec<K>> {
        let mut out: std::collections::BTreeMap<NodeId, Vec<K>> = std::collections::BTreeMap::new();
        for (_, node, e) in self.iter_of::<T>() {
            if let Some(k) = key(e) {
                out.entry(node).or_default().push(k);
            }
        }
        out
    }

    /// Visits every record matching a predicate (for queries that need the
    /// layer name or cross-type analysis).
    pub fn for_each(&self, mut f: impl FnMut(&TraceRecord)) {
        for r in self.records.iter() {
            f(r);
        }
    }

    /// Renders the whole log as human-readable lines (debugging aid).
    pub fn render(&self) -> Vec<String> {
        self.records
            .iter()
            .map(|r| {
                format!(
                    "[{:>12}] {} {}: {:?}",
                    r.time.to_string(),
                    r.node,
                    r.layer,
                    r.event
                )
            })
            .collect()
    }
}

/// Simulator-level packet events recorded by the network model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetTrace {
    /// A message left a node's bottom layer onto the wire.
    Sent {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Bytes on the wire.
        len: usize,
    },
    /// A message was handed to the destination's bottom layer.
    Delivered {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Bytes on the wire.
        len: usize,
    },
    /// The network dropped a message.
    Dropped {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Bytes on the wire.
        len: usize,
        /// Why it was dropped.
        reason: DropReason,
    },
}

/// Simulator-level timer life-cycle events, recorded when a world's
/// `trace_timers` flag is set.
///
/// Fire/cancel pairs are a coverage signal for fault-injection campaigns:
/// a fault that makes a protocol arm, cancel, or outlive timers it
/// otherwise would not reaches new behaviour even when no packet-visible
/// difference survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimerTrace {
    /// A layer armed a timer.
    Set {
        /// Name of the arming layer.
        layer: &'static str,
        /// The layer-private timer token.
        token: u64,
    },
    /// A timer fired and was delivered to its layer.
    Fired {
        /// Name of the owning layer.
        layer: &'static str,
        /// The layer-private timer token.
        token: u64,
    },
    /// A layer cancelled a pending timer.
    Cancelled {
        /// Name of the cancelling layer.
        layer: &'static str,
    },
    /// A cancelled timer's queue entry expired without firing — the
    /// completed half of a fire/cancel pair.
    Suppressed {
        /// Name of the owning layer.
        layer: &'static str,
    },
}

/// Why the network model dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link is administratively down (the "unplugged ethernet").
    LinkDown,
    /// Source and destination are in different partitions.
    Partitioned,
    /// Random loss on the link.
    RandomLoss,
    /// The destination node has crashed.
    DestCrashed,
    /// The destination node id does not exist.
    NoSuchNode,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct EvA(u32);
    #[derive(Debug, Clone, PartialEq)]
    struct EvB(&'static str);

    #[test]
    fn query_by_type_and_node() {
        let mut log = TraceLog::new();
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        log.record(SimTime::from_micros(1), n0, "l", EvA(1));
        log.record(SimTime::from_micros(2), n1, "l", EvA(2));
        log.record(SimTime::from_micros(3), n0, "l", EvB("x"));

        assert_eq!(log.events_of::<EvA>(None).len(), 2);
        assert_eq!(
            log.events_of::<EvA>(Some(n1)),
            vec![(SimTime::from_micros(2), EvA(2))]
        );
        assert_eq!(
            log.events_of::<EvB>(Some(n0)),
            vec![(SimTime::from_micros(3), EvB("x"))]
        );
        assert!(log.events_of::<EvB>(Some(n1)).is_empty());
    }

    #[test]
    fn log_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceLog>();
        assert_send::<TraceRecord>();

        // A populated log really does cross a thread boundary.
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, NodeId::new(0), "l", EvA(5));
        let log = std::thread::spawn(move || log).join().unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn render_is_nonempty_and_ordered() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_micros(10), NodeId::new(0), "layer", EvA(9));
        let lines = log.render();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("EvA(9)"), "{}", lines[0]);
    }

    #[test]
    fn events_with_nodes_attaches_emitters() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_micros(1), NodeId::new(0), "l", EvA(1));
        log.record(SimTime::from_micros(2), NodeId::new(1), "l", EvA(2));
        log.record(SimTime::from_micros(3), NodeId::new(0), "l", EvB("x"));
        assert_eq!(
            log.events_with_nodes::<EvA>(),
            vec![
                (SimTime::from_micros(1), NodeId::new(0), EvA(1)),
                (SimTime::from_micros(2), NodeId::new(1), EvA(2)),
            ]
        );
    }

    #[test]
    fn iter_of_matches_events_with_nodes_and_clones_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CLONES: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug, PartialEq)]
        struct Counted(u32);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                CLONES.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }

        let mut log = TraceLog::new();
        log.record(SimTime::from_micros(1), NodeId::new(0), "l", Counted(1));
        log.record(SimTime::from_micros(2), NodeId::new(1), "l", EvA(7));
        log.record(SimTime::from_micros(3), NodeId::new(1), "l", Counted(2));
        log.record(SimTime::from_micros(4), NodeId::new(0), "l", EvB("x"));
        log.record(SimTime::from_micros(5), NodeId::new(2), "l", Counted(3));

        let borrowed: Vec<(SimTime, NodeId, &Counted)> = log.iter_of::<Counted>().collect();
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "iter_of must not clone");
        assert_eq!(borrowed.len(), 3);

        let cloned = log.events_with_nodes::<Counted>();
        assert_eq!(CLONES.load(Ordering::Relaxed), 3);
        assert_eq!(cloned.len(), borrowed.len());
        for ((t, n, e), (bt, bn, be)) in cloned.iter().zip(&borrowed) {
            assert_eq!((t, n, e), (bt, bn, *be));
        }
    }

    #[test]
    fn sequences_group_keys_per_node_in_order() {
        let mut log = TraceLog::new();
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        log.record(SimTime::from_micros(1), n0, "l", EvA(1));
        log.record(SimTime::from_micros(2), n1, "l", EvA(9));
        log.record(SimTime::from_micros(3), n0, "l", EvA(2));
        log.record(SimTime::from_micros(4), n0, "l", EvA(100));
        let seqs = log.sequences_of::<EvA, u32>(|e| (e.0 < 50).then_some(e.0));
        assert_eq!(seqs[&n0], vec![1, 2]);
        assert_eq!(seqs[&n1], vec![9]);
    }

    #[test]
    fn for_each_sees_layer_names() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, NodeId::new(0), "tcp", EvA(1));
        let mut names = vec![];
        log.for_each(|r| names.push(r.layer));
        assert_eq!(names, vec!["tcp"]);
    }
}
