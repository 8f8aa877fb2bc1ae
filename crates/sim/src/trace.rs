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
/// (which owns its trace log) cross thread boundaries; the `Clone` bound is
/// what lets a world *snapshot* carry a deep copy of the log.
pub trait TraceEvent: Any + fmt::Debug + Send {
    /// Upcast for downcasting by the query helpers.
    fn as_any(&self) -> &dyn Any;
}

impl<T: Any + fmt::Debug + Send + Clone> TraceEvent for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One entry of the trace log, as [`TraceLog::for_each`] hands it out: the
/// record's head by value and its payload borrowed from the log.
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord<'a> {
    /// Virtual time at which the event was emitted.
    pub time: SimTime,
    /// Node that emitted it.
    pub node: NodeId,
    /// Name of the emitting layer (or `"world"` for simulator-level events).
    pub layer: &'static str,
    /// The typed payload.
    pub event: &'a dyn TraceEvent,
    /// The payload's concrete type, so a typed query rejects a
    /// non-matching record without a virtual call.
    type_id: TypeId,
}

impl<'a> TraceRecord<'a> {
    /// The payload as a `T`, if that is its concrete type.
    pub fn event_as<T: Any>(&self) -> Option<&'a T> {
        if self.type_id != TypeId::of::<T>() {
            return None;
        }
        self.event.as_any().downcast_ref::<T>()
    }
}

/// What every record carries whatever its payload: 32 bytes, with the
/// payload found at `columns[column].rows[row]`.
#[derive(Debug, Clone, Copy)]
struct Head {
    time: SimTime,
    node: NodeId,
    layer: &'static str,
    column: u32,
    row: u32,
}

/// The payloads of one type, in emission order: a `Vec<E>` behind the
/// operations the log needs without naming `E`.
trait Column: Any + Send {
    fn event(&self, row: usize) -> &dyn TraceEvent;
    fn clone_rows(&self) -> Box<dyn Column>;
    /// Overwrites these rows with `src`'s, keeping this column's storage;
    /// `false` (nothing changed) when `src` holds another payload type.
    fn clone_rows_from(&mut self, src: &dyn Column) -> bool;
    fn clear_rows(&mut self);
    fn rows(&self) -> &dyn Any;
    fn rows_mut(&mut self) -> &mut dyn Any;
}

impl<E: TraceEvent + Clone> Column for Vec<E> {
    fn event(&self, row: usize) -> &dyn TraceEvent {
        &self[row]
    }
    fn clone_rows(&self) -> Box<dyn Column> {
        Box::new(self.clone())
    }
    fn clone_rows_from(&mut self, src: &dyn Column) -> bool {
        match src.rows().downcast_ref::<Vec<E>>() {
            Some(rows) => {
                self.clone_from(rows);
                true
            }
            None => false,
        }
    }
    fn clear_rows(&mut self) {
        self.clear();
    }
    fn rows(&self) -> &dyn Any {
        self
    }
    fn rows_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct TypedColumn {
    type_id: TypeId,
    rows: Box<dyn Column>,
}

/// An append-only log of trace records, owned by the [`World`](crate::World).
///
/// The log is a column arena: one `Vec` of fixed-size record heads in
/// emission order, plus one `Vec<E>` per payload type `E` ever recorded. A
/// record costs two amortised pushes and no allocation of its own; cloning
/// the log (every snapshot fork does) copies a handful of vectors; a typed
/// query walks the heads and indexes one typed slice. Appending requires
/// `&mut` access (routed through the world or a layer
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
#[derive(Default)]
pub struct TraceLog {
    heads: Vec<Head>,
    /// A handful of entries (one per event enum in the stack), so a linear
    /// scan by `TypeId` beats hashing it.
    columns: Vec<TypedColumn>,
}

impl Clone for TraceLog {
    fn clone(&self) -> Self {
        TraceLog {
            heads: self.heads.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| TypedColumn {
                    type_id: c.type_id,
                    rows: c.rows.clone_rows(),
                })
                .collect(),
        }
    }

    /// Overwrites this log with `source`'s records in the storage it
    /// already has — what [`World::restore`](crate::World::restore) does
    /// to a retired world's log on every campaign run. `source`'s columns
    /// come first, in `source`'s order (its heads index them); a column of
    /// this log that `source` does not have is kept behind them, emptied,
    /// so the payload types a run records after the restore find the
    /// capacity the previous run grew. Where a payload type's column sits
    /// is not observable: every query goes through the heads or a `TypeId`.
    fn clone_from(&mut self, source: &Self) {
        self.heads.clone_from(&source.heads);
        for (i, src) in source.columns.iter().enumerate() {
            match (i..self.columns.len()).find(|&j| self.columns[j].type_id == src.type_id) {
                Some(j) => {
                    self.columns.swap(i, j);
                    let copied = self.columns[i].rows.clone_rows_from(src.rows.as_ref());
                    assert!(copied, "a column holds the payload type it is keyed by");
                }
                None => {
                    self.columns.insert(
                        i,
                        TypedColumn {
                            type_id: src.type_id,
                            rows: src.rows.clone_rows(),
                        },
                    );
                }
            }
        }
        for extra in &mut self.columns[source.columns.len()..] {
            extra.rows.clear_rows();
        }
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("records", &self.heads.len())
            .field("payload_types", &self.columns.len())
            .finish()
    }
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn record<E: TraceEvent + Clone>(
        &mut self,
        time: SimTime,
        node: NodeId,
        layer: &'static str,
        event: E,
    ) {
        let type_id = TypeId::of::<E>();
        let column = match self.columns.iter().position(|c| c.type_id == type_id) {
            Some(i) => i,
            None => {
                self.columns.push(TypedColumn {
                    type_id,
                    rows: Box::new(Vec::<E>::new()),
                });
                self.columns.len() - 1
            }
        };
        let rows = self.columns[column]
            .rows
            .rows_mut()
            .downcast_mut::<Vec<E>>()
            .expect("a column holds the payload type it is keyed by");
        let row = rows.len();
        rows.push(event);
        self.heads.push(Head {
            time,
            node,
            layer,
            column: u32::try_from(column).expect("fewer than 2^32 payload types"),
            row: u32::try_from(row).expect("fewer than 2^32 records of one type"),
        });
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all records; the arena's capacity is kept for reuse.
    pub fn clear(&mut self) {
        self.heads.clear();
        for c in &mut self.columns {
            c.rows.clear_rows();
        }
    }

    /// The column index and payload slice of type `T`, if any `T` was ever
    /// recorded.
    fn column_of<T: Any>(&self) -> Option<(u32, &[T])> {
        let type_id = TypeId::of::<T>();
        let column = self.columns.iter().position(|c| c.type_id == type_id)?;
        let rows = self.columns[column].rows.rows().downcast_ref::<Vec<T>>()?;
        Some((column as u32, rows))
    }

    /// Borrowing typed query: every record whose payload is a `T`, in
    /// emission order, as `(time, node, &event)`.
    ///
    /// An integer comparison per record and one slice index per match,
    /// nothing cloned and nothing collected — the read path for per-run
    /// analyses (oracles, verdicts). The collecting helpers below are thin
    /// wrappers over it.
    pub fn iter_of<T: Any>(&self) -> impl Iterator<Item = (SimTime, NodeId, &T)> {
        self.column_of::<T>()
            .into_iter()
            .flat_map(move |(column, rows)| {
                self.heads
                    .iter()
                    .filter(move |h| h.column == column)
                    .map(move |h| (h.time, h.node, &rows[h.row as usize]))
            })
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

    /// Visits every record in emission order (for queries that need the
    /// layer name or cross-type analysis).
    pub fn for_each<'a>(&'a self, mut f: impl FnMut(&TraceRecord<'a>)) {
        for h in &self.heads {
            let column = &self.columns[h.column as usize];
            f(&TraceRecord {
                time: h.time,
                node: h.node,
                layer: h.layer,
                event: column.rows.event(h.row as usize),
                type_id: column.type_id,
            });
        }
    }

    /// Renders the whole log as human-readable lines (debugging aid).
    pub fn render(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(self.len());
        self.for_each(|r| {
            lines.push(format!(
                "[{:>12}] {} {}: {:?}",
                r.time.to_string(),
                r.node,
                r.layer,
                r.event
            ));
        });
        lines
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
    fn interleaved_payload_types_keep_emission_order() {
        let mut log = TraceLog::new();
        let n = NodeId::new(0);
        log.record(SimTime::from_micros(1), n, "a", EvA(1));
        log.record(SimTime::from_micros(2), n, "b", EvB("x"));
        log.record(SimTime::from_micros(3), n, "a", EvA(2));
        log.record(SimTime::from_micros(4), n, "b", EvB("y"));
        let mut seen = Vec::new();
        log.for_each(|r| {
            let payload = match (r.event_as::<EvA>(), r.event_as::<EvB>()) {
                (Some(a), None) => format!("A{}", a.0),
                (None, Some(b)) => format!("B{}", b.0),
                other => panic!("a record has exactly one payload type, got {other:?}"),
            };
            seen.push((r.time.as_micros(), r.layer, payload));
        });
        assert_eq!(
            seen,
            vec![
                (1, "a", "A1".to_string()),
                (2, "b", "Bx".to_string()),
                (3, "a", "A2".to_string()),
                (4, "b", "By".to_string()),
            ]
        );
        let rendered = log.render();
        assert_eq!(rendered.len(), 4);
        for (line, want) in rendered
            .iter()
            .zip(["EvA(1)", "EvB(\"x\")", "EvA(2)", "EvB(\"y\")"])
        {
            assert!(line.ends_with(want), "{line} should end with {want}");
        }
    }

    #[test]
    fn iter_of_a_never_recorded_type_is_empty() {
        let mut log = TraceLog::new();
        assert_eq!(log.iter_of::<EvA>().count(), 0, "empty log");
        log.record(SimTime::ZERO, NodeId::new(0), "l", EvA(1));
        assert_eq!(log.iter_of::<EvB>().count(), 0);
        assert!(log.events_of::<EvB>(None).is_empty());
    }

    #[test]
    fn cloned_log_diverges_independently_of_its_source() {
        let mut source = TraceLog::new();
        source.record(SimTime::from_micros(1), NodeId::new(0), "l", EvA(1));
        source.record(SimTime::from_micros(2), NodeId::new(0), "l", EvB("x"));
        let before = source.render();

        let mut fork = source.clone();
        assert_eq!(fork.render(), before);
        fork.record(SimTime::from_micros(3), NodeId::new(1), "l", EvA(2));
        fork.record(SimTime::from_micros(4), NodeId::new(1), "l", "a new type");

        assert_eq!(source.len(), 2);
        assert_eq!(source.render(), before);
        assert_eq!(fork.len(), 4);
        assert_eq!(fork.iter_of::<EvA>().count(), 2);
        assert_eq!(source.iter_of::<&'static str>().count(), 0);
    }

    #[test]
    fn cleared_log_is_reused() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_micros(1), NodeId::new(0), "l", EvA(1));
        log.record(SimTime::from_micros(2), NodeId::new(0), "l", EvB("x"));
        log.clear();
        assert!(log.is_empty());
        assert!(log.render().is_empty());
        assert_eq!(log.iter_of::<EvA>().count(), 0);
        log.record(SimTime::from_micros(3), NodeId::new(1), "l", EvB("y"));
        log.record(SimTime::from_micros(4), NodeId::new(1), "l", EvA(9));
        assert_eq!(
            log.events_with_nodes::<EvA>(),
            vec![(SimTime::from_micros(4), NodeId::new(1), EvA(9))]
        );
        assert_eq!(log.len(), 2);
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
