//! Trace-derived behavioural coverage.
//!
//! A fault-injection campaign needs a feedback signal richer than the
//! final verdict: two schedules that both end in `Degraded` may have
//! pushed the target through very different behaviour. [`Coverage`]
//! extracts a set of string *edges* from a run's [`TraceLog`] — per-node
//! protocol-event transitions, retransmission-count buckets, and timer
//! life-cycle pairs — and the campaign engine keeps any schedule that
//! reaches an edge no earlier schedule reached.
//!
//! Edges are plain strings in a `BTreeSet`, so coverage is ordered,
//! mergeable, and byte-for-byte deterministic across runs. Extraction
//! runs once per execution over a few thousand records that end in about
//! a hundred distinct edges, so it works on integers: one pass classifies
//! each record to a [`Kind`] code, per-stream state dedupes transitions on
//! packed integer keys, and an edge string is built only once per
//! *distinct* edge at the end.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use pfi_gmp::GmpEvent;
use pfi_sim::{NodeId, TimerTrace, TraceLog};
use pfi_tcp::{CloseReason, TcpEvent};
use pfi_tpc::TpcEvent;

/// A set of behavioural edges observed in one or more runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    edges: BTreeSet<String>,
}

impl Coverage {
    /// An empty coverage map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts every supported coverage signal from a trace.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let mut args = Vec::new();
        let mut layers = Vec::new();
        let mut streams: BTreeMap<(Family, usize, NodeId), Stream> = BTreeMap::new();
        trace.for_each(|r| {
            // `layer` is the interned owning layer of a timer record, 0
            // otherwise; `counted` marks the records the bucket edges
            // count: timer firings and TCP retransmissions.
            let (family, layer, kind, counted) = if let Some(e) = r.event_as::<TimerTrace>() {
                let (layer, label) = timer_kind(e);
                let fired = matches!(e, TimerTrace::Fired { .. });
                let layer = layer_slot(layer, &mut layers);
                (Family::Timer, layer, Kind::plain(label), fired)
            } else if let Some(e) = r.event_as::<GmpEvent>() {
                (Family::Gmp, 0, gmp_kind(e, &mut args), false)
            } else if let Some(e) = r.event_as::<TcpEvent>() {
                let retx = matches!(
                    e,
                    TcpEvent::Retransmit { .. } | TcpEvent::FastRetransmit { .. }
                );
                (Family::Tcp, 0, tcp_kind(e, &mut args), retx)
            } else if let Some(e) = r.event_as::<TpcEvent>() {
                (Family::Tpc, 0, Kind::plain(tpc_kind(e)), false)
            } else {
                return;
            };
            let stream = match streams.entry((family, layer, r.node)) {
                Entry::Vacant(slot) => slot.insert(Stream::starting_with(kind)),
                Entry::Occupied(slot) => {
                    let stream = slot.into_mut();
                    stream.step(kind);
                    stream
                }
            };
            stream.count += usize::from(counted);
        });

        // One scratch buffer holds the stream's prefix and, after it, one
        // edge's text at a time; each distinct edge is copied out exactly
        // sized.
        let mut edges = Vec::new();
        let mut edge = String::new();
        for (&(family, layer, node), stream) in &streams {
            edge.clear();
            // The namespace, and what the stream's bucket edge is called.
            let (namespace, counter) = match family {
                Family::Gmp => ("gmp", ""),
                Family::Tcp => ("tcp", "retx:"),
                Family::Tpc => ("tpc", ""),
                Family::Timer => ("timer", "fired:"),
            };
            write!(edge, "{namespace}:{node}:").expect(INFALLIBLE);
            if layer > 0 {
                write!(edge, "{}:", layers[layer - 1]).expect(INFALLIBLE);
            }
            let prefix = edge.len();
            let mut emit = |edge: &mut String| {
                edges.push(edge.clone());
                edge.truncate(prefix);
            };
            for &kind in &stream.kinds {
                kind.render(&args, &mut edge);
                emit(&mut edge);
            }
            for &pair in &stream.pairs {
                Kind((pair >> 32) as u32).render(&args, &mut edge);
                edge.push('>');
                Kind(pair as u32).render(&args, &mut edge);
                emit(&mut edge);
            }
            if stream.count > 0 {
                edge.push_str(counter);
                edge.push_str(bucket(stream.count));
                emit(&mut edge);
            }
        }
        Coverage {
            edges: edges.into_iter().collect(),
        }
    }

    /// Rebuilds coverage from a recorded edge list — the inverse of
    /// [`edges`](Coverage::edges), used when replaying journaled campaign
    /// results without re-executing them.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        Coverage {
            edges: edges.into_iter().map(Into::into).collect(),
        }
    }

    /// Merges `other` in; returns how many of its edges were new.
    pub fn merge(&mut self, other: &Coverage) -> usize {
        let before = self.edges.len();
        self.edges.extend(other.edges.iter().cloned());
        self.edges.len() - before
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been observed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether a specific edge has been observed.
    pub fn contains(&self, edge: &str) -> bool {
        self.edges.contains(edge)
    }

    /// The edges, in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = &str> {
        self.edges.iter().map(String::as_str)
    }

    /// Edges in `self` that `other` lacks, in sorted order.
    pub fn difference<'a>(&'a self, other: &'a Coverage) -> impl Iterator<Item = &'a str> {
        self.edges.difference(&other.edges).map(String::as_str)
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} edges", self.edges.len())
    }
}

/// `expect` message for `write!` into a `String`.
const INFALLIBLE: &str = "writing to a String cannot fail";

/// Which edge namespace a record belongs to. Each `(family, node)` — for
/// timers `(family, node, owning layer)` — is one *stream* whose adjacent
/// records form the transition edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Gmp,
    Tcp,
    Tpc,
    Timer,
}

/// Declares the static label table: one variant per edge label, with the
/// text the edge strings carry. A label ending in `:` takes an argument.
macro_rules! labels {
    ($($name:ident = $text:literal,)*) => {
        #[derive(Debug, Clone, Copy)]
        #[repr(u8)]
        enum Label { $($name,)* }
        const LABEL_TEXT: &[&str] = &[$($text,)*];
    };
}

labels! {
    // gmp (`Started` is shared with tpc)
    Started = "Started",
    GroupView = "GroupView:",
    InTransition = "InTransition",
    MemberSuspected = "MemberSuspected",
    McInitiated = "McInitiated",
    CommitTimedOut = "CommitTimedOut",
    FormedSingleton = "FormedSingleton",
    ProclaimSent = "ProclaimSent",
    ProclaimForwarded = "ProclaimForwarded",
    ProclaimAnsweredDirect = "ProclaimAnswered:direct",
    ProclaimAnsweredMisrouted = "ProclaimAnswered:misrouted",
    JoinSent = "JoinSent",
    NakSent = "NakSent",
    SelfDeclaredDead = "SelfDeclaredDead",
    ProclaimForwardDroppedByBug = "ProclaimForwardDroppedByBug",
    SpuriousTimerInTransition = "SpuriousTimerInTransition",
    // tcp
    Connected = "Connected",
    SegmentSent = "SegmentSent:",
    Retransmit = "Retransmit",
    FastRetransmit = "FastRetransmit",
    DataDelivered = "DataDelivered",
    OutOfOrderQueued = "OutOfOrderQueued",
    KeepaliveProbe = "KeepaliveProbe",
    ZeroWindowProbe = "ZeroWindowProbe",
    PeerWindowZero = "PeerWindow:zero",
    PeerWindowOpen = "PeerWindow:open",
    ResetSent = "Reset:sent",
    ResetRecv = "Reset:recv",
    ClosedTimeout = "Closed:Timeout",
    ClosedKeepaliveTimeout = "Closed:KeepaliveTimeout",
    ClosedReset = "Closed:Reset",
    ClosedFin = "Closed:Fin",
    ClosedApp = "Closed:App",
    DecodeFailed = "DecodeFailed",
    // tpc
    VotedYes = "Voted:true",
    VotedNo = "Voted:false",
    DecisionMadeCommit = "DecisionMade:true",
    DecisionMadeAbort = "DecisionMade:false",
    DecisionAppliedCommit = "DecisionApplied:true",
    DecisionAppliedAbort = "DecisionApplied:false",
    Blocked = "Blocked",
    DecisionRetriesExhausted = "DecisionRetriesExhausted",
    // timer life cycle
    Set = "Set",
    Fired = "Fired",
    Cancelled = "Cancelled",
    Suppressed = "Suppressed",
}

/// The open-ended part of a label: the two payload values edges spell out
/// rather than enumerate. Interned per extraction, so a [`Kind`] stays an
/// integer.
#[derive(Debug, PartialEq, Eq)]
enum Arg {
    /// `GroupView:<n>` — the committed view's member count.
    Count(usize),
    /// `SegmentSent:<kind>` — the segment kind the TCP layer names.
    Name(&'static str),
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Count(n) => write!(f, "{n}"),
            Arg::Name(name) => f.write_str(name),
        }
    }
}

/// One plus the index of `item` in `table`, adding it on first sight. A
/// run names a handful of distinct arguments and layers, so tables are
/// scanned, not hashed.
fn slot_of<T: PartialEq>(item: T, table: &mut Vec<T>) -> usize {
    let ix = table.iter().position(|t| *t == item).unwrap_or_else(|| {
        table.push(item);
        table.len() - 1
    });
    ix + 1
}

/// The slot of a timer's owning layer. Timer records are most of a trace
/// and nearly always name their layer through the same static, so
/// identity is tried before content; two statics with equal text still
/// share a slot.
fn layer_slot(layer: &'static str, layers: &mut Vec<&'static str>) -> usize {
    match layers.iter().position(|l| std::ptr::eq(*l, layer)) {
        Some(ix) => ix + 1,
        None => slot_of(layer, layers),
    }
}

/// A classified trace record: a [`Label`] in the top byte and, below it,
/// zero or one plus the index of its interned [`Arg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kind(u32);

impl Kind {
    const ARG_BITS: u32 = 24;

    fn plain(label: Label) -> Kind {
        Kind((label as u32) << Self::ARG_BITS)
    }

    fn with_arg(label: Label, arg: Arg, args: &mut Vec<Arg>) -> Kind {
        let slot = slot_of(arg, args);
        assert!(slot < 1 << Self::ARG_BITS, "too many distinct arguments");
        Kind(Self::plain(label).0 | slot as u32)
    }

    /// Appends this kind's edge text to `out`.
    fn render(self, args: &[Arg], out: &mut String) {
        out.push_str(LABEL_TEXT[(self.0 >> Self::ARG_BITS) as usize]);
        let slot = (self.0 & ((1 << Self::ARG_BITS) - 1)) as usize;
        if slot > 0 {
            write!(out, "{}", args[slot - 1]).expect(INFALLIBLE);
        }
    }
}

/// One stream's extraction state: the previous record's kind plus the
/// distinct kinds and adjacent pairs seen so far.
struct Stream {
    prev: Kind,
    kinds: Vec<Kind>,
    /// `from << 32 | to`, sorted.
    pairs: Vec<u64>,
    /// Records the stream's bucket edge counts (see `from_trace`).
    count: usize,
}

impl Stream {
    fn starting_with(kind: Kind) -> Stream {
        Stream {
            prev: kind,
            kinds: vec![kind],
            pairs: Vec::new(),
            count: 0,
        }
    }

    fn step(&mut self, kind: Kind) {
        // A kind new to the stream always arrives on a pair new to it, so
        // the common case is one lookup that finds the pair already there.
        let pair = u64::from(self.prev.0) << 32 | u64::from(kind.0);
        if let Err(at) = self.pairs.binary_search(&pair) {
            self.pairs.insert(at, pair);
            if !self.kinds.contains(&kind) {
                self.kinds.push(kind);
            }
        }
        self.prev = kind;
    }
}

// The classifiers below are exhaustive on purpose: a new event variant
// must fail to compile here until it is given a label.

fn gmp_kind(e: &GmpEvent, args: &mut Vec<Arg>) -> Kind {
    let label = match e {
        // Refine the variants whose payload distinguishes behaviour the
        // campaign should steer toward.
        GmpEvent::GroupView { members, .. } => {
            return Kind::with_arg(Label::GroupView, Arg::Count(members.len()), args)
        }
        GmpEvent::ProclaimAnswered { to, origin } if to == origin => Label::ProclaimAnsweredDirect,
        GmpEvent::ProclaimAnswered { .. } => Label::ProclaimAnsweredMisrouted,
        GmpEvent::Started => Label::Started,
        GmpEvent::InTransition { .. } => Label::InTransition,
        GmpEvent::MemberSuspected { .. } => Label::MemberSuspected,
        GmpEvent::McInitiated { .. } => Label::McInitiated,
        GmpEvent::CommitTimedOut => Label::CommitTimedOut,
        GmpEvent::FormedSingleton => Label::FormedSingleton,
        GmpEvent::ProclaimSent { .. } => Label::ProclaimSent,
        GmpEvent::ProclaimForwarded { .. } => Label::ProclaimForwarded,
        GmpEvent::JoinSent { .. } => Label::JoinSent,
        GmpEvent::NakSent { .. } => Label::NakSent,
        GmpEvent::SelfDeclaredDead => Label::SelfDeclaredDead,
        GmpEvent::ProclaimForwardDroppedByBug => Label::ProclaimForwardDroppedByBug,
        GmpEvent::SpuriousTimerInTransition { .. } => Label::SpuriousTimerInTransition,
    };
    Kind::plain(label)
}

fn tcp_kind(e: &TcpEvent, args: &mut Vec<Arg>) -> Kind {
    let label = match e {
        TcpEvent::SegmentSent { kind, .. } => {
            return Kind::with_arg(Label::SegmentSent, Arg::Name(kind), args)
        }
        TcpEvent::Closed { reason, .. } => match reason {
            CloseReason::Timeout => Label::ClosedTimeout,
            CloseReason::KeepaliveTimeout => Label::ClosedKeepaliveTimeout,
            CloseReason::Reset => Label::ClosedReset,
            CloseReason::Fin => Label::ClosedFin,
            CloseReason::App => Label::ClosedApp,
        },
        TcpEvent::Reset { sent: true, .. } => Label::ResetSent,
        TcpEvent::Reset { sent: false, .. } => Label::ResetRecv,
        TcpEvent::PeerWindow { window: 0, .. } => Label::PeerWindowZero,
        TcpEvent::PeerWindow { .. } => Label::PeerWindowOpen,
        TcpEvent::Connected { .. } => Label::Connected,
        TcpEvent::Retransmit { .. } => Label::Retransmit,
        TcpEvent::FastRetransmit { .. } => Label::FastRetransmit,
        TcpEvent::DataDelivered { .. } => Label::DataDelivered,
        TcpEvent::OutOfOrderQueued { .. } => Label::OutOfOrderQueued,
        TcpEvent::KeepaliveProbe { .. } => Label::KeepaliveProbe,
        TcpEvent::ZeroWindowProbe { .. } => Label::ZeroWindowProbe,
        TcpEvent::DecodeFailed => Label::DecodeFailed,
    };
    Kind::plain(label)
}

fn tpc_kind(e: &TpcEvent) -> Label {
    match e {
        TpcEvent::Voted { yes: true, .. } => Label::VotedYes,
        TpcEvent::Voted { yes: false, .. } => Label::VotedNo,
        TpcEvent::DecisionMade { commit: true, .. } => Label::DecisionMadeCommit,
        TpcEvent::DecisionMade { commit: false, .. } => Label::DecisionMadeAbort,
        TpcEvent::DecisionApplied { commit: true, .. } => Label::DecisionAppliedCommit,
        TpcEvent::DecisionApplied { commit: false, .. } => Label::DecisionAppliedAbort,
        TpcEvent::Started { .. } => Label::Started,
        TpcEvent::Blocked { .. } => Label::Blocked,
        TpcEvent::DecisionRetriesExhausted { .. } => Label::DecisionRetriesExhausted,
    }
}

/// The owning layer and life-cycle label of a timer record.
fn timer_kind(e: &TimerTrace) -> (&'static str, Label) {
    match e {
        TimerTrace::Set { layer, .. } => (layer, Label::Set),
        TimerTrace::Fired { layer, .. } => (layer, Label::Fired),
        TimerTrace::Cancelled { layer } => (layer, Label::Cancelled),
        TimerTrace::Suppressed { layer } => (layer, Label::Suppressed),
    }
}

/// Buckets a count into a small stable label so coverage saturates instead
/// of growing one edge per count value.
fn bucket(n: usize) -> &'static str {
    match n {
        0 => "0",
        1 => "1",
        2 => "2",
        3..=4 => "le4",
        5..=8 => "le8",
        _ => "gt8",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfi_sim::SimTime;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// What the extractor used to derive labels from: the text of a
    /// `Debug`-printed enum value before its first payload delimiter.
    fn debug_name(e: &impl fmt::Debug) -> String {
        let s = format!("{e:?}");
        s.split(['(', '{', ' ']).next().unwrap().to_string()
    }

    #[test]
    fn static_labels_equal_the_debug_derived_names_plus_refinements() {
        use pfi_sim::SimDuration;

        let mut args = Vec::new();
        // (kind, Debug-derived variant name, refinement suffix)
        let mut cases: Vec<(Kind, String, String)> = Vec::new();

        let gmp = [
            (GmpEvent::Started, ""),
            (
                GmpEvent::GroupView {
                    gid: 1,
                    members: vec![0, 1, 2],
                    leader: 0,
                },
                ":3",
            ),
            (
                GmpEvent::GroupView {
                    gid: 2,
                    members: vec![],
                    leader: 0,
                },
                ":0",
            ),
            (GmpEvent::InTransition { gid: 1 }, ""),
            (GmpEvent::MemberSuspected { suspect: 1 }, ""),
            (
                GmpEvent::McInitiated {
                    gid: 1,
                    members: vec![0],
                },
                "",
            ),
            (GmpEvent::CommitTimedOut, ""),
            (GmpEvent::FormedSingleton, ""),
            (GmpEvent::ProclaimSent { to: 1 }, ""),
            (GmpEvent::ProclaimForwarded { origin: 1, to: 0 }, ""),
            (GmpEvent::ProclaimAnswered { to: 1, origin: 1 }, ":direct"),
            (
                GmpEvent::ProclaimAnswered { to: 2, origin: 1 },
                ":misrouted",
            ),
            (GmpEvent::JoinSent { to: 0 }, ""),
            (GmpEvent::NakSent { to: 0 }, ""),
            (GmpEvent::SelfDeclaredDead, ""),
            (GmpEvent::ProclaimForwardDroppedByBug, ""),
            (GmpEvent::SpuriousTimerInTransition { suspect: 2 }, ""),
        ];
        for (e, refinement) in &gmp {
            cases.push((
                gmp_kind(e, &mut args),
                debug_name(e),
                refinement.to_string(),
            ));
        }

        let second = SimDuration::from_secs(1);
        let mut tcp = vec![
            (TcpEvent::Connected { conn: 0 }, String::new()),
            (
                TcpEvent::Retransmit {
                    conn: 0,
                    seq: 1,
                    nth: 1,
                    next_rto: second,
                },
                String::new(),
            ),
            (
                TcpEvent::FastRetransmit {
                    conn: 0,
                    seq: 1,
                    nth: 1,
                },
                String::new(),
            ),
            (TcpEvent::DataDelivered { conn: 0, bytes: 9 }, String::new()),
            (
                TcpEvent::OutOfOrderQueued { conn: 0, seq: 1 },
                String::new(),
            ),
            (
                TcpEvent::KeepaliveProbe {
                    conn: 0,
                    nth: 1,
                    garbage_bytes: 0,
                },
                String::new(),
            ),
            (
                TcpEvent::ZeroWindowProbe {
                    conn: 0,
                    nth: 1,
                    next_interval: second,
                },
                String::new(),
            ),
            (
                TcpEvent::PeerWindow { conn: 0, window: 0 },
                ":zero".to_string(),
            ),
            (
                TcpEvent::PeerWindow {
                    conn: 0,
                    window: 512,
                },
                ":open".to_string(),
            ),
            (
                TcpEvent::Reset {
                    conn: 0,
                    sent: true,
                },
                ":sent".to_string(),
            ),
            (
                TcpEvent::Reset {
                    conn: 0,
                    sent: false,
                },
                ":recv".to_string(),
            ),
            (TcpEvent::DecodeFailed, String::new()),
        ];
        for kind in ["SYN", "SYN-ACK", "FIN", "DATA", "some-future-kind"] {
            let sent = TcpEvent::SegmentSent {
                conn: 0,
                seq: 1,
                len: 0,
                kind,
            };
            tcp.push((sent, format!(":{kind}")));
        }
        for reason in [
            CloseReason::Timeout,
            CloseReason::KeepaliveTimeout,
            CloseReason::Reset,
            CloseReason::Fin,
            CloseReason::App,
        ] {
            tcp.push((TcpEvent::Closed { conn: 0, reason }, format!(":{reason:?}")));
        }
        for (e, refinement) in &tcp {
            cases.push((tcp_kind(e, &mut args), debug_name(e), refinement.clone()));
        }

        let mut tpc = vec![
            (TpcEvent::Started { txid: 1 }, String::new()),
            (TpcEvent::Blocked { txid: 1 }, String::new()),
            (
                TpcEvent::DecisionRetriesExhausted { txid: 1 },
                String::new(),
            ),
        ];
        for flag in [true, false] {
            let txid = 1;
            tpc.push((TpcEvent::Voted { txid, yes: flag }, format!(":{flag}")));
            tpc.push((
                TpcEvent::DecisionMade { txid, commit: flag },
                format!(":{flag}"),
            ));
            tpc.push((
                TpcEvent::DecisionApplied { txid, commit: flag },
                format!(":{flag}"),
            ));
        }
        for (e, refinement) in &tpc {
            cases.push((Kind::plain(tpc_kind(e)), debug_name(e), refinement.clone()));
        }

        let layer = "gmd";
        for e in [
            TimerTrace::Set { layer, token: 1 },
            TimerTrace::Fired { layer, token: 1 },
            TimerTrace::Cancelled { layer },
            TimerTrace::Suppressed { layer },
        ] {
            let (owner, label) = timer_kind(&e);
            assert_eq!(owner, layer);
            cases.push((Kind::plain(label), debug_name(&e), String::new()));
        }

        let mut labels_seen = BTreeSet::new();
        for (kind, name, refinement) in &cases {
            let mut text = String::new();
            kind.render(&args, &mut text);
            assert_eq!(text, format!("{name}{refinement}"));
            labels_seen.insert(kind.0 >> Kind::ARG_BITS);
        }
        // Every label in the table is reached by some value above, so a
        // label added without a case here fails rather than going unchecked.
        assert_eq!(labels_seen.len(), LABEL_TEXT.len());
    }

    #[test]
    fn gmp_edges_include_occurrences_and_transitions() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_micros(1), n(0), "gmd", GmpEvent::Started);
        log.record(
            SimTime::from_micros(2),
            n(0),
            "gmd",
            GmpEvent::GroupView {
                gid: 1,
                members: vec![0, 1, 2],
                leader: 0,
            },
        );
        let cov = Coverage::from_trace(&log);
        assert!(cov.contains("gmp:n0:Started"), "{:?}", cov);
        assert!(cov.contains("gmp:n0:GroupView:3"));
        assert!(cov.contains("gmp:n0:Started>GroupView:3"));
    }

    #[test]
    fn misrouted_proclaims_are_a_distinct_edge() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::ZERO,
            n(0),
            "gmd",
            GmpEvent::ProclaimAnswered { to: 2, origin: 1 },
        );
        let cov = Coverage::from_trace(&log);
        assert!(cov.contains("gmp:n0:ProclaimAnswered:misrouted"));
        assert!(!cov.contains("gmp:n0:ProclaimAnswered:direct"));
    }

    #[test]
    fn retransmissions_bucket_per_node() {
        let mut log = TraceLog::new();
        for i in 0..6 {
            log.record(
                SimTime::from_micros(i),
                n(0),
                "tcp",
                TcpEvent::Retransmit {
                    conn: 0,
                    seq: i as u32,
                    nth: 1,
                    next_rto: pfi_sim::SimDuration::from_secs(1),
                },
            );
        }
        let cov = Coverage::from_trace(&log);
        assert!(cov.contains("tcp:n0:retx:le8"), "{:?}", cov);
    }

    #[test]
    fn timer_pairs_become_edges() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_micros(1),
            n(1),
            "world",
            TimerTrace::Set {
                layer: "gmd",
                token: 1,
            },
        );
        log.record(
            SimTime::from_micros(2),
            n(1),
            "world",
            TimerTrace::Cancelled { layer: "gmd" },
        );
        log.record(
            SimTime::from_micros(3),
            n(1),
            "world",
            TimerTrace::Suppressed { layer: "gmd" },
        );
        let cov = Coverage::from_trace(&log);
        assert!(cov.contains("timer:n1:gmd:Set>Cancelled"), "{:?}", cov);
        assert!(cov.contains("timer:n1:gmd:Cancelled>Suppressed"));
    }

    #[test]
    fn equal_layer_names_from_different_statics_share_a_stream() {
        let leaked: &'static str = Box::leak(String::from("gmd").into_boxed_str());
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_micros(1),
            n(0),
            "world",
            TimerTrace::Set {
                layer: "gmd",
                token: 1,
            },
        );
        log.record(
            SimTime::from_micros(2),
            n(0),
            "world",
            TimerTrace::Cancelled { layer: leaked },
        );
        let cov = Coverage::from_trace(&log);
        assert!(cov.contains("timer:n0:gmd:Set>Cancelled"), "{:?}", cov);
        assert_eq!(cov.len(), 3);
    }

    #[test]
    fn merge_reports_only_new_edges() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, n(0), "gmd", GmpEvent::Started);
        let one = Coverage::from_trace(&log);
        let mut acc = Coverage::new();
        assert_eq!(acc.merge(&one), one.len());
        assert_eq!(acc.merge(&one), 0);
        log.record(
            SimTime::from_micros(1),
            n(0),
            "gmd",
            GmpEvent::FormedSingleton,
        );
        let two = Coverage::from_trace(&log);
        // Started>FormedSingleton and FormedSingleton are the new edges.
        assert_eq!(acc.merge(&two), 2);
        assert!(acc.difference(&one).count() == 2);
    }
}
