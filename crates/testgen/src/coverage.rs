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
//! An edge *is* its text: ordered, mergeable, byte-for-byte deterministic
//! across runs, and what journals, digests and reports carry. But a
//! campaign extracts a hundred edges from every run and nineteen runs in
//! twenty reach nothing new, so text is built late. Extraction works on
//! integers — one pass classifies each record to a [`Kind`] code and
//! per-stream state dedupes transitions on packed keys — and ends in one
//! [`Edge`] key per distinct edge: label codes, counts, and the few
//! `&'static str` names compared by content, so a key means the same in
//! every run. [`Coverage::merge`] asks the union about keys first and
//! renders text only for the ones it has never seen; everything that
//! speaks text ([`edges`](Coverage::edges), `==`, `contains`,
//! `difference`) renders on first demand.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

use pfi_gmp::GmpEvent;
use pfi_sim::{NodeId, TimerTrace, TraceLog};
use pfi_tcp::{CloseReason, TcpEvent};
use pfi_tpc::TpcEvent;

/// A set of behavioural edges observed in one or more runs.
///
/// Held as keys, as text, or both. When `text` is set it is the whole set
/// and includes the text of every key; while it is unset the set is
/// exactly the keys. Distinct keys spell distinct text (every component
/// ends at a `:` or `>` that no label, layer or segment name contains), so
/// the sizes of the two are comparable.
#[derive(Clone, Default)]
pub struct Coverage {
    /// What [`from_trace`](Coverage::from_trace) extracted plus every key
    /// merged in since: sorted, distinct, and what `merge` consults first.
    keys: Vec<Edge>,
    /// Every edge as text, once someone has asked for text or merged some
    /// in (replayed runs are text only).
    text: OnceLock<BTreeSet<String>>,
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

        // One key per distinct edge: the per-extraction slots (arguments,
        // layers) resolve to what they name, so keys compare across runs.
        let edges = streams.values().map(|s| s.kinds.len() + s.pairs.len() + 1);
        let mut keys = Vec::with_capacity(edges.sum());
        for (&(family, layer, node), stream) in &streams {
            let layer = Name(layer.checked_sub(1).map_or("", |ix| layers[ix]));
            let mut emit = |what, names| {
                keys.push(Edge {
                    family,
                    node,
                    layer,
                    what,
                    names,
                })
            };
            for &kind in &stream.kinds {
                let (kind, name) = kind.term(&args);
                emit(What::Seen(kind, None), [name, Name("")]);
            }
            for &pair in &stream.pairs {
                let (from, from_name) = Kind((pair >> 32) as u32).term(&args);
                let (to, to_name) = Kind(pair as u32).term(&args);
                emit(What::Seen(from, Some(to)), [from_name, to_name]);
            }
            if stream.count > 0 {
                let none = [Name(""); 2];
                emit(What::Counted(bucket(stream.count)), none);
            }
        }
        keys.sort_unstable();
        Coverage {
            keys,
            text: OnceLock::new(),
        }
    }

    /// Rebuilds coverage from a recorded edge list — the inverse of
    /// [`edges`](Coverage::edges), used when replaying journaled campaign
    /// results without re-executing them. Stays text: nothing is parsed
    /// back into keys.
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        Coverage {
            keys: Vec::new(),
            text: OnceLock::from(edges.into_iter().map(Into::into).collect::<BTreeSet<_>>()),
        }
    }

    /// Merges `other` in; returns how many of its edges were new.
    ///
    /// A run straight from [`from_trace`](Coverage::from_trace) is asked
    /// for its keys first: if the union has seen every one, nothing is
    /// new and no string is built to find that out; otherwise only the
    /// unseen keys are rendered. Anything else merges as text, copying
    /// only the strings the union lacks.
    pub fn merge(&mut self, other: &Coverage) -> usize {
        if !other.is_keys_only() {
            let text = self.text_mut();
            let mut new = 0;
            for edge in other.text() {
                if !text.contains(edge) {
                    text.insert(edge.clone());
                    new += 1;
                }
            }
            return new;
        }
        // Both sides are sorted: one walk finds the keys the union lacks.
        let mut known = self.keys.iter().peekable();
        let unseen = other.keys.iter().filter(|key| {
            while known.next_if(|k| k < key).is_some() {}
            known.peek() != Some(key)
        });
        let unseen: Vec<Edge> = unseen.copied().collect();
        if unseen.is_empty() {
            return 0;
        }
        // An unseen key may still spell an edge a replayed run brought in
        // as text, so novelty is counted where text is inserted.
        let text = self.text_mut();
        let inserted = render(&unseen).map(|edge| text.insert(edge));
        let new = inserted.filter(|new| *new).count();
        self.keys.extend(unseen);
        self.keys.sort_unstable();
        new
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.text.get().map_or(self.keys.len(), BTreeSet::len)
    }

    /// Whether no edges have been observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a specific edge has been observed.
    pub fn contains(&self, edge: &str) -> bool {
        self.text().contains(edge)
    }

    /// The edges, in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = &str> {
        self.text().iter().map(String::as_str)
    }

    /// Edges in `self` that `other` lacks, in sorted order.
    pub fn difference<'a>(&'a self, other: &'a Coverage) -> impl Iterator<Item = &'a str> {
        self.text().difference(other.text()).map(String::as_str)
    }

    /// The whole set as text, rendered from the keys on first demand.
    fn text(&self) -> &BTreeSet<String> {
        self.text.get_or_init(|| {
            let text: BTreeSet<String> = render(&self.keys).collect();
            debug_assert_eq!(text.len(), self.keys.len(), "two keys spell one edge");
            text
        })
    }

    fn text_mut(&mut self) -> &mut BTreeSet<String> {
        self.text();
        self.text.get_mut().expect("rendered on the line above")
    }

    /// Whether the keys are the whole set: no text yet, or text that is
    /// the keys' own and nothing more.
    fn is_keys_only(&self) -> bool {
        self.text
            .get()
            .is_none_or(|text| text.len() == self.keys.len())
    }
}

/// Two sets are equal when they hold the same edges, however each holds
/// them.
impl PartialEq for Coverage {
    fn eq(&self, other: &Self) -> bool {
        self.text() == other.text()
    }
}

impl Eq for Coverage {}

impl fmt::Debug for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coverage")
            .field("edges", self.text())
            .finish()
    }
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} edges", self.len())
    }
}

/// `expect` message for `write!` into a `String`.
const INFALLIBLE: &str = "writing to a String cannot fail";

/// One edge as a key that means the same in every run: small integers,
/// plus the few names edges spell out, compared by content.
///
/// Nothing depends on how keys order except speed, twice over: the
/// argument names come last, so nearly every comparison is settled on
/// integers; and the rest follows the text — families and labels are
/// declared in the byte order of what they spell, a lone term sorts
/// before the same term with a successor as `Set` sorts before
/// `Set>Fired` — so sorted keys render to text that is already sorted
/// (for single-digit nodes), which is what building the text set costs
/// least from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    family: Family,
    node: NodeId,
    /// The owning layer of a timer stream; empty for the other families.
    layer: Name,
    what: What,
    /// The name arguments of `what`'s terms (`SegmentSent:<kind>`); empty
    /// where a term has none.
    names: [Name; 2],
}

/// What an edge records about its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum What {
    /// A kind of record occurred — and, with a second term, that one
    /// followed it directly.
    Seen(Term, Option<Term>),
    /// How many counted records (timer firings, retransmissions), as an
    /// index into [`BUCKETS`].
    Counted(usize),
}

/// A [`Kind`] resolved: what one record was, less its name argument (the
/// edge holds those, see [`Edge::names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Term {
    label: Label,
    /// One plus the count argument (`GroupView:<n>`); 0 without one.
    count: usize,
}

impl Term {
    /// Appends this term's edge text — label, then whichever argument it
    /// has — to `out`.
    fn render(self, name: Name, out: &mut String) {
        out.push_str(LABEL_TEXT[self.label as usize]);
        if let Some(count) = self.count.checked_sub(1) {
            write!(out, "{count}").expect(INFALLIBLE);
        }
        out.push_str(name.0);
    }
}

/// A `&'static str` that is part of a key. Keys from different runs must
/// agree, so names compare by content — after trying identity, because a
/// name is nearly always the same static on both sides.
#[derive(Debug, Clone, Copy)]
struct Name(&'static str);

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Name {}

/// The text of each key, in key order: `namespace:node:[layer:]what`.
/// Sorted keys keep a stream's edges together, so its prefix is spelt
/// once and every edge is copied out exactly sized.
fn render(keys: &[Edge]) -> impl Iterator<Item = String> + '_ {
    let mut edge = String::new();
    let mut stream = None;
    let mut prefix = 0;
    keys.iter().map(move |key| {
        // The namespace, and what the stream's bucket edge is called.
        let (namespace, counter) = match key.family {
            Family::Gmp => ("gmp", ""),
            Family::Tcp => ("tcp", "retx:"),
            Family::Tpc => ("tpc", ""),
            Family::Timer => ("timer", "fired:"),
        };
        if stream != Some((key.family, key.node, key.layer)) {
            stream = Some((key.family, key.node, key.layer));
            edge.clear();
            write!(edge, "{namespace}:{}:", key.node).expect(INFALLIBLE);
            if key.family == Family::Timer {
                write!(edge, "{}:", key.layer.0).expect(INFALLIBLE);
            }
            prefix = edge.len();
        }
        edge.truncate(prefix);
        match key.what {
            What::Seen(kind, then) => {
                kind.render(key.names[0], &mut edge);
                if let Some(next) = then {
                    edge.push('>');
                    next.render(key.names[1], &mut edge);
                }
            }
            What::Counted(bucket) => {
                edge.push_str(counter);
                edge.push_str(BUCKETS[bucket]);
            }
        }
        edge.clone()
    })
}

/// Which edge namespace a record belongs to. Each `(family, node)` — for
/// timers `(family, node, owning layer)` — is one *stream* whose adjacent
/// records form the transition edges. In the order of the namespaces'
/// text (see [`Edge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Family {
    Gmp,
    Tcp,
    Timer,
    Tpc,
}

/// Declares the static label table: one variant per edge label, with the
/// text the edge strings carry. A label ending in `:` takes an argument.
/// Rows are in the byte order of their text (gmp, tcp, tpc and timer
/// labels mixed; `Started` is both gmp's and tpc's), so that label codes
/// sort the way edge text does — see [`Edge`].
macro_rules! labels {
    ($($name:ident = $text:literal,)*) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u8)]
        enum Label { $($name,)* }
        const LABEL_TEXT: &[&str] = &[$($text,)*];
        const LABELS: &[Label] = &[$(Label::$name,)*];
    };
}

labels! {
    Blocked = "Blocked",
    Cancelled = "Cancelled",
    ClosedApp = "Closed:App",
    ClosedFin = "Closed:Fin",
    ClosedKeepaliveTimeout = "Closed:KeepaliveTimeout",
    ClosedReset = "Closed:Reset",
    ClosedTimeout = "Closed:Timeout",
    CommitTimedOut = "CommitTimedOut",
    Connected = "Connected",
    DataDelivered = "DataDelivered",
    DecisionAppliedAbort = "DecisionApplied:false",
    DecisionAppliedCommit = "DecisionApplied:true",
    DecisionMadeAbort = "DecisionMade:false",
    DecisionMadeCommit = "DecisionMade:true",
    DecisionRetriesExhausted = "DecisionRetriesExhausted",
    DecodeFailed = "DecodeFailed",
    FastRetransmit = "FastRetransmit",
    Fired = "Fired",
    FormedSingleton = "FormedSingleton",
    GroupView = "GroupView:",
    InTransition = "InTransition",
    JoinSent = "JoinSent",
    KeepaliveProbe = "KeepaliveProbe",
    McInitiated = "McInitiated",
    MemberSuspected = "MemberSuspected",
    NakSent = "NakSent",
    OutOfOrderQueued = "OutOfOrderQueued",
    PeerWindowOpen = "PeerWindow:open",
    PeerWindowZero = "PeerWindow:zero",
    ProclaimAnsweredDirect = "ProclaimAnswered:direct",
    ProclaimAnsweredMisrouted = "ProclaimAnswered:misrouted",
    ProclaimForwardDroppedByBug = "ProclaimForwardDroppedByBug",
    ProclaimForwarded = "ProclaimForwarded",
    ProclaimSent = "ProclaimSent",
    ResetRecv = "Reset:recv",
    ResetSent = "Reset:sent",
    Retransmit = "Retransmit",
    SegmentSent = "SegmentSent:",
    SelfDeclaredDead = "SelfDeclaredDead",
    Set = "Set",
    SpuriousTimerInTransition = "SpuriousTimerInTransition",
    Started = "Started",
    Suppressed = "Suppressed",
    VotedNo = "Voted:false",
    VotedYes = "Voted:true",
    ZeroWindowProbe = "ZeroWindowProbe",
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

    /// This kind with its argument slot resolved against the extraction's
    /// table: the term, and its name argument (empty without one).
    fn term(self, args: &[Arg]) -> (Term, Name) {
        let slot = (self.0 & ((1 << Self::ARG_BITS) - 1)) as usize;
        let (count, name) = match slot.checked_sub(1).map(|ix| &args[ix]) {
            None => (0, ""),
            Some(Arg::Count(n)) => (n + 1, ""),
            Some(Arg::Name(name)) => (0, *name),
        };
        let label = LABELS[(self.0 >> Self::ARG_BITS) as usize];
        (Term { label, count }, Name(name))
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

/// The small stable labels counts are bucketed into, so coverage saturates
/// instead of growing one edge per count value.
const BUCKETS: [&str; 6] = ["0", "1", "2", "le4", "le8", "gt8"];

/// The index into [`BUCKETS`] of a count.
fn bucket(n: usize) -> usize {
    match n {
        0..=2 => n,
        3..=4 => 3,
        5..=8 => 4,
        _ => 5,
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
            let (term, arg) = kind.term(&args);
            term.render(arg, &mut text);
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

    /// Live runs (keys) and replayed runs (text) interleave in one union:
    /// whichever way an edge arrives first, it is new exactly once.
    #[test]
    fn keyed_and_text_runs_merge_into_one_union() {
        let mut log = TraceLog::new();
        log.record(SimTime::ZERO, n(0), "gmd", GmpEvent::Started);
        let one = Coverage::from_trace(&log);
        log.record(
            SimTime::from_micros(1),
            n(0),
            "gmd",
            GmpEvent::FormedSingleton,
        );
        let two = Coverage::from_trace(&log);
        let replayed = |c: &Coverage| Coverage::from_edges(c.edges().map(str::to_string));

        // Text first, then the same edges as keys: nothing new, and the
        // keys are remembered for the next time.
        let mut acc = Coverage::new();
        assert_eq!(acc.merge(&replayed(&one)), 1);
        assert_eq!(acc.merge(&one), 0);
        assert_eq!(acc.merge(&Coverage::from_trace(&log)), 2);
        assert_eq!(acc.merge(&replayed(&two)), 0);
        assert_eq!(acc.len(), 3);
        assert_eq!(acc, two);
        assert_eq!(acc, replayed(&two));

        // A run somebody already asked the text of still merges by key.
        let rendered = Coverage::from_trace(&log);
        assert_eq!(rendered.edges().count(), 3);
        let mut acc = one.clone();
        assert_eq!(acc.merge(&rendered), 2);
        assert_eq!(acc.len(), 3);
        // And a union merges into another union as text.
        let mut outer = replayed(&one);
        assert_eq!(outer.merge(&acc), 2);
        assert_eq!(outer, two);
        assert!(acc.difference(&one).eq(two.difference(&one)));
    }

    #[test]
    fn len_and_emptiness_need_no_text() {
        let mut log = TraceLog::new();
        assert!(Coverage::from_trace(&log).is_empty());
        log.record(SimTime::ZERO, n(0), "gmd", GmpEvent::Started);
        let cov = Coverage::from_trace(&log);
        assert_eq!(cov.len(), 1);
        assert!(cov.text.get().is_none(), "len() rendered the edges");
        assert!(cov.contains("gmp:n0:Started"));
        assert_eq!(cov.len(), 1);
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
