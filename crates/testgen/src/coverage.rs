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
//! An edge *is* its text, which journals, digests and reports carry. But
//! most runs reach nothing new, so extraction makes one typed
//! [`TraceLog::iter_of`] pass per event family into packed `u128` keys,
//! names as ids from one process-wide table, so a key means the same in
//! every run and thread. [`Coverage::merge`] walks two sorted key lists and
//! renders text only for keys the union lacks; [`edges`](Coverage::edges),
//! `==`, `contains` and `difference` render on first demand. A journal
//! record's `cover` lines are the edges [`merge_with`](Coverage::merge_with)
//! hands over as it inserts them.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::sync::{Mutex, OnceLock, PoisonError};

use pfi_gmp::GmpEvent;
use pfi_sim::{NodeId, SimTime, TimerTrace, TraceLog};
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
    keys: Vec<Key>,
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
        thread_local! {
            /// Each thread's extraction state, kept between runs: an
            /// extraction allocates only the keys it returns.
            static EXTRACTION: RefCell<Extraction> = RefCell::default();
        }
        EXTRACTION.with_borrow_mut(|x| {
            x.start();
            x.walk(trace.iter_of(), Family::Gmp, gmp_record);
            x.walk(trace.iter_of(), Family::Tcp, tcp_record);
            x.walk(trace.iter_of(), Family::Timer, timer_record);
            x.walk(trace.iter_of(), Family::Tpc, tpc_record);
            Coverage {
                keys: x.finish(),
                text: OnceLock::new(),
            }
        })
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
    pub fn merge(&mut self, other: &Coverage) -> usize {
        self.merge_with(other, |_| ())
    }

    /// [`merge`](Coverage::merge), handing `added` each edge the union
    /// lacked as it is inserted. A run's keys come out in key order, which
    /// is not text order (nodes compare as numbers, names by id); a caller
    /// that keeps them sorts them.
    ///
    /// A run straight from [`from_trace`](Coverage::from_trace) is asked
    /// for its keys first: if the union has seen every one, nothing is
    /// new and no string is built to find that out; otherwise only the
    /// unseen keys are rendered. Anything else merges as text, copying
    /// only the strings the union lacks.
    pub fn merge_with(&mut self, other: &Coverage, mut added: impl FnMut(&str)) -> usize {
        let mut new = 0;
        if !other.is_keys_only() {
            let text = self.text_mut();
            for edge in other.text() {
                if !text.contains(edge) {
                    text.insert(edge.clone());
                    added(edge);
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
        let unseen: Vec<Key> = unseen.copied().collect();
        if unseen.is_empty() {
            return 0;
        }
        // An unseen key may still spell an edge a replayed run brought in
        // as text, so novelty is counted where text is inserted.
        let text = self.text_mut();
        render(&unseen, |edge| {
            if text.insert(edge.to_string()) {
                added(edge);
                new += 1;
            }
        });
        // Two sorted runs end to end, which the stable sort merges in one
        // linear pass.
        self.keys.extend(unseen);
        self.keys.sort();
        debug_assert!(self.keys.is_sorted_by(|a, b| a < b), "merge unsorted");
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
            let mut edges = Vec::with_capacity(self.keys.len());
            render(&self.keys, |edge| edges.push(edge.to_string()));
            let text: BTreeSet<String> = edges.into_iter().collect();
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

/// One edge, packed so that it means the same in every run. From the top:
/// 2 bits of [`Family`], 16 of owning layer (a timer stream's name id,
/// else 0), 32 of node, then two 32-bit term codes: what occurred, and
/// what directly followed it (0 for the occurrence alone). A bucket edge's
/// first term is [`COUNTED`] plus the index into [`BUCKETS`].
type Key = u128;

/// Where each field of a [`Key`] starts.
const FIRST: u32 = 32;
const NODE: u32 = 64;
const LAYER: u32 = 96;
const FAMILY: u32 = 112;

/// A term code is one plus a [`Label`] in the top byte and the label's
/// argument below it: `GroupView`'s member count, `SegmentSent`'s name id.
const ARG_BITS: u32 = 24;
const ARG_MASK: u32 = (1 << ARG_BITS) - 1;

/// The first term of a bucket edge, above every label.
const COUNTED: u32 = 0xff << ARG_BITS;

/// The term code of a label and its argument (0 for one without).
fn term(label: Label, arg: usize) -> u32 {
    assert!(arg <= ARG_MASK as usize, "a term argument fits in 24 bits");
    (label as u32 + 1) << ARG_BITS | arg as u32
}

/// Appends a term's edge text — its label, then its argument if it takes
/// one — to `out`.
fn render_term(code: u32, out: &mut String) {
    let (label, arg) = ((code >> ARG_BITS) as usize - 1, code & ARG_MASK);
    out.push_str(LABEL_TEXT[label]);
    if label == Label::GroupView as usize {
        write!(out, "{arg}").expect(INFALLIBLE);
    } else if label == Label::SegmentSent as usize {
        out.push_str(name(arg));
    }
}

/// Hands `each` the text of each key, in key order:
/// `namespace:node:[layer:]what`. Sorted keys keep a stream's edges
/// together, so its prefix is spelt once; `each` copies out what it keeps.
fn render(keys: &[Key], mut each: impl FnMut(&str)) {
    let mut edge = String::new();
    let mut stream = None;
    let mut prefix = 0;
    for &key in keys {
        // The namespace, and what the stream's bucket edge is called.
        let family = (key >> FAMILY) as usize;
        let (namespace, counter) = FAMILIES[family];
        if stream != Some(key >> NODE) {
            stream = Some(key >> NODE);
            edge.clear();
            let node = NodeId::new((key >> NODE) as u32);
            write!(edge, "{namespace}:{node}:").expect(INFALLIBLE);
            if family == Family::Timer as usize {
                edge.push_str(name(u32::from((key >> LAYER) as u16)));
                edge.push(':');
            }
            prefix = edge.len();
        }
        edge.truncate(prefix);
        let (first, second) = ((key >> FIRST) as u32, key as u32);
        if first & !ARG_MASK == COUNTED {
            edge.push_str(counter);
            edge.push_str(BUCKETS[(first & ARG_MASK) as usize]);
        } else {
            render_term(first, &mut edge);
            if second != 0 {
                edge.push('>');
                render_term(second, &mut edge);
            }
        }
        each(&edge);
    }
}

/// Which edge namespace a record belongs to, in key order (the order
/// `from_trace` walks them in). Each `(family, node)` — for timers with the
/// owning layer — is one *stream*; adjacent records form its transitions.
#[derive(Clone, Copy)]
enum Family {
    Gmp,
    Tcp,
    Timer,
    Tpc,
}

/// Each family's namespace and the name of its streams' bucket edges.
const FAMILIES: [(&str, &str); 4] = [
    ("gmp", ""),
    ("tcp", "retx:"),
    ("timer", "fired:"),
    ("tpc", ""),
];

/// Declares the static label table: one variant per edge label, with the
/// text the edge strings carry. A label ending in `:` takes an argument.
/// Rows are in the byte order of their text (gmp, tcp, tpc and timer
/// labels mixed; `Started` is both gmp's and tpc's).
macro_rules! labels {
    ($($name:ident = $text:literal,)*) => {
        #[derive(Clone, Copy)]
        enum Label { $($name,)* }
        const LABEL_TEXT: &[&str] = &[$($text,)*];
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

/// Every layer and segment name an edge has spelt, once per distinct
/// text: an id is an index. One table for the process, so keys agree
/// across threads; its one update is a push, so a poisoned lock is safe.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// The name an id stands for.
fn name(id: u32) -> &'static str {
    NAMES.lock().unwrap_or_else(PoisonError::into_inner)[id as usize]
}

/// A thread's view of [`NAMES`]: the statics it has met, with their ids.
type Names = Vec<(&'static str, u16)>;

/// The id of `name`, found by identity among the statics met, so that
/// [`NAMES`] is consulted once per new static.
fn name_id(met: &mut Names, name: &'static str) -> u16 {
    if let Some(&(_, id)) = met.iter().find(|(seen, _)| std::ptr::eq(*seen, name)) {
        return id;
    }
    let mut table = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    let id = u16::try_from(slot_of(&mut table, name)).expect("under 2^16 distinct names");
    met.push((name, id));
    id
}

/// The index of `item` in `table`, appending it on first sight.
fn slot_of<T: PartialEq>(table: &mut Vec<T>, item: T) -> usize {
    table.iter().position(|t| *t == item).unwrap_or_else(|| {
        table.push(item);
        table.len() - 1
    })
}

/// One thread's extraction state. Term codes are *kinds*, which index
/// bitmasks: a label's own, then each pass's codes with an argument.
#[derive(Default)]
struct Extraction {
    names: Names,
    streams: Vec<Stream>,
    /// `successors[64 * stream + from]` has bit `to` set once kind `from`
    /// was directly followed by kind `to` in that stream.
    successors: Vec<u64>,
    /// The keys of what those masks cannot hold.
    wide: Vec<Key>,
    /// This pass's term codes with an argument, in kind order.
    args: Vec<u32>,
    /// Per layer id, one plus this pass's stream of each node (node ids are
    /// dense from 0): the streams in key order.
    lanes: Vec<Vec<u32>>,
    keys: Vec<Key>,
}

struct Stream {
    /// The family, layer and node fields of the stream's keys.
    base: Key,
    prev: Option<usize>,
    /// Bit `k` is set once kind `k` (below 64) has occurred.
    kinds: u64,
    /// The records the stream's bucket edge counts.
    count: usize,
}

/// A stream's edge `first>second`, or `first` alone for `second` 0.
fn key(stream: &Stream, first: u32, second: u32) -> Key {
    stream.base | Key::from(first) << FIRST | Key::from(second)
}

impl Extraction {
    /// Forgets the previous run, keeping what it allocated.
    fn start(&mut self) {
        self.streams.clear();
        self.successors.clear();
        self.keys.clear();
        self.wide.clear();
    }

    /// One family's pass: `classify` gives a record's owning layer id (0
    /// outside timers), its term code, and whether its stream's bucket
    /// edge counts it (timer firings, retransmissions).
    fn walk<'t, T: 't>(
        &mut self,
        records: impl Iterator<Item = (SimTime, NodeId, &'t T)>,
        family: Family,
        classify: fn(&T, &mut Names) -> (u16, u32, bool),
    ) {
        self.args.clear();
        self.lanes.iter_mut().for_each(|lane| lane.fill(0));
        for (_, node, event) in records {
            let (layer, code, counted) = classify(event, &mut self.names);
            let kind = match code & ARG_MASK {
                0 => (code >> ARG_BITS) as usize - 1,
                _ => LABEL_TEXT.len() + slot_of(&mut self.args, code),
            };
            let s = self.stream(family, layer, node);
            let stream = &mut self.streams[s];
            stream.count += usize::from(counted);
            let from = stream.prev.replace(kind);
            stream.kinds |= 1u64.checked_shl(kind as u32).unwrap_or(0);
            match from {
                Some(from) if from < 64 && kind < 64 => {
                    self.successors[64 * s + from] |= 1 << kind;
                }
                None if kind < 64 => {}
                // A pass of over 64 kinds: what the masks cannot hold is
                // kept as keys.
                _ => {
                    let pair = from.map(|f| key(stream, code_of(&self.args, f), code));
                    for edge in [Some(key(stream, code, 0)), pair].into_iter().flatten() {
                        if !self.wide.contains(&edge) {
                            self.wide.push(edge);
                        }
                    }
                }
            }
        }
        self.emit();
    }

    /// The stream of `node` and `layer` in this pass, opened on first sight.
    fn stream(&mut self, family: Family, layer: u16, node: NodeId) -> usize {
        let layer = usize::from(layer);
        self.lanes
            .resize_with(self.lanes.len().max(layer + 1), Vec::new);
        let lane = &mut self.lanes[layer];
        lane.resize(lane.len().max(node.index() + 1), 0);
        if let Some(s) = lane[node.index()].checked_sub(1) {
            return s as usize;
        }
        lane[node.index()] = u32::try_from(self.streams.len() + 1).expect("under 2^32 streams");
        self.streams.push(Stream {
            base: (family as Key) << FAMILY
                | (layer as Key) << LAYER
                | Key::from(node.as_u32()) << NODE,
            prev: None,
            kinds: 0,
            count: 0,
        });
        self.successors.extend([0; 64]);
        self.streams.len() - 1
    }

    /// Appends this pass's keys: streams in lane order, which is key
    /// order, each stream's edges sorted among themselves.
    fn emit(&mut self) {
        let code = |kind| code_of(&self.args, kind);
        for s in self.lanes.iter().flatten().filter_map(|s| s.checked_sub(1)) {
            let (s, stream) = (s as usize, &self.streams[s as usize]);
            let start = self.keys.len();
            for from in bits(stream.kinds) {
                let (first, row) = (code(from), self.successors[64 * s + from]);
                self.keys.push(key(stream, first, 0));
                self.keys
                    .extend(bits(row).map(|to| key(stream, first, code(to))));
            }
            if stream.count > 0 {
                let counted = COUNTED | bucket(stream.count) as u32;
                self.keys.push(key(stream, counted, 0));
            }
            self.keys[start..].sort_unstable();
        }
    }

    /// A copy of the keys, sorted and distinct.
    fn finish(&mut self) -> Vec<Key> {
        if !self.wide.is_empty() {
            self.keys.append(&mut self.wide);
            self.keys.sort_unstable();
            self.keys.dedup();
        }
        debug_assert!(self.keys.is_sorted_by(|a, b| a < b), "keys out of order");
        self.keys.to_vec()
    }
}

/// The term code of a kind, given the pass's codes with an argument.
fn code_of(args: &[u32], kind: usize) -> u32 {
    match kind.checked_sub(LABEL_TEXT.len()) {
        Some(arg) => args[arg],
        None => (kind as u32 + 1) << ARG_BITS,
    }
}

/// The set bits of a mask, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

// The classifiers below are exhaustive on purpose: a new event variant
// must fail to compile here until it is given a label.

fn gmp_record(e: &GmpEvent, _: &mut Names) -> (u16, u32, bool) {
    let label = match e {
        // Refine the variants whose payload distinguishes behaviour the
        // campaign should steer toward.
        GmpEvent::GroupView { members, .. } => {
            return (0, term(Label::GroupView, members.len()), false);
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
    (0, term(label, 0), false)
}

fn tcp_record(e: &TcpEvent, names: &mut Names) -> (u16, u32, bool) {
    let label = match e {
        TcpEvent::SegmentSent { kind, .. } => {
            return (
                0,
                term(Label::SegmentSent, name_id(names, kind).into()),
                false,
            );
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
    let retx = matches!(label, Label::Retransmit | Label::FastRetransmit);
    (0, term(label, 0), retx)
}

fn tpc_record(e: &TpcEvent, _: &mut Names) -> (u16, u32, bool) {
    let label = match e {
        TpcEvent::Voted { yes: true, .. } => Label::VotedYes,
        TpcEvent::Voted { yes: false, .. } => Label::VotedNo,
        TpcEvent::DecisionMade { commit: true, .. } => Label::DecisionMadeCommit,
        TpcEvent::DecisionMade { commit: false, .. } => Label::DecisionMadeAbort,
        TpcEvent::DecisionApplied { commit: true, .. } => Label::DecisionAppliedCommit,
        TpcEvent::DecisionApplied { commit: false, .. } => Label::DecisionAppliedAbort,
        TpcEvent::Started { .. } => Label::Started,
        TpcEvent::Blocked { .. } => Label::Blocked,
        TpcEvent::DecisionRetriesExhausted { .. } => Label::DecisionRetriesExhausted,
    };
    (0, term(label, 0), false)
}

/// A timer record's stream is its owning layer's.
fn timer_record(e: &TimerTrace, names: &mut Names) -> (u16, u32, bool) {
    let (layer, label) = match e {
        TimerTrace::Set { layer, .. } => (layer, Label::Set),
        TimerTrace::Fired { layer, .. } => (layer, Label::Fired),
        TimerTrace::Cancelled { layer } => (layer, Label::Cancelled),
        TimerTrace::Suppressed { layer } => (layer, Label::Suppressed),
    };
    (
        name_id(names, layer),
        term(label, 0),
        matches!(label, Label::Fired),
    )
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

        let mut names = Names::default();
        // (term code, Debug-derived variant name, refinement suffix)
        let mut cases: Vec<(u32, String, String)> = Vec::new();

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
            let (_, code, _) = gmp_record(e, &mut names);
            cases.push((code, debug_name(e), refinement.to_string()));
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
            let (_, code, _) = tcp_record(e, &mut names);
            cases.push((code, debug_name(e), refinement.clone()));
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
            let (_, code, _) = tpc_record(e, &mut names);
            cases.push((code, debug_name(e), refinement.clone()));
        }

        let layer = "gmd";
        for e in [
            TimerTrace::Set { layer, token: 1 },
            TimerTrace::Fired { layer, token: 1 },
            TimerTrace::Cancelled { layer },
            TimerTrace::Suppressed { layer },
        ] {
            let (owner, code, _) = timer_record(&e, &mut names);
            assert_eq!(name(owner.into()), layer);
            cases.push((code, debug_name(&e), String::new()));
        }

        let mut labels_seen = BTreeSet::new();
        for &(code, ref variant, ref refinement) in &cases {
            let mut text = String::new();
            render_term(code, &mut text);
            assert_eq!(text, format!("{variant}{refinement}"));
            labels_seen.insert(code >> ARG_BITS);
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

    /// Node 2 sorts before node 10 as a key and after it as text: the
    /// edges a merge hands over are the same from keys and from text, in
    /// text order once sorted.
    #[test]
    fn added_edges_from_keys_sort_into_text_order() {
        let mut log = TraceLog::new();
        for node in [2, 10] {
            log.record(SimTime::ZERO, n(node), "gmd", GmpEvent::Started);
            log.record(SimTime::ZERO, n(node), "gmd", GmpEvent::FormedSingleton);
        }
        let cov = Coverage::from_trace(&log);
        assert_eq!((cov.keys[0] >> NODE) as u32, 2, "keys sort by node number");
        let added = |run: &Coverage| {
            let mut edges = Vec::new();
            let new = Coverage::new().merge_with(run, |e| edges.push(e.to_string()));
            assert_eq!(new, edges.len());
            edges
        };
        let mut by_key = added(&cov);
        assert!(cov.text.get().is_none(), "merging built the run's text set");
        assert!(by_key[0].starts_with("gmp:n2:"), "{by_key:?}");
        by_key.sort_unstable();

        let by_text = added(&Coverage::from_edges(cov.edges().map(str::to_string)));
        assert!(by_text[0].starts_with("gmp:n10:"), "{by_text:?}");
        assert_eq!(by_key, by_text);
        assert!(by_key.iter().map(String::as_str).eq(cov.edges()));
    }
}
