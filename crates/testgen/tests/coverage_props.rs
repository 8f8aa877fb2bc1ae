//! Coverage extraction against a reference that works on strings.
//!
//! `Coverage::from_trace` packs every edge into an integer key, with the
//! names an edge spells (timer layers, TCP segment kinds) reduced to ids
//! from a process-wide table. This file checks that nothing of that shows:
//! over synthetic traces that reach every label, it must extract exactly
//! the edges a small string extractor derives from `Debug` output; a union
//! merged from its keys must agree with one merged from the reference's
//! text, return value by return value; and keys extracted on different
//! threads must agree.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::{Barrier, OnceLock};
use std::thread;

use pfi_gmp::GmpEvent;
use pfi_sim::{DropReason, NetTrace, NodeId, SimDuration, SimRng, SimTime, TimerTrace, TraceLog};
use pfi_tcp::{CloseReason, TcpEvent};
use pfi_testgen::Coverage;
use pfi_tpc::TpcEvent;
use proptest::prelude::*;

/// The variant name of an event: its `Debug` text up to the payload.
fn variant(e: &impl Debug) -> String {
    let text = format!("{e:?}");
    text.split(['(', '{', ' ']).next().unwrap().to_string()
}

/// The count buckets, spelt out.
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

/// The reference extractor: one stream per `namespace:node:` (timers add
/// `layer:`), an edge per kind of record, per pair of adjacent records and
/// per bucket of counted records (timer firings, TCP retransmissions).
fn reference(trace: &TraceLog) -> BTreeSet<String> {
    // stream prefix -> (terms in order, counted records, bucket edge name)
    let mut streams: BTreeMap<String, (Vec<String>, usize, &str)> = BTreeMap::new();
    trace.for_each(|r| {
        let node = r.node;
        let (prefix, term, counted, counter) = if let Some(e) = r.event_as::<TimerTrace>() {
            let layer = match e {
                TimerTrace::Set { layer, .. }
                | TimerTrace::Fired { layer, .. }
                | TimerTrace::Cancelled { layer }
                | TimerTrace::Suppressed { layer } => layer,
            };
            let fired = matches!(e, TimerTrace::Fired { .. });
            (
                format!("timer:{node}:{layer}:"),
                variant(e),
                fired,
                "fired:",
            )
        } else if let Some(e) = r.event_as::<GmpEvent>() {
            let refinement = match e {
                GmpEvent::GroupView { members, .. } => format!(":{}", members.len()),
                GmpEvent::ProclaimAnswered { to, origin } if to == origin => ":direct".into(),
                GmpEvent::ProclaimAnswered { .. } => ":misrouted".into(),
                _ => String::new(),
            };
            (format!("gmp:{node}:"), variant(e) + &refinement, false, "")
        } else if let Some(e) = r.event_as::<TcpEvent>() {
            let refinement = match e {
                TcpEvent::SegmentSent { kind, .. } => format!(":{kind}"),
                TcpEvent::Closed { reason, .. } => format!(":{reason:?}"),
                TcpEvent::Reset { sent: true, .. } => ":sent".into(),
                TcpEvent::Reset { sent: false, .. } => ":recv".into(),
                TcpEvent::PeerWindow { window: 0, .. } => ":zero".into(),
                TcpEvent::PeerWindow { .. } => ":open".into(),
                _ => String::new(),
            };
            let retx = matches!(e, TcpEvent::Retransmit { .. });
            (
                format!("tcp:{node}:"),
                variant(e) + &refinement,
                retx,
                "retx:",
            )
        } else if let Some(e) = r.event_as::<TpcEvent>() {
            let refinement = match e {
                TpcEvent::Voted { yes, .. } => format!(":{yes}"),
                TpcEvent::DecisionMade { commit, .. }
                | TpcEvent::DecisionApplied { commit, .. } => {
                    format!(":{commit}")
                }
                _ => String::new(),
            };
            (format!("tpc:{node}:"), variant(e) + &refinement, false, "")
        } else {
            return;
        };
        let stream = streams.entry(prefix).or_insert((Vec::new(), 0, counter));
        stream.0.push(term);
        stream.1 += usize::from(counted);
    });
    let mut edges = BTreeSet::new();
    for (prefix, (terms, count, counter)) in streams {
        edges.extend(terms.iter().map(|t| format!("{prefix}{t}")));
        edges.extend(
            terms
                .windows(2)
                .map(|w| format!("{prefix}{}>{}", w[0], w[1])),
        );
        if count > 0 {
            edges.insert(format!("{prefix}{counter}{}", bucket(count)));
        }
    }
    edges
}

/// `text`, leaked once per call: a `&'static str` equal to every other copy
/// by content and to none by address.
fn leak(text: &str) -> &'static str {
    Box::leak(text.to_string().into_boxed_str())
}

/// Timer layer and segment names, each as a literal and as a leaked copy,
/// so that one trace names the same thing through distinct statics.
fn names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let literals = ["gmd", "rudp", "tcp", "SYN", "SYN-ACK", "DATA", "FIN", "RST"];
        literals.iter().flat_map(|l| [*l, leak(l)]).collect()
    })
}

/// Sixty-six segment kinds, for a stream of more kinds than a 64-bit set
/// holds.
fn many_kinds() -> &'static [&'static str] {
    static KINDS: OnceLock<Vec<&'static str>> = OnceLock::new();
    KINDS.get_or_init(|| (0..66).map(|i| leak(&format!("K{i}"))).collect())
}

/// A record to append: its time and node are the caller's.
type Record = Box<dyn FnOnce(&mut TraceLog, SimTime, NodeId)>;

/// One event of every label the extractor knows, chosen by `pick`; no
/// counted record (those are placed by count, see `synthetic`).
fn event(pick: u64, rng: &mut SimRng) -> Record {
    let name = names()[rng.uniform_u64(0, names().len() as u64) as usize];
    let small = rng.uniform_u64(0, 4) as u32;
    let flag = rng.coin(0.5);
    let second = SimDuration::from_secs(1);
    macro_rules! rec {
        ($layer:expr, $e:expr) => {{
            let e = $e;
            Box::new(move |log: &mut TraceLog, t, n| log.record(t, n, $layer, e)) as Record
        }};
    }
    match pick % 44 {
        0 => rec!("gmd", GmpEvent::Started),
        1 => rec!(
            "gmd",
            GmpEvent::GroupView {
                gid: 1,
                members: (0..small).collect(),
                leader: 0,
            }
        ),
        2 => rec!("gmd", GmpEvent::InTransition { gid: 1 }),
        3 => rec!("gmd", GmpEvent::MemberSuspected { suspect: small }),
        4 => rec!(
            "gmd",
            GmpEvent::McInitiated {
                gid: 2,
                members: vec![0, 1],
            }
        ),
        5 => rec!("gmd", GmpEvent::CommitTimedOut),
        6 => rec!("gmd", GmpEvent::FormedSingleton),
        7 => rec!("gmd", GmpEvent::ProclaimSent { to: small }),
        8 => rec!(
            "gmd",
            GmpEvent::ProclaimForwarded {
                origin: 1,
                to: small
            }
        ),
        9 => rec!(
            "gmd",
            GmpEvent::ProclaimAnswered {
                to: small,
                origin: 1
            }
        ),
        10 => rec!("gmd", GmpEvent::JoinSent { to: small }),
        11 => rec!("gmd", GmpEvent::NakSent { to: small }),
        12 => rec!("gmd", GmpEvent::SelfDeclaredDead),
        13 => rec!("gmd", GmpEvent::ProclaimForwardDroppedByBug),
        14 => rec!(
            "gmd",
            GmpEvent::SpuriousTimerInTransition { suspect: small }
        ),
        15 => rec!("tcp", TcpEvent::Connected { conn: 0 }),
        16 => rec!("tcp", TcpEvent::DataDelivered { conn: 0, bytes: 9 }),
        17 => rec!("tcp", TcpEvent::OutOfOrderQueued { conn: 0, seq: 1 }),
        18 => rec!(
            "tcp",
            TcpEvent::KeepaliveProbe {
                conn: 0,
                nth: 1,
                garbage_bytes: 0,
            }
        ),
        19 => rec!(
            "tcp",
            TcpEvent::ZeroWindowProbe {
                conn: 0,
                nth: 1,
                next_interval: second,
            }
        ),
        20 => rec!(
            "tcp",
            TcpEvent::PeerWindow {
                conn: 0,
                window: small as u16 * 512,
            }
        ),
        21 => rec!(
            "tcp",
            TcpEvent::Reset {
                conn: 0,
                sent: flag
            }
        ),
        22 => rec!("tcp", TcpEvent::DecodeFailed),
        23..=25 => rec!(
            "tcp",
            TcpEvent::SegmentSent {
                conn: 0,
                seq: 1,
                len: 0,
                kind: name,
            }
        ),
        26..=27 => {
            let reason = [
                CloseReason::Timeout,
                CloseReason::KeepaliveTimeout,
                CloseReason::Reset,
                CloseReason::Fin,
                CloseReason::App,
            ][small as usize % 5];
            rec!("tcp", TcpEvent::Closed { conn: 0, reason })
        }
        28 => rec!("tpc", TpcEvent::Started { txid: 1 }),
        29 => rec!("tpc", TpcEvent::Blocked { txid: 1 }),
        30 => rec!("tpc", TpcEvent::DecisionRetriesExhausted { txid: 1 }),
        31 => rec!("tpc", TpcEvent::Voted { txid: 1, yes: flag }),
        32 => rec!(
            "tpc",
            TpcEvent::DecisionMade {
                txid: 1,
                commit: flag,
            }
        ),
        33 => rec!(
            "tpc",
            TpcEvent::DecisionApplied {
                txid: 1,
                commit: flag,
            }
        ),
        34..=35 => rec!(
            "world",
            TimerTrace::Set {
                layer: name,
                token: 1
            }
        ),
        36..=37 => rec!("world", TimerTrace::Cancelled { layer: name }),
        38..=39 => rec!("world", TimerTrace::Suppressed { layer: name }),
        // Records of other types, which no edge counts.
        40 => rec!(
            "world",
            NetTrace::Sent {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                len: 9,
            }
        ),
        41 => rec!(
            "world",
            NetTrace::Dropped {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                len: 9,
                reason: DropReason::LinkDown,
            }
        ),
        42 => rec!("pfi", format!("note {small}")),
        _ => rec!("gmd", GmpEvent::Started),
    }
}

/// One stream's counted records — timer firings of `layer`, or TCP
/// retransmissions, by `kind` — with `left` of them still to place.
struct Counted {
    kind: u64,
    layer: &'static str,
    node: NodeId,
    left: usize,
}

impl Counted {
    fn record(&mut self, log: &mut TraceLog, t: SimTime) {
        self.left -= 1;
        let (conn, seq, nth, node) = (0, 1, 1, self.node);
        if self.kind == 0 {
            let fired = TimerTrace::Fired {
                layer: self.layer,
                token: 1,
            };
            log.record(t, node, "world", fired)
        } else {
            let next_rto = SimDuration::from_secs(1);
            let retx = TcpEvent::Retransmit {
                conn,
                seq,
                nth,
                next_rto,
            };
            log.record(t, node, "tcp", retx)
        }
    }
}

/// A trace over nodes 0–12 (`n2` sorts before `n10` as a number and after
/// it as text) with every label, names through distinct statics, counted
/// records at every bucket boundary, and — when `wide` — one gmp stream
/// and one tcp stream of more than 64 distinct kinds.
fn synthetic(seed: u64, records: usize, wide: bool) -> TraceLog {
    let mut rng = SimRng::seed_from(seed);
    let mut log = TraceLog::new();
    let mut t = 0;
    let mut at = |rng: &mut SimRng| {
        t += rng.uniform_u64(0, 3);
        (
            SimTime::from_micros(t),
            NodeId::new(rng.uniform_u64(0, 13) as u32),
        )
    };
    // Counted records for a few streams, `n` each, placed among the rest.
    let mut pending: Vec<Counted> = [0, 1, 2, 3, 4, 5, 8, 9]
        .into_iter()
        .map(|left| Counted {
            kind: rng.uniform_u64(0, 2),
            layer: names()[rng.uniform_u64(0, 6) as usize],
            node: NodeId::new(rng.uniform_u64(0, 13) as u32),
            left,
        })
        .collect();
    for _ in 0..records {
        let (time, node) = at(&mut rng);
        if rng.coin(0.2) {
            if let Some(counted) = pending.iter_mut().find(|c| c.left > 0) {
                counted.record(&mut log, time);
                continue;
            }
        }
        event(rng.uniform_u64(0, 44), &mut rng)(&mut log, time, node);
    }
    for counted in &mut pending {
        while counted.left > 0 {
            let (time, _) = at(&mut rng);
            counted.record(&mut log, time);
        }
    }
    if wide {
        let (n7, n11) = (NodeId::new(7), NodeId::new(11));
        for (i, kind) in many_kinds().iter().enumerate() {
            let (time, _) = at(&mut rng);
            let view = GmpEvent::GroupView {
                gid: 1,
                members: vec![0; 70 - i],
                leader: 0,
            };
            log.record(time, n7, "gmd", view);
            log.record(time, n7, "gmd", GmpEvent::Started);
            let sent = TcpEvent::SegmentSent {
                conn: 0,
                seq: 1,
                len: 0,
                kind,
            };
            log.record(time, n11, "tcp", sent);
            log.record(time, n11, "tcp", TcpEvent::Connected { conn: 0 });
        }
    }
    log
}

/// Merges `run` into `union`, returning the count and the edges it added.
fn merge(union: &mut Coverage, run: &Coverage) -> (usize, Vec<String>) {
    let mut added = Vec::new();
    let new = union.merge_with(run, |e| added.push(e.to_string()));
    added.sort_unstable();
    (new, added)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Extraction equals the reference on every trace, and a union of
    /// extracted runs equals a union of the reference's text, merge by
    /// merge: the same return values, the same added edges, `len()` and
    /// text. Every other run also goes in as text, the way a journal
    /// replays it.
    #[test]
    fn extraction_and_merges_equal_the_string_reference(
        seed in any::<u64>(), runs in 1usize..6, records in 0usize..400,
    ) {
        let mut by_key = Coverage::new();
        let mut by_text = Coverage::new();
        for run in 0..runs {
            let trace = synthetic(seed ^ run as u64, records, seed.wrapping_add(run as u64).is_multiple_of(3));
            let expected = reference(&trace);
            let live = Coverage::from_trace(&trace);
            prop_assert_eq!(live.len(), expected.len(), "len() from keys");
            prop_assert!(live.edges().eq(expected.iter().map(String::as_str)), "edge text");

            let text = Coverage::from_edges(expected);
            let want = merge(&mut by_text, &text);
            let got = if run % 2 == 0 { merge(&mut by_key, &live) } else { merge(&mut by_key, &text) };
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(merge(&mut by_key, &Coverage::from_trace(&trace)).0, 0);
            prop_assert_eq!(by_key.len(), by_text.len());
            prop_assert!(by_key.edges().eq(by_text.edges()));
        }
    }
}

/// The cases the generator must not leave to chance: a trace of more than
/// 64 kinds in a stream, and one with nothing but records no edge counts.
#[test]
fn wide_streams_and_uncounted_traces_match_the_reference() {
    let wide = synthetic(7, 300, true);
    let cov = Coverage::from_trace(&wide);
    assert!(cov.contains("gmp:n7:GroupView:70>Started"));
    assert!(cov.contains("tcp:n11:SegmentSent:K65>Connected"));
    assert!(cov.edges().eq(reference(&wide).iter().map(String::as_str)));

    let mut noise = TraceLog::new();
    noise.record(SimTime::ZERO, NodeId::new(0), "pfi", String::from("x"));
    assert!(Coverage::from_trace(&noise).is_empty());
}

/// Two threads meet the same names in opposite orders; their keys still
/// agree, so the second merge into one union adds nothing, and the union
/// equals one built on a single thread.
#[test]
fn keys_extracted_on_two_threads_agree() {
    let layers = [leak("cross-thread-a"), leak("cross-thread-b")];
    let kinds = [leak("cross-thread-SYN"), leak("cross-thread-FIN")];
    // One stream per name; the order the streams' records interleave in is
    // what decides which name a thread meets first.
    let trace = |first: usize| {
        let mut log = TraceLog::new();
        for i in [first, 1 - first] {
            let node = NodeId::new(i as u32);
            for token in 0..3 {
                let t = SimTime::from_micros(token);
                log.record(
                    t,
                    node,
                    "world",
                    TimerTrace::Set {
                        layer: leak(layers[i]),
                        token,
                    },
                );
                log.record(
                    t,
                    node,
                    "world",
                    TimerTrace::Fired {
                        layer: layers[i],
                        token,
                    },
                );
                let kind = leak(kinds[i]);
                log.record(
                    t,
                    node,
                    "tcp",
                    TcpEvent::SegmentSent {
                        conn: 0,
                        seq: 1,
                        len: 0,
                        kind,
                    },
                );
            }
        }
        log
    };
    let start = Barrier::new(2);
    let [a, b] = thread::scope(|s| {
        [0, 1]
            .map(|first| {
                let (start, trace) = (&start, &trace);
                s.spawn(move || {
                    let log = trace(first);
                    start.wait();
                    Coverage::from_trace(&log)
                })
            })
            .map(|h| h.join().expect("extraction thread"))
    });
    let mut union = Coverage::new();
    assert!(union.merge(&a) > 0);
    assert_eq!(union.merge(&b), 0, "a key from the other thread was new");

    let mut single = Coverage::new();
    single.merge(&Coverage::from_trace(&trace(1)));
    single.merge(&Coverage::from_trace(&trace(0)));
    assert!(union.edges().eq(single.edges()));
    assert!(union
        .edges()
        .eq(reference(&trace(0)).iter().map(String::as_str)));
}
