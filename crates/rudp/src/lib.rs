//! # pfi-rudp — a reliable datagram layer
//!
//! The substrate under the group membership protocol. The paper's GMP "was
//! written as a user-level server which ran on top of UDP; a reliable
//! communication layer was implemented using retransmission timers and
//! sequence numbers". This crate is that layer: per-peer sequence numbers,
//! positive acknowledgements, bounded retransmission, and duplicate
//! suppression — plus an *unreliable* service class for fire-and-forget
//! heartbeats.
//!
//! ## Service contract
//!
//! The layer above prepends a one-byte service selector to every message it
//! pushes ([`service::RELIABLE`] or [`service::UNRELIABLE`]); `pfi-rudp`
//! strips it, wraps the rest in its own header, and delivers bare payloads
//! upward on the receive path.
//!
//! Reliability is *best effort with bounded retries* (UDP-era semantics):
//! after [`RudpConfig::max_retries`] unacknowledged retransmissions the
//! message is silently abandoned (a [`RudpEvent::GaveUp`] trace records it).

#![warn(missing_docs)]

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use pfi_core::PacketStub;
use pfi_sim::{Context, Layer, Message, NodeId, SimDuration, TimerId};

/// Service selector bytes prepended by the layer above.
pub mod service {
    /// Deliver with acknowledgement and retransmission.
    pub const RELIABLE: u8 = 0;
    /// Fire-and-forget (heartbeats).
    pub const UNRELIABLE: u8 = 1;
}

/// Wire header: `kind(1) | seq(4) | len(2)`.
pub const HEADER_LEN: usize = 7;

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_UNREL: u8 = 2;

/// Tuning knobs for the reliable service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RudpConfig {
    /// Gap between retransmissions of an unacknowledged datagram.
    pub retry_interval: SimDuration,
    /// Retransmissions before giving up.
    pub max_retries: u32,
}

impl Default for RudpConfig {
    fn default() -> Self {
        RudpConfig {
            retry_interval: SimDuration::from_millis(500),
            max_retries: 5,
        }
    }
}

/// Trace events emitted by the layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RudpEvent {
    /// A reliable datagram was retransmitted.
    Retransmit {
        /// Destination peer.
        dst: NodeId,
        /// Sequence number.
        seq: u32,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A reliable datagram was abandoned after exhausting retries.
    GaveUp {
        /// Destination peer.
        dst: NodeId,
        /// Sequence number.
        seq: u32,
    },
    /// A duplicate datagram was suppressed.
    DuplicateSuppressed {
        /// Originating peer.
        src: NodeId,
        /// Sequence number.
        seq: u32,
    },
    /// An undecodable buffer arrived.
    DecodeFailed,
}

#[derive(Debug, Clone)]
struct Pending {
    dst: NodeId,
    seq: u32,
    payload: Vec<u8>,
    attempts: u32,
    timer: TimerId,
}

/// The reliable datagram layer.
#[derive(Debug, Clone)]
pub struct RudpLayer {
    config: RudpConfig,
    next_seq: HashMap<NodeId, u32>,
    pending: HashMap<u64, Pending>,
    by_dst_seq: HashMap<(NodeId, u32), u64>,
    seen: HashMap<NodeId, HashSet<u32>>,
    next_token: u64,
}

impl RudpLayer {
    /// Creates a layer with the given configuration.
    pub fn new(config: RudpConfig) -> Self {
        RudpLayer {
            config,
            next_seq: HashMap::new(),
            pending: HashMap::new(),
            by_dst_seq: HashMap::new(),
            seen: HashMap::new(),
            next_token: 0,
        }
    }

    /// Number of datagrams currently awaiting acknowledgement.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn wire(kind: u8, seq: u32, payload: &[u8], src: NodeId, dst: NodeId) -> Message {
        let mut msg = Message::new(src, dst, payload);
        Self::frame(&mut msg, kind, seq);
        msg
    }

    /// Prepends the wire header to a message holding a bare payload, into
    /// the headroom the message already carries.
    fn frame(msg: &mut Message, kind: u8, seq: u32) {
        let mut hdr = [0u8; HEADER_LEN];
        hdr[0] = kind;
        hdr[1..5].copy_from_slice(&seq.to_be_bytes());
        hdr[5..7].copy_from_slice(&(msg.len() as u16).to_be_bytes());
        msg.push_header(&hdr);
    }

    /// Kind, sequence number and payload of a well-formed wire image.
    fn parse(msg: &Message) -> Option<(u8, u32, &[u8])> {
        let b = msg.bytes();
        if b.len() < HEADER_LEN {
            return None;
        }
        let kind = b[0];
        let seq = u32::from_be_bytes([b[1], b[2], b[3], b[4]]);
        let len = u16::from_be_bytes([b[5], b[6]]) as usize;
        if b.len() != HEADER_LEN + len {
            return None;
        }
        Some((kind, seq, &b[HEADER_LEN..]))
    }
}

impl Default for RudpLayer {
    fn default() -> Self {
        Self::new(RudpConfig::default())
    }
}

impl Layer for RudpLayer {
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    /// Table by table, so the sequence, pending and duplicate tables keep
    /// the capacity the previous run grew.
    fn restore_from(&mut self, src: &dyn Layer) -> bool {
        let Some(src) = src.as_any().and_then(|any| any.downcast_ref::<RudpLayer>()) else {
            return false;
        };
        self.config = src.config;
        self.next_seq.clone_from(&src.next_seq);
        self.pending.clone_from(&src.pending);
        self.by_dst_seq.clone_from(&src.by_dst_seq);
        self.seen.clone_from(&src.seen);
        self.next_token = src.next_token;
        true
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "rudp"
    }

    fn push(&mut self, mut msg: Message, ctx: &mut Context<'_>) {
        let Some(svc) = msg.byte_at(0) else {
            return;
        };
        // The message handed down is the one that goes out: the selector
        // is skipped and the header written into its headroom.
        msg.skip_header(1);
        msg.set_src(ctx.node());
        let dst = msg.dst();
        match svc {
            service::UNRELIABLE => {
                Self::frame(&mut msg, KIND_UNREL, 0);
                ctx.send_down(msg);
            }
            _ => {
                let seq_slot = self.next_seq.entry(dst).or_insert(0);
                let seq = *seq_slot;
                *seq_slot += 1;
                // The one copy of a reliable send: kept for retransmission.
                let payload = msg.bytes().to_vec();
                Self::frame(&mut msg, KIND_DATA, seq);
                ctx.send_down(msg);
                self.next_token += 1;
                let token = self.next_token;
                let timer = ctx.set_timer(self.config.retry_interval, token);
                self.pending.insert(
                    token,
                    Pending {
                        dst,
                        seq,
                        payload,
                        attempts: 0,
                        timer,
                    },
                );
                self.by_dst_seq.insert((dst, seq), token);
            }
        }
    }

    fn pop(&mut self, mut msg: Message, ctx: &mut Context<'_>) {
        let src = msg.src();
        let Some((kind, seq, _)) = Self::parse(&msg) else {
            ctx.emit(RudpEvent::DecodeFailed);
            return;
        };
        match kind {
            KIND_DATA => {
                // Always acknowledge, even duplicates (the original ACK may
                // have been lost).
                ctx.send_down(Self::wire(KIND_ACK, seq, &[], ctx.node(), src));
                let seen = self.seen.entry(src).or_default();
                if seen.insert(seq) {
                    msg.skip_header(HEADER_LEN);
                    ctx.send_up(msg);
                } else {
                    ctx.emit(RudpEvent::DuplicateSuppressed { src, seq });
                }
            }
            KIND_ACK => {
                if let Some(token) = self.by_dst_seq.remove(&(src, seq)) {
                    if let Some(p) = self.pending.remove(&token) {
                        ctx.cancel_timer(p.timer);
                    }
                }
            }
            KIND_UNREL => {
                msg.skip_header(HEADER_LEN);
                ctx.send_up(msg);
            }
            _ => ctx.emit(RudpEvent::DecodeFailed),
        }
    }

    fn timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let Some(p) = self.pending.get_mut(&token) else {
            return;
        };
        p.attempts += 1;
        if p.attempts > self.config.max_retries {
            let p = self.pending.remove(&token).expect("just looked up");
            self.by_dst_seq.remove(&(p.dst, p.seq));
            ctx.emit(RudpEvent::GaveUp {
                dst: p.dst,
                seq: p.seq,
            });
            return;
        }
        ctx.emit(RudpEvent::Retransmit {
            dst: p.dst,
            seq: p.seq,
            attempt: p.attempts,
        });
        ctx.send_down(Self::wire(KIND_DATA, p.seq, &p.payload, ctx.node(), p.dst));
        p.timer = ctx.set_timer(self.config.retry_interval, token);
    }
}

/// Packet stub for PFI layers sitting *below* rudp (on the wire side).
/// Layers above rudp see bare application payloads instead.
#[derive(Debug, Clone, Copy, Default)]
pub struct RudpStub;

impl PacketStub for RudpStub {
    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }

    fn protocol(&self) -> &'static str {
        "rudp"
    }

    fn type_of(&self, msg: &Message) -> Option<String> {
        self.type_name(msg).map(Cow::into_owned)
    }

    fn type_name(&self, msg: &Message) -> Option<Cow<'static, str>> {
        RudpLayer::parse(msg).map(|(kind, _, _)| {
            Cow::Borrowed(match kind {
                KIND_DATA => "DATA",
                KIND_ACK => "ACK",
                KIND_UNREL => "UNREL",
                _ => "?",
            })
        })
    }

    fn field(&self, msg: &Message, name: &str) -> Option<i64> {
        let (kind, seq, payload) = RudpLayer::parse(msg)?;
        match name {
            "kind" => Some(kind as i64),
            "seq" => Some(seq as i64),
            "len" => Some(payload.len() as i64),
            _ => None,
        }
    }

    fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
        false
    }

    fn generate(&self, _src: NodeId, _args: &[String]) -> Result<Message, String> {
        Err("rudp stub does not generate packets".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfi_sim::{SimTime, World};
    use std::any::Any;

    /// Minimal app layer above rudp for tests.
    struct App;
    struct AppSend {
        dst: NodeId,
        reliable: bool,
        payload: Vec<u8>,
    }
    impl Layer for App {
        fn name(&self) -> &'static str {
            "app"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_up(msg);
        }
        fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
            let op = op.downcast::<AppSend>().expect("bad op");
            let mut body = vec![if op.reliable {
                service::RELIABLE
            } else {
                service::UNRELIABLE
            }];
            body.extend_from_slice(&op.payload);
            ctx.send_down(Message::new(ctx.node(), op.dst, &body));
            Box::new(())
        }
    }

    fn world() -> (World, NodeId, NodeId) {
        let mut w = World::new(3);
        let a = w.add_node(vec![Box::new(App), Box::new(RudpLayer::default())]);
        let b = w.add_node(vec![Box::new(App), Box::new(RudpLayer::default())]);
        (w, a, b)
    }

    fn send(w: &mut World, from: NodeId, to: NodeId, reliable: bool, payload: &[u8]) {
        w.control::<()>(
            from,
            0,
            AppSend {
                dst: to,
                reliable,
                payload: payload.to_vec(),
            },
        );
    }

    fn inbox(w: &mut World, node: NodeId) -> Vec<(SimTime, Vec<u8>)> {
        w.drain_inbox(node)
            .into_iter()
            .map(|(t, m)| (t, m.bytes().to_vec()))
            .collect()
    }

    #[test]
    fn reliable_delivery_on_clean_link() {
        let (mut w, a, b) = world();
        send(&mut w, a, b, true, b"hello");
        w.run_for(SimDuration::from_secs(1));
        let got = inbox(&mut w, b);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"hello");
    }

    #[test]
    fn retransmits_through_loss_and_suppresses_duplicates() {
        let (mut w, a, b) = world();
        w.network_mut().default_link_mut().loss = 0.5;
        for i in 0..50u8 {
            send(&mut w, a, b, true, &[i]);
        }
        w.run_for(SimDuration::from_secs(30));
        let mut got: Vec<u8> = inbox(&mut w, b).into_iter().map(|(_, p)| p[0]).collect();
        let n_raw = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), n_raw, "duplicates must not be delivered");
        // With 5 retries at 50% loss, effectively everything arrives.
        assert!(got.len() >= 45, "only {} of 50 arrived", got.len());
    }

    #[test]
    fn unreliable_is_fire_and_forget() {
        let (mut w, a, b) = world();
        w.network_mut().set_link_down(a, b);
        send(&mut w, a, b, false, b"hb");
        w.run_for(SimDuration::from_secs(10));
        assert!(inbox(&mut w, b).is_empty());
        let evs = w.trace().events_of::<RudpEvent>(Some(a));
        assert!(
            !evs.iter()
                .any(|(_, e)| matches!(e, RudpEvent::Retransmit { .. })),
            "unreliable datagrams must not be retransmitted"
        );
    }

    #[test]
    fn gives_up_after_max_retries() {
        let (mut w, a, b) = world();
        w.network_mut().set_link_down(a, b);
        send(&mut w, a, b, true, b"doomed");
        w.run_for(SimDuration::from_secs(30));
        let evs = w.trace().events_of::<RudpEvent>(Some(a));
        let retx = evs
            .iter()
            .filter(|(_, e)| matches!(e, RudpEvent::Retransmit { .. }))
            .count();
        assert_eq!(retx, 5);
        assert!(evs
            .iter()
            .any(|(_, e)| matches!(e, RudpEvent::GaveUp { .. })));
    }

    #[test]
    fn lost_ack_causes_retransmit_but_single_delivery() {
        let (mut w, a, b) = world();
        // Drop the b→a direction (ACKs) entirely.
        w.network_mut().link_mut(b, a).up = false;
        send(&mut w, a, b, true, b"once");
        w.run_for(SimDuration::from_secs(30));
        let got = inbox(&mut w, b);
        assert_eq!(got.len(), 1, "duplicates must be suppressed");
        let evs = w.trace().events_of::<RudpEvent>(Some(b));
        assert!(evs
            .iter()
            .any(|(_, e)| matches!(e, RudpEvent::DuplicateSuppressed { .. })));
    }

    #[test]
    fn per_peer_sequence_spaces_are_independent() {
        let mut w = World::new(3);
        let a = w.add_node(vec![Box::new(App), Box::new(RudpLayer::default())]);
        let b = w.add_node(vec![Box::new(App), Box::new(RudpLayer::default())]);
        let c = w.add_node(vec![Box::new(App), Box::new(RudpLayer::default())]);
        send(&mut w, a, b, true, b"to-b");
        send(&mut w, a, c, true, b"to-c");
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(inbox(&mut w, b).len(), 1);
        assert_eq!(inbox(&mut w, c).len(), 1);
    }

    #[test]
    fn stub_recognises_wire_packets() {
        let m = RudpLayer::wire(KIND_DATA, 42, b"xyz", NodeId::new(0), NodeId::new(1));
        assert_eq!(RudpStub.type_of(&m).as_deref(), Some("DATA"));
        assert_eq!(RudpStub.field(&m, "seq"), Some(42));
        assert_eq!(RudpStub.field(&m, "len"), Some(3));
        let ack = RudpLayer::wire(KIND_ACK, 7, &[], NodeId::new(0), NodeId::new(1));
        assert_eq!(RudpStub.type_of(&ack).as_deref(), Some("ACK"));
        assert_eq!(RudpStub.type_name(&ack), Some(Cow::Borrowed("ACK")));
    }

    #[test]
    fn malformed_buffers_are_rejected() {
        let (mut w, _a, b) = world();
        struct Raw;
        impl Layer for Raw {
            fn name(&self) -> &'static str {
                "raw"
            }
            fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
                ctx.send_down(msg);
            }
            fn pop(&mut self, _msg: Message, _ctx: &mut Context<'_>) {}
            fn control(&mut self, _op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
                ctx.send_down(Message::new(ctx.node(), NodeId::new(1), &[9, 9]));
                Box::new(())
            }
        }
        let r = w.add_node(vec![Box::new(Raw)]);
        w.control::<()>(r, 0, ());
        w.run_for(SimDuration::from_secs(1));
        let evs = w.trace().events_of::<RudpEvent>(Some(b));
        assert!(evs
            .iter()
            .any(|(_, e)| matches!(e, RudpEvent::DecodeFailed)));
    }
}
