//! # pfi-tpc — two-phase commit under fault injection
//!
//! The paper's future work (iii) is "experimental studies of other
//! commercial and prototype distributed protocols". This crate is such a
//! study target: a textbook two-phase commit (2PC) — `PREPARE` →
//! `VOTE_YES`/`VOTE_NO` → `COMMIT`/`ABORT` → `ACK` — whose classic
//! weaknesses the PFI toolkit exposes on demand:
//!
//! * a lost or negative vote aborts the transaction globally;
//! * a coordinator crash *after* `PREPARE` leaves prepared participants
//!   **blocked in uncertainty** (the protocol's fundamental flaw — they may
//!   neither commit nor abort unilaterally);
//! * dropped decisions are retried by the coordinator until acknowledged,
//!   so type-selective `COMMIT` drops turn into a live blocking window.
//!
//! Agreement (no two participants decide differently) holds under every
//! message fault; the price is blocking, and the trace shows exactly where.
//!
//! Runs over [`pfi_rudp`] like the GMP; interpose the PFI layer between
//! this layer and the reliable layer.

#![warn(missing_docs)]

use std::any::Any;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use pfi_core::PacketStub;
use pfi_sim::{Context, Layer, Message, NodeId, SimDuration, TimerId};

/// First byte of every 2PC packet.
pub const MAGIC: u8 = 0xB4;

/// 2PC message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcType {
    /// Phase 1 request.
    Prepare,
    /// Positive vote.
    VoteYes,
    /// Negative vote.
    VoteNo,
    /// Phase 2 decision: commit.
    Commit,
    /// Phase 2 decision: abort.
    Abort,
    /// Decision acknowledgement.
    Ack,
}

impl TpcType {
    fn to_byte(self) -> u8 {
        match self {
            TpcType::Prepare => 1,
            TpcType::VoteYes => 2,
            TpcType::VoteNo => 3,
            TpcType::Commit => 4,
            TpcType::Abort => 5,
            TpcType::Ack => 6,
        }
    }

    fn from_byte(b: u8) -> Option<TpcType> {
        Some(match b {
            1 => TpcType::Prepare,
            2 => TpcType::VoteYes,
            3 => TpcType::VoteNo,
            4 => TpcType::Commit,
            5 => TpcType::Abort,
            6 => TpcType::Ack,
            _ => return None,
        })
    }

    /// Script-visible name.
    pub fn name(self) -> &'static str {
        match self {
            TpcType::Prepare => "PREPARE",
            TpcType::VoteYes => "VOTE_YES",
            TpcType::VoteNo => "VOTE_NO",
            TpcType::Commit => "COMMIT",
            TpcType::Abort => "ABORT",
            TpcType::Ack => "ACK",
        }
    }
}

/// A decoded 2PC packet: `magic | type | txid(4) | sender(4)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcPacket {
    /// Message type.
    pub ty: TpcType,
    /// Transaction id.
    pub txid: u32,
    /// Transmitting node.
    pub sender: NodeId,
}

impl TpcPacket {
    /// Serialises (without the rudp service selector).
    pub fn to_bytes(&self) -> [u8; 10] {
        let mut b = [0u8; 10];
        b[0] = MAGIC;
        b[1] = self.ty.to_byte();
        b[2..6].copy_from_slice(&self.txid.to_be_bytes());
        b[6..10].copy_from_slice(&self.sender.as_u32().to_be_bytes());
        b
    }

    /// Parses, tolerating a one-byte rudp service selector in front.
    pub fn parse(bytes: &[u8]) -> Option<TpcPacket> {
        let b = if bytes.first() == Some(&MAGIC) {
            bytes
        } else if bytes.get(1) == Some(&MAGIC) {
            &bytes[1..]
        } else {
            return None;
        };
        if b.len() != 10 {
            return None;
        }
        Some(TpcPacket {
            ty: TpcType::from_byte(b[1])?,
            txid: u32::from_be_bytes([b[2], b[3], b[4], b[5]]),
            sender: NodeId::new(u32::from_be_bytes([b[6], b[7], b[8], b[9]])),
        })
    }
}

/// Timing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcConfig {
    /// How long the coordinator collects votes before aborting.
    pub vote_timeout: SimDuration,
    /// Gap between decision retransmissions to unacked participants.
    pub decision_retry: SimDuration,
    /// Decision retransmissions before the coordinator gives up.
    pub max_decision_retries: u32,
    /// How long a prepared participant waits for a decision before it is
    /// counted as *blocked* (it stays blocked — 2PC offers it no safe exit).
    pub uncertainty_timeout: SimDuration,
}

impl Default for TpcConfig {
    fn default() -> Self {
        TpcConfig {
            vote_timeout: SimDuration::from_secs(2),
            decision_retry: SimDuration::from_secs(1),
            max_decision_retries: 10,
            uncertainty_timeout: SimDuration::from_secs(5),
        }
    }
}

/// Observable protocol actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpcEvent {
    /// The coordinator started a transaction.
    Started {
        /// Transaction id.
        txid: u32,
    },
    /// A participant voted.
    Voted {
        /// Transaction id.
        txid: u32,
        /// Whether the vote was yes.
        yes: bool,
    },
    /// The coordinator reached a decision.
    DecisionMade {
        /// Transaction id.
        txid: u32,
        /// Whether the decision was commit.
        commit: bool,
    },
    /// A participant applied a decision.
    DecisionApplied {
        /// Transaction id.
        txid: u32,
        /// Whether the decision was commit.
        commit: bool,
    },
    /// A prepared participant has waited out the uncertainty timeout with
    /// no decision: it is blocked (the classic 2PC window).
    Blocked {
        /// Transaction id.
        txid: u32,
    },
    /// The coordinator exhausted decision retries toward some participant.
    DecisionRetriesExhausted {
        /// Transaction id.
        txid: u32,
    },
}

/// Participant-side transaction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpcState {
    /// Voted yes; awaiting the decision. **May not unilaterally proceed.**
    Prepared,
    /// Decision commit applied.
    Committed,
    /// Decision abort applied (or voted no).
    Aborted,
    /// Prepared and past the uncertainty timeout with no decision.
    Blocked,
}

/// Control operations.
#[derive(Debug)]
pub enum TpcControl {
    /// Start a transaction as coordinator across the given participants.
    Begin {
        /// Transaction id.
        txid: u32,
        /// The participants (not including the coordinator).
        participants: Vec<NodeId>,
    },
    /// Configure this participant to vote no on future transactions.
    SetVote {
        /// `false` = vote no.
        yes: bool,
    },
    /// Query local state for a transaction; replies [`TpcReply::State`].
    State {
        /// Transaction id.
        txid: u32,
    },
    /// Query the coordinator's decision; replies [`TpcReply::Decision`].
    Decision {
        /// Transaction id.
        txid: u32,
    },
}

/// Control replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpcReply {
    /// Nothing to report.
    Unit,
    /// Participant state, if the transaction is known here.
    State(Option<TpcState>),
    /// The coordinator's decision, if reached (`commit?`).
    Decision(Option<bool>),
}

impl TpcReply {
    /// Unwraps a `State` reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is of a different kind.
    pub fn expect_state(self) -> Option<TpcState> {
        match self {
            TpcReply::State(s) => s,
            other => panic!("expected State reply, got {other:?}"),
        }
    }

    /// Unwraps a `Decision` reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is of a different kind.
    pub fn expect_decision(self) -> Option<bool> {
        match self {
            TpcReply::Decision(d) => d,
            other => panic!("expected Decision reply, got {other:?}"),
        }
    }
}

#[derive(Debug, Clone)]
struct CoordTx {
    participants: Vec<NodeId>,
    votes: HashMap<NodeId, bool>,
    decision: Option<bool>,
    acked: HashSet<NodeId>,
    retries: u32,
    vote_timer: Option<TimerId>,
}

#[derive(Debug, Clone)]
struct PartTx {
    coordinator: NodeId,
    state: TpcState,
}

const TIMER_VOTE: u64 = 0;
const TIMER_RETRY: u64 = 1;
const TIMER_UNCERTAIN: u64 = 2;

fn token(txid: u32, kind: u64) -> u64 {
    ((txid as u64) << 2) | kind
}
fn token_parts(t: u64) -> (u32, u64) {
    ((t >> 2) as u32, t & 0x3)
}

/// The two-phase commit layer (coordinator and participant roles in one).
#[derive(Debug, Clone)]
pub struct TpcLayer {
    config: TpcConfig,
    vote_yes: bool,
    coord: HashMap<u32, CoordTx>,
    part: HashMap<u32, PartTx>,
}

impl TpcLayer {
    /// Creates a layer with the given timing configuration.
    pub fn new(config: TpcConfig) -> Self {
        TpcLayer {
            config,
            vote_yes: true,
            coord: HashMap::new(),
            part: HashMap::new(),
        }
    }

    fn send(&self, ctx: &mut Context<'_>, dst: NodeId, ty: TpcType, txid: u32) {
        let pkt = TpcPacket {
            ty,
            txid,
            sender: ctx.node(),
        };
        let mut body = vec![pfi_rudp::service::RELIABLE];
        body.extend_from_slice(&pkt.to_bytes());
        ctx.send_down(Message::new(ctx.node(), dst, &body));
    }

    fn decide(&mut self, ctx: &mut Context<'_>, txid: u32, commit: bool) {
        let Some(tx) = self.coord.get_mut(&txid) else {
            return;
        };
        if tx.decision.is_some() {
            return;
        }
        tx.decision = Some(commit);
        if let Some(t) = tx.vote_timer.take() {
            ctx.cancel_timer(t);
        }
        ctx.emit(TpcEvent::DecisionMade { txid, commit });
        let ty = if commit {
            TpcType::Commit
        } else {
            TpcType::Abort
        };
        let targets: Vec<NodeId> = tx.participants.clone();
        for p in targets {
            self.send(ctx, p, ty, txid);
        }
        ctx.set_timer(self.config.decision_retry, token(txid, TIMER_RETRY));
    }
}

impl Default for TpcLayer {
    fn default() -> Self {
        Self::new(TpcConfig::default())
    }
}

impl Layer for TpcLayer {
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "tpc"
    }

    fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
        let _ = (msg, ctx);
    }

    fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
        let Some(pkt) = TpcPacket::parse(msg.bytes()) else {
            return;
        };
        let txid = pkt.txid;
        match pkt.ty {
            TpcType::Prepare => {
                if self.part.contains_key(&txid) {
                    return; // duplicate prepare
                }
                let yes = self.vote_yes;
                let state = if yes {
                    TpcState::Prepared
                } else {
                    TpcState::Aborted
                };
                self.part.insert(
                    txid,
                    PartTx {
                        coordinator: pkt.sender,
                        state,
                    },
                );
                ctx.emit(TpcEvent::Voted { txid, yes });
                self.send(
                    ctx,
                    pkt.sender,
                    if yes {
                        TpcType::VoteYes
                    } else {
                        TpcType::VoteNo
                    },
                    txid,
                );
                if yes {
                    ctx.set_timer(
                        self.config.uncertainty_timeout,
                        token(txid, TIMER_UNCERTAIN),
                    );
                }
            }
            TpcType::VoteYes | TpcType::VoteNo => {
                let all_yes = {
                    let Some(tx) = self.coord.get_mut(&txid) else {
                        return;
                    };
                    if tx.decision.is_some() {
                        return;
                    }
                    tx.votes.insert(pkt.sender, pkt.ty == TpcType::VoteYes);
                    if pkt.ty == TpcType::VoteNo {
                        Some(false)
                    } else if tx.votes.len() == tx.participants.len()
                        && tx.votes.values().all(|v| *v)
                    {
                        Some(true)
                    } else {
                        None
                    }
                };
                if let Some(commit) = all_yes {
                    self.decide(ctx, txid, commit);
                }
            }
            TpcType::Commit | TpcType::Abort => {
                let commit = pkt.ty == TpcType::Commit;
                let Some(tx) = self.part.get_mut(&txid) else {
                    return;
                };
                match tx.state {
                    TpcState::Prepared | TpcState::Blocked => {
                        tx.state = if commit {
                            TpcState::Committed
                        } else {
                            TpcState::Aborted
                        };
                        ctx.emit(TpcEvent::DecisionApplied { txid, commit });
                    }
                    _ => {}
                }
                self.send(ctx, pkt.sender, TpcType::Ack, txid);
            }
            TpcType::Ack => {
                if let Some(tx) = self.coord.get_mut(&txid) {
                    tx.acked.insert(pkt.sender);
                }
            }
        }
    }

    fn timer(&mut self, t: u64, ctx: &mut Context<'_>) {
        let (txid, kind) = token_parts(t);
        match kind {
            TIMER_VOTE => {
                // Votes incomplete: abort.
                let undecided = self
                    .coord
                    .get(&txid)
                    .is_some_and(|tx| tx.decision.is_none());
                if undecided {
                    self.decide(ctx, txid, false);
                }
            }
            TIMER_RETRY => {
                let Some(tx) = self.coord.get_mut(&txid) else {
                    return;
                };
                let Some(commit) = tx.decision else {
                    return;
                };
                let pending: Vec<NodeId> = tx
                    .participants
                    .iter()
                    .copied()
                    .filter(|p| !tx.acked.contains(p))
                    .collect();
                if pending.is_empty() {
                    return;
                }
                tx.retries += 1;
                if tx.retries > self.config.max_decision_retries {
                    ctx.emit(TpcEvent::DecisionRetriesExhausted { txid });
                    return;
                }
                let ty = if commit {
                    TpcType::Commit
                } else {
                    TpcType::Abort
                };
                for p in pending {
                    self.send(ctx, p, ty, txid);
                }
                ctx.set_timer(self.config.decision_retry, token(txid, TIMER_RETRY));
            }
            TIMER_UNCERTAIN => {
                if let Some(tx) = self.part.get_mut(&txid) {
                    if tx.state == TpcState::Prepared {
                        tx.state = TpcState::Blocked;
                        ctx.emit(TpcEvent::Blocked { txid });
                    }
                    let _ = tx.coordinator;
                }
            }
            _ => {}
        }
    }

    fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
        let Ok(op) = op.downcast::<TpcControl>() else {
            return Box::new(TpcReply::Unit);
        };
        let reply = match *op {
            TpcControl::Begin { txid, participants } => {
                ctx.emit(TpcEvent::Started { txid });
                for &p in &participants {
                    self.send(ctx, p, TpcType::Prepare, txid);
                }
                let vote_timer = ctx.set_timer(self.config.vote_timeout, token(txid, TIMER_VOTE));
                self.coord.insert(
                    txid,
                    CoordTx {
                        participants,
                        votes: HashMap::new(),
                        decision: None,
                        acked: HashSet::new(),
                        retries: 0,
                        vote_timer: Some(vote_timer),
                    },
                );
                TpcReply::Unit
            }
            TpcControl::SetVote { yes } => {
                self.vote_yes = yes;
                TpcReply::Unit
            }
            TpcControl::State { txid } => TpcReply::State(self.part.get(&txid).map(|t| t.state)),
            TpcControl::Decision { txid } => {
                TpcReply::Decision(self.coord.get(&txid).and_then(|t| t.decision))
            }
        };
        Box::new(reply)
    }
}

/// Packet stub for PFI layers at the 2PC ↔ rudp boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct TpcStub;

impl PacketStub for TpcStub {
    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }

    fn protocol(&self) -> &'static str {
        "tpc"
    }

    fn type_of(&self, msg: &Message) -> Option<String> {
        self.type_name(msg).map(Cow::into_owned)
    }

    fn type_name(&self, msg: &Message) -> Option<Cow<'static, str>> {
        TpcPacket::parse(msg.bytes()).map(|p| Cow::Borrowed(p.ty.name()))
    }

    fn field(&self, msg: &Message, name: &str) -> Option<i64> {
        let p = TpcPacket::parse(msg.bytes())?;
        match name {
            "txid" => Some(p.txid as i64),
            "sender" => Some(p.sender.index() as i64),
            _ => None,
        }
    }

    fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
        false
    }

    fn generate(&self, src: NodeId, args: &[String]) -> Result<Message, String> {
        // `xInject down <TYPE> <dst> <txid>` — e.g. a forged ABORT probe.
        let ty = match args.first().map(|s| s.to_ascii_uppercase()).as_deref() {
            Some("PREPARE") => TpcType::Prepare,
            Some("COMMIT") => TpcType::Commit,
            Some("ABORT") => TpcType::Abort,
            Some("ACK") => TpcType::Ack,
            other => return Err(format!("tpc stub cannot generate {other:?}")),
        };
        let dst: u32 = args
            .get(1)
            .ok_or("missing dst")?
            .parse()
            .map_err(|_| "bad dst".to_string())?;
        let txid: u32 = args
            .get(2)
            .ok_or("missing txid")?
            .parse()
            .map_err(|_| "bad txid".to_string())?;
        let pkt = TpcPacket {
            ty,
            txid,
            sender: src,
        };
        let mut body = vec![pfi_rudp::service::RELIABLE];
        body.extend_from_slice(&pkt.to_bytes());
        Ok(Message::new(src, NodeId::new(dst), &body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_roundtrip_and_framing() {
        let p = TpcPacket {
            ty: TpcType::Commit,
            txid: 42,
            sender: NodeId::new(3),
        };
        assert_eq!(TpcPacket::parse(&p.to_bytes()), Some(p));
        let mut framed = vec![0u8];
        framed.extend_from_slice(&p.to_bytes());
        assert_eq!(TpcPacket::parse(&framed), Some(p));
        assert_eq!(TpcPacket::parse(&[1, 2, 3]), None);
        assert_eq!(TpcPacket::parse(&p.to_bytes()[..9]), None);
    }

    #[test]
    fn type_names() {
        for ty in [
            TpcType::Prepare,
            TpcType::VoteYes,
            TpcType::VoteNo,
            TpcType::Commit,
            TpcType::Abort,
            TpcType::Ack,
        ] {
            assert_eq!(TpcType::from_byte(ty.to_byte()), Some(ty));
            assert!(!ty.name().is_empty());
        }
        assert_eq!(TpcType::from_byte(0), None);
    }

    #[test]
    fn stub_recognises_and_generates() {
        let p = TpcPacket {
            ty: TpcType::Prepare,
            txid: 7,
            sender: NodeId::new(0),
        };
        let m = Message::new(NodeId::new(0), NodeId::new(1), &p.to_bytes());
        assert_eq!(TpcStub.type_of(&m).as_deref(), Some("PREPARE"));
        assert_eq!(TpcStub.field(&m, "txid"), Some(7));
        let args: Vec<String> = ["ABORT", "2", "9"].iter().map(|s| s.to_string()).collect();
        let forged = TpcStub.generate(NodeId::new(0), &args).unwrap();
        let parsed = TpcPacket::parse(forged.bytes()).unwrap();
        assert_eq!(parsed.ty, TpcType::Abort);
        assert_eq!(parsed.txid, 9);
    }
}
