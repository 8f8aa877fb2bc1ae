//! Per-connection TCP state machine.
//!
//! Implements the subset of RFC 793/1122 the paper's experiments exercise:
//! three-way handshake, sliding-window data transfer with cumulative ACKs,
//! exponential-backoff retransmission (Jacobson RTO + Karn sample/backoff
//! rules), keep-alive probing, zero-window (persist) probing, out-of-order
//! reassembly, FIN teardown, and RSTs. Vendor differences are entirely
//! profile-driven — see [`TcpProfile`](crate::TcpProfile).

use std::collections::{BTreeMap, VecDeque};

use pfi_sim::{Context, NodeId, SimDuration, SimTime, TimerId};

use crate::events::{CloseReason, TcpEvent};
use crate::profile::{KeepaliveStyle, TcpProfile};
use crate::rtt::RttEstimator;
use crate::segment::{flags, Segment};

/// Timer kinds multiplexed into timer tokens.
pub(crate) const TIMER_RETX: u64 = 0;
pub(crate) const TIMER_PERSIST: u64 = 1;
pub(crate) const TIMER_KEEPALIVE: u64 = 2;
pub(crate) const TIMER_TIMEWAIT: u64 = 3;

pub(crate) fn timer_token(conn: usize, kind: u64) -> u64 {
    ((conn as u64) << 3) | kind
}

pub(crate) fn token_parts(token: u64) -> (usize, u64) {
    ((token >> 3) as usize, token & 0x7)
}

/// Sequence-space comparison helpers (wrapping, per RFC 793).
fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Removes the first `n` bytes of `q` as one vector, copied by slice (a
/// `drain(..n).collect()` moves them a byte at a time).
fn take_front(q: &mut VecDeque<u8>, n: usize) -> Vec<u8> {
    let (front, back) = q.as_slices();
    let from_front = n.min(front.len());
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&front[..from_front]);
    out.extend_from_slice(&back[..n - from_front]);
    q.drain(..n);
    out
}

/// Connection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open sent a SYN.
    SynSent,
    /// Passive open answered a SYN.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN is acked; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after the peer; FIN sent.
    LastAck,
    /// Simultaneous close.
    Closing,
    /// Waiting out the quiet period after an orderly close.
    TimeWait,
}

/// A sent-but-unacknowledged segment.
#[derive(Debug, Clone)]
struct SentSeg {
    data: Vec<u8>,
    syn: bool,
    fin: bool,
    /// Retransmission count (0 = only the original transmission).
    retx: u32,
}

impl SentSeg {
    fn seq_len(&self) -> u32 {
        self.data.len() as u32 + self.syn as u32 + self.fin as u32
    }
    fn flags(&self) -> u8 {
        let mut f = flags::ACK;
        if self.syn {
            f |= flags::SYN;
        }
        if self.fin {
            f |= flags::FIN;
        }
        if !self.data.is_empty() {
            f |= flags::PSH;
        }
        f
    }
}

/// One TCP connection.
#[derive(Debug, Clone)]
pub(crate) struct Conn {
    pub(crate) id: usize,
    pub(crate) local_port: u16,
    pub(crate) remote: NodeId,
    pub(crate) remote_port: u16,
    pub(crate) state: TcpState,

    // Send side.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    last_peer_window: Option<u16>,
    send_q: VecDeque<u8>,
    inflight: BTreeMap<u32, SentSeg>,
    backoff: u32,
    timed: Option<(u32, SimTime)>,
    rtt: RttEstimator,
    global_errors: u32,
    retx_timer: Option<TimerId>,
    fin_queued: bool,
    fin_sent: bool,
    /// Congestion window in bytes (only consulted when the profile enables
    /// congestion control).
    cwnd: u32,
    /// Slow-start threshold in bytes.
    ssthresh: u32,
    /// Consecutive duplicate ACKs seen.
    dup_acks: u32,

    // Receive side.
    rcv_nxt: u32,
    ooo: BTreeMap<u32, Vec<u8>>,
    rcv_buf: VecDeque<u8>,
    consume: bool,
    delivered: Vec<u8>,

    // Keep-alive.
    keepalive_on: bool,
    ka_timer: Option<TimerId>,
    ka_probing: bool,
    ka_probes_sent: u32,
    ka_interval: SimDuration,

    // Zero-window persist.
    persist_timer: Option<TimerId>,
    persist_interval: SimDuration,
    zw_probes: u32,
}

/// Externally visible connection statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TcpStats {
    /// Bytes handed to the application (in-order).
    pub bytes_delivered: u64,
    /// Bytes accepted from the application for sending.
    pub bytes_queued: u64,
    /// Total retransmissions on this connection.
    pub retransmissions: u64,
    /// Keep-alive probes sent.
    pub keepalive_probes: u64,
    /// Zero-window probes sent.
    pub zero_window_probes: u64,
    /// Data currently waiting in the send queue.
    pub send_queue_len: usize,
    /// Unacknowledged bytes in flight.
    pub inflight: usize,
}

impl Conn {
    pub(crate) fn new(
        id: usize,
        local_port: u16,
        remote: NodeId,
        remote_port: u16,
        iss: u32,
        profile: &TcpProfile,
    ) -> Self {
        Conn {
            id,
            local_port,
            remote,
            remote_port,
            state: TcpState::Closed,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            last_peer_window: None,
            send_q: VecDeque::new(),
            inflight: BTreeMap::new(),
            backoff: 0,
            timed: None,
            rtt: RttEstimator::new(
                profile.rtt_adaptive,
                profile.initial_rto,
                profile.min_rto,
                profile.max_rto,
            ),
            global_errors: 0,
            retx_timer: None,
            fin_queued: false,
            fin_sent: false,
            cwnd: profile
                .congestion
                .map(|c| c.initial_cwnd_segments * profile.mss as u32)
                .unwrap_or(u32::MAX),
            ssthresh: profile.send_window,
            dup_acks: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rcv_buf: VecDeque::new(),
            consume: true,
            delivered: Vec::new(),
            keepalive_on: false,
            ka_timer: None,
            ka_probing: false,
            ka_probes_sent: 0,
            ka_interval: SimDuration::ZERO,
            persist_timer: None,
            persist_interval: SimDuration::ZERO,
            zw_probes: 0,
        }
    }

    pub(crate) fn stats(&self, totals: &ConnTotals) -> TcpStats {
        TcpStats {
            bytes_delivered: totals.bytes_delivered,
            bytes_queued: totals.bytes_queued,
            retransmissions: totals.retransmissions,
            keepalive_probes: totals.keepalive_probes,
            zero_window_probes: totals.zero_window_probes,
            send_queue_len: self.send_q.len(),
            inflight: self.inflight.values().map(|s| s.data.len()).sum(),
        }
    }

    // ---- basic helpers ------------------------------------------------

    fn rcv_window(&self, profile: &TcpProfile) -> u16 {
        if self.consume {
            profile.recv_buffer.min(u16::MAX as usize) as u16
        } else {
            profile
                .recv_buffer
                .saturating_sub(self.rcv_buf.len())
                .min(u16::MAX as usize) as u16
        }
    }

    fn emit_segment(
        &self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        seq: u32,
        flag_bits: u8,
        payload: &[u8],
    ) {
        let seg = Segment {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: if flag_bits & flags::ACK != 0 {
                self.rcv_nxt
            } else {
                0
            },
            flags: flag_bits,
            window: self.rcv_window(profile),
            payload: payload.to_vec(),
        };
        let msg = seg.encode(ctx.node(), self.remote);
        ctx.send_down(msg);
    }

    fn send_pure_ack(&self, profile: &TcpProfile, ctx: &mut Context<'_>) {
        self.emit_segment(profile, ctx, self.snd_nxt, flags::ACK, &[]);
    }

    fn cancel_timer(slot: &mut Option<TimerId>, ctx: &mut Context<'_>) {
        if let Some(id) = slot.take() {
            ctx.cancel_timer(id);
        }
    }

    fn cancel_all_timers(&mut self, ctx: &mut Context<'_>) {
        Self::cancel_timer(&mut self.retx_timer, ctx);
        Self::cancel_timer(&mut self.persist_timer, ctx);
        Self::cancel_timer(&mut self.ka_timer, ctx);
    }

    fn close(&mut self, ctx: &mut Context<'_>, reason: CloseReason) {
        self.state = TcpState::Closed;
        self.cancel_all_timers(ctx);
        ctx.emit(TcpEvent::Closed {
            conn: self.id,
            reason,
        });
    }

    // ---- opening ------------------------------------------------------

    /// Active open: send SYN.
    pub(crate) fn open_active(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>) {
        self.state = TcpState::SynSent;
        self.inflight.insert(
            self.iss,
            SentSeg {
                data: Vec::new(),
                syn: true,
                fin: false,
                retx: 0,
            },
        );
        self.emit_segment(profile, ctx, self.iss, flags::SYN, &[]);
        ctx.emit(TcpEvent::SegmentSent {
            conn: self.id,
            seq: self.iss,
            len: 0,
            kind: "SYN",
        });
        self.snd_nxt = self.iss.wrapping_add(1);
        self.arm_retx(ctx);
    }

    /// Passive open: a SYN arrived for one of our listeners.
    pub(crate) fn open_passive(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        syn: &Segment,
    ) {
        self.rcv_nxt = syn.seq.wrapping_add(1);
        self.snd_wnd = syn.window as u32;
        self.state = TcpState::SynRcvd;
        self.inflight.insert(
            self.iss,
            SentSeg {
                data: Vec::new(),
                syn: true,
                fin: false,
                retx: 0,
            },
        );
        self.emit_segment(profile, ctx, self.iss, flags::SYN | flags::ACK, &[]);
        ctx.emit(TcpEvent::SegmentSent {
            conn: self.id,
            seq: self.iss,
            len: 0,
            kind: "SYN-ACK",
        });
        self.snd_nxt = self.iss.wrapping_add(1);
        self.arm_retx(ctx);
    }

    // ---- application interface ----------------------------------------

    pub(crate) fn app_send(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        data: &[u8],
        totals: &mut ConnTotals,
    ) {
        totals.bytes_queued += data.len() as u64;
        self.send_q.extend(data);
        self.try_send(profile, ctx, totals);
    }

    pub(crate) fn app_close(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>) {
        match self.state {
            TcpState::Established | TcpState::CloseWait | TcpState::SynRcvd => {
                self.fin_queued = true;
                self.maybe_send_fin(profile, ctx);
            }
            TcpState::SynSent | TcpState::Closed => {
                self.close(ctx, CloseReason::App);
            }
            _ => {}
        }
    }

    fn maybe_send_fin(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>) {
        if !self.fin_queued || self.fin_sent || !self.send_q.is_empty() {
            return;
        }
        let seq = self.snd_nxt;
        self.inflight.insert(
            seq,
            SentSeg {
                data: Vec::new(),
                syn: false,
                fin: true,
                retx: 0,
            },
        );
        self.emit_segment(profile, ctx, seq, flags::FIN | flags::ACK, &[]);
        ctx.emit(TcpEvent::SegmentSent {
            conn: self.id,
            seq,
            len: 0,
            kind: "FIN",
        });
        self.snd_nxt = seq.wrapping_add(1);
        self.fin_sent = true;
        self.state = match self.state {
            TcpState::CloseWait => TcpState::LastAck,
            _ => TcpState::FinWait1,
        };
        self.arm_retx(ctx);
    }

    pub(crate) fn set_keepalive(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>, on: bool) {
        self.keepalive_on = on;
        Self::cancel_timer(&mut self.ka_timer, ctx);
        self.ka_probing = false;
        self.ka_probes_sent = 0;
        if on {
            self.ka_timer = Some(ctx.set_timer(
                profile.keepalive_idle,
                timer_token(self.id, TIMER_KEEPALIVE),
            ));
        }
    }

    pub(crate) fn set_consume(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>, on: bool) {
        let was = self.consume;
        self.consume = on;
        if on && !was {
            // Drain the buffered bytes to the application and advertise the
            // reopened window.
            let (front, back) = self.rcv_buf.as_slices();
            self.delivered.extend_from_slice(front);
            self.delivered.extend_from_slice(back);
            self.rcv_buf.clear();
            self.send_pure_ack(profile, ctx);
        }
    }

    pub(crate) fn take_delivered(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.delivered)
    }

    // ---- sending ------------------------------------------------------

    fn flight_size(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    pub(crate) fn try_send(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        totals: &mut ConnTotals,
    ) {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            return;
        }
        loop {
            if self.send_q.is_empty() {
                break;
            }
            let mut wnd = self.snd_wnd.min(profile.send_window);
            if profile.congestion.is_some() {
                wnd = wnd.min(self.cwnd);
            }
            let avail = wnd.saturating_sub(self.flight_size());
            if avail == 0 {
                if self.snd_wnd == 0 && self.inflight.is_empty() {
                    self.enter_persist(profile, ctx);
                }
                break;
            }
            let take = profile.mss.min(self.send_q.len()).min(avail as usize);
            let payload = take_front(&mut self.send_q, take);
            let seq = self.snd_nxt;
            if self.timed.is_none() {
                self.timed = Some((seq.wrapping_add(take as u32), ctx.now()));
            }
            self.inflight.insert(
                seq,
                SentSeg {
                    data: payload.clone(),
                    syn: false,
                    fin: false,
                    retx: 0,
                },
            );
            self.emit_segment(profile, ctx, seq, flags::ACK | flags::PSH, &payload);
            ctx.emit(TcpEvent::SegmentSent {
                conn: self.id,
                seq,
                len: take,
                kind: "DATA",
            });
            self.snd_nxt = seq.wrapping_add(take as u32);
            self.arm_retx(ctx);
            let _ = totals;
        }
        self.maybe_send_fin(profile, ctx);
    }

    fn arm_retx(&mut self, ctx: &mut Context<'_>) {
        if self.retx_timer.is_none() && !self.inflight.is_empty() {
            let rto = self.rtt.backed_off_rto(self.backoff);
            self.retx_timer = Some(ctx.set_timer(rto, timer_token(self.id, TIMER_RETX)));
        }
    }

    fn rearm_retx(&mut self, ctx: &mut Context<'_>) {
        Self::cancel_timer(&mut self.retx_timer, ctx);
        self.arm_retx(ctx);
    }

    // ---- persist (zero-window probing) ---------------------------------

    fn enter_persist(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>) {
        if self.persist_timer.is_some() {
            return;
        }
        self.persist_interval = profile.zw_probe_initial;
        self.zw_probes = 0;
        self.persist_timer =
            Some(ctx.set_timer(self.persist_interval, timer_token(self.id, TIMER_PERSIST)));
    }

    fn exit_persist(&mut self, ctx: &mut Context<'_>) {
        Self::cancel_timer(&mut self.persist_timer, ctx);
        self.zw_probes = 0;
    }

    fn on_persist_timer(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        totals: &mut ConnTotals,
    ) {
        self.persist_timer = None;
        if self.state == TcpState::Closed {
            return;
        }
        if self.snd_wnd > 0 {
            self.try_send(profile, ctx, totals);
            return;
        }
        // Probe with one byte of the next unsent data ("window probe").
        // The byte stays queued; it is only committed when acked.
        let probe: Vec<u8> = self.send_q.front().map(|b| vec![*b]).unwrap_or_default();
        if probe.is_empty() {
            return; // nothing left to say
        }
        self.emit_segment(profile, ctx, self.snd_nxt, flags::ACK | flags::PSH, &probe);
        self.zw_probes += 1;
        totals.zero_window_probes += 1;
        self.persist_interval = self.persist_interval.backoff(profile.zw_probe_cap);
        ctx.emit(TcpEvent::ZeroWindowProbe {
            conn: self.id,
            nth: self.zw_probes,
            next_interval: self.persist_interval,
        });
        // Zero-window probing never gives up: "a connection may hang
        // forever"; all four vendors probed indefinitely, ACKed or not.
        self.persist_timer =
            Some(ctx.set_timer(self.persist_interval, timer_token(self.id, TIMER_PERSIST)));
    }

    // ---- keep-alive ----------------------------------------------------

    fn ka_max_probes(profile: &TcpProfile) -> u32 {
        match profile.keepalive_style {
            KeepaliveStyle::FixedInterval { max_probes, .. } => max_probes,
            KeepaliveStyle::ExpBackoff { max_probes, .. } => max_probes,
        }
    }

    fn send_ka_probe(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        totals: &mut ConnTotals,
    ) {
        let garbage: &[u8] = if profile.keepalive_garbage_byte {
            &[0u8]
        } else {
            &[]
        };
        // SEG.SEQ = SND.NXT - 1: already-acked sequence space, so any live
        // peer must answer with an ACK.
        self.emit_segment(
            profile,
            ctx,
            self.snd_nxt.wrapping_sub(1),
            flags::ACK,
            garbage,
        );
        self.ka_probes_sent += 1;
        totals.keepalive_probes += 1;
        ctx.emit(TcpEvent::KeepaliveProbe {
            conn: self.id,
            nth: self.ka_probes_sent,
            garbage_bytes: garbage.len(),
        });
    }

    fn on_keepalive_timer(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        totals: &mut ConnTotals,
    ) {
        self.ka_timer = None;
        if !self.keepalive_on || self.state != TcpState::Established {
            return;
        }
        if self.ka_probing && self.ka_probes_sent > Self::ka_max_probes(profile) {
            // All probes (the original plus max_probes retransmissions)
            // went unanswered.
            if profile.keepalive_reset {
                self.emit_segment(profile, ctx, self.snd_nxt, flags::RST, &[]);
                ctx.emit(TcpEvent::Reset {
                    conn: self.id,
                    sent: true,
                });
            }
            self.close(ctx, CloseReason::KeepaliveTimeout);
            return;
        }
        if !self.ka_probing {
            self.ka_probing = true;
            self.ka_probes_sent = 0;
            self.ka_interval = match profile.keepalive_style {
                KeepaliveStyle::FixedInterval { interval, .. } => interval,
                KeepaliveStyle::ExpBackoff { initial, .. } => initial,
            };
        } else if let KeepaliveStyle::ExpBackoff { .. } = profile.keepalive_style {
            self.ka_interval = self.ka_interval.backoff(profile.max_rto);
        }
        self.send_ka_probe(profile, ctx, totals);
        self.ka_timer =
            Some(ctx.set_timer(self.ka_interval, timer_token(self.id, TIMER_KEEPALIVE)));
    }

    /// Any traffic from the peer proves liveness: reset keep-alive state.
    fn touch_keepalive(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>) {
        if !self.keepalive_on {
            return;
        }
        self.ka_probing = false;
        self.ka_probes_sent = 0;
        Self::cancel_timer(&mut self.ka_timer, ctx);
        self.ka_timer = Some(ctx.set_timer(
            profile.keepalive_idle,
            timer_token(self.id, TIMER_KEEPALIVE),
        ));
    }

    // ---- retransmission -------------------------------------------------

    fn on_retx_timer(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        totals: &mut ConnTotals,
    ) {
        self.retx_timer = None;
        let Some((&seq, _)) = self.inflight.iter().next() else {
            return;
        };
        self.backoff += 1;
        self.global_errors += 1;
        let (retx, flag_bits, data, seg_len) = {
            let seg = self.inflight.get_mut(&seq).expect("first inflight");
            seg.retx += 1;
            (seg.retx, seg.flags(), seg.data.clone(), seg.seq_len())
        };
        // Karn: the retransmitted segment's ACK time is now ambiguous, so
        // discard its in-progress RTT measurement (other segments' timed
        // samples stay valid).
        if self
            .timed
            .is_some_and(|(end, _)| end == seq.wrapping_add(seg_len))
        {
            self.timed = None;
        }
        let counter = if profile.global_error_counter {
            self.global_errors
        } else {
            retx
        };
        if counter > profile.max_data_retx {
            // One retransmission too many: give up on the connection.
            if profile.reset_on_timeout {
                self.emit_segment(profile, ctx, self.snd_nxt, flags::RST, &[]);
                ctx.emit(TcpEvent::Reset {
                    conn: self.id,
                    sent: true,
                });
            }
            self.close(ctx, CloseReason::Timeout);
            return;
        }
        if let Some(_cfg) = profile.congestion {
            // Tahoe timeout response: halve the threshold, restart slow
            // start from one segment.
            let mss = profile.mss as u32;
            self.ssthresh = (self.flight_size() / 2).max(2 * mss);
            self.cwnd = mss;
            self.dup_acks = 0;
        }
        totals.retransmissions += 1;
        self.emit_segment(profile, ctx, seq, flag_bits, &data);
        let next_rto = self.rtt.backed_off_rto(self.backoff);
        ctx.emit(TcpEvent::Retransmit {
            conn: self.id,
            seq,
            nth: retx,
            next_rto,
        });
        self.retx_timer = Some(ctx.set_timer(next_rto, timer_token(self.id, TIMER_RETX)));
    }

    // ---- timer dispatch --------------------------------------------------

    pub(crate) fn on_timer(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        kind: u64,
        totals: &mut ConnTotals,
    ) {
        if self.state == TcpState::Closed {
            return;
        }
        match kind {
            TIMER_RETX => self.on_retx_timer(profile, ctx, totals),
            TIMER_PERSIST => self.on_persist_timer(profile, ctx, totals),
            TIMER_KEEPALIVE => self.on_keepalive_timer(profile, ctx, totals),
            TIMER_TIMEWAIT if self.state == TcpState::TimeWait => {
                self.close(ctx, CloseReason::Fin);
            }
            _ => {}
        }
    }

    // ---- receiving -------------------------------------------------------

    pub(crate) fn on_segment(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        seg: Segment,
        totals: &mut ConnTotals,
    ) {
        if self.state == TcpState::Closed {
            return;
        }
        self.touch_keepalive(profile, ctx);
        if seg.has(flags::RST) {
            ctx.emit(TcpEvent::Reset {
                conn: self.id,
                sent: false,
            });
            self.close(ctx, CloseReason::Reset);
            return;
        }
        match self.state {
            TcpState::SynSent => {
                if seg.has(flags::SYN) && seg.has(flags::ACK) && seg.ack == self.iss.wrapping_add(1)
                {
                    self.inflight.remove(&self.iss);
                    self.snd_una = seg.ack;
                    self.rcv_nxt = seg.seq.wrapping_add(1);
                    self.snd_wnd = seg.window as u32;
                    self.backoff = 0;
                    self.rearm_retx(ctx);
                    self.state = TcpState::Established;
                    ctx.emit(TcpEvent::Connected { conn: self.id });
                    self.send_pure_ack(profile, ctx);
                    self.try_send(profile, ctx, totals);
                }
            }
            TcpState::SynRcvd => {
                if seg.has(flags::ACK) && seg.ack == self.iss.wrapping_add(1) {
                    self.inflight.remove(&self.iss);
                    self.snd_una = seg.ack;
                    self.snd_wnd = seg.window as u32;
                    self.backoff = 0;
                    self.rearm_retx(ctx);
                    self.state = TcpState::Established;
                    ctx.emit(TcpEvent::Connected { conn: self.id });
                    if !seg.payload.is_empty() {
                        self.handle_data(profile, ctx, &seg, totals);
                    }
                    self.try_send(profile, ctx, totals);
                }
            }
            _ => {
                if seg.has(flags::ACK) {
                    self.process_ack(profile, ctx, &seg, totals);
                }
                if self.state == TcpState::Closed {
                    return;
                }
                let had_payload = !seg.payload.is_empty();
                if had_payload {
                    self.handle_data(profile, ctx, &seg, totals);
                }
                if seg.has(flags::FIN) {
                    self.handle_fin(profile, ctx, &seg);
                } else if had_payload || seg.seq != self.rcv_nxt {
                    // ACK everything we have (cumulative; covers in-order,
                    // duplicate, and out-of-order data). An out-of-window
                    // *empty* segment must be ACKed too: that is how
                    // garbage-less keep-alive probes (AIX/NeXT/Solaris
                    // style, SEG.SEQ = SND.NXT - 1 with no data) elicit
                    // their answer.
                    self.send_pure_ack(profile, ctx);
                }
            }
        }
    }

    fn process_ack(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        seg: &Segment,
        totals: &mut ConnTotals,
    ) {
        // Window update first: a pure window-update ACK must reopen a
        // zero window even when it acknowledges nothing new.
        self.snd_wnd = seg.window as u32;
        if self.last_peer_window != Some(seg.window)
            && (seg.window == 0
                || self.last_peer_window == Some(0)
                || self.last_peer_window.is_none())
        {
            ctx.emit(TcpEvent::PeerWindow {
                conn: self.id,
                window: seg.window,
            });
        }
        self.last_peer_window = Some(seg.window);

        let ack = seg.ack;
        let probe_end = self.snd_nxt.wrapping_add(1);
        if seq_lt(self.snd_una, ack) && (seq_le(ack, self.snd_nxt) || ack == probe_end) {
            let mut acked_clean = true;
            let mut acked_any = false;
            while let Some((&seq, first)) = self.inflight.iter().next() {
                let end = seq.wrapping_add(first.seq_len());
                if !seq_le(end, ack) {
                    break;
                }
                if first.retx > 0 {
                    acked_clean = false;
                }
                acked_any = true;
                if let Some((timed_end, sent_at)) = self.timed {
                    if timed_end == end && first.retx == 0 {
                        self.rtt.sample(ctx.now().saturating_since(sent_at));
                        self.timed = None;
                    }
                }
                let was_fin = first.fin;
                self.inflight.remove(&seq);
                if was_fin {
                    self.on_fin_acked(ctx);
                }
            }
            if ack == probe_end && !self.send_q.is_empty() {
                // A zero-window probe byte was accepted.
                self.send_q.pop_front();
                self.snd_nxt = ack;
                acked_any = true;
            }
            self.snd_una = ack;
            if acked_any {
                // 4.3BSD resets the backoff shift whenever new data is
                // acknowledged (Karn's rule governs RTT *samples*, which
                // stay clean-only). The Solaris global fault counter,
                // however, is only cleared by an unambiguous ACK — that is
                // precisely what the paper's 35-second-delay probe exposed.
                self.backoff = 0;
                if acked_clean && profile.global_error_counter {
                    self.global_errors = 0;
                }
                if let Some(_cfg) = profile.congestion {
                    self.dup_acks = 0;
                    let mss = profile.mss as u32;
                    if self.cwnd < self.ssthresh {
                        // Slow start: one MSS per ACK.
                        self.cwnd = self.cwnd.saturating_add(mss);
                    } else {
                        // Congestion avoidance: ~one MSS per RTT.
                        self.cwnd = self.cwnd.saturating_add((mss * mss / self.cwnd).max(1));
                    }
                }
            }
            self.rearm_retx(ctx);
        } else if let Some(cfg) = profile.congestion {
            // A duplicate ACK: same ack number with data still in flight.
            if ack == self.snd_una && !self.inflight.is_empty() && seg.payload.is_empty() {
                self.dup_acks += 1;
                if cfg.fast_retransmit_dupacks > 0 && self.dup_acks == cfg.fast_retransmit_dupacks {
                    self.fast_retransmit(profile, ctx, totals);
                }
            }
        }
        if self.state == TcpState::Closed {
            return;
        }
        if self.snd_wnd > 0 {
            if self.persist_timer.is_some() {
                self.exit_persist(ctx);
            }
            self.try_send(profile, ctx, totals);
        } else if !self.send_q.is_empty() && self.inflight.is_empty() {
            self.enter_persist(profile, ctx);
        }
    }

    /// Tahoe fast retransmit: three duplicate ACKs mean the head segment is
    /// gone but later data arrived — resend it immediately instead of
    /// waiting out the RTO, then restart from a one-segment window.
    fn fast_retransmit(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        totals: &mut ConnTotals,
    ) {
        let Some((&seq, _)) = self.inflight.iter().next() else {
            return;
        };
        let (flag_bits, data, seg_len, retx) = {
            let seg = self.inflight.get_mut(&seq).expect("first inflight");
            seg.retx += 1;
            (seg.flags(), seg.data.clone(), seg.seq_len(), seg.retx)
        };
        if self
            .timed
            .is_some_and(|(end, _)| end == seq.wrapping_add(seg_len))
        {
            self.timed = None; // Karn
        }
        let mss = profile.mss as u32;
        self.ssthresh = (self.flight_size() / 2).max(2 * mss);
        self.cwnd = mss;
        self.dup_acks = 0;
        totals.retransmissions += 1;
        self.emit_segment(profile, ctx, seq, flag_bits, &data);
        ctx.emit(TcpEvent::FastRetransmit {
            conn: self.id,
            seq,
            nth: retx,
        });
        self.rearm_retx(ctx);
    }

    fn on_fin_acked(&mut self, ctx: &mut Context<'_>) {
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => {
                self.state = TcpState::TimeWait;
                ctx.set_timer(
                    SimDuration::from_secs(30),
                    timer_token(self.id, TIMER_TIMEWAIT),
                );
            }
            TcpState::LastAck => self.close(ctx, CloseReason::Fin),
            _ => {}
        }
    }

    fn handle_data(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        seg: &Segment,
        totals: &mut ConnTotals,
    ) {
        let seq = seg.seq;
        if seq == self.rcv_nxt {
            self.accept_in_order(profile, ctx, seg.payload.clone(), totals);
            // Reassemble any queued segments that are now contiguous.
            while let Some(data) = self.ooo.remove(&self.rcv_nxt) {
                self.accept_in_order(profile, ctx, data, totals);
            }
        } else if seq_lt(self.rcv_nxt, seq) && profile.queue_out_of_order {
            ctx.emit(TcpEvent::OutOfOrderQueued { conn: self.id, seq });
            self.ooo.entry(seq).or_insert_with(|| seg.payload.clone());
        }
        // Else: dropped; the cumulative ACK below asks for a resend.
        // seq < rcv_nxt: old duplicate or keep-alive probe; payload ignored,
        // the caller's ACK answers it.
    }

    fn accept_in_order(
        &mut self,
        profile: &TcpProfile,
        ctx: &mut Context<'_>,
        data: Vec<u8>,
        totals: &mut ConnTotals,
    ) {
        let take = if self.consume {
            data.len()
        } else {
            data.len()
                .min(profile.recv_buffer.saturating_sub(self.rcv_buf.len()))
        };
        if take == 0 {
            return; // zero window: payload dropped, ACK advertises 0
        }
        let accepted = &data[..take];
        if self.consume {
            self.delivered.extend_from_slice(accepted);
        } else {
            self.rcv_buf.extend(accepted);
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(take as u32);
        totals.bytes_delivered += take as u64;
        ctx.emit(TcpEvent::DataDelivered {
            conn: self.id,
            bytes: take,
        });
    }

    fn handle_fin(&mut self, profile: &TcpProfile, ctx: &mut Context<'_>, seg: &Segment) {
        let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
        if fin_seq != self.rcv_nxt {
            // FIN for data we have not received yet; ACK what we have.
            self.send_pure_ack(profile, ctx);
            return;
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                // Our FIN unacked: simultaneous close.
                self.state = TcpState::Closing;
            }
            TcpState::FinWait2 => {
                self.state = TcpState::TimeWait;
                ctx.set_timer(
                    SimDuration::from_secs(30),
                    timer_token(self.id, TIMER_TIMEWAIT),
                );
            }
            _ => {}
        }
        self.send_pure_ack(profile, ctx);
    }
}

/// Monotonic per-connection counters kept outside [`Conn`] so stats survive
/// connection teardown.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConnTotals {
    pub bytes_delivered: u64,
    pub bytes_queued: u64,
    pub retransmissions: u64,
    pub keepalive_probes: u64,
    pub zero_window_probes: u64,
}
