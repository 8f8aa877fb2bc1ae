//! The group membership daemon (gmd) as a protocol layer.
//!
//! Implements the strong group membership protocol the paper tested:
//! heartbeats for failure detection, `PROCLAIM`/`JOIN` discovery by id
//! order (lowest id leads, standing in for "lowest IP address"), and a
//! two-phase membership change (`MEMBERSHIP_CHANGE` → `ACK`/`NAK` →
//! `COMMIT`) with an `IN_TRANSITION` state in between, so that "membership
//! changes are seen in the same order by all members". The three bugs of
//! [`GmpBugs`](crate::GmpBugs) are faithfully reproducible.

use std::any::Any;
use std::collections::{BTreeSet, HashMap, HashSet};

use pfi_sim::{Context, Layer, Message, NodeId, TimerId};

use crate::config::GmpConfig;
use crate::events::GmpEvent;
use crate::packet::{GmpPacket, GmpType};

const TOKEN_HB_TICK: u64 = 0;
const TOKEN_PROCLAIM_TICK: u64 = 1;
const TOKEN_MC_COMMIT: u64 = 2;
const TOKEN_COLLECT: u64 = 3;
const TOKEN_HB_EXPECT_BASE: u64 = 16;

/// Daemon status as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GmpStatus {
    /// Operating within a committed group.
    Up,
    /// Between groups: left the old one, waiting for the `COMMIT` of the
    /// new one.
    InTransition,
}

/// The committed group view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group id.
    pub id: u64,
    /// Sorted members.
    pub members: Vec<NodeId>,
}

impl Group {
    /// The leader: the member with the lowest id.
    pub fn leader(&self) -> NodeId {
        self.members[0]
    }

    /// The crown prince: next in line for leadership, if any.
    pub fn crown_prince(&self) -> Option<NodeId> {
        self.members.get(1).copied()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }
}

/// Control operations on a [`GmpLayer`].
#[derive(Debug)]
pub enum GmpControl {
    /// Boot the daemon (forms a singleton group and starts proclaiming).
    Start,
    /// Query the daemon's view; replies [`GmpReply::Status`].
    Status,
}

/// A snapshot of the daemon's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmpStatusReport {
    /// The current committed group (the *old* group while in transition).
    pub group: Group,
    /// Up or in transition.
    pub status: GmpStatus,
    /// Whether the self-death bug has triggered.
    pub self_marked_dead: bool,
}

/// Replies from [`GmpLayer::control`].
#[derive(Debug)]
pub enum GmpReply {
    /// Nothing to report.
    Unit,
    /// State snapshot.
    Status(GmpStatusReport),
}

impl GmpReply {
    /// Unwraps a `Status` reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is not `Status`.
    pub fn expect_status(self) -> GmpStatusReport {
        match self {
            GmpReply::Status(s) => s,
            other => panic!("expected Status reply, got {other:?}"),
        }
    }
}

/// A pending two-phase change this daemon is coordinating.
#[derive(Debug, Clone)]
struct PendingMc {
    gid: u64,
    proposed: Vec<NodeId>,
    acked: HashSet<NodeId>,
    collect_timer: TimerId,
}

/// The group membership daemon.
#[derive(Debug, Clone)]
pub struct GmpLayer {
    config: GmpConfig,
    me: Option<NodeId>,
    started: bool,
    group: Group,
    status: GmpStatus,
    /// The group we are transitioning into (valid while `InTransition`).
    prospective: Option<Group>,
    self_marked_dead: bool,
    gid_counter: u64,
    /// Per-member heartbeat-expect timers.
    hb_expect: HashMap<NodeId, TimerId>,
    /// Members we have timed out on (within the current view).
    timed_out: BTreeSet<NodeId>,
    mc_commit_timer: Option<TimerId>,
    pending_mc: Option<PendingMc>,
    /// Joins (node plus any members it carries) awaiting the next change.
    pending_joins: BTreeSet<NodeId>,
    /// Suspects awaiting the next change.
    pending_failures: BTreeSet<NodeId>,
}

impl GmpLayer {
    /// Creates a daemon with the given configuration.
    pub fn new(config: GmpConfig) -> Self {
        GmpLayer {
            config,
            me: None,
            started: false,
            group: Group {
                id: 0,
                members: vec![],
            },
            status: GmpStatus::Up,
            prospective: None,
            self_marked_dead: false,
            gid_counter: 0,
            hb_expect: HashMap::new(),
            timed_out: BTreeSet::new(),
            mc_commit_timer: None,
            pending_mc: None,
            pending_joins: BTreeSet::new(),
            pending_failures: BTreeSet::new(),
        }
    }

    fn me(&self) -> NodeId {
        self.me.expect("daemon not started")
    }

    // ---- wire helpers ---------------------------------------------------

    fn send(&self, ctx: &mut Context<'_>, dst: NodeId, pkt: &GmpPacket) {
        let svc = if pkt.ty == GmpType::Heartbeat {
            pfi_rudp::service::UNRELIABLE
        } else {
            pfi_rudp::service::RELIABLE
        };
        ctx.send_down(pkt.to_message(svc, self.me(), dst));
    }

    fn packet(&self, ty: GmpType) -> GmpPacket {
        GmpPacket {
            ty,
            sender: self.me(),
            origin: self.me(),
            group_id: self.group.id,
            members: vec![],
        }
    }

    fn next_gid(&mut self) -> u64 {
        self.gid_counter += 1;
        ((self.me().as_u32() as u64) << 32) | self.gid_counter
    }

    // ---- timer management ------------------------------------------------

    fn arm_hb_expect(&mut self, ctx: &mut Context<'_>, member: NodeId) {
        if let Some(old) = self.hb_expect.remove(&member) {
            ctx.cancel_timer(old);
        }
        let id = ctx.set_timer(
            self.config.heartbeat_timeout,
            TOKEN_HB_EXPECT_BASE + member.as_u32() as u64,
        );
        self.hb_expect.insert(member, id);
    }

    /// Unregisters heartbeat-expect timers on entering `IN_TRANSITION`.
    /// The correct implementation removes them all; the buggy one has its
    /// NULL/non-NULL logic inverted and removes only the first.
    fn unset_hb_timers(&mut self, ctx: &mut Context<'_>) {
        if self.config.bugs.timer_unset {
            let first = self.hb_expect.keys().min().copied();
            if let Some(k) = first {
                if let Some(id) = self.hb_expect.remove(&k) {
                    ctx.cancel_timer(id);
                }
            }
        } else {
            for (_, id) in self.hb_expect.drain() {
                ctx.cancel_timer(id);
            }
        }
    }

    fn arm_all_hb_timers(&mut self, ctx: &mut Context<'_>) {
        let members = self.group.members.clone();
        for m in members {
            self.arm_hb_expect(ctx, m);
        }
    }

    // ---- view changes ----------------------------------------------------

    fn adopt_view(&mut self, ctx: &mut Context<'_>, group: Group) {
        self.status = GmpStatus::Up;
        self.prospective = None;
        if let Some(t) = self.mc_commit_timer.take() {
            ctx.cancel_timer(t);
        }
        // Fresh failure-detection state for the new view.
        for (_, id) in self.hb_expect.drain() {
            ctx.cancel_timer(id);
        }
        self.timed_out.clear();
        self.pending_failures.retain(|f| group.contains(*f));
        self.pending_joins.retain(|j| !group.contains(*j));
        ctx.emit(GmpEvent::GroupView {
            gid: group.id,
            members: group.members.iter().map(|m| m.as_u32()).collect(),
            leader: group.leader().as_u32(),
        });
        self.group = group;
        self.arm_all_hb_timers(ctx);
    }

    fn form_singleton(&mut self, ctx: &mut Context<'_>) {
        let gid = self.next_gid();
        ctx.emit(GmpEvent::FormedSingleton);
        self.pending_mc = None;
        self.adopt_view(
            ctx,
            Group {
                id: gid,
                members: vec![self.me()],
            },
        );
    }

    /// Acting as (prospective) leader, start a two-phase change to
    /// `proposed`. Requires `me == min(proposed)`.
    fn initiate_mc(&mut self, ctx: &mut Context<'_>, proposed: Vec<NodeId>) {
        let me = self.me();
        debug_assert_eq!(proposed.first(), Some(&me), "only the lowest id may lead");
        if self.pending_mc.is_some() {
            return; // one change at a time; triggers stay queued
        }
        if proposed == self.group.members && self.status == GmpStatus::Up {
            return;
        }
        let gid = self.next_gid();
        ctx.emit(GmpEvent::McInitiated {
            gid,
            members: proposed.iter().map(|m| m.as_u32()).collect(),
        });
        if proposed.len() == 1 {
            // A group of one needs no agreement.
            self.adopt_view(
                ctx,
                Group {
                    id: gid,
                    members: proposed,
                },
            );
            return;
        }
        let pkt = GmpPacket {
            ty: GmpType::MembershipChange,
            sender: me,
            origin: me,
            group_id: gid,
            members: proposed.clone(),
        };
        for &m in proposed.iter().filter(|&&m| m != me) {
            self.send(ctx, m, &pkt);
        }
        let collect_timer = ctx.set_timer(self.config.mc_collect_timeout, TOKEN_COLLECT);
        self.pending_mc = Some(PendingMc {
            gid,
            proposed,
            acked: HashSet::new(),
            collect_timer,
        });
    }

    /// Computes and proposes the next view from current members, pending
    /// joins, and pending failures; only acts if we are the lowest id.
    fn propose_next_view(&mut self, ctx: &mut Context<'_>) {
        if self.pending_mc.is_some() {
            return;
        }
        let me = self.me();
        let mut set: BTreeSet<NodeId> = self.group.members.iter().copied().collect();
        set.extend(self.pending_joins.iter().copied());
        for f in self.pending_failures.iter().chain(self.timed_out.iter()) {
            set.remove(f);
        }
        set.insert(me);
        let proposed: Vec<NodeId> = set.into_iter().collect();
        if proposed.first() != Some(&me) {
            return; // someone with a lower id is responsible
        }
        self.pending_joins.clear();
        self.pending_failures.clear();
        self.initiate_mc(ctx, proposed);
    }

    fn finalize_commit(&mut self, ctx: &mut Context<'_>) {
        let Some(mc) = self.pending_mc.take() else {
            return;
        };
        ctx.cancel_timer(mc.collect_timer);
        let me = self.me();
        let mut final_members: Vec<NodeId> = mc
            .proposed
            .iter()
            .copied()
            .filter(|m| *m == me || mc.acked.contains(m))
            .collect();
        final_members.sort();
        let group = Group {
            id: mc.gid,
            members: final_members.clone(),
        };
        let pkt = GmpPacket {
            ty: GmpType::Commit,
            sender: me,
            origin: me,
            group_id: mc.gid,
            members: final_members.clone(),
        };
        for &m in final_members.iter().filter(|&&m| m != me) {
            self.send(ctx, m, &pkt);
        }
        self.adopt_view(ctx, group);
        // Anything that queued up during the change drives the next one.
        if !self.pending_joins.is_empty() || !self.pending_failures.is_empty() {
            self.propose_next_view(ctx);
        }
    }

    // ---- failure detection ------------------------------------------------

    fn on_hb_expect_timeout(&mut self, ctx: &mut Context<'_>, suspect: NodeId) {
        self.hb_expect.remove(&suspect);
        if self.self_marked_dead {
            // A daemon that believes itself dead does nothing about other
            // people's liveness (part of the bug's broken local state).
            return;
        }
        let me = self.me();
        if self.status == GmpStatus::InTransition {
            // With correct timer hygiene this cannot happen: all expect
            // timers are unset on entering the transition.
            ctx.emit(GmpEvent::SpuriousTimerInTransition {
                suspect: suspect.as_u32(),
            });
            return;
        }
        if !self.group.contains(suspect) {
            return;
        }
        ctx.emit(GmpEvent::MemberSuspected {
            suspect: suspect.as_u32(),
        });
        if suspect == me {
            // We missed our own heartbeats (clock stalled, stack wedged, or
            // a fault injector at work).
            if self.config.bugs.self_death {
                ctx.emit(GmpEvent::SelfDeclaredDead);
                self.self_marked_dead = true;
                // Tell the others we died — but never fix our own state.
                let mut pkt = self.packet(GmpType::FailureReport);
                pkt.origin = me;
                for &m in self.group.members.clone().iter().filter(|&&m| m != me) {
                    self.send(ctx, m, &pkt);
                }
            } else {
                // Fixed behaviour: restart as a singleton and rejoin.
                self.form_singleton(ctx);
            }
            return;
        }
        self.timed_out.insert(suspect);
        let leader = self.group.leader();
        if leader == me {
            self.pending_failures.insert(suspect);
            self.propose_next_view(ctx);
        } else if suspect == leader || self.timed_out.contains(&leader) {
            // The leader is among the silent: the lowest live member takes
            // over (crown prince succession, generalised).
            let live_min = self
                .group
                .members
                .iter()
                .copied()
                .find(|m| !self.timed_out.contains(m));
            if live_min == Some(me) {
                self.propose_next_view(ctx);
            }
        } else {
            let mut pkt = self.packet(GmpType::FailureReport);
            pkt.origin = suspect;
            self.send(ctx, leader, &pkt);
        }
    }

    // ---- proclaim / join ---------------------------------------------------

    fn proclaim_round(&mut self, ctx: &mut Context<'_>) {
        let me = self.me();
        if self.status != GmpStatus::Up || self.group.leader() != me || self.self_marked_dead {
            return;
        }
        let targets: Vec<NodeId> = self
            .config
            .peers
            .iter()
            .copied()
            .filter(|p| *p != me && !self.group.contains(*p))
            .collect();
        let pkt = self.packet(GmpType::Proclaim);
        for t in targets {
            ctx.emit(GmpEvent::ProclaimSent { to: t.as_u32() });
            self.send(ctx, t, &pkt);
        }
    }

    fn on_proclaim(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        let me = self.me();
        let origin = pkt.origin;
        if self.status != GmpStatus::Up {
            return;
        }
        if self.self_marked_dead {
            // The buggy forwarding path: wrong parameter type, packet lost.
            ctx.emit(GmpEvent::ProclaimForwardDroppedByBug);
            return;
        }
        let leader = self.group.leader();
        if origin == me {
            // Our own proclaim came back (a member forwarded it to us). The
            // buggy leader treats it like any other proclaim and answers the
            // sender — feeding the vicious proclaim cycle the paper found.
            if self.config.bugs.proclaim_forward && leader == me && pkt.sender != me {
                ctx.emit(GmpEvent::ProclaimAnswered {
                    to: pkt.sender.as_u32(),
                    origin: origin.as_u32(),
                });
                let reply = self.packet(GmpType::Proclaim);
                self.send(ctx, pkt.sender, &reply);
            }
            return;
        }
        // The correct implementation ignores proclaims from current members;
        // the buggy forwarder skips that check and forwards anything.
        if self.group.contains(origin) && !(self.config.bugs.proclaim_forward && leader != me) {
            return;
        }
        if leader == me {
            if me < origin {
                // We outrank the proclaimer: answer with a proclaim of our
                // own so it joins us. The buggy leader answers the
                // *forwarder* instead of the originator.
                let target = if self.config.bugs.proclaim_forward {
                    pkt.sender
                } else {
                    origin
                };
                ctx.emit(GmpEvent::ProclaimAnswered {
                    to: target.as_u32(),
                    origin: origin.as_u32(),
                });
                let reply = self.packet(GmpType::Proclaim);
                self.send(ctx, target, &reply);
            } else {
                // The proclaimer outranks us: our whole group defects.
                let mut join = self.packet(GmpType::Join);
                join.members = self.group.members.clone();
                ctx.emit(GmpEvent::JoinSent {
                    to: origin.as_u32(),
                });
                self.send(ctx, origin, &join);
            }
        } else if origin < leader {
            // Defect: the proclaimer outranks our current leader.
            let mut join = self.packet(GmpType::Join);
            join.members = vec![me];
            ctx.emit(GmpEvent::JoinSent {
                to: origin.as_u32(),
            });
            self.send(ctx, origin, &join);
        } else {
            // Not the leader: forward the proclaim to the leader.
            let mut fwd = pkt.clone();
            fwd.sender = me;
            ctx.emit(GmpEvent::ProclaimForwarded {
                origin: origin.as_u32(),
                to: leader.as_u32(),
            });
            self.send(ctx, leader, &fwd);
        }
    }

    fn on_join(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        let me = self.me();
        if self.status != GmpStatus::Up || self.group.leader() != me {
            return;
        }
        self.pending_joins.insert(pkt.origin);
        self.pending_joins
            .extend(pkt.members.iter().copied().filter(|m| *m != me));
        self.propose_next_view(ctx);
    }

    // ---- two-phase change, member side --------------------------------------

    /// "If the message is from a valid leader": the proposer must be the
    /// lowest id of the proposed group, we must be in it, and — so that a
    /// higher-id leader cannot steal members from a live lower-id leader —
    /// the proposer must not be outranked by our current (or prospective)
    /// leader, unless that leader has gone silent on us.
    fn mc_is_valid(&self, pkt: &GmpPacket) -> bool {
        let me = self.me();
        if !pkt.members.contains(&me) || pkt.members.iter().min() != Some(&pkt.sender) {
            return false;
        }
        let effective_leader = match (&self.status, &self.prospective) {
            (GmpStatus::InTransition, Some(g)) => g.leader(),
            _ => self.group.leader(),
        };
        pkt.sender <= effective_leader || self.timed_out.contains(&effective_leader)
    }

    fn on_membership_change(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        let me = self.me();
        if pkt.sender == me {
            return;
        }
        if !self.mc_is_valid(pkt) {
            if pkt.members.contains(&me) {
                ctx.emit(GmpEvent::NakSent {
                    to: pkt.sender.as_u32(),
                });
                let mut nak = self.packet(GmpType::NakMc);
                nak.group_id = pkt.group_id;
                self.send(ctx, pkt.sender, &nak);
            }
            return;
        }
        // Leave the old group: in transition from one group to the next.
        self.status = GmpStatus::InTransition;
        let mut members = pkt.members.clone();
        members.sort();
        self.prospective = Some(Group {
            id: pkt.group_id,
            members,
        });
        self.unset_hb_timers(ctx);
        ctx.emit(GmpEvent::InTransition { gid: pkt.group_id });
        let mut ack = self.packet(GmpType::AckMc);
        ack.group_id = pkt.group_id;
        self.send(ctx, pkt.sender, &ack);
        if let Some(t) = self.mc_commit_timer.take() {
            ctx.cancel_timer(t);
        }
        self.mc_commit_timer = Some(ctx.set_timer(self.config.mc_commit_timeout, TOKEN_MC_COMMIT));
    }

    fn on_ack_mc(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        let me = self.me();
        let finalize = {
            let Some(mc) = self.pending_mc.as_mut() else {
                return;
            };
            if pkt.group_id != mc.gid {
                return;
            }
            mc.acked.insert(pkt.sender);
            mc.proposed.iter().all(|m| *m == me || mc.acked.contains(m))
        };
        if finalize {
            self.finalize_commit(ctx);
        }
    }

    fn on_nak_mc(&mut self, _ctx: &mut Context<'_>, pkt: &GmpPacket) {
        if let Some(mc) = self.pending_mc.as_mut() {
            if pkt.group_id == mc.gid {
                mc.proposed.retain(|m| *m != pkt.sender);
            }
        }
    }

    fn on_commit(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        if !self.mc_is_valid(pkt) {
            return;
        }
        let mut members = pkt.members.clone();
        members.sort();
        self.adopt_view(
            ctx,
            Group {
                id: pkt.group_id,
                members,
            },
        );
    }

    fn on_failure_report(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        let me = self.me();
        if self.status != GmpStatus::Up || self.group.leader() != me {
            return;
        }
        let suspect = pkt.origin;
        if suspect == me || !self.group.contains(suspect) {
            return;
        }
        ctx.emit(GmpEvent::MemberSuspected {
            suspect: suspect.as_u32(),
        });
        self.pending_failures.insert(suspect);
        self.propose_next_view(ctx);
    }

    fn on_heartbeat(&mut self, ctx: &mut Context<'_>, pkt: &GmpPacket) {
        if self.status != GmpStatus::Up {
            return;
        }
        let sender = pkt.sender;
        if self.group.contains(sender) {
            self.timed_out.remove(&sender);
            self.arm_hb_expect(ctx, sender);
        }
    }
}

impl Layer for GmpLayer {
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(self.clone()))
    }

    fn name(&self) -> &'static str {
        "gmp"
    }

    fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
        // Nothing sits above the daemon.
        let _ = (msg, ctx);
    }

    fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
        if !self.started {
            return;
        }
        let Some(pkt) = GmpPacket::parse(msg.bytes()) else {
            return;
        };
        if self.self_marked_dead && pkt.ty != GmpType::Proclaim {
            // "Dead" but still running: the buggy daemon ignores protocol
            // traffic yet keeps (mis)handling proclaim forwarding.
            return;
        }
        match pkt.ty {
            GmpType::Heartbeat => self.on_heartbeat(ctx, &pkt),
            GmpType::Proclaim => self.on_proclaim(ctx, &pkt),
            GmpType::Join => self.on_join(ctx, &pkt),
            GmpType::MembershipChange => self.on_membership_change(ctx, &pkt),
            GmpType::AckMc => self.on_ack_mc(ctx, &pkt),
            GmpType::NakMc => self.on_nak_mc(ctx, &pkt),
            GmpType::Commit => self.on_commit(ctx, &pkt),
            GmpType::FailureReport => self.on_failure_report(ctx, &pkt),
        }
    }

    fn timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if !self.started {
            return;
        }
        if self.self_marked_dead {
            // The buggy daemon believes it has died; it stops driving the
            // protocol (heartbeats, proclaims, pending changes) entirely.
            return;
        }
        match token {
            TOKEN_HB_TICK => {
                if self.status == GmpStatus::Up && !self.self_marked_dead {
                    let pkt = self.packet(GmpType::Heartbeat);
                    // Heartbeats go to every member *including self* (the
                    // instrumented behaviour the paper's experiment 1
                    // exploits by dropping loopback heartbeats).
                    for &m in &self.group.members {
                        self.send(ctx, m, &pkt);
                    }
                }
                ctx.set_timer(self.config.heartbeat_interval, TOKEN_HB_TICK);
            }
            TOKEN_PROCLAIM_TICK => {
                self.proclaim_round(ctx);
                ctx.set_timer(self.config.proclaim_interval, TOKEN_PROCLAIM_TICK);
            }
            TOKEN_MC_COMMIT => {
                self.mc_commit_timer = None;
                if self.status == GmpStatus::InTransition {
                    ctx.emit(GmpEvent::CommitTimedOut);
                    self.form_singleton(ctx);
                }
            }
            TOKEN_COLLECT => {
                // Commit with whoever answered in time.
                self.finalize_commit(ctx);
            }
            t if t >= TOKEN_HB_EXPECT_BASE => {
                let suspect = NodeId::new((t - TOKEN_HB_EXPECT_BASE) as u32);
                // Only meaningful if this timer is still the registered one
                // (re-armed and cancelled timers never reach here).
                if self.hb_expect.contains_key(&suspect) {
                    self.on_hb_expect_timeout(ctx, suspect);
                }
            }
            _ => {}
        }
    }

    fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
        let Ok(op) = op.downcast::<GmpControl>() else {
            return Box::new(GmpReply::Unit);
        };
        let reply = match *op {
            GmpControl::Start => {
                if !self.started {
                    self.started = true;
                    self.me = Some(ctx.node());
                    ctx.emit(GmpEvent::Started);
                    self.form_singleton(ctx);
                    ctx.set_timer(self.config.heartbeat_interval, TOKEN_HB_TICK);
                    // First proclaim round fires promptly.
                    ctx.set_timer(pfi_sim::SimDuration::from_millis(100), TOKEN_PROCLAIM_TICK);
                }
                GmpReply::Unit
            }
            GmpControl::Status => GmpReply::Status(GmpStatusReport {
                group: self.group.clone(),
                status: self.status,
                self_marked_dead: self.self_marked_dead,
            }),
        };
        Box::new(reply)
    }
}
