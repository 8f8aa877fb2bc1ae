//! Static reachability of scheduled faults: the flow model and the
//! semantic schedule quotient.
//!
//! The canonicalizer in [`crate::schedule`] rewrites schedules *syntactically*
//! — it only looks at the fault lines themselves. This module adds the
//! *semantic* layer the paper's probe/fault methodology implies: a
//! [`FlowModel`] captures what the protocol specification and the target's
//! topology say about the traffic each fault site can ever observe, and an
//! abstract interpretation of each fault's lowered filter script (via
//! [`pfi_lint::analyze_effects`]) recovers the guard facts the fault fires
//! under. Combining the two proves some faults **statically inert**: their
//! guards can never match any message the site carries, so installing them
//! is indistinguishable from not installing them.
//!
//! Two consumers share one predicate, [`FlowModel::fault_inertness`], so
//! their verdicts can never drift:
//!
//! * `validate.rs` and `pfi-lint --spec` report the facts as
//!   [`InertFault`](pfi_lint::Category::InertFault) diagnostics — "this
//!   fault can never fire", a claim a user acts on;
//! * [`FlowModel::semantic_schedule`] / [`FlowModel::semantic_id`] build a
//!   **dedup key** from them (the canonical form with inert faults
//!   stripped). The campaign engine does not read it: no candidate is
//!   skipped on a static rewrite. Only the benchmark's traced stream
//!   (`pfi-bench-layers`) still times it.
//!
//! # Soundness
//!
//! The inertness rules must be *behaviour-preserving*: a schedule with its
//! inert faults removed in place must produce byte-identical verdict,
//! oracle, and coverage results (`props.rs` checks it on gmp, tcp and
//! tpc). The load-bearing facts:
//!
//! * an inert fault's clauses never fire, so they emit no trace events and
//!   apply no verdicts — stripping them changes nothing observable (they do
//!   consume interpreter steps, so under a step budget the stripped
//!   schedule is not equivalent);
//! * `msg_type` as seen by a filter guard is parsed from the message
//!   **bytes** by the packet stub, so a live `corrupt-byte` elsewhere in
//!   the schedule can rewrite the type a *receive*-side guard observes —
//!   receive-direction type facts are therefore gated on the absence of
//!   foreign corruption (send-side guards run before any other site can
//!   corrupt, and a fault cannot enable itself);
//! * `msg_dst` is a header field and `msg_set_byte` addresses the payload,
//!   so destination facts are corruption-immune, and the simulator delivers
//!   strictly to `dst` — a receive filter on node *n* only ever sees
//!   messages addressed to *n*.
//!
//! The quotient is *not* behaviour-preserving: it starts from
//! [`FaultSchedule::canonical`], which reorders the clauses of one
//! filter, and a `corrupt-byte` changes what every later clause's
//! `[msg_type]` guard reads (the stub re-parses the type from the bytes
//! on each call). On tcp, `n0 recv corrupt-byte SYN 9 64 + n0 recv
//! drop-all SYN` corrupts each SYN, so the drop's guard no longer matches
//! and the corrupted segment reaches the server (`tcp:n1:DecodeFailed`);
//! its canonical order drops every SYN first. No rule here may treat a
//! live corrupt as removable because a drop on its flow follows it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pfi_core::lower::FilterProgram;
use pfi_core::Direction;
use pfi_lint::{analyze_effects, ClauseEffect, WindowBound};

use crate::schedule::{FaultOp, FaultSchedule, ScheduledFault};
use crate::spec::ProtocolSpec;

/// What the protocol specification and target topology statically
/// guarantee about the traffic each fault site can observe.
///
/// Absent knowledge is always expressible: [`FlowModel::permissive`] knows
/// only the message-type vocabulary and the node count, and every optional
/// field means "no fact — assume anything". Rules only fire on *positive*
/// knowledge, so a permissive model can never produce an unsound verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowModel {
    /// Protocol name, used in diagnostics.
    protocol: String,
    /// The complete message-type vocabulary from the [`ProtocolSpec`].
    messages: Vec<String>,
    /// How many nodes the target world contains; destinations at or above
    /// this are outside the topology.
    nodes: u32,
    /// Which world node each fault site sits on (`None` = unknown). When
    /// known, a receive filter at site *s* only sees traffic addressed to
    /// `site_node[s]`.
    site_node: Option<Vec<u32>>,
    /// Per site: the complete set of destinations the node ever sends to
    /// (`None` = no fact). Indexed by site; missing entries mean no fact.
    send_dsts: Vec<Option<Vec<u32>>>,
    /// An upper bound on the wire length of any message the protocol puts
    /// on the network (`0` = unknown). Sound as long as it is an *upper*
    /// bound: rules only prove guards requiring *longer* messages inert.
    max_wire_len: usize,
    /// What [`fault_inertness`](FlowModel::fault_inertness) has learnt
    /// about each fault op so far. Not part of what the model *says*: it
    /// never shows in `==`, and a clone carries it only as a head start.
    effects: EffectMemo,
}

/// The guard clauses a fault op's lowered script fires under, or `None`
/// where the analysis offers no proof material (a script that does not
/// parse, an opaque one, one with no effectful clause).
type OpEffects = Option<Arc<[ClauseEffect]>>;

/// [`FlowModel`]'s memo of per-op effect summaries. Emitting, parsing and
/// abstract-interpreting a fault's script depends on the [`FaultOp`] alone
/// — not on the site, the direction, or the rest of the schedule — and a
/// campaign asks about the same few hundred ops for every candidate on
/// every fixpoint round, so each is analysed once. Bounded by the distinct
/// fault ops of one campaign (the mutator's parameter ranges times the
/// spec's message vocabulary); entries are a few guard facts each, never
/// script text or compiled scripts.
#[derive(Debug, Default)]
struct EffectMemo(Mutex<HashMap<FaultOp, OpEffects>>);

impl EffectMemo {
    fn of(&self, op: &FaultOp) -> OpEffects {
        if let Some(known) = self.0.lock().expect("effect memo poisoned").get(op) {
            return known.clone();
        }
        let mut program = FilterProgram::new();
        for clause in op.clauses() {
            program.push(clause);
        }
        let effects = analyze_effects(&program.emit())
            .ok()
            .filter(|e| !e.opaque && !e.clauses.is_empty())
            .map(|e| Arc::from(e.clauses));
        self.0
            .lock()
            .expect("effect memo poisoned")
            .insert(op.clone(), effects.clone());
        effects
    }
}

impl Clone for EffectMemo {
    fn clone(&self) -> Self {
        EffectMemo(Mutex::new(
            self.0.lock().expect("effect memo poisoned").clone(),
        ))
    }
}

/// Two models are equal when they state the same facts; what either has
/// memoised so far is not one of them.
impl PartialEq for EffectMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for EffectMemo {}

impl FlowModel {
    /// A model that knows only the spec vocabulary and the node count — no
    /// placement, routing, or wire-length facts. This is what schedule
    /// validation uses when no target is in hand.
    pub fn permissive(spec: &ProtocolSpec, nodes: u32) -> FlowModel {
        FlowModel {
            protocol: spec.name.clone(),
            messages: spec.messages.iter().map(|m| m.name.clone()).collect(),
            nodes,
            site_node: None,
            send_dsts: Vec::new(),
            max_wire_len: 0,
            effects: EffectMemo::default(),
        }
    }

    /// The flow model of the bundled GMP target: three nodes, site *i* on
    /// node *i*. Every node both self-sends (heartbeat timers) and
    /// broadcasts, so there are no send-destination facts; GMP wire
    /// messages (including the reliable-transport framing byte) never
    /// exceed 32 bytes for a three-node group.
    pub fn gmp() -> FlowModel {
        let mut m = FlowModel::permissive(&ProtocolSpec::gmp(), 3);
        m.site_node = Some(vec![0, 1, 2]);
        m.max_wire_len = 32;
        m
    }

    /// The flow model of the bundled TCP target: client on node 0, server
    /// on node 1, and the single fault site is the server, which only ever
    /// sends back to the client.
    pub fn tcp() -> FlowModel {
        let mut m = FlowModel::permissive(&ProtocolSpec::tcp(), 2);
        m.site_node = Some(vec![1]);
        m.send_dsts = vec![Some(vec![0])];
        m
    }

    /// The flow model of the bundled two-phase-commit target: coordinator
    /// on node 0 talking to participants 1–3, participants answering only
    /// the coordinator. Site *i* sits on node *i*.
    pub fn two_phase_commit() -> FlowModel {
        let mut m = FlowModel::permissive(&ProtocolSpec::two_phase_commit(), 4);
        m.site_node = Some(vec![0, 1, 2, 3]);
        m.send_dsts = vec![
            Some(vec![1, 2, 3]),
            Some(vec![0]),
            Some(vec![0]),
            Some(vec![0]),
        ];
        m
    }

    /// The protocol name this model describes.
    pub fn protocol(&self) -> &str {
        &self.protocol
    }

    /// How many nodes the modelled world contains.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Whether `msg_type` is in the protocol's vocabulary.
    pub fn knows_type(&self, msg_type: &str) -> bool {
        self.messages.iter().any(|m| m == msg_type)
    }

    /// Decides whether one effect clause can ever fire.
    ///
    /// `placement` is the `(site, direction)` the clause's script is
    /// installed at, when known (`None` for bare scripts linted without an
    /// installation context). `foreign_corruption` must be `true` whenever
    /// some *other* live fault or clause can rewrite message bytes — it
    /// gates the type facts that byte corruption could invalidate.
    ///
    /// Returns the first rule that proves the clause unreachable, as a
    /// `(rule slug, message)` pair, or `None` when no rule applies (which
    /// includes clauses with an opaque guard — absence of a recovered
    /// constraint is never evidence).
    pub fn clause_unreachable(
        &self,
        clause: &ClauseEffect,
        placement: Option<(u32, Direction)>,
        foreign_corruption: bool,
    ) -> Option<(&'static str, String)> {
        if clause.opaque_guard {
            return None;
        }
        match clause.window {
            WindowBound::Nth(n) if n <= 0 => {
                return Some((
                    "window-never-fires",
                    format!("instance window {n} never fires (message instances are 1-based)"),
                ));
            }
            WindowBound::First(n) if n <= 0 => {
                return Some((
                    "window-never-fires",
                    format!("a first-{n} window admits no messages"),
                ));
            }
            _ => {}
        }
        if let Some(d) = clause.dst {
            if d < 0 || d >= i64::from(self.nodes) {
                return Some((
                    "dst-outside-topology",
                    format!(
                        "destination n{d} is outside the {}-node {} topology",
                        self.nodes, self.protocol
                    ),
                ));
            }
            match placement {
                Some((site, Direction::Receive)) => {
                    if let Some(node) = self
                        .site_node
                        .as_ref()
                        .and_then(|sn| sn.get(site as usize).copied())
                    {
                        if d != i64::from(node) {
                            return Some((
                                "recv-dst-mismatch",
                                format!(
                                    "site n{site} sits on node {node}; its receive filter only \
                                     sees traffic addressed to n{node}, never to n{d}"
                                ),
                            ));
                        }
                    }
                }
                Some((site, Direction::Send)) => {
                    if let Some(Some(dsts)) = self.send_dsts.get(site as usize) {
                        if !dsts.iter().any(|x| i64::from(*x) == d) {
                            return Some((
                                "send-dst-unreachable",
                                format!(
                                    "site n{site} never sends {} traffic to n{d} (it only \
                                     sends to {})",
                                    self.protocol,
                                    dsts.iter()
                                        .map(|x| format!("n{x}"))
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                            ));
                        }
                    }
                }
                None => {}
            }
        }
        if let Some(t) = &clause.msg_type {
            // A send-side guard observes the bytes before any other site
            // can corrupt them; everywhere else, type facts are only sound
            // when nothing live can rewrite the type byte.
            let type_fact_sound =
                matches!(placement, Some((_, Direction::Send))) || !foreign_corruption;
            if type_fact_sound && !self.knows_type(t) {
                return Some((
                    "unknown-msg-type",
                    format!(
                        "message type {t:?} is not in the {} specification; the guard can \
                         never match",
                        self.protocol
                    ),
                ));
            }
        }
        if let Some(l) = clause.min_len {
            if self.max_wire_len > 0 && l > self.max_wire_len as i64 {
                return Some((
                    "offset-beyond-wire",
                    format!(
                        "the guard requires messages longer than {l} bytes but {} wire \
                         messages never exceed {} bytes",
                        self.protocol, self.max_wire_len
                    ),
                ));
            }
        }
        None
    }

    /// Decides whether the `idx`-th fault of `schedule` is statically
    /// inert — provably unobservable whether or not it is installed.
    ///
    /// The predicate depends only on the fault itself and the *multiset* of
    /// other faults in the schedule (for the corruption gate and reorder
    /// exclusivity), never on their order — so it answers identically on a
    /// schedule and on any reordering, including its canonical form.
    pub fn fault_inertness(&self, schedule: &FaultSchedule, idx: usize) -> Option<InertFact> {
        let fault = schedule.faults.get(idx)?;
        let fact = |rule: &'static str, message: String| {
            Some(InertFact {
                fault: idx,
                line: fault.to_line(),
                rule,
                message,
            })
        };

        // Structural no-ops: the fault fires but provably does nothing.
        match &fault.op {
            FaultOp::CorruptByteAt { mask: 0, .. } => {
                return fact(
                    "xor-identity",
                    "corrupt-byte with mask 0 XORs nothing into the message".into(),
                );
            }
            FaultOp::Duplicate { copies: 0, .. } => {
                return fact(
                    "zero-copies",
                    "duplicate with 0 copies forwards no extra messages".into(),
                );
            }
            FaultOp::ReorderWindow { hold: 0, .. } => {
                // The hold window is empty, and the release can only flush
                // messages held by *some* reorder on this (site, direction)
                // — with no other one present it releases nothing.
                let exclusive = schedule.faults.iter().enumerate().all(|(j, g)| {
                    j == idx
                        || !(matches!(g.op, FaultOp::ReorderWindow { .. })
                            && g.site == fault.site
                            && g.dir == fault.dir)
                });
                if exclusive {
                    return fact(
                        "empty-reorder-window",
                        "reorder with hold 0 holds nothing, and no other reorder on this \
                         site and direction leaves messages for its release to flush"
                            .into(),
                    );
                }
            }
            _ => {}
        }

        // Guard unreachability: abstract-interpret the fault's own lowered
        // filter script (once per distinct op — the memo); the fault is
        // inert only when *every* clause is provably unreachable.
        let clauses = self.effects.of(&fault.op)?;
        let foreign_corruption = schedule.faults.iter().enumerate().any(|(j, g)| {
            j != idx && matches!(g.op, FaultOp::CorruptByteAt { mask, .. } if mask != 0)
        });
        let mut first: Option<(&'static str, String)> = None;
        for clause in clauses.iter() {
            let kill =
                self.clause_unreachable(clause, Some((fault.site, fault.dir)), foreign_corruption)?;
            first.get_or_insert(kill);
        }
        let (rule, message) = first?;
        fact(rule, message)
    }

    /// Every inert fault of `schedule`, with the rule that proved it.
    pub fn inert_facts(&self, schedule: &FaultSchedule) -> Vec<InertFact> {
        (0..schedule.faults.len())
            .filter_map(|i| self.fault_inertness(schedule, i))
            .collect()
    }

    /// The semantic quotient of a schedule: canonicalize, then strip
    /// statically inert faults, to a fixpoint (stripping an inert
    /// `corrupt-byte` can un-gate a receive-side type fact elsewhere).
    ///
    /// The result is a **dedup key**, not a schedule equivalent to the
    /// original: canonicalization reorders clauses a live `corrupt-byte`
    /// can interact with (module docs, "Soundness").
    pub fn semantic_schedule(&self, schedule: &FaultSchedule) -> FaultSchedule {
        let mut cur = schedule.canonical();
        loop {
            let kept: Vec<ScheduledFault> = cur
                .faults
                .iter()
                .enumerate()
                .filter(|(i, _)| self.fault_inertness(&cur, *i).is_none())
                .map(|(_, f)| f.clone())
                .collect();
            let next = FaultSchedule { faults: kept }.canonical();
            if next == cur {
                return cur;
            }
            cur = next;
        }
    }

    /// The id of the [semantic quotient](FlowModel::semantic_schedule).
    pub fn semantic_id(&self, schedule: &FaultSchedule) -> String {
        self.semantic_schedule(schedule).id()
    }
}

/// A proof that one scheduled fault can never be observed: the fault's
/// index and line, the rule slug that fired, and a human-readable
/// explanation citing the spec or topology fact used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InertFact {
    /// Index of the fault within the schedule it was proved against.
    pub fault: usize,
    /// The fault's stable one-line text form.
    pub line: String,
    /// Stable rule slug (e.g. `recv-dst-mismatch`, `unknown-msg-type`).
    pub rule: &'static str,
    /// Why the fault can never fire.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_schedule, GmpTarget, TcpTarget, TestTarget};
    use crate::schedule::ScheduleMutator;
    use pfi_sim::SimRng;

    fn fault(site: u32, dir: Direction, op: FaultOp) -> ScheduledFault {
        ScheduledFault { site, dir, op }
    }

    fn sched(faults: Vec<ScheduledFault>) -> FaultSchedule {
        FaultSchedule { faults }
    }

    #[test]
    fn permissive_model_proves_structural_noops() {
        let m = FlowModel::permissive(&ProtocolSpec::gmp(), 3);
        let cases = vec![
            (
                FaultOp::CorruptByteAt {
                    msg_type: "ACK".into(),
                    offset: 2,
                    mask: 0,
                },
                "xor-identity",
            ),
            (
                FaultOp::Duplicate {
                    msg_type: "ACK".into(),
                    copies: 0,
                },
                "zero-copies",
            ),
            (
                FaultOp::ReorderWindow {
                    msg_type: "ACK".into(),
                    hold: 0,
                },
                "empty-reorder-window",
            ),
            (
                FaultOp::DropNth {
                    msg_type: "ACK".into(),
                    nth: 0,
                },
                "window-never-fires",
            ),
            (
                FaultOp::DropToDest {
                    msg_type: "ACK".into(),
                    dst: 99,
                },
                "dst-outside-topology",
            ),
            (
                FaultOp::DropAll {
                    msg_type: "NO_SUCH_TYPE".into(),
                },
                "unknown-msg-type",
            ),
        ];
        for (op, rule) in cases {
            let s = sched(vec![fault(0, Direction::Send, op)]);
            let fact = m.fault_inertness(&s, 0).expect("should be inert");
            assert_eq!(fact.rule, rule, "{}", fact.line);
            assert_eq!(fact.fault, 0);
        }
    }

    #[test]
    fn permissive_model_keeps_live_faults() {
        let m = FlowModel::permissive(&ProtocolSpec::gmp(), 3);
        let live = vec![
            FaultOp::DropAll {
                msg_type: "HEARTBEAT".into(),
            },
            FaultOp::DropToDest {
                msg_type: "ACK".into(),
                dst: 2,
            },
            FaultOp::DelayMs {
                msg_type: "COMMIT".into(),
                ms: 250,
            },
            FaultOp::CorruptByteAt {
                msg_type: "JOIN".into(),
                offset: 0,
                mask: 0x40,
            },
            FaultOp::ReorderWindow {
                msg_type: "ACK".into(),
                hold: 2,
            },
        ];
        for op in live {
            for dir in [Direction::Send, Direction::Receive] {
                let s = sched(vec![fault(1, dir, op.clone())]);
                assert!(
                    m.fault_inertness(&s, 0).is_none(),
                    "{} should be live",
                    s.faults[0].to_line()
                );
            }
        }
    }

    #[test]
    fn topology_facts_prove_destination_mismatches() {
        let gmp = FlowModel::gmp();
        // A receive filter on node 1 never sees traffic addressed to n2.
        let s = sched(vec![fault(
            1,
            Direction::Receive,
            FaultOp::DropToDest {
                msg_type: "ACK".into(),
                dst: 2,
            },
        )]);
        let fact = gmp.fault_inertness(&s, 0).expect("recv mismatch is inert");
        assert_eq!(fact.rule, "recv-dst-mismatch");
        // The same destination on the send side has no fact in GMP
        // (nodes broadcast), so it stays live.
        let s = sched(vec![fault(
            1,
            Direction::Send,
            FaultOp::DropToDest {
                msg_type: "ACK".into(),
                dst: 2,
            },
        )]);
        assert!(gmp.fault_inertness(&s, 0).is_none());

        // TPC participants only answer the coordinator: site 1 sending to
        // n2 is provably dead, sending to n0 is live.
        let tpc = FlowModel::two_phase_commit();
        let to = |dst| {
            sched(vec![fault(
                1,
                Direction::Send,
                FaultOp::DropToDest {
                    msg_type: "ACK".into(),
                    dst,
                },
            )])
        };
        assert_eq!(
            tpc.fault_inertness(&to(2), 0).expect("dead").rule,
            "send-dst-unreachable"
        );
        assert!(tpc.fault_inertness(&to(0), 0).is_none());

        // The TCP server (site 0 on node 1) never sends to itself.
        let tcp = FlowModel::tcp();
        let s = sched(vec![fault(
            0,
            Direction::Send,
            FaultOp::DropToDest {
                msg_type: "ACK".into(),
                dst: 1,
            },
        )]);
        assert_eq!(
            tcp.fault_inertness(&s, 0).expect("dead").rule,
            "send-dst-unreachable"
        );
    }

    #[test]
    fn corruption_gates_receive_side_type_facts() {
        let m = FlowModel::gmp();
        let unknown = fault(
            0,
            Direction::Receive,
            FaultOp::DropAll {
                msg_type: "NO_SUCH_TYPE".into(),
            },
        );
        // Alone: the stub can never report an off-spec type, so inert.
        let s = sched(vec![unknown.clone()]);
        assert_eq!(
            m.fault_inertness(&s, 0).expect("inert").rule,
            "unknown-msg-type"
        );
        // With a live corrupt elsewhere, the receive-side guard could
        // observe rewritten type bytes — no claim.
        let corrupt = fault(
            1,
            Direction::Send,
            FaultOp::CorruptByteAt {
                msg_type: "HEARTBEAT".into(),
                offset: 0,
                mask: 0xFF,
            },
        );
        let s = sched(vec![unknown.clone(), corrupt]);
        assert!(m.fault_inertness(&s, 0).is_none());
        // A mask-0 corrupt rewrites nothing: the gate ignores it.
        let noop_corrupt = fault(
            1,
            Direction::Send,
            FaultOp::CorruptByteAt {
                msg_type: "HEARTBEAT".into(),
                offset: 0,
                mask: 0,
            },
        );
        let s = sched(vec![unknown.clone(), noop_corrupt]);
        assert!(m.fault_inertness(&s, 0).is_some());
        // Send-side type guards observe the bytes before anyone else can
        // corrupt them: the gate does not apply.
        let send_unknown = fault(
            0,
            Direction::Send,
            FaultOp::DropAll {
                msg_type: "NO_SUCH_TYPE".into(),
            },
        );
        let corrupt = fault(
            1,
            Direction::Send,
            FaultOp::CorruptByteAt {
                msg_type: "HEARTBEAT".into(),
                offset: 0,
                mask: 0xFF,
            },
        );
        let s = sched(vec![send_unknown, corrupt]);
        assert!(m.fault_inertness(&s, 0).is_some());
    }

    #[test]
    fn reorder_exclusivity_guards_the_hold_zero_rule() {
        let m = FlowModel::permissive(&ProtocolSpec::gmp(), 3);
        let hold0 = fault(
            0,
            Direction::Send,
            FaultOp::ReorderWindow {
                msg_type: "ACK".into(),
                hold: 0,
            },
        );
        let other = |site, dir| {
            fault(
                site,
                dir,
                FaultOp::ReorderWindow {
                    msg_type: "COMMIT".into(),
                    hold: 2,
                },
            )
        };
        // Alone: inert.
        assert!(m.fault_inertness(&sched(vec![hold0.clone()]), 0).is_some());
        // Another reorder on the same (site, dir): its held messages could
        // be flushed by this release — no claim.
        let s = sched(vec![hold0.clone(), other(0, Direction::Send)]);
        assert!(m.fault_inertness(&s, 0).is_none());
        // Same site, other direction: separate filter program — inert.
        let s = sched(vec![hold0.clone(), other(0, Direction::Receive)]);
        assert!(m.fault_inertness(&s, 0).is_some());
        let s = sched(vec![hold0, other(1, Direction::Send)]);
        assert!(m.fault_inertness(&s, 0).is_some());
    }

    #[test]
    fn wire_length_bound_kills_out_of_range_corruption() {
        let m = FlowModel::gmp();
        let at = |offset| {
            sched(vec![fault(
                0,
                Direction::Send,
                FaultOp::CorruptByteAt {
                    msg_type: "HEARTBEAT".into(),
                    offset,
                    mask: 0xFF,
                },
            )])
        };
        // The lowered guard is `[msg_len] > offset`, so offset 32 requires
        // a 33-byte message — beyond the 32-byte GMP bound.
        assert_eq!(
            m.fault_inertness(&at(32), 0).expect("dead").rule,
            "offset-beyond-wire"
        );
        assert!(m.fault_inertness(&at(31), 0).is_none());
        // Without a wire-length fact there is no claim.
        let p = FlowModel::permissive(&ProtocolSpec::gmp(), 3);
        assert!(p.fault_inertness(&at(1000), 0).is_none());
    }

    #[test]
    fn inertness_is_order_independent() {
        let m = FlowModel::gmp();
        let a = fault(
            1,
            Direction::Receive,
            FaultOp::DropToDest {
                msg_type: "ACK".into(),
                dst: 2,
            },
        );
        let b = fault(
            0,
            Direction::Send,
            FaultOp::DropAll {
                msg_type: "HEARTBEAT".into(),
            },
        );
        let fwd = sched(vec![a.clone(), b.clone()]);
        let rev = sched(vec![b, a]);
        let facts_of = |s: &FaultSchedule| {
            let mut v: Vec<(String, &'static str)> = m
                .inert_facts(s)
                .iter()
                .map(|f| (f.line.clone(), f.rule))
                .collect();
            v.sort();
            v
        };
        assert_eq!(facts_of(&fwd), facts_of(&rev));
        assert_eq!(m.semantic_id(&fwd), m.semantic_id(&rev));
    }

    #[test]
    fn semantic_quotient_strips_inert_faults_and_keeps_live_corruption() {
        let m = FlowModel::gmp();
        // Inert-only schedule quotients to the baseline.
        let s = sched(vec![fault(
            1,
            Direction::Receive,
            FaultOp::DropToDest {
                msg_type: "ACK".into(),
                dst: 0,
            },
        )]);
        assert_eq!(m.semantic_id(&s), "baseline");

        // A live corrupt stays, whatever else its flow carries: a drop-all
        // on the same flow does not shadow it (it may be what stops the
        // drop's guard from matching), nor does a duplicate or a later
        // group, nor a drop-nth.
        let corrupt = fault(
            0,
            Direction::Send,
            FaultOp::CorruptByteAt {
                msg_type: "ACK".into(),
                offset: 3,
                mask: 0x40,
            },
        );
        let drop_all = fault(
            0,
            Direction::Send,
            FaultOp::DropAll {
                msg_type: "ACK".into(),
            },
        );
        let s = sched(vec![corrupt.clone(), drop_all.clone()]);
        assert_eq!(m.semantic_schedule(&s), s.canonical());
        assert_eq!(m.semantic_schedule(&s).faults.len(), 2);

        let dup = fault(
            0,
            Direction::Send,
            FaultOp::Duplicate {
                msg_type: "ACK".into(),
                copies: 2,
            },
        );
        let s = sched(vec![corrupt.clone(), drop_all.clone(), dup]);
        assert_eq!(m.semantic_schedule(&s).faults.len(), 3);

        let later = fault(
            0,
            Direction::Send,
            FaultOp::DropAll {
                msg_type: "COMMIT".into(),
            },
        );
        let s = sched(vec![corrupt.clone(), drop_all.clone(), later]);
        assert_eq!(m.semantic_schedule(&s).faults.len(), 3);

        let drop_nth = fault(
            0,
            Direction::Send,
            FaultOp::DropNth {
                msg_type: "ACK".into(),
                nth: 2,
            },
        );
        let s = sched(vec![corrupt, drop_nth]);
        assert_eq!(m.semantic_schedule(&s).faults.len(), 2);
    }

    #[test]
    fn stripping_an_inert_corrupt_ungates_type_facts_at_the_fixpoint() {
        let m = FlowModel::gmp();
        // The corrupt is itself inert (no GMP message reaches byte 32),
        // but while it is in the schedule it gates the receive-side
        // unknown-type fact; the second round strips that drop too.
        let recv_unknown = fault(
            2,
            Direction::Receive,
            FaultOp::DropAll {
                msg_type: "NO_SUCH_TYPE".into(),
            },
        );
        let corrupt = fault(
            0,
            Direction::Send,
            FaultOp::CorruptByteAt {
                msg_type: "ACK".into(),
                offset: 32,
                mask: 0xFF,
            },
        );
        let s = sched(vec![recv_unknown, corrupt]);
        assert_eq!(m.inert_facts(&s).len(), 1);
        assert_eq!(m.semantic_id(&s), "baseline");
    }

    /// The candidate behind the one digest divergence the prune tiers
    /// showed (tcp seed 17000): its corrupt rewrites each SYN before the
    /// drop's `[msg_type]` guard reads it, so the server is handed a
    /// segment it cannot decode — coverage the drop alone never reaches.
    /// The retired shadow rule quotiented it to the drop; the quotient
    /// now keeps the corrupt.
    #[test]
    fn a_corrupt_before_a_drop_on_its_flow_is_not_the_drop() {
        let target = TcpTarget::default();
        let model = target.flow_model().expect("tcp has a flow model");
        let parse = |lines: &[&str]| FaultSchedule::from_lines(lines.iter().copied()).unwrap();
        let candidate = parse(&["n0 recv corrupt-byte SYN 9 64", "n0 recv drop-all SYN"]);
        let drop = parse(&["n0 recv drop-all SYN"]);
        let decode_failed = |s: &FaultSchedule| {
            run_schedule(&target, s)
                .coverage
                .edges()
                .any(|e| e == "tcp:n1:DecodeFailed")
        };
        assert!(decode_failed(&candidate));
        assert!(!decode_failed(&drop));
        let quotient = model.semantic_schedule(&candidate);
        assert_eq!(quotient.len(), 2, "{}", quotient.id());
        assert_ne!(model.semantic_id(&candidate), model.semantic_id(&drop));
    }

    #[test]
    fn semantic_quotient_is_idempotent_on_mutated_schedules() {
        let m = FlowModel::gmp();
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(0xDEAD_BEEF);
        let mut parent = FaultSchedule::empty();
        for _ in 0..300 {
            let s = mutator.mutate(&parent, 4, &mut rng);
            let q = m.semantic_schedule(&s);
            assert_eq!(q, m.semantic_schedule(&q), "not idempotent for {}", s.id());
            assert_eq!(q, q.canonical(), "quotient not canonical for {}", s.id());
            if crate::validate::schedule_is_installable(&s, 3) {
                parent = s;
            }
        }
    }

    /// Wherever the semantic quotient differs from the canonical form —
    /// by stripped inert faults alone — running the two against the real
    /// GMP target must be indistinguishable: same verdict, same oracle
    /// outcome, same coverage. (The canonical form itself is a dedup key,
    /// not an equivalent of the original: module docs, "Soundness".)
    #[test]
    fn semantic_quotient_is_behaviour_preserving() {
        let target = GmpTarget {
            fault_secs: 5,
            ..GmpTarget::default()
        };
        let model = target.flow_model().expect("gmp has a flow model");
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(42);
        let mut parent = FaultSchedule::empty();
        let mut checked = 0usize;
        for _ in 0..2000 {
            if checked >= 12 {
                break;
            }
            let s = mutator.mutate(&parent, 4, &mut rng);
            if !crate::validate::schedule_is_installable(&s, 3) {
                continue;
            }
            parent = s.clone();
            let (canonical, q) = (s.canonical(), model.semantic_schedule(&s));
            if q == canonical {
                continue;
            }
            checked += 1;
            let a = run_schedule(&target, &canonical);
            let b = run_schedule(&target, &q);
            assert_eq!(a.verdict, b.verdict, "quotient diverged for {}", s.id());
            assert_eq!(a.oracle, b.oracle, "quotient diverged for {}", s.id());
            assert_eq!(
                a.coverage.edges().collect::<Vec<_>>(),
                b.coverage.edges().collect::<Vec<_>>(),
                "quotient diverged for {}",
                s.id()
            );
        }
        assert!(checked >= 8, "only {checked} rewritten pairs exercised");
    }
}
