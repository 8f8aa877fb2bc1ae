//! Reusable invariant oracles over the trace log.
//!
//! The paper's experiments each end with a human reading the packet log
//! and deciding whether the protocol misbehaved. An [`Oracle`] mechanises
//! one such judgement: it inspects a finished run's [`TraceLog`] and
//! either accepts or names the violated invariant. Oracles see *only* the
//! trace — no live world, no target internals — so a hand-built trace can
//! unit-test each one, and a replayed repro artifact re-judges itself with
//! the exact oracle that originally flagged it.

use pfi_core::PfiEvent;
use pfi_gmp::GmpEvent;
use pfi_sim::{SimDuration, TraceLog};
use pfi_tcp::{CloseReason, TcpEvent};
use pfi_tpc::TpcEvent;

/// One protocol invariant, checked against a finished run's trace.
pub trait Oracle {
    /// Stable name, used in verdicts and repro artifacts.
    fn name(&self) -> &'static str;
    /// `Err(message)` iff the invariant was violated.
    fn check(&self, trace: &TraceLog) -> Result<(), String>;
}

impl std::fmt::Debug for dyn Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Oracle({})", self.name())
    }
}

/// Runs oracles in order; returns the first violation as `(name, message)`.
pub fn first_violation(
    oracles: &[Box<dyn Oracle>],
    trace: &TraceLog,
) -> Option<(&'static str, String)> {
    for oracle in oracles {
        if let Err(msg) = oracle.check(trace) {
            return Some((oracle.name(), msg));
        }
    }
    None
}

// ---------------------------------------------------------------------
// Chaos oracle (resilience testing)
// ---------------------------------------------------------------------

/// A deliberately buggy oracle for resilience testing: it **panics** —
/// instead of returning a verdict — whenever the trace contains a dropped
/// message. Fault-free baselines judge clean, so campaigns start normally;
/// any schedule that installs a drop then crashes the judging phase, which
/// the runner must contain as a `Crashed` verdict without losing the run's
/// coverage. Installed by [`ChaosOracleTarget`](crate::ChaosOracleTarget)
/// and `pfi-campaign --inject-panic`.
#[derive(Debug, Clone, Default)]
pub struct ChaosPanicOracle;

impl Oracle for ChaosPanicOracle {
    fn name(&self) -> &'static str {
        "chaos-panic"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        let drops = trace
            .iter_of::<PfiEvent>()
            .filter(|(_, _, e)| matches!(e, PfiEvent::Dropped { .. }))
            .count();
        if drops > 0 {
            panic!("chaos oracle injected panic: saw {drops} dropped message(s)");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TCP oracles
// ---------------------------------------------------------------------

/// The byte stream a target harvested from a receiver at the end of a run,
/// recorded into the trace so stream oracles can judge it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredStream {
    /// Receiver-side connection id.
    pub conn: usize,
    /// Everything the receiving application took from the connection.
    pub data: Vec<u8>,
}

/// TCP integrity: every delivered stream must be an exact prefix of the
/// sent payload — faults may truncate delivery, never corrupt or extend it.
#[derive(Debug, Clone)]
pub struct TcpPrefixOracle {
    /// The payload the sender wrote.
    pub expected: Vec<u8>,
}

impl Oracle for TcpPrefixOracle {
    fn name(&self) -> &'static str {
        "tcp-prefix-delivery"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        for (_, node, stream) in trace.iter_of::<DeliveredStream>() {
            let got = &stream.data;
            if got.len() > self.expected.len() || got[..] != self.expected[..got.len()] {
                return Err(format!(
                    "{node} conn {} delivered {} bytes that are not a prefix of the sent stream",
                    stream.conn,
                    got.len()
                ));
            }
        }
        Ok(())
    }
}

/// TCP liveness honesty: a connection may die of a timeout only after
/// visibly trying — a `Closed(Timeout)` with no retransmission attempt, or
/// a `Closed(KeepaliveTimeout)` with no keep-alive probe, is a silent
/// close.
#[derive(Debug, Clone, Default)]
pub struct TcpNoSilentCloseOracle;

impl Oracle for TcpNoSilentCloseOracle {
    fn name(&self) -> &'static str {
        "tcp-no-silent-close"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        for (_, node, e) in trace.iter_of::<TcpEvent>() {
            let TcpEvent::Closed { conn, reason } = e else {
                continue;
            };
            let tried = |pred: &dyn Fn(&TcpEvent) -> bool| {
                trace
                    .iter_of::<TcpEvent>()
                    .any(|(_, n, e)| n == node && pred(e))
            };
            match reason {
                CloseReason::Timeout => {
                    let retried = tried(&|e| {
                        matches!(
                            e,
                            TcpEvent::Retransmit { conn: c, .. }
                            | TcpEvent::FastRetransmit { conn: c, .. }
                            | TcpEvent::ZeroWindowProbe { conn: c, .. } if c == conn
                        )
                    });
                    if !retried {
                        return Err(format!(
                            "{node} conn {conn} closed on timeout without a single retransmission"
                        ));
                    }
                }
                CloseReason::KeepaliveTimeout => {
                    let probed = tried(
                        &|e| matches!(e, TcpEvent::KeepaliveProbe { conn: c, .. } if c == conn),
                    );
                    if !probed {
                        return Err(format!(
                            "{node} conn {conn} closed on keep-alive timeout without probing"
                        ));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// TCP timer discipline: every retransmission's next RTO must stay inside
/// configured bounds (a superset of every bundled vendor profile's range).
#[derive(Debug, Clone)]
pub struct TcpRtoBoundsOracle {
    /// Inclusive lower bound.
    pub min: SimDuration,
    /// Inclusive upper bound.
    pub max: SimDuration,
}

impl Default for TcpRtoBoundsOracle {
    fn default() -> Self {
        // Wide enough for every bundled profile (330 ms floor, 64 s cap),
        // tight enough to catch a broken backoff.
        TcpRtoBoundsOracle {
            min: SimDuration::from_millis(100),
            max: SimDuration::from_secs(120),
        }
    }
}

impl Oracle for TcpRtoBoundsOracle {
    fn name(&self) -> &'static str {
        "tcp-rto-bounds"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        for (_, node, e) in trace.iter_of::<TcpEvent>() {
            if let TcpEvent::Retransmit { conn, next_rto, .. } = e {
                if *next_rto < self.min || *next_rto > self.max {
                    return Err(format!(
                        "{node} conn {conn} scheduled an RTO of {next_rto} outside [{}, {}]",
                        self.min, self.max
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// GMP oracles
// ---------------------------------------------------------------------

/// GMP agreement and validity: every committed view with the same group id
/// must carry the same member list, the list must be non-empty, and the
/// recorded leader must be its minimum member.
#[derive(Debug, Clone, Default)]
pub struct GmpAgreementOracle;

impl Oracle for GmpAgreementOracle {
    fn name(&self) -> &'static str {
        "gmp-view-agreement"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        let mut by_gid: std::collections::BTreeMap<u64, &[u32]> = std::collections::BTreeMap::new();
        for (_, node, e) in trace.iter_of::<GmpEvent>() {
            let GmpEvent::GroupView {
                gid,
                members,
                leader,
            } = e
            else {
                continue;
            };
            // let-else keeps this structurally panic-free: an empty member
            // list is itself the violation, never an unwrap on min().
            let Some(min_member) = members.iter().min() else {
                return Err(format!("{node} committed an empty view for gid {gid}"));
            };
            if leader != min_member {
                return Err(format!(
                    "{node} committed gid {gid} with leader {leader} not the minimum of {members:?}"
                ));
            }
            match by_gid.get(gid) {
                None => {
                    by_gid.insert(*gid, members);
                }
                Some(existing) if existing != members => {
                    return Err(format!(
                        "view disagreement for gid {gid}: {existing:?} vs {members:?}"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// GMP leader uniqueness: all views committed for one group id must name
/// the same leader.
#[derive(Debug, Clone, Default)]
pub struct GmpLeaderUniquenessOracle;

impl Oracle for GmpLeaderUniquenessOracle {
    fn name(&self) -> &'static str {
        "gmp-leader-uniqueness"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        let mut leaders: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
        for (_, _, e) in trace.iter_of::<GmpEvent>() {
            if let GmpEvent::GroupView { gid, leader, .. } = e {
                match leaders.get(gid) {
                    None => {
                        leaders.insert(*gid, *leader);
                    }
                    Some(l) if l != leader => {
                        return Err(format!("gid {gid} has rival leaders {l} and {leader}"));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

/// GMP sanity: a daemon must never declare itself dead (the paper's
/// experiment-1 bug symptom).
#[derive(Debug, Clone, Default)]
pub struct GmpNoSelfDeathOracle;

impl Oracle for GmpNoSelfDeathOracle {
    fn name(&self) -> &'static str {
        "gmp-no-self-death"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        for (_, node, e) in trace.iter_of::<GmpEvent>() {
            if matches!(e, GmpEvent::SelfDeclaredDead) {
                return Err(format!("{node} declared itself dead"));
            }
        }
        Ok(())
    }
}

/// GMP routing: a leader must answer a `PROCLAIM` to its *originator*;
/// answering the forwarder instead (the experiment-3 bug) loops forever.
#[derive(Debug, Clone, Default)]
pub struct GmpProclaimRoutingOracle;

impl Oracle for GmpProclaimRoutingOracle {
    fn name(&self) -> &'static str {
        "gmp-proclaim-routing"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        for (_, node, e) in trace.iter_of::<GmpEvent>() {
            if let GmpEvent::ProclaimAnswered { to, origin } = e {
                if to != origin {
                    return Err(format!(
                        "{node} answered n{origin}'s proclaim to n{to} instead of the originator"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// GMP timer discipline: no heartbeat-expect timer may fire while the
/// daemon is `IN_TRANSITION` (the experiment-4 bug symptom).
#[derive(Debug, Clone, Default)]
pub struct GmpTimerDisciplineOracle;

impl Oracle for GmpTimerDisciplineOracle {
    fn name(&self) -> &'static str {
        "gmp-timer-discipline"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        for (_, node, e) in trace.iter_of::<GmpEvent>() {
            if let GmpEvent::SpuriousTimerInTransition { suspect } = e {
                return Err(format!(
                    "{node} saw a stale timer for n{suspect} while in transition"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// 2PC oracle
// ---------------------------------------------------------------------

/// Two-phase-commit atomicity: for each transaction, every decision made
/// or applied anywhere must agree.
#[derive(Debug, Clone, Default)]
pub struct TpcAtomicityOracle;

impl Oracle for TpcAtomicityOracle {
    fn name(&self) -> &'static str {
        "tpc-atomicity"
    }

    fn check(&self, trace: &TraceLog) -> Result<(), String> {
        let mut decisions: std::collections::BTreeMap<u32, bool> =
            std::collections::BTreeMap::new();
        for (_, node, e) in trace.iter_of::<TpcEvent>() {
            let (txid, commit) = match e {
                TpcEvent::DecisionMade { txid, commit }
                | TpcEvent::DecisionApplied { txid, commit } => (txid, commit),
                _ => continue,
            };
            match decisions.get(txid) {
                None => {
                    decisions.insert(*txid, *commit);
                }
                Some(d) if d != commit => {
                    return Err(format!(
                        "txid {txid} decision split: {d} vs {commit} (at {node})"
                    ));
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}
