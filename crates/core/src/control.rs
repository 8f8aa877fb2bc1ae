//! Runtime control operations on a [`PfiLayer`](crate::PfiLayer).
//!
//! "Testing different failure scenarios and creating different tests is
//! accomplished simply by invoking different scripts … changing the scripts
//! does not require recompilation of the tool." Experiments swap filters,
//! poke interpreter state, and harvest packet logs through these ops via
//! [`World::control`](pfi_sim::World::control).

use std::ops::Range;
use std::sync::Arc;

use pfi_script::{CacheStats, ScriptError};
use pfi_sim::{Message, SimTime};

use crate::filter::{Direction, Filter};
use crate::log::LogEntry;

/// One message as it reached a PFI layer's filters: what
/// [`PfiControl::Record`] collects and [`PfiControl::Probe`] re-evaluates
/// filters over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedMsg {
    /// Which filter it reached.
    pub dir: Direction,
    /// Virtual time at which it did (what `now_ms` answered).
    pub time: SimTime,
    /// The message as the filter was handed it.
    pub msg: Message,
}

/// Operations accepted by [`PfiLayer::control`](crate::PfiLayer).
#[derive(Debug)]
pub enum PfiControl {
    /// Replaces the send filter.
    SetSendFilter(Filter),
    /// Replaces the receive filter.
    SetRecvFilter(Filter),
    /// Removes the send filter (pass-through).
    ClearSendFilter,
    /// Removes the receive filter (pass-through).
    ClearRecvFilter,
    /// Evaluates a script in the send interpreter (state setup/query).
    EvalInSend(String),
    /// Evaluates a script in the receive interpreter.
    EvalInRecv(String),
    /// Emulates a process crash seen from this layer downward: discard all
    /// traffic in both directions until [`Revive`](PfiControl::Revive).
    Kill,
    /// Undoes [`Kill`](PfiControl::Kill).
    Revive,
    /// Takes (and clears) the packet log accumulated by `msg_log`.
    TakeLog,
    /// Releases all held messages now.
    ReleaseHeld,
    /// Reports how many messages are currently held.
    HeldCount,
    /// Reports the compile-once cache counters of one direction's
    /// interpreter (scripts and exprs), for asserting that warm per-message
    /// paths never re-parse.
    CacheStats(Direction),
    /// Caps the interpreter steps a single filter evaluation may execute,
    /// in *both* direction interpreters — the runaway-script watchdog. A
    /// looping filter then raises the step-budget error (recorded in the
    /// trace as a budget-exhausted `ScriptFailed` event, message passed
    /// unfiltered) instead of wedging the run.
    SetStepBudget(u64),
    /// Starts recording the traffic that reaches the filters — every
    /// pushed and popped message while the layer is not killed, whether or
    /// not a filter is installed — until
    /// [`TakeRecording`](PfiControl::TakeRecording). The paper's PFI layer
    /// is a probe as much as an injector; this is the probe alone. A layer
    /// that is not recording pays one `Option` test per message.
    Record,
    /// Stops recording and takes what was recorded, in arrival order
    /// (empty if the layer was not recording).
    TakeRecording,
    /// Evaluates the installed filters over `traffic[range]` — recorded by
    /// this site in an earlier run — and replies with the index of the
    /// first message whose evaluation *acts*, `None` if none does. Acting
    /// is anything observable outside the evaluating interpreter pair:
    /// effects other than a plain pass (drop, delay, hold, duplicates,
    /// injections, a release, an `xAfter` timer script), a changed message
    /// (bytes or addresses), a packet-log append, an RNG draw, a
    /// blackboard write, or a script error (step-budget exhaustion
    /// included). Filters that never act on the traffic of a run would
    /// have left that run exactly as it was.
    ///
    /// The evaluations are real — interpreter variables advance, an acting
    /// one has made its log entry or board write — so this is for a world
    /// that is then discarded or [restored](pfi_sim::World::restore), not
    /// driven.
    Probe {
        /// The site's recorded traffic (shared: probing copies nothing).
        traffic: Arc<[RecordedMsg]>,
        /// The slice of it to evaluate, so several sites' traffic can be
        /// probed interleaved, in recorded-time order.
        range: Range<usize>,
    },
}

/// Replies produced by [`PfiLayer::control`](crate::PfiLayer).
#[derive(Debug)]
pub enum PfiReply {
    /// Operation completed with nothing to report.
    Unit,
    /// Result of an `EvalIn*` operation.
    Eval(Result<String, ScriptError>),
    /// The harvested packet log.
    Log(Vec<LogEntry>),
    /// A count (held messages).
    Count(usize),
    /// Script- and expr-cache counters of one interpreter.
    CacheStats {
        /// Control-flow/proc/timer body cache.
        scripts: CacheStats,
        /// `expr` argument cache.
        exprs: CacheStats,
    },
    /// The traffic a [`PfiControl::TakeRecording`] harvested.
    Recording(Vec<RecordedMsg>),
    /// A [`PfiControl::Probe`]'s answer: the index of the first acting
    /// evaluation, if any.
    Probe(Option<usize>),
    /// The op was not a [`PfiControl`] value.
    UnknownOp,
}

impl PfiReply {
    /// Unwraps an `Eval` reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is not `Eval` or the evaluation failed.
    pub fn expect_eval(self) -> String {
        match self {
            PfiReply::Eval(Ok(v)) => v,
            other => panic!("expected successful Eval reply, got {other:?}"),
        }
    }

    /// Unwraps a `Log` reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is not `Log`.
    pub fn expect_log(self) -> Vec<LogEntry> {
        match self {
            PfiReply::Log(log) => log,
            other => panic!("expected Log reply, got {other:?}"),
        }
    }

    /// Unwraps a `Count` reply.
    ///
    /// # Panics
    ///
    /// Panics if the reply is not `Count`.
    pub fn expect_count(self) -> usize {
        match self {
            PfiReply::Count(n) => n,
            other => panic!("expected Count reply, got {other:?}"),
        }
    }

    /// Unwraps a `CacheStats` reply into `(scripts, exprs)`.
    ///
    /// # Panics
    ///
    /// Panics if the reply is not `CacheStats`.
    pub fn expect_cache_stats(self) -> (CacheStats, CacheStats) {
        match self {
            PfiReply::CacheStats { scripts, exprs } => (scripts, exprs),
            other => panic!("expected CacheStats reply, got {other:?}"),
        }
    }
}
