//! Runtime control operations on a [`PfiLayer`](crate::PfiLayer).
//!
//! "Testing different failure scenarios and creating different tests is
//! accomplished simply by invoking different scripts … changing the scripts
//! does not require recompilation of the tool." Experiments swap filters,
//! poke interpreter state, and harvest packet logs through these ops via
//! [`World::control`](pfi_sim::World::control).

use std::borrow::Cow;

use pfi_script::{CacheStats, ScriptError};

use crate::filter::{Direction, Filter};
use crate::log::LogEntry;

/// What reached a PFI layer's filters while it tallied
/// ([`PfiControl::Tally`]): per direction, message type and destination,
/// how many messages and the longest of them. The type is the stub's name
/// for it, `unknown` when it has none — what `msg_type` answers a filter.
/// A run's tally is a few dozen rows, however many messages it counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    rows: Vec<TallyRow>,
}

/// One row of a [`Tally`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TallyRow {
    /// Which filter the messages reached.
    pub dir: Direction,
    /// Their type, as `msg_type` answers it.
    pub msg_type: Cow<'static, str>,
    /// Their destination node (what `msg_dst` answers).
    pub dst: usize,
    /// How many reached the filter.
    pub count: u64,
    /// The length in bytes of the longest (what `msg_len` answers).
    pub longest: usize,
}

impl Tally {
    /// Counts one message of `len` bytes reaching `dir`'s filter.
    pub fn add(&mut self, dir: Direction, msg_type: Cow<'static, str>, dst: usize, len: usize) {
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.dst == dst && r.dir == dir && r.msg_type == msg_type);
        match row {
            Some(row) => {
                row.count += 1;
                row.longest = row.longest.max(len);
            }
            None => self.rows.push(TallyRow {
                dir,
                msg_type,
                dst,
                count: 1,
                longest: len,
            }),
        }
    }

    /// The rows, in order of each one's first message.
    pub fn rows(&self) -> &[TallyRow] {
        &self.rows
    }
}

/// Operations accepted by [`PfiLayer::control`](crate::PfiLayer).
#[derive(Debug)]
pub enum PfiControl {
    /// Replaces the send filter.
    SetSendFilter(Filter),
    /// Replaces the receive filter.
    SetRecvFilter(Filter),
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
    /// Starts tallying the traffic that reaches the filters — every
    /// pushed and popped message while the layer is not killed, whether or
    /// not a filter is installed, counted into a [`Tally`] — until
    /// [`TakeTally`](PfiControl::TakeTally). The paper's PFI layer is a
    /// probe as much as an injector; this is the probe alone. A layer that
    /// is not tallying pays one `Option` test per message.
    Tally,
    /// Stops tallying and takes the tally (empty if the layer was not
    /// tallying).
    TakeTally,
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
    /// Script- and expr-cache counters of one interpreter.
    CacheStats {
        /// Control-flow/proc/timer body cache.
        scripts: CacheStats,
        /// `expr` argument cache.
        exprs: CacheStats,
    },
    /// What a [`PfiControl::TakeTally`] harvested.
    Tally(Tally),
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
