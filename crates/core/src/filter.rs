//! Send/receive filters and the operations they may perform on messages.
//!
//! A filter runs once per message passing through the PFI layer and decides
//! its fate ([`Verdict`]) plus side effects (duplication, injection,
//! releasing held messages). Filters are either Tcl scripts or native Rust
//! closures — the latter standing in for the paper's "user-defined
//! procedures written in C and linked into the tool".

use std::fmt;
use std::sync::Arc;

use pfi_script::Script;
use pfi_sim::{BoardStore, Message, NodeId, SimDuration, SimRng, SimTime};

use crate::globals::GlobalBoard;
use crate::log::LogEntry;
use crate::stub::{type_label, PacketStub};

/// Which way the filtered message is travelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Pushed down the stack (the *send filter* runs).
    Send,
    /// Popped up the stack (the *receive filter* runs).
    Receive,
}

impl Direction {
    /// Lowercase name, as exposed to scripts via `pfi_dir`.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Send => "send",
            Direction::Receive => "receive",
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What happens to the current message after the filter returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verdict {
    /// Continue on its way (the default).
    #[default]
    Pass,
    /// Silently discard.
    Drop,
    /// Park for this long, then continue.
    Delay(SimDuration),
    /// Park indefinitely until the filter releases held messages
    /// (deterministic reordering).
    Hold,
}

/// A message injected by a filter, and which way it should travel.
#[derive(Debug)]
pub struct Injection {
    /// `Send` continues toward the wire; `Receive` is delivered up to the
    /// target protocol as if it had arrived from the network.
    pub dir: Direction,
    /// The forged message.
    pub msg: Message,
}

/// Collected side effects of one filter run.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    pub verdict: Verdict,
    /// Extra copies of the (pre-modification) message to forward.
    pub duplicates: u32,
    pub injections: Vec<Injection>,
    /// Release all held messages after this one is handled.
    pub release: bool,
    /// Scripts to evaluate later in this direction's interpreter
    /// (the paper's "setting and manipulating timers" library). Held as
    /// `Arc<Script>` so re-armed timers share one compiled body with the
    /// interpreter's script cache instead of re-parsing per arm (`Arc`
    /// rather than `Rc` so the owning layer — and its world — stay `Send`).
    pub timer_scripts: Vec<(SimDuration, Arc<Script>)>,
    /// The filter reached outside its interpreter pair by a route the
    /// fields above do not show: appended to the packet log, drew from the
    /// RNG, or wrote the blackboard. Read only by
    /// [`acts`](Effects::acts); applying the effects ignores it.
    pub side_channel: bool,
}

impl Effects {
    /// Whether this filter run did anything observable outside the
    /// evaluating interpreter pair, the current message's own bytes and
    /// addresses aside (the caller compares those): a verdict other than
    /// `Pass`, a duplicate, an injection, a release, an `xAfter` timer
    /// script, or a side channel. A run that does not act leaves the world
    /// exactly as a layer with no filter would have.
    pub(crate) fn acts(&self) -> bool {
        self.verdict != Verdict::Pass
            || self.duplicates > 0
            || !self.injections.is_empty()
            || self.release
            || !self.timer_scripts.is_empty()
            || self.side_channel
    }
}

/// The API a filter uses to inspect and manipulate the current message.
///
/// Script filters reach these operations through the predefined Tcl
/// commands (`msg_type`, `xDrop`, `xDelay`, …); native filters call them
/// directly.
pub struct FilterCtx<'a> {
    pub(crate) dir: Direction,
    pub(crate) msg: &'a mut Message,
    pub(crate) stub: &'a dyn PacketStub,
    pub(crate) effects: &'a mut Effects,
    pub(crate) log: &'a mut Vec<LogEntry>,
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) rng: &'a mut SimRng,
    /// Handle of the blackboard this layer coordinates through.
    pub(crate) globals: GlobalBoard,
    /// The world's blackboard arena (lent through the layer [`Context`]).
    pub(crate) boards: &'a mut BoardStore,
}

impl fmt::Debug for FilterCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterCtx")
            .field("dir", &self.dir)
            .field("now", &self.now)
            .field("node", &self.node)
            .finish()
    }
}

impl<'a> FilterCtx<'a> {
    /// Which filter is running.
    pub fn dir(&self) -> Direction {
        self.dir
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node the PFI layer lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current message.
    pub fn msg(&self) -> &Message {
        self.msg
    }

    /// Mutable access to the current message (corruption, field edits).
    pub fn msg_mut(&mut self) -> &mut Message {
        self.msg
    }

    /// The packet stub installed in this PFI layer.
    pub fn stub(&self) -> &dyn PacketStub {
        self.stub
    }

    /// Convenience: the current message's type per the stub.
    pub fn msg_type(&self) -> Option<String> {
        self.stub.type_name(self.msg).map(String::from)
    }

    /// Convenience: a named header field of the current message.
    pub fn field(&self, name: &str) -> Option<i64> {
        self.stub.field(self.msg, name)
    }

    /// Convenience: overwrite a named header field.
    pub fn set_field(&mut self, name: &str, value: i64) -> bool {
        self.stub.set_field(self.msg, name, value)
    }

    /// Drop the current message.
    pub fn drop_msg(&mut self) {
        self.effects.verdict = Verdict::Drop;
    }

    /// Delay the current message by `d`.
    pub fn delay(&mut self, d: SimDuration) {
        self.effects.verdict = Verdict::Delay(d);
    }

    /// Hold the current message until [`release`](FilterCtx::release).
    pub fn hold(&mut self) {
        self.effects.verdict = Verdict::Hold;
    }

    /// Let the current message pass (undoing a previous drop/delay/hold
    /// decision made earlier in the same filter run).
    pub fn pass(&mut self) {
        self.effects.verdict = Verdict::Pass;
    }

    /// Forward `n` extra copies of the current message.
    pub fn duplicate(&mut self, n: u32) {
        self.effects.duplicates = self.effects.duplicates.saturating_add(n);
    }

    /// Inject a forged message travelling in `dir`.
    pub fn inject(&mut self, dir: Direction, msg: Message) {
        self.effects.injections.push(Injection { dir, msg });
    }

    /// Release all messages currently held by this PFI layer.
    pub fn release(&mut self) {
        self.effects.release = true;
    }

    /// Schedules a pre-compiled `script` to be evaluated in this
    /// direction's interpreter after `delay` (the script command
    /// `xAfter <ms> <script>`). Timer scripts see the interpreter's
    /// variables but no current message.
    ///
    /// Script filters obtain the compiled body from the interpreter's
    /// script cache ([`pfi_script::Interp::compile`]); native filters can
    /// parse once up front with [`Script::parse`] and wrap in [`Arc`].
    pub fn after(&mut self, delay: SimDuration, script: Arc<Script>) {
        self.effects.timer_scripts.push((delay, script));
    }

    /// Append the current message to the PFI layer's packet log with a
    /// timestamp (the paper's `msg_log`).
    pub fn log_msg(&mut self) {
        self.effects.side_channel = true;
        self.log.push(LogEntry {
            time: self.now,
            dir: self.dir,
            msg_type: type_label(self.stub, self.msg),
            len: self.msg.len(),
            summary: self.stub.summary(self.msg),
        });
    }

    /// Deterministic RNG for probabilistic filtering.
    pub fn rng(&mut self) -> &mut SimRng {
        self.effects.side_channel = true;
        self.rng
    }

    /// The handle of this layer's script blackboard (cross-node
    /// coordination; the data lives in the world's [`BoardStore`]).
    pub fn globals(&self) -> GlobalBoard {
        self.globals
    }

    /// Reads a key from the blackboard (the script command `global_get`).
    pub fn global_get(&self, key: &str) -> Option<String> {
        self.globals.get(self.boards, key)
    }

    /// Sets a key on the blackboard (the script command `global_set`).
    pub fn global_set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.effects.side_channel = true;
        self.globals.set(self.boards, key, value);
    }

    /// Removes a key from the blackboard, returning its previous value.
    pub fn global_remove(&mut self, key: &str) -> Option<String> {
        self.effects.side_channel = true;
        self.globals.remove(self.boards, key)
    }
}

/// A send or receive filter.
pub enum Filter {
    /// A Tcl script evaluated in the direction's interpreter on every
    /// message. Shared: the compiled form is bound into the script the
    /// first time each body runs, so every fork of a snapshot evaluates
    /// what the first one compiled.
    Script(Arc<Script>),
    /// A native Rust closure — the "user-defined procedure" escape hatch.
    /// `Send` because installed filters live inside the layer, and a
    /// fully-constructed world crosses thread boundaries.
    Native(Box<dyn FnMut(&mut FilterCtx<'_>) + Send>),
}

impl Filter {
    /// Parses Tcl source into a script filter.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed scripts.
    pub fn script(src: &str) -> Result<Filter, pfi_script::ScriptError> {
        Ok(Filter::Script(Arc::new(Script::parse(src)?)))
    }

    /// Wraps a native closure as a filter.
    pub fn native(f: impl FnMut(&mut FilterCtx<'_>) + Send + 'static) -> Filter {
        Filter::Native(Box::new(f))
    }

    /// A copy, for world snapshots. Script filters share their compiled
    /// body; native closures cannot be cloned and return `None` (a layer
    /// holding one refuses to snapshot).
    pub fn try_clone(&self) -> Option<Filter> {
        match self {
            Filter::Script(s) => Some(Filter::Script(Arc::clone(s))),
            Filter::Native(_) => None,
        }
    }
}

impl fmt::Debug for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::Script(s) => f.debug_tuple("Filter::Script").field(&s.len()).finish(),
            Filter::Native(_) => f.write_str("Filter::Native(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stub::RawStub;

    #[test]
    fn direction_strings() {
        assert_eq!(Direction::Send.as_str(), "send");
        assert_eq!(Direction::Receive.to_string(), "receive");
    }

    #[test]
    fn filter_ctx_collects_effects() {
        let mut msg = Message::new(NodeId::new(0), NodeId::new(1), b"xyz");
        let mut effects = Effects::default();
        let mut log = Vec::new();
        let mut rng = SimRng::seed_from(1);
        let mut boards = BoardStore::new();
        let globals = GlobalBoard::alloc_in(&mut boards);
        let stub = RawStub;
        let mut ctx = FilterCtx {
            dir: Direction::Send,
            msg: &mut msg,
            stub: &stub,
            effects: &mut effects,
            log: &mut log,
            now: SimTime::from_micros(5),
            node: NodeId::new(0),
            rng: &mut rng,
            globals,
            boards: &mut boards,
        };
        ctx.duplicate(2);
        ctx.log_msg();
        ctx.global_set("k", "v");
        assert_eq!(ctx.global_get("k").as_deref(), Some("v"));
        ctx.delay(SimDuration::from_secs(3));
        ctx.drop_msg();
        ctx.pass();
        ctx.hold();
        assert_eq!(effects.verdict, Verdict::Hold);
        assert_eq!(effects.duplicates, 2);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].len, 3);
    }

    #[test]
    fn verdict_default_is_pass() {
        assert_eq!(Verdict::default(), Verdict::Pass);
    }

    #[test]
    fn filter_constructors() {
        assert!(Filter::script("xDrop").is_ok());
        assert!(Filter::script("set x {").is_err());
        let f = Filter::native(|ctx| ctx.drop_msg());
        assert_eq!(format!("{f:?}"), "Filter::Native(..)");
    }
}
