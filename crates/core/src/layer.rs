//! The PFI layer itself: interposition, filter execution, and effects.
//!
//! Insert a [`PfiLayer`] between any two layers of a stack. Every message
//! pushed down runs the *send filter*; every message popped up runs the
//! *receive filter*. Each direction owns a persistent Tcl interpreter, so
//! script state (counters, phase flags) survives across messages; the
//! `peer_*` commands let one filter adjust the other's state, exactly as in
//! the paper's tool.

use std::any::Any;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use pfi_script::Interp;
use pfi_sim::{Context, Layer, Message};

use crate::bindings::{Bindings, ControlBindings};
use crate::control::{PfiControl, PfiReply, Tally};
use crate::filter::{Direction, Effects, Filter, FilterCtx, Verdict};
use crate::globals::GlobalBoard;
use crate::log::{LogEntry, PfiEvent};
use crate::stub::{type_label, PacketStub};

/// The probe/fault-injection layer.
///
/// # Examples
///
/// Dropping every message after the first 30 (the paper's TCP experiment 1
/// setup), as a script filter:
///
/// ```
/// use pfi_core::{Filter, PfiLayer, RawStub};
///
/// let filter = Filter::script(r#"
///     incr count
///     if {$count > 30} { xDrop cur_msg }
/// "#).unwrap();
/// let layer = PfiLayer::new(Box::new(RawStub)).with_recv_filter(filter);
/// # let _ = layer;
/// ```
pub struct PfiLayer {
    stub: Box<dyn PacketStub>,
    /// `[send, receive]` filters.
    filters: [Option<Filter>; 2],
    /// `[send, receive]` interpreters (persistent across messages).
    interps: [Interp; 2],
    held: Vec<(Direction, Message)>,
    delayed: HashMap<u64, (Direction, Message)>,
    timer_scripts: HashMap<u64, (Direction, Arc<pfi_script::Script>)>,
    next_token: u64,
    killed: bool,
    packet_log: Vec<LogEntry>,
    /// Blackboard handle. `None` until first use: a layer not explicitly
    /// sharing a board via [`with_globals`](PfiLayer::with_globals) lazily
    /// allocates a private one from the world's arena on the first script
    /// that touches globals (deterministic first-touch order).
    globals: Option<GlobalBoard>,
    /// While `Some`, every message that reaches the filters is counted
    /// here first ([`PfiControl::Tally`]) — the layer as pure probe.
    tally: Option<Tally>,
}

impl std::fmt::Debug for PfiLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PfiLayer")
            .field("stub", &self.stub.protocol())
            .field("killed", &self.killed)
            .field("held", &self.held.len())
            .field("delayed", &self.delayed.len())
            .field("logged", &self.packet_log.len())
            .finish()
    }
}

fn idx(dir: Direction) -> usize {
    match dir {
        Direction::Send => 0,
        Direction::Receive => 1,
    }
}

impl PfiLayer {
    /// Creates a pass-through PFI layer with the given packet stub.
    pub fn new(stub: Box<dyn PacketStub>) -> Self {
        PfiLayer {
            stub,
            filters: [None, None],
            interps: [Interp::new(), Interp::new()],
            held: Vec::new(),
            delayed: HashMap::new(),
            timer_scripts: HashMap::new(),
            next_token: 0,
            killed: false,
            packet_log: Vec::new(),
            globals: None,
            tally: None,
        }
    }

    /// Installs the send filter (runs on every message pushed down).
    pub fn with_send_filter(mut self, f: Filter) -> Self {
        self.filters[0] = Some(f);
        self
    }

    /// Installs the receive filter (runs on every message popped up).
    pub fn with_recv_filter(mut self, f: Filter) -> Self {
        self.filters[1] = Some(f);
        self
    }

    /// Shares a cross-node blackboard with this layer (copy the same board
    /// handle into every PFI layer that should coordinate).
    pub fn with_globals(mut self, board: GlobalBoard) -> Self {
        self.globals = Some(board);
        self
    }

    /// The blackboard handle this layer coordinates through, allocating a
    /// private board from the world's arena on first use.
    fn board(&mut self, ctx: &mut Context<'_>) -> GlobalBoard {
        *self
            .globals
            .get_or_insert_with(|| GlobalBoard::alloc_in(ctx.boards()))
    }

    /// Sets the compile-once cache bounds of both direction interpreters
    /// (`scripts` for control-flow/proc/timer bodies, `exprs` for `expr`
    /// arguments). `(0, 0)` disables caching — every evaluation re-parses,
    /// which is the "cold path" used to cross-check determinism.
    pub fn with_cache_capacity(mut self, scripts: usize, exprs: usize) -> Self {
        for interp in &mut self.interps {
            interp.set_cache_capacity(scripts, exprs);
        }
        self
    }

    /// Whether evaluating `dir`'s filter on `msg` is known to do nothing:
    /// no filter is installed, or the script's [type gate] admits no
    /// message of `msg`'s type. The gate is trusted only while `msg_type`
    /// is the host's command (the interpreter defines no proc) and the step
    /// budget covers every guard (else the evaluation would fail). A
    /// skipped evaluation binds no braced word, which only the interpreter's
    /// cache statistics show.
    ///
    /// [type gate]: pfi_script::TypeGate
    fn skips(&mut self, dir: Direction, msg: &Message, ctx: &mut Context<'_>) -> bool {
        let i = idx(dir);
        let gated = match &self.filters[i] {
            None => return true,
            Some(Filter::Native(_)) => false,
            Some(Filter::Script(script)) => script.type_gate().is_some_and(|gate| {
                let interp = &self.interps[i];
                !interp.has_procs()
                    && interp.step_budget() >= gate.guard_steps()
                    && !gate.admits(self.stub.type_name(msg).as_deref().unwrap_or("unknown"))
            }),
        };
        if gated {
            // Allocated as the evaluation would have, so the boards'
            // first-touch order does not depend on the gate.
            self.board(ctx);
        }
        gated
    }

    /// Evaluates `dir`'s filter on `msg`, collecting into `effects`; the
    /// script error if the filter failed. Callers ask
    /// [`skips`](Self::skips) first.
    fn evaluate(
        &mut self,
        dir: Direction,
        msg: &mut Message,
        effects: &mut Effects,
        ctx: &mut Context<'_>,
    ) -> Option<pfi_script::ScriptError> {
        let i = idx(dir);
        let mut filter = self.filters[i].take()?;
        let (node, now) = (ctx.node(), ctx.now());
        let globals = self.board(ctx);
        let mut script_error: Option<pfi_script::ScriptError> = None;
        {
            let (rng, boards) = ctx.rng_and_boards();
            let [send_interp, recv_interp] = &mut self.interps;
            let (own, peer) = match dir {
                Direction::Send => (send_interp, recv_interp),
                Direction::Receive => (recv_interp, send_interp),
            };
            let fctx = FilterCtx {
                dir,
                msg,
                stub: self.stub.as_ref(),
                effects,
                log: &mut self.packet_log,
                now,
                node,
                rng,
                globals,
                boards,
            };
            match &mut filter {
                Filter::Native(f) => f(&mut { fctx }),
                Filter::Script(script) => {
                    let mut host = Bindings { fctx, peer };
                    if let Err(e) = own.eval_parsed(&mut host, script) {
                        script_error = Some(e);
                    }
                }
            }
        }
        self.filters[i] = Some(filter);
        script_error
    }

    fn run_filter(&mut self, dir: Direction, msg: &mut Message, ctx: &mut Context<'_>) -> Effects {
        if let Some(tally) = &mut self.tally {
            let msg_type = self.stub.type_name(msg).unwrap_or(Cow::Borrowed("unknown"));
            tally.add(dir, msg_type, msg.dst().index(), msg.len());
        }
        let mut effects = Effects::default();
        if self.skips(dir, msg, ctx) {
            return effects;
        }
        if let Some(error) = self.evaluate(dir, msg, &mut effects, ctx) {
            // A failing filter must not eat traffic silently: pass the
            // message and record the failure.
            effects.verdict = Verdict::Pass;
            ctx.emit(PfiEvent::ScriptFailed {
                dir,
                error: error.to_string(),
                budget_exhausted: error.is_budget_exhausted(),
            });
        }
        effects
    }

    /// Copies of both filters, `None` if either is a native closure.
    fn clone_filters(&self) -> Option<[Option<Filter>; 2]> {
        let mut filters: [Option<Filter>; 2] = [None, None];
        for (slot, f) in filters.iter_mut().zip(&self.filters) {
            *slot = match f {
                Some(f) => Some(f.try_clone()?),
                None => None,
            };
        }
        Some(filters)
    }

    fn forward(dir: Direction, msg: Message, ctx: &mut Context<'_>) {
        match dir {
            Direction::Send => ctx.send_down(msg),
            Direction::Receive => ctx.send_up(msg),
        }
    }

    fn apply(&mut self, dir: Direction, msg: Message, effects: Effects, ctx: &mut Context<'_>) {
        let stub = self.stub.as_ref();
        let msg_type = || type_label(stub, &msg);
        if effects.duplicates > 0 {
            ctx.emit(PfiEvent::Duplicated {
                dir,
                msg_type: msg_type(),
                copies: effects.duplicates,
            });
            for _ in 0..effects.duplicates {
                Self::forward(dir, msg.clone(), ctx);
            }
        }
        match effects.verdict {
            Verdict::Pass => Self::forward(dir, msg, ctx),
            Verdict::Drop => {
                ctx.emit(PfiEvent::Dropped {
                    dir,
                    msg_type: msg_type(),
                });
            }
            Verdict::Delay(d) => {
                ctx.emit(PfiEvent::Delayed {
                    dir,
                    msg_type: msg_type(),
                    delay: d,
                });
                self.next_token += 1;
                let token = self.next_token;
                self.delayed.insert(token, (dir, msg));
                ctx.set_timer(d, token);
            }
            Verdict::Hold => {
                ctx.emit(PfiEvent::Held {
                    dir,
                    msg_type: msg_type(),
                });
                self.held.push((dir, msg));
            }
        }
        for inj in effects.injections {
            ctx.emit(PfiEvent::Injected {
                dir: inj.dir,
                msg_type: type_label(stub, &inj.msg),
            });
            Self::forward(inj.dir, inj.msg, ctx);
        }
        if effects.release {
            self.release_held(ctx);
        }
        for (delay, script) in effects.timer_scripts {
            self.next_token += 1;
            let token = self.next_token;
            self.timer_scripts.insert(token, (dir, script));
            ctx.set_timer(delay, token);
        }
    }

    fn release_held(&mut self, ctx: &mut Context<'_>) {
        let held = std::mem::take(&mut self.held);
        if held.is_empty() {
            return;
        }
        ctx.emit(PfiEvent::Released { count: held.len() });
        for (dir, msg) in held {
            Self::forward(dir, msg, ctx);
        }
    }

    /// The packet log accumulated by `msg_log` calls.
    pub fn packet_log(&self) -> &[LogEntry] {
        &self.packet_log
    }

    /// Evaluates a script in one direction's interpreter, outside any
    /// message context (only state commands available).
    fn eval_control(
        &mut self,
        dir: Direction,
        src: &str,
        ctx: &mut Context<'_>,
    ) -> Result<String, pfi_script::ScriptError> {
        let globals = self.board(ctx);
        let boards = ctx.boards();
        let [send_interp, recv_interp] = &mut self.interps;
        let (own, peer) = match dir {
            Direction::Send => (send_interp, recv_interp),
            Direction::Receive => (recv_interp, send_interp),
        };
        let mut host = ControlBindings {
            globals,
            boards,
            peer,
        };
        own.eval(&mut host, src)
    }
}

impl Layer for PfiLayer {
    fn name(&self) -> &'static str {
        "pfi"
    }

    fn push(&mut self, mut msg: Message, ctx: &mut Context<'_>) {
        if self.killed {
            return;
        }
        let effects = self.run_filter(Direction::Send, &mut msg, ctx);
        self.apply(Direction::Send, msg, effects, ctx);
    }

    fn pop(&mut self, mut msg: Message, ctx: &mut Context<'_>) {
        if self.killed {
            return;
        }
        let effects = self.run_filter(Direction::Receive, &mut msg, ctx);
        self.apply(Direction::Receive, msg, effects, ctx);
    }

    fn timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if self.killed {
            return;
        }
        if let Some((dir, msg)) = self.delayed.remove(&token) {
            ctx.emit(PfiEvent::Resumed { dir });
            Self::forward(dir, msg, ctx);
        } else if let Some((dir, script)) = self.timer_scripts.remove(&token) {
            // A script armed by xAfter: evaluate it in its direction's
            // interpreter, without a current message.
            let globals = self.board(ctx);
            let boards = ctx.boards();
            let [send_interp, recv_interp] = &mut self.interps;
            let (own, peer) = match dir {
                Direction::Send => (send_interp, recv_interp),
                Direction::Receive => (recv_interp, send_interp),
            };
            let mut host = ControlBindings {
                globals,
                boards,
                peer,
            };
            if let Err(e) = own.eval_parsed(&mut host, &script) {
                ctx.emit(PfiEvent::ScriptFailed {
                    dir,
                    error: e.to_string(),
                    budget_exhausted: e.is_budget_exhausted(),
                });
            }
        }
    }

    fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
        let Ok(op) = op.downcast::<PfiControl>() else {
            return Box::new(PfiReply::UnknownOp);
        };
        let reply = match *op {
            PfiControl::SetSendFilter(f) => {
                self.filters[0] = Some(f);
                PfiReply::Unit
            }
            PfiControl::SetRecvFilter(f) => {
                self.filters[1] = Some(f);
                PfiReply::Unit
            }
            PfiControl::EvalInSend(src) => {
                PfiReply::Eval(self.eval_control(Direction::Send, &src, ctx))
            }
            PfiControl::EvalInRecv(src) => {
                PfiReply::Eval(self.eval_control(Direction::Receive, &src, ctx))
            }
            PfiControl::Kill => {
                if !self.killed {
                    self.killed = true;
                    ctx.emit(PfiEvent::Killed);
                }
                PfiReply::Unit
            }
            PfiControl::Revive => {
                if self.killed {
                    self.killed = false;
                    ctx.emit(PfiEvent::Revived);
                }
                PfiReply::Unit
            }
            PfiControl::TakeLog => PfiReply::Log(std::mem::take(&mut self.packet_log)),
            PfiControl::CacheStats(dir) => {
                let interp = &self.interps[idx(dir)];
                PfiReply::CacheStats {
                    scripts: interp.script_cache_stats(),
                    exprs: interp.expr_cache_stats(),
                }
            }
            PfiControl::SetStepBudget(budget) => {
                for interp in &mut self.interps {
                    interp.set_step_budget(budget);
                }
                PfiReply::Unit
            }
            PfiControl::Tally => {
                self.tally.get_or_insert_with(Tally::default);
                PfiReply::Unit
            }
            PfiControl::TakeTally => PfiReply::Tally(self.tally.take().unwrap_or_default()),
        };
        Box::new(reply)
    }

    /// A PFI layer is clonable — and therefore snapshot/fork-able — when
    /// its stub supports [`PacketStub::clone_box`] and every installed
    /// filter is a script (native closures cannot be cloned). Everything
    /// else it owns (interpreters, held/delayed messages, timer scripts,
    /// packet log) is plain data or `Arc`-shared.
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        let stub = self.stub.clone_box()?;
        let filters = self.clone_filters()?;
        Some(Box::new(PfiLayer {
            stub,
            filters,
            interps: self.interps.clone(),
            held: self.held.clone(),
            delayed: self.delayed.clone(),
            timer_scripts: self.timer_scripts.clone(),
            next_token: self.next_token,
            killed: self.killed,
            packet_log: self.packet_log.clone(),
            globals: self.globals,
            tally: self.tally.clone(),
        }))
    }

    /// In place when `src` is a PFI layer whose stub and filters clone;
    /// the interpreters, parked messages and logs keep their storage.
    fn restore_from(&mut self, src: &dyn Layer) -> bool {
        let Some(src) = src.as_any().and_then(|any| any.downcast_ref::<PfiLayer>()) else {
            return false;
        };
        let (Some(stub), Some(filters)) = (src.stub.clone_box(), src.clone_filters()) else {
            return false;
        };
        self.stub = stub;
        self.filters = filters;
        self.interps.clone_from(&src.interps);
        self.held.clone_from(&src.held);
        self.delayed.clone_from(&src.delayed);
        self.timer_scripts.clone_from(&src.timer_scripts);
        self.next_token = src.next_token;
        self.killed = src.killed;
        self.packet_log.clone_from(&src.packet_log);
        self.globals = src.globals;
        self.tally.clone_from(&src.tally);
        true
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}
