//! The x-Kernel-style protocol layer abstraction.
//!
//! "Each protocol is specified as a layer in the protocol stack such that
//! each layer, from the device-level to the application-level protocol,
//! provides an abstract communication service to higher layers." A stack is
//! an ordered list of [`Layer`]s, index 0 at the top (the paper's *driver*
//! layer) and the last index at the bottom (adjacent to the wire). Messages
//! are *pushed* down and *popped* up; the PFI layer interposes on both.

use std::any::Any;

use crate::board::BoardStore;
use crate::ids::{NodeId, TimerId};
use crate::message::Message;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceLog};

/// A protocol layer in a node's stack.
///
/// Implementations receive a [`Context`] that collects their outputs: send a
/// message further down or up, arm or cancel timers, emit trace events.
///
/// `Layer: Send` because layers live inside the [`World`](crate::World)
/// arena and a fully-constructed world crosses thread boundaries (a fleet
/// master builds cases and hands them to workers). Callbacks still run on
/// exactly one thread at a time — the world is `Send`, not `Sync` — so
/// implementations never need interior synchronisation.
pub trait Layer: Send {
    /// Short name of the layer, used in traces (e.g. `"tcp"`, `"pfi"`).
    fn name(&self) -> &'static str;

    /// A message is travelling *down* the stack through this layer.
    ///
    /// A pass-through layer forwards it with [`Context::send_down`]; a
    /// bottom-adjacent protocol typically pushes its header first.
    fn push(&mut self, msg: Message, ctx: &mut Context<'_>);

    /// A message is travelling *up* the stack through this layer.
    fn pop(&mut self, msg: Message, ctx: &mut Context<'_>);

    /// A timer previously armed by this layer fired. `token` is the value
    /// passed to [`Context::set_timer`].
    fn timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }

    /// Synchronous control operation from the harness or another layer
    /// (the x-Kernel's `xControl`). Ops and results are `Any`-typed; each
    /// protocol crate defines its own op enum.
    ///
    /// The default implementation ignores the op and returns `()`.
    fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
        let _ = (op, ctx);
        Box::new(())
    }

    /// Deep copy behind the trait object, for world snapshots.
    ///
    /// Returning `None` (the default) marks the layer unclonable and makes
    /// [`World::try_snapshot`](crate::World::try_snapshot) refuse —
    /// correct for layers holding state that genuinely cannot be copied
    /// (e.g. native closures). Layers that want to participate in
    /// snapshot/fork execution return `Some(Box::new(self.clone()))`.
    fn clone_box(&self) -> Option<Box<dyn Layer>> {
        None
    }

    /// Overwrites this layer with a deep copy of `src` — the state
    /// [`clone_box`](Layer::clone_box) of `src` would box — in the storage
    /// this layer already owns. [`World::restore`](crate::World::restore)
    /// offers every layer of a retired world the captured layer at the
    /// same stack position; `true` means the copy is complete.
    ///
    /// `false` (the default, and the right answer whenever `src` is not
    /// this layer's own type — see [`as_any`](Layer::as_any)) must leave
    /// `self` as it was: the world then replaces it with `src.clone_box()`.
    /// Purely an allocation saving; a layer that never implements it
    /// restores exactly the same, one box and its contents later.
    fn restore_from(&mut self, src: &dyn Layer) -> bool {
        let _ = src;
        false
    }

    /// This layer as [`Any`], for a [`restore_from`](Layer::restore_from)
    /// of the same type to downcast its source with. `None` (the default)
    /// opts out.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// An output produced by a layer while handling an event.
#[derive(Debug)]
pub(crate) enum Action {
    /// Forward a message toward the wire (to the next layer down, or onto
    /// the network if emitted by the bottom layer).
    SendDown(Message),
    /// Forward a message toward the application (to the next layer up, or
    /// into the node's inbox if emitted by the top layer).
    SendUp(Message),
    /// Arm a timer that calls back into the emitting layer.
    SetTimer {
        /// Cancellation handle.
        id: TimerId,
        /// Absolute virtual time at which to fire.
        at: SimTime,
        /// Opaque value handed back to [`Layer::timer`].
        token: u64,
    },
    /// Cancel a previously armed timer.
    CancelTimer(TimerId),
}

/// Execution context handed to every [`Layer`] callback.
///
/// Collects the layer's outputs; the world routes them after the callback
/// returns. The action buffer and the mutable world state a callback may
/// touch (RNG, trace log, blackboard arena, timer sequence) are lent in as
/// disjoint `&mut` borrows of the world's arenas — no shared handles, no
/// interior mutability, and nothing allocated per callback.
#[derive(Debug)]
pub struct Context<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) layer_name: &'static str,
    pub(crate) actions: &'a mut Vec<Action>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) trace: &'a mut TraceLog,
    pub(crate) boards: &'a mut BoardStore,
    pub(crate) timer_seq: &'a mut u64,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this layer lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends `msg` to the next layer down (or onto the network from the
    /// bottom layer).
    pub fn send_down(&mut self, msg: Message) {
        self.actions.push(Action::SendDown(msg));
    }

    /// Sends `msg` to the next layer up (or into the node inbox from the
    /// top layer).
    pub fn send_up(&mut self, msg: Message) {
        self.actions.push(Action::SendUp(msg));
    }

    /// Arms a timer `delay` from now; [`Layer::timer`] is called with
    /// `token` when it fires. Returns a handle for cancellation.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        *self.timer_seq += 1;
        let id = TimerId(*self.timer_seq);
        self.actions.push(Action::SetTimer {
            id,
            at: self.now + delay,
            token,
        });
        id
    }

    /// Cancels a pending timer. Cancelling a timer that already fired (or
    /// was already cancelled) is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer(id));
    }

    /// Emits a typed trace event attributed to this layer.
    pub fn emit<E: TraceEvent + Clone>(&mut self, event: E) {
        self.trace
            .record(self.now, self.node, self.layer_name, event);
    }

    /// The simulation's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The world's blackboard arena (script-visible key/value boards).
    pub fn boards(&mut self) -> &mut BoardStore {
        self.boards
    }

    /// Both the RNG and the blackboard arena, as simultaneous disjoint
    /// borrows — for callers (like the PFI filter context) that need to
    /// thread both into one sub-scope.
    pub fn rng_and_boards(&mut self) -> (&mut SimRng, &mut BoardStore) {
        (self.rng, self.boards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_actions() {
        let mut rng = SimRng::seed_from(0);
        let mut trace = TraceLog::new();
        let mut boards = BoardStore::new();
        let mut seq = 0u64;
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::from_micros(100),
            node: NodeId::new(1),
            layer_name: "test",
            actions: &mut actions,
            rng: &mut rng,
            trace: &mut trace,
            boards: &mut boards,
            timer_seq: &mut seq,
        };
        let m = Message::new(NodeId::new(1), NodeId::new(2), b"x");
        ctx.send_down(m.clone());
        ctx.send_up(m);
        let id = ctx.set_timer(SimDuration::from_millis(5), 42);
        ctx.cancel_timer(id);
        assert_eq!(ctx.actions.len(), 4);
        match &ctx.actions[2] {
            Action::SetTimer { at, token, .. } => {
                assert_eq!(*at, SimTime::from_micros(5_100));
                assert_eq!(*token, 42);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut rng = SimRng::seed_from(0);
        let mut trace = TraceLog::new();
        let mut boards = BoardStore::new();
        let mut seq = 0u64;
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId::new(0),
            layer_name: "test",
            actions: &mut actions,
            rng: &mut rng,
            trace: &mut trace,
            boards: &mut boards,
            timer_seq: &mut seq,
        };
        let a = ctx.set_timer(SimDuration::ZERO, 0);
        let b = ctx.set_timer(SimDuration::ZERO, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn emit_records_layer_name() {
        let mut rng = SimRng::seed_from(0);
        let mut trace = TraceLog::new();
        let mut boards = BoardStore::new();
        let mut seq = 0u64;
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId::new(3),
            layer_name: "mylayer",
            actions: &mut actions,
            rng: &mut rng,
            trace: &mut trace,
            boards: &mut boards,
            timer_seq: &mut seq,
        };
        ctx.emit("hello");
        let mut seen = None;
        trace.for_each(|r| seen = Some((r.node, r.layer)));
        assert_eq!(seen, Some((NodeId::new(3), "mylayer")));
    }

    #[test]
    fn boards_reachable_through_context() {
        let mut rng = SimRng::seed_from(0);
        let mut trace = TraceLog::new();
        let mut boards = BoardStore::new();
        let mut seq = 0u64;
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::ZERO,
            node: NodeId::new(0),
            layer_name: "test",
            actions: &mut actions,
            rng: &mut rng,
            trace: &mut trace,
            boards: &mut boards,
            timer_seq: &mut seq,
        };
        let id = ctx.boards().alloc();
        ctx.boards().set(id, "k", "v");
        let (_rng, boards) = ctx.rng_and_boards();
        assert_eq!(boards.get(id, "k"), Some("v"));
    }
}
