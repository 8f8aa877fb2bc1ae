//! The discrete-event simulation world: nodes, event queue, and scheduler.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::board::{BoardId, BoardStore};
use crate::ids::{NodeId, TimerId};
use crate::layer::{Action, Context, Layer};
use crate::message::Message;
use crate::network::{Network, Transit};
use crate::rng::SimRng;
use crate::snapshot::WorldSnapshot;
use crate::snapshot::{Fnv, GuardedState, SnapEntry, SnapEvent, SnapNode, SnapshotError};
use crate::time::{SimDuration, SimTime};
use crate::trace::{DropReason, NetTrace, TimerTrace, TraceLog};

/// An event destined for one node's stack.
enum NodeEvent {
    /// A message arrived from the wire; enters at the bottom layer.
    Deliver(Message),
    /// A timer armed by `layer` fired.
    Timer {
        layer: usize,
        id: TimerId,
        token: u64,
    },
}

enum EventKind {
    Node {
        node: NodeId,
        ev: NodeEvent,
    },
    /// Test-orchestration callback (the scheduled steps of an experiment).
    /// `Send` so a world with pending scheduled calls can cross threads.
    Call(Box<dyn FnOnce(&mut World) + Send>),
}

struct Entry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
    // Ties break by insertion order (seq), keeping runs deterministic.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Node {
    layers: Vec<Box<dyn Layer>>,
    inbox: Vec<(SimTime, Message)>,
    crashed: bool,
    /// While `Some`, the node is suspended (the paper's `SIGTSTP` test) and
    /// incoming events are deferred here until resume.
    suspended: Option<Vec<NodeEvent>>,
}

/// Unit of intra-node work while routing layer actions.
enum Work {
    Push { layer: usize, msg: Message },
    Pop { layer: usize, msg: Message },
    Timer { layer: usize, token: u64 },
}

impl Work {
    /// The layer whose callback this item invokes.
    fn layer(&self) -> usize {
        match self {
            Work::Push { layer, .. } | Work::Pop { layer, .. } | Work::Timer { layer, .. } => {
                *layer
            }
        }
    }
}

/// Where one issued timer id stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerState {
    /// Armed; its queue entry will fire it.
    Pending,
    /// Cancelled while pending; its queue entry will be suppressed.
    Cancelled,
    /// Fired, suppressed, or never armed: nothing left to do.
    Settled,
}

/// The state of every timer id issued so far, indexed by the id itself.
///
/// Ids are sequential, so the table is a window over them: ids below
/// `base` have all settled, and `states[i]` is the state of id
/// `base + i`. The front is trimmed as timers settle, so the window spans
/// the oldest outstanding timer to the newest — a byte per id, no hashing.
#[derive(Debug, Clone)]
pub(crate) struct TimerTable {
    base: u64,
    states: VecDeque<TimerState>,
}

impl TimerTable {
    fn new() -> Self {
        // Ids start at 1 (`Context::set_timer` pre-increments).
        TimerTable {
            base: 1,
            states: VecDeque::new(),
        }
    }

    fn slot(&mut self, id: TimerId) -> Option<&mut TimerState> {
        let i = id.as_u64().checked_sub(self.base)?;
        self.states.get_mut(usize::try_from(i).ok()?)
    }

    /// Marks a freshly issued id pending. Actions are applied right after
    /// the callback that issued them, so ids arrive in order, each once.
    fn arm(&mut self, id: TimerId) {
        assert_eq!(
            id.as_u64(),
            self.base + self.states.len() as u64,
            "timer ids are armed in the order they are issued"
        );
        self.states.push_back(TimerState::Pending);
    }

    /// Records a cancel — only for a timer that is still pending, so a
    /// cancel after the timer fired leaves nothing behind.
    fn cancel(&mut self, id: TimerId) {
        if let Some(state @ TimerState::Pending) = self.slot(id) {
            *state = TimerState::Cancelled;
        }
    }

    /// Settles the timer whose queue entry just came up; `true` if it had
    /// been cancelled and must not fire.
    fn settle(&mut self, id: TimerId) -> bool {
        let Some(state) = self.slot(id) else {
            return false;
        };
        let cancelled = *state == TimerState::Cancelled;
        *state = TimerState::Settled;
        while self.states.front() == Some(&TimerState::Settled) {
            self.states.pop_front();
            self.base += 1;
        }
        cancelled
    }

    /// Ids cancelled and not yet suppressed, ascending.
    fn cancelled(&self) -> impl Iterator<Item = u64> + '_ {
        (self.base..)
            .zip(&self.states)
            .filter(|(_, state)| **state == TimerState::Cancelled)
            .map(|(id, _)| id)
    }
}

/// The simulation world.
///
/// Owns all nodes (each a stack of [`Layer`]s), the [`Network`], the event
/// queue, the virtual clock, the deterministic RNG, the [`TraceLog`], and
/// the [`BoardStore`] blackboard arena. All of that state is owned plain
/// data — no `Rc`, no interior mutability — so a fully-constructed world is
/// `Send`: a campaign master can build it and hand it to a worker thread.
/// (It is deliberately *not* `Sync`; exactly one thread drives it at a
/// time.)
///
/// # Examples
///
/// ```
/// use pfi_sim::{World, SimDuration};
///
/// let mut world = World::new(42);
/// world.schedule_in(SimDuration::from_secs(1), |w| {
///     assert_eq!(w.now().as_secs_f64(), 1.0);
/// });
/// world.run_for(SimDuration::from_secs(2));
/// ```
pub struct World {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    nodes: Vec<Node>,
    network: Network,
    rng: SimRng,
    trace: TraceLog,
    boards: BoardStore,
    timer_seq: u64,
    timers: TimerTable,
    /// Scratch for [`run_node_work`](World::run_node_work), kept between
    /// events so the steady state of [`step`](World::step) reuses its
    /// capacity instead of allocating per event and per callback.
    work: VecDeque<Work>,
    actions: Vec<Action>,
    /// Total events [`step`](World::step) has processed since creation (or
    /// since the value captured by the last restored snapshot). Campaign
    /// engines use the difference between a fork's starting count and zero
    /// to report how much replay a snapshot skipped.
    events_processed: u64,
    /// Record `NetTrace` events for every wire transmission.
    pub trace_packets: bool,
    /// Record `TimerTrace` events for every timer set/fire/cancel.
    pub trace_timers: bool,
}

impl World {
    /// Creates an empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            nodes: Vec::new(),
            network: Network::new(),
            rng: SimRng::seed_from(seed),
            trace: TraceLog::new(),
            boards: BoardStore::new(),
            timer_seq: 0,
            timers: TimerTable::new(),
            work: VecDeque::new(),
            actions: Vec::new(),
            events_processed: 0,
            trace_packets: false,
            trace_timers: false,
        }
    }

    /// Total events processed by [`step`](World::step) so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The trace log (queries).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Mutable access to the trace log (harness-level record/clear).
    pub fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.trace
    }

    /// The blackboard arena (script-visible key/value boards).
    pub fn boards(&self) -> &BoardStore {
        &self.boards
    }

    /// Mutable access to the blackboard arena.
    pub fn boards_mut(&mut self) -> &mut BoardStore {
        &mut self.boards
    }

    /// Allocates a fresh blackboard in this world's arena.
    pub fn alloc_board(&mut self) -> BoardId {
        self.boards.alloc()
    }

    /// The network model.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the network model (reconfigure links mid-run).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Adds a node with the given stack (index 0 on top) and returns its id.
    pub fn add_node(&mut self, layers: Vec<Box<dyn Layer>>) -> NodeId {
        assert!(!layers.is_empty(), "a node needs at least one layer");
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            layers,
            inbox: Vec::new(),
            crashed: false,
            suspended: None,
        });
        id
    }

    /// Ids of all nodes, in creation order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId::new).collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Drains messages that reached the top of `node`'s stack.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn drain_inbox(&mut self, node: NodeId) -> Vec<(SimTime, Message)> {
        std::mem::take(&mut self.nodes[node.index()].inbox)
    }

    /// Schedules a callback at an absolute virtual time (clamped to now).
    ///
    /// The callback must be `Send`: it is stored inside the world, and the
    /// world (pending calls included) may cross a thread boundary before
    /// the callback runs.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut World) + Send + 'static) {
        let at = at.max(self.now);
        self.push_entry(at, EventKind::Call(Box::new(f)));
    }

    /// Schedules a callback `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut World) + Send + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Synchronously invokes a control operation on one layer of a node and
    /// returns the raw boxed result.
    ///
    /// # Panics
    ///
    /// Panics if the node or layer index does not exist.
    pub fn control_raw(&mut self, node: NodeId, layer: usize, op: Box<dyn Any>) -> Box<dyn Any> {
        let mut work = std::mem::take(&mut self.work);
        let mut actions = std::mem::take(&mut self.actions);
        let result = {
            let World {
                nodes,
                rng,
                trace,
                boards,
                timer_seq,
                now,
                ..
            } = self;
            let l = &mut nodes[node.index()].layers[layer];
            let mut ctx = Context {
                now: *now,
                node,
                layer_name: l.name(),
                actions: &mut actions,
                rng,
                trace,
                boards,
                timer_seq,
            };
            l.control(op, &mut ctx)
        };
        self.apply_actions(node, layer, &mut actions, &mut work);
        self.drain_node_work(node, work, actions);
        result
    }

    /// Typed convenience wrapper over [`control_raw`](World::control_raw).
    ///
    /// # Panics
    ///
    /// Panics if the layer's response is not of type `R`.
    pub fn control<R: Any>(&mut self, node: NodeId, layer: usize, op: impl Any) -> R {
        let out = self.control_raw(node, layer, Box::new(op));
        *out.downcast::<R>().unwrap_or_else(|_| {
            panic!("control op on {node} layer {layer} returned an unexpected type")
        })
    }

    /// Marks a node as crashed: it stops processing everything, permanently.
    /// Models the paper's *process crash* failure.
    pub fn crash(&mut self, node: NodeId) {
        self.nodes[node.index()].crashed = true;
    }

    /// Whether the node has crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.index()].crashed
    }

    /// Suspends a node (the paper's `<Ctrl>-Z` test): deliveries and timer
    /// firings are deferred until [`resume`](World::resume).
    pub fn suspend(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        if n.suspended.is_none() {
            n.suspended = Some(Vec::new());
        }
    }

    /// Resumes a suspended node; all deferred events (including timers that
    /// expired during the suspension) are processed immediately, at the
    /// current virtual time. Expired timers replay *before* deferred
    /// deliveries, mirroring `SIGCONT` semantics: pending alarm signals hit
    /// the process before it drains its socket buffers.
    pub fn resume(&mut self, node: NodeId) {
        let deferred = self.nodes[node.index()].suspended.take();
        if let Some(events) = deferred {
            let (timers, deliveries): (Vec<_>, Vec<_>) = events
                .into_iter()
                .partition(|ev| matches!(ev, NodeEvent::Timer { .. }));
            for ev in timers.into_iter().chain(deliveries) {
                self.process_node_event(node, ev);
            }
        }
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "event queue went backwards");
        self.now = entry.at;
        self.events_processed += 1;
        match entry.kind {
            EventKind::Node { node, ev } => self.process_node_event(node, ev),
            EventKind::Call(f) => f(self),
        }
        true
    }

    /// Runs all events up to and including virtual time `t`, then advances
    /// the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(entry) = self.queue.peek() {
            if entry.at > t {
                break;
            }
            self.step();
        }
        self.now = self.now.max(t);
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Runs events up to virtual time `t`, but at most `max_events` of
    /// them. Returns how many events ran; a return value equal to
    /// `max_events` means the cap cut the run short (a message storm — the
    /// clock is NOT advanced to `t` in that case). The cutoff depends only
    /// on the deterministic event order, so capped runs replay exactly.
    pub fn run_until_capped(&mut self, t: SimTime, max_events: u64) -> u64 {
        let mut ran = 0;
        while ran < max_events {
            match self.queue.peek() {
                Some(entry) if entry.at <= t => {
                    self.step();
                    ran += 1;
                }
                _ => {
                    self.now = self.now.max(t);
                    return ran;
                }
            }
        }
        ran
    }

    /// [`run_until_capped`](World::run_until_capped) with a duration.
    pub fn run_for_capped(&mut self, d: SimDuration, max_events: u64) -> u64 {
        let t = self.now + d;
        self.run_until_capped(t, max_events)
    }

    /// Runs until no events remain. Beware: protocols with periodic timers
    /// never go idle; prefer [`run_until`](World::run_until) for those.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    fn push_entry(&mut self, at: SimTime, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Entry {
            at,
            seq: self.seq,
            kind,
        });
    }

    fn process_node_event(&mut self, node: NodeId, ev: NodeEvent) {
        let n = &mut self.nodes[node.index()];
        if n.crashed {
            match ev {
                NodeEvent::Deliver(m) => {
                    if self.trace_packets {
                        self.trace.record(
                            self.now,
                            node,
                            "world",
                            NetTrace::Dropped {
                                src: m.src(),
                                dst: m.dst(),
                                len: m.len(),
                                reason: DropReason::DestCrashed,
                            },
                        );
                    }
                }
                NodeEvent::Timer { id, .. } => {
                    self.timers.settle(id);
                }
            }
            return;
        }
        if let Some(deferred) = n.suspended.as_mut() {
            deferred.push(ev);
            return;
        }
        match ev {
            NodeEvent::Deliver(msg) => {
                if self.trace_packets {
                    self.trace.record(
                        self.now,
                        node,
                        "world",
                        NetTrace::Delivered {
                            src: msg.src(),
                            dst: msg.dst(),
                            len: msg.len(),
                        },
                    );
                }
                let bottom = n.layers.len() - 1;
                self.run_node_work(node, Work::Pop { layer: bottom, msg });
            }
            NodeEvent::Timer { layer, id, token } => {
                let layer_name = self
                    .trace_timers
                    .then(|| self.nodes[node.index()].layers[layer].name());
                if self.timers.settle(id) {
                    if let Some(name) = layer_name {
                        self.trace.record(
                            self.now,
                            node,
                            "world",
                            TimerTrace::Suppressed { layer: name },
                        );
                    }
                    return;
                }
                if let Some(name) = layer_name {
                    self.trace.record(
                        self.now,
                        node,
                        "world",
                        TimerTrace::Fired { layer: name, token },
                    );
                }
                self.run_node_work(node, Work::Timer { layer, token });
            }
        }
    }

    /// Routes one work item and everything it leads to within the node,
    /// breadth-first.
    fn run_node_work(&mut self, node: NodeId, first: Work) {
        let mut work = std::mem::take(&mut self.work);
        let actions = std::mem::take(&mut self.actions);
        work.push_back(first);
        self.drain_node_work(node, work, actions);
    }

    /// Runs `work` breadth-first: each item invokes a layer callback whose
    /// actions become further work, timers, or wire transmissions. Both
    /// buffers are the world's own, taken by the caller (`actions` empty);
    /// they go back empty, capacity kept.
    fn drain_node_work(
        &mut self,
        node: NodeId,
        mut work: VecDeque<Work>,
        mut actions: Vec<Action>,
    ) {
        while let Some(w) = work.pop_front() {
            let layer_idx = w.layer();
            let World {
                nodes,
                rng,
                trace,
                boards,
                timer_seq,
                now,
                ..
            } = self;
            let n = &mut nodes[node.index()];
            if n.crashed {
                work.clear();
                break;
            }
            let l = &mut n.layers[layer_idx];
            let mut ctx = Context {
                now: *now,
                node,
                layer_name: l.name(),
                actions: &mut actions,
                rng,
                trace,
                boards,
                timer_seq,
            };
            match w {
                Work::Push { msg, .. } => l.push(msg, &mut ctx),
                Work::Pop { msg, .. } => l.pop(msg, &mut ctx),
                Work::Timer { token, .. } => l.timer(token, &mut ctx),
            }
            self.apply_actions(node, layer_idx, &mut actions, &mut work);
        }
        self.work = work;
        self.actions = actions;
    }

    /// Translates a layer's collected actions, leaving `actions` empty:
    /// timers go onto the event queue, wire sends into the network, the
    /// rest onto `work`.
    fn apply_actions(
        &mut self,
        node: NodeId,
        layer_idx: usize,
        actions: &mut Vec<Action>,
        work: &mut VecDeque<Work>,
    ) {
        let n_layers = self.nodes[node.index()].layers.len();
        for action in actions.drain(..) {
            match action {
                Action::SendDown(msg) => {
                    if layer_idx + 1 < n_layers {
                        work.push_back(Work::Push {
                            layer: layer_idx + 1,
                            msg,
                        });
                    } else {
                        self.transmit(node, msg);
                    }
                }
                Action::SendUp(msg) => {
                    if layer_idx == 0 {
                        self.nodes[node.index()].inbox.push((self.now, msg));
                    } else {
                        work.push_back(Work::Pop {
                            layer: layer_idx - 1,
                            msg,
                        });
                    }
                }
                Action::SetTimer { id, at, token } => {
                    if self.trace_timers {
                        let name = self.nodes[node.index()].layers[layer_idx].name();
                        self.trace.record(
                            self.now,
                            node,
                            "world",
                            TimerTrace::Set { layer: name, token },
                        );
                    }
                    self.timers.arm(id);
                    self.push_entry(
                        at,
                        EventKind::Node {
                            node,
                            ev: NodeEvent::Timer {
                                layer: layer_idx,
                                id,
                                token,
                            },
                        },
                    );
                }
                Action::CancelTimer(id) => {
                    if self.trace_timers {
                        let name = self.nodes[node.index()].layers[layer_idx].name();
                        self.trace.record(
                            self.now,
                            node,
                            "world",
                            TimerTrace::Cancelled { layer: name },
                        );
                    }
                    self.timers.cancel(id);
                }
            }
        }
    }

    /// Hands a message leaving a node's bottom layer to the network.
    fn transmit(&mut self, src_node: NodeId, msg: Message) {
        let dst = msg.dst();
        if self.trace_packets {
            self.trace.record(
                self.now,
                src_node,
                "world",
                NetTrace::Sent {
                    src: msg.src(),
                    dst,
                    len: msg.len(),
                },
            );
        }
        if dst.index() >= self.nodes.len() {
            if self.trace_packets {
                self.trace.record(
                    self.now,
                    src_node,
                    "world",
                    NetTrace::Dropped {
                        src: msg.src(),
                        dst,
                        len: msg.len(),
                        reason: DropReason::NoSuchNode,
                    },
                );
            }
            return;
        }
        match self.network.transit(src_node, dst, &mut self.rng) {
            Transit::Deliver(delay) => {
                let at = self.now + delay;
                self.push_entry(
                    at,
                    EventKind::Node {
                        node: dst,
                        ev: NodeEvent::Deliver(msg),
                    },
                );
            }
            Transit::Drop(reason) => {
                if self.trace_packets {
                    self.trace.record(
                        self.now,
                        src_node,
                        "world",
                        NetTrace::Dropped {
                            src: msg.src(),
                            dst,
                            len: msg.len(),
                            reason,
                        },
                    );
                }
            }
        }
    }
}

impl World {
    /// Captures a deep snapshot of the world, or explains why it cannot.
    ///
    /// Fails if the queue holds a pending scheduled callback (`FnOnce`
    /// closures cannot be cloned) or if any layer's
    /// [`clone_box`](Layer::clone_box) returns `None`. Campaign-prepared
    /// worlds have neither: their scheduled calls have all run by prepare
    /// time, and their layers are script-configured.
    pub fn try_snapshot(&self) -> Result<WorldSnapshot, SnapshotError> {
        let mut entries: Vec<&Entry> = self.queue.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        let mut queue = Vec::with_capacity(entries.len());
        for e in entries {
            match &e.kind {
                EventKind::Call(_) => return Err(SnapshotError::PendingCall { at: e.at }),
                EventKind::Node { node, ev } => queue.push(SnapEntry {
                    at: e.at,
                    seq: e.seq,
                    node: *node,
                    ev: snap_event(ev),
                }),
            }
        }
        let mut layers = Vec::with_capacity(self.nodes.len());
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            let mut stack = Vec::with_capacity(n.layers.len());
            for l in &n.layers {
                match l.clone_box() {
                    Some(c) => stack.push(c),
                    None => {
                        return Err(SnapshotError::UnclonableLayer {
                            node: NodeId::new(i as u32),
                            layer: l.name(),
                        })
                    }
                }
            }
            layers.push(stack);
            nodes.push(SnapNode {
                inbox: n.inbox.clone(),
                crashed: n.crashed,
                suspended: n
                    .suspended
                    .as_ref()
                    .map(|evs| evs.iter().map(snap_event).collect()),
            });
        }
        Ok(WorldSnapshot {
            now: self.now,
            seq: self.seq,
            timer_seq: self.timer_seq,
            events_processed: self.events_processed,
            queue,
            nodes,
            network: self.network.clone(),
            rng: self.rng.clone(),
            boards: self.boards.clone(),
            timers: self.timers.clone(),
            trace_packets: self.trace_packets,
            trace_timers: self.trace_timers,
            digest: self.snapshot_digest(),
            guarded: std::sync::Mutex::new(GuardedState {
                layers,
                trace: self.trace.clone(),
            }),
        })
    }

    /// [`try_snapshot`](World::try_snapshot), panicking on refusal.
    ///
    /// # Panics
    ///
    /// Panics if the world cannot be snapshotted (see [`SnapshotError`]).
    pub fn snapshot(&self) -> WorldSnapshot {
        self.try_snapshot()
            .unwrap_or_else(|e| panic!("world is not snapshottable: {e}"))
    }

    /// Overwrites this world with the captured state, discarding everything
    /// that happened after (or instead of) the snapshot. The restored world
    /// continues byte-identically to the snapshot's source — whatever this
    /// world was before: another schedule's finished run, another target's
    /// world with other nodes and layers, a storm the event cap cut short,
    /// a drive that panicked half-way through an event.
    ///
    /// It reuses what it overwrites. The trace arena's columns, the event
    /// queue's storage, the timer table, network, boards and inboxes are
    /// copied into the capacity the previous run grew
    /// (`clone_from`), and each layer is restored in place where it can be
    /// ([`Layer::restore_from`]) and re-boxed where it cannot. A campaign
    /// worker therefore keeps the world it last ran and restores the
    /// campaign's base into it, instead of allocating a world per run and
    /// freeing one; [`WorldSnapshot::fork`] is this on an empty world.
    ///
    /// The snapshot's lock guards state that is only ever *read* under it
    /// (the captured layers and trace, cloned out), so a lock poisoned by
    /// a `clone_box` that panicked on some other thread still guards valid
    /// data and is simply recovered. It is held for those clones only.
    pub fn restore(&mut self, snap: &WorldSnapshot) {
        self.now = snap.now;
        self.seq = snap.seq;
        self.timer_seq = snap.timer_seq;
        self.events_processed = snap.events_processed;
        self.network.clone_from(&snap.network);
        self.rng = snap.rng.clone();
        self.boards.clone_from(&snap.boards);
        self.trace_packets = snap.trace_packets;
        self.trace_timers = snap.trace_timers;
        self.timers.base = snap.timers.base;
        self.timers.states.clone_from(&snap.timers.states);
        // A drive that panicked inside a callback left these taken (empty)
        // or half-drained; either way nothing of that event survives.
        self.work.clear();
        self.actions.clear();
        let mut entries = std::mem::take(&mut self.queue).into_vec();
        entries.clear();
        entries.extend(snap.queue.iter().map(|e| Entry {
            at: e.at,
            seq: e.seq,
            kind: EventKind::Node {
                node: e.node,
                ev: unsnap_event(&e.ev),
            },
        }));
        self.queue = BinaryHeap::from(entries);
        self.nodes.resize_with(snap.nodes.len(), || Node {
            layers: Vec::new(),
            inbox: Vec::new(),
            crashed: false,
            suspended: None,
        });
        for (node, n) in self.nodes.iter_mut().zip(&snap.nodes) {
            node.inbox.clone_from(&n.inbox);
            node.crashed = n.crashed;
            node.suspended = n
                .suspended
                .as_ref()
                .map(|evs| evs.iter().map(unsnap_event).collect());
        }
        let guard = snap
            .guarded
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.trace.clone_from(&guard.trace);
        for (node, stack) in self.nodes.iter_mut().zip(&guard.layers) {
            node.layers.truncate(stack.len());
            for (i, src) in stack.iter().enumerate() {
                if i < node.layers.len() && node.layers[i].restore_from(src.as_ref()) {
                    continue;
                }
                let fresh = src
                    .clone_box()
                    .expect("snapshotted layers re-clone by construction");
                match node.layers.get_mut(i) {
                    Some(layer) => *layer = fresh,
                    None => node.layers.push(fresh),
                }
            }
        }
    }

    /// A deterministic digest of the world's observable state: clock,
    /// queue, RNG, network, boards, per-node status, and trace. Layer
    /// *internals* are not digestable (trait objects); equality of digests
    /// therefore certifies everything the simulator itself owns, while
    /// layer-state equivalence is established end-to-end by the campaign
    /// differential tests (same digest + same continuation ⇒ same run).
    pub fn snapshot_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.now.as_micros());
        h.write_u64(self.seq);
        h.write_u64(self.timer_seq);
        h.write_u64(self.events_processed);
        h.write(&[u8::from(self.trace_packets), u8::from(self.trace_timers)]);
        let mut entries: Vec<&Entry> = self.queue.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        h.write_usize(entries.len());
        for e in entries {
            h.write_u64(e.at.as_micros());
            h.write_u64(e.seq);
            match &e.kind {
                EventKind::Call(_) => h.write_str("call"),
                EventKind::Node { node, ev } => {
                    h.write_u64(u64::from(node.as_u32()));
                    digest_event(&mut h, ev);
                }
            }
        }
        h.write_usize(self.nodes.len());
        for n in &self.nodes {
            h.write_usize(n.layers.len());
            for l in &n.layers {
                h.write_str(l.name());
            }
            h.write_usize(n.inbox.len());
            for (t, m) in &n.inbox {
                h.write_u64(t.as_micros());
                digest_message(&mut h, m);
            }
            h.write(&[u8::from(n.crashed)]);
            match &n.suspended {
                None => h.write_str("running"),
                Some(evs) => {
                    h.write_str("suspended");
                    h.write_usize(evs.len());
                    for ev in evs {
                        digest_event(&mut h, ev);
                    }
                }
            }
        }
        self.network.digest_into(&mut h);
        for w in self.rng.state_words() {
            h.write_u64(w);
        }
        h.write_usize(self.boards.board_count());
        for i in 0..self.boards.board_count() {
            let entries = self.boards.entries(BoardId(i as u32));
            h.write_usize(entries.len());
            for (k, v) in entries {
                h.write_str(&k);
                h.write_str(&v);
            }
        }
        h.write_usize(self.timers.cancelled().count());
        for id in self.timers.cancelled() {
            h.write_u64(id);
        }
        let lines = self.trace.render();
        h.write_usize(lines.len());
        for line in lines {
            h.write_str(&line);
        }
        h.finish()
    }
}

impl WorldSnapshot {
    /// Builds a fresh world that continues byte-identically from the
    /// captured instant. Many forks of one snapshot may proceed on
    /// different threads concurrently.
    pub fn fork(&self) -> World {
        let mut w = World::new(0);
        w.restore(self);
        w
    }
}

fn snap_event(ev: &NodeEvent) -> SnapEvent {
    match ev {
        NodeEvent::Deliver(m) => SnapEvent::Deliver(m.clone()),
        NodeEvent::Timer { layer, id, token } => SnapEvent::Timer {
            layer: *layer,
            id: *id,
            token: *token,
        },
    }
}

fn unsnap_event(ev: &SnapEvent) -> NodeEvent {
    match ev {
        SnapEvent::Deliver(m) => NodeEvent::Deliver(m.clone()),
        SnapEvent::Timer { layer, id, token } => NodeEvent::Timer {
            layer: *layer,
            id: *id,
            token: *token,
        },
    }
}

fn digest_event(h: &mut Fnv, ev: &NodeEvent) {
    match ev {
        NodeEvent::Deliver(m) => {
            h.write_str("deliver");
            digest_message(h, m);
        }
        NodeEvent::Timer { layer, id, token } => {
            h.write_str("timer");
            h.write_usize(*layer);
            h.write_u64(id.as_u64());
            h.write_u64(*token);
        }
    }
}

fn digest_message(h: &mut Fnv, m: &Message) {
    h.write_u64(u64::from(m.src().as_u32()));
    h.write_u64(u64::from(m.dst().as_u32()));
    h.write_usize(m.len());
    h.write(m.bytes());
}

/// Compile-time proof of the tentpole invariant: a fully-constructed world
/// — layers, pending scheduled calls, trace log, blackboards and all — may
/// be moved across threads. If any field regresses to `!Send` (an `Rc`
/// handle, an unbounded trait object), this stops compiling.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<World>();
};

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    /// Echoes every received message straight back to its source.
    #[derive(Clone)]
    struct Echo;
    impl Layer for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, mut msg: Message, ctx: &mut Context<'_>) {
            ctx.emit(format!("echoing {} bytes", msg.len()));
            let src = msg.src();
            msg.set_src(msg.dst());
            msg.set_dst(src);
            ctx.send_down(msg);
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Delivers everything upward into the inbox.
    #[derive(Clone)]
    struct Sink;
    impl Layer for Sink {
        fn name(&self) -> &'static str {
            "sink"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_up(msg);
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Control op for `Pinger`: send a payload to a destination.
    struct SendTo(NodeId, Vec<u8>);

    #[derive(Clone)]
    struct Pinger;
    impl Layer for Pinger {
        fn name(&self) -> &'static str {
            "pinger"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_up(msg);
        }
        fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
            let SendTo(dst, payload) = *op.downcast::<SendTo>().expect("bad op");
            ctx.send_down(Message::new(ctx.node(), dst, &payload));
            Box::new(())
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn message_round_trip_through_network() {
        let mut w = World::new(1);
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        w.run_for(SimDuration::from_millis(10));
        let inbox = w.drain_inbox(a);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.bytes(), b"ping");
        // One hop each way at 1 ms.
        assert_eq!(inbox[0].0, SimTime::from_micros(2_000));
    }

    #[test]
    fn crashed_node_stays_silent() {
        let mut w = World::new(1);
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.crash(b);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        w.run_for(SimDuration::from_millis(10));
        assert!(w.drain_inbox(a).is_empty());
        assert!(w.is_crashed(b));
    }

    #[test]
    fn suspend_defers_and_resume_replays() {
        let mut w = World::new(1);
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.suspend(b);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        w.run_for(SimDuration::from_secs(5));
        assert!(
            w.drain_inbox(a).is_empty(),
            "suspended node must not respond"
        );
        w.resume(b);
        w.run_for(SimDuration::from_millis(10));
        let inbox = w.drain_inbox(a);
        assert_eq!(inbox.len(), 1);
        // The echo happened only after resume at t = 5 s.
        assert!(inbox[0].0 >= SimTime::from_micros(5_000_000));
    }

    #[test]
    fn scheduled_calls_run_in_time_order() {
        let mut w = World::new(1);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for (i, secs) in [(1, 3u64), (2, 1), (3, 2)] {
            let log = log.clone();
            w.schedule_in(SimDuration::from_secs(secs), move |_| {
                log.lock().unwrap().push(i)
            });
        }
        w.run_for(SimDuration::from_secs(10));
        assert_eq!(*log.lock().unwrap(), vec![2, 3, 1]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut w = World::new(1);
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            w.schedule_in(SimDuration::from_secs(1), move |_| {
                log.lock().unwrap().push(i)
            });
        }
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn world_crosses_threads_mid_run() {
        // Build on one thread, advance on another, harvest back on the
        // first — the exact prepare/run split the fleet uses.
        let mut w = World::new(1);
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        let mut w = std::thread::spawn(move || {
            w.run_for(SimDuration::from_millis(10));
            w
        })
        .join()
        .unwrap();
        let inbox = w.drain_inbox(a);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.bytes(), b"ping");
    }

    #[test]
    fn packet_tracing_records_wire_events() {
        let mut w = World::new(1);
        w.trace_packets = true;
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        w.run_for(SimDuration::from_millis(10));
        let events = w.trace().events_of::<NetTrace>(None);
        // a->b sent, delivered; b->a sent, delivered.
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn timer_tracing_records_lifecycle() {
        use crate::trace::TimerTrace;

        /// Arms two timers on control; cancels the second when the first
        /// fires.
        struct TwoTimers {
            second: Option<crate::ids::TimerId>,
        }
        impl Layer for TwoTimers {
            fn name(&self) -> &'static str {
                "two-timers"
            }
            fn push(&mut self, _m: Message, _c: &mut Context<'_>) {}
            fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
            fn timer(&mut self, token: u64, ctx: &mut Context<'_>) {
                if token == 1 {
                    if let Some(id) = self.second.take() {
                        ctx.cancel_timer(id);
                    }
                }
            }
            fn control(&mut self, _op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                self.second = Some(ctx.set_timer(SimDuration::from_millis(20), 2));
                Box::new(())
            }
        }

        let mut w = World::new(1);
        w.trace_timers = true;
        let n = w.add_node(vec![Box::new(TwoTimers { second: None })]);
        w.control::<()>(n, 0, ());
        w.run_for(SimDuration::from_millis(50));
        let evs: Vec<TimerTrace> = w
            .trace()
            .events_of::<TimerTrace>(Some(n))
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(
            evs,
            vec![
                TimerTrace::Set {
                    layer: "two-timers",
                    token: 1
                },
                TimerTrace::Set {
                    layer: "two-timers",
                    token: 2
                },
                TimerTrace::Fired {
                    layer: "two-timers",
                    token: 1
                },
                TimerTrace::Cancelled {
                    layer: "two-timers"
                },
                TimerTrace::Suppressed {
                    layer: "two-timers"
                },
            ]
        );
    }

    /// Arms one timer per `Arm`, cancels the last armed one on `Cancel`,
    /// reports how many fired on `Fired`.
    #[derive(Clone, Default)]
    struct OneTimer {
        last: Option<TimerId>,
        fired: u32,
    }
    enum TimerOp {
        Arm(SimDuration),
        Cancel,
        Fired,
    }
    impl Layer for OneTimer {
        fn name(&self) -> &'static str {
            "one-timer"
        }
        fn push(&mut self, _m: Message, _c: &mut Context<'_>) {}
        fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
        fn timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
            self.fired += 1;
        }
        fn control(&mut self, op: Box<dyn Any>, ctx: &mut Context<'_>) -> Box<dyn Any> {
            match *op.downcast::<TimerOp>().expect("bad op") {
                TimerOp::Arm(delay) => self.last = Some(ctx.set_timer(delay, 0)),
                TimerOp::Cancel => ctx.cancel_timer(self.last.expect("armed first")),
                TimerOp::Fired => return Box::new(self.fired),
            }
            Box::new(())
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn cancel_after_fire_leaves_no_residue() {
        fn world(cancel_after_fire: bool) -> (World, NodeId) {
            let mut w = World::new(1);
            let n = w.add_node(vec![Box::new(OneTimer::default())]);
            w.control::<()>(n, 0, TimerOp::Arm(SimDuration::from_millis(10)));
            w.run_for(SimDuration::from_millis(50));
            assert_eq!(w.control::<u32>(n, 0, TimerOp::Fired), 1);
            if cancel_after_fire {
                w.control::<()>(n, 0, TimerOp::Cancel);
            }
            (w, n)
        }
        let (plain, _) = world(false);
        let (cancelled, n) = world(true);
        assert_eq!(cancelled.snapshot_digest(), plain.snapshot_digest());
        let mut fork = cancelled.snapshot().fork();
        assert_eq!(fork.snapshot_digest(), plain.snapshot_digest());
        // The late cancel suppresses nothing that is armed afterwards.
        fork.control::<()>(n, 0, TimerOp::Arm(SimDuration::from_millis(10)));
        fork.run_for(SimDuration::from_millis(50));
        assert_eq!(fork.control::<u32>(n, 0, TimerOp::Fired), 2);
    }

    #[test]
    fn cancel_then_fire_is_suppressed_once() {
        let mut w = World::new(1);
        w.trace_timers = true;
        let n = w.add_node(vec![Box::new(OneTimer::default())]);
        w.control::<()>(n, 0, TimerOp::Arm(SimDuration::from_millis(10)));
        w.control::<()>(n, 0, TimerOp::Cancel);
        // A second cancel of the same pending timer changes nothing.
        w.control::<()>(n, 0, TimerOp::Cancel);
        let snap = w.snapshot();
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(w.control::<u32>(n, 0, TimerOp::Fired), 0);
        let suppressed = |w: &World| {
            w.trace()
                .iter_of::<TimerTrace>()
                .filter(|(_, _, e)| matches!(e, TimerTrace::Suppressed { .. }))
                .count()
        };
        assert_eq!(suppressed(&w), 1);
        // The suppression consumed the cancel: the next timer fires.
        w.control::<()>(n, 0, TimerOp::Arm(SimDuration::from_millis(10)));
        w.run_for(SimDuration::from_millis(50));
        assert_eq!(w.control::<u32>(n, 0, TimerOp::Fired), 1);
        assert_eq!(suppressed(&w), 1);
        // A pending cancel survives snapshot and fork.
        let mut fork = snap.fork();
        fork.run_for(SimDuration::from_millis(50));
        assert_eq!(fork.control::<u32>(n, 0, TimerOp::Fired), 0);
        assert_eq!(suppressed(&fork), 1);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut w = World::new(1);
        w.run_until(SimTime::from_micros(123));
        assert_eq!(w.now(), SimTime::from_micros(123));
    }

    #[test]
    fn same_seed_same_trace() {
        fn run() -> Vec<String> {
            let mut w = World::new(99);
            w.trace_packets = true;
            w.network_mut().default_link_mut().loss = 0.3;
            w.network_mut().default_link_mut().jitter = SimDuration::from_millis(4);
            let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
            let b = w.add_node(vec![Box::new(Echo)]);
            for i in 0..50u64 {
                let payload = vec![i as u8; 8];
                w.schedule_in(SimDuration::from_millis(i * 3), move |w| {
                    w.control::<()>(a, 0, SendTo(b, payload));
                });
            }
            w.run_for(SimDuration::from_secs(2));
            w.trace().render()
        }
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_stack_rejected() {
        let mut w = World::new(1);
        let _ = w.add_node(vec![]);
    }

    /// A lossy/jittery ping world mid-conversation: every snapshottable
    /// corner (queue in flight, RNG advanced, trace populated, boards set).
    fn busy_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(99);
        w.trace_packets = true;
        w.network_mut().default_link_mut().loss = 0.2;
        w.network_mut().default_link_mut().jitter = SimDuration::from_millis(4);
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        let board = w.alloc_board();
        w.boards_mut().set(board, "phase", "warm");
        // All scheduled calls land inside the warm-up window: snapshots
        // refuse pending calls, and the campaign engine snapshots only
        // after its build phase has fully run.
        for i in 0..20u64 {
            let payload = vec![i as u8; 8];
            w.schedule_in(SimDuration::from_millis(i * 2), move |w| {
                w.control::<()>(a, 0, SendTo(b, payload));
            });
        }
        w.run_for(SimDuration::from_millis(40));
        (w, a, b)
    }

    #[test]
    fn snapshot_digest_matches_world_and_restore() {
        let (w, _, _) = busy_world();
        let snap = w.try_snapshot().expect("busy world is snapshottable");
        assert_eq!(snap.digest(), w.snapshot_digest());
        assert!(snap.pending_events() > 0, "conversation still in flight");
        let mut other = World::new(12345);
        other.restore(&snap);
        assert_eq!(other.snapshot_digest(), snap.digest());
        assert_eq!(other.events_processed(), w.events_processed());
    }

    #[test]
    fn fork_continues_byte_identically() {
        let (mut w, a, _) = busy_world();
        let snap = w.snapshot();
        let mut fork = snap.fork();
        w.run_for(SimDuration::from_secs(2));
        fork.run_for(SimDuration::from_secs(2));
        assert_eq!(fork.trace().render(), w.trace().render());
        assert_eq!(fork.snapshot_digest(), w.snapshot_digest());
        assert_eq!(fork.drain_inbox(a), w.drain_inbox(a));
    }

    #[test]
    fn concurrent_forks_of_one_shared_snapshot_agree() {
        let (w, _, _) = busy_world();
        let snap = std::sync::Arc::new(w.snapshot());
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let snap = std::sync::Arc::clone(&snap);
                std::thread::spawn(move || {
                    let mut fork = snap.fork();
                    fork.run_for(SimDuration::from_secs(2));
                    fork.trace().render()
                })
            })
            .collect();
        let mut renders: Vec<Vec<String>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let first = renders.pop().unwrap();
        assert!(renders.iter().all(|r| *r == first));
    }

    #[test]
    fn restore_discards_post_snapshot_state() {
        let (mut w, _, _) = busy_world();
        let snap = w.snapshot();
        // Diverge hard: more traffic, crashes, board writes.
        w.run_for(SimDuration::from_millis(500));
        w.crash(NodeId::new(1));
        let board = w.alloc_board();
        w.boards_mut().set(board, "phase", "diverged");
        w.run_for(SimDuration::from_secs(1));
        assert_ne!(w.snapshot_digest(), snap.digest());
        w.restore(&snap);
        assert_eq!(w.snapshot_digest(), snap.digest());
        assert!(!w.is_crashed(NodeId::new(1)));
    }

    /// Panics when a message reaches it — a drive dying half-way through
    /// an event, with the world's scratch buffers taken.
    #[derive(Clone)]
    struct Bomb;
    impl Layer for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn push(&mut self, msg: Message, ctx: &mut Context<'_>) {
            ctx.send_down(msg);
        }
        fn pop(&mut self, _msg: Message, _ctx: &mut Context<'_>) {
            panic!("bomb layer went off");
        }
        fn clone_box(&self) -> Option<Box<dyn Layer>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Worlds a campaign worker might have just finished with, none of
    /// them the snapshot's own continuation.
    fn retired_worlds() -> Vec<(&'static str, World)> {
        let mut retired = Vec::new();

        // The same stacks after a different run: more traffic, a crash, a
        // suspension with deferred events, boards written.
        let (mut w, _, b) = busy_world();
        w.run_for(SimDuration::from_millis(300));
        w.suspend(b);
        w.run_for(SimDuration::from_millis(300));
        w.crash(NodeId::new(0));
        let board = w.alloc_board();
        w.boards_mut().set(board, "phase", "diverged");
        retired.push(("another run of the same stacks", w));

        // Another target altogether: one node, other layers, timers traced
        // (a trace column the snapshot never had), a cancel outstanding.
        let mut w = World::new(5);
        w.trace_timers = true;
        let n = w.add_node(vec![Box::new(OneTimer::default())]);
        w.control::<()>(n, 0, TimerOp::Arm(SimDuration::from_millis(10)));
        w.control::<()>(n, 0, TimerOp::Cancel);
        w.control::<()>(n, 0, TimerOp::Arm(SimDuration::from_secs(10)));
        w.run_for(SimDuration::from_millis(50));
        retired.push(("another target, fewer nodes", w));

        // More nodes than the snapshot, deeper stacks.
        let mut w = World::new(6);
        for _ in 0..4 {
            w.add_node(vec![Box::new(Pinger), Box::new(Sink), Box::new(Sink)]);
        }
        w.control::<()>(NodeId::new(3), 0, SendTo(NodeId::new(2), b"x".to_vec()));
        w.run_for(SimDuration::from_millis(5));
        retired.push(("another target, more nodes", w));

        // A storm the event cap cut short: two echoes bouncing one message
        // for ever, stopped with the queue and the clock mid-flight.
        let mut w = World::new(7);
        w.trace_packets = true;
        let a = w.add_node(vec![Box::new(Echo)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.transmit(a, Message::new(a, b, b"storm"));
        assert_eq!(w.run_for_capped(SimDuration::from_secs(3600), 500), 500);
        retired.push(("a capped storm", w));

        // A drive that panicked inside a layer callback, contained the way
        // the campaign runner contains it.
        let mut w = World::new(8);
        w.trace_packets = true;
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Bomb)]);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run_for(SimDuration::from_millis(10));
        }));
        assert!(died.is_err(), "the bomb layer must go off mid-drive");
        retired.push(("a drive that panicked", w));

        retired
    }

    #[test]
    fn a_world_restored_after_any_other_run_equals_a_fresh_fork() {
        let (source, a, _) = busy_world();
        let snap = source.snapshot();
        let mut fresh = snap.fork();
        fresh.run_for(SimDuration::from_secs(2));
        let want_trace = fresh.trace().render();
        let want_digest = fresh.snapshot_digest();
        let want_inbox = fresh.drain_inbox(a);

        for (what, mut world) in retired_worlds() {
            // Twice: the second restore is into the first one's own run.
            for round in 0..2 {
                world.restore(&snap);
                assert_eq!(
                    world.snapshot_digest(),
                    snap.digest(),
                    "{what}, round {round}"
                );
                world.run_for(SimDuration::from_secs(2));
                assert_eq!(world.trace().render(), want_trace, "{what}, round {round}");
                assert_eq!(
                    world.snapshot_digest(),
                    want_digest,
                    "{what}, round {round}"
                );
                assert_eq!(world.drain_inbox(a), want_inbox, "{what}, round {round}");
            }
        }
    }

    /// One `clone_box` that panics must cost one restore, not the
    /// snapshot: the guarded state is only read under its lock, so every
    /// later restore recovers the poisoned lock and carries on.
    #[test]
    fn a_clone_that_panics_under_the_lock_does_not_poison_later_restores() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        /// Panics on its `fuse`-th clone, counted across all copies.
        struct Fused {
            clones: Arc<AtomicUsize>,
            fuse: usize,
        }
        impl Layer for Fused {
            fn name(&self) -> &'static str {
                "fused"
            }
            fn push(&mut self, _m: Message, _c: &mut Context<'_>) {}
            fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
            fn clone_box(&self) -> Option<Box<dyn Layer>> {
                if self.clones.fetch_add(1, Ordering::SeqCst) + 1 == self.fuse {
                    panic!("fused layer refuses this one clone");
                }
                Some(Box::new(Fused {
                    clones: Arc::clone(&self.clones),
                    fuse: self.fuse,
                }))
            }
        }

        let clones = Arc::new(AtomicUsize::new(0));
        let mut w = World::new(1);
        w.add_node(vec![Box::new(Fused {
            clones: Arc::clone(&clones),
            // Clone 1 is the capture, clone 2 the first fork.
            fuse: 3,
        })]);
        let snap = std::sync::Arc::new(w.snapshot());
        assert_eq!(snap.fork().snapshot_digest(), snap.digest());
        let on_another_thread = {
            let snap = std::sync::Arc::clone(&snap);
            std::thread::spawn(move || snap.fork()).join()
        };
        assert!(on_another_thread.is_err(), "the third clone panics");
        // Poisoned by that thread, and fine.
        assert!(snap.guarded.is_poisoned());
        let mut retired = World::new(9);
        retired.restore(&snap);
        assert_eq!(retired.snapshot_digest(), snap.digest());
        assert_eq!(snap.fork().snapshot_digest(), snap.digest());
    }

    #[test]
    fn pending_scheduled_call_refuses_snapshot() {
        let mut w = World::new(1);
        w.schedule_in(SimDuration::from_secs(1), |_| {});
        match w.try_snapshot() {
            Err(SnapshotError::PendingCall { at }) => {
                assert_eq!(at, SimTime::from_micros(1_000_000));
            }
            other => panic!("expected PendingCall, got {other:?}"),
        }
    }

    #[test]
    fn unclonable_layer_refuses_snapshot() {
        /// Keeps the default `clone_box` (None).
        struct Opaque;
        impl Layer for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn push(&mut self, _m: Message, _c: &mut Context<'_>) {}
            fn pop(&mut self, _m: Message, _c: &mut Context<'_>) {}
        }
        let mut w = World::new(1);
        let n = w.add_node(vec![Box::new(Opaque)]);
        match w.try_snapshot() {
            Err(SnapshotError::UnclonableLayer { node, layer }) => {
                assert_eq!(node, n);
                assert_eq!(layer, "opaque");
            }
            other => panic!("expected UnclonableLayer, got {other:?}"),
        }
    }

    #[test]
    fn suspended_node_state_survives_snapshot() {
        let mut w = World::new(1);
        let a = w.add_node(vec![Box::new(Pinger), Box::new(Sink)]);
        let b = w.add_node(vec![Box::new(Echo)]);
        w.suspend(b);
        w.control::<()>(a, 0, SendTo(b, b"ping".to_vec()));
        w.run_for(SimDuration::from_secs(1));
        let snap = w.snapshot();
        let mut fork = snap.fork();
        fork.resume(b);
        fork.run_for(SimDuration::from_millis(10));
        let inbox = fork.drain_inbox(a);
        assert_eq!(inbox.len(), 1, "deferred delivery replayed in the fork");
        assert_eq!(inbox[0].1.bytes(), b"ping");
    }
}
