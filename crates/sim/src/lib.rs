//! # pfi-sim — deterministic protocol-stack simulator
//!
//! The substrate underneath the PFI reproduction: a deterministic
//! discrete-event simulator hosting x-Kernel-style layered protocol
//! stacks, standing in for the Mach/SunOS x-Kernel machines of Dawson &
//! Jahanian's ICDCS '95 paper.
//!
//! Each [`World`] is driven by exactly one thread at a time, but owns all
//! of its state as arenas of plain data — so a fully-constructed world is
//! `Send`, and a campaign master can build worlds and hand them to worker
//! threads (the substrate under pfi-fleet's multi-core scaling).
//!
//! * [`World`] — event queue, virtual clock, nodes, scheduler.
//! * [`Layer`] — the protocol-layer trait (`push` down, `pop` up, timers,
//!   `control` ops); [`Context`] collects a layer's outputs.
//! * [`Message`] — header-stacking byte buffer with simulator addressing.
//! * [`Network`] — per-link latency/jitter/loss, partitions, link up/down.
//! * [`TraceLog`] — typed packet/event log every experiment analyses.
//! * [`BoardStore`] — arena of script-visible key/value blackboards,
//!   addressed by plain [`BoardId`] indices.
//! * [`fnv`] — the FNV-1a hash behind every digest in the workspace.
//!
//! # Examples
//!
//! ```
//! use pfi_sim::{Context, Layer, Message, SimDuration, World};
//!
//! /// A layer that counts messages passing up through it.
//! struct Counter(u32);
//! impl Layer for Counter {
//!     fn name(&self) -> &'static str { "counter" }
//!     fn push(&mut self, msg: Message, ctx: &mut Context<'_>) { ctx.send_down(msg); }
//!     fn pop(&mut self, msg: Message, ctx: &mut Context<'_>) {
//!         self.0 += 1;
//!         ctx.send_up(msg);
//!     }
//! }
//!
//! let mut world = World::new(7);
//! let _node = world.add_node(vec![Box::new(Counter(0))]);
//! world.run_for(SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod board;
mod ids;
mod layer;
mod message;
mod network;
mod rng;
mod snapshot;
mod time;
mod trace;
mod world;

pub use board::{BoardId, BoardStore};
pub use ids::{NodeId, TimerId};
pub use layer::{Context, Layer};
pub use message::Message;
pub use network::{LinkConfig, Network, Transit};
pub use rng::SimRng;
pub use snapshot::{SnapshotError, WorldSnapshot};
pub use time::{SimDuration, SimTime};
pub use trace::{DropReason, NetTrace, TimerTrace, TraceEvent, TraceLog, TraceRecord};
pub use world::World;

/// 64-bit FNV-1a: the incremental [`Fnv`](fnv::Fnv) hasher and the
/// one-shot [`fnv64`](fnv::fnv64). Every digest in the workspace uses it.
pub mod fnv {
    pub use crate::snapshot::{fnv64, Fnv};
}
