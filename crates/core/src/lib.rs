//! # pfi-core — the script-driven probe/fault-injection layer
//!
//! The primary contribution of Dawson & Jahanian's ICDCS '95 paper: a
//! [`PfiLayer`] inserted between two layers of a protocol stack that runs a
//! Tcl *send filter* on every message pushed down and a *receive filter* on
//! every message popped up. Filters can
//!
//! * **filter** — inspect type/fields via a protocol's [`PacketStub`],
//! * **manipulate** — drop, delay, hold/release (deterministic reorder),
//!   duplicate, and corrupt messages,
//! * **inject** — forge new messages through the generation stub to probe
//!   participants,
//!
//! all without touching or recompiling the target protocol. Canned filters
//! for the classic failure models live in [`faults`].
//!
//! # Script cookbook
//!
//! Filters are ordinary Tcl; each runs once per message with persistent
//! interpreter state. Recipes:
//!
//! ```tcl
//! # Log everything, let thirty through, then black-hole (TCP exp 1):
//! msg_log cur_msg
//! incr count
//! if {$count > 30} { xDrop cur_msg }
//!
//! # Delay all ACKs by 3 s; after 30 of them, tell the receive filter
//! # (the other interpreter) to start dropping (TCP exp 2):
//! if {[msg_type] == "ACK"} {
//!     incr acks
//!     if {$acks <= 30} { xDelay 3000 }
//!     if {$acks == 30} { peer_set dropping 1 }
//! }
//!
//! # Per-type counters with Tcl arrays:
//! set t [msg_type]
//! if {![info exists seen($t)]} { set seen($t) 0 }
//! incr seen($t)
//!
//! # Probabilistic timing faults from the distribution library:
//! if {[coin 0.2]} { xDelay [expr {int([dst_normal 80 40])}] }
//!
//! # A time-based phase change armed once, no traffic required:
//! if {![info exists armed]} { set armed 1; xAfter 5000 { set dropping 1 } }
//! if {[info exists dropping]} { xDrop }
//!
//! # Deterministic reordering: hold two messages, release after the third:
//! incr n
//! if {$n <= 2} { xHold } elseif {$n == 3} { xRelease }
//!
//! # Probe a participant with a forged packet (via the generation stub):
//! xInject down ACK 0 5555 80 1000 2000 512
//! ```
//!
//! # Examples
//!
//! ```
//! use pfi_core::{Filter, PfiLayer, RawStub};
//! use pfi_sim::{SimDuration, World};
//!
//! // A PFI layer that drops every other message, as a Tcl script:
//! let pfi = PfiLayer::new(Box::new(RawStub)).with_send_filter(Filter::script(r#"
//!     incr n
//!     if {$n % 2 == 0} { xDrop cur_msg }
//! "#).unwrap());
//!
//! let mut world = World::new(1);
//! let _node = world.add_node(vec![Box::new(pfi)]);
//! world.run_for(SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]

mod bindings;
mod commands;
mod control;
pub mod faults;
mod filter;
mod globals;
mod layer;
mod log;
pub mod lower;
mod stub;

pub use commands::{CommandInfo, CommandTable};
pub use control::{PfiControl, PfiReply, RecordedMsg};
pub use filter::{Direction, Filter, FilterCtx, Injection, Verdict};
pub use globals::GlobalBoard;
pub use layer::PfiLayer;
pub use log::{LogEntry, PfiEvent};
pub use stub::{PacketStub, RawStub};
