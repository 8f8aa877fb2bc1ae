//! # pfi-tcp — a simplified TCP with vendor personalities
//!
//! The transport-protocol substrate of the PFI reproduction: a from-scratch
//! TCP implementing everything the paper's experiments exercise —
//! handshake, sliding-window transfer, Jacobson/Karn retransmission with
//! exponential backoff, keep-alive probing, zero-window (persist) probing,
//! out-of-order reassembly, and resets — plus [`TcpProfile`]s encoding the
//! externally observable quirks of the four 1995 vendor stacks the paper
//! probed (SunOS 4.1.3, AIX 3.2.3, NeXT Mach, Solaris 2.3).
//!
//! Simplifications relative to a full RFC-793/1122 stack (documented for
//! honesty, none observable by the paper's experiments): no congestion
//! control or fast retransmit, no delayed ACKs, no urgent data, no options.
//!
//! # Examples
//!
//! ```
//! use pfi_sim::{SimDuration, World};
//! use pfi_tcp::{ConnId, TcpControl, TcpLayer, TcpProfile, TcpReply};
//!
//! let mut world = World::new(1);
//! let client = world.add_node(vec![Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3()))]);
//! let server = world.add_node(vec![Box::new(TcpLayer::new(TcpProfile::rfc_reference()))]);
//!
//! world.control::<TcpReply>(server, 0, TcpControl::Listen { port: 80 });
//! let conn = world
//!     .control::<TcpReply>(client, 0, TcpControl::Open {
//!         local_port: 0,
//!         remote: server,
//!         remote_port: 80,
//!     })
//!     .expect_conn();
//! world.control::<TcpReply>(client, 0, TcpControl::Send { conn, data: b"hi".to_vec() });
//! world.run_for(SimDuration::from_secs(1));
//!
//! let sconn = match world.control::<TcpReply>(server, 0, TcpControl::AcceptedOn { port: 80 }) {
//!     TcpReply::MaybeConn(Some(c)) => c,
//!     other => panic!("no accepted connection: {other:?}"),
//! };
//! let data = world.control::<TcpReply>(server, 0, TcpControl::RecvTake { conn: sconn });
//! assert_eq!(data.expect_data(), b"hi");
//! ```

#![warn(missing_docs)]

mod conn;
mod events;
mod layer;
mod profile;
mod rtt;
mod segment;

pub use conn::{TcpState, TcpStats};
pub use events::{CloseReason, TcpEvent};
pub use layer::{ConnId, TcpControl, TcpLayer, TcpReply};
pub use profile::{KeepaliveStyle, TcpProfile};
pub use rtt::RttEstimator;
pub use segment::{flags, DecodeError, Segment, TcpStub, HEADER_LEN};
