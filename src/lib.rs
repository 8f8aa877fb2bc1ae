//! # pfi — script-driven probing and fault injection of protocol implementations
//!
//! A comprehensive reproduction of **Dawson & Jahanian, "Probing and Fault
//! Injection of Protocol Implementations", ICDCS 1995**, built from scratch
//! in Rust: the PFI interposition layer and its Tcl scripting language, a
//! deterministic discrete-event simulator with x-Kernel-style protocol
//! stacks, a simplified TCP with four vendor personalities, a reliable
//! datagram layer, the strong group membership protocol with the paper's
//! three injectable bugs, and a harness regenerating every table and figure
//! of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`sim`] — simulator, layers, messages, network, traces.
//! * [`script`] — the Tcl-subset interpreter.
//! * [`core`] — the PFI layer, filters, fault models, packet stubs.
//! * [`tcp`] — TCP substrate and vendor profiles.
//! * [`rudp`] — reliable datagram layer.
//! * [`gmp`] — group membership protocol.
//! * [`lint`] — static analysis of filter scripts and fault schedules.
//! * [`tpc`] — two-phase commit, a second application-level study target
//!   (the paper's future work (iii)).
//! * [`experiments`] — the paper's evaluation experiments.
//! * [`testgen`] — automatic test-script generation from protocol
//!   specifications (the paper's future work (ii)).
//! * [`fleet`] — deterministic multi-worker campaign execution (epoch
//!   scheduling, worker statistics); campaign outcomes are byte-identical
//!   for any worker count.
//!
//! # Quick start
//!
//! Interpose a PFI layer that drops every data segment, in the style of the
//! paper's §3 example script:
//!
//! ```
//! use pfi::core::{Filter, PfiLayer};
//! use pfi::sim::{SimDuration, World};
//! use pfi::tcp::{TcpControl, TcpLayer, TcpProfile, TcpReply, TcpStub};
//!
//! let mut world = World::new(42);
//! let client = world.add_node(vec![Box::new(TcpLayer::new(TcpProfile::sunos_4_1_3()))]);
//!
//! // The server's PFI layer drops incoming DATA segments with a script.
//! let pfi = PfiLayer::new(Box::new(TcpStub)).with_recv_filter(Filter::script(r#"
//!     if {[msg_type] == "DATA"} { xDrop cur_msg }
//! "#).unwrap());
//! let server = world.add_node(vec![
//!     Box::new(TcpLayer::new(TcpProfile::rfc_reference())),
//!     Box::new(pfi),
//! ]);
//!
//! world.control::<TcpReply>(server, 0, TcpControl::Listen { port: 80 });
//! let conn = world
//!     .control::<TcpReply>(client, 0, TcpControl::Open {
//!         local_port: 0, remote: server, remote_port: 80,
//!     })
//!     .expect_conn();
//! world.run_for(SimDuration::from_millis(100));
//! world.control::<TcpReply>(client, 0, TcpControl::Send { conn, data: b"probe".to_vec() });
//! world.run_for(SimDuration::from_secs(10));
//!
//! // The data never arrives; the client is busy retransmitting.
//! let stats = world
//!     .control::<TcpReply>(client, 0, TcpControl::Stats { conn })
//!     .expect_stats();
//! assert!(stats.retransmissions > 0);
//! ```

pub use pfi_core as core;
pub use pfi_experiments as experiments;
pub use pfi_fleet as fleet;
pub use pfi_gmp as gmp;
pub use pfi_lint as lint;
pub use pfi_rudp as rudp;
pub use pfi_script as script;
pub use pfi_serve as serve;
pub use pfi_sim as sim;
pub use pfi_tcp as tcp;
pub use pfi_testgen as testgen;
pub use pfi_tpc as tpc;
