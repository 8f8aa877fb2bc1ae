//! pfi-serve — campaigns as a service.
//!
//! A persistent daemon that accepts fault-injection campaign submissions
//! over a dependency-free line protocol ([`proto`]), runs them one at a
//! time on a shared long-lived worker fleet, and persists every campaign
//! in a journal-backed [`store`] so submissions, repros, and corpora
//! survive restarts — including SIGKILL mid-campaign, after which the
//! [`daemon`] resumes every unfinished campaign from its torn write-ahead
//! journal to a byte-identical outcome digest.
//!
//! The pieces:
//!
//! - [`proto`]: the wire protocol (requests, replies, dot-stuffed
//!   payloads) and a small [`proto::Client`] for TCP or Unix sockets,
//!   plus the bounded readers and [`proto::RetryClient`] the hardened
//!   boundary demands.
//! - [`store`]: the store directory — append-only index, per-campaign
//!   journals and pinned seed corpora, and per-target shared corpus
//!   pools deduplicated by exact schedule.
//! - [`daemon`]: the listener/executor runtime.
//! - [`faultio`]: PFI turned on the daemon itself — a deterministic
//!   seeded interposition layer for the daemon's own wire and disk I/O,
//!   used by the chaos suite to prove the hardening above.

pub mod daemon;
pub mod faultio;
pub mod proto;
pub mod store;

pub use daemon::{run, Bind, DaemonOptions, ServiceLimits};
pub use faultio::{FaultConfig, FaultPlan, FaultStream};
pub use proto::{CampaignParams, Client, Reply, Request, RetryClient, RetryPolicy};
pub use store::Store;
