//! # pfi-fleet — deterministic multi-worker campaign execution
//!
//! The paper's headline experiments are *campaigns*: 112 hours of probing
//! four vendor TCP implementations, and grid sweeps over GMP failure
//! scenarios. Reproduced under a deterministic simulator, every campaign
//! execution is an independent pure function of its fault schedule — which
//! makes campaigns embarrassingly parallel *if* the search loop around
//! them can be parallelised without giving up byte-stable results.
//!
//! This crate is that engine. It knows nothing about protocols or fault
//! schedules; it schedules opaque `Send` jobs onto workers and returns
//! their results in a canonical order:
//!
//! * **A fleet of N** — the calling thread plus `N − 1` spawned workers.
//!   The caller is worker 0: while an epoch has jobs queued it takes them
//!   from the queue the spawned workers drain and runs them itself, and
//!   only with the queue empty does it block for the others' results. A
//!   fleet of one spawns no thread and wakes nobody; a fleet of two is the
//!   caller plus one thread.
//! * **Epochs** — the master dispatches a batch of jobs and returns from
//!   the barrier once all results are in. [`Fleet::run_epoch`] hands
//!   results back sorted by dispatch order, so the caller's merge loop
//!   observes the exact same sequence for 1, 2, or 64 workers.
//! * **The thread boundary** — only the runner factory and the job/result
//!   types cross it. Simulation worlds are arena-backed and `Send`, so a
//!   job payload can carry a fully-built world (the campaign layer's
//!   prebuilt-case dispatch). Runners may *also* own their own execution
//!   state: [`Fleet::new`] takes a `Send + Sync` factory that is invoked
//!   once on each thread that will run jobs — here for runner 0, inside
//!   the worker thread for the rest — and the [`JobRunner`] it builds may
//!   own arbitrary thread-local (even `!Send`) state; a [`Fleet`] holds
//!   runner 0 and is therefore itself `!Send`.
//! * **Supervision** — a panicking job costs its runner, never the pool:
//!   the unwind is caught where the job ran, the runner is rebuilt from
//!   the factory (a spawned worker is respawned, runner 0 rebuilt in
//!   place), and [`Fleet::run_epoch_checked`] retries the job with
//!   virtual backoff before quarantining it.
//! * **Hand-rolled substrate** — `std::thread` plus the
//!   [`Chan`](channel::Chan) MPMC channel in this crate; the workspace
//!   carries no external dependencies.
//! * **Statistics, not semantics** — per-worker executions, busy time,
//!   coverage-novel hits, and queue depths are aggregated into a
//!   [`FleetReport`] (row 0 is the caller); nothing in a result sequence
//!   may depend on them.
//!
//! # Example
//!
//! ```
//! use pfi_fleet::Fleet;
//!
//! // This thread plus three spawned workers, each with its own (possibly
//! // !Send) runner.
//! let mut fleet: Fleet<u32, u32> = Fleet::new(4, |_worker| Box::new(|job: u32| job * 2));
//! let results = fleet.run_epoch((0..8).collect());
//! let values: Vec<u32> = results.iter().map(|item| item.result).collect();
//! assert_eq!(values, vec![0, 2, 4, 6, 8, 10, 12, 14]); // dispatch order, any worker count
//! let report = fleet.shutdown();
//! assert_eq!(report.executed(), 8);
//! ```

#![warn(missing_docs)]

pub mod channel;
mod fleet;
mod stats;

pub use channel::SendError;
pub use fleet::{panic_message, EpochItem, Fleet, JobFailure, JobRunner, DEFAULT_MAX_RETRIES};
pub use stats::{FleetReport, WorkerStats};
