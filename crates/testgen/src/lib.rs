//! # pfi-testgen — test generation and coverage-guided fault campaigns
//!
//! The paper closes with three future directions; the second is "automatic
//! generation of test scripts from a protocol specification". This crate
//! implements it in two ways over one fault vocabulary, [`FaultSchedule`]:
//!
//! * **The grid** — a [`ProtocolSpec`] lists a protocol's message types
//!   and roles, and [`grid`] crosses them with one fault of each kind on
//!   both filter directions of the target's primary fault site. Every row
//!   is a one-fault [`FaultSchedule`], so it prints as a schedule line
//!   (`n1 send drop-all HEARTBEAT`) and runs through one
//!   [`SnapshotStore`] ([`run_schedule_snapshotted`]) the way every
//!   campaign candidate does: the fault-free baseline prepares the store,
//!   and hands its outcome to every row whose fault cannot act on its
//!   traffic.
//! * **Coverage-guided exploration** — [`explore`] searches over composed
//!   [`FaultSchedule`]s instead: seeded mutation ([`ScheduleMutator`]),
//!   trace-derived [`Coverage`] as the keep/discard signal, [`Oracle`]s as
//!   the judges, delta-debugging ([`shrink_schedule`]) to 1-minimal
//!   failures, and replayable text [`Repro`] artifacts.
//!
//! Exploration has one engine, [`CampaignFleet`] over `pfi-fleet`:
//! [`explore`] is a pool of one (the calling thread), [`explore_fleet`] a
//! pool of `jobs`, and the workers share the campaign's one read-only
//! [`TestTarget`] behind an `Arc`, each building or forking its own
//! worlds. Outcomes are byte-identical for any job count. The grid runs
//! on the calling thread. [`bundled`] is the one table of protocol names.
//!
//! # Examples
//!
//! ```
//! use pfi_testgen::{grid, ProtocolSpec};
//!
//! let grid = grid(&ProtocolSpec::gmp(), 1);
//! assert_eq!(grid.len(), 8 * 11); // 11 one-fault rows per GMP message type
//! let commit_drop = grid.iter()
//!     .find(|s| s.id() == "n1 recv drop-all COMMIT")
//!     .unwrap();
//! assert!(commit_drop.lower()[0].recv.contains("xDrop"));
//! ```
//!
//! A tiny exploration of the (fixed) GMP target:
//!
//! ```no_run
//! use pfi_testgen::{explore, ExploreConfig, GmpTarget, ProtocolSpec};
//!
//! let outcome = explore(
//!     &GmpTarget::default(),
//!     &ProtocolSpec::gmp(),
//!     &ExploreConfig { seed: 1, budget: 8, max_faults: 2, epoch: 1, ..ExploreConfig::default() },
//! );
//! assert!(outcome.coverage.len() > 0);
//! ```

#![warn(missing_docs)]

mod cli;
mod coverage;
mod explore;
mod journal;
pub mod lines;
mod oracle;
mod reach;
mod repro;
mod runner;
mod schedule;
mod shrink;
mod snapshot;
mod spec;
mod validate;

pub use cli::{Flags, Takes, CAMPAIGN_FLAGS, CAMPAIGN_HELP};
pub use coverage::Coverage;
pub use explore::{
    explore, explore_fleet, seed_corpus_digest, CampaignFleet, ExploreConfig, ExploreOutcome,
    FoundFailure, LiveProgress, DEFAULT_EPOCH,
};
pub use journal::{
    Journal, JournalCase, JournalCounters, JournalMeta, JournalQuarantine, JournalShrink,
    JournalWriter,
};
pub use oracle::{
    first_violation, ChaosPanicOracle, DeliveredStream, GmpAgreementOracle,
    GmpLeaderUniquenessOracle, GmpNoSelfDeathOracle, GmpProclaimRoutingOracle,
    GmpTimerDisciplineOracle, Oracle, TcpNoSilentCloseOracle, TcpPrefixOracle, TcpRtoBoundsOracle,
    TpcAtomicityOracle,
};
pub use pfi_fleet::{FleetReport, WorkerStats};
pub use reach::{FlowModel, InertFact};
pub use repro::Repro;
pub use runner::{
    bundled, run_schedule_limited, run_schedule_snapshotted, unknown_protocol, CampaignParams,
    ChaosOracleTarget, GmpTarget, RunLimits, ScheduleRun, TcpTarget, TestTarget, TpcTarget,
    Verdict, BUNDLED, DRIVE_EVENT_CAP,
};
pub use schedule::{grid, FaultOp, FaultSchedule, ScheduleMutator, ScheduledFault, SiteScripts};
pub use shrink::shrink_schedule;
pub use snapshot::{base_digest, SnapshotStats, SnapshotStore};
pub use spec::{MessageSpec, ProtocolSpec, Role};
pub use validate::{install_errors, schedule_is_installable, validate_schedule, ScheduleFinding};
