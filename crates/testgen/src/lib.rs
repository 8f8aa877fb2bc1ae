//! # pfi-testgen — test generation and coverage-guided fault campaigns
//!
//! The paper closes with three future directions; the second is "automatic
//! generation of test scripts from a protocol specification". This crate
//! implements it twice over:
//!
//! * **Grid generation** — a [`ProtocolSpec`] lists a protocol's message
//!   types and roles, [`generate`] crosses them with a [`FaultKind`] matrix
//!   and both filter directions, and every product is an ordinary PFI Tcl
//!   filter script (parse-checked at generation time). [`run_campaign`]
//!   applies each to a fresh [`TestTarget`] and checks its invariants.
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
//! use pfi_core::Direction;
//! use pfi_testgen::{generate, FaultKind, ProtocolSpec};
//!
//! let campaign = generate(
//!     &ProtocolSpec::gmp(),
//!     &[FaultKind::Drop],
//!     &[Direction::Receive],
//! );
//! assert_eq!(campaign.len(), 8); // one drop case per GMP message type
//! let commit_case = campaign.cases.iter()
//!     .find(|c| c.id == "gmp/receive/drop/COMMIT")
//!     .unwrap();
//! assert!(commit_case.script.contains("xDrop"));
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

mod coverage;
mod explore;
mod generate;
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

pub use coverage::Coverage;
pub use explore::{
    explore, explore_fleet, replay, seed_corpus_digest, CampaignFleet, ExploreConfig,
    ExploreOutcome, FoundFailure, LiveProgress, DEFAULT_EPOCH,
};
pub use generate::{generate, Campaign, FaultKind, TestCase};
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
    bundled, run_campaign, run_case, run_schedule, run_schedule_limited, run_schedule_snapshotted,
    unknown_protocol, CaseResult, ChaosOracleTarget, GmpTarget, RunLimits, ScheduleRun, TcpTarget,
    TestTarget, TpcTarget, Verdict, BUNDLED, DRIVE_EVENT_CAP,
};
pub use schedule::{FaultOp, FaultSchedule, ScheduleMutator, ScheduledFault, SiteScripts};
pub use shrink::shrink_schedule;
pub use snapshot::{base_digest, SnapshotStats, SnapshotStore};
pub use spec::{MessageSpec, ProtocolSpec, Role};
pub use validate::{
    install_errors, schedule_is_installable, scripts_install_errors, validate_schedule,
    ScheduleFinding,
};
