//! # pfi-benchkit — helpers shared by the benchmark binaries
//!
//! Everything here is plain `std`: order statistics, a JSON reader and
//! writer, a `wait4` wrapper for child CPU time and peak RSS, the
//! pfi-serve line-protocol client, and the parser for `pfi-campaign
//! --stats` output. Nothing in this library imports a product crate —
//! the end-to-end driver (`pfi-bench`) must keep compiling whatever
//! happens to the product APIs, because it only ever talks to the built
//! binaries and the wire.

#![warn(missing_docs)]

pub mod campaign_stats;
pub mod json;
pub mod report;
pub mod rusage;
pub mod stats;
pub mod wire;
