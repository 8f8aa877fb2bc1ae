//! Per-worker and fleet-wide execution statistics.
//!
//! Stats are observational only: nothing in a campaign's *outcome* (corpus,
//! coverage, repro bytes) may depend on them, because wall-clock timing is
//! the one nondeterministic thing a fleet run contains. They exist so a
//! long campaign can report worker utilisation, executions per second, and
//! how deep the dispatch queues ran.

use std::fmt;
use std::time::Duration;

/// One worker's lifetime counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index (0-based, stable for the fleet's lifetime); 0 is the
    /// thread that owns the fleet, the rest are spawned.
    pub worker: usize,
    /// Jobs this worker executed.
    pub executed: u64,
    /// Wall time spent inside job execution.
    pub busy: Duration,
    /// Jobs whose result the caller flagged as coverage-novel (via
    /// [`Fleet::note_novel`](crate::Fleet::note_novel)).
    pub novel: u64,
    /// Jobs that panicked on this worker (each one cost it its runner; the
    /// supervisor rebuilt one from the factory under the same index —
    /// respawning the thread, for a spawned worker).
    pub panics: u64,
}

impl WorkerStats {
    /// Executions per second of *busy* time (not wall time).
    pub fn exec_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.executed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Aggregated statistics for one fleet's lifetime.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Epochs dispatched.
    pub epochs: u64,
    /// Jobs dispatched across all epochs.
    pub dispatched: u64,
    /// Jobs the master rejected before dispatch (e.g. uninstallable
    /// campaign candidates refused at admission) — work the fleet
    /// never had to schedule. Set by the caller; the fleet itself only
    /// ever sees jobs that survived.
    pub rejected: u64,
    /// Panicked jobs re-dispatched by
    /// [`Fleet::run_epoch_checked`](crate::Fleet::run_epoch_checked)
    /// (each with exponential virtual backoff).
    pub retries: u64,
    /// Jobs quarantined after exhausting their retry budget — returned to
    /// the caller as failures instead of aborting the epoch.
    pub quarantined: u64,
    /// Deepest the job queue ever ran (jobs waiting for a worker).
    pub job_queue_high_water: usize,
    /// Deepest the result queue ever ran (results waiting for the master).
    pub result_queue_high_water: usize,
    /// Wall time from fleet construction to report.
    pub wall: Duration,
}

impl FleetReport {
    /// Total jobs executed across all workers.
    pub fn executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Fleet-level throughput: executed jobs per second of wall time.
    pub fn exec_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.executed() as f64 / secs
        } else {
            0.0
        }
    }

    /// Total busy time summed over workers (> `wall` means real
    /// parallelism was achieved).
    pub fn total_busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Total jobs that panicked, summed over workers.
    pub fn panics(&self) -> u64 {
        self.workers.iter().map(|w| w.panics).sum()
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `0 pruned as equivalent, 0 pruned as inert` are the retired prune
        // tiers' labels, kept while bench/src/campaign_stats.rs requires them.
        writeln!(
            f,
            "fleet: {} worker(s), {} epoch(s), {} job(s), {} rejected pre-dispatch, 0 pruned as equivalent, 0 pruned as inert, {} panic(s), {} retried, {} quarantined, {:.1} exec/s wall ({:.0} ms wall, {:.0} ms busy), queue high-water jobs={} results={}",
            self.workers.len(),
            self.epochs,
            self.dispatched,
            self.rejected,
            self.panics(),
            self.retries,
            self.quarantined,
            self.exec_per_sec(),
            self.wall.as_secs_f64() * 1e3,
            self.total_busy().as_secs_f64() * 1e3,
            self.job_queue_high_water,
            self.result_queue_high_water,
        )?;
        for w in &self.workers {
            writeln!(
                f,
                "  worker {}: {} exec, {} coverage-novel, {} panic(s), {:.0} ms busy, {:.1} exec/s busy",
                w.worker,
                w.executed,
                w.novel,
                w.panics,
                w.busy.as_secs_f64() * 1e3,
                w.exec_per_sec(),
            )?;
        }
        Ok(())
    }
}
