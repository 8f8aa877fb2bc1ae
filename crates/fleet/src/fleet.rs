//! The worker pool, its deterministic epoch scheduler, and the worker
//! supervisor.
//!
//! # Who runs the jobs
//!
//! A fleet of N is the **calling thread plus N−1 spawned workers**. The
//! caller is worker 0: while an epoch has jobs queued it takes them from
//! the same queue the spawned workers drain and runs them on runner 0,
//! and only when the queue is empty does it block for the others'
//! results. A fleet of one therefore spawns no thread and wakes nobody —
//! an epoch is a loop on the calling thread — and a fleet of two is the
//! caller plus one thread.
//!
//! # Supervision
//!
//! A runner that panics poisons only itself: the unwind is caught where
//! the job ran, reported as that job's delivery, and the runner is
//! discarded (its state may be inconsistent after the unwind). A spawned
//! worker retires and the master **respawns** it from the factory; runner
//! 0 is rebuilt from the factory on the calling thread. The pool never
//! shrinks and the epoch barrier cannot deadlock on a dead thread.
//!
//! What happens to the *job* depends on the entry point:
//!
//! * [`Fleet::run_epoch`] keeps the original contract — a panic propagates
//!   to the caller (who treats runner panics as fatal bugs), after the
//!   barrier: every other job of the epoch has been delivered by then, so
//!   a caller that catches the panic finds both queues empty.
//! * [`Fleet::run_epoch_checked`] supervises — the job is retried on
//!   whichever worker takes it next with exponential *virtual* backoff,
//!   measured in result deliveries rather than wall time so the schedule
//!   stays deterministic-friendly; after
//!   [`max_retries`](Fleet::set_max_retries) failed retries the job is
//!   quarantined and returned as an `Err(JobFailure)` in its canonical
//!   dispatch slot. The epoch always completes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::channel::Chan;
use crate::stats::{FleetReport, WorkerStats};

/// Executes one job to one result on the thread that built it.
///
/// Runners are built by the factory passed to [`Fleet::new`] *on the
/// thread that runs them* — runner 0 on the calling thread, runner `w` on
/// spawned worker `w` — and never move afterwards, so they may own
/// thread-local, even `!Send`, state: only the factory and the job/result
/// types cross a thread boundary. The price is that a [`Fleet`] holds
/// runner 0 and is itself `!Send`: it stays on the thread that built it.
/// No product runner uses the freedom (simulation worlds are `Send` and
/// ride in job payloads). Any `FnMut(J) -> R` closure is a runner.
pub trait JobRunner<J, R> {
    /// Executes one job. Must be a pure function of the job for the
    /// fleet's determinism guarantee to hold.
    fn run(&mut self, job: J) -> R;
}

impl<J, R, F: FnMut(J) -> R> JobRunner<J, R> for F {
    fn run(&mut self, job: J) -> R {
        self(job)
    }
}

/// The factory type a fleet keeps for rebuilding runners lost to a panic.
type RunnerFactory<J, R> = Arc<dyn Fn(usize) -> Box<dyn JobRunner<J, R>> + Send + Sync>;

struct Job<J> {
    seq: u64,
    payload: J,
}

struct Delivery<R> {
    seq: u64,
    worker: usize,
    busy: Duration,
    payload: Result<R, String>,
}

/// One job's result as returned by [`Fleet::run_epoch`], tagged with its
/// dispatch sequence number and the worker that ran it.
#[derive(Debug)]
pub struct EpochItem<R> {
    /// Dispatch sequence number (global across epochs).
    pub seq: u64,
    /// Which worker executed the job (timing-dependent — never let results
    /// depend on it; it exists for statistics). 0 is the calling thread.
    pub worker: usize,
    /// The runner's result.
    pub result: R,
}

/// Why a job was quarantined by [`Fleet::run_epoch_checked`]: every
/// attempt (the original dispatch plus the retries) panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Total attempts made (1 + retries).
    pub attempts: u32,
    /// The panic message of the last attempt.
    pub error: String,
}

/// Default retry budget for [`Fleet::run_epoch_checked`].
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// A pool of workers — the calling thread and `N − 1` spawned ones —
/// executing jobs in deterministic epochs.
///
/// The contract: [`run_epoch`](Fleet::run_epoch) returns results sorted by
/// dispatch order, and each result is a pure function of its job — so the
/// *sequence of result values* a caller observes is byte-identical for any
/// worker count, while wall-clock time scales with workers. Which worker
/// ran which job, and in what real-time order jobs completed, is visible
/// only through [`FleetReport`] statistics.
pub struct Fleet<J, R> {
    jobs: Chan<Job<J>>,
    results: Chan<Delivery<R>>,
    /// Runner 0: the calling thread's own.
    runner: Box<dyn JobRunner<J, R>>,
    /// Spawned workers `1..N`; worker `w` is `handles[w - 1]`.
    handles: Vec<Option<JoinHandle<()>>>,
    factory: RunnerFactory<J, R>,
    stats: Vec<WorkerStats>,
    max_retries: u32,
    retries: u64,
    quarantined: u64,
    epochs: u64,
    dispatched: u64,
    next_seq: u64,
    started: Instant,
}

impl<J: Send + 'static, R: Send + 'static> Fleet<J, R> {
    /// Builds a fleet of `workers` (at least one): the calling thread as
    /// worker 0 plus `workers − 1` spawned threads. `factory(0)` runs here,
    /// on the caller; `factory(w)` runs once *inside* spawned worker `w`.
    /// The factory must be `Send + Sync`, the runners need not be. It is
    /// kept for the fleet's lifetime so the supervisor can rebuild the
    /// runner of a worker that lost its own to a panicking job.
    pub fn new<F>(workers: usize, factory: F) -> Self
    where
        F: Fn(usize) -> Box<dyn JobRunner<J, R>> + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let jobs: Chan<Job<J>> = Chan::new();
        let results: Chan<Delivery<R>> = Chan::new();
        let factory: RunnerFactory<J, R> = Arc::new(factory);
        let handles = (1..workers)
            .map(|w| Some(spawn_worker(w, &jobs, &results, &factory)))
            .collect();
        Fleet {
            jobs,
            results,
            runner: factory(0),
            handles,
            factory,
            stats: (0..workers)
                .map(|worker| WorkerStats {
                    worker,
                    ..WorkerStats::default()
                })
                .collect(),
            max_retries: DEFAULT_MAX_RETRIES,
            retries: 0,
            quarantined: 0,
            epochs: 0,
            dispatched: 0,
            next_seq: 0,
            started: Instant::now(),
        }
    }

    /// Number of workers, the calling thread included.
    pub fn workers(&self) -> usize {
        self.stats.len()
    }

    /// Sets how many times [`run_epoch_checked`](Fleet::run_epoch_checked)
    /// retries a panicking job before quarantining it.
    pub fn set_max_retries(&mut self, max_retries: u32) {
        self.max_retries = max_retries;
    }

    /// Dispatches one epoch of jobs and returns once every one has a
    /// result (the epoch barrier), running jobs on the calling thread
    /// while any are queued. Results come back sorted by dispatch order
    /// regardless of which workers ran them or when they finished. A
    /// runner lost to a panic is rebuilt before this returns or panics.
    ///
    /// # Panics
    ///
    /// Panics (propagating the first message, once the whole epoch has
    /// been delivered) if a runner panicked. Use
    /// [`run_epoch_checked`](Fleet::run_epoch_checked) to retry and
    /// quarantine instead.
    pub fn run_epoch(&mut self, batch: Vec<J>) -> Vec<EpochItem<R>> {
        let n = batch.len();
        if n == 0 {
            return Vec::new();
        }
        self.epochs += 1;
        self.dispatched += n as u64;
        for payload in batch {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.dispatch(seq, payload);
        }
        let mut out: Vec<EpochItem<R>> = Vec::with_capacity(n);
        let mut panicked: Option<String> = None;
        for _ in 0..n {
            let d = self.next_delivery();
            match d.payload {
                Ok(result) => out.push(EpochItem {
                    seq: d.seq,
                    worker: d.worker,
                    result,
                }),
                Err(msg) => {
                    self.note_panic(d.worker);
                    panicked.get_or_insert_with(|| {
                        format!("fleet worker {} panicked: {msg}", d.worker)
                    });
                }
            }
        }
        if let Some(msg) = panicked {
            panic!("{msg}");
        }
        out.sort_by_key(|item| item.seq);
        out
    }

    /// [`run_epoch`](Fleet::run_epoch) with supervision: a panicking job
    /// is retried (on whichever worker picks it up — the lost runner is
    /// rebuilt first) with exponential *virtual* backoff, and after
    /// `max_retries` failed retries it is quarantined: its canonical slot
    /// carries `Err(JobFailure)` instead of aborting the epoch. The epoch
    /// barrier always completes, whatever the jobs do.
    ///
    /// Backoff is measured in result deliveries, not wall time: the k-th
    /// retry of a job re-dispatches only after `2^k` further results have
    /// arrived (immediately if the queue would otherwise idle), spacing
    /// retries out without introducing timing nondeterminism.
    pub fn run_epoch_checked(&mut self, batch: Vec<J>) -> Vec<EpochItem<Result<R, JobFailure>>>
    where
        J: Clone,
    {
        let n = batch.len();
        if n == 0 {
            return Vec::new();
        }
        self.epochs += 1;
        self.dispatched += n as u64;
        // seq → (payload for retries, attempts so far).
        let mut inflight: BTreeMap<u64, (J, u32)> = BTreeMap::new();
        for payload in batch {
            let seq = self.next_seq;
            self.next_seq += 1;
            inflight.insert(seq, (payload.clone(), 1));
            self.dispatch(seq, payload);
        }
        let mut outstanding = n;
        let mut deliveries: u64 = 0;
        // (virtual re-dispatch deadline in deliveries, seq).
        let mut backoff: Vec<(u64, u64)> = Vec::new();
        let mut out: Vec<EpochItem<Result<R, JobFailure>>> = Vec::with_capacity(n);
        while out.len() < n {
            // Re-dispatch retries whose virtual deadline has passed; if
            // nothing is in flight the earliest goes immediately — virtual
            // time only advances with deliveries, so waiting would
            // deadlock the barrier.
            let mut i = 0;
            while i < backoff.len() {
                if backoff[i].0 <= deliveries {
                    let (_, seq) = backoff.swap_remove(i);
                    let payload = inflight[&seq].0.clone();
                    self.dispatch(seq, payload);
                    outstanding += 1;
                } else {
                    i += 1;
                }
            }
            if outstanding == 0 {
                let earliest = backoff
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &(deadline, seq))| (deadline, seq))
                    .map(|(i, _)| i)
                    .expect("epoch barrier stalled with no job in flight or backed off");
                let (_, seq) = backoff.swap_remove(earliest);
                let payload = inflight[&seq].0.clone();
                self.dispatch(seq, payload);
                outstanding += 1;
            }
            let d = self.next_delivery();
            deliveries += 1;
            outstanding -= 1;
            match d.payload {
                Ok(result) => {
                    inflight.remove(&d.seq);
                    out.push(EpochItem {
                        seq: d.seq,
                        worker: d.worker,
                        result: Ok(result),
                    });
                }
                Err(error) => {
                    self.note_panic(d.worker);
                    let attempts = inflight
                        .get(&d.seq)
                        .expect("panic delivery for an unknown job")
                        .1;
                    if attempts > self.max_retries {
                        inflight.remove(&d.seq);
                        self.quarantined += 1;
                        out.push(EpochItem {
                            seq: d.seq,
                            worker: d.worker,
                            result: Err(JobFailure { attempts, error }),
                        });
                    } else {
                        inflight.get_mut(&d.seq).expect("checked above").1 += 1;
                        self.retries += 1;
                        // k-th retry waits 2^k deliveries (capped well
                        // below overflow).
                        let wait = 1u64 << attempts.min(16);
                        backoff.push((deliveries + wait, d.seq));
                    }
                }
            }
        }
        out.sort_by_key(|item| item.seq);
        out
    }

    /// Records that the job a worker ran produced a coverage-novel result
    /// (a statistic the scheduler itself cannot know).
    pub fn note_novel(&mut self, worker: usize) {
        if let Some(stat) = self.stats.get_mut(worker) {
            stat.novel += 1;
        }
    }

    /// A snapshot of the fleet's statistics so far.
    pub fn report(&self) -> FleetReport {
        FleetReport {
            workers: self.stats.clone(),
            epochs: self.epochs,
            dispatched: self.dispatched,
            rejected: 0, // only the campaign layer knows what admission refused
            retries: self.retries,
            quarantined: self.quarantined,
            job_queue_high_water: self.jobs.high_water(),
            result_queue_high_water: self.results.high_water(),
            wall: self.started.elapsed(),
        }
    }

    /// Stops the spawned workers, joins them, and returns the final report.
    pub fn shutdown(mut self) -> FleetReport {
        self.join_workers();
        self.report()
    }

    fn dispatch(&self, seq: u64, payload: J) {
        if self.jobs.send(Job { seq, payload }).is_err() {
            panic!("fleet job queue closed while dispatching");
        }
    }

    /// The next finished job, with its execution statistics booked. The
    /// caller is worker 0: a queued job is run here, on runner 0; with the
    /// queue empty every unfinished job is on a spawned worker, and this
    /// blocks for the first of their results.
    fn next_delivery(&mut self) -> Delivery<R> {
        let d = match self.jobs.try_recv() {
            Some(job) => run_job(0, self.runner.as_mut(), job),
            None => self
                .results
                .recv()
                .expect("fleet workers exited with jobs outstanding"),
        };
        let stat = &mut self.stats[d.worker];
        stat.executed += 1;
        stat.busy += d.busy;
        d
    }

    /// Books a panic and replaces the runner it cost: runner 0 is rebuilt
    /// here; a spawned worker retired itself after reporting and is
    /// respawned (either way the old runner may be inconsistent
    /// mid-unwind, so a fresh one comes from the factory).
    fn note_panic(&mut self, worker: usize) {
        self.stats[worker].panics += 1;
        if worker == 0 {
            self.runner = (self.factory)(0);
            return;
        }
        let handle = &mut self.handles[worker - 1];
        if let Some(h) = handle.take() {
            let _ = h.join();
        }
        *handle = Some(spawn_worker(
            worker,
            &self.jobs,
            &self.results,
            &self.factory,
        ));
    }

    fn join_workers(&mut self) {
        self.jobs.close();
        for h in self.handles.iter_mut().filter_map(Option::take) {
            // A worker that panicked has already reported the panic via the
            // result channel (or will never be joined on the happy path);
            // don't double-panic out of drop.
            let _ = h.join();
        }
    }
}

/// Runs one job on `runner` as worker `worker`, catching a panic into the
/// delivery — the one way a job executes, on the caller and on a spawned
/// worker alike.
fn run_job<J, R>(worker: usize, runner: &mut dyn JobRunner<J, R>, job: Job<J>) -> Delivery<R> {
    let Job { seq, payload } = job;
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(payload)));
    let busy = t0.elapsed();
    Delivery {
        seq,
        worker,
        busy,
        payload: outcome.map_err(|p| panic_message(p.as_ref())),
    }
}

/// Spawns worker `w` (≥ 1): build a runner from the factory, then loop —
/// run a job, report the result (or the caught panic), retire on panic
/// (the supervisor respawns with a fresh runner) or when the job queue
/// closes.
fn spawn_worker<J: Send + 'static, R: Send + 'static>(
    w: usize,
    jobs: &Chan<Job<J>>,
    results: &Chan<Delivery<R>>,
    factory: &RunnerFactory<J, R>,
) -> JoinHandle<()> {
    let rx = jobs.clone();
    let tx = results.clone();
    let make = Arc::clone(factory);
    std::thread::Builder::new()
        .name(format!("pfi-fleet-{w}"))
        .spawn(move || {
            let mut runner = make(w);
            while let Some(job) = rx.recv() {
                let delivery = run_job(w, runner.as_mut(), job);
                let failed = delivery.payload.is_err();
                let _ = tx.send(delivery);
                if failed {
                    // The runner may be left in an inconsistent state
                    // after an unwind; retire the worker.
                    break;
                }
            }
        })
        .expect("spawning a fleet worker thread")
}

impl<J, R> Drop for Fleet<J, R> {
    fn drop(&mut self) {
        self.jobs.close();
        for h in self.handles.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
    }
}

/// Renders a caught panic payload. The `&dyn Any` must be the *boxed*
/// value (`payload.as_ref()`), not a reference to the box: `Box<dyn Any>`
/// itself implements `Any`, so `downcast_ref` on the wrong one always
/// misses.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn square_fleet(workers: usize) -> Fleet<u64, u64> {
        Fleet::new(workers, |_| Box::new(|j: u64| j * j))
    }

    #[test]
    fn results_come_back_in_dispatch_order() {
        for workers in [1, 2, 4] {
            let mut fleet = square_fleet(workers);
            let batch: Vec<u64> = (0..64).collect();
            let items = fleet.run_epoch(batch);
            let got: Vec<u64> = items.iter().map(|i| i.result).collect();
            let want: Vec<u64> = (0..64).map(|j| j * j).collect();
            assert_eq!(got, want, "workers={workers}");
            let report = fleet.shutdown();
            assert_eq!(report.executed(), 64);
            assert_eq!(report.dispatched, 64);
            assert_eq!(report.epochs, 1);
        }
    }

    /// N workers are N builds, each on the thread that will run it: runner
    /// 0 on the thread that called `Fleet::new` (worker 0 *is* the
    /// caller), runner `w` inside spawned thread `pfi-fleet-w`.
    #[test]
    fn factory_runs_once_inside_each_worker_thread() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        let caller = std::thread::current().id();
        let mut fleet: Fleet<u64, String> = Fleet::new(3, move |w| {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            let here = std::thread::current();
            if w == 0 {
                assert_eq!(here.id(), caller, "runner 0 belongs to the caller");
            } else {
                assert_eq!(here.name(), Some(format!("pfi-fleet-{w}").as_str()));
            }
            Box::new(move |j: u64| format!("{w}:{j}"))
        });
        // Drive enough jobs that every worker has had work at some point.
        for _ in 0..4 {
            fleet.run_epoch((0..32).collect());
        }
        fleet.shutdown();
        assert_eq!(BUILDS.load(Ordering::SeqCst), 3);
    }

    /// A fleet of one is the calling thread and nothing else: every job
    /// runs here, and worker 0's row books all of it.
    #[test]
    fn a_fleet_of_one_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut fleet: Fleet<u64, std::thread::ThreadId> = Fleet::new(1, |_| {
            Box::new(|_: u64| {
                std::thread::sleep(Duration::from_micros(200));
                std::thread::current().id()
            })
        });
        for _ in 0..3 {
            for item in fleet.run_epoch((0..8).collect()) {
                assert_eq!(item.result, caller);
                assert_eq!(item.worker, 0);
            }
        }
        let report = fleet.shutdown();
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].executed, 24);
        assert!(report.workers[0].busy >= Duration::from_micros(24 * 200));
        assert_eq!(
            report.result_queue_high_water, 0,
            "nothing crosses a channel back to the thread that ran it"
        );
    }

    /// In a larger fleet the caller still works. Two jobs that each wait
    /// for the other at a barrier can only finish on two threads at once,
    /// so in a fleet of two the caller must have run one of them.
    #[test]
    fn the_caller_takes_jobs_alongside_spawned_workers() {
        let caller = std::thread::current().id();
        let both = Arc::new(std::sync::Barrier::new(2));
        let mut fleet: Fleet<u64, std::thread::ThreadId> = Fleet::new(2, move |_| {
            let both = Arc::clone(&both);
            Box::new(move |_: u64| {
                both.wait();
                std::thread::current().id()
            })
        });
        for _ in 0..8 {
            let items = fleet.run_epoch(vec![0, 1]);
            assert_ne!(items[0].worker, items[1].worker);
            for item in &items {
                assert_eq!(item.worker == 0, item.result == caller);
            }
        }
        let report = fleet.shutdown();
        assert_eq!(report.workers[0].executed, 8, "the caller's share");
        assert_eq!(report.workers[1].executed, 8, "the spawned worker's");
    }

    /// A panic in a job the caller ran is supervised exactly like a
    /// spawned worker's: caught, booked on worker 0, runner 0 rebuilt from
    /// the factory, the job retried and finally quarantined.
    #[test]
    fn a_caller_run_panic_rebuilds_runner_zero_and_quarantines() {
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        BUILDS.store(0, Ordering::SeqCst);
        let mut fleet: Fleet<u64, u64> = Fleet::new(1, |_| {
            BUILDS.fetch_add(1, Ordering::SeqCst);
            Box::new(|j: u64| {
                if j == 2 {
                    panic!("always fails");
                }
                j + 1
            })
        });
        fleet.set_max_retries(1);
        let items = fleet.run_epoch_checked(vec![1, 2, 3]);
        assert_eq!(*items[0].result.as_ref().unwrap(), 2);
        assert_eq!(items[1].result.as_ref().unwrap_err().attempts, 2);
        assert_eq!(*items[2].result.as_ref().unwrap(), 4);
        let report = fleet.shutdown();
        assert_eq!(report.workers[0].panics, 2);
        assert_eq!(report.workers[0].executed, 4, "two attempts plus two jobs");
        assert_eq!((report.retries, report.quarantined), (1, 1));
        assert_eq!(
            BUILDS.load(Ordering::SeqCst),
            3,
            "one build plus one per panic"
        );
    }

    #[test]
    fn runners_may_own_not_send_state() {
        // Still promised: a runner is built on the thread that runs it and
        // never moves, so it may hold an Rc (a worker-local cache, say)
        // even though Rc is !Send — runner 0 included, which is why a
        // `Fleet` is itself !Send. Primarily a compile-time proof.
        let mut fleet: Fleet<u64, u64> = Fleet::new(2, |_| {
            let local: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
            Box::new(move |j: u64| {
                *local.borrow_mut() += 1;
                j + *local.borrow()
            })
        });
        let items = fleet.run_epoch(vec![10, 20]);
        assert_eq!(items.len(), 2);
        fleet.shutdown();
    }

    #[test]
    fn epochs_are_barriers_and_stats_accumulate() {
        let mut fleet = square_fleet(2);
        for epoch in 1..=5u64 {
            let items = fleet.run_epoch(vec![1, 2, 3]);
            assert_eq!(items.len(), 3);
            let report = fleet.report();
            assert_eq!(report.epochs, epoch);
            assert_eq!(report.executed(), epoch * 3);
        }
        fleet.note_novel(0);
        fleet.note_novel(0);
        let report = fleet.shutdown();
        assert_eq!(report.workers[0].novel, 2);
        assert_eq!(report.dispatched, 15);
        assert!(report.job_queue_high_water >= 1);
    }

    #[test]
    fn empty_epoch_is_a_no_op() {
        let mut fleet = square_fleet(2);
        assert!(fleet.run_epoch(Vec::new()).is_empty());
        let report = fleet.shutdown();
        assert_eq!(report.epochs, 0);
        assert_eq!(report.dispatched, 0);
    }

    #[test]
    #[should_panic(expected = "fleet worker")]
    fn worker_panics_propagate_to_the_master() {
        let mut fleet: Fleet<u64, u64> = Fleet::new(1, |_| {
            Box::new(|j: u64| {
                if j == 3 {
                    panic!("job {j} exploded");
                }
                j
            })
        });
        fleet.run_epoch(vec![1, 2, 3]);
    }

    /// A runner panicking under `run_epoch` must not leave the pool dead
    /// or its queues dirty: the lost runner is rebuilt and the rest of the
    /// epoch delivered before the panic propagates, so catching it and
    /// running another epoch works at any size.
    #[test]
    fn pool_survives_a_caught_run_epoch_panic() {
        for workers in [1, 2] {
            let mut fleet: Fleet<u64, u64> = Fleet::new(workers, |_| {
                Box::new(|j: u64| {
                    if j == 3 {
                        panic!("job {j} exploded");
                    }
                    j * j
                })
            });
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fleet.run_epoch(vec![3, 6, 7]);
            }));
            assert!(caught.is_err());
            let items = fleet.run_epoch(vec![4, 5]);
            let got: Vec<u64> = items.iter().map(|i| i.result).collect();
            assert_eq!(got, vec![16, 25], "workers={workers}");
            let report = fleet.shutdown();
            assert_eq!(report.panics(), 1);
            assert_eq!(report.executed(), 5);
        }
    }

    /// Transient panics: the job fails on its first attempt, the retry
    /// succeeds on the respawned worker; the caller sees only `Ok`s.
    #[test]
    fn run_epoch_checked_retries_transient_panics() {
        static ATTEMPTS: AtomicUsize = AtomicUsize::new(0);
        ATTEMPTS.store(0, Ordering::SeqCst);
        let mut fleet: Fleet<u64, u64> = Fleet::new(1, |_| {
            Box::new(|j: u64| {
                if j == 3 && ATTEMPTS.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("transient failure");
                }
                j * j
            })
        });
        let items = fleet.run_epoch_checked(vec![1, 2, 3, 4]);
        let got: Vec<u64> = items.iter().map(|i| *i.result.as_ref().unwrap()).collect();
        assert_eq!(got, vec![1, 4, 9, 16], "canonical order, retry folded in");
        let report = fleet.shutdown();
        assert_eq!(report.retries, 1);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.panics(), 1);
    }

    /// Persistent panics: after max_retries failed retries the job is
    /// quarantined in its canonical slot and the epoch still completes.
    #[test]
    fn run_epoch_checked_quarantines_persistent_panics() {
        for workers in [1, 2] {
            let mut fleet: Fleet<u64, u64> = Fleet::new(workers, |_| {
                Box::new(|j: u64| {
                    if j == 3 {
                        panic!("always fails");
                    }
                    j * j
                })
            });
            fleet.set_max_retries(2);
            let items = fleet.run_epoch_checked((0..6).collect());
            assert_eq!(items.len(), 6);
            for item in &items {
                if item.seq == 3 {
                    let failure = item.result.as_ref().unwrap_err();
                    assert_eq!(failure.attempts, 3, "1 original + 2 retries");
                    assert!(failure.error.contains("always fails"));
                } else {
                    assert_eq!(*item.result.as_ref().unwrap(), item.seq * item.seq);
                }
            }
            // The pool still works afterwards.
            let again = fleet.run_epoch_checked(vec![7]);
            assert_eq!(*again[0].result.as_ref().unwrap(), 49);
            let report = fleet.shutdown();
            assert_eq!(report.retries, 2, "workers={workers}");
            assert_eq!(report.quarantined, 1, "workers={workers}");
            assert_eq!(report.panics(), 3, "workers={workers}");
        }
    }

    /// Every job panicking at once exercises the virtual-backoff idle
    /// path: with nothing in flight the earliest deadline dispatches
    /// immediately instead of deadlocking the barrier.
    #[test]
    fn run_epoch_checked_survives_an_all_panic_epoch() {
        let mut fleet: Fleet<u64, u64> =
            Fleet::new(2, |_| Box::new(|_: u64| -> u64 { panic!("boom") }));
        fleet.set_max_retries(1);
        let items = fleet.run_epoch_checked((0..4).collect());
        assert_eq!(items.len(), 4);
        assert!(items.iter().all(|i| i.result.is_err()));
        let report = fleet.shutdown();
        assert_eq!(report.quarantined, 4);
        assert_eq!(report.retries, 4);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let mut fleet = square_fleet(0);
        assert_eq!(fleet.workers(), 1);
        let items = fleet.run_epoch(vec![5]);
        assert_eq!(items[0].result, 25);
    }
}
