//! The campaign daemon: accepts submissions over the line protocol, runs
//! them sequentially on one long-lived [`CampaignFleet`], and persists
//! everything in a [`Store`] so a crash — up to and including SIGKILL —
//! loses no acknowledged campaign.
//!
//! Concurrency model: one listener loop blocked in `accept` (the executor
//! wakes it on its way out by connecting to the daemon's own address),
//! one connection-handler thread per client, and one executor thread that
//! owns the fleet. Shared state is a single mutex + condvar; the condvar
//! signals both "queue has work" (to the executor) and "campaign
//! finished" (to `wait`ing clients). A running campaign's progress is
//! three atomics the explorer raises ([`LiveProgress`]), so `status`
//! reads no file while it holds that mutex.
//!
//! Hardening (the daemon probed by its own technique — see
//! [`crate::faultio`]): every accepted connection carries read/write
//! deadlines and a bounded request-line budget; connections are capped
//! with oldest-idle eviction; accept-loop errors back off with a counted
//! stat instead of being dropped; store writes retry with bounded
//! backoff; submissions carrying an idempotency token dedupe instead of
//! double-running; and shutdown drains — the in-flight campaign
//! journal-settles and merges its corpus before the process exits, while
//! queued campaigns stay in the store for the next start.
//!
//! Durability contract: `submit` writes the seed snapshot if there are
//! seeds to pin, then the index line (fsynced), then acknowledges. The
//! campaign itself runs with a write-ahead journal in the store. On
//! startup the daemon scans the index: campaigns whose journal carries the `complete` terminator are
//! reconstructed (no re-execution) for `status`/`results`; everything
//! else — running or still queued at the kill — is re-enqueued, and the
//! torn journal's completed cases are replayed, not re-executed. Epoch-
//! synchronous determinism makes the resumed outcome byte-identical to
//! an uninterrupted run's.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pfi_testgen::{
    bundled, unknown_protocol, CampaignFleet, ExploreOutcome, Journal, LiveProgress,
};

use crate::faultio::{FaultConfig, FaultPlan, FaultStream};
use crate::proto::{read_line_bounded, write_reply, CampaignParams, LineOutcome, Request, Stream};
use crate::store::Store;

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix domain socket path (removed and re-bound on start).
    Unix(PathBuf),
}

/// Robustness knobs for the service boundary. Every limit exists because
/// the chaos suite (or a hostile client) can violate it: a silent peer,
/// an endless request line, a connection flood.
#[derive(Debug, Clone)]
pub struct ServiceLimits {
    /// How long a connection may sit idle (or dribble a partial line)
    /// before its next read fails and the connection closes — the
    /// slow-loris deadline.
    pub read_timeout: Duration,
    /// How long one reply write may block before the connection closes.
    pub write_timeout: Duration,
    /// Concurrent connection cap; an accept beyond it evicts the
    /// oldest-idle connection rather than refusing the newcomer.
    pub max_conns: usize,
    /// Longest accepted request line, bytes.
    pub max_line: usize,
    /// Largest reply payload the daemon will emit, bytes; bigger results
    /// get a protocol `err` instead of an unbounded write.
    pub max_payload: usize,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_conns: 64,
            max_line: 64 * 1024,
            max_payload: 16 * 1024 * 1024,
        }
    }
}

/// Daemon launch options.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Store directory (created if missing).
    pub store: PathBuf,
    /// Listen address.
    pub bind: Bind,
    /// Fleet worker threads (0 = auto-detect).
    pub jobs: usize,
    /// Service-boundary limits.
    pub limits: ServiceLimits,
    /// Deterministic self-fault-injection (chaos testing only): wire
    /// faults on every accepted stream, disk faults on every store
    /// write. `None` in production.
    pub chaos: Option<FaultConfig>,
}

/// Monotonic service-boundary counters, surfaced in the `ping` reply so
/// tests (and operators with `nc`) can watch the hardening work.
#[derive(Debug, Default)]
pub struct DaemonStats {
    accept_errors: AtomicU64,
    evicted: AtomicU64,
    timeouts: AtomicU64,
    oversize: AtomicU64,
    garbage: AtomicU64,
    dedup_hits: AtomicU64,
    disk_retries: AtomicU64,
}

impl DaemonStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One live connection the eviction registry can reach: the raw socket
/// handle (to hard-close it) and when it last did useful work.
struct ConnSlot {
    handle: Stream,
    last_active: Instant,
}

/// The bounded connection table. Acceptance over the cap evicts the
/// oldest-idle connection: its socket is shut down, which wakes its
/// handler thread with EOF/error, and the retrying client reconnects.
#[derive(Default)]
struct ConnRegistry {
    slots: Mutex<BTreeMap<u64, ConnSlot>>,
    next_id: AtomicU64,
}

impl ConnRegistry {
    fn register(&self, handle: Stream, max_conns: usize, stats: &DaemonStats) -> u64 {
        let mut slots = self.slots.lock().unwrap();
        while slots.len() >= max_conns.max(1) {
            let victim = slots
                .iter()
                .min_by_key(|(_, s)| s.last_active)
                .map(|(id, _)| *id)
                .expect("non-empty registry over cap");
            if let Some(slot) = slots.remove(&victim) {
                slot.handle.shutdown().ok();
                DaemonStats::bump(&stats.evicted);
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        slots.insert(
            id,
            ConnSlot {
                handle,
                last_active: Instant::now(),
            },
        );
        id
    }

    fn touch(&self, id: u64) {
        if let Some(slot) = self.slots.lock().unwrap().get_mut(&id) {
            slot.last_active = Instant::now();
        }
    }

    fn deregister(&self, id: u64) {
        self.slots.lock().unwrap().remove(&id);
    }

    fn open(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    fn shutdown_all(&self) {
        for (_, slot) in std::mem::take(&mut *self.slots.lock().unwrap()) {
            slot.handle.shutdown().ok();
        }
    }
}

/// A finished campaign, as `status`/`results` report it. Everything here
/// is either a pure function of the campaign config (digest, counters,
/// failures) or clearly-labelled observational statistics.
#[derive(Debug, Clone, Default)]
struct Summary {
    digest64: String,
    executed: usize,
    rejected: usize,
    replayed: usize,
    crashed: usize,
    hung: usize,
    quarantined: usize,
    corpus: usize,
    edges: usize,
    /// Schedules this campaign newly contributed to the shared pool.
    shared: usize,
    /// Failure repro artifacts, one text block each.
    failures: Vec<String>,
    // -- observational only --
    snapshot_hits: u64,
    snapshot_misses: u64,
    elapsed_ms: u64,
    dispatched: u64,
    panics: u64,
    exit: i32,
}

impl Summary {
    fn from_outcome(outcome: &ExploreOutcome, shared: usize) -> Summary {
        Summary {
            digest64: outcome.digest64(),
            executed: outcome.executed,
            rejected: outcome.rejected,
            replayed: outcome.replayed,
            crashed: outcome.crashed,
            hung: outcome.hung,
            quarantined: outcome.quarantined.len(),
            corpus: outcome.corpus.len(),
            edges: outcome.coverage.len(),
            shared,
            failures: outcome.failures.iter().map(|f| f.repro.to_text()).collect(),
            snapshot_hits: outcome.snapshots.hits,
            snapshot_misses: outcome.snapshots.misses,
            exit: exit_code(outcome),
            ..Summary::default()
        }
    }

    fn status_kv(&self) -> String {
        let hit_rate = if self.snapshot_hits + self.snapshot_misses > 0 {
            self.snapshot_hits as f64 / (self.snapshot_hits + self.snapshot_misses) as f64 * 100.0
        } else {
            0.0
        };
        let exec_per_sec = if self.elapsed_ms > 0 {
            self.executed as f64 / (self.elapsed_ms as f64 / 1e3)
        } else {
            0.0
        };
        format!(
            "exit={} digest={} executed={} rejected={} replayed={} \
             crashed={} hung={} quarantined={} failures={} corpus={} edges={} \
             corpus-shared={} snapshot-hit-rate={hit_rate:.1} exec-per-sec={exec_per_sec:.1} \
             elapsed-ms={} dispatched={} worker-panics={}",
            self.exit,
            self.digest64,
            self.executed,
            self.rejected,
            self.replayed,
            self.crashed,
            self.hung,
            self.quarantined,
            self.failures.len(),
            self.corpus,
            self.edges,
            self.shared,
            self.elapsed_ms,
            self.dispatched,
            self.panics,
        )
    }
}

/// The standard campaign exit-code contract: violations are findings (1)
/// and outrank infrastructure trouble (3).
fn exit_code(outcome: &ExploreOutcome) -> i32 {
    if !outcome.failures.is_empty() {
        1
    } else if outcome.crashed > 0 || outcome.hung > 0 || !outcome.quarantined.is_empty() {
        3
    } else {
        0
    }
}

enum CampaignState {
    /// Waiting its turn, or taken off the queue and still loading.
    Queued,
    Running {
        started: Instant,
        progress: Arc<LiveProgress>,
    },
    Done(Box<Summary>),
}

struct CampaignEntry {
    params: CampaignParams,
    state: CampaignState,
}

struct DaemonState {
    campaigns: BTreeMap<String, CampaignEntry>,
    queue: VecDeque<String>,
    /// Idempotency token -> campaign id, rebuilt from the index on start.
    /// A resubmitted token returns the existing id instead of re-running.
    idents: BTreeMap<String, String>,
    next_seq: u64,
    shutdown: bool,
    executor_done: bool,
}

struct Shared {
    state: Mutex<DaemonState>,
    cv: Condvar,
    store: Store,
    stats: DaemonStats,
    limits: ServiceLimits,
    conns: ConnRegistry,
    chaos: Option<Arc<FaultPlan>>,
    /// Opens and drops a connection to the daemon's own listening
    /// address: how the executor gets the blocked accept loop to look at
    /// the shutdown flags again.
    wake: Box<dyn Fn() + Send + Sync>,
}

/// Bounded-retry wrapper for store writes: an injected (or real,
/// transient) ENOSPC/short-write heals by retrying with a small
/// exponential backoff instead of failing the request outright.
fn retry_store<T>(stats: &DaemonStats, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut delay = Duration::from_millis(2);
    let mut last = None;
    for attempt in 0..6 {
        if attempt > 0 {
            DaemonStats::bump(&stats.disk_retries);
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(100));
        }
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("retry loop ran at least once"))
}

/// Campaign ids sort `c1 < c2 < … < c10` only with a numeric tiebreak;
/// keep ordering by sequence number explicit wherever it matters.
fn seq_of(id: &str) -> u64 {
    id.strip_prefix('c')
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Runs the daemon until a `shutdown` request (or an unrecoverable
/// listener error). Blocks the calling thread.
pub fn run(opts: DaemonOptions) -> io::Result<()> {
    let chaos = opts.chaos.clone().map(FaultPlan::new);
    let mut store = Store::open(&opts.store)?;
    if let Some(plan) = &chaos {
        store = store.with_fault_plan(Arc::clone(plan));
    }
    let jobs = match opts.jobs {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        j => j,
    };

    // Startup scan: rebuild the world from the store. Complete journals
    // reconstruct without execution; everything else re-enqueues. The
    // idempotency map is rebuilt from the persisted index lines, so a
    // resubmit after a daemon restart still dedupes.
    let mut campaigns = BTreeMap::new();
    let mut queue: Vec<String> = Vec::new();
    let mut idents = BTreeMap::new();
    let mut next_seq = 0;
    for (id, params, ident) in store.load_index()? {
        next_seq = next_seq.max(seq_of(&id));
        if let Some(tok) = ident {
            idents.insert(tok, id.clone());
        }
        let state = match Journal::load(&store.journal_path(&id)) {
            Ok(journal) if journal.complete => {
                let outcome = journal.reconstruct();
                // The pool merge already happened when the campaign first
                // completed; merging again is a no-op by exact-id dedup,
                // and re-running it here heals a crash that landed between
                // journal completion and the pool append.
                let shared = store
                    .merge_corpus(&params.corpus_key(), &outcome.corpus)
                    .unwrap_or(0);
                CampaignState::Done(Box::new(Summary::from_outcome(&outcome, shared)))
            }
            _ => {
                queue.push(id.clone());
                CampaignState::Queued
            }
        };
        campaigns.insert(id, CampaignEntry { params, state });
    }
    queue.sort_by_key(|id| seq_of(id));
    // A campaign whose index line is spoilt (and skipped) still owns its
    // journal, so its id is never issued again.
    for entry in std::fs::read_dir(&opts.store)? {
        let name = entry?.file_name();
        if let Some(id) = name.to_str().and_then(|n| n.strip_suffix(".journal")) {
            next_seq = next_seq.max(seq_of(id));
        }
    }

    enum Listener {
        Tcp(TcpListener),
        Unix(UnixListener),
    }
    let (listener, wake): (_, Box<dyn Fn() + Send + Sync>) = match &opts.bind {
        Bind::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            let own = l.local_addr()?;
            (
                Listener::Tcp(l),
                Box::new(move || drop(TcpStream::connect(own))),
            )
        }
        Bind::Unix(path) => {
            std::fs::remove_file(path).ok();
            let (l, own) = (UnixListener::bind(path)?, path.clone());
            (
                Listener::Unix(l),
                Box::new(move || drop(UnixStream::connect(&own))),
            )
        }
    };

    let shared = Arc::new(Shared {
        state: Mutex::new(DaemonState {
            campaigns,
            queue: queue.into(),
            idents,
            next_seq,
            shutdown: false,
            executor_done: false,
        }),
        cv: Condvar::new(),
        store,
        stats: DaemonStats::default(),
        limits: opts.limits.clone(),
        conns: ConnRegistry::default(),
        chaos,
        wake,
    });

    let executor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || executor_loop(&shared, jobs))
    };

    // Accept-loop error policy: transient failures (EMFILE, EINTR,
    // ECONNABORTED) are counted and backed off — doubling from 10ms to a
    // 1s cap, reset on the next success — and NEVER kill the listener.
    let mut backoff = Duration::from_millis(10);
    loop {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        // Checked after every return from `accept`: the executor's wake-up
        // connection is the one that finds both flags set.
        {
            let state = shared.state.lock().unwrap();
            if state.shutdown && state.executor_done {
                break;
            }
        }
        match accepted {
            Ok(stream) => {
                backoff = Duration::from_millis(10);
                // The accepted socket needs blocking mode and deadlines
                // before any handler I/O; a socket we can't configure is
                // counted and dropped, never served half-configured.
                if configure_conn(&stream, &shared.limits).is_err() {
                    DaemonStats::bump(&shared.stats.accept_errors);
                    continue;
                }
                let handle = match stream.try_clone() {
                    Ok(h) => h,
                    Err(_) => {
                        DaemonStats::bump(&shared.stats.accept_errors);
                        continue;
                    }
                };
                let conn_id = shared
                    .conns
                    .register(handle, shared.limits.max_conns, &shared.stats);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &shared, conn_id);
                });
            }
            Err(_) => {
                DaemonStats::bump(&shared.stats.accept_errors);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
    if let Bind::Unix(path) = &opts.bind {
        std::fs::remove_file(path).ok();
    }
    // Drain: wake any connection still blocked on the socket so its
    // handler thread exits instead of pinning a dead daemon.
    shared.conns.shutdown_all();
    executor.join().ok();
    Ok(())
}

/// Gives an accepted socket the configured deadlines.
fn configure_conn(stream: &Stream, limits: &ServiceLimits) -> io::Result<()> {
    stream.set_read_timeout(Some(limits.read_timeout))?;
    stream.set_write_timeout(Some(limits.write_timeout))
}

/// `WouldBlock`/`TimedOut` is the deadline firing — expected for idle or
/// slow-loris peers, closed without fuss (but counted).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The executor: owns the long-lived fleet, drains the queue one campaign
/// at a time, finishes the in-flight campaign on shutdown.
fn executor_loop(shared: &Shared, jobs: usize) {
    let mut pool = CampaignFleet::new(jobs);
    loop {
        let (id, params) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                // Shutdown wins over queued work: queued campaigns stay in
                // the store and resume on the next start.
                if state.shutdown {
                    state.executor_done = true;
                    shared.cv.notify_all();
                    drop(state);
                    (shared.wake)();
                    pool.shutdown();
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    let params = state.campaigns[&id].params.clone();
                    break (id, params);
                }
                state = shared.cv.wait(state).unwrap();
            }
        };
        let started = Instant::now();
        let summary = run_campaign(&mut pool, shared, &id, &params);
        let mut summary = summary.unwrap_or_else(|e| Summary {
            digest64: format!("error: {e}"),
            exit: 3,
            ..Summary::default()
        });
        summary.elapsed_ms = started.elapsed().as_millis() as u64;
        let mut state = shared.state.lock().unwrap();
        state.campaigns.get_mut(&id).unwrap().state = CampaignState::Done(Box::new(summary));
        shared.cv.notify_all();
    }
}

/// Runs (or resumes) one campaign on the shared pool and merges its
/// corpus into the target's pool file. Pool merges are disk writes, so
/// they go through the same self-healing retry as submit's store writes.
/// The campaign turns `Running` here, once its progress counters hold
/// what a journal being resumed already records, so `status` after a
/// restart starts from those counts and never from zero.
fn run_campaign(
    pool: &mut CampaignFleet,
    daemon: &Shared,
    id: &str,
    params: &CampaignParams,
) -> io::Result<Summary> {
    let store = &daemon.store;
    // `CampaignParams::from_kv` admits only bundled names; a hand-built
    // `CampaignParams` that slipped past it fails its campaign here.
    let (spec, target) = bundled(&params.proto, params.buggy, params.fault_secs)
        .ok_or_else(|| io::Error::other(unknown_protocol(&params.proto)))?;
    let mut cfg = params.to_config();
    cfg.seed_corpus = store.read_seeds(id)?;
    let progress = Arc::new(LiveProgress::default());
    let journal_path = store.journal_path(id);
    // A torn journal resumes; none (or an unreadable one) is a fresh run.
    // A complete one never gets here: the startup scan made it `Done`.
    if let Ok(journal) = Journal::load(&journal_path) {
        let edges: BTreeSet<&str> = journal
            .cases
            .iter()
            .flat_map(|c| c.coverage.iter().map(String::as_str))
            .collect();
        progress.raise(journal.dispatched.len(), journal.cases.len(), edges.len());
        cfg.resume = Some(journal);
    }
    cfg.journal = Some(journal_path);
    cfg.progress = Some(Arc::clone(&progress));
    let mut state = daemon.state.lock().unwrap();
    state.campaigns.get_mut(id).unwrap().state = CampaignState::Running {
        started: Instant::now(),
        progress,
    };
    drop(state);

    let before = pool.report();
    let outcome = pool.explore(target, &spec, &cfg);
    let after = pool.report();
    let shared = retry_store(&daemon.stats, || {
        store.merge_corpus(&params.corpus_key(), &outcome.corpus)
    })?;

    let mut summary = Summary::from_outcome(&outcome, shared);
    summary.dispatched = after.dispatched - before.dispatched;
    summary.panics = after.panics() - before.panics();
    Ok(summary)
}

/// Live progress for a running campaign, read from the counters its
/// explorer raises: merged cases, distinct coverage edges so far,
/// dispatch-queue depth, and exec/s over elapsed wall time.
fn live_status_kv(progress: &LiveProgress, started: Instant) -> String {
    let elapsed = started.elapsed();
    // Relaxed: statistics, publishing no other data.
    let executed = progress.cases.load(Ordering::Relaxed);
    let queued = progress
        .dispatched
        .load(Ordering::Relaxed)
        .saturating_sub(executed);
    let edges = progress.edges.load(Ordering::Relaxed);
    let exec_per_sec = if elapsed.as_secs_f64() > 0.0 {
        executed as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    format!(
        "executed={executed} edges={edges} queue-depth={queued} \
         exec-per-sec={exec_per_sec:.1} elapsed-ms={}",
        elapsed.as_millis()
    )
}

/// Serves one client connection until EOF, timeout, or a boundary
/// violation; always deregisters the connection slot on the way out.
fn handle_connection(stream: Stream, shared: &Shared, conn_id: u64) -> io::Result<()> {
    let result = match serve_connection(stream, shared, conn_id) {
        Err(e) if is_timeout(&e) => {
            DaemonStats::bump(&shared.stats.timeouts);
            Ok(())
        }
        other => other,
    };
    // Deregister LAST: the registry's handle holds the socket open, so
    // the peer observes the close only here — after every stat above is
    // already visible to whoever that wakes.
    shared.conns.deregister(conn_id);
    result
}

fn serve_connection(stream: Stream, shared: &Shared, conn_id: u64) -> io::Result<()> {
    let writer_raw = stream.try_clone()?;
    // Under chaos the daemon reads and writes through its own fault
    // layer, so every injected short read, EINTR, and mid-frame
    // disconnect lands on the daemon's request path.
    let (mut reader, mut writer): (BufReader<Box<dyn Read + Send>>, Box<dyn Write + Send>) =
        match &shared.chaos {
            Some(plan) => (
                BufReader::new(Box::new(FaultStream::new(stream, Arc::clone(plan)))),
                Box::new(FaultStream::new(writer_raw, Arc::clone(plan))),
            ),
            None => (BufReader::new(Box::new(stream)), Box::new(writer_raw)),
        };
    loop {
        let line = match read_line_bounded(&mut reader, shared.limits.max_line) {
            Ok(LineOutcome::Eof) => return Ok(()), // client hung up
            Ok(LineOutcome::Line(line)) => line,
            Ok(LineOutcome::TooLong) => {
                // The oversized tail is unread and unbounded; the only
                // safe resync is to nack and close.
                DaemonStats::bump(&shared.stats.oversize);
                let _ = write_reply(
                    &mut writer,
                    false,
                    &format!(
                        "request line exceeds the {}-byte cap; closing",
                        shared.limits.max_line
                    ),
                    None,
                );
                return Ok(());
            }
            Ok(LineOutcome::Garbage(why)) => {
                // The line was consumed, so the stream is still framed;
                // nack and keep serving.
                DaemonStats::bump(&shared.stats.garbage);
                write_reply(
                    &mut writer,
                    false,
                    &format!("request rejected: {why}"),
                    None,
                )?;
                continue;
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.conns.touch(conn_id);
        let req = match Request::parse(&line) {
            Ok(req) => req,
            Err(e) => {
                DaemonStats::bump(&shared.stats.garbage);
                write_reply(&mut writer, false, &e, None)?;
                continue;
            }
        };
        match handle_request(&req, shared, &mut writer) {
            Ok(done) if done => return Ok(()),
            Ok(_) => {}
            // An error out of handle_request is a failed reply write
            // (store trouble is nacked in-protocol there). The frame is
            // torn, so close WITHOUT writing anything else: a trailing
            // "internal" nack would concatenate onto the half-written
            // reply and parse as one corrupt frame on the client.
            Err(e) => return Err(e),
        }
    }
}

/// Writes an `ok` payload reply unless the payload would blow the
/// `max_payload` budget, in which case the client gets a protocol `err`
/// instead of an unbounded write.
fn write_bounded_payload<W: Write>(
    w: &mut W,
    head: &str,
    lines: &[String],
    limits: &ServiceLimits,
) -> io::Result<()> {
    let total: usize = lines.iter().map(|l| l.len() + 1).sum();
    if total > limits.max_payload {
        write_reply(
            w,
            false,
            &format!(
                "reply payload {total} B exceeds the {}-byte cap",
                limits.max_payload
            ),
            None,
        )
    } else {
        write_reply(w, true, head, Some(lines))
    }
}

/// Handles one request; returns `Ok(true)` when the connection should
/// close (after `shutdown`).
fn handle_request<W: Write>(req: &Request, shared: &Shared, w: &mut W) -> io::Result<bool> {
    match req {
        Request::Ping => {
            let s = &shared.stats;
            let (wire, disk) = shared
                .chaos
                .as_ref()
                .map(|p| (p.wire_injected(), p.disk_injected()))
                .unwrap_or((0, 0));
            let head = format!(
                "pong conns={} accept-errors={} evicted={} timeouts={} oversize={} \
                 garbage={} dedup-hits={} disk-retries={} wire-faults={wire} disk-faults={disk}",
                shared.conns.open(),
                s.accept_errors.load(Ordering::Relaxed),
                s.evicted.load(Ordering::Relaxed),
                s.timeouts.load(Ordering::Relaxed),
                s.oversize.load(Ordering::Relaxed),
                s.garbage.load(Ordering::Relaxed),
                s.dedup_hits.load(Ordering::Relaxed),
                s.disk_retries.load(Ordering::Relaxed),
            );
            write_reply(w, true, &head, None)?
        }

        Request::Submit { params, ident } => {
            // Idempotency and id allocation share one critical section:
            // two racing submits with the same token cannot both miss the
            // map and double-run.
            enum Admit {
                Dedup(String),
                Fresh(String),
            }
            let admit = {
                let mut state = shared.state.lock().unwrap();
                if state.shutdown {
                    write_reply(w, false, "daemon is shutting down", None)?;
                    return Ok(false);
                }
                match ident.as_ref().and_then(|t| state.idents.get(t)).cloned() {
                    Some(existing) => {
                        if state.campaigns[&existing].params != *params {
                            drop(state);
                            write_reply(
                                w,
                                false,
                                &format!(
                                    "ident reused with different params (campaign {existing})"
                                ),
                                None,
                            )?;
                            return Ok(false);
                        }
                        Admit::Dedup(existing)
                    }
                    None => {
                        state.next_seq += 1;
                        let id = format!("c{}", state.next_seq);
                        if let Some(tok) = ident {
                            // Reserved now, rolled back if the store nacks.
                            state.idents.insert(tok.clone(), id.clone());
                        }
                        Admit::Fresh(id)
                    }
                }
            };
            let id = match admit {
                Admit::Dedup(id) => {
                    DaemonStats::bump(&shared.stats.dedup_hits);
                    let seeds = shared.store.read_seeds(&id).map(|s| s.len()).unwrap_or(0);
                    write_reply(w, true, &format!("id={id} seeds={seeds} deduped=1"), None)?;
                    return Ok(false);
                }
                Admit::Fresh(id) => id,
            };
            // Durability order: seeds if any, then index (fsynced), then ack.
            // Each write self-heals through bounded retries; a write that
            // still fails rolls the reservation back and nacks, so a
            // retrying client resubmits cleanly.
            let stored = (|| -> io::Result<Vec<pfi_testgen::FaultSchedule>> {
                let seeds = if params.share_corpus {
                    retry_store(&shared.stats, || {
                        shared.store.read_corpus(&params.corpus_key())
                    })?
                } else {
                    Vec::new()
                };
                retry_store(&shared.stats, || shared.store.write_seeds(&id, &seeds))?;
                retry_store(&shared.stats, || {
                    shared.store.append_index(&id, params, ident.as_deref())
                })?;
                Ok(seeds)
            })();
            let seeds = match stored {
                Ok(seeds) => seeds,
                Err(e) => {
                    if let Some(tok) = ident {
                        shared.state.lock().unwrap().idents.remove(tok);
                    }
                    write_reply(w, false, &format!("submit failed: {e}"), None)?;
                    return Ok(false);
                }
            };
            let mut state = shared.state.lock().unwrap();
            state.campaigns.insert(
                id.clone(),
                CampaignEntry {
                    params: params.clone(),
                    state: CampaignState::Queued,
                },
            );
            state.queue.push_back(id.clone());
            shared.cv.notify_all();
            drop(state);
            write_reply(w, true, &format!("id={id} seeds={}", seeds.len()), None)?;
        }

        Request::Status { id } => {
            let state = shared.state.lock().unwrap();
            let mut ids: Vec<&String> = match id {
                Some(id) => {
                    if !state.campaigns.contains_key(id) {
                        drop(state);
                        write_reply(w, false, &format!("unknown campaign {id}"), None)?;
                        return Ok(false);
                    }
                    vec![id]
                }
                None => state.campaigns.keys().collect(),
            };
            ids.sort_by_key(|id| seq_of(id));
            let lines: Vec<String> = ids
                .iter()
                .map(|id| {
                    let entry = &state.campaigns[*id];
                    let (word, kv) = match &entry.state {
                        CampaignState::Queued => ("queued", String::new()),
                        CampaignState::Running { started, progress } => {
                            ("running", live_status_kv(progress, *started))
                        }
                        CampaignState::Done(s) => ("done", s.status_kv()),
                    };
                    let sep = if kv.is_empty() { "" } else { " " };
                    format!("{id} state={word} proto={}{sep}{kv}", entry.params.proto)
                })
                .collect();
            let head = format!("campaigns={}", lines.len());
            drop(state);
            write_bounded_payload(w, &head, &lines, &shared.limits)?;
        }

        Request::Results { id } => {
            let state = shared.state.lock().unwrap();
            match state.campaigns.get(id).map(|e| &e.state) {
                Some(CampaignState::Done(summary)) => {
                    let mut lines = vec![
                        format!("digest {}", summary.digest64),
                        format!(
                            "counters executed={} rejected={} replayed={} \
                             crashed={} hung={} quarantined={}",
                            summary.executed,
                            summary.rejected,
                            summary.replayed,
                            summary.crashed,
                            summary.hung,
                            summary.quarantined,
                        ),
                        format!(
                            "corpus kept={} shared={} edges={}",
                            summary.corpus, summary.shared, summary.edges
                        ),
                    ];
                    for (i, repro) in summary.failures.iter().enumerate() {
                        lines.push(format!("failure {i}"));
                        lines.extend(repro.lines().map(str::to_string));
                    }
                    let head = format!("exit={} failures={}", summary.exit, summary.failures.len());
                    drop(state);
                    write_bounded_payload(w, &head, &lines, &shared.limits)?;
                }
                Some(_) => {
                    drop(state);
                    write_reply(w, false, &format!("campaign {id} is not finished"), None)?;
                }
                None => {
                    drop(state);
                    write_reply(w, false, &format!("unknown campaign {id}"), None)?;
                }
            }
        }

        Request::Corpus { key } => match shared.store.read_corpus(key) {
            Ok(pool) => {
                let lines: Vec<String> = pool.iter().map(|s| s.id()).collect();
                write_bounded_payload(
                    w,
                    &format!("schedules={}", lines.len()),
                    &lines,
                    &shared.limits,
                )?;
            }
            Err(e) => write_reply(w, false, &format!("corpus unavailable: {e}"), None)?,
        },

        Request::Wait { id } => {
            let mut state = shared.state.lock().unwrap();
            loop {
                match state.campaigns.get(id).map(|e| &e.state) {
                    Some(CampaignState::Done(summary)) => {
                        let head = format!("exit={} digest={}", summary.exit, summary.digest64);
                        drop(state);
                        write_reply(w, true, &head, None)?;
                        break;
                    }
                    Some(_) => {
                        if state.shutdown && state.executor_done {
                            drop(state);
                            write_reply(w, false, "daemon stopped before completion", None)?;
                            break;
                        }
                        state = shared.cv.wait(state).unwrap();
                    }
                    None => {
                        drop(state);
                        write_reply(w, false, &format!("unknown campaign {id}"), None)?;
                        break;
                    }
                }
            }
        }

        Request::Shutdown => {
            // Acknowledge first: once the flag is up an idle executor is
            // gone within microseconds, the accept loop wakes and closes
            // every connection, this one included. A torn ack changes
            // nothing — the daemon acts on the request regardless.
            let acked = write_reply(w, true, "stopping", None);
            let mut state = shared.state.lock().unwrap();
            state.shutdown = true;
            shared.cv.notify_all();
            drop(state);
            acked?;
            return Ok(true);
        }
    }
    Ok(false)
}
