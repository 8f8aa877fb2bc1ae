//! The `serve_mix` workload: one spawned `pfi-serve` daemon, driven over
//! its Unix socket the way a team submitting campaigns drives it.
//!
//! The end-to-end run is phase 1 only — one connection, closed loop
//! (callers wait for replies), small campaigns each `submit` → `wait` →
//! `results` — followed by one restart on the grown store that re-fetches
//! every result. Small campaigns make wire, accept, index fsync, journal
//! append and condvar hand-off a large share of each. The traced run adds
//! the read side of the same store: `status` polled open-loop while big
//! campaigns run (phase 2) and repeated recovery (phase 3).

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pfi_benchkit::campaign_stats;
use pfi_benchkit::report::{Checks, Row};
use pfi_benchkit::rusage::{wait_with_usage, ChildUsage};
use pfi_benchkit::stats::{median, percentile};
use pfi_benchkit::wire::{kv, Client};

use crate::proc;
use crate::{Ctx, Sample, Workload};

const W: &str = "serve_mix";

/// Phase-1 campaign: `gmp fault_secs=5 budget=24 max_faults=2 epoch=8`.
const SMALL_BUDGET: u64 = 24;
/// Phase-2 campaign: the same target at a budget that runs for ≈1 s, so
/// `status` has a live journal to re-parse.
const BIG_BUDGET: u64 = 4096;
/// Campaigns per phase-1 slice (≈0.12 s: short, for the same reason the
/// interpose slices are).
const BATCH: usize = 10;
/// No reply within this long is a failed operation.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

fn params(seed: u64, budget: u64) -> String {
    format!(
        "proto=gmp seed={seed} budget={budget} max-faults=2 epoch=8 buggy=0 fault-secs=5 \
         prefilter=1 pruning=1 semantic=1 snapshots=1 step-budget=0 share-corpus=0"
    )
}

/// A spawned daemon and the directory holding its store and socket.
/// Dropping it kills and reaps the process if it is still running.
struct Daemon {
    child: Option<Child>,
    dir: PathBuf,
}

impl Daemon {
    fn socket(&self) -> PathBuf {
        self.dir.join("sock")
    }

    fn store(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// A daemon on `dir` (created if missing), launched with `extra` flags.
    /// Returns it with its spawn → first pong time in seconds.
    fn spawn(ctx: &Ctx, dir: PathBuf, extra: &[&str]) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut daemon = Daemon { child: None, dir };
        let ready_s = daemon.launch(ctx, extra)?;
        Ok((daemon, ready_s))
    }

    /// Starts `pfi-serve start` on this directory — recovering whatever
    /// store an earlier launch left there — and returns once the first
    /// `ping` is answered, with the spawn → first pong time in seconds.
    fn launch(&mut self, ctx: &Ctx, extra: &[&str]) -> Result<f64, String> {
        let _ = std::fs::remove_file(self.socket());
        let start = Instant::now();
        let child = Command::new(ctx.binary("pfi-serve"))
            .arg("start")
            .arg("--store")
            .arg(self.store())
            .arg("--socket")
            .arg(self.socket())
            .args(["--jobs", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn pfi-serve: {e}"))?;
        self.child = Some(child);
        while start.elapsed() < Duration::from_secs(30) {
            let pong = self.connect().is_ok_and(|mut c| {
                c.request("ping", false)
                    .is_ok_and(|r| r.head.starts_with("ok pong"))
            });
            if pong {
                return Ok(start.elapsed().as_secs_f64());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("pfi-serve did not answer a ping within 30 s".to_string())
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket(), REQUEST_TIMEOUT).map_err(|e| format!("cannot connect: {e}"))
    }

    /// Asks the daemon to stop and reaps it.
    fn shutdown(&mut self, checks: &mut Checks) -> Option<ChildUsage> {
        let child = self.child.take()?;
        let reply = self
            .connect()
            .and_then(|mut c| c.request("shutdown", false).map_err(|e| e.to_string()));
        if !checks.check(reply.as_ref().is_ok_and(|r| r.is_ok()), || {
            format!("shutdown: {reply:?}")
        }) {
            self.child = Some(child);
            return None;
        }
        let usage = wait_with_usage(child).ok();
        checks.check(usage.is_some_and(|u| u.exit_code == Some(0)), || {
            format!("pfi-serve exited {usage:?} after shutdown")
        });
        usage
    }

    /// Total bytes of regular files in the store matching `keep`.
    fn store_bytes(&self, keep: impl Fn(&str) -> bool) -> u64 {
        std::fs::read_dir(self.store())
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| keep(&e.file_name().to_string_lossy()))
            .filter_map(|e| e.metadata().ok())
            .filter(|m| m.is_file())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One campaign that went through the daemon.
struct Done {
    id: String,
    seed: u64,
    budget: u64,
    digest: String,
    executed: u64,
    results: Vec<String>,
    ack_ms: f64,
    wait_ms: f64,
    results_ms: f64,
}

impl Done {
    fn total_ms(&self) -> f64 {
        self.ack_ms + self.wait_ms + self.results_ms
    }
}

/// `submit` → `wait` → `results` on one connection. Every reply must be
/// `ok`, the exit code a campaign's (0, 1 or 3), and the digest `wait`
/// reports the one `results` carries.
///
/// `running` is told the campaign id once the submit is acknowledged and
/// `None` once `wait` has returned — phase 2's status poller follows it.
fn campaign(
    client: &mut Client,
    seed: u64,
    budget: u64,
    running: &dyn Fn(Option<&str>),
    checks: &mut Checks,
) -> Option<Done> {
    let mut step = |client: &mut Client, line: &str, payload: bool| {
        let start = Instant::now();
        let reply = client.request(line, payload);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(reply) if reply.is_ok() => {
                checks.check(true, String::new);
                Some((reply, ms))
            }
            Ok(reply) => {
                checks.fail(format!("{line:?} → {:?}", reply.head));
                None
            }
            Err(e) => {
                checks.fail(format!("{line:?} failed: {e}"));
                None
            }
        }
    };
    let (ack, ack_ms) = step(client, &format!("submit {}", params(seed, budget)), false)?;
    let Some(id) = ack.kv("id").map(str::to_string) else {
        checks.fail(format!("submit acknowledged without an id: {:?}", ack.head));
        return None;
    };
    running(Some(&id));
    let waited = step(client, &format!("wait id={id}"), false);
    running(None);
    let (waited, wait_ms) = waited?;
    let (results, results_ms) = step(client, &format!("results id={id}"), true)?;
    let digest = waited.kv("digest").unwrap_or("").to_string();
    let reported = results
        .payload
        .iter()
        .find_map(|l| l.strip_prefix("digest "));
    let exit = waited.kv("exit");
    checks.check(
        matches!(exit, Some("0" | "1" | "3"))
            && !digest.is_empty()
            && reported == Some(digest.as_str()),
        || {
            format!(
                "campaign {id} seed {seed}: wait said {:?}, results said {reported:?}",
                waited.head
            )
        },
    );
    let executed = results
        .payload
        .iter()
        .find(|l| l.starts_with("counters "))
        .and_then(|l| kv(l, "executed"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    Some(Done {
        id,
        seed,
        budget,
        digest,
        executed,
        results: results.payload,
        ack_ms,
        wait_ms,
        results_ms,
    })
}

/// Through the daemon must equal not through the daemon: `pfi-campaign`
/// run locally with the same parameters must print `done`'s digest.
fn check_against_local(ctx: &Ctx, done: &Done, checks: &mut Checks) {
    let mut cmd = Command::new(ctx.binary("pfi-campaign"));
    cmd.args(["gmp", "--explore", "--fault-secs", "5", "--max-faults", "2"])
        .args(["--epoch", "8", "--jobs", "1", "--digest"])
        .args(["--budget", &done.budget.to_string()])
        .args(["--seed", &done.seed.to_string()]);
    let local = proc::run(&mut cmd, "pfi-campaign digest ")
        .ok()
        .and_then(|child| campaign_stats::parse(&child.stdout).ok())
        .map(|out| out.digest);
    checks.check(local.as_deref() == Some(done.digest.as_str()), || {
        format!(
            "seed {} budget {}: daemon digest {}, local {local:?}",
            done.seed, done.budget, done.digest
        )
    });
}

/// A `results` payload with the one field the store does not persist
/// masked: `corpus … shared=N` counts schedules handed to the shared pool
/// while the campaign ran and reads 0 once the daemon has restarted.
/// Everything else — digest, counters, kept, edges, repro artifacts — is
/// durable and must read back exactly.
fn durable(payload: &[String]) -> Vec<String> {
    payload
        .iter()
        .map(
            |line| match (line.starts_with("corpus "), kv(line, "shared")) {
                (true, Some(n)) => line.replace(&format!(" shared={n}"), " shared=*"),
                _ => line.clone(),
            },
        )
        .collect()
}

/// Re-fetches every finished campaign's `results` and compares with what
/// was read before the restart.
fn refetch(client: &mut Client, done: &[Done], checks: &mut Checks) {
    for d in done {
        let reply = client.request(&format!("results id={}", d.id), true);
        let same = reply
            .as_ref()
            .is_ok_and(|r| r.is_ok() && durable(&r.payload) == durable(&d.results));
        checks.check(same, || {
            format!(
                "results id={} read {:?} before the restart, {reply:?} after",
                d.id, d.results
            )
        });
    }
}

/// `n` pings on one connection, µs each.
fn ping_rtts(client: &mut Client, n: usize, checks: &mut Checks) -> Vec<f64> {
    (0..n)
        .filter_map(|_| {
            let start = Instant::now();
            let reply = client.request("ping", false);
            let us = start.elapsed().as_secs_f64() * 1e6;
            checks
                .check(
                    reply.as_ref().is_ok_and(|r| r.head.starts_with("ok pong")),
                    || format!("ping: {reply:?}"),
                )
                .then_some(us)
        })
        .collect()
}

/// The `serve_mix` workload.
#[derive(Default)]
pub struct ServeMix {
    daemon: Option<Daemon>,
    client: Option<Client>,
    setups: usize,
    submitted: u64,
    /// Set-up's campaigns: in the store, not in the measurements.
    warm: Vec<Done>,
    done: Vec<Done>,
}

impl ServeMix {
    fn fresh_dir(&mut self, ctx: &Ctx, tag: &str) -> PathBuf {
        self.setups += 1;
        ctx.out
            .join(format!("serve-{}-{tag}{}", std::process::id(), self.setups))
    }

    fn next_seed(&mut self, ctx: &Ctx) -> u64 {
        self.submitted += 1;
        ctx.seed * 1000 + self.submitted - 1
    }

    /// Spawns a daemon on a fresh store, cross-checks one campaign against
    /// a local `pfi-campaign`, and warms the pool with ten more.
    fn start(&mut self, ctx: &Ctx, checks: &mut Checks) -> Option<()> {
        let dir = self.fresh_dir(ctx, "s");
        let spawned = Daemon::spawn(ctx, dir, &[]);
        let Ok((daemon, _)) = spawned else {
            checks.fail(format!(
                "serve_mix set-up: {}",
                spawned.err().unwrap_or_default()
            ));
            return None;
        };
        let mut client = match daemon.connect() {
            Ok(client) => client,
            Err(e) => {
                checks.fail(e);
                return None;
            }
        };
        // Warm-up seeds sit far above anything a run reaches.
        let warm = ctx.seed * 1000 + 900_000;
        self.warm.clear();
        for i in 0..=10 {
            let done = campaign(&mut client, warm + i, SMALL_BUDGET, &|_| {}, checks)?;
            if i == 0 {
                check_against_local(ctx, &done, checks);
            }
            self.warm.push(done);
        }
        self.daemon = Some(daemon);
        self.client = Some(client);
        Some(())
    }

    /// Phase 1: `count` small campaigns, closed loop, one connection.
    /// Candidates per second through the daemon, and the median submit
    /// sent → results read.
    fn batch(&mut self, ctx: &Ctx, count: usize, checks: &mut Checks) -> Option<Sample> {
        let start = Instant::now();
        let first = self.done.len();
        for _ in 0..count {
            let seed = self.next_seed(ctx);
            let done = campaign(self.client.as_mut()?, seed, SMALL_BUDGET, &|_| {}, checks);
            self.done.extend(done);
        }
        let wall = start.elapsed().as_secs_f64();
        let total: Vec<f64> = self.done[first..].iter().map(Done::total_ms).collect();
        (total.len() == count).then(|| Sample {
            throughput: (count as u64 * SMALL_BUDGET) as f64 / wall,
            latency_ms: median(&total),
            rss_mb: None,
        })
    }

    /// Phase 2: connection A runs `count` big campaigns back to back while
    /// connection B polls `status id=<running>` open-loop at 10/s, each
    /// poll timed from when it was due. Returns `(status_ms, late_ms)`.
    fn status_under_load(
        &mut self,
        ctx: &Ctx,
        count: usize,
        checks: &mut Checks,
    ) -> (Vec<f64>, Vec<f64>) {
        let (Some(daemon), Some(client)) = (self.daemon.as_ref(), self.client.as_mut()) else {
            return (Vec::new(), Vec::new());
        };
        let running: Mutex<Option<String>> = Mutex::new(None);
        let finished = AtomicBool::new(false);
        let mut big = Vec::new();
        let (poll_checks, status_ms, late_ms) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut checks = Checks::default();
                let (mut status_ms, mut late_ms) = (Vec::new(), Vec::new());
                let Ok(mut b) = daemon.connect() else {
                    checks.fail("status poller cannot connect");
                    return (checks, status_ms, late_ms);
                };
                let period = Duration::from_millis(100);
                let start = Instant::now();
                let mut tick = 0u32;
                while !finished.load(Ordering::SeqCst) {
                    let due = start + period * tick;
                    tick += 1;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let id = running
                        .lock()
                        .expect("main never panics holding it")
                        .clone();
                    let Some(id) = id else { continue };
                    let sent = Instant::now();
                    let reply = b.request(&format!("status id={id}"), true);
                    let got = Instant::now();
                    if checks.check(
                        reply
                            .as_ref()
                            .is_ok_and(|r| r.is_ok() && r.payload.len() == 1),
                        || format!("status id={id}: {reply:?}"),
                    ) {
                        status_ms.push((got - due).as_secs_f64() * 1e3);
                        late_ms.push((sent - due).as_secs_f64() * 1e3);
                    }
                }
                (checks, status_ms, late_ms)
            });
            // The id is only known once the submit is acknowledged; the
            // poller starts on it from the next tick.
            let follow = |id: Option<&str>| {
                *running.lock().expect("the poller never panics holding it") =
                    id.map(str::to_string);
            };
            for i in 0..count as u64 {
                let seed = ctx.seed * 1000 + 800_000 + i;
                big.extend(campaign(client, seed, BIG_BUDGET, &follow, checks));
            }
            finished.store(true, Ordering::SeqCst);
            poller.join().expect("status poller does not panic")
        });
        checks.merge(poll_checks);
        if let Some(first) = big.first() {
            check_against_local(ctx, first, checks);
        }
        self.done.extend(big);
        (status_ms, late_ms)
    }

    /// Shuts the daemon down; its store stays for a restart.
    fn stop(&mut self, checks: &mut Checks) -> Option<ChildUsage> {
        self.client = None;
        self.daemon.as_mut()?.shutdown(checks)
    }

    /// Restarts the stopped daemon on the same store; returns spawn →
    /// first pong seconds.
    fn restart(&mut self, ctx: &Ctx, checks: &mut Checks) -> Option<f64> {
        let daemon = self.daemon.as_mut()?;
        match daemon.launch(ctx, &[]) {
            Ok(recover_s) => {
                self.client = daemon.connect().ok();
                Some(recover_s)
            }
            Err(e) => {
                checks.fail(format!("restart on the grown store: {e}"));
                None
            }
        }
    }
}

impl Workload for ServeMix {
    fn name(&self) -> &'static str {
        W
    }

    fn setup(&mut self, ctx: &Ctx, checks: &mut Checks) {
        // A repeated set-up replaces the previous daemon and store.
        self.client = None;
        self.daemon = None;
        self.start(ctx, checks);
    }

    fn slice(&mut self, ctx: &Ctx, _index: usize, checks: &mut Checks) -> Option<Sample> {
        let count = if ctx.check { 100 } else { BATCH };
        self.batch(ctx, count, checks)
    }

    /// The daemon's peak RSS is what `wait4` reports at its shutdown.
    fn finish(&mut self, ctx: &Ctx, checks: &mut Checks) -> Option<f64> {
        // Eight evenly spaced campaigns must match a local pfi-campaign.
        let step = (self.done.len() / 8).max(1);
        for done in self.done.iter().step_by(step).take(8) {
            check_against_local(ctx, done, checks);
        }
        let usage = self.stop(checks);
        // One restart on the grown store: every result must read back
        // exactly as it did before.
        if self.restart(ctx, checks).is_some() {
            if let Some(client) = self.client.as_mut() {
                refetch(client, &self.done, checks);
            }
            self.stop(checks);
        }
        self.daemon = None;
        usage.map(|u| u.max_rss_kb as f64 / 1024.0)
    }

    fn traced(&mut self, ctx: &Ctx, checks: &mut Checks) -> Vec<Row> {
        let mut rows = Vec::new();
        if self.start(ctx, checks).is_none() {
            return rows;
        }
        let small = if ctx.check { 100 } else { 1000 };

        // Fresh connection → first pong. The accept loop polls, so this
        // is set by its poll interval, not by the work done.
        let connect_ms: Vec<f64> = (0..if ctx.check { 20 } else { 100 })
            .filter_map(|_| {
                let start = Instant::now();
                let mut c = self.daemon.as_ref()?.connect().ok()?;
                let reply = c.request("ping", false);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                checks
                    .check(reply.as_ref().is_ok_and(|r| r.is_ok()), || {
                        format!("fresh-connection ping: {reply:?}")
                    })
                    .then_some(ms)
            })
            .collect();
        rows.push(Row::samples(W, "daemon.connect_ms_p50", "ms", &connect_ms));
        if let Some(client) = self.client.as_mut() {
            rows.push(Row::samples(
                W,
                "proto.ping_rtt_us_p50",
                "us",
                &ping_rtts(client, 2000, checks),
            ));
        }

        // Phase 1 with every request timed on its own.
        self.batch(ctx, small, checks);
        let column = |f: fn(&Done) -> f64| -> Vec<f64> { self.done.iter().map(f).collect() };
        let total = column(Done::total_ms);
        let wait_p50 = median(&column(|d| d.wait_ms));
        rows.extend([
            Row::samples(W, "daemon.submit_ack_ms_p50", "ms", &column(|d| d.ack_ms)),
            Row::samples(W, "daemon.wait_ms_p50", "ms", &column(|d| d.wait_ms)),
            Row::samples(W, "daemon.results_ms_p50", "ms", &column(|d| d.results_ms)),
            Row::exact(
                W,
                "daemon.time_to_digest_ms_p99",
                "ms",
                percentile(&total, 99.0),
            ),
        ]);
        if !ctx.layers_missing {
            let mut cmd = Command::new(ctx.binary("pfi-bench-layers"));
            cmd.args(["inproc", "--seed", &ctx.seed.to_string(), "--n", "100"]);
            let inproc = proc::helper_rows(&mut cmd, W, checks);
            if let Some(floor) = inproc.first().map(|r| r.summary.median) {
                rows.push(Row::exact(
                    W,
                    "daemon.exec_overhead_share",
                    "ratio",
                    (wait_p50 - floor) / wait_p50,
                ));
            }
        }

        // Phase 2: status polled while big campaigns write their journals.
        let (status_ms, late_ms) =
            self.status_under_load(ctx, if ctx.check { 2 } else { 6 }, checks);
        rows.extend([
            Row::samples(W, "daemon.status_ms_p50", "ms", &status_ms),
            Row::samples(W, "daemon.status_late_ms_p50", "ms", &late_ms),
        ]);

        // What the daemon left on disk, per unit of what it was given.
        self.stop(checks);
        let stored = || self.warm.iter().chain(&self.done);
        let campaigns = stored().count().max(1) as f64;
        let executed = stored().map(|d| d.executed).sum::<u64>().max(1) as f64;
        let budget = stored().map(|d| d.budget).sum::<u64>().max(1) as f64;
        if let Some(daemon) = self.daemon.as_ref() {
            let all = daemon.store_bytes(|_| true) as f64;
            let journals = daemon.store_bytes(|n| n.ends_with(".journal")) as f64;
            let index = daemon.store_bytes(|n| n == "store.index") as f64;
            rows.extend([
                Row::exact(W, "store.bytes_per_candidate", "bytes", all / budget),
                Row::exact(
                    W,
                    "store.journal_bytes_per_exec",
                    "bytes",
                    journals / executed,
                ),
                Row::exact(
                    W,
                    "store.index_bytes_per_campaign",
                    "bytes",
                    index / campaigns,
                ),
            ]);
        }

        // Phase 3: three restarts on the grown store.
        let mut recover_s = Vec::new();
        for restart in 0..3 {
            let Some(s) = self.restart(ctx, checks) else {
                break;
            };
            recover_s.push(s);
            if restart == 0 {
                if let Some(client) = self.client.as_mut() {
                    refetch(client, &self.done, checks);
                }
            }
            self.stop(checks);
        }
        rows.push(Row::samples(W, "daemon.recover_s", "s", &recover_s));
        rows.push(Row::exact(
            W,
            "store.recover_us_per_case",
            "us",
            median(&recover_s) * 1e6 / executed,
        ));
        self.daemon = None;

        // The chaos layer armed but idle against no chaos layer at all:
        // two fresh daemons, pinged in alternating blocks.
        let plain = Daemon::spawn(ctx, self.fresh_dir(ctx, "p"), &[]);
        let chaos = Daemon::spawn(
            ctx,
            self.fresh_dir(ctx, "c"),
            &[
                "--chaos-seed",
                "1",
                "--chaos-wire",
                "0",
                "--chaos-disk",
                "0",
            ],
        );
        match (plain, chaos) {
            (Ok((mut plain, _)), Ok((mut chaos, _))) => {
                if let (Ok(mut p), Ok(mut c)) = (plain.connect(), chaos.connect()) {
                    let (mut plain_us, mut chaos_us) = (Vec::new(), Vec::new());
                    for _ in 0..20 {
                        plain_us.extend(ping_rtts(&mut p, 100, checks));
                        chaos_us.extend(ping_rtts(&mut c, 100, checks));
                    }
                    rows.push(Row::exact(
                        W,
                        "faultio.idle_rtt_delta_us",
                        "us",
                        median(&chaos_us) - median(&plain_us),
                    ));
                }
                plain.shutdown(checks);
                chaos.shutdown(checks);
            }
            (p, c) => checks.fail(format!("faultio daemons: {:?} / {:?}", p.err(), c.err())),
        }
        rows
    }
}
