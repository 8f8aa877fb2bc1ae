//! Chaos acceptance: PFI turned on pfi-serve itself.
//!
//! A real `pfi-serve` process runs with `--chaos-seed N`, which routes
//! every accepted connection and every store write through the
//! deterministic fault layer ([`pfi_serve::faultio`]): short reads,
//! injected EINTR/EAGAIN, mid-frame disconnects, byte delays, short
//! writes, fsync failures, ENOSPC. Against that adversary the suite pins
//! the invariants the hardening exists for:
//!
//! 1. **Survival & determinism** (seed sweep, `PFI_CHAOS_SEEDS` seeds,
//!    default 16): a campaign submitted through the self-healing
//!    retrying [`Client`] completes with a digest byte-identical to the
//!    clean-path inline run, under every fault schedule. Zero daemon
//!    panics.
//! 2. **Idempotency**: resubmitting the same identity token through the
//!    flaky link returns the same campaign id with `deduped=1` — one
//!    run, never two.
//! 3. **Store integrity**: after the chaos daemon exits, a fresh daemon
//!    *without* chaos reconstructs the store and serves the same digest —
//!    no injected fault sequence corrupts acknowledged state.
//! 4. **Boundary limits** (no chaos needed): slow-loris connections are
//!    dropped at the read deadline, oversized and garbage request lines
//!    are rejected without unbounded buffering, and the connection cap
//!    evicts the oldest-idle connection instead of refusing newcomers.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pfi_serve::proto::{parse_kv, Ack, Client, Request, RetryPolicy};
use pfi_serve::CampaignParams;
use pfi_testgen::{explore, ExploreConfig, GmpTarget, ProtocolSpec};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pfi_chaos_{}_{name}", std::process::id()))
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    stderr: PathBuf,
}

impl Daemon {
    /// Spawns `pfi-serve start` with extra flags, stderr teed to a file
    /// so the suite can assert the absence of panics afterwards.
    fn start(store: &Path, socket: &Path, extra: &[&str]) -> Daemon {
        std::fs::remove_file(socket).ok();
        let stderr = socket.with_extension("stderr");
        std::fs::remove_file(&stderr).ok();
        let log = std::fs::File::create(&stderr).expect("stderr log");
        let mut args = vec![
            "start",
            "--store",
            store.to_str().unwrap(),
            "--socket",
            socket.to_str().unwrap(),
            "--jobs",
            "2",
        ];
        args.extend_from_slice(extra);
        let child = Command::new(env!("CARGO_BIN_EXE_pfi-serve"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn pfi-serve");
        Daemon {
            child,
            socket: socket.to_path_buf(),
            stderr,
        }
    }

    fn addr(&self) -> &str {
        self.socket.to_str().unwrap()
    }

    /// Waits (through the retrying client — the daemon may be injecting
    /// faults into the very ping that proves it is up) until the daemon
    /// answers.
    fn await_up(&self, client: &mut Client) {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(r) = client.call(&Request::Ping) {
                if r.ok {
                    return;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not come up within 30s"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Graceful stop that tolerates the stop exchange itself being
    /// fault-injected: the `shutdown` ack may tear, but the daemon acts
    /// on the request regardless, so we watch the process, not the reply.
    fn shutdown_and_join(mut self) -> String {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(mut c) = Client::connect(self.socket.to_str().unwrap()) {
                let _ = c.call(&Request::Shutdown);
            }
            let wait_until = Instant::now() + Duration::from_secs(2);
            while Instant::now() < wait_until {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return std::fs::read_to_string(&self.stderr).unwrap_or_default();
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            assert!(Instant::now() < deadline, "daemon did not exit within 60s");
        }
    }
}

fn params(seed: u64, budget: usize) -> CampaignParams {
    CampaignParams {
        seed,
        budget,
        max_faults: 3,
        epoch: 8,
        ..CampaignParams::default()
    }
}

/// The clean-path reference digest: same campaign, in process, no
/// daemon, no faults.
fn inline_digest(p: &CampaignParams) -> String {
    let cfg: ExploreConfig = p.to_config();
    let target = GmpTarget {
        fault_secs: p.fault_secs,
        ..GmpTarget::default()
    };
    explore(&target, &ProtocolSpec::gmp(), &cfg).digest64()
}

fn sweep_seeds() -> u64 {
    std::env::var("PFI_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// The tentpole invariant, swept across fault schedules: under every
/// seeded fault schedule the campaign completes through the retrying
/// client with the clean-path digest, the resubmitted identity dedupes,
/// the daemon never panics, and a chaos-free restart over the surviving
/// store serves the same digest (the store was never corrupted).
#[test]
fn chaos_sweep_campaigns_survive_with_clean_digests() {
    let seeds = sweep_seeds();
    let p = params(42, 24);
    let golden = inline_digest(&p);
    let mut survived = 0u64;
    let mut total_retries = 0u64;
    let mut total_deduped = 0u64;
    println!("chaos-seed  survived  client-retries  deduped  wire-faults  disk-faults");
    for seed in 1..=seeds {
        let store = tmp(&format!("sweep{seed}_store"));
        let socket = tmp(&format!("sweep{seed}.sock"));
        std::fs::remove_dir_all(&store).ok();
        let seed_flag = seed.to_string();
        let daemon = Daemon::start(
            &store,
            &socket,
            &[
                "--chaos-seed",
                &seed_flag,
                "--chaos-wire",
                "250",
                "--chaos-disk",
                "250",
                "--chaos-budget",
                "48",
                "--read-timeout",
                "5",
            ],
        );
        let mut client = Client::new(
            daemon.addr(),
            RetryPolicy {
                attempts: 12,
                base_ms: 5,
                cap_ms: 100,
                seed,
            },
        );
        daemon.await_up(&mut client);

        let ident = format!("chaos-sweep-{seed}");
        // `deduped` may already be true here: if the first ack tore on
        // the wire, the healed retry finds its own ident — exactly the
        // contract working.
        let Ack { id, .. } = client.submit(&p, &ident).expect("submit through chaos");

        // Resubmit the same identity through the same flaky link: the
        // daemon must hand back the SAME campaign, not start another.
        let Ack {
            id: id2, deduped, ..
        } = client.submit(&p, &ident).expect("resubmit through chaos");
        assert_eq!(id2, id, "identical identity must dedupe to one campaign");
        assert!(deduped, "the resubmit must be flagged deduped");
        total_deduped += 1;

        let reply = client
            .call(&Request::Wait { id: id.clone() })
            .expect("wait through chaos");
        assert!(reply.ok, "wait refused: {}", reply.head);
        let digest = reply.get("digest").expect("wait digest").to_string();
        assert_eq!(
            digest, golden,
            "chaos seed {seed}: the service faults must never perturb the campaign outcome"
        );

        // Pull the injection counters before stopping, for the record.
        let ping = client.call(&Request::Ping).expect("ping through chaos");
        let head = ping.head.clone();
        let kv = parse_kv(&head);
        let wire: u64 = kv
            .get("wire-faults")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let disk: u64 = kv
            .get("disk-faults")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);

        let stderr = daemon.shutdown_and_join();
        assert!(
            !stderr.contains("panicked"),
            "chaos seed {seed}: daemon panicked:\n{stderr}"
        );

        // Store integrity: a chaos-free daemon over the same store must
        // reconstruct the campaign and serve the same digest.
        let socket2 = tmp(&format!("sweep{seed}_verify.sock"));
        let daemon = Daemon::start(&store, &socket2, &[]);
        let mut verify = Client::new(daemon.addr(), RetryPolicy::default());
        daemon.await_up(&mut verify);
        let reply = verify
            .call(&Request::Wait { id: id.clone() })
            .expect("wait on reconstructed store");
        assert!(reply.ok, "reconstructed wait refused: {}", reply.head);
        assert_eq!(
            reply.get("digest").unwrap(),
            golden,
            "chaos seed {seed}: restart over the surviving store must reconstruct, not diverge"
        );
        daemon.shutdown_and_join();

        survived += 1;
        total_retries += client.retries;
        println!(
            "{seed:>10}  {:>8}  {:>14}  {:>7}  {wire:>11}  {disk:>11}",
            "yes", client.retries, 1
        );
        std::fs::remove_dir_all(&store).ok();
        std::fs::remove_file(&socket).ok();
        std::fs::remove_file(&socket2).ok();
    }
    println!(
        "swept {seeds} fault schedules: {survived} survived, \
         {total_retries} client retries, {total_deduped} resubmits deduped"
    );
    assert_eq!(survived, seeds);
}

/// Idempotency pinned without chaos noise: same token, same campaign;
/// same token with different params is refused; dedup survives a daemon
/// restart (the token rides the persisted index).
#[test]
fn idempotent_resubmission_runs_once() {
    let store = tmp("ident_store");
    let socket = tmp("ident.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket, &[]);
    let mut client = Client::new(daemon.addr(), RetryPolicy::default());
    daemon.await_up(&mut client);

    let p = params(7, 8);
    let Ack {
        id,
        deduped: first_dedup,
        ..
    } = client.submit(&p, "job-1").unwrap();
    assert!(!first_dedup);
    let Ack {
        id: id2,
        deduped: dedup,
        ..
    } = client.submit(&p, "job-1").unwrap();
    assert_eq!(id2, id);
    assert!(dedup);

    // Same token, different campaign: refused, not silently remapped.
    let other = params(8, 8);
    let err = client.submit(&other, "job-1").unwrap_err();
    assert!(
        err.to_string().contains("ident reused"),
        "expected an ident-reuse refusal, got: {err}"
    );

    // Exactly one campaign exists.
    let status = client.call(&Request::Status { id: None }).unwrap();
    assert_eq!(status.get("campaigns"), Some("1"));

    let reply = client.call(&Request::Wait { id: id.clone() }).unwrap();
    assert!(reply.ok);
    daemon.shutdown_and_join();

    // Restart: the ident map is rebuilt from the index, so the dedup
    // contract survives the daemon's death.
    let socket2 = tmp("ident2.sock");
    let daemon = Daemon::start(&store, &socket2, &[]);
    let mut client = Client::new(daemon.addr(), RetryPolicy::default());
    daemon.await_up(&mut client);
    let Ack {
        id: id3,
        deduped: dedup,
        ..
    } = client.submit(&p, "job-1").unwrap();
    assert_eq!(id3, id);
    assert!(dedup, "dedup must survive a restart");
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
}

/// A peer that sends half a request line and goes silent must be
/// dropped at the read deadline — and the daemon must keep serving
/// everyone else afterwards.
#[test]
fn slow_loris_is_dropped_at_the_read_deadline() {
    let store = tmp("loris_store");
    let socket = tmp("loris.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket, &["--read-timeout", "1"]);
    let mut client = Client::new(daemon.addr(), RetryPolicy::default());
    daemon.await_up(&mut client);

    let mut loris = UnixStream::connect(&socket).unwrap();
    loris.write_all(b"pi").unwrap(); // half a request, never a newline
    loris.flush().unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    let mut buf = [0u8; 64];
    // The daemon must close the connection: read returns 0 (EOF after
    // its shutdown) or an error — within the deadline plus slack, far
    // below the 30s the suite would otherwise hang.
    let n = loris.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the dribbling connection must be closed, not served");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "slow-loris drop took {:?}, deadline is 1s",
        started.elapsed()
    );

    // The daemon is still alive and counted the timeout.
    let ping = client.call(&Request::Ping).unwrap();
    assert!(ping.ok);
    let timeouts: u64 = ping.get("timeouts").unwrap().parse().unwrap();
    assert!(timeouts >= 1, "timeout stat must count the dropped loris");
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
}

/// Oversized request lines are rejected without unbounded buffering (the
/// connection closes — the unread tail cannot be resynced); garbage
/// bytes (NUL) get a protocol `err` and the connection keeps working.
#[test]
fn oversized_and_garbage_request_lines_are_rejected() {
    let store = tmp("bounds_store");
    let socket = tmp("bounds.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket, &["--max-line", "256"]);
    let mut client = Client::new(daemon.addr(), RetryPolicy::default());
    daemon.await_up(&mut client);

    // Oversized: a 4 KiB line against a 256 B cap.
    let mut big = UnixStream::connect(&socket).unwrap();
    big.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    big.write_all(&vec![b'x'; 4096]).unwrap();
    // The daemon nacks and closes as soon as it has read past the cap, so
    // this write races a legitimate close and may fail with EPIPE.
    let _ = big.write_all(b"\n");
    let mut reply = String::new();
    big.read_to_string(&mut reply).ok(); // daemon nacks then closes
    assert!(
        reply.starts_with("err ") && reply.contains("cap"),
        "oversized line must be nacked with the cap, got: {reply:?}"
    );

    // Garbage: an embedded NUL is rejected, but the framing survives and
    // the same connection then serves a clean ping.
    let mut dirty = UnixStream::connect(&socket).unwrap();
    dirty
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    dirty.write_all(b"pi\0ng\n").unwrap();
    let mut r = std::io::BufReader::new(dirty.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut r, &mut line).unwrap();
    assert!(
        line.starts_with("err ") && line.contains("NUL"),
        "NUL must be rejected explicitly, got: {line:?}"
    );
    dirty.write_all(b"ping\n").unwrap();
    line.clear();
    std::io::BufRead::read_line(&mut r, &mut line).unwrap();
    assert!(
        line.starts_with("ok "),
        "the connection must survive a garbage line, got: {line:?}"
    );

    let ping = client.call(&Request::Ping).unwrap();
    let oversize: u64 = ping.get("oversize").unwrap().parse().unwrap();
    let garbage: u64 = ping.get("garbage").unwrap().parse().unwrap();
    assert!(oversize >= 1, "oversize stat must count");
    assert!(garbage >= 1, "garbage stat must count");
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
}

/// With `--max-conns 2`, a third connection evicts the oldest-idle one:
/// the newcomer is served, the evicted peer sees EOF, and the stat
/// counts it.
#[test]
fn connection_cap_evicts_the_oldest_idle_connection() {
    let store = tmp("cap_store");
    let socket = tmp("cap.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket, &["--max-conns", "2"]);
    // Readiness probe uses its own short-lived connections; those come
    // and go before the capped trio below.
    let mut probe = Client::new(daemon.addr(), RetryPolicy::default());
    daemon.await_up(&mut probe);
    drop(probe); // frees its slot…
    std::thread::sleep(Duration::from_millis(200)); // …once the daemon reaps the EOF

    let ping_on = |s: &mut UnixStream| {
        s.write_all(b"ping\n").unwrap();
        let mut r = std::io::BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        std::io::BufRead::read_line(&mut r, &mut line).unwrap();
        assert!(line.starts_with("ok "), "ping failed: {line:?}");
    };

    let mut a = UnixStream::connect(&socket).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    ping_on(&mut a);
    std::thread::sleep(Duration::from_millis(50)); // make A measurably older
    let mut b = UnixStream::connect(&socket).unwrap();
    ping_on(&mut b);

    // C arrives over the cap: A (oldest idle) must be evicted.
    let mut c = UnixStream::connect(&socket).unwrap();
    ping_on(&mut c);

    let mut buf = [0u8; 16];
    let n = a.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "the oldest-idle connection must be hard-closed");

    // B and C still work, and the eviction was counted.
    ping_on(&mut b);
    b.write_all(b"ping\n").unwrap();
    let mut r = std::io::BufReader::new(b.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut r, &mut line).unwrap();
    let evicted: u64 = parse_kv(line.trim_start_matches("ok ").trim())
        .get("evicted")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(evicted >= 1, "eviction stat must count, head: {line:?}");
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
}
