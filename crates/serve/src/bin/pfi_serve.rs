//! The pfi-serve CLI: start the campaign daemon, or talk to a running
//! one (submit / status / results / corpus / shutdown).
//!
//! ```text
//! pfi-serve start --store DIR --socket /tmp/pfi.sock [--jobs 4]
//! pfi-serve start --store DIR --addr 127.0.0.1:4915
//! pfi-serve submit --socket /tmp/pfi.sock gmp --seed 42 --budget 64 --wait
//! pfi-serve status --socket /tmp/pfi.sock --watch
//! pfi-serve results --socket /tmp/pfi.sock --id c1
//! pfi-serve corpus --socket /tmp/pfi.sock gmp
//! pfi-serve shutdown --socket /tmp/pfi.sock
//! ```

use pfi_serve::{
    daemon, Bind, CampaignParams, Client, DaemonOptions, FaultConfig, Reply, Request, RetryClient,
    RetryPolicy, ServiceLimits,
};
use pfi_testgen::{unknown_protocol, BUNDLED};

const HELP: &str = "pfi-serve — persistent campaign daemon and client

USAGE:
    pfi-serve COMMAND [FLAGS]

COMMANDS:
    start      run the daemon (blocks until `pfi-serve shutdown`)
    submit     queue a campaign on a running daemon
    status     one line per campaign (state, exec/s, coverage, queue depth)
    results    a finished campaign's digest, counters, and repro artifacts
    corpus     print a target's shared corpus pool
    ping       liveness probe
    shutdown   finish the running campaign, keep queued ones for next start

CONNECTION (all commands):
    --addr HOST:PORT  TCP listen/connect address
    --socket PATH     Unix domain socket (mutually exclusive with --addr)

start FLAGS:
    --store DIR       store directory (required; created if missing);
                      campaigns found unfinished in it resume immediately
    --jobs N          fleet workers: the executor thread plus N-1 spawned
                      ones, so --jobs 1 spawns none (0/omitted = auto-detect)
    --read-timeout S  per-connection read deadline, seconds (default 30);
                      a slow-loris peer is dropped when it fires
    --write-timeout S per-connection write deadline, seconds (default 30)
    --max-conns N     concurrent connection cap (default 64); accepting
                      over the cap evicts the oldest-idle connection
    --max-line N      longest accepted request line, bytes (default 65536)
    --max-payload N   largest reply payload, bytes (default 16777216)
    --chaos-seed N    CHAOS TESTING ONLY: run the daemon's own wire and
                      disk I/O through the deterministic fault layer
    --chaos-wire N    wire-fault probability, per-mille (default 100)
    --chaos-disk N    disk-fault probability, per-mille (default 100)
    --chaos-budget N  total injected-fault cap (default 128)

submit FLAGS (after the protocol name: gmp, tcp, or tpc):
    --ident TOK       idempotency token ([A-Za-z0-9._-], <=64 bytes); a
                      resubmit with the same token dedupes to the
                      original campaign instead of double-running
                      (default: a fresh token per invocation, so the
                      client's own reconnect-and-retry never double-runs)
    --seed N --budget N --max-faults N --epoch N --step-budget N
    --buggy           gmp with the paper's seeded bugs
    --fault-secs N    gmp fault-window length (default 60; 5 = loop-heavy)
    --no-prefilter    run statically-invalid candidates
    --no-snapshots    rebuild every world instead of forking snapshots
    --share-corpus    seed from the store's corpus pool for this target
    --wait            block until the campaign finishes, print its
                      results, and exit with the campaign's exit code
                      (0 clean / 1 violations / 3 infrastructure)
    submit reconnects and retries torn exchanges (8 attempts, seeded
    exponential backoff); `wait` and `results` resume by campaign id

status FLAGS:
    --id cN           only this campaign
    --watch           re-poll every second until interrupted

results FLAGS:
    --id cN           required

EXIT CODES:
    0 ok; 1 violations (submit --wait); 2 usage; 3 infrastructure trouble
";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn daemon_addr(args: &[String]) -> String {
    match (flag_str(args, "--addr"), flag_str(args, "--socket")) {
        (Some(a), None) => a,
        (None, Some(s)) => s,
        _ => fail("exactly one of --addr or --socket is required"),
    }
}

fn connect(args: &[String]) -> Client {
    let target = daemon_addr(args);
    match Client::connect(&target) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {target}: {e}");
            std::process::exit(3);
        }
    }
}

fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_num(args: &[String], name: &str) -> Option<u64> {
    flag_str(args, name).and_then(|v| v.parse().ok())
}

/// First non-flag argument after the subcommand, skipping each
/// value-taking flag's value — so `submit --socket s.sock tcp` finds
/// `tcp` no matter where the flags sit.
fn positional(args: &[String]) -> Option<String> {
    const VALUE_FLAGS: [&str; 21] = [
        "--addr",
        "--socket",
        "--store",
        "--jobs",
        "--seed",
        "--budget",
        "--max-faults",
        "--epoch",
        "--step-budget",
        "--fault-secs",
        "--id",
        "--ident",
        "--read-timeout",
        "--write-timeout",
        "--max-conns",
        "--max-line",
        "--max-payload",
        "--chaos-seed",
        "--chaos-wire",
        "--chaos-disk",
        "--chaos-budget",
    ];
    let mut i = 1;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            i += if VALUE_FLAGS.contains(&a) { 2 } else { 1 };
        } else {
            return Some(args[i].clone());
        }
    }
    None
}

fn ok_or_die(reply: std::io::Result<Reply>) -> Reply {
    match reply {
        Ok(reply) if reply.ok => reply,
        Ok(reply) => {
            eprintln!("daemon refused: {}", reply.head);
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            std::process::exit(3);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    match args[0].as_str() {
        "start" => {
            let store =
                flag_str(&args, "--store").unwrap_or_else(|| fail("start requires --store DIR"));
            let bind = match (flag_str(&args, "--addr"), flag_str(&args, "--socket")) {
                (Some(a), None) => Bind::Tcp(a),
                (None, Some(s)) => Bind::Unix(s.into()),
                _ => fail("start requires exactly one of --addr or --socket"),
            };
            let mut limits = ServiceLimits::default();
            if let Some(s) = flag_num(&args, "--read-timeout") {
                limits.read_timeout = std::time::Duration::from_secs(s.max(1));
            }
            if let Some(s) = flag_num(&args, "--write-timeout") {
                limits.write_timeout = std::time::Duration::from_secs(s.max(1));
            }
            if let Some(n) = flag_num(&args, "--max-conns") {
                limits.max_conns = (n as usize).max(1);
            }
            if let Some(n) = flag_num(&args, "--max-line") {
                limits.max_line = (n as usize).max(64);
            }
            if let Some(n) = flag_num(&args, "--max-payload") {
                limits.max_payload = (n as usize).max(1024);
            }
            let chaos = flag_num(&args, "--chaos-seed").map(|seed| {
                let defaults = FaultConfig::default();
                FaultConfig {
                    seed,
                    wire_permille: flag_num(&args, "--chaos-wire")
                        .map(|n| n.min(1000) as u16)
                        .unwrap_or(defaults.wire_permille),
                    disk_permille: flag_num(&args, "--chaos-disk")
                        .map(|n| n.min(1000) as u16)
                        .unwrap_or(defaults.disk_permille),
                    max_faults: flag_num(&args, "--chaos-budget").unwrap_or(defaults.max_faults),
                    ..defaults
                }
            });
            let opts = DaemonOptions {
                store: store.into(),
                bind,
                jobs: flag_num(&args, "--jobs").unwrap_or(0) as usize,
                limits,
                chaos,
            };
            if let Err(e) = daemon::run(opts) {
                eprintln!("daemon failed: {e}");
                std::process::exit(3);
            }
        }

        "submit" => {
            let mut params = CampaignParams::default();
            match positional(&args) {
                Some(proto) if BUNDLED.contains(&proto.as_str()) => params.proto = proto,
                Some(other) => fail(&unknown_protocol(&other)),
                None => fail(&format!("submit needs a protocol: {}", BUNDLED.join(", "))),
            }
            if let Some(v) = flag_num(&args, "--seed") {
                params.seed = v;
            }
            if let Some(v) = flag_num(&args, "--budget") {
                params.budget = v as usize;
            }
            if let Some(v) = flag_num(&args, "--max-faults") {
                params.max_faults = v as usize;
            }
            if let Some(v) = flag_num(&args, "--epoch") {
                params.epoch = (v as usize).max(1);
            }
            if let Some(v) = flag_num(&args, "--step-budget") {
                params.step_budget = v;
            }
            if let Some(v) = flag_num(&args, "--fault-secs") {
                params.fault_secs = v;
            }
            params.buggy = args.iter().any(|a| a == "--buggy");
            params.prefilter = !args.iter().any(|a| a == "--no-prefilter");
            params.snapshots = !args.iter().any(|a| a == "--no-snapshots");
            params.share_corpus = args.iter().any(|a| a == "--share-corpus");

            // Every submit carries an ident — the caller's, or a fresh
            // one per invocation — so a retry after a torn ack dedupes
            // server-side instead of double-running the campaign.
            let ident = flag_str(&args, "--ident").unwrap_or_else(|| {
                let nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos());
                format!("cli-{nanos:x}-{:x}", std::process::id())
            });
            let mut client = RetryClient::new(&daemon_addr(&args), RetryPolicy::default());
            let reply = ok_or_die(client.call(&Request::Submit {
                params,
                ident: Some(ident),
            }));
            let id = reply
                .get("id")
                .unwrap_or_else(|| fail("daemon reply carried no campaign id"))
                .to_string();
            let dedup = if reply.get("deduped") == Some("1") {
                " [deduplicated]"
            } else {
                ""
            };
            println!(
                "submitted {id} ({} seed schedule(s)){dedup}",
                reply.get("seeds").unwrap_or("0")
            );
            if args.iter().any(|a| a == "--wait") {
                let wait = ok_or_die(client.call(&Request::Wait { id: id.clone() }));
                let results = ok_or_die(client.call(&Request::Results { id }));
                for line in &results.payload {
                    println!("{line}");
                }
                if client.retries > 0 {
                    eprintln!("healed {} torn exchange(s) by reconnecting", client.retries);
                }
                let exit: i32 = wait.get("exit").and_then(|e| e.parse().ok()).unwrap_or(3);
                std::process::exit(exit);
            }
        }

        "status" => {
            let mut client = connect(&args);
            let id = flag_str(&args, "--id");
            let watch = args.iter().any(|a| a == "--watch");
            loop {
                let reply = ok_or_die(client.call(&Request::Status { id: id.clone() }));
                println!("campaigns: {}", reply.get("campaigns").unwrap_or("?"));
                for line in &reply.payload {
                    println!("  {line}");
                }
                if !watch {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_secs(1));
            }
        }

        "results" => {
            let id = flag_str(&args, "--id").unwrap_or_else(|| fail("results requires --id cN"));
            let mut client = connect(&args);
            let reply = ok_or_die(client.call(&Request::Results { id }));
            for line in &reply.payload {
                println!("{line}");
            }
            let exit: i32 = reply.get("exit").and_then(|e| e.parse().ok()).unwrap_or(0);
            std::process::exit(exit);
        }

        "corpus" => {
            let key = positional(&args)
                .unwrap_or_else(|| fail("corpus needs a target key (e.g. gmp, gmp-fs5)"));
            let mut client = connect(&args);
            let reply = ok_or_die(client.call(&Request::Corpus { key }));
            println!(
                "corpus pool: {} schedule(s)",
                reply.get("schedules").unwrap_or("0")
            );
            for line in &reply.payload {
                println!("  {line}");
            }
        }

        "ping" => {
            let mut client = connect(&args);
            let reply = ok_or_die(client.call(&Request::Ping));
            // The head carries the service-boundary counters.
            println!("{}", reply.head);
        }

        "shutdown" => {
            let mut client = connect(&args);
            ok_or_die(client.call(&Request::Shutdown));
            println!("daemon stopping");
        }

        other => fail(&format!("unknown command {other:?} (try --help)")),
    }
}
