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

use std::time::Duration;

use pfi_serve::{
    daemon, Bind, Client, DaemonOptions, FaultConfig, Reply, Request, RetryPolicy, ServiceLimits,
};
use pfi_testgen::{Flags, Takes, BUNDLED, CAMPAIGN_FLAGS, CAMPAIGN_HELP};

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

submit PROTOCOL [CAMPAIGN FLAGS] [FLAGS] (PROTOCOL: gmp, tcp, or tpc):
    --ident TOK       idempotency token ([A-Za-z0-9._-], <=64 bytes); a
                      resubmit with the same token dedupes to the
                      original campaign instead of double-running
                      (default: a fresh token per invocation, so the
                      client's own reconnect-and-retry never double-runs)
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

corpus TARGET-KEY (e.g. gmp, gmp-buggy, gmp-fs5)

";

const EXIT_HELP: &str = "
EXIT CODES:
    0 ok; 1 violations (submit --wait); 2 usage; 3 infrastructure trouble
";

const CONNECTION: [(&str, Takes); 2] = [("--addr", Takes::Text), ("--socket", Takes::Text)];

const START: [(&str, Takes); 11] = [
    ("--store", Takes::Text),
    ("--jobs", Takes::Number),
    ("--read-timeout", Takes::Number),
    ("--write-timeout", Takes::Number),
    ("--max-conns", Takes::Number),
    ("--max-line", Takes::Number),
    ("--max-payload", Takes::Number),
    ("--chaos-seed", Takes::Number),
    ("--chaos-wire", Takes::Number),
    ("--chaos-disk", Takes::Number),
    ("--chaos-budget", Takes::Number),
];

/// `submit`'s flags besides [`CAMPAIGN_FLAGS`].
const SUBMIT: [(&str, Takes); 3] = [
    ("--ident", Takes::Text),
    ("--share-corpus", Takes::Nothing),
    ("--wait", Takes::Nothing),
];

const STATUS: [(&str, Takes); 2] = [("--id", Takes::Text), ("--watch", Takes::Nothing)];

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The one address `--addr` or `--socket` names.
fn daemon_addr(flags: &Flags) -> &str {
    match (flags.text("--addr"), flags.text("--socket")) {
        (Some(addr), None) | (None, Some(addr)) => addr,
        _ => fail("exactly one of --addr or --socket is required"),
    }
}

fn connect(flags: &Flags) -> Client {
    let target = daemon_addr(flags);
    Client::connect(target).unwrap_or_else(|e| {
        eprintln!("cannot connect to {target}: {e}");
        std::process::exit(3);
    })
}

fn ok_or_die<T>(reply: std::io::Result<T>) -> T {
    reply.unwrap_or_else(|e| {
        eprintln!("request failed: {e}");
        std::process::exit(3);
    })
}

/// Sends `req` and exits 3 unless the daemon answers `ok`.
fn call(client: &mut Client, req: &Request) -> Reply {
    let reply = ok_or_die(client.call(req));
    if !reply.ok {
        eprintln!("daemon refused: {}", reply.head);
        std::process::exit(3);
    }
    reply
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}{CAMPAIGN_HELP}{EXIT_HELP}");
        return;
    }
    let command = args[0].as_str();
    let (flags, positionals) = match command {
        "start" => (START.to_vec(), 0),
        "submit" => ([&CAMPAIGN_FLAGS[..], &SUBMIT].concat(), 1),
        "status" => (STATUS.to_vec(), 0),
        "results" => (vec![("--id", Takes::Text)], 0),
        "corpus" => (vec![], 1),
        "ping" | "shutdown" => (vec![], 0),
        other => fail(&format!("unknown command {other:?} (try --help)")),
    };
    let flags = Flags::parse(&args[1..], &[&CONNECTION[..], &flags].concat(), positionals)
        .unwrap_or_else(|e| fail(&format!("{command}: {e} (try --help)")));
    match command {
        "start" => {
            let store = flags
                .text("--store")
                .unwrap_or_else(|| fail("start requires --store DIR"));
            let bind = match daemon_addr(&flags) {
                addr if flags.has("--addr") => Bind::Tcp(addr.to_string()),
                path => Bind::Unix(path.into()),
            };
            // Each limit has a floor, so a zero cannot wedge the daemon.
            let at_least = |name, floor| flags.number(name).map(|n: u64| n.max(floor));
            let secs = |name| at_least(name, 1).map(Duration::from_secs);
            let mut limits = ServiceLimits::default();
            limits.read_timeout = secs("--read-timeout").unwrap_or(limits.read_timeout);
            limits.write_timeout = secs("--write-timeout").unwrap_or(limits.write_timeout);
            let size = |name, floor, default| at_least(name, floor).map_or(default, |n| n as usize);
            limits.max_conns = size("--max-conns", 1, limits.max_conns);
            limits.max_line = size("--max-line", 64, limits.max_line);
            limits.max_payload = size("--max-payload", 1024, limits.max_payload);
            let permille =
                |name, default| flags.number(name).map_or(default, |n| n.min(1000) as u16);
            let chaos = flags.number("--chaos-seed").map(|seed| {
                let defaults = FaultConfig::default();
                FaultConfig {
                    seed,
                    wire_permille: permille("--chaos-wire", defaults.wire_permille),
                    disk_permille: permille("--chaos-disk", defaults.disk_permille),
                    max_faults: flags
                        .number("--chaos-budget")
                        .unwrap_or(defaults.max_faults),
                    ..defaults
                }
            });
            let opts = DaemonOptions {
                store: store.into(),
                bind,
                jobs: flags.jobs(),
                limits,
                chaos,
            };
            if let Err(e) = daemon::run(opts) {
                eprintln!("daemon failed: {e}");
                std::process::exit(3);
            }
        }

        "submit" => {
            if flags.positional.is_empty() {
                fail(&format!("submit needs a protocol: {}", BUNDLED.join(", ")));
            }
            let mut params = flags.campaign().unwrap_or_else(|e| fail(&e));
            params.share_corpus = flags.has("--share-corpus");
            // Every submit carries an ident — the caller's, or a fresh
            // one per invocation — so a retry after a torn ack dedupes
            // server-side instead of double-running the campaign.
            let ident = flags.text("--ident").map_or_else(
                || {
                    let nanos = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map_or(0, |d| d.as_nanos());
                    format!("cli-{nanos:x}-{:x}", std::process::id())
                },
                str::to_string,
            );
            let mut client = Client::new(daemon_addr(&flags), RetryPolicy::default());
            let ack = ok_or_die(client.submit(&params, &ident));
            let dedup = if ack.deduped { " [deduplicated]" } else { "" };
            println!(
                "submitted {} ({} seed schedule(s)){dedup}",
                ack.id, ack.seeds
            );
            if flags.has("--wait") {
                let wait = call(&mut client, &Request::Wait { id: ack.id.clone() });
                let results = call(&mut client, &Request::Results { id: ack.id });
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
            let mut client = connect(&flags);
            let id = flags.text("--id").map(str::to_string);
            loop {
                let reply = call(&mut client, &Request::Status { id: id.clone() });
                println!("campaigns: {}", reply.get("campaigns").unwrap_or("?"));
                for line in &reply.payload {
                    println!("  {line}");
                }
                if !flags.has("--watch") {
                    break;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        }

        "results" => {
            let id = flags
                .text("--id")
                .unwrap_or_else(|| fail("results requires --id cN"))
                .to_string();
            let reply = call(&mut connect(&flags), &Request::Results { id });
            for line in &reply.payload {
                println!("{line}");
            }
            let exit: i32 = reply.get("exit").and_then(|e| e.parse().ok()).unwrap_or(0);
            std::process::exit(exit);
        }

        "corpus" => {
            let key = flags
                .positional
                .first()
                .unwrap_or_else(|| fail("corpus needs a target key (e.g. gmp, gmp-fs5)"))
                .clone();
            let reply = call(&mut connect(&flags), &Request::Corpus { key });
            println!(
                "corpus pool: {} schedule(s)",
                reply.get("schedules").unwrap_or("0")
            );
            for line in &reply.payload {
                println!("  {line}");
            }
        }

        "ping" => {
            // The head carries the service-boundary counters.
            println!("{}", call(&mut connect(&flags), &Request::Ping).head);
        }

        "shutdown" => {
            call(&mut connect(&flags), &Request::Shutdown);
            println!("daemon stopping");
        }

        _ => unreachable!("every command has a flag table above"),
    }
}
