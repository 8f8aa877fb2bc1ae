//! The pfi-serve wire protocol: line-oriented text over TCP or a Unix
//! socket, usable with nothing fancier than `nc`.
//!
//! Grammar (one request per line; `k=v` tokens separated by spaces):
//!
//! ```text
//! request  = "submit" SP params [SP "ident=" TOK] | "status" [SP "id=" ID]
//!          | "results" SP "id=" ID | "corpus" SP "key=" KEY
//!          | "wait" SP "id=" ID | "ping" | "shutdown"
//! params   = "proto=" NAME SP "seed=" N SP "budget=" N SP "max-faults=" N
//!            SP "epoch=" N SP "buggy=" B SP "fault-secs=" N SP "prefilter=" B
//!            SP "snapshots=" B SP "step-budget=" N SP "share-corpus=" B
//! reply    = ("ok" [SP kv*] | "err" SP message) NL [payload]
//! payload  = *(line NL) "." NL        ; only for status / results / corpus
//! ```
//!
//! `prefilter=` B is checked and ignored (admission refuses what cannot
//! install); it is still written as `1` for readers that require it.
//! `params` may also carry `pruning=` B and `semantic=` B, the switches of
//! the retired prune tiers: older clients send them and older store
//! indexes hold them. All three are checked and ignored, and may be absent.
//!
//! Payload lines are dot-stuffed (a line starting with `.` is sent as
//! `..`), and the payload is terminated by a lone `.` — the SMTP framing,
//! chosen because repro artifacts are multi-line free text. Whether a
//! reply carries a payload is a function of the *request* verb, so the
//! client never guesses.
//!
//! A wire line is a line of the one line codec, and a stream that ends
//! mid-line is torn like a file that does (DESIGN.md, "Line files and
//! torn tails").

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use pfi_testgen::{lines, unknown_protocol, CampaignParams, BUNDLED};

/// Budget caps for the protocol readers. Every reader in this module is
/// bounded: a peer can never make the other side buffer without limit,
/// whether by an endless request line or an unterminated dot-stuffed
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoLimits {
    /// Longest accepted single line (request, reply head, or payload
    /// line), newline excluded.
    pub max_line: usize,
    /// Total byte budget for one reply's payload block.
    pub max_payload: usize,
}

impl Default for ProtoLimits {
    fn default() -> Self {
        ProtoLimits {
            max_line: 64 * 1024,
            max_payload: 16 * 1024 * 1024,
        }
    }
}

/// The outcome of one bounded line read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineOutcome {
    /// Clean end of stream before any byte of a new line.
    Eof,
    /// A complete line, [`lines::decode`]d.
    Line(String),
    /// The line exceeded the cap. The rest of it is not consumed — the
    /// only safe continuation is closing the connection.
    TooLong,
    /// The line failed [`lines::decode`]; the reason names the offense.
    Garbage(&'static str),
}

/// Reads one protocol line without ever buffering more than `max_line`
/// bytes plus one. Injected/real `EINTR` is retried here (matching
/// kernel-loop convention); every other error propagates. A stream that
/// ends mid-line reads as [`LineOutcome::Eof`]: a torn line is the peer's
/// loss.
pub fn read_line_bounded<R: BufRead>(r: &mut R, max_line: usize) -> io::Result<LineOutcome> {
    // One byte past the cap is enough to tell a line that is too long.
    let mut buf = Vec::new();
    let read = r.take(max_line as u64 + 1).read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') {
        return Ok(if read > max_line {
            LineOutcome::TooLong
        } else {
            LineOutcome::Eof
        });
    }
    Ok(match lines::decode(&buf[..read - 1]) {
        Ok(line) => LineOutcome::Line(line.to_string()),
        Err(why) => LineOutcome::Garbage(why),
    })
}

/// The `k=v` wire/index form of `params`, stable field order.
pub fn params_to_kv(params: &CampaignParams) -> String {
    format!(
        "proto={} seed={} budget={} max-faults={} epoch={} buggy={} \
         fault-secs={} prefilter=1 snapshots={} step-budget={} share-corpus={}",
        params.proto,
        params.seed,
        params.budget,
        params.max_faults,
        params.epoch,
        params.buggy as u8,
        params.fault_secs,
        params.snapshots as u8,
        params.step_budget,
        params.share_corpus as u8,
    )
}

/// Parses the [`params_to_kv`] form. Strict: every field must be present,
/// so a half-written (torn) index line can never parse into a campaign
/// with silently-defaulted fields. `prefilter=`, `pruning=` and
/// `semantic=` (module docs) may be absent; when present they must still
/// be booleans. Values load as they were stored: an index line of a
/// campaign submitted with `max-faults=0` names the campaign its journal
/// records.
pub fn params_from_kv(kv: &str) -> Result<CampaignParams, String> {
    let map = parse_kv(kv);
    let get = |k: &str| {
        map.get(k)
            .copied()
            .ok_or_else(|| format!("missing {k}= in campaign params"))
    };
    let num = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("bad {k}= value"))
    };
    let boolean = |k: &str| {
        Ok::<bool, String>(match get(k)? {
            "1" | "true" => true,
            "0" | "false" => false,
            other => return Err(format!("bad {k}={other}")),
        })
    };
    let proto = get("proto")?.to_string();
    if !BUNDLED.contains(&proto.as_str()) {
        return Err(unknown_protocol(&proto));
    }
    for retired in ["prefilter", "pruning", "semantic"] {
        if map.contains_key(retired) {
            boolean(retired)?;
        }
    }
    Ok(CampaignParams {
        proto,
        seed: num("seed")?,
        budget: num("budget")? as usize,
        max_faults: num("max-faults")? as usize,
        epoch: (num("epoch")? as usize).max(1),
        buggy: boolean("buggy")?,
        fault_secs: num("fault-secs")?,
        snapshots: boolean("snapshots")?,
        step_budget: num("step-budget")?,
        share_corpus: boolean("share-corpus")?,
    })
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Queue a campaign; replies `ok id=cN`. The optional `ident` token
    /// is the client's idempotency key: the daemon remembers every
    /// accepted `ident` (persisted in the store index), and a repeated
    /// submit carrying one it has already seen replies with the original
    /// campaign id — `deduped=1` — instead of double-running. A client
    /// retrying a submit across a torn connection MUST send an ident;
    /// submits without one are never safe to retry blindly.
    Submit {
        /// The campaign configuration.
        params: CampaignParams,
        /// Client-chosen idempotency token (`[A-Za-z0-9._-]`, ≤ 64
        /// bytes).
        ident: Option<String>,
    },
    /// One status payload line per campaign (or just the named one).
    Status { id: Option<String> },
    /// The full result artifact of a finished campaign.
    Results { id: String },
    /// The shared corpus pool for a target key, one schedule per line.
    Corpus { key: String },
    /// Block until the campaign finishes; replies `ok exit=N digest=D`.
    Wait { id: String },
    /// Liveness probe; replies `ok pong`.
    Ping,
    /// Finish the running campaign, then exit. Queued campaigns stay in
    /// the store and resume on the next start.
    Shutdown,
}

impl Request {
    /// Whether the *reply* to this request carries a dot-terminated
    /// payload block.
    pub fn has_payload(&self) -> bool {
        matches!(
            self,
            Request::Status { .. } | Request::Results { .. } | Request::Corpus { .. }
        )
    }

    /// The wire form.
    pub fn render(&self) -> String {
        match self {
            Request::Submit { params, ident } => match ident {
                Some(ident) => format!("submit {} ident={ident}", params_to_kv(params)),
                None => format!("submit {}", params_to_kv(params)),
            },
            Request::Status { id: None } => "status".to_string(),
            Request::Status { id: Some(id) } => format!("status id={id}"),
            Request::Results { id } => format!("results id={id}"),
            Request::Corpus { key } => format!("corpus key={key}"),
            Request::Wait { id } => format!("wait id={id}"),
            Request::Ping => "ping".to_string(),
            Request::Shutdown => "shutdown".to_string(),
        }
    }

    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        let map = parse_kv(rest);
        let id = |required: bool| -> Result<Option<String>, String> {
            match map.get("id") {
                Some(v) => Ok(Some(v.to_string())),
                None if required => Err(format!("{verb} needs id=cN")),
                None => Ok(None),
            }
        };
        match verb {
            "submit" => {
                let ident = match map.get("ident") {
                    Some(tok) => Some(validate_ident(tok)?),
                    None => None,
                };
                // A submitted campaign is one `pfi-campaign` can name and
                // resume: `Flags::campaign` raises `--max-faults 0` to 1,
                // and so does the wire. Stored index lines load through
                // `params_from_kv` as they were written.
                let mut params = params_from_kv(rest)?;
                params.max_faults = params.max_faults.max(1);
                Ok(Request::Submit { params, ident })
            }
            "status" => Ok(Request::Status { id: id(false)? }),
            "results" => Ok(Request::Results {
                id: id(true)?.unwrap(),
            }),
            "corpus" => Ok(Request::Corpus {
                key: map
                    .get("key")
                    .map(|k| k.to_string())
                    .ok_or("corpus needs key=<target>")?,
            }),
            "wait" => Ok(Request::Wait {
                id: id(true)?.unwrap(),
            }),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request {other:?}")),
        }
    }
}

/// Splits `k=v k=v …` into a map; tokens without `=` are ignored.
pub fn parse_kv(s: &str) -> BTreeMap<&str, &str> {
    s.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .collect()
}

/// Checks an idempotency token: short and filename-safe, because the
/// daemon persists it verbatim in the store index.
fn validate_ident(tok: &str) -> Result<String, String> {
    if tok.is_empty() || tok.len() > 64 {
        return Err("ident must be 1–64 bytes".to_string());
    }
    if !tok
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
    {
        return Err("ident may only contain [A-Za-z0-9._-]".to_string());
    }
    Ok(tok.to_string())
}

/// A parsed reply: the head line plus (when the request promised one) the
/// un-dot-stuffed payload lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `true` for `ok`, `false` for `err`.
    pub ok: bool,
    /// The rest of the head line: `k=v` pairs on `ok`, message on `err`.
    pub head: String,
    /// Payload lines (empty unless the request has a payload reply).
    pub payload: Vec<String>,
}

impl Reply {
    /// Looks up a `k=v` value in the head line.
    pub fn get(&self, key: &str) -> Option<&str> {
        parse_kv(&self.head).get(key).copied()
    }
}

/// Writes a reply: head line, then (if `Some`) the dot-stuffed payload.
pub fn write_reply<W: Write>(
    w: &mut W,
    ok: bool,
    head: &str,
    payload: Option<&[String]>,
) -> io::Result<()> {
    if head.is_empty() {
        writeln!(w, "{}", if ok { "ok" } else { "err" })?;
    } else {
        writeln!(w, "{} {}", if ok { "ok" } else { "err" }, head)?;
    }
    if let Some(lines) = payload {
        for line in lines {
            if line.starts_with('.') {
                writeln!(w, ".{line}")?;
            } else {
                writeln!(w, "{line}")?;
            }
        }
        writeln!(w, ".")?;
    }
    w.flush()
}

/// Reads one reply; `expect_payload` must mirror [`Request::has_payload`]
/// for the request that elicited it (an `err` head never carries a
/// payload). No single line may exceed `limits.max_line` and the whole
/// payload block may not exceed `limits.max_payload` bytes — the
/// dot-stuffed reader can never be made to buffer without bound by a
/// hostile or fault-injected peer.
pub fn read_reply<R: BufRead>(
    r: &mut R,
    expect_payload: bool,
    limits: &ProtoLimits,
) -> io::Result<Reply> {
    let bounded_line = |r: &mut R, what: &str| -> io::Result<Option<String>> {
        match read_line_bounded(r, limits.max_line)? {
            LineOutcome::Eof => Ok(None),
            LineOutcome::Line(line) => Ok(Some(line)),
            LineOutcome::TooLong => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} exceeds the {}-byte line cap", limits.max_line),
            )),
            LineOutcome::Garbage(why) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} rejected: {why}"),
            )),
        }
    };
    let line = bounded_line(r, "reply head")?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before reply",
        )
    })?;
    let (ok, head) = match line.split_once(' ') {
        Some(("ok", rest)) => (true, rest.to_string()),
        Some(("err", rest)) => (false, rest.to_string()),
        None if line == "ok" => (true, String::new()),
        None if line == "err" => (false, String::new()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed reply head {line:?}"),
            ))
        }
    };
    let mut payload = Vec::new();
    if ok && expect_payload {
        let mut budget = limits.max_payload;
        loop {
            let line = bounded_line(r, "payload line")?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-payload",
                )
            })?;
            if line == "." {
                break;
            }
            budget = budget.checked_sub(line.len() + 1).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("payload exceeds the {}-byte budget", limits.max_payload),
                )
            })?;
            payload.push(line.strip_prefix('.').map(str::to_string).unwrap_or(line));
        }
    }
    Ok(Reply { ok, head, payload })
}

/// A client connection to a daemon, TCP or Unix socket.
pub enum Stream {
    /// TCP (`host:port`).
    Tcp(TcpStream),
    /// Unix domain socket (a filesystem path).
    Unix(UnixStream),
}

impl Stream {
    /// A second handle on the same socket (for split read/write halves
    /// and for the daemon's eviction registry).
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Read deadline: a blocked read returns `WouldBlock`/`TimedOut`
    /// once `d` elapses. `None` blocks forever.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Write deadline, same contract as the read deadline.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(d),
            Stream::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Hard-closes both directions; any thread blocked on the socket
    /// wakes with EOF or an error. Used by oldest-idle eviction.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Opens a connection to `addr`: its buffered read half and its write
/// half.
fn open(addr: &str) -> io::Result<(BufReader<Stream>, Stream)> {
    let (reader, writer) = if addr.contains('/') || !addr.contains(':') {
        let s = UnixStream::connect(addr)?;
        (Stream::Unix(s.try_clone()?), Stream::Unix(s))
    } else {
        let s = TcpStream::connect(addr)?;
        (Stream::Tcp(s.try_clone()?), Stream::Tcp(s))
    };
    Ok((BufReader::new(reader), writer))
}

/// Reconnect/backoff tuning for a [`Client`]. The jitter is
/// deterministic — a hash of `(seed, attempt)` — so two runs of the same
/// client behave identically, in the same spirit as every other seeded
/// schedule in this codebase.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included).
    pub attempts: u32,
    /// Base backoff; attempt *n* waits roughly `base · 2ⁿ` capped below.
    pub base_ms: u64,
    /// Backoff ceiling.
    pub cap_ms: u64,
    /// Jitter seed (fold the campaign identity in for spread).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 8,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (1-based): exponential backoff
    /// with deterministic jitter in `[exp/2, exp]`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms)
            .max(1);
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&self.seed.to_le_bytes());
        key[8..].copy_from_slice(&(attempt as u64).to_le_bytes());
        // The workspace's one hash makes the jitter deterministic.
        let jitter = pfi_sim::fnv::fnv64(&key) % (exp / 2 + 1);
        Duration::from_millis(exp / 2 + jitter)
    }
}

/// The daemon's acknowledgement of a `submit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// The campaign id (`cN`).
    pub id: String,
    /// Whether the daemon had already accepted this ident.
    pub deduped: bool,
    /// Seed schedules pinned from the shared corpus pool.
    pub seeds: usize,
}

/// A request/reply client of a daemon. A torn exchange poisons its
/// connection: the client drops it, and reconnects and re-issues the
/// request with exponential backoff and deterministic jitter while its
/// [`RetryPolicy`] has attempts left. That is safe for every request in the
/// protocol except `shutdown` and a `submit` *without* an ident (which
/// could double-run a campaign): those get exactly one attempt. A policy
/// of one attempt never retries.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    conn: Option<(BufReader<Stream>, Stream)>,
    /// Reconnect-and-retry count so far (observability for chaos runs).
    pub retries: u64,
}

impl Client {
    /// A client for `addr` that connects at its first call and retries per
    /// `policy`. An address containing `/` — or without the `:` a TCP
    /// `host:port` must carry — is a Unix socket path.
    pub fn new(addr: &str, policy: RetryPolicy) -> Client {
        Client {
            addr: addr.to_string(),
            policy,
            conn: None,
            retries: 0,
        }
    }

    /// Connects to `addr` now, for a client that never retries.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let once = RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        };
        Ok(Client {
            conn: Some(open(addr)?),
            ..Client::new(addr, once)
        })
    }

    /// Sends `req` and reads its reply, reconnecting and retrying per the
    /// policy. `wait` and `status` resume transparently across reconnects —
    /// the re-issued request picks the campaign back up by id on the new
    /// connection.
    pub fn call(&mut self, req: &Request) -> io::Result<Reply> {
        let attempts = match req {
            Request::Submit { ident: None, .. } | Request::Shutdown => 1,
            _ => self.policy.attempts.max(1),
        };
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
                std::thread::sleep(self.policy.backoff(attempt));
            }
            // A connection goes back only after a whole exchange: anything
            // torn mid-exchange poisons it, and the next attempt reconnects.
            let conn = self.conn.take().map_or_else(|| open(&self.addr), Ok);
            let exchange = conn.and_then(|(mut reader, mut writer)| {
                writeln!(writer, "{}", req.render())?;
                writer.flush()?;
                let reply = read_reply(&mut reader, req.has_payload(), &ProtoLimits::default())?;
                self.conn = Some((reader, writer));
                Ok(reply)
            });
            match exchange {
                Ok(reply) => return Ok(reply),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("every call makes an attempt"))
    }

    /// Idempotent submit: attaches `ident` so a retry that lost the ack
    /// dedupes server-side instead of double-running.
    pub fn submit(&mut self, params: &CampaignParams, ident: &str) -> io::Result<Ack> {
        let reply = self.call(&Request::Submit {
            params: params.clone(),
            ident: Some(ident.to_string()),
        })?;
        if !reply.ok {
            return Err(io::Error::other(format!("daemon refused: {}", reply.head)));
        }
        let id = reply
            .get("id")
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("submit reply carried no id (head {:?})", reply.head),
                )
            })?
            .to_string();
        Ok(Ack {
            id,
            deduped: reply.get("deduped") == Some("1"),
            seeds: reply.get("seeds").and_then(|n| n.parse().ok()).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip_through_kv() {
        let mut p = CampaignParams {
            proto: "gmp".into(),
            buggy: true,
            fault_secs: 5,
            seed: 42,
            budget: 1024,
            max_faults: 2,
            epoch: 8,
            snapshots: false,
            step_budget: 7,
            share_corpus: true,
        };
        assert_eq!(params_from_kv(&params_to_kv(&p)).unwrap(), p);
        p.buggy = false;
        assert_eq!(params_from_kv(&params_to_kv(&p)).unwrap(), p);
        assert_eq!(p.corpus_key(), "gmp-fs5");
        p.fault_secs = 60;
        assert_eq!(p.corpus_key(), "gmp");
    }

    /// What a client or store index from the prune-tier era sends: the two
    /// retired switches, and `prefilter=` in any spelling (or none),
    /// checked and ignored.
    #[test]
    fn retired_prune_switches_are_checked_and_ignored() {
        let p = CampaignParams::default();
        let kv = params_to_kv(&p);
        assert!(!kv.contains("pruning=") && !kv.contains("semantic="));
        assert!(kv.contains(" prefilter=1 "), "{kv}");
        for old in [
            "prefilter=0 pruning=1 semantic=1",
            "prefilter=true pruning=0 semantic=true",
            "prefilter=false semantic=0",
            "",
        ] {
            let with = kv.replace("prefilter=1", old);
            assert_eq!(params_from_kv(&with).unwrap(), p, "{with}");
        }
        for bad in ["pruning=maybe", "semantic=", "pruning=2", "prefilter=maybe"] {
            let with = format!("{kv} {bad}");
            assert!(params_from_kv(&with).is_err(), "{with}");
            assert!(Request::parse(&format!("submit {with}")).is_err(), "{with}");
        }
    }

    #[test]
    fn torn_params_refuse_to_parse() {
        let full = params_to_kv(&CampaignParams::default());
        let torn = &full[..full.len() / 2];
        assert!(params_from_kv(torn).is_err());
        assert!(params_from_kv("proto=smtp seed=1").is_err());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                params: CampaignParams::default(),
                ident: None,
            },
            Request::Submit {
                params: CampaignParams::default(),
                ident: Some("a1b2-c3.d4_e5".into()),
            },
            Request::Status { id: None },
            Request::Status {
                id: Some("c3".into()),
            },
            Request::Results { id: "c1".into() },
            Request::Corpus { key: "gmp".into() },
            Request::Wait { id: "c9".into() },
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
        assert!(Request::parse("frobnicate").is_err());
        assert!(Request::parse("results").is_err());
        // Idents the daemon would have to persist unescaped are refused
        // at the parser.
        let bad = format!(
            "submit {} ident={}",
            params_to_kv(&CampaignParams::default()),
            "x".repeat(65)
        );
        assert!(Request::parse(&bad).is_err());
        assert!(Request::parse("submit ident=no/slash proto=gmp").is_err());
    }

    #[test]
    fn bounded_reader_enforces_caps_and_rejects_garbage() {
        use std::io::BufReader;
        let read =
            |bytes: &[u8], cap: usize| read_line_bounded(&mut BufReader::new(bytes), cap).unwrap();
        assert_eq!(read(b"ping\n", 64), LineOutcome::Line("ping".into()));
        assert_eq!(read(b"ping\r\n", 64), LineOutcome::Line("ping".into()));
        assert_eq!(read(b"", 64), LineOutcome::Eof);
        // A torn trailing line (no newline before EOF) is the peer's
        // loss, like the store's torn-tail rule.
        assert_eq!(read(b"pin", 64), LineOutcome::Eof);
        assert_eq!(read(&[b'a'; 65], 64), LineOutcome::TooLong);
        assert_eq!(read(b"pi\rng\n", 64), LineOutcome::Garbage("embedded CR"));
        // Exactly at the cap is fine.
        let mut exact = vec![b'a'; 64];
        exact.push(b'\n');
        assert!(matches!(read(&exact, 64), LineOutcome::Line(_)));
    }

    #[test]
    fn payload_budget_is_enforced() {
        let lines = vec!["x".repeat(100), "y".repeat(100)];
        let mut wire = Vec::new();
        write_reply(&mut wire, true, "n=2", Some(&lines)).unwrap();
        let limits = ProtoLimits {
            max_line: 1024,
            max_payload: 150,
        };
        let err = read_reply(&mut BufReader::new(&wire[..]), true, &limits).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let roomy = ProtoLimits {
            max_line: 1024,
            max_payload: 1024,
        };
        let reply = read_reply(&mut BufReader::new(&wire[..]), true, &roomy).unwrap();
        assert_eq!(reply.payload, lines);
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            attempts: 8,
            base_ms: 50,
            cap_ms: 2_000,
            seed: 0xabcd,
        };
        let q = RetryPolicy { ..p.clone() };
        for attempt in 1..8 {
            assert_eq!(p.backoff(attempt), q.backoff(attempt));
            assert!(p.backoff(attempt) <= Duration::from_millis(2_000));
        }
        assert!(p.backoff(1) >= Duration::from_millis(50));
    }

    #[test]
    fn payload_framing_dot_stuffs() {
        let lines = vec![
            "plain".to_string(),
            ".starts-with-dot".to_string(),
            String::new(),
            "..double".to_string(),
        ];
        let mut wire = Vec::new();
        write_reply(&mut wire, true, "n=4", Some(&lines)).unwrap();
        let mut r = BufReader::new(&wire[..]);
        let reply = read_reply(&mut r, true, &ProtoLimits::default()).unwrap();
        assert!(reply.ok);
        assert_eq!(reply.get("n"), Some("4"));
        assert_eq!(reply.payload, lines);
    }
}
