//! End-to-end daemon acceptance: a real `pfi-serve` process on a Unix
//! socket, driven over the wire protocol.
//!
//! The two contracts pinned here are the tentpole's acceptance criteria:
//!
//! 1. A campaign run through the daemon is byte-identical (by outcome
//!    digest) to the same campaign run in-process with [`explore`] —
//!    the daemon adds persistence, never different results — and corpus
//!    sharing seeds follow-up campaigns deterministically.
//! 2. SIGKILL mid-campaign loses nothing: a restarted daemon resumes
//!    every in-flight campaign — the one that was running (from its torn
//!    journal, replaying completed cases) and the ones still queued —
//!    to the same digests an uninterrupted daemon would have produced.
//! 3. The per-campaign books the daemon keeps in memory agree with the
//!    store: a seeds file exists exactly when seeds were pinned (and is
//!    what a resume after the pool has grown runs from), and live
//!    `status` — answered from counters, not from the journal — never
//!    steps back, never runs ahead of the journal the campaign ends up
//!    with, and picks up after a restart where the torn journal stopped.

#[path = "../../testgen/tests/support/mod.rs"]
mod support;

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfi_serve::proto::{parse_kv, Client, Request};
use pfi_serve::CampaignParams;
use pfi_testgen::{
    explore, explore_fleet, ExploreConfig, FaultSchedule, GmpTarget, Journal, ProtocolSpec,
};
use support::torn_cut;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pfi_serve_{}_{name}", std::process::id()))
}

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(store: &Path, socket: &Path) -> Daemon {
        std::fs::remove_file(socket).ok();
        let child = Command::new(env!("CARGO_BIN_EXE_pfi-serve"))
            .args([
                "start",
                "--store",
                store.to_str().unwrap(),
                "--socket",
                socket.to_str().unwrap(),
                "--jobs",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pfi-serve");
        Daemon {
            child,
            socket: socket.to_path_buf(),
        }
    }

    /// Connects, retrying until the daemon has bound its socket.
    fn client(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(self.socket.to_str().unwrap()) {
                if c.call(&Request::Ping).map(|r| r.ok).unwrap_or(false) {
                    return c;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not come up within 30s"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn shutdown_and_join(mut self) {
        let _ = self.client().call(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            assert!(Instant::now() < deadline, "daemon did not exit within 30s");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL the daemon");
        self.child.wait().ok();
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

/// The in-process reference for a daemon campaign: same config, same
/// seed corpus, no persistence.
fn inline_digest(p: &CampaignParams, seeds: Vec<FaultSchedule>) -> String {
    let mut cfg: ExploreConfig = p.to_config();
    cfg.seed_corpus = seeds;
    let target = GmpTarget {
        fault_secs: p.fault_secs,
        ..GmpTarget::default()
    };
    explore(&target, &ProtocolSpec::gmp(), &cfg).digest64()
}

fn submit(client: &mut Client, p: &CampaignParams) -> String {
    let reply = client
        .call(&Request::Submit {
            params: p.clone(),
            ident: None,
        })
        .unwrap();
    assert!(reply.ok, "submit refused: {}", reply.head);
    reply.get("id").unwrap().to_string()
}

fn wait_digest(client: &mut Client, id: &str) -> (i32, String) {
    let reply = client.call(&Request::Wait { id: id.into() }).unwrap();
    assert!(reply.ok, "wait failed: {}", reply.head);
    (
        reply.get("exit").unwrap().parse().unwrap(),
        reply.get("digest").unwrap().to_string(),
    )
}

/// The `<id>.seeds` files in a store directory, sorted.
fn seeds_files(store: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains(".seeds"))
        .collect();
    names.sort();
    names
}

/// The `*.journal` files in a store directory, sorted.
fn journal_files(store: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".journal"))
        .collect();
    names.sort();
    names
}

/// The blocks of a store's `store.journal`, in file order: each marker's
/// id and the text from its `journal <id>` line to the next one.
fn journal_blocks(store: &Path) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(store.join("store.journal")).unwrap();
    let mut blocks: Vec<(String, String)> = Vec::new();
    for line in text.split_inclusive('\n') {
        match line.strip_prefix("journal ") {
            Some(id) => blocks.push((id.trim_end().to_string(), String::new())),
            None => blocks.last_mut().expect("a marker first").1.push_str(line),
        }
    }
    blocks
}

/// Campaign `id`'s journal: the last block the store holds for it.
fn last_block(store: &Path, id: &str) -> String {
    let mut blocks = journal_blocks(store).into_iter().rev();
    blocks.find(|(of, _)| of == id).unwrap().1
}

/// Journal text but its `counters` line, where a resumed run reports
/// what it replayed.
fn but_counters(journal: &str) -> String {
    journal
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("counters "))
        .collect()
}

/// The journal `explore` writes for a daemon campaign on the test daemon's
/// two workers, and its digest: what the daemon journals for it when
/// nothing interrupts the campaign.
fn journal_of(p: &CampaignParams, path: &Path) -> (String, String) {
    std::fs::remove_file(path).ok();
    let cfg = ExploreConfig {
        journal: Some(path.to_path_buf()),
        ..p.to_config()
    };
    let target = GmpTarget {
        fault_secs: p.fault_secs,
        ..GmpTarget::default()
    };
    let (outcome, _) = explore_fleet(Arc::new(target), &ProtocolSpec::gmp(), &cfg, 2);
    let text = std::fs::read_to_string(path).unwrap();
    std::fs::remove_file(path).unwrap();
    (text, outcome.digest64())
}

/// A `results` reply as one comparable string.
fn results_text(client: &mut Client, id: &str) -> String {
    let reply = client.call(&Request::Results { id: id.into() }).unwrap();
    assert!(reply.ok, "results refused: {}", reply.head);
    let mut lines = vec![reply.head];
    lines.extend(reply.payload);
    lines.join("\n")
}

/// One campaign's `status` line.
fn status_line(client: &mut Client, id: &str) -> std::io::Result<String> {
    let reply = client.call(&Request::Status {
        id: Some(id.into()),
    })?;
    assert!(reply.ok, "status refused: {}", reply.head);
    Ok(reply.payload[0].clone())
}

fn field(line: &str, key: &str) -> Option<u64> {
    parse_kv(line).get(key).and_then(|v| v.parse().ok())
}

fn state_of(line: &str) -> &str {
    parse_kv(line).get("state").copied().unwrap_or("")
}

/// Polls `status` until the campaign is running with at least `executed`
/// merged cases; panics if it finishes first.
fn await_running(client: &mut Client, id: &str, executed: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let line = status_line(client, id).unwrap();
        if state_of(&line) == "running" && field(&line, "executed").unwrap_or(0) >= executed {
            return;
        }
        assert_ne!(
            state_of(&line),
            "done",
            "campaign {id} finished before the kill could land; raise its budget"
        );
        assert!(
            Instant::now() < deadline,
            "campaign {id} never reached {executed} merged cases"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn daemon_matches_inline_exploration_and_shares_corpus() {
    let store = tmp("roundtrip_store");
    let socket = tmp("roundtrip.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();

    // Campaign 1: no seeds.
    let p1 = params(42, 24);
    let id1 = submit(&mut client, &p1);
    assert_eq!(id1, "c1");
    let (exit1, digest1) = wait_digest(&mut client, &id1);
    assert_eq!(digest1, inline_digest(&p1, Vec::new()));
    let results = client.call(&Request::Results { id: id1.clone() }).unwrap();
    assert!(results.ok);
    assert_eq!(results.get("exit").unwrap().parse::<i32>().unwrap(), exit1);
    assert!(results.payload[0].starts_with("digest "));
    assert!(results.payload[1].starts_with("counters executed="));

    // Its corpus entered the shared pool (minus the baseline).
    let pool = client.call(&Request::Corpus { key: "gmp".into() }).unwrap();
    assert!(pool.ok);
    assert!(
        !pool.payload.is_empty(),
        "campaign 1's corpus must seed the shared pool"
    );
    let seeds: Vec<FaultSchedule> = pool
        .payload
        .iter()
        .map(|l| FaultSchedule::from_id(l).unwrap())
        .collect();

    // Campaign 2: different seed, seeded from the pool. The daemon must
    // reproduce exactly the inline exploration fed the same seeds.
    let p2 = CampaignParams {
        share_corpus: true,
        ..params(7, 24)
    };
    let id2 = submit(&mut client, &p2);
    let (_, digest2) = wait_digest(&mut client, &id2);
    assert_eq!(digest2, inline_digest(&p2, seeds));
    assert_ne!(digest2, digest1);

    // The done-state status line carries the live-stats satellite fields.
    let status = client.call(&Request::Status { id: Some(id2) }).unwrap();
    assert!(status.ok);
    let line = &status.payload[0];
    for key in [
        "state=done",
        "exec-per-sec=",
        "snapshot-hit-rate=",
        "worker-panics=",
        "edges=",
    ] {
        assert!(line.contains(key), "status line missing {key}: {line}");
    }

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn sigkill_mid_campaign_restart_resumes_every_in_flight_campaign() {
    let store = tmp("kill_store");
    let socket = tmp("kill.sock");
    let socket2 = tmp("kill2.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();

    // c1 is big enough to be mid-flight when the kill lands; c2 sits
    // queued behind it — "every in-flight campaign" covers both.
    let p1 = params(42, 64);
    let p2 = params(5, 16);
    let id1 = submit(&mut client, &p1);
    let id2 = submit(&mut client, &p2);

    // Poll live status until c1 has journaled real progress, so the torn
    // journal is guaranteed to contain completed cases worth replaying.
    await_running(&mut client, &id1, 4);
    daemon.kill();

    // Restart over the same store (different socket to prove nothing is
    // address-bound). Both campaigns must finish: c1 resumed from its
    // torn journal, c2 run from its queued submission.
    let daemon = Daemon::start(&store, &socket2);
    let mut client = daemon.client();
    let (_, digest1) = wait_digest(&mut client, &id1);
    let (_, digest2) = wait_digest(&mut client, &id2);
    assert_eq!(
        digest1,
        inline_digest(&p1, Vec::new()),
        "resumed campaign must be byte-identical to an uninterrupted one"
    );
    assert_eq!(digest2, inline_digest(&p2, Vec::new()));

    // The resumed campaign replayed its journaled prefix instead of
    // re-executing it.
    let results = client.call(&Request::Results { id: id1 }).unwrap();
    let counters = parse_kv(
        results.payload[1]
            .strip_prefix("counters ")
            .expect("counters line"),
    );
    let replayed: usize = counters.get("replayed").unwrap().parse().unwrap();
    assert!(
        replayed >= 4,
        "the ≥4 journaled cases must be replayed, not re-executed (got {replayed})"
    );

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// `results … shared=N` (how many schedules a campaign added to its
/// pool) reads the same from a restarted daemon as from the one that ran
/// the campaigns: two campaigns on one corpus key, both adding to it.
#[test]
fn shared_counts_survive_a_restart() {
    let store = tmp("shared_store");
    let socket = tmp("shared.sock");
    let socket2 = tmp("shared2.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();
    let ids: Vec<String> = [params(42, 24), params(7, 24)]
        .iter()
        .map(|p| submit(&mut client, p))
        .collect();
    let shared = |text: &str| field(text.split('\n').nth(3).unwrap(), "shared").unwrap();
    let before: Vec<String> = ids
        .iter()
        .map(|id| {
            wait_digest(&mut client, id);
            results_text(&mut client, id)
        })
        .collect();
    for text in &before {
        assert!(shared(text) > 0, "{text}");
    }
    daemon.shutdown_and_join();

    let daemon = Daemon::start(&store, &socket2);
    let mut client = daemon.client();
    for (id, text) in ids.iter().zip(&before) {
        assert_eq!(&results_text(&mut client, id), text, "{id}");
    }
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// A seeds file exists exactly when a submit pinned seeds, `results` do
/// not depend on which daemon serves them, and a campaign that pinned its
/// seeds resumes from *them* — not from the pool as it has grown since.
#[test]
fn seeds_are_pinned_only_when_shared_and_survive_a_grown_pool() {
    let store = tmp("pin_store");
    let socket = tmp("pin.sock");
    let socket2 = tmp("pin2.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();

    // c1: no sharing, so nothing is pinned; it leaves a non-empty pool.
    let p1 = params(42, 24);
    let id1 = submit(&mut client, &p1);
    wait_digest(&mut client, &id1);
    assert_eq!(seeds_files(&store), Vec::<String>::new());
    let results1 = results_text(&mut client, &id1);
    let pool_text = |client: &mut Client| {
        let pool = client.call(&Request::Corpus { key: "gmp".into() }).unwrap();
        assert!(pool.ok);
        pool.payload
    };
    let pinned = pool_text(&mut client);
    assert!(!pinned.is_empty());

    // c2 keeps the executor busy while c3 is submitted behind it, so c3
    // pins the pool as c1 left it and is still queued when c2's corpus
    // lands in the pool.
    let p2 = params(5, 64);
    let p3 = CampaignParams {
        share_corpus: true,
        ..params(7, 64)
    };
    let id2 = submit(&mut client, &p2);
    let reply = client
        .call(&Request::Submit {
            params: p3.clone(),
            ident: None,
        })
        .unwrap();
    assert!(reply.ok, "submit refused: {}", reply.head);
    let id3 = reply.get("id").unwrap().to_string();
    assert_eq!(
        reply.get("seeds").unwrap(),
        pinned.len().to_string(),
        "c3 must pin the pool c1 left"
    );
    assert_eq!(seeds_files(&store), vec![format!("{id3}.seeds")]);
    assert_eq!(
        std::fs::read_to_string(store.join(format!("{id3}.seeds"))).unwrap(),
        pinned.join("\n") + "\n"
    );

    wait_digest(&mut client, &id2);
    assert!(
        pool_text(&mut client).len() > pinned.len(),
        "c2 must have grown the pool past what c3 pinned"
    );
    await_running(&mut client, &id3, 4);
    daemon.kill();

    let daemon = Daemon::start(&store, &socket2);
    let mut client = daemon.client();
    let (_, digest3) = wait_digest(&mut client, &id3);
    let seeds = pinned
        .iter()
        .map(|l| FaultSchedule::from_id(l).unwrap())
        .collect();
    assert_eq!(
        digest3,
        inline_digest(&p3, seeds),
        "the resumed campaign must run from its pinned seeds, not the grown pool"
    );
    assert_eq!(results_text(&mut client, &id1), results1);
    assert_eq!(seeds_files(&store), vec![format!("{id3}.seeds")]);

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// Live `status` comes from counters the explorer raises. Polled as fast
/// as the daemon answers, through a SIGKILL and a resume: it never steps
/// back, it is `running` after the restart only with at least what the
/// torn journal held, it never runs ahead of the journal the campaign
/// finally leaves, and it costs the daemon's other clients nothing. Both
/// journals are blocks of `store.journal`, and the last one is byte for
/// byte an uninterrupted run's journal (but for its `counters` line).
#[test]
fn live_status_is_monotone_bounded_by_the_journal_and_resumes_from_it() {
    let store = tmp("live_store");
    let socket = tmp("live.sock");
    let socket2 = tmp("live2.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();

    let small = submit(&mut client, &params(3, 8));
    wait_digest(&mut client, &small);
    let big_params = CampaignParams {
        fault_secs: 5,
        max_faults: 2,
        ..params(42, 4096)
    };
    let big = submit(&mut client, &big_params);

    // (executed, edges) of every `running` sample, in the order observed.
    let poll = |mut c: Client, id: String, until_done: bool| {
        let mut samples: Vec<(u64, u64)> = Vec::new();
        // Ends when the daemon is killed under it, or at `done`.
        while let Ok(line) = status_line(&mut c, &id) {
            match state_of(&line) {
                "running" => samples.push((
                    field(&line, "executed").unwrap(),
                    field(&line, "edges").unwrap(),
                )),
                "done" if until_done => break,
                _ => {}
            }
        }
        samples
    };
    let poller = {
        let (c, id) = (daemon.client(), big.clone());
        std::thread::spawn(move || poll(c, id, false))
    };

    // While `status` is being hammered on one connection, requests on
    // another — `ping`, and `results`, which takes the same lock `status`
    // does — are answered at once, however long the journal has grown.
    await_running(&mut client, &big, 256);
    for req in [Request::Ping, Request::Results { id: small.clone() }] {
        let mut rtt_ms: Vec<f64> = (0..40)
            .map(|_| {
                let sent = Instant::now();
                assert!(client.call(&req).unwrap().ok);
                sent.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        rtt_ms.sort_by(f64::total_cmp);
        assert!(
            rtt_ms[20] < 10.0,
            "median {req:?} round trip beside a status poller: {:.2} ms",
            rtt_ms[20]
        );
    }
    daemon.kill();
    let before_kill = poller.join().unwrap();

    let journal_counts = |journal: &Journal| {
        let edges: std::collections::BTreeSet<&str> = journal
            .cases
            .iter()
            .flat_map(|c| c.coverage.iter().map(String::as_str))
            .collect();
        (journal.cases.len() as u64, edges.len() as u64)
    };
    let torn = Journal::from_text(last_block(&store, &big)).unwrap();
    assert!(!torn.complete);
    let (torn_cases, torn_edges) = journal_counts(&torn);
    assert!(torn_cases >= 256);

    let daemon = Daemon::start(&store, &socket2);
    let after_restart = poll(daemon.client(), big.clone(), true);
    let mut client = daemon.client();
    let (_, digest) = wait_digest(&mut client, &big);
    let (uninterrupted, want) = journal_of(&big_params, &tmp("live_reference.journal"));
    assert_eq!(digest, want);
    // The resume appended a fresh block after the torn one: the store's
    // one journal file holds the small campaign's, the torn and the fresh
    // one, and the fresh one is the uninterrupted run's journal.
    let ids: Vec<String> = journal_blocks(&store).into_iter().map(|b| b.0).collect();
    assert_eq!(ids, [small.clone(), big.clone(), big.clone()]);
    assert_eq!(journal_files(&store), ["store.journal"]);
    let resumed = last_block(&store, &big);
    assert_eq!(but_counters(&resumed), but_counters(&uninterrupted));

    assert!(!before_kill.is_empty() && !after_restart.is_empty());
    for run in [&before_kill, &after_restart] {
        for pair in run.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0 && pair[0].1 <= pair[1].1,
                "status stepped back: {pair:?}"
            );
        }
    }
    let first = after_restart[0];
    assert!(
        first.0 >= torn_cases && first.1 >= torn_edges,
        "status after the restart started at {first:?}, below the torn journal's \
         ({torn_cases}, {torn_edges})"
    );
    let done = Journal::from_text(&resumed).unwrap();
    assert!(done.complete);
    let (final_cases, final_edges) = journal_counts(&done);
    for &(executed, edges) in before_kill.iter().chain(&after_restart) {
        assert!(executed <= final_cases && edges <= final_edges);
    }
    let line = status_line(&mut client, &big).unwrap();
    assert_eq!(state_of(&line), "done");
    assert_eq!(field(&line, "edges"), Some(final_edges));
    assert_eq!(
        field(&line, "executed"),
        Some(done.counters.as_ref().unwrap().executed as u64)
    );
    assert!(field(&line, "executed").unwrap() >= final_cases);

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// A store a daemon wrote while the engine had prune tiers: index lines
/// carrying `pruning=` / `semantic=`, journals carrying their header lines
/// and counters, and (on `c1`'s line) the `prefilter=0` of a campaign
/// submitted with the retired `--no-prefilter`. It opens, the finished
/// campaign's `results` read back, the
/// one killed mid-run resumes to the digest it always had, and both read
/// back the same again after another restart.
#[test]
fn a_store_from_the_prune_tier_era_opens_and_serves_its_results() {
    let store = tmp("era_store");
    let socket = tmp("era.sock");
    let socket2 = tmp("era2.sock");
    std::fs::remove_dir_all(&store).ok();
    std::fs::create_dir_all(&store).unwrap();
    let era_journal = |text: &str, on: bool| {
        text.replace(
            "prefilter true\n",
            &format!("prefilter true\npruning {on}\nsemantic {on}\n"),
        )
        .replace(" replayed=", " pruned=0 inert=0 replayed=")
    };
    let (p1, p2) = (params(42, 24), params(7, 24));
    let mut index = String::new();
    let mut c2_cases = (0, 0);
    for (id, p, on) in [("c1", &p1, true), ("c2", &p2, false)] {
        let path = store.join(format!("{id}.journal"));
        let mut cfg = p.to_config();
        cfg.journal = Some(path.clone());
        explore(&GmpTarget::default(), &ProtocolSpec::gmp(), &cfg);
        let mut text = era_journal(&std::fs::read_to_string(&path).unwrap(), on);
        if id == "c2" {
            // Killed mid-campaign.
            let (cut, kept) = torn_cut(&text);
            c2_cases = (kept, text.matches("case end\n").count());
            text.truncate(cut);
        }
        std::fs::write(&path, text).unwrap();
        let switches = format!(" pruning={0} semantic={0} snapshots=", on as u8);
        let kv = p.to_kv().replace(" snapshots=", &switches);
        let kv = kv.replace("prefilter=1", &format!("prefilter={}", !on as u8));
        index.push_str(&format!("campaign {id} {kv}\n"));
    }
    std::fs::write(store.join("store.index"), index).unwrap();

    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();
    for (id, p) in [("c1", &p1), ("c2", &p2)] {
        let (_, digest) = wait_digest(&mut client, id);
        assert_eq!(digest, inline_digest(p, Vec::new()), "{id}");
    }
    let before: Vec<String> = ["c1", "c2"]
        .iter()
        .map(|id| results_text(&mut client, id))
        .collect();
    for text in &before {
        assert!(text.contains("\ncounters executed="), "{text}");
        assert!(
            !text.contains("pruned=") && !text.contains("inert="),
            "{text}"
        );
    }
    let (kept, cases) = c2_cases;
    assert!(kept > 0 && kept < cases, "{kept} of {cases}");
    assert!(
        before[1].contains(&format!(" replayed={kept} ")),
        "c2 resumed: {}",
        before[1]
    );
    daemon.shutdown_and_join();

    let daemon = Daemon::start(&store, &socket2);
    let mut client = daemon.client();
    for (id, text) in ["c1", "c2"].iter().zip(&before) {
        assert_eq!(&results_text(&mut client, id), text, "{id}");
    }
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// A store of the per-campaign layout, one `<id>.journal` per campaign as
/// daemons wrote before `store.journal`: `c1` finished, `c2` killed
/// mid-run. It opens and `c1`'s results read back from its file; `c2`
/// resumes to its digest and journals into `store.journal`, as a block
/// byte-identical to an uninterrupted run's journal (but for `counters`),
/// while the files of the old layout stay as they were. After another
/// restart both read back the same.
#[test]
fn a_store_of_the_per_campaign_layout_opens_and_resumes_into_the_segment() {
    let store = tmp("layout_store");
    let socket = tmp("layout.sock");
    let socket2 = tmp("layout2.sock");
    std::fs::remove_dir_all(&store).ok();
    std::fs::create_dir_all(&store).unwrap();
    let campaigns = [("c1", params(42, 24)), ("c2", params(7, 24))];
    let mut index = String::new();
    let mut full = Vec::new();
    for (id, p) in &campaigns {
        let (journal, digest) = journal_of(p, &tmp(&format!("layout_{id}.journal")));
        assert_eq!(digest, inline_digest(p, Vec::new()));
        full.push(journal);
        index.push_str(&format!("campaign {id} {}\n", p.to_kv()));
    }
    let (cut, kept) = torn_cut(&full[1]);
    let torn = &full[1][..cut];
    assert!(kept > 0 && kept < full[1].matches("case end\n").count());
    std::fs::write(store.join("c1.journal"), &full[0]).unwrap();
    std::fs::write(store.join("c2.journal"), torn).unwrap();
    std::fs::write(store.join("store.index"), index).unwrap();

    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();
    for (id, p) in &campaigns {
        let (_, digest) = wait_digest(&mut client, id);
        assert_eq!(digest, inline_digest(p, Vec::new()), "{id}");
    }
    let before: Vec<String> = ["c1", "c2"]
        .iter()
        .map(|id| results_text(&mut client, id))
        .collect();
    let counters = Journal::from_text(&full[0]).unwrap().counters.unwrap();
    assert!(
        before[0].contains(&format!(
            "\ncounters executed={} rejected={} replayed=0 ",
            counters.executed, counters.rejected
        )),
        "{}",
        before[0]
    );
    assert!(
        before[1].contains(&format!(" replayed={kept} ")),
        "c2 resumed: {}",
        before[1]
    );
    daemon.shutdown_and_join();

    let blocks = journal_blocks(&store);
    assert_eq!(blocks.len(), 1, "only the resumed campaign journals");
    assert_eq!(blocks[0].0, "c2");
    assert_eq!(but_counters(&blocks[0].1), but_counters(&full[1]));
    assert_eq!(
        std::fs::read_to_string(store.join("c1.journal")).unwrap(),
        full[0]
    );
    assert_eq!(
        std::fs::read_to_string(store.join("c2.journal")).unwrap(),
        torn
    );

    let daemon = Daemon::start(&store, &socket2);
    let mut client = daemon.client();
    for (id, text) in ["c1", "c2"].iter().zip(&before) {
        assert_eq!(&results_text(&mut client, id), text, "{id}");
    }
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// A store whose journal block lists each run's full edge set, as
/// daemons wrote before a case recorded only the edges it added, restarts
/// to the `results` of the same campaign run by this daemon: digest,
/// counters, kept, shared and edges.
#[test]
fn a_store_of_full_edge_sets_restarts_to_the_same_results() {
    let p = CampaignParams {
        fault_secs: 5,
        seed: 1000,
        budget: 8,
        max_faults: 2,
        epoch: 8,
        ..CampaignParams::default()
    };
    let old = tmp("full_sets_store");
    let new = tmp("fresh_sets_store");
    let socket = tmp("full_sets.sock");
    for store in [&old, &new] {
        std::fs::remove_dir_all(store).ok();
        std::fs::create_dir_all(store).unwrap();
    }
    let fixture = include_str!("../../testgen/tests/fixtures/journal_full_sets.txt");
    std::fs::write(old.join("store.journal"), format!("journal c1\n{fixture}")).unwrap();
    std::fs::write(
        old.join("store.index"),
        format!("campaign c1 {}\n", p.to_kv()),
    )
    .unwrap();

    let daemon = Daemon::start(&new, &socket);
    let mut client = daemon.client();
    let id = submit(&mut client, &p);
    let (_, digest) = wait_digest(&mut client, &id);
    assert_eq!(digest, inline_digest(&p, Vec::new()));
    daemon.shutdown_and_join();

    let results: Vec<String> = [&old, &new]
        .iter()
        .map(|store| {
            let daemon = Daemon::start(store, &socket);
            let text = results_text(&mut daemon.client(), "c1");
            daemon.shutdown_and_join();
            text
        })
        .collect();
    assert!(
        results[0].contains(&format!("\ndigest {digest}\n")),
        "{}",
        results[0]
    );
    assert_eq!(results[0], results[1]);
    for store in [&old, &new] {
        std::fs::remove_dir_all(store).ok();
    }
    std::fs::remove_file(&socket).ok();
}

/// What a SIGKILL mid-append leaves: an index line and a pool line
/// without their newlines. Each would parse — the index line is cut after
/// its last required field, the pool line is `… 250` cut to `… 25` — and
/// neither was ever acknowledged. After a restart the index line is no
/// campaign, and the pool line is never served, pinned or merged over.
#[test]
fn torn_store_tails_are_no_campaign_and_no_seed_after_a_restart() {
    let store = tmp("torn_store");
    let socket = tmp("torn.sock");
    let socket2 = tmp("torn2.sock");
    std::fs::remove_dir_all(&store).ok();
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();
    let id1 = submit(&mut client, &params(42, 24));
    wait_digest(&mut client, &id1);
    daemon.shutdown_and_join();

    let append = |file: &str, text: &str| {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(store.join(file))
            .unwrap();
        f.write_all(text.as_bytes()).unwrap();
    };
    let torn = "n2 send delay-ms JOIN 25";
    append("corpus-gmp", torn);
    append(
        "store.index",
        &format!("campaign c2 {} ident=cli-ab", params(7, 24).to_kv()),
    );

    let daemon = Daemon::start(&store, &socket2);
    let mut client = daemon.client();
    let status = client.call(&Request::Status { id: None }).unwrap();
    assert_eq!(status.get("campaigns"), Some("1"), "{:?}", status.payload);
    let pool = |client: &mut Client| client.call(&Request::Corpus { key: "gmp".into() }).unwrap();
    let served = pool(&mut client).payload;
    assert!(!served.is_empty() && !served.iter().any(|l| l == torn));

    let p2 = CampaignParams {
        share_corpus: true,
        ..params(7, 24)
    };
    let id2 = submit(&mut client, &p2);
    assert_eq!(id2, "c2", "the torn c2 was never issued");
    let seeds = std::fs::read_to_string(store.join("c2.seeds")).unwrap();
    assert_eq!(
        seeds,
        served.join("\n") + "\n",
        "only whole pool lines are pinned"
    );
    let (_, digest2) = wait_digest(&mut client, &id2);
    let pinned = served
        .iter()
        .map(|l| FaultSchedule::from_id(l).unwrap())
        .collect();
    assert_eq!(digest2, inline_digest(&p2, pinned));
    let merged = pool(&mut client).payload;
    assert!(merged.starts_with(&served) && !merged.iter().any(|l| l == torn));
    let index = std::fs::read_to_string(store.join("store.index")).unwrap();
    assert!(!index.contains("cli-ab"), "{index}");
    daemon.shutdown_and_join();

    // A byte outside the line grammar costs its line only: with c2's index
    // line and the first pool line spoilt, the daemon starts, serves the
    // pool, and runs gmp campaigns — under a fresh id, since c2 still owns
    // its journal.
    for (file, at) in [("store.index", 2), ("corpus-gmp", 1)] {
        let mut bytes = std::fs::read(store.join(file)).unwrap();
        let at = if file == "store.index" {
            bytes.len() - at
        } else {
            at
        };
        bytes[at] = 0xff;
        std::fs::write(store.join(file), bytes).unwrap();
    }
    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();
    let status = client.call(&Request::Status { id: None }).unwrap();
    assert_eq!(status.get("campaigns"), Some("1"), "{:?}", status.payload);
    assert!(pool(&mut client).ok);
    let p3 = params(9, 24);
    let id3 = submit(&mut client, &p3);
    assert_eq!(id3, "c3");
    assert_eq!(
        wait_digest(&mut client, &id3).1,
        inline_digest(&p3, Vec::new())
    );
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
    std::fs::remove_file(&socket).ok();
}

/// A protocol outside the bundled table meets the same refusal at both of
/// the daemon's front ends, and nothing starts: the CLI exits 2 before it
/// connects to anything, the wire answers `err` and queues no campaign.
#[test]
fn an_unbundled_protocol_is_refused_by_the_cli_and_the_wire_alike() {
    let refusal = pfi_testgen::unknown_protocol("foo");
    let store = tmp("refuse_store");
    let socket = tmp("refuse.sock");

    // No daemon is listening yet: had the CLI tried to connect, it would
    // exit 3, not 2.
    let out = Command::new(env!("CARGO_BIN_EXE_pfi-serve"))
        .args(["submit", "--socket", socket.to_str().unwrap(), "foo"])
        .output()
        .expect("pfi-serve runs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&refusal), "{stderr}");
    assert!(out.stdout.is_empty());

    let daemon = Daemon::start(&store, &socket);
    let mut client = daemon.client();
    let reply = client
        .call(&Request::Submit {
            params: CampaignParams {
                proto: "foo".into(),
                ..params(1, 8)
            },
            ident: None,
        })
        .unwrap();
    assert!(!reply.ok, "{}", reply.head);
    assert!(reply.head.contains(&refusal), "{}", reply.head);
    let status = client.call(&Request::Status { id: None }).unwrap();
    assert_eq!(status.get("campaigns"), Some("0"), "{}", status.head);
    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&store).ok();
}
