//! Property-based tests for the pfi-serve wire protocol: the request and
//! reply parsers must round-trip every value their writers can produce,
//! and must return errors — never panic, never buffer unboundedly — when
//! fed truncated, bit-flipped, or garbage-prefixed frames. These are the
//! same corruption shapes `faultio` injects at runtime; the properties
//! here pin the parser half of that contract without needing a daemon.
//!
//! Every text loader — the store's index, seeds and corpus pool, the
//! schedule line, repro artifacts and the journal — meets the same three
//! shapes at the end of this file.

use std::io::BufReader;
use std::path::PathBuf;

use pfi_serve::proto::{
    params_from_kv, params_to_kv, parse_kv, read_line_bounded, read_reply, write_reply,
    LineOutcome, ProtoLimits,
};
use pfi_serve::{CampaignParams, Request, Store};
use pfi_testgen::{FaultSchedule, Journal, JournalCase, JournalMeta, Verdict};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = CampaignParams> {
    (
        (
            prop_oneof![
                Just("gmp".to_string()),
                Just("tcp".to_string()),
                Just("tpc".to_string()),
            ],
            any::<bool>(),
            0u64..10_000,
            any::<u64>(),
        ),
        (0usize..100_000, 0usize..64, 1usize..1_000),
        (any::<bool>(), 0u64..1_000_000, any::<bool>()),
    )
        .prop_map(
            |(
                (proto, buggy, fault_secs, seed),
                (budget, max_faults, epoch),
                (snapshots, step_budget, share_corpus),
            )| CampaignParams {
                proto,
                buggy,
                fault_secs,
                seed,
                budget,
                max_faults,
                epoch,
                snapshots,
                step_budget,
                share_corpus,
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    let id = "c[0-9]{1,6}";
    let ident = proptest::option::of("[A-Za-z0-9._-]{1,64}");
    prop_oneof![
        (arb_params(), ident).prop_map(|(params, ident)| Request::Submit { params, ident }),
        proptest::option::of(id).prop_map(|id| Request::Status { id }),
        id.prop_map(|id| Request::Results { id }),
        "[A-Za-z0-9._-]{1,32}".prop_map(|key| Request::Corpus { key }),
        id.prop_map(|id| Request::Wait { id }),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

/// Renders a reply frame to bytes exactly as the daemon writes it.
fn frame(ok: bool, head: &str, payload: Option<&[String]>) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_reply(&mut bytes, ok, head, payload).unwrap();
    bytes
}

proptest! {
    /// Campaign parameters survive the `k=v` wire/index round trip.
    #[test]
    fn campaign_params_kv_round_trip(params in arb_params()) {
        let kv = params_to_kv(&params);
        let back = params_from_kv(&kv).unwrap();
        prop_assert_eq!(back, params);
    }

    /// Every request the client can render parses back to itself — but a
    /// submit's `max-faults=0`, which the wire raises to 1 as
    /// `pfi-campaign --max-faults 0` does.
    #[test]
    fn request_render_parse_round_trip(req in arb_request()) {
        let line = req.render();
        let back = Request::parse(&line).unwrap();
        let mut want = req;
        if let Request::Submit { params, .. } = &mut want {
            params.max_faults = params.max_faults.max(1);
        }
        prop_assert_eq!(back, want);
    }

    /// Replies round-trip through dot-stuffing: any head line and any
    /// printable payload (including lines that are exactly `.` or start
    /// with one) come back byte-identical.
    #[test]
    fn reply_round_trip_through_dot_stuffing(
        ok in any::<bool>(),
        head in "[a-zA-Z0-9=_. -]{0,60}",
        payload in proptest::collection::vec("[ -~]{0,50}", 0..8),
    ) {
        // `write_reply` emits `ok`/`err` with no trailing space when the
        // head is empty, so a head that trims to nothing reads back as "".
        let head = head.trim().to_string();
        let bytes = frame(ok, &head, Some(&payload));
        let mut r = BufReader::new(&bytes[..]);
        let reply = read_reply(&mut r, true, &ProtoLimits::default()).unwrap();
        prop_assert_eq!(reply.ok, ok);
        prop_assert_eq!(reply.head, head);
        // An `err` head never carries a payload on the wire contract, but
        // the reader must still drain nothing and return cleanly.
        if ok {
            prop_assert_eq!(reply.payload, payload);
        }
    }

    /// A reply frame cut off at any byte offset — a mid-frame disconnect —
    /// parses to a clean error or a truncated-but-valid prefix; it never
    /// panics and never fabricates payload bytes that were not sent.
    #[test]
    fn truncated_reply_frames_error_not_panic(
        payload in proptest::collection::vec("[ -~]{0,40}", 1..6),
        cut_permille in 0u32..1000,
    ) {
        let bytes = frame(true, "id=c1", Some(&payload));
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        let mut r = BufReader::new(&bytes[..cut]);
        match read_reply(&mut r, true, &ProtoLimits::default()) {
            // A cut that lands exactly on a line boundary can leave a
            // parseable prefix; every recovered line must be one we sent.
            Ok(reply) => {
                prop_assert!(reply.ok);
                for line in &reply.payload {
                    prop_assert!(payload.contains(line));
                }
            }
            Err(e) => {
                use std::io::ErrorKind;
                prop_assert!(matches!(
                    e.kind(),
                    ErrorKind::UnexpectedEof | ErrorKind::InvalidData
                ));
            }
        }
    }

    /// Flipping any one byte of a valid frame — a corrupted wire — yields
    /// `Ok` (the flip landed somewhere harmless) or a clean error. Never a
    /// panic, and never a reply claiming success with a mangled head verb.
    #[test]
    fn bit_flipped_reply_frames_error_not_panic(
        payload in proptest::collection::vec("[ -~]{0,40}", 1..5),
        pos_permille in 0u32..1000,
        mask in 1u32..256,
    ) {
        let mut bytes = frame(true, "id=c7 seeds=3", Some(&payload));
        let pos = (bytes.len() - 1) * pos_permille as usize / 1000;
        bytes[pos] ^= mask as u8;
        let mut r = BufReader::new(&bytes[..]);
        let _ = read_reply(&mut r, true, &ProtoLimits::default());
    }

    /// Garbage bytes prefixed to a frame (a desynchronised stream) either
    /// error out or parse as *some* reply — but a successful parse means
    /// the garbage itself happened to spell a valid head, never that the
    /// reader silently skipped bytes hunting for one.
    #[test]
    fn garbage_prefixed_frames_never_resync(
        junk in proptest::collection::vec(any::<u8>(), 1..64),
        payload in proptest::collection::vec("[ -~]{0,40}", 0..4),
    ) {
        let mut bytes = junk.clone();
        bytes.extend_from_slice(&frame(true, "id=c2", Some(&payload)));
        let mut r = BufReader::new(&bytes[..]);
        if let Ok(reply) = read_reply(&mut r, true, &ProtoLimits::default()) {
            // The first junk line must itself have been a plausible head.
            let first = junk.split(|&b| b == b'\n').next().unwrap();
            prop_assert!(
                first.starts_with(b"ok") || first.starts_with(b"err"),
                "parsed a reply out of junk {:?} (got head {:?})",
                junk,
                reply.head
            );
        }
    }

    /// Arbitrary request lines — any UTF-8 soup — parse to `Ok` or `Err`
    /// without panicking, and anything accepted re-renders to a line that
    /// parses back to the same request (parse ∘ render is idempotent even
    /// for inputs we did not produce ourselves).
    #[test]
    fn arbitrary_request_lines_error_not_panic(raw in proptest::collection::vec(any::<u8>(), 0..200)) {
        let line = String::from_utf8_lossy(&raw);
        if let Ok(req) = Request::parse(&line) {
            let back = Request::parse(&req.render()).unwrap();
            prop_assert_eq!(back, req);
        }
    }

    /// The bounded line reader never yields a line over the cap, always
    /// terminates, and classifies NUL / interior-CR / non-UTF-8 as garbage
    /// rather than passing them through — whatever bytes arrive.
    #[test]
    fn read_line_bounded_respects_the_cap(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        cap in 1usize..120,
    ) {
        let mut r = BufReader::new(&bytes[..]);
        for _ in 0..=bytes.len() {
            match read_line_bounded(&mut r, cap).unwrap() {
                LineOutcome::Line(line) => {
                    prop_assert!(line.len() <= cap);
                    prop_assert!(!line.contains('\0'));
                    prop_assert!(!line.contains('\r'));
                }
                // TooLong leaves the excess unconsumed: the only safe
                // continuation is dropping the stream, so stop reading.
                LineOutcome::Eof | LineOutcome::TooLong => break,
                LineOutcome::Garbage(_) => {}
            }
        }
    }

    /// `parse_kv` is total and last-wins on duplicate keys.
    #[test]
    fn parse_kv_is_total(s in "[a-z=0-9 ]{0,80}") {
        let map = parse_kv(&s);
        for (k, v) in map {
            prop_assert!(!k.contains(' '));
            prop_assert!(!v.contains(' '));
        }
    }
}

// ---------------------------------------------------------------------------
// Line files. Every text loader meets the same three shapes: its file cut
// at every byte, one bit flipped, or garbage prefixed. It returns `Ok` or
// `Err` and never panics. Cut anywhere, a file yields exactly the records
// whose lines were finished: a line without its newline is torn. A flipped
// bit or a garbage prefix costs the line it lands in (junk is glued onto
// the first line) and nothing else. The store's loaders skip a bad line;
// the journal and repro loaders refuse the file.

/// One of the three damage shapes.
#[derive(Debug)]
enum Damage {
    /// Keep the first `n` bytes.
    Cut(usize),
    /// Flip one bit of the byte at this offset.
    Flip(usize, u8),
    /// Prefix these bytes.
    Junk(Vec<u8>),
}

/// A drawn flip or junk prefix, whatever the file's length.
type Draw = (bool, u32, u8, Vec<u8>);

fn arb_draw() -> impl Strategy<Value = Draw> {
    (
        any::<bool>(),
        0u32..1000,
        0u8..8,
        proptest::collection::vec(any::<u8>(), 1..48),
    )
}

impl Damage {
    /// Every cut of a `len`-byte file, then the drawn flip or junk prefix.
    fn each((flip, at, bit, junk): Draw, len: usize) -> impl Iterator<Item = Damage> {
        let drawn = if flip {
            Damage::Flip((len - 1) * at as usize / 1000, bit)
        } else {
            Damage::Junk(junk)
        };
        (0..len).map(Damage::Cut).chain([drawn])
    }

    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Damage::Cut(at) => bytes[..*at].to_vec(),
            Damage::Flip(at, bit) => {
                let mut flipped = bytes.to_vec();
                flipped[*at] ^= 1 << bit;
                flipped
            }
            Damage::Junk(junk) => [junk, bytes].concat(),
        }
    }

    /// Whether a store loader's `loaded` is what this damage may leave of
    /// `records`, written one per line as `bytes`.
    fn check_store<T: PartialEq + std::fmt::Debug>(
        &self,
        bytes: &[u8],
        records: &[T],
        loaded: &[T],
    ) -> Result<(), TestCaseError> {
        let lines_before = |at: usize| bytes[..at].iter().filter(|&&b| b == b'\n').count();
        match *self {
            Damage::Cut(at) => {
                prop_assert_eq!(loaded, &records[..lines_before(at)], "cut at {}", at)
            }
            Damage::Flip(at, _) => {
                // The flipped line — and the next one as well when the flip
                // took the newline between them — may be lost or altered.
                let hit = lines_before(at);
                let kept = (hit + 1 + usize::from(bytes[at] == b'\n')).min(records.len());
                prop_assert!(
                    loaded.starts_with(&records[..hit])
                        && loaded.ends_with(&records[kept..])
                        && loaded.len() <= hit + 1 + records.len() - kept,
                    "{:?} of {:?} loaded {:?}",
                    self,
                    records,
                    loaded
                );
            }
            Damage::Junk(_) => prop_assert!(
                loaded == records || loaded == &records[1..],
                "{:?} of {:?} loaded {:?}",
                self,
                records,
                loaded
            ),
        }
        Ok(())
    }
}

/// A fresh directory per property.
fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfi_props_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Writes `bytes`, damaged every way `draw` stands for, to `path`, loads
/// each with `load`, and checks what it returns against `records`.
fn check_store_file<T: PartialEq + std::fmt::Debug>(
    path: &std::path::Path,
    records: &[T],
    draw: Draw,
    load: impl Fn() -> Vec<T>,
) -> Result<(), TestCaseError> {
    let bytes = std::fs::read(path).unwrap();
    for damage in Damage::each(draw, bytes.len()) {
        std::fs::write(path, damage.apply(&bytes)).unwrap();
        damage.check_store(&bytes, records, &load())?;
    }
    Ok(())
}

const FAULT_LINES: [&str; 6] = [
    "n1 send drop-all HEARTBEAT",
    "n0 recv delay-ms ACK 250",
    "n2 recv drop-nth JOIN 2",
    "n0 send duplicate PROCLAIM 2",
    "n2 send corrupt-byte COMMIT 2 64",
    "n1 recv reorder ACK 3",
];

fn arb_schedule() -> impl Strategy<Value = FaultSchedule> {
    proptest::collection::vec(0usize..FAULT_LINES.len(), 1..4)
        .prop_map(|picks| FaultSchedule::from_lines(picks.iter().map(|&i| FAULT_LINES[i])).unwrap())
}

/// Campaign ids no single bit flip turns into one another.
const IDS: [&str; 5] = ["c1", "c2", "c4", "c7", "c8"];

/// A journal of up to four cases, complete or not, whose free text needs
/// `one_line`.
fn arb_journal() -> impl Strategy<Value = Journal> {
    let cases = proptest::collection::vec((arb_schedule(), 0u8..4, 0u32..4), 1..5);
    (any::<u64>(), cases, any::<bool>()).prop_map(|(seed, cases, complete)| {
        let mut journal = Journal::new(JournalMeta {
            target: "gmp".into(),
            world_seed: seed / 3,
            seed,
            budget: 24,
            max_faults: 3,
            epoch: 8,
            seed_corpus: 0,
            step_budget: 0,
            max_retries: 2,
        });
        for (schedule, verdict, edges) in cases {
            journal.dispatched.push(schedule.id());
            journal.cases.push(JournalCase {
                schedule,
                verdict: match verdict {
                    0 => Verdict::Pass,
                    1 => Verdict::Degraded("views diverged:\nn0 {1 2}".into()),
                    2 => Verdict::Crashed("panicked at\r\n'boom'\0".into()),
                    _ => Verdict::Hung("event cap".into()),
                },
                oracle: None,
                coverage: (0..edges).map(|n| format!("gmp:n{n}:Started")).collect(),
                shrink: None,
            });
        }
        journal.complete = complete;
        // What the journal loads back as: its free text made one line.
        Journal::from_text(journal.to_text()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `store.index`: a damaged index loads every campaign the damage did
    /// not touch, and a torn tail is never a campaign.
    #[test]
    fn a_damaged_index_loses_only_what_the_damage_touched(
        campaigns in proptest::collection::vec(
            (arb_params(), proptest::option::of("[A-Za-z0-9._-]{1,12}")), 1..6),
        draw in arb_draw(),
    ) {
        let dir = store_dir("index");
        let store = Store::open(&dir).unwrap();
        let records: Vec<_> = IDS
            .iter()
            .zip(campaigns)
            .map(|(id, (params, ident))| (id.to_string(), params, ident))
            .collect();
        for (id, params, ident) in &records {
            store.append_index(id, params, ident.as_deref()).unwrap();
        }
        check_store_file(&store.index_path(), &records, draw, || store.load_index().unwrap())?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `<id>.seeds`: the same for a pinned seed corpus.
    #[test]
    fn damaged_seeds_lose_only_what_the_damage_touched(
        seeds in proptest::collection::vec(arb_schedule(), 1..6),
        draw in arb_draw(),
    ) {
        let dir = store_dir("seeds");
        let store = Store::open(&dir).unwrap();
        store.write_seeds("c1", &seeds).unwrap();
        check_store_file(&store.seeds_path("c1"), &seeds, draw, || store.read_seeds("c1").unwrap())?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `corpus-<key>`: the same for a pool several merges wrote. And a
    /// torn pool is never merged over: after any cut, re-merging what was
    /// pooled restores exactly the pool.
    #[test]
    fn a_damaged_pool_loses_only_what_the_damage_touched(
        merges in proptest::collection::vec(
            proptest::collection::vec(arb_schedule(), 1..4), 1..4),
        draw in arb_draw(),
        cut_permille in 0usize..1000,
    ) {
        let dir = store_dir("pool");
        let store = Store::open(&dir).unwrap();
        for corpus in &merges {
            store.merge_corpus("gmp", corpus).unwrap();
        }
        let pool = store.read_corpus("gmp").unwrap();
        let path = store.corpus_path("gmp");
        let bytes = std::fs::read(&path).unwrap();
        check_store_file(&path, &pool, draw, || store.read_corpus("gmp").unwrap())?;
        std::fs::write(&path, &bytes[..bytes.len() * cut_permille / 1000]).unwrap();
        let reopened = Store::open(&dir).unwrap();
        reopened.merge_corpus("gmp", &pool).unwrap();
        prop_assert_eq!(reopened.read_corpus("gmp").unwrap(), pool);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `store.journal`: every block before the damage loads unchanged.
    /// Cut, the block the cut lands in loads as a prefix of its cases (an
    /// error only inside its metadata header), and none after it. A
    /// flipped bit costs the block it lands in and its two neighbours at
    /// most: a marker that no longer reads as one glues its block to the
    /// one before, a lost newline glues the next marker to its line. A
    /// junk prefix costs the first block at most.
    #[test]
    fn a_damaged_journal_segment_keeps_the_blocks_before_the_damage(
        journals in proptest::collection::vec(arb_journal(), 1..4),
        draw in arb_draw(),
    ) {
        let dir = store_dir("segment");
        let store = Store::open(&dir).unwrap();
        let path = store.journal_path();
        // Where each block's marker starts, and its marker's length.
        let mut starts = Vec::new();
        let records: Vec<_> = IDS.iter().zip(&journals).map(|(id, journal)| {
            starts.push(std::fs::metadata(&path).map_or(0, |m| m.len() as usize));
            let mut f = std::fs::OpenOptions::new().append(true).open(store.begin_journal(id).unwrap()).unwrap();
            std::io::Write::write_all(&mut f, journal.to_text().as_bytes()).unwrap();
            (id.to_string(), Ok(journal.clone()))
        }).collect();
        let bytes = std::fs::read(&path).unwrap();
        let load = || -> Vec<(String, Result<Journal, String>)> {
            store.journal_blocks().unwrap().map(Result::unwrap).collect()
        };
        prop_assert_eq!(&load(), &records);
        let end = |k: usize| starts.get(k + 1).copied().unwrap_or(bytes.len());
        for damage in Damage::each(draw, bytes.len()) {
            std::fs::write(&path, damage.apply(&bytes)).unwrap();
            let loaded = load();
            match damage {
                Damage::Cut(at) => {
                    let marked = (0..records.len())
                        .filter(|&k| starts[k] + records[k].0.len() + "journal \n".len() <= at)
                        .count();
                    prop_assert_eq!(loaded.len(), marked, "cut at {}", at);
                    let Some(k) = marked.checked_sub(1) else { continue };
                    prop_assert_eq!(&loaded[..k], &records[..k], "cut at {}", at);
                    prop_assert_eq!(&loaded[k].0, &records[k].0);
                    let whole = &journals[k];
                    match &loaded[k].1 {
                        _ if at >= end(k) => prop_assert_eq!(&loaded[k], &records[k]),
                        Ok(torn) => {
                            prop_assert_eq!(&torn.meta, &whole.meta);
                            prop_assert_eq!(&torn.cases[..], &whole.cases[..torn.cases.len()]);
                            prop_assert!(!torn.complete);
                        }
                        Err(_) => {
                            let header = starts[k] + records[k].0.len() + "journal \n".len()
                                + Journal::new(whole.meta.clone()).to_text().len();
                            prop_assert!(at < header, "cut at {} errs past the header", at);
                        }
                    }
                }
                Damage::Flip(at, _) => {
                    let k = starts.iter().rposition(|&s| s <= at).unwrap();
                    let kept = (k + 2).min(records.len());
                    prop_assert!(
                        loaded.starts_with(&records[..k.saturating_sub(1)])
                            && loaded.ends_with(&records[kept..]),
                        "{:?} loaded {:?}", damage, loaded
                    );
                }
                Damage::Junk(_) => prop_assert!(
                    loaded == records || loaded == records[1..],
                    "{:?} loaded {:?}", damage, loaded
                ),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// The schedule line (`FaultSchedule::id`): it round-trips, and
    /// parsed from damaged text it errs or yields faults of which all but
    /// the last were written whole. (A cut can shorten the last one's
    /// number, which is why the store reads schedule lines only from
    /// finished lines.)
    #[test]
    fn a_damaged_schedule_line_errs_or_keeps_its_whole_faults(
        schedule in prop_oneof![Just(FaultSchedule::empty()).boxed(), arb_schedule().boxed()],
        draw in arb_draw(),
    ) {
        let id = schedule.id();
        prop_assert_eq!(FaultSchedule::from_id(&id).unwrap(), schedule.clone());
        for damage in Damage::each(draw, id.len()) {
            let text = String::from_utf8_lossy(&damage.apply(id.as_bytes())).into_owned();
            let Ok(parsed) = FaultSchedule::from_id(&text) else { continue };
            let whole = parsed.len().saturating_sub(1);
            match damage {
                Damage::Cut(_) => prop_assert_eq!(&parsed.faults[..whole], &schedule.faults[..whole]),
                Damage::Flip(..) => prop_assert!(parsed.len() <= schedule.len()),
                Damage::Junk(_) => prop_assert!(
                    parsed.faults.ends_with(&schedule.faults[1..]),
                    "{:?} parsed as {}", text, parsed.id()
                ),
            }
        }
    }

    /// A repro artifact: damaged, it loads only if a bit flip left it
    /// well-formed — cut, it has lost the newline after `end`; prefixed,
    /// its header.
    #[test]
    fn a_damaged_repro_is_refused_unless_a_flip_left_it_well_formed(
        schedule in arb_schedule(),
        message in "[ -~]{0,40}",
        draw in arb_draw(),
    ) {
        let repro = pfi_testgen::Repro {
            target: "gmp".into(),
            seed: 4242,
            oracle: "gmp-agreement".into(),
            message,
            schedule,
        };
        let text = repro.to_text();
        prop_assert_eq!(pfi_testgen::Repro::from_text(&text).unwrap(), repro.clone());
        for damage in Damage::each(draw, text.len()) {
            if let Ok(parsed) = pfi_testgen::Repro::from_text(damage.apply(text.as_bytes())) {
                prop_assert!(matches!(damage, Damage::Flip(..)), "{:?} loaded", damage);
                prop_assert!(parsed.schedule.len() <= repro.schedule.len());
            }
        }
    }

    /// A journal: cut, it loads a prefix of its cases (an error only
    /// inside the metadata header); with a bit flipped it loads with at
    /// most one case altered, or errs; prefixed with junk it errs.
    #[test]
    fn a_damaged_journal_errs_or_keeps_its_untouched_cases(
        journal in arb_journal(),
        draw in arb_draw(),
    ) {
        let meta_len = Journal::new(journal.meta.clone()).to_text().len();
        let text = journal.to_text();
        let written = Journal::from_text(&text).unwrap();
        for damage in Damage::each(draw, text.len()) {
            match (Journal::from_text(damage.apply(text.as_bytes())), &damage) {
                (Ok(loaded), Damage::Cut(_)) => {
                    prop_assert_eq!(&loaded.cases[..], &written.cases[..loaded.cases.len()]);
                    prop_assert!(!loaded.complete);
                }
                (Err(_), Damage::Cut(at)) => prop_assert!(*at < meta_len, "cut at {} errs", at),
                (Ok(loaded), Damage::Flip(..)) => {
                    prop_assert!(loaded.cases.len() <= written.cases.len());
                    let altered = loaded.cases.iter().zip(&written.cases).filter(|(a, b)| a != b);
                    prop_assert!(altered.count() <= 1, "{:?}", damage);
                }
                (Ok(_), Damage::Junk(_)) => prop_assert!(false, "{:?} loaded", damage),
                (Err(_), _) => {}
            }
        }
    }
}
