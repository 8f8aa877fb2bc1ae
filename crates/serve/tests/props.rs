//! Property-based tests for the pfi-serve wire protocol: the request and
//! reply parsers must round-trip every value their writers can produce,
//! and must return errors — never panic, never buffer unboundedly — when
//! fed truncated, bit-flipped, or garbage-prefixed frames. These are the
//! same corruption shapes `faultio` injects at runtime; the properties
//! here pin the parser half of that contract without needing a daemon.

use std::io::BufReader;

use pfi_serve::proto::{
    parse_kv, read_line_bounded, read_reply_limited, write_reply, LineOutcome, ProtoLimits,
};
use pfi_serve::{CampaignParams, Request};
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
        (0usize..100_000, 0usize..64, 1usize..1_000, any::<bool>()),
        (any::<bool>(), 0u64..1_000_000, any::<bool>()),
    )
        .prop_map(
            |(
                (proto, buggy, fault_secs, seed),
                (budget, max_faults, epoch, prefilter),
                (snapshots, step_budget, share_corpus),
            )| CampaignParams {
                proto,
                buggy,
                fault_secs,
                seed,
                budget,
                max_faults,
                epoch,
                prefilter,
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
        let kv = params.to_kv();
        let back = CampaignParams::from_kv(&kv).unwrap();
        prop_assert_eq!(back, params);
    }

    /// Every request the client can render parses back to itself.
    #[test]
    fn request_render_parse_round_trip(req in arb_request()) {
        let line = req.render();
        let back = Request::parse(&line).unwrap();
        prop_assert_eq!(back, req);
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
        let reply = read_reply_limited(&mut r, true, &ProtoLimits::default()).unwrap();
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
        match read_reply_limited(&mut r, true, &ProtoLimits::default()) {
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
        let _ = read_reply_limited(&mut r, true, &ProtoLimits::default());
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
        if let Ok(reply) = read_reply_limited(&mut r, true, &ProtoLimits::default()) {
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
