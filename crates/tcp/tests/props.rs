//! Property-based tests for the TCP substrate.

use pfi_sim::{Message, NodeId, SimDuration};
use pfi_tcp::{flags, RttEstimator, Segment, TcpStub, HEADER_LEN};
use proptest::prelude::*;

use pfi_core::PacketStub;

fn arb_segment() -> impl Strategy<Value = Segment> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        0u8..32,
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..600),
    )
        .prop_map(
            |(src_port, dst_port, seq, ack, flags, window, payload)| Segment {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                payload,
            },
        )
}

proptest! {
    /// Encoding then decoding any segment returns the original.
    #[test]
    fn segment_roundtrip(seg in arb_segment()) {
        let m = seg.encode(NodeId::new(0), NodeId::new(1));
        prop_assert_eq!(Segment::decode(&m).unwrap(), seg);
    }

    /// Flipping any single bit of an encoded segment is always detected.
    #[test]
    fn any_single_bitflip_is_detected(seg in arb_segment(), byte in any::<usize>(), bit in 0u8..8) {
        let mut m = seg.encode(NodeId::new(0), NodeId::new(1));
        let len = m.len();
        let off = byte % len;
        let orig = m.byte_at(off).unwrap();
        m.set_byte_at(off, orig ^ (1 << bit));
        prop_assert!(Segment::decode(&m).is_err(), "bit {bit} of byte {off} slipped through");
    }

    /// The stub names a segment in place exactly as decoding it would,
    /// for intact, bit-flipped and arbitrary images.
    #[test]
    fn type_name_in_place_matches_decode(
        seg in arb_segment(),
        flip in proptest::option::of((any::<usize>(), 0u8..8)),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut m = seg.encode(NodeId::new(0), NodeId::new(1));
        if let Some((byte, bit)) = flip {
            let off = byte % m.len();
            let orig = m.byte_at(off).unwrap();
            m.set_byte_at(off, orig ^ (1 << bit));
        }
        let junk = Message::new(NodeId::new(0), NodeId::new(1), &bytes);
        for m in [&m, &junk] {
            let named = TcpStub.type_name(m);
            prop_assert_eq!(
                named.as_deref(),
                Segment::decode(m).ok().map(|s| s.type_name())
            );
        }
    }

    /// The decoder never panics on arbitrary byte buffers.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..700)) {
        let m = Message::new(NodeId::new(0), NodeId::new(1), &bytes);
        let _ = Segment::decode(&m);
        let _ = TcpStub.type_of(&m);
        let _ = TcpStub.field(&m, "seq");
    }

    /// The RTO stays within [min, max] whatever samples arrive, and the
    /// backed-off RTO never exceeds max.
    #[test]
    fn rto_respects_bounds(
        samples in proptest::collection::vec(0u64..600_000_000, 0..60),
        backoff in 0u32..40,
    ) {
        let min = SimDuration::from_secs(1);
        let max = SimDuration::from_secs(64);
        let mut est = RttEstimator::new(true, SimDuration::from_millis(1_500), min, max);
        for s in samples {
            est.sample(SimDuration::from_micros(s));
            let rto = est.base_rto();
            prop_assert!(rto >= min && rto <= max, "rto {rto} out of bounds");
        }
        prop_assert!(est.backed_off_rto(backoff) <= max);
    }

    /// `set_field` through the stub keeps the wire image decodable and
    /// changes exactly the requested field.
    #[test]
    fn stub_field_edits_stay_consistent(seg in arb_segment(), new_window in any::<u16>()) {
        let mut m = seg.encode(NodeId::new(0), NodeId::new(1));
        prop_assert!(TcpStub.set_field(&mut m, "window", new_window as i64));
        let d = Segment::decode(&m).unwrap();
        prop_assert_eq!(d.window, new_window);
        prop_assert_eq!(d.payload, seg.payload);
        prop_assert_eq!(d.seq, seg.seq);
    }

    /// Sequence-space length accounting: header length plus payload
    /// equals the wire size; SYN/FIN add to seq_len but not wire size.
    #[test]
    fn wire_size_accounting(seg in arb_segment()) {
        let m = seg.encode(NodeId::new(0), NodeId::new(1));
        prop_assert_eq!(m.len(), HEADER_LEN + seg.payload.len());
        let expected = seg.payload.len() as u32
            + seg.has(flags::SYN) as u32
            + seg.has(flags::FIN) as u32;
        prop_assert_eq!(seg.seq_len(), expected);
    }
}
