//! Property-based tests for GMP packets and the stub.

use pfi_core::PacketStub;
use pfi_gmp::{GmpPacket, GmpStub, GmpType};
use pfi_sim::{Message, NodeId};
use proptest::prelude::*;

fn arb_type() -> impl Strategy<Value = GmpType> {
    prop_oneof![
        Just(GmpType::Heartbeat),
        Just(GmpType::Proclaim),
        Just(GmpType::Join),
        Just(GmpType::MembershipChange),
        Just(GmpType::AckMc),
        Just(GmpType::NakMc),
        Just(GmpType::Commit),
        Just(GmpType::FailureReport),
    ]
}

fn arb_packet() -> impl Strategy<Value = GmpPacket> {
    (
        arb_type(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u32>(), 0..20),
    )
        .prop_map(|(ty, sender, origin, group_id, members)| GmpPacket {
            ty,
            sender: NodeId::new(sender),
            origin: NodeId::new(origin),
            group_id,
            members: members.into_iter().map(NodeId::new).collect(),
        })
}

proptest! {
    /// Serialisation round trip, bare and with the rudp service prefix.
    #[test]
    fn packet_roundtrip(pkt in arb_packet()) {
        let bytes = pkt.to_bytes();
        let parsed = GmpPacket::parse(&bytes);
        prop_assert_eq!(parsed.as_ref(), Some(&pkt));
        let mut framed = vec![0u8];
        framed.extend_from_slice(&bytes);
        prop_assert_eq!(GmpPacket::parse(&framed), Some(pkt));
    }

    /// The parser never panics on arbitrary input, and truncations of valid
    /// packets are always rejected (no partial parses).
    #[test]
    fn parser_rejects_truncations(pkt in arb_packet(), cut in 1usize..30) {
        let bytes = pkt.to_bytes();
        let cut = cut.min(bytes.len() - 1);
        prop_assert_eq!(GmpPacket::parse(&bytes[..bytes.len() - cut]), None);
    }

    /// Arbitrary garbage never panics the parser or the stub.
    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = GmpPacket::parse(&bytes);
        let m = Message::new(NodeId::new(0), NodeId::new(1), &bytes);
        let _ = GmpStub.type_of(&m);
        let _ = GmpStub.field(&m, "sender");
    }

    /// The stub's field values agree with the parsed packet.
    #[test]
    fn stub_fields_agree_with_parse(pkt in arb_packet()) {
        let m = Message::new(NodeId::new(0), NodeId::new(1), &pkt.to_bytes());
        prop_assert_eq!(GmpStub.field(&m, "sender"), Some(pkt.sender.index() as i64));
        prop_assert_eq!(GmpStub.field(&m, "origin"), Some(pkt.origin.index() as i64));
        prop_assert_eq!(GmpStub.field(&m, "nmembers"), Some(pkt.members.len() as i64));
        prop_assert_eq!(GmpStub.type_of(&m), Some(pkt.ty.name().to_string()));
    }
}
