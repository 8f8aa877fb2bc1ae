//! GMP wire format and packet stub.
//!
//! ```text
//! offset size field
//!      0    1 magic (0xA7)
//!      1    1 message type
//!      2    4 sender id
//!      6    4 origin id   (original proclaimer when forwarded; else sender)
//!     10    8 group id
//!     18    1 member count N
//!     19   4N member ids
//! ```
//!
//! Because the PFI layer sits between GMP and the reliable datagram layer,
//! messages travelling *down* still carry the one-byte rudp service
//! selector in front of this header; the stub detects the magic byte at
//! offset 0 or 1 so filters work in both directions.

use std::borrow::Cow;

use pfi_core::PacketStub;
use pfi_sim::{Message, NodeId};

/// First byte of every GMP packet.
pub const MAGIC: u8 = 0xA7;

/// GMP message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GmpType {
    /// Periodic liveness beacon (sent unreliably).
    Heartbeat,
    /// "I want to be in a group" — broadcast to potential members.
    Proclaim,
    /// Request to join the receiver's group.
    Join,
    /// Phase 1 of the two-phase change: the proposed new group.
    MembershipChange,
    /// Positive acknowledgement of a `MembershipChange`.
    AckMc,
    /// Negative acknowledgement of a `MembershipChange`.
    NakMc,
    /// Phase 2: the agreed new group.
    Commit,
    /// A member reports a suspected failure to the leader.
    FailureReport,
}

impl GmpType {
    /// Stable wire value.
    pub fn to_byte(self) -> u8 {
        match self {
            GmpType::Heartbeat => 1,
            GmpType::Proclaim => 2,
            GmpType::Join => 3,
            GmpType::MembershipChange => 4,
            GmpType::AckMc => 5,
            GmpType::NakMc => 6,
            GmpType::Commit => 7,
            GmpType::FailureReport => 8,
        }
    }

    /// Parses a wire value.
    pub fn from_byte(b: u8) -> Option<GmpType> {
        Some(match b {
            1 => GmpType::Heartbeat,
            2 => GmpType::Proclaim,
            3 => GmpType::Join,
            4 => GmpType::MembershipChange,
            5 => GmpType::AckMc,
            6 => GmpType::NakMc,
            7 => GmpType::Commit,
            8 => GmpType::FailureReport,
            _ => return None,
        })
    }

    /// Name as used in filter scripts (`msg_type`), matching the paper's
    /// spelling.
    pub fn name(self) -> &'static str {
        match self {
            GmpType::Heartbeat => "HEARTBEAT",
            GmpType::Proclaim => "PROCLAIM",
            GmpType::Join => "JOIN",
            GmpType::MembershipChange => "MEMBERSHIP_CHANGE",
            GmpType::AckMc => "ACK",
            GmpType::NakMc => "NAK",
            GmpType::Commit => "COMMIT",
            GmpType::FailureReport => "FAILURE_REPORT",
        }
    }
}

/// A decoded GMP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmpPacket {
    /// Message type.
    pub ty: GmpType,
    /// The node that transmitted this packet.
    pub sender: NodeId,
    /// The node the content is about: the original proclaimer for
    /// forwarded `Proclaim`s, the suspect for `FailureReport`s; otherwise
    /// equal to `sender`.
    pub origin: NodeId,
    /// Group identifier (proposed or committed).
    pub group_id: u64,
    /// Member list (proposed/committed members, or carried members on a
    /// `Join` from a merging leader).
    pub members: Vec<NodeId>,
}

impl GmpPacket {
    /// Length of the wire image (without any rudp service selector).
    fn wire_len(&self) -> usize {
        19 + 4 * self.members.len()
    }

    /// Feeds the wire image to `put`, piece by piece.
    fn encode(&self, mut put: impl FnMut(&[u8])) {
        put(&[MAGIC, self.ty.to_byte()]);
        put(&self.sender.as_u32().to_be_bytes());
        put(&self.origin.as_u32().to_be_bytes());
        put(&self.group_id.to_be_bytes());
        put(&[self.members.len() as u8]);
        for m in &self.members {
            put(&m.as_u32().to_be_bytes());
        }
    }

    /// Serialises to bytes (without any rudp service selector).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.wire_len());
        self.encode(|piece| b.extend_from_slice(piece));
        b
    }

    /// Builds the down-framed message — rudp service selector, then the
    /// wire image — straight into one buffer.
    pub fn to_message(&self, service: u8, src: NodeId, dst: NodeId) -> Message {
        let mut msg = Message::with_capacity(src, dst, 1 + self.wire_len());
        msg.extend_payload(&[service]);
        self.encode(|piece| msg.extend_payload(piece));
        msg
    }

    /// The packet image inside `bytes` (a one-byte service selector in
    /// front is tolerated — send-direction framing) and its type, if the
    /// image is well formed.
    fn frame(bytes: &[u8]) -> Option<(&[u8], GmpType)> {
        let b = if bytes.first() == Some(&MAGIC) {
            bytes
        } else if bytes.get(1) == Some(&MAGIC) {
            &bytes[1..]
        } else {
            return None;
        };
        if b.len() < 19 {
            return None;
        }
        let ty = GmpType::from_byte(b[1])?;
        if b.len() != 19 + 4 * b[18] as usize {
            return None;
        }
        Some((b, ty))
    }

    /// Parses from bytes, tolerating a one-byte service selector in front
    /// (send-direction framing).
    pub fn parse(bytes: &[u8]) -> Option<GmpPacket> {
        let (b, ty) = Self::frame(bytes)?;
        let sender = NodeId::new(u32::from_be_bytes([b[2], b[3], b[4], b[5]]));
        let origin = NodeId::new(u32::from_be_bytes([b[6], b[7], b[8], b[9]]));
        let group_id = u64::from_be_bytes([b[10], b[11], b[12], b[13], b[14], b[15], b[16], b[17]]);
        let members = (0..b[18] as usize)
            .map(|i| {
                let o = 19 + 4 * i;
                NodeId::new(u32::from_be_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]))
            })
            .collect();
        Some(GmpPacket {
            ty,
            sender,
            origin,
            group_id,
            members,
        })
    }
}

/// Packet stub for PFI layers interposed at the GMP ↔ rudp boundary.
///
/// Generation supports forging probes:
/// `PROCLAIM <dst-node> <origin>` and `HEARTBEAT <dst-node> <sender>`
/// (down-framed with the rudp service selector).
#[derive(Debug, Clone, Copy, Default)]
pub struct GmpStub;

impl PacketStub for GmpStub {
    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }

    fn protocol(&self) -> &'static str {
        "gmp"
    }

    fn type_of(&self, msg: &Message) -> Option<String> {
        self.type_name(msg).map(Cow::into_owned)
    }

    fn type_name(&self, msg: &Message) -> Option<Cow<'static, str>> {
        GmpPacket::frame(msg.bytes()).map(|(_, ty)| Cow::Borrowed(ty.name()))
    }

    fn field(&self, msg: &Message, name: &str) -> Option<i64> {
        let p = GmpPacket::parse(msg.bytes())?;
        match name {
            "sender" => Some(p.sender.index() as i64),
            "origin" => Some(p.origin.index() as i64),
            "gid" => Some(p.group_id as i64),
            "nmembers" => Some(p.members.len() as i64),
            _ => None,
        }
    }

    fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
        false
    }

    fn generate(&self, src: NodeId, args: &[String]) -> Result<Message, String> {
        let ty = match args.first().map(|s| s.to_ascii_uppercase()).as_deref() {
            Some("PROCLAIM") => GmpType::Proclaim,
            Some("HEARTBEAT") => GmpType::Heartbeat,
            other => return Err(format!("gmp stub cannot generate {other:?}")),
        };
        let parse_node = |i: usize, what: &str| -> Result<NodeId, String> {
            args.get(i)
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<u32>()
                .map(NodeId::new)
                .map_err(|_| format!("bad {what} \"{}\"", args[i]))
        };
        let dst = parse_node(1, "dst node")?;
        let who = parse_node(2, "subject node")?;
        let pkt = GmpPacket {
            ty,
            sender: who,
            origin: who,
            group_id: 0,
            members: vec![],
        };
        // Down-framed: prepend the rudp service selector (heartbeats are
        // fire-and-forget, the rest reliable).
        let svc = if ty == GmpType::Heartbeat { 1u8 } else { 0u8 };
        Ok(pkt.to_message(svc, src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> GmpPacket {
        GmpPacket {
            ty: GmpType::Commit,
            sender: NodeId::new(1),
            origin: NodeId::new(1),
            group_id: 0x1_0000_0002,
            members: vec![NodeId::new(1), NodeId::new(2), NodeId::new(4)],
        }
    }

    #[test]
    fn roundtrip() {
        let p = pkt();
        assert_eq!(GmpPacket::parse(&p.to_bytes()), Some(p));
    }

    #[test]
    fn parse_tolerates_service_prefix() {
        let p = pkt();
        let mut framed = vec![0u8];
        framed.extend_from_slice(&p.to_bytes());
        assert_eq!(GmpPacket::parse(&framed), Some(p));
    }

    #[test]
    fn to_message_is_selector_then_wire_image() {
        let p = pkt();
        let m = p.to_message(1, NodeId::new(0), NodeId::new(2));
        let mut framed = vec![1u8];
        framed.extend_from_slice(&p.to_bytes());
        assert_eq!(m, Message::new(NodeId::new(0), NodeId::new(2), &framed));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(GmpPacket::parse(&[]), None);
        assert_eq!(GmpPacket::parse(&[MAGIC, 99, 0, 0]), None);
        let mut truncated = pkt().to_bytes();
        truncated.pop();
        assert_eq!(GmpPacket::parse(&truncated), None);
    }

    #[test]
    fn type_names_and_bytes_roundtrip() {
        for ty in [
            GmpType::Heartbeat,
            GmpType::Proclaim,
            GmpType::Join,
            GmpType::MembershipChange,
            GmpType::AckMc,
            GmpType::NakMc,
            GmpType::Commit,
            GmpType::FailureReport,
        ] {
            assert_eq!(GmpType::from_byte(ty.to_byte()), Some(ty));
            assert!(!ty.name().is_empty());
        }
        assert_eq!(GmpType::from_byte(0), None);
    }

    #[test]
    fn stub_recognition_both_framings() {
        let p = pkt();
        let bare = Message::new(NodeId::new(0), NodeId::new(1), &p.to_bytes());
        assert_eq!(GmpStub.type_of(&bare).as_deref(), Some("COMMIT"));
        assert_eq!(GmpStub.field(&bare, "sender"), Some(1));
        assert_eq!(GmpStub.field(&bare, "nmembers"), Some(3));
        let mut framed_bytes = vec![0u8];
        framed_bytes.extend_from_slice(&p.to_bytes());
        let framed = Message::new(NodeId::new(0), NodeId::new(1), &framed_bytes);
        assert_eq!(GmpStub.type_of(&framed).as_deref(), Some("COMMIT"));
        assert_eq!(GmpStub.type_name(&framed), Some(Cow::Borrowed("COMMIT")));
        let mut truncated = p.to_bytes();
        truncated.pop();
        let truncated = Message::new(NodeId::new(0), NodeId::new(1), &truncated);
        assert_eq!(GmpStub.type_name(&truncated), None);
    }

    #[test]
    fn stub_generates_forged_proclaim() {
        let args: Vec<String> = ["PROCLAIM", "2", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = GmpStub.generate(NodeId::new(0), &args).unwrap();
        assert_eq!(m.dst(), NodeId::new(2));
        let p = GmpPacket::parse(m.bytes()).unwrap();
        assert_eq!(p.ty, GmpType::Proclaim);
        assert_eq!(p.origin, NodeId::new(3));
        assert!(GmpStub
            .generate(NodeId::new(0), &["COMMIT".to_string()])
            .is_err());
    }
}
