//! TCP segment wire format and the packet stub for PFI scripts.
//!
//! A simplified but byte-real 20-byte header: scripts can read, corrupt,
//! and forge these segments through the [`TcpStub`], exactly as the paper's
//! stubs expose "the headers or packet format of the target protocol".
//!
//! ```text
//! offset  size  field
//!      0     2  src_port   (big-endian)
//!      2     2  dst_port
//!      4     4  seq
//!      8     4  ack
//!     12     1  flags      (FIN|SYN|RST|PSH|ACK)
//!     13     1  reserved
//!     14     2  window
//!     16     2  payload length
//!     18     2  checksum   (16-bit sum over header-with-zero-checksum + payload)
//! ```

use std::borrow::Cow;

use pfi_core::PacketStub;
use pfi_sim::{Message, NodeId};

/// Size of the fixed TCP header.
pub const HEADER_LEN: usize = 20;

/// Segment flag bits.
pub mod flags {
    /// Sender has finished sending.
    pub const FIN: u8 = 0x01;
    /// Synchronise sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push data to the application.
    pub const PSH: u8 = 0x08;
    /// The `ack` field is significant.
    pub const ACK: u8 = 0x10;
}

/// A decoded TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Sender's port.
    pub src_port: u16,
    /// Receiver's port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Next sequence number expected from the peer (when `ACK` set).
    pub ack: u32,
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// Advertised receive window.
    pub window: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Why a byte buffer failed to decode as a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Shorter than the fixed header.
    TooShort,
    /// The length field disagrees with the buffer size.
    LengthMismatch,
    /// Checksum verification failed (corruption).
    BadChecksum,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeError::TooShort => "segment shorter than header",
            DecodeError::LengthMismatch => "length field mismatch",
            DecodeError::BadChecksum => "bad checksum",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

fn checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut i = 0;
    while i < bytes.len() {
        let hi = bytes[i] as u32;
        let lo = if i + 1 < bytes.len() {
            bytes[i + 1] as u32
        } else {
            0
        };
        sum = sum.wrapping_add((hi << 8) | lo);
        i += 2;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

impl Segment {
    /// Whether a flag bit is set.
    pub fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// Sequence-space length: payload bytes plus one for SYN and FIN.
    pub fn seq_len(&self) -> u32 {
        let mut n = self.payload.len() as u32;
        if self.has(flags::SYN) {
            n += 1;
        }
        if self.has(flags::FIN) {
            n += 1;
        }
        n
    }

    /// Encodes the segment into a wire message between two nodes.
    pub fn encode(&self, src: NodeId, dst: NodeId) -> Message {
        let mut buf = vec![0u8; HEADER_LEN + self.payload.len()];
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = self.flags;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&(self.payload.len() as u16).to_be_bytes());
        buf[HEADER_LEN..].copy_from_slice(&self.payload);
        let ck = checksum(&buf);
        buf[18..20].copy_from_slice(&ck.to_be_bytes());
        Message::new(src, dst, &buf)
    }

    /// Decodes a wire message into a segment, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, inconsistent, or corrupted
    /// buffers.
    pub fn decode(msg: &Message) -> Result<Segment, DecodeError> {
        let b = msg.bytes();
        if b.len() < HEADER_LEN {
            return Err(DecodeError::TooShort);
        }
        let plen = u16::from_be_bytes([b[16], b[17]]) as usize;
        if b.len() != HEADER_LEN + plen {
            return Err(DecodeError::LengthMismatch);
        }
        let stored = u16::from_be_bytes([b[18], b[19]]);
        let mut copy = b.to_vec();
        copy[18] = 0;
        copy[19] = 0;
        if checksum(&copy) != stored {
            return Err(DecodeError::BadChecksum);
        }
        Ok(Segment {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            flags: b[12],
            window: u16::from_be_bytes([b[14], b[15]]),
            payload: b[HEADER_LEN..].to_vec(),
        })
    }

    /// The display type of this segment (matches [`TcpStub::type_of`]).
    pub fn type_name(&self) -> &'static str {
        if self.has(flags::RST) {
            "RST"
        } else if self.has(flags::SYN) && self.has(flags::ACK) {
            "SYN-ACK"
        } else if self.has(flags::SYN) {
            "SYN"
        } else if self.has(flags::FIN) {
            "FIN"
        } else if !self.payload.is_empty() {
            "DATA"
        } else if self.has(flags::ACK) {
            "ACK"
        } else {
            "NONE"
        }
    }
}

/// Packet recognition/generation stub for TCP, used by PFI scripts.
///
/// Recognised fields: `src_port`, `dst_port`, `seq`, `ack`, `flags`,
/// `window`, `len`. Generation (for `xInject`):
///
/// * `ACK <dst-node> <src_port> <dst_port> <seq> <ack> <window>` — a
///   spurious acknowledgement ("no data structures need to be updated").
/// * `RST <dst-node> <src_port> <dst_port> <seq>` — a forged reset.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStub;

impl PacketStub for TcpStub {
    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }

    fn protocol(&self) -> &'static str {
        "tcp"
    }

    fn type_of(&self, msg: &Message) -> Option<String> {
        self.type_name(msg).map(Cow::into_owned)
    }

    fn type_name(&self, msg: &Message) -> Option<Cow<'static, str>> {
        Segment::decode(msg)
            .ok()
            .map(|s| Cow::Borrowed(s.type_name()))
    }

    fn field(&self, msg: &Message, name: &str) -> Option<i64> {
        let s = Segment::decode(msg).ok()?;
        let v = match name {
            "src_port" => s.src_port as i64,
            "dst_port" => s.dst_port as i64,
            "seq" => s.seq as i64,
            "ack" => s.ack as i64,
            "flags" => s.flags as i64,
            "window" => s.window as i64,
            "len" => s.payload.len() as i64,
            _ => return None,
        };
        Some(v)
    }

    fn set_field(&self, msg: &mut Message, name: &str, value: i64) -> bool {
        let Ok(mut s) = Segment::decode(msg) else {
            return false;
        };
        match name {
            "src_port" => s.src_port = value as u16,
            "dst_port" => s.dst_port = value as u16,
            "seq" => s.seq = value as u32,
            "ack" => s.ack = value as u32,
            "flags" => s.flags = value as u8,
            "window" => s.window = value as u16,
            _ => return false,
        }
        *msg = s.encode(msg.src(), msg.dst());
        true
    }

    fn generate(&self, src: NodeId, args: &[String]) -> Result<Message, String> {
        let parse_u = |i: usize, what: &str| -> Result<u32, String> {
            args.get(i)
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<u32>()
                .map_err(|_| format!("bad {what} \"{}\"", args[i]))
        };
        let ty = args
            .first()
            .map(|s| s.to_ascii_uppercase())
            .unwrap_or_default();
        match ty.as_str() {
            "ACK" => {
                let dst = parse_u(1, "dst node")?;
                let seg = Segment {
                    src_port: parse_u(2, "src_port")? as u16,
                    dst_port: parse_u(3, "dst_port")? as u16,
                    seq: parse_u(4, "seq")?,
                    ack: parse_u(5, "ack")?,
                    flags: flags::ACK,
                    window: parse_u(6, "window")? as u16,
                    payload: Vec::new(),
                };
                Ok(seg.encode(src, NodeId::new(dst)))
            }
            "RST" => {
                let dst = parse_u(1, "dst node")?;
                let seg = Segment {
                    src_port: parse_u(2, "src_port")? as u16,
                    dst_port: parse_u(3, "dst_port")? as u16,
                    seq: parse_u(4, "seq")?,
                    ack: 0,
                    flags: flags::RST,
                    window: 0,
                    payload: Vec::new(),
                };
                Ok(seg.encode(src, NodeId::new(dst)))
            }
            other => Err(format!(
                "tcp stub cannot generate \"{other}\" (only ACK, RST)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg() -> Segment {
        Segment {
            src_port: 1234,
            dst_port: 80,
            seq: 0xDEADBEEF,
            ack: 0x01020304,
            flags: flags::ACK | flags::PSH,
            window: 4096,
            payload: b"hello world".to_vec(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = seg();
        let m = s.encode(NodeId::new(0), NodeId::new(1));
        assert_eq!(m.len(), HEADER_LEN + 11);
        let d = Segment::decode(&m).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn corruption_fails_checksum() {
        let m0 = seg().encode(NodeId::new(0), NodeId::new(1));
        for off in [0, 4, 12, 14, HEADER_LEN, HEADER_LEN + 5] {
            let mut m = m0.clone();
            let b = m.byte_at(off).unwrap();
            m.set_byte_at(off, b ^ 0x40);
            assert!(
                matches!(Segment::decode(&m), Err(DecodeError::BadChecksum)),
                "offset {off} corruption must be caught"
            );
        }
    }

    #[test]
    fn truncated_and_inconsistent_buffers() {
        let m = Message::new(NodeId::new(0), NodeId::new(1), &[0u8; 10]);
        assert_eq!(Segment::decode(&m), Err(DecodeError::TooShort));
        let mut m = seg().encode(NodeId::new(0), NodeId::new(1));
        m.truncate(HEADER_LEN + 3);
        assert_eq!(Segment::decode(&m), Err(DecodeError::LengthMismatch));
    }

    #[test]
    fn type_names() {
        let mut s = seg();
        assert_eq!(s.type_name(), "DATA");
        s.payload.clear();
        assert_eq!(s.type_name(), "ACK");
        s.flags = flags::SYN;
        assert_eq!(s.type_name(), "SYN");
        s.flags = flags::SYN | flags::ACK;
        assert_eq!(s.type_name(), "SYN-ACK");
        s.flags = flags::FIN | flags::ACK;
        assert_eq!(s.type_name(), "FIN");
        s.flags = flags::RST;
        assert_eq!(s.type_name(), "RST");
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = seg();
        assert_eq!(s.seq_len(), 11);
        s.flags |= flags::SYN;
        assert_eq!(s.seq_len(), 12);
        s.flags |= flags::FIN;
        assert_eq!(s.seq_len(), 13);
    }

    #[test]
    fn stub_recognises_fields() {
        let m = seg().encode(NodeId::new(0), NodeId::new(1));
        let stub = TcpStub;
        assert_eq!(stub.type_of(&m).as_deref(), Some("DATA"));
        assert_eq!(stub.field(&m, "seq"), Some(0xDEADBEEFu32 as i64));
        assert_eq!(stub.field(&m, "window"), Some(4096));
        assert_eq!(stub.field(&m, "len"), Some(11));
        assert_eq!(stub.field(&m, "nonsense"), None);
    }

    #[test]
    fn stub_set_field_reencodes_with_valid_checksum() {
        let mut m = seg().encode(NodeId::new(0), NodeId::new(1));
        let stub = TcpStub;
        assert!(stub.set_field(&mut m, "window", 0));
        let d = Segment::decode(&m).unwrap();
        assert_eq!(d.window, 0);
    }

    #[test]
    fn stub_generates_spurious_ack() {
        let stub = TcpStub;
        let args: Vec<String> = ["ACK", "1", "5000", "80", "100", "200", "4096"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = stub.generate(NodeId::new(0), &args).unwrap();
        let s = Segment::decode(&m).unwrap();
        assert_eq!(s.type_name(), "ACK");
        assert_eq!(s.ack, 200);
        assert!(stub
            .generate(NodeId::new(0), &["DATA".to_string()])
            .is_err());
    }

    #[test]
    fn checksum_detects_swapped_bytes() {
        // Ones-complement style sums catch simple reorderings of 16-bit
        // words only when values differ; verify a realistic corruption.
        let m = seg().encode(NodeId::new(0), NodeId::new(1));
        let mut m2 = m.clone();
        m2.set_byte_at(HEADER_LEN, b'X');
        assert!(Segment::decode(&m2).is_err());
    }
}
