//! The message abstraction exchanged between protocol layers.
//!
//! Following the x-Kernel model the paper builds on, a message is a flat
//! byte buffer onto which each layer *pushes* its header on the way down the
//! stack and from which it *strips* the header on the way up. The PFI layer
//! additionally needs raw byte access so that scripts can examine and corrupt
//! arbitrary header fields.

use crate::ids::NodeId;

/// Default headroom reserved in front of a fresh payload so that lower
/// layers can push headers without reallocating.
const DEFAULT_HEADROOM: usize = 64;

/// A network message travelling through a protocol stack.
///
/// The buffer is contiguous; [`push_header`](Message::push_header) prepends
/// bytes (lower layers add their headers) and
/// [`strip_header`](Message::strip_header) removes them again on the way up.
/// The source and destination node addresses are simulator metadata — they
/// model the device-level addressing that the bottom of a real stack would
/// carry — and are preserved across header operations.
///
/// # Examples
///
/// ```
/// use pfi_sim::{Message, NodeId};
///
/// let mut m = Message::new(NodeId::new(0), NodeId::new(1), b"payload");
/// m.push_header(&[0xAA, 0xBB]);
/// assert_eq!(m.len(), 9);
/// let hdr = m.strip_header(2).unwrap();
/// assert_eq!(hdr, vec![0xAA, 0xBB]);
/// assert_eq!(m.bytes(), b"payload");
/// ```
///
/// Two messages are equal when their addresses and valid bytes are; how
/// much headroom either has consumed is not part of a message's value.
#[derive(Debug, Clone)]
pub struct Message {
    src: NodeId,
    dst: NodeId,
    /// Backing storage; valid bytes are `buf[head..]`.
    buf: Vec<u8>,
    head: usize,
}

impl PartialEq for Message {
    fn eq(&self, other: &Self) -> bool {
        (self.src, self.dst, self.bytes()) == (other.src, other.dst, other.bytes())
    }
}

impl Eq for Message {}

impl Message {
    /// Creates a message with the given payload, reserving headroom for
    /// headers pushed by lower layers.
    pub fn new(src: NodeId, dst: NodeId, payload: &[u8]) -> Self {
        let mut msg = Self::with_capacity(src, dst, payload.len());
        msg.extend_payload(payload);
        msg
    }

    /// Creates an empty message with room for `capacity` payload bytes
    /// behind the headroom, so a sender can serialise straight into it with
    /// [`extend_payload`](Message::extend_payload) in one allocation.
    pub fn with_capacity(src: NodeId, dst: NodeId, capacity: usize) -> Self {
        let mut buf = Vec::with_capacity(DEFAULT_HEADROOM + capacity);
        buf.resize(DEFAULT_HEADROOM, 0);
        Message {
            src,
            dst,
            buf,
            head: DEFAULT_HEADROOM,
        }
    }

    /// Creates an empty message (headers only will follow).
    pub fn empty(src: NodeId, dst: NodeId) -> Self {
        Self::new(src, dst, &[])
    }

    /// The sending node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Overrides the source address (used by injection stubs to forge
    /// messages that appear to come from another participant).
    pub fn set_src(&mut self, src: NodeId) {
        self.src = src;
    }

    /// Overrides the destination address.
    pub fn set_dst(&mut self, dst: NodeId) {
        self.dst = dst;
    }

    /// Total number of valid bytes (headers + payload).
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether the message carries no bytes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The valid bytes of the message.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// Mutable access to the valid bytes (scripts corrupt fields through
    /// this).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.head..]
    }

    /// Prepends `header` to the front of the message.
    pub fn push_header(&mut self, header: &[u8]) {
        if header.len() <= self.head {
            let start = self.head - header.len();
            self.buf[start..self.head].copy_from_slice(header);
            self.head = start;
        } else {
            // Not enough headroom: reallocate with fresh headroom in front.
            let mut nbuf = Vec::with_capacity(DEFAULT_HEADROOM + header.len() + self.len());
            nbuf.resize(DEFAULT_HEADROOM, 0);
            nbuf.extend_from_slice(header);
            nbuf.extend_from_slice(self.bytes());
            self.buf = nbuf;
            self.head = DEFAULT_HEADROOM;
        }
    }

    /// Removes and returns the first `n` bytes (a header being stripped on
    /// the way up the stack), or `None` if the message is shorter than `n`.
    pub fn strip_header(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.len() < n {
            return None;
        }
        let hdr = self.buf[self.head..self.head + n].to_vec();
        self.head += n;
        Some(hdr)
    }

    /// Consumes the first `n` bytes in place — [`strip_header`] without
    /// the copy, for a layer that has already read the header through
    /// [`peek_header`] or [`bytes`]. Returns `false` (and leaves the
    /// message unchanged) if the message is shorter than `n`.
    ///
    /// [`strip_header`]: Message::strip_header
    /// [`peek_header`]: Message::peek_header
    /// [`bytes`]: Message::bytes
    pub fn skip_header(&mut self, n: usize) -> bool {
        if self.len() < n {
            return false;
        }
        self.head += n;
        true
    }

    /// Returns the first `n` bytes without consuming them, or `None` if the
    /// message is shorter than `n`.
    pub fn peek_header(&self, n: usize) -> Option<&[u8]> {
        self.bytes().get(..n)
    }

    /// Reads one byte at `offset` into the valid region.
    pub fn byte_at(&self, offset: usize) -> Option<u8> {
        self.bytes().get(offset).copied()
    }

    /// Overwrites one byte at `offset`. Returns `false` (and leaves the
    /// message unchanged) if `offset` is out of range.
    pub fn set_byte_at(&mut self, offset: usize, value: u8) -> bool {
        match self.bytes_mut().get_mut(offset) {
            Some(b) => {
                *b = value;
                true
            }
            None => false,
        }
    }

    /// Truncates the message to `n` valid bytes (drops the tail).
    pub fn truncate(&mut self, n: usize) {
        let keep = self.head + n.min(self.len());
        self.buf.truncate(keep);
    }

    /// Appends bytes to the end of the message.
    pub fn extend_payload(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Copies the valid bytes into a detached, owned buffer.
    pub fn to_owned_bytes(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(payload: &[u8]) -> Message {
        Message::new(NodeId::new(0), NodeId::new(1), payload)
    }

    #[test]
    fn push_and_strip_roundtrip() {
        let mut m = msg(b"data");
        m.push_header(b"H1");
        m.push_header(b"H0");
        assert_eq!(m.bytes(), b"H0H1data");
        assert_eq!(m.strip_header(2).unwrap(), b"H0");
        assert_eq!(m.strip_header(2).unwrap(), b"H1");
        assert_eq!(m.bytes(), b"data");
    }

    #[test]
    fn strip_too_much_returns_none() {
        let mut m = msg(b"ab");
        assert!(m.strip_header(3).is_none());
        assert_eq!(m.bytes(), b"ab");
    }

    #[test]
    fn headroom_overflow_reallocates() {
        let mut m = msg(b"x");
        let big = vec![7u8; 200];
        m.push_header(&big);
        assert_eq!(m.len(), 201);
        assert_eq!(m.bytes()[..200], big[..]);
        // Still has room for more headers afterwards.
        m.push_header(b"hd");
        assert_eq!(m.len(), 203);
        assert_eq!(&m.bytes()[..2], b"hd");
    }

    #[test]
    fn byte_access_and_mutation() {
        let mut m = msg(b"abc");
        assert_eq!(m.byte_at(1), Some(b'b'));
        assert!(m.set_byte_at(1, b'Z'));
        assert_eq!(m.bytes(), b"aZc");
        assert!(!m.set_byte_at(10, 0));
        assert_eq!(m.byte_at(10), None);
    }

    #[test]
    fn addresses_survive_header_ops() {
        let mut m = Message::new(NodeId::new(3), NodeId::new(4), b"p");
        m.push_header(b"h");
        m.strip_header(1).unwrap();
        assert_eq!(m.src(), NodeId::new(3));
        assert_eq!(m.dst(), NodeId::new(4));
        m.set_src(NodeId::new(9));
        m.set_dst(NodeId::new(8));
        assert_eq!((m.src(), m.dst()), (NodeId::new(9), NodeId::new(8)));
    }

    #[test]
    fn truncate_and_extend() {
        let mut m = msg(b"abcdef");
        m.truncate(3);
        assert_eq!(m.bytes(), b"abc");
        m.extend_payload(b"XY");
        assert_eq!(m.bytes(), b"abcXY");
        m.truncate(100); // beyond length is a no-op
        assert_eq!(m.bytes(), b"abcXY");
    }

    #[test]
    fn empty_message() {
        let m = Message::empty(NodeId::new(0), NodeId::new(1));
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.peek_header(1), None);
    }

    #[test]
    fn skip_header_consumes_in_place_like_strip() {
        let mut stripped = msg(b"data");
        stripped.push_header(b"HH");
        let mut skipped = stripped.clone();
        assert_eq!(stripped.strip_header(2).unwrap(), b"HH");
        assert!(skipped.skip_header(2));
        assert_eq!(skipped.bytes(), stripped.bytes());
        assert!(!skipped.skip_header(5), "longer than the message");
        assert_eq!(skipped.bytes(), b"data");
    }

    #[test]
    fn equality_ignores_consumed_headroom() {
        let mut m = msg(b"Hdata");
        assert!(m.skip_header(1));
        assert_eq!(m, msg(b"data"));
        assert_ne!(m, msg(b"Hdata"));
        let mut other_dst = msg(b"data");
        other_dst.set_dst(NodeId::new(7));
        assert_ne!(m, other_dst);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut m = msg(b"data");
        m.push_header(b"HH");
        assert_eq!(m.peek_header(2).unwrap(), b"HH");
        assert_eq!(m.len(), 6);
    }
}
