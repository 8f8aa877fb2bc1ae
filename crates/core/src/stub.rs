//! Packet recognition/generation stubs.
//!
//! "The packet recognition/generation stubs … are invoked to determine the
//! message type whenever a message is intercepted by the PFI layer. … The
//! packet stubs are written by people who know the packet formats of the
//! target protocol." Each protocol crate ships a stub (`TcpStub`, `GmpStub`,
//! …); scripts reach them through `msg_type`, `msg_field`, and `xInject`.

use std::borrow::Cow;

use pfi_sim::{Message, NodeId};

/// Knowledge about one protocol's packet format: recognition (type and
/// fields) and generation (forging new packets for probes).
///
/// `Send` because stubs are installed inside PFI layers, which live in
/// worlds that cross thread boundaries. Stubs are typically stateless
/// zero-sized types, so this costs nothing.
pub trait PacketStub: Send {
    /// Name of the protocol this stub understands (e.g. `"tcp"`).
    fn protocol(&self) -> &'static str;

    /// The message's type name (e.g. `"ACK"`, `"COMMIT"`), if recognisable.
    fn type_of(&self, msg: &Message) -> Option<String>;

    /// [`type_of`](PacketStub::type_of) without the allocation, for stubs
    /// whose type names are static: the PFI layer asks this on every
    /// `msg_type` a filter evaluates. The default wraps `type_of`.
    fn type_name(&self, msg: &Message) -> Option<Cow<'static, str>> {
        self.type_of(msg).map(Cow::Owned)
    }

    /// Reads a named header field as an integer (e.g. `"seq"`, `"window"`).
    fn field(&self, msg: &Message, name: &str) -> Option<i64>;

    /// Overwrites a named header field. Returns `false` if the field is
    /// unknown or the message is malformed.
    fn set_field(&self, msg: &mut Message, name: &str, value: i64) -> bool;

    /// One-line human summary for packet logs.
    fn summary(&self, msg: &Message) -> String {
        format!(
            "{} {} ({} bytes)",
            self.protocol(),
            self.type_of(msg).unwrap_or_else(|| "?".to_string()),
            msg.len()
        )
    }

    /// Generates (forges) a new message of the protocol.
    ///
    /// `args[0]` is the message type; the remaining arguments are
    /// stub-specific (typically starting with the destination node index).
    /// Only messages that need no protocol state may be generated here —
    /// "when generating a spurious ACK message in TCP, no data structures
    /// need to be updated"; stateful sends belong to the driver layer.
    ///
    /// # Errors
    ///
    /// Returns a description of what was malformed.
    fn generate(&self, src: NodeId, args: &[String]) -> Result<Message, String>;

    /// Deep copy behind the trait object, for world snapshots.
    ///
    /// Returning `None` (the default) marks the hosting PFI layer
    /// unclonable, which makes the world refuse to snapshot. Stubs are
    /// typically stateless `Copy` types; those return
    /// `Some(Box::new(*self))`.
    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        None
    }
}

/// The message's type as events and packet logs print it: the stub's
/// name for it, or `?` when the stub does not recognise the message.
pub(crate) fn type_label(stub: &dyn PacketStub, msg: &Message) -> String {
    stub.type_name(msg).map_or_else(|| "?".into(), String::from)
}

/// A stub for unstructured payloads: no types, no fields; generation takes
/// `raw <dst-node> <text>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawStub;

impl PacketStub for RawStub {
    fn protocol(&self) -> &'static str {
        "raw"
    }

    fn type_of(&self, _msg: &Message) -> Option<String> {
        None
    }

    fn field(&self, _msg: &Message, _name: &str) -> Option<i64> {
        None
    }

    fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
        false
    }

    fn generate(&self, src: NodeId, args: &[String]) -> Result<Message, String> {
        match args {
            [ty, dst, payload] if ty == "raw" => {
                let dst: u32 = dst.parse().map_err(|_| format!("bad node id \"{dst}\""))?;
                Ok(Message::new(src, NodeId::new(dst), payload.as_bytes()))
            }
            _ => Err("raw stub generation: expected `raw <dst> <payload>`".to_string()),
        }
    }

    fn clone_box(&self) -> Option<Box<dyn PacketStub>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_stub_recognises_nothing() {
        let m = Message::new(NodeId::new(0), NodeId::new(1), b"abc");
        assert_eq!(RawStub.type_of(&m), None);
        assert_eq!(RawStub.field(&m, "seq"), None);
        let mut m = m;
        assert!(!RawStub.set_field(&mut m, "seq", 1));
        assert_eq!(RawStub.summary(&m), "raw ? (3 bytes)");
    }

    #[test]
    fn type_name_defaults_to_type_of() {
        struct Fixed;
        impl PacketStub for Fixed {
            fn protocol(&self) -> &'static str {
                "fixed"
            }
            fn type_of(&self, msg: &Message) -> Option<String> {
                (!msg.is_empty()).then(|| "SOME".to_string())
            }
            fn field(&self, _msg: &Message, _name: &str) -> Option<i64> {
                None
            }
            fn set_field(&self, _msg: &mut Message, _name: &str, _value: i64) -> bool {
                false
            }
            fn generate(&self, _src: NodeId, _args: &[String]) -> Result<Message, String> {
                Err("no generation".to_string())
            }
        }
        let m = Message::new(NodeId::new(0), NodeId::new(1), b"abc");
        assert_eq!(Fixed.type_name(&m).as_deref(), Some("SOME"));
        let empty = Message::empty(NodeId::new(0), NodeId::new(1));
        assert_eq!(Fixed.type_name(&empty), None);
    }

    #[test]
    fn raw_stub_generates_messages() {
        let args: Vec<String> = ["raw", "2", "hello"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = RawStub.generate(NodeId::new(0), &args).unwrap();
        assert_eq!(m.dst(), NodeId::new(2));
        assert_eq!(m.bytes(), b"hello");
        assert!(RawStub
            .generate(NodeId::new(0), &["raw".to_string()])
            .is_err());
        let bad: Vec<String> = ["raw", "x", "p"].iter().map(|s| s.to_string()).collect();
        assert!(RawStub.generate(NodeId::new(0), &bad).is_err());
    }
}
