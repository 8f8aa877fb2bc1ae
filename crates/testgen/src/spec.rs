//! Protocol specifications: the input to the script generator.
//!
//! A specification lists the message types a protocol exchanges and what
//! role each plays. That is exactly the knowledge a packet stub encodes for
//! recognition; here it drives systematic *test generation* instead.

/// The role a message type plays, which informs what a fault against it
/// should be expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Periodic liveness traffic (e.g. heartbeats): losing it should
    /// degrade membership/latency but never corrupt agreement.
    Liveness,
    /// Agreement/control traffic (e.g. `MEMBERSHIP_CHANGE`, `COMMIT`):
    /// the protocol must either make progress without it or park safely.
    Control,
    /// Bulk payload (e.g. TCP `DATA`): must be delivered exactly or not at
    /// all.
    Data,
    /// Acknowledgements: losing them must only cost retransmissions.
    Acknowledgement,
}

/// One message type of the protocol under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpec {
    /// The type name exactly as the protocol's packet stub reports it
    /// (`msg_type`).
    pub name: String,
    /// Its role.
    pub role: Role,
}

/// A protocol specification: the complete list of message types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Protocol name (matches the packet stub's `protocol()`).
    pub name: String,
    /// All message types.
    pub messages: Vec<MessageSpec>,
}

impl ProtocolSpec {
    /// Creates a specification from `(type name, role)` pairs.
    pub fn new(name: impl Into<String>, messages: &[(&str, Role)]) -> Self {
        ProtocolSpec {
            name: name.into(),
            messages: messages
                .iter()
                .map(|(n, r)| MessageSpec {
                    name: n.to_string(),
                    role: *r,
                })
                .collect(),
        }
    }

    /// The specification of the bundled group membership protocol.
    pub fn gmp() -> Self {
        Self::new(
            "gmp",
            &[
                ("HEARTBEAT", Role::Liveness),
                ("PROCLAIM", Role::Control),
                ("JOIN", Role::Control),
                ("MEMBERSHIP_CHANGE", Role::Control),
                ("ACK", Role::Acknowledgement),
                ("NAK", Role::Acknowledgement),
                ("COMMIT", Role::Control),
                ("FAILURE_REPORT", Role::Control),
            ],
        )
    }

    /// The specification of the bundled TCP.
    pub fn tcp() -> Self {
        Self::new(
            "tcp",
            &[
                ("SYN", Role::Control),
                ("SYN-ACK", Role::Control),
                ("DATA", Role::Data),
                ("ACK", Role::Acknowledgement),
                ("FIN", Role::Control),
                ("RST", Role::Control),
            ],
        )
    }

    /// The specification of the bundled two-phase commit protocol.
    pub fn two_phase_commit() -> Self {
        Self::new(
            "tpc",
            &[
                ("PREPARE", Role::Control),
                ("VOTE_YES", Role::Acknowledgement),
                ("VOTE_NO", Role::Acknowledgement),
                ("COMMIT", Role::Control),
                ("ABORT", Role::Control),
                ("ACK", Role::Acknowledgement),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message_names(spec: &ProtocolSpec) -> Vec<&str> {
        spec.messages.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn bundled_specs_cover_the_wire_types() {
        let gmp = ProtocolSpec::gmp();
        assert_eq!(gmp.messages.len(), 8);
        assert!(message_names(&gmp).contains(&"COMMIT"));
        let tcp = ProtocolSpec::tcp();
        assert!(message_names(&tcp).contains(&"DATA"));
        assert_eq!(tcp.name, "tcp");
    }

    #[test]
    fn custom_spec_construction() {
        let s = ProtocolSpec::new("toy", &[("PING", Role::Liveness), ("PONG", Role::Liveness)]);
        assert_eq!(message_names(&s), vec!["PING", "PONG"]);
    }
}
