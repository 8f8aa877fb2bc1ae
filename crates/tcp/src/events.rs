//! Trace events emitted by the TCP layer.
//!
//! Experiments reconstruct the paper's tables from these records: e.g.
//! retransmission intervals from the timestamps of [`TcpEvent::Retransmit`]
//! records on the vendor node.

use pfi_sim::SimDuration;

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Retransmission limit exhausted.
    Timeout,
    /// Keep-alive probes went unanswered.
    KeepaliveTimeout,
    /// A RST arrived.
    Reset,
    /// Orderly FIN exchange completed.
    Fin,
    /// The application closed an unsynchronised connection.
    App,
}

/// One observable TCP action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Three-way handshake completed.
    Connected {
        /// Connection id on this node.
        conn: usize,
    },
    /// A segment left this node (first transmission only).
    SegmentSent {
        /// Connection id.
        conn: usize,
        /// Sequence number.
        seq: u32,
        /// Payload bytes.
        len: usize,
        /// Segment type name (`"DATA"`, `"ACK"`, …).
        kind: &'static str,
    },
    /// A segment was retransmitted after a timeout.
    Retransmit {
        /// Connection id.
        conn: usize,
        /// Sequence number of the retransmitted segment.
        seq: u32,
        /// Which retransmission of this segment this is (1-based).
        nth: u32,
        /// The RTO that will be used for the *next* timeout.
        next_rto: SimDuration,
    },
    /// In-order payload was accepted from the peer.
    DataDelivered {
        /// Connection id.
        conn: usize,
        /// Bytes accepted.
        bytes: usize,
    },
    /// An out-of-order segment was queued for reassembly.
    OutOfOrderQueued {
        /// Connection id.
        conn: usize,
        /// Sequence number of the queued segment.
        seq: u32,
    },
    /// A keep-alive probe was sent.
    KeepaliveProbe {
        /// Connection id.
        conn: usize,
        /// Probe count since probing began (1-based).
        nth: u32,
        /// Garbage bytes carried (0 or 1, per vendor).
        garbage_bytes: usize,
    },
    /// A zero-window (persist) probe was sent.
    ZeroWindowProbe {
        /// Connection id.
        conn: usize,
        /// Probe count since the window closed (1-based).
        nth: u32,
        /// The interval that will precede the *next* probe.
        next_interval: SimDuration,
    },
    /// The peer's advertised window transitioned to/from zero.
    PeerWindow {
        /// Connection id.
        conn: usize,
        /// The newly advertised window.
        window: u16,
    },
    /// A RST was sent (`sent == true`) or received.
    Reset {
        /// Connection id.
        conn: usize,
        /// Whether this node originated the reset.
        sent: bool,
    },
    /// The connection reached `Closed`.
    Closed {
        /// Connection id.
        conn: usize,
        /// Why.
        reason: CloseReason,
    },
    /// An incoming buffer failed segment decoding (corruption).
    DecodeFailed,
}
