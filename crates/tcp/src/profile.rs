//! Vendor personality profiles.
//!
//! The paper probed four vendor TCPs and found them externally
//! distinguishable along a handful of axes: RTO bounds and adaptivity,
//! retransmission caps and reset behaviour, keep-alive thresholds and probe
//! styles, zero-window probe caps, and Solaris's global error counter. A
//! [`TcpProfile`] encodes those axes; the same state machine plus a
//! different profile reproduces each vendor's observed behaviour.

use pfi_sim::SimDuration;

/// How keep-alive probes are retransmitted when unanswered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepaliveStyle {
    /// BSD-family: probes at a fixed interval, e.g. every 75 s, up to
    /// `max_probes`, then reset.
    FixedInterval {
        /// Gap between successive probes.
        interval: SimDuration,
        /// Probes after the first before giving up.
        max_probes: u32,
    },
    /// Solaris: probes with exponential backoff from `initial`, up to
    /// `max_probes`, then drop (silently).
    ExpBackoff {
        /// First retransmission gap.
        initial: SimDuration,
        /// Probes after the first before giving up.
        max_probes: u32,
    },
}

/// Externally observable parameters of one TCP implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpProfile {
    /// Vendor name as printed in the paper's tables.
    pub name: &'static str,
    /// Maximum segment size.
    pub mss: usize,
    /// Cap on unacknowledged bytes in flight (sender-side window).
    pub send_window: u32,
    /// Receive buffer capacity (advertised window when empty).
    pub recv_buffer: usize,
    /// RTO before any RTT measurement exists.
    pub initial_rto: SimDuration,
    /// Lower bound on the retransmission timeout. The paper measured
    /// ~1 s for the BSD family and ~330 ms for Solaris 2.3.
    pub min_rto: SimDuration,
    /// Upper bound on the (backed-off) retransmission timeout (64 s).
    pub max_rto: SimDuration,
    /// Retransmissions of a segment before the connection is timed out
    /// (12 BSD-family, 9 Solaris).
    pub max_data_retx: u32,
    /// Send a RST when timing out a connection (BSD yes, Solaris no).
    pub reset_on_timeout: bool,
    /// Use Jacobson's algorithm with Karn's sample selection. The paper
    /// concluded Solaris "either did not use Jacobson's algorithm, or did
    /// not select RTT measurements in the same way".
    pub rtt_adaptive: bool,
    /// Solaris's global fault counter: retransmission timeouts accumulate
    /// across segments and only a clean (never-retransmitted) ACK resets
    /// the count.
    pub global_error_counter: bool,
    /// Idle time before the first keep-alive probe (spec says ≥ 7200 s;
    /// Solaris violated it with 6752 s).
    pub keepalive_idle: SimDuration,
    /// Keep-alive retransmission style.
    pub keepalive_style: KeepaliveStyle,
    /// Keep-alive probes carry one byte of garbage data (SunOS) or none
    /// (AIX, NeXT).
    pub keepalive_garbage_byte: bool,
    /// Send RST when keep-alive gives up (BSD yes; Solaris silently drops).
    pub keepalive_reset: bool,
    /// First zero-window (persist) probe interval.
    pub zw_probe_initial: SimDuration,
    /// Cap on the zero-window probe interval (60 s BSD family, 56 s
    /// Solaris).
    pub zw_probe_cap: SimDuration,
    /// Queue out-of-order segments (RFC 1122 SHOULD; all four vendors did).
    pub queue_out_of_order: bool,
}

impl TcpProfile {
    /// SunOS 4.1.3: BSD-derived; 12 retransmissions backed off to a 64 s
    /// cap, RST on timeout; keep-alive at 7200 s with 75 s × 8 probes and a
    /// garbage byte; 60 s zero-window cap.
    pub fn sunos_4_1_3() -> Self {
        TcpProfile {
            name: "SunOS 4.1.3",
            mss: 512,
            send_window: 4096,
            recv_buffer: 4096,
            initial_rto: SimDuration::from_millis(1_500),
            min_rto: SimDuration::from_secs(1),
            max_rto: SimDuration::from_secs(64),
            max_data_retx: 12,
            reset_on_timeout: true,
            rtt_adaptive: true,
            global_error_counter: false,
            keepalive_idle: SimDuration::from_secs(7_200),
            keepalive_style: KeepaliveStyle::FixedInterval {
                interval: SimDuration::from_secs(75),
                max_probes: 8,
            },
            keepalive_garbage_byte: true,
            keepalive_reset: true,
            zw_probe_initial: SimDuration::from_secs(5),
            zw_probe_cap: SimDuration::from_secs(60),
            queue_out_of_order: true,
        }
    }

    /// AIX 3.2.3: "same as SunOS", except keep-alive probes carry no
    /// garbage byte.
    pub fn aix_3_2_3() -> Self {
        TcpProfile {
            name: "AIX 3.2.3",
            keepalive_garbage_byte: false,
            ..Self::sunos_4_1_3()
        }
    }

    /// NeXT Mach (BSD-derived, like AIX no garbage byte).
    pub fn next_mach() -> Self {
        TcpProfile {
            name: "NeXT Mach",
            keepalive_garbage_byte: false,
            ..Self::sunos_4_1_3()
        }
    }

    /// Solaris 2.3: 330 ms RTO floor, non-adaptive RTT, 9 retransmissions,
    /// no RST on timeout, global error counter, keep-alive at 6752 s (a
    /// spec violation) with exponential backoff × 7, 56 s zero-window cap.
    pub fn solaris_2_3() -> Self {
        TcpProfile {
            name: "Solaris 2.3",
            mss: 512,
            send_window: 4096,
            recv_buffer: 4096,
            initial_rto: SimDuration::from_millis(330),
            min_rto: SimDuration::from_millis(330),
            max_rto: SimDuration::from_secs(64),
            max_data_retx: 9,
            reset_on_timeout: false,
            rtt_adaptive: false,
            global_error_counter: true,
            keepalive_idle: SimDuration::from_secs(6_752),
            keepalive_style: KeepaliveStyle::ExpBackoff {
                initial: SimDuration::from_secs(1),
                max_probes: 7,
            },
            keepalive_garbage_byte: false,
            keepalive_reset: false,
            zw_probe_initial: SimDuration::from_secs(5),
            zw_probe_cap: SimDuration::from_secs(56),
            queue_out_of_order: true,
        }
    }

    /// A clean RFC-793/1122 reference configuration (used by the x-Kernel
    /// side of the experiments).
    pub fn rfc_reference() -> Self {
        TcpProfile {
            name: "x-Kernel reference",
            ..Self::sunos_4_1_3()
        }
    }

    /// All four vendor profiles in the paper's table order.
    pub fn vendors() -> Vec<TcpProfile> {
        vec![
            Self::sunos_4_1_3(),
            Self::aix_3_2_3(),
            Self::next_mach(),
            Self::solaris_2_3(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendor_axes_match_the_paper() {
        let sun = TcpProfile::sunos_4_1_3();
        assert_eq!(sun.max_data_retx, 12);
        assert!(sun.reset_on_timeout);
        assert_eq!(sun.max_rto, SimDuration::from_secs(64));
        assert_eq!(sun.keepalive_idle, SimDuration::from_secs(7_200));
        assert!(sun.keepalive_garbage_byte);
        assert_eq!(sun.zw_probe_cap, SimDuration::from_secs(60));

        let sol = TcpProfile::solaris_2_3();
        assert_eq!(sol.max_data_retx, 9);
        assert!(!sol.reset_on_timeout);
        assert!(!sol.rtt_adaptive);
        assert!(sol.global_error_counter);
        assert_eq!(sol.min_rto, SimDuration::from_millis(330));
        assert_eq!(sol.keepalive_idle, SimDuration::from_secs(6_752));
        assert_eq!(sol.zw_probe_cap, SimDuration::from_secs(56));
        // The paper's footnote: 6752/7200 ≈ 56/60.
        let lhs: f64 = 6_752.0 / 7_200.0;
        let rhs: f64 = 56.0 / 60.0;
        assert!((lhs - rhs).abs() < 0.01);

        let aix = TcpProfile::aix_3_2_3();
        assert!(!aix.keepalive_garbage_byte);
        assert_eq!(aix.max_data_retx, sun.max_data_retx);
    }

    #[test]
    fn vendors_returns_all_four() {
        let names: Vec<&str> = TcpProfile::vendors().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["SunOS 4.1.3", "AIX 3.2.3", "NeXT Mach", "Solaris 2.3"]
        );
    }
}
