//! Vendor identification by probing — the paper's third demonstrated
//! aspect, "insight into design decisions made by the implementors",
//! turned into a classifier.
//!
//! The evaluation showed each vendor stack leaves a distinctive external
//! fingerprint. This module probes an *unknown* implementation with the
//! paper's experiments and identifies it purely from observable behaviour:
//! no source, no version strings, just packets.

use pfi_tcp::TcpProfile;

use crate::{tcp_exp1, tcp_exp3};

/// Externally observable fingerprint of a TCP implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Data retransmissions before the connection is abandoned.
    pub data_retransmissions: usize,
    /// Whether a RST is sent when giving up.
    pub reset_on_timeout: bool,
    /// Idle seconds before the first keep-alive probe.
    pub keepalive_threshold_secs: f64,
    /// Garbage bytes carried by keep-alive probes.
    pub keepalive_garbage_bytes: usize,
    /// Whether keep-alive retransmissions back off exponentially (vs a
    /// fixed interval).
    pub keepalive_backoff: bool,
}

/// Probes an implementation (handed over as a black box) and extracts its
/// fingerprint by running the retransmission and keep-alive experiments.
pub fn fingerprint(profile: TcpProfile) -> Fingerprint {
    let exp1 = tcp_exp1::run_vendor(profile.clone());
    let exp3 = tcp_exp3::run_vendor(profile);
    // Fixed-interval probes have (nearly) equal gaps; exponential ones
    // at least double.
    let keepalive_backoff = exp3.probe_intervals.windows(2).any(|p| p[1] > p[0] * 1.5);
    Fingerprint {
        data_retransmissions: exp1.retransmissions,
        reset_on_timeout: exp1.reset_sent,
        keepalive_threshold_secs: exp3.first_probe_secs,
        keepalive_garbage_bytes: exp3.garbage_bytes,
        keepalive_backoff,
    }
}

/// Classifies a fingerprint against the four 1995 vendors.
///
/// Returns `"unknown"` when nothing matches — e.g. for a stack with
/// non-1995 parameters.
pub fn classify(fp: &Fingerprint) -> &'static str {
    if !fp.reset_on_timeout
        && fp.keepalive_backoff
        && fp.keepalive_threshold_secs < 7_000.0
        && fp.data_retransmissions < 12
    {
        return "Solaris 2.3";
    }
    if fp.reset_on_timeout && fp.data_retransmissions == 12 && !fp.keepalive_backoff {
        return match fp.keepalive_garbage_bytes {
            1 => "SunOS 4.1.3",
            // AIX and NeXT are externally indistinguishable in the paper's
            // tables ("same as SunOS" minus the garbage byte).
            0 => "AIX 3.2.3 / NeXT Mach",
            _ => "unknown",
        };
    }
    "unknown"
}

/// Result row for the identification experiment.
#[derive(Debug, Clone)]
pub struct IdentifyRow {
    /// The ground-truth vendor.
    pub actual: String,
    /// The classifier's verdict.
    pub identified: &'static str,
    /// Whether the verdict covers the ground truth.
    pub correct: bool,
    /// The extracted fingerprint.
    pub fingerprint: Fingerprint,
}

/// Probes and classifies all four vendors.
pub fn run_all() -> Vec<IdentifyRow> {
    TcpProfile::vendors()
        .into_iter()
        .map(|p| {
            let actual = p.name.to_string();
            let fp = fingerprint(p);
            let identified = classify(&fp);
            let correct = identified.contains(actual.split(' ').next().unwrap_or(""));
            IdentifyRow {
                actual,
                identified,
                correct,
                fingerprint: fp,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_vendors_are_identified_from_behaviour_alone() {
        for row in run_all() {
            assert!(
                row.correct,
                "{} misidentified as {} — fingerprint {:?}",
                row.actual, row.identified, row.fingerprint
            );
        }
    }

    #[test]
    fn aix_and_next_collapse_to_the_same_class() {
        let a = fingerprint(TcpProfile::aix_3_2_3());
        let n = fingerprint(TcpProfile::next_mach());
        assert_eq!(classify(&a), classify(&n));
        assert_eq!(classify(&a), "AIX 3.2.3 / NeXT Mach");
    }

    #[test]
    fn an_unseen_configuration_is_not_misattributed() {
        // The x-Kernel reference stack with a retransmission budget none of
        // the 1995 four had should not be claimed as one of them.
        let mut profile = TcpProfile::rfc_reference();
        profile.max_data_retx = 15;
        let fp = fingerprint(profile);
        assert_eq!(classify(&fp), "unknown", "{fp:?}");
    }
}
