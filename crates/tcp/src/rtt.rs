//! Round-trip-time estimation: Jacobson's algorithm with Karn's sample
//! selection.
//!
//! RFC 1122 requires both; the paper's experiment 2 distinguishes vendors
//! by whether the retransmission timeout adapts to injected ACK delays.
//! The non-adaptive mode models Solaris 2.3, which "either did not use
//! Jacobson's algorithm, or did not select RTT measurements in the same
//! way as other implementations".

use pfi_sim::SimDuration;

/// RTO estimator for one connection.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    /// Smoothed RTT in microseconds (`None` until the first sample).
    srtt_us: Option<f64>,
    /// RTT variance estimate in microseconds.
    rttvar_us: f64,
    adaptive: bool,
    initial: SimDuration,
    min: SimDuration,
    max: SimDuration,
}

impl RttEstimator {
    /// Creates an estimator.
    ///
    /// With `adaptive == false`, samples are ignored and the base RTO stays
    /// pinned at `min` (the Solaris behaviour).
    pub fn new(adaptive: bool, initial: SimDuration, min: SimDuration, max: SimDuration) -> Self {
        RttEstimator {
            srtt_us: None,
            rttvar_us: 0.0,
            adaptive,
            initial,
            min,
            max,
        }
    }

    /// Feeds one RTT measurement (Jacobson's EWMA update).
    ///
    /// Callers must apply Karn's rule: never sample a segment that was
    /// retransmitted, because its ACK is ambiguous.
    pub fn sample(&mut self, rtt: SimDuration) {
        if !self.adaptive {
            return;
        }
        let r = rtt.as_micros() as f64;
        match self.srtt_us {
            None => {
                self.srtt_us = Some(r);
                self.rttvar_us = r / 2.0;
            }
            Some(srtt) => {
                let err = (srtt - r).abs();
                self.rttvar_us = 0.75 * self.rttvar_us + 0.25 * err;
                self.srtt_us = Some(0.875 * srtt + 0.125 * r);
            }
        }
    }

    /// The base (un-backed-off) retransmission timeout: `SRTT + 4·RTTVAR`,
    /// clamped to `[min, max]`; `initial` before any sample.
    pub fn base_rto(&self) -> SimDuration {
        if !self.adaptive {
            return self.min;
        }
        match self.srtt_us {
            None => self.initial.max(self.min).min(self.max),
            Some(srtt) => {
                let rto = srtt + 4.0 * self.rttvar_us;
                SimDuration::from_micros(rto as u64)
                    .max(self.min)
                    .min(self.max)
            }
        }
    }

    /// The RTO after `backoff` consecutive timeouts: `base · 2^backoff`,
    /// capped at `max`.
    pub fn backed_off_rto(&self, backoff: u32) -> SimDuration {
        let base = self.base_rto();
        let shift = backoff.min(30);
        SimDuration::from_micros(
            base.as_micros()
                .saturating_mul(1u64 << shift)
                .min(self.max.as_micros()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(adaptive: bool) -> RttEstimator {
        RttEstimator::new(
            adaptive,
            SimDuration::from_millis(1_500),
            SimDuration::from_secs(1),
            SimDuration::from_secs(64),
        )
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = est(true);
        assert_eq!(e.base_rto(), SimDuration::from_millis(1_500));
        assert!(e.srtt_us.is_none());
    }

    #[test]
    fn first_sample_initialises_srtt_and_var() {
        let mut e = est(true);
        e.sample(SimDuration::from_secs(3));
        // SRTT = 3 s, RTTVAR = 1.5 s → RTO = 3 + 6 = 9 s.
        assert_eq!(e.base_rto(), SimDuration::from_secs(9));
        assert!(e.srtt_us.is_some());
    }

    #[test]
    fn rto_adapts_to_sustained_delay() {
        let mut e = est(true);
        // A fast network first…
        for _ in 0..10 {
            e.sample(SimDuration::from_millis(10));
        }
        let fast = e.base_rto();
        assert_eq!(fast, SimDuration::from_secs(1), "clamped at min");
        // …then a sudden 3-second ACK delay (the experiment 2 injection).
        for _ in 0..10 {
            e.sample(SimDuration::from_secs(3));
        }
        let slow = e.base_rto();
        assert!(
            slow > SimDuration::from_secs(3),
            "RTO must exceed the delay, got {slow}"
        );
    }

    #[test]
    fn variance_shrinks_when_rtt_is_stable() {
        let mut e = est(true);
        for _ in 0..50 {
            e.sample(SimDuration::from_secs(2));
        }
        let rto = e.base_rto();
        // With zero variance, RTO converges toward SRTT.
        assert!(
            rto >= SimDuration::from_secs(2) && rto < SimDuration::from_millis(2_600),
            "{rto}"
        );
    }

    #[test]
    fn non_adaptive_ignores_samples() {
        let mut e = RttEstimator::new(
            false,
            SimDuration::from_millis(330),
            SimDuration::from_millis(330),
            SimDuration::from_secs(64),
        );
        e.sample(SimDuration::from_secs(8));
        assert_eq!(e.base_rto(), SimDuration::from_millis(330));
        assert!(e.srtt_us.is_none());
    }

    #[test]
    fn exponential_backoff_caps_at_max() {
        let e = est(true);
        // base 1.5 s → 1.5, 3, 6, 12, 24, 48, 64, 64…
        let series: Vec<u64> = (0..8).map(|b| e.backed_off_rto(b).as_millis()).collect();
        assert_eq!(
            series,
            vec![1_500, 3_000, 6_000, 12_000, 24_000, 48_000, 64_000, 64_000]
        );
    }

    #[test]
    fn huge_backoff_shift_does_not_overflow() {
        let e = est(true);
        assert_eq!(e.backed_off_rto(500), SimDuration::from_secs(64));
    }
}
