//! The host-speed yardstick.
//!
//! The sandbox moves between speed levels — seconds to minutes long, up
//! to ≈1.7× apart, one-sided — and whole 15 s runs can sit inside a slow
//! one, where no statistic over the run's own slices helps. What does
//! help is reading the host's speed next to every slice with a fixed
//! computation that knows nothing of the product, and scaling the slice's
//! wall to what it would have been at nominal speed.
//!
//! The computation matters. A dependent multiply chain in L1 does not
//! feel the slow levels at all, and allocation-heavy kernels in a warm
//! process barely do (correlation with the slices' wall ≈0). A loop with
//! several independent integer chains, a table look-up and an
//! unpredictable branch per step — high instruction throughput, like the
//! product's own code — slows by 1.5× where `interpose` slows 1.63×, a
//! deep campaign 1.55× and a tcp campaign 1.46×. Taken in this process
//! before and after each slice it correlates 0.89 with `interpose` slices
//! and 0.84 with tcp campaigns; over twenty simulated runs of noisy-hour
//! data the median of scaled slices spread 9% (`interpose`) and 6.5% (tcp
//! campaigns) where the median of raw slices spread 31% and 15%.
//!
//! At nominal speed the scale is 1 and the reported number *is* the
//! wall-clock number; the unscaled medians (`*.raw`) and the scale itself
//! (`host.slowdown`) are printed next to the scaled ones.

use std::hint::black_box;
use std::time::Instant;

use pfi_benchkit::stats::median;

/// Wall of one yardstick kernel, in ms, on the sandbox this benchmark was
/// calibrated on (2 vCPUs) at its fastest level. Only a scale: on a host
/// where it is off, every timing is off by one constant factor, and
/// neither spreads nor parent-against-change ratios notice.
const NOMINAL_MS: f64 = 1.56;

/// One million steps of four independent integer chains, an L1 table
/// look-up and a data-dependent branch.
fn kernel_ms() -> f64 {
    let table: Vec<u32> = (0..2048u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..1_000_000u64 {
        a = a.wrapping_mul(3).wrapping_add(i);
        b = b.wrapping_add(a ^ (b >> 7));
        c = c.rotate_left(5) ^ i;
        d = d.wrapping_add(u64::from(table[(c & 2047) as usize]));
        if (a ^ d) & 16 == 0 {
            acc = acc.wrapping_add(b);
        } else {
            acc ^= c;
        }
    }
    black_box((a, b, c, d, acc));
    start.elapsed().as_secs_f64() * 1e3
}

/// One yardstick reading: the median of three kernels (≈5 ms).
pub fn reading() -> f64 {
    median(&[kernel_ms(), kernel_ms(), kernel_ms()])
}

/// How much slower than nominal the host ran during an interval
/// bracketed by two readings: 1 at nominal, ≈1.5 inside a slow level.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / NOMINAL_MS
}
