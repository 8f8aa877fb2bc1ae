//! Prebuilt filters for the paper's §2.2 failure models.
//!
//! | Failure model (§2.2)      | How to inject it |
//! |----------------------------|------------------|
//! | Process crash              | [`World::crash`](pfi_sim::World::crash), or [`PfiControl::Kill`](crate::PfiControl::Kill) for "crash below this layer" |
//! | Link crash                 | [`Network::set_link_down`](pfi_sim::Network::set_link_down), or [`drop_all`] on either filter |
//! | Send omission              | [`omission`]`(p)` installed as a *send* filter |
//! | Receive omission           | [`omission`]`(p)` installed as a *receive* filter |
//! | General omission           | [`omission`] on both filters |
//! | Timing/performance         | [`timing`]`(dist)` — delays every message by a sampled duration |
//! | Arbitrary/byzantine        | [`byzantine`]`(config)` — spurious duplication, corruption, drops |
//!
//! The models are ordered by severity: anything tolerating a byzantine
//! filter also tolerates every filter above it.
//!
//! Faults that depend on the protocol — drop every ACK, delay COMMITs,
//! pass thirty packets then drop, oscillate on a timer — are filter
//! scripts, as in the paper: `msg_type`, a counter and `xDrop` or `xDelay`
//! (`scripts/*.tcl`, and every schedule `pfi-testgen` lowers).

use pfi_sim::SimDuration;

use crate::filter::{Filter, FilterCtx};

/// Drops every message (link crash from this layer's perspective).
pub fn drop_all() -> Filter {
    Filter::native(|ctx| ctx.drop_msg())
}

/// Passes everything (explicit no-op filter; useful to overwrite a
/// previously installed filter via control ops).
pub fn pass_all() -> Filter {
    Filter::native(|_ctx| {})
}

/// Omission failure: drops each message independently with probability `p`.
pub fn omission(p: f64) -> Filter {
    Filter::native(move |ctx| {
        if ctx.rng().coin(p) {
            ctx.drop_msg();
        }
    })
}

/// A distribution of injected delays for timing failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDist {
    /// Always the same delay.
    Constant(SimDuration),
    /// Uniform between the bounds.
    Uniform(SimDuration, SimDuration),
    /// Normal with mean/variance in milliseconds (clamped at zero).
    Normal {
        /// Mean delay in milliseconds.
        mean_ms: f64,
        /// Variance in milliseconds².
        var_ms: f64,
    },
    /// Exponential with the given mean in milliseconds.
    Exponential {
        /// Mean delay in milliseconds.
        mean_ms: f64,
    },
}

impl DelayDist {
    fn sample(self, ctx: &mut FilterCtx<'_>) -> SimDuration {
        match self {
            DelayDist::Constant(d) => d,
            DelayDist::Uniform(lo, hi) => {
                if lo >= hi {
                    return lo;
                }
                let us = ctx
                    .rng()
                    .uniform(lo.as_micros() as f64, hi.as_micros() as f64);
                SimDuration::from_micros(us as u64)
            }
            DelayDist::Normal { mean_ms, var_ms } => {
                let ms = ctx.rng().normal(mean_ms, var_ms).max(0.0);
                SimDuration::from_micros((ms * 1_000.0) as u64)
            }
            DelayDist::Exponential { mean_ms } => {
                let ms = ctx.rng().exponential(mean_ms.max(f64::MIN_POSITIVE));
                SimDuration::from_micros((ms * 1_000.0) as u64)
            }
        }
    }
}

/// Timing/performance failure: delays every message by a sample from
/// `dist`.
pub fn timing(dist: DelayDist) -> Filter {
    Filter::native(move |ctx| {
        let d = dist.sample(ctx);
        if d > SimDuration::ZERO {
            ctx.delay(d);
        }
    })
}

/// Configuration for [`byzantine`] misbehaviour. Each probability is
/// evaluated independently per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineConfig {
    /// Probability of corrupting one random byte.
    pub corrupt: f64,
    /// Probability of forwarding a spurious extra copy.
    pub duplicate: f64,
    /// Probability of dropping ("claims to have received" from the peer's
    /// perspective).
    pub drop: f64,
    /// Probability of delaying by up to `reorder_window` (reordering with
    /// respect to later traffic).
    pub reorder: f64,
    /// Maximum reordering delay.
    pub reorder_window: SimDuration,
}

impl Default for ByzantineConfig {
    fn default() -> Self {
        ByzantineConfig {
            corrupt: 0.05,
            duplicate: 0.05,
            drop: 0.05,
            reorder: 0.05,
            reorder_window: SimDuration::from_millis(100),
        }
    }
}

/// Arbitrary/byzantine failure: randomly corrupts, duplicates, drops, and
/// reorders messages per `config`.
pub fn byzantine(config: ByzantineConfig) -> Filter {
    Filter::native(move |ctx| {
        if ctx.rng().coin(config.corrupt) {
            let len = ctx.msg().len();
            if len > 0 {
                let off = ctx.rng().uniform_u64(0, len as u64) as usize;
                let cur = ctx.msg().byte_at(off).unwrap_or(0);
                let flip = 1u8 << ctx.rng().uniform_u64(0, 8);
                ctx.msg_mut().set_byte_at(off, cur ^ flip);
            }
        }
        if ctx.rng().coin(config.duplicate) {
            ctx.duplicate(1);
        }
        if ctx.rng().coin(config.drop) {
            ctx.drop_msg();
            return;
        }
        if ctx.rng().coin(config.reorder) && config.reorder_window > SimDuration::ZERO {
            let us = ctx
                .rng()
                .uniform_u64(1, config.reorder_window.as_micros().max(2));
            ctx.delay(SimDuration::from_micros(us));
        }
    })
}
