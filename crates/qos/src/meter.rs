//! Traffic metering: token bucket and the single-rate three-color marker.
//!
//! Used at the provider edge to police customer traffic against the
//! contracted rate before it enters the backbone — the "granular Service
//! Level Agreements" of the paper's §3.1. Out-of-profile traffic is either
//! dropped or demoted to a higher drop precedence (AF model).

use crate::Nanos;

/// A classic token bucket: `rate_bps` sustained, `burst_bytes` depth.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bps: u64,
    burst_bytes: u64,
    tokens_mibits: u128, // token level in micro-bits to avoid rounding drift
    last: Nanos,
}

const MICRO: u128 = 1_000_000;

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    /// Panics if `rate_bps` is zero.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> Self {
        assert!(rate_bps > 0, "token bucket rate must be positive");
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens_mibits: burst_bytes as u128 * 8 * MICRO,
            last: 0,
        }
    }

    /// The configured rate in bits/s.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    fn refill(&mut self, now: Nanos) {
        if now <= self.last {
            return;
        }
        let dt = now - self.last;
        self.last = now;
        let cap = self.burst_bytes as u128 * 8 * MICRO;
        // tokens (micro-bits) accrued = rate_bps * dt_ns / 1e9 * 1e6.
        // Per-packet refill gaps are small, so rate*dt almost always fits
        // u64; dividing there avoids a 128-bit `__udivti3` on every packet.
        let add = match self.rate_bps.checked_mul(dt) {
            Some(p) => u128::from(p / 1_000),
            None => self.rate_bps as u128 * dt as u128 / 1_000,
        };
        self.tokens_mibits = (self.tokens_mibits + add).min(cap);
    }

    /// Attempts to consume `bytes` at time `now`. Returns `true` (and
    /// debits) when the packet conforms.
    pub fn conforms(&mut self, bytes: usize, now: Nanos) -> bool {
        self.refill(now);
        let need = bytes as u128 * 8 * MICRO;
        if self.tokens_mibits >= need {
            self.tokens_mibits -= need;
            true
        } else {
            false
        }
    }

    /// Current token level in bytes (for tests and introspection).
    pub fn level_bytes(&mut self, now: Nanos) -> u64 {
        self.refill(now);
        (self.tokens_mibits / (8 * MICRO)) as u64
    }
}

/// Metering verdict of a three-color marker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Color {
    /// Within committed rate.
    Green,
    /// Exceeds committed rate but within excess burst.
    Yellow,
    /// Out of profile.
    Red,
}

/// Single-rate three-color marker (RFC 2697): committed information rate
/// with committed and excess burst sizes, color-blind mode.
#[derive(Clone, Debug)]
pub struct SrTcm {
    committed: TokenBucket,
    excess: TokenBucket,
}

impl SrTcm {
    /// Creates a marker with committed rate `cir_bps`, committed burst
    /// `cbs_bytes` and excess burst `ebs_bytes`.
    pub fn new(cir_bps: u64, cbs_bytes: u64, ebs_bytes: u64) -> Self {
        SrTcm {
            committed: TokenBucket::new(cir_bps, cbs_bytes),
            excess: TokenBucket::new(cir_bps, ebs_bytes),
        }
    }

    /// Meters one packet of `bytes` at time `now`.
    pub fn meter(&mut self, bytes: usize, now: Nanos) -> Color {
        if self.committed.conforms(bytes, now) {
            Color::Green
        } else if self.excess.conforms(bytes, now) {
            Color::Yellow
        } else {
            Color::Red
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MSEC, SEC};

    #[test]
    fn bucket_allows_burst_then_blocks() {
        let mut tb = TokenBucket::new(8_000_000, 1000); // 8 Mb/s, 1000 B burst
        assert!(tb.conforms(600, 0));
        assert!(tb.conforms(400, 0));
        assert!(!tb.conforms(1, 0));
    }

    #[test]
    fn bucket_refills_at_rate() {
        let mut tb = TokenBucket::new(8_000_000, 1000); // 1 B per microsecond
        assert!(tb.conforms(1000, 0));
        // After 500 us, 500 bytes available.
        assert!(tb.conforms(500, 500_000));
        assert!(!tb.conforms(1, 500_000));
        // A full second refills to the cap, not beyond.
        assert_eq!(tb.level_bytes(2 * SEC), 1000);
    }

    #[test]
    fn bucket_sustained_rate_is_exact() {
        // Send 125-byte packets every ms at exactly the rate: all conform.
        let mut tb = TokenBucket::new(1_000_000, 125); // 1 Mb/s = 125 B/ms
        for i in 0..1000u64 {
            assert!(tb.conforms(125, i * MSEC), "packet {i} should conform");
        }
        // One extra in the same window must fail.
        assert!(!tb.conforms(125, 999 * MSEC));
    }

    #[test]
    fn bucket_ignores_time_going_backwards() {
        let mut tb = TokenBucket::new(8_000_000, 100);
        assert!(tb.conforms(100, 1000));
        // Clock replay must not mint tokens.
        assert!(!tb.conforms(1, 999));
    }

    #[test]
    fn srtcm_colors() {
        let mut m = SrTcm::new(8_000_000, 500, 500);
        assert_eq!(m.meter(500, 0), Color::Green);
        assert_eq!(m.meter(500, 0), Color::Yellow);
        assert_eq!(m.meter(500, 0), Color::Red);
        // After enough time both buckets refill.
        assert_eq!(m.meter(500, SEC), Color::Green);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(0, 1);
    }
}
