//! # netsim-qos — DiffServ building blocks
//!
//! Everything the paper's end-to-end QoS pipeline (§5) needs, as composable
//! pieces:
//!
//! * **Classification & marking** ([`classify`]): rule-based 5-tuple
//!   classifiers used at the customer premises to set DSCP — and which go
//!   blind behind IPsec, reproducing §3's observation.
//! * **The DSCP↔EXP mapping** ([`phb`]): how the provider edge maps the
//!   CPE's DiffServ marking into "the QoS field of the MPLS header".
//! * **Metering** ([`meter`]): the token bucket behind CBQ's rate gates.
//! * **Active queue management** ([`red`]): RED, optionally ECN-marking.
//! * **Schedulers** ([`queue`], [`sched`], [`cbq_tree`]): FIFO, strict
//!   priority, WFQ, DRR and CBQ (flat or a link-sharing tree), all behind
//!   one [`QueueDiscipline`] trait so any of them can be attached to any
//!   simulated link egress.
//!
//! Time is a bare `u64` nanosecond count ([`Nanos`]); this crate never owns
//! a clock — the simulator passes `now` in.
//!
//! # Example
//!
//! ```
//! use netsim_net::{Dscp, Packet};
//! use netsim_qos::{queue::class_by_exp_or_dscp, FifoQueue, PriorityScheduler, QueueDiscipline};
//!
//! // An 8-band strict-priority scheduler keyed on EXP/DSCP class.
//! let bands: Vec<Box<dyn QueueDiscipline>> =
//!     (0..8).map(|_| Box::new(FifoQueue::new(64 * 1024)) as Box<dyn QueueDiscipline>).collect();
//! let mut sched = PriorityScheduler::new(bands, class_by_exp_or_dscp());
//!
//! let src = "10.0.0.1".parse().unwrap();
//! let dst = "10.0.0.2".parse().unwrap();
//! sched.enqueue(Packet::udp(src, dst, 1, 2, Dscp::BE, 100).into(), 0);
//! sched.enqueue(Packet::udp(src, dst, 1, 2, Dscp::EF, 100).into(), 0);
//!
//! // EF (class 5) outranks best effort.
//! assert_eq!(sched.dequeue(0).unwrap().dscp(), Some(Dscp::EF));
//! assert_eq!(sched.dequeue(0).unwrap().dscp(), Some(Dscp::BE));
//! ```

#![warn(missing_docs)]

pub mod cbq_tree;
pub mod classify;
pub mod meter;
pub mod phb;
pub mod queue;
pub mod red;
pub mod sched;

pub use cbq_tree::{CbqNodeConfig, HierCbq};
pub use classify::{MarkingPolicy, MatchRule};
pub use meter::TokenBucket;
pub use phb::ExpMap;
pub use queue::{ClassOf, EnqueueOutcome, FifoQueue, QueueDiscipline};
pub use red::{RedParams, RedQueue};
pub use sched::{DrrScheduler, PriorityScheduler, WfqScheduler};

/// Simulation time in nanoseconds.
pub type Nanos = u64;

/// Nanoseconds per second.
pub const SEC: Nanos = 1_000_000_000;

/// Nanoseconds per millisecond.
pub const MSEC: Nanos = 1_000_000;

/// Converts a byte count and a rate in bits/s to a duration in nanoseconds.
///
/// Stays in 64-bit arithmetic for every realistic frame (`bytes * 8e9` fits
/// `u64` up to ~2.3 GB), falling back to 128-bit only beyond that; the u128
/// divide (`__udivti3`) is measurably hot when this runs once per hop.
#[inline]
pub fn tx_time(bytes: usize, rate_bps: u64) -> Nanos {
    debug_assert!(rate_bps > 0, "link rate must be positive");
    if let Some(bits_ns) = (bytes as u64).checked_mul(8 * SEC) {
        bits_ns / rate_bps
    } else {
        (bytes as u128 * 8 * SEC as u128 / rate_bps as u128) as Nanos
    }
}

/// Precomputed fixed-point reciprocal of a link rate, turning the per-hop
/// [`tx_time`] division into a multiply.
///
/// The candidate `(bytes * mul) >> 40` with `mul = ceil(8e9·2^40 / rate)`
/// overshoots the true quotient by strictly less than one (the ceiling
/// excess contributes `bytes / 2^40 < 1`), so a single compare-and-decrement
/// against `bytes * 8e9` makes the result *bit-exact* with [`tx_time`] —
/// determinism-sensitive callers can adopt it without replaying results.
#[derive(Clone, Copy, Debug)]
pub struct TxCost {
    rate_bps: u64,
    /// `ceil(8e9 << 40 / rate)`, or 0 when that overflows u64 (rates below
    /// ~512 b/s) — the flag for the plain-division fallback.
    mul: u64,
}

impl TxCost {
    /// Prepares the reciprocal for a link of `rate_bps` bits/s.
    pub fn new(rate_bps: u64) -> Self {
        debug_assert!(rate_bps > 0, "link rate must be positive");
        let num = (u128::from(8 * SEC) << 40) + u128::from(rate_bps) - 1;
        let mul = u64::try_from(num / u128::from(rate_bps.max(1))).unwrap_or(0);
        TxCost { rate_bps, mul }
    }

    /// The rate this reciprocal was built for.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Serialization time of `bytes` at this rate; equals
    /// `tx_time(bytes, self.rate_bps())` exactly.
    #[inline]
    pub fn tx_time(&self, bytes: usize) -> Nanos {
        let Some(bits_ns) = (bytes as u64).checked_mul(8 * SEC) else {
            return tx_time(bytes, self.rate_bps);
        };
        if self.mul == 0 {
            return bits_ns / self.rate_bps;
        }
        let mut q = ((bytes as u128 * u128::from(self.mul)) >> 40) as u64;
        if q.checked_mul(self.rate_bps).is_none_or(|p| p > bits_ns) {
            q -= 1;
        }
        debug_assert_eq!(q, bits_ns / self.rate_bps);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_basics() {
        // 1250 bytes at 10 Mb/s = 1 ms.
        assert_eq!(tx_time(1250, 10_000_000), MSEC);
        // 1 byte at 1 Gb/s = 8 ns.
        assert_eq!(tx_time(1, 1_000_000_000), 8);
        assert_eq!(tx_time(0, 1_000_000), 0);
    }

    #[test]
    fn tx_cost_matches_division_exactly() {
        // Awkward rates on purpose: primes, sub-512 fallback, modem, E1,
        // round powers of ten, 100G. Every byte size must agree bit-exactly.
        let rates = [
            1u64,
            511,
            512,
            9_600,
            56_000,
            1_536_000,
            1_999_999,
            10_000_000,
            99_999_937,
            100_000_000,
            999_999_937,
            1_000_000_000,
            100_000_000_000,
        ];
        for &r in &rates {
            let c = TxCost::new(r);
            for b in (0..=4096).chain([9000, 65_535, 1 << 20]) {
                assert_eq!(c.tx_time(b), tx_time(b, r), "bytes={b} rate={r}");
            }
        }
    }
}
