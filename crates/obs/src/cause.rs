//! The taxonomy of packet-drop causes.

/// Why a packet was dropped, as recorded by the [`crate::FlightRecorder`].
///
/// Every place in the emulator that terminates a packet without delivering
/// it maps onto exactly one of these causes, so the sum over causes equals
/// the total loss — a conservation property the chaos suite checks per VPN.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum DropCause {
    /// Tail drop: a queue (or scheduler band/class buffer) was full.
    QueueOverflow,
    /// RED probabilistic early drop (average below the max threshold).
    RedEarly,
    /// RED forced drop (average at or above the max threshold).
    RedForced,
    /// The packet was purged from (or refused by) a disabled link
    /// direction: cut-link flush, down-interface refusal, or a queue
    /// discipline swap stranding its backlog.
    LinkDownPurge,
    /// IP or MPLS TTL expired at a router.
    Ttl,
    /// A router had no route (FIB/LFIB/local-table miss) for the packet.
    NoRoute,
    /// A VPN label resolved to no VRF route at the egress PE — the
    /// misdelivery guard of the paper's isolation property.
    VrfMiss,
}

impl DropCause {
    /// Number of distinct causes (array dimension for per-cause tallies).
    pub const COUNT: usize = 7;

    /// All causes, in declaration (index) order.
    pub const ALL: [DropCause; DropCause::COUNT] = [
        DropCause::QueueOverflow,
        DropCause::RedEarly,
        DropCause::RedForced,
        DropCause::LinkDownPurge,
        DropCause::Ttl,
        DropCause::NoRoute,
        DropCause::VrfMiss,
    ];

    /// Dense index of this cause, `0..COUNT`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in snapshots and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::QueueOverflow => "queue_overflow",
            DropCause::RedEarly => "red_early",
            DropCause::RedForced => "red_forced",
            DropCause::LinkDownPurge => "link_down_purge",
            DropCause::Ttl => "ttl",
            DropCause::NoRoute => "no_route",
            DropCause::VrfMiss => "vrf_miss",
        }
    }
}

impl std::fmt::Display for DropCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in DropCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = DropCause::ALL.iter().map(|c| c.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DropCause::COUNT);
    }
}
