//! Security associations and anti-replay.

/// The RFC 2401 64-entry sliding anti-replay window.
#[derive(Clone, Debug, Default)]
pub struct ReplayWindow {
    highest: u32,
    bitmap: u64,
}

impl ReplayWindow {
    /// Window width in sequence numbers.
    pub const WIDTH: u32 = 64;

    /// Checks sequence number `seq` and, if acceptable, marks it received.
    /// Returns `false` for replays and for packets older than the window.
    pub fn check_and_update(&mut self, seq: u32) -> bool {
        if seq == 0 {
            return false; // ESP sequence numbers start at 1
        }
        if seq > self.highest {
            let shift = seq - self.highest;
            self.bitmap = if shift >= Self::WIDTH { 0 } else { self.bitmap << shift };
            self.bitmap |= 1;
            self.highest = seq;
            return true;
        }
        let offset = self.highest - seq;
        if offset >= Self::WIDTH {
            return false; // too old
        }
        let bit = 1u64 << offset;
        if self.bitmap & bit != 0 {
            return false; // replay
        }
        self.bitmap |= bit;
        true
    }
}

/// One unidirectional security association.
#[derive(Clone, Debug)]
pub struct SecurityAssociation {
    /// Security parameters index carried in the ESP header.
    pub spi: u32,
    /// Encryption key: with `auth_key`, what opens a sealed inner packet.
    pub enc_key: u64,
    /// Authentication key.
    pub auth_key: u64,
    /// Next outbound sequence number (sender side).
    pub seq: u32,
    /// Anti-replay state (receiver side).
    pub replay: ReplayWindow,
    /// Copy the inner DSCP to the outer header on encapsulation. Paper
    /// context: even with DSCP copied, flow/port information is gone, so
    /// only coarse class-of-service survives — experiments Q2 runs both
    /// settings.
    pub copy_dscp: bool,
}

impl SecurityAssociation {
    /// Creates an SA.
    pub fn new(spi: u32, enc_key: u64, auth_key: u64) -> Self {
        SecurityAssociation {
            spi,
            enc_key,
            auth_key,
            seq: 0,
            replay: ReplayWindow::default(),
            copy_dscp: false,
        }
    }

    /// Enables DSCP copying to the outer header.
    pub fn with_dscp_copy(mut self) -> Self {
        self.copy_dscp = true;
        self
    }

    /// Takes the next outbound sequence number.
    pub fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }
}

/// The pair of SAs (initiator→responder, responder→initiator) produced by
/// an IKE phase-2 exchange.
#[derive(Clone, Debug)]
pub struct SaPair {
    /// SA protecting initiator → responder traffic.
    pub out_sa: SecurityAssociation,
    /// SA protecting responder → initiator traffic.
    pub in_sa: SecurityAssociation,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_in_order() {
        let mut w = ReplayWindow::default();
        for s in 1..100 {
            assert!(w.check_and_update(s), "seq {s}");
        }
    }

    #[test]
    fn rejects_replay() {
        let mut w = ReplayWindow::default();
        assert!(w.check_and_update(5));
        assert!(!w.check_and_update(5));
    }

    #[test]
    fn accepts_reordered_within_window() {
        let mut w = ReplayWindow::default();
        assert!(w.check_and_update(10));
        assert!(w.check_and_update(3));
        assert!(w.check_and_update(9));
        assert!(!w.check_and_update(3), "but only once");
    }

    #[test]
    fn rejects_older_than_window() {
        let mut w = ReplayWindow::default();
        assert!(w.check_and_update(100));
        assert!(!w.check_and_update(100 - ReplayWindow::WIDTH));
        assert!(w.check_and_update(100 - ReplayWindow::WIDTH + 1));
    }

    #[test]
    fn big_jump_clears_window() {
        let mut w = ReplayWindow::default();
        assert!(w.check_and_update(1));
        assert!(w.check_and_update(1000));
        assert!(!w.check_and_update(1000));
        assert!(w.check_and_update(999));
    }

    #[test]
    fn zero_sequence_invalid() {
        let mut w = ReplayWindow::default();
        assert!(!w.check_and_update(0));
    }

    #[test]
    fn sa_sequence_increments() {
        let mut sa = SecurityAssociation::new(1, 2, 3);
        assert_eq!(sa.next_seq(), 1);
        assert_eq!(sa.next_seq(), 2);
    }
}
