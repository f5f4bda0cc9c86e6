//! Hierarchical timing-wheel event calendar.
//!
//! The hot path of the simulator is `push` + `pop` of near-future events:
//! serialization completions and propagation arrivals sit microseconds to
//! milliseconds ahead of the clock. A binary heap pays O(log n) compares
//! *and* moves the full event payload at every sift step; the wheel places
//! each event in a slot indexed by its arrival granule in O(1) and only
//! heap-orders the handful of events sharing the cursor's granule.
//!
//! Two structural decisions keep the constant factor low:
//!
//! * **Events are stored inline.** An `Event` is 32 bytes (its packet is
//!   boxed), so slots hold `(at, seq, event)` keys directly. Only level-0
//!   slots keep their buffers; drained upper-level buffers are recycled.
//! * **Three 256-slot levels over a 2^10 ns ≈ 1 µs granule** (level 0 spans
//!   ~262 µs, level 1 ~67 ms, level 2 ~17 s), plus a binary heap for the
//!   rare far-future timers beyond the wheel span, plus `cur` — a small
//!   heap holding every event whose granule is at or behind the cursor,
//!   which is what `pop` actually drains.
//!
//! Ordering contract: events pop in exactly `(at, seq)` order, identical to
//! the `BinaryHeap<Reverse<Scheduled>>` the engine used before. Two
//! invariants make the wheel order-safe:
//!
//! * every wheel slot only ever holds events of a single granule (level 0)
//!   or a single parent-granule (levels 1–2) at a time, so draining a slot
//!   wholesale into `cur` cannot reorder anything already pending;
//! * events pushed at or behind the cursor go straight into `cur`, which is
//!   fully ordered — late injection (e.g. after `run_until` parked the
//!   cursor far ahead) degrades to heap behaviour instead of misordering.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netsim_qos::Nanos;

/// log2 of the wheel granule in nanoseconds (2^10 ns ≈ 1 µs).
const GRANULE_BITS: u32 = 10;
/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels; farther events go to the overflow heap.
const LEVELS: usize = 3;
/// Granules covered by all wheel levels together (2^24 granules ≈ 17 s).
const WHEEL_SPAN: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// A scheduled event with its scheduling key, ordered by `(at, seq)` only.
struct Key<T> {
    at: Nanos,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Key<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Key<T> {}
impl<T> PartialOrd for Key<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Key<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Index of the first set bit at or after `from` in a 256-bit slot bitmap.
fn next_set_bit(occ: &[u64; SLOTS / 64], from: usize) -> Option<usize> {
    if from >= SLOTS {
        return None;
    }
    let mut w = from >> 6;
    let mut word = occ[w] & (!0u64 << (from & 63));
    loop {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == SLOTS / 64 {
            return None;
        }
        word = occ[w];
    }
}

/// A hierarchical timing wheel with a heap overflow level, popping items in
/// strict `(at, seq)` order.
pub(crate) struct TimingWheel<T> {
    /// Events whose granule is ≤ the cursor, sorted descending by
    /// `(at, seq)`: the next event to pop is always `cur.last()`.
    cur: Vec<Key<T>>,
    /// Wheel levels; `levels[l][s]` holds events `SLOTS^l` granules apart.
    levels: [Vec<Vec<Key<T>>>; LEVELS],
    /// Drained level-1 and level-2 slot buffers (never zero-capacity),
    /// taken by the next upper-level slot to fill.
    spare: Vec<Vec<Key<T>>>,
    /// Per-level slot-occupancy bitmaps (bit `s` set iff `levels[l][s]` is
    /// non-empty): `advance` finds the next populated slot with a couple of
    /// word scans instead of touching up to 255 slot `Vec` headers.
    occ: [[u64; SLOTS / 64]; LEVELS],
    /// Events currently resident per wheel level.
    counts: [usize; LEVELS],
    /// Events beyond the wheel span, refilled as the cursor crosses
    /// top-level boundaries.
    overflow: BinaryHeap<Reverse<Key<T>>>,
    /// Cursor granule (`at >> GRANULE_BITS`).
    tick: u64,
    /// Total events pending (all storage areas).
    len: usize,
    /// Most upper-level slots ever live at once, a cascading one included.
    #[cfg(test)]
    upper_peak: usize,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            cur: Vec::new(),
            levels: std::array::from_fn(|_| (0..SLOTS).map(|_| Vec::new()).collect()),
            spare: Vec::new(),
            occ: [[0; SLOTS / 64]; LEVELS],
            counts: [0; LEVELS],
            overflow: BinaryHeap::new(),
            tick: 0,
            len: 0,
            #[cfg(test)]
            upper_peak: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `item` at time `at` with tie-break key `seq`.
    pub(crate) fn push(&mut self, at: Nanos, seq: u64, item: T) {
        self.len += 1;
        self.place(Key { at, seq, item });
    }

    /// Timestamp of the earliest pending event. Advances the cursor (an
    /// order-preserving internal reorganization), hence `&mut self`.
    pub(crate) fn peek_at(&mut self) -> Option<Nanos> {
        self.advance();
        self.cur.last().map(|k| k.at)
    }

    /// Removes and returns the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        self.advance();
        let k = self.cur.pop()?;
        self.len -= 1;
        Some((k.at, k.seq, k.item))
    }

    /// Routes a key to `cur`, a wheel slot, or the overflow heap based on
    /// its distance from the cursor. Does not touch `len`.
    fn place(&mut self, k: Key<T>) {
        let g = k.at >> GRANULE_BITS;
        if g <= self.tick {
            // Sorted insert (descending). `cur` holds the few events of the
            // current granule, so the shift is short; ties are impossible
            // (`seq` is unique) which makes the position unambiguous.
            let pos = self.cur.partition_point(|x| *x > k);
            self.cur.insert(pos, k);
            return;
        }
        let delta = g - self.tick;
        if delta < SLOTS as u64 {
            self.slot_in(0, (g & MASK) as usize, k);
        } else if delta < 1 << (2 * SLOT_BITS) {
            self.slot_in(1, ((g >> SLOT_BITS) & MASK) as usize, k);
        } else if delta < WHEEL_SPAN {
            self.slot_in(2, ((g >> (2 * SLOT_BITS)) & MASK) as usize, k);
        } else {
            self.overflow.push(Reverse(k));
        }
    }

    /// Appends `k` to `levels[lvl][slot]`, keeping the occupancy bitmap and
    /// resident count in sync. An upper-level slot without a buffer takes a
    /// spare one.
    fn slot_in(&mut self, lvl: usize, slot: usize, k: Key<T>) {
        let buf = &mut self.levels[lvl][slot];
        if lvl > 0 && buf.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *buf = spare;
            }
        }
        buf.push(k);
        self.occ[lvl][slot >> 6] |= 1 << (slot & 63);
        self.counts[lvl] += 1;
        #[cfg(test)]
        {
            let live = self.occ[1..].iter().flatten().map(|w| w.count_ones() as usize).sum();
            self.upper_peak = self.upper_peak.max(live);
        }
    }

    /// Empties `levels[lvl][slot]`, re-placing each key relative to the
    /// current cursor. With the cursor at the slot's granule this moves
    /// level-0 keys straight into `cur`.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let mut tmp = std::mem::take(&mut self.levels[lvl][slot]);
        self.counts[lvl] -= tmp.len();
        if lvl == 0 {
            self.occ[0][slot >> 6] &= !(1 << (slot & 63));
            // Every key in a level-0 slot shares one granule ≤ the cursor,
            // so the whole slot belongs in `cur`. With `cur` empty this is
            // a buffer swap (no copying); otherwise merge and re-sort.
            if self.cur.is_empty() {
                std::mem::swap(&mut self.cur, &mut tmp);
            } else {
                self.cur.append(&mut tmp);
            }
            self.cur.sort_unstable_by(|a, b| b.cmp(a));
            // Hand the (now empty) vector back so the slot keeps its capacity.
            self.levels[0][slot] = tmp;
        } else {
            // Still marked while its keys move: it is live for `upper_peak`.
            for k in tmp.drain(..) {
                self.place(k);
            }
            self.occ[lvl][slot >> 6] &= !(1 << (slot & 63));
            // An empty cascade drains a buffer that never grew; keeping it
            // would only stack up zero-capacity vectors.
            if tmp.capacity() > 0 {
                self.spare.push(tmp);
            }
        }
    }

    /// Moves overflow events with granule below `horizon` into the wheels.
    fn refill_overflow(&mut self, horizon: u64) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at >> GRANULE_BITS >= horizon {
                break;
            }
            let Reverse(k) = self.overflow.pop().expect("peeked");
            self.place(k);
        }
    }

    /// Advances the cursor until `cur` holds the earliest pending events.
    /// No-op when `cur` is already populated or nothing is pending.
    fn advance(&mut self) {
        if !self.cur.is_empty() || self.len == 0 {
            return;
        }
        loop {
            // Scan the remainder of the current level-0 revolution. Slots
            // strictly after the cursor's slot can only hold this
            // revolution's granules (`base + s`); wrapped entries for the
            // next revolution sit in slots ≤ the cursor's and are reached
            // after the boundary cascade below.
            if self.counts[0] > 0 {
                let base = self.tick & !MASK;
                let from = ((self.tick & MASK) + 1) as usize;
                if let Some(s) = next_set_bit(&self.occ[0], from) {
                    self.tick = base + s as u64;
                    self.cascade(0, s);
                    return;
                }
            }
            // All wheels empty: jump straight to the first overflow event
            // and pull everything within a wheel span of it.
            if self.counts == [0; LEVELS] {
                let Some(Reverse(head)) = self.overflow.peek() else { return };
                self.tick = head.at >> GRANULE_BITS;
                self.refill_overflow(self.tick + WHEEL_SPAN);
                debug_assert!(!self.cur.is_empty());
                return;
            }
            // Step to the next boundary and cascade the parent slots. When
            // levels 0 and 1 are empty, whole level-1 revolutions can be
            // skipped by stepping level-2-boundary to level-2-boundary.
            let next = if self.counts[0] == 0 && self.counts[1] == 0 {
                ((self.tick >> (2 * SLOT_BITS)) + 1) << (2 * SLOT_BITS)
            } else {
                ((self.tick >> SLOT_BITS) + 1) << SLOT_BITS
            };
            self.tick = next;
            if next & (WHEEL_SPAN - 1) == 0 {
                self.refill_overflow(next + WHEEL_SPAN);
            }
            if next & ((1 << (2 * SLOT_BITS)) - 1) == 0 && self.counts[2] > 0 {
                self.cascade(2, ((next >> (2 * SLOT_BITS)) & MASK) as usize);
            }
            if self.counts[1] > 0 {
                self.cascade(1, ((next >> SLOT_BITS) & MASK) as usize);
            }
            // Events at exactly the boundary granule may now sit in `cur`
            // (cascaded with zero delta) or in level-0 slot 0 (inserted
            // directly before the cursor arrived); merge both.
            if !self.levels[0][0].is_empty() {
                self.cascade(0, 0);
            }
            if !self.cur.is_empty() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* so the shuffle test needs no RNG crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn drain(w: &mut TimingWheel<u32>) -> Vec<(Nanos, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = w.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(500, 2, 0);
        w.push(500, 1, 0);
        w.push(100, 3, 0);
        w.push(2_000_000, 0, 0); // level 1 territory
        assert_eq!(w.peek_at(), Some(100));
        assert_eq!(drain(&mut w), vec![(100, 3), (500, 1), (500, 2), (2_000_000, 0)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn payloads_follow_their_keys() {
        let mut w = TimingWheel::new();
        for i in 0..100u32 {
            w.push(u64::from(i % 10) * 100_000, u64::from(i), i);
        }
        let mut seen = Vec::new();
        while let Some((at, seq, item)) = w.pop() {
            // The payload must be the one pushed with this (at, seq).
            assert_eq!(u64::from(item % 10) * 100_000, at);
            assert_eq!(u64::from(item), seq);
            seen.push(item);
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn matches_reference_heap_on_shuffled_workload() {
        // Mixed horizons: same-granule ties, level 0/1/2 and overflow, plus
        // interleaved pops. The wheel must reproduce the reference heap's
        // (at, seq) order exactly.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut now = 0u64;
        for round in 0..2000u64 {
            let horizon = match rng.next() % 5 {
                0 => rng.next() % (1 << 12), // same/near granule
                1 => rng.next() % (1 << 19), // level 0/1
                2 => rng.next() % (1 << 27), // level 2
                3 => rng.next() % (1 << 36), // overflow
                _ => rng.next() % 64,        // dense ties
            };
            let at = now + horizon;
            // `round` doubles as the unique, monotone tie-break seq.
            w.push(at, round, round);
            reference.push(Reverse((at, round)));
            if rng.next().is_multiple_of(3) {
                let got = w.pop().map(|(at, s, _)| (at, s));
                let want = reference.pop().map(|Reverse(p)| p);
                assert_eq!(got, want, "diverged at round {round}");
                if let Some((at, _)) = got {
                    now = at; // future pushes stay causal, like the engine
                }
            }
        }
        loop {
            let got = w.pop().map(|(at, s, _)| (at, s));
            let want = reference.pop().map(|Reverse(p)| p);
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn spare_stack_keeps_only_buffers_of_live_slots() {
        // A few sparse far-future timers at a time, each pop jumping the
        // cursor across hundreds of empty level-1 and level-2 boundaries.
        // Every such boundary cascades an empty slot; none of those may
        // leave a buffer behind.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..3000 {
            for _ in 0..1 + rng.next() % 3 {
                // 2^18..2^34 ns ahead: level-1 and level-2 territory.
                let at = now + (1 << 18) + rng.next() % (1 << 34);
                w.push(at, seq, 0);
                reference.push(Reverse((at, seq)));
                seq += 1;
            }
            for _ in 0..1 + rng.next() % 3 {
                let got = w.pop().map(|(at, s, _)| (at, s));
                assert_eq!(got, reference.pop().map(|Reverse(p)| p));
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        assert_eq!(
            drain(&mut w),
            std::iter::from_fn(|| reference.pop().map(|Reverse(p)| p)).collect::<Vec<_>>()
        );
        let spare: Vec<usize> = w.spare.iter().map(Vec::capacity).collect();
        let peak = w.upper_peak;
        assert!(spare.iter().all(|&c| c > 0), "zero-capacity spare buffers: {spare:?}");
        assert!(
            !spare.is_empty() && spare.len() <= peak,
            "{} spare buffers, peak {peak}",
            spare.len()
        );
    }

    #[test]
    fn far_timer_beyond_wheel_span_pops_correctly() {
        let mut w = TimingWheel::new();
        let far = 60 * 1_000_000_000u64; // 60 s — deep into overflow
        w.push(far, 0, 1);
        w.push(10, 1, 2);
        assert_eq!(drain(&mut w), vec![(10, 1), (far, 0)]);
    }

    #[test]
    fn injection_behind_parked_cursor_stays_ordered() {
        // Pop a far event so the cursor parks far ahead, then push earlier
        // times (legal after the engine clock advanced past them via
        // run_until): they must still pop in (at, seq) order.
        let mut w = TimingWheel::new();
        w.push(5_000_000_000, 0, 0);
        assert!(w.pop().is_some());
        w.push(6_000_000_000, 1, 0);
        w.push(5_500_000_000, 2, 0);
        w.push(5_500_000_000, 3, 0);
        assert_eq!(drain(&mut w), vec![(5_500_000_000, 2), (5_500_000_000, 3), (6_000_000_000, 1)]);
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: TimingWheel<()> = TimingWheel::new();
        assert_eq!(w.peek_at(), None);
        assert!(w.pop().is_none());
    }
}
