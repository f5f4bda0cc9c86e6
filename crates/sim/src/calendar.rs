//! Hierarchical timing-wheel event calendar.
//!
//! The hot path of the simulator is `push` + `pop` of near-future events:
//! serialization completions and propagation arrivals sit microseconds to
//! milliseconds ahead of the clock. A binary heap pays O(log n) compares
//! *and* moves the full event payload at every sift step; the wheel places
//! each event in a slot indexed by its arrival granule in O(1) and only
//! heap-orders the handful of events sharing the cursor's granule.
//!
//! Three structural decisions keep the constant factor low:
//!
//! * **Events live in one slab.** Each pending event is one
//!   `(at, seq, next, item)` entry from push to pop, and popped entries are
//!   reused last-in first-out, so a push writes an entry that is still in
//!   cache. A wheel slot is only the head index of an intrusive list
//!   threaded through `next`: a push writes one 4-byte head, and a
//!   cascade relinks indices instead of copying events.
//! * **Three 256-slot levels over a 2^10 ns ≈ 1 µs granule** (level 0 spans
//!   ~262 µs, level 1 ~67 ms, level 2 ~17 s), plus a binary heap for the
//!   rare far-future timers beyond the wheel span, plus `cur` — a small
//!   sorted vector of the keys of every event whose granule is at or
//!   behind the cursor, which is what `pop` actually drains.
//! * **The cursor jumps over empty time.** Per-level occupancy bitmaps
//!   name the next occupied slot of the lowest non-empty level, and the
//!   cursor moves straight to its start. Reaching a 1 ms backbone hop or
//!   a 20 ms detection timer takes one boundary step, two when its slot
//!   wrapped into the next level-2 revolution.
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
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// The ordering key of a pending event and its slab index. `seq` is
/// unique, so the index never decides a comparison.
type Key = (Nanos, u64, u32);

/// A slab entry: a pending event, or (with `item` empty) a free one.
struct Entry<T> {
    at: Nanos,
    seq: u64,
    /// Next entry in the same wheel slot, or in the free list.
    next: u32,
    item: Option<T>,
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
    /// Every event, pending or freed. It grows only when no entry is free,
    /// so its length is the most events ever pending at once.
    slab: Vec<Entry<T>>,
    /// Head of the free list threaded through `Entry::next`.
    free: u32,
    /// Keys of the events whose granule is ≤ the cursor, sorted descending:
    /// the next event to pop is always `cur.last()`.
    cur: Vec<Key>,
    /// Wheel levels; `heads[l][s]` starts the list of events in slot `s`,
    /// `SLOTS^l` granules apart.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level slot-occupancy bitmaps (bit `s` set iff `heads[l][s]`
    /// starts a list): `advance` finds the next populated slot with a
    /// couple of word scans.
    occ: [[u64; SLOTS / 64]; LEVELS],
    /// Events currently resident per wheel level.
    counts: [usize; LEVELS],
    /// Keys of the events beyond the wheel span, refilled as the cursor
    /// crosses top-level boundaries.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Cursor granule (`at >> GRANULE_BITS`).
    tick: u64,
    /// Total events pending (all storage areas).
    len: usize,
    /// Boundary steps `jump` has taken.
    #[cfg(test)]
    steps: u64,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slab: Vec::new(),
            free: NIL,
            cur: Vec::new(),
            heads: [[NIL; SLOTS]; LEVELS],
            occ: [[0; SLOTS / 64]; LEVELS],
            counts: [0; LEVELS],
            overflow: BinaryHeap::new(),
            tick: 0,
            len: 0,
            #[cfg(test)]
            steps: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every pending item, in no particular order.
    pub(crate) fn items(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().filter_map(|e| e.item.as_ref())
    }

    /// Schedules `item` at time `at` with tie-break key `seq`.
    pub(crate) fn push(&mut self, at: Nanos, seq: u64, item: T) {
        self.len += 1;
        let entry = Entry { at, seq, next: NIL, item: Some(item) };
        let idx = self.free;
        if idx == NIL {
            let idx = u32::try_from(self.slab.len()).ok().filter(|&i| i != NIL);
            let idx = idx.expect("fewer than 2^32 - 1 events pending at once");
            self.slab.push(entry);
            self.place(idx);
        } else {
            let e = &mut self.slab[idx as usize];
            self.free = e.next;
            *e = entry;
            self.place(idx);
        }
    }

    /// Timestamp of the earliest pending event. Advances the cursor (an
    /// order-preserving internal reorganization), hence `&mut self`.
    pub(crate) fn peek_at(&mut self) -> Option<Nanos> {
        self.advance();
        self.cur.last().map(|k| k.0)
    }

    /// Removes and returns the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        self.advance();
        let (at, seq, idx) = self.cur.pop()?;
        self.len -= 1;
        let e = &mut self.slab[idx as usize];
        e.next = self.free;
        self.free = idx;
        Some((at, seq, e.item.take().expect("a pending entry holds its item")))
    }

    /// Routes slab entry `idx` to `cur`, a wheel slot, or the overflow heap
    /// based on its distance from the cursor. Does not touch `len`.
    fn place(&mut self, idx: u32) {
        let e = &mut self.slab[idx as usize];
        let key = (e.at, e.seq, idx);
        let g = e.at >> GRANULE_BITS;
        if g <= self.tick {
            // Sorted insert (descending). `cur` holds the few events of the
            // current granule, so the shift is short; ties are impossible
            // (`seq` is unique) which makes the position unambiguous.
            let pos = self.cur.partition_point(|x| *x > key);
            self.cur.insert(pos, key);
            return;
        }
        let delta = g - self.tick;
        let (lvl, slot) = if delta < SLOTS as u64 {
            (0, g & MASK)
        } else if delta < 1 << (2 * SLOT_BITS) {
            (1, (g >> SLOT_BITS) & MASK)
        } else if delta < WHEEL_SPAN {
            (2, (g >> (2 * SLOT_BITS)) & MASK)
        } else {
            self.overflow.push(Reverse(key));
            return;
        };
        let slot = slot as usize;
        e.next = self.heads[lvl][slot];
        self.heads[lvl][slot] = idx;
        self.occ[lvl][slot >> 6] |= 1 << (slot & 63);
        self.counts[lvl] += 1;
    }

    /// Empties `heads[lvl][slot]`, re-placing each event relative to the
    /// current cursor. With the cursor at the slot's granule this moves
    /// level-0 events straight into `cur`.
    fn cascade(&mut self, lvl: usize, slot: usize) {
        let mut idx = std::mem::replace(&mut self.heads[lvl][slot], NIL);
        self.occ[lvl][slot >> 6] &= !(1 << (slot & 63));
        if lvl == 0 {
            // Every event in a level-0 slot shares one granule ≤ the
            // cursor, so the whole slot belongs in `cur`.
            while idx != NIL {
                let e = &self.slab[idx as usize];
                self.cur.push((e.at, e.seq, idx));
                self.counts[0] -= 1;
                idx = e.next;
            }
            self.cur.sort_unstable_by(|a, b| b.cmp(a));
        } else {
            while idx != NIL {
                let next = self.slab[idx as usize].next;
                self.counts[lvl] -= 1;
                self.place(idx);
                idx = next;
            }
        }
    }

    /// Moves overflow events with granule below `horizon` into the wheels.
    fn refill_overflow(&mut self, horizon: u64) {
        while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
            if at >> GRANULE_BITS >= horizon {
                break;
            }
            self.overflow.pop();
            self.place(idx);
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
            // after the boundary cascade in `jump`.
            if self.counts[0] > 0 {
                let base = self.tick & !MASK;
                let from = ((self.tick & MASK) + 1) as usize;
                if let Some(s) = next_set_bit(&self.occ[0], from) {
                    self.tick = base + s as u64;
                    self.cascade(0, s);
                    return;
                }
            }
            if !self.jump() {
                return;
            }
        }
    }

    /// Moves the cursor past a level-0 revolution with nothing left ahead
    /// in it, to the next boundary that can release events, and cascades
    /// what starts there. Returns whether `cur` is still empty, so level 0
    /// needs scanning again. Out of line: dense traffic pops nearly every
    /// event through the level-0 scan in `advance` and rarely gets here.
    #[inline(never)]
    fn jump(&mut self) -> bool {
        // All wheels empty: jump straight to the first overflow event and
        // pull everything within a wheel span of it.
        let Some(lvl) = (0..LEVELS).find(|&l| self.counts[l] > 0) else {
            let Some(&Reverse((at, ..))) = self.overflow.peek() else { return false };
            self.tick = at >> GRANULE_BITS;
            self.refill_overflow(self.tick + WHEEL_SPAN);
            debug_assert!(!self.cur.is_empty());
            return false;
        };
        // Every level below `lvl` is empty. Jump to the start of the next
        // occupied slot of `lvl` in its parent's current revolution: the
        // rule of the level-0 scan, one level up. Nothing at a higher level
        // or in the overflow heap is due before that parent's next
        // boundary. With nothing ahead (the keys wrapped, as at level 0
        // here) step to that boundary.
        let shift = SLOT_BITS * lvl as u32;
        let slot = ((self.tick >> shift) & MASK) as usize;
        let ahead = if lvl == 0 { None } else { next_set_bit(&self.occ[lvl], slot + 1) };
        let next = match ahead {
            Some(s) => (((self.tick >> shift) & !MASK) + s as u64) << shift,
            None => ((self.tick >> (shift + SLOT_BITS)) + 1) << (shift + SLOT_BITS),
        };
        #[cfg(test)]
        {
            self.steps += 1;
        }
        // `next` is a level-1 boundary at least: cascade every slot that
        // starts there, top level first.
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
        if self.heads[0][0] != NIL {
            self.cascade(0, 0);
        }
        self.cur.is_empty()
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
    fn slab_never_outgrows_peak_pending() {
        // A few sparse far-future timers at a time, each pop moving the
        // cursor across empty level-1 and level-2 time, then a burst and a
        // drain. Popped entries are reused before the slab grows, so its
        // length is the most events ever pending at once.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut peak = 0;
        for round in 0..3000 {
            let pushes = if round == 1500 { 500 } else { 1 + rng.next() % 3 };
            for _ in 0..pushes {
                // 2^18..2^34 ns ahead: level-1 and level-2 territory.
                let at = now + (1 << 18) + rng.next() % (1 << 34);
                w.push(at, seq, 0);
                reference.push(Reverse((at, seq)));
                seq += 1;
                peak = peak.max(w.len());
            }
            for _ in 0..1 + rng.next() % 3 {
                let got = w.pop().map(|(at, s, _)| (at, s));
                assert_eq!(got, reference.pop().map(|Reverse(p)| p));
                if let Some((at, _)) = got {
                    now = at;
                }
            }
            assert_eq!(w.slab.len(), peak, "round {round}");
        }
        assert!(peak > 500, "the burst never piled up: peak {peak}");
        assert_eq!(
            drain(&mut w),
            std::iter::from_fn(|| reference.pop().map(|Reverse(p)| p)).collect::<Vec<_>>()
        );
        assert_eq!(w.slab.len(), peak);
    }

    #[test]
    fn items_yield_exactly_the_pending_events() {
        // Mixed horizons with interleaved pops; at random points the items
        // must be exactly the reference heap's live set, whether they wait
        // in `cur`, a wheel slot or the overflow heap.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut now = 0u64;
        let mut checks = 0;
        for seq in 0..4000u64 {
            let at = now + rng.next() % (1 << (10 + rng.next() % 27));
            w.push(at, seq, seq);
            reference.push(Reverse((at, seq)));
            for _ in 0..rng.next() % 3 {
                let got = w.pop().map(|(at, s, _)| (at, s));
                assert_eq!(got, reference.pop().map(|Reverse(p)| p));
                if let Some((at, _)) = got {
                    now = at;
                }
            }
            if rng.next().is_multiple_of(50) {
                let mut items: Vec<u64> = w.items().copied().collect();
                let mut live: Vec<u64> = reference.iter().map(|Reverse((_, s))| *s).collect();
                items.sort_unstable();
                live.sort_unstable();
                assert_eq!(items, live, "after push {seq}");
                checks += 1;
            }
        }
        assert!(checks > 40);
    }

    #[test]
    fn matches_reference_heap_on_sparse_timeline() {
        // Control-plane shaped load: level 0 is usually empty, most events
        // sit 0.3-70 ms (level 1) or 67 ms-17 s (level 2) ahead, a few lie
        // beyond the wheel span, and the clock crosses several `WHEEL_SPAN`
        // boundaries. `peek_at` parks the cursor on the next event before
        // some pushes, which then land at or behind it.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x5851_f42d_4c95_7f2d);
        let mut now = 0u64;
        for round in 0..6000u64 {
            if rng.next().is_multiple_of(4) {
                if let Some(at) = w.peek_at() {
                    assert!(at >= now);
                }
            }
            let at = match rng.next() % 8 {
                0 => now,
                1 => now + rng.next() % (1 << 10),
                2 => now + 17_000_000_000 + rng.next() % 30_000_000_000,
                3 | 4 => now + 67_000_000 + rng.next() % 16_933_000_000,
                _ => now + 300_000 + rng.next() % 69_700_000,
            };
            w.push(at, round, 0);
            reference.push(Reverse((at, round)));
            for _ in 0..rng.next() % 3 {
                let got = w.pop().map(|(at, s, _)| (at, s));
                assert_eq!(got, reference.pop().map(|Reverse(p)| p), "diverged at round {round}");
                if let Some((at, _)) = got {
                    now = at;
                }
            }
        }
        let spans = now >> (GRANULE_BITS + SLOT_BITS * LEVELS as u32);
        assert!(spans >= 3, "the clock crossed only {spans} wheel-span boundaries");
        assert_eq!(
            drain(&mut w),
            std::iter::from_fn(|| reference.pop().map(|Reverse(p)| p)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sparse_timers_pop_within_two_boundary_steps() {
        // Two 1 ms hop chains and a 20 ms detection timer, rescheduled as
        // each fires: the cursor crosses empty wheel time between nearly
        // every pop. A jump to the next occupied slot takes one boundary
        // step, plus one more when the slot wrapped into the next level-2
        // revolution; walking level-0 revolutions would take about four
        // per millisecond.
        let periods = [1_000_000u64, 1_000_000, 20_000_000];
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut seq = 0u64;
        for (chain, (&period, offset)) in periods.iter().zip([0, 370_000, 5_000_000]).enumerate() {
            w.push(offset + period, seq, chain);
            reference.push(Reverse((offset + period, seq)));
            seq += 1;
        }
        for _ in 0..5000 {
            let before = w.steps;
            let (at, s, chain) = w.pop().expect("chains never end");
            assert_eq!(Some((at, s)), reference.pop().map(|Reverse(p)| p));
            let steps = w.steps - before;
            assert!(steps <= 2, "{steps} boundary steps to reach {at} ns");
            w.push(at + periods[chain], seq, chain);
            reference.push(Reverse((at + periods[chain], seq)));
            seq += 1;
        }
        assert!(w.steps > 0);
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
