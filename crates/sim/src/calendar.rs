//! One-level timing-wheel event calendar.
//!
//! The hot path of the simulator is `push` + `pop` of near-future events:
//! serialization completions and propagation arrivals sit microseconds to
//! a couple of milliseconds ahead of the clock. A binary heap pays O(log n)
//! compares *and* moves the full event payload at every sift step; the
//! wheel places each event in a slot indexed by its arrival granule in O(1)
//! and only sorts the handful of events sharing the cursor's granule.
//!
//! Three structural decisions keep the constant factor low:
//!
//! * **Events live in one slab.** Each pending event is one
//!   `(at, seq, next, item)` entry from push to pop, and popped entries are
//!   reused last-in first-out, so a push writes an entry that is still in
//!   cache. A wheel slot is only the head index of an intrusive list
//!   threaded through `next`, so a push writes one 4-byte head.
//! * **One ring that spans a backbone hop.** [`SLOTS`] slots over a
//!   2^10 ns ≈ 1 µs granule cover ≈ 2.1 ms, so a 1 ms backbone hop and a
//!   0.5–1 ms CBR period land in the ring at push. The rarer events due
//!   farther ahead (detection and hold timers, a slow bottleneck's queue)
//!   wait as keys in a binary heap. `cur`, a small sorted vector, holds the
//!   keys of every event whose granule is at or behind the cursor, which is
//!   what `pop_due` drains.
//! * **Each event moves at most once.** The cursor goes straight to the
//!   earlier of the next occupied slot (a circular scan of 32 occupancy
//!   words under one summary word) and the heap's minimum, and that
//!   granule's slot list and heap keys move into `cur`. Nothing cascades:
//!   an event reaches `cur` at push, from its slot or from the heap.
//!
//! Ordering contract: events pop in exactly `(at, seq)` order, identical to
//! the `BinaryHeap<Reverse<Scheduled>>` the engine used before. Three
//! invariants make the wheel order-safe:
//!
//! * the ring admits granules 1 to `SLOTS - 1` past the cursor, so a slot
//!   holds a single granule, the cursor's own slot stays empty and the
//!   circular scan meets granules in time order;
//! * a heap key stays in the heap until its granule is the cursor's, and
//!   then moves into `cur` with the slot list of that granule, so draining
//!   both wholesale cannot reorder anything already pending;
//! * events pushed at or behind the cursor go straight into `cur`, which is
//!   fully ordered — late injection (e.g. after `run_until` parked the
//!   cursor far ahead) degrades to heap behaviour instead of misordering.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netsim_qos::Nanos;

/// log2 of the wheel granule in nanoseconds (2^10 ns ≈ 1 µs).
const GRANULE_BITS: u32 = 10;
/// log2 of the ring's slot count.
const SLOT_BITS: u32 = 11;
/// Ring slots: 2^11 granules ≈ 2.1 ms, past a 1 ms backbone hop. Counted
/// over seed-1 perfbench runs, no push of `forward` falls farther ahead,
/// 4.2% of `congested`'s (its 10 Mb/s bottleneck) and 13.4% of
/// `control`'s (detection and hold timers). Half the ring would also send
/// `congested`'s 29% due 1.05–2.1 ms ahead to the heap. The heads are
/// inline, so the ring allocates nothing.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Occupancy words, one bit each in the summary word.
const WORDS: usize = SLOTS / 64;
const _: () = assert!(WORDS == u32::BITS as usize);
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// The ordering key of a pending event and its slab index. `seq` is
/// unique, so the index never decides a comparison.
type Key = (Nanos, u64, u32);

/// A slab entry: a pending event, or (with `item` empty) a free one.
struct Entry<T> {
    at: Nanos,
    seq: u64,
    /// Next entry in the same ring slot, or in the free list.
    next: u32,
    item: Option<T>,
}

/// A one-level timing wheel with a heap for far events, popping items in
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
    /// `heads[s]` starts the list of the events due in the one granule
    /// 1 to `SLOTS - 1` past the cursor that maps to slot `s`.
    heads: [u32; SLOTS],
    /// Slot occupancy: bit `s % 64` of word `s / 64` is set iff `heads[s]`
    /// starts a list.
    occ: [u64; WORDS],
    /// Bit `w` is set iff `occ[w]` is non-zero.
    summary: u32,
    /// Keys of the events pushed `SLOTS` or more granules ahead of the
    /// cursor. Each stays here until its granule is the cursor's.
    far: BinaryHeap<Reverse<Key>>,
    /// Cursor granule (`at >> GRANULE_BITS`).
    tick: u64,
    #[cfg(test)]
    moves: tests::MoveLog,
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            slab: Vec::new(),
            free: NIL,
            cur: Vec::new(),
            heads: [NIL; SLOTS],
            occ: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            tick: 0,
            #[cfg(test)]
            moves: tests::MoveLog::default(),
        }
    }

    /// Every pending item, in no particular order.
    pub(crate) fn items(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().filter_map(|e| e.item.as_ref())
    }

    /// Schedules `item` at time `at` with tie-break key `seq`.
    pub(crate) fn push(&mut self, at: Nanos, seq: u64, item: T) {
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

    /// Removes and returns the earliest pending event if it is due at or
    /// before `until`. Either way the cursor moves up to the earliest
    /// pending event (an order-preserving reorganization), where a later
    /// push at or behind it goes straight into `cur`.
    pub(crate) fn pop_due(&mut self, until: Nanos) -> Option<(Nanos, u64, T)> {
        if self.cur.is_empty() {
            self.advance();
        }
        let &(at, seq, idx) = self.cur.last()?;
        if at > until {
            return None;
        }
        self.cur.pop();
        #[cfg(test)]
        self.moves.popped(idx);
        let e = &mut self.slab[idx as usize];
        e.next = self.free;
        self.free = idx;
        Some((at, seq, e.item.take().expect("a pending entry holds its item")))
    }

    /// Routes slab entry `idx` to `cur`, a ring slot or the far heap by its
    /// distance from the cursor.
    fn place(&mut self, idx: u32) {
        #[cfg(test)]
        self.moves.pushed(idx);
        let e = &mut self.slab[idx as usize];
        let g = e.at >> GRANULE_BITS;
        if g <= self.tick {
            // Sorted insert (descending). `cur` holds the few events of the
            // current granule, so the shift is short; ties are impossible
            // (`seq` is unique) which makes the position unambiguous.
            let key = (e.at, e.seq, idx);
            let pos = self.cur.partition_point(|x| *x > key);
            self.cur.insert(pos, key);
        } else if g - self.tick < SLOTS as u64 {
            let s = (g & MASK) as usize;
            e.next = self.heads[s];
            self.heads[s] = idx;
            self.occ[s >> 6] |= 1 << (s & 63);
            self.summary |= 1 << (s >> 6);
        } else {
            self.far.push(Reverse((e.at, e.seq, idx)));
        }
    }

    /// Granule of the first occupied slot after the cursor's, in circular
    /// order, which is time order: the ring holds granules 1 to
    /// `SLOTS - 1` past the cursor.
    fn next_occupied(&self) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let cursor = (self.tick & MASK) as usize;
        let from = (cursor + 1) & (SLOTS - 1);
        let w = from >> 6;
        let word = self.occ[w] & (!0u64 << (from & 63));
        let s = if word == 0 {
            // The later words, else wrap around to the first occupied one,
            // which may be `w` itself below `from`.
            let later = self.summary & (!1u32 << w);
            let w = (if later == 0 { self.summary } else { later }).trailing_zeros() as usize;
            (w << 6) + self.occ[w].trailing_zeros() as usize
        } else {
            (w << 6) + word.trailing_zeros() as usize
        };
        Some(self.tick + (s.wrapping_sub(cursor) & (SLOTS - 1)) as u64)
    }

    /// Moves the cursor to the earliest pending granule and that granule's
    /// events into `cur`: the next occupied slot's list, the heap keys of
    /// the granule, or both. Called with `cur` empty; no-op when nothing is
    /// pending.
    fn advance(&mut self) {
        let ring = self.next_occupied();
        let far = self.far.peek().map(|Reverse(k)| k.0 >> GRANULE_BITS);
        self.tick = match (ring, far) {
            (Some(r), Some(f)) => r.min(f),
            (Some(r), None) => r,
            (None, Some(f)) => f,
            (None, None) => return,
        };
        if ring == Some(self.tick) {
            let s = (self.tick & MASK) as usize;
            let mut idx = std::mem::replace(&mut self.heads[s], NIL);
            self.occ[s >> 6] &= !(1 << (s & 63));
            if self.occ[s >> 6] == 0 {
                self.summary &= !(1 << (s >> 6));
            }
            while idx != NIL {
                let e = &self.slab[idx as usize];
                self.cur.push((e.at, e.seq, idx));
                #[cfg(test)]
                self.moves.moved(idx, false);
                idx = e.next;
            }
        }
        if far == Some(self.tick) {
            while let Some(&Reverse(key)) = self.far.peek() {
                if key.0 >> GRANULE_BITS != self.tick {
                    break;
                }
                self.far.pop();
                self.cur.push(key);
                #[cfg(test)]
                self.moves.moved(key.2, true);
            }
        }
        if self.cur.len() > 1 {
            self.cur.sort_unstable_by(|a, b| b.cmp(a));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How often each pending event moved between storage areas after its
    /// push: into `cur` from a ring slot or from the far heap.
    #[derive(Default)]
    pub(super) struct MoveLog {
        /// Moves per slab entry since its push.
        per_entry: Vec<u32>,
        /// The most moves any popped event made.
        most: u32,
        /// Moves in all, and those out of the far heap.
        total: u64,
        from_far: u64,
    }

    impl MoveLog {
        pub(super) fn pushed(&mut self, idx: u32) {
            let i = idx as usize;
            if self.per_entry.len() <= i {
                self.per_entry.resize(i + 1, 0);
            }
            self.per_entry[i] = 0;
        }

        pub(super) fn moved(&mut self, idx: u32, from_far: bool) {
            self.per_entry[idx as usize] += 1;
            self.total += 1;
            self.from_far += u64::from(from_far);
        }

        pub(super) fn popped(&mut self, idx: u32) {
            self.most = self.most.max(self.per_entry[idx as usize]);
        }
    }

    impl<T> TimingWheel<T> {
        fn pop(&mut self) -> Option<(Nanos, u64, T)> {
            self.pop_due(Nanos::MAX)
        }

        fn len(&self) -> usize {
            self.items().count()
        }
    }

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

    type Reference = BinaryHeap<Reverse<(Nanos, u64)>>;

    fn drain<T>(w: &mut TimingWheel<T>) -> Vec<(Nanos, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = w.pop() {
            out.push((at, seq));
        }
        out
    }

    /// Pops the next event due by `until` from the wheel and the reference
    /// heap, and asserts that they agree.
    fn pop_both<T>(
        w: &mut TimingWheel<T>,
        reference: &mut Reference,
        until: Nanos,
    ) -> Option<(Nanos, u64)> {
        let got = w.pop_due(until).map(|(at, s, _)| (at, s));
        let want = match reference.peek() {
            Some(&Reverse(p)) if p.0 <= until => reference.pop().map(|Reverse(p)| p),
            _ => None,
        };
        assert_eq!(got, want);
        got
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(500, 2, 0);
        w.push(500, 1, 0);
        w.push(100, 3, 0);
        w.push(3_000_000, 0, 0); // beyond the ring
        assert!(w.pop_due(99).is_none());
        assert_eq!(drain(&mut w), vec![(100, 3), (500, 1), (500, 2), (3_000_000, 0)]);
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
        // Mixed horizons: same-granule ties, ring and far-heap distances,
        // plus interleaved pops. The wheel must reproduce the reference
        // heap's (at, seq) order exactly.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut now = 0u64;
        for round in 0..2000u64 {
            let horizon = match rng.next() % 5 {
                0 => rng.next() % (1 << 12), // same/near granule
                1 => rng.next() % (1 << 22), // ring or just past it
                2 => rng.next() % (1 << 27), // far heap
                3 => rng.next() % (1 << 36), // far heap, seconds ahead
                _ => rng.next() % 64,        // dense ties
            };
            let at = now + horizon;
            // `round` doubles as the unique, monotone tie-break seq.
            w.push(at, round, round);
            reference.push(Reverse((at, round)));
            if rng.next().is_multiple_of(3) {
                if let Some((at, _)) = pop_both(&mut w, &mut reference, Nanos::MAX) {
                    now = at; // future pushes stay causal, like the engine
                }
            }
        }
        while pop_both(&mut w, &mut reference, Nanos::MAX).is_some() {}
    }

    #[test]
    fn edge_of_ring_pushes_match_reference_heap() {
        // Pushes exactly SLOTS - 1, SLOTS and SLOTS + 1 granules past the
        // cursor, at every offset within the granule, from cursor positions
        // all round the ring, so ring slots wrap below the cursor's. Pushes
        // into the granule of an earlier far push put heap keys next to a
        // slot list or, once the cursor arrives, next to `cur`. Deadlines
        // before the next event park the cursor, and some pushes then land
        // between the clock and the cursor.
        const G: u64 = 1 << GRANULE_BITS;
        let span = SLOTS as u64;
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x4f6c_dd1d_9e37_79b9);
        let (mut now, mut far_granule) = (0u64, 0u64);
        let (mut behind, mut shared) = (0, 0);
        for seq in 0..40_000u64 {
            let tick = w.tick;
            let at = match rng.next() % 8 {
                0..=2 => {
                    let delta = span - 1 + rng.next() % 3;
                    if delta >= span {
                        far_granule = tick + delta;
                    }
                    (tick + delta) * G + rng.next() % G
                }
                3 if far_granule > tick => {
                    shared += 1;
                    far_granule * G + rng.next() % G
                }
                4 if tick * G > now => {
                    behind += 1;
                    now + rng.next() % (tick * G - now)
                }
                5 => tick * G + rng.next() % G,
                _ => (tick + 1 + rng.next() % (2 * span)) * G + rng.next() % G,
            };
            let at = at.max(now);
            w.push(at, seq, seq);
            reference.push(Reverse((at, seq)));
            for _ in 0..rng.next() % 3 {
                let until = if rng.next().is_multiple_of(4) { now } else { Nanos::MAX };
                if let Some((at, _)) = pop_both(&mut w, &mut reference, until) {
                    now = at;
                }
            }
        }
        assert!(w.moves.from_far > 1000, "{} keys came from the heap", w.moves.from_far);
        assert!(behind > 300 && shared > 1000, "{behind} pushes behind, {shared} shared");
        assert!(now >> (GRANULE_BITS + SLOT_BITS) >= 10, "few ring revolutions");
        while pop_both(&mut w, &mut reference, Nanos::MAX).is_some() {}
    }

    #[test]
    fn slab_never_outgrows_peak_pending() {
        // A few sparse timers at a time, 0.26 ms to 17 s ahead (ring and
        // far heap), each pop moving the cursor across empty time, then a
        // burst and a drain. Popped entries are reused before the slab
        // grows, so its length is the most events ever pending at once.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut peak = 0;
        for round in 0..3000 {
            let pushes = if round == 1500 { 500 } else { 1 + rng.next() % 3 };
            for _ in 0..pushes {
                let at = now + (1 << 18) + rng.next() % (1 << 34);
                w.push(at, seq, 0);
                reference.push(Reverse((at, seq)));
                seq += 1;
                peak = peak.max(w.len());
            }
            for _ in 0..1 + rng.next() % 3 {
                if let Some((at, _)) = pop_both(&mut w, &mut reference, Nanos::MAX) {
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
        // in `cur`, a ring slot or the far heap.
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
                if let Some((at, _)) = pop_both(&mut w, &mut reference, Nanos::MAX) {
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
        // Control-plane shaped load: the ring is usually empty, most events
        // sit 0.3 ms to 17 s ahead, a few up to 47 s, and the clock crosses
        // many ring revolutions. A deadline before the next event parks
        // the cursor on it before some pushes, which then land at or
        // behind it.
        let mut w = TimingWheel::new();
        let mut reference = BinaryHeap::new();
        let mut rng = Rng(0x5851_f42d_4c95_7f2d);
        let mut now = 0u64;
        for round in 0..6000u64 {
            if rng.next().is_multiple_of(4) {
                if let Some((at, _)) = pop_both(&mut w, &mut reference, now) {
                    now = at;
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
                if let Some((at, _)) = pop_both(&mut w, &mut reference, Nanos::MAX) {
                    now = at;
                }
            }
        }
        let revolutions = now >> (GRANULE_BITS + SLOT_BITS);
        assert!(revolutions >= 3, "the clock crossed only {revolutions} ring revolutions");
        assert!(w.moves.from_far > 0, "no key came from the far heap");
        while pop_both(&mut w, &mut reference, Nanos::MAX).is_some() {}
    }

    #[test]
    fn every_event_moves_at_most_once() {
        // Two 1 ms hop chains and a 20 ms detection timer, rescheduled as
        // each fires, then a dense mix of horizons from 1 µs to 2 ms: an
        // event reaches `cur` at its push, from its ring slot or from the
        // far heap, and never moves again.
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
            let (at, s, chain) = w.pop().expect("chains never end");
            assert_eq!(Some((at, s)), reference.pop().map(|Reverse(p)| p));
            w.push(at + periods[chain], seq, chain);
            reference.push(Reverse((at + periods[chain], seq)));
            seq += 1;
        }
        assert!(w.moves.from_far > 0, "the 20 ms timer never rode the heap");
        let mut rng = Rng(0x7f4a_7c15_2545_f491);
        let mut now = w.tick << GRANULE_BITS;
        for _ in 0..20_000 {
            let at = now + 1_000 + rng.next() % 2_000_000;
            w.push(at, seq, 3);
            reference.push(Reverse((at, seq)));
            seq += 1;
            if w.len() > 64 {
                now = pop_both(&mut w, &mut reference, Nanos::MAX).expect("pending").0;
            }
        }
        while pop_both(&mut w, &mut reference, Nanos::MAX).is_some() {}
        assert_eq!(w.moves.most, 1, "an event moved twice, or none moved");
        assert!(w.moves.total > 20_000);
    }

    #[test]
    fn far_timer_beyond_wheel_span_pops_correctly() {
        let mut w = TimingWheel::new();
        let far = 60 * 1_000_000_000u64; // 60 s — deep in the far heap
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
        assert!(w.pop_due(Nanos::MAX).is_none());
        assert!(w.pop().is_none());
    }
}
