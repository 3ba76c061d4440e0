//! The raw-speed scheduler: a hierarchical timer wheel with an overflow
//! level, preserving the exact `(time, sequence)` total order of a binary
//! heap at O(1) amortized cost per event.
//!
//! # Why a wheel
//!
//! The simulator's dominant event class is the short-horizon periodic
//! timer: every MHRP node perpetually re-arms watchdog, advertiser and
//! backoff timers, and every frame in flight is one more queue entry. A
//! global `BinaryHeap` pays O(log n) comparisons *and* O(log n) large
//! element moves per push and pop, which is exactly the cost that made
//! event throughput degrade as worlds grew. The wheel replaces that with
//! one `Vec` push on schedule and one batch drain per occupied slot.
//!
//! # Structure
//!
//! Time is bucketed into *ticks* of 2^[`TICK_SHIFT`] ns (8.192 µs). The
//! wheel has [`LEVELS`] levels of [`SLOTS`] slots each; a slot at level
//! `L` spans `SLOTS^L` ticks, so level 0 resolves single ticks and the
//! whole wheel spans 2^36 ticks ≈ 6.5 days. Events beyond the span —
//! soak horizons, fault plans, admin ops scheduled "at infinity" — go to
//! a small overflow `BinaryHeap` and migrate into the wheel as the
//! cursor approaches them. An event's level is the position of the
//! highest bit in which its tick differs from the cursor (the hashed
//! hierarchical wheel scheme): as the cursor advances into a higher-level
//! slot, that slot's events *cascade* down into lower levels, each event
//! descending at most [`LEVELS`]−1 times over its lifetime.
//!
//! # Determinism
//!
//! The binary heap's contract was a total order on `(time, seq)` with
//! `seq` assigned in push order. The wheel preserves it *exactly*: when
//! the cursor reaches an occupied level-0 slot, the slot's events are
//! drained into a ready batch and sorted by `(time, seq)`; events
//! scheduled into the already-drained window (same-instant pushes from a
//! running handler, or pushes below a batch that an unbounded
//! [`TimerWheel::peek`] collected early) are merge-inserted into the
//! batch at their ordered position. Every golden replay and
//! typed-event-log test holds byte-identical because pop order is
//! bit-for-bit the heap's pop order.
//!
//! # Cursor discipline
//!
//! That merge is O(batch) — a binary search plus a `Vec::insert` — so
//! the O(1) claim rests on schedules landing at or after the cursor. One
//! rule keeps them there: **the cursor never passes the latest time a
//! caller asked about.** [`TimerWheel::pop_due`]`(t)` advances only
//! while the next occupied slot, cascade or overflow jump expires at or
//! before `t`'s tick; otherwise it returns `None` and leaves the cursor
//! where it was, so a caller that runs to `t` and then schedules at or
//! after `t` (a soak tick's burst of sends, every forwarding hop that
//! follows) gets a slot push. The unbounded [`TimerWheel::peek`] and
//! [`TimerWheel::pop`] still stage the next batch wherever it is — the
//! caller is asking about exactly that time — and a later schedule below
//! it pays for the merge. [`TimerWheel::take_late_scan_steps`] counts
//! what those merges cost.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of nanoseconds per tick: 1 tick = 8.192 µs. Chosen so the
/// simulator's dominant deadlines — protocol timers and link latencies
/// in the tens-to-hundreds of microseconds — mostly land in level 0
/// directly (one slot push, no cascade) while a level-0 slot still only
/// batches events closer together than one tick, keeping drain sorts
/// small.
pub const TICK_SHIFT: u32 = 13;
/// log2 of slots per level.
pub const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Number of wheel levels; deadlines past `SLOTS^LEVELS` ticks overflow.
pub const LEVELS: usize = 6;
/// Ticks covered by the wheel proper (2^36 ≈ 6.5 days at 8.192 µs/tick).
pub const SPAN_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// One scheduled entry: an absolute deadline, the tie-breaking sequence
/// number assigned at schedule time, and the caller's payload.
#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

// The simulator's queue entry: copied at every slot push, cascade, drain
// and pop, and what a storm's backlog is made of.
const _: () = assert!(std::mem::size_of::<Entry<crate::event::EventKind>>() <= 32);

/// Overflow entries live in a max-heap; reverse the comparison so the
/// earliest `(at, seq)` is on top. Payloads never participate in the
/// ordering (seq is unique, so the order is total without them).
struct OverflowEntry<T>(Entry<T>);

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.at.cmp(&self.0.at).then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// Initial capacity of every slot bucket. Slot `Vec`s are seeded eagerly
/// (rather than allocated on first touch) because the cursor reaches
/// higher-level slots for the *first* time throughout a run — at level 1
/// every ~0.5 ms of simulated time for the first ~34 ms, at level 2 for
/// the first ~2.1 s — and a lazy first-touch allocation there would
/// break the steady-state zero-allocation guarantee the delivery and
/// timer hot paths hold.
/// Capacity is conserved thereafter: drains and cascades swap buckets
/// back in place, so a slot grown once never reallocates at that size —
/// up to [`RELEASE_ENTRIES`].
const SLOT_SEED: usize = 4;

/// A bucket whose buffer grew past this many entries (32 KiB) hands it
/// back when it empties (see [`release_burst_buffer`]). Steady-state
/// buckets sit below it and keep their capacity, so the zero-allocation
/// guarantee above is untouched; what goes is the high-water mark of a
/// burst. Without the rule every higher-level slot a storm rotates
/// through keeps a buffer sized for its share of the backlog: 25 000
/// hosts registering at once put 2.6 M entries in the queue, and with
/// the release size at 2^15 the buckets under it still held ≈ 100 MB of
/// capacity around ≈ 2 MB of entries once the storm had drained.
const RELEASE_ENTRIES: usize = 1 << 10;

/// Shrinks a just-emptied bucket back to its seed if a burst grew it
/// past [`RELEASE_ENTRIES`].
#[inline]
fn release_burst_buffer<T>(bucket: &mut Vec<T>) {
    debug_assert!(bucket.is_empty());
    if bucket.capacity() > RELEASE_ENTRIES {
        bucket.shrink_to(SLOT_SEED);
    }
}

/// One wheel level: 64 unsorted slot buckets plus an occupancy bitmap so
/// the next occupied slot is a `trailing_zeros` away.
struct Level<T> {
    occupied: u64,
    slots: [Vec<Entry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level { occupied: 0, slots: std::array::from_fn(|_| Vec::with_capacity(SLOT_SEED)) }
    }
}

/// A deterministic priority queue over `(SimTime, seq)` built on a
/// hierarchical timer wheel.
///
/// `schedule` assigns each entry a monotonically increasing sequence
/// number and returns it; `pop` yields entries in strictly increasing
/// `(time, seq)` order — the exact order a `BinaryHeap` keyed the same
/// way would produce, including for entries scheduled "in the past"
/// (they fire at their ordered position before anything later).
pub struct TimerWheel<T> {
    /// The next batch, sorted *descending* by `(at, seq)` so the next
    /// entry to pop is at the back — `Vec::pop` moves it out safely in
    /// O(1), with none of a deque's ring arithmetic on the hot path. All
    /// entries with `tick < cur` live here (or have been popped).
    ready: Vec<Entry<T>>,
    levels: [Level<T>; LEVELS],
    /// Entries whose tick shares no 2^36-aligned prefix with `cur` yet.
    overflow: BinaryHeap<OverflowEntry<T>>,
    /// Wheel cursor in ticks: every entry still in the levels has
    /// `tick >= cur` and shares `cur`'s bits above its level.
    cur: u64,
    next_seq: u64,
    /// Entries across ready + levels + overflow.
    len: usize,
    /// Entries currently in the levels (fast empty check for `advance`).
    wheel_len: usize,
    /// Reused buffer for cascading a higher-level slot.
    cascade_scratch: Vec<Entry<T>>,
    /// Batch entries stepped over (moved by `Vec::insert`) by schedules
    /// below the cursor since the last
    /// [`TimerWheel::take_late_scan_steps`].
    late_scan_steps: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            ready: Vec::new(),
            levels: std::array::from_fn(|_| Level::new()),
            overflow: BinaryHeap::new(),
            cur: 0,
            next_seq: 0,
            len: 0,
            wheel_len: 0,
            cascade_scratch: Vec::new(),
            late_scan_steps: 0,
        }
    }

    /// Pre-sizes queue storage for a steady state of roughly `events`
    /// outstanding entries: the ready batch gets the full hint and each
    /// level-0 slot a proportional share, so a run whose population is
    /// known up front (the hierarchy generator knows its host count)
    /// never reallocates queue storage after warmup.
    pub fn reserve(&mut self, events: usize) {
        self.ready.reserve(events);
        let per_slot = (events / SLOTS).clamp(1, RELEASE_ENTRIES);
        for slot in &mut self.levels[0].slots {
            slot.reserve(per_slot);
        }
    }

    /// Number of scheduled entries (including any a [`TimerWheel::peek`]
    /// has already staged in the ready batch).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap the wheel holds: the capacity, used or not, of the
    /// ready batch, every bucket, the cascade scratch and the overflow
    /// heap.
    pub fn heap_bytes(&self) -> usize {
        let slots = self.levels.iter().flat_map(|l| &l.slots).map(Vec::capacity).sum::<usize>();
        let entries = self.ready.capacity()
            + slots
            + self.cascade_scratch.capacity()
            + self.overflow.capacity();
        entries * std::mem::size_of::<Entry<T>>()
    }

    /// The sequence number the next [`TimerWheel::schedule`] will assign.
    /// Callers use this as a watermark: every entry currently in the
    /// wheel has a strictly smaller sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Batch entries stepped over by below-cursor schedules since the
    /// last call: each such schedule shifts every staged entry due before
    /// it. Stays near zero while callers keep to the cursor discipline
    /// (see the module docs); the world surfaces it as the
    /// `sim.sched.late_scan_steps` counter.
    pub fn take_late_scan_steps(&mut self) -> u64 {
        std::mem::take(&mut self.late_scan_steps)
    }

    /// Schedules `value` at `at`, returning the assigned sequence number.
    /// Entries at equal times pop in schedule order.
    pub fn schedule(&mut self, at: SimTime, value: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { at: at.as_nanos(), seq, value };
        let tick = entry.at >> TICK_SHIFT;
        if tick < self.cur {
            // The entry lands inside the window already drained into the
            // ready batch: merge it at its ordered position (the batch is
            // sorted descending, next pop at the back). The insert shifts
            // every staged entry due before the new one. Behind a bounded
            // `pop_due` those are only same-instant events a handler is
            // still working through; below a batch an unbounded peek or
            // pop staged early it is the whole batch, each time.
            let key = (entry.at, entry.seq);
            let i = self.ready.partition_point(|e| (e.at, e.seq) > key);
            self.late_scan_steps += (self.ready.len() - i) as u64;
            self.ready.insert(i, entry);
        } else {
            self.insert_wheel(entry, tick);
        }
        seq
    }

    /// Time and sequence of the next entry to pop, staging its batch
    /// however far ahead it is (the cursor moves past it).
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.peek_entry().map(|(at, seq, _)| (at, seq))
    }

    /// Time, sequence and payload of the next entry to pop.
    pub fn peek_entry(&mut self) -> Option<(SimTime, u64, &T)> {
        if self.ready.is_empty() {
            self.advance(u64::MAX);
        }
        self.ready.last().map(|e| (SimTime::from_nanos(e.at), e.seq, &e.value))
    }

    /// Removes and returns the earliest `(time, seq)` entry, however far
    /// ahead it is.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_due(SimTime::MAX)
    }

    /// Removes and returns the earliest entry only if it is due at or
    /// before `t` — the fused peek/pop the simulator's bounded run loop
    /// performs once per event. Looks no further than `t`: a slot that
    /// expires after `t`'s tick is left where it is, cursor included, so
    /// whatever the caller schedules next at or after `t` is a slot push.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, u64, T)> {
        if self.ready.is_empty() {
            self.advance(t.as_nanos() >> TICK_SHIFT);
        }
        if self.ready.last()?.at > t.as_nanos() {
            return None;
        }
        let e = self.ready.pop().expect("peeked above");
        self.len -= 1;
        Some((SimTime::from_nanos(e.at), e.seq, e.value))
    }

    /// Places `entry` (with `tick >= self.cur`) into a level slot or the
    /// overflow heap.
    fn insert_wheel(&mut self, entry: Entry<T>, tick: u64) {
        debug_assert!(tick >= self.cur);
        // Hashed-wheel level assignment: the level is determined by the
        // highest bit in which the deadline tick differs from the
        // cursor. A tick agreeing with the cursor above bit 36 is within
        // the wheel span; anything else overflows (note `tick - cur <
        // SPAN` is *not* sufficient — the prefix must match, or cascades
        // from the top level would skip it).
        let diff = tick ^ self.cur;
        if diff >= SPAN_TICKS {
            self.overflow.push(OverflowEntry(entry));
            return;
        }
        let level = if diff == 0 { 0 } else { ((63 - diff.leading_zeros()) / SLOT_BITS) as usize };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].slots[slot].push(entry);
        self.levels[level].occupied |= 1 << slot;
        self.wheel_len += 1;
    }

    /// Advances the cursor to the next occupied level-0 slot and drains
    /// it into the ready batch, cascading higher-level slots and
    /// migrating overflow entries along the way — but only through slots
    /// that expire at or before tick `limit`, so the cursor ends at most
    /// one tick past it. Leaves `ready` sorted descending by `(at, seq)`.
    /// No-op when nothing is scheduled at or before `limit`.
    fn advance(&mut self, limit: u64) {
        debug_assert!(self.ready.is_empty());
        loop {
            // Overflow entries whose tick now shares the cursor's
            // 2^36-aligned prefix belong in the wheel. Deadline order is
            // monotone in the prefix, so only the heap top needs
            // checking.
            while let Some(top) = self.overflow.peek() {
                let tick = top.0.at >> TICK_SHIFT;
                if (tick >> (SLOT_BITS * LEVELS as u32))
                    != (self.cur >> (SLOT_BITS * LEVELS as u32))
                {
                    break;
                }
                let OverflowEntry(entry) = self.overflow.pop().expect("peeked");
                self.insert_wheel(entry, tick);
            }
            if self.wheel_len == 0 {
                match self.overflow.peek() {
                    // Jump the cursor to the overflow's earliest tick so
                    // the migration above picks its prefix up next loop.
                    Some(top) if top.0.at >> TICK_SHIFT <= limit => {
                        self.cur = top.0.at >> TICK_SHIFT;
                        continue;
                    }
                    _ => return,
                }
            }
            // The earliest occupied slot across levels. Within a level
            // every occupied slot is at an index >= the cursor's index
            // (lower indices would be in the past), so the next one is a
            // masked trailing_zeros. On an expiry tie the *highest* level
            // wins (`<=` below): a level-0 slot and a higher-level slot
            // can start at the same tick, and the higher slot may hold an
            // earlier-scheduled event for that exact tick — cascading it
            // first merges both into one sorted level-0 batch, while
            // collecting level 0 first would pop the later event early.
            let mut best: Option<(usize, usize, u64)> = None;
            for level in 0..LEVELS {
                let occ = self.levels[level].occupied;
                if occ == 0 {
                    continue;
                }
                let shift = SLOT_BITS * level as u32;
                let ix = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
                let bits = occ & (!0u64 << ix);
                debug_assert!(bits != 0, "occupied slot behind the cursor at level {level}");
                let slot = bits.trailing_zeros() as usize;
                let high_mask = !((1u64 << (shift + SLOT_BITS)) - 1);
                let expiry = (self.cur & high_mask) | ((slot as u64) << shift);
                if best.is_none_or(|(_, _, e)| expiry <= e) {
                    best = Some((level, slot, expiry));
                }
            }
            let Some((level, slot, expiry)) = best else {
                debug_assert_eq!(self.wheel_len, 0);
                continue;
            };
            if expiry > limit {
                return;
            }
            if level == 0 {
                // A level-0 slot holds exactly one tick's entries: drain,
                // sort descending by (at, seq) — sub-tick times and
                // sequence ties — and hand the batch to the popper (next
                // pop at the back). Slot pushes arrive in ascending seq
                // and usually ascending time, so the batch is typically
                // already sorted once reversed; check before paying for
                // a sort.
                let bucket = &mut self.levels[0].slots[slot];
                self.wheel_len -= bucket.len();
                self.ready.extend(bucket.drain(..).rev());
                release_burst_buffer(bucket);
                self.levels[0].occupied &= !(1 << slot);
                self.cur = expiry + 1;
                let sorted =
                    self.ready.windows(2).all(|w| (w[0].at, w[0].seq) >= (w[1].at, w[1].seq));
                if !sorted {
                    self.ready.sort_unstable_by_key(|e| core::cmp::Reverse((e.at, e.seq)));
                }
                return;
            }
            // Cascade: the cursor has reached a higher-level slot; move
            // its entries down (each lands at a strictly lower level
            // relative to the new cursor). The scratch swap keeps the
            // slot's capacity for its next rotation, unless a burst grew
            // it past the release size.
            let mut scratch = std::mem::take(&mut self.cascade_scratch);
            std::mem::swap(&mut scratch, &mut self.levels[level].slots[slot]);
            self.levels[level].occupied &= !(1 << slot);
            self.wheel_len -= scratch.len();
            self.cur = expiry;
            for entry in scratch.drain(..) {
                let tick = entry.at >> TICK_SHIFT;
                self.insert_wheel(entry, tick);
            }
            release_burst_buffer(&mut scratch);
            std::mem::swap(&mut scratch, &mut self.levels[level].slots[slot]);
            self.cascade_scratch = scratch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop()).map(|(at, seq, _)| (at.as_nanos(), seq)).collect()
    }

    /// Capacity of every level bucket, then of the cascade scratch.
    fn bucket_capacities<T>(w: &TimerWheel<T>) -> Vec<usize> {
        let slots = w.levels.iter().flat_map(|l| l.slots.iter().map(Vec::capacity));
        slots.chain([w.cascade_scratch.capacity()]).collect()
    }

    #[test]
    fn burst_buffers_are_released_and_steady_state_ones_kept() {
        let seeded: usize = bucket_capacities(&TimerWheel::<u64>::new()).iter().sum();

        // A 20k-entry burst due within one tick, a second ahead: it sits
        // in one level-2 slot, cascades through one level-1 slot and
        // drains from one level-0 slot — three buffers of 32k entries,
        // each well past the release size.
        const BURST: u64 = 20_000;
        let mut w = TimerWheel::new();
        let due = 122_070u64 << TICK_SHIFT;
        for i in 0..BURST {
            w.schedule(SimTime::from_nanos(due + i % 8_000), i);
        }
        assert!(bucket_capacities(&w).iter().any(|&c| c >= BURST as usize));
        let mut popped = 0;
        let mut last = (0, 0);
        while let Some((at, seq, _)) = w.pop_due(SimTime::from_secs(2)) {
            assert!((at.as_nanos(), seq) > last || popped == 0, "pop order broke");
            last = (at.as_nanos(), seq);
            popped += 1;
        }
        assert_eq!(popped, BURST);
        // Once it has drained, everything the burst grew is handed back:
        // what the buckets retain in total is less than the one buffer a
        // bucket may keep.
        let retained: usize = bucket_capacities(&w).iter().sum();
        assert!(
            retained <= seeded + RELEASE_ENTRIES,
            "{retained} entries of bucket capacity retained after a drained burst"
        );

        // A 1k-entry steady state — pop one, schedule one up to ~4 ms
        // ahead, so the population rotates through levels 0 to 2 — keeps
        // every buffer it grew: the rule never fires, so no bucket is
        // smaller after 400k more operations (`tests/alloc_free.rs` holds
        // the strict zero-allocation half on a periodic load).
        let mut w = TimerWheel::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut step = |w: &mut TimerWheel<u64>, now: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w.schedule(SimTime::from_nanos(now + 1 + x % 4_000_000), x);
        };
        for _ in 0..1_000 {
            step(&mut w, 0);
        }
        let mut run = |w: &mut TimerWheel<u64>, ops: usize| {
            for _ in 0..ops {
                let (at, _, _) = w.pop().expect("population is constant");
                step(w, at.as_nanos());
            }
        };
        run(&mut w, 400_000);
        let warm = bucket_capacities(&w);
        run(&mut w, 400_000);
        let after = bucket_capacities(&w);
        assert!(after.iter().zip(&warm).all(|(a, b)| a >= b), "a steady-state bucket was released");
        assert!(after.iter().all(|&c| c <= RELEASE_ENTRIES));
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_millis(5), 5);
        w.schedule(SimTime::from_millis(1), 1);
        w.schedule(SimTime::from_millis(3), 3);
        w.schedule(SimTime::from_millis(1), 11);
        let order: Vec<u64> = drain(&mut w).iter().map(|&(at, _)| at).collect();
        assert_eq!(order, vec![1_000_000, 1_000_000, 3_000_000, 5_000_000]);
    }

    #[test]
    fn same_tick_sub_tick_times_sort() {
        // Distinct nanosecond times inside one 8.192 µs tick must pop in
        // time order, not insertion order.
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_nanos(700), 0);
        w.schedule(SimTime::from_nanos(100), 1);
        w.schedule(SimTime::from_nanos(400), 2);
        let order: Vec<u64> = drain(&mut w).iter().map(|&(at, _)| at).collect();
        assert_eq!(order, vec![100, 400, 700]);
    }

    #[test]
    fn push_below_staged_batch_merges_in_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_millis(5), 0);
        // Staging the 5 ms batch advances the cursor past 5 ms...
        assert_eq!(w.peek(), Some((SimTime::from_millis(5), 0)));
        // ...but a later push at 2 ms must still pop first.
        w.schedule(SimTime::from_millis(2), 1);
        let order: Vec<u64> = drain(&mut w).iter().map(|&(at, _)| at).collect();
        assert_eq!(order, vec![2_000_000, 5_000_000]);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w = TimerWheel::new();
        let span_ns = SPAN_TICKS << TICK_SHIFT;
        // One entry either side of the overflow boundary, one at the
        // boundary itself, and one effectively at infinity.
        w.schedule(SimTime::from_nanos(span_ns - 1), 0);
        w.schedule(SimTime::from_nanos(span_ns), 1);
        w.schedule(SimTime::from_nanos(span_ns + 1), 2);
        w.schedule(SimTime::from_nanos(u64::MAX), 3);
        w.schedule(SimTime::from_nanos(1), 4);
        let order: Vec<u64> = drain(&mut w).iter().map(|&(at, _)| at).collect();
        assert_eq!(order, vec![1, span_ns - 1, span_ns, span_ns + 1, u64::MAX]);
    }

    #[test]
    fn cross_prefix_neighbors_stay_ordered() {
        // Ticks straddling a 2^36-tick prefix boundary differ in a high
        // bit even when numerically adjacent; the overflow path must
        // keep them ordered.
        let boundary = SPAN_TICKS << TICK_SHIFT;
        let mut w = TimerWheel::new();
        for (i, at) in
            [boundary - (1 << TICK_SHIFT), boundary + (1 << TICK_SHIFT)].iter().enumerate()
        {
            w.schedule(SimTime::from_nanos(*at), i as u32);
        }
        let order: Vec<u64> = drain(&mut w).iter().map(|&(at, _)| at).collect();
        assert!(order.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn len_tracks_schedule_and_pop() {
        let mut w = TimerWheel::new();
        assert!(w.is_empty());
        w.schedule(SimTime::from_millis(1), 0);
        w.schedule(SimTime::from_secs(100_000), 1); // overflow level
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.is_empty());
        assert!(w.pop().is_none());
    }

    #[test]
    fn reserve_is_observable_only_as_capacity() {
        let mut w = TimerWheel::new();
        w.reserve(1024);
        w.schedule(SimTime::from_millis(1), 7);
        assert_eq!(w.pop().map(|(_, _, v)| v), Some(7));
    }

    #[test]
    fn expiry_tie_cascades_before_collecting() {
        // A sits at tick 64 in level 1 while the cursor is at 0. Popping
        // the filler at tick 63 moves the cursor to 64; B then lands at
        // the same tick in level 0. Both slots now expire at tick 64 —
        // the cascade must run first so A (earlier seq) pops before B.
        let tick = |t: u64| SimTime::from_nanos(t << TICK_SHIFT);
        let mut w = TimerWheel::new();
        let a = w.schedule(tick(64), 'a');
        w.schedule(tick(63), 'f');
        assert_eq!(w.pop().map(|(_, _, v)| v), Some('f'));
        let b = w.schedule(tick(64), 'b');
        assert!(a < b);
        let order: Vec<char> = std::iter::from_fn(|| w.pop()).map(|(_, _, v)| v).collect();
        assert_eq!(order, vec!['a', 'b']);
    }

    #[test]
    fn schedule_after_an_empty_pop_due_is_a_slot_push() {
        // A far timer is pending, the caller runs to `t` across an idle
        // gap and then schedules a same-instant burst at t + δ. None of
        // it may merge into a staged batch, whichever level δ lands on.
        let tick = |t: u64| SimTime::from_nanos(t << TICK_SHIFT);
        for delta in [0, 1, 61] {
            let mut w = TimerWheel::new();
            w.schedule(tick(3), 0);
            w.schedule(tick(70_000), 1);
            let t = 9_000; // past level-1 and level-2 slot boundaries
            assert_eq!(w.pop_due(tick(t)).map(|(_, _, v)| v), Some(0));
            assert!(w.pop_due(tick(t)).is_none());
            for i in 0..50 {
                w.schedule(tick(t + delta), 10 + i);
            }
            assert_eq!(w.take_late_scan_steps(), 0, "delta {delta} ticks");
            let order: Vec<u32> = std::iter::from_fn(|| w.pop()).map(|(_, _, v)| v).collect();
            assert_eq!(order, (10..60).chain([1]).collect::<Vec<_>>());
        }
    }

    #[test]
    fn schedule_below_an_unbounded_peek_counts_its_steps() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_millis(5), 0);
        w.peek(); // stages the 5 ms batch: the cursor is now past it
        for i in 0..4 {
            w.schedule(SimTime::from_millis(2), 1 + i);
        }
        // Each same-instant push lands behind the ones before it.
        assert_eq!(w.take_late_scan_steps(), 1 + 2 + 3);
        assert_eq!(w.take_late_scan_steps(), 0, "take drains the counter");
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// One step of the adversarial interleaving exercised by
        /// `matches_reference_model_under_interleaving`.
        #[derive(Debug, Clone)]
        enum Op {
            /// Schedule at an absolute time from the adversarial pool
            /// (possibly far behind the clock).
            Schedule(usize),
            /// Schedule a same-instant burst of `n` at clock + `DELTAS[d]`
            /// — what a run loop's caller does right after `pop_due`
            /// came back empty.
            Burst { d: usize, n: usize },
            /// Pop once and compare against the reference.
            Pop,
            /// Peek (stages a batch and moves the cursor past it) — must
            /// not change what subsequently pops.
            Peek,
            /// Move the clock on by `GAPS[g]` and pop at most `max`
            /// entries due by then, each compared against the reference;
            /// a `None` must mean the reference has nothing due either.
            PopDue { g: usize, max: usize },
        }

        /// Idle gaps in ticks: none, sub-slot, and across level-1 (64),
        /// level-2 (4 096) and level-3 (262 144) slot boundaries.
        const GAPS: [u64; 8] = [0, 1, 63, 64, 65, 4_096, 4_097 + 64, 262_144 + 5];
        /// Offsets from the clock in nanoseconds: the same instant, the
        /// same tick, and 1, 61 and 64 ticks and a level-2 slot ahead.
        const DELTAS: [u64; 6] =
            [0, 1, 1 << TICK_SHIFT, 61 << TICK_SHIFT, 64 << TICK_SHIFT, 4_100 << TICK_SHIFT];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn matches_reference_model_under_interleaving(
                // Arms are repeated to weight the uniform choice towards
                // schedules (a full wheel exercises more paths) and
                // bounded pops (the run loops' only access).
                ops in prop::collection::vec(
                    prop_oneof![
                        (0usize..12).prop_map(Op::Schedule),
                        (0usize..12).prop_map(Op::Schedule),
                        (0usize..DELTAS.len(), 1usize..6).prop_map(|(d, n)| Op::Burst { d, n }),
                        (0usize..DELTAS.len(), 1usize..6).prop_map(|(d, n)| Op::Burst { d, n }),
                        Just(Op::Pop),
                        Just(Op::Peek),
                        (0usize..GAPS.len(), 0usize..8).prop_map(|(g, max)| Op::PopDue { g, max }),
                        (0usize..GAPS.len(), 0usize..8).prop_map(|(g, max)| Op::PopDue { g, max }),
                        (0usize..GAPS.len(), 0usize..8).prop_map(|(g, max)| Op::PopDue { g, max }),
                    ],
                    1..160,
                ),
            ) {
                // Times straddling every interesting boundary: sub-tick
                // neighbors, slot/level boundaries, the overflow span,
                // and the u64 ceiling.
                let span_ns = SPAN_TICKS << TICK_SHIFT;
                let pool: [u64; 12] = [
                    0, 1, 1023, 1024, 1025,
                    64 << TICK_SHIFT,
                    (SLOTS as u64).pow(3) << TICK_SHIFT,
                    span_ns - 1, span_ns, span_ns + 1,
                    2 * span_ns + 7,
                    u64::MAX,
                ];
                let mut wheel: TimerWheel<()> = TimerWheel::new();
                // Reference: the `BinaryHeap` over `(at, seq)` the wheel
                // replaced.
                let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
                let mut clock = 0u64;
                for op in ops {
                    match op {
                        Op::Schedule(i) => {
                            let seq = wheel.schedule(SimTime::from_nanos(pool[i]), ());
                            model.push(Reverse((pool[i], seq)));
                        }
                        Op::Burst { d, n } => {
                            let at = clock.saturating_add(DELTAS[d]);
                            for _ in 0..n {
                                let seq = wheel.schedule(SimTime::from_nanos(at), ());
                                model.push(Reverse((at, seq)));
                            }
                        }
                        Op::Pop => {
                            let got = wheel.pop().map(|(at, seq, ())| (at.as_nanos(), seq));
                            prop_assert_eq!(got, model.pop().map(|Reverse(e)| e));
                        }
                        Op::Peek => {
                            let got = wheel.peek().map(|(at, seq)| (at.as_nanos(), seq));
                            prop_assert_eq!(got, model.peek().map(|&Reverse(e)| e));
                        }
                        Op::PopDue { g, max } => {
                            clock = clock.saturating_add(GAPS[g] << TICK_SHIFT);
                            for _ in 0..max {
                                let got = wheel
                                    .pop_due(SimTime::from_nanos(clock))
                                    .map(|(at, seq, ())| (at.as_nanos(), seq));
                                let due = model.peek().is_some_and(|&Reverse((at, _))| at <= clock);
                                let want = if due { model.pop().map(|Reverse(e)| e) } else { None };
                                prop_assert_eq!(got, want);
                                if got.is_none() {
                                    break;
                                }
                            }
                        }
                    }
                    prop_assert_eq!(wheel.len(), model.len());
                }
                // Drain: the full remaining pop order must match.
                let rest: Vec<(u64, u64)> = std::iter::from_fn(|| wheel.pop())
                    .map(|(at, seq, ())| (at.as_nanos(), seq))
                    .collect();
                prop_assert_eq!(rest, model.into_sorted_vec().into_iter().rev().map(|Reverse(e)| e).collect::<Vec<_>>());
                prop_assert!(wheel.is_empty());
            }
        }
    }
}
