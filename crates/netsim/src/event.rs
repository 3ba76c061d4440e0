//! The per-world event queue: a total order over `(time, sequence)`.
//! A classic [`crate::World`] owns exactly one; a sharded run
//! ([`crate::ShardedWorld`]) owns one per shard, synchronized only at
//! conservative barrier windows, so nothing here is global state.
//!
//! Since the raw-speed scheduler rewrite this is a thin policy layer over
//! [`crate::sched::TimerWheel`]: the wheel provides the ordered store
//! (O(1) schedule, near-O(1) fire), while this module adds the simulator
//! event vocabulary (`EventKind`) and lazy timer cancellation.
//!
//! # Cancellation
//!
//! Timers are cancelled by *watermark*, not by search: cancelling
//! `(node, token)` records the wheel's next sequence number, and any
//! `Timer` event for that pair with a smaller sequence number is silently
//! discarded when it reaches the head of the queue. Cancellation is O(1),
//! never perturbs the order of surviving events, and a timer re-armed
//! *after* the cancel (larger sequence number) is unaffected. Cancelled
//! events keep occupying queue slots until their deadline passes, so
//! `EventQueue::len` may overcount by the number of pending corpses;
//! the world surfaces the discard count as the `sim.timers_cancelled`
//! counter. A bounded `EventQueue::pop_due(t)` discards only corpses
//! due at or before `t` — it never looks past `t`, which is what keeps
//! the wheel's cursor behind the clock (see [`crate::sched`]) — so one
//! due later is counted when a later run reaches it, not early.

use std::collections::HashMap;

use crate::faults::Scheduled;
use crate::frame::Frame;
use crate::id::{IfaceId, NodeId, SegmentId};
use crate::node::TimerToken;
use crate::sched::TimerWheel;
use crate::time::SimTime;
use crate::world::NodeScript;

/// One frame on the wire: what every queue entry of a transmission
/// shares. A jittered broadcast to 50 receivers is one record and 50
/// plain [`EventKind::Rx`] entries; a zero-jitter broadcast is one record
/// and one [`EventKind::RxBatch`] entry that lists its receivers here.
/// `segment` records where the frame was transmitted so delivery can be
/// suppressed if a receiver's interface has moved away in the meantime.
pub(crate) struct Transmission {
    pub segment: SegmentId,
    /// `None` while the record is free, and while the world has the frame
    /// out for one delivery (it goes back unless that was the last).
    pub frame: Option<Frame>,
    /// Batch only: every surviving receiver, in attachment order. The
    /// world only batches when per-receiver delivery times are identical
    /// and this order matches what per-receiver entries would have
    /// produced, so processing order is unchanged. The list leaves with
    /// the batch: a freed record holds no buffer, so a burst of region-LAN
    /// broadcasts leaves no receiver lists behind once it has drained.
    pub receivers: Vec<(NodeId, IfaceId)>,
    /// Queue entries that still name this record.
    pub pending: u32,
}

/// The slab of [`Transmission`] records, indexed by the `tx` of the
/// queue entries. A record is freed by the pop that delivers its last
/// copy, dropping its frame (and with it the payload reference) there
/// and then (and a batch's receiver list with it); freed records are
/// reused last-out-first-in, so steady state allocates no records and
/// touches a few warm ones.
#[derive(Default)]
pub(crate) struct Transmissions {
    records: Vec<Transmission>,
    free: Vec<u32>,
}

impl Transmissions {
    /// Claims a record for a transmission on `segment`: no frame yet, no
    /// queue entries. Follow with [`Transmissions::arm`] once the entries
    /// are pushed, or [`Transmissions::release`] if none were.
    pub fn alloc(&mut self, segment: SegmentId) -> u32 {
        if let Some(tx) = self.free.pop() {
            self.records[tx as usize].segment = segment;
            return tx;
        }
        let tx = u32::try_from(self.records.len()).expect("over 2^32 frames in flight");
        self.records.push(Transmission { segment, frame: None, receivers: Vec::new(), pending: 0 });
        tx
    }

    /// Hands `frame` to record `tx`, which `pending` queue entries name.
    pub fn arm(&mut self, tx: u32, frame: Frame, pending: u32) {
        let t = &mut self.records[tx as usize];
        t.frame = Some(frame);
        t.pending = pending;
    }

    /// Returns record `tx` to the free list: its last copy's frame has
    /// been taken out for delivery (or it was never armed), and a batch's
    /// receiver list with it, so nothing is left in it at all.
    pub fn release(&mut self, tx: u32) {
        let t = &self.records[tx as usize];
        debug_assert!(
            t.frame.is_none() && t.receivers.capacity() == 0,
            "released record still holds a frame or a receiver list"
        );
        self.free.push(tx);
    }

    /// Records currently in flight (claimed and not yet released).
    pub fn live(&self) -> usize {
        self.records.len() - self.free.len()
    }

    /// Bytes of heap the slab holds (records, free list, the receiver
    /// lists of batches; not the frames' payloads).
    pub fn heap_bytes(&self) -> usize {
        let lists = self.records.iter().map(|t| t.receivers.capacity()).sum::<usize>();
        self.records.capacity() * std::mem::size_of::<Transmission>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + lists * std::mem::size_of::<(NodeId, IfaceId)>()
    }
}

impl std::ops::Index<u32> for Transmissions {
    type Output = Transmission;
    fn index(&self, tx: u32) -> &Transmission {
        &self.records[tx as usize]
    }
}

impl std::ops::IndexMut<u32> for Transmissions {
    fn index_mut(&mut self, tx: u32) -> &mut Transmission {
        &mut self.records[tx as usize]
    }
}

/// What happens when an event fires.
///
/// Every queue entry is copied several times on its way through the
/// timer wheel (slot push, cascade, drain, pop), and a storm's backlog is
/// millions of them, so the enum is kept to 16 bytes: a frame arrival
/// carries indices, not the frame, which lives once in the world's
/// [`Transmissions`] slab however many receivers it has, and every node
/// id is narrowed to `u32` (`World::add_node` checks it fits). Scripted
/// ops and node scripts are rare enough to pay a real allocation.
pub(crate) enum EventKind {
    /// One receiver's copy of transmission `tx` arrives at `iface` of
    /// `node` (ids narrowed to `u32`; the world checks they fit).
    Rx { tx: u32, node: u32, iface: u32 },
    /// Transmission `tx` arrives at every receiver its record lists, at
    /// the same instant: one queue entry, one pop, `receivers.len()`
    /// deliveries in the recorded order.
    RxBatch { tx: u32 },
    /// A timer of `node` fires (build it with [`EventKind::timer`]).
    Timer { node: u32, token: TimerToken },
    /// A scheduled world change applies (see `World::schedule`).
    Op(Box<Scheduled>),
    /// A node-scoped script runs (see `World::schedule_script`).
    Script(Box<(NodeId, NodeScript)>),
    /// Periodic queue-depth sample (see `World::set_queue_sampling`).
    SampleQueue,
}

const _: () = assert!(std::mem::size_of::<EventKind>() <= 16);

impl EventKind {
    /// The timer event for `(node, token)`.
    pub fn timer(node: NodeId, token: TimerToken) -> EventKind {
        debug_assert!(u32::try_from(node.0).is_ok());
        EventKind::Timer { node: node.0 as u32, token }
    }
}

pub(crate) struct ScheduledEvent {
    pub at: SimTime,
    #[cfg_attr(not(test), allow(dead_code))]
    pub seq: u64,
    pub kind: EventKind,
}

/// A deterministic min-queue of scheduled events.
#[derive(Default)]
pub(crate) struct EventQueue {
    wheel: TimerWheel<EventKind>,
    /// Cancellation watermarks: a `Timer { node, token }` event with
    /// `seq < cancelled[(node, token)]` is discarded at the queue head.
    cancelled: HashMap<(u32, TimerToken), u64>,
    /// Timer events discarded by cancellation since the last
    /// [`EventQueue::take_suppressed`].
    suppressed: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Pre-sizes queue storage for roughly `events` outstanding events.
    pub fn reserve(&mut self, events: usize) {
        self.wheel.reserve(events);
    }

    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        self.wheel.schedule(at, kind);
    }

    /// Cancels every currently-pending timer event for `(node, token)`.
    /// Timers armed after this call fire normally.
    pub fn cancel_timer(&mut self, node: NodeId, token: TimerToken) {
        debug_assert!(u32::try_from(node.0).is_ok());
        self.cancelled.insert((node.0 as u32, token), self.wheel.next_seq());
    }

    /// Whether the entry `(seq, kind)` is a timer event cancelled after
    /// it was armed.
    fn is_cancelled(
        cancelled: &HashMap<(u32, TimerToken), u64>,
        seq: u64,
        kind: &EventKind,
    ) -> bool {
        let EventKind::Timer { node, token } = *kind else { return false };
        // The emptiness test keeps worlds that never cancel from hashing
        // a key per timer event.
        !cancelled.is_empty() && cancelled.get(&(node, token)).is_some_and(|&mark| seq < mark)
    }

    /// Discards cancelled timer events sitting at the queue head, so that
    /// [`EventQueue::peek_time`] only ever reports a live event (a corpse
    /// there would wake a [`crate::NodeHarness`] driver for nothing).
    /// Unbounded: stages whatever batch comes next.
    fn skim_cancelled(&mut self) {
        while let Some((_, seq, kind)) = self.wheel.peek_entry() {
            if !Self::is_cancelled(&self.cancelled, seq, kind) {
                break;
            }
            self.wheel.pop();
            self.suppressed += 1;
        }
    }

    /// Timer events discarded by cancellation since the last call (the
    /// world drains this into the `sim.timers_cancelled` counter).
    pub fn take_suppressed(&mut self) -> u64 {
        std::mem::take(&mut self.suppressed)
    }

    /// Batch entries stepped over by below-cursor schedules since the
    /// last call (the world drains this into the
    /// `sim.sched.late_scan_steps` counter).
    pub fn take_late_scan_steps(&mut self) -> u64 {
        self.wheel.take_late_scan_steps()
    }

    /// Time of the next live event (drives [`crate::NodeHarness`]'s
    /// wake-up deadline; the world's run loop uses the fused
    /// [`EventQueue::pop_due`] instead).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skim_cancelled();
        self.wheel.peek().map(|(at, _)| at)
    }

    /// Pops the next live event however far ahead it is (single-stepping).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        self.pop_due(SimTime::MAX)
    }

    /// Pops the next live event only if it is due at or before `t`: the
    /// one head access per event of `World::run_until`. Cancelled timers
    /// due by `t` are discarded on the way; nothing past `t` is touched.
    pub fn pop_due(&mut self, t: SimTime) -> Option<ScheduledEvent> {
        loop {
            let (at, seq, kind) = self.wheel.pop_due(t)?;
            if Self::is_cancelled(&self.cancelled, seq, &kind) {
                self.suppressed += 1;
                continue;
            }
            return Some(ScheduledEvent { at, seq, kind });
        }
    }

    /// Pending events, *including* cancelled timers that have not yet
    /// reached the head of the queue.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Bytes of heap the queue holds, used or not.
    pub fn heap_bytes(&self) -> usize {
        self.wheel.heap_bytes()
            + self.cancelled.capacity() * std::mem::size_of::<((u32, TimerToken), u64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::timer(NodeId(node), TimerToken(token))
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), timer(0, 5));
        q.push(SimTime::from_millis(1), timer(0, 1));
        q.push(SimTime::from_millis(3), timer(0, 3));
        assert_eq!(drain_tokens(&mut q), vec![1, 3, 5]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10 {
            q.push(t, timer(0, i));
        }
        assert_eq!(drain_tokens(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_millis(2), timer(0, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_discards_pending_but_not_rearmed_timers() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), timer(0, 7));
        q.push(SimTime::from_millis(2), timer(0, 7));
        q.push(SimTime::from_millis(3), timer(1, 7)); // other node, same token
        q.cancel_timer(NodeId(0), TimerToken(7));
        // Re-armed after the cancel: must survive.
        q.push(SimTime::from_millis(4), timer(0, 7));
        let popped: Vec<(u64, usize)> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { node, token } => (token.0, node as usize),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(popped, vec![(7, 1), (7, 0)]);
        assert_eq!(q.take_suppressed(), 2);
        assert_eq!(q.take_suppressed(), 0, "take drains the counter");
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), timer(0, 1));
        q.push(SimTime::from_millis(5), timer(0, 2));
        q.cancel_timer(NodeId(0), TimerToken(1));
        // The cancelled corpse at 1ms must not be reported as the next
        // event time (run_until would process past its bound otherwise).
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(drain_tokens(&mut q), vec![2]);
    }

    #[test]
    fn cancelled_timer_past_the_bound_is_suppressed_once_when_due() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), timer(0, 1));
        q.push(SimTime::from_millis(50), timer(0, 2));
        q.push(SimTime::from_millis(60), timer(0, 3));
        q.cancel_timer(NodeId(0), TimerToken(2));
        // A bounded pop looks no further than its bound: the corpse at
        // 50 ms is neither counted nor staged by running to 10 ms...
        assert_eq!(
            q.pop_due(SimTime::from_millis(10)).map(|e| e.at),
            Some(SimTime::from_millis(1))
        );
        assert!(q.pop_due(SimTime::from_millis(10)).is_none());
        assert_eq!(q.take_suppressed(), 0);
        assert_eq!(q.len(), 2);
        // ...so a burst scheduled now goes into the wheel, not under it.
        for _ in 0..10 {
            q.push(SimTime::from_millis(10), timer(1, 9));
        }
        assert_eq!(q.take_late_scan_steps(), 0);
        // When the clock reaches it the corpse is discarded, exactly once,
        // and the live timer behind it fires.
        let fired: Vec<u64> = std::iter::from_fn(|| q.pop_due(SimTime::from_millis(55)))
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(fired, vec![9; 10]);
        assert_eq!(q.take_suppressed(), 1);
        assert_eq!(drain_tokens(&mut q), vec![3]);
        assert_eq!(q.take_suppressed(), 0);
    }

    #[test]
    fn cancel_of_unknown_timer_is_a_noop() {
        let mut q = EventQueue::new();
        q.cancel_timer(NodeId(3), TimerToken(9));
        q.push(SimTime::from_millis(1), timer(3, 9));
        assert_eq!(drain_tokens(&mut q), vec![9]);
        assert_eq!(q.take_suppressed(), 0);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// The pre-rewrite queue, reconstructed as a reference model: a
        /// `BinaryHeap` over `Reverse<(at, seq)>` with the same watermark
        /// cancellation semantics layered on top.
        #[derive(Default)]
        struct HeapQueue {
            heap: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
            next_seq: u64,
            cancelled: HashMap<(usize, u64), u64>,
            suppressed: u64,
        }

        impl HeapQueue {
            fn push(&mut self, at: u64, node: usize, token: u64) {
                self.heap.push(Reverse((at, self.next_seq, node, token)));
                self.next_seq += 1;
            }
            fn cancel(&mut self, node: usize, token: u64) {
                self.cancelled.insert((node, token), self.next_seq);
            }
            fn pop(&mut self) -> Option<(u64, u64)> {
                self.pop_due(u64::MAX)
            }
            /// The next live event due by `t`; corpses due by `t` are
            /// discarded (and counted) on the way, later ones left alone.
            fn pop_due(&mut self, t: u64) -> Option<(u64, u64)> {
                while self.heap.peek().is_some_and(|&Reverse((at, ..))| at <= t) {
                    let Reverse((at, seq, node, token)) = self.heap.pop().expect("peeked");
                    match self.cancelled.get(&(node, token)) {
                        Some(&mark) if seq < mark => self.suppressed += 1,
                        _ => return Some((at, seq)),
                    }
                }
                None
            }
        }

        #[derive(Debug, Clone)]
        enum Op {
            Schedule {
                at_ix: usize,
                node: usize,
                token: u64,
            },
            Cancel {
                node: usize,
                token: u64,
            },
            Pop,
            /// Move the clock on by `GAPS_NS[gap_ix]`, then pop what is
            /// due by then, at most `max` events.
            PopDue {
                gap_ix: usize,
                max: usize,
            },
            /// Schedule a same-instant burst at the clock.
            Burst {
                n: usize,
                node: usize,
                token: u64,
            },
        }

        /// Idle gaps: none, sub-tick, and past level-0/1/2 slot
        /// boundaries of the wheel (8.192 µs ticks, 64 slots a level).
        const GAPS_NS: [u64; 6] = [0, 500, 10_000, 600_000, 40_000_000, 2_200_000_000];

        proptest! {
            /// The wheel-backed queue and the reference heap pop
            /// identical `(at, seq)` sequences, and count the same
            /// discards at every step, under adversarial
            /// schedule/cancel/pop interleavings — bounded pops across
            /// idle gaps and bursts at the clock included, and times at
            /// the far-future overflow boundary.
            #[test]
            fn wheel_queue_matches_reference_heap(
                // Arms are repeated to weight the uniform choice roughly
                // 4:2:2:3:1 schedule/cancel/pop/pop-due/burst, keeping
                // queues non-trivial.
                ops in prop::collection::vec(
                    prop_oneof![
                        (0usize..10, 0usize..3, 0u64..3)
                            .prop_map(|(at_ix, node, token)| Op::Schedule { at_ix, node, token }),
                        (0usize..10, 0usize..3, 0u64..3)
                            .prop_map(|(at_ix, node, token)| Op::Schedule { at_ix, node, token }),
                        (0usize..10, 0usize..3, 0u64..3)
                            .prop_map(|(at_ix, node, token)| Op::Schedule { at_ix, node, token }),
                        (0usize..10, 0usize..3, 0u64..3)
                            .prop_map(|(at_ix, node, token)| Op::Schedule { at_ix, node, token }),
                        (0usize..3, 0u64..3)
                            .prop_map(|(node, token)| Op::Cancel { node, token }),
                        (0usize..3, 0u64..3)
                            .prop_map(|(node, token)| Op::Cancel { node, token }),
                        Just(Op::Pop),
                        Just(Op::Pop),
                        (0usize..GAPS_NS.len(), 0usize..6)
                            .prop_map(|(gap_ix, max)| Op::PopDue { gap_ix, max }),
                        (0usize..GAPS_NS.len(), 0usize..6)
                            .prop_map(|(gap_ix, max)| Op::PopDue { gap_ix, max }),
                        (0usize..GAPS_NS.len(), 0usize..6)
                            .prop_map(|(gap_ix, max)| Op::PopDue { gap_ix, max }),
                        (1usize..5, 0usize..3, 0u64..3)
                            .prop_map(|(n, node, token)| Op::Burst { n, node, token }),
                    ],
                    1..150,
                ),
            ) {
                let span_ns = crate::sched::SPAN_TICKS << crate::sched::TICK_SHIFT;
                let pool: [u64; 10] = [
                    0, 1, 500, 1_000_000, 1_000_001,
                    span_ns - 1, span_ns, span_ns + 1,
                    3 * span_ns,
                    u64::MAX,
                ];
                let mut queue = EventQueue::new();
                let mut reference = HeapQueue::default();
                let mut clock = 0u64;
                let mut suppressed = 0u64;
                for op in ops {
                    match op {
                        Op::Schedule { at_ix, node, token } => {
                            let at = pool[at_ix];
                            queue.push(SimTime::from_nanos(at), timer(node, token));
                            reference.push(at, node, token);
                        }
                        Op::Cancel { node, token } => {
                            queue.cancel_timer(NodeId(node), TimerToken(token));
                            reference.cancel(node, token);
                        }
                        Op::Pop => {
                            let got = queue.pop().map(|e| (e.at.as_nanos(), e.seq));
                            prop_assert_eq!(got, reference.pop());
                        }
                        Op::PopDue { gap_ix, max } => {
                            clock += GAPS_NS[gap_ix];
                            for _ in 0..max {
                                let got = queue
                                    .pop_due(SimTime::from_nanos(clock))
                                    .map(|e| (e.at.as_nanos(), e.seq));
                                prop_assert_eq!(got, reference.pop_due(clock));
                                if got.is_none() {
                                    break;
                                }
                            }
                        }
                        Op::Burst { n, node, token } => {
                            for _ in 0..n {
                                queue.push(SimTime::from_nanos(clock), timer(node, token));
                                reference.push(clock, node, token);
                            }
                        }
                    }
                    // A corpse is counted when the pop that reaches it
                    // runs, never earlier and never twice.
                    suppressed += queue.take_suppressed();
                    prop_assert_eq!(suppressed, reference.suppressed);
                }
                loop {
                    let got = queue.pop().map(|e| (e.at.as_nanos(), e.seq));
                    let want = reference.pop();
                    prop_assert_eq!(got, want);
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
