//! Sans-io seam: the clock and frame-I/O surface a [`Node`] consumes,
//! factored out of [`crate::World`] so the same protocol state
//! machines run on *any* substrate — the deterministic simulator or a
//! live runtime pushing real datagrams (the `live` crate).
//!
//! The design exploits what was already true: every protocol handler in
//! this workspace touches the outside world only through [`Ctx`]. A
//! [`NodeHarness`] owns everything a `Ctx` borrows (event queue for
//! timers, RNG, stats, telemetry, tracer, interface table) for a *single*
//! node and reproduces `World`'s dispatch pipeline byte-for-byte at the
//! telemetry level: `FrameTx` on transmit, `FrameRx` on delivery,
//! `Timer` on fire, drop reasons for detached/bad interfaces. Frames
//! leave through the [`NodeIo`] trait instead of a simulated segment;
//! time enters through the caller (typically a [`Clock`]) instead of the
//! event queue. `World` itself implements [`Clock`], making the
//! simulator literally one implementation of the trait pair.
//!
//! # Clock-skew tolerance
//!
//! Real clocks jump. [`SimTime::since`](crate::time::SimTime::since)
//! panics on reversed arguments, and protocol code (e.g. the MHRP epoch
//! watchdog) computes `now.since(last_event)` freely — safe in the
//! simulator where time is monotone by construction. The harness extends
//! that guarantee to live time: every entry point clamps the supplied
//! time to the high-water mark of all times seen so far, so node-visible
//! time never moves backwards no matter what the wall clock does. A
//! backward jump freezes node time until the clock catches up; a forward
//! jump fires each due timer exactly once (the queue pops each entry
//! once, structurally ruling out double-fires).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{EventKind as QueueEventKind, EventQueue};
use crate::frame::Frame;
use crate::id::{IfaceId, MacAddr, NodeId};
use crate::node::{Action, Ctx, IfaceInfo, LinkEvent, Node};
use crate::stats::{metric, Stats};
use crate::time::SimTime;
use crate::trace::Tracer;
use crate::world::World;
#[cfg(feature = "telemetry")]
use telemetry::DropReason;
use telemetry::{EventLog, JourneyId};

/// A source of the current time, in simulator units.
///
/// The simulator's [`World`] implements this with its event-queue clock;
/// a live runtime implements it over a monotonic wall clock. Protocol
/// code never reads a clock directly — it sees time only via
/// [`Ctx::now`] — so this trait is consumed by *drivers* (the harness
/// caller), not by nodes.
pub trait Clock {
    /// The current time. Need not be monotone: [`NodeHarness`] clamps.
    fn now(&self) -> SimTime;
}

impl Clock for World {
    fn now(&self) -> SimTime {
        World::now(self)
    }
}

/// The frame-egress surface of a node: where frames go when a handler
/// calls [`Ctx::send_frame`] and the interface is attached.
///
/// The simulator's implementation is `World::transmit` (segment latency
/// model, loss draws, fan-out); a live runtime frames the bytes as a
/// datagram and writes it to a socket. By the time this is called the
/// harness has already recorded the `FrameTx` telemetry event and
/// link-layer send counters, so implementations only move bytes.
pub trait NodeIo {
    /// Transmits `frame` out of `iface` of `node`.
    fn transmit(&mut self, node: NodeId, iface: IfaceId, frame: Frame);
}

/// A [`NodeIo`] that drops every frame (useful for tests and for driving
/// pure-timer nodes).
#[derive(Debug, Default)]
pub struct NullIo;

impl NodeIo for NullIo {
    fn transmit(&mut self, _node: NodeId, _iface: IfaceId, _frame: Frame) {}
}

/// Runs one [`Node`] outside a [`World`]: the sans-io dispatch engine.
///
/// Owns the full per-node execution context — timer queue, RNG, stats,
/// structured telemetry, tracer, interface table — and reproduces the
/// simulator's dispatch pipeline for frames, timers, link events and
/// start-up. Frames leave through a caller-supplied [`NodeIo`]; time
/// comes in as an argument (clamped monotone, see the module docs).
///
/// The node id is whatever global numbering the driver uses; telemetry
/// events are stamped with it, so a fleet of harnesses that mirrors a
/// simulated world's node numbering produces directly comparable
/// journey hop lists.
pub struct NodeHarness {
    node_id: NodeId,
    node: Option<Box<dyn Node>>,
    ifaces: Vec<IfaceInfo>,
    queue: EventQueue,
    rng: StdRng,
    tracer: Tracer,
    stats: Stats,
    tele: EventLog,
    /// High-water mark of all times seen; node-visible time.
    now: SimTime,
    action_scratch: Vec<Action>,
    started: bool,
}

impl NodeHarness {
    /// Creates a harness for `node`, identified as `node_id` in
    /// telemetry, with a deterministic RNG seeded from `seed`.
    pub fn new(node_id: NodeId, node: impl Node, seed: u64) -> NodeHarness {
        NodeHarness {
            node_id,
            node: Some(Box::new(node)),
            ifaces: Vec::new(),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            tracer: Tracer::new(),
            stats: Stats::new(),
            tele: EventLog::new(),
            now: SimTime::ZERO,
            action_scratch: Vec::new(),
            started: false,
        }
    }

    /// Adds an interface with `mac`, initially attached or not, and
    /// returns its id (dense, in call order — mirror the simulated
    /// world's ordering when cross-validating).
    pub fn add_iface(&mut self, mac: MacAddr, attached: bool) -> IfaceId {
        self.ifaces.push(IfaceInfo { mac, attached });
        IfaceId(self.ifaces.len() - 1)
    }

    /// This harness's node id.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The MAC address of interface `iface`.
    pub fn iface_mac(&self, iface: IfaceId) -> MacAddr {
        self.ifaces[iface.0].mac
    }

    /// Whether interface `iface` is currently attached.
    pub fn iface_attached(&self, iface: IfaceId) -> bool {
        self.ifaces[iface.0].attached
    }

    /// Clamps `now` into the monotone node-visible timeline and returns
    /// the time handlers will observe.
    fn advance(&mut self, now: SimTime) -> SimTime {
        if now > self.now {
            self.now = now;
        }
        self.now
    }

    /// Runs the node's `on_start` handler (exactly once).
    pub fn start(&mut self, now: SimTime, io: &mut dyn NodeIo) {
        assert!(!self.started, "NodeHarness::start called twice");
        self.started = true;
        self.advance(now);
        self.dispatch(io, None, |n, ctx| n.on_start(ctx));
    }

    /// Delivers a received frame to the node, mirroring the simulator's
    /// arrival pipeline: a detached interface drops the frame with the
    /// `Moved` reason (the live analogue of "the host left this cell
    /// mid-flight"), an attached one records `FrameRx` and dispatches
    /// with the frame's journey ambient.
    pub fn on_frame(&mut self, now: SimTime, io: &mut dyn NodeIo, iface: IfaceId, frame: &Frame) {
        self.advance(now);
        if !self.ifaces.get(iface.0).is_some_and(|i| i.attached) {
            self.stats.incr_id(metric::LINK_FRAMES_LOST_MOVED);
            #[cfg(feature = "telemetry")]
            self.tele_record(
                frame.journey,
                telemetry::EventKind::FrameDrop { reason: DropReason::Moved },
            );
            return;
        }
        self.stats.incr_id(metric::LINK_FRAMES_DELIVERED);
        #[cfg(feature = "telemetry")]
        self.tele_record(
            frame.journey,
            telemetry::EventKind::FrameRx { iface: iface.0 as u32, bytes: frame.wire_len() as u32 },
        );
        let journey = frame.journey;
        self.dispatch(io, journey, |n, ctx| n.on_frame(ctx, iface, frame));
    }

    /// Attaches or detaches interface `iface` and runs the node's
    /// `on_link` handler, as the world does when a host moves.
    pub fn on_link(&mut self, now: SimTime, io: &mut dyn NodeIo, iface: IfaceId, event: LinkEvent) {
        self.advance(now);
        self.ifaces[iface.0].attached = matches!(event, LinkEvent::Attached);
        self.dispatch(io, None, |n, ctx| n.on_link(ctx, iface, event));
    }

    /// Fires every timer due at or before `now` (in deterministic
    /// `(deadline, arm-order)` sequence) and returns how many fired.
    ///
    /// Call this whenever the driver wakes up; [`Self::next_deadline`]
    /// says when that should be at the latest. A timer armed for the
    /// past (clock jumped forward over it) fires on the next tick —
    /// once, at the clamped current time.
    pub fn tick(&mut self, now: SimTime, io: &mut dyn NodeIo) -> usize {
        let now = self.advance(now);
        let mut fired = 0;
        while let Some(ev) = self.queue.pop_due(now) {
            match ev.kind {
                QueueEventKind::Timer { node, token } => {
                    let node = NodeId(node as usize);
                    debug_assert_eq!(node, self.node_id);
                    self.tracer
                        .record(self.now, Some(node), "timer", || format!("token {:#x}", token.0));
                    #[cfg(feature = "telemetry")]
                    self.tele_record(None, telemetry::EventKind::Timer { token: token.0 });
                    self.dispatch(io, None, |n, ctx| n.on_timer(ctx, token));
                    fired += 1;
                }
                // The harness queue only ever holds timers: `Ctx` pushes
                // nothing else and the driver owns frame delivery.
                _ => unreachable!("non-timer event in NodeHarness queue"),
            }
        }
        let suppressed = self.queue.take_suppressed();
        if suppressed > 0 {
            self.stats.add_id(metric::SIM_TIMERS_CANCELLED, suppressed);
        }
        fired
    }

    /// Deadline of the earliest pending timer, if any: the latest moment
    /// the driver should call [`Self::tick`] again.
    ///
    /// The one unbounded look at the queue: it stages the next timer's
    /// batch however far ahead that is, so a timer armed below it merges
    /// into the batch instead of a wheel slot — a batch of one node's
    /// timers, a handful of entries.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Typed shared access to the node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of concrete type `T`.
    pub fn node<T: 'static>(&self) -> &T {
        let node = self.node.as_ref().expect("node is mid-dispatch");
        node.as_any().downcast_ref::<T>().expect("node type mismatch")
    }

    /// Runs `f` with typed mutable access to the node and a live
    /// [`Ctx`], exactly like `World::with_node` — the hook scenario
    /// scripts and live drivers use to make a node originate traffic.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of concrete type `T`.
    pub fn with_node<T: 'static, R>(
        &mut self,
        now: SimTime,
        io: &mut dyn NodeIo,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        self.advance(now);
        let mut out = None;
        self.dispatch(io, None, |node, ctx| {
            let typed = node.as_any_mut().downcast_mut::<T>().expect("node type mismatch");
            out = Some(f(typed, ctx));
        });
        out.expect("with_node closure did not run")
    }

    /// Node-visible current time (the clamp high-water mark).
    pub fn node_now(&self) -> SimTime {
        self.now
    }

    /// Per-node statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Enables or disables structured telemetry (off by default, exactly
    /// like a fresh [`World`]).
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.tele.set_enabled(enabled);
    }

    /// The structured event log.
    pub fn telemetry(&self) -> &EventLog {
        &self.tele
    }

    /// Mutable access to the event log (e.g. to give each harness in a
    /// fleet a disjoint journey-id namespace via
    /// [`EventLog::set_journey_base`]).
    pub fn telemetry_mut(&mut self) -> &mut EventLog {
        &mut self.tele
    }

    /// The core dispatch pipeline, structured exactly like
    /// `World::dispatch_with`: take the node out of its slot, hand the
    /// handler a [`Ctx`] borrowing the harness-owned context, then apply
    /// the deferred actions in order.
    fn dispatch(
        &mut self,
        io: &mut dyn NodeIo,
        journey: Option<JourneyId>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let mut node = self.node.take().expect("re-entrant dispatch on one node");
        let mut actions = std::mem::take(&mut self.action_scratch);
        actions.clear();
        let mut ctx = Ctx {
            now: self.now,
            node: self.node_id,
            ifaces: &self.ifaces,
            queue: &mut self.queue,
            actions,
            rng: &mut self.rng,
            tracer: &mut self.tracer,
            stats: &mut self.stats,
            tele: &mut self.tele,
            journey,
        };
        f(node.as_mut(), &mut ctx);
        let mut actions = ctx.actions;
        self.node = Some(node);
        for action in actions.drain(..) {
            self.apply_action(io, action);
        }
        self.action_scratch = actions;
    }

    fn apply_action(&mut self, io: &mut dyn NodeIo, action: Action) {
        match action {
            Action::SendFrame { iface, frame } => self.transmit(io, iface, frame),
            Action::SetTimer { delay, token } => {
                self.queue.push(self.now + delay, QueueEventKind::timer(self.node_id, token));
            }
            Action::CancelTimer { token } => self.queue.cancel_timer(self.node_id, token),
        }
    }

    /// The egress half of the pipeline, mirroring `World::transmit`'s
    /// per-node checks (bad interface, detached) and its bookkeeping
    /// (send counters, `FrameTx` telemetry) before handing the frame to
    /// the I/O backend. Segment-level behaviour (latency, loss, fan-out)
    /// belongs to the backend.
    fn transmit(&mut self, io: &mut dyn NodeIo, iface: IfaceId, frame: Frame) {
        let Some(info) = self.ifaces.get(iface.0) else {
            self.stats.incr_id(metric::LINK_TX_BAD_IFACE);
            #[cfg(feature = "telemetry")]
            self.tele_record(
                frame.journey,
                telemetry::EventKind::FrameDrop { reason: DropReason::BadIface },
            );
            return;
        };
        if !info.attached {
            self.stats.incr_id(metric::LINK_TX_DETACHED);
            #[cfg(feature = "telemetry")]
            self.tele_record(
                frame.journey,
                telemetry::EventKind::FrameDrop { reason: DropReason::Detached },
            );
            return;
        }
        self.stats.incr_id(metric::LINK_FRAMES_SENT);
        self.stats.add_id(metric::LINK_BYTES_SENT, frame.wire_len() as u64);
        #[cfg(feature = "telemetry")]
        self.tele_record(
            frame.journey,
            telemetry::EventKind::FrameTx { iface: iface.0 as u32, bytes: frame.wire_len() as u32 },
        );
        io.transmit(self.node_id, iface, frame);
    }

    #[cfg(feature = "telemetry")]
    #[inline]
    fn tele_record(&mut self, journey: Option<JourneyId>, kind: telemetry::EventKind) {
        self.tele.record(telemetry::Event {
            at_nanos: self.now.as_nanos(),
            node: Some(self.node_id.0 as u32),
            journey,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use crate::node::TimerToken;
    use crate::time::SimDuration;

    /// Collects transmitted frames for inspection.
    #[derive(Default)]
    struct RecordIo {
        sent: Vec<(NodeId, IfaceId, Frame)>,
    }
    impl NodeIo for RecordIo {
        fn transmit(&mut self, node: NodeId, iface: IfaceId, frame: Frame) {
            self.sent.push((node, iface, frame));
        }
    }

    /// Echoes every frame back and counts timer fires.
    struct Echo {
        fires: u32,
    }
    impl Node for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
            let reply = Frame::new(
                ctx.mac(iface),
                frame.src,
                EtherType::Other(0x88b5),
                frame.payload.to_vec(),
            );
            ctx.send_frame(iface, reply);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            self.fires += 1;
            ctx.set_timer(SimDuration::from_millis(10), TimerToken(1));
        }
    }

    fn harness() -> NodeHarness {
        let mut h = NodeHarness::new(NodeId(3), Echo { fires: 0 }, 7);
        h.add_iface(MacAddr::from_index(9), true);
        h
    }

    #[test]
    fn frames_round_trip_through_io() {
        let mut h = harness();
        let mut io = RecordIo::default();
        h.start(SimTime::ZERO, &mut io);
        let f =
            Frame::new(MacAddr::from_index(1), MacAddr::from_index(9), EtherType::Ipv4, vec![42]);
        h.on_frame(SimTime::from_millis(1), &mut io, IfaceId(0), &f);
        assert_eq!(io.sent.len(), 1);
        let (node, iface, reply) = &io.sent[0];
        assert_eq!((*node, *iface), (NodeId(3), IfaceId(0)));
        assert_eq!(reply.dst, MacAddr::from_index(1));
        assert_eq!(&reply.payload[..], &[42]);
    }

    #[test]
    fn detached_iface_drops_instead_of_transmitting() {
        let mut h = harness();
        let mut io = RecordIo::default();
        h.start(SimTime::ZERO, &mut io);
        h.on_link(SimTime::from_millis(1), &mut io, IfaceId(0), LinkEvent::Detached);
        let f =
            Frame::new(MacAddr::from_index(1), MacAddr::from_index(9), EtherType::Ipv4, vec![1]);
        // Delivery to a detached iface is suppressed (the "moved away"
        // rule), so nothing is echoed.
        h.on_frame(SimTime::from_millis(2), &mut io, IfaceId(0), &f);
        assert!(io.sent.is_empty());
        assert_eq!(h.stats().counter("link.frames_lost_moved"), 1);
    }

    #[test]
    fn timers_fire_once_each_on_forward_jump() {
        let mut h = harness();
        let mut io = RecordIo::default();
        h.start(SimTime::ZERO, &mut io);
        // Jump far past many re-arm periods at once: each tick fires the
        // single armed timer once (firing re-arms relative to the clamp,
        // so a jump never produces a burst).
        assert_eq!(h.tick(SimTime::from_secs(100), &mut io), 1);
        assert_eq!(h.node::<Echo>().fires, 1);
        assert_eq!(h.tick(SimTime::from_secs(100), &mut io), 0, "no double fire");
        assert_eq!(h.tick(SimTime::from_nanos(1), &mut io), 0, "backward jump fires nothing");
        let next = h.next_deadline().expect("re-armed");
        assert_eq!(next, SimTime::from_secs(100) + SimDuration::from_millis(10));
    }

    #[test]
    fn backward_jump_freezes_node_time() {
        let mut h = harness();
        let mut io = RecordIo::default();
        h.start(SimTime::from_secs(5), &mut io);
        h.tick(SimTime::from_secs(1), &mut io);
        assert_eq!(h.node_now(), SimTime::from_secs(5));
        h.tick(SimTime::from_secs(6), &mut io);
        assert_eq!(h.node_now(), SimTime::from_secs(6));
    }

    #[test]
    fn telemetry_hop_semantics_match_the_world() {
        let mut h = harness();
        h.set_telemetry(true);
        let mut io = RecordIo::default();
        h.start(SimTime::ZERO, &mut io);
        let f =
            Frame::new(MacAddr::from_index(1), MacAddr::from_index(9), EtherType::Ipv4, vec![7]);
        h.on_frame(SimTime::from_millis(1), &mut io, IfaceId(0), &f);
        // Delivery recorded as FrameRx at this node; the echo transmit
        // as FrameTx — the exact event pair `World` records per hop.
        let kinds: Vec<_> =
            h.telemetry().events().map(|e| std::mem::discriminant(&e.kind)).collect();
        use telemetry::EventKind as K;
        assert!(kinds.contains(&std::mem::discriminant(&K::FrameRx { iface: 0, bytes: 0 })));
        assert!(kinds.contains(&std::mem::discriminant(&K::FrameTx { iface: 0, bytes: 0 })));
    }
}
