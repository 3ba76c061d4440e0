//! Sans-io seam: the clock and frame-I/O surface a [`Node`] consumes,
//! factored out of [`crate::World`] so the same protocol state
//! machines run on *any* substrate — the deterministic simulator or a
//! live runtime pushing real datagrams (the `live` crate).
//!
//! The design exploits what was already true: every protocol handler in
//! this workspace touches the outside world only through [`Ctx`]. A
//! [`NodeHarness`] runs a *single* node through the same per-node
//! pipeline `World` runs each of its nodes through — one type, not a
//! copy — so the node's counters and telemetry follow the same rules on
//! either substrate: `FrameTx` on transmit, `FrameRx` on delivery,
//! `Timer` on fire, drop reasons for detached/bad interfaces. What the
//! harness leaves out is the world's: frames leave through the
//! [`NodeIo`] trait instead of a simulated segment; time enters through
//! the caller (typically a [`Clock`]) instead of the event queue.
//! `World` itself implements [`Clock`], making the simulator literally
//! one implementation of the trait pair.
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

use crate::event::EventKind as QueueEventKind;
use crate::frame::Frame;
use crate::id::{IfaceId, MacAddr, NodeId};
use crate::node::{Ctx, IfaceInfo, LinkEvent, Node, Pipeline};
use crate::stats::Stats;
use crate::time::SimTime;
use crate::world::World;
use telemetry::{EventKind, EventLog, JourneyId};

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
/// The simulator's counterpart is `World::transmit` (segment latency
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
/// The per-node dispatch pipeline `World` runs its nodes through, plus
/// one node and its interface table. Frames leave through a caller-supplied
/// [`NodeIo`]; time comes in as an argument (clamped monotone, see the
/// module docs).
///
/// The node id is whatever global numbering the driver uses; telemetry
/// events are stamped with it, so a fleet of harnesses that mirrors a
/// simulated world's node numbering produces directly comparable
/// journey hop lists.
pub struct NodeHarness {
    node_id: NodeId,
    node: Box<dyn Node>,
    ifaces: Vec<IfaceInfo>,
    /// Its `now` is the high-water mark of all times seen.
    pipe: Pipeline,
    started: bool,
}

impl NodeHarness {
    /// Creates a harness for `node`, identified as `node_id` in
    /// telemetry, with a deterministic RNG seeded from `seed`.
    pub fn new(node_id: NodeId, node: impl Node, seed: u64) -> NodeHarness {
        NodeHarness {
            node_id,
            node: Box::new(node),
            ifaces: Vec::new(),
            pipe: Pipeline::new(seed),
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
        if now > self.pipe.now {
            self.pipe.now = now;
        }
        self.pipe.now
    }

    /// Runs the node's `on_start` handler (exactly once).
    pub fn start(&mut self, now: SimTime, io: &mut dyn NodeIo) {
        assert!(!self.started, "NodeHarness::start called twice");
        self.started = true;
        self.advance(now);
        self.dispatch(io, None, |n, ctx| n.on_start(ctx));
    }

    /// Delivers a received frame to the node, through the simulator's
    /// arrival rules: a detached interface drops the frame with the
    /// `Moved` reason (the live analogue of "the host left this cell
    /// mid-flight"), an attached one records `FrameRx` and dispatches
    /// with the frame's journey ambient.
    pub fn on_frame(&mut self, now: SimTime, io: &mut dyn NodeIo, iface: IfaceId, frame: &Frame) {
        self.advance(now);
        let here = self.ifaces.get(iface.0).is_some_and(|i| i.attached);
        if self.pipe.received(self.node_id, iface, frame, here) {
            self.dispatch(io, frame.journey, |n, ctx| n.on_frame(ctx, iface, frame));
        }
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
        while let Some(ev) = self.pipe.queue.pop_due(now) {
            // The harness queue only ever holds timers: `Ctx` pushes
            // nothing else and the driver owns frame delivery.
            let QueueEventKind::Timer { node, token } = ev.kind else {
                unreachable!("non-timer event in NodeHarness queue")
            };
            debug_assert_eq!(NodeId(node as usize), self.node_id);
            self.pipe.record(Some(self.node_id), None, EventKind::Timer { token: token.0 });
            self.dispatch(io, None, |n, ctx| n.on_timer(ctx, token));
            fired += 1;
        }
        self.pipe.fold_queue_counters();
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
        self.pipe.queue.peek_time()
    }

    /// Typed shared access to the node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not of concrete type `T`.
    pub fn node<T: 'static>(&self) -> &T {
        self.node.as_any().downcast_ref::<T>().expect("node type mismatch")
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
        self.pipe.now
    }

    /// Per-node statistics.
    pub fn stats(&self) -> &Stats {
        &self.pipe.stats
    }

    /// Enables or disables structured telemetry (off by default, exactly
    /// like a fresh [`World`]).
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.pipe.tele.set_enabled(enabled);
    }

    /// The structured event log.
    pub fn telemetry(&self) -> &EventLog {
        &self.pipe.tele
    }

    /// Mutable access to the event log (e.g. to give each harness in a
    /// fleet a disjoint journey-id namespace via
    /// [`EventLog::set_journey_base`]).
    pub fn telemetry_mut(&mut self) -> &mut EventLog {
        &mut self.pipe.tele
    }

    /// Runs one handler through the pipeline; every frame it admits
    /// leaves through `io`. Segment-level behaviour (latency, loss,
    /// fan-out) belongs to the backend.
    fn dispatch(
        &mut self,
        io: &mut dyn NodeIo,
        journey: Option<JourneyId>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let node = self.node_id;
        let mut actions =
            self.pipe.run(node, &self.ifaces, journey, |ctx| f(self.node.as_mut(), ctx));
        for action in actions.drain(..) {
            if let Some((iface, frame)) = self.pipe.apply(node, action) {
                if self.pipe.admit(node, &self.ifaces, iface, &frame, None) {
                    io.transmit(node, iface, frame);
                }
            }
        }
        self.pipe.recycle(actions);
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
        if cfg!(not(feature = "telemetry")) {
            // The hooks are compiled out: the log stays empty.
            assert!(kinds.is_empty());
            return;
        }
        use telemetry::EventKind as K;
        assert!(kinds.contains(&std::mem::discriminant(&K::FrameRx { iface: 0, bytes: 0 })));
        assert!(kinds.contains(&std::mem::discriminant(&K::FrameTx { iface: 0, bytes: 0 })));
    }

    /// Arms a far timer on start; anything else is up to the test.
    struct Idle;
    impl Node for Idle {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(100), TimerToken(1));
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _frame: &Frame) {}
    }

    #[test]
    fn late_scan_steps_are_counted() {
        let mut h = NodeHarness::new(NodeId(0), Idle, 1);
        let mut io = NullIo;
        h.start(SimTime::ZERO, &mut io);
        // What the live loop does on every wake-up: the deadline look
        // stages the far batch, then earlier timers are armed below it
        // and merge into that batch, each stepping over its one entry.
        assert_eq!(h.next_deadline(), Some(SimTime::from_millis(100)));
        h.with_node::<Idle, _>(SimTime::ZERO, &mut io, |_, ctx| {
            for t in 2..5 {
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(t));
            }
        });
        assert_eq!(h.tick(SimTime::from_millis(1), &mut io), 3);
        assert_eq!(h.stats().counter("sim.sched.late_scan_steps"), 3);
    }

    /// Arms two timers and cancels one; echoes every frame, and on the
    /// first also sends out of its detached iface and a nonexistent one.
    struct Script {
        frames: u32,
    }
    impl Node for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), TimerToken(1));
            ctx.set_timer(SimDuration::from_millis(7), TimerToken(2));
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
            self.frames += 1;
            let echo = |ctx: &Ctx<'_>, iface| {
                Frame::new(
                    ctx.mac(iface),
                    frame.src,
                    EtherType::Other(0x88b5),
                    vec![self.frames as u8],
                )
            };
            ctx.send_frame(iface, echo(ctx, iface));
            if self.frames == 1 {
                ctx.cancel_timer(TimerToken(2));
                ctx.send_frame(IfaceId(1), echo(ctx, IfaceId(1)));
                ctx.send_frame(IfaceId(7), echo(ctx, IfaceId(0)));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            let f = Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x88b5), vec![0]);
            ctx.send_frame(IfaceId(0), f);
        }
    }

    #[test]
    fn world_and_harness_run_a_node_through_one_pipeline() {
        let peer = MacAddr::from_index(50);
        let frames = [SimTime::from_millis(2), SimTime::from_millis(4)].map(|at| {
            (at, Frame::new(peer, MacAddr::from_index(0), EtherType::Ipv4, vec![1, 2, 3]))
        });
        let end = SimTime::from_millis(10);

        // The node alone in a world: iface 0 on a segment, iface 1 detached.
        let mut w = World::new(7);
        w.set_telemetry(true);
        let seg = w.add_segment(Default::default());
        let id = w.add_node(Script { frames: 0 });
        w.add_iface(id, Some(seg));
        w.add_iface(id, None);
        w.start();
        for (at, f) in &frames {
            w.inject_portal_frame(*at, seg, f);
        }
        w.run_until(end);

        // The same node in a harness, fed the same frames at the same times.
        let mut h = NodeHarness::new(id, Script { frames: 0 }, 7);
        h.set_telemetry(true);
        h.add_iface(w.iface_mac(id, IfaceId(0)), true);
        h.add_iface(w.iface_mac(id, IfaceId(1)), false);
        let mut io = RecordIo::default();
        h.start(SimTime::ZERO, &mut io);
        for (at, f) in &frames {
            h.on_frame(*at, &mut io, IfaceId(0), f);
        }
        for ms in [5, 7] {
            h.tick(SimTime::from_millis(ms), &mut io);
        }
        h.tick(end, &mut io);

        assert_eq!(w.node::<Script>(id).frames, 2);
        assert_eq!(h.node::<Script>().frames, 2);
        assert_eq!(io.sent.len(), 3, "two echoes and one timer broadcast leave");
        let counters = |s: &Stats| -> Vec<(String, u64)> {
            s.counters()
                .filter(|(n, _)| n.starts_with("link.") || *n == "sim.timers_cancelled")
                .map(|(n, v)| (n.to_owned(), v))
                .collect()
        };
        let got = counters(h.stats());
        assert_eq!(counters(w.stats()), got);
        for name in ["link.tx_detached", "link.tx_bad_iface", "sim.timers_cancelled"] {
            assert!(got.contains(&(name.to_owned(), 1)), "{name} missing from {got:?}");
        }
        let events = |log: &EventLog| -> Vec<_> {
            log.events().map(|e| (std::mem::discriminant(&e.kind), e.node, e.journey)).collect()
        };
        assert_eq!(events(w.telemetry()), events(h.telemetry()));
        assert_eq!(events(h.telemetry()).len(), if cfg!(feature = "telemetry") { 8 } else { 0 });
    }
}
