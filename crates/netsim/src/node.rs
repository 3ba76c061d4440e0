//! The [`Node`] trait implemented by every simulated host/router, the
//! [`Ctx`] handed to its event handlers, and the per-node dispatch
//! pipeline that builds one.

use std::any::Any;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{EventKind as QueueEventKind, EventQueue};
use crate::frame::Frame;
use crate::id::{IfaceId, MacAddr, NodeId};
use crate::stats::{metric, MetricId, Stats};
use crate::time::{SimDuration, SimTime};
#[cfg(feature = "telemetry")]
use telemetry::Event;
use telemetry::{DropReason, EventKind, EventLog, JourneyId};

/// An opaque timer payload chosen by the node when it arms a timer and
/// returned verbatim in [`Node::on_timer`].
///
/// Nodes encode their own meaning into the value (e.g. "retransmit
/// registration #7"). Pending timers can be cancelled with
/// [`Ctx::cancel_timer`]: cancellation is O(1) at the queue level (a
/// sequence-number watermark, not a search), covers every pending timer
/// carrying the same token, and never affects timers armed afterwards.
///
/// The older idiom of encoding a generation/epoch into the token and
/// ignoring stale fires in `on_timer` (as MHRP's epoch-tagged watchdog
/// and advertiser timers do) still works and stays byte-identical to
/// previous runs — but such nodes can now migrate to real cancellation
/// and stop paying a queue slot plus a dispatch for every dead timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Link state transitions reported to a node when the world re-binds one of
/// its interfaces (host movement) or a segment changes state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// The interface was attached to a segment (it can now send/receive).
    Attached,
    /// The interface was detached (mobile host out of range / cable pulled).
    Detached,
}

/// Blanket downcast support for boxed [`Node`]s.
///
/// Implemented automatically for every `'static` type; gives the world the
/// ability to hand out typed references to concrete node structs in tests
/// and scenario scripts.
pub trait AsAny: Any {
    /// Upcast to [`Any`] for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to mutable [`Any`] for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A simulated protocol state machine.
///
/// All methods receive a [`Ctx`] through which the node sends frames, arms
/// timers, draws randomness and records statistics. Handlers must not block;
/// they run to completion at a single instant of simulated time.
///
/// Nodes are `Send` because a sharded world
/// ([`ShardedWorld`](crate::shard::ShardedWorld)) runs each shard's nodes
/// on a worker thread during a barrier window. A node is only ever
/// *touched* by the one shard that owns it, so `Sync` is not required.
pub trait Node: AsAny + Send {
    /// Called once when the world starts (before any events fire).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a frame addressed to this node (or broadcast) arrives on
    /// `iface`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame);

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        let _ = (ctx, timer);
    }

    /// Called when one of this node's interfaces is attached/detached.
    fn on_link(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        let _ = (ctx, iface, event);
    }

    /// Called when the world reboots this node.
    ///
    /// The node should discard volatile state but may keep anything it
    /// models as stable storage (e.g. the home agent's disk journal).
    fn on_reboot(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }
}

/// Per-interface binding information the world exposes to node handlers.
#[derive(Debug, Clone, Copy)]
pub struct IfaceInfo {
    /// The interface's MAC address (stable across moves).
    pub mac: MacAddr,
    /// Whether the interface is currently attached to a segment.
    pub attached: bool,
}

/// Deferred side effects produced by a node handler, applied by the world
/// after the handler returns.
#[derive(Debug)]
pub(crate) enum Action {
    SendFrame { iface: IfaceId, frame: Frame },
    SetTimer { delay: SimDuration, token: TimerToken },
    CancelTimer { token: TimerToken },
}

/// The execution context passed to every [`Node`] handler.
///
/// Side effects (frames, timers) are buffered and applied by the world when
/// the handler returns, which keeps event dispatch free of re-entrancy.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) ifaces: &'a [IfaceInfo],
    /// The world's event queue, for timer actions that can apply
    /// immediately (see [`Ctx::set_timer`]) without reordering effects.
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) actions: Vec<Action>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) stats: &'a mut Stats,
    #[cfg_attr(not(feature = "telemetry"), allow(dead_code))]
    pub(crate) tele: &'a mut EventLog,
    /// The journey of the frame being dispatched (if any): every frame
    /// the handler sends inherits it, which is what strings the per-hop
    /// events of one packet together.
    pub(crate) journey: Option<JourneyId>,
}

impl<'a> Ctx<'a> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this context belongs to.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of interfaces bound to this node.
    pub fn iface_count(&self) -> usize {
        self.ifaces.len()
    }

    /// The MAC address of interface `iface`.
    ///
    /// # Panics
    ///
    /// Panics if `iface` is out of range for this node.
    pub fn mac(&self, iface: IfaceId) -> MacAddr {
        self.ifaces[iface.0].mac
    }

    /// Whether interface `iface` is currently attached to a segment.
    ///
    /// # Panics
    ///
    /// Panics if `iface` is out of range for this node.
    pub fn iface_attached(&self, iface: IfaceId) -> bool {
        self.ifaces[iface.0].attached
    }

    /// Queues `frame` for transmission out of `iface`.
    ///
    /// Transmission is silently dropped if the interface is detached —
    /// exactly like transmitting into an unplugged cable.
    pub fn send_frame(&mut self, iface: IfaceId, frame: Frame) {
        #[cfg(feature = "telemetry")]
        let frame = {
            let mut frame = frame;
            if frame.journey.is_none() {
                // Forwarded/derived frames inherit the ambient journey;
                // an originated frame mints a fresh one (no-op while
                // telemetry is disabled).
                frame.journey = self.journey.or_else(|| self.tele.mint_journey());
            }
            frame
        };
        self.actions.push(Action::SendFrame { iface, frame });
    }

    /// Arms a one-shot timer that fires `delay` from now with `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        if self.actions.is_empty() {
            // Nothing deferred yet, so this would be the first action
            // applied after the handler returns anyway: scheduling it
            // now yields the identical event sequence number — and the
            // timer re-arm hot path skips the action-buffer round trip.
            self.queue.push(self.now + delay, QueueEventKind::timer(self.node, token));
        } else {
            self.actions.push(Action::SetTimer { delay, token });
        }
    }

    /// Cancels every pending timer of this node carrying `token`.
    ///
    /// O(1): the queue records a watermark and discards matching timer
    /// events when they surface, without disturbing the order of any
    /// surviving event (cancelled fires are tallied in the
    /// `sim.timers_cancelled` counter). Like all `Ctx` side effects,
    /// effects land in call order: a `set_timer` *before* the cancel is
    /// covered by it, a `set_timer` *after* it survives — so "cancel
    /// then re-arm" works naturally. Cancelling a token with nothing
    /// pending is a no-op.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        if self.actions.is_empty() {
            // Same reasoning as `set_timer`: while nothing is deferred,
            // applying immediately matches the deferred order exactly.
            self.queue.cancel_timer(self.node, token);
        } else {
            self.actions.push(Action::CancelTimer { token });
        }
    }

    /// The world's deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Global statistics hub (counters and time series).
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Records a structured telemetry event at this node, stamped with
    /// the current time and the ambient packet journey. No-op while
    /// telemetry is disabled (and compiled out entirely without the
    /// `telemetry` feature).
    #[inline]
    pub fn tele_event(&mut self, kind: EventKind) {
        #[cfg(feature = "telemetry")]
        self.tele.record(Event {
            at_nanos: self.now.as_nanos(),
            node: Some(self.node.0 as u32),
            journey: self.journey,
            kind,
        });
        #[cfg(not(feature = "telemetry"))]
        let _ = kind;
    }

    /// The journey of the frame currently being handled, if the handler
    /// was entered for a frame delivery and telemetry is enabled.
    pub fn journey(&self) -> Option<JourneyId> {
        self.journey
    }

    /// Replaces the ambient journey for frames sent from here on.
    ///
    /// Used where causality genuinely breaks: e.g. the ARP layer flushes
    /// packets that were *queued by earlier dispatches* when a reply
    /// arrives — those sends belong to the queued packets, not to the
    /// ARP reply's journey, so the stack clears the ambient id first.
    pub fn override_journey(&mut self, journey: Option<JourneyId>) {
        self.journey = journey;
    }

    /// Mints a fresh journey and makes it ambient. Protocol layers call
    /// this at the birth of a new packet so events they record *before*
    /// its first frame goes out (e.g. sender-side tunnel encapsulation)
    /// land on that packet's journey. Returns the minted id (`None`
    /// while telemetry is disabled).
    pub fn begin_journey(&mut self) -> Option<JourneyId> {
        self.journey = None;
        #[cfg(feature = "telemetry")]
        {
            self.journey = self.tele.mint_journey();
        }
        self.journey
    }
}

/// The per-node dispatch pipeline: everything a [`Ctx`] borrows, and the
/// rules that run a handler and account for the frames it sends and
/// receives, each written once.
///
/// [`World`](crate::World) and [`NodeHarness`](crate::NodeHarness) both
/// run their nodes through it, which is what makes a node's counters and
/// telemetry the same on either substrate. An owner keeps only what is
/// its own: the world its arena, segments and faults (they enter
/// [`Pipeline::admit`] as the `blocked` argument and decide `here` in
/// [`Pipeline::received`]); the harness its one node, interface table
/// and [`NodeIo`](crate::NodeIo).
///
/// A dispatch is [`Pipeline::run`], then [`Pipeline::apply`] on each
/// deferred action in order — the owner carrying every frame `apply`
/// hands back that [`Pipeline::admit`] lets out — then
/// [`Pipeline::recycle`].
pub(crate) struct Pipeline {
    /// Node-visible current time.
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) rng: StdRng,
    pub(crate) stats: Stats,
    pub(crate) tele: EventLog,
    // The action buffer, lent to each dispatch and handed back, so the
    // steady-state hot path allocates nothing.
    scratch: Vec<Action>,
}

impl Pipeline {
    /// A pipeline at time zero whose randomness derives from `seed`.
    pub(crate) fn new(seed: u64) -> Pipeline {
        Pipeline {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            stats: Stats::new(),
            tele: EventLog::new(),
            scratch: Vec::new(),
        }
    }

    /// Runs one handler of `node`: builds its [`Ctx`] over `ifaces` with
    /// `journey` ambient, calls `handler`, and returns the deferred
    /// actions in the order the handler produced them.
    #[inline]
    pub(crate) fn run(
        &mut self,
        node: NodeId,
        ifaces: &[IfaceInfo],
        journey: Option<JourneyId>,
        handler: impl FnOnce(&mut Ctx<'_>),
    ) -> Vec<Action> {
        let mut actions = std::mem::take(&mut self.scratch);
        actions.clear();
        let mut ctx = Ctx {
            now: self.now,
            node,
            ifaces,
            queue: &mut self.queue,
            actions,
            rng: &mut self.rng,
            stats: &mut self.stats,
            tele: &mut self.tele,
            journey,
        };
        handler(&mut ctx);
        ctx.actions
    }

    /// Applies one deferred action of `node`: timer actions go on the
    /// queue; a frame is handed back for the owner to [`Pipeline::admit`]
    /// and carry.
    #[inline]
    pub(crate) fn apply(&mut self, node: NodeId, action: Action) -> Option<(IfaceId, Frame)> {
        match action {
            Action::SendFrame { iface, frame } => return Some((iface, frame)),
            Action::SetTimer { delay, token } => {
                self.queue.push(self.now + delay, QueueEventKind::timer(node, token));
            }
            Action::CancelTimer { token } => self.queue.cancel_timer(node, token),
        }
        None
    }

    /// Returns a drained action buffer from [`Pipeline::run`] for reuse.
    #[inline]
    pub(crate) fn recycle(&mut self, actions: Vec<Action>) {
        self.scratch = actions;
    }

    /// Egress: whether `frame`, sent by `node` out of `iface`, leaves.
    ///
    /// A bad interface, a detached one, or else the owner's `blocked`
    /// verdict (counter and reason) drops the frame; otherwise the send is
    /// counted and `FrameTx` recorded.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        node: NodeId,
        ifaces: &[IfaceInfo],
        iface: IfaceId,
        frame: &Frame,
        blocked: Option<(MetricId, DropReason)>,
    ) -> bool {
        let dropped = match ifaces.get(iface.0) {
            None => Some((metric::LINK_TX_BAD_IFACE, DropReason::BadIface)),
            // Transmitting into an unplugged cable.
            Some(info) if !info.attached => Some((metric::LINK_TX_DETACHED, DropReason::Detached)),
            Some(_) => blocked,
        };
        if let Some((counter, reason)) = dropped {
            self.drop_frame(node, frame.journey, counter, reason);
            return false;
        }
        let bytes = frame.wire_len();
        self.stats.incr_id(metric::LINK_FRAMES_SENT);
        self.stats.add_id(metric::LINK_BYTES_SENT, bytes as u64);
        self.record(
            Some(node),
            frame.journey,
            EventKind::FrameTx { iface: iface.0 as u32, bytes: bytes as u32 },
        );
        true
    }

    /// Ingress: `frame` reaching `iface` of `node`, and whether to hand it
    /// to the node. `here` is the owner's verdict on whether the interface
    /// is still where the frame was sent; if not, the frame is dropped as
    /// `Moved` (the host left mid-flight). Otherwise the delivery is
    /// counted and `FrameRx` recorded.
    #[inline]
    pub(crate) fn received(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        frame: &Frame,
        here: bool,
    ) -> bool {
        if !here {
            self.drop_frame(node, frame.journey, metric::LINK_FRAMES_LOST_MOVED, DropReason::Moved);
            return false;
        }
        self.stats.incr_id(metric::LINK_FRAMES_DELIVERED);
        self.record(
            Some(node),
            frame.journey,
            EventKind::FrameRx { iface: iface.0 as u32, bytes: frame.wire_len() as u32 },
        );
        true
    }

    /// Drops a frame of `journey` at `node`: bumps `counter` and records a
    /// `FrameDrop` with `reason`.
    #[inline]
    pub(crate) fn drop_frame(
        &mut self,
        node: NodeId,
        journey: Option<JourneyId>,
        counter: MetricId,
        reason: DropReason,
    ) {
        self.stats.incr_id(counter);
        self.record(Some(node), journey, EventKind::FrameDrop { reason });
    }

    /// Folds what the queue counted while popping into the stats: timer
    /// events discarded by cancellation, and batch entries stepped over by
    /// below-cursor schedules.
    #[inline]
    pub(crate) fn fold_queue_counters(&mut self) {
        let suppressed = self.queue.take_suppressed();
        if suppressed > 0 {
            self.stats.add_id(metric::SIM_TIMERS_CANCELLED, suppressed);
        }
        let late = self.queue.take_late_scan_steps();
        if late > 0 {
            self.stats.add_id(metric::SIM_SCHED_LATE_SCAN_STEPS, late);
        }
    }

    /// Records a structured event stamped with the current time. Becomes
    /// a no-op shell without the `telemetry` cargo feature.
    #[inline]
    pub(crate) fn record(
        &mut self,
        node: Option<NodeId>,
        journey: Option<JourneyId>,
        kind: EventKind,
    ) {
        #[cfg(feature = "telemetry")]
        self.tele.record(Event {
            at_nanos: self.now.as_nanos(),
            node: node.map(|n| n.0 as u32),
            journey,
            kind,
        });
        #[cfg(not(feature = "telemetry"))]
        let _ = (node, journey, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(u32);
    impl Node for Dummy {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _frame: &Frame) {}
    }

    #[test]
    fn as_any_downcasts_boxed_nodes() {
        // Call through `&dyn Node` (as the world does); calling on the Box
        // directly would hit the blanket impl for `Box<dyn Node>` itself.
        let boxed: Box<dyn Node> = Box::new(Dummy(42));
        let node: &dyn Node = boxed.as_ref();
        let d = node.as_any().downcast_ref::<Dummy>().expect("downcast");
        assert_eq!(d.0, 42);
    }

    #[test]
    fn as_any_mut_downcasts_boxed_nodes() {
        let mut boxed: Box<dyn Node> = Box::new(Dummy(1));
        let node: &mut dyn Node = boxed.as_mut();
        node.as_any_mut().downcast_mut::<Dummy>().expect("downcast").0 = 9;
        let node: &dyn Node = boxed.as_ref();
        assert_eq!(node.as_any().downcast_ref::<Dummy>().unwrap().0, 9);
    }
}
