//! The [`World`]: owns every node, segment and the event queue, and drives
//! the simulation deterministically.

use std::collections::HashSet;
use std::fmt;
use std::ptr::NonNull;

use rand::RngExt;

use crate::arena::NodeArena;
use crate::event::{EventKind, ScheduledEvent, Transmissions};
use crate::faults::{Op, Scheduled};
use crate::frame::{Frame, Payload};
use crate::id::{IfaceId, MacAddr, NodeId, PortalId, SegmentId};
use crate::node::{Ctx, IfaceInfo, LinkEvent, Node, Pipeline};
use crate::segment::{Segment, SegmentParams};
use crate::stats::{metric, Stats};
use crate::time::{SimDuration, SimTime};
use telemetry::pcapng::PcapWriter;
use telemetry::{DropReason, EventLog, Journey, JourneyId};

/// A node-scoped script: receives the world and the (possibly
/// shard-local) id of its node. `Send`, because a shard's queue moves
/// between worker threads.
pub type NodeScript = Box<dyn FnOnce(&mut World, NodeId) + Send>;

/// The queue entry for one receiver's copy of transmission `tx`.
#[inline]
fn rx_event(tx: u32, node: NodeId, iface: IfaceId) -> EventKind {
    debug_assert!(u32::try_from(iface.0).is_ok());
    EventKind::Rx { tx, node: node.0 as u32, iface: iface.0 as u32 }
}

#[derive(Debug, Clone, Copy)]
struct IfaceBinding {
    mac: MacAddr,
    segment: Option<SegmentId>,
}

/// A frame transmitted onto a portal segment, buffered for the barrier
/// exchange: the coordinator drains these from every shard at the end of
/// a window and injects them into the other replicas of the portal.
#[derive(Debug)]
pub(crate) struct EgressFrame {
    /// Absolute arrival time (`send time + portal latency`). By the
    /// lookahead rule this is always past the barrier at which it is
    /// exchanged, so injection never schedules into a shard's past.
    pub at: SimTime,
    /// The physical portal segment the frame was sent onto.
    pub portal: PortalId,
    /// The frame (payload shared by refcount with the local copy).
    pub frame: Frame,
}

/// The simulation world.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct World {
    // The clock, event queue, RNG, stats and telemetry every node's
    // `Ctx` borrows, and the per-node dispatch rules (see `Pipeline`).
    pipe: Pipeline,
    // Node state is arena-allocated for cache locality: `nodes` holds
    // stable pointers into `arena`'s chunks (or dangling pointers for
    // zero-sized nodes). A slot is `None` only while that node is
    // mid-dispatch (taken out for aliasing-free `&mut` access) — or,
    // briefly, in `Drop`. The `Drop` impl runs each node's destructor in
    // place; the arena then frees the chunks.
    nodes: Vec<Option<NonNull<dyn Node>>>,
    arena: NodeArena,
    bindings: Vec<Vec<IfaceBinding>>,
    segments: Vec<Segment>,
    mac_counter: u64,
    started: bool,
    events_processed: u64,
    queue_sample_every: Option<SimDuration>,
    // Fault-injection state (see the `faults` module): crashed nodes
    // receive neither frames nor timers until their scheduled reboot;
    // muted (node, iface) pairs have their broadcast transmissions
    // suppressed.
    down_nodes: Vec<bool>,
    muted_broadcasts: HashSet<(NodeId, IfaceId)>,
    // Per-node interface views handed to `Ctx` during dispatch, kept in
    // sync incrementally at the three binding mutation points
    // (`add_node`, `add_iface`, `move_iface`) instead of being rebuilt
    // from `bindings` on every dispatch. Borrowed immutably for the
    // duration of a handler (handlers cannot reach binding mutations).
    iface_infos: Vec<Vec<IfaceInfo>>,
    // Reused across transmissions so the steady-state hot path allocates
    // nothing. Taken with `mem::take`, so an unexpected nested use
    // degrades to a fresh allocation instead of corrupting the outer call.
    rx_scratch: Vec<(NodeId, IfaceId)>,
    // Frames in flight: one record per transmission, named by index from
    // its queue entries (see `event::Transmissions`).
    txs: Transmissions,
    // An optional pcap-ng capture of delivered frames, off by default.
    pcap: Option<PcapWriter>,
    // Cross-shard plumbing (see the `shard` module). `portal_of[seg]`
    // names the physical portal a segment is a replica of; transmissions
    // onto it are mirrored into `egress` for the barrier exchange. Both
    // stay empty in a standalone world, and `has_portals` keeps the whole
    // mechanism to one branch per transmit.
    has_portals: bool,
    portal_of: Vec<Option<PortalId>>,
    egress: Vec<EgressFrame>,
}

impl World {
    /// Creates an empty world whose randomness derives entirely from `seed`.
    pub fn new(seed: u64) -> World {
        World {
            pipe: Pipeline::new(seed),
            nodes: Vec::new(),
            arena: NodeArena::new(),
            bindings: Vec::new(),
            segments: Vec::new(),
            mac_counter: 0,
            started: false,
            events_processed: 0,
            queue_sample_every: None,
            down_nodes: Vec::new(),
            muted_broadcasts: HashSet::new(),
            iface_infos: Vec::new(),
            rx_scratch: Vec::new(),
            txs: Transmissions::default(),
            pcap: None,
            has_portals: false,
            portal_of: Vec::new(),
            egress: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.pipe.now
    }

    /// Adds a broadcast segment and returns its id.
    pub fn add_segment(&mut self, params: SegmentParams) -> SegmentId {
        assert!((0.0..=1.0).contains(&params.loss), "segment loss must be a probability in [0, 1]");
        assert!(
            (0.0..=1.0).contains(&params.corrupt),
            "segment corruption must be a probability in [0, 1]"
        );
        let id = SegmentId(self.segments.len());
        self.segments.push(Segment::new(params));
        self.portal_of.push(None);
        id
    }

    /// Adds a node and returns its id. Interfaces are added separately via
    /// [`World::add_iface`].
    ///
    /// The node is moved into the world's internal arena (contiguous
    /// chunks rather than one heap box per node), so dense worlds keep
    /// node state cache-local. Nodes live as long as the world.
    #[inline]
    pub fn add_node(&mut self, node: impl Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        assert!(u32::try_from(id.0).is_ok(), "queue entries carry node ids as u32");
        let ptr = self.arena.alloc(node);
        self.nodes.push(Some(ptr));
        self.bindings.push(Vec::new());
        self.iface_infos.push(Vec::new());
        self.down_nodes.push(false);
        id
    }

    /// Hints that roughly `events` events will be outstanding at once, so
    /// the event queue can pre-size its storage and steady-state runs
    /// never reallocate it. Builders that know their population (e.g. the
    /// hierarchy generator) call this once before [`World::start`].
    pub fn reserve_events(&mut self, events: usize) {
        self.pipe.queue.reserve(events);
    }

    /// Adds an interface to `node`, optionally attached to a segment, and
    /// returns its node-local id and freshly assigned MAC address.
    pub fn add_iface(&mut self, node: NodeId, segment: Option<SegmentId>) -> (IfaceId, MacAddr) {
        self.add_iface_with_mac(node, segment, self.mac_counter)
    }

    /// Like [`World::add_iface`], but with an explicit MAC index instead
    /// of the world's own counter.
    ///
    /// A [`ShardedWorld`](crate::shard::ShardedWorld) assigns MAC indices
    /// from one *global* counter so that a node keeps the same address no
    /// matter how many shards the world is split into — the determinism
    /// contract (same seed, any shard count, identical logs) depends on
    /// it. The world's own counter is bumped past `mac_index` so later
    /// [`World::add_iface`] calls never collide.
    pub fn add_iface_with_mac(
        &mut self,
        node: NodeId,
        segment: Option<SegmentId>,
        mac_index: u64,
    ) -> (IfaceId, MacAddr) {
        let mac = MacAddr::from_index(mac_index);
        self.mac_counter = self.mac_counter.max(mac_index + 1);
        let iface = IfaceId(self.bindings[node.0].len());
        // Exact growth: most nodes have one interface, and a `Vec` would
        // round each table up to four.
        self.bindings[node.0].reserve_exact(1);
        self.bindings[node.0].push(IfaceBinding { mac, segment });
        self.iface_infos[node.0].reserve_exact(1);
        self.iface_infos[node.0].push(IfaceInfo { mac, attached: segment.is_some() });
        if let Some(seg) = segment {
            self.segments[seg.0].attach(node, iface, mac);
        }
        (iface, mac)
    }

    /// Marks `segment` as a replica of physical portal `portal`:
    /// transmissions onto it are additionally buffered as egress for the
    /// barrier exchange (see the [`shard`](crate::shard) module).
    ///
    /// # Panics
    ///
    /// Panics unless the segment is deterministic end-to-end: zero jitter,
    /// zero loss, zero corruption. Portal arrivals are replayed into other
    /// shards without re-drawing randomness, and the conservative barrier
    /// scheduler derives its lookahead from the portal's *fixed* latency,
    /// so a random portal would break both determinism and safety.
    pub(crate) fn mark_portal(&mut self, segment: SegmentId, portal: PortalId) {
        let params = self.segments[segment.0].params;
        assert!(
            params.jitter == SimDuration::ZERO && params.loss == 0.0 && params.corrupt == 0.0,
            "portal segments must be deterministic (no jitter/loss/corruption)"
        );
        assert!(params.latency > SimDuration::ZERO, "portal segments need non-zero latency");
        self.portal_of[segment.0] = Some(portal);
        self.has_portals = true;
    }

    /// Drains the egress buffer into `out`, tagging each frame with this
    /// shard's index. Called by the barrier coordinator at window ends.
    pub(crate) fn drain_egress_into(&mut self, shard: u32, out: &mut Vec<(u32, EgressFrame)>) {
        out.extend(self.egress.drain(..).map(|ef| (shard, ef)));
    }

    /// Injects a portal frame that originated in another shard into this
    /// shard's replica `segment`, delivering to every attachment whose MAC
    /// matches (the sender is remote, so no sender exclusion applies).
    ///
    /// No segment-up recheck: like any frame already in flight, a portal
    /// frame that was accepted onto the segment at send time still arrives
    /// if the segment goes down mid-flight (down blocks only transmission).
    pub(crate) fn inject_portal_frame(&mut self, at: SimTime, segment: SegmentId, frame: &Frame) {
        debug_assert!(at >= self.pipe.now, "portal injection into the past");
        self.pipe.stats.incr_id(metric::SHARD_INGRESS_FRAMES);
        let mut receivers = std::mem::take(&mut self.rx_scratch);
        receivers.clear();
        receivers.extend(
            self.segments[segment.0]
                .attachments
                .iter()
                .filter(|a| frame.dst.is_broadcast() || a.mac == frame.dst)
                .map(|a| (a.node, a.iface)),
        );
        if !receivers.is_empty() {
            let tx = self.txs.alloc(segment);
            for &(rx_node, rx_iface) in &receivers {
                self.pipe.queue.push(at, rx_event(tx, rx_node, rx_iface));
            }
            self.txs.arm(tx, frame.clone(), receivers.len() as u32);
        }
        receivers.clear();
        self.rx_scratch = receivers;
    }

    /// Runs every node's [`Node::on_start`]. Must be called exactly once,
    /// before [`World::run_until`].
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(&mut self) {
        assert!(!self.started, "World::start called twice");
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Processes all events up to and including time `t`, then advances the
    /// clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(self.started, "call World::start before running");
        while let Some(ev) = self.pipe.queue.pop_due(t) {
            self.process_event(ev);
        }
        // The final `pop_due` looked no further than `t`: the wheel's
        // cursor is still behind the clock, so whatever the caller sends
        // or arms next is a slot push. What the queue counted on the way
        // (cancelled timers due by `t`, below-cursor merge steps) folds
        // into the stats once per run, keeping the per-event loop free
        // of stats traffic.
        self.pipe.fold_queue_counters();
        if t > self.pipe.now {
            self.pipe.now = t;
        }
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.pipe.now + d;
        self.run_until(t);
    }

    /// Processes the single next event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let popped = self.pipe.queue.pop();
        self.pipe.fold_queue_counters();
        let Some(ev) = popped else { return false };
        self.process_event(ev);
        true
    }

    /// Advances the clock to a popped event and runs it. Shared by
    /// [`World::step`] and the [`World::run_until`] hot loop.
    fn process_event(&mut self, ev: ScheduledEvent) {
        debug_assert!(ev.at >= self.pipe.now, "event queue went backwards");
        self.pipe.now = ev.at;
        self.events_processed += 1;
        match ev.kind {
            EventKind::Rx { tx, node, iface } => {
                // The frame leaves its record for the length of the
                // delivery (handlers transmit, which may grow the slab)
                // and goes back unless this was the last copy.
                let t = &mut self.txs[tx];
                let segment = t.segment;
                let frame = t.frame.take().expect("queue entry names a live transmission");
                t.pending -= 1;
                let last = t.pending == 0;
                self.deliver_frame(NodeId(node as usize), IfaceId(iface as usize), segment, &frame);
                if last {
                    self.txs.release(tx);
                } else {
                    self.txs[tx].frame = Some(frame);
                }
            }
            EventKind::RxBatch { tx } => {
                let t = &mut self.txs[tx];
                let segment = t.segment;
                let frame = t.frame.take().expect("queue entry names a live transmission");
                let receivers = std::mem::take(&mut t.receivers);
                // One queue entry carrying receivers.len() deliveries:
                // count each so `events_processed` (and thus bench
                // throughput figures) match the unbatched scheme exactly.
                self.events_processed += receivers.len() as u64 - 1;
                for &(node, iface) in &receivers {
                    self.deliver_frame(node, iface, segment, &frame);
                }
                self.txs.release(tx);
            }
            EventKind::Timer { node, token } => {
                let node = NodeId(node as usize);
                if self.down_nodes[node.0] {
                    // Pending timers are volatile state: a crash consumes
                    // them. Nodes re-arm from `on_reboot`.
                    self.pipe.stats.incr_id(metric::FAULT_TIMERS_DROPPED_NODE_DOWN);
                    return;
                }
                self.pipe.record(Some(node), None, telemetry::EventKind::Timer { token: token.0 });
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::Op(op) => self.apply(*op),
            EventKind::Script(script) => {
                let (node, script) = *script;
                script(self, node);
            }
            EventKind::SampleQueue => {
                // The sample event itself was already popped, so `queue_len`
                // reflects only real pending work at this instant.
                if let Some(every) = self.queue_sample_every {
                    let depth = self.pipe.queue.len() as f64;
                    self.pipe.stats.record_id(metric::SIM_QUEUE_DEPTH, self.pipe.now, depth);
                    self.pipe.queue.push(self.pipe.now + every, EventKind::SampleQueue);
                }
            }
        }
    }

    /// Delivers one frame copy to `node`'s `iface`: a crashed node hears
    /// nothing, an interface that moved away mid-flight drops it, and
    /// otherwise the frame is captured and dispatched. Shared by
    /// per-receiver `Rx` events and batched `RxBatch` fan-outs.
    fn deliver_frame(&mut self, node: NodeId, iface: IfaceId, segment: SegmentId, frame: &Frame) {
        if self.down_nodes[node.0] {
            let counter = metric::FAULT_FRAMES_DROPPED_NODE_DOWN;
            self.pipe.drop_frame(node, frame.journey, counter, DropReason::NodeDown);
            return;
        }
        let here = self
            .bindings
            .get(node.0)
            .and_then(|b| b.get(iface.0))
            .is_some_and(|b| b.segment == Some(segment));
        if self.pipe.received(node, iface, frame, here) {
            if self.pcap.is_some() {
                self.pcap_capture(frame);
            }
            self.dispatch_with(node, frame.journey, |n, ctx| n.on_frame(ctx, iface, frame));
        }
    }

    /// Samples [`World::queue_len`] into the `sim.queue_depth` stats series
    /// every `interval`, starting one interval from now. Pass `None` to stop
    /// (an already-scheduled sample fires once more, records nothing further
    /// and does not reschedule).
    ///
    /// Note that while sampling is active the event queue never drains, so
    /// bound runs with [`World::run_until`]/[`World::run_for`] rather than
    /// looping on [`World::step`].
    pub fn set_queue_sampling(&mut self, interval: Option<SimDuration>) {
        let was_on = self.queue_sample_every.is_some();
        assert!(
            interval.is_none_or(|d| d > SimDuration::ZERO),
            "queue sampling interval must be positive"
        );
        self.queue_sample_every = interval;
        if let Some(every) = interval {
            if !was_on {
                self.pipe.queue.push(self.pipe.now + every, EventKind::SampleQueue);
            }
        }
    }

    /// Schedules a world change at absolute time `at`: a plain [`Op`]
    /// applies silently, [`Op::fault`] as a fault (see [`Scheduled`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: SimTime, op: impl Into<Scheduled>) {
        assert!(at >= self.pipe.now, "op scheduled in the past");
        self.pipe.queue.push(at, EventKind::Op(Box::new(op.into())));
    }

    /// Schedules `script` to run against `node` at absolute time `at`. It
    /// must confine its effects to `node`: on a sharded world it receives
    /// the node's shard, not the whole topology.
    pub fn schedule_script(&mut self, at: SimTime, node: NodeId, script: NodeScript) {
        self.pipe.queue.push(at, EventKind::Script(Box::new((node, script))));
    }

    /// Whether `node` is currently crashed by an [`Op::Crash`] (it
    /// receives no frames or timers until its scheduled reboot).
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down_nodes[node.0]
    }

    /// Applies one scheduled op. The restore a latency spike schedules and
    /// the reboot that ends a crash inherit the entry's accounting.
    fn apply(&mut self, Scheduled { op, fault }: Scheduled) {
        if fault {
            self.pipe.stats.incr_id(metric::FAULT_OPS_APPLIED);
            self.pipe.record(None, None, telemetry::EventKind::Fault { kind: op.fault_kind() });
        }
        let follow_up = |op| Scheduled { op, fault };
        match op {
            Op::SetSegmentUp { segment, up } => self.segments[segment.0].up = up,
            Op::SetSegmentLoss { segment, loss } => {
                assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
                self.segments[segment.0].params.loss = loss;
            }
            Op::SetSegmentLatency { segment, latency } => {
                self.segments[segment.0].params.latency = latency;
            }
            Op::LatencySpike { segment, extra, duration } => {
                let previous = self.segments[segment.0].params.latency;
                self.segments[segment.0].params.latency = previous + extra;
                let restore = Op::SetSegmentLatency { segment, latency: previous };
                self.schedule(self.pipe.now + duration, follow_up(restore));
            }
            Op::SetSegmentCorruption { segment, probability } => {
                assert!((0.0..=1.0).contains(&probability), "corruption must be a probability");
                self.segments[segment.0].params.corrupt = probability;
            }
            Op::DetachIface { node, iface } => self.move_iface(node, iface, None),
            Op::AttachIface { node, iface, segment } => self.move_iface(node, iface, Some(segment)),
            Op::Crash { node, down_for } => {
                if !self.down_nodes[node.0] {
                    self.pipe.stats.incr_id(metric::FAULT_CRASHES);
                    self.down_nodes[node.0] = true;
                    self.schedule(self.pipe.now + down_for, follow_up(Op::Reboot { node }));
                }
            }
            Op::Reboot { node } => self.reboot_node(node),
            Op::SetBroadcastsMuted { node, iface, muted: true } => {
                self.muted_broadcasts.insert((node, iface));
            }
            Op::SetBroadcastsMuted { node, iface, muted: false } => {
                self.muted_broadcasts.remove(&(node, iface));
            }
        }
    }

    /// Immediately moves `iface` of `node` to `segment` (detaching first if
    /// needed), firing [`Node::on_link`] events.
    pub fn move_iface(&mut self, node: NodeId, iface: IfaceId, segment: Option<SegmentId>) {
        let old = self.bindings[node.0][iface.0].segment;
        if old == segment {
            return;
        }
        // A crashed node's hardware still detaches/attaches, but its
        // software sees no link events until it reboots.
        let awake = !self.down_nodes[node.0];
        if let Some(old_seg) = old {
            self.segments[old_seg.0].detach(node, iface);
            self.bindings[node.0][iface.0].segment = None;
            self.iface_infos[node.0][iface.0].attached = false;
            if awake {
                self.dispatch(node, |n, ctx| n.on_link(ctx, iface, LinkEvent::Detached));
            }
        }
        if let Some(new_seg) = segment {
            let mac = self.bindings[node.0][iface.0].mac;
            self.segments[new_seg.0].attach(node, iface, mac);
            self.bindings[node.0][iface.0].segment = Some(new_seg);
            self.iface_infos[node.0][iface.0].attached = true;
            if awake {
                self.dispatch(node, |n, ctx| n.on_link(ctx, iface, LinkEvent::Attached));
            }
        }
    }

    /// Immediately reboots `node` (fires [`Node::on_reboot`]), ending a
    /// crash outage if one is under way.
    pub fn reboot_node(&mut self, node: NodeId) {
        self.down_nodes[node.0] = false;
        self.pipe.stats.incr_id(metric::WORLD_REBOOTS);
        self.dispatch(node, |n, ctx| n.on_reboot(ctx));
    }

    /// Typed shared access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a node of concrete type `T`.
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        let ptr = self.nodes[id.0].expect("node is mid-dispatch");
        // SAFETY: the pointer came from `self.arena` (alive as long as
        // `self`), and the slot being `Some` means no `&mut` to this
        // node exists (dispatch takes the slot while it holds one).
        let node: &dyn Node = unsafe { ptr.as_ref() };
        node.as_any().downcast_ref::<T>().expect("node type mismatch")
    }

    /// Runs `f` with typed mutable access to a node *and* a live [`Ctx`], so
    /// scenario scripts can make nodes send packets or arm timers.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a node of concrete type `T`.
    pub fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut out = None;
        self.dispatch(id, |node, ctx| {
            let typed = node.as_any_mut().downcast_mut::<T>().expect("node type mismatch");
            out = Some(f(typed, ctx));
        });
        out.expect("with_node closure did not run")
    }

    /// Global statistics (shared access).
    pub fn stats(&self) -> &Stats {
        &self.pipe.stats
    }

    /// Global statistics (mutable access, for scenario-level metrics).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.pipe.stats
    }

    /// Enables or disables structured telemetry (typed events + packet
    /// journeys). Off by default: disabled worlds mint no journey ids,
    /// record no events and allocate nothing for the log.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.pipe.tele.set_enabled(enabled);
    }

    /// Re-sizes the telemetry ring buffer (discards buffered events).
    /// Size long-running traced worlds generously; overwrites are counted
    /// in [`telemetry::EventLog::overwritten`].
    pub fn set_telemetry_capacity(&mut self, events: usize) {
        self.pipe.tele.set_capacity(events);
    }

    /// The structured event log (query API lives on [`EventLog`]).
    pub fn telemetry(&self) -> &EventLog {
        &self.pipe.tele
    }

    /// Mutable access to the structured event log (e.g. to clear it
    /// between experiment phases).
    pub fn telemetry_mut(&mut self) -> &mut EventLog {
        &mut self.pipe.tele
    }

    /// Reconstructs one packet's journey from the event log.
    pub fn journey(&self, id: JourneyId) -> Journey {
        self.pipe.tele.journey(id)
    }

    /// The hop list of journey `id`: every node that a frame of this
    /// journey was *delivered* to, in order.
    pub fn journey_hops(&self, id: JourneyId) -> Vec<NodeId> {
        self.pipe.tele.journey(id).hops().into_iter().map(|n| NodeId(n as usize)).collect()
    }

    /// The journey of the most recent frame delivered to `node`, if any.
    pub fn last_journey_to(&self, node: NodeId) -> Option<JourneyId> {
        self.pipe.tele.last_journey_to(node.0 as u32)
    }

    /// Starts capturing every *delivered* frame into an in-memory
    /// pcap-ng buffer (14-byte synthesized ethernet header + payload,
    /// which for tunneled packets includes the MHRP header bytes).
    /// Independent of [`World::set_telemetry`].
    pub fn start_pcap_capture(&mut self) {
        if self.pcap.is_none() {
            self.pcap = Some(PcapWriter::new());
        }
    }

    /// Stops the pcap capture and returns the finished capture bytes
    /// (`None` if capture was never started).
    pub fn take_pcap(&mut self) -> Option<Vec<u8>> {
        self.pcap.take().map(PcapWriter::finish)
    }

    /// Number of frames captured so far (0 when capture is off).
    pub fn pcap_frame_count(&self) -> usize {
        self.pcap.as_ref().map_or(0, PcapWriter::frame_count)
    }

    /// Appends a delivered frame to the pcap capture, synthesizing the
    /// 14-byte ethernet header the simulator models but does not store.
    fn pcap_capture(&mut self, frame: &Frame) {
        let Some(pcap) = self.pcap.as_mut() else { return };
        let mut bytes = Vec::with_capacity(crate::frame::LINK_HEADER_BYTES + frame.payload.len());
        bytes.extend_from_slice(&frame.dst.0);
        bytes.extend_from_slice(&frame.src.0);
        bytes.extend_from_slice(&frame.ethertype.as_u16().to_be_bytes());
        bytes.extend_from_slice(&frame.payload);
        pcap.add_frame(self.pipe.now.as_nanos(), &bytes);
    }

    /// Number of events currently queued (useful to observe congestion).
    ///
    /// Cancelled timers are discarded lazily, so this can transiently
    /// overcount by the number of cancelled-but-not-yet-expired timers.
    pub fn queue_len(&self) -> usize {
        self.pipe.queue.len()
    }

    /// Transmissions currently in flight: frames sent whose last copy has
    /// not arrived yet. One per transmission however many receivers it
    /// has (a per-receiver corrupted copy counts as its own); 0 once the
    /// queue has drained.
    pub fn transmissions_in_flight(&self) -> usize {
        self.txs.live()
    }

    /// Bytes of heap behind the event queue: the timer wheel's buffers at
    /// their current capacity and the transmission records. What a
    /// per-host memory budget leaves out — it follows the load, not the
    /// population.
    pub fn queue_heap_bytes(&self) -> usize {
        self.pipe.queue.heap_bytes() + self.txs.heap_bytes()
    }

    /// Total events processed since the world was created (frames, timers
    /// and scheduled ops). The bench harness divides this by wall time
    /// to report simulator throughput.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The segment `iface` of `node` is currently attached to, if any.
    pub fn iface_segment(&self, node: NodeId, iface: IfaceId) -> Option<SegmentId> {
        self.bindings[node.0][iface.0].segment
    }

    /// The MAC address assigned to `iface` of `node`.
    pub fn iface_mac(&self, node: NodeId, iface: IfaceId) -> MacAddr {
        self.bindings[node.0][iface.0].mac
    }

    fn dispatch(&mut self, node_id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        self.dispatch_with(node_id, None, f);
    }

    /// Dispatch with an ambient packet journey: frames the handler sends
    /// inherit `journey`, which is how one packet's hops stay linked as
    /// it is forwarded (and re-framed) across the internetwork.
    fn dispatch_with(
        &mut self,
        node_id: NodeId,
        journey: Option<JourneyId>,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let mut node = self.nodes[node_id.0].take().expect("re-entrant dispatch on one node");
        // The node's interface view is maintained incrementally (see the
        // `iface_infos` field) and borrowed straight into the context,
        // rather than rebuilt from `bindings` per dispatch.
        let ifaces = &self.iface_infos[node_id.0];
        // SAFETY: `node` was taken out of its slot, so this is the only
        // live path to the object for the duration of the handler (a
        // re-entrant dispatch on the same node panics on the `take`
        // above; `World::node` panics on the empty slot).
        let mut actions =
            self.pipe.run(node_id, ifaces, journey, |ctx| f(unsafe { node.as_mut() }, ctx));
        self.nodes[node_id.0] = Some(node);
        for action in actions.drain(..) {
            if let Some((iface, frame)) = self.pipe.apply(node_id, action) {
                self.transmit(node_id, iface, frame);
            }
        }
        self.pipe.recycle(actions);
    }

    /// Carries a frame `node_id` sends out of `iface` onto its segment,
    /// unless the pipeline drops it — a down segment or a muted broadcast
    /// are the world's own reasons.
    fn transmit(&mut self, node_id: NodeId, iface: IfaceId, frame: Frame) {
        let seg_id = self.bindings[node_id.0].get(iface.0).and_then(|b| b.segment);
        let blocked = seg_id.and_then(|seg| {
            if !self.segments[seg.0].up {
                Some((metric::LINK_TX_SEGMENT_DOWN, DropReason::SegmentDown))
            } else if frame.dst.is_broadcast()
                && !self.muted_broadcasts.is_empty()
                && self.muted_broadcasts.contains(&(node_id, iface))
            {
                Some((metric::FAULT_TX_MUTED, DropReason::Muted))
            } else {
                None
            }
        });
        if !self.pipe.admit(node_id, &self.iface_infos[node_id.0], iface, &frame, blocked) {
            return;
        }
        let seg_id = seg_id.expect("an admitted frame leaves an attached iface");
        let params = self.segments[seg_id.0].params;
        if self.has_portals {
            // A send accepted onto a portal replica also crosses the shard
            // boundary: buffer a copy (payload shared by refcount) for the
            // barrier exchange. Local receivers are still served below.
            if let Some(portal) = self.portal_of[seg_id.0] {
                self.pipe.stats.incr_id(metric::SHARD_EGRESS_FRAMES);
                self.egress.push(EgressFrame {
                    at: self.pipe.now + params.latency,
                    portal,
                    frame: frame.clone(),
                });
            }
        }
        let mut receivers = std::mem::take(&mut self.rx_scratch);
        receivers.clear();
        receivers.extend(
            self.segments[seg_id.0].receivers(node_id, iface, frame.dst).map(|a| (a.node, a.iface)),
        );
        if receivers.is_empty() {
            self.rx_scratch = receivers;
            return;
        }
        let journey = frame.journey;
        if frame.dst.is_broadcast()
            && receivers.len() > 1
            && params.jitter == SimDuration::ZERO
            && params.corrupt == 0.0
        {
            // Batched fan-out: with zero jitter and no per-copy
            // corruption, every surviving receiver gets an identical copy
            // at the identical instant, and the per-receiver `Rx`
            // events the unbatched path would push carry *consecutive*
            // sequence numbers — nothing can order between them. One
            // `RxBatch` event therefore reproduces the exact
            // processing order while costing a single queue operation.
            // Loss is still drawn per receiver, in attachment order, so
            // the RNG stream is bit-identical to the unbatched scheme.
            if params.loss > 0.0 {
                receivers.retain(|&(rx_node, _)| {
                    let lost = self.pipe.rng.random::<f64>() < params.loss;
                    if lost {
                        let counter = metric::LINK_FRAMES_DROPPED;
                        self.pipe.drop_frame(rx_node, journey, counter, DropReason::Loss);
                    }
                    !lost
                });
            }
            if !receivers.is_empty() {
                let tx = self.txs.alloc(seg_id);
                self.txs[tx].receivers = receivers.to_vec();
                self.txs.arm(tx, frame, 1);
                self.pipe.queue.push(self.pipe.now + params.latency, EventKind::RxBatch { tx });
            }
            receivers.clear();
            self.rx_scratch = receivers;
            return;
        }
        // One record for the whole transmission; every surviving
        // receiver's queue entry names it.
        let tx = self.txs.alloc(seg_id);
        let mut pending = 0;
        for &(rx_node, rx_iface) in &receivers {
            if params.loss > 0.0 && self.pipe.rng.random::<f64>() < params.loss {
                let counter = metric::LINK_FRAMES_DROPPED;
                self.pipe.drop_frame(rx_node, journey, counter, DropReason::Loss);
                continue;
            }
            let mut delay = params.latency;
            if params.jitter > SimDuration::ZERO {
                let j = self.pipe.rng.random_range(0..=params.jitter.as_nanos());
                delay += SimDuration::from_nanos(j);
            }
            // Receivers share the record: per-receiver cost is one plain
            // queue entry. Fault-injected corruption is the one case that
            // pays for a private copy: exactly one bit of this receiver's
            // copy is flipped, in a one-receiver record of its own, so the
            // checksum failure is visible to it alone. The corruption
            // draw comes *after* the loss and jitter draws so that runs
            // with `corrupt == 0` consume the RNG identically to builds
            // without fault injection (the determinism goldens pin this).
            let mut copy = tx;
            if params.corrupt > 0.0
                && !frame.payload.is_empty()
                && self.pipe.rng.random::<f64>() < params.corrupt
            {
                let bit = self.pipe.rng.random_range(0..frame.payload.len() * 8);
                let mut bytes = frame.payload.to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                self.pipe.stats.incr_id(metric::LINK_FRAMES_CORRUPTED);
                copy = self.txs.alloc(seg_id);
                self.txs.arm(copy, Frame { payload: Payload::from(bytes), ..frame }, 1);
            } else {
                pending += 1;
            }
            self.pipe.queue.push(self.pipe.now + delay, rx_event(copy, rx_node, rx_iface));
        }
        if pending > 0 {
            self.txs.arm(tx, frame, pending);
        } else {
            // Every copy was lost or corrupted.
            self.txs.release(tx);
        }
        receivers.clear();
        self.rx_scratch = receivers;
    }
}

impl Drop for World {
    fn drop(&mut self) {
        for slot in &mut self.nodes {
            if let Some(ptr) = slot.take() {
                // SAFETY: each pointer came from `self.arena`, is dropped
                // at most once (the slot is taken), and nothing uses it
                // afterwards. The arena itself (a later field) frees the
                // chunk memory after this runs. A node left mid-dispatch
                // by a panicking handler has an empty slot and is leaked
                // rather than double-dropped.
                unsafe { std::ptr::drop_in_place(ptr.as_ptr()) };
            }
        }
    }
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("time", &self.pipe.now)
            .field("nodes", &self.nodes.len())
            .field("segments", &self.segments.len())
            .field("queued_events", &self.pipe.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::frame::EtherType;
    use crate::node::TimerToken;

    /// Counts frames; optionally echoes them back.
    struct Counter {
        rx: usize,
        echo: bool,
        link_events: Vec<(IfaceId, LinkEvent)>,
        reboots: usize,
    }

    impl Counter {
        fn new(echo: bool) -> Counter {
            Counter { rx: 0, echo, link_events: Vec::new(), reboots: 0 }
        }
    }

    impl Node for Counter {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
            self.rx += 1;
            if self.echo && !frame.dst.is_broadcast() {
                // avoid infinite ping-pong: only echo broadcasts once
            }
            if self.echo && frame.dst.is_broadcast() {
                let reply =
                    Frame::new(ctx.mac(iface), frame.src, frame.ethertype, frame.payload.clone());
                ctx.send_frame(iface, reply);
            }
        }
        fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
            self.link_events.push((iface, event));
        }
        fn on_reboot(&mut self, _ctx: &mut Ctx<'_>) {
            self.reboots += 1;
            self.rx = 0;
        }
    }

    /// Sends one broadcast at t=1ms.
    struct Beacon;
    impl Node for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            let f = Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x1234), vec![0xab]);
            ctx.send_frame(IfaceId(0), f);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
    }

    fn two_node_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(1);
        let seg = w.add_segment(SegmentParams::default());
        let beacon = w.add_node(Beacon);
        w.add_iface(beacon, Some(seg));
        let counter = w.add_node(Counter::new(false));
        w.add_iface(counter, Some(seg));
        (w, beacon, counter)
    }

    #[test]
    fn broadcast_delivery_and_latency() {
        let (mut w, _b, c) = two_node_world();
        w.start();
        // Frame sent at 1ms, latency 500us: not delivered at 1.4ms.
        w.run_until(SimTime::from_micros(1400));
        assert_eq!(w.node::<Counter>(c).rx, 0);
        w.run_until(SimTime::from_micros(1501));
        assert_eq!(w.node::<Counter>(c).rx, 1);
        assert_eq!(w.stats().counter("link.frames_sent"), 1);
        assert_eq!(w.stats().counter("link.frames_delivered"), 1);
    }

    #[test]
    fn detached_iface_drops_tx_and_rx() {
        let (mut w, b, c) = two_node_world();
        w.start();
        // Detach the receiver before the beacon fires.
        w.move_iface(c, IfaceId(0), None);
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node::<Counter>(c).rx, 0);
        assert_eq!(w.node::<Counter>(c).link_events, vec![(IfaceId(0), LinkEvent::Detached)]);
        // Detach the sender too; its transmission is counted as tx_detached.
        w.move_iface(b, IfaceId(0), None);
        w.with_node::<Beacon, _>(b, |n, ctx| n.on_timer(ctx, TimerToken(1)));
        assert_eq!(w.stats().counter("link.tx_detached"), 1);
    }

    #[test]
    fn frame_in_flight_is_lost_if_receiver_moves() {
        let (mut w, _b, c) = two_node_world();
        let other = w.add_segment(SegmentParams::default());
        w.start();
        // Beacon fires at 1ms; move receiver at 1.2ms (frame lands at 1.5ms).
        w.run_until(SimTime::from_micros(1200));
        w.move_iface(c, IfaceId(0), Some(other));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node::<Counter>(c).rx, 0);
        assert_eq!(w.stats().counter("link.frames_lost_moved"), 1);
    }

    #[test]
    fn segment_down_blocks_tx() {
        let (mut w, _b, c) = two_node_world();
        w.schedule(
            SimTime::from_micros(500),
            Op::SetSegmentUp { segment: SegmentId(0), up: false },
        );
        w.start();
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node::<Counter>(c).rx, 0);
        assert_eq!(w.stats().counter("link.tx_segment_down"), 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut w = World::new(9);
        let seg = w.add_segment(SegmentParams { loss: 1.0, ..Default::default() });
        let b = w.add_node(Beacon);
        w.add_iface(b, Some(seg));
        let c = w.add_node(Counter::new(false));
        w.add_iface(c, Some(seg));
        w.start();
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node::<Counter>(c).rx, 0);
        assert_eq!(w.stats().counter("link.frames_dropped"), 1);
    }

    #[test]
    fn reboot_fires_handler() {
        let (mut w, _b, c) = two_node_world();
        w.start();
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node::<Counter>(c).rx, 1);
        w.reboot_node(c);
        assert_eq!(w.node::<Counter>(c).reboots, 1);
        assert_eq!(w.node::<Counter>(c).rx, 0);
    }

    #[test]
    fn scheduled_call_runs_at_time() {
        let (mut w, _b, c) = two_node_world();
        w.start();
        w.schedule_script(
            SimTime::from_millis(5),
            c,
            Box::new(move |w, n| {
                assert_eq!(n, c);
                w.stats_mut().incr("script.ran");
            }),
        );
        w.run_until(SimTime::from_millis(4));
        assert_eq!(w.stats().counter("script.ran"), 0);
        w.run_until(SimTime::from_millis(5));
        assert_eq!(w.stats().counter("script.ran"), 1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| -> (u64, u64) {
            let mut w = World::new(seed);
            let seg = w.add_segment(SegmentParams {
                loss: 0.5,
                jitter: SimDuration::from_millis(1),
                ..Default::default()
            });
            let b = w.add_node(Beacon);
            w.add_iface(b, Some(seg));
            let c = w.add_node(Counter::new(false));
            w.add_iface(c, Some(seg));
            w.start();
            w.run_until(SimTime::from_secs(1));
            (w.stats().counter("link.frames_delivered"), w.stats().counter("link.frames_dropped"))
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn unicast_echo_round_trip() {
        let mut w = World::new(3);
        let seg = w.add_segment(SegmentParams::default());
        let b = w.add_node(Beacon);
        w.add_iface(b, Some(seg));
        let e = w.add_node(Counter::new(true));
        w.add_iface(e, Some(seg));
        let c2 = w.add_node(Counter::new(false));
        w.add_iface(c2, Some(seg));
        w.start();
        w.run_until(SimTime::from_secs(1));
        // Echoer got the broadcast and unicast-replied to the beacon only.
        assert_eq!(w.node::<Counter>(e).rx, 1);
        // The third node saw only the broadcast, not the unicast echo.
        assert_eq!(w.node::<Counter>(c2).rx, 1);
    }

    #[test]
    fn iface_metadata_accessors() {
        let (w, b, _c) = two_node_world();
        assert_eq!(w.iface_segment(b, IfaceId(0)), Some(SegmentId(0)));
        assert_eq!(w.iface_mac(b, IfaceId(0)), MacAddr::from_index(0));
        assert_eq!(w.node_count(), 2);
    }

    #[test]
    #[should_panic(expected = "node type mismatch")]
    fn typed_access_panics_on_wrong_type() {
        let (w, b, _c) = two_node_world();
        let _ = w.node::<Counter>(b);
    }

    #[test]
    fn queue_sampling_records_series_at_interval() {
        let (mut w, _b, _c) = two_node_world();
        w.set_queue_sampling(Some(SimDuration::from_millis(100)));
        w.start();
        w.run_until(SimTime::from_millis(450));
        let samples = w.stats().series("sim.queue_depth");
        // First sample one interval after arming: t = 100, 200, 300, 400 ms.
        assert_eq!(samples.len(), 4);
        for (i, &(at, depth)) in samples.iter().enumerate() {
            assert_eq!(at, SimTime::from_millis(100 * (i as u64 + 1)));
            // Depth excludes the just-popped sampler event itself.
            assert!(depth >= 0.0, "depth = {depth}");
        }
        // Turning sampling off stops recording (one stale event may still
        // fire, but it records nothing).
        w.set_queue_sampling(None);
        w.run_until(SimTime::from_millis(1000));
        assert_eq!(w.stats().series("sim.queue_depth").len(), 4);
    }

    #[test]
    fn crash_window_drops_frames_and_timers_then_reboots() {
        let (mut w, _b, c) = two_node_world();
        // Beacon fires at 1ms (lands 1.5ms); crash the counter across
        // that window and give it a pending timer that must be consumed.
        let plan = FaultPlan::new().crash(c, SimTime::from_millis(1), SimDuration::from_millis(2));
        plan.install(&mut w);
        w.start();
        w.with_node::<Counter, _>(c, |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(2), TimerToken(9));
        });
        w.run_until(SimTime::from_micros(1500));
        assert!(w.node_is_down(c));
        w.run_until(SimTime::from_secs(1));
        assert!(!w.node_is_down(c));
        let n = w.node::<Counter>(c);
        assert_eq!(n.rx, 0, "crashed node must not receive frames");
        assert_eq!(n.reboots, 1, "outage must end in a reboot");
        assert_eq!(w.stats().counter("fault.frames_dropped_node_down"), 1);
        assert_eq!(w.stats().counter("fault.timers_dropped_node_down"), 1);
        assert_eq!(w.stats().counter("fault.crashes"), 1);
        assert_eq!(w.stats().counter("world.reboots"), 1);
    }

    #[test]
    fn plain_reboot_ends_a_crash_outage() {
        let (mut w, b, c) = two_node_world();
        let crash = Op::Crash { node: c, down_for: SimDuration::from_secs(10) };
        w.schedule(SimTime::ZERO, crash.fault());
        w.schedule(SimTime::from_secs(1), Op::Reboot { node: c });
        w.start();
        w.run_until(SimTime::from_secs(2));
        assert!(!w.node_is_down(c), "a reboot must end the outage");
        w.with_node::<Beacon, _>(b, |n, ctx| n.on_timer(ctx, TimerToken(1)));
        w.run_until(SimTime::from_secs(3));
        let n = w.node::<Counter>(c);
        assert_eq!((n.rx, n.reboots), (1, 1), "a rebooted node must hear frames again");
        assert_eq!(w.stats().counter("fault.ops_applied"), 1, "the plain reboot is silent");
    }

    #[test]
    fn muted_broadcasts_are_suppressed_but_unicast_passes() {
        let (mut w, b, c) = two_node_world();
        let mute = |muted| Op::SetBroadcastsMuted { node: b, iface: IfaceId(0), muted }.fault();
        w.schedule(SimTime::ZERO, mute(true));
        w.start();
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.node::<Counter>(c).rx, 0);
        assert_eq!(w.stats().counter("fault.tx_muted"), 1);
        // Unicast from the muted interface still goes through.
        let dst = w.iface_mac(c, IfaceId(0));
        w.with_node::<Beacon, _>(b, |_n, ctx| {
            let f = Frame::new(ctx.mac(IfaceId(0)), dst, EtherType::Other(0x1234), vec![1]);
            ctx.send_frame(IfaceId(0), f);
        });
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.node::<Counter>(c).rx, 1);
        w.schedule(w.now(), mute(false));
        w.run_until(w.now()); // apply the unmute before transmitting
        w.with_node::<Beacon, _>(b, |n, ctx| n.on_timer(ctx, TimerToken(1)));
        w.run_until(SimTime::from_secs(3));
        assert_eq!(w.node::<Counter>(c).rx, 2, "unmuted broadcast must deliver");
    }

    #[test]
    fn latency_spike_applies_and_restores() {
        let (mut w, _b, c) = two_node_world();
        // Spike covers the 1ms beacon: delivery at 1ms + (500us + 10ms).
        let spike = Op::LatencySpike {
            segment: SegmentId(0),
            extra: SimDuration::from_millis(10),
            duration: SimDuration::from_millis(5),
        };
        w.schedule(SimTime::ZERO, spike.fault());
        w.start();
        w.run_until(SimTime::from_millis(11));
        assert_eq!(w.node::<Counter>(c).rx, 0, "spiked latency must delay delivery");
        w.run_until(SimTime::from_micros(11_500));
        assert_eq!(w.node::<Counter>(c).rx, 1);
        // After the spike window the base latency is restored.
        w.with_node::<Beacon, _>(_b, |n, ctx| n.on_timer(ctx, TimerToken(1)));
        let sent_at = w.now();
        w.run_until(sent_at + SimDuration::from_micros(600));
        assert_eq!(w.node::<Counter>(c).rx, 2, "latency must be restored after the spike");
    }

    #[test]
    fn corruption_flips_exactly_one_bit_per_corrupted_copy() {
        struct Keeper {
            got: Vec<Vec<u8>>,
        }
        impl Node for Keeper {
            fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, f: &Frame) {
                self.got.push(f.payload.to_vec());
            }
        }

        let mut w = World::new(11);
        let seg = w.add_segment(SegmentParams::default());
        let b = w.add_node(Beacon);
        w.add_iface(b, Some(seg));
        let k = w.add_node(Keeper { got: Vec::new() });
        w.add_iface(k, Some(seg));
        let corrupt = Op::SetSegmentCorruption { segment: seg, probability: 1.0 };
        w.schedule(SimTime::ZERO, corrupt.fault());
        w.start();
        w.run_until(SimTime::from_secs(1));
        let got = &w.node::<Keeper>(k).got;
        assert_eq!(got.len(), 1);
        // The beacon payload is [0xab]; exactly one bit differs.
        let diff: u32 = (got[0][0] ^ 0xab).count_ones();
        assert_eq!(diff, 1, "corruption must flip exactly one bit");
        assert_eq!(w.stats().counter("link.frames_corrupted"), 1);
    }

    #[test]
    fn fault_plan_runs_are_byte_identical() {
        let run = |seed: u64| -> (Vec<telemetry::Event>, Vec<(String, u64)>) {
            let mut w = World::new(seed);
            let seg = w.add_segment(SegmentParams {
                loss: 0.2,
                jitter: SimDuration::from_millis(1),
                ..Default::default()
            });
            let b = w.add_node(Beacon);
            w.add_iface(b, Some(seg));
            let c = w.add_node(Counter::new(true));
            w.add_iface(c, Some(seg));
            w.set_telemetry(true);
            let plan = FaultPlan::new()
                .flap(
                    seg,
                    SimTime::from_micros(900),
                    SimDuration::from_micros(50),
                    SimDuration::from_micros(50),
                    3,
                )
                .op(
                    SimTime::from_micros(950),
                    Op::SetSegmentCorruption { segment: seg, probability: 0.5 },
                )
                .crash(c, SimTime::from_millis(2), SimDuration::from_millis(1));
            plan.install(&mut w);
            // The first beacon falls into a flap; these land on either
            // side of the crash, past the loss, jitter and corruption draws.
            for i in 0..8 {
                w.schedule_script(
                    SimTime::from_micros(1_200 + 400 * i),
                    b,
                    Box::new(|w, b| {
                        w.with_node::<Beacon, _>(b, |n, ctx| n.on_timer(ctx, TimerToken(1)));
                    }),
                );
            }
            w.start();
            w.run_until(SimTime::from_secs(1));
            let events = w.telemetry().events().copied().collect();
            let counters = w.stats().counters().map(|(n, v)| (n.to_owned(), v)).collect();
            (events, counters)
        };
        let (events, counters) = run(1994);
        if cfg!(feature = "telemetry") {
            // Never compare two empty logs: every kind of record the run
            // exercises is in there.
            use telemetry::EventKind as K;
            let has = |want: fn(&K) -> bool| events.iter().any(|e| want(&e.kind));
            assert!(has(|k| matches!(k, K::Fault { .. })), "no Fault event");
            assert!(has(|k| matches!(k, K::FrameRx { .. })), "no FrameRx event");
            assert!(has(|k| matches!(k, K::Timer { .. })), "no Timer event");
            assert!(has(|k| matches!(k, K::FrameDrop { .. })), "no FrameDrop event");
        } else {
            assert!(events.is_empty());
        }
        assert_eq!((events, counters), run(1994));
    }

    /// Arms one far-future timer on start; relays every frame received
    /// on interface 0 out of interface 1 to `next_hop`.
    struct Relay {
        next_hop: MacAddr,
    }
    impl Node for Relay {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(1));
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
            if iface == IfaceId(0) {
                let out = IfaceId(1);
                let fwd =
                    Frame::new(ctx.mac(out), self.next_hop, frame.ethertype, frame.payload.clone());
                ctx.send_frame(out, fwd);
            }
        }
    }

    #[test]
    fn burst_after_idle_gap_schedules_ahead_of_the_cursor() {
        // The only pending event is the relay's timer at 1 s. Running to
        // 10 ms crosses an idle gap; if the run loop's final look at the
        // queue staged that timer's batch, the cursor would sit at 1 s
        // and every send of the burst below — and every forwarding hop
        // after it — would merge into the batch under it, stepping over
        // all the sends before it: ~N²/2 steps per hop.
        const N: u64 = 2_000;
        let mut w = World::new(5);
        let a = w.add_segment(SegmentParams::default());
        let b = w.add_segment(SegmentParams::default());
        let src = w.add_node(Counter::new(false));
        w.add_iface(src, Some(a));
        let sink = w.add_node(Counter::new(false));
        w.add_iface(sink, Some(b));
        let relay = w.add_node(Relay { next_hop: w.iface_mac(sink, IfaceId(0)) });
        w.add_iface(relay, Some(a));
        w.add_iface(relay, Some(b));
        w.start();
        w.run_until(SimTime::from_millis(10));
        let relay_mac = w.iface_mac(relay, IfaceId(0));
        w.with_node::<Counter, _>(src, |_, ctx| {
            for _ in 0..N {
                let f =
                    Frame::new(ctx.mac(IfaceId(0)), relay_mac, EtherType::Other(0x1234), vec![0]);
                ctx.send_frame(IfaceId(0), f);
            }
        });
        w.run_until(SimTime::from_secs(2));
        assert_eq!(w.node::<Counter>(sink).rx as u64, N);
        let steps = w.stats().counter("sim.sched.late_scan_steps");
        assert!(steps <= N, "{steps} late scan steps for a burst of {N}");
    }

    #[test]
    fn jittered_broadcasts_in_flight_cost_one_record_each() {
        // N broadcasts onto a jittered cell of R receivers put N × R
        // entries in the queue — and N records, each holding the only
        // reference to its payload, not N × R frame copies.
        const N: usize = 40;
        const R: usize = 25;
        let mut w = World::new(3);
        let cell = w.add_segment(SegmentParams {
            jitter: SimDuration::from_millis(1),
            ..Default::default()
        });
        let sender = w.add_node(Counter::new(false));
        w.add_iface(sender, Some(cell));
        let receivers: Vec<NodeId> = (0..R)
            .map(|_| {
                let id = w.add_node(Counter::new(false));
                w.add_iface(id, Some(cell));
                id
            })
            .collect();
        w.start();
        w.with_node::<Counter, _>(sender, |_, ctx| {
            for i in 0..N {
                let f =
                    Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x1234), vec![i as u8]);
                ctx.send_frame(IfaceId(0), f);
            }
        });
        assert_eq!(w.queue_len(), N * R);
        assert_eq!(w.transmissions_in_flight(), N);
        for tx in 0..N as u32 {
            let t = &w.txs[tx];
            assert_eq!(t.pending as usize, R);
            assert_eq!(t.frame.as_ref().expect("armed").payload.ref_count(), 1);
        }
        // Halfway through the arrivals every record is still one record.
        w.run_until(SimTime::from_micros(1_000));
        assert!(w.queue_len() > 0 && w.queue_len() < N * R);
        assert!(w.transmissions_in_flight() <= N);
        w.run_until(SimTime::from_secs(1));
        for &id in &receivers {
            assert_eq!(w.node::<Counter>(id).rx, N);
        }
        // The last arrival of each freed its record and dropped its frame.
        assert_eq!(w.transmissions_in_flight(), 0);
        assert!((0..N as u32).all(|tx| w.txs[tx].frame.is_none()));
    }

    #[test]
    fn drained_broadcast_batches_leave_no_receiver_lists() {
        // N zero-jitter broadcasts onto a cell of R receivers are N batch
        // entries whose records list every receiver. Once the burst has
        // been delivered, the freed records hold no list capacity.
        const N: usize = 40;
        const R: usize = 125;
        let mut w = World::new(5);
        let cell = w.add_segment(SegmentParams::default());
        let sender = w.add_node(Counter::new(false));
        w.add_iface(sender, Some(cell));
        for _ in 0..R {
            let id = w.add_node(Counter::new(false));
            w.add_iface(id, Some(cell));
        }
        w.start();
        w.with_node::<Counter, _>(sender, |_, ctx| {
            for i in 0..N {
                let f =
                    Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x1234), vec![i as u8]);
                ctx.send_frame(IfaceId(0), f);
            }
        });
        assert_eq!(w.queue_len(), N);
        assert!((0..N as u32).all(|tx| w.txs[tx].receivers.len() == R));
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.stats().counter("link.frames_delivered"), (N * R) as u64);
        assert_eq!(w.transmissions_in_flight(), 0);
        let lists: usize = (0..N as u32).map(|tx| w.txs[tx].receivers.capacity()).sum();
        assert_eq!(lists, 0, "freed records kept {lists} slots of receiver lists");
    }

    #[test]
    fn queue_sampling_reenable_does_not_double_schedule() {
        let (mut w, _b, _c) = two_node_world();
        w.set_queue_sampling(Some(SimDuration::from_millis(100)));
        // Re-arming with a new interval must not stack a second sampler:
        // the already-scheduled event (t=100) fires once, then the new
        // cadence takes over (t=300). A stacked sampler would also record
        // at t=200 and t=400.
        w.set_queue_sampling(Some(SimDuration::from_millis(200)));
        w.start();
        w.run_until(SimTime::from_millis(450));
        let times: Vec<_> = w.stats().series("sim.queue_depth").iter().map(|s| s.0).collect();
        assert_eq!(times, vec![SimTime::from_millis(100), SimTime::from_millis(300)]);
    }
}
