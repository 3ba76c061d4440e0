//! Conservative parallel simulation: region-owned shards exchanging
//! cross-shard frames at barrier windows.
//!
//! A [`ShardedWorld`] is a set of ordinary [`World`]s — the *shards* —
//! each owning a disjoint set of nodes and segments (its own event wheel,
//! node arena, RNG, statistics and telemetry log), plus a handful of
//! *portal* segments replicated into every shard that has attachments on
//! them. The hierarchy generator maps this directly: every region is a
//! shard, and the backbone is the one portal.
//!
//! # Execution model
//!
//! The coordinator runs classic conservative (CMB-style) windows. Let `L`
//! be the **lookahead**: the minimum latency over all portal segments.
//! Execution alternates:
//!
//! 1. **Window** — every shard independently runs `run_until(barrier +
//!    L)`. Shards share nothing, so windows run on scoped worker threads
//!    (or sequentially — the result is identical by construction).
//! 2. **Exchange** — each shard drains its egress mailbox (frames it
//!    transmitted onto a portal during the window). The coordinator sorts
//!    the union by `(arrival time, source shard, per-shard send order)`
//!    and injects each frame into every *other* replica of its portal.
//!
//! This is safe because a frame sent onto a portal at time `t` arrives at
//! `t + latency ≥ t + L`, which is strictly after the barrier that closes
//! the window containing `t` — no shard can ever receive an event in its
//! past, so no rollback machinery (Time Warp) is needed. See DESIGN.md
//! §10 for the derivation and the determinism argument.
//!
//! # Determinism
//!
//! Within one shard, execution is the ordinary sequential `(time, seq)`
//! order. Across shards, the exchange order above is a pure function of
//! the simulation content, so replays are byte-identical regardless of
//! whether windows ran on threads. Comparing runs *across shard counts*
//! uses [`ShardedWorld::merged_events`], which normalizes the per-shard
//! telemetry logs into one canonical stream (global node ids, journeys
//! renumbered by first appearance).

use std::collections::HashMap;

use crate::faults::{FaultOp, FaultPlan};
use crate::id::{IfaceId, MacAddr, NodeId, PortalId, SegmentId};
use crate::node::Ctx;
use crate::segment::SegmentParams;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::world::{AdminOp, EgressFrame, World};
use crate::Node;
use telemetry::{Event, EventKind, FaultKind, JourneyId};

/// The surface shared by [`World`] and [`ShardedWorld`]: everything a
/// scenario driver (soak harness, mobility plan, experiment script)
/// needs to run a simulation without caring how it executes.
///
/// Generic drivers take `W: SimWorld` and work unchanged on both; code
/// that needs world-building or fault-injection APIs keeps the concrete
/// type.
pub trait SimWorld {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Processes all events up to and including `t`, then advances the
    /// clock to `t`.
    fn run_until(&mut self, t: SimTime);

    /// Runs for `d` of simulated time from now.
    fn run_for(&mut self, d: SimDuration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Typed shared access to a node.
    fn node<T: 'static>(&self, id: NodeId) -> &T;

    /// Runs `f` with typed mutable access to a node and a live [`Ctx`].
    fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R;

    /// Schedules an [`AdminOp`] at absolute time `at`.
    fn schedule_admin(&mut self, at: SimTime, op: AdminOp);

    /// A named counter's value (summed over shards for sharded worlds).
    fn counter(&self, name: &str) -> u64;

    /// Total events processed since creation (summed over shards).
    fn events_processed(&self) -> u64;
}

impl SimWorld for World {
    fn now(&self) -> SimTime {
        World::now(self)
    }
    fn run_until(&mut self, t: SimTime) {
        World::run_until(self, t);
    }
    fn node<T: 'static>(&self, id: NodeId) -> &T {
        World::node(self, id)
    }
    fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        World::with_node(self, id, f)
    }
    fn schedule_admin(&mut self, at: SimTime, op: AdminOp) {
        World::schedule_admin(self, at, op);
    }
    fn counter(&self, name: &str) -> u64 {
        self.stats().counter(name)
    }
    fn events_processed(&self) -> u64 {
        World::events_processed(self)
    }
}

/// Journey-id namespace stride: shard `s` mints ids above `s << 40`, so
/// concurrent mints on different shards never collide (2^40 journeys per
/// shard before overlap — far beyond the telemetry ring's horizon).
const JOURNEY_SHARD_SHIFT: u32 = 40;

/// A [`World`] wrapped for transfer to a worker thread.
///
/// `World` is not auto-`Send` only because node state lives behind
/// `NonNull<dyn Node>` arena pointers. Those pointees are `dyn Node`,
/// and [`Node`] requires `Send`; every pointer targets memory owned
/// exclusively by this world's arena, and nothing else ever aliases it.
/// All remaining fields (`StdRng`, queues, stats, telemetry, pools) are
/// ordinary owned data. Moving the whole cell between threads is
/// therefore sound.
struct ShardCell(World);

// SAFETY: see the `ShardCell` doc comment — the only non-Send fields are
// arena pointers to `dyn Node` (a `Send` trait object) owned exclusively
// by this cell's own arena.
unsafe impl Send for ShardCell {}

/// Where a global segment id lives.
#[derive(Debug, Clone, Copy)]
enum SegLoc {
    /// An ordinary segment owned by one shard.
    Local {
        shard: u32,
        seg: SegmentId,
    },
    Portal(PortalId),
}

/// One physical portal segment and its per-shard replicas.
#[derive(Debug)]
struct PortalInfo {
    /// `(shard, local segment id)` of every replica, in shard order.
    replicas: Vec<(u32, SegmentId)>,
}

/// A parallel simulation world: shard-owned [`World`]s coordinated by a
/// conservative barrier scheduler (see the [module docs](self)).
///
/// The builder API mirrors [`World`] with an explicit home shard per
/// node/segment; ids handed out are *global* and translated internally.
/// A `ShardedWorld` with one shard behaves exactly like the `World` it
/// wraps (no portals are created, so the exchange machinery never runs).
pub struct ShardedWorld {
    cells: Vec<ShardCell>,
    time: SimTime,
    started: bool,
    /// Global node id → (owning shard, shard-local id).
    node_loc: Vec<(u32, NodeId)>,
    /// Per shard: shard-local node id → global node id.
    node_global: Vec<Vec<u32>>,
    /// Global segment id → location.
    seg_loc: Vec<SegLoc>,
    portals: Vec<PortalInfo>,
    /// Global MAC counter: addresses are assigned in world-build order,
    /// independent of the shard count (the determinism contract).
    mac_counter: u64,
    /// Minimum portal latency; `None` until a portal exists (then runs
    /// execute as one window).
    lookahead: Option<SimDuration>,
    /// Run windows on scoped threads (true by default on multi-core
    /// hosts). Execution mode never changes results.
    parallel: bool,
    /// Barrier windows executed (diagnostics).
    windows: u64,
    exchange_scratch: Vec<(u32, EgressFrame)>,
}

impl ShardedWorld {
    /// Creates a world of `shards` empty shards.
    ///
    /// Shard 0 is seeded with exactly `seed` (a 1-shard world replays a
    /// classic `World::new(seed)` bit-for-bit); shard `i` derives its RNG
    /// stream as `seed + i * GOLDEN_GAMMA`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(seed: u64, shards: usize) -> ShardedWorld {
        assert!(shards >= 1, "a sharded world needs at least one shard");
        let cells = (0..shards)
            .map(|i| {
                ShardCell(World::new(
                    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ))
            })
            .collect();
        ShardedWorld {
            cells,
            time: SimTime::ZERO,
            started: false,
            node_loc: Vec::new(),
            node_global: vec![Vec::new(); shards],
            seg_loc: Vec::new(),
            portals: Vec::new(),
            mac_counter: 0,
            lookahead: None,
            parallel: std::thread::available_parallelism().map(|n| n.get() > 1).unwrap_or(false),
            windows: 0,
            exchange_scratch: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The barrier lookahead (minimum portal latency), once a portal
    /// exists.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Barrier windows executed so far (diagnostics; 0 before the first
    /// run).
    pub fn windows_run(&self) -> u64 {
        self.windows
    }

    /// Forces windows to run sequentially (`false`) or on scoped worker
    /// threads (`true`). The default probes the host's parallelism.
    /// Execution mode never affects results — flipping this is a cheap
    /// way to bisect a suspected determinism bug.
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Read access to one shard's underlying [`World`] (diagnostics,
    /// per-shard stats and telemetry).
    pub fn shard(&self, shard: usize) -> &World {
        &self.cells[shard].0
    }

    /// Unwraps a one-shard world into the [`World`] it wraps. With one
    /// shard, global and shard-local ids coincide and no portal exists,
    /// so every id the builder handed out stays valid and the world runs
    /// exactly as it would have under the coordinator.
    ///
    /// # Panics
    ///
    /// Panics if the world has more than one shard.
    pub fn into_world(self) -> World {
        assert_eq!(self.cells.len(), 1, "only a one-shard world unwraps into a World");
        let ShardCell(world) = self.cells.into_iter().next().expect("one shard");
        world
    }

    /// Adds an ordinary segment owned by `shard`. Returns a global id.
    pub fn add_segment(&mut self, shard: usize, params: SegmentParams) -> SegmentId {
        let local = self.cells[shard].0.add_segment(params);
        let id = SegmentId(self.seg_loc.len());
        self.seg_loc.push(SegLoc::Local { shard: shard as u32, seg: local });
        id
    }

    /// Adds a portal segment replicated into every shard in `shards`
    /// (deduplicated; order is normalized). Returns a global id.
    ///
    /// With a single distinct shard this degenerates to an ordinary local
    /// segment — which is why a 1-shard world carries zero portal
    /// overhead and replays the classic path exactly.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, or (with ≥ 2 distinct shards) if
    /// `params` is not deterministic — portals need fixed latency and no
    /// jitter/loss/corruption, both for the lookahead bound and because
    /// arrivals are replayed into other shards without re-drawing
    /// randomness.
    pub fn add_portal_segment(&mut self, params: SegmentParams, shards: &[usize]) -> SegmentId {
        let mut list: Vec<usize> = shards.to_vec();
        list.sort_unstable();
        list.dedup();
        assert!(!list.is_empty(), "portal needs at least one shard");
        if list.len() == 1 {
            return self.add_segment(list[0], params);
        }
        let portal = PortalId(self.portals.len());
        let mut replicas = Vec::with_capacity(list.len());
        for &s in &list {
            let local = self.cells[s].0.add_segment(params);
            self.cells[s].0.mark_portal(local, portal);
            replicas.push((s as u32, local));
        }
        self.portals.push(PortalInfo { replicas });
        self.lookahead = Some(self.lookahead.map_or(params.latency, |l| l.min(params.latency)));
        let id = SegmentId(self.seg_loc.len());
        self.seg_loc.push(SegLoc::Portal(portal));
        id
    }

    /// Adds a node owned by `shard`. Returns a global id (assigned in
    /// call order, independent of the shard count).
    #[inline]
    pub fn add_node(&mut self, shard: usize, node: impl Node) -> NodeId {
        let local = self.cells[shard].0.add_node(node);
        let id = NodeId(self.node_loc.len());
        self.node_loc.push((shard as u32, local));
        self.node_global[shard].push(id.0 as u32);
        id
    }

    /// Adds an interface to `node`, optionally attached to a (global)
    /// segment. MAC addresses come from one global counter, so a node
    /// keeps the same address no matter how the world is sharded.
    ///
    /// # Panics
    ///
    /// Panics if `segment` is a local segment of a different shard, or a
    /// portal without a replica in the node's shard.
    #[inline]
    pub fn add_iface(&mut self, node: NodeId, segment: Option<SegmentId>) -> (IfaceId, MacAddr) {
        let (shard, local_node) = self.node_loc[node.0];
        let local_seg = segment.map(|s| self.seg_in_shard(s, shard));
        let mac_index = self.mac_counter;
        self.mac_counter += 1;
        self.cells[shard as usize].0.add_iface_with_mac(local_node, local_seg, mac_index)
    }

    /// Hints the expected steady-state event population *per shard* (see
    /// [`World::reserve_events`]).
    pub fn reserve_events(&mut self, per_shard: usize) {
        for cell in &mut self.cells {
            cell.0.reserve_events(per_shard);
        }
    }

    /// Runs every node's `on_start`, shard by shard, then exchanges any
    /// portal egress the start handlers produced. Call exactly once.
    pub fn start(&mut self) {
        assert!(!self.started, "ShardedWorld::start called twice");
        self.started = true;
        for cell in &mut self.cells {
            cell.0.start();
        }
        self.exchange();
    }

    /// Enables or disables structured telemetry on every shard. Each
    /// shard's log mints journey ids in its own namespace
    /// (`shard << 40`); [`ShardedWorld::merged_events`] renumbers them
    /// into one dense canonical sequence.
    pub fn set_telemetry(&mut self, enabled: bool) {
        for (i, cell) in self.cells.iter_mut().enumerate() {
            cell.0.set_telemetry(enabled);
            cell.0.telemetry_mut().set_journey_base((i as u64) << JOURNEY_SHARD_SHIFT);
        }
    }

    /// Re-sizes every shard's telemetry ring (see
    /// [`World::set_telemetry_capacity`]).
    pub fn set_telemetry_capacity(&mut self, events_per_shard: usize) {
        for cell in &mut self.cells {
            cell.0.set_telemetry_capacity(events_per_shard);
        }
    }

    /// Whether `node` is currently crashed by a fault.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        let (shard, local) = self.node_loc[node.0];
        self.cells[shard as usize].0.node_is_down(local)
    }

    /// Compiles a [`FaultPlan`] onto the shards, translating each
    /// operation to its owning shard (see [`ShardedWorld::schedule_fault`]
    /// for the rules).
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for (at, op) in plan.ops() {
            self.schedule_fault(*at, op.clone());
        }
    }

    /// Schedules one [`FaultOp`], translated to the owning shard:
    ///
    /// * node-scoped ops go to the node's shard;
    /// * local-segment ops go to the segment's shard;
    /// * portal `SegmentDown`/`SegmentUp` apply the real fault on the
    ///   first replica (one telemetry event and one `fault.ops_applied`
    ///   count, exactly like a single world) and mirror the up/down state
    ///   silently onto the other replicas.
    ///
    /// # Panics
    ///
    /// Panics for latency/loss/corruption faults on a portal: they would
    /// invalidate the lookahead bound or desynchronize the replicas'
    /// RNG-free replay. Partition the hierarchy with portal
    /// `SegmentDown` instead.
    pub fn schedule_fault(&mut self, at: SimTime, op: FaultOp) {
        match op {
            FaultOp::SegmentDown { segment } | FaultOp::SegmentUp { segment } => {
                let up = matches!(op, FaultOp::SegmentUp { .. });
                match self.seg_loc[segment.0] {
                    SegLoc::Local { shard, seg } => {
                        let op = if up {
                            FaultOp::SegmentUp { segment: seg }
                        } else {
                            FaultOp::SegmentDown { segment: seg }
                        };
                        self.cells[shard as usize].0.schedule_fault(at, op);
                    }
                    SegLoc::Portal(p) => {
                        for (i, &(shard, seg)) in self.portals[p.0].replicas.iter().enumerate() {
                            if i == 0 {
                                let op = if up {
                                    FaultOp::SegmentUp { segment: seg }
                                } else {
                                    FaultOp::SegmentDown { segment: seg }
                                };
                                self.cells[shard as usize].0.schedule_fault(at, op);
                            } else {
                                self.cells[shard as usize]
                                    .0
                                    .schedule_admin(at, AdminOp::SetSegmentUp { segment: seg, up });
                            }
                        }
                    }
                }
            }
            FaultOp::SetSegmentLoss { segment, loss } => {
                let (shard, seg) = self.local_seg_only(segment, "SetSegmentLoss");
                self.cells[shard]
                    .0
                    .schedule_fault(at, FaultOp::SetSegmentLoss { segment: seg, loss });
            }
            FaultOp::SetSegmentLatency { segment, latency } => {
                let (shard, seg) = self.local_seg_only(segment, "SetSegmentLatency");
                self.cells[shard]
                    .0
                    .schedule_fault(at, FaultOp::SetSegmentLatency { segment: seg, latency });
            }
            FaultOp::LatencySpike { segment, extra, duration } => {
                let (shard, seg) = self.local_seg_only(segment, "LatencySpike");
                self.cells[shard]
                    .0
                    .schedule_fault(at, FaultOp::LatencySpike { segment: seg, extra, duration });
            }
            FaultOp::SetSegmentCorruption { segment, probability } => {
                let (shard, seg) = self.local_seg_only(segment, "SetSegmentCorruption");
                self.cells[shard].0.schedule_fault(
                    at,
                    FaultOp::SetSegmentCorruption { segment: seg, probability },
                );
            }
            FaultOp::DetachIface { node, iface } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize]
                    .0
                    .schedule_fault(at, FaultOp::DetachIface { node: local, iface });
            }
            FaultOp::AttachIface { node, iface, segment } => {
                let (shard, local) = self.node_loc[node.0];
                let seg = self.seg_in_shard(segment, shard);
                self.cells[shard as usize]
                    .0
                    .schedule_fault(at, FaultOp::AttachIface { node: local, iface, segment: seg });
            }
            FaultOp::Crash { node, down_for } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize]
                    .0
                    .schedule_fault(at, FaultOp::Crash { node: local, down_for });
            }
            FaultOp::Reboot { node } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize].0.schedule_fault(at, FaultOp::Reboot { node: local });
            }
            FaultOp::MuteBroadcasts { node, iface } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize]
                    .0
                    .schedule_fault(at, FaultOp::MuteBroadcasts { node: local, iface });
            }
            FaultOp::UnmuteBroadcasts { node, iface } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize]
                    .0
                    .schedule_fault(at, FaultOp::UnmuteBroadcasts { node: local, iface });
            }
        }
    }

    /// A merged copy of every shard's statistics (counters summed,
    /// series and histograms concatenated per name).
    pub fn merged_stats(&self) -> Stats {
        let mut out = Stats::new();
        for cell in &self.cells {
            out.merge(cell.0.stats());
        }
        out
    }

    /// The canonical cross-shard telemetry stream: every shard's typed
    /// events with node ids translated to global ids, sorted by
    /// `(time, node, kind)` — stable, so same-key events keep their
    /// per-shard log order — with journey ids renumbered densely by
    /// first appearance.
    ///
    /// Two runs of the same scenario produce identical streams across
    /// *any* shard count, provided the scenario itself is shard-count
    /// neutral (no segment jitter/loss on traffic paths, and no node
    /// draws from the per-shard RNG). The determinism proptests pin
    /// this for the hierarchy worlds.
    pub fn merged_events(&self) -> Vec<Event> {
        let mut keyed: Vec<((u64, u32, u32), Event)> = Vec::new();
        for (si, cell) in self.cells.iter().enumerate() {
            for ev in cell.0.telemetry().events() {
                let mut ev = *ev;
                if let Some(local) = ev.node {
                    ev.node = Some(self.node_global[si][local as usize]);
                }
                keyed.push(((ev.at_nanos, ev.node.unwrap_or(u32::MAX), kind_rank(&ev.kind)), ev));
            }
        }
        keyed.sort_by_key(|&(k, _)| k);
        let mut renumber: HashMap<u64, u64> = HashMap::new();
        let mut next = 0u64;
        let mut out = Vec::with_capacity(keyed.len());
        for (_, mut ev) in keyed {
            if let Some(j) = ev.journey {
                let id = *renumber.entry(j.0).or_insert_with(|| {
                    next += 1;
                    next
                });
                ev.journey = Some(JourneyId(id));
            }
            out.push(ev);
        }
        out
    }

    /// Runs all shards to `t` in conservative barrier windows (see the
    /// [module docs](self)).
    ///
    /// With parallel execution on, one set of worker threads is spawned
    /// up front and persists across every window of this call — windows
    /// are often tiny (one lookahead), so per-window spawns would
    /// dominate. Sequential and threaded modes drive the identical
    /// barrier loop (`drive_windows`) and produce identical
    /// results: shards share no state inside a window.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(self.started, "call ShardedWorld::start before running");
        if self.parallel && self.cells.len() > 1 {
            self.run_until_threaded(t);
        } else {
            self.drive_windows(t, |cells, end| {
                for cell in cells.iter_mut() {
                    cell.0.run_until(end);
                }
            });
        }
    }

    /// The barrier loop shared by sequential and threaded execution:
    /// pick the window end (min of lookahead and the target), let `run`
    /// advance every shard to it, then drain the cross-shard mailboxes
    /// at the barrier.
    fn drive_windows(&mut self, t: SimTime, mut run: impl FnMut(&mut Vec<ShardCell>, SimTime)) {
        loop {
            let end = match self.lookahead {
                Some(l) if self.time + l < t => self.time + l,
                _ => t,
            };
            run(&mut self.cells, end);
            self.exchange();
            self.windows += 1;
            if end >= t {
                self.time = t.max(self.time);
                return;
            }
            self.time = end;
        }
    }

    /// Threaded window execution on persistent workers: each shard gets
    /// one worker for the whole call, cells travel to their worker and
    /// back through channels each window (a send/recv pair, not a thread
    /// spawn), and the barrier holds because the driver collects all
    /// `cells.len()` completions before exchanging.
    fn run_until_threaded(&mut self, t: SimTime) {
        let n = self.cells.len();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, ShardCell)>();
        std::thread::scope(|s| {
            let mut work_txs = Vec::with_capacity(n);
            for i in 0..n {
                let (tx, rx) = std::sync::mpsc::channel::<(ShardCell, SimTime)>();
                work_txs.push(tx);
                let done = done_tx.clone();
                s.spawn(move || {
                    while let Ok((mut cell, end)) = rx.recv() {
                        cell.0.run_until(end);
                        if done.send((i, cell)).is_err() {
                            return;
                        }
                    }
                });
            }
            self.drive_windows(t, |cells, end| {
                for (i, cell) in cells.drain(..).enumerate() {
                    work_txs[i].send((cell, end)).expect("shard worker alive");
                }
                let mut returned: Vec<Option<ShardCell>> = (0..n).map(|_| None).collect();
                for _ in 0..n {
                    let (i, cell) = done_rx.recv().expect("shard worker alive");
                    returned[i] = Some(cell);
                }
                cells.extend(returned.into_iter().map(|c| c.expect("one cell per worker")));
            });
            // Closing the work channels ends the workers' recv loops so
            // the scope can join them.
            drop(work_txs);
        });
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.time + d;
        self.run_until(t);
    }

    /// Current simulated time (the last barrier every shard reached).
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.cells.iter().map(|c| c.0.events_processed()).sum()
    }

    /// A named counter summed across all shards.
    pub fn counter(&self, name: &str) -> u64 {
        self.cells.iter().map(|c| c.0.stats().counter(name)).sum()
    }

    /// Typed shared access to a node (global id).
    pub fn node<T: 'static>(&self, id: NodeId) -> &T {
        let (shard, local) = self.node_loc[id.0];
        self.cells[shard as usize].0.node(local)
    }

    /// Runs `f` with typed mutable access to a node and a live [`Ctx`]
    /// on its owning shard, then exchanges any portal egress the handler
    /// produced (so script-driven sends cross shards without waiting for
    /// the next barrier).
    pub fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let (shard, local) = self.node_loc[id.0];
        let out = self.cells[shard as usize].0.with_node(local, f);
        self.exchange();
        out
    }

    /// Schedules an [`AdminOp`] (global ids), translated to the owning
    /// shard. Portal segments accept only `SetSegmentUp` (mirrored onto
    /// every replica).
    ///
    /// # Panics
    ///
    /// Panics on `AdminOp::Call` (a script closure cannot run against
    /// one shard and still observe the whole world — use the node-scoped
    /// `AdminOp::CallNode`, which is routed to the owning shard with the
    /// node id rewritten to the shard-local one), on cross-shard
    /// `MoveIface` (shard migration is unsupported; keep
    /// mobility region-confined), and on `SetSegmentLoss` for a portal.
    pub fn schedule_admin(&mut self, at: SimTime, op: AdminOp) {
        match op {
            AdminOp::MoveIface { node, iface, segment } => {
                let (shard, local) = self.node_loc[node.0];
                let seg = self.seg_in_shard(segment, shard);
                self.cells[shard as usize]
                    .0
                    .schedule_admin(at, AdminOp::MoveIface { node: local, iface, segment: seg });
            }
            AdminOp::DetachIface { node, iface } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize]
                    .0
                    .schedule_admin(at, AdminOp::DetachIface { node: local, iface });
            }
            AdminOp::SetSegmentUp { segment, up } => match self.seg_loc[segment.0] {
                SegLoc::Local { shard, seg } => {
                    self.cells[shard as usize]
                        .0
                        .schedule_admin(at, AdminOp::SetSegmentUp { segment: seg, up });
                }
                SegLoc::Portal(p) => {
                    for &(shard, seg) in &self.portals[p.0].replicas {
                        self.cells[shard as usize]
                            .0
                            .schedule_admin(at, AdminOp::SetSegmentUp { segment: seg, up });
                    }
                }
            },
            AdminOp::SetSegmentLoss { segment, loss } => {
                let (shard, seg) = self.local_seg_only(segment, "SetSegmentLoss");
                self.cells[shard]
                    .0
                    .schedule_admin(at, AdminOp::SetSegmentLoss { segment: seg, loss });
            }
            AdminOp::Reboot { node } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize].0.schedule_admin(at, AdminOp::Reboot { node: local });
            }
            AdminOp::Call(_) => {
                panic!(
                    "AdminOp::Call is not supported on a ShardedWorld: a script closure \
                        would see one shard, not the world"
                )
            }
            AdminOp::CallNode { node, script } => {
                let (shard, local) = self.node_loc[node.0];
                self.cells[shard as usize]
                    .0
                    .schedule_admin(at, AdminOp::CallNode { node: local, script });
            }
        }
    }

    /// Resolves a global segment to its id inside `shard` (a local
    /// segment owned by that shard, or that shard's portal replica).
    fn seg_in_shard(&self, segment: SegmentId, shard: u32) -> SegmentId {
        match self.seg_loc[segment.0] {
            SegLoc::Local { shard: s, seg } => {
                assert!(
                    s == shard,
                    "segment {segment} is owned by shard {s}, not shard {shard} \
                     (cross-shard attachment is unsupported — keep mobility region-confined)"
                );
                seg
            }
            SegLoc::Portal(p) => self.portals[p.0]
                .replicas
                .iter()
                .find(|&&(s, _)| s == shard)
                .map(|&(_, seg)| seg)
                .unwrap_or_else(|| panic!("shard {shard} has no replica of portal {segment}")),
        }
    }

    /// Resolves a global segment that must not be a portal.
    fn local_seg_only(&self, segment: SegmentId, what: &str) -> (usize, SegmentId) {
        match self.seg_loc[segment.0] {
            SegLoc::Local { shard, seg } => (shard as usize, seg),
            SegLoc::Portal(_) => panic!(
                "{what} is not supported on portal {segment}: portals must keep fixed latency \
                 and deterministic delivery (the lookahead bound depends on it); use \
                 SegmentDown/SegmentUp to partition instead"
            ),
        }
    }

    /// The barrier exchange: drain every shard's portal egress, order
    /// the union deterministically by `(arrival time, source shard,
    /// per-shard send order)` — the mailbox invariant — and inject each
    /// frame into every other replica of its portal. By the lookahead
    /// rule every arrival lies strictly beyond the barrier, so injection
    /// never reaches into a shard's past.
    fn exchange(&mut self) {
        let mut batch = std::mem::take(&mut self.exchange_scratch);
        for (i, cell) in self.cells.iter_mut().enumerate() {
            cell.0.drain_egress_into(i as u32, &mut batch);
        }
        if !batch.is_empty() {
            // Stable sort; per-shard drains preserve send order, so the
            // third key of the invariant is implicit.
            batch.sort_by_key(|&(src, ref ef)| (ef.at, src));
            for (src, ef) in batch.drain(..) {
                for &(shard, seg) in &self.portals[ef.portal.0].replicas {
                    if shard == src {
                        continue;
                    }
                    self.cells[shard as usize].0.inject_portal_frame(ef.at, seg, &ef.frame);
                }
            }
        }
        batch.clear();
        self.exchange_scratch = batch;
    }
}

impl std::fmt::Debug for ShardedWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("shards", &self.cells.len())
            .field("time", &self.time)
            .field("nodes", &self.node_loc.len())
            .field("portals", &self.portals.len())
            .field("lookahead", &self.lookahead)
            .field("windows", &self.windows)
            .finish()
    }
}

impl SimWorld for ShardedWorld {
    fn now(&self) -> SimTime {
        ShardedWorld::now(self)
    }
    fn run_until(&mut self, t: SimTime) {
        ShardedWorld::run_until(self, t);
    }
    fn node<T: 'static>(&self, id: NodeId) -> &T {
        ShardedWorld::node(self, id)
    }
    fn with_node<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        ShardedWorld::with_node(self, id, f)
    }
    fn schedule_admin(&mut self, at: SimTime, op: AdminOp) {
        ShardedWorld::schedule_admin(self, at, op);
    }
    fn counter(&self, name: &str) -> u64 {
        ShardedWorld::counter(self, name)
    }
    fn events_processed(&self) -> u64 {
        ShardedWorld::events_processed(self)
    }
}

/// A total order over [`EventKind`] variants (and fault sub-kinds) used
/// to break cross-shard ties between same-instant events at the same
/// node key. Same-node events come from one shard and keep log order;
/// this rank only ever decides between *global* (node-less) fault events
/// from different shards, whose payload is the kind itself.
fn kind_rank(kind: &EventKind) -> u32 {
    match kind {
        EventKind::FrameTx { .. } => 0,
        EventKind::FrameRx { .. } => 1,
        EventKind::FrameDrop { .. } => 2,
        EventKind::Timer { .. } => 3,
        EventKind::Encap { .. } => 4,
        EventKind::Decap => 5,
        EventKind::Retunnel => 6,
        EventKind::LoopDetected { .. } => 7,
        EventKind::CacheHit => 8,
        EventKind::CacheUpdate => 9,
        EventKind::AuthReject => 10,
        EventKind::PoisonDrop => 11,
        EventKind::Fault { kind } => {
            16 + match kind {
                FaultKind::SegmentDown => 0,
                FaultKind::SegmentUp => 1,
                FaultKind::Loss => 2,
                FaultKind::Latency => 3,
                FaultKind::Corruption => 4,
                FaultKind::Detach => 5,
                FaultKind::Attach => 6,
                FaultKind::Crash => 7,
                FaultKind::Reboot => 8,
                FaultKind::Mute => 9,
                FaultKind::Unmute => 10,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, Frame};
    use crate::node::{LinkEvent, TimerToken};
    use crate::IfaceId;

    /// Counts received frames; optionally replies to unicasts.
    struct Sink {
        rx: usize,
        last_payload: Vec<u8>,
        reply: bool,
    }
    impl Sink {
        fn new(reply: bool) -> Sink {
            Sink { rx: 0, last_payload: Vec::new(), reply }
        }
    }
    impl Node for Sink {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
            self.rx += 1;
            self.last_payload = frame.payload.to_vec();
            if self.reply && !frame.dst.is_broadcast() {
                let f = Frame::new(ctx.mac(iface), frame.src, frame.ethertype, vec![0x5a]);
                ctx.send_frame(iface, f);
            }
        }
    }

    /// Sends one unicast to a fixed MAC at t = 1 ms.
    struct Pinger {
        dst: MacAddr,
        rx: usize,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), TimerToken(1));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            let f = Frame::new(ctx.mac(IfaceId(0)), self.dst, EtherType::Other(0x1234), vec![7]);
            ctx.send_frame(IfaceId(0), f);
        }
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {
            self.rx += 1;
        }
    }

    /// Two shards joined by a portal; a ping from shard 0 must reach the
    /// sink on shard 1 and the reply must come back — entirely through
    /// the barrier exchange.
    #[test]
    fn portal_round_trip_across_two_shards() {
        let mut w = ShardedWorld::new(7, 2);
        let portal = w.add_portal_segment(SegmentParams::default(), &[0, 1]);
        let sink_mac = MacAddr::from_index(1);
        let pinger = w.add_node(0, Pinger { dst: sink_mac, rx: 0 });
        w.add_iface(pinger, Some(portal));
        let sink = w.add_node(1, Sink::new(true));
        let (_, mac) = w.add_iface(sink, Some(portal));
        assert_eq!(mac, sink_mac, "global MAC counter must match build order");
        w.start();
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.node::<Sink>(sink).rx, 1, "ping must cross the portal");
        assert_eq!(w.node::<Pinger>(pinger).rx, 1, "reply must cross back");
        assert_eq!(w.counter("shard.egress_frames"), 2);
        assert_eq!(w.counter("shard.ingress_frames"), 2);
        assert!(w.windows_run() > 1, "portal latency must bound the windows");
    }

    /// Sequential and threaded window execution produce identical
    /// results.
    #[test]
    fn parallel_flag_does_not_change_results() {
        let run = |parallel: bool| -> (u64, usize, usize) {
            let mut w = ShardedWorld::new(3, 2);
            let portal = w.add_portal_segment(SegmentParams::default(), &[0, 1]);
            let sink_mac = MacAddr::from_index(1);
            let pinger = w.add_node(0, Pinger { dst: sink_mac, rx: 0 });
            w.add_iface(pinger, Some(portal));
            let sink = w.add_node(1, Sink::new(true));
            w.add_iface(sink, Some(portal));
            w.set_parallel(parallel);
            w.start();
            w.run_until(SimTime::from_millis(10));
            (w.events_processed(), w.node::<Sink>(sink).rx, w.node::<Pinger>(pinger).rx)
        };
        assert_eq!(run(false), run(true));
    }

    /// A 1-shard ShardedWorld replays the classic World bit-for-bit:
    /// same counters, same event count (same seed, same build order).
    #[test]
    fn single_shard_matches_classic_world() {
        let build_classic = || {
            let mut w = World::new(42);
            let seg = w.add_segment(SegmentParams::default());
            let sink_mac = MacAddr::from_index(1);
            let p = w.add_node(Pinger { dst: sink_mac, rx: 0 });
            w.add_iface(p, Some(seg));
            let s = w.add_node(Sink::new(true));
            w.add_iface(s, Some(seg));
            w.start();
            w.run_until(SimTime::from_secs(1));
            (w.events_processed(), w.stats().counter("link.frames_delivered"))
        };
        let build_sharded = |unwrap: bool| {
            let mut w = ShardedWorld::new(42, 1);
            // A "portal" with one shard degenerates to a local segment.
            let seg = w.add_portal_segment(SegmentParams::default(), &[0, 0]);
            let sink_mac = MacAddr::from_index(1);
            let p = w.add_node(0, Pinger { dst: sink_mac, rx: 0 });
            w.add_iface(p, Some(seg));
            let s = w.add_node(0, Sink::new(true));
            w.add_iface(s, Some(seg));
            w.start();
            if unwrap {
                // Unwrapped after the build, it runs on as a plain World.
                let mut w = w.into_world();
                w.run_until(SimTime::from_secs(1));
                return (w.events_processed(), w.stats().counter("link.frames_delivered"));
            }
            w.run_until(SimTime::from_secs(1));
            (w.events_processed(), w.counter("link.frames_delivered"))
        };
        assert_eq!(build_classic(), build_sharded(false));
        assert_eq!(build_classic(), build_sharded(true));
        // And no portal machinery ran.
        let mut w = ShardedWorld::new(42, 1);
        w.add_portal_segment(SegmentParams::default(), &[0]);
        assert_eq!(w.lookahead(), None);
    }

    /// Portal SegmentDown blocks transmission from every shard, and
    /// SegmentUp restores it; fault accounting matches a single world
    /// (one op applied per scheduled fault).
    #[test]
    fn portal_fault_mirrors_across_replicas() {
        let mut w = ShardedWorld::new(5, 2);
        let portal = w.add_portal_segment(SegmentParams::default(), &[0, 1]);
        let sink_mac = MacAddr::from_index(1);
        let pinger = w.add_node(0, Pinger { dst: sink_mac, rx: 0 });
        w.add_iface(pinger, Some(portal));
        let sink = w.add_node(1, Sink::new(false));
        w.add_iface(sink, Some(portal));
        // Down before the 1 ms ping, up afterwards.
        w.schedule_fault(SimTime::from_micros(100), FaultOp::SegmentDown { segment: portal });
        w.schedule_fault(SimTime::from_millis(5), FaultOp::SegmentUp { segment: portal });
        w.start();
        w.run_until(SimTime::from_millis(4));
        assert_eq!(w.node::<Sink>(sink).rx, 0, "down portal must block the ping");
        assert_eq!(w.counter("link.tx_segment_down"), 1);
        // Re-ping after the 5 ms restoration.
        w.run_until(SimTime::from_millis(6));
        w.with_node::<Pinger, _>(pinger, |n, ctx| n.on_timer(ctx, TimerToken(1)));
        w.run_until(SimTime::from_millis(10));
        assert_eq!(w.node::<Sink>(sink).rx, 1, "restored portal must deliver");
        assert_eq!(w.counter("fault.ops_applied"), 2, "one count per scheduled fault");
    }

    /// Node-scoped faults and admin moves translate to the owning shard.
    #[test]
    fn node_faults_and_moves_translate_to_owning_shard() {
        let mut w = ShardedWorld::new(9, 2);
        let portal = w.add_portal_segment(SegmentParams::default(), &[0, 1]);
        let cell_a = w.add_segment(1, SegmentParams::default());
        let sink_mac = MacAddr::from_index(1);
        let pinger = w.add_node(0, Pinger { dst: sink_mac, rx: 0 });
        w.add_iface(pinger, Some(portal));
        let sink = w.add_node(1, Sink::new(false));
        w.add_iface(sink, Some(portal));
        // Crash the sink across the ping, then move it to a local cell.
        w.schedule_fault(
            SimTime::from_micros(500),
            FaultOp::Crash { node: sink, down_for: SimDuration::from_millis(3) },
        );
        w.start();
        w.run_until(SimTime::from_millis(2));
        assert!(w.node_is_down(sink));
        assert_eq!(w.counter("fault.frames_dropped_node_down"), 1);
        w.run_until(SimTime::from_millis(5));
        assert!(!w.node_is_down(sink));
        w.schedule_admin(
            SimTime::from_millis(6),
            AdminOp::MoveIface { node: sink, iface: IfaceId(0), segment: cell_a },
        );
        w.run_until(SimTime::from_millis(7));
        assert_eq!(w.counter("world.reboots"), 1);
    }

    /// Telemetry merging: global node ids, canonical order, dense
    /// journey renumbering, and replay identity.
    #[test]
    fn merged_events_are_canonical_and_replayable() {
        let run = || {
            let mut w = ShardedWorld::new(11, 2);
            let portal = w.add_portal_segment(SegmentParams::default(), &[0, 1]);
            let sink_mac = MacAddr::from_index(1);
            let pinger = w.add_node(0, Pinger { dst: sink_mac, rx: 0 });
            w.add_iface(pinger, Some(portal));
            let sink = w.add_node(1, Sink::new(true));
            w.add_iface(sink, Some(portal));
            w.set_telemetry(true);
            w.start();
            w.run_until(SimTime::from_millis(10));
            w.merged_events()
        };
        let a = run();
        if cfg!(not(feature = "telemetry")) {
            // The hooks are compiled out: the merged log stays empty.
            assert!(a.is_empty());
            return;
        }
        assert!(!a.is_empty());
        // Node ids in the stream are global (0 = pinger, 1 = sink).
        assert!(a.iter().all(|e| e.node.is_none_or(|n| n < 2)));
        // Journeys are dense from 1.
        let max_j = a.iter().filter_map(|e| e.journey).map(|j| j.0).max().unwrap();
        assert!((1..1 << JOURNEY_SHARD_SHIFT).contains(&max_j), "journeys must be renumbered");
        assert_eq!(a, run(), "merged stream must replay identically");
    }

    /// Detached/attached link events still fire through translated admin
    /// ops (regression guard for the id translation).
    #[test]
    fn translated_detach_fires_link_event() {
        struct Watcher {
            events: Vec<LinkEvent>,
        }
        impl Node for Watcher {
            fn on_frame(&mut self, _c: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
            fn on_link(&mut self, _c: &mut Ctx<'_>, _i: IfaceId, ev: LinkEvent) {
                self.events.push(ev);
            }
        }
        let mut w = ShardedWorld::new(1, 2);
        let seg = w.add_segment(1, SegmentParams::default());
        let n = w.add_node(1, Watcher { events: Vec::new() });
        w.add_iface(n, Some(seg));
        w.start();
        w.schedule_admin(
            SimTime::from_millis(1),
            AdminOp::DetachIface { node: n, iface: IfaceId(0) },
        );
        w.run_until(SimTime::from_millis(2));
        assert_eq!(w.node::<Watcher>(n).events, vec![LinkEvent::Detached]);
    }
}
