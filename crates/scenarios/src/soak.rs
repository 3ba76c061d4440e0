//! Binding the workload engine to MHRP worlds: the [`SoakIo`]
//! implementation over [`MhrpHostNode`] clients and [`MobileHostNode`]
//! targets, plus the canonical random-waypoint soak the CI smoke gate
//! and the `simcore` throughput case both run.
//!
//! The workload crate is world-agnostic; this module is where flow
//! indices become node ids, probes become UDP datagrams, and arrivals
//! are read back out of endpoint logs:
//!
//! * open-loop probes go to [`crate::shootout::DATA_PORT`] (nothing
//!   listens — a one-way stream);
//! * closed-loop probes go to the mobile host's UDP echo service
//!   ([`netstack::nodes::UDP_ECHO_PORT`]), so the response leg
//!   traverses the mobile's normal outbound path back to the client.
//!
//! Both arrive through MHRP tunnels like any correspondent traffic, so
//! delivery ratio, latency and overhead measure the protocol, not the
//! harness.

use std::net::Ipv4Addr;
use std::time::Instant;

use mhrp::{MhrpHostNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{Histogram, IfaceId, NodeId, SimWorld, World};
use netstack::nodes::UDP_ECHO_PORT;
use workload::{
    evaluate, run_soak, Flow, FlowCfg, Layout, MobilityModel, MovePlan, Pattern, RandomWaypoint,
    SloMeasurements, SloReport, SloThresholds, SoakIo, SoakParams, Transmit,
};

use crate::hierarchy::{Hierarchy, HierarchyOf, HierarchyParams, ShardedHierarchy};
use crate::shootout::DATA_PORT;

/// UDP source port soak probes are sent from (responses come back to
/// it; demultiplexing uses the `(flow, seq)` payload header, not the
/// port).
pub const SOAK_SRC_PORT: u16 = 4100;

/// [`SoakIo`] over one MHRP correspondent ([`MhrpHostNode`]) sending to
/// one [`MobileHostNode`] per flow.
///
/// Works for any world built from these node types — the Figure 1
/// topology and the hierarchy generator both qualify — and for any
/// [`SimWorld`] execution engine: the soak drives a classic [`World`]
/// and a [`ShardedWorld`](netsim::ShardedWorld) through exactly the same
/// code.
///
/// The driver **drains** what it reads: polling empties the client's and
/// the flow targets' `endpoint.log.udp_rx`, so a soak's memory does not
/// grow with the probes it has delivered (each `UdpRecord` owns its
/// payload). Nothing reads those logs after a soak — `bench --bin soak`, the SLO reports
/// and the benchmark work from [`Flow`] statistics, and `live::sim`
/// drives its own world without this driver. A caller that wants the
/// raw records must take them before polling.
pub struct MhrpIo<'a, W: SimWorld = World> {
    world: &'a mut W,
    client: NodeId,
    flows: Vec<(NodeId, Ipv4Addr)>,
    responses: Vec<Vec<(u32, SimTime)>>,
}

impl<'a, W: SimWorld> MhrpIo<'a, W> {
    /// Creates the binding: `flows[i]` is flow `i`'s `(mobile node,
    /// destination address)`.
    ///
    /// # Panics
    ///
    /// Panics if two flows share a mobile node (polling one flow drains
    /// its target's endpoint log).
    pub fn new(world: &'a mut W, client: NodeId, flows: Vec<(NodeId, Ipv4Addr)>) -> MhrpIo<'a, W> {
        for (i, (m, _)) in flows.iter().enumerate() {
            assert!(
                flows[..i].iter().all(|(other, _)| other != m),
                "flows must target distinct mobile hosts"
            );
        }
        let responses = vec![Vec::new(); flows.len()];
        MhrpIo { world, client, flows, responses }
    }

    /// Flow bindings for hierarchy mobiles `idxs` (indices into
    /// [`HierarchyOf::mobiles`]).
    pub fn hierarchy_flows(h: &HierarchyOf<W>, idxs: &[usize]) -> Vec<(NodeId, Ipv4Addr)> {
        idxs.iter().map(|&i| (h.mobiles[i], h.mobile_addr(i))).collect()
    }

    fn demux_client_log(&mut self) {
        let responses = &mut self.responses;
        self.world.with_node::<MhrpHostNode, _>(self.client, |h, _| {
            for r in h.endpoint.log.udp_rx.drain(..) {
                if r.src_port != UDP_ECHO_PORT {
                    continue;
                }
                if let Some((flow, seq)) = workload::decode_probe(&r.payload) {
                    if let Some(bucket) = responses.get_mut(flow as usize) {
                        bucket.push((seq, r.at));
                    }
                }
            }
        });
    }
}

impl<W: SimWorld> SoakIo for MhrpIo<'_, W> {
    fn run_until(&mut self, t: SimTime) {
        self.world.run_until(t);
    }

    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn transmit(&mut self, t: &Transmit) {
        let (_, dst) = self.flows[t.flow];
        let dst_port = if t.closed_loop { UDP_ECHO_PORT } else { DATA_PORT };
        let payload = workload::encode_probe(t.flow as u32, t.seq, t.bytes);
        self.world.with_node::<MhrpHostNode, _>(self.client, |h, ctx| {
            h.send_udp(ctx, dst, SOAK_SRC_PORT, dst_port, payload);
        });
    }

    fn poll_deliveries(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        let (mobile, _) = self.flows[flow];
        self.world.with_node::<MobileHostNode, _>(mobile, |m, _| {
            for r in m.endpoint.log.udp_rx.drain(..) {
                if let Some((f, seq)) = workload::decode_probe(&r.payload) {
                    if f as usize == flow {
                        out.push((seq, r.at));
                    }
                }
            }
        });
    }

    fn poll_responses(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        self.demux_client_log();
        out.append(&mut self.responses[flow]);
    }
}

/// Configuration of the canonical random-waypoint soak (CI smoke gate,
/// `simcore` throughput case, golden determinism test).
#[derive(Debug, Clone)]
pub struct RwSoakConfig {
    /// The hierarchical world to build (must include the
    /// correspondent).
    pub params: HierarchyParams,
    /// Number of flows; flow targets are spread evenly over the
    /// mobiles.
    pub flows: usize,
    /// Of those, how many are closed-loop request/response clients
    /// (the rest are open-loop Poisson senders).
    pub closed_flows: usize,
    /// Open-loop send rate per flow, packets per second.
    pub open_rate_per_sec: f64,
    /// Probe payload bytes.
    pub payload_bytes: usize,
    /// Random-waypoint dwell-time bounds.
    pub dwell_min: SimDuration,
    /// See [`RwSoakConfig::dwell_min`].
    pub dwell_max: SimDuration,
    /// Simulated soak duration (after warmup).
    pub duration: SimDuration,
    /// Soak driver tick.
    pub tick: SimDuration,
    /// Registration warmup budget before the soak starts.
    pub warmup: SimDuration,
    /// Seed for the mobility model and the flows (independent of the
    /// world's seed).
    pub seed: u64,
    /// Pass/fail thresholds.
    pub thresholds: SloThresholds,
    /// Enable the typed telemetry event log (the golden replay test
    /// compares it across runs).
    pub telemetry: bool,
    /// Shard count, at least 1. `1` builds a [`Hierarchy`] on one
    /// classic world, every mobile wandering every cell; `> 1` builds a
    /// [`ShardedHierarchy`] with region-confined mobility and runs the
    /// same soak through the conservative barrier scheduler.
    pub shards: usize,
    /// Run the soak under attack (DESIGN.md §13): install a hostile
    /// [`adversary::AttackPlan`] — repeated forged-registration sweeps
    /// plus cache poisoning against region 0 — alongside the benign
    /// workload. Requires `params.attackers >= 1`; the report gains an
    /// `auth_rejected_min` check so the gate fails unless the
    /// authentication extension actually engaged (and the ordinary
    /// SLOs prove it neutralised the attack).
    pub adversarial: bool,
}

impl Default for RwSoakConfig {
    fn default() -> RwSoakConfig {
        RwSoakConfig {
            params: HierarchyParams::default(),
            flows: 8,
            closed_flows: 2,
            open_rate_per_sec: 10.0,
            payload_bytes: 64,
            dwell_min: SimDuration::from_secs(2),
            dwell_max: SimDuration::from_secs(6),
            duration: SimDuration::from_secs(8),
            tick: SimDuration::from_millis(50),
            warmup: SimDuration::from_secs(30),
            seed: 1994,
            thresholds: SloThresholds::default(),
            telemetry: false,
            shards: 1,
            adversarial: false,
        }
    }
}

/// The hostile plan the adversarial soak installs: a forged-registration
/// sweep over region 0's first mobiles every two seconds (re-diverting
/// ahead of any genuine re-registration), each followed by spoofed
/// location updates poisoning the correspondent's cache. All forged
/// traffic is plain 1994-format (the attacker holds no key), so with
/// authentication on every message lands in `mhrp.auth.rejected` /
/// `mhrp.cache.poison_dropped`.
fn hostile_plan(
    p: &HierarchyParams,
    from: SimTime,
    duration: SimDuration,
) -> adversary::AttackPlan {
    use crate::hierarchy::{attacker_addr, mobile_home_addr, region_router_addr};
    let victims: Vec<Ipv4Addr> =
        (0..p.mobiles_per_region.min(8)).map(|i| mobile_home_addr(0, i)).collect();
    let mut plan = adversary::AttackPlan::new();
    let sweeps = (duration.as_millis() / 2_000).max(1);
    for s in 0..sweeps {
        let at = from + SimDuration::from_millis(2_000 * s);
        plan = plan.forged_registration_sweep(
            at,
            SimDuration::from_millis(40),
            0,
            region_router_addr(0),
            attacker_addr(0),
            &victims,
            0x7000 + s as u16,
        );
        for v in victims.iter().take(4) {
            plan = plan.op(
                at + SimDuration::from_millis(300),
                adversary::AttackOp::PoisonUpdate {
                    attacker: 0,
                    target: crate::hierarchy::CORRESPONDENT_ADDR,
                    mobile: *v,
                    foreign_agent: attacker_addr(0),
                },
            );
        }
    }
    plan
}

/// Appends the adversarial gate to a report: the run only passes if the
/// authentication extension visibly rejected forged traffic (a silent
/// zero would mean the attack never engaged and the soak proved
/// nothing).
fn gate_on_auth_rejections(report: &mut SloReport, rejected: u64) {
    let measured = rejected as f64;
    report.checks.push(workload::SloCheck {
        name: "auth_rejected_min".into(),
        measured,
        threshold: 1.0,
        pass: measured >= 1.0,
    });
    report.pass = report.checks.iter().all(|c| c.pass);
}

/// Everything one soak run produced.
#[derive(Debug)]
pub struct SoakRun {
    /// The machine-readable SLO verdict.
    pub report: SloReport,
    /// Simulator events processed during the measured window.
    pub events: u64,
    /// Wall-clock seconds of the measured window (excluded from
    /// determinism comparisons).
    pub wall_seconds: f64,
    /// Merged forward-leg latency histogram.
    pub latency: Histogram,
    /// Typed telemetry events, when [`RwSoakConfig::telemetry`] was on.
    pub events_log: Vec<netsim::Event>,
}

/// Builds the hierarchy, warms registration up, installs a
/// random-waypoint plan over every mobile, runs the flow set, and
/// evaluates the SLOs. With `cfg.shards > 1` this is
/// [`run_random_waypoint_soak_sharded`].
///
/// Deterministic: the same config yields a byte-identical
/// [`SloReport`] (and, with telemetry on, an identical typed-event
/// log).
///
/// # Panics
///
/// Panics if `cfg.shards == 0`.
pub fn run_random_waypoint_soak(cfg: &RwSoakConfig) -> SoakRun {
    assert!(cfg.shards >= 1, "the soak needs at least one shard");
    if cfg.shards > 1 {
        return run_random_waypoint_soak_sharded(cfg);
    }
    let mut h = Hierarchy::build(cfg.params.clone());
    if cfg.telemetry {
        h.world.set_telemetry(true);
    }
    let mut run = soak(&mut h, cfg, None);
    if cfg.telemetry {
        run.events_log = h.world.telemetry().events().copied().collect();
    }
    run
}

/// The soak on a [`ShardedHierarchy`] of `cfg.shards` shards: one shard
/// per contiguous block of regions, the backbone as the portal, and
/// **region-confined** mobility (each mobile wanders its own region's
/// cells — shard migration is unsupported by design; see DESIGN.md §10).
///
/// The mobility plans and flow schedules are pure functions of the
/// config (per-region seeds derive from `cfg.seed` and the region index
/// alone), so the same config produces the same merged telemetry stream
/// at *any* shard count — the determinism contract the
/// `sharded_determinism` suite pins.
pub fn run_random_waypoint_soak_sharded(cfg: &RwSoakConfig) -> SoakRun {
    let mut h = ShardedHierarchy::build(cfg.params.clone(), cfg.shards);
    if cfg.telemetry {
        h.world.set_telemetry(true);
    }
    let shards = h.world.shard_count();
    let mut run = soak(&mut h, cfg, Some(shards));
    if cfg.telemetry {
        run.events_log = h.world.merged_events();
    }
    run
}

/// The soak on a built hierarchy of either engine: registration warmup,
/// random-waypoint mobility, the hostile plan when `cfg.adversarial`,
/// the flow set and the SLO verdict. `shards: None` lets every mobile
/// wander every cell of the world; `Some(n)` confines each mobile to its
/// own region's cells and labels the world with its `n` shards. The run
/// comes back without a telemetry log: each engine's caller reads its
/// own.
fn soak<W: SimWorld>(h: &mut HierarchyOf<W>, cfg: &RwSoakConfig, shards: Option<usize>) -> SoakRun {
    assert!(cfg.params.correspondent, "soak needs the backbone correspondent");
    assert!(cfg.flows >= 1, "need at least one flow");
    assert!(cfg.closed_flows <= cfg.flows, "closed_flows exceeds flows");
    // Full attachment before load starts: a still-detached flow target
    // would charge its whole stream to "handoff loss".
    assert!(h.run_until_attached(1.0, cfg.warmup), "registration warmup stalled");
    assert!(
        cfg.flows <= h.mobiles.len(),
        "more flows than mobile hosts ({} > {})",
        cfg.flows,
        h.mobiles.len()
    );

    // Mobility: every mobile wanders, whether or not it carries a flow —
    // the whole world as one group, or (region-confined) one group per
    // region. A group's plan depends only on the config and the group
    // index, never on the shard count.
    let groups = if shards.is_some() { h.regions } else { 1 };
    let (group_mobiles, group_cells) = (h.mobiles.len() / groups, h.cells.len() / groups);
    let (mobiles_per_region, fas) = (h.mobiles_per_region, h.fas_per_region);
    let from = h.world.now();
    let bindings: Vec<(NodeId, IfaceId)> = h.mobiles.iter().map(|&m| (m, IfaceId(0))).collect();
    let mut plans: Vec<MovePlan> = Vec::with_capacity(groups);
    for g in 0..groups {
        let start_cells = (0..group_mobiles)
            .map(|i| (i / mobiles_per_region) * fas + (i % mobiles_per_region) % fas)
            .collect();
        let layout = Layout { cells: group_cells, start_cells };
        let model = RandomWaypoint {
            seed: cfg.seed ^ (g as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            dwell_min: cfg.dwell_min,
            dwell_max: cfg.dwell_max,
        };
        let plan = model.compile(&layout, from, from + cfg.duration);
        plan.install(
            &mut h.world,
            &bindings[g * group_mobiles..(g + 1) * group_mobiles],
            &h.cells[g * group_cells..(g + 1) * group_cells],
        );
        plans.push(plan);
    }

    if cfg.adversarial {
        assert!(!h.attackers.is_empty(), "adversarial soak needs params.attackers >= 1");
        let binding = adversary::Binding { attackers: h.attackers.clone(), ..Default::default() };
        hostile_plan(&cfg.params, from + SimDuration::from_millis(500), cfg.duration)
            .install(&mut h.world, &binding);
    }

    // Traffic: flow targets spread evenly over the mobiles; the first
    // `closed_flows` are request/response clients.
    let targets: Vec<usize> = (0..cfg.flows).map(|i| i * h.mobiles.len() / cfg.flows).collect();
    let mut flows: Vec<Flow> = (0..cfg.flows)
        .map(|i| {
            let pattern = if i < cfg.closed_flows {
                Pattern::ClosedLoop {
                    window: 4,
                    deadline: SimDuration::from_millis(250),
                    retries: 2,
                }
            } else {
                Pattern::Poisson { per_sec: cfg.open_rate_per_sec }
            };
            Flow::new(
                i as u32,
                FlowCfg {
                    pattern,
                    bytes: cfg.payload_bytes,
                    seed: cfg.seed
                        ^ (0x9e37_79b9_7f4a_7c15 ^ i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
                    limit: None,
                },
            )
        })
        .collect();

    let overhead0 = h.world.counter("mhrp.overhead_bytes");
    let updates0 = h.world.counter("mhrp.updates_sent");
    let events0 = h.world.events_processed();
    let wall0 = Instant::now();

    let flow_bindings = MhrpIo::hierarchy_flows(h, &targets);
    let correspondent = h.correspondent.expect("correspondent");
    let mut io = MhrpIo::new(&mut h.world, correspondent, flow_bindings);
    run_soak(
        &mut io,
        &mut flows,
        &SoakParams { duration: cfg.duration, tick: cfg.tick, drain: SimDuration::from_secs(2) },
    );

    let wall_seconds = wall0.elapsed().as_secs_f64();
    let events = h.world.events_processed() - events0;

    // Aggregate the flows (Histogram::merge) and the protocol counters.
    let mut latency = Histogram::latency_us();
    let mut rtt = Histogram::latency_us();
    let mut m = SloMeasurements {
        sim_seconds: cfg.duration.as_micros() as f64 / 1e6,
        handoffs: targets
            .iter()
            .map(|&t| plans[t / group_mobiles].handoffs_for(t % group_mobiles))
            .sum(),
        ..SloMeasurements::default()
    };
    for f in &flows {
        latency.merge(&f.latency_us);
        rtt.merge(&f.rtt_us);
        m.sent += f.stats.sent;
        m.delivered += f.stats.delivered;
        m.completed += f.stats.completed;
        m.failed += f.stats.failed;
        m.retries += f.stats.retries;
    }
    m.latency_p50_us = latency.p50();
    m.latency_p99_us = latency.p99();
    m.latency_max_us = latency.max();
    m.rtt_p99_us = rtt.p99();
    m.overhead_bytes = h.world.counter("mhrp.overhead_bytes") - overhead0;
    m.updates_sent = h.world.counter("mhrp.updates_sent") - updates0;

    let workload_label = format!(
        "random-waypoint {}dwell {}-{}s × {} flows ({} poisson {}/s + {} closed-loop)",
        if shards.is_some() { "(region-confined) " } else { "" },
        cfg.dwell_min.as_micros() / 1_000_000,
        cfg.dwell_max.as_micros() / 1_000_000,
        cfg.flows,
        cfg.flows - cfg.closed_flows,
        cfg.open_rate_per_sec,
        cfg.closed_flows,
    );
    let shard_label = shards.map(|n| format!(" / {n} shards")).unwrap_or_default();
    let world_label = format!(
        "hierarchy {}r x {}fa x {}m{shard_label}",
        cfg.params.regions, cfg.params.fas_per_region, cfg.params.mobiles_per_region
    );
    let mut report = evaluate(workload_label, world_label, m, &cfg.thresholds);
    if cfg.adversarial {
        gate_on_auth_rejections(&mut report, h.world.counter("mhrp.auth.rejected"));
    }
    SoakRun { report, events, wall_seconds, latency, events_log: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_rw_soak_meets_default_slos() {
        let cfg = RwSoakConfig {
            params: HierarchyParams {
                regions: 1,
                fas_per_region: 3,
                mobiles_per_region: 6,
                ..HierarchyParams::default()
            },
            flows: 3,
            closed_flows: 1,
            duration: SimDuration::from_secs(4),
            ..RwSoakConfig::default()
        };
        let run = run_random_waypoint_soak(&cfg);
        let m = &run.report.measurements;
        assert!(m.sent > 0, "no load offered");
        assert!(m.delivered > 0, "nothing delivered");
        assert!(run.events > 0);
        assert!(run.report.pass, "SLO breach in the tiny soak: {}", run.report.to_json());
    }

    /// Golden determinism: two runs of the same config produce the same
    /// typed-event log (every simulator event, in order), the same
    /// event count, and a byte-identical SLO report that survives a
    /// JSON round trip.
    #[test]
    fn soak_replay_is_byte_identical() {
        let cfg = RwSoakConfig {
            params: HierarchyParams {
                regions: 1,
                fas_per_region: 3,
                mobiles_per_region: 6,
                ..HierarchyParams::default()
            },
            flows: 3,
            closed_flows: 1,
            duration: SimDuration::from_secs(3),
            telemetry: true,
            ..RwSoakConfig::default()
        };
        let a = run_random_waypoint_soak(&cfg);
        let b = run_random_waypoint_soak(&cfg);
        assert!(!a.events_log.is_empty(), "telemetry produced no typed events");
        assert_eq!(a.events_log, b.events_log, "typed-event logs diverged across replays");
        assert_eq!(a.events, b.events, "event counts diverged across replays");
        let ja = a.report.to_json();
        assert_eq!(ja, b.report.to_json(), "SLO reports diverged across replays");
        let round = workload::SloReport::from_json(&ja).expect("report JSON parses");
        assert_eq!(round.to_json(), ja, "SLO report does not round-trip");
    }
}
