//! The three simulator workloads: `storm_25k`, `tunnel_1k`, `roam_10k`.
//!
//! Each is fixed work in simulated time, so a slow host cannot shed load:
//! a repetition builds a hierarchy world from the seed, brings it to the
//! workload's starting state (set-up), then advances it through one timed
//! window. Everything the window produced in *simulated* terms goes into
//! a [`Digest`] that must be identical across repetitions; only host time
//! and host memory are speeds.
//!
//! The soak loop is the real [`workload::run_soak`] over [`TimedIo`], a
//! decorator around [`scenarios::soak::MhrpIo`] that, in a traced pass,
//! times the calls crossing the workload/scenario boundary.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use netsim::time::{SimDuration, SimTime};
use netsim::{IfaceId, NodeId, SimWorld};
use scenarios::hierarchy::{Hierarchy, HierarchyParams, ShardedHierarchy};
use scenarios::soak::MhrpIo;
use workload::json::Json;
use workload::{
    evaluate, run_soak, Flow, FlowCfg, Layout, MobilityModel, Pattern, RandomWaypoint, SloCheck,
    SloMeasurements, SloThresholds, SoakIo, SoakParams, Transmit,
};

use crate::spans::Tracer;
use crate::stats;

/// The canonical soak tick.
const TICK: SimDuration = SimDuration::from_millis(50);
/// Simulated time the soak keeps polling after the last offer.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// The flow mix a soak workload offers from the backbone correspondent.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// Open-loop Poisson flows.
    pub poisson: usize,
    /// Their rate, packets per second each.
    pub per_sec: f64,
    /// Closed-loop echo clients (window 4, 250 ms deadline, 2 retries).
    pub closed: usize,
}

/// One simulator workload.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub name: &'static str,
    pub regions: usize,
    pub fas: usize,
    pub mobiles: usize,
    /// Simulated length of the timed window (soaks add [`DRAIN`]).
    pub window: SimDuration,
    /// `None`: the window is the registration storm itself.
    pub traffic: Option<Traffic>,
    /// Random-waypoint dwell bounds over every mobile, if they roam.
    pub dwell: Option<(SimDuration, SimDuration)>,
    /// Typed telemetry into the default 64 Ki ring.
    pub telemetry: bool,
    /// Floor on the share of probes delivered.
    pub min_delivery: f64,
}

impl SimSpec {
    pub fn hosts(&self) -> usize {
        self.regions * self.mobiles
    }
}

/// The workload called `name`, at full or `--quick` size. `--quick`
/// shrinks every world to 2 x 4 x 40 hosts and shortens the soaks; it
/// keeps every code path and every check. (`tunnel_1k` stays 20
/// simulated seconds long: each flow loses its first few probes to ARP,
/// and a shorter run would miss the 99.9 % floor on that alone.)
pub fn spec(name: &str, quick: bool) -> Option<SimSpec> {
    let secs = SimDuration::from_secs;
    let world = |full: (usize, usize, usize)| if quick { (2, 4, 40) } else { full };
    let pick = |full: usize, small: usize| if quick { small } else { full };
    let (name, (regions, fas, mobiles), window, traffic, dwell, telemetry, min_delivery) =
        match name {
            // Discovery waits out the 3 s advertisement watchdog, so the
            // storm breaks at 4.0-4.5 s whatever the population.
            "storm_25k" => ("storm_25k", world((4, 125, 6_250)), secs(6), None, None, false, 0.0),
            "tunnel_1k" => (
                "tunnel_1k",
                world((2, 10, 500)),
                secs(pick(40, 20) as u64),
                Some(Traffic { poisson: pick(192, 24), per_sec: 100.0, closed: pick(64, 8) }),
                None,
                false,
                0.999,
            ),
            "roam_10k" => (
                "roam_10k",
                world((4, 50, 2_500)),
                secs(pick(10, 4) as u64),
                Some(Traffic { poisson: pick(48, 12), per_sec: 20.0, closed: pick(16, 4) }),
                Some((secs(1), secs(3))),
                true,
                0.90,
            ),
            _ => return None,
        };
    Some(SimSpec { name, regions, fas, mobiles, window, traffic, dwell, telemetry, min_delivery })
}

/// The simulated statistics of one window. The simulator is
/// deterministic, so two runs of one commit at one seed must agree on
/// every field, and a change meant only to speed the simulator up must
/// leave every field alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    pub events: u64,
    pub sent: u64,
    pub delivered: u64,
    pub completed: u64,
    pub handoffs: u64,
    pub updates_sent: u64,
    pub overhead_bytes: u64,
    pub latency_p50_us: u64,
    pub latency_p99_us: u64,
    pub attached: u64,
}

impl Digest {
    pub fn to_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("events", n(self.events)),
            ("sent", n(self.sent)),
            ("delivered", n(self.delivered)),
            ("completed", n(self.completed)),
            ("handoffs", n(self.handoffs)),
            ("mhrp.updates_sent", n(self.updates_sent)),
            ("mhrp.overhead_bytes", n(self.overhead_bytes)),
            ("sim_latency_p50_us", n(self.latency_p50_us)),
            ("sim_latency_p99_us", n(self.latency_p99_us)),
            ("attached", n(self.attached)),
        ])
    }
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct SimRep {
    /// Host seconds from the start of the repetition to the start of the
    /// timed window: the median of up to [`SETUP_SAMPLES`] set-ups.
    pub setup_s: f64,
    /// Host seconds of the timed window.
    pub window_s: f64,
    /// Simulated seconds the window covered.
    pub sim_s: f64,
    pub digest: Digest,
    /// Operations the protocol owes success: registrations
    /// (`storm_25k`) or closed-loop requests resolved (soaks).
    pub attempted: u64,
    /// Those that did not succeed: hosts left unregistered, requests
    /// abandoned after their retries.
    pub failed: u64,
    pub checks: Vec<SloCheck>,
    /// Exact counts over the window, by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Resident set right after the window, MB (for bytes per mobile).
    pub rss_after_mb: f64,
}

impl SimRep {
    /// What the window delivered to its users: probes where there is
    /// traffic, registrations where there is none.
    pub fn delivered_units(&self) -> u64 {
        if self.digest.sent > 0 { self.digest.delivered } else { self.digest.attached }.max(1)
    }
}

/// Per-layer count name → the `Stats` counter it is read from.
const STAT_COUNTS: [(&str, &str); 25] = [
    ("netsim.link.frames_sent", "link.frames_sent"),
    ("netsim.link.frames_delivered", "link.frames_delivered"),
    ("netsim.timers_cancelled", "sim.timers_cancelled"),
    ("ip.rx", "ip.rx"),
    ("ip.forwarded", "ip.forwarded"),
    ("ip.tx", "ip.tx"),
    ("ip.delivered", "ip.delivered"),
    ("ip.originated", "ip.originated"),
    ("arp.requests_sent", "arp.requests_sent"),
    ("arp.replies_sent", "arp.replies_sent"),
    ("arp.gratuitous_sent", "arp.gratuitous_sent"),
    ("mhrp.adverts_sent", "mhrp.adverts_sent"),
    ("mhrp.solicits_sent", "mhrp.solicits_sent"),
    ("mhrp.registration_msgs_sent", "mhrp.registration_msgs_sent"),
    ("mhrp.ha_registrations", "mhrp.ha_registrations"),
    ("mhrp.ha_tunneled", "mhrp.ha_tunneled"),
    ("mhrp.tunneled_by_sender", "mhrp.tunneled_by_sender"),
    ("mhrp.fa_delivered", "mhrp.fa_delivered"),
    ("mhrp.mh_decapsulated", "mhrp.mh_decapsulated"),
    ("mhrp.mh_moves", "mhrp.mh_moves"),
    ("mhrp.updates_sent", "mhrp.updates_sent"),
    ("mhrp.updates_rate_limited", "mhrp.updates_rate_limited"),
    ("mhrp.cache.evictions", "mhrp.cache.evictions"),
    ("mhrp.rate_limit.evictions", "mhrp.rate_limit.evictions"),
    ("mhrp.overhead_bytes", "mhrp.overhead_bytes"),
];

fn world_counts(h: &Hierarchy) -> BTreeMap<&'static str, u64> {
    let s = h.world.stats();
    let mut c: BTreeMap<&'static str, u64> =
        STAT_COUNTS.iter().map(|&(name, stat)| (name, s.counter(stat))).collect();
    let tele = h.world.telemetry();
    c.insert("netsim.events", h.world.events_processed());
    c.insert("telemetry.events_recorded", tele.len() as u64 + tele.overwritten());
    c.insert("telemetry.overwritten", tele.overwritten());
    c
}

/// Resident (`VmRSS`) or peak resident (`VmHWM`) memory of this process
/// in MB, from `/proc/self/status`; `0.0` where that does not exist.
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// [`SoakIo`] decorator: in a traced pass, times the calls crossing the
/// workload/scenario boundary. `run_until` gets a span per soak tick;
/// `transmit` and the polls, called a million times, are folded into one
/// span each per tick.
struct TimedIo<'t, I: SoakIo> {
    inner: I,
    tracer: &'t mut Tracer,
    /// `(first call, summed busy time, calls)` since the tick began.
    transmit: Option<(Instant, Duration, u64)>,
    poll: Option<(Instant, Duration, u64)>,
}

impl<'t, I: SoakIo> TimedIo<'t, I> {
    fn new(inner: I, tracer: &'t mut Tracer) -> TimedIo<'t, I> {
        TimedIo { inner, tracer, transmit: None, poll: None }
    }

    /// Records the folded spans of the tick that just ended.
    fn end_tick(&mut self) {
        if let Some((first, busy, calls)) = self.transmit.take() {
            self.tracer.folded("scenarios.soak.transmit", first, busy, calls);
        }
        if let Some((first, busy, calls)) = self.poll.take() {
            self.tracer.folded("scenarios.soak.poll", first, busy, calls);
        }
    }
}

fn fold(acc: &mut Option<(Instant, Duration, u64)>, started: Instant) {
    let busy = started.elapsed();
    let (_, total, calls) = acc.get_or_insert((started, Duration::ZERO, 0));
    *total += busy;
    *calls += 1;
}

impl<I: SoakIo> SoakIo for TimedIo<'_, I> {
    fn run_until(&mut self, t: SimTime) {
        self.end_tick();
        let inner = &mut self.inner;
        self.tracer.time("netsim.world.run", || inner.run_until(t));
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn transmit(&mut self, t: &Transmit) {
        if !self.tracer.on() {
            return self.inner.transmit(t);
        }
        let started = Instant::now();
        self.inner.transmit(t);
        fold(&mut self.transmit, started);
    }

    fn poll_deliveries(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        if !self.tracer.on() {
            return self.inner.poll_deliveries(flow, out);
        }
        let started = Instant::now();
        self.inner.poll_deliveries(flow, out);
        fold(&mut self.poll, started);
    }

    fn poll_responses(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        if !self.tracer.on() {
            return self.inner.poll_responses(flow, out);
        }
        let started = Instant::now();
        self.inner.poll_responses(flow, out);
        fold(&mut self.poll, started);
    }
}

fn hierarchy_params(spec: &SimSpec, seed: u64) -> HierarchyParams {
    HierarchyParams {
        regions: spec.regions,
        fas_per_region: spec.fas,
        mobiles_per_region: spec.mobiles,
        correspondent: true,
        seed,
        ..HierarchyParams::default()
    }
}

/// The flow set of a soak workload: the first `closed` are echo clients,
/// seeded per flow from the run's seed exactly as the canonical soak
/// seeds them.
fn build_flows(t: &Traffic, seed: u64) -> Vec<Flow> {
    (0..t.closed + t.poisson)
        .map(|i| {
            let pattern = if i < t.closed {
                Pattern::ClosedLoop {
                    window: 4,
                    deadline: SimDuration::from_millis(250),
                    retries: 2,
                }
            } else {
                Pattern::Poisson { per_sec: t.per_sec }
            };
            let seed =
                seed ^ (0x9e37_79b9_7f4a_7c15 ^ i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
            Flow::new(i as u32, FlowCfg { pattern, bytes: 64, seed, limit: None })
        })
        .collect()
}

/// A world brought to its workload's starting state.
struct SetUp {
    h: Hierarchy,
    flows: Vec<Flow>,
    /// Index into `h.mobiles` of each flow's target.
    targets: Vec<usize>,
    /// Handoffs the mobility plan gives the flow targets.
    handoffs: u64,
}

/// Set-up: build the hierarchy, and for a soak register everyone, make
/// the flows and install the mobility plan. (`storm_25k` has nothing
/// more to set up: its window is the registration storm.)
fn set_up(spec: &SimSpec, seed: u64, telemetry: bool, tr: &mut Tracer) -> SetUp {
    let params = hierarchy_params(spec, seed);
    let mut h = tr.time("scenarios.hierarchy.build", || Hierarchy::build(params));
    if telemetry {
        h.world.set_telemetry(true);
    }
    let mut flows = Vec::new();
    let mut targets = Vec::new();
    let mut handoffs = 0;
    if let Some(traffic) = &spec.traffic {
        // Full attachment before load starts, as the canonical soak
        // does: a detached target would charge its stream to handoffs.
        let attached = tr.time("scenarios.hierarchy.attach", || {
            h.run_until_attached(1.0, SimDuration::from_secs(30))
        });
        assert!(attached, "{}: registration warm-up stalled", spec.name);
        flows = build_flows(traffic, seed);
        assert!(flows.len() <= h.mobiles.len(), "more flows than mobile hosts");
        targets = (0..flows.len()).map(|i| i * h.mobiles.len() / flows.len()).collect();
    }
    if let Some((dwell_min, dwell_max)) = spec.dwell {
        let start_cells = (0..h.mobiles.len())
            .map(|idx| (idx / spec.mobiles) * spec.fas + (idx % spec.mobiles) % spec.fas)
            .collect();
        let layout = Layout { cells: h.cells.len(), start_cells };
        let model = RandomWaypoint { seed, dwell_min, dwell_max };
        let from = h.world.now();
        let plan = tr
            .time("workload.mobility.compile", || model.compile(&layout, from, from + spec.window));
        let bindings: Vec<(NodeId, IfaceId)> = h.mobiles.iter().map(|&m| (m, IfaceId(0))).collect();
        tr.time("workload.mobility.install", || plan.install(&mut h.world, &bindings, &h.cells));
        handoffs = targets.iter().map(|&t| plan.handoffs_for(t)).sum();
    }
    SetUp { h, flows, targets, handoffs }
}

/// Most set-ups sampled per repetition, the repetition's own included.
const SETUP_SAMPLES: usize = 9;
/// Host time the extra set-ups may take. `storm_25k` and `tunnel_1k`
/// set up in 50 ms, re-faulting memory the last world gave back, and a
/// single reading moved by a third between runs; `roam_10k` sets up in
/// over a second, steadily, and gets no extra samples.
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Runs one repetition of `spec` with inputs made from `seed`.
/// `telemetry` is the spec's own setting except when the traced pass
/// measures what telemetry costs.
pub fn run_rep(spec: &SimSpec, seed: u64, telemetry: bool, tr: &mut Tracer) -> SimRep {
    let rep_span = tr.enter("bench.rep");
    let rep_started = Instant::now();
    let setup_span = tr.enter("bench.setup");
    let SetUp { mut h, mut flows, targets, handoffs } = set_up(spec, seed, telemetry, tr);
    tr.exit(setup_span);
    let mut setups = vec![rep_started.elapsed()];

    // --- The timed window ---
    let before = world_counts(&h);
    let sim_started = h.world.now();
    let window_started = Instant::now();
    let window_span = tr.enter("bench.window");
    if spec.traffic.is_some() {
        let bindings = MhrpIo::hierarchy_flows(&h, &targets);
        let client = h.correspondent.expect("built with a correspondent");
        let mut io = TimedIo::new(MhrpIo::new(&mut h.world, client, bindings), tr);
        let soak_span = io.tracer.enter("workload.traffic.flows");
        run_soak(
            &mut io,
            &mut flows,
            &SoakParams { duration: spec.window, tick: TICK, drain: DRAIN },
        );
        io.end_tick();
        tr.exit(soak_span);
    } else {
        tr.time("netsim.world.run", || h.world.run_for(spec.window));
    }
    tr.exit(window_span);
    let window_s = window_started.elapsed().as_secs_f64();
    let sim_s = h.world.now().since(sim_started).as_secs_f64();
    let rss_after_mb = proc_status_mb("VmRSS");

    // --- Simulated statistics, checks, counts ---
    let mut counts = world_counts(&h);
    for (name, v) in &mut counts {
        *v -= before[name];
    }
    let attached = h.attached_count() as u64;
    let hosts = spec.hosts() as u64;
    let mut digest = Digest {
        events: counts["netsim.events"],
        updates_sent: counts["mhrp.updates_sent"],
        overhead_bytes: counts["mhrp.overhead_bytes"],
        handoffs,
        attached,
        ..Digest::default()
    };
    let mut checks = Vec::new();
    let (attempted, failed);
    if let Some(traffic) = &spec.traffic {
        // The soak binary's handoff SLO: an open-loop flow at R pkt/s
        // may lose a 350 ms registration outage's worth per handoff.
        // The other objectives are not this benchmark's to judge.
        let thresholds = SloThresholds {
            min_delivery_ratio: spec.min_delivery,
            max_handoff_loss_per_handoff: (traffic.per_sec * 0.35).max(1.0),
            max_p99_latency_us: f64::MAX,
            max_overhead_per_packet: f64::MAX,
            max_update_rate_per_sec: f64::MAX,
        };
        let report = tr.time("workload.slo.evaluate", || {
            let mut latency = telemetry::Histogram::latency_us();
            let mut m = SloMeasurements {
                sim_seconds: spec.window.as_micros() as f64 / 1e6,
                handoffs,
                overhead_bytes: digest.overhead_bytes,
                updates_sent: digest.updates_sent,
                ..SloMeasurements::default()
            };
            for f in &flows {
                latency.merge(&f.latency_us);
                m.sent += f.stats.sent;
                m.delivered += f.stats.delivered;
                m.completed += f.stats.completed;
                m.failed += f.stats.failed;
                m.retries += f.stats.retries;
            }
            m.latency_p50_us = latency.p50();
            m.latency_p99_us = latency.p99();
            m.latency_max_us = latency.max();
            let world = format!("{}x{}x{}", spec.regions, spec.fas, spec.mobiles);
            evaluate(spec.name, world, m, &thresholds)
        });
        checks.extend(
            report
                .checks
                .into_iter()
                .filter(|c| c.name == "delivery_ratio" || c.name == "handoff_loss_per_handoff"),
        );
        let m = report.measurements;
        digest.sent = m.sent;
        digest.delivered = m.delivered;
        digest.completed = m.completed;
        digest.latency_p50_us = m.latency_p50_us;
        digest.latency_p99_us = m.latency_p99_us;
        counts.insert("workload.sent", m.sent);
        counts.insert("workload.delivered", m.delivered);
        counts.insert("workload.completed", m.completed);
        counts.insert("workload.retries", m.retries);
        counts.insert("workload.handoffs", m.handoffs);
        attempted = m.completed + m.failed;
        failed = m.failed;
    } else {
        let ratio = attached as f64 / hosts as f64;
        checks.push(SloCheck {
            name: "attached_ratio".into(),
            measured: ratio,
            threshold: 0.99,
            pass: ratio >= 0.99,
        });
        attempted = hosts;
        failed = hosts - attached;
    }
    if telemetry {
        tr.time("telemetry.export", || {
            let events: Vec<telemetry::Event> = h.world.telemetry().events().copied().collect();
            std::hint::black_box(telemetry::json::trace_json(events.iter()));
        });
    }
    tr.time("scenarios.hierarchy.drop", || drop(h));
    tr.exit(rep_span);

    // More set-ups, after the window so they cannot disturb it; the
    // worlds are discarded.
    let mut spent = Duration::ZERO;
    while setups.len() < SETUP_SAMPLES && spent + setups[0] <= SETUP_BUDGET {
        let started = Instant::now();
        let discarded = set_up(spec, seed, telemetry, &mut Tracer::new(false));
        setups.push(started.elapsed());
        drop(discarded);
        spent += started.elapsed();
    }
    let setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let setup_s = stats::median(&setups);
    SimRep { setup_s, window_s, sim_s, digest, attempted, failed, checks, counts, rss_after_mb }
}

/// Host seconds of `spec`'s window (a storm) on the region-sharded
/// engine at `shards` shards; the classic world's window is the base of
/// `netsim.shard.s2_wall_ratio`.
pub fn sharded_storm_window_s(spec: &SimSpec, seed: u64, shards: usize) -> f64 {
    let mut h = ShardedHierarchy::build(hierarchy_params(spec, seed), shards);
    let started = Instant::now();
    h.world.run_for(spec.window);
    let wall = started.elapsed().as_secs_f64();
    assert!(SimWorld::events_processed(&h.world) > 0);
    wall
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_specs_keep_every_code_path() {
        for name in ["storm_25k", "tunnel_1k", "roam_10k"] {
            let full = spec(name, false).unwrap();
            let quick = spec(name, true).unwrap();
            assert_eq!(quick.hosts(), 80);
            assert_eq!(full.traffic.is_some(), quick.traffic.is_some());
            assert_eq!(full.dwell.is_some(), quick.dwell.is_some());
            assert_eq!(full.telemetry, quick.telemetry);
        }
        assert_eq!(spec("storm_25k", false).unwrap().hosts(), 25_000);
        assert_eq!(spec("tunnel_1k", false).unwrap().hosts(), 1_000);
        assert_eq!(spec("roam_10k", false).unwrap().hosts(), 10_000);
        assert!(spec("live_fig1", false).is_none());
    }

    /// Two repetitions at one seed agree on every simulated statistic;
    /// another seed makes other inputs.
    #[test]
    fn digest_repeats_at_a_seed_and_moves_with_it() {
        let spec = spec("roam_10k", true).unwrap();
        let mut tr = Tracer::new(false);
        let a = run_rep(&spec, 7, spec.telemetry, &mut tr);
        let b = run_rep(&spec, 7, spec.telemetry, &mut tr);
        let c = run_rep(&spec, 8, spec.telemetry, &mut tr);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
        assert!(a.digest.sent > 0 && a.digest.handoffs > 0 && a.attempted > 0);
        assert_eq!(a.sim_s, 4.0 + 2.0);
        assert_eq!(a.counts["workload.sent"], a.digest.sent);
    }

    #[test]
    fn traced_soak_folds_hot_calls_per_tick() {
        let spec = spec("tunnel_1k", true).unwrap();
        let mut tr = Tracer::new(true);
        let rep = run_rep(&spec, 1994, false, &mut tr);
        let st = tr.self_times();
        assert_eq!(st["scenarios.soak.transmit"].1, rep.digest.sent);
        assert_eq!(st["netsim.world.run"].1, (20 + 2) * 1_000 / 50);
        assert!(st["workload.traffic.flows"].0 > 0.0);
        assert!(st.contains_key("scenarios.hierarchy.build"));
        assert!(st.contains_key("workload.slo.evaluate"));
        // Every layer's self time is inside the repetition.
        let total: f64 = st.values().map(|v| v.0).sum();
        assert!(total <= rep.setup_s + rep.window_s + 5.0);
    }
}
