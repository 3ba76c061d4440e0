//! A roaming laptop: a continuous UDP stream follows the mobile host
//! through home → cell D → cell E → home while the sender never learns
//! anything moved.
//!
//! The itinerary is a workload [`MovePlan`] and the stream is a CBR
//! [`Flow`] driven by the soak engine — the same machinery the CI soak
//! gate runs, here on the paper's Figure 1 topology.
//!
//! ```text
//! cargo run --example roaming_laptop
//! ```

use mhrp_suite::prelude::*;
use scenarios::soak::MhrpIo;
use workload::{
    evaluate, run_soak, Flow, FlowCfg, MoveOp, MovePlan, Pattern, SloMeasurements, SloThresholds,
    SoakIo, SoakParams, Transmit,
};

/// Notes when each probe arrived on its way from the driver to the flow:
/// [`MhrpIo`] drains the mobile's endpoint log as it polls, so the
/// per-window profile below is read here, not from the log afterwards.
struct ArrivalTimes<'a> {
    io: MhrpIo<'a>,
    at: Vec<SimTime>,
}

impl SoakIo for ArrivalTimes<'_> {
    fn run_until(&mut self, t: SimTime) {
        self.io.run_until(t);
    }
    fn now(&self) -> SimTime {
        self.io.now()
    }
    fn transmit(&mut self, t: &Transmit) {
        self.io.transmit(t);
    }
    fn poll_deliveries(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        let seen = out.len();
        self.io.poll_deliveries(flow, out);
        self.at.extend(out[seen..].iter().map(|&(_, at)| at));
    }
    fn poll_responses(&mut self, flow: usize, out: &mut Vec<(u32, SimTime)>) {
        self.io.poll_responses(flow, out);
    }
}

fn main() {
    println!("== Roaming laptop: a stream that follows the host ==\n");
    let mut f = Figure1::build(Figure1Options::default());
    let m_addr = f.addrs.m;
    f.world.run_until(SimTime::from_secs(1));

    // Movement itinerary as a workload plan: cell 0 is home (net B),
    // cells 1 and 2 are the visited wireless cells D and E.
    let cells = [f.net_b, f.net_d, f.net_e];
    let cell_names = ["home", "cell D", "cell E"];
    let plan = MovePlan::new()
        .op(SimTime::from_secs(5), MoveOp::Attach { host: 0, cell: 1 })
        .op(SimTime::from_secs(15), MoveOp::Attach { host: 0, cell: 2 })
        .op(SimTime::from_secs(25), MoveOp::Attach { host: 0, cell: 0 });
    println!("itinerary ({} handoffs):", plan.handoffs());
    for (at, op) in plan.ops() {
        match op {
            MoveOp::Attach { cell, .. } => {
                println!("  t={:>2}s  -> {}", at.as_micros() / 1_000_000, cell_names[*cell]);
            }
            MoveOp::Detach { .. } => println!("  t={:>2}s  detach", at.as_micros() / 1_000_000),
        }
    }
    plan.install(&mut f.world, &[(f.m, IfaceId(0))], &cells);

    // A 30-second CBR stream at 50 ms spacing, sent to the *home*
    // address the whole time.
    let duration = SimDuration::from_secs(30);
    let cfg = FlowCfg {
        pattern: Pattern::Cbr { interval: SimDuration::from_millis(50) },
        bytes: 120,
        seed: 1994,
        limit: None,
    };
    println!("\nworkload: {}\n", cfg.pattern.describe(cfg.bytes));
    let mut flows = vec![Flow::new(0, cfg)];
    let overhead0 = f.world.stats().counter("mhrp.overhead_bytes");
    let updates0 = f.world.stats().counter("mhrp.updates_sent");
    let mut io =
        ArrivalTimes { io: MhrpIo::new(&mut f.world, f.s, vec![(f.m, m_addr)]), at: Vec::new() };
    run_soak(
        &mut io,
        &mut flows,
        &SoakParams {
            duration,
            tick: SimDuration::from_millis(50),
            drain: SimDuration::from_secs(3),
        },
    );
    let received = io.at;
    let flow = &flows[0];

    let mnode = f.world.node::<MobileHostNode>(f.m);
    println!(
        "sent {} packets over 30 s while crossing {} attachment changes",
        flow.stats.sent,
        plan.handoffs()
    );
    println!(
        "delivered: {} ({:.1}%)",
        flow.stats.delivered,
        100.0 * flow.stats.delivered as f64 / flow.stats.sent as f64
    );
    println!("moves completed: {}", mnode.core.stats.moves);
    println!("registrations acked: {}", mnode.core.stats.ha_registrations_acked);
    println!("final attachment: {:?}", mnode.core.state);

    // Per-5-second delivery profile shows the brief handoff dips.
    println!("\ndelivery per 5-second window:");
    for w in 0..7u64 {
        let lo = SimTime::from_secs(1 + w * 5);
        let hi = SimTime::from_secs(1 + (w + 1) * 5);
        let n = received.iter().filter(|&&at| at >= lo && at < hi).count();
        println!("  {:>2}-{:>2}s: {:3} {}", w * 5, (w + 1) * 5, n, "#".repeat(n / 4));
    }
    println!(
        "\nlocation updates sent: {}, sender tunnels: {}, home-agent tunnels: {}",
        f.world.stats().counter("mhrp.updates_sent"),
        f.world.stats().counter("mhrp.tunneled_by_sender"),
        f.world.stats().counter("mhrp.ha_tunneled"),
    );

    // The same SLO evaluation the soak gate applies, on this one flow.
    let m = SloMeasurements {
        sim_seconds: duration.as_micros() as f64 / 1e6,
        handoffs: plan.handoffs(),
        sent: flow.stats.sent,
        delivered: flow.stats.delivered,
        latency_p50_us: flow.latency_us.p50(),
        latency_p99_us: flow.latency_us.p99(),
        latency_max_us: flow.latency_us.max(),
        overhead_bytes: f.world.stats().counter("mhrp.overhead_bytes") - overhead0,
        updates_sent: f.world.stats().counter("mhrp.updates_sent") - updates0,
        ..SloMeasurements::default()
    };
    // A handoff's registration outage is ~200 ms, so a 20 pkt/s CBR
    // stream expects up to ~4 losses per handoff; gate at a 350 ms
    // outage bound like the CI soak does.
    let thresholds =
        SloThresholds { max_handoff_loss_per_handoff: 20.0 * 0.35, ..SloThresholds::default() };
    let report = evaluate(
        flow.cfg.pattern.describe(flow.cfg.bytes),
        "figure-1 internetwork",
        m,
        &thresholds,
    );
    println!("\nSLO checks ({}):", if report.pass { "all pass" } else { "BREACH" });
    for c in &report.checks {
        println!(
            "  {:<26} {:>10.3} vs {:>8.3}  {}",
            c.name,
            c.measured,
            c.threshold,
            if c.pass { "ok" } else { "FAIL" }
        );
    }
}
