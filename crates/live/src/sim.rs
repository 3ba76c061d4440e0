//! The simulated reference leg: compiles a [`LoopbackScenario`] into a
//! [`World`] and extracts per-probe journeys, using exactly the node
//! construction and interface order the live leg uses.

use mhrp::{MhrpHostNode, MobileHostNode};
use netsim::time::SimTime;
use netsim::{IfaceId, NodeId, SegmentId, SegmentParams, World};
use workload::{decode_probe, encode_probe};

use crate::outcome::{assemble, RawDelivery, RunOutcome};
use crate::scenario::{
    BuiltNode, LoopbackScenario, CELLS, PROBE_LEN, PROBE_PORT, SEG_NET_D, SEG_NET_E,
};

/// Runs the scenario in the deterministic simulator and returns the
/// per-probe outcome.
pub fn run_sim(sc: &LoopbackScenario) -> RunOutcome {
    let mut w = World::new(sc.seed);
    let mut segments: Vec<SegmentId> = Vec::new();
    for idx in 0..6 {
        let params = if idx == SEG_NET_D || idx == SEG_NET_E {
            SegmentParams::wireless()
        } else {
            SegmentParams::with_latency(sc.wired_latency)
        };
        segments.push(w.add_segment(params));
    }

    let plan = sc.iface_plan();
    let mut node_ids = Vec::with_capacity(sc.node_count());
    for (i, ifaces) in plan.iter().enumerate() {
        let id = match sc.build_node(i) {
            BuiltNode::Router(r) => w.add_node(r),
            BuiltNode::Host(h) => w.add_node(h),
            BuiltNode::Mobile(m) => w.add_node(m),
        };
        for &seg in ifaces {
            w.add_iface(id, Some(segments[seg]));
        }
        node_ids.push(id);
    }
    w.set_telemetry(true);
    w.start();

    let s = node_ids[sc.s_index()];
    for p in &sc.probes {
        let dst = sc.mobile_addr(p.mobile);
        let (flow, seq) = (p.flow, p.seq);
        w.schedule_script(
            p.at,
            s,
            Box::new(move |w, s| {
                w.with_node::<MhrpHostNode, _>(s, |h, ctx| {
                    h.send_udp(
                        ctx,
                        dst,
                        LoopbackScenario::src_port(flow),
                        PROBE_PORT,
                        encode_probe(flow, seq, PROBE_LEN),
                    );
                });
            }),
        );
    }

    let hosts: Vec<(NodeId, IfaceId)> =
        (0..sc.mobiles).map(|i| (node_ids[sc.mobile_index(i)], IfaceId(0))).collect();
    let cells: Vec<SegmentId> = CELLS.iter().map(|&c| segments[c]).collect();
    sc.moves.install(&mut w, &hosts, &cells);

    w.run_until(sc.end);

    let mut deliveries = Vec::new();
    for i in 0..sc.mobiles {
        let m = node_ids[sc.mobile_index(i)];
        for rec in &w.node::<MobileHostNode>(m).log().udp_rx {
            if rec.dst_port != PROBE_PORT {
                continue;
            }
            let Some((flow, seq)) = decode_probe(&rec.payload) else { continue };
            let hops = rec
                .journey
                .map(|j| w.journey_hops(j).into_iter().map(|n| n.0 as u32).collect())
                .unwrap_or_default();
            deliveries.push(RawDelivery { flow, seq, at: rec.at, hops });
        }
    }

    // In the simulator the scheduled time *is* the send time.
    let send_times: Vec<(u32, u32, SimTime)> =
        sc.probes.iter().map(|p| (p.flow, p.seq, p.at)).collect();
    assemble(
        "sim",
        sc,
        deliveries,
        &send_times,
        sc.end.as_secs_f64(),
        w.stats().counter("mhrp.overhead_bytes"),
        w.stats().counter("mhrp.updates_sent"),
    )
}
