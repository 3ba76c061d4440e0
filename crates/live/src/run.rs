//! The live leg: spawns one UDP agent per node on 127.0.0.1, replays
//! the scenario's probe and mobility timetable in wall time, and
//! reconstructs per-probe journeys from the merged agent telemetry.

use std::collections::HashMap;

use netsim::time::SimTime;
use netsim::{Clock, IfaceId, LinkEvent, MacAddr, NodeHarness, NodeId};
use tokio::net::UdpSocket;
use tokio::sync::mpsc::{unbounded_channel, UnboundedSender};
use tokio::time::Duration;
use workload::{decode_probe, MoveOp};

use crate::agent::{Agent, AgentReport, Cmd, LiveIo, Role};
use crate::clock::WallClock;
use crate::outcome::{assemble, RawDelivery, RunOutcome};
use crate::scenario::{BuiltNode, LoopbackScenario, CELLS, PROBE_PORT};
use crate::switchboard::{Port, Switchboard};

/// Extra wall time after the last scheduled event before agents are
/// stopped, so in-flight registrations and updates drain.
const SETTLE: Duration = Duration::from_millis(300);

/// Per-agent journey-id namespace: agent `n` mints ids starting at
/// `(n + 1) << 40`, so ids stay globally unique across the fleet and a
/// journey's fragments can be merged by id alone.
fn journey_base(node: NodeId) -> u64 {
    ((node.0 as u64) + 1) << 40
}

/// Node `i`'s role and its harness around a freshly built protocol core
/// (same construction path as the sim leg).
fn build_harness(sc: &LoopbackScenario, i: usize) -> (Role, NodeHarness) {
    let node_id = NodeId(i);
    let seed = sc.seed ^ i as u64;
    match sc.build_node(i) {
        BuiltNode::Router(r) => (Role::Router, NodeHarness::new(node_id, r, seed)),
        BuiltNode::Host(h) => (Role::HostS, NodeHarness::new(node_id, h, seed)),
        BuiltNode::Mobile(m) => {
            (Role::Mobile(i - sc.mobile_index(0)), NodeHarness::new(node_id, m, seed))
        }
    }
}

/// Runs the scenario over real UDP sockets on the loopback interface
/// inside the current tokio runtime, returning the per-probe outcome.
///
/// Wall time maps 1:1 onto the scenario's timeline: `canonical(1)`
/// takes about 2.5 s of real time.
pub async fn run_live(sc: &LoopbackScenario) -> std::io::Result<RunOutcome> {
    Ok(collect(sc, &run_fleet(sc).await?))
}

/// Brings the fleet up, replays the timetable and returns every agent's
/// report.
async fn run_fleet(sc: &LoopbackScenario) -> std::io::Result<Vec<AgentReport>> {
    let clock = WallClock::new();
    let switchboard = Switchboard::new();
    let plan = sc.iface_plan();

    // Bind every interface's socket and register it before any agent
    // starts, so the fleet's membership view is complete from t = 0
    // (the simulator's world is fully built before `start`, likewise).
    let mut sockets: Vec<Vec<UdpSocket>> = Vec::with_capacity(plan.len());
    let mut mac_index = 0u64;
    for (i, ifaces) in plan.iter().enumerate() {
        let mut per_iface = Vec::with_capacity(ifaces.len());
        for (k, &seg) in ifaces.iter().enumerate() {
            let sock = UdpSocket::bind("127.0.0.1:0").await?;
            switchboard.register(Port {
                node: NodeId(i),
                iface: IfaceId(k),
                mac: MacAddr::from_index(mac_index),
                addr: sock.local_addr()?,
                segment: Some(seg),
            });
            per_iface.push(sock);
            mac_index += 1;
        }
        sockets.push(per_iface);
    }

    // Build harnesses, wire up mailboxes and socket readers, and spawn
    // the agents.
    let mut txs: Vec<UnboundedSender<Cmd>> = Vec::with_capacity(plan.len());
    let mut handles = Vec::with_capacity(plan.len());
    let mut mac_index = 0u64;
    for (i, ifaces) in plan.iter().enumerate() {
        let node_id = NodeId(i);
        let (role, mut harness) = build_harness(sc, i);
        for _ in ifaces {
            harness.add_iface(MacAddr::from_index(mac_index), true);
            mac_index += 1;
        }
        harness.set_telemetry(true);
        harness.telemetry_mut().set_journey_base(journey_base(node_id));

        let (tx, rx) = unbounded_channel();
        let mut senders = Vec::with_capacity(ifaces.len());
        for (k, sock) in sockets[i].iter().enumerate() {
            senders.push(sock.std_clone()?);
            let reader_tx = tx.clone();
            let iface = IfaceId(k);
            let sock = sock.std_clone()?;
            let sock = UdpSocket::from_std(sock)?;
            tokio::task::spawn(async move {
                let mut buf = vec![0u8; 4096];
                while let Ok((len, _)) = sock.recv_from(&mut buf).await {
                    let cmd = Cmd::Datagram { iface, bytes: buf[..len].to_vec() };
                    if reader_tx.send(cmd).is_err() {
                        break;
                    }
                }
            });
        }

        let agent = Agent {
            harness,
            role,
            io: LiveIo::new(switchboard.clone(), senders),
            clock,
            rx,
            switchboard: switchboard.clone(),
        };
        txs.push(tx);
        handles.push(tokio::task::spawn(agent.run()));
    }
    drop(sockets); // readers own independent descriptors

    // The coordinator: replay moves and probes on the shared clock.
    enum Step {
        Move(MoveOp),
        Probe { mobile: usize, flow: u32, seq: u32 },
    }
    let mut timetable: Vec<(SimTime, Step)> = Vec::new();
    for &(at, op) in sc.moves.ops() {
        timetable.push((at, Step::Move(op)));
    }
    for p in &sc.probes {
        timetable.push((p.at, Step::Probe { mobile: p.mobile, flow: p.flow, seq: p.seq }));
    }
    timetable.sort_by_key(|(at, _)| *at);

    let s_tx = txs[sc.s_index()].clone();
    for (at, step) in timetable {
        let now = clock.now();
        if at > now {
            tokio::time::sleep(Duration::from_nanos(at.since(now).as_nanos())).await;
        }
        match step {
            Step::Move(MoveOp::Attach { host, cell }) => {
                let node = NodeId(sc.mobile_index(host));
                let tx = &txs[node.0];
                // Mirror `World::move_iface`: detach from the old cell
                // (if attached), then attach to the new one.
                if switchboard.segment_of(node, IfaceId(0)).is_some() {
                    switchboard.set_segment(node, IfaceId(0), None);
                    let _ = tx.send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Detached });
                }
                switchboard.set_segment(node, IfaceId(0), Some(CELLS[cell]));
                let _ = tx.send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Attached });
            }
            Step::Move(MoveOp::Detach { host }) => {
                let node = NodeId(sc.mobile_index(host));
                switchboard.set_segment(node, IfaceId(0), None);
                let _ =
                    txs[node.0].send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Detached });
            }
            Step::Probe { mobile, flow, seq } => {
                let _ = s_tx.send(Cmd::Probe { dst: sc.mobile_addr(mobile), flow, seq });
            }
        }
    }

    let now = clock.now();
    if sc.end > now {
        tokio::time::sleep(Duration::from_nanos(sc.end.since(now).as_nanos())).await;
    }
    tokio::time::sleep(SETTLE).await;
    for tx in &txs {
        let _ = tx.send(Cmd::Stop);
    }
    let mut reports: Vec<AgentReport> = Vec::with_capacity(handles.len());
    for h in handles {
        reports.push(h.await.expect("agent task does not panic"));
    }
    Ok(reports)
}

/// Merges agent telemetry into global journeys and matches mobile-side
/// deliveries to the probe timetable.
fn collect(sc: &LoopbackScenario, reports: &[AgentReport]) -> RunOutcome {
    let mut events: Vec<telemetry::Event> = Vec::new();
    let mut overhead_bytes = 0;
    let mut updates_sent = 0;
    let mut send_times: Vec<(u32, u32, SimTime)> = Vec::new();
    for r in reports {
        events.extend(r.events.iter().copied());
        overhead_bytes += r.overhead_bytes;
        updates_sent += r.updates_sent;
        send_times.extend(r.probe_sends.iter().copied());
    }
    // One shared wall clock means per-node timestamps form one global
    // timeline; a journey's frame deliveries are strictly ordered by
    // real propagation, so sorting by time reconstructs the hop order.
    events.sort_by_key(|e| e.at_nanos);
    let mut hops_of: HashMap<telemetry::JourneyId, Vec<u32>> = HashMap::new();
    for e in &events {
        if let (Some(j), Some(node), telemetry::EventKind::FrameRx { .. }) =
            (e.journey, e.node, e.kind)
        {
            hops_of.entry(j).or_default().push(node);
        }
    }

    let mut deliveries = Vec::new();
    for rec in reports.iter().flat_map(|r| &r.udp_rx) {
        if rec.dst_port != PROBE_PORT {
            continue;
        }
        let Some((flow, seq)) = decode_probe(&rec.payload) else { continue };
        let hops = rec.journey.and_then(|j| hops_of.get(&j)).cloned().unwrap_or_default();
        deliveries.push(RawDelivery { flow, seq, at: rec.at, hops });
    }

    let wall_seconds = sc.end.as_secs_f64();
    assemble("live", sc, deliveries, &send_times, wall_seconds, overhead_bytes, updates_sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_follow_the_scenario_layout() {
        let sc = LoopbackScenario::canonical(3);
        let roles: Vec<Role> = (0..sc.node_count()).map(|i| build_harness(&sc, i).0).collect();
        for (i, role) in roles.iter().enumerate() {
            let expected = match i {
                i if i == sc.s_index() => Role::HostS,
                i if i >= sc.mobile_index(0) => Role::Mobile(i - sc.mobile_index(0)),
                _ => Role::Router,
            };
            assert_eq!(*role, expected, "node {i}");
        }
        // What the agents and `iface_plan` assume of the layout: the
        // mobiles are the last nodes, in index order.
        assert_eq!(sc.mobile_index(0), sc.node_count() - sc.mobiles);
        assert_eq!(roles[sc.mobile_index(2)], Role::Mobile(2));
    }

    /// `collect` as it was before journeys were grouped once: a filter
    /// over the whole merged event list per delivered probe. Kept as the
    /// oracle.
    fn collect_by_filtering(sc: &LoopbackScenario, reports: &[AgentReport]) -> RunOutcome {
        let mut events: Vec<telemetry::Event> = Vec::new();
        let mut overhead_bytes = 0;
        let mut updates_sent = 0;
        let mut send_times: Vec<(u32, u32, SimTime)> = Vec::new();
        for r in reports {
            events.extend(r.events.iter().copied());
            overhead_bytes += r.overhead_bytes;
            updates_sent += r.updates_sent;
            send_times.extend(r.probe_sends.iter().copied());
        }
        events.sort_by_key(|e| e.at_nanos);

        let mut deliveries = Vec::new();
        for r in reports {
            for rec in &r.udp_rx {
                if rec.dst_port != PROBE_PORT {
                    continue;
                }
                let Some((flow, seq)) = decode_probe(&rec.payload) else { continue };
                let hops = rec
                    .journey
                    .map(|j| {
                        events
                            .iter()
                            .filter(|e| {
                                e.journey == Some(j)
                                    && matches!(e.kind, telemetry::EventKind::FrameRx { .. })
                            })
                            .filter_map(|e| e.node)
                            .collect()
                    })
                    .unwrap_or_default();
                deliveries.push(RawDelivery { flow, seq, at: rec.at, hops });
            }
        }

        let wall_seconds = sc.end.as_secs_f64();
        assemble("live", sc, deliveries, &send_times, wall_seconds, overhead_bytes, updates_sent)
    }

    #[test]
    fn collect_in_one_pass_matches_the_per_probe_filter() {
        for mobiles in [1, 4] {
            let sc = LoopbackScenario::canonical(mobiles);
            let rt = tokio::runtime::Runtime::new().expect("runtime");
            let reports = rt.block_on(run_fleet(&sc)).expect("live run");
            let (got, want) = (collect(&sc, &reports), collect_by_filtering(&sc, &reports));
            assert_eq!(got.probes.len(), 9 * mobiles);
            assert!(got.probes.iter().all(|p| p.delivered && !p.hops.is_empty()), "{got:?}");
            assert_eq!(got.label, want.label);
            assert_eq!(got.probes, want.probes);
            assert_eq!(got.report, want.report);
        }
    }
}
