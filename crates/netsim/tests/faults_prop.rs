//! Property tests of the fault-injection engine: an *arbitrary* fault
//! plan must leave the world consistent — every transmitted frame is
//! accounted for exactly once, crashed nodes come back and keep working,
//! and the same seed with the same plan reproduces identical runs.

use netsim::time::{SimDuration, SimTime};
use netsim::{
    Ctx, EtherType, FaultPlan, Frame, IfaceId, Node, NodeId, Op, SegmentId, SegmentParams,
    TimerToken, World,
};
use proptest::prelude::*;

/// When the chatters stop sending. Runs drain well past this (plus the
/// largest latency any generated op can set) so the conservation ledger
/// sees every in-flight frame land.
const STOP_SENDING_AT: SimTime = SimTime::from_millis(2_500);

/// A node that broadcasts every 2 ms until [`STOP_SENDING_AT`], counts
/// receptions, and — unlike a protocol-free test node — re-arms its
/// timer chain after a reboot, the way every real node type in this
/// workspace does.
struct Chatter {
    received: u64,
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(2), TimerToken(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        if ctx.now() >= STOP_SENDING_AT {
            return;
        }
        let f = Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x7a11), vec![0; 24]);
        ctx.send_frame(IfaceId(0), f);
        ctx.set_timer(SimDuration::from_millis(2), TimerToken(0));
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {
        self.received += 1;
    }
    fn on_reboot(&mut self, ctx: &mut Ctx<'_>) {
        // Volatile state (pending timers) died with the crash.
        ctx.set_timer(SimDuration::from_millis(2), TimerToken(0));
    }
}

const NODES: usize = 4;

/// One raw generated op: (selector, time offset µs, magnitude). Kept as
/// plain integers so the strategy stays shrink-free and `Debug`-printable
/// by the stand-in proptest.
type RawOp = (u8, u64, u64);

/// Builds a deterministic fault plan from raw generated tuples. Ops are
/// restricted to ones that do not move interfaces, so the
/// frame-conservation ledger stays exact (`offered = sent × (N-1)`).
fn build_plan(raw: &[RawOp], seg: SegmentId) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(sel, at_us, mag) in raw {
        let at = SimTime::from_micros(at_us % 2_000_000);
        let op = match sel % 8 {
            0 => Op::SetSegmentUp { segment: seg, up: false },
            1 => Op::SetSegmentUp { segment: seg, up: true },
            2 => Op::SetSegmentLoss { segment: seg, loss: (mag % 90) as f64 / 100.0 },
            3 => Op::SetSegmentLatency {
                segment: seg,
                latency: SimDuration::from_micros(1 + mag % 5_000),
            },
            4 => Op::LatencySpike {
                segment: seg,
                extra: SimDuration::from_micros(mag % 10_000),
                duration: SimDuration::from_micros(1 + mag % 300_000),
            },
            5 => Op::SetSegmentCorruption { segment: seg, probability: (mag % 100) as f64 / 100.0 },
            6 => Op::Crash {
                node: NodeId((mag % NODES as u64) as usize),
                down_for: SimDuration::from_micros(1 + mag % 500_000),
            },
            _ => Op::SetBroadcastsMuted {
                node: NodeId((mag % NODES as u64) as usize),
                iface: IfaceId(0),
                muted: true,
            },
        };
        plan = plan.op(at, op);
    }
    plan
}

/// Runs the chatter world under `plan` and returns
/// `(per-node receptions, all counters)`.
fn run_with_plan(seed: u64, plan: &FaultPlan) -> (Vec<u64>, Vec<(String, u64)>) {
    let mut w = World::new(seed);
    let seg = w.add_segment(SegmentParams::default());
    let ids: Vec<_> = (0..NODES)
        .map(|_| {
            let id = w.add_node(Chatter { received: 0 });
            w.add_iface(id, Some(seg));
            id
        })
        .collect();
    plan.install(&mut w);
    w.start();
    w.run_until(SimTime::from_secs(3));
    let rx = ids.iter().map(|&id| w.node::<Chatter>(id).received).collect();
    let counters = w.stats().counters().map(|(k, v)| (k.to_owned(), v)).collect();
    (rx, counters)
}

fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every frame that made it onto the wire is delivered,
    /// dropped by loss, or dropped at a crashed receiver — exactly once
    /// per potential receiver, no matter what the fault plan did.
    #[test]
    fn random_plan_conserves_frames(seed in any::<u64>(),
                                    raw in prop::collection::vec((0u8..8, 0u64..2_000_000, any::<u64>()), 0..12)) {
        let mut probe = World::new(0);
        let seg = probe.add_segment(SegmentParams::default());
        let plan = build_plan(&raw, seg);
        let (rx, counters) = run_with_plan(seed, &plan);
        let offered = counter(&counters, "link.frames_sent") * (NODES as u64 - 1);
        let accounted = rx.iter().sum::<u64>()
            + counter(&counters, "link.frames_dropped")
            + counter(&counters, "fault.frames_dropped_node_down")
            + counter(&counters, "link.frames_lost_moved");
        prop_assert_eq!(accounted, offered, "counters: {:?}", counters);
        // Delivered includes corrupted copies; they are delivered, not lost.
        prop_assert_eq!(rx.iter().sum::<u64>(), counter(&counters, "link.frames_delivered"));
    }

    /// Reproducibility: the same seed and the same plan give the same
    /// world, reception counts and counters included.
    #[test]
    fn random_plan_is_deterministic(seed in any::<u64>(),
                                    raw in prop::collection::vec((0u8..8, 0u64..2_000_000, any::<u64>()), 0..12)) {
        let mut probe = World::new(0);
        let seg = probe.add_segment(SegmentParams::default());
        let plan = build_plan(&raw, seg);
        let a = run_with_plan(seed, &plan);
        let b = run_with_plan(seed, &plan);
        prop_assert_eq!(a, b);
    }

    /// Liveness after the plan: once every scheduled fault (and crash
    /// window) has passed and the segment is up, traffic flows again —
    /// a crash is an outage, not a permanent death.
    #[test]
    fn crashed_nodes_recover_and_chat_again(seed in any::<u64>(),
                                            down_us in 1u64..1_000_000,
                                            crash_at_us in 0u64..500_000) {
        let mut w = World::new(seed);
        let seg = w.add_segment(SegmentParams::default());
        let ids: Vec<_> = (0..NODES)
            .map(|_| {
                let id = w.add_node(Chatter { received: 0 });
                w.add_iface(id, Some(seg));
                id
            })
            .collect();
        let victim = ids[0];
        let plan = FaultPlan::new().crash(
            victim,
            SimTime::from_micros(crash_at_us),
            SimDuration::from_micros(down_us),
        );
        plan.install(&mut w);
        w.start();
        w.run_until(SimTime::from_micros(crash_at_us) + SimDuration::from_micros(down_us));
        prop_assert!(!w.node_is_down(victim));
        let rx_at_reboot = w.node::<Chatter>(victim).received;
        w.run_for(SimDuration::from_secs(1));
        // The rebooted node both hears the others again…
        prop_assert!(w.node::<Chatter>(victim).received > rx_at_reboot);
        // …and its own re-armed timer chain keeps the others fed.
        prop_assert_eq!(w.stats().counter("fault.crashes"), 1);
    }
}
