//! The shared scenario both runtimes execute: the paper's Figure 1
//! internetwork with `N` mobile hosts roaming D → E → home, probed from
//! the correspondent S before, between and after every move.
//!
//! The point of this module is that *one* description drives both legs
//! of the cross-validation. Node construction, interface order (which
//! fixes the global MAC assignment), addressing and the probe/move
//! timetable are defined once; `sim.rs` compiles them into a
//! [`netsim::World`] and `run.rs` into a fleet of UDP agents. With one
//! mobile host the build order reproduces
//! [`scenarios::topology::Figure1`] exactly — same node ids, same MACs,
//! same addresses — so journeys are comparable across all three.

use std::net::Ipv4Addr;

use mhrp::{MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::IfaceId;
use scenarios::topology::{
    backbone_addr, configure_host_s_stack, configure_router_stack, net, Figure1Addrs,
};
use workload::{MoveOp, MovePlan};

/// UDP destination port probe traffic is addressed to.
pub const PROBE_PORT: u16 = 9900;

/// Probe payload length in bytes (≥ `workload::PROBE_HEADER`).
pub const PROBE_LEN: usize = 64;

/// Segment index of the backbone in the shared segment table.
pub const SEG_BACKBONE: usize = 0;
/// Segment index of network A (S's network).
pub const SEG_NET_A: usize = 1;
/// Segment index of network B (the mobiles' home network).
pub const SEG_NET_B: usize = 2;
/// Segment index of network C.
pub const SEG_NET_C: usize = 3;
/// Segment index of wireless network D (R4's cell).
pub const SEG_NET_D: usize = 4;
/// Segment index of wireless network E (R5's cell).
pub const SEG_NET_E: usize = 5;

/// Cell table for the [`MovePlan`]: cell 0 = D, cell 1 = E, cell 2 =
/// home (B).
pub const CELLS: [usize; 3] = [SEG_NET_D, SEG_NET_E, SEG_NET_B];

/// One scheduled probe from S.
#[derive(Debug, Clone, Copy)]
pub struct ProbePoint {
    /// When S transmits it.
    pub at: SimTime,
    /// Which mobile host it targets (index, not node id).
    pub mobile: usize,
    /// Flow id stamped into the probe payload (`mobile + 1`).
    pub flow: u32,
    /// Sequence number within the flow.
    pub seq: u32,
}

/// Everything both runtimes need to execute the same experiment.
#[derive(Debug, Clone)]
pub struct LoopbackScenario {
    /// Number of mobile hosts (homed on network B at `10.2.0.77 + i`).
    pub mobiles: usize,
    /// Protocol configuration shared by every MHRP node.
    pub config: MhrpConfig,
    /// Latency of the wired segments in the simulated leg.
    pub wired_latency: SimDuration,
    /// Deterministic seed for the simulated leg.
    pub seed: u64,
    /// Probe timetable, in send order.
    pub probes: Vec<ProbePoint>,
    /// Mobility timetable (host index `i` = mobile `i`, cells per
    /// [`CELLS`]).
    pub moves: MovePlan,
    /// When the experiment ends.
    pub end: SimTime,
}

impl LoopbackScenario {
    /// The canonical cross-validation scenario: each mobile visits
    /// D → E → home with three probes per dwell period, staggered a
    /// little per mobile so handoffs never coincide.
    ///
    /// Protocol timers are tightened (200 ms advertisements, 100 ms
    /// registration retry) so the whole experiment — three handoffs,
    /// nine probes per mobile — fits in about 2 wall seconds while
    /// leaving two full advertisement periods of settling margin
    /// between every move and the next probe.
    pub fn canonical(mobiles: usize) -> LoopbackScenario {
        assert!(mobiles >= 1, "need at least one mobile host");
        assert!(mobiles <= 64, "address plan supports at most 64 mobiles");
        let config = MhrpConfig {
            advertisement_interval: SimDuration::from_millis(200),
            registration_retry: SimDuration::from_millis(100),
            ..MhrpConfig::default()
        };
        let mut moves = MovePlan::new();
        let mut probes = Vec::new();
        for m in 0..mobiles {
            let stagger = SimDuration::from_millis(20 * m as u64);
            for (phase, cell) in [(0u64, 0usize), (1, 1), (2, 2)] {
                let move_at = SimTime::from_millis(300 + 600 * phase) + stagger;
                moves = moves.op(move_at, MoveOp::Attach { host: m, cell });
                for k in 0..3u64 {
                    probes.push(ProbePoint {
                        at: move_at + SimDuration::from_millis(300 + 50 * k),
                        mobile: m,
                        flow: m as u32 + 1,
                        seq: (phase * 3 + k) as u32,
                    });
                }
            }
        }
        probes.sort_by_key(|p| p.at);
        let end = SimTime::from_millis(2200) + SimDuration::from_millis(20 * mobiles as u64);
        LoopbackScenario {
            mobiles,
            config,
            wired_latency: SimDuration::from_micros(500),
            seed: 42,
            probes,
            moves,
            end,
        }
    }

    /// Total node count: five routers, S, and the mobiles.
    pub fn node_count(&self) -> usize {
        6 + self.mobiles
    }

    /// Node index of the correspondent host S.
    pub fn s_index(&self) -> usize {
        5
    }

    /// Node index of mobile `i`.
    pub fn mobile_index(&self, i: usize) -> usize {
        6 + i
    }

    /// Home address of mobile `i` (`10.2.0.77 + i`).
    pub fn mobile_addr(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 2, 0, 77 + i as u8)
    }

    /// Which segment index each interface of each node starts attached
    /// to, in global interface-creation order (this order fixes the MAC
    /// assignment both runtimes share).
    pub fn iface_plan(&self) -> Vec<Vec<usize>> {
        let mut plan = vec![
            vec![SEG_BACKBONE, SEG_NET_A], // R1
            vec![SEG_BACKBONE, SEG_NET_B], // R2
            vec![SEG_BACKBONE, SEG_NET_C], // R3
            vec![SEG_NET_C, SEG_NET_D],    // R4
            vec![SEG_NET_C, SEG_NET_E],    // R5
            vec![SEG_NET_A],               // S
        ];
        for _ in 0..self.mobiles {
            plan.push(vec![SEG_NET_B]);
        }
        plan
    }

    /// UDP source port for probes of `flow`.
    pub fn src_port(flow: u32) -> u16 {
        40_000 + flow as u16
    }

    /// Builds node `index`'s protocol core, fully configured — the
    /// single construction path both runtimes share.
    pub fn build_node(&self, index: usize) -> BuiltNode {
        let addrs = Figure1Addrs::plan();
        match index {
            0..=4 => {
                let pos = index as u8 + 1;
                let mut r = match pos {
                    2 => MhrpRouterNode::new(self.config.clone())
                        .with_home_agent(IfaceId(1))
                        .with_advertiser(vec![IfaceId(1)]),
                    4 | 5 => MhrpRouterNode::new(self.config.clone())
                        .with_foreign_agent(IfaceId(1))
                        .with_advertiser(vec![IfaceId(1)]),
                    _ => MhrpRouterNode::new(self.config.clone()),
                };
                if pos == 1 {
                    r.cache_enabled = true;
                }
                configure_router_stack(&mut r.stack, pos);
                BuiltNode::Router(r)
            }
            5 => {
                let mut h = MhrpHostNode::new(&self.config);
                configure_host_s_stack(&mut h.stack);
                BuiltNode::Host(h)
            }
            i => {
                let m = i - self.mobile_index(0);
                assert!(m < self.mobiles, "node index {i} out of range");
                BuiltNode::Mobile(MobileHostNode::new(
                    self.mobile_addr(m),
                    addrs.home_prefix,
                    addrs.r2,
                    addrs.r2,
                    self.config.clone(),
                ))
            }
        }
    }
}

/// A constructed protocol core, typed (the sans-io harness needs the
/// concrete node type, not a trait object).
#[allow(clippy::large_enum_variant)]
pub enum BuiltNode {
    /// One of R1–R5.
    Router(MhrpRouterNode),
    /// The correspondent host S.
    Host(MhrpHostNode),
    /// A mobile host.
    Mobile(MobileHostNode),
}

/// Re-exported for callers wanting the canonical address plan.
pub fn plan_addrs() -> Figure1Addrs {
    Figure1Addrs::plan()
}

/// `10.n.0.0/24` (network 0 is the backbone) — re-exported from
/// [`scenarios::topology`] for convenience.
pub fn net_prefix(n: u8) -> ip::Prefix {
    net(n)
}

/// Router `r`'s backbone address, re-exported likewise.
pub fn router_backbone_addr(r: u8) -> Ipv4Addr {
    backbone_addr(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_one_mobile_matches_figure1_shape() {
        let sc = LoopbackScenario::canonical(1);
        assert_eq!(sc.node_count(), 7);
        assert_eq!(sc.iface_plan().iter().map(Vec::len).sum::<usize>(), 12);
        assert_eq!(sc.probes.len(), 9);
        assert_eq!(sc.moves.handoffs(), 3);
        assert!(sc.moves.end() < sc.end);
        assert_eq!(sc.mobile_addr(0), Figure1Addrs::plan().m);
    }

    #[test]
    fn probes_leave_settling_margin_after_each_move() {
        let sc = LoopbackScenario::canonical(3);
        for p in &sc.probes {
            let nearest_move_before = sc
                .moves
                .ops()
                .iter()
                .filter(|(at, op)| {
                    matches!(op, MoveOp::Attach { host, .. } if *host == p.mobile) && *at <= p.at
                })
                .map(|(at, _)| *at)
                .max()
                .expect("every probe follows a move");
            assert!(p.at.since(nearest_move_before) >= SimDuration::from_millis(300));
        }
    }
}
