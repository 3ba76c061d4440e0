//! **E07 — §7: scalability with the mobile-host population.**
//!
//! N mobile hosts share the home network and all move to the wireless
//! networks. Measured per protocol, as N grows:
//!
//! * **control messages per move** — MHRP's is constant; Sony's flood
//!   touches every router, Columbia's cache-miss query touches every MSR;
//! * **maximum single-node protocol state** — the Sunshine-Postel global
//!   directory holds *every* mobile host in the internet; an MHRP home
//!   agent holds only its own organization's (identical here because the
//!   topology has one organization — the distinction is who must scale);
//! * **single-node control load** — messages the busiest support node
//!   handled (the directory bottleneck §7 names);
//! * **temporary addresses consumed** — nonzero only for the protocols
//!   §7 faults for needing them.

use std::net::Ipv4Addr;

use baselines::columbia::{ColumbiaMobile, Msr, MsrNode};
use baselines::common::TempAddrPool;
use baselines::sony_vip::{VipMobile, VipRouter, VipRouterNode};
use baselines::sunshine_postel::{
    SpDirectory, SpDirectoryNode, SpForwarder, SpForwarderNode, SpHost, SpHostNode, SpMobile,
};
use mhrp::{MhrpConfig, MhrpRouterNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{IfaceId, NodeId, SegmentId, World};
use netstack::nodes::StackNode;

use crate::metrics::ScalabilityPoint;
use crate::shootout::{add_plain_router, phys, Phys};
use crate::topology::{backbone_addr, configure_router_stack, net, Figure1Addrs};

fn mobile_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 2, 0, (100 + i) as u8)
}

/// Staggered move schedule: every mobile moves once, 300 ms apart, then
/// the world settles.
fn run_moves(p: &mut Phys, mobiles: &[NodeId], target: SegmentId) {
    p.world.run_until(SimTime::from_secs(2));
    for (i, &m) in mobiles.iter().enumerate() {
        let at = p.world.now() + SimDuration::from_millis(300 * (i as u64 + 1));
        p.world
            .schedule(at, netsim::Op::AttachIface { node: m, iface: IfaceId(0), segment: target });
    }
    let horizon = p.world.now() + SimDuration::from_secs(10 + mobiles.len() as u64);
    p.world.run_until(horizon);
}

/// MHRP with `n` mobile hosts.
pub fn mhrp_point(seed: u64, n: usize) -> ScalabilityPoint {
    let config = MhrpConfig::default();
    let addrs = Figure1Addrs::plan();
    let mut p = phys(seed);
    add_plain_router(&mut p, 1);
    let r2 = p.world.add_node(
        MhrpRouterNode::new(config.clone())
            .with_home_agent(IfaceId(1))
            .with_advertiser(vec![IfaceId(1)]),
    );
    p.world.add_iface(r2, Some(p.backbone));
    p.world.add_iface(r2, Some(p.net_b));
    p.world.with_node::<MhrpRouterNode, _>(r2, |r, _| configure_router_stack(&mut r.stack, 2));
    add_plain_router(&mut p, 3);
    let r4 = p.world.add_node(
        MhrpRouterNode::new(config.clone())
            .with_foreign_agent(IfaceId(1))
            .with_advertiser(vec![IfaceId(1)]),
    );
    p.world.add_iface(r4, Some(p.net_c));
    p.world.add_iface(r4, Some(p.net_d));
    p.world.with_node::<MhrpRouterNode, _>(r4, |r, _| configure_router_stack(&mut r.stack, 4));
    let mut mobiles = Vec::new();
    for i in 0..n {
        let m = p.world.add_node(MobileHostNode::new(
            mobile_addr(i),
            net(2),
            addrs.r2,
            addrs.r2,
            config.clone(),
        ));
        p.world.add_iface(m, Some(p.net_b));
        mobiles.push(m);
    }
    p.world.start();
    let net_d = p.net_d;
    run_moves(&mut p, &mobiles, net_d);
    let moves: u64 =
        mobiles.iter().map(|&m| p.world.node::<MobileHostNode>(m).core.stats.moves).sum();
    let ctl = 2 * p.world.stats().counter("mhrp.registration_msgs_sent")
        + p.world.stats().counter("mhrp.updates_sent");
    let ha_state = p.world.node::<MhrpRouterNode>(r2).ha.as_ref().unwrap().binding_count();
    let fa_state = p.world.node::<MhrpRouterNode>(r4).fa.as_ref().unwrap().visitor_count();
    ScalabilityPoint {
        protocol: "MHRP".into(),
        mobiles: n,
        control_msgs_per_move: ctl as f64 / moves.max(1) as f64,
        max_node_state: ha_state.max(fa_state),
        temp_addrs_used: 0,
    }
}

/// Sunshine–Postel with `n` mobile hosts (the global directory).
pub fn sp_point(seed: u64, n: usize) -> ScalabilityPoint {
    sp_run(phys(seed), n).0
}

/// [`sp_point`] on the bare substrate `p`; also returns the world
/// after the run, for goldens over its counters and event log.
pub fn sp_run(mut p: Phys, n: usize) -> (ScalabilityPoint, World) {
    let addrs = Figure1Addrs::plan();
    for pos in 1..=3 {
        add_plain_router(&mut p, pos);
    }
    let fwd = p.world.add_node(StackNode::router(SpForwarder::new(IfaceId(1))));
    p.world.add_iface(fwd, Some(p.net_c));
    p.world.add_iface(fwd, Some(p.net_d));
    p.world.with_node::<SpForwarderNode, _>(fwd, |r, _| configure_router_stack(&mut r.stack, 4));
    let dir_addr = backbone_addr(9);
    let dir = p.world.add_node(StackNode::host(SpDirectory::default()));
    p.world.add_iface(dir, Some(p.backbone));
    p.world.with_node::<SpDirectoryNode, _>(dir, |d, _| {
        d.stack.add_iface(IfaceId(0), dir_addr, net(0));
    });
    // One correspondent that talks to every mobile (forcing queries).
    let s = p.world.add_node(StackNode::host(SpHost::new(dir_addr)));
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<SpHostNode, _>(s, |h, _| {
        crate::topology::configure_host_s_stack(&mut h.stack)
    });
    let mut mobiles = Vec::new();
    for i in 0..n {
        let m = p.world.add_node(StackNode::host(SpMobile::new(
            mobile_addr(i),
            net(2),
            addrs.r2,
            dir_addr,
        )));
        p.world.add_iface(m, Some(p.net_b));
        mobiles.push(m);
    }
    p.world.start();
    let net_d = p.net_d;
    run_moves(&mut p, &mobiles, net_d);
    // S pings every mobile once (each requires a directory query).
    for i in 0..n {
        let dst = mobile_addr(i);
        p.world.with_node::<SpHostNode, _>(s, |h, ctx| h.proto.ping(&mut h.stack, ctx, dst));
        p.world.run_for(SimDuration::from_millis(100));
    }
    p.world.run_for(SimDuration::from_secs(3));
    let stats = p.world.stats();
    let dir_load = stats.counter("sp.db_registrations") + stats.counter("sp.db_queries");
    let ctl = stats.counter("sp.mobile_registrations")
        + 2 * stats.counter("sp.host_queries")
        + stats.counter("sp.fwd_registrations");
    let point = ScalabilityPoint {
        protocol: "Sunshine-Postel".into(),
        mobiles: n,
        control_msgs_per_move: ctl as f64 / n.max(1) as f64,
        max_node_state: p.world.node::<SpDirectoryNode>(dir).db_size().max(dir_load as usize),
        temp_addrs_used: 0,
    };
    (point, p.world)
}

/// Columbia with `n` mobile hosts (MSR multicast queries).
pub fn columbia_point(seed: u64, n: usize) -> ScalabilityPoint {
    columbia_run(phys(seed), n).0
}

/// [`columbia_point`] on the bare substrate `p`; also returns the world
/// after the run, for goldens over its counters and event log.
pub fn columbia_run(mut p: Phys, n: usize) -> (ScalabilityPoint, World) {
    let addrs = Figure1Addrs::plan();
    add_plain_router(&mut p, 1);
    add_plain_router(&mut p, 3);
    let msr_addrs = [addrs.r2, addrs.r4, addrs.r5];
    let mut msrs = Vec::new();
    for (pos, first, seg) in
        [(2u8, p.backbone, p.net_b), (4, p.net_c, p.net_d), (5, p.net_c, p.net_e)]
    {
        let id = p.world.add_node(StackNode::router(Msr::new(IfaceId(1))));
        p.world.add_iface(id, Some(first));
        p.world.add_iface(id, Some(seg));
        p.world.with_node::<MsrNode, _>(id, |r, _| {
            configure_router_stack(&mut r.stack, pos);
            let self_addr = r.stack.iface_addr(IfaceId(1)).unwrap().addr;
            r.peers = msr_addrs.iter().copied().filter(|a| *a != self_addr).collect();
        });
        msrs.push(id);
    }
    let mut mobiles = Vec::new();
    for i in 0..n {
        p.world.with_node::<MsrNode, _>(msrs[0], |r, _| {
            r.proto.add_home_mobile(&mut r.stack, mobile_addr(i))
        });
        let m = p.world.add_node(StackNode::host(ColumbiaMobile::new(
            mobile_addr(i),
            net(2),
            addrs.r2,
        )));
        p.world.add_iface(m, Some(p.net_b));
        mobiles.push(m);
    }
    // A plain correspondent to trigger home-MSR lookups.
    let s = p.world.add_node(netstack::HostNode::new());
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<netstack::HostNode, _>(s, |h, _| {
        crate::topology::configure_host_s_stack(&mut h.stack)
    });
    p.world.start();
    let net_d = p.net_d;
    run_moves(&mut p, &mobiles, net_d);
    for i in 0..n {
        let dst = mobile_addr(i);
        p.world.with_node::<netstack::HostNode, _>(s, |h, ctx| {
            h.ping(ctx, dst);
        });
        p.world.run_for(SimDuration::from_millis(100));
    }
    p.world.run_for(SimDuration::from_secs(3));
    let stats = p.world.stats();
    let ctl = stats.counter("columbia.registrations")
        + stats.counter("columbia.query_messages")
        + stats.counter("columbia.query_rounds");
    let max_cache =
        msrs.iter().map(|&id| p.world.node::<MsrNode>(id).cache_len()).max().unwrap_or(0);
    let point = ScalabilityPoint {
        protocol: "Columbia IPIP".into(),
        mobiles: n,
        control_msgs_per_move: ctl as f64 / n.max(1) as f64,
        max_node_state: max_cache.max(n), // the home MSR captures all n
        temp_addrs_used: 0,               // in-campus movement needs none
    };
    (point, p.world)
}

/// Sony VIP with `n` mobile hosts (flooding + temporary addresses).
pub fn sony_point(seed: u64, n: usize) -> ScalabilityPoint {
    sony_run(phys(seed), n).0
}

/// [`sony_point`] on the bare substrate `p`; also returns the world
/// after the run, for goldens over its counters and event log.
pub fn sony_run(mut p: Phys, n: usize) -> (ScalabilityPoint, World) {
    let addrs = Figure1Addrs::plan();
    let router_addrs = [addrs.r1, addrs.r2, addrs.r3, addrs.r4, addrs.r5];
    let mut routers = Vec::new();
    for (pos, first, local) in [
        (1u8, p.backbone, p.net_a),
        (2, p.backbone, p.net_b),
        (3, p.backbone, p.net_c),
        (4, p.net_c, p.net_d),
        (5, p.net_c, p.net_e),
    ] {
        let id = p.world.add_node(StackNode::router(VipRouter::new(IfaceId(1))));
        p.world.add_iface(id, Some(first));
        p.world.add_iface(id, Some(local));
        p.world.with_node::<VipRouterNode, _>(id, |r, _| {
            configure_router_stack(&mut r.stack, pos);
            let self_addr = router_addrs[usize::from(pos) - 1];
            r.flood_peers = router_addrs.iter().copied().filter(|a| *a != self_addr).collect();
            if pos >= 4 {
                r.pool = Some(TempAddrPool::new(net(pos), 100, 64));
            }
        });
        routers.push(id);
    }
    let mut mobiles = Vec::new();
    for i in 0..n {
        let m = p.world.add_node(StackNode::host(VipMobile::new(
            mobile_addr(i),
            net(2),
            addrs.r2,
            addrs.r2,
        )));
        p.world.add_iface(m, Some(p.net_b));
        mobiles.push(m);
    }
    p.world.start();
    let net_d = p.net_d;
    run_moves(&mut p, &mobiles, net_d);
    let stats = p.world.stats();
    let ctl = 2 * stats.counter("vip.mobile_moves")
        + stats.counter("vip.home_registrations")
        + stats.counter("vip.flood_messages");
    let moves = stats.counter("vip.mobile_moves");
    let max_cache =
        routers.iter().map(|&id| p.world.node::<VipRouterNode>(id).cache_len()).max().unwrap_or(0);
    let point = ScalabilityPoint {
        protocol: "Sony VIP".into(),
        mobiles: n,
        control_msgs_per_move: ctl as f64 / moves.max(1) as f64,
        max_node_state: max_cache.max(n),
        temp_addrs_used: moves as usize,
    };
    (point, p.world)
}

/// Runs the full series.
pub fn run(seed: u64, ns: &[usize]) -> Vec<ScalabilityPoint> {
    let mut out = Vec::new();
    for &n in ns {
        out.push(mhrp_point(seed, n));
        out.push(sp_point(seed, n));
        out.push(columbia_point(seed, n));
        out.push(sony_point(seed, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_section_7() {
        let points = run(31, &[2, 6]);
        let find = |proto: &str, n: usize| {
            points
                .iter()
                .find(|p| p.protocol.starts_with(proto) && p.mobiles == n)
                .unwrap_or_else(|| panic!("{proto}/{n}"))
        };

        // MHRP per-move control cost stays ~constant as N grows.
        let mhrp2 = find("MHRP", 2).control_msgs_per_move;
        let mhrp6 = find("MHRP", 6).control_msgs_per_move;
        assert!(
            (mhrp6 - mhrp2).abs() < 0.5 * mhrp2.max(1.0),
            "MHRP per-move cost moved {mhrp2} -> {mhrp6}"
        );

        // Sony's flood makes each move cost at least the router count.
        let sony6 = find("Sony", 6);
        assert!(
            sony6.control_msgs_per_move > mhrp6 + 3.0,
            "Sony {} vs MHRP {}",
            sony6.control_msgs_per_move,
            mhrp6
        );

        // Only Sony consumed temporary addresses.
        assert!(sony6.temp_addrs_used >= 6);
        assert_eq!(find("MHRP", 6).temp_addrs_used, 0);
        assert_eq!(find("Sunshine", 6).temp_addrs_used, 0);

        // The directory's single-node burden grows with N and exceeds any
        // MHRP node's.
        let sp6 = find("Sunshine", 6);
        let sp2 = find("Sunshine", 2);
        assert!(sp6.max_node_state > sp2.max_node_state);
        assert!(sp6.max_node_state >= find("MHRP", 6).max_node_state);
    }
}
