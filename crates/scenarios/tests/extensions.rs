//! End-to-end tests of the paper's optional/extension features:
//! replicated home agents (§2) and the host-specific-route interception
//! alternative (§3 end).

use std::net::Ipv4Addr;

use mhrp::{Attachment, MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::IfaceId;
use scenarios::shootout::DATA_PORT;
use scenarios::topology::{net, CorrespondentKind, Figure1, Figure1Options};

/// §2: "it can replicate the home agent function on several support
/// hosts on its own network, although these hosts must cooperate to
/// provide a consistent view of the database."
#[test]
fn replica_home_agent_takes_over_after_primary_loss() {
    let mut f = Figure1::build(Figure1Options {
        // No disk on the primary: the replica is the only redundancy.
        config: MhrpConfig { home_agent_disk: false, ..Default::default() },
        correspondent: CorrespondentKind::Mhrp,
        seed: 61,
        ..Default::default()
    });
    let m_addr = f.addrs.m;

    // Add a standby replica host on the home network (a "support host"
    // per §2: an MHRP router node with only the home-agent role, not in
    // the forwarding path).
    let replica_addr = Ipv4Addr::new(10, 2, 0, 2);
    let replica =
        f.world.add_node(MhrpRouterNode::new(MhrpConfig::default()).with_home_agent(IfaceId(0)));
    f.world.add_iface(replica, Some(f.net_b));
    f.world.with_node::<MhrpRouterNode, _>(replica, |r, _| {
        r.stack.add_iface(IfaceId(0), replica_addr, net(2));
        r.stack.routes.add(
            ip::Prefix::default_route(),
            netstack::route::NextHop::Gateway { iface: IfaceId(0), via: f.addrs.r2 },
        );
        // Demote to standby and wire the primary to sync to it.
        *r.ha.as_mut().unwrap() = mhrp::HomeAgentCore::new_replica(IfaceId(0), &r.config);
    });
    f.world.with_node::<MhrpRouterNode, _>(f.r2, |r, _| {
        r.ha.as_mut().unwrap().replicas.push(replica_addr);
    });
    // ...and the standby back to the primary, so a promotion can push its
    // database to the (returned, amnesiac) ex-primary.
    let r2_addr = f.addrs.r2;
    f.world.with_node::<MhrpRouterNode, _>(replica, |r, _| {
        r.ha.as_mut().unwrap().replicas.push(r2_addr);
    });
    // The replica node was added after start(); fire its on_start by hand
    // (it has no advertiser, so this is a no-op, but keep the invariant).
    f.world.run_until(SimTime::from_secs(2));

    // M roams; the primary records and syncs the binding.
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
    assert_eq!(
        f.world.node::<MhrpRouterNode>(replica).ha.as_ref().unwrap().binding(m_addr),
        Some(f.addrs.r4),
        "replica never received the HaSync"
    );
    assert!(!f.world.node::<MhrpRouterNode>(replica).ha.as_ref().unwrap().is_active());

    // The primary loses everything (no disk). Mobile hosts appear home.
    f.world.with_node::<MhrpRouterNode, _>(f.r2, |r, ctx| {
        let _ = ctx;
        let stack = &mut r.stack;
        r.ha.as_mut().unwrap().wipe(stack);
    });
    assert_eq!(f.world.node::<MhrpRouterNode>(f.r2).ha.as_ref().unwrap().binding(m_addr), None);

    // Operations promotes the replica; it arms interception from its
    // synced database.
    f.world.with_node::<MhrpRouterNode, _>(replica, |r, ctx| {
        let stack = &mut r.stack;
        r.ha.as_mut().unwrap().activate(stack, ctx);
    });
    f.world.run_for(SimDuration::from_millis(100));

    // Traffic to M still works, intercepted by the replica.
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, b"via replica".to_vec());
    });
    f.world.run_for(SimDuration::from_secs(3));
    let m = f.world.node::<MobileHostNode>(f.m);
    assert_eq!(
        m.endpoint.log.udp_rx.iter().filter(|r| r.dst_port == DATA_PORT).count(),
        1,
        "packet not delivered via the replica home agent"
    );
    assert!(f.world.stats().counter("mhrp.ha_activations") >= 1);
    assert!(f.world.stats().counter("mhrp.ha_syncs_applied") >= 2);

    // Promotion also pushed the database to the new primary's own replica
    // list: the wiped ex-primary has caught back up and could itself be
    // re-promoted without another registration from M.
    assert_eq!(
        f.world.node::<MhrpRouterNode>(f.r2).ha.as_ref().unwrap().binding(m_addr),
        Some(f.addrs.r4),
        "activate never re-synced the promoted database to the ex-primary"
    );
}

/// §3 end: interception by host-specific routing instead of proxy ARP —
/// valid when the home agent is the border router every packet for the
/// home network traverses anyway.
#[test]
fn host_route_mode_intercepts_without_arp_tricks() {
    let mut f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        seed: 67,
        ..Default::default()
    });
    let m_addr = f.addrs.m;
    f.world.with_node::<MhrpRouterNode, _>(f.r2, |r, _| {
        r.ha.as_mut().unwrap().host_route_mode = true;
    });
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));

    // No ARP games were played on the home segment...
    assert_eq!(f.world.stats().counter("arp.gratuitous_sent"), 0);
    assert!(!f.world.node::<MhrpRouterNode>(f.r2).stack.arp.is_proxied(IfaceId(1), m_addr));

    // ...yet remote traffic is intercepted (it crosses R2, the border
    // router) and tunneled as usual.
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.ping(ctx, m_addr);
    });
    f.world.run_for(SimDuration::from_secs(3));
    assert_eq!(f.world.node::<MhrpHostNode>(f.s).log().echo_replies.len(), 1);
    assert!(f.world.stats().counter("mhrp.ha_tunneled") >= 1);
}
