//! End-to-end tests of the plain IP substrate: forwarding, ARP, ICMP
//! errors, and the interception primitives MHRP builds on.

use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::{Ipv4Option, Ipv4Packet};
use ip::Prefix;
use netsim::time::{SimDuration, SimTime};
use netsim::{IfaceId, NodeId, SegmentId, SegmentParams, World};
use netstack::nodes::{HostNode, RouterNode};
use netstack::route::NextHop;

fn addr(net: u8, host: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, net, 0, host)
}

fn prefix(net: u8) -> Prefix {
    Prefix::new(Ipv4Addr::new(10, net, 0, 0), 24)
}

/// A chain topology: h_a - r1 - r2 - ... - rN - h_b, with /24s between.
/// Network numbering: segment i joins hop i and hop i+1 as 10.i.0.0/24.
struct Chain {
    world: World,
    host_a: NodeId,
    host_b: NodeId,
    routers: Vec<NodeId>,
    segments: Vec<SegmentId>,
}

fn build_chain(n_routers: usize, seed: u64) -> Chain {
    let mut w = World::new(seed);
    let segments: Vec<SegmentId> =
        (0..=n_routers).map(|_| w.add_segment(SegmentParams::default())).collect();

    // Routers: router i connects segment i (iface 0) and segment i+1 (iface 1).
    let mut routers = Vec::new();
    for i in 0..n_routers {
        let id = w.add_node(RouterNode::new());
        w.add_iface(id, Some(segments[i]));
        w.add_iface(id, Some(segments[i + 1]));
        w.with_node::<RouterNode, _>(id, |r, _| {
            let i = i as u8;
            r.stack.add_iface(IfaceId(0), addr(i, 1), prefix(i));
            r.stack.add_iface(IfaceId(1), addr(i + 1, 2), prefix(i + 1));
            // Static routes: everything to the left via iface 0, right via 1.
            for net in 0..i {
                r.stack
                    .routes
                    .add(prefix(net), NextHop::Gateway { iface: IfaceId(0), via: addr(i, 2) });
            }
            for net in (i + 2)..=(n_routers as u8) {
                r.stack
                    .routes
                    .add(prefix(net), NextHop::Gateway { iface: IfaceId(1), via: addr(i + 1, 1) });
            }
        });
        routers.push(id);
    }

    let host_a = w.add_node(HostNode::new());
    w.add_iface(host_a, Some(segments[0]));
    w.with_node::<HostNode, _>(host_a, |h, _| {
        h.stack.add_iface(IfaceId(0), addr(0, 10), prefix(0));
        h.stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: IfaceId(0), via: addr(0, 1) });
    });

    let host_b = w.add_node(HostNode::new());
    w.add_iface(host_b, Some(segments[n_routers]));
    w.with_node::<HostNode, _>(host_b, |h, _| {
        let last = n_routers as u8;
        h.stack.add_iface(IfaceId(0), addr(last, 10), prefix(last));
        h.stack.routes.add(
            Prefix::default_route(),
            NextHop::Gateway { iface: IfaceId(0), via: addr(last, 2) },
        );
    });

    w.start();
    Chain { world: w, host_a, host_b, routers, segments }
}

#[test]
fn ping_across_three_routers() {
    let mut c = build_chain(3, 1);
    let dst = addr(3, 10);
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, dst);
    });
    c.world.run_until(SimTime::from_secs(2));
    let log = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(log.echo_replies.len(), 1);
    // 4 hops each way + ARP on first use: RTT positive and bounded.
    assert!(log.echo_replies[0].rtt > SimDuration::ZERO);
    // Reply TTL: 64 initial - 3 router hops = 61.
    assert_eq!(log.echo_replies[0].ttl, 61);
}

#[test]
fn second_ping_is_faster_thanks_to_arp_cache() {
    let mut c = build_chain(2, 2);
    let dst = addr(2, 10);
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, dst);
    });
    c.world.run_until(SimTime::from_secs(2));
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, dst);
    });
    c.world.run_until(SimTime::from_secs(4));
    let log = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(log.echo_replies.len(), 2);
    assert!(log.echo_replies[1].rtt < log.echo_replies[0].rtt);
}

#[test]
fn udp_echo_round_trip() {
    let mut c = build_chain(1, 3);
    let dst = addr(1, 10);
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.send_udp(ctx, dst, 4000, 7, b"echo me".to_vec());
    });
    c.world.run_until(SimTime::from_secs(2));
    // Server saw it...
    let server = &c.world.node::<HostNode>(c.host_b).log();
    assert_eq!(server.udp_rx.len(), 1);
    assert_eq!(server.udp_rx[0].payload, b"echo me");
    // ...and echoed it back.
    let client = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(client.udp_rx.len(), 1);
    assert_eq!(client.udp_rx[0].payload, b"echo me");
    assert_eq!(client.udp_rx[0].src, dst);
}

#[test]
fn ttl_expiry_generates_time_exceeded() {
    let mut c = build_chain(3, 4);
    let dst = addr(3, 10);
    // Send a UDP packet with TTL 2: dies at the second router.
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        let src = h.stack.primary_addr();
        let pkt = Ipv4Packet::new(
            src,
            dst,
            ip::proto::UDP,
            ip::udp::UdpDatagram::new(1, 2, vec![0; 8]).encode(),
        )
        .with_ttl(2);
        h.stack.send(ctx, pkt);
    });
    c.world.run_until(SimTime::from_secs(2));
    let log = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(log.icmp_errors.len(), 1);
    assert!(matches!(log.icmp_errors[0], IcmpMessage::TimeExceeded { .. }));
    // Never reached the destination.
    assert!(c.world.node::<HostNode>(c.host_b).log().udp_rx.is_empty());
}

#[test]
fn no_route_generates_dest_unreachable() {
    let mut c = build_chain(2, 5);
    // 10.77.0.0/24 exists nowhere.
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.send_udp(ctx, Ipv4Addr::new(10, 77, 0, 1), 1, 2, vec![]);
    });
    c.world.run_until(SimTime::from_secs(2));
    let log = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(log.icmp_errors.len(), 1);
    assert!(matches!(log.icmp_errors[0], IcmpMessage::DestUnreachable { .. }));
}

#[test]
fn arp_failure_generates_host_unreachable() {
    let mut c = build_chain(1, 6);
    // Target is inside the last connected subnet but no host owns it:
    // the router ARPs, retries, then reports host unreachable.
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.send_udp(ctx, addr(1, 99), 1, 2, vec![]);
    });
    c.world.run_until(SimTime::from_secs(10));
    let log = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(log.icmp_errors.len(), 1);
    assert!(matches!(log.icmp_errors[0], IcmpMessage::DestUnreachable { .. }));
}

#[test]
fn capture_and_proxy_arp_intercept_like_a_home_agent() {
    // On h_b's segment, make the *router* capture a fictitious host
    // 10.1.0.77 (as a home agent would for a departed mobile host) and
    // proxy-ARP for it. Pings from h_a to 10.1.0.77 must be answered by
    // nobody (no MHRP yet), but must be *delivered* to the router stack:
    // we verify via the capture counter and lack of host-unreachable.
    let mut c = build_chain(1, 7);
    let mobile = addr(1, 77);
    let r = c.routers[0];
    c.world.with_node::<RouterNode, _>(r, |rt, _| {
        rt.stack.add_capture(mobile);
        rt.stack.arp.add_proxy(IfaceId(1), mobile);
    });
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, mobile);
    });
    c.world.run_until(SimTime::from_secs(5));
    // The router delivered it locally (captured); RouterNode answers echo
    // requests delivered to it, so h_a actually gets a reply *from the
    // mobile address* — exactly the interception MHRP needs.
    let log = &c.world.node::<HostNode>(c.host_a).log();
    assert_eq!(log.echo_replies.len(), 1);
    assert!(log.icmp_errors.is_empty());
}

#[test]
fn gratuitous_arp_rebinds_neighbor_caches() {
    // Two hosts on one segment. B pings A so B's ARP cache holds A's MAC.
    // Then the router broadcasts a gratuitous ARP claiming A's IP; B's
    // next packet to A goes to the router's MAC instead (we observe that A
    // stops receiving pings).
    let mut w = World::new(8);
    let seg = w.add_segment(SegmentParams::default());
    let a_id = w.add_node(HostNode::new());
    w.add_iface(a_id, Some(seg));
    w.with_node::<HostNode, _>(a_id, |h, _| {
        h.stack.add_iface(IfaceId(0), addr(0, 1), prefix(0));
    });
    let b_id = w.add_node(HostNode::new());
    w.add_iface(b_id, Some(seg));
    w.with_node::<HostNode, _>(b_id, |h, _| {
        h.stack.add_iface(IfaceId(0), addr(0, 2), prefix(0));
    });
    let r_id = w.add_node(RouterNode::new());
    w.add_iface(r_id, Some(seg));
    w.with_node::<RouterNode, _>(r_id, |r, _| {
        r.stack.add_iface(IfaceId(0), addr(0, 3), prefix(0));
    });
    w.start();

    w.with_node::<HostNode, _>(b_id, |h, ctx| {
        h.ping(ctx, addr(0, 1));
    });
    w.run_until(SimTime::from_secs(1));
    assert_eq!(w.node::<HostNode>(b_id).log().echo_replies.len(), 1);

    // Router hijacks A's address (home-agent interception) and captures it.
    w.with_node::<RouterNode, _>(r_id, |r, ctx| {
        r.stack.add_capture(addr(0, 1));
        r.stack.send_gratuitous_arp(ctx, IfaceId(0), addr(0, 1));
    });
    w.run_until(SimTime::from_secs(2));

    w.with_node::<HostNode, _>(b_id, |h, ctx| {
        h.ping(ctx, addr(0, 1));
    });
    w.run_until(SimTime::from_secs(3));
    // B got a reply — but it was served by the router (capture), not A:
    // A's stack no longer saw the echo request.
    let b_log = &w.node::<HostNode>(b_id).log();
    assert_eq!(b_log.echo_replies.len(), 2);
    let a_pings_seen = w.node::<HostNode>(a_id).log().pings_sent; // unrelated sanity
    assert_eq!(a_pings_seen, 0);
    assert_eq!(w.stats().counter("arp.gratuitous_sent"), 1);
}

#[test]
fn option_packets_take_the_slow_path() {
    let mut c = build_chain(2, 9);
    // Give both routers a hefty option penalty.
    for &r in &c.routers {
        c.world.with_node::<RouterNode, _>(r, |rt, _| {
            rt.option_penalty = SimDuration::from_millis(20);
        });
    }
    let dst = addr(2, 10);
    // Plain ping.
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, dst);
    });
    c.world.run_until(SimTime::from_secs(2));
    // Optioned packet (record route) — UDP so we can spot it at the server.
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        let src = h.stack.primary_addr();
        let pkt = Ipv4Packet::new(
            src,
            dst,
            ip::proto::UDP,
            ip::udp::UdpDatagram::new(5, 5, vec![1]).encode(),
        )
        .with_option(Ipv4Option::RecordRoute { pointer: 4, route: vec![Ipv4Addr::UNSPECIFIED; 4] });
        h.stack.send(ctx, pkt);
    });
    let t_sent = c.world.now();
    c.world.run_until(SimTime::from_secs(4));
    let server = &c.world.node::<HostNode>(c.host_b).log();
    assert_eq!(server.udp_rx.len(), 1);
    let transit = server.udp_rx[0].at.since(t_sent);
    // Two routers x 20ms penalty dominates the microsecond link latencies.
    assert!(transit >= SimDuration::from_millis(40), "transit {transit}");
    assert_eq!(c.world.stats().counter("ip.slow_path"), 2);
    assert_eq!(c.world.stats().counter("router.slow_path_forwarded"), 2);
}

#[test]
fn plain_hosts_silently_ignore_location_updates() {
    let mut c = build_chain(1, 10);
    let dst = addr(1, 10);
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        let msg = IcmpMessage::LocationUpdate(ip::icmp::LocationUpdate {
            code: ip::icmp::LocationUpdateCode::Bind,
            mobile: addr(9, 9),
            foreign_agent: addr(8, 8),
            mac: None,
        });
        h.stack.send_icmp(ctx, dst, &msg, None);
    });
    c.world.run_until(SimTime::from_secs(2));
    let b = &c.world.node::<HostNode>(c.host_b).log();
    assert_eq!(b.icmp_ignored, 1);
    assert!(b.icmp_errors.is_empty());
}

#[test]
fn segment_down_kills_connectivity_and_recovers() {
    let mut c = build_chain(1, 11);
    let dst = addr(1, 10);
    let mid = c.segments[1];
    c.world.schedule(SimTime::from_millis(1), netsim::Op::SetSegmentUp { segment: mid, up: false });
    c.world.run_until(SimTime::from_millis(10));
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, dst);
    });
    c.world.run_until(SimTime::from_secs(5));
    assert_eq!(c.world.node::<HostNode>(c.host_a).log().echo_replies.len(), 0);
    // Bring it back; ping again (the router's ARP entry for the host may
    // need re-resolution, which happens transparently).
    c.world.schedule(c.world.now(), netsim::Op::SetSegmentUp { segment: mid, up: true });
    c.world.run_for(SimDuration::from_millis(10));
    c.world.with_node::<HostNode, _>(c.host_a, |h, ctx| {
        h.ping(ctx, dst);
    });
    c.world.run_for(SimDuration::from_secs(5));
    assert_eq!(c.world.node::<HostNode>(c.host_a).log().echo_replies.len(), 1);
}

#[test]
fn reboot_flushes_arp_on_every_interface() {
    // More interfaces than any built world uses: the flush must not stop
    // at a fixed count.
    let mut w = World::new(12);
    let r = w.add_node(RouterNode::new());
    for _ in 0..10 {
        w.add_iface(r, None);
    }
    let neighbour = addr(9, 2);
    w.with_node::<RouterNode, _>(r, |r, _| {
        for i in [0, 9] {
            r.stack.arp.insert(IfaceId(i), neighbour, netsim::MacAddr([2, 0, 0, 0, 0, 9]));
        }
        r.stack.arp.add_proxy(IfaceId(9), addr(9, 7));
    });
    w.reboot_node(r);
    let arp = &w.node::<RouterNode>(r).stack.arp;
    for i in [0, 9] {
        assert_eq!(arp.lookup(IfaceId(i), neighbour), None, "iface {i}");
    }
    assert!(
        arp.is_proxied(IfaceId(9), addr(9, 7)),
        "proxy entries survive, as clear_iface keeps them"
    );
}
