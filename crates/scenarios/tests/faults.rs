//! Fault-injection integration tests on the paper's Figure 1 topology:
//! crash→reboot leaves every node *re-registrable* (volatile protocol
//! state is rebuilt through the protocol itself, not by test fiat), and
//! a fixed fault plan replays byte-identically — the full event trace
//! and every counter.

use mhrp::{Attachment, MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{Event, FaultPlan, IfaceId, MacAddr, Op, TeleEventKind};
use netstack::nodes::HostNode;
use scenarios::topology::{CorrespondentKind, Figure1, Figure1Options};

const DATA_PORT: u16 = 7001;

fn attach_m_at_r4(f: &mut Figure1) {
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
}

/// A crashed mobile host loses all volatile protocol state (pending
/// registrations, watchdog timers, its attachment) and must come back
/// as a *registrable* node: discovery restarts from scratch and the §3
/// sequence runs again, end to end.
#[test]
fn crashed_mobile_host_reboots_and_reregisters() {
    let mut f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        seed: 71,
        ..Default::default()
    });
    attach_m_at_r4(&mut f);
    let acked_before = f.world.node::<MobileHostNode>(f.m).core.stats.ha_registrations_acked;

    let crash_at = f.world.now() + SimDuration::from_millis(100);
    FaultPlan::new().crash(f.m, crash_at, SimDuration::from_secs(2)).install(&mut f.world);
    f.world.run_until(crash_at + SimDuration::from_secs(1));
    assert!(f.world.node_is_down(f.m), "M should be down mid-window");

    // After the outage M rediscovers R4 and re-runs the whole §3
    // sequence — foreign agent, then home agent.
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
    let m = f.world.node::<MobileHostNode>(f.m);
    assert_eq!(m.core.stats.reboots, 1);
    assert_eq!(f.world.stats().counter("mhrp.mh_reboots"), 1);
    assert!(
        m.core.stats.ha_registrations_acked > acked_before,
        "home agent never acked the post-reboot registration"
    );

    // And the restored registration actually carries traffic.
    let m_addr = f.addrs.m;
    let rx_before = f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len();
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![1; 16]);
    });
    f.world.run_for(SimDuration::from_secs(2));
    assert!(f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len() > rx_before);
}

/// A crashed foreign agent restarts its advertiser (fresh timer epoch,
/// no doubled chain) and broadcasts the §5.2 recovery query; the mobile
/// host re-registers and delivery resumes.
#[test]
fn crashed_foreign_agent_recovers_its_visitors() {
    let mut f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        seed: 73,
        ..Default::default()
    });
    attach_m_at_r4(&mut f);

    let adverts_before = f.world.stats().counter("mhrp.adverts_sent");
    let crash_at = f.world.now() + SimDuration::from_millis(100);
    FaultPlan::new().crash(f.r4, crash_at, SimDuration::from_secs(2)).install(&mut f.world);
    f.world.run_until(crash_at + SimDuration::from_secs(2) + SimDuration::from_millis(1));
    assert!(f.world.stats().counter("mhrp.fa_recovery_queries") >= 1);

    // M answers the recovery query; the visitor entry is restored.
    f.world.run_for(SimDuration::from_secs(3));
    let m_addr = f.addrs.m;
    assert!(f.world.node::<MhrpRouterNode>(f.r4).fa.as_ref().unwrap().has_visitor(m_addr));

    // The advertiser restarted at exactly one chain: over the next four
    // seconds R4+R2+R5 emit roughly one advert per second each (solicited
    // responses allowed), not double R4's rate.
    let t0 = f.world.stats().counter("mhrp.adverts_sent");
    f.world.run_for(SimDuration::from_secs(4));
    let per_sec = (f.world.stats().counter("mhrp.adverts_sent") - t0) / 4;
    assert!(per_sec <= 4, "advert chains doubled after reboot: {per_sec}/s");
    assert!(f.world.stats().counter("mhrp.adverts_sent") > adverts_before);

    // Delivery works end to end again.
    let rx_before = f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len();
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![2; 16]);
    });
    f.world.run_for(SimDuration::from_secs(2));
    assert!(f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len() > rx_before);
}

/// §5.2 + §2 regression: a rebooting home agent must *re-broadcast* the
/// gratuitous ARP for every binding it reloads from disk, not merely
/// re-install its local proxy/capture state. A home-network neighbour
/// whose ARP cache went stale during the outage would otherwise keep
/// sending the mobile host's packets to a dead MAC until its cache
/// expires — with no ARP request for the proxy to answer.
#[test]
fn rebooted_home_agent_rebroadcasts_gratuitous_arp() {
    let mut f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        config: MhrpConfig { home_agent_disk: true, ..Default::default() },
        home_host: true,
        seed: 79,
        ..Default::default()
    });
    let h = f.h.expect("built with home_host");
    attach_m_at_r4(&mut f);

    // H (M's LAN neighbour) resolves M's address: R2's proxy ARP answers
    // and the packet is intercepted + tunneled to R4.
    let m_addr = f.addrs.m;
    let rx_before = f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len();
    f.world.with_node::<HostNode, _>(h, |host, ctx| {
        host.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![3; 16]);
    });
    f.world.run_for(SimDuration::from_secs(2));
    assert!(
        f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len() > rx_before,
        "baseline interception never delivered"
    );
    let r2_mac = f.world.node::<HostNode>(h).stack.arp.lookup(IfaceId(0), m_addr).unwrap();

    // R2 crashes. While it is down H's cache goes stale (modeling cache
    // churn during the outage: the entry now names a MAC nobody owns).
    let crash_at = f.world.now() + SimDuration::from_millis(100);
    FaultPlan::new().crash(f.r2, crash_at, SimDuration::from_secs(2)).install(&mut f.world);
    f.world.run_until(crash_at + SimDuration::from_secs(1));
    assert!(f.world.node_is_down(f.r2), "R2 should be down mid-window");
    let bogus = MacAddr::from_index(9_999);
    f.world.with_node::<HostNode, _>(h, |host, _| {
        host.stack.arp.insert(IfaceId(0), m_addr, bogus);
    });

    // Reboot: the journaled binding reloads and the gratuitous ARP
    // broadcast must overwrite H's stale mapping straight away — M does
    // not re-register (it is stably attached at R4), so nothing else
    // would repair it.
    f.world.run_until(crash_at + SimDuration::from_secs(2) + SimDuration::from_millis(200));
    let repaired = f.world.node::<HostNode>(h).stack.arp.lookup(IfaceId(0), m_addr);
    assert_eq!(repaired, Some(r2_mac), "reboot did not re-broadcast the gratuitous ARP");

    // And interception carries traffic end to end again.
    let rx_before = f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len();
    f.world.with_node::<HostNode, _>(h, |host, ctx| {
        host.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![4; 16]);
    });
    f.world.run_for(SimDuration::from_secs(2));
    assert!(f.world.node::<MobileHostNode>(f.m).endpoint.log.udp_rx.len() > rx_before);
}

/// The fixed "drill" plan: every fault class the engine supports, on the
/// full Figure 1 world, while M moves D→E mid-plan. Returns the full
/// structured telemetry event log and every counter.
fn drill(seed: u64) -> (Vec<Event>, Vec<(String, u64)>) {
    let mut f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        seed,
        ..Default::default()
    });
    f.world.set_telemetry(true);
    f.world.set_telemetry_capacity(1 << 18);
    let plan = FaultPlan::new()
        .flap(
            f.net_d,
            SimTime::from_millis(2_500),
            SimDuration::from_millis(400),
            SimDuration::from_millis(600),
            3,
        )
        .partition(f.backbone, SimTime::from_secs(8), SimTime::from_secs(12))
        .op(
            SimTime::from_secs(6),
            Op::LatencySpike {
                segment: f.net_c,
                extra: SimDuration::from_millis(30),
                duration: SimDuration::from_secs(2),
            },
        )
        .op(SimTime::from_secs(7), Op::SetSegmentCorruption { segment: f.net_e, probability: 0.2 })
        .crash(f.r4, SimTime::from_secs(13), SimDuration::from_secs(2))
        .mute_window(f.r5, IfaceId(1), SimTime::from_secs(4), SimTime::from_secs(5));
    plan.install(&mut f.world);

    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    f.world.run_until(SimTime::from_secs(9));
    f.move_m_to_e();
    let m_addr = f.addrs.m;
    for i in 0..40u32 {
        f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
            s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![i as u8; 24]);
        });
        f.world.run_for(SimDuration::from_millis(250));
    }
    f.world.run_until(SimTime::from_secs(20));

    assert_eq!(f.world.telemetry().overwritten(), 0, "ring too small for the full drill trace");
    let trace = f.world.telemetry().events().copied().collect();
    let counters = f.world.stats().counters().map(|(n, v)| (n.to_owned(), v)).collect();
    (trace, counters)
}

/// Identical seed + identical plan ⇒ identical run: the full structured
/// event log (every frame tx/rx/drop, timer and fault op, in order, with
/// identical timestamps and journey ids) and every counter. This is the
/// determinism contract the fault engine must keep. The string-trace
/// form of this contract lives on as the legacy golden
/// `fault_plan_runs_are_byte_identical` in `netsim::world`.
#[test]
fn fixed_drill_plan_replays_byte_identically() {
    let (trace_a, counters_a) = drill(1994);
    let (trace_b, counters_b) = drill(1994);
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b);
    assert_eq!(counters_a, counters_b);

    // The structured log agrees with the engine's own accounting: every
    // fault op the plan applied shows up as a typed Fault event.
    let fault_events =
        trace_a.iter().filter(|e| matches!(e.kind, TeleEventKind::Fault { .. })).count() as u64;
    let applied = counters_a.iter().find(|(n, _)| n == "fault.ops_applied").map_or(0, |&(_, v)| v);
    assert_eq!(fault_events, applied, "typed fault events vs fault.ops_applied");

    // Golden anchors for the fixed plan itself: all 13 scheduled ops
    // fired (3 flap cycles = 6, partition = 2, spike + corruption = 2,
    // crash = 1, mute window = 2) plus the spike's scheduled restore and
    // the crash's scheduled reboot.
    let counter = |name: &str| counters_a.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
    assert_eq!(counter("fault.ops_applied"), 15);
    assert_eq!(counter("fault.crashes"), 1);
    assert!(counter("fault.tx_muted") >= 1, "mute window suppressed nothing");
    assert!(counter("link.frames_corrupted") >= 1, "corruption never fired");

    // A different seed is a different world (the plan does not pin the
    // RNG): the trace must differ somewhere.
    let (trace_c, _) = drill(1995);
    assert_ne!(trace_a, trace_c);
}
