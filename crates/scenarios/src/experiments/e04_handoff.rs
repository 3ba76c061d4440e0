//! **E04 — §6.3: handoff between foreign agents.**
//!
//! S streams UDP to M while M moves from R4's cell (network D) to R5's
//! (network E) *during a scheduled home-agent outage window* — the exact
//! situation §2 gives as the forwarding pointer's purpose ("periods in
//! which that host's home agent may be temporarily inaccessible").
//! Measured: packets lost in flight, the disruption window (detach →
//! first delivery at the new attachment), and the location updates spent
//! converging. Run twice: with the old agent keeping a §2 forwarding
//! pointer, and without. With the home agent healthy the two
//! configurations measure identically (the §5.1 update path converges
//! the correspondent's cache before the pointer matters), so the outage
//! window is what makes this experiment discriminate.

use mhrp::{Attachment, MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{FaultPlan, Op};

use crate::metrics::HandoffResult;
use crate::shootout::DATA_PORT;
use crate::topology::{CorrespondentKind, Figure1, Figure1Options};

/// How long the scheduled fault holds the home agent down in
/// [`run_one`]: from the move until past the end of the measured stream
/// (150 packets × 100 ms + the 3 s drain).
const HA_OUTAGE: SimDuration = SimDuration::from_secs(19);

/// Runs one handoff with the given configuration.
pub fn run_one(seed: u64, forwarding_pointers: bool, label: &str) -> HandoffResult {
    let config = MhrpConfig { forwarding_pointers, ..Default::default() };
    let mut f = Figure1::build(Figure1Options {
        config,
        correspondent: CorrespondentKind::Mhrp,
        seed,
        ..Default::default()
    });
    let m_addr = f.addrs.m;

    // Attach at R4 and prime S's cache.
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![0; 32]);
    });
    f.world.run_for(SimDuration::from_secs(2));

    // Stream at 100 ms spacing; move mid-stream. A scheduled fault
    // crashes the home agent at the move and keeps it down past the end
    // of the measured window, so only the old agent's §2 pointer (when
    // configured) can carry the stream to the new attachment.
    let updates0 = f.world.stats().counter("mhrp.updates_sent");
    let mut sent_during_move = 0u64;
    let move_at = f.world.now() + SimDuration::from_millis(200);
    let plan = FaultPlan::new().crash(f.r2, move_at, HA_OUTAGE);
    plan.install(&mut f.world);
    let mut moved_at: Option<SimTime> = None;
    for i in 0..150u32 {
        if moved_at.is_none() && f.world.now() >= move_at {
            f.move_m_to_e();
            moved_at = Some(f.world.now());
        }
        f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
            s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![i as u8; 32]);
        });
        if moved_at.is_some() {
            sent_during_move += 1;
        }
        f.world.run_for(SimDuration::from_millis(100));
    }
    f.world.run_for(SimDuration::from_secs(3));

    let moved_at = moved_at.expect("move happened");
    let log = &f.world.node::<MobileHostNode>(f.m).endpoint.log;
    let delivered_during_move =
        log.udp_rx.iter().filter(|r| r.dst_port == DATA_PORT && r.at >= moved_at).count() as u64;
    let first_after = log
        .udp_rx
        .iter()
        .filter(|r| r.dst_port == DATA_PORT && r.at >= moved_at)
        .map(|r| r.at)
        .next();
    HandoffResult {
        label: label.to_owned(),
        sent_during_move,
        delivered_during_move,
        disruption_ms: first_after.map(|t| t.since(moved_at).as_millis()).unwrap_or(u64::MAX),
        location_updates: f.world.stats().counter("mhrp.updates_sent") - updates0,
    }
}

/// The scenario forwarding pointers exist for (§2: they are "useful in
/// maintaining connectivity to a frequently moving mobile host during
/// periods in which that host's home agent may be temporarily
/// inaccessible"): M moves from R4 to R5 *while the home agent is cut
/// off*. With a pointer, R4 re-tunnels straight to R5; without one, R4
/// can only tunnel toward the unreachable home network.
pub fn run_ha_partitioned(seed: u64, forwarding_pointers: bool, label: &str) -> HandoffResult {
    let config = MhrpConfig { forwarding_pointers, ..Default::default() };
    let mut f = Figure1::build(Figure1Options {
        config,
        correspondent: CorrespondentKind::Mhrp,
        seed,
        ..Default::default()
    });
    let m_addr = f.addrs.m;

    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
    // Prime S's cache (it will stay stale, pointing at R4).
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![0; 32]);
    });
    f.world.run_for(SimDuration::from_secs(2));

    // The home agent drops off the network entirely — scheduled as a
    // fault so the outage is part of the reproducible plan.
    let outage = Op::DetachIface { node: f.r2, iface: netsim::IfaceId(0) };
    f.world.schedule(f.world.now(), outage.fault());
    // M moves to R5. Its home-agent registration backs off to exhaustion
    // (~9.5 s with the default schedule); the mobile host then notifies
    // the old foreign agent anyway, which (when configured) installs the
    // §2 forwarding pointer.
    f.move_m_to_e();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r5), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(12)); // HA backoff exhausts, old FA notified
    if forwarding_pointers {
        assert_eq!(
            f.world.node::<MhrpRouterNode>(f.r4).ca.cache.peek(m_addr),
            Some(f.addrs.r5),
            "forwarding pointer missing after HA-dark move"
        );
    }

    // S streams to its stale R4 binding while the HA is dark.
    let updates0 = f.world.stats().counter("mhrp.updates_sent");
    let moved_at = f.world.now();
    let mut sent = 0u64;
    for i in 0..40u32 {
        f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
            s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![i as u8; 32]);
        });
        sent += 1;
        f.world.run_for(SimDuration::from_millis(100));
    }
    f.world.run_for(SimDuration::from_secs(3));

    let log = &f.world.node::<MobileHostNode>(f.m).endpoint.log;
    let delivered =
        log.udp_rx.iter().filter(|r| r.dst_port == DATA_PORT && r.at >= moved_at).count() as u64;
    let first_after = log
        .udp_rx
        .iter()
        .filter(|r| r.dst_port == DATA_PORT && r.at >= moved_at)
        .map(|r| r.at)
        .next();
    HandoffResult {
        label: label.to_owned(),
        sent_during_move: sent,
        delivered_during_move: delivered,
        disruption_ms: first_after.map(|t| t.since(moved_at).as_millis()).unwrap_or(u64::MAX),
        location_updates: f.world.stats().counter("mhrp.updates_sent") - updates0,
    }
}

/// Runs all configurations.
pub fn run(seed: u64) -> Vec<HandoffResult> {
    vec![
        run_one(seed, true, "with forwarding pointers (§2)"),
        run_one(seed, false, "without forwarding pointers"),
        run_ha_partitioned(seed, true, "HA unreachable, with pointer (§2)"),
        run_ha_partitioned(seed, false, "HA unreachable, without pointer"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_converges_and_pointers_help() {
        let rows = run(13);
        let with = &rows[0];
        let without = &rows[1];
        // With the home agent dark, the pointer is the only path to the
        // new attachment: the configurations must *diverge*.
        assert!(with.delivered_during_move > 0, "no delivery after move (with pointers)");
        assert!(
            with.delivered_during_move > without.delivered_during_move,
            "pointer row ({}) must beat the pointerless row ({})",
            with.delivered_during_move,
            without.delivered_during_move
        );
        // Bounded disruption: movement detection plus the home-agent
        // backoff schedule running to exhaustion (~9.5 s) before the old
        // agent is notified and its pointer installed.
        assert!(with.disruption_ms < 15_000, "disruption {}ms", with.disruption_ms);
        // Convergence used location updates.
        assert!(with.location_updates > 0);
    }

    #[test]
    fn forwarding_pointers_carry_traffic_while_ha_is_dark() {
        // §2's stated purpose for the pointer: connectivity while the
        // home agent is temporarily inaccessible.
        let with = run_ha_partitioned(19, true, "with");
        let without = run_ha_partitioned(19, false, "without");
        assert!(
            with.delivered_during_move >= with.sent_during_move / 2,
            "pointer path delivered only {}/{}",
            with.delivered_during_move,
            with.sent_during_move
        );
        assert_eq!(
            without.delivered_during_move, 0,
            "without a pointer and without the HA, nothing should arrive"
        );
    }
}
