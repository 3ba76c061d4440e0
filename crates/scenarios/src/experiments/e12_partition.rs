//! **E12 — partition and heal: cache reconvergence.**
//!
//! The backbone partitions for fifteen seconds, cutting S, the home
//! agent and M's island (networks C/D/E) from each other. M moves from
//! R4 to R5 *inside* the partition: its foreign-agent registration
//! completes locally, its home-agent registration backs off to
//! exhaustion (~9.5 s with the default schedule), the old foreign agent
//! is notified anyway (installing the §2 forwarding pointer when
//! configured), and the mobile host keeps sending low-rate home-agent
//! probes at the capped cadence. When the partition heals, the next
//! probe re-registers M with the home agent, S's stale cache entry for
//! R4 is corrected through the §5.1 update path, and delivery resumes.
//!
//! Measured: probes spent while partitioned, milliseconds from the heal
//! to the first delivered packet, post-heal delivery, and whether the
//! home agent and S's cache reconverged on M's true location.

use mhrp::{Attachment, MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::FaultPlan;

use crate::metrics::PartitionResult;
use crate::shootout::DATA_PORT;
use crate::topology::{CorrespondentKind, Figure1, Figure1Options};

/// Length of the backbone partition. Longer than the home-agent backoff
/// schedule's ~9.5 s exhaustion, so the probe regime is reached while
/// still partitioned.
pub const PARTITION: SimDuration = SimDuration::from_secs(15);

/// Runs one partition-and-heal scenario.
pub fn run_one(seed: u64, forwarding_pointers: bool, label: &str) -> PartitionResult {
    let config = MhrpConfig { forwarding_pointers, ..Default::default() };
    let mut f = Figure1::build(Figure1Options {
        config,
        correspondent: CorrespondentKind::Mhrp,
        seed,
        ..Default::default()
    });
    let m_addr = f.addrs.m;

    // Attach at R4 and prime S's cache with M's current location.
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![0; 32]);
    });
    f.world.run_for(SimDuration::from_secs(2));

    // Partition the backbone, then move M to R5 two seconds in.
    let from = f.world.now();
    let heal_at = from + PARTITION;
    FaultPlan::new().partition(f.backbone, from, heal_at).install(&mut f.world);
    f.world.run_for(SimDuration::from_secs(2));
    let probes0 = f.world.stats().counter("mhrp.registration_probes");
    let acked0 = f.world.node::<MobileHostNode>(f.m).core.stats.ha_registrations_acked;
    f.move_m_to_e();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r5), SimDuration::from_secs(10)));

    // Ride out the rest of the partition: backoff exhausts, the old FA
    // is notified, probes begin.
    f.world.run_until(heal_at);
    let probes_sent = f.world.stats().counter("mhrp.registration_probes") - probes0;
    let pointer_at_heal =
        f.world.node::<MhrpRouterNode>(f.r4).ca.cache.peek(m_addr) == Some(f.addrs.r5);

    // Stream after the heal and watch delivery resume.
    let healed_at = f.world.now();
    let mut sent_after_heal = 0u64;
    for i in 0..50u32 {
        f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
            s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![i as u8; 32]);
        });
        sent_after_heal += 1;
        f.world.run_for(SimDuration::from_millis(100));
    }
    f.world.run_for(SimDuration::from_secs(3));

    let m = f.world.node::<MobileHostNode>(f.m);
    let rx_after: Vec<_> = m
        .endpoint
        .log
        .udp_rx
        .iter()
        .filter(|r| r.dst_port == DATA_PORT && r.at >= healed_at)
        .collect();
    let reconverge_ms = rx_after.first().map(|r| r.at.since(healed_at).as_millis());
    let ha_reconverged = m.core.stats.ha_registrations_acked > acked0;
    let cache_corrected =
        f.world.node::<MhrpHostNode>(f.s).ca.cache.peek(m_addr) == Some(f.addrs.r5);
    PartitionResult {
        label: label.to_owned(),
        partition_ms: PARTITION.as_millis(),
        probes_sent,
        pointer_at_heal,
        reconverge_ms,
        sent_after_heal,
        delivered_after_heal: rx_after.len() as u64,
        ha_reconverged,
        cache_corrected,
    }
}

/// Runs both configurations.
pub fn run(seed: u64) -> Vec<PartitionResult> {
    vec![
        run_one(seed, true, "with forwarding pointer (§2)"),
        run_one(seed, false, "without forwarding pointer"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_reconverge_after_heal() {
        for row in run(41) {
            // The probe regime was reached inside the partition…
            assert!(row.probes_sent > 0, "{}: no probes while partitioned", row.label);
            // …and the home agent re-learned M's location after it
            // healed, so delivery resumed.
            assert!(row.ha_reconverged, "{}: HA never reconverged", row.label);
            assert!(row.reconverge_ms.is_some(), "{}: delivery never resumed", row.label);
            assert!(
                row.delivered_after_heal >= row.sent_after_heal / 2,
                "{}: only {}/{} delivered after heal",
                row.label,
                row.delivered_after_heal,
                row.sent_after_heal
            );
        }
    }

    #[test]
    fn stale_cache_is_corrected() {
        let rows = run(43);
        for row in &rows {
            assert!(row.cache_corrected, "{}: S's cache still stale", row.label);
        }
        // The pointer bridges delivery no slower than the pointerless
        // path, which must wait for the home agent to hear a probe.
        assert!(rows[0].reconverge_ms.unwrap() <= rows[1].reconverge_ms.unwrap() + 2_500);
    }

    #[test]
    fn r4_holds_a_pointer_during_the_partition() {
        // The §2 pointer itself (not just its effect): the old agent
        // maps M to R5 at heal time even though the home agent was
        // unreachable the whole way there — and only when configured.
        let rows = run(47);
        assert!(rows[0].pointer_at_heal, "pointer row: R4 held no pointer at heal");
        assert!(!rows[1].pointer_at_heal, "pointerless row: R4 unexpectedly held a pointer");
    }
}
