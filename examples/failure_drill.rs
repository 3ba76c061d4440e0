//! Robustness drill (paper §5), driven by the deterministic fault
//! engine: every failure below — flapping wireless cells, a backbone
//! partition, crashed agents, poisoned caches, broken tunnel paths — is
//! *scheduled data* (`netsim::FaultPlan`), compiled onto the same event
//! queue as frames and timers, so the whole drill replays
//! byte-identically from the same seed.
//!
//! ```text
//! cargo run --example failure_drill
//! ```

use mhrp_suite::netsim::FaultPlan;
use mhrp_suite::prelude::*;
use scenarios::experiments::{
    e05_loops, e06_recovery, e09_icmp_errors, e11_flapping, e12_partition,
};

fn main() {
    println!("== Failure drill: §5 robustness under scheduled fault plans ==\n");

    println!("--- §3/§5 registration across a flapping wireless cell (E11) ---");
    for r in e11_flapping::run(2026) {
        println!(
            "  {}: attached after {} ms, {} registration msg(s), {} solicit(s), {}/{} delivered",
            r.label,
            r.attach_ms.map(|ms| ms.to_string()).unwrap_or_else(|| "∞".into()),
            r.registration_msgs,
            r.solicits,
            r.delivered,
            r.sent
        );
    }

    println!("\n--- §5.1 backbone partition and heal (E12) ---");
    for r in e12_partition::run(2026) {
        println!(
            "  {}: {} HA probe(s) during the {} ms partition; delivery resumed {} ms after heal; \
             home agent re-acked: {}; S's stale cache corrected: {}",
            r.label,
            r.probes_sent,
            r.partition_ms,
            r.reconverge_ms.map(|ms| ms.to_string()).unwrap_or_else(|| "∞".into()),
            r.ha_reconverged,
            r.cache_corrected
        );
    }

    println!("\n--- §5.2 foreign-agent crash ---");
    for r in e06_recovery::run(2026) {
        match r.recovery_ms {
            Some(ms) => println!(
                "  {}: visitor list rebuilt {ms} ms after the crash ({} packet(s) lost)",
                r.label, r.packets_lost
            ),
            None => println!("  {}: NEVER RECOVERED", r.label),
        }
    }

    println!("\n--- §5.3 forwarding loop (two agents pointing at each other) ---");
    for o in e05_loops::run(2026, 20) {
        println!(
            "  {}: {} loop(s) detected, {} tunnel transits burned",
            o.label, o.loops_detected, o.tunnel_transits
        );
    }
    println!("  loop contraction with a truncated list (§5.3):");
    for (n, cap) in [(4usize, 8usize), (6, 3), (8, 4)] {
        println!(
            "    loop of {n}, list cap {cap}: detected after {} transits",
            e05_loops::contraction_transits(n, cap)
        );
    }

    println!("\n--- §4.5 ICMP errors across tunnels ---");
    for r in e09_icmp_errors::run(2026) {
        println!(
            "  {}: sender saw {} error(s); stale cache purged: {}",
            r.label, r.sender_errors, r.cache_purged
        );
    }

    println!("\n--- §2 home-agent crash: the disk journal survives ---");
    let mut f = Figure1::build(Figure1Options::default());
    let m_addr = f.addrs.m;
    f.world.run_until(SimTime::from_secs(2));
    f.move_m_to_d();
    assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
    f.world.run_for(SimDuration::from_secs(2));
    // Crash the home agent for two seconds — volatile state (timers,
    // pending work) dies; the location binding is journaled to disk.
    let crash_at = f.world.now() + SimDuration::from_millis(100);
    FaultPlan::new().crash(f.r2, crash_at, SimDuration::from_secs(2)).install(&mut f.world);
    f.world.run_until(crash_at + SimDuration::from_secs(2) + SimDuration::from_millis(1));
    let binding = f.world.node::<MhrpRouterNode>(f.r2).ha.as_ref().unwrap().binding(m_addr);
    println!("  home agent crashed and rebooted; binding reloaded from disk: {binding:?}");
    f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
        s.ping(ctx, m_addr);
    });
    f.world.run_for(SimDuration::from_secs(3));
    println!(
        "  ping through the rebooted home agent: {} reply(ies)",
        f.world.node::<MhrpHostNode>(f.s).log().echo_replies.len()
    );

    println!("\n--- determinism: the same plan replays byte-identically ---");
    let probe = Figure1::build(Figure1Options::default());
    let plan = e11_flapping::flapping_plan(&probe);
    drop(probe);
    let a = format!("{:?}", e11_flapping::run_one(2026, &plan, "replay"));
    let b = format!("{:?}", e11_flapping::run_one(2026, &plan, "replay"));
    println!("  two runs of the flapping plan identical: {}", a == b);
    assert_eq!(a, b);
}
