//! **E11 — registration under flapping links.**
//!
//! M moves into R4's wireless cell while a scheduled fault plan flaps
//! network D up and down. Agent advertisements, solicitations and
//! registration messages all cross that link, so every flap can eat any
//! part of the §3 sequence; the bounded retry/backoff schedule on
//! registration is what lets M converge once the link stabilises. A
//! third schedule suppresses R4's broadcasts instead of cutting the
//! link — modeling an agent whose advertisements are lost while unicast
//! still works — which stalls discovery (M cannot hear any agent) until
//! the suppression lifts.
//!
//! Measured per schedule: time from the move to the first successful
//! foreign attachment, registration traffic spent (retransmissions
//! included), failed registrations, solicitations, and data delivery
//! while S streams throughout.

use mhrp::{Attachment, MhrpHostNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{FaultPlan, IfaceId};

use crate::metrics::FlapResult;
use crate::shootout::DATA_PORT;
use crate::topology::{CorrespondentKind, Figure1, Figure1Options};

/// When M is carried into R4's cell (absolute simulation time). Fault
/// schedules are built relative to this so every row lines up.
pub const MOVE_AT: SimTime = SimTime::from_secs(2);

/// Builds the fault schedule for the "flapping link" row: network D
/// flaps down/up four times, the first flap already in progress when M
/// arrives, ending up.
pub fn flapping_plan(f: &Figure1) -> FaultPlan {
    FaultPlan::new().flap(
        f.net_d,
        MOVE_AT - SimDuration::from_millis(300),
        SimDuration::from_millis(700),
        SimDuration::from_millis(800),
        4,
    )
}

/// Builds the fault schedule for the "adverts suppressed" row: R4's
/// cell-side broadcasts are muted from before the move until four
/// seconds after it, so M can hear no advertisement (solicited or
/// periodic) until the window lifts.
pub fn muted_plan(f: &Figure1) -> FaultPlan {
    FaultPlan::new().mute_window(
        f.r4,
        IfaceId(1),
        MOVE_AT - SimDuration::from_millis(500),
        MOVE_AT + SimDuration::from_secs(4),
    )
}

/// Runs one schedule: build Figure 1, install `plan`, carry M into R4's
/// cell at [`MOVE_AT`] and stream S→M for ten seconds.
pub fn run_one(seed: u64, plan: &FaultPlan, label: &str) -> FlapResult {
    let mut f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        seed,
        ..Default::default()
    });
    let m_addr = f.addrs.m;
    plan.install(&mut f.world);

    f.world.run_until(MOVE_AT);
    let reg0 = f.world.stats().counter("mhrp.registration_msgs_sent");
    let failed0 = f.world.stats().counter("mhrp.registrations_failed");
    let solicits0 = f.world.stats().counter("mhrp.solicits_sent");
    f.move_m_to_d();
    let moved_at = f.world.now();

    // Stream throughout the fault window; note the first instant M is
    // attached at R4.
    let mut attach_ms = None;
    let mut sent = 0u64;
    for i in 0..100u32 {
        f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| {
            s.send_udp(ctx, m_addr, DATA_PORT, DATA_PORT, vec![i as u8; 32]);
        });
        sent += 1;
        f.world.run_for(SimDuration::from_millis(100));
        if attach_ms.is_none()
            && f.world.node::<MobileHostNode>(f.m).core.state == Attachment::Foreign(f.addrs.r4)
        {
            attach_ms = Some(f.world.now().since(moved_at).as_millis());
        }
    }
    f.world.run_for(SimDuration::from_secs(3));

    let m = f.world.node::<MobileHostNode>(f.m);
    let delivered = m
        .endpoint
        .log
        .udp_rx
        .iter()
        .filter(|r| r.dst_port == DATA_PORT && r.at >= moved_at)
        .count() as u64;
    FlapResult {
        label: label.to_owned(),
        attached: matches!(m.core.state, Attachment::Foreign(_)),
        attach_ms,
        registration_msgs: f.world.stats().counter("mhrp.registration_msgs_sent") - reg0,
        registrations_failed: f.world.stats().counter("mhrp.registrations_failed") - failed0,
        solicits: f.world.stats().counter("mhrp.solicits_sent") - solicits0,
        sent,
        delivered,
    }
}

/// Runs all three schedules.
pub fn run(seed: u64) -> Vec<FlapResult> {
    // The schedules reference segment/node ids, which are identical for
    // every `Figure1::build`; use a throwaway build to construct them.
    let probe = Figure1::build(Figure1Options::default());
    let flapping = flapping_plan(&probe);
    let muted = muted_plan(&probe);
    drop(probe);
    vec![
        run_one(seed, &FaultPlan::new(), "stable link"),
        run_one(seed, &flapping, "flapping link (4 down/up cycles)"),
        run_one(seed, &muted, "advertisements suppressed 4 s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schedules_end_attached_and_delivering() {
        for row in run(31) {
            assert!(row.attached, "{}: M never attached", row.label);
            assert!(row.attach_ms.is_some(), "{}: no attach time", row.label);
            assert!(row.delivered > 0, "{}: nothing delivered", row.label);
        }
    }

    #[test]
    fn faults_cost_time_and_registration_traffic() {
        let rows = run(37);
        let stable = &rows[0];
        let flapping = &rows[1];
        let muted = &rows[2];
        // A stable link attaches within roughly one advertisement
        // period.
        assert!(stable.attach_ms.unwrap() < 2_000, "stable took {:?}", stable.attach_ms);
        // Flapping delays attachment and costs extra registration
        // messages (retransmissions across the flaps).
        assert!(flapping.attach_ms.unwrap() >= stable.attach_ms.unwrap());
        assert!(
            flapping.registration_msgs >= stable.registration_msgs,
            "flapping sent {} registration msgs vs stable {}",
            flapping.registration_msgs,
            stable.registration_msgs
        );
        // Suppressed advertisements stall discovery for the whole mute
        // window.
        assert!(muted.attach_ms.unwrap() >= 3_500, "muted attached at {:?}", muted.attach_ms);
    }
}
