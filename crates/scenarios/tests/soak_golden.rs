//! Golden soak figures: three tiny soak configurations — the classic
//! flat world, a region-confined run on two shards, and an adversarial
//! run with the authentication extension on — must keep producing the
//! exact measurements recorded before the hierarchy builder and the soak
//! driver were each folded into one code path.
//!
//! The replay tests next to the soak compare two runs of the same
//! binary, so a change to what the soak does passes them; these compare
//! against literals.

use mhrp::MhrpConfig;
use netsim::time::SimDuration;
use scenarios::hierarchy::HierarchyParams;
use scenarios::soak::{run_random_waypoint_soak, RwSoakConfig};

/// `(sent, delivered, completed, handoffs, updates_sent, overhead_bytes,
/// events)` of one soak run.
type Figures = (u64, u64, u64, u64, u64, u64, u64);

fn figures(cfg: &RwSoakConfig) -> Figures {
    let run = run_random_waypoint_soak(cfg);
    let m = &run.report.measurements;
    (m.sent, m.delivered, m.completed, m.handoffs, m.updates_sent, m.overhead_bytes, run.events)
}

/// A 2 × 3 × 6 world under four flows (one closed-loop) for 3 s.
fn tiny(params: HierarchyParams) -> RwSoakConfig {
    RwSoakConfig {
        params: HierarchyParams { regions: 2, fas_per_region: 3, mobiles_per_region: 6, ..params },
        flows: 4,
        closed_flows: 1,
        duration: SimDuration::from_secs(3),
        ..RwSoakConfig::default()
    }
}

#[test]
fn classic_flat_soak_matches_golden() {
    let got = figures(&tiny(HierarchyParams::default()));
    assert_eq!(got, (338, 333, 244, 2, 17, 3060, 2196), "classic flat soak drifted");
}

#[test]
fn confined_two_shard_soak_matches_golden() {
    let cfg = RwSoakConfig {
        shards: 2,
        ..tiny(HierarchyParams { deterministic_cells: true, ..Default::default() })
    };
    let got = figures(&cfg);
    assert_eq!(got, (338, 335, 244, 1, 13, 3048, 2159), "confined 2-shard soak drifted");
}

#[test]
fn adversarial_soak_matches_golden() {
    let cfg = RwSoakConfig {
        adversarial: true,
        ..tiny(HierarchyParams {
            attackers: 1,
            config: MhrpConfig { auth_key: Some(0x1994_0d0c_5bad_c0de), ..Default::default() },
            ..Default::default()
        })
    };
    let got = figures(&cfg);
    assert_eq!(got, (338, 333, 244, 2, 17, 3060, 2224), "adversarial soak drifted");
}
