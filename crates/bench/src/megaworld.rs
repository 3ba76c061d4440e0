//! Full-protocol scale workload: the `scenarios::hierarchy` generator at
//! 1k/10k/100k mobile hosts, run through its startup registration storm
//! on one shard or several. Unlike the raw [`crate::simworlds`] loops,
//! every event here crosses the complete stack — ARP, agent discovery,
//! registration and the home-agent location database — so this is the
//! end-to-end cost of a paper-scale world.

use netsim::time::SimDuration;
use scenarios::hierarchy::{HierarchyParams, ShardedHierarchy};

use crate::simworlds::Throughput;

/// Builds a hierarchical world of `regions * mobiles_per_region` mobile
/// hosts over `shards` region-owned shards (one event wheel, node arena
/// and stats hub per shard, backbone as the portal; one shard runs
/// exactly as a classic world), runs it for `sim_ms` simulated
/// milliseconds (enough to cover agent discovery and the registration
/// storm at the default intervals), and reports throughput. Panics if
/// fewer than 99% of the hosts finished registering — a wrong result
/// must not pass as a fast one, parallel or not.
pub fn mega_world(
    seed: u64,
    regions: usize,
    fas_per_region: usize,
    mobiles_per_region: usize,
    sim_ms: u64,
    shards: usize,
    hierarchical: bool,
) -> Throughput {
    let params = HierarchyParams {
        regions,
        fas_per_region,
        mobiles_per_region,
        correspondent: true,
        hierarchical,
        seed,
        ..Default::default()
    };
    let hosts = params.host_count();
    let mut h = ShardedHierarchy::build(params, shards);
    let start = std::time::Instant::now();
    h.world.run_for(SimDuration::from_millis(sim_ms));
    let wall_seconds = start.elapsed().as_secs_f64();
    let attached = h.attached_count();
    assert!(
        attached * 100 >= hosts * 99,
        "only {attached}/{hosts} mobile hosts registered in {sim_ms} ms ({shards} shards)"
    );
    Throughput { events: h.world.events_processed(), wall_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mega_world_registers_and_counts_events() {
        let t = mega_world(1994, 2, 4, 40, 8_000, 1, false);
        assert!(t.events > 1_000, "events {}", t.events);
    }

    #[test]
    fn small_sharded_mega_world_registers_and_counts_events() {
        let t = mega_world(1994, 2, 4, 40, 8_000, 2, false);
        assert!(t.events > 1_000, "events {}", t.events);
    }

    #[test]
    fn small_hierarchical_mega_world_registers_and_counts_events() {
        let t = mega_world(1994, 2, 4, 40, 8_000, 1, true);
        assert!(t.events > 1_000, "events {}", t.events);
    }
}
