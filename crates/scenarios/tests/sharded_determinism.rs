//! The sharding determinism contract (DESIGN.md §10):
//!
//! 1. `--shards 1` is *byte-identical* to the classic single world —
//!    same seed, same build order, no portal machinery, so counters,
//!    event counts and the typed-event log all match exactly.
//! 2. Same seed + any shard count ⇒ identical **merged** typed-event
//!    logs, on jitter-free worlds (`deterministic_cells`): per-receiver
//!    jitter draws consume the owning shard's RNG and are the one
//!    intentional divergence between shard layouts.
//! 3. Both hold under an active fault plan that routes every op variant
//!    (crashes and reboots, mutes, cell and portal partitions, loss,
//!    latency and corruption changes, a within-region move).

use netsim::time::{SimDuration, SimTime};
use netsim::{FaultPlan, IfaceId, Op, SegmentId};
use proptest::prelude::*;
use scenarios::hierarchy::{Hierarchy, HierarchyParams, ShardedHierarchy};
use scenarios::soak::{run_random_waypoint_soak_sharded, RwSoakConfig};

fn small_params(seed: u64) -> HierarchyParams {
    HierarchyParams {
        regions: 2,
        fas_per_region: 3,
        mobiles_per_region: 6,
        deterministic_cells: true,
        seed,
        ..Default::default()
    }
}

/// Classic world vs 1-shard sharded world: the same seed and build
/// order must replay event-for-event, including the telemetry stream.
#[test]
fn one_shard_matches_classic_world_exactly() {
    let p = small_params(1994);
    let mut classic = Hierarchy::build(p.clone());
    classic.world.set_telemetry(true);
    let mut sharded = ShardedHierarchy::build(p, 1);
    sharded.world.set_telemetry(true);

    classic.world.run_until(SimTime::from_secs(20));
    sharded.world.run_until(SimTime::from_secs(20));

    assert_eq!(classic.world.events_processed(), sharded.world.events_processed());
    assert_eq!(classic.attached_count(), sharded.attached_count());
    for name in ["link.frames_delivered", "mhrp.updates_sent", "mhrp.overhead_bytes"] {
        assert_eq!(
            classic.world.stats().counter(name),
            sharded.world.counter(name),
            "counter {name} diverged"
        );
    }
    // With one shard there is one world, seeded with exactly the same
    // seed and built in exactly the same order — its raw telemetry log
    // must match the classic world record-for-record (journeys included:
    // shard 0's journey base is 0).
    let classic_events: Vec<netsim::Event> = classic.world.telemetry().events().copied().collect();
    let shard_events: Vec<netsim::Event> =
        sharded.world.shard(0).telemetry().events().copied().collect();
    assert_eq!(classic_events, shard_events, "raw telemetry logs diverged");
}

/// Panics at the first index where the two streams differ, printing a
/// few records of context (a full-vector `assert_eq!` dump is unusable
/// at these sizes).
fn assert_streams_eq(base: &[netsim::Event], other: &[netsim::Event], what: &str) {
    let n = base.len().min(other.len());
    for i in 0..n {
        if base[i] != other[i] {
            let lo = i.saturating_sub(3);
            panic!(
                "{what}: streams diverge at record {i}\n  base[{lo}..={i}]: {:#?}\n  \
                 other[{lo}..={i}]: {:#?}",
                &base[lo..=i],
                &other[lo..=i]
            );
        }
    }
    assert_eq!(base.len(), other.len(), "{what}: stream lengths diverge (common prefix {n})");
}

/// Runs a 4-region jitter-free world at one shard count and returns its
/// canonical merged stream plus headline counters; optionally under a
/// fault plan exercising node, cell and portal faults.
fn run_world(seed: u64, shards: usize, faults: bool) -> (Vec<netsim::Event>, u64, usize) {
    let p = HierarchyParams {
        regions: 4,
        fas_per_region: 2,
        mobiles_per_region: 4,
        deterministic_cells: true,
        seed,
        ..Default::default()
    };
    let mut h = ShardedHierarchy::build(p, shards);
    h.world.set_telemetry(true);
    if faults {
        // Faults with global ids: translation must land each on its
        // owning shard regardless of the layout, and every op variant
        // passes through the router. The portal partition exercises the
        // replica mirroring. Loss and corruption are only ever 0 or 1, so
        // no outcome depends on whose RNG draws; timings use
        // odd-microsecond offsets so fault instants never collide with
        // protocol timers.
        let at = SimTime::from_micros;
        let ms = SimDuration::from_millis;
        let (mover, crashed) = (h.mobiles[1], h.mobiles[5]);
        let spike = Op::LatencySpike { segment: h.cells[6], extra: ms(7), duration: ms(2_000) };
        FaultPlan::new()
            .crash(crashed, at(4_000_100), SimDuration::from_secs(3))
            .op(at(5_500_300), Op::Reboot { node: crashed })
            .mute_window(h.fas[3], IfaceId(1), at(5_000_900), at(12_000_500))
            // Cell partition (a local segment on whichever shard owns it).
            .partition(h.cells[2], at(7_000_300), at(10_000_900))
            // Backbone partition: the portal itself goes down and heals.
            // (Segment id 0 is the backbone by build order.)
            .partition(SegmentId(0), at(6_000_300), at(9_000_700))
            // A cell blacks out: every copy lost, then none.
            .op(at(4_500_700), Op::SetSegmentLoss { segment: h.cells[4], loss: 1.0 })
            .op(at(6_500_100), Op::SetSegmentLoss { segment: h.cells[4], loss: 0.0 })
            .op(at(5_200_500), spike)
            .op(at(8_300_300), Op::SetSegmentLatency { segment: h.cells[7], latency: ms(2) })
            .op(at(8_700_900), Op::SetSegmentCorruption { segment: h.cells[6], probability: 0.0 })
            // A within-region move: region 0's host drops off the air,
            // then lands on the region's second cell.
            .op(at(7_500_500), Op::DetachIface { node: mover, iface: IfaceId(0) })
            .op(
                at(8_100_100),
                Op::AttachIface { node: mover, iface: IfaceId(0), segment: h.cells[1] },
            )
            .install(&mut h.world);
    }
    h.world.run_until(SimTime::from_secs(16));
    (h.world.merged_events(), h.world.counter("link.frames_delivered"), h.attached_count())
}

/// The tentpole invariant: equal seeds produce identical merged streams
/// at shard counts 1, 2 and 4 (8 clamps to the region count), with the
/// thread pool on and off.
#[test]
fn shard_count_does_not_change_merged_stream() {
    let (base, delivered, attached) = run_world(1994, 1, false);
    assert!(!base.is_empty(), "telemetry produced nothing");
    assert!(attached > 0, "nobody registered");
    for shards in [2, 4, 8] {
        let (events, d, a) = run_world(1994, shards, false);
        assert_eq!(delivered, d, "frames delivered diverged at {shards} shards");
        assert_eq!(attached, a, "attachment diverged at {shards} shards");
        assert_streams_eq(&base, &events, &format!("merged stream at {shards} shards"));
    }
}

/// Same invariant under the fault plan.
#[test]
fn shard_count_invariant_holds_under_faults() {
    let (base, delivered, _) = run_world(77, 1, true);
    assert!(!base.is_empty());
    for shards in [2, 4] {
        let (events, d, _) = run_world(77, shards, true);
        assert_eq!(delivered, d, "frames delivered diverged at {shards} shards");
        assert_streams_eq(
            &base,
            &events,
            &format!("merged stream at {shards} shards under faults"),
        );
    }
}

/// The sharded soak (mobility + traffic + SLO evaluation) replays
/// byte-identically and is shard-count independent.
#[test]
fn sharded_soak_is_shard_count_independent() {
    let mk = |shards: usize| RwSoakConfig {
        params: small_params(1994),
        flows: 4,
        closed_flows: 1,
        duration: SimDuration::from_secs(3),
        telemetry: true,
        shards,
        ..RwSoakConfig::default()
    };
    let one = run_random_waypoint_soak_sharded(&mk(1));
    assert!(one.report.measurements.delivered > 0, "sharded soak delivered nothing");
    let two = run_random_waypoint_soak_sharded(&mk(2));
    assert_eq!(one.events_log, two.events_log, "soak streams diverged across shard counts");
    assert_eq!(
        one.report.measurements.delivered, two.report.measurements.delivered,
        "soak delivery diverged across shard counts"
    );
    // Replay of the same shard count is exactly identical end to end.
    let again = run_random_waypoint_soak_sharded(&mk(2));
    assert_eq!(two.events_log, again.events_log);
    assert_eq!(two.report.to_json(), again.report.to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized seeds: the merged stream is invariant over shard
    /// counts {1, 2, 4, 8}, with and without the fault plan.
    #[test]
    fn prop_merged_stream_invariant_over_shard_counts(
        seed in 1u64..1_000_000,
        faults in any::<bool>(),
    ) {
        let (base, delivered, _) = run_world(seed, 1, faults);
        prop_assert!(!base.is_empty());
        for shards in [2usize, 4, 8] {
            let (events, d, _) = run_world(seed, shards, faults);
            prop_assert_eq!(delivered, d, "delivered diverged: seed {} shards {}", seed, shards);
            prop_assert_eq!(&base, &events, "stream diverged: seed {} shards {}", seed, shards);
        }
    }
}
