//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root of
//! the repo says the same thing to the driver; a test holds the two
//! together.

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// `(name, why)` of every workload, in running order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "storm_25k",
        "25 000 hosts discover, ARP and register at once, no data packets: pure control plane (timers, cell broadcasts, codecs, HA database) at a working set far beyond cache",
    ),
    (
        "tunnel_1k",
        "1 000 parked hosts, 256 flows over a 64-entry cache, ~1 M probes: pure data plane (IPv4 codecs, LPM, MHRP encap/decap) in a world that fits in cache",
    ),
    (
        "roam_10k",
        "10 000 hosts on random waypoint with telemetry on: caches, rate limiter and registrations are written, not read; the one workload that pays for telemetry",
    ),
    (
        "live_fig1",
        "Figure-1 fleet on real loopback UDP sockets under open-loop load at 1k, 20k and 100k pkt/s: live, tokio and NodeHarness do the work, the simulator none",
    ),
];

/// An end-to-end metric: something a user of the suite waits for or
/// pays, and the share of the parent's median it may worsen by.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every workload reports every one of these; see the README for what
/// each reads on the simulator workloads and on `live_fig1`.
///
/// The bounds are what the reference box can resolve, not what one would
/// wish for: it is a 2-core VM whose speed drifts by a fifth over tens
/// of minutes (ten back-to-back runs of `storm_25k` spread 22 % between
/// their quartiles, of `tunnel_1k` 14 %, while three runs inside one
/// quiet spell agree within 2 %), and a bound inside that drift would
/// reject changes for the weather.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "wall_s_per_sim_s", unit: "s/s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "lo_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "hi_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "flood_goodput_pps", unit: "1/s", better: Better::Higher, bound: 0.25 },
];

/// `(name, unit, better)` of every per-layer metric a traced pass
/// prints. Layers are `crate.module` names. A metric that does not
/// apply to a workload (a live count on a simulator workload) reads 0.
pub const PER_LAYER: [(&str, &str, Better); 105] = {
    use Better::{Higher as H, Lower as L};
    [
        // Spans: self seconds within the traced repetition, and calls.
        ("scenarios.hierarchy.build_s", "s", L),
        ("scenarios.hierarchy.attach_s", "s", L),
        ("workload.mobility.compile_s", "s", L),
        ("workload.mobility.install_s", "s", L),
        ("netsim.world.run_s", "s", L),
        ("netsim.world.run_calls", "count", L),
        ("scenarios.soak.transmit_s", "s", L),
        ("scenarios.soak.transmit_calls", "count", L),
        ("scenarios.soak.poll_s", "s", L),
        ("scenarios.soak.poll_calls", "count", L),
        ("workload.traffic.flows_s", "s", L),
        ("workload.slo.evaluate_s", "s", L),
        ("telemetry.export_s", "s", L),
        ("live.fleet.bind_spawn_s", "s", L),
        ("live.collect_s", "s", L),
        // Kernels: time per operation.
        ("netsim.sched.schedule_pop_small_ns", "ns", L),
        ("netsim.sched.schedule_pop_large_ns", "ns", L),
        ("netsim.world.timer_fire_ns", "ns", L),
        ("netsim.world.unicast_hop_ns", "ns", L),
        ("netsim.world.broadcast_rx_ns", "ns", L),
        ("netsim.io.harness_on_frame_ns", "ns", L),
        ("ip.ipv4.encode_ns", "ns", L),
        ("ip.ipv4.decode_ns", "ns", L),
        ("ip.udp.encode_ns", "ns", L),
        ("ip.udp.decode_ns", "ns", L),
        ("ip.checksum.header_ns", "ns", L),
        ("netstack.route.lookup_ns", "ns", L),
        ("netstack.stack.forward_hop_ns", "ns", L),
        ("mhrp.header.encode_ns", "ns", L),
        ("mhrp.header.decode_ns", "ns", L),
        ("mhrp.tunnel.encapsulate_ns", "ns", L),
        ("mhrp.tunnel.decapsulate_ns", "ns", L),
        ("mhrp.tunnel.retunnel_ns", "ns", L),
        ("mhrp.cache.lookup_hit_ns", "ns", L),
        ("mhrp.cache.insert_evict_ns", "ns", L),
        ("mhrp.rate_limit.allow_ns", "ns", L),
        ("mhrp.messages.encode_ns", "ns", L),
        ("mhrp.messages.decode_ns", "ns", L),
        ("telemetry.log.record_ns", "ns", L),
        ("telemetry.hist.record_ns", "ns", L),
        ("workload.traffic.probe_codec_ns", "ns", L),
        ("workload.traffic.on_tick_ns", "ns", L),
        ("live.wire.encode_ns", "ns", L),
        ("live.wire.decode_ns", "ns", L),
        ("live.switchboard.destinations_ns", "ns", L),
        ("live.udp.loopback_hop_us", "us", L),
        ("tokio.mpsc.wake_us", "us", L),
        // Counts: exact, over the timed window.
        ("netsim.events", "count", L),
        ("netsim.link.frames_sent", "count", L),
        ("netsim.link.frames_delivered", "count", L),
        ("netsim.timers_cancelled", "count", L),
        ("ip.rx", "count", L),
        ("ip.forwarded", "count", L),
        ("ip.tx", "count", L),
        ("ip.delivered", "count", L),
        ("ip.originated", "count", L),
        ("arp.requests_sent", "count", L),
        ("arp.replies_sent", "count", L),
        ("arp.gratuitous_sent", "count", L),
        ("mhrp.adverts_sent", "count", L),
        ("mhrp.solicits_sent", "count", L),
        ("mhrp.registration_msgs_sent", "count", L),
        ("mhrp.ha_registrations", "count", L),
        ("mhrp.ha_tunneled", "count", L),
        ("mhrp.tunneled_by_sender", "count", H),
        ("mhrp.fa_delivered", "count", H),
        ("mhrp.mh_decapsulated", "count", L),
        ("mhrp.mh_moves", "count", L),
        ("mhrp.updates_sent", "count", L),
        ("mhrp.updates_rate_limited", "count", L),
        ("mhrp.cache.evictions", "count", L),
        ("mhrp.rate_limit.evictions", "count", L),
        ("mhrp.overhead_bytes", "B", L),
        ("telemetry.events_recorded", "count", L),
        ("telemetry.overwritten", "count", L),
        ("workload.sent", "count", L),
        ("workload.delivered", "count", H),
        ("workload.completed", "count", H),
        ("workload.retries", "count", L),
        ("workload.handoffs", "count", L),
        ("live.datagrams_sent", "count", L),
        ("live.stale_segment_drops", "count", L),
        ("live.malformed", "count", L),
        // Derived.
        ("netsim.events_per_s", "1/s", H),
        ("netsim.ns_per_event", "ns", L),
        ("netsim.events_per_packet", "count", L),
        ("scenarios.bytes_per_mobile", "B", L),
        ("mhrp.cache_hit_ratio", "ratio", H),
        ("mhrp.overhead_bytes_per_pkt", "B", L),
        ("workload.loss_per_handoff", "count", L),
        ("attrib.netsim_share", "ratio", L),
        ("attrib.ip_share", "ratio", L),
        ("attrib.netstack_share", "ratio", L),
        ("attrib.mhrp_share", "ratio", L),
        ("attrib.telemetry_share", "ratio", L),
        ("attrib.workload_share", "ratio", L),
        ("attrib.unattributed_share", "ratio", L),
        ("telemetry.enabled_overhead_ratio", "ratio", L),
        ("netsim.shard.s2_wall_ratio", "ratio", L),
        ("bench.tracing_overhead_ratio", "ratio", L),
        ("live.lo_p99_us", "us", L),
        ("live.hi_p99_us", "us", L),
        ("live.hi_p999_us", "us", L),
        ("live.lo_gen_late_p50_us", "us", L),
        ("live.hi_gen_late_p50_us", "us", L),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;
    use workload::json::Json;

    fn direction(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn name_is_valid(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// `BENCHMARK.json` is the driver's copy of these tables.
    #[test]
    fn benchmark_json_says_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap();
        let strs = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_owned();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

        let workloads: Vec<(String, String)> =
            list("workloads").iter().map(|w| (strs(w, "name"), strs(w, "why"))).collect();
        let want: Vec<(String, String)> =
            WORKLOADS.iter().map(|&(n, w)| (n.to_owned(), w.to_owned())).collect();
        assert_eq!(workloads, want);
        assert!(WORKLOADS.iter().all(|(n, why)| name_is_valid(n) && why.len() <= 200));

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(strs(got, "name"), want.name);
            assert_eq!(strs(got, "unit"), want.unit);
            assert_eq!(strs(got, "better"), direction(want.better));
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
            assert!(want.bound <= 0.25 && name_is_valid(want.name));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (got, &(name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(strs(got, "name"), name);
            assert_eq!(strs(got, "unit"), unit);
            assert_eq!(strs(got, "better"), direction(better));
            assert!(name_is_valid(name) && unit.len() <= 16);
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
