//! Turns a traced pass into the per-layer metrics: spans' self times,
//! kernels, exact counts, and what follows from them — above all the
//! attribution of a window's wall time to layers.
//!
//! The attribution is an estimate made from outside: a layer's share is
//! (kernel time per operation x how often the window did that operation)
//! / the window's wall time, with the workload layer read off its spans.
//! Kernels run hot, the window does not, so the shares undercount and
//! the remainder, `attrib.unattributed_share`, is the part only tracing
//! inside the program can explain. The seven shares sum to 1 by
//! construction.

use std::collections::BTreeMap;

use workload::json::Json;

use crate::live::LiveRep;
use crate::metrics::PER_LAYER;
use crate::sim::{SimRep, SimSpec};
use crate::stats;

pub type Spans = BTreeMap<&'static str, (f64, u64)>;
pub type Kernels = BTreeMap<&'static str, f64>;

/// Per-layer metric values, plus the base of every ratio among them.
#[derive(Debug)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    pub bases: BTreeMap<&'static str, Json>,
}

impl Layers {
    /// Every per-layer metric at 0, kernels filled in.
    fn new(kernels: &Kernels) -> Layers {
        let mut values: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();
        for (name, v) in kernels {
            *values.get_mut(name).expect("a kernel is a per-layer metric") = *v;
        }
        Layers { values, bases: BTreeMap::new() }
    }

    fn set(&mut self, name: &'static str, v: f64) {
        *self.values.get_mut(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric")) =
            v;
    }

    /// Sets ratio `name` to `num / den` and records both as its base.
    fn set_ratio(&mut self, name: &'static str, num: (&str, f64), den: (&str, f64)) {
        self.set(name, if den.1 > 0.0 { num.1 / den.1 } else { 0.0 });
        self.bases
            .insert(name, Json::obj(vec![(num.0, Json::Num(num.1)), (den.0, Json::Num(den.1))]));
    }

    fn set_spans(&mut self, spans: &Spans, names: &[(&'static str, &'static str)]) {
        for &(span, metric) in names {
            self.set(metric, spans.get(span).map_or(0.0, |s| s.0));
        }
    }
}

/// Splits `window_s` over the layers: `(share name, seconds)` for the
/// six layers, then the unattributed remainder.
pub fn attribute(
    k: &Kernels,
    counts: &BTreeMap<&'static str, u64>,
    spans: &Spans,
    window_s: f64,
) -> [(&'static str, f64); 7] {
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let ns = |name: &str| k.get(name).copied().unwrap_or(0.0);
    let span_s = |name: &str| spans.get(name).map_or(0.0, |s| s.0);

    // A world's events are frame receptions and timer firings. Frames
    // sent that were not one of the four kinds of broadcast were unicast
    // and reached one receiver; every other reception was a broadcast's.
    let delivered = c("netsim.link.frames_delivered");
    let broadcasts = c("arp.requests_sent")
        + c("arp.gratuitous_sent")
        + c("mhrp.adverts_sent")
        + c("mhrp.solicits_sent");
    let unicast_rx = (c("netsim.link.frames_sent") - broadcasts).clamp(0.0, delivered);
    let timers = (c("netsim.events") - delivered).max(0.0);
    let netsim = timers * ns("netsim.world.timer_fire_ns")
        + unicast_rx * ns("netsim.world.unicast_hop_ns")
        + (delivered - unicast_rx) * ns("netsim.world.broadcast_rx_ns");
    let ip = c("ip.rx") * ns("ip.ipv4.decode_ns")
        + c("ip.tx") * ns("ip.ipv4.encode_ns")
        + c("ip.delivered") * ns("ip.udp.decode_ns")
        + c("ip.originated") * ns("ip.udp.encode_ns");
    let netstack = (c("ip.forwarded") + c("ip.originated")) * ns("netstack.route.lookup_ns");
    // Every registration message is answered, and both are coded twice.
    let control = 2.0 * c("mhrp.registration_msgs_sent");
    let mhrp = (c("mhrp.ha_tunneled") + c("mhrp.tunneled_by_sender"))
        * ns("mhrp.tunnel.encapsulate_ns")
        + (c("mhrp.fa_delivered") + c("mhrp.mh_decapsulated")) * ns("mhrp.tunnel.decapsulate_ns")
        + c("ip.originated") * ns("mhrp.cache.lookup_hit_ns")
        + (c("mhrp.updates_sent") + c("mhrp.updates_rate_limited"))
            * ns("mhrp.rate_limit.allow_ns")
        + c("mhrp.updates_sent") * ns("mhrp.cache.insert_evict_ns")
        + control * (ns("mhrp.messages.encode_ns") + ns("mhrp.messages.decode_ns"));
    let telemetry = c("telemetry.events_recorded") * ns("telemetry.log.record_ns")
        + (c("workload.delivered") + c("workload.completed")) * ns("telemetry.hist.record_ns");
    // `transmit` spans run the protocol stack and are priced above; what
    // is the workload's own is the flows, the polling and the probe codec.
    let workload = span_s("workload.traffic.flows")
        + span_s("scenarios.soak.poll")
        + c("workload.sent") * ns("workload.traffic.probe_codec_ns") / 1e9;

    let mut out = [
        ("attrib.netsim_share", netsim / 1e9),
        ("attrib.ip_share", ip / 1e9),
        ("attrib.netstack_share", netstack / 1e9),
        ("attrib.mhrp_share", mhrp / 1e9),
        ("attrib.telemetry_share", telemetry / 1e9),
        ("attrib.workload_share", workload),
        ("attrib.unattributed_share", 0.0),
    ];
    out[6].1 = window_s - out[..6].iter().map(|s| s.1).sum::<f64>();
    out
}

/// What a traced pass of a simulator workload measured beyond its one
/// traced repetition.
pub struct SimExtras {
    /// Mean window of the untraced repetitions either side of the traced
    /// one: the base of the tracing overhead.
    pub untraced_window_s: f64,
    /// `roam_10k`: window with telemetry off.
    pub telemetry_off_window_s: Option<f64>,
    /// `storm_25k`: window on the sharded engine at 2 shards.
    pub sharded_window_s: Option<f64>,
    /// Resident set the first (cold) repetition added, MB.
    pub first_rep_rss_mb: f64,
}

pub fn sim_layers(
    spec: &SimSpec,
    rep: &SimRep,
    spans: &Spans,
    k: &Kernels,
    x: &SimExtras,
) -> Layers {
    let mut l = Layers::new(k);
    l.set_spans(
        spans,
        &[
            ("scenarios.hierarchy.build", "scenarios.hierarchy.build_s"),
            ("scenarios.hierarchy.attach", "scenarios.hierarchy.attach_s"),
            ("workload.mobility.compile", "workload.mobility.compile_s"),
            ("workload.mobility.install", "workload.mobility.install_s"),
            ("netsim.world.run", "netsim.world.run_s"),
            ("scenarios.soak.transmit", "scenarios.soak.transmit_s"),
            ("scenarios.soak.poll", "scenarios.soak.poll_s"),
            ("workload.traffic.flows", "workload.traffic.flows_s"),
            ("workload.slo.evaluate", "workload.slo.evaluate_s"),
            ("telemetry.export", "telemetry.export_s"),
        ],
    );
    let calls = |span: &str| spans.get(span).map_or(0.0, |s| s.1 as f64);
    l.set("netsim.world.run_calls", calls("netsim.world.run"));
    l.set("scenarios.soak.transmit_calls", calls("scenarios.soak.transmit"));
    l.set("scenarios.soak.poll_calls", calls("scenarios.soak.poll"));
    for (&name, &v) in &rep.counts {
        l.set(name, v as f64);
    }

    let c = |name: &str| rep.counts.get(name).copied().unwrap_or(0) as f64;
    let events = ("events", c("netsim.events"));
    let window = ("window_s", rep.window_s);
    l.set_ratio("netsim.events_per_s", events, window);
    l.set_ratio("netsim.ns_per_event", ("window_ns", rep.window_s * 1e9), events);
    l.set_ratio("netsim.events_per_packet", events, ("probes_sent", c("workload.sent")));
    l.set_ratio(
        "scenarios.bytes_per_mobile",
        ("first_rep_rss_bytes", x.first_rep_rss_mb * 1024.0 * 1024.0),
        ("hosts", spec.hosts() as f64),
    );
    let by_sender = c("mhrp.tunneled_by_sender");
    l.set_ratio(
        "mhrp.cache_hit_ratio",
        ("tunneled_by_sender", by_sender),
        ("tunneled_by_sender_or_ha", by_sender + c("mhrp.ha_tunneled")),
    );
    l.set_ratio(
        "mhrp.overhead_bytes_per_pkt",
        ("overhead_bytes", c("mhrp.overhead_bytes")),
        ("probes_sent", c("workload.sent")),
    );
    l.set_ratio(
        "workload.loss_per_handoff",
        ("probes_lost", c("workload.sent") - c("workload.delivered")),
        ("handoffs", c("workload.handoffs")),
    );
    for (name, seconds) in attribute(k, &rep.counts, spans, rep.window_s) {
        l.set_ratio(name, ("layer_s", seconds), window);
    }
    l.set_ratio(
        "bench.tracing_overhead_ratio",
        ("traced_window_s", rep.window_s),
        ("untraced_window_s", x.untraced_window_s),
    );
    if let Some(off) = x.telemetry_off_window_s {
        l.set_ratio(
            "telemetry.enabled_overhead_ratio",
            ("telemetry_on_window_s", x.untraced_window_s),
            ("telemetry_off_window_s", off),
        );
    }
    if let Some(sharded) = x.sharded_window_s {
        l.set_ratio(
            "netsim.shard.s2_wall_ratio",
            ("two_shard_window_s", sharded),
            ("classic_window_s", x.untraced_window_s),
        );
    }
    l
}

/// `traced` and `untraced` are repetitions of the live workload with
/// the tracer on and off.
pub fn live_layers(traced: &LiveRep, untraced: &LiveRep, spans: &Spans, k: &Kernels) -> Layers {
    let mut l = Layers::new(k);
    l.set_spans(
        spans,
        &[("live.fleet.bind_spawn", "live.fleet.bind_spawn_s"), ("live.collect", "live.collect_s")],
    );
    l.set("live.datagrams_sent", traced.datagrams_sent as f64);
    l.set("live.stale_segment_drops", traced.stale_segment_drops as f64);
    l.set("live.malformed", traced.malformed as f64);
    let (lo, hi) = (traced.stage("lo"), traced.stage("hi"));
    l.set("live.lo_p99_us", stats::quantile(&lo.latency_us, 0.99));
    l.set("live.hi_p99_us", stats::quantile(&hi.latency_us, 0.99));
    l.set("live.hi_p999_us", stats::quantile(&hi.latency_us, 0.999));
    l.set("live.lo_gen_late_p50_us", stats::quantile(&lo.gen_late_us, 0.5));
    l.set("live.hi_gen_late_p50_us", stats::quantile(&hi.gen_late_us, 0.5));
    // The stages are fixed wall time; what tracing could slow is the
    // CPU-bound latency.
    l.set_ratio(
        "bench.tracing_overhead_ratio",
        ("traced_hi_p50_us", hi.p50_us()),
        ("untraced_hi_p50_us", untraced.stage("hi").p50_us()),
    );
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_the_window_by_construction() {
        let k: Kernels = [
            ("netsim.world.timer_fire_ns", 60.0),
            ("netsim.world.unicast_hop_ns", 150.0),
            ("netsim.world.broadcast_rx_ns", 40.0),
            ("ip.ipv4.decode_ns", 40.0),
            ("netstack.route.lookup_ns", 100.0),
            ("workload.traffic.probe_codec_ns", 20.0),
        ]
        .into_iter()
        .collect();
        let counts: BTreeMap<&'static str, u64> = [
            ("netsim.events", 1_000_000),
            ("netsim.link.frames_delivered", 600_000),
            ("netsim.link.frames_sent", 110_000),
            ("mhrp.adverts_sent", 10_000),
            ("ip.rx", 500_000),
            ("ip.forwarded", 50_000),
            ("workload.sent", 1_000),
        ]
        .into_iter()
        .collect();
        let spans: Spans =
            [("workload.traffic.flows", (0.01, 1)), ("scenarios.soak.poll", (0.02, 9))]
                .into_iter()
                .collect();
        let parts = attribute(&k, &counts, &spans, 2.0);
        let total: f64 = parts.iter().map(|p| p.1).sum();
        assert!((total - 2.0).abs() < 1e-12);
        let get = |name: &str| parts.iter().find(|p| p.0 == name).unwrap().1;
        // 400k timers, 100k unicast receptions, 500k broadcast receptions.
        let netsim = (400_000.0 * 60.0 + 100_000.0 * 150.0 + 500_000.0 * 40.0) / 1e9;
        assert!((get("attrib.netsim_share") - netsim).abs() < 1e-12);
        assert!((get("attrib.ip_share") - 0.02).abs() < 1e-12);
        assert!((get("attrib.netstack_share") - 0.005).abs() < 1e-12);
        assert!((get("attrib.workload_share") - (0.03 + 1_000.0 * 20.0 / 1e9)).abs() < 1e-12);
        assert!(get("attrib.unattributed_share") > 1.8);
    }

    #[test]
    fn a_ratio_carries_its_base() {
        let mut l = Layers::new(&Kernels::new());
        assert_eq!(l.values.len(), PER_LAYER.len());
        l.set_ratio("mhrp.cache_hit_ratio", ("hits", 1.0), ("lookups", 4.0));
        assert_eq!(l.values["mhrp.cache_hit_ratio"], 0.25);
        assert_eq!(
            l.bases["mhrp.cache_hit_ratio"].get("lookups").and_then(Json::as_f64),
            Some(4.0)
        );
        l.set_ratio("workload.loss_per_handoff", ("lost", 3.0), ("handoffs", 0.0));
        assert_eq!(l.values["workload.loss_per_handoff"], 0.0);
    }
}
