//! The §7 protocol shootout: MHRP and all five baselines on the *same*
//! physical internetwork (the Figure 1 layout), running the same
//! workload, measured the same way.
//!
//! Workload: the mobile host M starts at home, moves to wireless network
//! D, sends one packet to the correspondent S (mobile-initiated contact —
//! required for the IBM protocol to learn a reverse route, and realistic
//! for every other protocol), then S streams UDP data packets to M.
//! Measured: encapsulation overhead per data packet, delivery ratio,
//! forward-path length in router hops (from received TTLs), and protocol
//! control messages. Periodic agent beacons/advertisements are excluded
//! from the control count for every protocol (they are a comparable,
//! constant background cost); each driver documents its formula.

use std::net::Ipv4Addr;

use baselines::columbia::{ColumbiaMobile, ColumbiaMobileNode, Msr, MsrNode};
use baselines::common::{SendPath, TempAddrPool};
use baselines::ibm_lsrr::{
    BaseStation, BaseStationNode, LsrrHost, LsrrHostNode, LsrrMobile, LsrrMobileNode,
};
use baselines::matsushita::{
    IptpAgent, IptpAgentNode, MatsushitaHost, MatsushitaHostNode, MatsushitaMobile,
    MatsushitaMobileNode, Pfs, PfsNode,
};
use baselines::sony_vip::{
    VipHost, VipHostNode, VipMobile, VipMobileNode, VipRouter, VipRouterNode,
};
use baselines::sunshine_postel::{
    SpDirectory, SpDirectoryNode, SpForwarder, SpForwarderNode, SpHost, SpHostNode, SpMobile,
    SpMobileNode,
};
use mhrp::{MhrpHostNode, MobileHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{IfaceId, NodeId, SegmentId, SegmentParams, World};
use netstack::nodes::{Protocol, RouterNode, StackNode};
use workload::{Flow, FlowCfg, Pattern};

use crate::metrics::ComparisonRow;
use crate::topology::{
    backbone_addr, configure_host_s_stack, configure_router_stack, net, CorrespondentKind, Figure1,
    Figure1Addrs, Figure1Options,
};

/// UDP port used by the data stream (no echo service listens there, so
/// the stream is one-way).
pub const DATA_PORT: u16 = 5001;

/// A closure sending one packet: `(world, destination, payload)`.
type SendFn = Box<dyn Fn(&mut World, Ipv4Addr, Vec<u8>)>;
/// A closure reading the mobile host's data-packet log.
type MobileRxFn = Box<dyn Fn(&World) -> Vec<RxRecord>>;

/// One data packet as received by the mobile host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxRecord {
    /// Arrival time at the mobile host.
    pub at: SimTime,
    /// Remaining IP TTL (forward hop count is `64 - ttl`).
    pub ttl: u8,
    /// The workload probe sequence number, when the payload carries the
    /// [`workload::encode_probe`] header.
    pub seq: Option<u32>,
}

/// A protocol under test, with everything the common workload needs.
pub struct Driver {
    /// Protocol name for the report.
    pub name: &'static str,
    /// The §7 figure quoted by the paper, for the comparison column.
    pub paper_overhead: &'static str,
    /// The running world.
    pub world: World,
    /// Stats counter holding accumulated encapsulation bytes.
    pub overhead_counter: &'static str,
    mobile_home: Ipv4Addr,
    s_addr: Ipv4Addr,
    net_d: SegmentId,
    net_e: SegmentId,
    m_node: NodeId,
    send_s_to_m: SendFn,
    send_m_to_s: SendFn,
    mobile_rx: MobileRxFn,
    control_messages: Box<dyn Fn(&World) -> u64>,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver").field("name", &self.name).finish()
    }
}

impl Driver {
    /// Physically carries M to network D.
    pub fn move_m_to_d(&mut self) {
        self.world.move_iface(self.m_node, IfaceId(0), Some(self.net_d));
    }

    /// Physically carries M to network E.
    pub fn move_m_to_e(&mut self) {
        self.world.move_iface(self.m_node, IfaceId(0), Some(self.net_e));
    }

    /// Sends one data packet from S toward M.
    pub fn send_data(&mut self, payload: Vec<u8>) {
        (self.send_s_to_m)(&mut self.world, self.mobile_home, payload);
    }

    /// Sends one packet from M toward S (mobile-initiated contact).
    pub fn send_from_mobile(&mut self, payload: Vec<u8>) {
        (self.send_m_to_s)(&mut self.world, self.s_addr, payload);
    }

    /// Data packets received by M on [`DATA_PORT`]: `(arrival, ttl)`.
    pub fn mobile_received(&self) -> Vec<(SimTime, u8)> {
        (self.mobile_rx)(&self.world).into_iter().map(|r| (r.at, r.ttl)).collect()
    }

    /// Data packets received by M on [`DATA_PORT`], with decoded
    /// workload probe sequence numbers.
    pub fn mobile_received_probes(&self) -> Vec<RxRecord> {
        (self.mobile_rx)(&self.world)
    }

    /// The protocol's control-message count so far.
    pub fn control_messages(&self) -> u64 {
        (self.control_messages)(&self.world)
    }
}

/// The physical substrate shared by the non-MHRP builders (and the E07
/// scalability experiment): the Figure 1 segments with no nodes yet.
pub struct Phys {
    /// The world (segments added, not started).
    pub world: World,
    /// The backbone segment.
    pub backbone: SegmentId,
    /// Network A.
    pub net_a: SegmentId,
    /// Network B (mobile hosts' home).
    pub net_b: SegmentId,
    /// Network C.
    pub net_c: SegmentId,
    /// Network D (wireless).
    pub net_d: SegmentId,
    /// Network E (wireless).
    pub net_e: SegmentId,
}

/// Builds the bare Figure 1 physical layout.
pub fn phys(seed: u64) -> Phys {
    let mut world = World::new(seed);
    let wired = SegmentParams::with_latency(SimDuration::from_micros(500));
    Phys {
        backbone: world.add_segment(wired),
        net_a: world.add_segment(wired),
        net_b: world.add_segment(wired),
        net_c: world.add_segment(wired),
        net_d: world.add_segment(SegmentParams::wireless()),
        net_e: world.add_segment(SegmentParams::wireless()),
        world,
    }
}

/// Adds a plain (mobility-unaware) router at Figure 1 position `1..=5`.
pub fn add_plain_router(p: &mut Phys, position: u8) -> NodeId {
    let (seg_a, seg_b) = match position {
        1 => (p.backbone, p.net_a),
        2 => (p.backbone, p.net_b),
        3 => (p.backbone, p.net_c),
        4 => (p.net_c, p.net_d),
        _ => (p.net_c, p.net_e),
    };
    let id = p.world.add_node(RouterNode::new());
    p.world.add_iface(id, Some(seg_a));
    p.world.add_iface(id, Some(seg_b));
    p.world.with_node::<RouterNode, _>(id, |r, _| configure_router_stack(&mut r.stack, position));
    id
}

/// Sends UDP from baseline host `id` to `port` along its protocol's send
/// path.
fn send_path<P: Protocol + SendPath>(id: NodeId, port: u16) -> SendFn {
    Box::new(move |w, dst, payload| {
        w.with_node::<StackNode<P>, _>(id, |h, ctx| {
            h.proto.send_udp(&mut h.stack, ctx, dst, port, port, payload);
        });
    })
}

fn udp_filter(log: &netstack::EndpointLog) -> Vec<RxRecord> {
    log.udp_rx
        .iter()
        .filter(|r| r.dst_port == DATA_PORT)
        .map(|r| RxRecord {
            at: r.at,
            ttl: r.ttl,
            seq: workload::decode_probe(&r.payload).map(|(_, seq)| seq),
        })
        .collect()
}

/// Builds the MHRP driver (reusing the Figure 1 topology).
pub fn mhrp_driver(seed: u64) -> Driver {
    let f = Figure1::build(Figure1Options {
        correspondent: CorrespondentKind::Mhrp,
        seed,
        ..Default::default()
    });
    let addrs = f.addrs;
    let (s, m) = (f.s, f.m);
    Driver {
        name: "MHRP",
        paper_overhead: "8 (12 via agent)",
        mobile_home: addrs.m,
        s_addr: addrs.s,
        net_d: f.net_d,
        net_e: f.net_e,
        m_node: m,
        world: f.world,
        overhead_counter: "mhrp.overhead_bytes",
        send_s_to_m: Box::new(move |w, dst, payload| {
            w.with_node::<MhrpHostNode, _>(s, |h, ctx| {
                h.send_udp(ctx, dst, DATA_PORT, DATA_PORT, payload)
            });
        }),
        send_m_to_s: Box::new(move |w, dst, payload| {
            w.with_node::<MobileHostNode, _>(m, |h, ctx| h.send_udp(ctx, dst, 5002, 5002, payload));
        }),
        mobile_rx: Box::new(move |w| udp_filter(&w.node::<MobileHostNode>(m).endpoint.log)),
        // Registrations + acks (2x sends) + location updates.
        control_messages: Box::new(|w| {
            let s = w.stats();
            2 * s.counter("mhrp.registration_msgs_sent") + s.counter("mhrp.updates_sent")
        }),
    }
}

/// Builds the Sunshine–Postel driver.
pub fn sunshine_postel_driver(seed: u64) -> Driver {
    let mut p = phys(seed);
    let addrs = Figure1Addrs::plan();
    for pos in 1..=3 {
        add_plain_router(&mut p, pos);
    }
    // Forwarders at positions 4 and 5.
    for (pos, seg) in [(4u8, p.net_d), (5u8, p.net_e)] {
        let id = p.world.add_node(StackNode::router(SpForwarder::new(IfaceId(1))));
        p.world.add_iface(id, Some(p.net_c));
        p.world.add_iface(id, Some(seg));
        p.world
            .with_node::<SpForwarderNode, _>(id, |r, _| configure_router_stack(&mut r.stack, pos));
    }
    // The global directory, on the backbone.
    let dir_addr = backbone_addr(9);
    let dir = p.world.add_node(StackNode::host(SpDirectory::default()));
    p.world.add_iface(dir, Some(p.backbone));
    p.world.with_node::<SpDirectoryNode, _>(dir, |d, _| {
        d.stack.add_iface(IfaceId(0), dir_addr, net(0));
        d.stack.routes.add(
            ip::Prefix::default_route(),
            netstack::route::NextHop::Gateway { iface: IfaceId(0), via: backbone_addr(1) },
        );
    });
    // S and M.
    let s = p.world.add_node(StackNode::host(SpHost::new(dir_addr)));
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<SpHostNode, _>(s, |h, _| configure_host_s_stack(&mut h.stack));
    let m = p.world.add_node(StackNode::host(SpMobile::new(addrs.m, net(2), addrs.r2, dir_addr)));
    p.world.add_iface(m, Some(p.net_b));
    p.world.start();
    Driver {
        name: "Sunshine-Postel",
        paper_overhead: "src-route (8 here)",
        mobile_home: addrs.m,
        s_addr: addrs.s,
        net_d: p.net_d,
        net_e: p.net_e,
        m_node: m,
        world: p.world,
        overhead_counter: "sp.overhead_bytes",
        send_s_to_m: send_path::<SpHost>(s, DATA_PORT),
        send_m_to_s: send_path::<SpMobile>(m, 5002),
        mobile_rx: Box::new(move |w| udp_filter(&w.node::<SpMobileNode>(m).endpoint.log)),
        // Directory registrations + query/response pairs + local forwarder
        // (re-)registrations, which this protocol refreshes every beacon.
        control_messages: Box::new(|w| {
            let s = w.stats();
            s.counter("sp.mobile_registrations")
                + 2 * s.counter("sp.host_queries")
                + s.counter("sp.fwd_registrations")
        }),
    }
}

/// Builds the Columbia driver.
pub fn columbia_driver(seed: u64) -> Driver {
    let mut p = phys(seed);
    let addrs = Figure1Addrs::plan();
    add_plain_router(&mut p, 1);
    add_plain_router(&mut p, 3);
    // MSRs at positions 2 (home), 4 and 5.
    let msr_addrs = [addrs.r2, addrs.r4, addrs.r5];
    let mut msrs = Vec::new();
    for (pos, seg) in [(2u8, p.net_b), (4, p.net_d), (5, p.net_e)] {
        let id = p.world.add_node(StackNode::router(Msr::new(IfaceId(1))));
        let first = if pos == 2 { p.backbone } else { p.net_c };
        p.world.add_iface(id, Some(first));
        p.world.add_iface(id, Some(seg));
        p.world.with_node::<MsrNode, _>(id, |r, _| {
            configure_router_stack(&mut r.stack, pos);
            let self_addr = r.stack.iface_addr(IfaceId(1)).unwrap().addr;
            r.peers = msr_addrs.iter().copied().filter(|a| *a != self_addr).collect();
        });
        msrs.push(id);
    }
    let home_msr = msrs[0];
    p.world
        .with_node::<MsrNode, _>(home_msr, |r, _| r.proto.add_home_mobile(&mut r.stack, addrs.m));
    // S is a *plain* host: Columbia demands nothing from correspondents.
    let s = p.world.add_node(netstack::HostNode::new());
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<netstack::HostNode, _>(s, |h, _| configure_host_s_stack(&mut h.stack));
    let m = p.world.add_node(StackNode::host(ColumbiaMobile::new(addrs.m, net(2), addrs.r2)));
    p.world.add_iface(m, Some(p.net_b));
    p.world.start();
    Driver {
        name: "Columbia IPIP",
        paper_overhead: "24",
        mobile_home: addrs.m,
        s_addr: addrs.s,
        net_d: p.net_d,
        net_e: p.net_e,
        m_node: m,
        world: p.world,
        overhead_counter: "columbia.overhead_bytes",
        send_s_to_m: Box::new(move |w, dst, payload| {
            w.with_node::<netstack::HostNode, _>(s, |h, ctx| {
                h.send_udp(ctx, dst, DATA_PORT, DATA_PORT, payload)
            });
        }),
        send_m_to_s: send_path::<ColumbiaMobile>(m, 5002),
        mobile_rx: Box::new(move |w| udp_filter(&w.node::<ColumbiaMobileNode>(m).endpoint.log)),
        // Registrations + the multicast query fan-out + replies + popups.
        control_messages: Box::new(|w| {
            let s = w.stats();
            s.counter("columbia.registrations")
                + s.counter("columbia.query_messages")
                + s.counter("columbia.query_rounds") // replies (≤ one per round)
                + s.counter("columbia.popup_registrations")
        }),
    }
}

/// Builds the Sony VIP driver.
pub fn sony_vip_driver(seed: u64) -> Driver {
    let mut p = phys(seed);
    let addrs = Figure1Addrs::plan();
    // All five routers speak VIP; R4/R5 assign temporary addresses.
    let router_addrs = [addrs.r1, addrs.r2, addrs.r3, addrs.r4, addrs.r5];
    let mut ids = Vec::new();
    for (pos, local) in [(1u8, p.net_a), (2, p.net_b), (3, p.net_c), (4, p.net_d), (5, p.net_e)] {
        let id = p.world.add_node(StackNode::router(VipRouter::new(IfaceId(1))));
        let first = if pos <= 3 { p.backbone } else { p.net_c };
        p.world.add_iface(id, Some(first));
        p.world.add_iface(id, Some(local));
        p.world.with_node::<VipRouterNode, _>(id, |r, _| {
            configure_router_stack(&mut r.stack, pos);
            let self_addr = router_addrs[usize::from(pos) - 1];
            r.flood_peers = router_addrs.iter().copied().filter(|a| *a != self_addr).collect();
            if pos >= 4 {
                r.pool = Some(TempAddrPool::new(net(pos), 100, 32));
            }
        });
        ids.push(id);
    }
    let s = p.world.add_node(StackNode::host(VipHost::new(addrs.s)));
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<VipHostNode, _>(s, |h, _| configure_host_s_stack(&mut h.stack));
    let m = p.world.add_node(StackNode::host(VipMobile::new(addrs.m, net(2), addrs.r2, addrs.r2)));
    p.world.add_iface(m, Some(p.net_b));
    p.world.start();
    Driver {
        name: "Sony VIP",
        paper_overhead: "28",
        mobile_home: addrs.m,
        s_addr: addrs.s,
        net_d: p.net_d,
        net_e: p.net_e,
        m_node: m,
        world: p.world,
        overhead_counter: "vip.overhead_bytes",
        send_s_to_m: send_path::<VipHost>(s, DATA_PORT),
        send_m_to_s: send_path::<VipMobile>(m, 5002),
        mobile_rx: Box::new(move |w| udp_filter(&w.node::<VipMobileNode>(m).endpoint.log)),
        // Temp handshakes (2/move) + home registrations + the flood +
        // misdelivery notices.
        control_messages: Box::new(|w| {
            let s = w.stats();
            2 * s.counter("vip.mobile_moves")
                + s.counter("vip.home_registrations")
                + s.counter("vip.flood_messages")
                + s.counter("vip.misdelivered")
        }),
    }
}

/// Builds the Matsushita driver.
pub fn matsushita_driver(seed: u64) -> Driver {
    let mut p = phys(seed);
    let addrs = Figure1Addrs::plan();
    add_plain_router(&mut p, 1);
    add_plain_router(&mut p, 3);
    // The PFS at position 2.
    let pfs = p.world.add_node(StackNode::router(Pfs::new(IfaceId(1))));
    p.world.add_iface(pfs, Some(p.backbone));
    p.world.add_iface(pfs, Some(p.net_b));
    p.world.with_node::<PfsNode, _>(pfs, |r, _| configure_router_stack(&mut r.stack, 2));
    // Address agents at positions 4 and 5.
    for (pos, seg) in [(4u8, p.net_d), (5, p.net_e)] {
        let pool = TempAddrPool::new(net(pos), 100, 32);
        let id = p.world.add_node(StackNode::router(IptpAgent::new(IfaceId(1), pool)));
        p.world.add_iface(id, Some(p.net_c));
        p.world.add_iface(id, Some(seg));
        p.world.with_node::<IptpAgentNode, _>(id, |r, _| configure_router_stack(&mut r.stack, pos));
    }
    let s = p.world.add_node(StackNode::host(MatsushitaHost::default()));
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<MatsushitaHostNode, _>(s, |h, _| configure_host_s_stack(&mut h.stack));
    let m = p.world.add_node(StackNode::host(MatsushitaMobile::new(
        addrs.m,
        net(2),
        addrs.r2,
        addrs.r2,
    )));
    p.world.add_iface(m, Some(p.net_b));
    p.world.start();
    Driver {
        name: "Matsushita IPTP",
        paper_overhead: "40",
        mobile_home: addrs.m,
        s_addr: addrs.s,
        net_d: p.net_d,
        net_e: p.net_e,
        m_node: m,
        world: p.world,
        overhead_counter: "iptp.overhead_bytes",
        send_s_to_m: send_path::<MatsushitaHost>(s, DATA_PORT),
        send_m_to_s: send_path::<MatsushitaMobile>(m, 5002),
        mobile_rx: Box::new(move |w| udp_filter(&w.node::<MatsushitaMobileNode>(m).endpoint.log)),
        control_messages: Box::new(|w| {
            let s = w.stats();
            2 * s.counter("iptp.mobile_moves")
                + s.counter("iptp.registrations")
                + s.counter("iptp.autonomous_enabled")
        }),
    }
}

/// Builds the IBM LSRR driver. `broken_s` makes S one of the §7 "broken"
/// LSRR implementations; `slow_path_penalty` is the per-router extra
/// latency for optioned packets.
pub fn ibm_lsrr_driver(seed: u64, broken_s: bool, slow_path_penalty: SimDuration) -> Driver {
    let mut p = phys(seed);
    let addrs = Figure1Addrs::plan();
    for pos in 1..=3 {
        let id = add_plain_router(&mut p, pos);
        p.world.with_node::<RouterNode, _>(id, |r, _| r.option_penalty = slow_path_penalty);
    }
    for (pos, seg) in [(4u8, p.net_d), (5, p.net_e)] {
        let id = p.world.add_node(StackNode::router(BaseStation::new(IfaceId(1))));
        p.world.add_iface(id, Some(p.net_c));
        p.world.add_iface(id, Some(seg));
        p.world
            .with_node::<BaseStationNode, _>(id, |r, _| configure_router_stack(&mut r.stack, pos));
    }
    let s = p.world.add_node(StackNode::host(LsrrHost::new(broken_s)));
    p.world.add_iface(s, Some(p.net_a));
    p.world.with_node::<LsrrHostNode, _>(s, |h, _| configure_host_s_stack(&mut h.stack));
    let m = p.world.add_node(StackNode::host(LsrrMobile::new(addrs.m, net(2), addrs.r2)));
    p.world.add_iface(m, Some(p.net_b));
    p.world.start();
    Driver {
        name: if broken_s { "IBM LSRR (broken peer)" } else { "IBM LSRR" },
        paper_overhead: "8 (+8 from mobile)",
        mobile_home: addrs.m,
        s_addr: addrs.s,
        net_d: p.net_d,
        net_e: p.net_e,
        m_node: m,
        world: p.world,
        overhead_counter: "lsrr.overhead_bytes",
        send_s_to_m: send_path::<LsrrHost>(s, DATA_PORT),
        send_m_to_s: send_path::<LsrrMobile>(m, 5002),
        mobile_rx: Box::new(move |w| udp_filter(&w.node::<LsrrMobileNode>(m).endpoint.log)),
        control_messages: Box::new(|w| w.stats().counter("lsrr.registrations")),
    }
}

/// Builds every driver (the IBM one with a correct peer and no slow-path
/// penalty).
pub fn all_drivers(seed: u64) -> Vec<Driver> {
    vec![
        mhrp_driver(seed),
        sunshine_postel_driver(seed),
        columbia_driver(seed),
        sony_vip_driver(seed),
        matsushita_driver(seed),
        ibm_lsrr_driver(seed, false, SimDuration::ZERO),
    ]
}

/// Wire size of every measured shootout probe (golden-pinned by the E02
/// overhead counters).
pub const PROBE_BYTES: usize = 64;

/// Runs the common workload on one driver and produces its comparison
/// row.
///
/// The measured stream is emitted by a `workload` CBR [`Flow`] — the
/// same generator the soak runs use — so latency pairing rides on the
/// probe sequence numbers instead of arrival order.
pub fn run_comparison(mut d: Driver, n_packets: u32) -> ComparisonRow {
    // Phase 1: settle at home, then move to network D and let the
    // protocol's registration machinery converge.
    d.world.run_until(SimTime::from_secs(3));
    d.move_m_to_d();
    d.world.run_until(SimTime::from_secs(12));
    // Phase 2: mobile-initiated contact primes reverse routes/caches.
    d.send_from_mobile(b"hello from the road".to_vec());
    d.world.run_for(SimDuration::from_secs(1));
    // Phase 3: the measured data stream — one CBR probe per 100 ms.
    let overhead0 = d.world.stats().counter(d.overhead_counter);
    let control0 = d.control_messages();
    let data_start = d.world.now();
    let mut flow = Flow::new(
        0,
        FlowCfg {
            pattern: Pattern::Cbr { interval: SimDuration::from_millis(100) },
            bytes: PROBE_BYTES,
            seed: 0, // CBR draws nothing from the RNG
            limit: Some(u64::from(n_packets)),
        },
    );
    let mut emits = Vec::new();
    while !flow.done() {
        emits.clear();
        flow.on_tick(d.world.now(), &mut emits);
        for e in &emits {
            d.send_data(workload::encode_probe(0, e.seq, e.bytes));
        }
        d.world.run_for(SimDuration::from_millis(100));
    }
    d.world.run_for(SimDuration::from_secs(3));

    let rx: Vec<RxRecord> =
        d.mobile_received_probes().into_iter().filter(|r| r.at >= data_start).collect();
    let delivered = rx.len() as u64;
    let overhead_bytes = d.world.stats().counter(d.overhead_counter) - overhead0;
    let control_messages = d.control_messages() - control0;
    let avg_forward_hops = if rx.is_empty() {
        0.0
    } else {
        rx.iter().map(|r| f64::from(64 - r.ttl)).sum::<f64>() / rx.len() as f64
    };
    // Latency pairs by embedded sequence number (exact even if a probe
    // is lost mid-stream); hop counts come from received TTLs. Both are
    // merged into the world's stats hub under the per-flow histogram
    // names and copied onto the row.
    let lat_id = d
        .world
        .stats_mut()
        .histogram_metric("flow.latency_us", netsim::telemetry::LATENCY_US_BOUNDS);
    let hops_id =
        d.world.stats_mut().histogram_metric("flow.fwd_hops", netsim::telemetry::HOP_BOUNDS);
    for r in &rx {
        let seq = r.seq.expect("measured stream carries probe headers");
        flow.on_delivered(seq, r.at);
        let sent_at = flow.sent_time(seq).expect("delivered probe was sent by this flow");
        d.world.stats_mut().record_hist_id(lat_id, r.at.since(sent_at).as_micros());
        d.world.stats_mut().record_hist_id(hops_id, u64::from(64 - r.ttl));
    }
    let latency_us = d.world.stats().histogram("flow.latency_us").expect("registered").clone();
    let hops_hist = d.world.stats().histogram("flow.fwd_hops").expect("registered").clone();
    ComparisonRow {
        protocol: d.name.to_owned(),
        workload: flow.cfg.pattern.describe(flow.cfg.bytes),
        data_packets_sent: flow.stats.sent,
        delivered,
        overhead_bytes,
        overhead_per_packet: overhead_bytes as f64 / flow.stats.sent as f64,
        avg_forward_hops,
        latency_us,
        hops_hist,
        control_messages,
        paper_overhead: d.paper_overhead,
    }
}
