//! Per-layer kernels: one layer's public functions, driven from outside
//! at the shape the workloads use them (64 B probes, a 64-entry location
//! cache, a regional router's table, a 50-host cell), reported as time
//! per operation.
//!
//! A kernel runs hot and alone, so it prices the layer's instructions,
//! not its cache misses inside a 900 MB world; what the kernels cannot
//! explain of a window's wall time is `attrib.unattributed_share`.
//!
//! Every number is the median of [`BATCHES`] timed batches after one
//! untimed batch; none is a minimum.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use mhrp::{
    ControlMessage, LocationCache, MhrpConfig, MhrpHeader, MhrpRouterNode, UpdateRateLimiter,
};
use netsim::time::{SimDuration, SimTime};
use netsim::{
    Ctx, EtherType, Frame, IfaceId, MacAddr, Node, NodeHarness, NodeId, NullIo, SegmentParams,
    TimerToken, TimerWheel, World,
};
use netstack::nodes::{HostNode, RouterNode};
use netstack::route::{NextHop, RoutingTable};
use scenarios::hierarchy as plan;
use workload::{Flow, FlowCfg, Pattern};

use crate::stats;

/// Timed batches per kernel.
const BATCHES: usize = 7;
/// Host time one batch is sized to.
const BATCH: Duration = Duration::from_millis(4);
/// Probe payload bytes in every soak and live workload.
const PROBE_BYTES: usize = 64;

/// Nanoseconds per call of `op`.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    // Size a batch to ~4 ms, which also warms the code up.
    let mut n = 1u64;
    loop {
        let started = Instant::now();
        for _ in 0..n {
            op();
        }
        if started.elapsed() >= BATCH || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..n {
                op();
            }
            started.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&batches)
}

/// Nanoseconds per call of `op` on a fresh input from `make`, which is
/// not timed (for operations that consume or rewrite their input).
fn ns_per_op_on<T, R>(mut make: impl FnMut() -> T, mut op: impl FnMut(T) -> R) -> f64 {
    const N: usize = 4_096;
    let batches: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let inputs: Vec<T> = (0..N).map(|_| make()).collect();
            let mut outputs: Vec<R> = Vec::with_capacity(N);
            let started = Instant::now();
            for input in inputs {
                outputs.push(op(input));
            }
            let ns = started.elapsed().as_nanos() as f64 / N as f64;
            black_box(&outputs);
            ns
        })
        .skip(1)
        .collect();
    stats::median(&batches)
}

/// Nanoseconds per unit of `count` while `world` advances in chunks of
/// `chunk` (one untimed, then [`BATCHES`] timed).
fn world_ns_per(world: &mut World, chunk: SimDuration, count: impl Fn(&World) -> u64) -> f64 {
    world.run_for(chunk);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let before = count(world);
            let started = Instant::now();
            world.run_for(chunk);
            started.elapsed().as_nanos() as f64 / (count(world) - before).max(1) as f64
        })
        .collect();
    stats::median(&batches)
}

fn addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0a00_0000 + i)
}

fn probe_packet() -> Ipv4Packet {
    let udp = UdpDatagram::new(4100, 7, workload::encode_probe(3, 77, PROBE_BYTES));
    Ipv4Packet::new(addr(1), addr(7), ip::proto::UDP, udp.encode())
}

// --- netsim ---------------------------------------------------------------

/// `schedule` + `pop` with `outstanding` entries in the wheel, deadlines
/// spread over the next simulated second as node timers are.
fn sched_schedule_pop(outstanding: usize) -> f64 {
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut delay = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        SimDuration::from_nanos(1_000 + (x >> 34) % 1_000_000_000)
    };
    for i in 0..outstanding {
        wheel.schedule(SimTime::ZERO + delay(), i as u32);
    }
    ns_per_op(|| {
        let (at, _, value) = wheel.pop().expect("the wheel never drains");
        wheel.schedule(at + delay(), value);
    })
}

/// Keeps `chains` timers re-arming forever; hears frames and ignores them.
struct TimerChains {
    chains: u64,
}

impl Node for TimerChains {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for t in 0..self.chains {
            ctx.set_timer(SimDuration::from_micros(900 + 37 * t), TimerToken(t));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
        ctx.set_timer(SimDuration::from_micros(900 + 37 * t.0), t);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
}

/// One timer firing through `World`: pop, dispatch, re-arm, schedule.
fn world_timer_fire() -> f64 {
    let mut w = World::new(1);
    for _ in 0..1_024 {
        let id = w.add_node(TimerChains { chains: 2 });
        w.add_iface(id, None);
    }
    w.start();
    world_ns_per(&mut w, SimDuration::from_millis(20), World::events_processed)
}

/// Returns every frame to its sender; one of each pair serves first.
struct Rally {
    serve: bool,
}

impl Node for Rally {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.serve {
            ctx.set_timer(SimDuration::from_micros(10), TimerToken(0));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        let f =
            Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0xb0b0), vec![0u8; PROBE_BYTES]);
        ctx.send_frame(IfaceId(0), f);
    }
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        let reply = Frame::new(ctx.mac(iface), frame.src, frame.ethertype, frame.payload.clone());
        ctx.send_frame(iface, reply);
    }
}

/// One unicast frame across a segment: transmit, schedule, pop, deliver.
fn world_unicast_hop() -> f64 {
    let mut w = World::new(1);
    for _ in 0..64 {
        let seg = w.add_segment(SegmentParams::default());
        for serve in [true, false] {
            let id = w.add_node(Rally { serve });
            w.add_iface(id, Some(seg));
        }
    }
    w.start();
    world_ns_per(&mut w, SimDuration::from_millis(10), World::events_processed)
}

/// Broadcasts a probe-sized frame every millisecond.
struct Beacon;

impl Node for Beacon {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
        let f =
            Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0xbeef), vec![0u8; PROBE_BYTES]);
        ctx.send_frame(IfaceId(0), f);
        ctx.set_timer(SimDuration::from_millis(1), t);
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
}

/// One reception of a cell broadcast: a sender and 50 receivers, as a
/// `storm_25k` cell has.
fn world_broadcast_rx() -> f64 {
    let mut w = World::new(1);
    let seg = w.add_segment(SegmentParams::default());
    let id = w.add_node(Beacon);
    w.add_iface(id, Some(seg));
    for _ in 0..50 {
        let id = w.add_node(TimerChains { chains: 0 });
        w.add_iface(id, Some(seg));
    }
    w.start();
    world_ns_per(&mut w, SimDuration::from_millis(200), |w| {
        w.stats().counter("link.frames_delivered")
    })
}

/// A router between 10.0.1.0/24 (iface 0) and 10.0.2.0/24 (iface 1)
/// that knows `10.0.2.2`'s link address, so forwarding never waits.
fn forwarding_router() -> MhrpRouterNode {
    let mut r = MhrpRouterNode::new(MhrpConfig::default());
    r.stack.add_iface(
        IfaceId(0),
        Ipv4Addr::new(10, 0, 1, 1),
        ip::Prefix::new(Ipv4Addr::new(10, 0, 1, 0), 24),
    );
    r.stack.add_iface(
        IfaceId(1),
        Ipv4Addr::new(10, 0, 2, 1),
        ip::Prefix::new(Ipv4Addr::new(10, 0, 2, 0), 24),
    );
    r.stack.arp.insert(IfaceId(1), Ipv4Addr::new(10, 0, 2, 2), MacAddr::from_index(9));
    r
}

/// `NodeHarness::on_frame` on a forwarding `MhrpRouterNode` with
/// `NullIo`: the live runtime's per-hop dispatch, without the socket.
fn harness_on_frame() -> f64 {
    let mut harness = NodeHarness::new(NodeId(0), forwarding_router(), 1);
    harness.add_iface(MacAddr::from_index(0), true);
    harness.add_iface(MacAddr::from_index(1), true);
    let mut io = NullIo;
    harness.start(SimTime::ZERO, &mut io);
    let udp = UdpDatagram::new(4100, 9900, workload::encode_probe(1, 1, PROBE_BYTES));
    let pkt = Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 1, 2),
        Ipv4Addr::new(10, 0, 2, 2),
        ip::proto::UDP,
        udp.encode(),
    );
    let frame =
        Frame::new(MacAddr::from_index(8), MacAddr::from_index(0), EtherType::Ipv4, pkt.encode());
    let mut now = SimTime::ZERO;
    let ns = ns_per_op(|| {
        now += SimDuration::from_micros(50);
        harness.on_frame(now, &mut io, IfaceId(0), &frame);
    });
    assert!(harness.stats().counter("ip.forwarded") > 0, "the kernel's router did not forward");
    ns
}

// --- netstack -------------------------------------------------------------

/// Longest-prefix match in a table shaped like a `storm_25k` regional
/// router's: two aggregates per other region, one route per cell.
fn route_lookup() -> f64 {
    let (regions, fas) = (4, 125);
    let mut t = RoutingTable::new();
    t.add(plan::backbone_prefix(), NextHop::Direct { iface: IfaceId(0) });
    t.add(plan::region_prefix(0), NextHop::Direct { iface: IfaceId(1) });
    for r in 1..regions {
        let via = plan::backbone_addr(r);
        t.add(plan::region_prefix(r), NextHop::Gateway { iface: IfaceId(0), via });
        t.add(plan::cells_prefix(r), NextHop::Gateway { iface: IfaceId(0), via });
    }
    for f in 0..fas {
        let via = plan::fa_upstream_addr(0, f);
        t.add(plan::cell_prefix(0, f), NextHop::Gateway { iface: IfaceId(1), via });
    }
    // What such a router looks up: its cells' agents, its own and other
    // regions' mobiles.
    let dsts: Vec<Ipv4Addr> = (0..256)
        .map(|i| match i % 3 {
            0 => plan::fa_cell_addr(0, i % fas),
            1 => plan::mobile_home_addr(0, i),
            _ => plan::mobile_home_addr(1 + i % (regions - 1), i),
        })
        .collect();
    let mut i = 0;
    ns_per_op(|| {
        i = (i + 1) % dsts.len();
        black_box(t.lookup(dsts[i]).expect("every destination has a route"));
    })
}

/// One probe-sized datagram host -> `RouterNode` -> host through a
/// world: origination, two link hops, one forwarding decision, delivery.
fn stack_forward_hop() -> f64 {
    let net = |n: u8| ip::Prefix::new(Ipv4Addr::new(10, 0, n, 0), 24);
    let mut w = World::new(1);
    let segs = [w.add_segment(SegmentParams::default()), w.add_segment(SegmentParams::default())];
    let router = w.add_node(RouterNode::new());
    let hosts = [w.add_node(HostNode::new()), w.add_node(HostNode::new())];
    for (n, seg) in segs.into_iter().enumerate() {
        let n = n as u8 + 1;
        let (iface, _) = w.add_iface(router, Some(seg));
        w.with_node::<RouterNode, _>(router, |r, _| {
            r.stack.add_iface(iface, Ipv4Addr::new(10, 0, n, 1), net(n));
        });
        w.add_iface(hosts[n as usize - 1], Some(seg));
        w.with_node::<HostNode, _>(hosts[n as usize - 1], |h, _| {
            h.stack.add_iface(IfaceId(0), Ipv4Addr::new(10, 0, n, 2), net(n));
            let via = Ipv4Addr::new(10, 0, n, 1);
            h.stack
                .routes
                .add(ip::Prefix::default_route(), NextHop::Gateway { iface: IfaceId(0), via });
        });
    }
    w.start();
    let dst = Ipv4Addr::new(10, 0, 2, 2);
    let send = |w: &mut World| {
        w.with_node::<HostNode, _>(hosts[0], |h, ctx| {
            h.send_udp(ctx, dst, 4100, 9900, workload::encode_probe(1, 1, PROBE_BYTES));
        });
        w.run_for(SimDuration::from_millis(5));
    };
    send(&mut w); // resolves ARP on both segments
    let ns = ns_per_op(|| send(&mut w));
    let delivered = w.node::<HostNode>(hosts[1]).log().udp_rx.len();
    assert!(delivered > 1, "the kernel's packets did not arrive");
    ns
}

// --- workload / live / executor ------------------------------------------

/// One 50 ms tick of a 100 pkt/s Poisson flow, as `tunnel_1k` has 192 of.
fn flow_on_tick() -> f64 {
    let cfg = FlowCfg {
        pattern: Pattern::Poisson { per_sec: 100.0 },
        bytes: PROBE_BYTES,
        seed: 9,
        limit: None,
    };
    let mut flow = Flow::new(0, cfg);
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    ns_per_op(|| {
        out.clear();
        flow.on_tick(now, &mut out);
        now += SimDuration::from_millis(50);
    })
}

/// The Figure-1 fleet's sixteen ports, unicast within the backbone.
fn switchboard_destinations() -> f64 {
    let sc = live::LoopbackScenario::canonical(4);
    let board = live::Switchboard::new();
    let mut mac = 0u64;
    for (node, ifaces) in sc.iface_plan().iter().enumerate() {
        for (iface, &seg) in ifaces.iter().enumerate() {
            board.register(live::Port {
                node: NodeId(node),
                iface: IfaceId(iface),
                mac: MacAddr::from_index(mac),
                addr: std::net::SocketAddr::from(([127, 0, 0, 1], 20_000 + mac as u16)),
                segment: Some(seg),
            });
            mac += 1;
        }
    }
    // R1's backbone port to R2's (MAC index 2: R1 has two interfaces).
    ns_per_op(|| {
        let (seg, dests) = board.destinations(NodeId(0), IfaceId(0), MacAddr::from_index(2));
        assert!(seg.is_some() && dests.len() == 1);
        black_box(dests);
    })
}

/// A probe-sized datagram through the kernel's loopback and back out:
/// bare blocking `std::net` `send_to` -> `recv_from`, microseconds.
fn udp_loopback_hop_us() -> f64 {
    let bind = || std::net::UdpSocket::bind("127.0.0.1:0").expect("loopback binds");
    let (a, b) = (bind(), bind());
    let to = b.local_addr().expect("bound socket has an address");
    let datagram = vec![0u8; live::wire::HEADER_LEN + 28 + PROBE_BYTES];
    let mut buf = [0u8; 2048];
    ns_per_op(|| {
        a.send_to(&datagram, to).expect("loopback send");
        b.recv_from(&mut buf).expect("loopback receive");
    }) / 1e3
}

/// Send -> `timeout(recv)` wake-up on the stand-in executor when the
/// receiving task has already had its turn this round and a socket
/// reader keeps the executor on its 200 us I/O poll, as in the live
/// fleet: the time a message waits for the next round. Microseconds.
fn mpsc_wake_us() -> f64 {
    use tokio::sync::mpsc::unbounded_channel;
    use tokio::time::{sleep, timeout};
    const MESSAGES: usize = 200;
    let rt = tokio::runtime::Runtime::new().expect("the stand-in runtime never fails to build");
    let mut waits_us = rt.block_on(async {
        let idle = tokio::net::UdpSocket::bind("127.0.0.1:0").await.expect("loopback binds");
        tokio::task::spawn(async move {
            let mut buf = [0u8; 16];
            let _ = idle.recv_from(&mut buf).await;
        });
        let (tx, mut rx) = unbounded_channel::<Instant>();
        // Spawned first, so polled before the sender every round.
        let receiver = tokio::task::spawn(async move {
            let mut waits = Vec::with_capacity(MESSAGES);
            while waits.len() < MESSAGES {
                if let Ok(Some(sent)) = timeout(Duration::from_millis(50), rx.recv()).await {
                    waits.push(sent.elapsed().as_nanos() as f64 / 1e3);
                }
            }
            waits
        });
        tokio::task::spawn(async move {
            for _ in 0..MESSAGES {
                sleep(Duration::from_micros(700)).await;
                let _ = tx.send(Instant::now());
            }
            // Keep the channel open until the receiver has drained it.
            sleep(Duration::from_millis(100)).await;
        });
        receiver.await.expect("receiver task does not panic")
    });
    stats::sort(&mut waits_us);
    stats::quantile(&waits_us, 0.5)
}

/// Runs every kernel; keys are per-layer metric names.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let mut k: BTreeMap<&'static str, f64> = BTreeMap::new();
    let now = SimTime::from_secs(1);

    k.insert("netsim.sched.schedule_pop_small_ns", sched_schedule_pop(1 << 10));
    k.insert("netsim.sched.schedule_pop_large_ns", sched_schedule_pop(1 << 18));
    k.insert("netsim.world.timer_fire_ns", world_timer_fire());
    k.insert("netsim.world.unicast_hop_ns", world_unicast_hop());
    k.insert("netsim.world.broadcast_rx_ns", world_broadcast_rx());
    k.insert("netsim.io.harness_on_frame_ns", harness_on_frame());

    let pkt = probe_packet();
    let pkt_bytes = pkt.encode();
    k.insert("ip.ipv4.encode_ns", ns_per_op(|| drop(black_box(black_box(&pkt).encode()))));
    k.insert(
        "ip.ipv4.decode_ns",
        ns_per_op(|| {
            drop(black_box(Ipv4Packet::decode(black_box(&pkt_bytes)).expect("valid packet")))
        }),
    );
    let udp = UdpDatagram::new(4100, 7, workload::encode_probe(3, 77, PROBE_BYTES));
    let udp_bytes = udp.encode();
    k.insert("ip.udp.encode_ns", ns_per_op(|| drop(black_box(black_box(&udp).encode()))));
    k.insert(
        "ip.udp.decode_ns",
        ns_per_op(|| {
            drop(black_box(UdpDatagram::decode(black_box(&udp_bytes)).expect("valid datagram")))
        }),
    );
    k.insert(
        "ip.checksum.header_ns",
        ns_per_op(|| {
            black_box(ip::checksum::internet_checksum(black_box(&pkt_bytes[..20])));
        }),
    );

    k.insert("netstack.route.lookup_ns", route_lookup());
    k.insert("netstack.stack.forward_hop_ns", stack_forward_hop());

    // The 12-octet agent form a home agent builds: one previous source.
    let mut header = MhrpHeader::new(ip::proto::UDP, addr(7));
    header.prev_sources = vec![addr(1)];
    let header_bytes = header.encode();
    k.insert("mhrp.header.encode_ns", ns_per_op(|| drop(black_box(black_box(&header).encode()))));
    k.insert(
        "mhrp.header.decode_ns",
        ns_per_op(|| {
            drop(black_box(MhrpHeader::decode(black_box(&header_bytes)).expect("valid header")))
        }),
    );
    k.insert(
        "mhrp.tunnel.encapsulate_ns",
        ns_per_op_on(probe_packet, |mut p| {
            mhrp::tunnel::encapsulate(&mut p, addr(50), addr(100), false);
            p
        }),
    );
    let tunneled = || {
        let mut p = probe_packet().with_ttl(200);
        mhrp::tunnel::encapsulate(&mut p, addr(50), addr(100), false);
        p
    };
    k.insert(
        "mhrp.tunnel.decapsulate_ns",
        ns_per_op_on(tunneled, |mut p| {
            mhrp::tunnel::decapsulate(&mut p).expect("tunneled packet");
            p
        }),
    );
    k.insert(
        "mhrp.tunnel.retunnel_ns",
        ns_per_op_on(tunneled, |mut p| {
            mhrp::tunnel::retunnel(&mut p, addr(100), addr(101), 64).expect("retunnels");
            p
        }),
    );
    let mut cache = LocationCache::new(64);
    for i in 0..64 {
        cache.insert(addr(i), addr(1_000 + i), now);
    }
    let mut i = 0u32;
    k.insert(
        "mhrp.cache.lookup_hit_ns",
        ns_per_op(|| {
            i = (i + 1) % 64;
            black_box(cache.lookup(addr(i), now).expect("resident key"));
        }),
    );
    k.insert(
        "mhrp.cache.insert_evict_ns",
        ns_per_op(|| {
            i = (i + 1) % 256;
            cache.insert(addr(i), addr(9), now);
        }),
    );
    let config = MhrpConfig::default();
    let mut limiter =
        UpdateRateLimiter::new(config.update_min_interval, config.update_rate_entries);
    let mut t = 0u64;
    k.insert(
        "mhrp.rate_limit.allow_ns",
        ns_per_op(|| {
            t += 1;
            black_box(limiter.allow(addr((t % 256) as u32), SimTime::from_nanos(t * 1_000_000)));
        }),
    );
    let message = ControlMessage::HaRegister { mobile: addr(7), fa: addr(100), seq: 42 };
    let message_bytes = message.encode();
    k.insert(
        "mhrp.messages.encode_ns",
        ns_per_op(|| drop(black_box(black_box(&message).encode()))),
    );
    k.insert(
        "mhrp.messages.decode_ns",
        ns_per_op(|| {
            black_box(ControlMessage::decode(black_box(&message_bytes)).expect("valid message"));
        }),
    );

    let mut log = telemetry::EventLog::new();
    log.set_enabled(true);
    let mut at_nanos = 0;
    k.insert(
        "telemetry.log.record_ns",
        ns_per_op(|| {
            at_nanos += 1_000;
            log.record(telemetry::Event {
                at_nanos,
                node: Some(3),
                journey: Some(telemetry::JourneyId(at_nanos)),
                kind: telemetry::EventKind::FrameRx { iface: 0, bytes: 120 },
            });
        }),
    );
    let mut hist = telemetry::Histogram::latency_us();
    let mut v = 0u64;
    k.insert(
        "telemetry.hist.record_ns",
        ns_per_op(|| {
            v = (v + 977) % 60_000;
            hist.record(v);
        }),
    );

    let mut seq = 0u32;
    k.insert(
        "workload.traffic.probe_codec_ns",
        ns_per_op(|| {
            seq = seq.wrapping_add(1);
            let payload = workload::encode_probe(5, seq, PROBE_BYTES);
            black_box(workload::decode_probe(black_box(&payload)).expect("probe decodes"));
        }),
    );
    k.insert("workload.traffic.on_tick_ns", flow_on_tick());

    let frame = Frame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        EtherType::Ipv4,
        pkt_bytes.clone(),
    );
    let datagram_bytes = live::LiveDatagram::from_frame(0, &frame).encode();
    k.insert(
        "live.wire.encode_ns",
        ns_per_op(|| {
            drop(black_box(live::LiveDatagram::from_frame(0, black_box(&frame)).encode()))
        }),
    );
    k.insert(
        "live.wire.decode_ns",
        ns_per_op(|| {
            let d = live::LiveDatagram::decode(black_box(&datagram_bytes)).expect("valid datagram");
            black_box(d.into_frame());
        }),
    );
    k.insert("live.switchboard.destinations_ns", switchboard_destinations());
    k.insert("live.udp.loopback_hop_us", udp_loopback_hop_us());
    k.insert("tokio.mpsc.wake_us", mpsc_wake_us());
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_time_what_they_are_given() {
        let mut calls = 0u64;
        let ns = ns_per_op(|| calls += 1);
        assert!(calls > BATCHES as u64 && ns >= 0.0);
        // The input factory (zeroing 256 KiB) is not part of the timed
        // operation (reading a length).
        let ns = ns_per_op_on(|| vec![0u8; 1 << 18], |v| v.len());
        assert!(ns < 2_000.0, "set-up leaked into the timing: {ns} ns");
    }
}
