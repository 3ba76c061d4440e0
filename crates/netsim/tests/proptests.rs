//! Property-based tests of the simulator's core guarantees: determinism,
//! conservation of frames, and clock monotonicity — under randomized
//! topologies, parameters and traffic.

use netsim::time::{SimDuration, SimTime};
use netsim::{Ctx, EtherType, Frame, IfaceId, Node, SegmentParams, TimerToken, World};
use proptest::prelude::*;

/// A node that broadcasts `count` frames at `interval` and counts
/// receptions.
struct Chatter {
    count: u32,
    interval: SimDuration,
    sent: u32,
    received: u64,
}

impl Chatter {
    fn new(count: u32, interval_us: u64) -> Chatter {
        Chatter {
            count,
            interval: SimDuration::from_micros(interval_us.max(1)),
            sent: 0,
            received: 0,
        }
    }
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval, TimerToken(1));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
        if self.sent < self.count {
            self.sent += 1;
            let f = Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x7777), vec![0; 16]);
            ctx.send_frame(IfaceId(0), f);
            ctx.set_timer(self.interval, TimerToken(1));
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {
        self.received += 1;
    }
}

fn run_world(seed: u64, nodes: usize, loss: f64, jitter_us: u64, count: u32) -> (u64, u64, u64) {
    let mut w = World::new(seed);
    let seg = w.add_segment(SegmentParams {
        latency: SimDuration::from_micros(100),
        jitter: SimDuration::from_micros(jitter_us),
        loss,
        ..Default::default()
    });
    let ids: Vec<_> = (0..nodes)
        .map(|i| {
            let id = w.add_node(Chatter::new(count, 500 + i as u64));
            w.add_iface(id, Some(seg));
            id
        })
        .collect();
    w.start();
    w.run_until(SimTime::from_secs(60));
    let total_rx: u64 = ids.iter().map(|&id| w.node::<Chatter>(id).received).sum();
    (total_rx, w.stats().counter("link.frames_sent"), w.stats().counter("link.frames_dropped"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identical_seeds_are_bit_identical(seed in any::<u64>(), nodes in 2usize..6,
                                         loss in 0.0f64..0.9, jitter in 0u64..2_000,
                                         count in 1u32..20) {
        let a = run_world(seed, nodes, loss, jitter, count);
        let b = run_world(seed, nodes, loss, jitter, count);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn frames_are_conserved(seed in any::<u64>(), nodes in 2usize..6,
                            loss in 0.0f64..1.0, count in 1u32..20) {
        // Every broadcast frame is either delivered or dropped, exactly
        // once per potential receiver.
        let (rx, sent, dropped) = run_world(seed, nodes, loss, 0, count);
        let offered = sent * (nodes as u64 - 1);
        prop_assert_eq!(rx + dropped, offered, "sent={} rx={} dropped={}", sent, rx, dropped);
    }

    #[test]
    fn lossless_delivers_everything(seed in any::<u64>(), nodes in 2usize..6, count in 1u32..20) {
        let (rx, sent, dropped) = run_world(seed, nodes, 0.0, 1_000, count);
        prop_assert_eq!(dropped, 0u64);
        prop_assert_eq!(rx, sent * (nodes as u64 - 1));
        prop_assert_eq!(sent, u64::from(count) * nodes as u64);
    }
}

/// Clock monotonicity under dense same-time events.
#[test]
fn clock_never_goes_backwards() {
    struct Spammer {
        times: Vec<SimTime>,
    }
    impl Node for Spammer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for _ in 0..50 {
                ctx.set_timer(SimDuration::from_micros(10), TimerToken(0));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            self.times.push(ctx.now());
        }
        fn on_frame(&mut self, _c: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
    }
    let mut w = World::new(5);
    let id = w.add_node(Spammer { times: Vec::new() });
    w.add_iface(id, None);
    w.start();
    w.run_until(SimTime::from_secs(1));
    let times = &w.node::<Spammer>(id).times;
    assert_eq!(times.len(), 50);
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

// ---------------------------------------------------------------------
// Transmission lifecycle: one record per frame in flight, whatever
// happens to its receivers on the way.
// ---------------------------------------------------------------------

mod lifecycle {
    use super::*;
    use netsim::{AdminOp, FaultOp, MacAddr, NodeId, Payload, SegmentId, ShardedWorld};

    const SITES: usize = 4;
    const ET: EtherType = EtherType::Other(0x4c43);

    /// splitmix64: the scenario's own randomness, independent of the
    /// world's (per-shard) streams.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// `(sender, seq)` three times over, so one flipped bit cannot hide
    /// which transmission a copy came from, then filler.
    fn encode(sender: u16, seq: u16, filler: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(12 + filler);
        for _ in 0..3 {
            v.extend_from_slice(&sender.to_be_bytes());
            v.extend_from_slice(&seq.to_be_bytes());
        }
        v.extend((0..filler).map(|i| (i as u8).wrapping_mul(31) ^ seq as u8));
        v
    }

    /// Majority vote over the three header copies.
    fn decode(bytes: &[u8]) -> (u16, u16) {
        let word = |k: usize| u32::from_be_bytes(bytes[4 * k..4 * k + 4].try_into().unwrap());
        let (a, b, c) = (word(0), word(1), word(2));
        let w = (a & b) | (a & c) | (b & c);
        ((w >> 16) as u16, w as u16)
    }

    /// Sends `budget` frames on random interfaces — unicast to a random
    /// peer or broadcast — keeps a handle on every payload it sent, and
    /// records every arrival. One in eight arrivals is answered by
    /// unicast, re-using (and keeping a handle on) the payload it
    /// arrived with — corrupted or not.
    struct Talker {
        index: u16,
        mix: Mix,
        budget: u16,
        replies: u16,
        ifaces: usize,
        peers: Vec<MacAddr>,
        sent: Vec<Payload>,
        heard: Vec<(u64, usize, Vec<u8>)>,
    }

    impl Talker {
        fn arm(&mut self, ctx: &mut Ctx<'_>) {
            let gap = 40 + self.mix.below(400);
            ctx.set_timer(SimDuration::from_micros(gap), TimerToken(0));
        }
    }

    impl Node for Talker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.arm(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let iface = IfaceId(self.mix.below(self.ifaces as u64) as usize);
            let bytes = encode(self.index, self.budget, self.mix.below(30) as usize);
            let payload = Payload::from(bytes);
            self.sent.push(payload.clone());
            let dst = if self.mix.below(3) == 0 {
                self.peers[self.mix.below(self.peers.len() as u64) as usize]
            } else {
                MacAddr::BROADCAST
            };
            ctx.send_frame(iface, Frame::new(ctx.mac(iface), dst, ET, payload));
            self.arm(ctx);
        }
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, f: &Frame) {
            self.heard.push((ctx.now().as_nanos(), iface.0, f.payload.to_vec()));
            if self.replies > 0 && self.mix.below(8) == 0 {
                self.replies -= 1;
                self.sent.push(f.payload.clone());
                ctx.send_frame(iface, Frame::new(ctx.mac(iface), f.src, ET, f.payload.clone()));
            }
        }
    }

    struct Run {
        world: ShardedWorld,
        talkers: Vec<NodeId>,
    }

    /// Four sites on a shared backbone (the portal when sharded), each
    /// with a zero-jitter LAN (batched broadcasts), a jittered lossy
    /// cell (per-receiver arrivals) and a jittered corrupting cell
    /// (private copies), under a seeded plan of moves mid-flight,
    /// crashes, segment flaps and corruption switched on for a LAN.
    fn build(seed: u64, shards: usize) -> Run {
        let mut mix = Mix(seed);
        let mut w = ShardedWorld::new(seed, shards);
        let shard_of = |site: usize| site % shards;
        let all: Vec<usize> = (0..shards).collect();
        let backbone =
            w.add_portal_segment(SegmentParams::with_latency(SimDuration::from_micros(500)), &all);
        struct Site {
            lan: SegmentId,
            cell: SegmentId,
            noisy: SegmentId,
        }
        let sites: Vec<Site> = (0..SITES)
            .map(|s| Site {
                lan: w.add_segment(
                    shard_of(s),
                    SegmentParams::with_latency(SimDuration::from_micros(100)),
                ),
                cell: w.add_segment(
                    shard_of(s),
                    SegmentParams {
                        latency: SimDuration::from_micros(200),
                        jitter: SimDuration::from_millis(1),
                        loss: 0.15,
                        ..Default::default()
                    },
                ),
                noisy: w.add_segment(
                    shard_of(s),
                    SegmentParams {
                        latency: SimDuration::from_micros(150),
                        jitter: SimDuration::from_micros(300),
                        corrupt: 0.3,
                        ..Default::default()
                    },
                ),
            })
            .collect();
        // Per site: a gateway (LAN + backbone), three LAN + cell hosts,
        // three cell + noisy hosts.
        let mut plan: Vec<(usize, [SegmentId; 2])> = Vec::new();
        for (s, site) in sites.iter().enumerate() {
            plan.push((s, [site.lan, backbone]));
            for _ in 0..3 {
                plan.push((s, [site.lan, site.cell]));
            }
            for _ in 0..3 {
                plan.push((s, [site.cell, site.noisy]));
            }
        }
        // MACs come from one global counter in build order: two per node.
        let peers: Vec<MacAddr> = (0..2 * plan.len() as u64).map(MacAddr::from_index).collect();
        let mut talkers = Vec::new();
        for (i, &(site, segs)) in plan.iter().enumerate() {
            let id = w.add_node(
                shard_of(site),
                Talker {
                    index: i as u16,
                    mix: Mix(seed ^ (i as u64 + 1).wrapping_mul(0xff51_afd7_ed55_8ccd)),
                    budget: 30,
                    replies: 20,
                    ifaces: 2,
                    peers: peers.clone(),
                    sent: Vec::new(),
                    heard: Vec::new(),
                },
            );
            for seg in segs {
                w.add_iface(id, Some(seg));
            }
            talkers.push(id);
        }
        // The outside world: everything below lands while frames fly.
        let at = |mix: &mut Mix| SimTime::from_micros(200 + mix.below(9_000));
        for _ in 0..12 {
            let i = mix.below(plan.len() as u64) as usize;
            let (site, _) = plan[i];
            let node = talkers[i];
            if i.is_multiple_of(7) {
                continue; // gateways stay put: portal attachment is fixed
            }
            match mix.below(4) {
                0 => {
                    // Carried to another segment of the same site.
                    let to = [sites[site].lan, sites[site].cell, sites[site].noisy]
                        [mix.below(3) as usize];
                    let op = AdminOp::MoveIface { node, iface: IfaceId(1), segment: to };
                    w.schedule_admin(at(&mut mix), op);
                }
                1 => {
                    w.schedule_admin(
                        at(&mut mix),
                        AdminOp::DetachIface { node, iface: IfaceId(0) },
                    );
                }
                _ => {
                    let down_for = SimDuration::from_micros(300 + mix.below(2_000));
                    w.schedule_fault(at(&mut mix), FaultOp::Crash { node, down_for });
                }
            }
        }
        let flapped = sites[mix.below(SITES as u64) as usize].cell;
        let t = at(&mut mix);
        w.schedule_fault(t, FaultOp::SegmentDown { segment: flapped });
        w.schedule_fault(
            t + SimDuration::from_micros(700),
            FaultOp::SegmentUp { segment: flapped },
        );
        // A LAN that starts corrupting stops batching.
        let noisy_lan = sites[mix.below(SITES as u64) as usize].lan;
        w.schedule_fault(
            at(&mut mix),
            FaultOp::SetSegmentCorruption { segment: noisy_lan, probability: 0.2 },
        );
        Run { world: w, talkers }
    }

    /// FNV-1a over every talker's arrivals `(time, node, iface, bytes)`,
    /// node by node, each in arrival order — and how many there were.
    fn delivery_trace(run: &Run) -> (usize, u64) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut n = 0;
        for (i, &id) in run.talkers.iter().enumerate() {
            for (at, iface, bytes) in &run.world.node::<Talker>(id).heard {
                n += 1;
                eat(&at.to_be_bytes());
                eat(&(i as u32).to_be_bytes());
                eat(&(*iface as u32).to_be_bytes());
                eat(&(bytes.len() as u32).to_be_bytes());
                eat(bytes);
            }
        }
        (n, h)
    }

    /// Runs the scenario dry and checks what must hold of any run: no
    /// record and no payload reference outlives the queue, and a
    /// corrupted copy reached one receiver and nobody else.
    fn run_and_check(seed: u64, shards: usize) -> (usize, u64) {
        let mut run = build(seed, shards);
        run.world.start();
        // Mid-run there are frames in flight, and never more records
        // than queue entries.
        run.world.run_until(SimTime::from_millis(3));
        for s in 0..shards {
            let w = run.world.shard(s);
            assert!(w.transmissions_in_flight() <= w.queue_len());
        }
        assert!((0..shards).any(|s| run.world.shard(s).transmissions_in_flight() > 0));
        run.world.run_until(SimTime::from_secs(1));
        for s in 0..shards {
            let w = run.world.shard(s);
            assert_eq!(w.queue_len(), 0, "shard {s} did not drain");
            assert_eq!(w.transmissions_in_flight(), 0, "shard {s} leaked a record");
        }
        let talkers: Vec<&Talker> =
            run.talkers.iter().map(|&id| run.world.node::<Talker>(id)).collect();
        // Only the talkers' own handles (a sender's, a replier's) still
        // reference a payload: nothing in a drained world does.
        let mut handles = std::collections::HashMap::new();
        for p in talkers.iter().flat_map(|t| &t.sent) {
            *handles.entry(p.as_slice().as_ptr()).or_insert(0usize) += 1;
        }
        for p in talkers.iter().flat_map(|t| &t.sent) {
            let held = handles[&p.as_slice().as_ptr()];
            assert_eq!(p.ref_count(), held, "a drained world still references a payload");
        }
        // Every arrival is some transmission's bytes (an original or a
        // reply, which may itself carry an earlier flip) with at most one
        // bit flipped on the way.
        let mut corrupted_seen = 0u64;
        for (_, _, bytes) in talkers.iter().flat_map(|t| &t.heard) {
            let nearest = |same_header: bool| {
                talkers
                    .iter()
                    .flat_map(|t| &t.sent)
                    .filter(|p| p.len() == bytes.len())
                    .filter(|p| !same_header || decode(p) == decode(bytes))
                    .map(|p| p.iter().zip(bytes).map(|(a, b)| (a ^ b).count_ones()).sum::<u32>())
                    .min()
            };
            // The header vote finds the transmission at once, unless a
            // reply's second flip hit the same header bit as the first.
            let flipped = match nearest(true) {
                Some(d) if d <= 1 => d,
                _ => nearest(false).expect("something was sent"),
            };
            assert!(flipped <= 1, "a copy arrived with {flipped} bits flipped");
            corrupted_seen += u64::from(flipped);
        }
        // Every corruption the link counted reached at most one receiver
        // (fewer if that receiver had crashed or moved away meanwhile).
        let corrupted = run.world.counter("link.frames_corrupted");
        assert!(corrupted > 0 && corrupted_seen > 0, "the scenario exercised no corruption");
        assert!(corrupted_seen <= corrupted, "{corrupted_seen} corrupt arrivals of {corrupted}");
        for name in ["link.frames_dropped", "link.frames_lost_moved"] {
            assert!(run.world.counter(name) > 0, "the scenario exercised no {name}");
        }
        assert!(run.world.counter("fault.frames_dropped_node_down") > 0);
        if shards > 1 {
            assert!(run.world.counter("shard.ingress_frames") > 0, "nothing crossed the portal");
        }
        delivery_trace(&run)
    }

    /// `(seed, shards, arrivals, trace hash)` recorded on `main` before
    /// the slab (boxed per-receiver frame events and pooled batches): the
    /// slab changes where a frame in flight lives, not one arrival.
    const GOLDEN: [(u64, usize, usize, u64); 9] = [
        (1994, 1, 1761, 0xfa99_1566_afbe_bad2),
        (1994, 2, 1796, 0x24fc_2da3_23ad_4103),
        (1994, 4, 1760, 0xf46c_0675_c75a_19e3),
        (4242, 1, 1761, 0xf4b9_7ee9_b7e4_b0da),
        (4242, 2, 1743, 0xbf61_d0ca_31b0_4d97),
        (4242, 4, 1802, 0x2cce_ba13_4ef1_57a8),
        (7, 1, 1865, 0xf879_f631_80ee_db93),
        (7, 2, 1881, 0x1ae3_057d_5310_7c8a),
        (7, 4, 1889, 0xaa91_c6b0_82c7_396a),
    ];

    #[test]
    fn delivery_trace_matches_the_boxed_frame_events() {
        for (seed, shards, arrivals, hash) in GOLDEN {
            assert_eq!(
                run_and_check(seed, shards),
                (arrivals, hash),
                "seed {seed}, {shards} shard(s)"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any seed, any shard count: the lifecycle checks hold and the
        /// run replays bit for bit.
        #[test]
        fn records_and_payloads_never_outlive_the_queue(seed in any::<u64>(), pick in 0usize..3) {
            let shards = [1, 2, 4][pick];
            prop_assert_eq!(run_and_check(seed, shards), run_and_check(seed, shards));
        }
    }
}
