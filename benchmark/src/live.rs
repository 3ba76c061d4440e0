//! `live_fig1`: the Figure-1 fleet as real UDP endpoints on 127.0.0.1.
//!
//! Host loopback, no real link. The fleet is assembled from `live`'s
//! public parts exactly as `live::run_live` assembles it (same binding
//! order, same harness construction, telemetry on), on the stand-in
//! executor's one thread. What differs is the load and the collector:
//! three open-loop stages of 64 B probes from S, round-robin to four
//! parked mobiles, each probe timed **from its due time** to the
//! mobile's `UdpRecord.at` on the shared [`WallClock`], matched by
//! sequence number in one pass (`run_live`'s own `collect` is
//! O(probes x events)).

use std::time::Instant;

use live::scenario::{BuiltNode, CELLS};
use live::{Agent, AgentReport, Cmd, LiveIo, LoopbackScenario, Port, Role, Switchboard, WallClock};
use netsim::time::{SimDuration, SimTime};
use netsim::{Clock, IfaceId, LinkEvent, MacAddr, NodeHarness, NodeId};
use tokio::net::UdpSocket;
use tokio::sync::mpsc::{unbounded_channel, UnboundedSender};
use tokio::time::Duration;
use workload::{decode_probe, SloCheck};

use crate::spans::Tracer;
use crate::stats;

/// Mobile hosts in the fleet: two parked on cell D, two on cell E.
const MOBILES: usize = 4;
/// Wall time the fleet gets to discover agents and register before load.
const REGISTRATION_SETTLE: Duration = Duration::from_millis(1_200);
/// Idle time after a stage so its tail drains before the next starts.
const STAGE_GAP: Duration = Duration::from_millis(200);
/// A flood that delivered more than this share of what was offered did
/// not saturate the fleet, so its goodput is the offered rate, not a
/// capacity.
pub const FLOOD_MAX_DELIVERED: f64 = 0.90;

/// Most probes the generator hands S in one executor round of a stage
/// that is meant to stay below saturation. After a host stall the open
/// loop owes a backlog; released at once it overflows the next hop's
/// socket buffer (~270 datagrams), and the stage would measure the
/// kernel dropping the generator's own burst. The probes stay timed from
/// their due times, so the stall still counts.
const PACED_BURST: usize = 128;

/// Fleets brought up and discarded per repetition to steady `setup_s`.
const EXTRA_SETUPS: usize = 32;
/// Width of the slices goodput is read over.
const GOODPUT_SLICE_MS: u64 = 100;

/// One open-loop load stage.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    pub name: &'static str,
    /// Probes per second offered, whatever comes back.
    pub rate: u64,
    pub millis: u64,
    /// Most probes released per executor round.
    pub burst: usize,
}

impl Stage {
    fn probes(&self) -> usize {
        (self.rate * self.millis / 1_000) as usize
    }
}

/// `lo` is bound by executor wake-ups, `hi` by CPU per hop, `flood`
/// offers more than the fleet can carry. 5 s of stages per repetition;
/// `--quick` 2 s.
pub fn stages(quick: bool) -> [Stage; 3] {
    let ms = |full, small| if quick { small } else { full };
    [
        Stage { name: "lo", rate: 1_000, millis: ms(2_000, 800), burst: PACED_BURST },
        Stage { name: "hi", rate: 20_000, millis: ms(1_000, 400), burst: PACED_BURST },
        Stage { name: "flood", rate: 100_000, millis: ms(2_000, 800), burst: usize::MAX },
    ]
}

/// What one stage measured.
#[derive(Debug, Clone)]
pub struct StageOut {
    pub stage: Stage,
    pub offered: usize,
    /// Probes of this stage that reached their mobile, ever.
    pub delivered: usize,
    /// Of those, the ones that arrived before the stage's nominal end,
    /// by [`GOODPUT_SLICE_MS`] slice of the stage.
    pub delivered_per_slice: Vec<u32>,
    /// Due time to delivery, microseconds, ascending.
    pub latency_us: Vec<f64>,
    /// Due time to the generator handing the probe to S, ascending.
    pub gen_late_us: Vec<f64>,
}

impl StageOut {
    pub fn p50_us(&self) -> f64 {
        stats::quantile(&self.latency_us, 0.50)
    }

    /// Probes of this stage that arrived before its nominal end.
    pub fn delivered_in_stage(&self) -> usize {
        self.delivered_per_slice.iter().map(|&n| n as usize).sum()
    }

    /// Probes delivered per second of the stage: the mean over the
    /// middle half of its 100 ms slices. A saturated fleet delivers in
    /// socket-buffer-sized batches, ramps for its first few hundred
    /// milliseconds and stalls when the host does; the interquartile
    /// mean reads through all three where the plain mean moved 15 %
    /// between identical repetitions.
    pub fn goodput_pps(&self) -> f64 {
        let mut slices: Vec<f64> = self.delivered_per_slice.iter().map(|&n| f64::from(n)).collect();
        stats::sort(&mut slices);
        let middle = &slices[slices.len() / 4..slices.len() - slices.len() / 4];
        let per_slice = middle.iter().sum::<f64>() / middle.len().max(1) as f64;
        per_slice * 1_000.0 / GOODPUT_SLICE_MS as f64
    }
}

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct LiveRep {
    /// Bind + harness build + spawn + parking the mobiles; excludes the
    /// fixed registration settle.
    pub setup_s: f64,
    /// Process CPU seconds per wall second from the first stage to the
    /// end of the last.
    pub cpu_s_per_s: f64,
    pub stages: Vec<StageOut>,
    pub datagrams_sent: u64,
    pub stale_segment_drops: u64,
    pub malformed: u64,
}

impl LiveRep {
    pub fn stage(&self, name: &str) -> &StageOut {
        self.stages.iter().find(|s| s.stage.name == name).expect("stage exists")
    }

    /// Probes offered below saturation (`lo` + `hi`) and how many of
    /// them never arrived.
    pub fn ops(&self) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        for s in self.stages.iter().filter(|s| s.stage.name != "flood") {
            attempted += s.offered as u64;
            failed += (s.offered - s.delivered) as u64;
        }
        (attempted, failed)
    }

    pub fn checks(&self) -> Vec<SloCheck> {
        let ratio = |s: &StageOut| s.delivered as f64 / s.offered.max(1) as f64;
        let floor = |name: &str, measured: f64, threshold: f64| SloCheck {
            name: name.into(),
            measured,
            threshold,
            pass: measured >= threshold,
        };
        let flood = self.stage("flood");
        let flood_share = flood.delivered_in_stage() as f64 / flood.offered.max(1) as f64;
        vec![
            floor("lo_delivered_ratio", ratio(self.stage("lo")), 1.0),
            floor("hi_delivered_ratio", ratio(self.stage("hi")), 0.999),
            SloCheck {
                name: "malformed".into(),
                measured: self.malformed as f64,
                threshold: 0.0,
                pass: self.malformed == 0,
            },
            flood_check(flood_share),
        ]
    }
}

/// The flood stage is valid only if it saturated the fleet.
pub fn flood_check(delivered_share: f64) -> SloCheck {
    SloCheck {
        name: "flood_delivered_share_max".into(),
        measured: delivered_share,
        threshold: FLOOD_MAX_DELIVERED,
        pass: delivered_share <= FLOOD_MAX_DELIVERED,
    }
}

/// CPU seconds (user + system, all threads) this process has used.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, in 100 Hz ticks.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// A probe's place in the timetable, by sequence number.
struct Timetable {
    /// `due[seq]`.
    due: Vec<SimTime>,
    /// `(first seq, nominal end)` of each stage.
    bounds: Vec<(usize, SimTime)>,
}

/// Latency bookkeeping: matches deliveries to the timetable.
///
/// Pure, so the accounting is testable without sockets.
fn account(
    stages: &[Stage],
    table: &Timetable,
    gen_sent: &[SimTime],
    deliveries: impl Iterator<Item = (u32, SimTime)>,
) -> Vec<StageOut> {
    let mut out: Vec<StageOut> = stages
        .iter()
        .map(|&stage| StageOut {
            stage,
            offered: stage.probes(),
            delivered: 0,
            delivered_per_slice: vec![0; stage.millis.div_ceil(GOODPUT_SLICE_MS) as usize],
            latency_us: Vec::new(),
            gen_late_us: Vec::new(),
        })
        .collect();
    let stage_of = |seq: usize| table.bounds.iter().rposition(|&(first, _)| seq >= first);
    let micros = |from: SimTime, to: SimTime| {
        if to >= from {
            to.since(from).as_nanos() as f64 / 1e3
        } else {
            0.0
        }
    };
    for (seq, &sent) in gen_sent.iter().enumerate() {
        let s = stage_of(seq).expect("every seq is in a stage");
        out[s].gen_late_us.push(micros(table.due[seq], sent));
    }
    let mut seen = vec![false; table.due.len()];
    for (seq, at) in deliveries {
        let seq = seq as usize;
        // A sequence number outside the timetable, or a duplicate, is
        // not a delivery of anything that was offered.
        if seq >= seen.len() || std::mem::replace(&mut seen[seq], true) {
            continue;
        }
        let s = stage_of(seq).expect("every seq is in a stage");
        out[s].delivered += 1;
        let (_, end) = table.bounds[s];
        if at <= end {
            // Slices count back from the stage's end; an arrival ahead
            // of the stage's start (there is none) would fall off.
            let from_end = end.since(at).as_millis() / GOODPUT_SLICE_MS;
            if let Some(n) = out[s].delivered_per_slice.iter_mut().rev().nth(from_end as usize) {
                *n += 1;
            }
        }
        out[s].latency_us.push(micros(table.due[seq], at));
    }
    for s in &mut out {
        stats::sort(&mut s.latency_us);
        stats::sort(&mut s.gen_late_us);
    }
    out
}

/// Per-agent journey-id namespace, as `run_live` assigns it.
fn journey_base(node: NodeId) -> u64 {
    ((node.0 as u64) + 1) << 40
}

/// Sends `stage`'s probes into S's mailbox on schedule, appending each
/// probe's due time and actual hand-over time. Returns the stage's
/// nominal end.
async fn offer(
    stage: &Stage,
    clock: WallClock,
    s_tx: &UnboundedSender<Cmd>,
    sc: &LoopbackScenario,
    due: &mut Vec<SimTime>,
    gen_sent: &mut Vec<SimTime>,
) -> SimTime {
    let start = clock.now() + SimDuration::from_millis(1);
    let n = stage.probes();
    let due_of = |k: usize| start + SimDuration::from_nanos(k as u64 * 1_000_000_000 / stage.rate);
    let mut k = 0;
    while k < n {
        let now = clock.now();
        if due_of(k) > now {
            tokio::time::sleep(Duration::from_nanos(due_of(k).since(now).as_nanos())).await;
            continue;
        }
        let mut released = 0;
        while k < n && due_of(k) <= now && released < stage.burst {
            released += 1;
            let seq = due.len() as u32;
            let mobile = (sc.seed as usize + k) % MOBILES;
            let _ =
                s_tx.send(Cmd::Probe { dst: sc.mobile_addr(mobile), flow: mobile as u32 + 1, seq });
            due.push(due_of(k));
            gen_sent.push(now);
            k += 1;
        }
        if released == stage.burst {
            tokio::task::yield_now().await;
        }
    }
    start + SimDuration::from_millis(stage.millis)
}

/// A running fleet: every node's mailbox and task.
struct Fleet {
    sc: LoopbackScenario,
    clock: WallClock,
    txs: Vec<UnboundedSender<Cmd>>,
    handles: Vec<tokio::task::JoinHandle<AgentReport>>,
}

/// Binds, builds and spawns the fleet as `run_live` does, then parks the
/// mobiles on their cells. This is the whole of `live_fig1`'s set-up.
async fn bring_up(seed: u64) -> std::io::Result<Fleet> {
    let sc = LoopbackScenario { seed, ..LoopbackScenario::canonical(MOBILES) };
    let clock = WallClock::new();
    let switchboard = Switchboard::new();
    let plan = sc.iface_plan();

    // Bind and register every interface before any agent starts.
    let mut sockets: Vec<Vec<UdpSocket>> = Vec::with_capacity(plan.len());
    let mut mac_index = 0u64;
    for (i, ifaces) in plan.iter().enumerate() {
        let mut per_iface = Vec::with_capacity(ifaces.len());
        for (k, &seg) in ifaces.iter().enumerate() {
            let sock = UdpSocket::bind("127.0.0.1:0").await?;
            switchboard.register(Port {
                node: NodeId(i),
                iface: IfaceId(k),
                mac: MacAddr::from_index(mac_index),
                addr: sock.local_addr()?,
                segment: Some(seg),
            });
            per_iface.push(sock);
            mac_index += 1;
        }
        sockets.push(per_iface);
    }

    // Harnesses, mailboxes, socket readers, agents.
    let mut txs: Vec<UnboundedSender<Cmd>> = Vec::with_capacity(plan.len());
    let mut handles = Vec::with_capacity(plan.len());
    let mut mac_index = 0u64;
    for (i, ifaces) in plan.iter().enumerate() {
        let node_id = NodeId(i);
        let node_seed = sc.seed ^ i as u64;
        let (role, mut harness) = match sc.build_node(i) {
            BuiltNode::Router(r) => (Role::Router, NodeHarness::new(node_id, r, node_seed)),
            BuiltNode::Host(h) => (Role::HostS, NodeHarness::new(node_id, h, node_seed)),
            BuiltNode::Mobile(m) => {
                (Role::Mobile(i - sc.mobile_index(0)), NodeHarness::new(node_id, m, node_seed))
            }
        };
        for _ in ifaces {
            harness.add_iface(MacAddr::from_index(mac_index), true);
            mac_index += 1;
        }
        harness.set_telemetry(true);
        harness.telemetry_mut().set_journey_base(journey_base(node_id));

        let (tx, rx) = unbounded_channel();
        let mut senders = Vec::with_capacity(ifaces.len());
        for (k, sock) in sockets[i].iter().enumerate() {
            senders.push(sock.std_clone()?);
            let reader_tx = tx.clone();
            let iface = IfaceId(k);
            let sock = UdpSocket::from_std(sock.std_clone()?)?;
            tokio::task::spawn(async move {
                let mut buf = vec![0u8; 4096];
                while let Ok((len, _)) = sock.recv_from(&mut buf).await {
                    let cmd = Cmd::Datagram { iface, bytes: buf[..len].to_vec() };
                    if reader_tx.send(cmd).is_err() {
                        break;
                    }
                }
            });
        }
        let agent = Agent {
            harness,
            role,
            io: LiveIo::new(switchboard.clone(), senders),
            clock,
            rx,
            switchboard: switchboard.clone(),
        };
        txs.push(tx);
        handles.push(tokio::task::spawn(agent.run()));
    }
    drop(sockets);

    // Park the mobiles the way `run_live` moves one: half on cell D,
    // half on cell E.
    for m in 0..MOBILES {
        let node = NodeId(sc.mobile_index(m));
        let cell = CELLS[m * 2 / MOBILES];
        switchboard.set_segment(node, IfaceId(0), None);
        let _ = txs[node.0].send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Detached });
        switchboard.set_segment(node, IfaceId(0), Some(cell));
        let _ = txs[node.0].send(Cmd::Link { iface: IfaceId(0), event: LinkEvent::Attached });
    }
    Ok(Fleet { sc, clock, txs, handles })
}

/// One repetition: bring the fleet up, let it register, run the stages,
/// stop it, and account for every probe.
async fn fleet_rep(seed: u64, stages: &[Stage], tr: &mut Tracer) -> std::io::Result<LiveRep> {
    let rep_span = tr.enter("bench.rep");
    let setup_started = Instant::now();
    let setup_span = tr.enter("live.fleet.bind_spawn");
    let Fleet { sc, clock, txs, handles } = bring_up(seed).await?;
    tr.exit(setup_span);
    let setup_s = setup_started.elapsed().as_secs_f64();

    tokio::time::sleep(REGISTRATION_SETTLE).await;

    // --- The stages ---
    let s_tx = txs[sc.s_index()].clone();
    let mut table = Timetable { due: Vec::new(), bounds: Vec::new() };
    let mut gen_sent = Vec::new();
    let staged = Instant::now();
    let cpu_before = process_cpu_s();
    for (i, stage) in stages.iter().enumerate() {
        if i > 0 {
            tokio::time::sleep(STAGE_GAP).await;
        }
        let span = tr.enter("live.stage");
        let first = table.due.len();
        let end = offer(stage, clock, &s_tx, &sc, &mut table.due, &mut gen_sent).await;
        let now = clock.now();
        if end > now {
            tokio::time::sleep(Duration::from_nanos(end.since(now).as_nanos())).await;
        }
        table.bounds.push((first, end));
        tr.exit(span);
    }
    let cpu_s_per_s = (process_cpu_s() - cpu_before) / staged.elapsed().as_secs_f64();

    tokio::time::sleep(STAGE_GAP).await;
    for tx in &txs {
        let _ = tx.send(Cmd::Stop);
    }
    let mut reports: Vec<AgentReport> = Vec::with_capacity(handles.len());
    for h in handles {
        reports.push(h.await.expect("agent task does not panic"));
    }

    let collect_span = tr.enter("live.collect");
    let deliveries = reports.iter().flat_map(|r| &r.udp_rx).filter_map(|rec| {
        (rec.dst_port == live::PROBE_PORT).then_some(())?;
        decode_probe(&rec.payload).map(|(_, seq)| (seq, rec.at))
    });
    let stage_outs = account(stages, &table, &gen_sent, deliveries);
    tr.exit(collect_span);
    tr.exit(rep_span);
    Ok(LiveRep {
        setup_s,
        cpu_s_per_s,
        stages: stage_outs,
        datagrams_sent: reports.iter().map(|r| r.datagrams_sent).sum(),
        stale_segment_drops: reports.iter().map(|r| r.stale_segment_drops).sum(),
        malformed: reports.iter().map(|r| r.malformed).sum(),
    })
}

/// Runs one repetition. Every `block_on` is a fresh executor, so a
/// fleet's reader tasks and sockets die with it.
///
/// Bringing the fleet up takes half a millisecond, too short to read
/// once: each repetition also brings up and discards
/// [`EXTRA_SETUPS`] fleets and reports the median of them all.
pub fn run_rep(seed: u64, quick: bool, tr: &mut Tracer) -> LiveRep {
    let rt = tokio::runtime::Runtime::new().expect("the stand-in runtime never fails to build");
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let started = Instant::now();
            rt.block_on(bring_up(seed)).expect("loopback sockets bind and clone");
            started.elapsed().as_secs_f64()
        })
        .collect();
    let mut rep =
        rt.block_on(fleet_rep(seed, &stages(quick), tr)).expect("loopback sockets bind and clone");
    setups.push(rep.setup_s);
    rep.setup_s = stats::median(&setups);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn stage(name: &'static str, rate: u64, millis: u64) -> Stage {
        Stage { name, rate, millis, burst: usize::MAX }
    }

    /// Latency runs from the due time, not the send time; lateness is
    /// send minus due; a duplicate or foreign sequence number counts for
    /// nothing; a probe delivered after its stage's end is delivered but
    /// is not goodput of the stage.
    #[test]
    fn latency_is_from_due_time_and_lateness_is_the_generators() {
        let stages = [stage("lo", 1_000, 3), stage("flood", 10, 400)];
        // lo: seq 0..3 due at 0, 1, 2 ms; flood: seq 3..7 due every
        // 100 ms from 10 ms, so the stage ends at 410 ms.
        let table = Timetable {
            due: vec![
                at(0),
                at(1_000),
                at(2_000),
                at(10_000),
                at(110_000),
                at(210_000),
                at(310_000),
            ],
            bounds: vec![(0, at(3_000)), (3, at(410_000))],
        };
        // The generator stalled: seq 1 and 2 both left at 2.1 ms.
        let gen_sent =
            [at(10), at(2_100), at(2_100), at(10_000), at(110_100), at(210_000), at(310_000)];
        let deliveries = [
            (0, at(400)),
            (1, at(2_500)),
            (2, at(2_500)),
            (2, at(2_600)),
            (99, at(1)),
            (3, at(20_000)),
            (4, at(115_000)),
            (5, at(215_000 - 95_000)),
            (6, at(500_000)),
        ];
        let out = account(&stages, &table, &gen_sent, deliveries.into_iter());
        let lo = &out[0];
        assert_eq!((lo.offered, lo.delivered, lo.delivered_in_stage()), (3, 3, 3));
        assert_eq!(lo.latency_us, vec![400.0, 500.0, 1_500.0]);
        assert_eq!(lo.gen_late_us, vec![10.0, 100.0, 1_100.0]);
        assert_eq!(lo.p50_us(), 500.0);
        let flood = &out[1];
        assert_eq!((flood.offered, flood.delivered, flood.delivered_in_stage()), (4, 4, 3));
        assert_eq!(flood.gen_late_us, vec![0.0, 0.0, 0.0, 100.0]);
        assert_eq!(flood.latency_us, vec![0.0, 5_000.0, 10_000.0, 190_000.0]);
        // One arrival in the first 100 ms, two in the second, and the
        // middle half of [0, 0, 1, 2] averages half a probe per slice.
        assert_eq!(flood.delivered_per_slice, vec![1, 2, 0, 0]);
        assert_eq!(flood.goodput_pps(), 5.0);
    }

    #[test]
    fn a_flood_that_did_not_saturate_is_invalid() {
        assert!(flood_check(0.66).pass);
        assert!(flood_check(0.90).pass);
        assert!(!flood_check(0.93).pass);
    }

    #[test]
    fn delivery_floors_and_ops_come_from_lo_and_hi_only() {
        let out = |name, offered: usize, delivered: usize, in_stage: u32| StageOut {
            stage: stage(name, 1_000, 1_000),
            offered,
            delivered,
            delivered_per_slice: vec![in_stage],
            latency_us: Vec::new(),
            gen_late_us: Vec::new(),
        };
        let mut rep = LiveRep {
            setup_s: 0.0,
            cpu_s_per_s: 0.0,
            stages: vec![
                out("lo", 1_000, 1_000, 1_000),
                out("hi", 1_000, 1_000, 1_000),
                out("flood", 1_000, 700, 600),
            ],
            datagrams_sent: 0,
            stale_segment_drops: 0,
            malformed: 0,
        };
        assert!(rep.checks().iter().all(|c| c.pass));
        assert_eq!(rep.ops(), (2_000, 0));
        // One probe short in `lo` misses its floor; `hi` tolerates 0.1 %.
        rep.stages[0].delivered = 999;
        rep.stages[1].delivered = 999;
        let failed: Vec<String> =
            rep.checks().into_iter().filter(|c| !c.pass).map(|c| c.name).collect();
        assert_eq!(failed, ["lo_delivered_ratio"]);
        assert_eq!(rep.ops(), (2_000, 2));
        // A flood that mostly got through is flagged.
        rep.stages[2].delivered_per_slice = vec![950];
        assert!(rep.checks().iter().any(|c| c.name == "flood_delivered_share_max" && !c.pass));
    }
}
