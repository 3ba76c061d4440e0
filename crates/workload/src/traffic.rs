//! Open- and closed-loop traffic generators.
//!
//! A [`Flow`] is a deterministic, seeded source of probe packets toward
//! one mobile host. The soak driver ([`crate::soak`]) polls it every
//! tick: the flow decides what to emit ([`Flow::on_tick`]) and the
//! driver reports what came back ([`Flow::on_delivered`] for the forward
//! leg at the mobile, [`Flow::on_response`] for echo responses at the
//! client). Every probe payload carries `(flow, seq)` in its first
//! [`PROBE_HEADER`] bytes so arrivals match sends exactly, even across
//! reordering — no index pairing, no heuristics.
//!
//! Open-loop patterns ([`Pattern::Poisson`], [`Pattern::OnOff`],
//! [`Pattern::Cbr`]) offer load regardless of what the network delivers:
//! they measure delivery ratio and one-way latency under handoffs.
//! The closed-loop pattern ([`Pattern::ClosedLoop`]) models a
//! request/response client: at most `window` requests outstanding,
//! per-request deadlines, and bounded retries — it measures completion
//! and RTT the way an interactive application would experience the
//! paper's tunneling detours. Sends issued through the MHRP host nodes
//! are journey-tagged through telemetry like any other originated
//! packet, so `World::journey` reconstructs a probe's path.

use netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use telemetry::Histogram;

/// Bytes of probe header at the front of every payload: flow id and
/// sequence number, both big-endian `u32`s.
pub const PROBE_HEADER: usize = 8;

/// Encodes a probe payload of `len` bytes (forced up to
/// [`PROBE_HEADER`]) carrying `(flow, seq)`.
pub fn encode_probe(flow: u32, seq: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len.max(PROBE_HEADER)];
    v[..4].copy_from_slice(&flow.to_be_bytes());
    v[4..8].copy_from_slice(&seq.to_be_bytes());
    v
}

/// Decodes `(flow, seq)` from a probe payload, if it is long enough.
pub fn decode_probe(payload: &[u8]) -> Option<(u32, u32)> {
    if payload.len() < PROBE_HEADER {
        return None;
    }
    let flow = u32::from_be_bytes(payload[..4].try_into().ok()?);
    let seq = u32::from_be_bytes(payload[4..8].try_into().ok()?);
    Some((flow, seq))
}

/// The shape of one flow's offered load.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Open-loop Poisson arrivals at `per_sec` packets per second
    /// (exponential gaps, quantized to the driver tick).
    Poisson {
        /// Mean send rate in packets per second.
        per_sec: f64,
    },
    /// Open-loop on-off: constant spacing `interval` during each `on`
    /// burst, silence during each `off` gap, repeating.
    OnOff {
        /// Length of each sending burst.
        on: SimDuration,
        /// Length of each silent gap.
        off: SimDuration,
        /// Packet spacing inside a burst.
        interval: SimDuration,
    },
    /// Open-loop constant bit rate at fixed `interval` spacing.
    Cbr {
        /// Packet spacing.
        interval: SimDuration,
    },
    /// Closed-loop request/response: at most `window` requests
    /// outstanding; a request whose response misses `deadline` is
    /// retransmitted up to `retries` times, then abandoned.
    ClosedLoop {
        /// In-flight window (outstanding requests), ≥ 1.
        window: usize,
        /// Per-request response deadline.
        deadline: SimDuration,
        /// Retransmissions allowed per request before giving up.
        retries: u32,
    },
}

impl Pattern {
    /// Whether responses are expected (probes go to the UDP echo port).
    pub fn is_closed_loop(&self) -> bool {
        matches!(self, Pattern::ClosedLoop { .. })
    }

    /// A short human description for report tables.
    pub fn describe(&self, bytes: usize) -> String {
        match self {
            Pattern::Poisson { per_sec } => format!("poisson {per_sec}/s {bytes}B"),
            Pattern::OnOff { on, off, interval } => format!(
                "on-off {}ms/{}ms @{}ms {bytes}B",
                on.as_micros() / 1000,
                off.as_micros() / 1000,
                interval.as_micros() / 1000
            ),
            Pattern::Cbr { interval } => {
                format!("cbr @{}ms {bytes}B", interval.as_micros() / 1000)
            }
            Pattern::ClosedLoop { window, deadline, retries } => format!(
                "closed-loop w={window} d={}ms r={retries} {bytes}B",
                deadline.as_micros() / 1000
            ),
        }
    }
}

/// Configuration of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowCfg {
    /// Send pattern.
    pub pattern: Pattern,
    /// Payload length in bytes (forced up to [`PROBE_HEADER`]).
    pub bytes: usize,
    /// Deterministic seed for the flow's own variates.
    pub seed: u64,
    /// Stop after offering this many distinct packets/requests
    /// (`None` = until the soak ends).
    pub limit: Option<u64>,
}

/// Counters a flow accumulates (plain values, compared in goldens).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Distinct packets (open loop) or requests (closed loop) offered.
    pub offered: u64,
    /// Transmissions put on the wire, retries included.
    pub sent: u64,
    /// Forward-leg arrivals at the mobile host.
    pub delivered: u64,
    /// Closed-loop requests completed by an in-deadline response.
    pub completed: u64,
    /// Closed-loop retransmissions issued.
    pub retries: u64,
    /// Closed-loop requests abandoned after the retry budget.
    pub failed: u64,
}

/// One probe the flow asks the driver to transmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSend {
    /// Sequence number to embed (see [`encode_probe`]).
    pub seq: u32,
    /// Payload length in bytes.
    pub bytes: usize,
}

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    req: u64,
    deadline_at: SimTime,
    retries_left: u32,
}

/// One deterministic traffic source toward one destination.
///
/// Drive it with [`Flow::on_tick`] / [`Flow::on_delivered`] /
/// [`Flow::on_response`]; read results from [`Flow::stats`],
/// [`Flow::latency_us`] (one-way forward leg) and [`Flow::rtt_us`]
/// (closed-loop round trips).
#[derive(Debug)]
pub struct Flow {
    /// Flow id embedded in every probe.
    pub id: u32,
    /// The configuration the flow was built from.
    pub cfg: FlowCfg,
    /// Accumulated counters.
    pub stats: FlowStats,
    /// One-way delivery latency of forward-leg arrivals, microseconds.
    pub latency_us: Histogram,
    /// Round-trip time of completed closed-loop requests, microseconds.
    pub rtt_us: Histogram,
    rng: StdRng,
    started: Option<SimTime>,
    next_at: Option<SimTime>,
    pending: Vec<PendingReq>,
    /// Send time of every probe, indexed by its `seq` (sequence numbers
    /// are handed out densely from 0).
    sent_at: Vec<SimTime>,
    /// The request each probe of a closed-loop flow carries, indexed by
    /// `seq`; stays empty on open-loop flows.
    seq_req: Vec<u64>,
    next_req: u64,
}

impl Flow {
    /// Creates a flow; nothing is offered until the first
    /// [`Flow::on_tick`].
    pub fn new(id: u32, cfg: FlowCfg) -> Flow {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Flow {
            id,
            cfg,
            stats: FlowStats::default(),
            latency_us: Histogram::latency_us(),
            rtt_us: Histogram::latency_us(),
            rng,
            started: None,
            next_at: None,
            pending: Vec::new(),
            sent_at: Vec::new(),
            seq_req: Vec::new(),
            next_req: 0,
        }
    }

    /// Outstanding closed-loop requests (always ≤ the window;
    /// property-tested). 0 for open-loop flows.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// When `seq` was put on the wire, if this flow sent it.
    pub fn sent_time(&self, seq: u32) -> Option<SimTime> {
        self.sent_at.get(seq as usize).copied()
    }

    /// Whether the flow has offered everything its `limit` allows and
    /// (for closed loops) has nothing outstanding.
    pub fn done(&self) -> bool {
        self.limit_reached() && self.pending.is_empty()
    }

    fn limit_reached(&self) -> bool {
        self.cfg.limit.is_some_and(|l| self.stats.offered >= l)
    }

    /// Advances the flow to `now`, appending everything it wants
    /// transmitted to `out`. Deterministic: depends only on the tick
    /// times and the delivery/response callbacks so far.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<ProbeSend>) {
        let started = *self.started.get_or_insert(now);
        match self.cfg.pattern.clone() {
            Pattern::Poisson { per_sec } => {
                let mut at = self.next_at.unwrap_or(now);
                while at <= now && !self.limit_reached() {
                    self.emit_open(now, out);
                    at += exp_gap(&mut self.rng, per_sec);
                }
                self.next_at = Some(at);
            }
            Pattern::Cbr { interval } => {
                let mut at = self.next_at.unwrap_or(now);
                while at <= now && !self.limit_reached() {
                    self.emit_open(now, out);
                    at += interval;
                }
                self.next_at = Some(at);
            }
            Pattern::OnOff { on, off, interval } => {
                let cycle = (on + off).as_micros().max(1);
                let mut at = self.next_at.unwrap_or(now);
                while at <= now && !self.limit_reached() {
                    let phase = at.since(started).as_micros() % cycle;
                    if phase < on.as_micros() {
                        self.emit_open(now, out);
                        at += interval;
                    } else {
                        // Jump to the start of the next burst.
                        let rest = cycle - phase;
                        at += SimDuration::from_micros(rest);
                    }
                }
                self.next_at = Some(at);
            }
            Pattern::ClosedLoop { window, deadline, retries } => {
                assert!(window >= 1, "closed-loop window must be >= 1");
                // Expire overdue requests: retransmit or abandon.
                let overdue: Vec<usize> = self
                    .pending
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.deadline_at <= now)
                    .map(|(i, _)| i)
                    .collect();
                for &i in overdue.iter().rev() {
                    let p = self.pending[i];
                    if p.retries_left > 0 {
                        let seq = self.fresh_req_seq(now, p.req);
                        self.pending[i] = PendingReq {
                            req: p.req,
                            deadline_at: now + deadline,
                            retries_left: p.retries_left - 1,
                        };
                        self.stats.retries += 1;
                        self.stats.sent += 1;
                        out.push(ProbeSend { seq, bytes: self.cfg.bytes });
                    } else {
                        self.pending.remove(i);
                        self.stats.failed += 1;
                    }
                }
                // Fill the window with fresh requests.
                while self.pending.len() < window && !self.limit_reached() {
                    let req = self.next_req;
                    self.next_req += 1;
                    let seq = self.fresh_req_seq(now, req);
                    self.pending.push(PendingReq {
                        req,
                        deadline_at: now + deadline,
                        retries_left: retries,
                    });
                    self.stats.offered += 1;
                    self.stats.sent += 1;
                    out.push(ProbeSend { seq, bytes: self.cfg.bytes });
                }
            }
        }
    }

    /// Records a forward-leg arrival of `seq` at the mobile host.
    pub fn on_delivered(&mut self, seq: u32, at: SimTime) {
        if let Some(sent) = self.sent_time(seq) {
            self.stats.delivered += 1;
            self.latency_us.record(at.since(sent).as_micros());
        }
    }

    /// Records a response to `seq` arriving back at the client. Only the
    /// first response to a still-pending request completes it; anything
    /// else (duplicate, response to an abandoned request) is ignored.
    pub fn on_response(&mut self, seq: u32, at: SimTime) {
        let Some(&req) = self.seq_req.get(seq as usize) else { return };
        let Some(i) = self.pending.iter().position(|p| p.req == req) else { return };
        self.pending.remove(i);
        self.stats.completed += 1;
        if let Some(sent) = self.sent_time(seq) {
            self.rtt_us.record(at.since(sent).as_micros());
        }
    }

    fn emit_open(&mut self, now: SimTime, out: &mut Vec<ProbeSend>) {
        let seq = self.fresh_seq(now);
        self.stats.offered += 1;
        self.stats.sent += 1;
        out.push(ProbeSend { seq, bytes: self.cfg.bytes });
    }

    /// A fresh sequence number for a probe carrying closed-loop request
    /// `req`. Every probe of a closed-loop flow comes through here, which
    /// is what keeps `seq_req` indexed by `seq`.
    fn fresh_req_seq(&mut self, now: SimTime, req: u64) -> u32 {
        let seq = self.fresh_seq(now);
        debug_assert_eq!(self.seq_req.len(), seq as usize);
        self.seq_req.push(req);
        seq
    }

    fn fresh_seq(&mut self, now: SimTime) -> u32 {
        let seq = self.sent_at.len() as u32;
        self.sent_at.push(now);
        seq
    }
}

/// Exponential inter-arrival gap for a Poisson process of rate
/// `per_sec`, floored at 1 µs so the process always advances.
fn exp_gap(rng: &mut StdRng, per_sec: f64) -> SimDuration {
    assert!(per_sec > 0.0, "poisson rate must be positive");
    let u: f64 = rng.random();
    let secs = -(1.0 - u).ln() / per_sec;
    SimDuration::from_micros(((secs * 1e6) as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick_all(flow: &mut Flow, ticks: u64, step: SimDuration) -> Vec<(SimTime, u32)> {
        let mut sends = Vec::new();
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..ticks {
            out.clear();
            flow.on_tick(now, &mut out);
            for s in &out {
                sends.push((now, s.seq));
            }
            now += step;
        }
        sends
    }

    #[test]
    fn probe_codec_round_trips() {
        let p = encode_probe(7, 4242, 64);
        assert_eq!(p.len(), 64);
        assert_eq!(decode_probe(&p), Some((7, 4242)));
        assert_eq!(decode_probe(&[1, 2, 3]), None);
        // Tiny requested sizes still fit the header.
        assert_eq!(encode_probe(1, 2, 0).len(), PROBE_HEADER);
    }

    #[test]
    fn cbr_sends_one_per_interval() {
        let mut f = Flow::new(
            0,
            FlowCfg {
                pattern: Pattern::Cbr { interval: SimDuration::from_millis(100) },
                bytes: 64,
                seed: 1,
                limit: Some(5),
            },
        );
        let sends = tick_all(&mut f, 10, SimDuration::from_millis(100));
        assert_eq!(sends.len(), 5);
        assert_eq!(f.stats.offered, 5);
        assert!(f.done());
        // One send exactly per tick until the limit.
        for (i, (at, seq)) in sends.iter().enumerate() {
            assert_eq!(*seq, i as u32);
            assert_eq!(*at, SimTime::ZERO + SimDuration::from_millis(100) * (i as u64));
        }
    }

    #[test]
    fn poisson_is_deterministic_and_roughly_calibrated() {
        let cfg = FlowCfg {
            pattern: Pattern::Poisson { per_sec: 50.0 },
            bytes: 32,
            seed: 9,
            limit: None,
        };
        let mut a = Flow::new(0, cfg.clone());
        let mut b = Flow::new(0, cfg);
        let sa = tick_all(&mut a, 200, SimDuration::from_millis(50)); // 10 s
        let sb = tick_all(&mut b, 200, SimDuration::from_millis(50));
        assert_eq!(sa, sb);
        // 50/s over 10 s ≈ 500; allow generous slack.
        assert!((300..700).contains(&sa.len()), "got {}", sa.len());
    }

    #[test]
    fn onoff_is_silent_during_gaps() {
        let mut f = Flow::new(
            0,
            FlowCfg {
                pattern: Pattern::OnOff {
                    on: SimDuration::from_millis(200),
                    off: SimDuration::from_millis(300),
                    interval: SimDuration::from_millis(50),
                },
                bytes: 16,
                seed: 2,
                limit: None,
            },
        );
        let sends = tick_all(&mut f, 100, SimDuration::from_millis(10)); // 1 s
        for (at, _) in &sends {
            let phase = at.since(SimTime::ZERO).as_micros() % 500_000;
            assert!(phase < 200_000, "send at off-phase {phase}");
        }
        // Two full cycles: 2 bursts × 4 sends (0,50,100,150 ms).
        assert_eq!(sends.len(), 8);
    }

    #[test]
    fn closed_loop_honors_window_and_retries() {
        let mut f = Flow::new(
            0,
            FlowCfg {
                pattern: Pattern::ClosedLoop {
                    window: 2,
                    deadline: SimDuration::from_millis(100),
                    retries: 1,
                },
                bytes: 32,
                seed: 3,
                limit: Some(4),
            },
        );
        let mut out = Vec::new();
        let t0 = SimTime::ZERO;
        f.on_tick(t0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(f.in_flight(), 2);
        // Respond to the first request only.
        f.on_response(out[0].seq, t0 + SimDuration::from_millis(10));
        assert_eq!(f.in_flight(), 1);
        assert_eq!(f.stats.completed, 1);
        // Next tick refills the window to 2.
        out.clear();
        f.on_tick(t0 + SimDuration::from_millis(20), &mut out);
        assert_eq!(f.in_flight(), 2);
        // Let both deadlines lapse: each retries once...
        out.clear();
        f.on_tick(t0 + SimDuration::from_millis(200), &mut out);
        assert_eq!(f.stats.retries, 2);
        assert!(f.in_flight() <= 2);
        // ...and after the retry deadline lapses unanswered, both fail
        // and the last offered request enters the window.
        out.clear();
        f.on_tick(t0 + SimDuration::from_millis(400), &mut out);
        assert_eq!(f.stats.failed, 2);
        assert_eq!(f.stats.offered, 4);
        // Duplicate/late responses are ignored.
        let before = f.stats.completed;
        f.on_response(1, t0 + SimDuration::from_millis(450));
        assert_eq!(f.stats.completed, before);
    }

    #[test]
    fn forward_latency_is_recorded_by_seq() {
        let mut f = Flow::new(
            0,
            FlowCfg {
                pattern: Pattern::Cbr { interval: SimDuration::from_millis(10) },
                bytes: 64,
                seed: 4,
                limit: Some(3),
            },
        );
        let mut out = Vec::new();
        f.on_tick(SimTime::ZERO, &mut out);
        f.on_delivered(out[0].seq, SimTime::ZERO + SimDuration::from_micros(700));
        assert_eq!(f.stats.delivered, 1);
        assert_eq!(f.latency_us.count(), 1);
        assert_eq!(f.latency_us.max(), 700);
        // Unknown seq is ignored.
        f.on_delivered(999, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(f.stats.delivered, 1);
        assert_eq!(f.sent_time(out[0].seq), Some(SimTime::ZERO));
        assert_eq!(f.sent_time(999), None);
        // An open-loop flow has no requests to answer.
        f.on_response(out[0].seq, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(f.stats.completed, 0);
    }

    #[test]
    fn describe_is_compact() {
        let p = Pattern::Cbr { interval: SimDuration::from_millis(100) };
        assert_eq!(p.describe(64), "cbr @100ms 64B");
        assert!(!p.is_closed_loop());
        let c =
            Pattern::ClosedLoop { window: 4, deadline: SimDuration::from_millis(250), retries: 2 };
        assert!(c.is_closed_loop());
        assert_eq!(c.describe(32), "closed-loop w=4 d=250ms r=2 32B");
    }
}
