//! Scripted world changes and deterministic fault injection.
//!
//! An [`Op`] is one change to the network from outside the protocols —
//! link flaps and partitions, loss, latency and corruption changes, host
//! moves, node crashes with state loss, advertisement suppression (the
//! failure modes of the paper's §5). Every op is scheduled the same way
//! ([`crate::SimWorld::schedule`]) on the world's single event queue,
//! totally ordered with frames and timers, so the same seed plus the same
//! ops reproduces a byte-identical run — every trace event, every counter.
//!
//! A [`FaultPlan`] is an ordered list of `(time, Op)` pairs installed as
//! *faults* (see [`Scheduled`]); mobility and attack plans lower to the
//! same ops and install silently.
//!
//! # Example
//!
//! ```rust
//! use netsim::faults::{FaultPlan, Op};
//! use netsim::time::{SimDuration, SimTime};
//! use netsim::SegmentId;
//!
//! let plan = FaultPlan::new()
//!     .flap(
//!         SegmentId(0),
//!         SimTime::from_secs(1),
//!         SimDuration::from_millis(500),
//!         SimDuration::from_millis(500),
//!         4,
//!     )
//!     .op(SimTime::from_secs(10), Op::SetSegmentLoss { segment: SegmentId(0), loss: 0.2 });
//! assert_eq!(plan.len(), 9);
//! ```

use std::fmt;

use crate::id::{IfaceId, NodeId, SegmentId};
use crate::shard::SimWorld;
use crate::time::{SimDuration, SimTime};
use telemetry::FaultKind;

/// One scripted world change, applied at a scheduled instant.
///
/// Every variant is a pure value (`Clone + PartialEq`), so plans can be
/// generated, compared and replayed — the foundation of the golden
/// determinism tests and the property tests over random plans.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Take a segment down (transmissions onto it are dropped,
    /// `link.tx_segment_down`) or bring it back up: one half of a link
    /// flap or partition.
    SetSegmentUp {
        /// The segment to change.
        segment: SegmentId,
        /// New state.
        up: bool,
    },
    /// Change a segment's per-receiver loss probability.
    SetSegmentLoss {
        /// The segment to change.
        segment: SegmentId,
        /// New loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Set a segment's base latency outright.
    SetSegmentLatency {
        /// The segment to change.
        segment: SegmentId,
        /// The new base one-way latency.
        latency: SimDuration,
    },
    /// Add `extra` to a segment's latency for `duration`, then restore the
    /// previous value (a congestion spike). The restore is scheduled on
    /// the event queue when the spike is applied.
    LatencySpike {
        /// The segment to slow down.
        segment: SegmentId,
        /// Additional latency during the spike.
        extra: SimDuration,
        /// How long the spike lasts.
        duration: SimDuration,
    },
    /// Set a segment's per-receiver payload-corruption probability. Each
    /// affected frame copy gets exactly one random bit flipped
    /// (`link.frames_corrupted`), which IPv4/UDP checksums make visible
    /// at the receiver. `0.0` disables corruption again.
    SetSegmentCorruption {
        /// The segment to corrupt.
        segment: SegmentId,
        /// Corruption probability in `[0, 1]`.
        probability: f64,
    },
    /// Detach an interface from its segment (cable pulled / host carried
    /// out of range).
    DetachIface {
        /// The node owning the interface.
        node: NodeId,
        /// The interface to detach.
        iface: IfaceId,
    },
    /// Attach an interface to a segment, detaching it first if it is
    /// elsewhere (host movement, cable restored).
    AttachIface {
        /// The node owning the interface.
        node: NodeId,
        /// The interface to attach.
        iface: IfaceId,
        /// The segment to attach to.
        segment: SegmentId,
    },
    /// Crash a node for `down_for`: while down it receives no frames and
    /// no timers (its pending timers are consumed and dropped — volatile
    /// state is lost), then [`crate::Node::on_reboot`] fires and the node
    /// must rebuild from whatever it considers stable storage.
    Crash {
        /// The node to crash.
        node: NodeId,
        /// Length of the outage before the automatic reboot.
        down_for: SimDuration,
    },
    /// Reboot a node immediately (fires [`crate::Node::on_reboot`]; also
    /// ends a [`Op::Crash`] outage early).
    Reboot {
        /// The node to reboot.
        node: NodeId,
    },
    /// Drop every *broadcast* frame transmitted by `(node, iface)` —
    /// agent advertisements, ARP requests, recovery queries — while
    /// leaving unicast traffic untouched (a jammed beacon channel), or
    /// stop doing so.
    SetBroadcastsMuted {
        /// The node owning the interface.
        node: NodeId,
        /// The interface to mute or restore.
        iface: IfaceId,
        /// New state.
        muted: bool,
    },
}

impl Op {
    /// This op scheduled as a fault: it counts in `fault.ops_applied` and
    /// records a telemetry `Fault` event when it applies.
    pub fn fault(self) -> Scheduled {
        Scheduled { op: self, fault: true }
    }

    /// The telemetry class of this op when it applies as a fault.
    pub(crate) fn fault_kind(&self) -> FaultKind {
        match self {
            Op::SetSegmentUp { up: false, .. } => FaultKind::SegmentDown,
            Op::SetSegmentUp { up: true, .. } => FaultKind::SegmentUp,
            Op::SetSegmentLoss { .. } => FaultKind::Loss,
            Op::SetSegmentLatency { .. } | Op::LatencySpike { .. } => FaultKind::Latency,
            Op::SetSegmentCorruption { .. } => FaultKind::Corruption,
            Op::DetachIface { .. } => FaultKind::Detach,
            Op::AttachIface { .. } => FaultKind::Attach,
            Op::Crash { .. } => FaultKind::Crash,
            Op::Reboot { .. } => FaultKind::Reboot,
            Op::SetBroadcastsMuted { muted: true, .. } => FaultKind::Mute,
            Op::SetBroadcastsMuted { muted: false, .. } => FaultKind::Unmute,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::SetSegmentUp { segment, up } => {
                write!(f, "segment-{} {segment}", if *up { "up" } else { "down" })
            }
            Op::SetSegmentLoss { segment, loss } => write!(f, "set-loss {segment} {loss}"),
            Op::SetSegmentLatency { segment, latency } => {
                write!(f, "set-latency {segment} {}us", latency.as_micros())
            }
            Op::LatencySpike { segment, extra, duration } => {
                write!(
                    f,
                    "latency-spike {segment} +{}us for {}us",
                    extra.as_micros(),
                    duration.as_micros()
                )
            }
            Op::SetSegmentCorruption { segment, probability } => {
                write!(f, "set-corruption {segment} {probability}")
            }
            Op::DetachIface { node, iface } => write!(f, "detach {node} {iface}"),
            Op::AttachIface { node, iface, segment } => {
                write!(f, "attach {node} {iface} {segment}")
            }
            Op::Crash { node, down_for } => {
                write!(f, "crash {node} for {}us", down_for.as_micros())
            }
            Op::Reboot { node } => write!(f, "reboot {node}"),
            Op::SetBroadcastsMuted { node, iface, muted } => {
                write!(f, "{}mute-bcast {node} {iface}", if *muted { "" } else { "un" })
            }
        }
    }
}

/// An [`Op`] as it sits on the event queue. A `fault` entry counts in
/// `fault.ops_applied` and records a telemetry `Fault` event when it
/// applies, as do the spike restore and crash reboot it schedules itself;
/// any other entry (host moves, attack moves, portal mirrors) is silent.
/// A plain [`Op`] converts into a silent entry, [`Op::fault`] into a
/// fault entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// The change to apply.
    pub op: Op,
    /// Whether the change is accounted as an injected fault.
    pub fault: bool,
}

impl From<Op> for Scheduled {
    fn from(op: Op) -> Scheduled {
        Scheduled { op, fault: false }
    }
}

/// An ordered schedule of timed [`Op`]s, installed as faults.
///
/// Built with the chainable constructors below, then handed to
/// [`FaultPlan::install`], which pushes every entry onto the event queue.
/// Entries do not need to be added in time order; the queue orders them.
/// Installing the same plan into two worlds built with the same seed
/// yields byte-identical runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    ops: Vec<(SimTime, Op)>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one operation at an absolute time.
    pub fn op(mut self, at: SimTime, op: Op) -> FaultPlan {
        self.ops.push((at, op));
        self
    }

    /// Adds a link flap: `cycles` repetitions of (down at `first_down +
    /// k*(down_for+up_for)`, up again `down_for` later). The final cycle
    /// also comes back up, so the plan leaves the segment up.
    pub fn flap(
        mut self,
        segment: SegmentId,
        first_down: SimTime,
        down_for: SimDuration,
        up_for: SimDuration,
        cycles: u32,
    ) -> FaultPlan {
        let mut at = first_down;
        for _ in 0..cycles {
            self.ops.push((at, Op::SetSegmentUp { segment, up: false }));
            self.ops.push((at + down_for, Op::SetSegmentUp { segment, up: true }));
            at = at + down_for + up_for;
        }
        self
    }

    /// Adds a partition window: the segment goes down at `from` and heals
    /// at `heal_at`.
    pub fn partition(mut self, segment: SegmentId, from: SimTime, heal_at: SimTime) -> FaultPlan {
        assert!(heal_at > from, "partition must heal after it starts");
        self.ops.push((from, Op::SetSegmentUp { segment, up: false }));
        self.ops.push((heal_at, Op::SetSegmentUp { segment, up: true }));
        self
    }

    /// Adds a crash-with-reboot: the node goes dark at `at` and reboots
    /// `down_for` later.
    pub fn crash(mut self, node: NodeId, at: SimTime, down_for: SimDuration) -> FaultPlan {
        self.ops.push((at, Op::Crash { node, down_for }));
        self
    }

    /// Adds a broadcast-suppression window on `(node, iface)` from `from`
    /// to `until`.
    pub fn mute_window(
        mut self,
        node: NodeId,
        iface: IfaceId,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        assert!(until > from, "mute window must end after it starts");
        self.ops.push((from, Op::SetBroadcastsMuted { node, iface, muted: true }));
        self.ops.push((until, Op::SetBroadcastsMuted { node, iface, muted: false }));
        self
    }

    /// The scheduled operations, in insertion order.
    pub fn ops(&self) -> &[(SimTime, Op)] {
        &self.ops
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The time of the latest scheduled operation (accounting for crash
    /// reboots that fire `down_for` after their crash), or
    /// [`SimTime::ZERO`] for an empty plan. Useful for "run until the plan
    /// has fully played out" loops.
    pub fn end(&self) -> SimTime {
        self.ops
            .iter()
            .map(|(at, op)| match op {
                Op::Crash { down_for, .. } => *at + *down_for,
                Op::LatencySpike { duration, .. } => *at + *duration,
                _ => *at,
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Schedules every entry onto `world` as a fault.
    ///
    /// # Panics
    ///
    /// Panics if an entry lies before the current time, or if a sharded
    /// world refuses it (see [`crate::ShardedWorld::schedule`]).
    pub fn install<W: SimWorld>(&self, world: &mut W) {
        for (at, op) in &self.ops {
            world.schedule(*at, op.clone().fault());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_emits_paired_ops_and_ends_up() {
        let plan = FaultPlan::new().flap(
            SegmentId(2),
            SimTime::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_millis(300),
            3,
        );
        assert_eq!(plan.len(), 6);
        let ops = plan.ops();
        let seg = SegmentId(2);
        assert_eq!(ops[0], (SimTime::from_secs(1), Op::SetSegmentUp { segment: seg, up: false }));
        assert_eq!(
            ops[1],
            (SimTime::from_millis(1200), Op::SetSegmentUp { segment: seg, up: true })
        );
        // Last op restores the segment.
        assert!(matches!(ops[5].1, Op::SetSegmentUp { up: true, .. }));
        assert_eq!(plan.end(), SimTime::from_millis(2200));
    }

    #[test]
    fn end_accounts_for_crash_outage_and_spike_duration() {
        let plan =
            FaultPlan::new().crash(NodeId(1), SimTime::from_secs(5), SimDuration::from_secs(3)).op(
                SimTime::from_secs(6),
                Op::LatencySpike {
                    segment: SegmentId(0),
                    extra: SimDuration::from_millis(50),
                    duration: SimDuration::from_secs(4),
                },
            );
        assert_eq!(plan.end(), SimTime::from_secs(10));
    }

    #[test]
    fn plans_are_comparable_values() {
        let a =
            FaultPlan::new().partition(SegmentId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        let b =
            FaultPlan::new().partition(SegmentId(0), SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = b.clone().op(SimTime::from_secs(3), Op::Reboot { node: NodeId(0) });
        assert_ne!(a, c);
    }

    #[test]
    fn display_is_compact() {
        let op = Op::Crash { node: NodeId(3), down_for: SimDuration::from_secs(2) };
        assert_eq!(op.to_string(), "crash n3 for 2000000us");
    }
}
