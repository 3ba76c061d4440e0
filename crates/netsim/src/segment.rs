//! Broadcast segments: Ethernet-like shared media with latency, jitter and
//! loss.

use crate::id::{IfaceId, MacAddr, NodeId};
use crate::time::SimDuration;

/// Propagation and reliability parameters for a segment.
///
/// The defaults model a quiet wired LAN: 500 µs latency, no jitter, no loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentParams {
    /// Base one-way propagation + transmission delay for every frame.
    pub latency: SimDuration,
    /// Additional uniformly-random delay in `[0, jitter]` drawn per receiver.
    pub jitter: SimDuration,
    /// Independent per-receiver probability in `[0, 1]` that a frame is lost.
    pub loss: f64,
    /// Independent per-receiver probability in `[0, 1]` that a delivered
    /// frame has one random payload bit flipped (fault injection; see
    /// [`crate::faults::Op::SetSegmentCorruption`]). Corrupted copies
    /// still arrive — IPv4/UDP checksums make the damage visible.
    pub corrupt: f64,
}

impl Default for SegmentParams {
    fn default() -> SegmentParams {
        SegmentParams {
            latency: SimDuration::from_micros(500),
            jitter: SimDuration::ZERO,
            loss: 0.0,
            corrupt: 0.0,
        }
    }
}

impl SegmentParams {
    /// A convenience constructor for a lossless fixed-latency segment.
    pub fn with_latency(latency: SimDuration) -> SegmentParams {
        SegmentParams { latency, ..SegmentParams::default() }
    }

    /// Typical wireless cell: higher latency, jitter, and some loss.
    pub fn wireless() -> SegmentParams {
        SegmentParams {
            latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_millis(1),
            ..SegmentParams::default()
        }
    }
}

/// One interface attached to a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Attachment {
    pub node: NodeId,
    pub iface: IfaceId,
    pub mac: MacAddr,
}

/// A broadcast domain. Frames sent by one attachment are delivered to every
/// other attachment whose MAC matches (or all of them for broadcast).
#[derive(Debug)]
pub(crate) struct Segment {
    pub params: SegmentParams,
    pub up: bool,
    pub attachments: Vec<Attachment>,
}

impl Segment {
    pub fn new(params: SegmentParams) -> Segment {
        Segment { params, up: true, attachments: Vec::new() }
    }

    pub fn attach(&mut self, node: NodeId, iface: IfaceId, mac: MacAddr) {
        debug_assert!(
            !self.attachments.iter().any(|a| a.node == node && a.iface == iface),
            "interface attached twice to the same segment"
        );
        self.attachments.push(Attachment { node, iface, mac });
    }

    pub fn detach(&mut self, node: NodeId, iface: IfaceId) {
        self.attachments.retain(|a| !(a.node == node && a.iface == iface));
    }

    /// All attachments that should receive a frame sent by `(node, iface)`
    /// to `dst`.
    pub fn receivers(
        &self,
        sender_node: NodeId,
        sender_iface: IfaceId,
        dst: MacAddr,
    ) -> impl Iterator<Item = &Attachment> {
        self.attachments.iter().filter(move |a| {
            let is_sender = a.node == sender_node && a.iface == sender_iface;
            !is_sender && (dst.is_broadcast() || a.mac == dst)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg_with_three() -> Segment {
        let mut s = Segment::new(SegmentParams::default());
        s.attach(NodeId(0), IfaceId(0), MacAddr::from_index(0));
        s.attach(NodeId(1), IfaceId(0), MacAddr::from_index(1));
        s.attach(NodeId(2), IfaceId(1), MacAddr::from_index(2));
        s
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let s = seg_with_three();
        let rx: Vec<_> =
            s.receivers(NodeId(0), IfaceId(0), MacAddr::BROADCAST).map(|a| a.node).collect();
        assert_eq!(rx, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn unicast_reaches_only_matching_mac() {
        let s = seg_with_three();
        let rx: Vec<_> =
            s.receivers(NodeId(0), IfaceId(0), MacAddr::from_index(2)).map(|a| a.node).collect();
        assert_eq!(rx, vec![NodeId(2)]);
    }

    #[test]
    fn detach_removes_attachment() {
        let mut s = seg_with_three();
        s.detach(NodeId(1), IfaceId(0));
        assert_eq!(s.attachments.len(), 2);
        let rx: Vec<_> =
            s.receivers(NodeId(0), IfaceId(0), MacAddr::BROADCAST).map(|a| a.node).collect();
        assert_eq!(rx, vec![NodeId(2)]);
    }

    #[test]
    fn default_params_are_lossless() {
        let p = SegmentParams::default();
        assert_eq!(p.loss, 0.0);
        assert!(p.latency > SimDuration::ZERO);
    }
}
