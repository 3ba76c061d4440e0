//! Property tests for [`netsim::Payload`] sharing: broadcast fan-out
//! clones frames by bumping a refcount, so the test obligation is that a
//! receiver can never observe bytes changed by anything another receiver
//! (or the sender) did afterwards.

use netsim::time::{SimDuration, SimTime};
use netsim::{Ctx, EtherType, Frame, IfaceId, Node, Payload, SegmentParams, TimerToken, World};
use proptest::prelude::*;

proptest! {
    /// Clones of a payload stay byte-identical to the original no matter
    /// what is done with other handles: dropping some, re-wrapping
    /// others, or building new payloads from mutated copies of the bytes.
    #[test]
    fn clones_are_immune_to_other_handles(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        clones in 1usize..16,
        flip in any::<prop::sample::Index>(),
    ) {
        let original = Payload::from(bytes.clone());
        let mut handles: Vec<Payload> = (0..clones).map(|_| original.clone()).collect();

        // A "mutation" in the shared-payload world: copy out, change the
        // copy, wrap it as a *new* payload. The old handles must not see it.
        let mut copy = original.to_vec();
        if !copy.is_empty() {
            let i = flip.index(copy.len());
            copy[i] = copy[i].wrapping_add(1);
        }
        let mutated = Payload::from(copy.clone());

        // Drop half the handles; the survivors still read the original bytes.
        handles.truncate(clones.div_ceil(2));
        for h in &handles {
            prop_assert_eq!(h.as_slice(), &bytes[..]);
        }
        prop_assert_eq!(original.as_slice(), &bytes[..]);
        if !bytes.is_empty() {
            prop_assert_ne!(mutated.as_slice(), &bytes[..]);
        }
    }

    /// Every receiver of a broadcast sees exactly the bytes that were
    /// sent, and all receivers share one allocation (refcount clones).
    #[test]
    fn broadcast_receivers_see_identical_unshared_views(
        bytes in prop::collection::vec(any::<u8>(), 1..128),
        receivers in 2usize..8,
    ) {
        struct Sender { bytes: Vec<u8> }
        impl Node for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
                let f = Frame::broadcast(
                    ctx.mac(IfaceId(0)),
                    EtherType::Other(0x5a5a),
                    self.bytes.clone(),
                );
                ctx.send_frame(IfaceId(0), f);
            }
            fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
        }
        struct Receiver { seen: Vec<Vec<u8>>, ptrs: Vec<usize> }
        impl Node for Receiver {
            fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, f: &Frame) {
                self.seen.push(f.payload.to_vec());
                self.ptrs.push(f.payload.as_slice().as_ptr() as usize);
            }
        }

        let mut w = World::new(11);
        let seg = w.add_segment(SegmentParams::default());
        let s = w.add_node(Sender { bytes: bytes.clone() });
        w.add_iface(s, Some(seg));
        let rx: Vec<_> = (0..receivers)
            .map(|_| {
                let id = w.add_node(Receiver { seen: Vec::new(), ptrs: Vec::new() });
                w.add_iface(id, Some(seg));
                id
            })
            .collect();
        w.start();
        w.run_until(SimTime::from_millis(10));

        let mut ptrs = Vec::new();
        for &id in &rx {
            let r = w.node::<Receiver>(id);
            prop_assert_eq!(r.seen.len(), 1);
            prop_assert_eq!(&r.seen[0], &bytes);
            ptrs.push(r.ptrs[0]);
        }
        // All receivers read the same underlying allocation.
        for &p in &ptrs[1..] {
            prop_assert_eq!(p, ptrs[0]);
        }
    }

    /// A frame in flight holds its payload once, however many receivers
    /// are still to hear it — jittered (one queue entry each) or not
    /// (one batch entry) — and lets go of it with the last arrival.
    #[test]
    fn a_broadcast_in_flight_holds_one_payload_reference(
        bytes in prop::collection::vec(any::<u8>(), 1..64),
        receivers in 2usize..12,
        jitter_us in prop_oneof![Just(0u64), 1u64..2_000],
    ) {
        struct Quiet;
        impl Node for Quiet {
            fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _i: IfaceId, _f: &Frame) {}
        }

        let mut w = World::new(5);
        let seg = w.add_segment(SegmentParams {
            jitter: SimDuration::from_micros(jitter_us),
            ..Default::default()
        });
        let sender = w.add_node(Quiet);
        w.add_iface(sender, Some(seg));
        for _ in 0..receivers {
            let id = w.add_node(Quiet);
            w.add_iface(id, Some(seg));
        }
        w.start();
        let ours = Payload::from(bytes);
        w.with_node::<Quiet, _>(sender, |_, ctx| {
            let f = Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x5a5a), ours.clone());
            ctx.send_frame(IfaceId(0), f);
        });
        prop_assert_eq!(w.queue_len(), if jitter_us == 0 { 1 } else { receivers });
        prop_assert_eq!(w.transmissions_in_flight(), 1);
        prop_assert_eq!(ours.ref_count(), 2, "ours plus the one in flight");
        // Still one while some receivers have heard it and some have not.
        w.run_until(SimTime::from_micros(500 + jitter_us / 2));
        prop_assert!(ours.ref_count() <= 2);
        w.run_until(SimTime::from_millis(10));
        prop_assert_eq!(w.stats().counter("link.frames_delivered"), receivers as u64);
        prop_assert_eq!(w.transmissions_in_flight(), 0);
        prop_assert_eq!(ours.ref_count(), 1);
    }
}
