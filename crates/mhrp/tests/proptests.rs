//! Property-based tests of the MHRP core invariants.

use std::net::Ipv4Addr;

use ip::ipv4::Ipv4Packet;
use ip::proto;
use mhrp::tunnel::{self, Retunnel};
use mhrp::{AuthExt, ControlMessage, LocationCache, MhrpHeader, UpdateRateLimiter};
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    // Avoid 0.0.0.0 (reserved as "no agent" by the protocol).
    (1u32..u32::MAX).prop_map(Ipv4Addr::from)
}

/// The three registrations, the messages that may carry an
/// authentication extension.
fn signable(mobile: Ipv4Addr, agent: Ipv4Addr, fa: Ipv4Addr, seq: u16) -> [ControlMessage; 3] {
    [
        ControlMessage::FaRegister { mobile, home_agent: agent },
        ControlMessage::HaRegister { mobile, fa: agent, seq },
        ControlMessage::RegRegister { mobile, home_agent: agent, fa, seq },
    ]
}

proptest! {
    #[test]
    fn header_round_trips(orig_proto in any::<u8>(), mobile in arb_addr(),
                          prev in prop::collection::vec(arb_addr(), 0..20),
                          trailer in prop::collection::vec(any::<u8>(), 0..64)) {
        let h = MhrpHeader { orig_protocol: orig_proto, mobile, prev_sources: prev };
        let mut bytes = h.encode();
        prop_assert_eq!(bytes.len(), h.encoded_len());
        bytes.extend_from_slice(&trailer);
        let (back, used) = MhrpHeader::decode(&bytes).unwrap();
        prop_assert_eq!(back, h.clone());
        prop_assert_eq!(used, h.encoded_len());
    }

    #[test]
    fn header_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = MhrpHeader::decode(&bytes);
    }

    #[test]
    fn encap_decap_is_identity(src in arb_addr(), dst in arb_addr(),
                               agent in arb_addr(), fa in arb_addr(),
                               protocol in 0u8..=149, // anything but MHRP
                               payload in prop::collection::vec(any::<u8>(), 0..256),
                               by_sender in any::<bool>()) {
        let original = Ipv4Packet::new(src, dst, protocol, payload);
        let mut pkt = original.clone();
        tunnel::encapsulate(&mut pkt, agent, fa, by_sender);
        prop_assert_eq!(pkt.protocol, proto::MHRP);
        prop_assert_eq!(pkt.dst, fa);
        let expected_overhead = if by_sender { 8 } else { 12 };
        prop_assert_eq!(pkt.wire_len(), original.wire_len() + expected_overhead);
        tunnel::decapsulate(&mut pkt).unwrap();
        prop_assert_eq!(pkt.payload, original.payload);
        prop_assert_eq!(pkt.protocol, original.protocol);
        prop_assert_eq!(pkt.dst, original.dst);
        prop_assert_eq!(pkt.src, original.src);
    }

    #[test]
    fn retunnel_chain_preserves_payload_and_mobile(
        hops in prop::collection::vec(arb_addr(), 1..12),
        payload in prop::collection::vec(any::<u8>(), 8..64),
        max_list in 1usize..10,
    ) {
        let sender = Ipv4Addr::new(1, 1, 1, 1);
        let mobile = Ipv4Addr::new(2, 2, 2, 2);
        let agent = Ipv4Addr::new(3, 3, 3, 3);
        let original = Ipv4Packet::new(sender, mobile, proto::UDP, payload.clone());
        let mut pkt = original.clone();
        tunnel::encapsulate(&mut pkt, agent, hops[0], false);
        // Walk the packet through a chain of distinct agents.
        let mut detected_loop = false;
        for w in hops.windows(2) {
            match tunnel::retunnel(&mut pkt, w[0], w[1], max_list).unwrap() {
                Retunnel::Forward { .. } => {
                    prop_assert_eq!(pkt.dst, w[1]);
                    prop_assert_eq!(pkt.src, w[0]);
                }
                Retunnel::Loop { .. } => {
                    // Possible when the random chain revisits an address.
                    detected_loop = true;
                    break;
                }
            }
        }
        if !detected_loop {
            // The inner packet is intact regardless of path length.
            let header = tunnel::decapsulate(&mut pkt).unwrap();
            prop_assert_eq!(header.mobile, mobile);
            prop_assert!(header.prev_sources.len() <= max_list);
            prop_assert_eq!(pkt.payload, payload);
            prop_assert_eq!(pkt.dst, mobile);
        }
    }

    #[test]
    fn list_never_exceeds_cap(
        n_hops in 1usize..30,
        max_list in 1usize..8,
    ) {
        let mobile = Ipv4Addr::new(2, 2, 2, 2);
        let mut pkt = Ipv4Packet::new(Ipv4Addr::new(1, 1, 1, 1), mobile, proto::UDP, vec![0; 16]);
        tunnel::encapsulate(&mut pkt, Ipv4Addr::new(3, 3, 3, 3), Ipv4Addr::new(9, 0, 0, 1), false);
        for i in 0..n_hops {
            // All-distinct agents so no loop fires.
            let here = Ipv4Addr::from(0x0900_0000 + i as u32 + 1);
            let next = Ipv4Addr::from(0x0900_0000 + i as u32 + 2);
            tunnel::retunnel(&mut pkt, here, next, max_list).unwrap();
            let (h, _) = tunnel::parse(&pkt).unwrap();
            prop_assert!(h.prev_sources.len() <= max_list,
                "list {} > cap {}", h.prev_sources.len(), max_list);
        }
    }

    #[test]
    fn reverse_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256),
                            addr in arb_addr()) {
        let _ = tunnel::reverse_icmp_original(&bytes, addr);
    }

    #[test]
    fn control_messages_round_trip(mobile in arb_addr(), agent in arb_addr(), seq in any::<u16>()) {
        // Every variant that crosses the wire (and, in live mode, a
        // real UDP socket).
        for msg in [
            ControlMessage::FaRegister { mobile, home_agent: agent },
            ControlMessage::FaRegisterAck { mobile },
            ControlMessage::FaDeregister { mobile, new_fa: agent },
            ControlMessage::FaDeregisterAck { mobile },
            ControlMessage::HaRegister { mobile, fa: agent, seq },
            ControlMessage::HaRegisterAck { mobile, seq },
            ControlMessage::FaRecoveryQuery,
            ControlMessage::HaSync { mobile, fa: agent },
        ] {
            prop_assert_eq!(ControlMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn authenticated_control_messages_round_trip(
        mobile in arb_addr(), agent in arb_addr(), fa in arb_addr(),
        seq in any::<u16>(), mac in any::<u64>(),
    ) {
        // The §13 authentication extension carries the MAC as opaque wire
        // data: any 64-bit value round-trips beside its registration
        // (verification happens at the agent, not the codec).
        let auth = AuthExt { seq, mac };
        for msg in signable(mobile, agent, fa, seq) {
            prop_assert_eq!(
                ControlMessage::decode_with(&msg.encode_with(Some(auth))).unwrap(),
                (msg, Some(auth))
            );
            prop_assert_eq!(ControlMessage::decode_with(&msg.encode()).unwrap(), (msg, None));
        }
    }

    #[test]
    fn authenticated_control_decode_survives_mutation(
        mobile in arb_addr(), agent in arb_addr(), fa in arb_addr(),
        seq in any::<u16>(), mac in any::<u64>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        truncate in any::<prop::sample::Index>(),
    ) {
        // An attacker's forge attempt is exactly this: bytes that look
        // almost like an authenticated registration. Flipped MAC bits,
        // mangled sequence numbers and truncated tails must all decode
        // to Ok or Err — never panic — in both the decoder and a
        // re-encode of whatever was decoded.
        for msg in signable(mobile, agent, fa, seq) {
            let mut bytes = msg.encode_with(Some(AuthExt { seq, mac }));
            for (idx, mask) in &flips {
                let i = idx.index(bytes.len());
                bytes[i] ^= mask | 1;
            }
            bytes.truncate(truncate.index(bytes.len() + 1));
            if let Ok((back, auth)) = ControlMessage::decode_with(&bytes) {
                let _ = back.encode_with(auth);
            }
        }
    }

    #[test]
    fn truncated_auth_messages_never_decode_as_complete(
        mobile in arb_addr(), agent in arb_addr(), fa in arb_addr(),
        seq in any::<u16>(), mac in any::<u64>(),
    ) {
        // Cutting any byte off an authenticated registration must not
        // yield that registration with an extension (a truncated MAC
        // accepted as shorter-but-valid would be a forgery vector).
        for msg in signable(mobile, agent, fa, seq) {
            let bytes = msg.encode_with(Some(AuthExt { seq, mac }));
            for cut in 1..bytes.len() {
                if let Ok((back, auth)) = ControlMessage::decode_with(&bytes[..cut]) {
                    prop_assert!(
                        auth.is_none() || back != msg,
                        "truncation to {} bytes decoded whole", cut
                    );
                }
            }
        }
    }

    #[test]
    fn control_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = ControlMessage::decode(&bytes);
    }

    #[test]
    fn control_decode_survives_mutation(
        mobile in arb_addr(), agent in arb_addr(), seq in any::<u16>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        truncate in any::<prop::sample::Index>(),
    ) {
        // A live endpoint's peer is a network: any corruption of a valid
        // registration message must decode to Ok or Err, never panic.
        for msg in [
            ControlMessage::FaRegister { mobile, home_agent: agent },
            ControlMessage::HaRegister { mobile, fa: agent, seq },
            ControlMessage::HaSync { mobile, fa: agent },
        ] {
            let mut bytes = msg.encode();
            for (idx, mask) in &flips {
                let i = idx.index(bytes.len());
                bytes[i] ^= mask | 1;
            }
            bytes.truncate(truncate.index(bytes.len() + 1));
            let _ = ControlMessage::decode(&bytes);
        }
    }

    #[test]
    fn header_decode_survives_mutation(
        mobile in arb_addr(),
        prev in prop::collection::vec(arb_addr(), 0..8),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        truncate in any::<prop::sample::Index>(),
    ) {
        let h = MhrpHeader { orig_protocol: 17, mobile, prev_sources: prev };
        let mut bytes = h.encode();
        for (idx, mask) in &flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= mask | 1;
        }
        bytes.truncate(truncate.index(bytes.len() + 1));
        let _ = MhrpHeader::decode(&bytes);
    }

    #[test]
    fn cache_never_exceeds_capacity(ops in prop::collection::vec(
        (arb_addr(), arb_addr(), any::<bool>()), 1..200), cap in 1usize..16) {
        let mut cache = LocationCache::new(cap);
        for (i, (mobile, fa, remove)) in ops.into_iter().enumerate() {
            if remove {
                cache.remove(mobile);
            } else {
                cache.insert(mobile, fa, SimTime::from_nanos(i as u64));
            }
            prop_assert!(cache.len() <= cap);
        }
    }

    #[test]
    fn cache_conserves_entries_under_arbitrary_interleavings(ops in prop::collection::vec(
        (0u8..5, arb_addr(), arb_addr()), 1..300), cap in 1usize..16) {
        use ip::icmp::{LocationUpdate, LocationUpdateCode};
        // Conservation: every entry now present was admitted, and every
        // admission is still present, was removed, or was evicted.
        let mut cache = LocationCache::new(cap);
        let mut admissions = 0u64;
        let mut removed = 0u64;
        for (i, (op, mobile, fa)) in ops.into_iter().enumerate() {
            let now = SimTime::from_nanos(i as u64);
            let present = cache.peek(mobile).is_some();
            match op {
                0 => {
                    cache.insert(mobile, fa, now);
                    if !present {
                        admissions += 1;
                    }
                }
                1 => {
                    if cache.remove(mobile).is_some() {
                        removed += 1;
                    }
                }
                2 => {
                    let _ = cache.lookup(mobile, now);
                }
                3 => {
                    cache.apply_update(
                        &LocationUpdate {
                            code: LocationUpdateCode::Bind,
                            mobile,
                            foreign_agent: fa,
                            mac: None,
                        },
                        now,
                    );
                    if !present {
                        admissions += 1;
                    }
                }
                _ => {
                    // A non-bind update deletes (§4.3).
                    cache.apply_update(
                        &LocationUpdate {
                            code: LocationUpdateCode::Bind,
                            mobile,
                            foreign_agent: Ipv4Addr::UNSPECIFIED,
                            mac: None,
                        },
                        now,
                    );
                    if present {
                        removed += 1;
                    }
                }
            }
            prop_assert!(cache.len() <= cap);
            prop_assert_eq!(
                admissions - removed - cache.evictions(),
                cache.len() as u64,
                "admitted {} removed {} evicted {} len {}",
                admissions, removed, cache.evictions(), cache.len()
            );
        }
    }

    #[test]
    fn rate_limiter_burst_evicts_and_readmits(cap in 1usize..32, extra in 1usize..40,
                                              interval_ms in 1u64..1_000) {
        // A burst of distinct destinations larger than the limiter's
        // memory pushes the oldest out (counted by `evictions`), and a
        // pushed-out destination is allowed again even inside the
        // interval — the §4.3 trade the finite list makes.
        let t = SimTime::from_millis(5);
        let n = cap + extra;
        let mut rl = UpdateRateLimiter::new(SimDuration::from_millis(interval_ms), cap);
        for i in 0..n {
            prop_assert!(rl.allow(Ipv4Addr::from(0x0a00_0001 + i as u32), t));
        }
        prop_assert_eq!(rl.evictions(), extra as u64);
        prop_assert_eq!(rl.len(), cap);
        // Oldest destination was evicted: re-admitted within the interval.
        prop_assert!(rl.allow(Ipv4Addr::from(0x0a00_0001), t));
        // The most recent survivor is still resident and still limited
        // (checked before the re-admit above could have displaced it only
        // if cap == 1).
        if cap > 1 {
            prop_assert!(!rl.allow(Ipv4Addr::from(0x0a00_0001 + n as u32 - 1), t));
        }
        prop_assert_eq!(rl.evictions(), extra as u64 + 1);
    }

    #[test]
    fn rate_limiter_never_exceeds_capacity(sends in prop::collection::vec(
        (any::<u16>(), 0u64..100_000), 1..300), cap in 1usize..24) {
        let mut rl = UpdateRateLimiter::new(SimDuration::from_millis(50), cap);
        let mut t = SimTime::ZERO;
        for (dst, advance_us) in sends {
            t += SimDuration::from_micros(advance_us);
            rl.allow(Ipv4Addr::from(0x0a00_0001 + u32::from(dst)), t);
            prop_assert!(rl.len() <= cap);
        }
    }

    #[test]
    fn rate_limiter_never_allows_within_interval(
        sends in prop::collection::vec((0u8..4, 0u64..10_000), 1..100),
        interval_ms in 1u64..1_000,
    ) {
        let interval = SimDuration::from_millis(interval_ms);
        let mut rl = UpdateRateLimiter::new(interval, 64);
        let mut last_allowed: std::collections::HashMap<u8, SimTime> = Default::default();
        let mut t = SimTime::ZERO;
        for (dst_id, advance_us) in sends {
            t += SimDuration::from_micros(advance_us);
            let dst = Ipv4Addr::new(10, 0, 0, dst_id + 1);
            if rl.allow(dst, t) {
                if let Some(&prev) = last_allowed.get(&dst_id) {
                    prop_assert!(t.since(prev) >= interval,
                        "allowed after {} < {}", t.since(prev), interval);
                }
                last_allowed.insert(dst_id, t);
            }
        }
    }
}
