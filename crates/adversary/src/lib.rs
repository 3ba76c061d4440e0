//! # adversary — deterministic attack engine for MHRP
//!
//! The 1994 protocol trusts the network: any host that can source a UDP
//! datagram can register any mobile anywhere, and any host that can
//! source an ICMP location update can poison any location cache. This
//! crate turns those observations into *reproducible experiments*
//! (DESIGN.md §13): an [`AttackPlan`] is an ordered list of
//! `(time, AttackOp)` pairs — the hostile sibling of
//! [`netsim::faults::FaultPlan`] and `workload`'s `MovePlan` — compiled
//! onto the world's single event queue at [`AttackPlan::install`] time,
//! so attack traffic interleaves with frames, timers and every other
//! scheduled op under the same total `(time, seq)` order. The same seed
//! plus the same plan reproduces a byte-identical run, on a plain
//! [`netsim::World`] and on any shard count of a
//! [`netsim::ShardedWorld`] alike (packet-forging ops lower to node
//! scripts, which the shard router sends to the attacker's shard; moves
//! lower to [`Op::AttachIface`]).
//!
//! Plans speak in *indices* (attacker `0..`, mobile host `0..`, cell
//! `0..`) plus concrete protocol addresses, not [`NodeId`]s, so a plan
//! is a pure value that can be generated, compared and property-tested
//! without a world; the world binding happens only at install time via
//! a [`Binding`].
//!
//! The operations cover the attack classes E19–E21 measure:
//!
//! * **Forged registrations** — [`AttackOp::ForgeHaRegister`] /
//!   [`AttackOp::ForgeRegRegister`]: an off-path attacker claims a
//!   mobile lives behind an agent of the attacker's choosing. Without
//!   the DESIGN.md §13 authentication extension the home agent
//!   believes it and diverts the victim's traffic.
//! * **Cache poisoning** — [`AttackOp::PoisonUpdate`]: a spoofed §4.3
//!   location update pointing a correspondent's cache at a black hole.
//! * **Registration storms** — [`AttackOp::StormTunnel`]: forged MHRP
//!   tunnels whose fat previous-source lists make the home agent's
//!   §5.1 fan-out churn its bounded [`mhrp::UpdateRateLimiter`]
//!   (amplification: one packet provokes up to 255 updates).
//! * **Ping-pong mobility** — [`AttackOp::MoveMobile`]: a victim
//!   carried (or lured) back and forth between two cells as fast as
//!   registration completes, maximising handoff-window loss.
//!
//! Attackers never hold the authentication key: every forged message is
//! sent in the plain 1994 format, which is exactly what
//! `mhrp.auth.rejected` / `mhrp.cache.poison_dropped` count when the
//! defense is on.

#![deny(missing_docs)]

use std::fmt;
use std::net::Ipv4Addr;

use ip::icmp::{IcmpMessage, LocationUpdate, LocationUpdateCode};
use ip::ipv4::Ipv4Packet;
use ip::proto;
use mhrp::messages::{ControlMessage, MHRP_PORT};
use mhrp::{MhrpHeader, MhrpHostNode};
use netsim::time::{SimDuration, SimTime};
use netsim::{Ctx, IfaceId, NodeId, Op, SegmentId, SimWorld};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One hostile operation, applied at a scheduled instant.
///
/// Every variant is a pure value (`Clone + PartialEq`), so plans can be
/// generated, compared and replayed — the same foundation the golden
/// determinism tests build on for fault and mobility plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOp {
    /// Forge a `HaRegister` to `home_agent` claiming `mobile` is served
    /// by foreign agent `fa` (typically the attacker itself, which
    /// silently drops the diverted tunnels — a black hole).
    ForgeHaRegister {
        /// Index of the sending attacker host.
        attacker: usize,
        /// The victim mobile host's home address.
        mobile: Ipv4Addr,
        /// The victim's home agent.
        home_agent: Ipv4Addr,
        /// The foreign agent the forgery names.
        fa: Ipv4Addr,
        /// The registration sequence number the forgery carries.
        seq: u16,
    },
    /// Forge a `RegRegister` to a regional agent (the hierarchical-tier
    /// twin of [`AttackOp::ForgeHaRegister`]).
    ForgeRegRegister {
        /// Index of the sending attacker host.
        attacker: usize,
        /// The victim mobile host's home address.
        mobile: Ipv4Addr,
        /// The regional agent under attack.
        regional: Ipv4Addr,
        /// The victim's home agent (carried in the message).
        home_agent: Ipv4Addr,
        /// The cell foreign agent the forgery names.
        fa: Ipv4Addr,
        /// The registration sequence number the forgery carries.
        seq: u16,
    },
    /// Spoof a §4.3 location update to `target`, claiming `mobile` is
    /// served by `foreign_agent` (cache poisoning: subsequent sends
    /// tunnel into the claimed agent).
    PoisonUpdate {
        /// Index of the sending attacker host.
        attacker: usize,
        /// The cache agent being poisoned.
        target: Ipv4Addr,
        /// The victim mobile host's home address.
        mobile: Ipv4Addr,
        /// Where the poisoned cache will tunnel to.
        foreign_agent: Ipv4Addr,
    },
    /// Send a forged MHRP tunnel toward `mobile`'s home address with a
    /// fabricated previous-source list (at most 255 entries, the wire
    /// format's count octet). The intercepting home agent's §5.1
    /// fan-out then sends one location update per listed source — the
    /// amplification that drives its bounded per-destination rate
    /// limiter to the eviction edge (E20).
    StormTunnel {
        /// Index of the sending attacker host.
        attacker: usize,
        /// The victim mobile host's home address.
        mobile: Ipv4Addr,
        /// The fabricated previous-source addresses.
        fake_sources: Vec<Ipv4Addr>,
    },
    /// Carry mobile host `host` into `cell` — the raw material of the
    /// E21 ping-pong oscillation. Indices follow the [`Binding`].
    MoveMobile {
        /// Index of the victim mobile host.
        host: usize,
        /// Destination cell index.
        cell: usize,
    },
}

impl fmt::Display for AttackOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOp::ForgeHaRegister { attacker, mobile, fa, .. } => {
                write!(f, "a{attacker}: forge HaRegister {mobile} -> {fa}")
            }
            AttackOp::ForgeRegRegister { attacker, mobile, fa, .. } => {
                write!(f, "a{attacker}: forge RegRegister {mobile} -> {fa}")
            }
            AttackOp::PoisonUpdate { attacker, target, mobile, .. } => {
                write!(f, "a{attacker}: poison {target} about {mobile}")
            }
            AttackOp::StormTunnel { attacker, mobile, fake_sources } => {
                write!(f, "a{attacker}: storm {mobile} x{}", fake_sources.len())
            }
            AttackOp::MoveMobile { host, cell } => write!(f, "ping-pong h{host} -> c{cell}"),
        }
    }
}

/// World handles an [`AttackPlan`] binds to at install time. Plans
/// stay pure values; this is the only place [`NodeId`]s appear.
#[derive(Debug, Clone, Default)]
pub struct Binding {
    /// Attacker hosts, indexed by `AttackOp::attacker` (the hierarchy
    /// builders expose them as `attackers`).
    pub attackers: Vec<NodeId>,
    /// Victim mobile hosts and their roaming interface, indexed by
    /// `AttackOp::MoveMobile::host`.
    pub mobiles: Vec<(NodeId, IfaceId)>,
    /// Wireless cells, indexed by `AttackOp::MoveMobile::cell`.
    pub cells: Vec<SegmentId>,
}

/// An ordered schedule of timed [`AttackOp`]s — the hostile analogue of
/// [`netsim::faults::FaultPlan`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackPlan {
    ops: Vec<(SimTime, AttackOp)>,
}

impl AttackPlan {
    /// Creates an empty plan.
    pub fn new() -> AttackPlan {
        AttackPlan::default()
    }

    /// Adds one operation at an absolute time.
    pub fn op(mut self, at: SimTime, op: AttackOp) -> AttackPlan {
        self.ops.push((at, op));
        self
    }

    /// The scheduled operations, in insertion order.
    pub fn ops(&self) -> &[(SimTime, AttackOp)] {
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

    /// Number of [`AttackOp::MoveMobile`] operations — the handoff
    /// count E21 normalises loss by.
    pub fn moves(&self) -> u64 {
        self.ops.iter().filter(|(_, op)| matches!(op, AttackOp::MoveMobile { .. })).count() as u64
    }

    /// Schedules a forged `HaRegister` for each of `mobiles`, `interval`
    /// apart starting at `from`, all diverting traffic to `fa`. One
    /// sweep is enough to black-hole every listed victim until its next
    /// genuine re-registration.
    #[allow(clippy::too_many_arguments)]
    pub fn forged_registration_sweep(
        mut self,
        from: SimTime,
        interval: SimDuration,
        attacker: usize,
        home_agent: Ipv4Addr,
        fa: Ipv4Addr,
        mobiles: &[Ipv4Addr],
        seq: u16,
    ) -> AttackPlan {
        let mut t = from;
        for &mobile in mobiles {
            self.ops.push((t, AttackOp::ForgeHaRegister { attacker, mobile, home_agent, fa, seq }));
            t += interval;
        }
        self
    }

    /// Schedules `packets` forged storm tunnels toward `mobile`,
    /// `interval` apart starting at `from`, each listing
    /// `sources_per_packet` seeded-random fabricated sources from
    /// `192.168.0.0/16` (distinct, unroutable — the damage is the home
    /// agent's rate-limiter churn, not misdelivery). Deterministic in
    /// `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn update_storm(
        mut self,
        from: SimTime,
        interval: SimDuration,
        attacker: usize,
        mobile: Ipv4Addr,
        packets: usize,
        sources_per_packet: usize,
        seed: u64,
    ) -> AttackPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6164_7665_7273_6172); // "adversar"
        let per = sources_per_packet.min(255);
        let mut t = from;
        for _ in 0..packets {
            let fake_sources: Vec<Ipv4Addr> = (0..per)
                .map(|_| {
                    let host: u64 = rng.random_range(1..65_535u64);
                    Ipv4Addr::from(0xC0A8_0000 | u32::try_from(host).expect("16-bit host"))
                })
                .collect();
            self.ops.push((t, AttackOp::StormTunnel { attacker, mobile, fake_sources }));
            t += interval;
        }
        self
    }

    /// Schedules `handoffs` alternating moves of `host` between
    /// `cell_a` and `cell_b`, one every `half_period` starting at
    /// `from` (the host is assumed to start in `cell_a`).
    pub fn ping_pong(
        mut self,
        from: SimTime,
        half_period: SimDuration,
        host: usize,
        cell_a: usize,
        cell_b: usize,
        handoffs: usize,
    ) -> AttackPlan {
        let mut t = from;
        for i in 0..handoffs {
            let cell = if i % 2 == 0 { cell_b } else { cell_a };
            self.ops.push((t, AttackOp::MoveMobile { host, cell }));
            t += half_period;
        }
        self
    }

    /// Compiles the plan onto `w`'s event queue. Packet-forging ops
    /// lower to node scripts that run *inside* the owning shard's
    /// deterministic event order; moves lower to a plain
    /// [`Op::AttachIface`]. Installing the same plan at the same times
    /// into equal worlds yields byte-identical runs.
    ///
    /// # Panics
    ///
    /// Panics if an op's attacker/host/cell index is out of the
    /// binding's range (eagerly, at install time — not mid-run).
    pub fn install<W: SimWorld>(&self, w: &mut W, b: &Binding) {
        for (at, op) in &self.ops {
            let at = *at;
            match op.clone() {
                AttackOp::ForgeHaRegister { attacker, mobile, home_agent, fa, seq } => {
                    forge(w, at, b.attackers[attacker], move |h, ctx| {
                        let msg = ControlMessage::HaRegister { mobile, fa, seq };
                        h.stack.send_udp(ctx, home_agent, MHRP_PORT, MHRP_PORT, msg.encode());
                    });
                }
                AttackOp::ForgeRegRegister { attacker, mobile, regional, home_agent, fa, seq } => {
                    forge(w, at, b.attackers[attacker], move |h, ctx| {
                        let msg = ControlMessage::RegRegister { mobile, home_agent, fa, seq };
                        h.stack.send_udp(ctx, regional, MHRP_PORT, MHRP_PORT, msg.encode());
                    });
                }
                AttackOp::PoisonUpdate { attacker, target, mobile, foreign_agent } => {
                    forge(w, at, b.attackers[attacker], move |h, ctx| {
                        // Spoofed updates never carry a MAC: the attacker
                        // does not hold the key.
                        let msg = IcmpMessage::LocationUpdate(LocationUpdate {
                            code: LocationUpdateCode::Bind,
                            mobile,
                            foreign_agent,
                            mac: None,
                        });
                        h.stack.send_icmp(ctx, target, &msg, None);
                    });
                }
                AttackOp::StormTunnel { attacker, mobile, mut fake_sources } => {
                    forge(w, at, b.attackers[attacker], move |h, ctx| {
                        let Some(src) = h.stack.pick_src(mobile) else { return };
                        fake_sources.truncate(255);
                        let mut header = MhrpHeader::new(proto::UDP, mobile);
                        header.prev_sources = fake_sources;
                        // A minimal inner datagram: the tunnel is addressed
                        // to the victim's *home* address, so the home agent
                        // intercepts it and fans §5.1 updates out to every
                        // fabricated previous source.
                        let inner = ip::udp::UdpDatagram::new(9, 9, vec![0xA5; 8]).encode();
                        let mut payload = header.encode();
                        payload.extend_from_slice(&inner);
                        let ident = h.stack.next_ident();
                        let pkt =
                            Ipv4Packet::new(src, mobile, proto::MHRP, payload).with_ident(ident);
                        h.stack.send(ctx, pkt);
                    });
                }
                AttackOp::MoveMobile { host, cell } => {
                    let (node, iface) = b.mobiles[host];
                    w.schedule(at, Op::AttachIface { node, iface, segment: b.cells[cell] });
                }
            }
        }
    }
}

/// Schedules `send` to run on attacker host `node` at `at`.
fn forge<W: SimWorld>(
    w: &mut W,
    at: SimTime,
    node: NodeId,
    send: impl FnOnce(&mut MhrpHostNode, &mut Ctx<'_>) + Send + 'static,
) {
    w.schedule_script(at, node, Box::new(move |w, n| w.with_node::<MhrpHostNode, _>(n, send)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    #[test]
    fn update_storm_is_deterministic_in_seed() {
        let mk = |seed| {
            AttackPlan::new().update_storm(
                SimTime::from_secs(1),
                SimDuration::from_millis(10),
                0,
                a(7),
                4,
                100,
                seed,
            )
        };
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
        let plan = mk(5);
        assert_eq!(plan.len(), 4);
        for (_, op) in plan.ops() {
            let AttackOp::StormTunnel { fake_sources, .. } = op else {
                panic!("unexpected op {op}")
            };
            assert_eq!(fake_sources.len(), 100);
            for s in fake_sources {
                assert_eq!(s.octets()[0], 192, "fabricated sources stay in 192.168/16");
            }
        }
    }

    #[test]
    fn storm_sources_cap_at_wire_limit() {
        let plan = AttackPlan::new().update_storm(
            SimTime::from_secs(1),
            SimDuration::from_millis(10),
            0,
            a(7),
            1,
            1000,
            1,
        );
        let AttackOp::StormTunnel { fake_sources, .. } = &plan.ops()[0].1 else { panic!() };
        assert_eq!(fake_sources.len(), 255, "count octet bounds the list");
    }

    #[test]
    fn ping_pong_alternates_and_counts_moves() {
        let plan = AttackPlan::new().ping_pong(
            SimTime::from_secs(2),
            SimDuration::from_secs(1),
            3,
            0,
            1,
            4,
        );
        assert_eq!(plan.moves(), 4);
        let cells: Vec<usize> = plan
            .ops()
            .iter()
            .map(|(_, op)| match op {
                AttackOp::MoveMobile { cell, .. } => *cell,
                other => panic!("unexpected op {other}"),
            })
            .collect();
        assert_eq!(cells, vec![1, 0, 1, 0]);
        assert_eq!(plan.ops()[3].0, SimTime::from_secs(5));
    }

    #[test]
    fn sweep_schedules_one_forgery_per_victim() {
        let victims = [a(1), a(2), a(3)];
        let plan = AttackPlan::new().forged_registration_sweep(
            SimTime::from_secs(1),
            SimDuration::from_millis(100),
            0,
            a(250),
            a(251),
            &victims,
            9,
        );
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert_eq!(plan.moves(), 0);
        assert_eq!(
            plan.ops()[2].1,
            AttackOp::ForgeHaRegister {
                attacker: 0,
                mobile: a(3),
                home_agent: a(250),
                fa: a(251),
                seq: 9
            }
        );
    }
}
