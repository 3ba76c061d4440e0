//! The regional agent tier (DESIGN.md §12): hierarchical MHRP.
//!
//! Flat MHRP re-registers every handoff with the possibly-distant home
//! agent. A [`RegionalAgentCore`] terminates intra-region handoffs
//! locally: it owns the mobile → cell-foreign-agent bindings for one
//! region and presents *itself* as the single foreign agent to the
//! global home agent. A handoff between two cells of the same region
//! updates only the regional binding — the backbone never sees it. The
//! paper's §5.1 previous-source-address mechanism runs at this tier
//! too: the regional agent corrects stale caches below it exactly the
//! way a home agent corrects caches globally.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ip::icmp::LocationUpdateCode;
use ip::ipv4::Ipv4Packet;
use ip::proto;
use netsim::time::SimDuration;
use netsim::{Counter, Ctx, IfaceId, TeleEventKind, TimerToken};
use netstack::IpStack;

use crate::agent::CacheAgentCore;
use crate::auth::{self, ReplayWindow};
use crate::config::MhrpConfig;
use crate::messages::{ControlMessage, MHRP_PORT};
use crate::tunnel;

/// Timer tokens with this bit set belong to a [`RegionalAgentCore`].
/// The low 32 bits carry the mobile host address whose upstream
/// registration is being retransmitted.
pub const REGIONAL_TIMER_BIT: u64 = 1 << 57;

/// One intra-region binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionalBinding {
    /// The cell foreign agent currently serving the mobile host.
    pub cell_fa: Ipv4Addr,
    /// The mobile host's global home agent (learned from registration;
    /// needed to register upstream on first arrival).
    pub home_agent: Ipv4Addr,
}

/// An upstream `HaRegister` awaiting its acknowledgment.
#[derive(Debug, Clone, Copy)]
struct PendingUpstream {
    seq: u16,
    retries: u32,
    interval: SimDuration,
}

/// The regional-agent role state.
#[derive(Debug)]
pub struct RegionalAgentCore {
    /// The interface attached to the region's agent network (its address
    /// there is what the global home agent records as "foreign agent").
    pub lan_iface: IfaceId,
    retry: SimDuration,
    backoff: f64,
    retry_cap: SimDuration,
    max_retries: u32,
    /// Intra-region location database: mobile host → serving cell FA.
    bindings: HashMap<Ipv4Addr, RegionalBinding>,
    /// Stable-storage copy surviving reboots (same §2 argument as the
    /// home agent's journal, same config switch).
    disk: Option<HashMap<Ipv4Addr, RegionalBinding>>,
    pending_upstream: HashMap<Ipv4Addr, PendingUpstream>,
    seq: u16,
    /// Shared authentication key (DESIGN.md §13). When set, plain
    /// `RegRegister`s are rejected and MAC'd ones are verified against a
    /// per-mobile replay window, exactly like the cell foreign agents.
    pub auth_key: Option<u64>,
    replay: ReplayWindow,
    // Cached handles for the per-packet/per-handoff paths.
    registrations: Counter,
    handoffs_local: Counter,
    retunneled: Counter,
    auth_rejected: Counter,
}

impl RegionalAgentCore {
    /// Creates a regional agent serving `lan_iface`. Retransmission and
    /// journaling parameters are shared with the rest of the protocol.
    pub fn new(lan_iface: IfaceId, config: &MhrpConfig) -> RegionalAgentCore {
        RegionalAgentCore {
            lan_iface,
            retry: config.registration_retry,
            backoff: config.registration_backoff,
            retry_cap: config.registration_retry_cap,
            max_retries: config.registration_max_retries,
            bindings: HashMap::new(),
            disk: config.home_agent_disk.then(HashMap::new),
            pending_upstream: HashMap::new(),
            seq: 0,
            auth_key: config.auth_key,
            replay: ReplayWindow::new(),
            registrations: Counter::new("mhrp.reg_registrations"),
            handoffs_local: Counter::new("mhrp.reg_handoffs_local"),
            retunneled: Counter::new("mhrp.reg_retunneled"),
            auth_rejected: Counter::new("mhrp.auth.rejected"),
        }
    }

    fn reject_auth(&mut self, ctx: &mut Ctx<'_>) -> bool {
        self.auth_rejected.incr(ctx.stats());
        ctx.tele_event(TeleEventKind::AuthReject);
        true
    }

    /// The recorded cell foreign agent for `mobile` (None = not in this
    /// region).
    pub fn binding(&self, mobile: Ipv4Addr) -> Option<Ipv4Addr> {
        self.bindings.get(&mobile).map(|b| b.cell_fa)
    }

    /// Number of mobiles bound in this region (state-size metric).
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    fn self_addr(&self, stack: &IpStack) -> Ipv4Addr {
        stack.iface_addr(self.lan_iface).map(|ia| ia.addr).unwrap_or_else(|| stack.primary_addr())
    }

    fn token(mobile: Ipv4Addr) -> TimerToken {
        TimerToken(REGIONAL_TIMER_BIT | u64::from(u32::from(mobile)))
    }

    /// Mirrors `mobile`'s binding, or its absence, to the disk copy: the
    /// one entry a registration changed, not the whole database.
    fn journal(&mut self, mobile: Ipv4Addr) {
        if let Some(disk) = &mut self.disk {
            match self.bindings.get(&mobile) {
                Some(&b) => disk.insert(mobile, b),
                None => disk.remove(&mobile),
            };
        }
    }

    fn send_upstream(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mobile: Ipv4Addr,
        home_agent: Ipv4Addr,
        seq: u16,
    ) {
        let fa = self.self_addr(stack);
        let msg = match self.auth_key {
            Some(key) => ControlMessage::HaRegisterAuth {
                mobile,
                fa,
                seq,
                mac: auth::registration_mac(key, auth::TAG_HA, mobile, fa, seq),
            },
            None => ControlMessage::HaRegister { mobile, fa, seq },
        };
        stack.send_udp(ctx, home_agent, MHRP_PORT, MHRP_PORT, msg.encode());
    }

    /// Handles a registration control message addressed to this agent,
    /// sourced from `src`. Returns `true` if the message was consumed.
    pub fn on_control(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        msg: &ControlMessage,
    ) -> bool {
        match *msg {
            ControlMessage::RegRegister { mobile, home_agent, fa, seq } => {
                if self.auth_key.is_some() {
                    // Auth enforced: an unauthenticated regional
                    // registration is a forgery.
                    return self.reject_auth(ctx);
                }
                self.register(ca, stack, ctx, mobile, home_agent, fa, seq);
                true
            }
            ControlMessage::RegRegisterAuth { mobile, home_agent, fa, seq, mac } => {
                if let Some(key) = self.auth_key {
                    if mac != auth::reg_register_mac(key, mobile, home_agent, fa, seq)
                        || !self.replay.accept(mobile, seq)
                    {
                        return self.reject_auth(ctx);
                    }
                }
                self.register(ca, stack, ctx, mobile, home_agent, fa, seq);
                true
            }
            ControlMessage::FaDeregister { mobile, new_fa } => {
                if self.auth_key.is_some() && src != mobile {
                    // Same rule as the cell foreign agents: with auth on a
                    // deregistration is honoured from the mobile host only.
                    return self.reject_auth(ctx);
                }
                if self.bindings.remove(&mobile).is_none() {
                    return false;
                }
                self.journal(mobile);
                self.pending_upstream.remove(&mobile);
                ctx.stats().incr("mhrp.reg_deregistrations");
                if !new_fa.is_unspecified() {
                    // §2 forwarding pointer, at regional granularity: keep
                    // routing in-flight packets toward the mobile's next
                    // location instead of bouncing them off its home.
                    ca.cache.insert(mobile, new_fa, ctx.now());
                } else {
                    ca.cache.remove(mobile);
                }
                let ack = ControlMessage::FaDeregisterAck { mobile };
                stack.send_udp(ctx, mobile, MHRP_PORT, MHRP_PORT, ack.encode());
                true
            }
            ControlMessage::HaRegisterAck { mobile, seq } => {
                match self.pending_upstream.get(&mobile) {
                    Some(p) if p.seq == seq => {
                        self.pending_upstream.remove(&mobile);
                        true
                    }
                    // A stale or duplicate upstream ack still belongs to
                    // this tier (mobile-bound acks arrive tunneled, not
                    // here).
                    _ => true,
                }
            }
            _ => false,
        }
    }

    /// The shared body of (authenticated and plain) regional
    /// registration. `seq` is the mobile host's own registration
    /// sequence number.
    #[allow(clippy::too_many_arguments)]
    fn register(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mobile: Ipv4Addr,
        home_agent: Ipv4Addr,
        fa: Ipv4Addr,
        seq: u16,
    ) {
        self.registrations.incr(ctx.stats());
        let prior = self.bindings.get(&mobile).map(|b| b.cell_fa);
        self.bindings.insert(mobile, RegionalBinding { cell_fa: fa, home_agent });
        self.journal(mobile);
        // Ack the mobile host through its cell: the mobile's home
        // address routes toward its home network, so the ack rides
        // the intra-region tunnel like any data packet.
        let ack = ControlMessage::HaRegisterAck { mobile, seq };
        let datagram = ip::udp::UdpDatagram::new(MHRP_PORT, MHRP_PORT, ack.encode());
        let self_addr = self.self_addr(stack);
        let ident = stack.next_ident();
        let mut pkt =
            Ipv4Packet::new(self_addr, mobile, proto::UDP, datagram.encode()).with_ident(ident);
        tunnel::encapsulate(&mut pkt, self_addr, fa, false);
        stack.send(ctx, pkt);
        match prior {
            Some(old_fa) => {
                // The global home agent already points at us: an
                // intra-region handoff (or refresh) ends here. This
                // is the hierarchical win — no backbone round trip.
                if old_fa != fa {
                    self.handoffs_local.incr(ctx.stats());
                }
            }
            None => {
                // New arrival in the region: register ourselves as
                // the mobile's foreign agent with its home agent,
                // with the usual retransmission discipline. With auth
                // on, the upstream registration must carry a sequence
                // number inside the *mobile's* replay-window stream —
                // the home agent keeps one window per mobile and our
                // own counter would collide with other regions' — so
                // we forward the mobile's seq; with auth off we keep
                // the original per-region counter (byte-identical
                // replays).
                let up_seq = if self.auth_key.is_some() {
                    seq
                } else {
                    self.seq = self.seq.wrapping_add(1);
                    self.seq
                };
                self.pending_upstream.insert(
                    mobile,
                    PendingUpstream { seq: up_seq, retries: 0, interval: self.retry },
                );
                ctx.stats().incr("mhrp.reg_upstream_sent");
                self.send_upstream(stack, ctx, mobile, home_agent, up_seq);
                ctx.set_timer(self.retry, Self::token(mobile));
            }
        }
        // Registration supersedes any forwarding pointer we kept.
        ca.cache.remove(mobile);
    }

    /// Handles a retransmission timer; returns `true` if the token
    /// belonged to this agent.
    pub fn on_timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, token: TimerToken) -> bool {
        if token.0 & REGIONAL_TIMER_BIT == 0 {
            return false;
        }
        let mobile = Ipv4Addr::from((token.0 & 0xffff_ffff) as u32);
        let Some(home_agent) = self.bindings.get(&mobile).map(|b| b.home_agent) else {
            self.pending_upstream.remove(&mobile);
            return true;
        };
        let Some(p) = self.pending_upstream.get_mut(&mobile) else { return true };
        if p.retries >= self.max_retries {
            // Give up; the binding stays usable intra-region and the next
            // arrival retriggers an upstream attempt.
            ctx.stats().incr("mhrp.reg_upstream_gave_up");
            self.pending_upstream.remove(&mobile);
            return true;
        }
        p.retries += 1;
        let interval = p.interval;
        let next = interval.mul_f64(self.backoff).min(self.retry_cap);
        p.interval = next;
        let seq = p.seq;
        ctx.stats().incr("mhrp.reg_upstream_retries");
        self.send_upstream(stack, ctx, mobile, home_agent, seq);
        ctx.set_timer(interval, Self::token(mobile));
        true
    }

    /// Handles an MHRP packet tunneled to this agent. For a mobile bound
    /// in this region: run §5.1 cache correction against the previous-
    /// source list, then re-tunnel down to the serving cell FA. Returns
    /// the packet when the mobile is *not* bound here (the caller tries
    /// the co-resident home agent, then [`Self::retunnel_home`]).
    pub fn handle_tunneled(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        pkt: Ipv4Packet,
    ) -> Option<Ipv4Packet> {
        let Ok((header, _)) = tunnel::parse(&pkt) else {
            ctx.stats().incr("mhrp.reg_malformed");
            return None;
        };
        let mobile = header.mobile;
        let Some(cell_fa) = self.binding(mobile) else {
            return Some(pkt);
        };
        let self_addr = self.self_addr(stack);
        // §5.1 at the regional tier: every node that already handled this
        // packet learns the region's view. Outside nodes are told to send
        // through *us* (the stable region ingress); the serving cell FA is
        // told its own address, which is exactly the §5.2 recovery update
        // that lets a rebooted FA re-add the visitor.
        let mut stale: Vec<Ipv4Addr> = header.prev_sources.clone();
        stale.push(pkt.src);
        let mut fa_already_handled = false;
        for node in &stale {
            if *node == cell_fa {
                fa_already_handled = true;
                ca.send_update(stack, ctx, *node, mobile, cell_fa, LocationUpdateCode::Bind);
            } else {
                ca.send_update(stack, ctx, *node, mobile, self_addr, LocationUpdateCode::Bind);
            }
        }
        if fa_already_handled {
            // The packet already visited the serving cell FA (it rebooted
            // and forgot the visitor): forwarding it back would loop. The
            // recovery update we just sent re-adds the visitor; this
            // packet is dropped, mirroring the home agent's behaviour.
            ctx.stats().incr("mhrp.reg_dropped_fa_loop");
            return None;
        }
        self.retunnel(ca, stack, ctx, pkt, mobile, cell_fa);
        None
    }

    /// Re-tunnels a packet for a mobile *not* bound in this region: via a
    /// forwarding pointer when one is cached (and sane), else toward the
    /// mobile host's home address for the global home agent to intercept.
    pub fn retunnel_home(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        pkt: Ipv4Packet,
    ) {
        let Ok((header, _)) = tunnel::parse(&pkt) else {
            ctx.stats().incr("mhrp.reg_malformed");
            return;
        };
        let mobile = header.mobile;
        let target = match ca.cache.lookup(mobile, ctx.now()) {
            // A cached pointer to one of our own addresses would tunnel
            // the packet straight back here; ignore it.
            Some(t) if !stack.is_local_addr(t) => {
                ctx.stats().incr("mhrp.reg_forward_pointer_used");
                t
            }
            _ => {
                ctx.stats().incr("mhrp.reg_tunneled_home");
                mobile
            }
        };
        self.retunnel(ca, stack, ctx, pkt, mobile, target);
    }

    fn retunnel(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mut pkt: Ipv4Packet,
        mobile: Ipv4Addr,
        new_dst: Ipv4Addr,
    ) {
        let self_addr = self.self_addr(stack);
        match tunnel::retunnel_opts(
            &mut pkt,
            self_addr,
            new_dst,
            ca.max_prev_sources,
            ca.detect_loops,
        ) {
            Ok(tunnel::Retunnel::Forward { truncation_updates }) => {
                self.retunneled.incr(ctx.stats());
                ca.counters.overhead_bytes.add(ctx.stats(), 4);
                ctx.tele_event(TeleEventKind::Retunnel);
                for node in truncation_updates {
                    ca.send_update(stack, ctx, node, mobile, new_dst, LocationUpdateCode::Bind);
                }
                stack.forward(ctx, pkt);
            }
            Ok(tunnel::Retunnel::Loop { members }) => {
                // §5.3 at the regional tier: dissolve the loop by purging
                // every implicated cache.
                ctx.stats().incr("mhrp.loops_detected");
                ctx.tele_event(TeleEventKind::LoopDetected {
                    members: members.len().min(u8::MAX as usize) as u8,
                });
                for node in members {
                    ca.send_update(
                        stack,
                        ctx,
                        node,
                        mobile,
                        Ipv4Addr::UNSPECIFIED,
                        LocationUpdateCode::Purge,
                    );
                }
                ca.cache.remove(mobile);
            }
            Err(_) => ctx.stats().incr("mhrp.reg_malformed"),
        }
    }

    /// Reboot: retransmission state dies; the binding database reloads
    /// from disk when journaling is enabled, otherwise the region forgets
    /// everyone (mobiles re-register on the next advertisement cycle, and
    /// unknown tunnels fall back toward the home network meanwhile).
    pub fn reboot(&mut self) {
        self.pending_upstream.clear();
        // The replay window is volatile; it re-seeds from the first
        // authenticated registration after recovery.
        self.replay.clear();
        match &self.disk {
            Some(disk) => self.bindings.clone_from(disk),
            None => self.bindings.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_bit_disjoint_from_other_namespaces() {
        assert_eq!(REGIONAL_TIMER_BIT & netstack::STACK_TIMER_BIT, 0);
        assert_eq!(REGIONAL_TIMER_BIT & crate::discovery::ADVERT_TIMER_BIT, 0);
        assert_eq!(REGIONAL_TIMER_BIT & crate::mobile_host::REG_TIMER_BIT, 0);
        assert_eq!(REGIONAL_TIMER_BIT & crate::mobile_host::WATCH_TIMER_BIT, 0);
    }

    #[test]
    fn token_round_trips_mobile_address() {
        let m = Ipv4Addr::new(10, 3, 7, 200);
        let t = RegionalAgentCore::token(m);
        assert_ne!(t.0 & REGIONAL_TIMER_BIT, 0);
        assert_eq!(Ipv4Addr::from((t.0 & 0xffff_ffff) as u32), m);
    }

    #[test]
    fn reboot_respects_disk_switch() {
        let m = Ipv4Addr::new(10, 2, 1, 5);
        let b = RegionalBinding { cell_fa: Ipv4Addr::new(11, 1, 0, 1), home_agent: m };
        let mut with_disk = RegionalAgentCore::new(
            IfaceId(1),
            &MhrpConfig { home_agent_disk: true, ..Default::default() },
        );
        with_disk.bindings.insert(m, b);
        with_disk.journal(m);
        with_disk.reboot();
        assert_eq!(with_disk.binding(m), Some(b.cell_fa));

        let mut without = RegionalAgentCore::new(
            IfaceId(1),
            &MhrpConfig { home_agent_disk: false, ..Default::default() },
        );
        without.bindings.insert(m, b);
        without.journal(m);
        without.reboot();
        assert_eq!(without.binding(m), None);
        assert_eq!(without.binding_count(), 0);
    }

    mod journal {
        use super::*;
        use proptest::prelude::*;

        fn a(x: u8) -> Ipv4Addr {
            Ipv4Addr::new(10, 0, 0, x)
        }

        proptest! {
            /// Mirroring one binding per registration leaves the disk copy
            /// exactly where copying the whole database did, across
            /// regional registrations, deregistrations (of bound and
            /// unknown mobiles) and reboots that reload from it.
            #[test]
            fn per_binding_journal_matches_a_full_copy(
                // (mobile, cell foreign agent; 0 = deregister), or a reboot.
                ops in prop::collection::vec(
                    prop_oneof![
                        (1u8..7, 0u8..4).prop_map(Some),
                        (1u8..7, 0u8..4).prop_map(Some),
                        (1u8..7, 0u8..4).prop_map(Some),
                        Just(None),
                    ],
                    1..60,
                ),
            ) {
                struct Probe;
                impl netsim::Node for Probe {
                    fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: &netsim::Frame) {}
                }
                let config = MhrpConfig { home_agent_disk: true, ..Default::default() };
                let mut reg = RegionalAgentCore::new(IfaceId(0), &config);
                let mut ca = CacheAgentCore::new(&config);
                let mut stack = IpStack::new(true);
                stack.add_iface(IfaceId(0), a(1), "10.0.0.0/24".parse().unwrap());
                let mut w = netsim::World::new(0);
                let n = w.add_node(Probe);
                let seg = w.add_segment(netsim::SegmentParams::default());
                w.add_iface(n, Some(seg));
                let mut full_copy = HashMap::new();
                let mut seq = 0u16;
                w.with_node::<Probe, _>(n, |_, ctx| {
                    for op in ops {
                        match op {
                            Some((m, fa)) => {
                                seq += 1;
                                let mobile = Ipv4Addr::new(10, 9, 0, m);
                                let msg = if fa == 0 {
                                    ControlMessage::FaDeregister {
                                        mobile,
                                        new_fa: Ipv4Addr::UNSPECIFIED,
                                    }
                                } else {
                                    ControlMessage::RegRegister {
                                        mobile,
                                        home_agent: a(200),
                                        fa: a(100 + fa),
                                        seq,
                                    }
                                };
                                reg.on_control(&mut ca, &mut stack, ctx, mobile, &msg);
                                full_copy.clone_from(&reg.bindings);
                            }
                            None => {
                                reg.reboot();
                                prop_assert_eq!(&reg.bindings, &full_copy);
                            }
                        }
                        prop_assert_eq!(reg.disk.as_ref(), Some(&full_copy));
                    }
                    Ok(())
                })?;
            }
        }
    }
}
