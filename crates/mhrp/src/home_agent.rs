//! The home agent (paper §2, §3, §5.1, §5.2).
//!
//! The home agent lives on each mobile host's home network. It maintains
//! the authoritative location database (mobile host → current foreign
//! agent), intercepts packets transmitted on the home network for departed
//! mobile hosts (via gratuitous/proxy ARP and address capture), tunnels
//! them to the current foreign agent, and fans out location updates to
//! every out-of-date cache agent named in an arriving packet's MHRP header.

use std::net::Ipv4Addr;

use ip::icmp::LocationUpdateCode;
use ip::ipv4::Ipv4Packet;
use ip::proto;
use netsim::{Counter, Ctx, IfaceId, TeleEventKind};
use netstack::IpStack;

use crate::agent::CacheAgentCore;
use crate::auth::AuthGate;
use crate::config::MhrpConfig;
use crate::journal::Journaled;
use crate::messages::{AuthExt, ControlMessage};
use crate::tunnel;

// Per-intercepted-packet and per-registration counters.
static HA_TUNNELED: Counter = Counter::new("mhrp.ha_tunneled");
static HA_REGISTRATIONS: Counter = Counter::new("mhrp.ha_registrations");
static HA_ACKS_TUNNELED: Counter = Counter::new("mhrp.ha_acks_tunneled");

/// The home-agent role state.
#[derive(Debug)]
pub struct HomeAgentCore {
    /// The interface attached to the home network.
    pub home_iface: IfaceId,
    /// Replica home agents (§2: an organization "can replicate the home
    /// agent function on several support hosts"); every binding change is
    /// synced to them with [`ControlMessage::HaSync`].
    pub replicas: Vec<Ipv4Addr>,
    /// Interception style (§2 vs. §3 end): `false` uses gratuitous/proxy
    /// ARP on the home segment; `true` relies on routing alone ("host-
    /// specific routes") — correct when this node is the border router of
    /// a routed home domain, where no other router ARPs for the mobile
    /// host's address.
    pub host_route_mode: bool,
    /// Whether this agent is actively intercepting. A warm-standby
    /// replica keeps a synced database but does not intercept until
    /// [`HomeAgentCore::activate`].
    active: bool,
    /// Location database: mobile host → current foreign agent, with its
    /// §2 disk copy when enabled. Mobile hosts connected at home have no
    /// entry.
    bindings: Journaled<Ipv4Addr>,
    /// Authentication (DESIGN.md §13): with a key, registrations must be
    /// signed and `HaSync` is accepted only from the configured replica
    /// set.
    gate: AuthGate,
}

impl HomeAgentCore {
    /// Creates an active home agent serving the network on `home_iface`.
    /// [`MhrpConfig::home_agent_disk`] enables the §2 stable-storage
    /// journal.
    pub fn new(home_iface: IfaceId, config: &MhrpConfig) -> HomeAgentCore {
        HomeAgentCore {
            home_iface,
            replicas: Vec::new(),
            host_route_mode: false,
            active: true,
            bindings: Journaled::new(config.home_agent_disk),
            gate: AuthGate::new(config.auth_key),
        }
    }

    /// Creates a warm-standby replica: it applies [`ControlMessage::HaSync`]
    /// into its database but intercepts nothing until activated.
    pub fn new_replica(home_iface: IfaceId, config: &MhrpConfig) -> HomeAgentCore {
        HomeAgentCore { active: false, ..HomeAgentCore::new(home_iface, config) }
    }

    /// Whether this agent is actively intercepting.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Promotes a standby replica: arms interception for every binding in
    /// the (synced) database, then pushes that database to this agent's
    /// own replica list — the new primary may have seen syncs its peers
    /// (including the failed ex-primary, once it returns) missed.
    pub fn activate(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        self.active = true;
        ctx.stats().incr("mhrp.ha_activations");
        for mobile in self.bindings.mobiles() {
            self.arm(stack, ctx, mobile);
        }
        let snapshot: Vec<(Ipv4Addr, Ipv4Addr)> = self.bindings.iter().collect();
        for replica in self.replicas.clone() {
            for &(mobile, fa) in &snapshot {
                let sync = ControlMessage::HaSync { mobile, fa };
                let port = crate::messages::MHRP_PORT;
                stack.send_udp(ctx, replica, port, port, sync.encode());
            }
        }
    }

    /// Starts intercepting `mobile`'s packets.
    fn arm(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mobile: Ipv4Addr) {
        stack.add_capture(mobile);
        if !self.host_route_mode {
            stack.arp.add_proxy(self.home_iface, mobile);
            // §2: broadcast an ARP "reply" so home-network hosts map the
            // mobile's IP to our hardware address (retransmitted once for
            // reliability, as the paper suggests).
            stack.send_gratuitous_arp(ctx, self.home_iface, mobile);
            stack.send_gratuitous_arp(ctx, self.home_iface, mobile);
        }
    }

    /// Stops intercepting `mobile`'s packets (exactly undoes [`Self::arm`]:
    /// in host-route mode no proxy was installed, so none is removed).
    fn disarm(&mut self, stack: &mut IpStack, mobile: Ipv4Addr) {
        stack.remove_capture(mobile);
        if !self.host_route_mode {
            stack.arp.remove_proxy(self.home_iface, mobile);
        }
    }

    fn apply_binding(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mobile: Ipv4Addr,
        fa: Ipv4Addr,
    ) {
        if fa.is_unspecified() {
            // §3: "a special foreign agent address of zero" = back home.
            self.bindings.remove(mobile);
            self.disarm(stack, mobile);
        } else {
            self.bindings.insert(mobile, fa);
            if self.active {
                self.arm(stack, ctx, mobile);
            }
        }
    }

    /// The recorded foreign agent for `mobile` (None = at home).
    pub fn binding(&self, mobile: Ipv4Addr) -> Option<Ipv4Addr> {
        self.bindings.get(mobile)
    }

    /// Number of away mobile hosts (state-size metric, E07).
    pub fn binding_count(&self) -> usize {
        self.bindings.len()
    }

    /// Handles a registration control message addressed to this agent,
    /// which arrived with the authentication extension `auth`. Returns
    /// `true` if the message was consumed.
    pub fn on_control(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        msg: &ControlMessage,
        auth: Option<AuthExt>,
    ) -> bool {
        let (mobile, fa, seq) = match *msg {
            ControlMessage::HaRegister { mobile, fa, seq } => {
                if !self.gate.admit(ctx, msg, auth) {
                    return true;
                }
                (mobile, fa, seq)
            }
            ControlMessage::HaSync { mobile, fa } => {
                if self.gate.enforced() && !self.replicas.contains(&src) {
                    // With auth on, database replication is accepted only
                    // from the configured replica set — otherwise HaSync
                    // is an unauthenticated side door around the MAC.
                    self.gate.reject(ctx);
                    return true;
                }
                // §2 replication: apply a peer's binding change silently.
                ctx.stats().incr("mhrp.ha_syncs_applied");
                self.apply_binding(stack, ctx, mobile, fa);
                return true;
            }
            _ => return false,
        };
        HA_REGISTRATIONS.incr(ctx.stats());
        self.apply_binding(stack, ctx, mobile, fa);
        // §2: keep replicas' view of the database consistent.
        let replicas = self.replicas.clone();
        for replica in replicas {
            let sync = ControlMessage::HaSync { mobile, fa };
            stack.send_udp(
                ctx,
                replica,
                crate::messages::MHRP_PORT,
                crate::messages::MHRP_PORT,
                sync.encode(),
            );
        }
        let ack = ControlMessage::HaRegisterAck { mobile, seq };
        let pkt = self.ack_packet(stack, ctx, src, &ack);
        stack.send(ctx, pkt);
        true
    }

    /// Builds a control-message acknowledgment addressed to `src`. When
    /// `src` is a mobile host whose home address *we* capture (it is
    /// registered away), the ack would be intercepted right back by this
    /// agent — so it is encapsulated toward the foreign agent like any
    /// other packet for that host.
    fn ack_packet(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        ack: &ControlMessage,
    ) -> Ipv4Packet {
        let port = crate::messages::MHRP_PORT;
        let datagram = ip::udp::UdpDatagram::new(port, port, ack.encode());
        let self_addr = stack
            .iface_addr(self.home_iface)
            .map(|ia| ia.addr)
            .unwrap_or_else(|| stack.primary_addr());
        let ident = stack.next_ident();
        let mut pkt =
            Ipv4Packet::new(self_addr, src, proto::UDP, datagram.encode()).with_ident(ident);
        if let Some(fa) = self.bindings.get(src) {
            HA_ACKS_TUNNELED.incr(ctx.stats());
            tunnel::encapsulate(&mut pkt, self_addr, fa, false);
        }
        pkt
    }

    /// Handles a packet intercepted on the home network for a departed
    /// mobile host (delivered via the capture set). Implements §4.2
    /// (encapsulate and tunnel), §6.1 (location update back to the
    /// sender), §5.1 (update fan-out for tunneled-to-home packets) and
    /// §5.2 (foreign agent recovery).
    pub fn intercept(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mut pkt: Ipv4Packet,
    ) {
        if pkt.protocol == proto::MHRP {
            // A packet tunneled to the mobile host's home address (§4.4):
            // an old foreign agent had no forwarding pointer, or a loop
            // was dissolved toward home. The header names the mobile host;
            // the outer destination may instead be this agent itself when a
            // regional tier hands the packet up (DESIGN.md §12) — at home,
            // the two coincide.
            let Ok((header, _)) = tunnel::parse(&pkt) else {
                ctx.stats().incr("mhrp.ha_intercept_malformed");
                return;
            };
            let mobile = header.mobile;
            let Some(fa) = self.bindings.get(mobile) else {
                // Captured but no binding (stale capture): drop.
                ctx.stats().incr("mhrp.ha_intercept_stale");
                return;
            };
            ctx.stats().incr("mhrp.ha_retunneled");
            // §5.1/§5.2: update every node that already handled this
            // packet — the previous-source list plus the current source.
            let mut stale: Vec<Ipv4Addr> = header.prev_sources.clone();
            stale.push(pkt.src);
            let mut fa_already_handled = false;
            for node in &stale {
                if *node == fa {
                    fa_already_handled = true;
                }
                ca.send_update(stack, ctx, *node, mobile, fa, LocationUpdateCode::Bind);
            }
            if fa_already_handled {
                // §5.2: the packet already visited the current foreign
                // agent (it rebooted and forgot the mobile host). Forwarding
                // it back would loop; the location update we just sent lets
                // the foreign agent recover, and we drop this packet.
                ctx.stats().incr("mhrp.ha_dropped_fa_loop");
                return;
            }
            let self_addr = stack
                .iface_addr(self.home_iface)
                .map(|ia| ia.addr)
                .unwrap_or_else(|| stack.primary_addr());
            match tunnel::retunnel_opts(
                &mut pkt,
                self_addr,
                fa,
                ca.max_prev_sources,
                ca.detect_loops,
            ) {
                Ok(tunnel::Retunnel::Forward { truncation_updates }) => {
                    crate::agent::counters::OVERHEAD_BYTES.add(ctx.stats(), 4);
                    ctx.tele_event(TeleEventKind::Retunnel);
                    for node in truncation_updates {
                        ca.send_update(stack, ctx, node, mobile, fa, LocationUpdateCode::Bind);
                    }
                    stack.forward(ctx, pkt);
                }
                Ok(tunnel::Retunnel::Loop { members }) => {
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
                }
                Err(_) => ctx.stats().incr("mhrp.ha_intercept_malformed"),
            }
        } else {
            // §4.2/§6.1: plain packet from a host with no (valid) cache:
            // build the MHRP header, tunnel to the foreign agent, and tell
            // the sender where the mobile host is.
            let mobile = pkt.dst;
            let Some(fa) = self.bindings.get(mobile) else {
                // Captured but no binding (stale capture): drop.
                ctx.stats().incr("mhrp.ha_intercept_stale");
                return;
            };
            HA_TUNNELED.incr(ctx.stats());
            crate::agent::counters::OVERHEAD_BYTES.add(ctx.stats(), 12);
            ctx.tele_event(TeleEventKind::Encap { by_sender: false });
            let sender = pkt.src;
            let self_addr = stack
                .iface_addr(self.home_iface)
                .map(|ia| ia.addr)
                .unwrap_or_else(|| stack.primary_addr());
            tunnel::encapsulate(&mut pkt, self_addr, fa, false);
            ca.send_update(stack, ctx, sender, mobile, fa, LocationUpdateCode::Bind);
            stack.forward(ctx, pkt);
        }
    }

    /// Reboot: volatile state is lost; the database reloads from disk when
    /// journaling is enabled (§2), otherwise every mobile host appears to
    /// be at home until it re-registers. Stale interception from before
    /// the crash is disarmed, then re-armed for every reloaded binding.
    pub fn reboot(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        for mobile in self.bindings.mobiles() {
            self.disarm(stack, mobile);
        }
        self.bindings.reload();
        // The replay window is volatile (re-seeds from the next
        // authenticated registration); only the binding database is
        // journaled.
        self.gate.clear();
        if self.active {
            for mobile in self.bindings.mobiles() {
                // Re-arm through `arm` so the gratuitous-ARP broadcast is
                // repeated: home-segment hosts may have re-ARPed the mobile
                // host's address while we were down and would otherwise
                // keep the stale mapping until their caches expire.
                self.arm(stack, ctx, mobile);
            }
        }
    }

    /// Forcibly forgets every binding *and* the disk copy (test/failure
    /// injection helper).
    pub fn wipe(&mut self, stack: &mut IpStack) {
        for mobile in self.bindings.mobiles() {
            self.disarm(stack, mobile);
        }
        self.bindings.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    /// Runs `f` with a throwaway `Ctx` whose node has one segment-attached
    /// interface (so gratuitous ARPs and UDP sends do not short-circuit).
    fn with_ctx<R>(f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        struct Probe;
        impl netsim::Node for Probe {
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: &netsim::Frame) {}
        }
        let mut w = netsim::World::new(0);
        let n = w.add_node(Probe);
        let seg = w.add_segment(netsim::SegmentParams::default());
        w.add_iface(n, Some(seg));
        w.with_node::<Probe, _>(n, |_, ctx| f(ctx))
    }

    fn disk(home_agent_disk: bool) -> MhrpConfig {
        MhrpConfig { home_agent_disk, ..MhrpConfig::default() }
    }

    fn home_stack() -> IpStack {
        let mut stack = IpStack::new(true);
        stack.add_iface(IfaceId(0), a(1), "10.0.0.0/24".parse().unwrap());
        stack
    }

    /// The frames `f` sends from a harnessed node whose one interface is
    /// attached, in order.
    fn tape(f: impl FnOnce(&mut Ctx<'_>)) -> Vec<Vec<u8>> {
        struct Probe;
        impl netsim::Node for Probe {
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: &netsim::Frame) {}
        }
        struct Tape(Vec<Vec<u8>>);
        impl netsim::NodeIo for Tape {
            fn transmit(&mut self, _: netsim::NodeId, _: IfaceId, frame: netsim::Frame) {
                self.0.push(frame.payload.to_vec());
            }
        }
        let mut h = netsim::NodeHarness::new(netsim::NodeId(0), Probe, 0);
        h.add_iface(netsim::MacAddr([2, 0, 0, 0, 0, 1]), true);
        let mut tape = Tape(Vec::new());
        h.with_node::<Probe, _>(netsim::SimTime::from_secs(0), &mut tape, |_, ctx| f(ctx));
        tape.0
    }

    #[test]
    fn reboot_and_promotion_replay_bindings_in_address_order() {
        // Each agent's table hashes with its own keys, so two identical
        // agents in one process walk it in different orders; what they
        // send must not show that.
        let bind = |ha: &mut HomeAgentCore| (10..26).for_each(|m| ha.bindings.insert(a(m), a(100)));
        let reboot = || {
            let mut stack = home_stack();
            let mut ha = HomeAgentCore::new(IfaceId(0), &disk(true));
            bind(&mut ha);
            tape(|ctx| ha.reboot(&mut stack, ctx))
        };
        let rebooted = reboot();
        assert_eq!(rebooted.len(), 32, "two gratuitous ARPs per binding");
        assert_eq!(rebooted, reboot());
        let promote = || {
            let mut stack = home_stack();
            stack.arp.insert(IfaceId(0), a(3), netsim::MacAddr([2, 0, 0, 0, 0, 3]));
            let mut ha = HomeAgentCore::new_replica(IfaceId(0), &disk(false));
            ha.replicas = vec![a(3)];
            bind(&mut ha);
            tape(|ctx| ha.activate(&mut stack, ctx))
        };
        let promoted = promote();
        assert_eq!(promoted.len(), 48, "two gratuitous ARPs and one sync per binding");
        assert_eq!(promoted, promote());
    }

    #[test]
    fn disk_survives_reboot_when_enabled() {
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new(IfaceId(0), &disk(true));
        ha.bindings.insert(a(7), a(100));
        with_ctx(|ctx| ha.reboot(&mut stack, ctx));
        assert_eq!(ha.binding(a(7)), Some(a(100)));
        assert!(stack.is_captured(a(7)));
        assert!(stack.arp.is_proxied(IfaceId(0), a(7)));
    }

    #[test]
    fn no_disk_means_reboot_forgets() {
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new(IfaceId(0), &disk(false));
        ha.bindings.insert(a(7), a(100));
        with_ctx(|ctx| ha.reboot(&mut stack, ctx));
        assert_eq!(ha.binding(a(7)), None);
        assert_eq!(ha.binding_count(), 0);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new(IfaceId(0), &disk(true));
        ha.bindings.insert(a(7), a(100));
        stack.add_capture(a(7));
        ha.wipe(&mut stack);
        assert_eq!(ha.binding(a(7)), None);
        assert!(!stack.is_captured(a(7)));
        with_ctx(|ctx| ha.reboot(&mut stack, ctx));
        assert_eq!(ha.binding(a(7)), None);
    }

    #[test]
    fn wipe_in_host_route_mode_leaves_foreign_proxies_alone() {
        // In host-route mode `arm` installs no ARP proxy, so `wipe` must
        // not strip a proxy some other role (e.g. a co-resident foreign
        // agent serving a visitor) installed for the same address.
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new(IfaceId(0), &disk(true));
        ha.host_route_mode = true;
        ha.bindings.insert(a(7), a(100));
        stack.add_capture(a(7));
        stack.arp.add_proxy(IfaceId(0), a(7));
        ha.wipe(&mut stack);
        assert!(!stack.is_captured(a(7)));
        assert!(stack.arp.is_proxied(IfaceId(0), a(7)));
    }

    #[test]
    fn standby_promotion_arms_synced_bindings() {
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new_replica(IfaceId(0), &disk(false));
        assert!(!ha.is_active());
        with_ctx(|ctx| {
            // A primary's HaSync lands in the database but arms nothing.
            let sync = ControlMessage::HaSync { mobile: a(7), fa: a(100) };
            assert!(ha.on_control(&mut stack, ctx, a(2), &sync, None));
            assert_eq!(ha.binding(a(7)), Some(a(100)));
            assert!(!stack.is_captured(a(7)));
            assert!(!stack.arp.is_proxied(IfaceId(0), a(7)));
            // Promotion arms interception for the whole synced database.
            ha.activate(&mut stack, ctx);
        });
        assert!(ha.is_active());
        assert!(stack.is_captured(a(7)));
        assert!(stack.arp.is_proxied(IfaceId(0), a(7)));
    }

    #[test]
    fn ack_to_away_mobile_is_tunneled() {
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new(IfaceId(0), &disk(false));
        ha.bindings.insert(a(7), a(100));
        let ack = ControlMessage::HaRegisterAck { mobile: a(7), seq: 3 };
        let pkt = with_ctx(|ctx| ha.ack_packet(&mut stack, ctx, a(7), &ack));
        // Away: the mobile's home address is one we capture, so the ack
        // rides the tunnel to the foreign agent.
        assert_eq!(pkt.protocol, proto::MHRP);
        assert_eq!(pkt.dst, a(100));
        let (header, _) = tunnel::parse(&pkt).unwrap();
        assert_eq!(header.mobile, a(7));
    }

    #[test]
    fn ack_to_at_home_mobile_is_plain() {
        let mut stack = home_stack();
        let mut ha = HomeAgentCore::new(IfaceId(0), &disk(false));
        let ack = ControlMessage::HaRegisterAck { mobile: a(7), seq: 3 };
        let pkt = with_ctx(|ctx| ha.ack_packet(&mut stack, ctx, a(7), &ack));
        assert_eq!(pkt.protocol, proto::UDP);
        assert_eq!(pkt.dst, a(7));
    }

    mod journal {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        proptest! {
            /// Mirroring one binding per registration leaves the disk copy
            /// exactly where copying the whole database did, across
            /// registrations, moves home (a zero foreign agent) and
            /// reboots that reload from it.
            #[test]
            fn per_binding_journal_matches_a_full_copy(
                // (mobile, foreign agent; 0 = back home), or a reboot.
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
                let mut stack = home_stack();
                let mut ha = HomeAgentCore::new(IfaceId(0), &disk(true));
                let mut full_copy = HashMap::new();
                with_ctx(|ctx| {
                    for op in ops {
                        match op {
                            Some((m, fa)) => {
                                let fa = if fa == 0 { Ipv4Addr::UNSPECIFIED } else { a(100 + fa) };
                                ha.apply_binding(&mut stack, ctx, a(m), fa);
                                full_copy.clone_from(ha.bindings.live());
                            }
                            None => {
                                ha.reboot(&mut stack, ctx);
                                prop_assert_eq!(ha.bindings.live(), &full_copy);
                            }
                        }
                        prop_assert_eq!(ha.bindings.disk(), Some(&full_copy));
                    }
                    Ok(())
                })?;
            }
        }
    }
}
