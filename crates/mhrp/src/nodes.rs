//! Complete MHRP node types, composing the role cores over an
//! [`IpStack`]:
//!
//! * [`MhrpRouterNode`] — a router optionally acting as home agent,
//!   foreign agent, cache agent and/or advertiser. One type covers every
//!   router in the paper's Figure 1 (`R2` = home agent, `R4`/`R5` =
//!   foreign agents, `R1` = a first-hop cache agent for non-MHRP hosts).
//! * [`MhrpHostNode`] — a stationary host with MHRP support: caches
//!   locations from updates and tunnels its own traffic (§6.2).
//! * [`MobileHostNode`] — the mobile host itself.

use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::Ipv4Packet;
use ip::proto;
use ip::udp::UdpDatagram;
use netsim::{Ctx, Frame, IfaceId, LinkEvent, Node, TeleEventKind, TimerToken};
use netstack::nodes::{handle_icmp_delivery, Endpoint};
use netstack::{IpStack, StackEvent};

use crate::agent::CacheAgentCore;
use crate::config::MhrpConfig;
use crate::discovery::Advertiser;
use crate::foreign_agent::ForeignAgentCore;
use crate::home_agent::HomeAgentCore;
use crate::messages::{ControlMessage, MHRP_PORT};
use crate::mobile_host::MobileHostCore;
use crate::regional::RegionalAgentCore;
use crate::tunnel;

/// A router with any combination of MHRP roles.
#[derive(Debug)]
pub struct MhrpRouterNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The cache-agent role (always present; §2 recommends every agent
    /// also be a cache agent).
    pub ca: CacheAgentCore,
    /// Optional home-agent role.
    pub ha: Option<HomeAgentCore>,
    /// Optional foreign-agent role.
    pub fa: Option<ForeignAgentCore>,
    /// Optional regional-agent role (hierarchical MHRP, DESIGN.md §12).
    pub regional: Option<RegionalAgentCore>,
    /// Optional periodic agent advertisements.
    pub advertiser: Option<Advertiser>,
    /// Whether the router examines forwarded packets as a cache agent
    /// (§4.3: "Routers should thus support a configuration option to
    /// enable or disable the capability").
    pub cache_enabled: bool,
    /// Protocol parameters.
    pub config: MhrpConfig,
}

impl MhrpRouterNode {
    /// Creates a plain MHRP-aware router (no agent roles yet).
    pub fn new(config: MhrpConfig) -> MhrpRouterNode {
        let mut stack = IpStack::new(true);
        // §4.5: the error reverse path needs "at least the entire MHRP
        // header and 8 bytes beyond" of the offending packet; RFC 1122
        // permits returning more than the RFC 792 minimum, so MHRP-aware
        // routers do.
        stack.set_icmp_error_limit(Some(48));
        MhrpRouterNode {
            stack,
            ca: CacheAgentCore::new(&config),
            ha: None,
            fa: None,
            regional: None,
            advertiser: None,
            cache_enabled: true,
            config,
        }
    }

    /// Adds the home-agent role serving the network on `home_iface`.
    pub fn with_home_agent(mut self, home_iface: IfaceId) -> MhrpRouterNode {
        let mut ha = HomeAgentCore::new(home_iface, self.config.home_agent_disk);
        ha.auth_key = self.config.auth_key;
        self.ha = Some(ha);
        self
    }

    /// Adds the foreign-agent role serving the network on `local_iface`.
    pub fn with_foreign_agent(mut self, local_iface: IfaceId) -> MhrpRouterNode {
        self.fa = Some(ForeignAgentCore::new(local_iface, &self.config));
        self
    }

    /// Adds the regional-agent role: this router owns the intra-region
    /// bindings for the cells below it and presents itself (its address
    /// on `lan_iface`) as the single foreign agent to global home agents.
    pub fn with_regional_agent(mut self, lan_iface: IfaceId) -> MhrpRouterNode {
        self.regional = Some(RegionalAgentCore::new(lan_iface, &self.config));
        self
    }

    /// Marks this router's foreign-agent role as a *cell* of the regional
    /// domain owned by the agent at `regional`: registrations are acked
    /// with the regional pointer and departed visitors fall back to the
    /// regional agent. Requires `with_foreign_agent` first.
    pub fn with_regional_parent(mut self, regional: Ipv4Addr) -> MhrpRouterNode {
        if let Some(fa) = &mut self.fa {
            fa.regional_agent = Some(regional);
        }
        self
    }

    /// Advertises agent service on `ifaces`.
    pub fn with_advertiser(mut self, ifaces: Vec<IfaceId>) -> MhrpRouterNode {
        let home = self.ha.is_some();
        let foreign = self.fa.is_some();
        self.advertiser =
            Some(Advertiser::new(ifaces, home, foreign, self.config.advertisement_interval));
        self
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Ipv4Packet) {
        // A captured destination is a departed mobile host we are home
        // agent for: intercept (§2).
        if self.stack.is_captured(pkt.dst) && !self.stack.is_local_addr(pkt.dst) {
            if let Some(ha) = &mut self.ha {
                ha.intercept(&mut self.ca, &mut self.stack, ctx, pkt);
            } else {
                ctx.stats().incr("mhrp.captured_without_ha");
            }
            return;
        }
        match pkt.protocol {
            proto::MHRP => {
                if let Some(reg) = &mut self.regional {
                    // Hierarchical tier order: the regional binding table
                    // first (intra-region mobiles), then a co-resident
                    // global home agent (this region's own mobiles away
                    // from home), else escalate toward the home network.
                    let Some(pkt) = reg.handle_tunneled(&mut self.ca, &mut self.stack, ctx, pkt)
                    else {
                        return;
                    };
                    if let Ok((header, _)) = tunnel::parse(&pkt) {
                        if let Some(ha) = &mut self.ha {
                            if ha.binding(header.mobile).is_some() {
                                ha.intercept(&mut self.ca, &mut self.stack, ctx, pkt);
                                return;
                            }
                        }
                    }
                    let reg = self.regional.as_mut().expect("matched above");
                    reg.retunnel_home(&mut self.ca, &mut self.stack, ctx, pkt);
                    return;
                }
                if let Some(fa) = &mut self.fa {
                    fa.handle_tunneled(&mut self.ca, &mut self.stack, ctx, pkt);
                } else {
                    ctx.stats().incr("mhrp.tunnel_at_non_fa");
                }
            }
            proto::UDP => {
                let Ok(datagram) = UdpDatagram::decode(&pkt.payload) else { return };
                if datagram.dst_port != MHRP_PORT {
                    return;
                }
                let Ok(msg) = ControlMessage::decode(&datagram.payload) else {
                    ctx.stats().incr("mhrp.control_malformed");
                    return;
                };
                let mut consumed = false;
                if let Some(fa) = &mut self.fa {
                    consumed = fa.on_control(&mut self.ca, &mut self.stack, ctx, pkt.src, &msg);
                }
                if !consumed {
                    if let Some(reg) = &mut self.regional {
                        consumed =
                            reg.on_control(&mut self.ca, &mut self.stack, ctx, pkt.src, &msg);
                    }
                }
                if !consumed {
                    if let Some(ha) = &mut self.ha {
                        consumed = ha.on_control(&mut self.stack, ctx, pkt.src, &msg);
                    }
                }
                if !consumed {
                    ctx.stats().incr("mhrp.control_unhandled");
                }
            }
            proto::ICMP => {
                let Ok(msg) = IcmpMessage::decode(&pkt.payload) else { return };
                match &msg {
                    IcmpMessage::LocationUpdate(lu) => {
                        // §5.2: an update naming us as the location lets a
                        // recovering foreign agent re-add the visitor.
                        if let Some(fa) = &mut self.fa {
                            fa.on_update_for_self(&mut self.stack, ctx, lu);
                        }
                        self.ca.on_update(ctx, lu);
                    }
                    IcmpMessage::AgentSolicitation => {
                        if let Some(adv) = &mut self.advertiser {
                            adv.solicited(&mut self.stack, ctx, iface);
                        }
                    }
                    m if m.is_error() => {
                        if !self.ca.on_icmp_error(&mut self.stack, ctx, m) {
                            ctx.stats().incr("mhrp.router_icmp_error_logged");
                        }
                    }
                    _ => {
                        handle_icmp_delivery(&mut self.stack, ctx, &pkt);
                    }
                }
            }
            _ => {}
        }
    }
}

impl Node for MhrpRouterNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = &mut self.advertiser {
            adv.start(&mut self.stack, ctx);
        }
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, iface } => self.deliver(ctx, iface, pkt),
                StackEvent::ForwardCandidate { pkt, .. } => {
                    let leftover = if self.cache_enabled {
                        self.ca.intercept_forward(&mut self.stack, ctx, pkt)
                    } else {
                        Some(pkt)
                    };
                    if let Some(pkt) = leftover {
                        self.stack.forward(ctx, pkt);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if self.stack.on_timer(ctx, timer) {
            return;
        }
        // Advertiser first: its epoch occupies the token bits *below* its
        // namespace bit, so it must consume anything carrying that bit
        // before the regional agent inspects the token.
        if let Some(adv) = &mut self.advertiser {
            if adv.on_timer(&mut self.stack, ctx, timer) {
                return;
            }
        }
        if let Some(reg) = &mut self.regional {
            reg.on_timer(&mut self.stack, ctx, timer);
        }
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
        }
    }

    fn on_reboot(&mut self, ctx: &mut Ctx<'_>) {
        ctx.stats().incr("mhrp.agent_reboots");
        self.ca.reboot();
        for i in 0..8 {
            self.stack.arp.clear_iface(IfaceId(i));
        }
        if let Some(adv) = &mut self.advertiser {
            // Pending timers died with the crash; restart the periodic
            // advertisement chain under a fresh epoch.
            adv.start(&mut self.stack, ctx);
        }
        if let Some(ha) = &mut self.ha {
            ha.reboot(&mut self.stack, ctx);
        }
        if let Some(reg) = &mut self.regional {
            reg.reboot();
        }
        if let Some(fa) = &mut self.fa {
            fa.reboot();
            // §5.2: "the foreign agent could also broadcast over its local
            // network a query for all mobile hosts to initiate
            // reconnection".
            let iface = fa.local_iface;
            let Some(ia) = self.stack.iface_addr(iface) else { return };
            let datagram =
                UdpDatagram::new(MHRP_PORT, MHRP_PORT, ControlMessage::FaRecoveryQuery.encode());
            let ident = self.stack.next_ident();
            let pkt = Ipv4Packet::new(ia.addr, Ipv4Addr::BROADCAST, proto::UDP, datagram.encode())
                .with_ident(ident)
                .with_ttl(1);
            ctx.stats().incr("mhrp.fa_recovery_queries");
            self.stack.send_link_broadcast(ctx, iface, pkt);
        }
    }
}

/// Shared delivery logic for MHRP-capable end hosts (stationary or
/// mobile): location updates feed the cache, tunnel-head ICMP errors run
/// the §4.5 reverse path, everything else goes to the endpoint.
fn deliver_mhrp_host(
    stack: &mut IpStack,
    endpoint: &mut Endpoint,
    ca: &mut CacheAgentCore,
    ctx: &mut Ctx<'_>,
    pkt: &Ipv4Packet,
) {
    if pkt.protocol == proto::ICMP {
        if let Ok(msg) = IcmpMessage::decode(&pkt.payload) {
            match &msg {
                IcmpMessage::LocationUpdate(lu) => {
                    ca.on_update(ctx, lu);
                    return;
                }
                m if m.is_error() && ca.on_icmp_error(stack, ctx, m) => {
                    return;
                }
                _ => {}
            }
        }
    }
    endpoint.deliver(stack, ctx, pkt);
}

/// Sends `pkt`, first tunneling it sender-side if the cache knows the
/// destination's foreign agent (§6.2 — the 8-octet-header common case).
fn send_with_cache(
    stack: &mut IpStack,
    ca: &mut CacheAgentCore,
    ctx: &mut Ctx<'_>,
    mut pkt: Ipv4Packet,
) {
    // The birth of a new packet: give it its journey now so the
    // sender-side cache/encap events below land on it rather than on
    // whatever frame happened to be in dispatch.
    let ambient = ctx.journey();
    ctx.begin_journey();
    if let Some(fa) = ca.cache.lookup(pkt.dst, ctx.now()) {
        ca.counters.tunneled_by_sender.incr(ctx.stats());
        // §4.2: a sender-built header is 8 octets.
        ca.counters.overhead_bytes.add(ctx.stats(), 8);
        ctx.tele_event(TeleEventKind::CacheHit);
        ctx.tele_event(TeleEventKind::Encap { by_sender: true });
        let src = pkt.src;
        tunnel::encapsulate(&mut pkt, src, fa, true);
    }
    stack.send(ctx, pkt);
    ctx.override_journey(ambient);
}

/// A stationary host that implements MHRP (acts as a cache agent for its
/// own traffic, §6.2).
#[derive(Debug)]
pub struct MhrpHostNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer and observation log.
    pub endpoint: Endpoint,
    /// The cache-agent role.
    pub ca: CacheAgentCore,
}

impl MhrpHostNode {
    /// Creates an MHRP-capable host.
    pub fn new(config: &MhrpConfig) -> MhrpHostNode {
        MhrpHostNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            ca: CacheAgentCore::new(config),
        }
    }

    /// The observation log.
    pub fn log(&self) -> &netstack::EndpointLog {
        &self.endpoint.log
    }

    /// Pings `dst`, tunneling directly to its foreign agent on cache hit.
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) -> u16 {
        let src = self.stack.pick_src(dst).expect("host has an address");
        let (seq, pkt) = self.endpoint.make_ping(ctx.now(), src, dst);
        send_with_cache(&mut self.stack, &mut self.ca, ctx, pkt);
        seq
    }

    /// Sends UDP to `dst:dst_port`, tunneling on cache hit.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let src = self.stack.pick_src(dst).expect("host has an address");
        let pkt = Endpoint::make_udp(src, dst, src_port, dst_port, payload);
        send_with_cache(&mut self.stack, &mut self.ca, ctx, pkt);
    }
}

impl Node for MhrpHostNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => {
                    deliver_mhrp_host(&mut self.stack, &mut self.endpoint, &mut self.ca, ctx, &pkt);
                }
                StackEvent::ForwardCandidate { .. } => unreachable!("host stack never forwards"),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
        }
    }

    fn on_reboot(&mut self, _ctx: &mut Ctx<'_>) {
        self.ca.reboot();
        self.endpoint.clear_outstanding();
        for i in 0..8 {
            self.stack.arp.clear_iface(IfaceId(i));
        }
    }
}

/// The mobile host: endpoint + cache agent + the §3 mobility engine.
#[derive(Debug)]
pub struct MobileHostNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer and observation log.
    pub endpoint: Endpoint,
    /// The cache-agent role (mobile hosts are cache agents too, §2).
    pub ca: CacheAgentCore,
    /// The mobility engine.
    pub core: MobileHostCore,
}

impl MobileHostNode {
    /// Creates a mobile host homed at `home_addr` on `home_prefix`, served
    /// by `home_agent`, using `home_gateway` for off-net traffic at home.
    pub fn new(
        home_addr: Ipv4Addr,
        home_prefix: ip::Prefix,
        home_agent: Ipv4Addr,
        home_gateway: Ipv4Addr,
        config: MhrpConfig,
    ) -> MobileHostNode {
        MobileHostNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            ca: CacheAgentCore::new(&config),
            core: MobileHostCore::new(
                IfaceId(0),
                home_addr,
                home_prefix,
                home_agent,
                home_gateway,
                config,
            ),
        }
    }

    /// The observation log.
    pub fn log(&self) -> &netstack::EndpointLog {
        &self.endpoint.log
    }

    /// Pings `dst` (from the home address, wherever we are).
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) -> u16 {
        let (seq, pkt) = self.endpoint.make_ping(ctx.now(), self.core.home_addr, dst);
        send_with_cache(&mut self.stack, &mut self.ca, ctx, pkt);
        seq
    }

    /// Sends UDP to `dst:dst_port` from the home address.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let pkt = Endpoint::make_udp(self.core.home_addr, dst, src_port, dst_port, payload);
        send_with_cache(&mut self.stack, &mut self.ca, ctx, pkt);
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::MHRP {
            // At home after a stale tunnel (§6.3), or serving as our own
            // foreign agent (§2).
            if let Some(inner) =
                self.core.handle_mhrp_delivery(&mut self.ca, &mut self.stack, ctx, pkt)
            {
                deliver_mhrp_host(&mut self.stack, &mut self.endpoint, &mut self.ca, ctx, &inner);
            }
            return;
        }
        if pkt.protocol == proto::UDP {
            if let Ok(datagram) = UdpDatagram::decode(&pkt.payload) {
                if datagram.dst_port == MHRP_PORT {
                    if let Ok(msg) = ControlMessage::decode(&datagram.payload) {
                        if self.core.on_control(&mut self.stack, ctx, pkt.src, &msg) {
                            return;
                        }
                    }
                }
            }
        }
        if pkt.protocol == proto::ICMP {
            if let Ok(IcmpMessage::AgentAdvertisement(ad)) = IcmpMessage::decode(&pkt.payload) {
                self.core.on_advert(&mut self.stack, ctx, &ad);
                return;
            }
        }
        deliver_mhrp_host(&mut self.stack, &mut self.endpoint, &mut self.ca, ctx, &pkt);
    }
}

impl Node for MobileHostNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.start(&mut self.stack, ctx);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => self.deliver(ctx, pkt),
                StackEvent::ForwardCandidate { .. } => unreachable!("host stack never forwards"),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if self.stack.on_timer(ctx, timer) {
            return;
        }
        self.core.on_timer(&mut self.stack, ctx, timer);
    }

    fn on_link(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if iface == self.core.iface {
            self.core.on_link(&mut self.stack, ctx, event);
        }
    }

    fn on_reboot(&mut self, ctx: &mut Ctx<'_>) {
        self.ca.reboot();
        self.endpoint.clear_outstanding();
        self.stack.arp.clear_iface(self.core.iface);
        self.core.on_reboot(&mut self.stack, ctx);
    }
}
