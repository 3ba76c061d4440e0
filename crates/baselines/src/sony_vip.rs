//! The Sony Virtual IP protocol (Teraoka et al., SIGCOMM '91 / ICDCS '92)
//! — baseline three of the paper's §7.
//!
//! Every host has a permanent **VIP address** and a **physical IP
//! address**; a mobile host's physical address is a temporary one obtained
//! on each visited network. *Every* packet carries a 28-byte VIP shim
//! (§7: "The overhead added to each packet for the VIP header is
//! 28 bytes") — even between two stationary hosts.
//!
//! Senders and intermediate routers cache `VIP → physical` mappings by
//! observing traffic. A cache miss sends the packet with physical =
//! VIP, which routes to the mobile host's home network, where the home
//! router fills in the real physical address. After a move a **flooding
//! protocol** removes cached mappings — "but some may remain due to the
//! way in which the flooding is propagated" (modeled by
//! [`VipRouterNode::flood_apply_prob`]); a stale mapping misdelivers the
//! packet, the wrong receiver returns an error, and the sender
//! retransmits.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use ip::{proto, PacketError, Prefix};
use netsim::time::SimDuration;
use netsim::{Counter, Ctx, Frame, IfaceId, LinkEvent, Node, TeleEventKind, TimerToken};
use netstack::nodes::Endpoint;
use netstack::route::NextHop;
use netstack::{IpStack, StackEvent};

use crate::common::{Beacon, TempAddrPool, BEACON_PORT, CONTROL_PORT};

const BEACON_TIMER: u64 = 1 << 57;

/// Beacon interval for VIP routers.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// The VIP shim size (§7's 28 bytes).
pub const VIP_SHIM_LEN: usize = 28;

/// Control messages of the VIP protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VipMessage {
    /// Mobile → local router: assign me a temporary physical address.
    TempRequest {
        /// The requesting host's VIP.
        vip: Ipv4Addr,
    },
    /// Local router → mobile: your temporary address.
    TempAssign {
        /// The requesting host's VIP.
        vip: Ipv4Addr,
        /// The assigned physical address (0.0.0.0 = pool exhausted).
        temp: Ipv4Addr,
        /// The prefix length of the local network.
        prefix_len: u8,
    },
    /// Mobile → home router: my physical address is now `phys`.
    HomeRegister {
        /// The mobile's VIP.
        vip: Ipv4Addr,
        /// Its current physical address.
        phys: Ipv4Addr,
    },
    /// Flooded invalidation of cached mappings for `vip`.
    Invalidate {
        /// The moved mobile's VIP.
        vip: Ipv4Addr,
        /// Flood deduplication sequence.
        seq: u16,
    },
    /// Wrong-receiver notice: purge your mapping for `vip`.
    Misdelivery {
        /// The VIP whose mapping is stale.
        vip: Ipv4Addr,
    },
}

impl VipMessage {
    /// Encodes to control bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12);
        match self {
            VipMessage::TempRequest { vip } => {
                buf.push(1);
                buf.extend_from_slice(&vip.octets());
            }
            VipMessage::TempAssign { vip, temp, prefix_len } => {
                buf.push(2);
                buf.extend_from_slice(&vip.octets());
                buf.extend_from_slice(&temp.octets());
                buf.push(*prefix_len);
            }
            VipMessage::HomeRegister { vip, phys } => {
                buf.push(3);
                buf.extend_from_slice(&vip.octets());
                buf.extend_from_slice(&phys.octets());
            }
            VipMessage::Invalidate { vip, seq } => {
                buf.push(4);
                buf.extend_from_slice(&vip.octets());
                buf.extend_from_slice(&seq.to_be_bytes());
            }
            VipMessage::Misdelivery { vip } => {
                buf.push(5);
                buf.extend_from_slice(&vip.octets());
            }
        }
        buf
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<VipMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        let addr = |b: &[u8]| Ipv4Addr::new(b[0], b[1], b[2], b[3]);
        let need = |n: usize| if rest.len() < n { Err(PacketError::Truncated) } else { Ok(()) };
        Ok(match ty {
            1 => {
                need(4)?;
                VipMessage::TempRequest { vip: addr(&rest[..4]) }
            }
            2 => {
                need(9)?;
                VipMessage::TempAssign {
                    vip: addr(&rest[..4]),
                    temp: addr(&rest[4..8]),
                    prefix_len: rest[8],
                }
            }
            3 => {
                need(8)?;
                VipMessage::HomeRegister { vip: addr(&rest[..4]), phys: addr(&rest[4..8]) }
            }
            4 => {
                need(6)?;
                VipMessage::Invalidate {
                    vip: addr(&rest[..4]),
                    seq: u16::from_be_bytes([rest[4], rest[5]]),
                }
            }
            5 => {
                need(4)?;
                VipMessage::Misdelivery { vip: addr(&rest[..4]) }
            }
            _ => return Err(PacketError::BadField("vip message type")),
        })
    }
}

/// The decoded VIP shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VipShim {
    /// Destination VIP.
    pub vip_dst: Ipv4Addr,
    /// Source VIP.
    pub vip_src: Ipv4Addr,
    /// The protocol of the carried transport payload.
    pub orig_proto: u8,
}

/// Wraps a plain packet in the 28-byte VIP shim; the outer destination is
/// the (believed) physical address `phys_dst`.
pub fn vip_encapsulate(pkt: &mut Ipv4Packet, phys_src: Ipv4Addr, phys_dst: Ipv4Addr) {
    let mut shim = Vec::with_capacity(VIP_SHIM_LEN + pkt.payload.len());
    shim.extend_from_slice(&pkt.dst.octets());
    shim.extend_from_slice(&pkt.src.octets());
    shim.push(pkt.protocol);
    shim.extend_from_slice(&[0; VIP_SHIM_LEN - 9]);
    shim.extend_from_slice(&pkt.payload);
    pkt.payload = shim;
    pkt.protocol = proto::VIP;
    pkt.src = phys_src;
    pkt.dst = phys_dst;
}

/// Reads the shim of a VIP packet.
///
/// # Errors
///
/// Returns [`PacketError`] if the packet is not a valid VIP packet.
pub fn vip_shim(pkt: &Ipv4Packet) -> Result<VipShim, PacketError> {
    if pkt.protocol != proto::VIP || pkt.payload.len() < VIP_SHIM_LEN {
        return Err(PacketError::Truncated);
    }
    let p = &pkt.payload;
    Ok(VipShim {
        vip_dst: Ipv4Addr::new(p[0], p[1], p[2], p[3]),
        vip_src: Ipv4Addr::new(p[4], p[5], p[6], p[7]),
        orig_proto: p[8],
    })
}

/// Strips the shim, restoring the plain packet (VIP addresses become the
/// IP addresses).
///
/// # Errors
///
/// Returns [`PacketError`] if the packet is not a valid VIP packet.
pub fn vip_decapsulate(pkt: &mut Ipv4Packet) -> Result<VipShim, PacketError> {
    let shim = vip_shim(pkt)?;
    pkt.protocol = shim.orig_proto;
    pkt.src = shim.vip_src;
    pkt.dst = shim.vip_dst;
    pkt.payload.drain(..VIP_SHIM_LEN);
    Ok(shim)
}

/// A router in the VIP internet: observes and rewrites VIP traffic,
/// participates in invalidation flooding, assigns temporary addresses on
/// its local network, and (for its own prefix) holds the authoritative
/// home mapping.
#[derive(Debug)]
pub struct VipRouterNode {
    /// The IP engine (forwarding enabled).
    pub stack: IpStack,
    /// The interface hosts connect on.
    pub local_iface: IfaceId,
    /// Probability that a flood message is applied/propagated here —
    /// below 1.0 leaves the stale entries §7 warns about.
    pub flood_apply_prob: f64,
    /// Neighbour routers in the flooding overlay.
    pub flood_peers: Vec<Ipv4Addr>,
    /// Temporary address pool for the local network (None = no assignment
    /// service here).
    pub pool: Option<TempAddrPool>,
    cache: HashMap<Ipv4Addr, Ipv4Addr>,
    home_bindings: HashMap<Ipv4Addr, Ipv4Addr>,
    seen_floods: HashSet<(Ipv4Addr, u16)>,
}

impl VipRouterNode {
    /// Creates a VIP router serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> VipRouterNode {
        VipRouterNode {
            stack: IpStack::new(true),
            local_iface,
            flood_apply_prob: 1.0,
            flood_peers: Vec::new(),
            pool: None,
            cache: HashMap::new(),
            home_bindings: HashMap::new(),
            seen_floods: HashSet::new(),
        }
    }

    /// Observed-mapping cache size (state metric, E07).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The cached physical address for `vip` (tests/metrics).
    pub fn cached_phys(&self, vip: Ipv4Addr) -> Option<Ipv4Addr> {
        self.cache.get(&vip).copied()
    }

    fn beacon(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ia) = self.stack.iface_addr(self.local_iface) else { return };
        if !ctx.iface_attached(self.local_iface) {
            return;
        }
        let beacon = Beacon { agent: ia.addr, protocol: proto::VIP };
        let d = UdpDatagram::new(BEACON_PORT, BEACON_PORT, beacon.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(ia.addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
            .with_ident(ident)
            .with_ttl(1);
        self.stack.send_link_broadcast(ctx, self.local_iface, pkt);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, src: Ipv4Addr, msg: VipMessage) {
        match msg {
            VipMessage::TempRequest { vip } => {
                let temp = self
                    .pool
                    .as_mut()
                    .and_then(TempAddrPool::allocate)
                    .unwrap_or(Ipv4Addr::UNSPECIFIED);
                if temp.is_unspecified() {
                    ctx.stats().incr("vip.pool_exhausted");
                }
                let prefix_len = self.pool.as_ref().map(|p| p.prefix().len()).unwrap_or(24);
                let reply = VipMessage::TempAssign { vip, temp, prefix_len };
                let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, reply.encode());
                let ident = self.stack.next_ident();
                // The requester has no usable address yet: answer with a
                // link broadcast it will hear.
                let self_addr = self
                    .stack
                    .iface_addr(self.local_iface)
                    .map(|ia| ia.addr)
                    .unwrap_or(Ipv4Addr::UNSPECIFIED);
                let pkt = Ipv4Packet::new(self_addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
                    .with_ident(ident)
                    .with_ttl(1);
                self.stack.send_link_broadcast(ctx, self.local_iface, pkt);
            }
            VipMessage::HomeRegister { vip, phys } => {
                ctx.stats().incr("vip.home_registrations");
                self.home_bindings.insert(vip, phys);
            }
            VipMessage::Invalidate { vip, seq } => {
                self.handle_flood(ctx, vip, seq, Some(src));
            }
            VipMessage::Misdelivery { .. } | VipMessage::TempAssign { .. } => {}
        }
    }

    fn handle_flood(
        &mut self,
        ctx: &mut Ctx<'_>,
        vip: Ipv4Addr,
        seq: u16,
        _from: Option<Ipv4Addr>,
    ) {
        if !self.seen_floods.insert((vip, seq)) {
            return;
        }
        ctx.stats().incr("vip.flood_messages");
        use rand::RngExt;
        if ctx.rng().random::<f64>() < self.flood_apply_prob {
            self.cache.remove(&vip);
        } else {
            // This router missed the invalidation: the stale-entry case.
            ctx.stats().incr("vip.flood_missed");
        }
        let msg = VipMessage::Invalidate { vip, seq };
        let peers = self.flood_peers.clone();
        for peer in peers {
            self.stack.send_udp(ctx, peer, CONTROL_PORT, CONTROL_PORT, msg.encode());
        }
    }

    /// Starts an invalidation flood from this router (the home router does
    /// this when its mobile registers a new physical address).
    pub fn start_flood(&mut self, ctx: &mut Ctx<'_>, vip: Ipv4Addr, seq: u16) {
        self.handle_flood(ctx, vip, seq, None);
    }
}

impl Node for VipRouterNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => match pkt.protocol {
                    proto::UDP => {
                        let Ok(d) = UdpDatagram::decode(&pkt.payload) else { return };
                        if d.dst_port == CONTROL_PORT {
                            if let Ok(msg) = VipMessage::decode(&d.payload) {
                                let from = pkt.src;
                                self.on_control(ctx, from, msg);
                            }
                        }
                    }
                    proto::ICMP => {
                        netstack::nodes::handle_icmp_delivery(&mut self.stack, ctx, &pkt);
                    }
                    _ => {}
                },
                StackEvent::ForwardCandidate { mut pkt, .. } => {
                    if pkt.protocol == proto::ICMP {
                        // §7: "The error message will also cause the cache
                        // entries at the routers through which it passes
                        // to be removed."
                        if let Ok(msg) = IcmpMessage::decode(&pkt.payload) {
                            if msg.is_error() {
                                if let Some(original) = msg.original() {
                                    if original.len() >= 24 && original[9] == proto::VIP {
                                        let hl = usize::from(original[0] & 0xf) * 4;
                                        if original.len() >= hl + 4 {
                                            let b = &original[hl..hl + 4];
                                            let vip = Ipv4Addr::new(b[0], b[1], b[2], b[3]);
                                            if self.cache.remove(&vip).is_some() {
                                                ctx.stats().incr("vip.router_cache_purges");
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    if pkt.protocol == proto::VIP {
                        if let Ok(shim) = vip_shim(&pkt) {
                            // Observational caching (§7: routers "cache the
                            // location of mobile hosts by remembering the
                            // source IP and VIP addresses").
                            if shim.vip_src != pkt.src {
                                self.cache.insert(shim.vip_src, pkt.src);
                            }
                            // Unresolved packets (phys == vip): the home
                            // router (authoritative) or any cache fills in
                            // the real physical address and re-routes.
                            if pkt.dst == shim.vip_dst {
                                let known = self
                                    .home_bindings
                                    .get(&shim.vip_dst)
                                    .or_else(|| self.cache.get(&shim.vip_dst))
                                    .copied();
                                if let Some(phys) = known {
                                    if phys != pkt.dst && !phys.is_unspecified() {
                                        ctx.stats().incr("vip.rewritten");
                                        pkt.dst = phys;
                                    }
                                }
                            }
                        }
                    }
                    self.stack.forward(ctx, pkt);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if self.stack.on_timer(ctx, timer) {
            return;
        }
        if timer.0 & BEACON_TIMER != 0 {
            self.beacon(ctx);
            ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
        }
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
        }
    }
}

/// Common VIP endpoint behaviour shared by stationary and mobile hosts.
#[derive(Debug)]
struct VipEndpoint {
    vip: Ipv4Addr,
    cache: HashMap<Ipv4Addr, Ipv4Addr>,
    // Per-data-packet counters, cached to keep the send path free of
    // name hashing.
    data_sent: Counter,
    overhead_bytes: Counter,
}

impl VipEndpoint {
    fn new(vip: Ipv4Addr) -> VipEndpoint {
        VipEndpoint {
            vip,
            cache: HashMap::new(),
            data_sent: Counter::new("vip.data_sent"),
            overhead_bytes: Counter::new("vip.overhead_bytes"),
        }
    }
}

impl VipEndpoint {
    fn send(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        phys_src: Ipv4Addr,
        mut pkt: Ipv4Packet,
    ) {
        let phys_dst = self.cache.get(&pkt.dst).copied().unwrap_or(pkt.dst);
        self.overhead_bytes.add(ctx.stats(), VIP_SHIM_LEN as u64);
        self.data_sent.incr(ctx.stats());
        ctx.tele_event(TeleEventKind::Encap { by_sender: true });
        vip_encapsulate(&mut pkt, phys_src, phys_dst);
        stack.send(ctx, pkt);
    }

    /// Returns the restored plain packet, or `None` (misdelivery handled).
    fn receive(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mut pkt: Ipv4Packet,
    ) -> Option<Ipv4Packet> {
        let shim = vip_shim(&pkt).ok()?;
        if shim.vip_dst != self.vip {
            // Misdelivered (stale mapping somewhere): tell the sender.
            ctx.stats().incr("vip.misdelivered");
            let phys = self.cache.get(&shim.vip_src).copied().unwrap_or(shim.vip_src);
            let msg = VipMessage::Misdelivery { vip: shim.vip_dst };
            stack.send_udp(ctx, phys, CONTROL_PORT, CONTROL_PORT, msg.encode());
            return None;
        }
        // Learn the peer's physical address from the outer source.
        if pkt.src != shim.vip_src {
            self.cache.insert(shim.vip_src, pkt.src);
        }
        vip_decapsulate(&mut pkt).ok()?;
        ctx.tele_event(TeleEventKind::Decap);
        Some(pkt)
    }

    fn handle_error_or_notice(&mut self, ctx: &mut Ctx<'_>, vip: Ipv4Addr) {
        ctx.stats().incr("vip.cache_purges");
        self.cache.remove(&vip);
    }
}

/// A stationary VIP host.
#[derive(Debug)]
pub struct VipHostNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    vip: VipEndpoint,
}

impl VipHostNode {
    /// Creates a stationary host whose VIP equals its physical address.
    pub fn new(vip: Ipv4Addr) -> VipHostNode {
        VipHostNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            vip: VipEndpoint::new(vip),
        }
    }

    /// The cached physical address for a peer VIP.
    pub fn cached_phys(&self, vip: Ipv4Addr) -> Option<Ipv4Addr> {
        self.vip.cache.get(&vip).copied()
    }

    /// Pings `dst` (a VIP address).
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), self.vip.vip, dst);
        let phys_src = self.stack.primary_addr();
        self.vip.send(&mut self.stack, ctx, phys_src, pkt);
    }

    /// Sends UDP to a VIP address.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let pkt = Endpoint::make_udp(self.vip.vip, dst, src_port, dst_port, payload);
        let phys_src = self.stack.primary_addr();
        self.vip.send(&mut self.stack, ctx, phys_src, pkt);
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        match pkt.protocol {
            proto::VIP => {
                if let Some(plain) = self.vip.receive(&mut self.stack, ctx, pkt) {
                    // Replies must also travel as VIP packets; intercept
                    // echo ourselves instead of using the plain autoreply.
                    if let Ok(IcmpMessage::EchoRequest { ident, seq, payload }) =
                        IcmpMessage::decode(&plain.payload)
                    {
                        let reply = IcmpMessage::EchoReply { ident, seq, payload };
                        let rp =
                            Ipv4Packet::new(self.vip.vip, plain.src, proto::ICMP, reply.encode());
                        let phys_src = self.stack.primary_addr();
                        self.vip.send(&mut self.stack, ctx, phys_src, rp);
                        return;
                    }
                    self.endpoint.deliver(&mut self.stack, ctx, &plain);
                }
            }
            proto::UDP => {
                if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                    if d.dst_port == CONTROL_PORT {
                        if let Ok(VipMessage::Misdelivery { vip }) = VipMessage::decode(&d.payload)
                        {
                            self.vip.handle_error_or_notice(ctx, vip);
                        }
                        return;
                    }
                }
                self.endpoint.deliver(&mut self.stack, ctx, &pkt);
            }
            proto::ICMP => {
                // An unreachable about a VIP packet we sent: purge the
                // stale mapping; the next send falls back via home.
                if let Ok(msg) = IcmpMessage::decode(&pkt.payload) {
                    if msg.is_error() {
                        if let Some(original) = msg.original() {
                            if original.len() >= 20 + 4 && original[9] == proto::VIP {
                                let hl = usize::from(original[0] & 0xf) * 4;
                                if original.len() >= hl + 4 {
                                    let b = &original[hl..hl + 4];
                                    let vip = Ipv4Addr::new(b[0], b[1], b[2], b[3]);
                                    self.vip.handle_error_or_notice(ctx, vip);
                                    self.endpoint.log.icmp_errors.push(msg);
                                    return;
                                }
                            }
                        }
                    }
                }
                self.endpoint.deliver(&mut self.stack, ctx, &pkt);
            }
            _ => {
                self.endpoint.deliver(&mut self.stack, ctx, &pkt);
            }
        }
    }
}

impl Node for VipHostNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(StackEvent::Deliver { pkt, .. }) = self.stack.handle_frame(ctx, iface, frame) {
            self.deliver(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }
}

/// A mobile VIP host: physical address changes on every move.
#[derive(Debug)]
pub struct VipMobileNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// The home network prefix.
    pub home_prefix: Prefix,
    /// The home router (authoritative mapping holder + flood origin).
    pub home_router: Ipv4Addr,
    /// Default gateway at home.
    pub home_gateway: Ipv4Addr,
    /// The current physical (temporary) address.
    pub phys: Ipv4Addr,
    vip: VipEndpoint,
    move_seq: u16,
    iface: IfaceId,
    awaiting_temp: bool,
    current_agent: Option<Ipv4Addr>,
}

impl VipMobileNode {
    /// Creates a mobile host (starts at home; physical = VIP).
    pub fn new(
        vip: Ipv4Addr,
        home_prefix: Prefix,
        home_router: Ipv4Addr,
        home_gateway: Ipv4Addr,
    ) -> VipMobileNode {
        VipMobileNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            home_prefix,
            home_router,
            home_gateway,
            phys: vip,
            vip: VipEndpoint::new(vip),
            move_seq: 0,
            iface: IfaceId(0),
            awaiting_temp: false,
            current_agent: None,
        }
    }

    /// The host's permanent VIP address.
    pub fn vip(&self) -> Ipv4Addr {
        self.vip.vip
    }

    /// Pings `dst` (a VIP address).
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), self.vip.vip, dst);
        let phys = self.phys;
        self.vip.send(&mut self.stack, ctx, phys, pkt);
    }

    /// Sends UDP to a VIP address.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let pkt = Endpoint::make_udp(self.vip.vip, dst, src_port, dst_port, payload);
        let phys = self.phys;
        self.vip.send(&mut self.stack, ctx, phys, pkt);
    }

    fn request_temp(&mut self, ctx: &mut Ctx<'_>, agent: Ipv4Addr) {
        self.awaiting_temp = true;
        self.current_agent = Some(agent);
        let msg = VipMessage::TempRequest { vip: self.vip.vip };
        let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, msg.encode());
        let pkt =
            Ipv4Packet::new(self.vip.vip, Ipv4Addr::BROADCAST, proto::UDP, d.encode()).with_ttl(1);
        self.stack.send_link_broadcast(ctx, self.iface, pkt);
    }

    fn adopt_temp(&mut self, ctx: &mut Ctx<'_>, temp: Ipv4Addr, prefix_len: u8, gateway: Ipv4Addr) {
        ctx.stats().incr("vip.mobile_moves");
        self.awaiting_temp = false;
        self.phys = temp;
        self.stack.remove_iface_binding(self.iface);
        self.stack.add_iface(self.iface, temp, Prefix::new(temp, prefix_len));
        self.stack.arp.clear_iface(self.iface);
        self.stack.routes.remove(Prefix::default_route());
        self.stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: gateway });
        // Register home and start the invalidation flood there.
        self.move_seq = self.move_seq.wrapping_add(1);
        let reg = VipMessage::HomeRegister { vip: self.vip.vip, phys: temp };
        self.stack.send_udp(ctx, self.home_router, CONTROL_PORT, CONTROL_PORT, reg.encode());
        let inv = VipMessage::Invalidate { vip: self.vip.vip, seq: self.move_seq };
        self.stack.send_udp(ctx, self.home_router, CONTROL_PORT, CONTROL_PORT, inv.encode());
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        match pkt.protocol {
            proto::VIP => {
                if let Some(plain) = self.vip.receive(&mut self.stack, ctx, pkt) {
                    if let Ok(IcmpMessage::EchoRequest { ident, seq, payload }) =
                        IcmpMessage::decode(&plain.payload)
                    {
                        let reply = IcmpMessage::EchoReply { ident, seq, payload };
                        let rp =
                            Ipv4Packet::new(self.vip.vip, plain.src, proto::ICMP, reply.encode());
                        let phys = self.phys;
                        self.vip.send(&mut self.stack, ctx, phys, rp);
                        return;
                    }
                    self.endpoint.deliver(&mut self.stack, ctx, &plain);
                }
            }
            proto::UDP => {
                if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                    if d.dst_port == BEACON_PORT {
                        if let Ok(b) = Beacon::decode(&d.payload) {
                            if b.protocol == proto::VIP
                                && self.current_agent != Some(b.agent)
                                && b.agent != self.home_gateway
                            {
                                self.request_temp(ctx, b.agent);
                            }
                        }
                        return;
                    }
                    if d.dst_port == CONTROL_PORT {
                        match VipMessage::decode(&d.payload) {
                            Ok(VipMessage::TempAssign { vip, temp, prefix_len })
                                if vip == self.vip.vip && self.awaiting_temp =>
                            {
                                if temp.is_unspecified() {
                                    ctx.stats().incr("vip.temp_denied");
                                } else {
                                    let gw = self.current_agent.unwrap_or(self.home_gateway);
                                    self.adopt_temp(ctx, temp, prefix_len, gw);
                                }
                            }
                            Ok(VipMessage::Misdelivery { vip }) => {
                                self.vip.handle_error_or_notice(ctx, vip);
                            }
                            _ => {}
                        }
                        return;
                    }
                }
                self.endpoint.deliver(&mut self.stack, ctx, &pkt);
            }
            _ => {
                self.endpoint.deliver(&mut self.stack, ctx, &pkt);
            }
        }
    }
}

impl Node for VipMobileNode {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.stack.add_iface(self.iface, self.vip.vip, self.home_prefix);
        self.stack.routes.add(
            Prefix::default_route(),
            NextHop::Gateway { iface: self.iface, via: self.home_gateway },
        );
        self.current_agent = Some(self.home_gateway);
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(StackEvent::Deliver { pkt, .. }) = self.stack.handle_frame(ctx, iface, frame) {
            self.deliver(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
            self.current_agent = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    #[test]
    fn messages_round_trip() {
        for m in [
            VipMessage::TempRequest { vip: a(1) },
            VipMessage::TempAssign { vip: a(1), temp: a(9), prefix_len: 24 },
            VipMessage::HomeRegister { vip: a(1), phys: a(9) },
            VipMessage::Invalidate { vip: a(1), seq: 3 },
            VipMessage::Misdelivery { vip: a(1) },
        ] {
            assert_eq!(VipMessage::decode(&m.encode()).unwrap(), m);
        }
        assert!(VipMessage::decode(&[77]).is_err());
    }

    #[test]
    fn shim_is_28_bytes_and_round_trips() {
        // §7: "The overhead added to each packet for the VIP header is
        // 28 bytes."
        let mut pkt = Ipv4Packet::new(a(1), a(7), proto::UDP, b"data".to_vec());
        let before = pkt.wire_len();
        vip_encapsulate(&mut pkt, a(100), a(101));
        assert_eq!(pkt.wire_len(), before + VIP_SHIM_LEN);
        assert_eq!(VIP_SHIM_LEN, 28);
        let shim = vip_decapsulate(&mut pkt).unwrap();
        assert_eq!(shim.vip_src, a(1));
        assert_eq!(shim.vip_dst, a(7));
        assert_eq!(pkt.src, a(1));
        assert_eq!(pkt.dst, a(7));
        assert_eq!(pkt.protocol, proto::UDP);
        assert_eq!(pkt.payload, b"data");
    }

    #[test]
    fn shim_rejects_non_vip() {
        let pkt = Ipv4Packet::new(a(1), a(7), proto::UDP, vec![0; 40]);
        assert!(vip_shim(&pkt).is_err());
    }
}
