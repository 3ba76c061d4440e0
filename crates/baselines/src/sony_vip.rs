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
//! [`VipRouter::flood_apply_prob`]); a stale mapping misdelivers the
//! packet, the wrong receiver returns an error, and the sender
//! retransmits.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::Ipv4Packet;
use ip::{proto, PacketError, Prefix};
use netsim::{Counter, Ctx, IfaceId, LinkEvent, TeleEventKind, TimerToken};
use netstack::nodes::{handle_icmp_delivery, Endpoint, Protocol, StackNode};
use netstack::IpStack;

use crate::common::{
    beacon, control, decode_addrs, encode_msg, is_beacon_timer, link_broadcast, Heard, MobileShell,
    SendPath, TempAddrPool, CONTROL_PORT,
};

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
        match *self {
            VipMessage::TempRequest { vip } => encode_msg(1, &[vip]),
            VipMessage::TempAssign { vip, temp, prefix_len } => {
                let mut buf = encode_msg(2, &[vip, temp]);
                buf.push(prefix_len);
                buf
            }
            VipMessage::HomeRegister { vip, phys } => encode_msg(3, &[vip, phys]),
            VipMessage::Invalidate { vip, seq } => {
                let mut buf = encode_msg(4, &[vip]);
                buf.extend_from_slice(&seq.to_be_bytes());
                buf
            }
            VipMessage::Misdelivery { vip } => encode_msg(5, &[vip]),
        }
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<VipMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        Ok(match ty {
            1 => VipMessage::TempRequest { vip: decode_addrs::<1>(rest)?[0] },
            2 => {
                let [vip, temp] = decode_addrs(rest)?;
                let prefix_len = *rest.get(8).ok_or(PacketError::Truncated)?;
                VipMessage::TempAssign { vip, temp, prefix_len }
            }
            3 => {
                let [vip, phys] = decode_addrs(rest)?;
                VipMessage::HomeRegister { vip, phys }
            }
            4 => {
                let [vip] = decode_addrs(rest)?;
                let seq = rest.get(4..6).ok_or(PacketError::Truncated)?;
                VipMessage::Invalidate { vip, seq: u16::from_be_bytes([seq[0], seq[1]]) }
            }
            5 => VipMessage::Misdelivery { vip: decode_addrs::<1>(rest)?[0] },
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
pub type VipRouterNode = StackNode<VipRouter>;

/// The protocol of a [`VipRouterNode`].
#[derive(Debug)]
pub struct VipRouter {
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

impl VipRouter {
    /// A VIP router serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> VipRouter {
        VipRouter {
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

    fn on_control(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, msg: VipMessage) {
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
                // The requester has no usable address yet: answer with a
                // link broadcast it will hear.
                let self_addr = stack
                    .iface_addr(self.local_iface)
                    .map(|ia| ia.addr)
                    .unwrap_or(Ipv4Addr::UNSPECIFIED);
                link_broadcast(
                    stack,
                    ctx,
                    self.local_iface,
                    self_addr,
                    CONTROL_PORT,
                    reply.encode(),
                );
            }
            VipMessage::HomeRegister { vip, phys } => {
                ctx.stats().incr("vip.home_registrations");
                self.home_bindings.insert(vip, phys);
            }
            VipMessage::Invalidate { vip, seq } => self.handle_flood(stack, ctx, vip, seq),
            VipMessage::Misdelivery { .. } | VipMessage::TempAssign { .. } => {}
        }
    }

    fn handle_flood(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, vip: Ipv4Addr, seq: u16) {
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
        for &peer in &self.flood_peers {
            stack.send_udp(ctx, peer, CONTROL_PORT, CONTROL_PORT, msg.encode());
        }
    }
}

impl Protocol for VipRouter {
    fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        beacon(stack, ctx, self.local_iface, proto::VIP);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::ICMP {
            handle_icmp_delivery(stack, ctx, &pkt);
        } else if let Some(Ok(msg)) = control(&pkt).map(|c| VipMessage::decode(&c)) {
            self.on_control(stack, ctx, msg);
        }
    }

    fn forward(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        // §7: "The error message will also cause the cache entries at the
        // routers through which it passes to be removed."
        if let Some((vip, _)) = errored_vip(&pkt) {
            if self.cache.remove(&vip).is_some() {
                ctx.stats().incr("vip.router_cache_purges");
            }
        }
        if let Ok(shim) = vip_shim(&pkt) {
            // Observational caching (§7: routers "cache the location of
            // mobile hosts by remembering the source IP and VIP
            // addresses").
            if shim.vip_src != pkt.src {
                self.cache.insert(shim.vip_src, pkt.src);
            }
            // Unresolved packets (phys == vip): the home router
            // (authoritative) or any cache fills in the real physical
            // address and re-routes.
            if pkt.dst == shim.vip_dst {
                let known = self
                    .home_bindings
                    .get(&shim.vip_dst)
                    .or_else(|| self.cache.get(&shim.vip_dst))
                    .copied();
                if let Some(phys) = known.filter(|p| *p != pkt.dst && !p.is_unspecified()) {
                    ctx.stats().incr("vip.rewritten");
                    pkt.dst = phys;
                }
            }
        }
        stack.forward(ctx, pkt);
    }

    fn timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if is_beacon_timer(timer) {
            beacon(stack, ctx, self.local_iface, proto::VIP);
        }
    }
}

/// The ICMP error in `pkt` and the destination VIP of the VIP packet it
/// quotes, if `pkt` is such an error.
fn errored_vip(pkt: &Ipv4Packet) -> Option<(Ipv4Addr, IcmpMessage)> {
    if pkt.protocol != proto::ICMP {
        return None;
    }
    let msg = IcmpMessage::decode(&pkt.payload).ok().filter(IcmpMessage::is_error)?;
    let original = msg.original()?;
    if original.len() < 24 || original[9] != proto::VIP {
        return None;
    }
    let hl = usize::from(original[0] & 0xf) * 4;
    let b = original.get(hl..hl + 4)?;
    Some((Ipv4Addr::new(b[0], b[1], b[2], b[3]), msg))
}

// Per-data-packet counters.
static DATA_SENT: Counter = Counter::new("vip.data_sent");
static OVERHEAD_BYTES: Counter = Counter::new("vip.overhead_bytes");

/// Common VIP endpoint behaviour shared by stationary and mobile hosts.
#[derive(Debug)]
struct VipEndpoint {
    vip: Ipv4Addr,
    cache: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl VipEndpoint {
    fn new(vip: Ipv4Addr) -> VipEndpoint {
        VipEndpoint { vip, cache: HashMap::new() }
    }

    fn send(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        phys_src: Ipv4Addr,
        mut pkt: Ipv4Packet,
    ) {
        let phys_dst = self.cache.get(&pkt.dst).copied().unwrap_or(pkt.dst);
        OVERHEAD_BYTES.add(ctx.stats(), VIP_SHIM_LEN as u64);
        DATA_SENT.incr(ctx.stats());
        ctx.tele_event(TeleEventKind::Encap { by_sender: true });
        vip_encapsulate(&mut pkt, phys_src, phys_dst);
        stack.send(ctx, pkt);
    }

    /// Handles a VIP packet for `endpoint`: reports a misdelivery, or
    /// unwraps it and answers an echo request itself (replies must also
    /// travel as VIP packets, from `phys_src`, or from the stack's
    /// primary address when `None`).
    fn receive(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        endpoint: &mut Endpoint,
        phys_src: Option<Ipv4Addr>,
        mut pkt: Ipv4Packet,
    ) {
        let Ok(shim) = vip_shim(&pkt) else { return };
        if shim.vip_dst != self.vip {
            // Misdelivered (stale mapping somewhere): tell the sender.
            ctx.stats().incr("vip.misdelivered");
            let phys = self.cache.get(&shim.vip_src).copied().unwrap_or(shim.vip_src);
            let msg = VipMessage::Misdelivery { vip: shim.vip_dst };
            stack.send_udp(ctx, phys, CONTROL_PORT, CONTROL_PORT, msg.encode());
            return;
        }
        // Learn the peer's physical address from the outer source.
        if pkt.src != shim.vip_src {
            self.cache.insert(shim.vip_src, pkt.src);
        }
        if vip_decapsulate(&mut pkt).is_err() {
            return;
        }
        ctx.tele_event(TeleEventKind::Decap);
        if let Ok(IcmpMessage::EchoRequest { ident, seq, payload }) =
            IcmpMessage::decode(&pkt.payload)
        {
            let reply = IcmpMessage::EchoReply { ident, seq, payload };
            let rp = Ipv4Packet::new(self.vip, pkt.src, proto::ICMP, reply.encode());
            let phys_src = phys_src.unwrap_or_else(|| stack.primary_addr());
            self.send(stack, ctx, phys_src, rp);
            return;
        }
        endpoint.deliver(stack, ctx, &pkt);
    }

    fn purge(&mut self, ctx: &mut Ctx<'_>, vip: Ipv4Addr) {
        ctx.stats().incr("vip.cache_purges");
        self.cache.remove(&vip);
    }
}

/// A stationary VIP host.
pub type VipHostNode = StackNode<VipHost>;

/// The protocol of a [`VipHostNode`].
#[derive(Debug)]
pub struct VipHost {
    /// The application layer.
    pub endpoint: Endpoint,
    vip: VipEndpoint,
}

impl VipHost {
    /// A stationary host whose VIP equals its physical address.
    pub fn new(vip: Ipv4Addr) -> VipHost {
        VipHost { endpoint: Endpoint::new(), vip: VipEndpoint::new(vip) }
    }
}

impl SendPath for VipHost {
    /// VIP-wrapped, from the physical address.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        let phys_src = stack.primary_addr();
        self.vip.send(stack, ctx, phys_src, pkt);
    }

    fn source(&self, _: &IpStack, _: Ipv4Addr) -> Ipv4Addr {
        self.vip.vip
    }
}

impl Protocol for VipHost {
    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::VIP {
            self.vip.receive(stack, ctx, &mut self.endpoint, None, pkt);
            return;
        }
        match control(&pkt).map(|c| VipMessage::decode(&c)) {
            Some(Ok(VipMessage::Misdelivery { vip })) => self.vip.purge(ctx, vip),
            Some(_) => {}
            // An unreachable about a VIP packet we sent: purge the stale
            // mapping; the next send falls back via home.
            None => match errored_vip(&pkt) {
                Some((vip, msg)) => {
                    self.vip.purge(ctx, vip);
                    self.endpoint.log.icmp_errors.push(msg);
                }
                None => {
                    self.endpoint.deliver(stack, ctx, &pkt);
                }
            },
        }
    }
}

/// A mobile VIP host: physical address changes on every move.
pub type VipMobileNode = StackNode<VipMobile>;

/// The protocol of a [`VipMobileNode`]; its shell's home address is the
/// VIP and its agent the router it asked for a temporary address.
#[derive(Debug)]
pub struct VipMobile {
    /// The VIP, home gateway and current router.
    pub shell: MobileShell,
    /// The application layer.
    pub endpoint: Endpoint,
    /// The home router (authoritative mapping holder + flood origin).
    pub home_router: Ipv4Addr,
    /// The current physical (temporary) address.
    pub phys: Ipv4Addr,
    vip: VipEndpoint,
    move_seq: u16,
    awaiting_temp: bool,
}

impl VipMobile {
    /// A mobile host at home (physical = VIP).
    pub fn new(
        vip: Ipv4Addr,
        home_prefix: Prefix,
        home_router: Ipv4Addr,
        home_gateway: Ipv4Addr,
    ) -> VipMobile {
        VipMobile {
            shell: MobileShell::new(vip, home_prefix, home_gateway),
            endpoint: Endpoint::new(),
            home_router,
            phys: vip,
            vip: VipEndpoint::new(vip),
            move_seq: 0,
            awaiting_temp: false,
        }
    }

    fn adopt_temp(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        temp: Ipv4Addr,
        prefix_len: u8,
        gateway: Ipv4Addr,
    ) {
        ctx.stats().incr("vip.mobile_moves");
        self.awaiting_temp = false;
        self.phys = temp;
        MobileShell::rebind(stack, temp, Prefix::new(temp, prefix_len), gateway);
        // Register home and start the invalidation flood there.
        self.move_seq = self.move_seq.wrapping_add(1);
        let reg = VipMessage::HomeRegister { vip: self.vip.vip, phys: temp };
        stack.send_udp(ctx, self.home_router, CONTROL_PORT, CONTROL_PORT, reg.encode());
        let inv = VipMessage::Invalidate { vip: self.vip.vip, seq: self.move_seq };
        stack.send_udp(ctx, self.home_router, CONTROL_PORT, CONTROL_PORT, inv.encode());
    }
}

impl SendPath for VipMobile {
    /// VIP-wrapped, from the current physical address.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        self.vip.send(stack, ctx, self.phys, pkt);
    }

    fn source(&self, _: &IpStack, _: Ipv4Addr) -> Ipv4Addr {
        self.vip.vip
    }
}

impl Protocol for VipMobile {
    fn start(&mut self, stack: &mut IpStack, _ctx: &mut Ctx<'_>) {
        self.shell.start(stack);
        self.shell.agent = Some(self.shell.home_gateway);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::VIP {
            self.vip.receive(stack, ctx, &mut self.endpoint, Some(self.phys), pkt);
            return;
        }
        match MobileShell::hear(&pkt, proto::VIP) {
            Heard::Agent(router) => {
                if self.shell.agent != Some(router) && router != self.shell.home_gateway {
                    self.awaiting_temp = true;
                    let msg = VipMessage::TempRequest { vip: self.vip.vip };
                    self.shell.ask(stack, ctx, router, msg.encode());
                }
            }
            Heard::Noise => {}
            Heard::Other => match control(&pkt).map(|c| VipMessage::decode(&c)) {
                Some(Ok(VipMessage::TempAssign { vip, temp, prefix_len }))
                    if vip == self.vip.vip && self.awaiting_temp =>
                {
                    if temp.is_unspecified() {
                        ctx.stats().incr("vip.temp_denied");
                    } else {
                        let gw = self.shell.agent.unwrap_or(self.shell.home_gateway);
                        self.adopt_temp(stack, ctx, temp, prefix_len, gw);
                    }
                }
                Some(Ok(VipMessage::Misdelivery { vip })) => self.vip.purge(ctx, vip),
                Some(_) => {}
                None => {
                    self.endpoint.deliver(stack, ctx, &pkt);
                }
            },
        }
    }

    fn link(&mut self, _: &mut IpStack, _: &mut Ctx<'_>, _: IfaceId, event: LinkEvent) {
        self.shell.link(event);
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
