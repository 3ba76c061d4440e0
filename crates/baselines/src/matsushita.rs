//! The Matsushita packet-forwarding protocol (Wada et al.) — baseline
//! four of the paper's §7.
//!
//! A **Packet Forwarding Server** (PFS) on the mobile host's home network
//! intercepts its packets and tunnels them with **IPTP** to the temporary
//! address the host obtained on the visited network. The tunnel adds
//! **40 bytes** (a new 20-byte IP header plus a 20-byte IPTP header, §7).
//!
//! * **Forwarding mode**: everything goes through the PFS — "optimization
//!   of the routing to avoid going through the home network is not
//!   possible".
//! * **Autonomous mode**: the sender caches the temporary address (learned
//!   from a PFS notification) and tunnels directly. Nothing updates that
//!   cache on movement; a stale temporary address surfaces as an
//!   unreachable error and the sender falls back to forwarding mode.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use ip::{proto, PacketError, Prefix};
use netsim::time::SimDuration;
use netsim::{Counter, Ctx, Frame, IfaceId, LinkEvent, Node, TimerToken};
use netstack::nodes::Endpoint;
use netstack::route::NextHop;
use netstack::{IpStack, StackEvent};

use crate::common::{Beacon, TempAddrPool, BEACON_PORT, CONTROL_PORT};

const BEACON_TIMER: u64 = 1 << 57;

/// Beacon interval for address-assignment agents.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// IPTP header length; with the new outer IP header the per-packet
/// overhead is §7's 40 bytes.
pub const IPTP_HEADER_LEN: usize = 20;

/// Total per-packet tunnel overhead.
pub const IPTP_OVERHEAD: usize = 20 + IPTP_HEADER_LEN;

/// Control messages of the Matsushita protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IptpMessage {
    /// Mobile → assignment agent: give me a temporary address.
    TempRequest {
        /// The requesting mobile (home address).
        mobile: Ipv4Addr,
    },
    /// Agent → mobile: your temporary address (0 = exhausted).
    TempAssign {
        /// The requesting mobile.
        mobile: Ipv4Addr,
        /// The assigned address.
        temp: Ipv4Addr,
        /// Local prefix length.
        prefix_len: u8,
    },
    /// Mobile → PFS: tunnel my packets to `temp`.
    PfsRegister {
        /// The mobile host.
        mobile: Ipv4Addr,
        /// Its temporary address (0 = back home).
        temp: Ipv4Addr,
    },
    /// PFS → sender: `mobile` is reachable at `temp` (enables autonomous
    /// mode).
    TempNotify {
        /// The mobile host.
        mobile: Ipv4Addr,
        /// Its temporary address.
        temp: Ipv4Addr,
    },
}

impl IptpMessage {
    /// Encodes to control bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(10);
        match self {
            IptpMessage::TempRequest { mobile } => {
                buf.push(1);
                buf.extend_from_slice(&mobile.octets());
            }
            IptpMessage::TempAssign { mobile, temp, prefix_len } => {
                buf.push(2);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&temp.octets());
                buf.push(*prefix_len);
            }
            IptpMessage::PfsRegister { mobile, temp } => {
                buf.push(3);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&temp.octets());
            }
            IptpMessage::TempNotify { mobile, temp } => {
                buf.push(4);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&temp.octets());
            }
        }
        buf
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<IptpMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        let addr = |b: &[u8]| Ipv4Addr::new(b[0], b[1], b[2], b[3]);
        let need = |n: usize| if rest.len() < n { Err(PacketError::Truncated) } else { Ok(()) };
        Ok(match ty {
            1 => {
                need(4)?;
                IptpMessage::TempRequest { mobile: addr(&rest[..4]) }
            }
            2 => {
                need(9)?;
                IptpMessage::TempAssign {
                    mobile: addr(&rest[..4]),
                    temp: addr(&rest[4..8]),
                    prefix_len: rest[8],
                }
            }
            3 => {
                need(8)?;
                IptpMessage::PfsRegister { mobile: addr(&rest[..4]), temp: addr(&rest[4..8]) }
            }
            4 => {
                need(8)?;
                IptpMessage::TempNotify { mobile: addr(&rest[..4]), temp: addr(&rest[4..8]) }
            }
            _ => return Err(PacketError::BadField("iptp message type")),
        })
    }
}

/// Wraps `inner` in an IPTP tunnel (new outer IP header + 20-byte IPTP
/// header: 40 bytes total).
pub fn iptp_encapsulate(
    inner: &Ipv4Packet,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
) -> Ipv4Packet {
    let mut payload = Vec::with_capacity(IPTP_HEADER_LEN + inner.wire_len());
    payload.extend_from_slice(&inner.dst.octets()); // ultimate destination
    payload.extend_from_slice(&inner.src.octets()); // original source
    payload.push(inner.protocol);
    payload.extend_from_slice(&[0; IPTP_HEADER_LEN - 9]);
    payload.extend_from_slice(&inner.encode());
    // Copy the inner TTL outward so hop counts survive the tunnel leg.
    Ipv4Packet::new(src, dst, proto::IPTP, payload).with_ident(ident).with_ttl(inner.ttl)
}

/// Unwraps an IPTP tunnel.
///
/// # Errors
///
/// Returns [`PacketError`] if the packet is not valid IPTP.
pub fn iptp_decapsulate(outer: &Ipv4Packet) -> Result<Ipv4Packet, PacketError> {
    if outer.protocol != proto::IPTP || outer.payload.len() < IPTP_HEADER_LEN {
        return Err(PacketError::Truncated);
    }
    let mut inner = Ipv4Packet::decode(&outer.payload[IPTP_HEADER_LEN..])?;
    inner.ttl = outer.ttl; // tunnel leg hops count toward the inner TTL
    Ok(inner)
}

// Per-forwarded-packet counters.
static FORWARDED: Counter = Counter::new("iptp.forwarded");
static OVERHEAD_BYTES: Counter = Counter::new("iptp.overhead_bytes");

/// The Packet Forwarding Server: a home-network router that intercepts
/// and tunnels its mobile hosts' packets.
#[derive(Debug)]
pub struct PfsNode {
    /// The IP engine (forwarding enabled).
    pub stack: IpStack,
    /// The home-network interface.
    pub home_iface: IfaceId,
    /// Whether the PFS notifies senders of temporary addresses, enabling
    /// autonomous mode.
    pub autonomous_notifications: bool,
    bindings: HashMap<Ipv4Addr, Ipv4Addr>,
    notified: HashSet<(Ipv4Addr, Ipv4Addr)>,
}

impl PfsNode {
    /// Creates a PFS on `home_iface`.
    pub fn new(home_iface: IfaceId) -> PfsNode {
        PfsNode {
            stack: IpStack::new(true),
            home_iface,
            autonomous_notifications: true,
            bindings: HashMap::new(),
            notified: HashSet::new(),
        }
    }

    /// The recorded temporary address for `mobile`.
    pub fn binding(&self, mobile: Ipv4Addr) -> Option<Ipv4Addr> {
        self.bindings.get(&mobile).copied()
    }

    fn self_addr(&self) -> Ipv4Addr {
        self.stack
            .iface_addr(self.home_iface)
            .map(|ia| ia.addr)
            .unwrap_or_else(|| self.stack.primary_addr())
    }
}

impl Node for PfsNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => {
                    if self.stack.is_captured(pkt.dst) && !self.stack.is_local_addr(pkt.dst) {
                        // Forwarding mode: tunnel to the temporary address.
                        let mobile = pkt.dst;
                        let Some(&temp) = self.bindings.get(&mobile) else {
                            ctx.stats().incr("iptp.no_binding");
                            return;
                        };
                        FORWARDED.incr(ctx.stats());
                        OVERHEAD_BYTES.add(ctx.stats(), IPTP_OVERHEAD as u64);
                        let sender = pkt.src;
                        let ident = self.stack.next_ident();
                        let mut outer = iptp_encapsulate(&pkt, self.self_addr(), temp, ident);
                        // The PFS is a router hop for the tunneled packet.
                        outer.ttl = outer.ttl.saturating_sub(1);
                        self.stack.send(ctx, outer);
                        if self.autonomous_notifications && self.notified.insert((sender, mobile)) {
                            let n = IptpMessage::TempNotify { mobile, temp };
                            self.stack.send_udp(
                                ctx,
                                sender,
                                CONTROL_PORT,
                                CONTROL_PORT,
                                n.encode(),
                            );
                        }
                        return;
                    }
                    match pkt.protocol {
                        proto::UDP => {
                            let Ok(d) = UdpDatagram::decode(&pkt.payload) else { return };
                            if d.dst_port != CONTROL_PORT {
                                return;
                            }
                            if let Ok(IptpMessage::PfsRegister { mobile, temp }) =
                                IptpMessage::decode(&d.payload)
                            {
                                ctx.stats().incr("iptp.registrations");
                                if temp.is_unspecified() {
                                    self.bindings.remove(&mobile);
                                    self.stack.remove_capture(mobile);
                                    self.stack.arp.remove_proxy(self.home_iface, mobile);
                                } else {
                                    self.bindings.insert(mobile, temp);
                                    self.stack.add_capture(mobile);
                                    self.stack.arp.add_proxy(self.home_iface, mobile);
                                    self.stack.send_gratuitous_arp(ctx, self.home_iface, mobile);
                                    // Movement invalidates who-was-notified.
                                    self.notified.retain(|(_, m)| *m != mobile);
                                }
                            }
                        }
                        proto::ICMP => {
                            netstack::nodes::handle_icmp_delivery(&mut self.stack, ctx, &pkt);
                        }
                        _ => {}
                    }
                }
                StackEvent::ForwardCandidate { pkt, .. } => self.stack.forward(ctx, pkt),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }
}

/// An address-assignment agent on a visited network (router + pool).
#[derive(Debug)]
pub struct IptpAgentNode {
    /// The IP engine (forwarding enabled).
    pub stack: IpStack,
    /// The local interface visitors attach to.
    pub local_iface: IfaceId,
    /// The temporary address pool.
    pub pool: TempAddrPool,
}

impl IptpAgentNode {
    /// Creates an agent with `pool` on `local_iface`.
    pub fn new(local_iface: IfaceId, pool: TempAddrPool) -> IptpAgentNode {
        IptpAgentNode { stack: IpStack::new(true), local_iface, pool }
    }

    fn beacon(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ia) = self.stack.iface_addr(self.local_iface) else { return };
        if !ctx.iface_attached(self.local_iface) {
            return;
        }
        let beacon = Beacon { agent: ia.addr, protocol: proto::IPTP };
        let d = UdpDatagram::new(BEACON_PORT, BEACON_PORT, beacon.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(ia.addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
            .with_ident(ident)
            .with_ttl(1);
        self.stack.send_link_broadcast(ctx, self.local_iface, pkt);
    }
}

impl Node for IptpAgentNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => {
                    if pkt.protocol != proto::UDP {
                        if pkt.protocol == proto::ICMP {
                            netstack::nodes::handle_icmp_delivery(&mut self.stack, ctx, &pkt);
                        }
                        return;
                    }
                    let Ok(d) = UdpDatagram::decode(&pkt.payload) else { return };
                    if d.dst_port != CONTROL_PORT {
                        return;
                    }
                    if let Ok(IptpMessage::TempRequest { mobile }) = IptpMessage::decode(&d.payload)
                    {
                        let temp = self.pool.allocate().unwrap_or(Ipv4Addr::UNSPECIFIED);
                        if temp.is_unspecified() {
                            ctx.stats().incr("iptp.pool_exhausted");
                        }
                        let reply = IptpMessage::TempAssign {
                            mobile,
                            temp,
                            prefix_len: self.pool.prefix().len(),
                        };
                        let dg = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, reply.encode());
                        let self_addr = self
                            .stack
                            .iface_addr(self.local_iface)
                            .map(|ia| ia.addr)
                            .unwrap_or(Ipv4Addr::UNSPECIFIED);
                        let ident = self.stack.next_ident();
                        let out = Ipv4Packet::new(
                            self_addr,
                            Ipv4Addr::BROADCAST,
                            proto::UDP,
                            dg.encode(),
                        )
                        .with_ident(ident)
                        .with_ttl(1);
                        self.stack.send_link_broadcast(ctx, self.local_iface, out);
                    }
                }
                StackEvent::ForwardCandidate { pkt, .. } => self.stack.forward(ctx, pkt),
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

/// A Matsushita mobile host.
#[derive(Debug)]
pub struct MatsushitaMobileNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// Home address.
    pub home_addr: Ipv4Addr,
    /// Home network prefix.
    pub home_prefix: Prefix,
    /// Default gateway at home.
    pub home_gateway: Ipv4Addr,
    /// The PFS on the home network.
    pub pfs: Ipv4Addr,
    /// Current temporary address, if visiting.
    pub temp: Option<Ipv4Addr>,
    iface: IfaceId,
    awaiting_temp: bool,
    current_agent: Option<Ipv4Addr>,
}

impl MatsushitaMobileNode {
    /// Creates the mobile host (starts at home).
    pub fn new(
        home_addr: Ipv4Addr,
        home_prefix: Prefix,
        home_gateway: Ipv4Addr,
        pfs: Ipv4Addr,
    ) -> MatsushitaMobileNode {
        MatsushitaMobileNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            home_addr,
            home_prefix,
            home_gateway,
            pfs,
            temp: None,
            iface: IfaceId(0),
            awaiting_temp: false,
            current_agent: None,
        }
    }

    fn adopt_temp(&mut self, ctx: &mut Ctx<'_>, temp: Ipv4Addr, prefix_len: u8, gateway: Ipv4Addr) {
        ctx.stats().incr("iptp.mobile_moves");
        self.awaiting_temp = false;
        self.temp = Some(temp);
        self.stack.remove_iface_binding(self.iface);
        self.stack.add_iface(self.iface, temp, Prefix::new(temp, prefix_len));
        self.stack.add_capture(self.home_addr);
        self.stack.arp.clear_iface(self.iface);
        self.stack.routes.remove(Prefix::default_route());
        self.stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: gateway });
        let reg = IptpMessage::PfsRegister { mobile: self.home_addr, temp };
        self.stack.send_udp(ctx, self.pfs, CONTROL_PORT, CONTROL_PORT, reg.encode());
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        match pkt.protocol {
            proto::IPTP => {
                if let Ok(inner) = iptp_decapsulate(&pkt) {
                    ctx.stats().incr("iptp.mobile_decapsulated");
                    self.endpoint.deliver(&mut self.stack, ctx, &inner);
                }
            }
            proto::UDP => {
                if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                    if d.dst_port == BEACON_PORT {
                        if let Ok(b) = Beacon::decode(&d.payload) {
                            if b.protocol == proto::IPTP && self.current_agent != Some(b.agent) {
                                self.awaiting_temp = true;
                                self.current_agent = Some(b.agent);
                                let req = IptpMessage::TempRequest { mobile: self.home_addr };
                                let dg = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, req.encode());
                                let out = Ipv4Packet::new(
                                    self.home_addr,
                                    Ipv4Addr::BROADCAST,
                                    proto::UDP,
                                    dg.encode(),
                                )
                                .with_ttl(1);
                                self.stack.send_link_broadcast(ctx, self.iface, out);
                            }
                        }
                        return;
                    }
                    if d.dst_port == CONTROL_PORT {
                        if let Ok(IptpMessage::TempAssign { mobile, temp, prefix_len }) =
                            IptpMessage::decode(&d.payload)
                        {
                            if mobile == self.home_addr && self.awaiting_temp {
                                if temp.is_unspecified() {
                                    ctx.stats().incr("iptp.temp_denied");
                                } else {
                                    let gw = self.current_agent.unwrap_or(self.home_gateway);
                                    self.adopt_temp(ctx, temp, prefix_len, gw);
                                }
                            }
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

impl Node for MatsushitaMobileNode {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.stack.add_iface(self.iface, self.home_addr, self.home_prefix);
        self.stack.routes.add(
            Prefix::default_route(),
            NextHop::Gateway { iface: self.iface, via: self.home_gateway },
        );
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

/// A correspondent host capable of autonomous mode.
#[derive(Debug)]
pub struct MatsushitaHostNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// Autonomous-mode cache: mobile home address → temporary address.
    bindings: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl MatsushitaHostNode {
    /// Creates the correspondent host.
    pub fn new() -> MatsushitaHostNode {
        MatsushitaHostNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            bindings: HashMap::new(),
        }
    }

    /// The cached temporary address for `mobile` (tests/metrics).
    pub fn cached_temp(&self, mobile: Ipv4Addr) -> Option<Ipv4Addr> {
        self.bindings.get(&mobile).copied()
    }

    /// Sends `pkt`; tunnels directly (autonomous mode) when a temporary
    /// address is cached.
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if let Some(&temp) = self.bindings.get(&pkt.dst) {
            ctx.stats().incr("iptp.autonomous_sent");
            ctx.stats().add("iptp.overhead_bytes", IPTP_OVERHEAD as u64);
            let src = pkt.src;
            let ident = self.stack.next_ident();
            let outer = iptp_encapsulate(&pkt, src, temp, ident);
            self.stack.send(ctx, outer);
        } else {
            self.stack.send(ctx, pkt);
        }
    }

    /// Convenience ping.
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let src = self.stack.pick_src(dst).expect("host has an address");
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), src, dst);
        self.send_data(ctx, pkt);
    }

    /// Convenience UDP send.
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
        self.send_data(ctx, pkt);
    }
}

impl Default for MatsushitaHostNode {
    fn default() -> MatsushitaHostNode {
        MatsushitaHostNode::new()
    }
}

impl Node for MatsushitaHostNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            let StackEvent::Deliver { pkt, .. } = ev else { return };
            match pkt.protocol {
                proto::UDP => {
                    if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                        if d.dst_port == CONTROL_PORT {
                            if let Ok(IptpMessage::TempNotify { mobile, temp }) =
                                IptpMessage::decode(&d.payload)
                            {
                                ctx.stats().incr("iptp.autonomous_enabled");
                                self.bindings.insert(mobile, temp);
                            }
                            return;
                        }
                    }
                    self.endpoint.deliver(&mut self.stack, ctx, &pkt);
                }
                proto::ICMP => {
                    // Unreachable about a tunneled packet: the temporary
                    // address went stale — fall back to forwarding mode.
                    if let Ok(msg) = IcmpMessage::decode(&pkt.payload) {
                        if msg.is_error() {
                            if let Some(original) = msg.original() {
                                if original.len() >= 20 + 8 && original[9] == proto::IPTP {
                                    let hl = usize::from(original[0] & 0xf) * 4;
                                    if original.len() >= hl + 4 {
                                        let b = &original[hl..hl + 4];
                                        let mobile = Ipv4Addr::new(b[0], b[1], b[2], b[3]);
                                        ctx.stats().incr("iptp.fallback_to_forwarding");
                                        self.bindings.remove(&mobile);
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
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
            IptpMessage::TempRequest { mobile: a(1) },
            IptpMessage::TempAssign { mobile: a(1), temp: a(9), prefix_len: 24 },
            IptpMessage::PfsRegister { mobile: a(1), temp: a(9) },
            IptpMessage::PfsRegister { mobile: a(1), temp: Ipv4Addr::UNSPECIFIED },
            IptpMessage::TempNotify { mobile: a(1), temp: a(9) },
        ] {
            assert_eq!(IptpMessage::decode(&m.encode()).unwrap(), m);
        }
        assert!(IptpMessage::decode(&[42]).is_err());
    }

    #[test]
    fn iptp_overhead_is_40_bytes() {
        // §7: "The overhead added to each packet with their protocol is
        // 40 bytes."
        let inner = Ipv4Packet::new(a(1), a(7), proto::UDP, vec![0; 16]);
        let outer = iptp_encapsulate(&inner, a(100), a(101), 1);
        assert_eq!(outer.wire_len(), inner.wire_len() + IPTP_OVERHEAD);
        assert_eq!(IPTP_OVERHEAD, 40);
        assert_eq!(iptp_decapsulate(&outer).unwrap(), inner);
    }

    #[test]
    fn iptp_decap_rejects_garbage() {
        let not_iptp = Ipv4Packet::new(a(1), a(2), proto::UDP, vec![0; 30]);
        assert!(iptp_decapsulate(&not_iptp).is_err());
    }
}
