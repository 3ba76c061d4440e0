//! The Columbia Mobile*IP protocol (Ioannidis et al., SIGCOMM '91) —
//! baseline two of the paper's §7.
//!
//! A campus is a set of networks, each served by a **Mobile Support
//! Router** (MSR). Every MSR advertises reachability for *all* of the
//! campus's mobile hosts (modeled here as address capture at each mobile
//! host's home MSR). Packets for a mobile host reach its home MSR, which
//! finds the MSR currently serving the host — **multicasting a query to
//! every other MSR on a cache miss** (the control-traffic cost §7 cites) —
//! and tunnels the packet with IP-in-IP, adding **24 bytes** (20-byte
//! outer IP header + the 4-byte campus shim).
//!
//! Outside the home campus ("popup" mode) the mobile host must obtain a
//! **temporary IP address** and all of its traffic is still anchored
//! through a home MSR: §7's "no provision for optimizing routing ...
//! outside its home campus".

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use ip::{proto, PacketError, Prefix};
use netsim::time::{SimDuration, SimTime};
use netsim::{Counter, Ctx, Frame, IfaceId, LinkEvent, Node, TeleEventKind, TimerToken};
use netstack::nodes::Endpoint;
use netstack::route::NextHop;
use netstack::{IpStack, StackEvent};

use crate::common::{Beacon, BEACON_PORT, CONTROL_PORT};

const BEACON_TIMER: u64 = 1 << 57;

/// Beacon interval for MSRs.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Visitor lease: the mobile host re-registers on every beacon; an MSR
/// whose visitor stops refreshing (it left the cell) forgets it — the
/// simulator's stand-in for the wireless layer's link-loss signal.
pub const VISITOR_LEASE: SimDuration = SimDuration::from_secs(3);

/// The 4-byte campus shim inside each IPIP tunnel (makes the measured
/// overhead exactly the 24 bytes §7 reports).
pub const IPIP_SHIM_LEN: usize = 4;

/// Total per-packet tunnel overhead: outer IP header + shim.
pub const IPIP_OVERHEAD: usize = 20 + IPIP_SHIM_LEN;

/// Control messages of the Columbia protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumbiaMessage {
    /// Mobile → local MSR: I am on your network.
    MsrRegister {
        /// The registering mobile host.
        mobile: Ipv4Addr,
    },
    /// MSR → every peer MSR: who serves `mobile`? (the §7 multicast)
    MsrQuery {
        /// The mobile host being located.
        mobile: Ipv4Addr,
    },
    /// Serving MSR → querying MSR: I do.
    MsrQueryReply {
        /// The mobile host.
        mobile: Ipv4Addr,
        /// The serving MSR.
        msr: Ipv4Addr,
    },
    /// Mobile (outside the campus) → home MSR: tunnel to my temporary
    /// address.
    PopupRegister {
        /// The mobile host (home address).
        mobile: Ipv4Addr,
        /// Its temporary address on the visited network.
        temp: Ipv4Addr,
    },
}

impl ColumbiaMessage {
    /// Encodes to control bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(9);
        match self {
            ColumbiaMessage::MsrRegister { mobile } => {
                buf.push(1);
                buf.extend_from_slice(&mobile.octets());
            }
            ColumbiaMessage::MsrQuery { mobile } => {
                buf.push(2);
                buf.extend_from_slice(&mobile.octets());
            }
            ColumbiaMessage::MsrQueryReply { mobile, msr } => {
                buf.push(3);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&msr.octets());
            }
            ColumbiaMessage::PopupRegister { mobile, temp } => {
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
    pub fn decode(buf: &[u8]) -> Result<ColumbiaMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        let addr = |b: &[u8]| Ipv4Addr::new(b[0], b[1], b[2], b[3]);
        let need = |n: usize| if rest.len() < n { Err(PacketError::Truncated) } else { Ok(()) };
        Ok(match ty {
            1 => {
                need(4)?;
                ColumbiaMessage::MsrRegister { mobile: addr(&rest[..4]) }
            }
            2 => {
                need(4)?;
                ColumbiaMessage::MsrQuery { mobile: addr(&rest[..4]) }
            }
            3 => {
                need(8)?;
                ColumbiaMessage::MsrQueryReply { mobile: addr(&rest[..4]), msr: addr(&rest[4..8]) }
            }
            4 => {
                need(8)?;
                ColumbiaMessage::PopupRegister { mobile: addr(&rest[..4]), temp: addr(&rest[4..8]) }
            }
            _ => return Err(PacketError::BadField("columbia message type")),
        })
    }
}

/// Wraps `inner` in an IP-in-IP tunnel from `src` to `dst` (24 bytes).
pub fn ipip_encapsulate(
    inner: &Ipv4Packet,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
) -> Ipv4Packet {
    let mut payload = Vec::with_capacity(IPIP_SHIM_LEN + inner.wire_len());
    payload.extend_from_slice(&[0x4d, 0x49, 0x50, 0x00]); // "MIP\0" campus shim
    payload.extend_from_slice(&inner.encode());
    // Copy the inner TTL outward so hop counts survive the tunnel leg.
    Ipv4Packet::new(src, dst, proto::IPIP, payload).with_ident(ident).with_ttl(inner.ttl)
}

/// Unwraps an IP-in-IP tunnel.
///
/// # Errors
///
/// Returns [`PacketError`] if the packet is not valid IPIP.
pub fn ipip_decapsulate(outer: &Ipv4Packet) -> Result<Ipv4Packet, PacketError> {
    if outer.protocol != proto::IPIP || outer.payload.len() < IPIP_SHIM_LEN {
        return Err(PacketError::Truncated);
    }
    let mut inner = Ipv4Packet::decode(&outer.payload[IPIP_SHIM_LEN..])?;
    inner.ttl = outer.ttl; // tunnel leg hops count toward the inner TTL
    Ok(inner)
}

// Per-data-packet counters.
static TUNNELED: Counter = Counter::new("columbia.tunneled");
static OVERHEAD_BYTES: Counter = Counter::new("columbia.overhead_bytes");

/// A Mobile Support Router.
#[derive(Debug)]
pub struct MsrNode {
    /// The IP engine (forwarding enabled).
    pub stack: IpStack,
    /// The interface mobile hosts connect on.
    pub local_iface: IfaceId,
    /// Addresses of every *other* MSR in the campus (the multicast group).
    pub peers: Vec<Ipv4Addr>,
    /// Campus mobile hosts whose home network this MSR serves (their
    /// addresses are captured here: "MSRs advertise reachability to all
    /// hosts on the home network, whether or not currently connected").
    pub home_mobiles: HashSet<Ipv4Addr>,
    visitors: HashMap<Ipv4Addr, SimTime>,
    msr_cache: HashMap<Ipv4Addr, Ipv4Addr>,
    popup_bindings: HashMap<Ipv4Addr, Ipv4Addr>,
    pending: HashMap<Ipv4Addr, Vec<Ipv4Packet>>,
}

impl MsrNode {
    /// Creates an MSR serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> MsrNode {
        MsrNode {
            stack: IpStack::new(true),
            local_iface,
            peers: Vec::new(),
            home_mobiles: HashSet::new(),
            visitors: HashMap::new(),
            msr_cache: HashMap::new(),
            popup_bindings: HashMap::new(),
            pending: HashMap::new(),
        }
    }

    /// Registers `mobile` as homed here (captures its address).
    pub fn add_home_mobile(&mut self, mobile: Ipv4Addr) {
        self.home_mobiles.insert(mobile);
        self.stack.add_capture(mobile);
        self.stack.arp.add_proxy(self.local_iface, mobile);
    }

    /// Whether `mobile` currently visits this MSR (lease unexpired).
    pub fn has_visitor(&self, mobile: Ipv4Addr, now: SimTime) -> bool {
        self.visitors.get(&mobile).is_some_and(|&t| now.since(t) < VISITOR_LEASE)
    }

    /// Cache size (state metric, E07).
    pub fn cache_len(&self) -> usize {
        self.msr_cache.len()
    }

    fn self_addr(&self) -> Ipv4Addr {
        self.stack
            .iface_addr(self.local_iface)
            .map(|ia| ia.addr)
            .unwrap_or_else(|| self.stack.primary_addr())
    }

    fn tunnel_to(&mut self, ctx: &mut Ctx<'_>, target: Ipv4Addr, inner: &Ipv4Packet) {
        TUNNELED.incr(ctx.stats());
        OVERHEAD_BYTES.add(ctx.stats(), IPIP_OVERHEAD as u64);
        ctx.tele_event(TeleEventKind::Encap { by_sender: false });
        let ident = self.stack.next_ident();
        let mut outer = ipip_encapsulate(inner, self.self_addr(), target, ident);
        // The MSR is a router hop for the tunneled packet.
        outer.ttl = outer.ttl.saturating_sub(1);
        self.stack.send(ctx, outer);
    }

    fn locate_and_tunnel(&mut self, ctx: &mut Ctx<'_>, mobile: Ipv4Addr, inner: Ipv4Packet) {
        if self.has_visitor(mobile, ctx.now()) {
            self.stack.send_direct(ctx, self.local_iface, inner);
            return;
        }
        if let Some(&temp) = self.popup_bindings.get(&mobile) {
            self.tunnel_to(ctx, temp, &inner);
            return;
        }
        if let Some(&msr) = self.msr_cache.get(&mobile) {
            self.tunnel_to(ctx, msr, &inner);
            return;
        }
        // Cache miss: multicast a query to every peer MSR — the §7
        // control-traffic cost (one message per peer, per miss).
        ctx.stats().incr("columbia.query_rounds");
        ctx.stats().add("columbia.query_messages", self.peers.len() as u64);
        self.pending.entry(mobile).or_default().push(inner);
        let q = ColumbiaMessage::MsrQuery { mobile };
        let peers = self.peers.clone();
        for peer in peers {
            self.stack.send_udp(ctx, peer, CONTROL_PORT, CONTROL_PORT, q.encode());
        }
    }

    fn beacon(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ia) = self.stack.iface_addr(self.local_iface) else { return };
        if !ctx.iface_attached(self.local_iface) {
            return;
        }
        let beacon = Beacon { agent: ia.addr, protocol: proto::IPIP };
        let d = UdpDatagram::new(BEACON_PORT, BEACON_PORT, beacon.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(ia.addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
            .with_ident(ident)
            .with_ttl(1);
        self.stack.send_link_broadcast(ctx, self.local_iface, pkt);
    }

    fn on_control(&mut self, ctx: &mut Ctx<'_>, src: Ipv4Addr, msg: ColumbiaMessage) {
        match msg {
            ColumbiaMessage::MsrRegister { mobile } => {
                ctx.stats().incr("columbia.registrations");
                self.visitors.insert(mobile, ctx.now());
                self.msr_cache.remove(&mobile);
                for queued in self.pending.remove(&mobile).unwrap_or_default() {
                    self.stack.send_direct(ctx, self.local_iface, queued);
                }
            }
            ColumbiaMessage::MsrQuery { mobile } => {
                if self.has_visitor(mobile, ctx.now()) {
                    let reply = ColumbiaMessage::MsrQueryReply { mobile, msr: self.self_addr() };
                    self.stack.send_udp(ctx, src, CONTROL_PORT, CONTROL_PORT, reply.encode());
                }
            }
            ColumbiaMessage::MsrQueryReply { mobile, msr } => {
                self.msr_cache.insert(mobile, msr);
                for queued in self.pending.remove(&mobile).unwrap_or_default() {
                    self.tunnel_to(ctx, msr, &queued);
                }
            }
            ColumbiaMessage::PopupRegister { mobile, temp } => {
                ctx.stats().incr("columbia.popup_registrations");
                self.visitors.remove(&mobile);
                self.popup_bindings.insert(mobile, temp);
            }
        }
    }
}

impl Node for MsrNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => {
                    // Captured home-mobile traffic.
                    if self.stack.is_captured(pkt.dst) && !self.stack.is_local_addr(pkt.dst) {
                        let mobile = pkt.dst;
                        self.locate_and_tunnel(ctx, mobile, pkt);
                        return;
                    }
                    match pkt.protocol {
                        proto::IPIP => {
                            let Ok(inner) = ipip_decapsulate(&pkt) else { return };
                            ctx.tele_event(TeleEventKind::Decap);
                            let mobile = inner.dst;
                            if self.has_visitor(mobile, ctx.now()) {
                                ctx.stats().incr("columbia.delivered");
                                self.stack.send_direct(ctx, self.local_iface, inner);
                            } else {
                                // Stale cache at the tunneling MSR: locate
                                // afresh from here.
                                ctx.stats().incr("columbia.stale_tunnel");
                                self.locate_and_tunnel(ctx, mobile, inner);
                            }
                        }
                        proto::UDP => {
                            let Ok(d) = UdpDatagram::decode(&pkt.payload) else { return };
                            if d.dst_port == CONTROL_PORT {
                                if let Ok(msg) = ColumbiaMessage::decode(&d.payload) {
                                    self.on_control(ctx, pkt.src, msg);
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

/// A Columbia mobile host.
#[derive(Debug)]
pub struct ColumbiaMobileNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// Home (campus) address.
    pub home_addr: Ipv4Addr,
    /// The home network prefix.
    pub home_prefix: Prefix,
    /// The home MSR (anchor for popup mode).
    pub home_msr: Ipv4Addr,
    /// Current serving MSR inside the campus, if any.
    pub current_msr: Option<Ipv4Addr>,
    /// Temporary address while outside the campus, if any.
    pub temp_addr: Option<Ipv4Addr>,
    iface: IfaceId,
}

impl ColumbiaMobileNode {
    /// Creates the mobile host (starts at home; its home MSR is also its
    /// first serving MSR).
    pub fn new(home_addr: Ipv4Addr, home_prefix: Prefix, home_msr: Ipv4Addr) -> ColumbiaMobileNode {
        ColumbiaMobileNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            home_addr,
            home_prefix,
            home_msr,
            current_msr: None,
            temp_addr: None,
            iface: IfaceId(0),
        }
    }

    fn attach_via_msr(&mut self, ctx: &mut Ctx<'_>, msr: Ipv4Addr) {
        if self.current_msr == Some(msr) {
            // Lease refresh: re-register with the same MSR each beacon.
            let reg = ColumbiaMessage::MsrRegister { mobile: self.home_addr };
            let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, reg.encode());
            let ident = self.stack.next_ident();
            let pkt =
                Ipv4Packet::new(self.home_addr, msr, proto::UDP, d.encode()).with_ident(ident);
            self.stack.send_direct(ctx, self.iface, pkt);
            return;
        }
        self.temp_addr = None;
        self.stack.remove_capture(self.home_addr);
        self.stack.remove_iface_binding(self.iface);
        self.stack.add_iface(self.iface, self.home_addr, Prefix::host(self.home_addr));
        self.stack.arp.clear_iface(self.iface);
        self.stack.routes.remove(Prefix::default_route());
        self.stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: msr });
        self.current_msr = Some(msr);
        ctx.stats().incr("columbia.mobile_moves");
        let reg = ColumbiaMessage::MsrRegister { mobile: self.home_addr };
        let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, reg.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(self.home_addr, msr, proto::UDP, d.encode()).with_ident(ident);
        self.stack.send_direct(ctx, self.iface, pkt);
    }

    /// Enters popup mode on a network outside the campus: binds `temp`,
    /// routes via `gateway`, and registers the temporary address with the
    /// home MSR.
    pub fn popup(
        &mut self,
        ctx: &mut Ctx<'_>,
        temp: Ipv4Addr,
        temp_prefix: Prefix,
        gateway: Ipv4Addr,
    ) {
        self.current_msr = None;
        self.temp_addr = Some(temp);
        self.stack.remove_iface_binding(self.iface);
        self.stack.add_iface(self.iface, temp, temp_prefix);
        self.stack.add_capture(self.home_addr);
        self.stack.arp.clear_iface(self.iface);
        self.stack.routes.remove(Prefix::default_route());
        self.stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: gateway });
        ctx.stats().incr("columbia.popups");
        let reg = ColumbiaMessage::PopupRegister { mobile: self.home_addr, temp };
        self.stack.send_udp(ctx, self.home_msr, CONTROL_PORT, CONTROL_PORT, reg.encode());
    }

    /// Pings `dst` (plain IP — Columbia senders never tunnel).
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), self.home_addr, dst);
        self.stack.send(ctx, pkt);
    }

    /// Sends UDP from the home address.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let pkt = Endpoint::make_udp(self.home_addr, dst, src_port, dst_port, payload);
        self.stack.send(ctx, pkt);
    }
}

impl Node for ColumbiaMobileNode {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.stack.add_iface(self.iface, self.home_addr, self.home_prefix);
        self.stack.routes.add(
            Prefix::default_route(),
            NextHop::Gateway { iface: self.iface, via: self.home_msr },
        );
        // The first beacon from the home MSR triggers registration (even
        // at home the MSR must know the host is present, since it always
        // advertises reachability for it).
        self.current_msr = None;
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            let StackEvent::Deliver { pkt, .. } = ev else { return };
            match pkt.protocol {
                proto::IPIP => {
                    // Popup mode: tunnel terminates at our temp address.
                    if let Ok(inner) = ipip_decapsulate(&pkt) {
                        self.endpoint.deliver(&mut self.stack, ctx, &inner);
                    }
                }
                proto::UDP => {
                    if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                        if d.dst_port == BEACON_PORT {
                            if let Ok(b) = Beacon::decode(&d.payload) {
                                if b.protocol == proto::IPIP {
                                    self.attach_via_msr(ctx, b.agent);
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
            self.current_msr = None;
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
            ColumbiaMessage::MsrRegister { mobile: a(1) },
            ColumbiaMessage::MsrQuery { mobile: a(1) },
            ColumbiaMessage::MsrQueryReply { mobile: a(1), msr: a(2) },
            ColumbiaMessage::PopupRegister { mobile: a(1), temp: a(3) },
        ] {
            assert_eq!(ColumbiaMessage::decode(&m.encode()).unwrap(), m);
        }
        assert!(ColumbiaMessage::decode(&[99]).is_err());
    }

    #[test]
    fn ipip_overhead_is_24_bytes() {
        // §7: "Their protocol adds 24 bytes of overhead to each packet."
        let inner = Ipv4Packet::new(a(1), a(7), proto::UDP, vec![0; 32]);
        let outer = ipip_encapsulate(&inner, a(100), a(101), 1);
        assert_eq!(outer.wire_len(), inner.wire_len() + IPIP_OVERHEAD);
        assert_eq!(IPIP_OVERHEAD, 24);
        let back = ipip_decapsulate(&outer).unwrap();
        assert_eq!(back, inner);
    }

    #[test]
    fn ipip_decap_rejects_garbage() {
        let not_ipip = Ipv4Packet::new(a(1), a(2), proto::UDP, vec![0; 8]);
        assert!(ipip_decapsulate(&not_ipip).is_err());
        let short = Ipv4Packet::new(a(1), a(2), proto::IPIP, vec![0; 2]);
        assert!(ipip_decapsulate(&short).is_err());
    }
}
