//! The per-node IPv4 engine: classification, forwarding, ICMP error
//! generation, ARP-driven transmission.
//!
//! [`IpStack`] is embedded by every node type in this workspace (plain
//! hosts, backbone routers, MHRP agents, baseline-protocol agents). It
//! deliberately exposes its [`RoutingTable`] and [`ArpModule`] as public
//! fields — the protocol layers above manipulate routes (mobile hosts
//! re-point their default route at each new foreign agent) and ARP state
//! (home agents register proxy entries) as part of their normal operation.
//!
//! Frame handling returns [`StackEvent`]s instead of acting directly so the
//! embedding node can interpose: a cache agent examines every
//! [`StackEvent::ForwardCandidate`] and may tunnel the packet instead of
//! letting [`IpStack::forward`] route it normally (paper §4.3).

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::arp::ArpMessage;
use ip::icmp::{error_original, IcmpMessage, UnreachableCode};
use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use ip::{proto, Prefix};
use netsim::time::SimDuration;
use netsim::{Counter, Ctx, EtherType, Frame, IfaceId, MacAddr, TimerToken};

use crate::arp::ArpModule;
use crate::route::{NextHop, RoutingTable};

/// Timer tokens with this bit set belong to the stack; nodes must mask it
/// out of their own token space and route such timers to
/// [`IpStack::on_timer`].
pub const STACK_TIMER_BIT: u64 = 1 << 63;

/// Interval between ARP resolution retries.
pub const ARP_RETRY_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// An IP address/prefix bound to an interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceAddr {
    /// The interface's own address.
    pub addr: Ipv4Addr,
    /// The prefix of the directly connected network.
    pub prefix: Prefix,
}

/// What the stack wants the embedding node to do with a received packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent {
    /// The packet is addressed to this node (one of its addresses, a
    /// broadcast, or a captured address) — consume it.
    Deliver {
        /// The decoded packet.
        pkt: Ipv4Packet,
        /// The interface it arrived on.
        iface: IfaceId,
    },
    /// The packet is in transit through this node. The node may consume it
    /// (e.g. tunnel it as a cache agent) or pass it to
    /// [`IpStack::forward`].
    ForwardCandidate {
        /// The decoded packet (TTL not yet decremented).
        pkt: Ipv4Packet,
        /// The interface it arrived on.
        in_iface: IfaceId,
    },
}

/// Cached [`Counter`] handles for the stack's per-packet statistics.
///
/// Every received or transmitted packet bumps several of these; caching
/// the interned ids here keeps the steady-state path free of name
/// hashing. Sound because a stack lives inside exactly one node, and a
/// node inside exactly one world.
#[derive(Debug)]
struct StackCounters {
    rx: Counter,
    delivered: Counter,
    forwarded: Counter,
    originated: Counter,
    slow_path: Counter,
    tx: Counter,
    tx_bytes: Counter,
    sent_direct: Counter,
    rx_malformed: Counter,
    rx_not_for_us: Counter,
    ttl_expired: Counter,
    no_src_addr: Counter,
    no_route: Counter,
    icmp_errors_sent: Counter,
    tx_limited_broadcast_dropped: Counter,
    arp_failed: Counter,
    arp_rx_malformed: Counter,
    arp_replies_sent: Counter,
    arp_requests_sent: Counter,
    arp_gratuitous_sent: Counter,
    arp_queued: Counter,
}

impl StackCounters {
    const fn new() -> StackCounters {
        StackCounters {
            rx: Counter::new("ip.rx"),
            delivered: Counter::new("ip.delivered"),
            forwarded: Counter::new("ip.forwarded"),
            originated: Counter::new("ip.originated"),
            slow_path: Counter::new("ip.slow_path"),
            tx: Counter::new("ip.tx"),
            tx_bytes: Counter::new("ip.tx_bytes"),
            sent_direct: Counter::new("ip.sent_direct"),
            rx_malformed: Counter::new("ip.rx_malformed"),
            rx_not_for_us: Counter::new("ip.rx_not_for_us"),
            ttl_expired: Counter::new("ip.ttl_expired"),
            no_src_addr: Counter::new("ip.no_src_addr"),
            no_route: Counter::new("ip.no_route"),
            icmp_errors_sent: Counter::new("ip.icmp_errors_sent"),
            tx_limited_broadcast_dropped: Counter::new("ip.tx_limited_broadcast_dropped"),
            arp_failed: Counter::new("ip.arp_failed"),
            arp_rx_malformed: Counter::new("arp.rx_malformed"),
            arp_replies_sent: Counter::new("arp.replies_sent"),
            arp_requests_sent: Counter::new("arp.requests_sent"),
            arp_gratuitous_sent: Counter::new("arp.gratuitous_sent"),
            arp_queued: Counter::new("arp.queued"),
        }
    }
}

/// The IPv4 engine for one node.
#[derive(Debug)]
pub struct IpStack {
    ifaces: Vec<Option<IfaceAddr>>,
    /// The routing table (public: protocol layers install/remove routes).
    pub routes: RoutingTable,
    /// ARP state (public: protocol layers add proxy entries and mappings).
    pub arp: ArpModule,
    capture: HashSet<Ipv4Addr>,
    forwarding: bool,
    icmp_error_limit: Option<usize>,
    ident: u16,
    timer_seq: u64,
    arp_timers: HashMap<u64, (IfaceId, Ipv4Addr)>,
    counters: StackCounters,
}

impl IpStack {
    /// Creates a stack. `forwarding` enables router behaviour (transit
    /// packets become [`StackEvent::ForwardCandidate`] instead of being
    /// dropped).
    pub fn new(forwarding: bool) -> IpStack {
        IpStack {
            ifaces: Vec::new(),
            routes: RoutingTable::new(),
            arp: ArpModule::new(),
            capture: HashSet::new(),
            forwarding,
            icmp_error_limit: Some(8),
            ident: 0,
            timer_seq: 0,
            arp_timers: HashMap::new(),
            counters: StackCounters::new(),
        }
    }

    /// Whether this stack forwards transit packets.
    pub fn forwarding(&self) -> bool {
        self.forwarding
    }

    /// Configures how much of an offending packet ICMP errors carry:
    /// `Some(n)` = IP header + `n` payload bytes (RFC 792 default is 8),
    /// `None` = the full packet (RFC 1122 permits this; paper §4.5 needs at
    /// least the MHRP header + 8 bytes for error reverse-pathing).
    pub fn set_icmp_error_limit(&mut self, limit: Option<usize>) {
        self.icmp_error_limit = limit;
    }

    /// The configured ICMP error payload limit.
    pub fn icmp_error_limit(&self) -> Option<usize> {
        self.icmp_error_limit
    }

    /// Binds `addr`/`prefix` to `iface` and installs the connected route.
    pub fn add_iface(&mut self, iface: IfaceId, addr: Ipv4Addr, prefix: Prefix) {
        if self.ifaces.len() <= iface.0 {
            self.ifaces.resize(iface.0 + 1, None);
        }
        self.ifaces[iface.0] = Some(IfaceAddr { addr, prefix });
        self.routes.add(prefix, NextHop::Direct { iface });
    }

    /// Removes the address binding and connected route of `iface` (a mobile
    /// host leaving its home network does this before re-pointing its
    /// default route at a foreign agent).
    pub fn remove_iface_binding(&mut self, iface: IfaceId) {
        if let Some(ia) = self.ifaces.get(iface.0).copied().flatten() {
            self.routes.remove(ia.prefix);
        }
        if let Some(slot) = self.ifaces.get_mut(iface.0) {
            *slot = None;
        }
    }

    /// The address bound to `iface`, if any.
    pub fn iface_addr(&self, iface: IfaceId) -> Option<IfaceAddr> {
        self.ifaces.get(iface.0).copied().flatten()
    }

    /// Whether `addr` is one of this node's own addresses.
    pub fn is_local_addr(&self, addr: Ipv4Addr) -> bool {
        self.ifaces.iter().flatten().any(|ia| ia.addr == addr)
    }

    /// The first configured interface address (convenient identity for
    /// single-homed nodes).
    ///
    /// # Panics
    ///
    /// Panics if no interface has an address.
    pub fn primary_addr(&self) -> Ipv4Addr {
        self.ifaces.iter().flatten().next().expect("stack has no configured interface").addr
    }

    /// Starts accepting local delivery for `addr` even though it is not
    /// bound to an interface (the home agent's interception of packets for
    /// mobile hosts that are away — paper §2).
    pub fn add_capture(&mut self, addr: Ipv4Addr) {
        self.capture.insert(addr);
    }

    /// Stops capturing `addr`.
    pub fn remove_capture(&mut self, addr: Ipv4Addr) {
        self.capture.remove(&addr);
    }

    /// Whether `addr` is currently captured.
    pub fn is_captured(&self, addr: Ipv4Addr) -> bool {
        self.capture.contains(&addr)
    }

    /// A fresh IP identification value.
    pub fn next_ident(&mut self) -> u16 {
        self.ident = self.ident.wrapping_add(1);
        self.ident
    }

    /// Processes a received frame. ARP is consumed internally; an IPv4
    /// frame yields at most one [`StackEvent`].
    pub fn handle_frame(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        frame: &Frame,
    ) -> Option<StackEvent> {
        match frame.ethertype {
            EtherType::Arp => {
                self.handle_arp(ctx, iface, frame);
                None
            }
            EtherType::Ipv4 => match Ipv4Packet::decode(&frame.payload) {
                Ok(pkt) => self.classify(ctx, iface, pkt),
                Err(_) => {
                    self.counters.rx_malformed.incr(ctx.stats());
                    None
                }
            },
            EtherType::Other(_) => None,
        }
    }

    fn handle_arp(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        let Ok(msg) = ArpMessage::decode(&frame.payload) else {
            self.counters.arp_rx_malformed.incr(ctx.stats());
            return;
        };
        let our_addr = self.iface_addr(iface).map(|ia| ia.addr);
        let our_mac = ctx.mac(iface);
        let outcome = self.arp.handle_message(iface, &msg, our_addr, our_mac);
        if let Some(reply) = outcome.reply {
            self.counters.arp_replies_sent.incr(ctx.stats());
            let dst = MacAddr(reply.target_hw);
            ctx.send_frame(iface, Frame::new(our_mac, dst, EtherType::Arp, reply.encode()));
        }
        if !outcome.flushed.is_empty() {
            // Flushed packets were queued by *earlier* dispatches; letting
            // them inherit the ARP reply's telemetry journey would splice
            // unrelated packets into one causal chain. Restore each
            // packet's own queued-under journey for its send.
            let ambient = ctx.journey();
            for (mac, pkt, journey) in outcome.flushed {
                ctx.override_journey(journey);
                self.tx_frame(ctx, iface, mac, &pkt);
            }
            ctx.override_journey(ambient);
        }
    }

    fn classify(
        &mut self,
        ctx: &mut Ctx<'_>,
        iface: IfaceId,
        pkt: Ipv4Packet,
    ) -> Option<StackEvent> {
        self.counters.rx.incr(ctx.stats());
        let dst = pkt.dst;
        let is_broadcast = dst == Ipv4Addr::BROADCAST
            || self.ifaces.iter().flatten().any(|ia| ia.prefix.broadcast() == dst);
        if is_broadcast || self.is_local_addr(dst) || self.capture.contains(&dst) {
            self.counters.delivered.incr(ctx.stats());
            return Some(StackEvent::Deliver { pkt, iface });
        }
        if self.forwarding {
            return Some(StackEvent::ForwardCandidate { pkt, in_iface: iface });
        }
        self.counters.rx_not_for_us.incr(ctx.stats());
        None
    }

    /// Forwards a transit packet: decrements TTL (emitting time-exceeded on
    /// expiry), looks up the route (emitting destination-unreachable on
    /// failure) and transmits.
    pub fn forward(&mut self, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        if pkt.has_options() {
            // Optioned packets take the router's slow path — the load the
            // paper holds against the IBM LSRR proposal (§7).
            self.counters.slow_path.incr(ctx.stats());
        }
        if pkt.ttl <= 1 {
            self.counters.ttl_expired.incr(ctx.stats());
            let original = pkt.encode();
            self.send_icmp_error(
                ctx,
                &pkt,
                IcmpMessage::TimeExceeded {
                    original: error_original(&original, self.icmp_error_limit),
                },
            );
            return;
        }
        pkt.ttl -= 1;
        self.counters.forwarded.incr(ctx.stats());
        self.route_and_tx(ctx, pkt, true);
    }

    /// Transmits a packet originated by this node (no TTL decrement; no
    /// ICMP error generation back to ourselves — failures are counted).
    pub fn send(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        self.counters.originated.incr(ctx.stats());
        self.route_and_tx(ctx, pkt, false);
    }

    /// Broadcasts `pkt` on `iface` at the link layer (used for agent
    /// advertisements and solicitations).
    pub fn send_link_broadcast(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Ipv4Packet) {
        self.counters.originated.incr(ctx.stats());
        let frame = Frame::broadcast(ctx.mac(iface), EtherType::Ipv4, pkt.encode());
        Self::originate(ctx, |ctx| ctx.send_frame(iface, frame));
    }

    /// Runs `f` with no ambient telemetry journey. A journey follows *one*
    /// IP packet through forwarding and tunneling; packets newly built
    /// here (ICMP control, UDP datagrams, ARP) start their own journey
    /// even when triggered from inside another packet's dispatch.
    fn originate<R>(ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        let ambient = ctx.journey();
        ctx.override_journey(None);
        let r = f(ctx);
        ctx.override_journey(ambient);
        r
    }

    /// Builds and sends an ICMP message to `dst`. The source address is the
    /// outgoing interface's unless `src` is given.
    pub fn send_icmp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        msg: &IcmpMessage,
        src: Option<Ipv4Addr>,
    ) {
        let src = src.or_else(|| self.pick_src(dst));
        let Some(src) = src else {
            self.counters.no_src_addr.incr(ctx.stats());
            return;
        };
        let ident = self.next_ident();
        let pkt = Ipv4Packet::new(src, dst, proto::ICMP, msg.encode()).with_ident(ident);
        Self::originate(ctx, |ctx| self.send(ctx, pkt));
    }

    /// Builds and sends a UDP datagram to `dst:dst_port`.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let Some(src) = self.pick_src(dst) else {
            self.counters.no_src_addr.incr(ctx.stats());
            return;
        };
        let datagram = UdpDatagram::new(src_port, dst_port, payload);
        let ident = self.next_ident();
        let pkt = Ipv4Packet::new(src, dst, proto::UDP, datagram.encode()).with_ident(ident);
        Self::originate(ctx, |ctx| self.send(ctx, pkt));
    }

    /// Sends an ICMP *error* about `offending` back to its source, subject
    /// to the RFC 1122 suppression rules (never about an ICMP error, a
    /// broadcast, or an unspecified source).
    pub fn send_icmp_error(&mut self, ctx: &mut Ctx<'_>, offending: &Ipv4Packet, msg: IcmpMessage) {
        debug_assert!(msg.is_error(), "send_icmp_error requires an error message");
        if offending.src.is_unspecified() || offending.src.is_broadcast() {
            return;
        }
        if offending.dst.is_broadcast() {
            return;
        }
        if offending.protocol == proto::ICMP {
            if let Ok(inner) = IcmpMessage::decode(&offending.payload) {
                if inner.is_error() {
                    return; // never error about an error
                }
            }
        }
        self.counters.icmp_errors_sent.incr(ctx.stats());
        self.send_icmp(ctx, offending.src, &msg, None);
    }

    /// Convenience: the standard "host unreachable" error for `offending`.
    pub fn send_host_unreachable(&mut self, ctx: &mut Ctx<'_>, offending: &Ipv4Packet) {
        let original = offending.encode();
        self.send_icmp_error(
            ctx,
            offending,
            IcmpMessage::DestUnreachable {
                code: UnreachableCode::Host,
                original: error_original(&original, self.icmp_error_limit),
            },
        );
    }

    /// Handles stack-owned timers. Returns `true` if the token was ours.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) -> bool {
        if token.0 & STACK_TIMER_BIT == 0 {
            return false;
        }
        let seq = token.0 & !STACK_TIMER_BIT;
        let Some((iface, next_hop)) = self.arp_timers.remove(&seq) else {
            return true; // stale stack timer
        };
        match self.arp.retry(iface, next_hop) {
            Ok(true) => {
                self.send_arp_request(ctx, iface, next_hop);
                self.arm_arp_timer(ctx, iface, next_hop);
            }
            Ok(false) => {}
            Err(dropped) => {
                self.counters.arp_failed.add(ctx.stats(), dropped.len() as u64);
                for (pkt, _journey) in dropped {
                    if !self.is_local_addr(pkt.src) {
                        self.send_host_unreachable(ctx, &pkt);
                    }
                }
            }
        }
        true
    }

    /// Picks a source address for traffic to `dst` (the address of the
    /// outgoing interface, falling back to the primary address).
    pub fn pick_src(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        let iface = match self.routes.lookup(dst) {
            Some(NextHop::Direct { iface }) | Some(NextHop::Gateway { iface, .. }) => Some(iface),
            None => None,
        };
        iface
            .and_then(|i| self.iface_addr(i))
            .map(|ia| ia.addr)
            .or_else(|| self.ifaces.iter().flatten().next().map(|ia| ia.addr))
    }

    fn route_and_tx(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet, transit: bool) {
        if pkt.dst == Ipv4Addr::BROADCAST {
            self.counters.tx_limited_broadcast_dropped.incr(ctx.stats());
            return; // limited broadcasts require an explicit interface
        }
        match self.routes.lookup(pkt.dst) {
            None => {
                self.counters.no_route.incr(ctx.stats());
                if transit {
                    let original = pkt.encode();
                    let limit = self.icmp_error_limit;
                    self.send_icmp_error(
                        ctx,
                        &pkt,
                        IcmpMessage::DestUnreachable {
                            code: UnreachableCode::Net,
                            original: error_original(&original, limit),
                        },
                    );
                }
            }
            Some(NextHop::Direct { iface }) => {
                let dst = pkt.dst;
                self.tx_via(ctx, iface, dst, pkt);
            }
            Some(NextHop::Gateway { iface, via }) => self.tx_via(ctx, iface, via, pkt),
        }
    }

    fn tx_via(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, next_hop: Ipv4Addr, pkt: Ipv4Packet) {
        if let Some(mac) = self.arp.lookup(iface, next_hop) {
            self.tx_frame(ctx, iface, mac, &pkt);
            return;
        }
        self.counters.arp_queued.incr(ctx.stats());
        if self.arp.enqueue(iface, next_hop, pkt, ctx.journey()) {
            self.send_arp_request(ctx, iface, next_hop);
            self.arm_arp_timer(ctx, iface, next_hop);
        }
    }

    fn send_arp_request(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, target: Ipv4Addr) {
        let our = self.iface_addr(iface).map(|ia| ia.addr).unwrap_or(Ipv4Addr::UNSPECIFIED);
        let req = ArpMessage::request(ctx.mac(iface).0, our, target);
        self.counters.arp_requests_sent.incr(ctx.stats());
        let frame = Frame::broadcast(ctx.mac(iface), EtherType::Arp, req.encode());
        Self::originate(ctx, |ctx| ctx.send_frame(iface, frame));
    }

    fn arm_arp_timer(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, next_hop: Ipv4Addr) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.arp_timers.insert(seq, (iface, next_hop));
        ctx.set_timer(ARP_RETRY_INTERVAL, TimerToken(STACK_TIMER_BIT | seq));
    }

    fn tx_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, dst: MacAddr, pkt: &Ipv4Packet) {
        self.counters.tx.incr(ctx.stats());
        self.counters.tx_bytes.add(ctx.stats(), pkt.wire_len() as u64);
        ctx.send_frame(iface, Frame::new(ctx.mac(iface), dst, EtherType::Ipv4, pkt.encode()));
    }

    /// Transmits `pkt` directly on `iface` to its IP destination,
    /// resolving the destination with ARP on that segment — bypassing the
    /// routing table. This is the foreign agent's last hop to a visiting
    /// mobile host (paper §2: the visitor's address is from a *different*
    /// network, so normal routing would send it toward the home network).
    pub fn send_direct(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Ipv4Packet) {
        self.counters.sent_direct.incr(ctx.stats());
        let dst = pkt.dst;
        self.tx_via(ctx, iface, dst, pkt);
    }

    /// Broadcasts an ARP request for `target` on `iface` without queueing
    /// a packet (a presence probe — paper §5.2's "query message ... to
    /// verify that the mobile host is actually connected").
    pub fn send_direct_probe(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, target: Ipv4Addr) {
        self.send_arp_request(ctx, iface, target);
    }

    /// Broadcasts a gratuitous ARP reply advertising `ip` at this node's
    /// MAC on `iface` — both the home agent's interception broadcast and
    /// the returning mobile host's cache repair (paper §2).
    pub fn send_gratuitous_arp(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, ip_addr: Ipv4Addr) {
        let msg = ArpMessage::gratuitous(ctx.mac(iface).0, ip_addr);
        self.counters.arp_gratuitous_sent.incr(ctx.stats());
        ctx.send_frame(iface, Frame::broadcast(ctx.mac(iface), EtherType::Arp, msg.encode()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    #[test]
    fn iface_binding_and_lookup() {
        let mut s = IpStack::new(false);
        s.add_iface(IfaceId(0), a(1), "10.0.0.0/24".parse().unwrap());
        assert!(s.is_local_addr(a(1)));
        assert!(!s.is_local_addr(a(2)));
        assert_eq!(s.primary_addr(), a(1));
        assert_eq!(s.routes.lookup(a(9)), Some(NextHop::Direct { iface: IfaceId(0) }));
        s.remove_iface_binding(IfaceId(0));
        assert!(!s.is_local_addr(a(1)));
        assert_eq!(s.routes.lookup(a(9)), None);
    }

    #[test]
    fn capture_set() {
        let mut s = IpStack::new(true);
        s.add_capture(a(7));
        assert!(s.is_captured(a(7)));
        s.remove_capture(a(7));
        assert!(!s.is_captured(a(7)));
    }

    #[test]
    fn pick_src_prefers_outgoing_iface() {
        let mut s = IpStack::new(true);
        s.add_iface(IfaceId(0), a(1), "10.0.0.0/24".parse().unwrap());
        s.add_iface(IfaceId(1), Ipv4Addr::new(10, 0, 1, 1), "10.0.1.0/24".parse().unwrap());
        assert_eq!(s.pick_src(Ipv4Addr::new(10, 0, 1, 9)), Some(Ipv4Addr::new(10, 0, 1, 1)));
        assert_eq!(s.pick_src(a(9)), Some(a(1)));
        // No route: fall back to the primary address.
        assert_eq!(s.pick_src(Ipv4Addr::new(8, 8, 8, 8)), Some(a(1)));
    }

    #[test]
    fn ident_counter_advances() {
        let mut s = IpStack::new(false);
        let i1 = s.next_ident();
        let i2 = s.next_ident();
        assert_ne!(i1, i2);
    }

    #[test]
    fn icmp_error_limit_configurable() {
        let mut s = IpStack::new(false);
        assert_eq!(s.icmp_error_limit(), Some(8));
        s.set_icmp_error_limit(None);
        assert_eq!(s.icmp_error_limit(), None);
    }
}
