//! The IBM loose-source-route proposal (Perkins & Rekhter) — baseline
//! five of the paper's §7.
//!
//! The mobile host registers with a **base station** on the visited
//! network. Every packet the mobile host sends travels through the base
//! station carrying an **LSRR option** (8 bytes); a *correct* receiver
//! saves and reverses the recorded route, so its replies also route via
//! the base station with an 8-byte option — §7's "8 bytes ... although
//! 8 bytes must also be added to each packet sent *from* a mobile host".
//!
//! The paper's two §7 criticisms are both modeled:
//!
//! * **Broken implementations** — hosts that fail to reverse/record the
//!   route ([`LsrrHostNode::broken`]) send replies to the mobile host's
//!   home address, where they are lost.
//! * **Slow path** — every router forwarding an optioned packet takes the
//!   slow path; use `RouterNode::option_penalty` (already in `netstack`)
//!   and the `ip.slow_path` counter.
//!
//! There is no home agent in this scheme: packets addressed to a moved
//! mobile host without a recorded route simply die at the home network.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::{Ipv4Option, Ipv4Packet};
use ip::udp::UdpDatagram;
use ip::{proto, PacketError, Prefix};
use netsim::time::SimDuration;
use netsim::{Counter, Ctx, Frame, IfaceId, LinkEvent, Node, TimerToken};
use netstack::nodes::Endpoint;
use netstack::route::NextHop;
use netstack::{IpStack, StackEvent};

use crate::common::{Beacon, BEACON_PORT, CONTROL_PORT};

const BEACON_TIMER: u64 = 1 << 57;

/// Beacon interval for base stations.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Marker protocol discriminator used in beacons.
pub const LSRR_PROTO_TAG: u8 = 131;

/// Encoded size of a one-hop LSRR option with padding (§7's 8 bytes).
pub const LSRR_OPTION_BYTES: usize = 8;

/// Control messages: just the registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsrrMessage {
    /// Mobile → base station: serve me.
    Register {
        /// The registering mobile host.
        mobile: Ipv4Addr,
    },
}

impl LsrrMessage {
    /// Encodes to control bytes.
    pub fn encode(&self) -> Vec<u8> {
        let LsrrMessage::Register { mobile } = self;
        let mut buf = vec![1];
        buf.extend_from_slice(&mobile.octets());
        buf
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<LsrrMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        if ty != 1 || rest.len() < 4 {
            return Err(PacketError::BadField("lsrr message"));
        }
        Ok(LsrrMessage::Register { mobile: Ipv4Addr::new(rest[0], rest[1], rest[2], rest[3]) })
    }
}

/// Processes the LSRR option at an addressed hop per RFC 791: swaps the
/// destination with the next route slot, recording our own address.
/// Returns `true` if the packet should continue to a new destination.
pub fn lsrr_advance(pkt: &mut Ipv4Packet, self_addr: Ipv4Addr) -> bool {
    for opt in &mut pkt.options {
        if let Ipv4Option::Lsrr { pointer, route } = opt {
            let idx = (usize::from(*pointer) - 4) / 4;
            if idx >= route.len() {
                return false; // route exhausted: we are the destination
            }
            pkt.dst = route[idx];
            route[idx] = self_addr;
            *pointer += 4;
            return true;
        }
    }
    false
}

/// The recorded route of a received LSRR packet (the hops it visited).
pub fn lsrr_recorded(pkt: &Ipv4Packet) -> Option<Vec<Ipv4Addr>> {
    pkt.lsrr().map(|(pointer, route)| {
        let visited = ((usize::from(*pointer)) - 4) / 4;
        route.iter().take(visited.min(route.len())).copied().collect()
    })
}

/// A base station: a router that relays LSRR traffic for its visitors.
#[derive(Debug)]
pub struct BaseStationNode {
    /// The IP engine (forwarding enabled).
    pub stack: IpStack,
    /// The interface visitors attach to.
    pub local_iface: IfaceId,
    visitors: HashSet<Ipv4Addr>,
}

impl BaseStationNode {
    /// Creates a base station serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> BaseStationNode {
        BaseStationNode { stack: IpStack::new(true), local_iface, visitors: HashSet::new() }
    }

    /// Whether `mobile` is registered here.
    pub fn has_visitor(&self, mobile: Ipv4Addr) -> bool {
        self.visitors.contains(&mobile)
    }

    fn beacon(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ia) = self.stack.iface_addr(self.local_iface) else { return };
        if !ctx.iface_attached(self.local_iface) {
            return;
        }
        let beacon = Beacon { agent: ia.addr, protocol: LSRR_PROTO_TAG };
        let d = UdpDatagram::new(BEACON_PORT, BEACON_PORT, beacon.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(ia.addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
            .with_ident(ident)
            .with_ttl(1);
        self.stack.send_link_broadcast(ctx, self.local_iface, pkt);
    }
}

impl Node for BaseStationNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { mut pkt, .. } => {
                    // An LSRR packet addressed to us: advance the source
                    // route and forward (possibly to a local visitor).
                    if pkt.has_options() {
                        let self_addr = self
                            .stack
                            .iface_addr(self.local_iface)
                            .map(|ia| ia.addr)
                            .unwrap_or_else(|| self.stack.primary_addr());
                        if lsrr_advance(&mut pkt, self_addr) {
                            ctx.stats().incr("lsrr.bs_relayed");
                            if self.visitors.contains(&pkt.dst) {
                                self.stack.send_direct(ctx, self.local_iface, pkt);
                            } else if self.stack.routes.lookup(pkt.dst).is_some() {
                                self.stack.forward(ctx, pkt);
                            } else {
                                // Moved away and no route: the §7 gap.
                                ctx.stats().incr("lsrr.bs_dead_ends");
                                self.stack.send_host_unreachable(ctx, &pkt);
                            }
                            return;
                        }
                    }
                    match pkt.protocol {
                        proto::UDP => {
                            if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                                if d.dst_port == CONTROL_PORT {
                                    if let Ok(LsrrMessage::Register { mobile }) =
                                        LsrrMessage::decode(&d.payload)
                                    {
                                        ctx.stats().incr("lsrr.registrations");
                                        self.visitors.insert(mobile);
                                    }
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

// Per-data-packet counters.
static SOURCE_ROUTED: Counter = Counter::new("lsrr.host_source_routed");
static OVERHEAD_BYTES: Counter = Counter::new("lsrr.overhead_bytes");
static SENT_VIA_BS: Counter = Counter::new("lsrr.mobile_sent_via_bs");

/// A correspondent host; `broken` models the deployed implementations
/// that fail to reverse recorded routes (§7).
#[derive(Debug)]
pub struct LsrrHostNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// Whether this host's LSRR implementation is broken.
    pub broken: bool,
    reverse_routes: HashMap<Ipv4Addr, Vec<Ipv4Addr>>,
}

impl LsrrHostNode {
    /// Creates a correspondent host.
    pub fn new(broken: bool) -> LsrrHostNode {
        LsrrHostNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            broken,
            reverse_routes: HashMap::new(),
        }
    }

    /// The saved reverse route toward `peer`, if any.
    pub fn reverse_route(&self, peer: Ipv4Addr) -> Option<&[Ipv4Addr]> {
        self.reverse_routes.get(&peer).map(Vec::as_slice)
    }

    /// Sends `pkt`, source-routing via the saved reverse route when one
    /// exists (a correct implementation's behaviour).
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        if !self.broken {
            if let Some(route) = self.reverse_routes.get(&pkt.dst) {
                if let Some(&first) = route.first() {
                    SOURCE_ROUTED.incr(ctx.stats());
                    OVERHEAD_BYTES.add(ctx.stats(), LSRR_OPTION_BYTES as u64);
                    let final_dst = pkt.dst;
                    pkt.dst = first;
                    pkt.options.push(Ipv4Option::lsrr(vec![final_dst]));
                }
            }
        }
        self.stack.send(ctx, pkt);
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

    fn learn_route(&mut self, pkt: &Ipv4Packet) {
        if self.broken {
            return; // §7: "do not correctly reverse or save the recorded route"
        }
        if let Some(recorded) = lsrr_recorded(pkt) {
            if !recorded.is_empty() {
                self.reverse_routes.insert(pkt.src, recorded);
            }
        }
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        self.learn_route(&pkt);
        // Echo replies must honour the reverse route, so intercept echo
        // requests rather than letting the plain autoreply answer.
        if pkt.protocol == proto::ICMP {
            if let Ok(IcmpMessage::EchoRequest { ident, seq, payload }) =
                IcmpMessage::decode(&pkt.payload)
            {
                let reply = IcmpMessage::EchoReply { ident, seq, payload };
                let src = self.stack.pick_src(pkt.src).expect("host has an address");
                let rp = Ipv4Packet::new(src, pkt.src, proto::ICMP, reply.encode());
                self.send_data(ctx, rp);
                return;
            }
        }
        if pkt.protocol == proto::UDP {
            if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                if d.dst_port == netstack::nodes::UDP_ECHO_PORT {
                    // Echo the payload back along the reverse route.
                    let src = self.stack.pick_src(pkt.src).expect("host has an address");
                    let rp = Endpoint::make_udp(
                        src,
                        pkt.src,
                        netstack::nodes::UDP_ECHO_PORT,
                        d.src_port,
                        d.payload.clone(),
                    );
                    self.send_data(ctx, rp);
                }
            }
            // Still log it (disable the endpoint's own echo to avoid
            // double replies).
        }
        let was_echo = self.endpoint.udp_echo;
        self.endpoint.udp_echo = false;
        self.endpoint.deliver(&mut self.stack, ctx, &pkt);
        self.endpoint.udp_echo = was_echo;
    }
}

impl Node for LsrrHostNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(StackEvent::Deliver { pkt, .. }) = self.stack.handle_frame(ctx, iface, frame) {
            self.deliver(ctx, pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }
}

/// The mobile host: keeps its home address, routes everything through its
/// base station with an LSRR option.
#[derive(Debug)]
pub struct LsrrMobileNode {
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
    /// The current base station, if visiting.
    pub base_station: Option<Ipv4Addr>,
    iface: IfaceId,
}

impl LsrrMobileNode {
    /// Creates the mobile host (starts at home).
    pub fn new(home_addr: Ipv4Addr, home_prefix: Prefix, home_gateway: Ipv4Addr) -> LsrrMobileNode {
        LsrrMobileNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            home_addr,
            home_prefix,
            home_gateway,
            base_station: None,
            iface: IfaceId(0),
        }
    }

    fn attach_via(&mut self, ctx: &mut Ctx<'_>, bs: Ipv4Addr) {
        if self.base_station == Some(bs) {
            return;
        }
        ctx.stats().incr("lsrr.mobile_moves");
        self.stack.remove_iface_binding(self.iface);
        self.stack.add_iface(self.iface, self.home_addr, Prefix::host(self.home_addr));
        self.stack.arp.clear_iface(self.iface);
        self.stack.routes.remove(Prefix::default_route());
        self.stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: bs });
        self.base_station = Some(bs);
        let reg = LsrrMessage::Register { mobile: self.home_addr };
        let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, reg.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(self.home_addr, bs, proto::UDP, d.encode()).with_ident(ident);
        self.stack.send_direct(ctx, self.iface, pkt);
    }

    /// Sends `pkt` through the base station with the LSRR option (§7:
    /// "All packets sent by a mobile host are sent through the mobile
    /// host's base station and include an LSRR option").
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        if let Some(bs) = self.base_station {
            SENT_VIA_BS.incr(ctx.stats());
            OVERHEAD_BYTES.add(ctx.stats(), LSRR_OPTION_BYTES as u64);
            let final_dst = pkt.dst;
            pkt.dst = bs;
            pkt.options.push(Ipv4Option::lsrr(vec![final_dst]));
            self.stack.send_direct(ctx, self.iface, pkt);
        } else {
            self.stack.send(ctx, pkt);
        }
    }

    /// Convenience ping.
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), self.home_addr, dst);
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
        let pkt = Endpoint::make_udp(self.home_addr, dst, src_port, dst_port, payload);
        self.send_data(ctx, pkt);
    }
}

impl Node for LsrrMobileNode {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        self.stack.add_iface(self.iface, self.home_addr, self.home_prefix);
        self.stack.routes.add(
            Prefix::default_route(),
            NextHop::Gateway { iface: self.iface, via: self.home_gateway },
        );
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            let StackEvent::Deliver { pkt, .. } = ev else { return };
            if pkt.protocol == proto::UDP {
                if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                    if d.dst_port == BEACON_PORT {
                        if let Ok(b) = Beacon::decode(&d.payload) {
                            if b.protocol == LSRR_PROTO_TAG {
                                self.attach_via(ctx, b.agent);
                            }
                        }
                        return;
                    }
                }
            }
            self.endpoint.deliver(&mut self.stack, ctx, &pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
            self.base_station = None;
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
    fn message_round_trips() {
        let m = LsrrMessage::Register { mobile: a(1) };
        assert_eq!(LsrrMessage::decode(&m.encode()).unwrap(), m);
        assert!(LsrrMessage::decode(&[2, 0]).is_err());
    }

    #[test]
    fn one_hop_lsrr_option_is_8_bytes() {
        // §7: "Their protocol normally adds only 8 bytes to each packet."
        let plain = Ipv4Packet::new(a(1), a(7), proto::UDP, vec![0; 12]);
        let optioned = plain.clone().with_option(Ipv4Option::lsrr(vec![a(9)]));
        assert_eq!(optioned.wire_len() - plain.wire_len(), LSRR_OPTION_BYTES);
    }

    #[test]
    fn lsrr_advance_swaps_and_records() {
        let mut pkt = Ipv4Packet::new(a(1), a(100), proto::UDP, vec![])
            .with_option(Ipv4Option::lsrr(vec![a(7)]));
        assert!(lsrr_advance(&mut pkt, a(100)));
        assert_eq!(pkt.dst, a(7));
        let recorded = lsrr_recorded(&pkt).unwrap();
        assert_eq!(recorded, vec![a(100)]);
        // Route exhausted now.
        assert!(!lsrr_advance(&mut pkt, a(7)));
    }

    #[test]
    fn broken_host_never_learns_routes() {
        let mut h = LsrrHostNode::new(true);
        let pkt = Ipv4Packet::new(a(1), a(2), proto::UDP, vec![])
            .with_option(Ipv4Option::Lsrr { pointer: 8, route: vec![a(100)] });
        h.learn_route(&pkt);
        assert!(h.reverse_route(a(1)).is_none());
        let mut ok = LsrrHostNode::new(false);
        ok.learn_route(&pkt);
        assert_eq!(ok.reverse_route(a(1)).unwrap(), &[a(100)]);
    }
}
