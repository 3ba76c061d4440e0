//! Reusable plain (non-MHRP) node types: IP routers and end hosts.
//!
//! MHRP's deployment story requires that *unmodified* hosts and backbone
//! routers keep working (paper §1). These types are those unmodified
//! devices: [`RouterNode`] forwards, [`HostNode`] runs ping and a UDP echo
//! service, and both silently ignore MHRP's new ICMP location-update type,
//! exactly as RFC 1122 prescribes for unknown ICMP types.
//!
//! The application layer lives in [`Endpoint`], a stack-less component that
//! protocol-aware node types (MHRP hosts, mobile hosts, baseline-protocol
//! hosts) embed alongside their own agents.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::Ipv4Packet;
use ip::proto;
use ip::udp::UdpDatagram;
use netsim::time::{SimDuration, SimTime};
use netsim::{Counter, Ctx, Frame, IfaceId, JourneyId, LinkEvent, Node, TimerToken};

use crate::stack::{IpStack, StackEvent};

/// Timer tokens with this bit set belong to [`RouterNode`]'s slow-path
/// delay queue.
const ROUTER_DELAY_BIT: u64 = 1 << 62;

/// The UDP echo service port on [`Endpoint`].
pub const UDP_ECHO_PORT: u16 = 7;

/// Decodes the ICMP message in `pkt` and automatically answers echo
/// requests. Returns the decoded message for further handling, or `None`
/// if the payload is not valid ICMP.
pub fn handle_icmp_delivery(
    stack: &mut IpStack,
    ctx: &mut Ctx<'_>,
    pkt: &Ipv4Packet,
) -> Option<IcmpMessage> {
    let msg = IcmpMessage::decode(&pkt.payload).ok()?;
    if let IcmpMessage::EchoRequest { ident, seq, payload } = &msg {
        let reply = IcmpMessage::EchoReply { ident: *ident, seq: *seq, payload: payload.clone() };
        // Reply from the address the request was sent to, so the sender's
        // RTT matching works even across captured/tunneled paths.
        let src = if stack.is_local_addr(pkt.dst) { Some(pkt.dst) } else { None };
        stack.send_icmp(ctx, pkt.src, &reply, src);
    }
    Some(msg)
}

/// A plain IP router: forwards transit packets, answers pings, generates
/// ICMP errors. Knows nothing about mobility.
#[derive(Debug)]
pub struct RouterNode {
    /// The router's IP engine.
    pub stack: IpStack,
    /// Extra processing delay applied to packets carrying IP options (the
    /// "slow path" of paper §7; zero disables the model).
    pub option_penalty: SimDuration,
    delayed: HashMap<u64, Ipv4Packet>,
    delay_seq: u64,
    slow_path_forwarded: Counter,
}

impl RouterNode {
    /// Creates a router with forwarding enabled and no slow-path penalty.
    pub fn new() -> RouterNode {
        RouterNode {
            stack: IpStack::new(true),
            option_penalty: SimDuration::ZERO,
            delayed: HashMap::new(),
            delay_seq: 0,
            slow_path_forwarded: Counter::new("router.slow_path_forwarded"),
        }
    }

    fn forward_or_delay(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if self.option_penalty > SimDuration::ZERO && pkt.has_options() {
            let seq = self.delay_seq;
            self.delay_seq += 1;
            self.delayed.insert(seq, pkt);
            ctx.set_timer(self.option_penalty, TimerToken(ROUTER_DELAY_BIT | seq));
        } else {
            self.stack.forward(ctx, pkt);
        }
    }
}

impl Default for RouterNode {
    fn default() -> RouterNode {
        RouterNode::new()
    }
}

impl Node for RouterNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => {
                    if pkt.protocol == proto::ICMP {
                        handle_icmp_delivery(&mut self.stack, ctx, &pkt);
                    }
                }
                StackEvent::ForwardCandidate { pkt, .. } => self.forward_or_delay(ctx, pkt),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if self.stack.on_timer(ctx, timer) {
            return;
        }
        if timer.0 & ROUTER_DELAY_BIT != 0 {
            if let Some(pkt) = self.delayed.remove(&(timer.0 & !ROUTER_DELAY_BIT)) {
                self.slow_path_forwarded.incr(ctx.stats());
                self.stack.forward(ctx, pkt);
            }
        }
    }

    fn on_link(&mut self, _ctx: &mut Ctx<'_>, iface: IfaceId, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.stack.arp.clear_iface(iface);
        }
    }

    fn on_reboot(&mut self, _ctx: &mut Ctx<'_>) {
        for i in 0..8 {
            self.stack.arp.clear_iface(IfaceId(i));
        }
        self.delayed.clear();
    }
}

/// One received echo reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EchoReplyRecord {
    /// The echo sequence number.
    pub seq: u16,
    /// Round-trip time.
    pub rtt: SimDuration,
    /// Remaining TTL of the reply when it arrived (hop-count evidence).
    pub ttl: u8,
}

/// One received UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpRecord {
    /// Arrival time.
    pub at: SimTime,
    /// IP source.
    pub src: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Remaining TTL on arrival.
    pub ttl: u8,
    /// Telemetry journey of the frame that delivered this datagram
    /// (`None` while telemetry is off). Ties an application-level
    /// delivery to its hop-by-hop path — the handle the sim-vs-live
    /// cross-validation uses to compare per-probe routes.
    pub journey: Option<JourneyId>,
}

/// Everything an [`Endpoint`] observed, for experiment metrics.
#[derive(Debug, Default)]
pub struct EndpointLog {
    /// Echo requests sent.
    pub pings_sent: u64,
    /// Echo replies received, in order.
    pub echo_replies: Vec<EchoReplyRecord>,
    /// UDP datagrams received, in order.
    pub udp_rx: Vec<UdpRecord>,
    /// ICMP errors received (destination unreachable, time exceeded, ...).
    pub icmp_errors: Vec<IcmpMessage>,
    /// ICMP messages of types this host does not implement (location
    /// updates, for a plain host) — silently discarded per RFC 1122.
    pub icmp_ignored: u64,
}

/// The application layer of an end host: ping with RTT bookkeeping, a UDP
/// echo service, and an observation log. Owns no stack; every method takes
/// the node's [`IpStack`] so protocol-aware node types can embed it.
#[derive(Debug)]
pub struct Endpoint {
    /// Observation log for experiments.
    pub log: EndpointLog,
    /// Whether the UDP echo service on port 7 answers.
    pub udp_echo: bool,
    outstanding: HashMap<(u16, u16), SimTime>,
    ping_ident: u16,
    ping_seq: u16,
}

impl Endpoint {
    /// Creates an endpoint with the echo service enabled.
    pub fn new() -> Endpoint {
        Endpoint {
            log: EndpointLog::default(),
            udp_echo: true,
            outstanding: HashMap::new(),
            ping_ident: 0x5a5a,
            ping_seq: 0,
        }
    }

    /// Builds an echo-request packet to `dst` from `src` and registers it
    /// for RTT matching. The caller transmits it (possibly after
    /// encapsulating it — that is how an MHRP sender-side cache agent
    /// tunnels its own traffic).
    pub fn make_ping(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr) -> (u16, Ipv4Packet) {
        self.ping_seq = self.ping_seq.wrapping_add(1);
        let seq = self.ping_seq;
        let msg = IcmpMessage::EchoRequest { ident: self.ping_ident, seq, payload: vec![0; 24] };
        self.outstanding.insert((self.ping_ident, seq), now);
        self.log.pings_sent += 1;
        (seq, Ipv4Packet::new(src, dst, proto::ICMP, msg.encode()))
    }

    /// Builds a UDP packet (no bookkeeping needed).
    pub fn make_udp(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Ipv4Packet {
        let datagram = UdpDatagram::new(src_port, dst_port, payload);
        Ipv4Packet::new(src, dst, proto::UDP, datagram.encode())
    }

    /// Handles a packet delivered locally: answers echo, matches replies,
    /// logs UDP and errors, ignores unknown ICMP. Returns the decoded ICMP
    /// message when the packet was ICMP (so embedding node types can react
    /// to messages a *plain* host would ignore).
    pub fn deliver(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        pkt: &Ipv4Packet,
    ) -> Option<IcmpMessage> {
        match pkt.protocol {
            proto::ICMP => {
                let msg = handle_icmp_delivery(stack, ctx, pkt)?;
                match &msg {
                    IcmpMessage::EchoReply { ident, seq, .. } => {
                        if let Some(sent) = self.outstanding.remove(&(*ident, *seq)) {
                            self.log.echo_replies.push(EchoReplyRecord {
                                seq: *seq,
                                rtt: ctx.now().since(sent),
                                ttl: pkt.ttl,
                            });
                        }
                    }
                    m if m.is_error() => self.log.icmp_errors.push(m.clone()),
                    IcmpMessage::LocationUpdate(_) | IcmpMessage::Unknown { .. } => {
                        // A plain 1994 host: unknown ICMP type, silently drop.
                        self.log.icmp_ignored += 1;
                    }
                    _ => {}
                }
                Some(msg)
            }
            proto::UDP => {
                let Ok(datagram) = UdpDatagram::decode(&pkt.payload) else {
                    return None;
                };
                if self.udp_echo
                    && datagram.dst_port == UDP_ECHO_PORT
                    && stack.is_local_addr(pkt.dst)
                {
                    stack.send_udp(
                        ctx,
                        pkt.src,
                        UDP_ECHO_PORT,
                        datagram.src_port,
                        datagram.payload.clone(),
                    );
                }
                self.log.udp_rx.push(UdpRecord {
                    at: ctx.now(),
                    src: pkt.src,
                    src_port: datagram.src_port,
                    dst_port: datagram.dst_port,
                    payload: datagram.payload,
                    ttl: pkt.ttl,
                    journey: ctx.journey(),
                });
                None
            }
            _ => None,
        }
    }

    /// Forgets in-flight pings (reboot).
    pub fn clear_outstanding(&mut self) {
        self.outstanding.clear();
    }
}

impl Default for Endpoint {
    fn default() -> Endpoint {
        Endpoint::new()
    }
}

/// A plain IP end host: an [`Endpoint`] on an [`IpStack`].
#[derive(Debug)]
pub struct HostNode {
    /// The host's IP engine.
    pub stack: IpStack,
    /// The application layer and its observation log.
    pub endpoint: Endpoint,
}

impl HostNode {
    /// Creates a host (forwarding disabled).
    pub fn new() -> HostNode {
        HostNode { stack: IpStack::new(false), endpoint: Endpoint::new() }
    }

    /// The host's observation log.
    pub fn log(&self) -> &EndpointLog {
        &self.endpoint.log
    }

    /// Sends an echo request to `dst`; returns the sequence number.
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) -> u16 {
        let src = self.stack.pick_src(dst).expect("host has an address");
        let (seq, pkt) = self.endpoint.make_ping(ctx.now(), src, dst);
        self.stack.send(ctx, pkt);
        seq
    }

    /// Sends a UDP datagram to `dst:dst_port` from `src_port`.
    pub fn send_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        self.stack.send_udp(ctx, dst, src_port, dst_port, payload);
    }
}

impl Default for HostNode {
    fn default() -> HostNode {
        HostNode::new()
    }
}

impl Node for HostNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => {
                    self.endpoint.deliver(&mut self.stack, ctx, &pkt);
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
        for i in 0..8 {
            self.stack.arp.clear_iface(IfaceId(i));
        }
        self.endpoint.clear_outstanding();
    }
}
