//! The Sunshine–Postel forwarder protocol (IEN 135, 1980) — the earliest
//! baseline in the paper's §7.
//!
//! * A **global directory** records each mobile host's current forwarder;
//!   every sender queries it before transmitting — the global database the
//!   paper names as the protocol's scalability limit.
//! * **Forwarders** deliver packets locally to visiting mobile hosts;
//!   packets reach them inside a source-route-like 8-byte shim.
//! * After a move, the **old** forwarder answers arriving packets with
//!   *host unreachable*; the sender must re-query the directory and
//!   retransmit — the recovery story §7 contrasts with MHRP's in-band
//!   updates.
//!
//! Modeling notes (documented in DESIGN.md): forwarder visitor entries are
//! leases refreshed by the mobile host each beacon period, so a departed
//! host's entry expires promptly and the documented host-unreachable
//! behaviour is observable; senders keep a small retransmit buffer because
//! IEN 135's senders retransmit from their own transport state.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ip::icmp::IcmpMessage;
use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use ip::{proto, PacketError, Prefix};
use netsim::time::{SimDuration, SimTime};
use netsim::{Counter, Ctx, Frame, IfaceId, LinkEvent, Node, TimerToken};
use netstack::nodes::Endpoint;
use netstack::route::NextHop;
use netstack::{IpStack, StackEvent};

use crate::common::{Beacon, BEACON_PORT, CONTROL_PORT, PROTO_SPFWD};

const BEACON_TIMER: u64 = 1 << 57;
const QUERY_TIMER: u64 = 1 << 56;

/// Beacon interval for forwarders.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Visitor lease: refreshed by each beacon-triggered re-registration.
pub const VISITOR_LEASE: SimDuration = SimDuration::from_secs(3);

/// Control messages of the Sunshine–Postel protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpMessage {
    /// Mobile → directory: my forwarder is `forwarder` (0 = at home).
    Register {
        /// The mobile host.
        mobile: Ipv4Addr,
        /// Its forwarder (0.0.0.0 when at home).
        forwarder: Ipv4Addr,
    },
    /// Sender → directory: where is `mobile`?
    Query {
        /// The host being asked about.
        mobile: Ipv4Addr,
    },
    /// Directory → sender: `mobile` is served by `forwarder` (0 = not
    /// registered / at home).
    Response {
        /// The host asked about.
        mobile: Ipv4Addr,
        /// Its forwarder (0.0.0.0 = send plainly).
        forwarder: Ipv4Addr,
    },
    /// Mobile → local forwarder: deliver my packets.
    FwdRegister {
        /// The registering mobile host.
        mobile: Ipv4Addr,
    },
}

impl SpMessage {
    /// Encodes to control bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(9);
        match self {
            SpMessage::Register { mobile, forwarder } => {
                buf.push(1);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&forwarder.octets());
            }
            SpMessage::Query { mobile } => {
                buf.push(2);
                buf.extend_from_slice(&mobile.octets());
            }
            SpMessage::Response { mobile, forwarder } => {
                buf.push(3);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&forwarder.octets());
            }
            SpMessage::FwdRegister { mobile } => {
                buf.push(4);
                buf.extend_from_slice(&mobile.octets());
            }
        }
        buf
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<SpMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        let addr = |b: &[u8]| Ipv4Addr::new(b[0], b[1], b[2], b[3]);
        let need = |n: usize| if rest.len() < n { Err(PacketError::Truncated) } else { Ok(()) };
        Ok(match ty {
            1 => {
                need(8)?;
                SpMessage::Register { mobile: addr(&rest[..4]), forwarder: addr(&rest[4..8]) }
            }
            2 => {
                need(4)?;
                SpMessage::Query { mobile: addr(&rest[..4]) }
            }
            3 => {
                need(8)?;
                SpMessage::Response { mobile: addr(&rest[..4]), forwarder: addr(&rest[4..8]) }
            }
            4 => {
                need(4)?;
                SpMessage::FwdRegister { mobile: addr(&rest[..4]) }
            }
            _ => return Err(PacketError::BadField("sp message type")),
        })
    }
}

/// The 8-byte source-route shim: `orig_proto`, padding, the mobile host.
pub const SP_SHIM_LEN: usize = 8;

/// Wraps a plain packet for delivery via `forwarder`.
pub fn encapsulate(pkt: &mut Ipv4Packet, forwarder: Ipv4Addr) {
    let mut shim = Vec::with_capacity(SP_SHIM_LEN);
    shim.push(pkt.protocol);
    shim.extend_from_slice(&[0; 3]);
    shim.extend_from_slice(&pkt.dst.octets());
    shim.extend_from_slice(&pkt.payload);
    pkt.payload = shim;
    pkt.protocol = PROTO_SPFWD;
    pkt.dst = forwarder;
}

/// Unwraps a shimmed packet at the forwarder; returns the mobile host.
///
/// # Errors
///
/// Returns [`PacketError`] if the packet is not a valid shim packet.
pub fn decapsulate(pkt: &mut Ipv4Packet) -> Result<Ipv4Addr, PacketError> {
    if pkt.protocol != PROTO_SPFWD || pkt.payload.len() < SP_SHIM_LEN {
        return Err(PacketError::Truncated);
    }
    let mobile = Ipv4Addr::new(pkt.payload[4], pkt.payload[5], pkt.payload[6], pkt.payload[7]);
    pkt.protocol = pkt.payload[0];
    pkt.dst = mobile;
    pkt.payload.drain(..SP_SHIM_LEN);
    Ok(mobile)
}

/// The global directory service.
#[derive(Debug)]
pub struct SpDirectoryNode {
    /// The IP engine.
    pub stack: IpStack,
    db: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl SpDirectoryNode {
    /// Creates an empty directory.
    pub fn new() -> SpDirectoryNode {
        SpDirectoryNode { stack: IpStack::new(false), db: HashMap::new() }
    }

    /// Directory size (the global state §7 objects to; metric for E07).
    pub fn db_size(&self) -> usize {
        self.db.len()
    }
}

impl Default for SpDirectoryNode {
    fn default() -> SpDirectoryNode {
        SpDirectoryNode::new()
    }
}

impl Node for SpDirectoryNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            let StackEvent::Deliver { pkt, .. } = ev else { return };
            if pkt.protocol != proto::UDP {
                return;
            }
            let Ok(d) = UdpDatagram::decode(&pkt.payload) else { return };
            if d.dst_port != CONTROL_PORT {
                return;
            }
            match SpMessage::decode(&d.payload) {
                Ok(SpMessage::Register { mobile, forwarder }) => {
                    ctx.stats().incr("sp.db_registrations");
                    if forwarder.is_unspecified() {
                        self.db.remove(&mobile);
                    } else {
                        self.db.insert(mobile, forwarder);
                    }
                }
                Ok(SpMessage::Query { mobile }) => {
                    ctx.stats().incr("sp.db_queries");
                    let forwarder = self.db.get(&mobile).copied().unwrap_or(Ipv4Addr::UNSPECIFIED);
                    let resp = SpMessage::Response { mobile, forwarder };
                    self.stack.send_udp(ctx, pkt.src, CONTROL_PORT, CONTROL_PORT, resp.encode());
                }
                _ => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerToken) {
        self.stack.on_timer(ctx, timer);
    }
}

/// A router that is also a Sunshine–Postel forwarder on `local_iface`.
#[derive(Debug)]
pub struct SpForwarderNode {
    /// The IP engine (forwarding enabled).
    pub stack: IpStack,
    /// The interface visitors connect on.
    pub local_iface: IfaceId,
    visitors: HashMap<Ipv4Addr, SimTime>,
}

impl SpForwarderNode {
    /// Creates a forwarder serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> SpForwarderNode {
        SpForwarderNode { stack: IpStack::new(true), local_iface, visitors: HashMap::new() }
    }

    /// Whether `mobile`'s lease is current.
    pub fn has_visitor(&self, mobile: Ipv4Addr, now: SimTime) -> bool {
        self.visitors.get(&mobile).is_some_and(|&t| now.since(t) < VISITOR_LEASE)
    }

    fn beacon(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ia) = self.stack.iface_addr(self.local_iface) else { return };
        if !ctx.iface_attached(self.local_iface) {
            return;
        }
        let beacon = Beacon { agent: ia.addr, protocol: PROTO_SPFWD };
        let d = UdpDatagram::new(BEACON_PORT, BEACON_PORT, beacon.encode());
        let ident = self.stack.next_ident();
        let pkt = Ipv4Packet::new(ia.addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
            .with_ident(ident)
            .with_ttl(1);
        self.stack.send_link_broadcast(ctx, self.local_iface, pkt);
    }
}

impl Node for SpForwarderNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.beacon(ctx);
        ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
    }

    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            match ev {
                StackEvent::Deliver { pkt, .. } => match pkt.protocol {
                    PROTO_SPFWD => {
                        let mut pkt = pkt;
                        let Ok(mobile) = decapsulate(&mut pkt) else { return };
                        if self.has_visitor(mobile, ctx.now()) {
                            ctx.stats().incr("sp.delivered");
                            self.stack.send_direct(ctx, self.local_iface, pkt);
                        } else {
                            // The documented behaviour: old forwarder
                            // answers "host unreachable"; the sender must
                            // re-query the directory.
                            ctx.stats().incr("sp.unreachable_returned");
                            // Reconstruct the shimmed packet for the error.
                            let mut orig = pkt;
                            let self_addr = self
                                .stack
                                .iface_addr(self.local_iface)
                                .map(|ia| ia.addr)
                                .unwrap_or(Ipv4Addr::UNSPECIFIED);
                            encapsulate(&mut orig, self_addr);
                            self.stack.send_host_unreachable(ctx, &orig);
                        }
                    }
                    proto::UDP => {
                        let Ok(d) = UdpDatagram::decode(&pkt.payload) else { return };
                        if d.dst_port == CONTROL_PORT {
                            if let Ok(SpMessage::FwdRegister { mobile }) =
                                SpMessage::decode(&d.payload)
                            {
                                ctx.stats().incr("sp.fwd_registrations");
                                self.visitors.insert(mobile, ctx.now());
                            }
                        }
                    }
                    proto::ICMP => {
                        netstack::nodes::handle_icmp_delivery(&mut self.stack, ctx, &pkt);
                    }
                    _ => {}
                },
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

/// A mobile host under the Sunshine–Postel protocol: keeps its home
/// address, registers its current forwarder with the global directory.
#[derive(Debug)]
pub struct SpMobileNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// Home address (never changes).
    pub home_addr: Ipv4Addr,
    /// Home prefix.
    pub home_prefix: Prefix,
    /// Default gateway at home.
    pub home_gateway: Ipv4Addr,
    /// The global directory's address.
    pub directory: Ipv4Addr,
    /// Current forwarder, if visiting.
    pub forwarder: Option<Ipv4Addr>,
    iface: IfaceId,
}

impl SpMobileNode {
    /// Creates the mobile host (starts at home).
    pub fn new(
        home_addr: Ipv4Addr,
        home_prefix: Prefix,
        home_gateway: Ipv4Addr,
        directory: Ipv4Addr,
    ) -> SpMobileNode {
        SpMobileNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            home_addr,
            home_prefix,
            home_gateway,
            directory,
            forwarder: None,
            iface: IfaceId(0),
        }
    }

    fn attach_via(&mut self, ctx: &mut Ctx<'_>, forwarder: Ipv4Addr) {
        let is_new = self.forwarder != Some(forwarder);
        if is_new {
            self.stack.remove_iface_binding(self.iface);
            self.stack.add_iface(self.iface, self.home_addr, Prefix::host(self.home_addr));
            self.stack.arp.clear_iface(self.iface);
            self.stack.routes.remove(Prefix::default_route());
            self.stack.routes.add(
                Prefix::default_route(),
                NextHop::Gateway { iface: self.iface, via: forwarder },
            );
            self.forwarder = Some(forwarder);
            // Register with the global directory (the §7 bottleneck).
            ctx.stats().incr("sp.mobile_registrations");
            let reg = SpMessage::Register { mobile: self.home_addr, forwarder };
            self.stack.send_udp(ctx, self.directory, CONTROL_PORT, CONTROL_PORT, reg.encode());
        }
        // (Re-)register the local lease every beacon.
        let reg = SpMessage::FwdRegister { mobile: self.home_addr };
        let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, reg.encode());
        let ident = self.stack.next_ident();
        let pkt =
            Ipv4Packet::new(self.home_addr, forwarder, proto::UDP, d.encode()).with_ident(ident);
        self.stack.send_direct(ctx, self.iface, pkt);
    }
}

impl Node for SpMobileNode {
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
                            if b.protocol == PROTO_SPFWD {
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
            self.forwarder = None;
        }
    }
}

// Per-data-packet counters.
static VIA_FORWARDER: Counter = Counter::new("sp.data_via_forwarder");
static OVERHEAD_BYTES: Counter = Counter::new("sp.overhead_bytes");

/// A correspondent host under the Sunshine–Postel protocol: queries the
/// directory before sending, re-queries on host-unreachable.
#[derive(Debug)]
pub struct SpHostNode {
    /// The IP engine.
    pub stack: IpStack,
    /// The application layer.
    pub endpoint: Endpoint,
    /// The global directory's address.
    pub directory: Ipv4Addr,
    bindings: HashMap<Ipv4Addr, Ipv4Addr>, // dst -> forwarder (0 = plain)
    pending: HashMap<Ipv4Addr, Vec<Ipv4Packet>>,
    recent: HashMap<Ipv4Addr, Vec<Ipv4Packet>>,
}

/// How many recently sent packets are kept per destination for
/// retransmission after a re-query.
pub const RETRANSMIT_BUFFER: usize = 4;

impl SpHostNode {
    /// Creates a correspondent host using `directory`.
    pub fn new(directory: Ipv4Addr) -> SpHostNode {
        SpHostNode {
            stack: IpStack::new(false),
            endpoint: Endpoint::new(),
            directory,
            bindings: HashMap::new(),
            pending: HashMap::new(),
            recent: HashMap::new(),
        }
    }

    /// Sends `pkt` under the protocol: query-first, then via forwarder.
    pub fn send_data(&mut self, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        let dst = pkt.dst;
        match self.bindings.get(&dst) {
            Some(fwd) if fwd.is_unspecified() => {
                self.remember(dst, &pkt);
                self.stack.send(ctx, pkt);
            }
            Some(&fwd) => {
                self.remember(dst, &pkt);
                let mut pkt = pkt;
                VIA_FORWARDER.incr(ctx.stats());
                OVERHEAD_BYTES.add(ctx.stats(), SP_SHIM_LEN as u64);
                encapsulate(&mut pkt, fwd);
                self.stack.send(ctx, pkt);
            }
            None => {
                self.pending.entry(dst).or_default().push(pkt);
                self.query(ctx, dst);
            }
        }
    }

    /// Convenience ping under the protocol.
    pub fn ping(&mut self, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let src = self.stack.pick_src(dst).expect("host has an address");
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), src, dst);
        self.send_data(ctx, pkt);
    }

    /// Convenience UDP send under the protocol.
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

    fn remember(&mut self, dst: Ipv4Addr, pkt: &Ipv4Packet) {
        let buf = self.recent.entry(dst).or_default();
        if buf.len() >= RETRANSMIT_BUFFER {
            buf.remove(0);
        }
        buf.push(pkt.clone());
    }

    fn query(&mut self, ctx: &mut Ctx<'_>, mobile: Ipv4Addr) {
        ctx.stats().incr("sp.host_queries");
        let q = SpMessage::Query { mobile };
        self.stack.send_udp(ctx, self.directory, CONTROL_PORT, CONTROL_PORT, q.encode());
        ctx.set_timer(SimDuration::from_secs(2), TimerToken(QUERY_TIMER));
    }
}

impl Node for SpHostNode {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
        if let Some(ev) = self.stack.handle_frame(ctx, iface, frame) {
            let StackEvent::Deliver { pkt, .. } = ev else { return };
            match pkt.protocol {
                proto::UDP => {
                    if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                        if d.dst_port == CONTROL_PORT {
                            if let Ok(SpMessage::Response { mobile, forwarder }) =
                                SpMessage::decode(&d.payload)
                            {
                                self.bindings.insert(mobile, forwarder);
                                for queued in self.pending.remove(&mobile).unwrap_or_default() {
                                    self.send_data(ctx, queued);
                                }
                            }
                            return;
                        }
                    }
                    self.endpoint.deliver(&mut self.stack, ctx, &pkt);
                }
                proto::ICMP => {
                    // Host unreachable about a shimmed packet: purge the
                    // binding, re-query, retransmit the recent window.
                    if let Ok(msg) = IcmpMessage::decode(&pkt.payload) {
                        if let Some(original) = msg.original() {
                            if original.len() >= 20 + SP_SHIM_LEN && original[9] == PROTO_SPFWD {
                                let hl = usize::from(original[0] & 0xf) * 4;
                                if original.len() >= hl + 8 {
                                    let b = &original[hl + 4..hl + 8];
                                    let mobile = Ipv4Addr::new(b[0], b[1], b[2], b[3]);
                                    ctx.stats().incr("sp.requery_after_unreachable");
                                    self.bindings.remove(&mobile);
                                    let buffered =
                                        self.recent.get(&mobile).cloned().unwrap_or_default();
                                    for p in buffered {
                                        self.pending.entry(mobile).or_default().push(p);
                                    }
                                    self.query(ctx, mobile);
                                    return;
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
        if self.stack.on_timer(ctx, timer) {
            return;
        }
        if timer.0 & QUERY_TIMER != 0 {
            // Re-issue any queries whose answers never came.
            let waiting: Vec<Ipv4Addr> = self.pending.keys().copied().collect();
            for mobile in waiting {
                self.query(ctx, mobile);
            }
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
            SpMessage::Register { mobile: a(1), forwarder: a(2) },
            SpMessage::Query { mobile: a(1) },
            SpMessage::Response { mobile: a(1), forwarder: Ipv4Addr::UNSPECIFIED },
            SpMessage::FwdRegister { mobile: a(1) },
        ] {
            assert_eq!(SpMessage::decode(&m.encode()).unwrap(), m);
        }
        assert!(SpMessage::decode(&[]).is_err());
        assert!(SpMessage::decode(&[9]).is_err());
    }

    #[test]
    fn shim_adds_exactly_8_bytes_and_round_trips() {
        let mut pkt = Ipv4Packet::new(a(1), a(7), proto::UDP, b"payload".to_vec());
        let before = pkt.wire_len();
        encapsulate(&mut pkt, a(100));
        assert_eq!(pkt.wire_len(), before + SP_SHIM_LEN);
        assert_eq!(pkt.dst, a(100));
        assert_eq!(pkt.protocol, PROTO_SPFWD);
        let mobile = decapsulate(&mut pkt).unwrap();
        assert_eq!(mobile, a(7));
        assert_eq!(pkt.dst, a(7));
        assert_eq!(pkt.protocol, proto::UDP);
        assert_eq!(pkt.payload, b"payload");
    }

    #[test]
    fn decapsulate_rejects_non_shim() {
        let mut pkt = Ipv4Packet::new(a(1), a(7), proto::UDP, vec![]);
        assert!(decapsulate(&mut pkt).is_err());
    }

    #[test]
    fn visitor_lease_expires() {
        let mut f = SpForwarderNode::new(IfaceId(0));
        f.visitors.insert(a(7), SimTime::from_secs(0));
        assert!(f.has_visitor(a(7), SimTime::from_secs(1)));
        assert!(!f.has_visitor(a(7), SimTime::from_secs(10)));
    }
}
