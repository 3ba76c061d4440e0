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
use ip::{proto, PacketError, Prefix};
use netsim::time::{SimDuration, SimTime};
use netsim::{Counter, Ctx, IfaceId, LinkEvent, TimerToken};
use netstack::nodes::{handle_icmp_delivery, Endpoint, Protocol, StackNode};
use netstack::IpStack;

use crate::common::{
    beacon, control, decode_addrs, encode_msg, is_beacon_timer, Heard, MobileShell, SendPath,
    CONTROL_PORT, PROTO_SPFWD,
};

const QUERY_TIMER: u64 = 1 << 56;

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
        match *self {
            SpMessage::Register { mobile, forwarder } => encode_msg(1, &[mobile, forwarder]),
            SpMessage::Query { mobile } => encode_msg(2, &[mobile]),
            SpMessage::Response { mobile, forwarder } => encode_msg(3, &[mobile, forwarder]),
            SpMessage::FwdRegister { mobile } => encode_msg(4, &[mobile]),
        }
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<SpMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        Ok(match ty {
            1 => {
                let [mobile, forwarder] = decode_addrs(rest)?;
                SpMessage::Register { mobile, forwarder }
            }
            2 => SpMessage::Query { mobile: decode_addrs::<1>(rest)?[0] },
            3 => {
                let [mobile, forwarder] = decode_addrs(rest)?;
                SpMessage::Response { mobile, forwarder }
            }
            4 => SpMessage::FwdRegister { mobile: decode_addrs::<1>(rest)?[0] },
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
pub type SpDirectoryNode = StackNode<SpDirectory>;

/// The protocol of an [`SpDirectoryNode`]: mobile host → forwarder.
#[derive(Debug, Default)]
pub struct SpDirectory {
    db: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl SpDirectory {
    /// Directory size (the global state §7 objects to; metric for E07).
    pub fn db_size(&self) -> usize {
        self.db.len()
    }
}

impl Protocol for SpDirectory {
    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        let Some(Ok(msg)) = control(&pkt).map(|c| SpMessage::decode(&c)) else { return };
        match msg {
            SpMessage::Register { mobile, forwarder } => {
                ctx.stats().incr("sp.db_registrations");
                if forwarder.is_unspecified() {
                    self.db.remove(&mobile);
                } else {
                    self.db.insert(mobile, forwarder);
                }
            }
            SpMessage::Query { mobile } => {
                ctx.stats().incr("sp.db_queries");
                let forwarder = self.db.get(&mobile).copied().unwrap_or(Ipv4Addr::UNSPECIFIED);
                let resp = SpMessage::Response { mobile, forwarder };
                stack.send_udp(ctx, pkt.src, CONTROL_PORT, CONTROL_PORT, resp.encode());
            }
            _ => {}
        }
    }
}

/// A router that is also a Sunshine–Postel forwarder.
pub type SpForwarderNode = StackNode<SpForwarder>;

/// The protocol of an [`SpForwarderNode`].
#[derive(Debug)]
pub struct SpForwarder {
    /// The interface visitors connect on.
    pub local_iface: IfaceId,
    visitors: HashMap<Ipv4Addr, SimTime>,
}

impl SpForwarder {
    /// A forwarder serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> SpForwarder {
        SpForwarder { local_iface, visitors: HashMap::new() }
    }

    /// Whether `mobile`'s lease is current.
    pub fn has_visitor(&self, mobile: Ipv4Addr, now: SimTime) -> bool {
        self.visitors.get(&mobile).is_some_and(|&t| now.since(t) < VISITOR_LEASE)
    }
}

impl Protocol for SpForwarder {
    fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        beacon(stack, ctx, self.local_iface, PROTO_SPFWD);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        match pkt.protocol {
            PROTO_SPFWD => {
                let Ok(mobile) = decapsulate(&mut pkt) else { return };
                if self.has_visitor(mobile, ctx.now()) {
                    ctx.stats().incr("sp.delivered");
                    stack.send_direct(ctx, self.local_iface, pkt);
                } else {
                    // The documented behaviour: old forwarder answers "host
                    // unreachable"; the sender must re-query the directory.
                    ctx.stats().incr("sp.unreachable_returned");
                    // Reconstruct the shimmed packet for the error.
                    let self_addr = stack
                        .iface_addr(self.local_iface)
                        .map(|ia| ia.addr)
                        .unwrap_or(Ipv4Addr::UNSPECIFIED);
                    encapsulate(&mut pkt, self_addr);
                    stack.send_host_unreachable(ctx, &pkt);
                }
            }
            proto::ICMP => {
                handle_icmp_delivery(stack, ctx, &pkt);
            }
            _ => {
                if let Some(Ok(SpMessage::FwdRegister { mobile })) =
                    control(&pkt).map(|c| SpMessage::decode(&c))
                {
                    ctx.stats().incr("sp.fwd_registrations");
                    self.visitors.insert(mobile, ctx.now());
                }
            }
        }
    }

    fn timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if is_beacon_timer(timer) {
            beacon(stack, ctx, self.local_iface, PROTO_SPFWD);
        }
    }
}

/// A mobile host under the Sunshine–Postel protocol: keeps its home
/// address, registers its current forwarder with the global directory.
pub type SpMobileNode = StackNode<SpMobile>;

/// The protocol of an [`SpMobileNode`]; its shell's agent is the current
/// forwarder.
#[derive(Debug)]
pub struct SpMobile {
    /// Home address, gateway and current forwarder.
    pub shell: MobileShell,
    /// The application layer.
    pub endpoint: Endpoint,
    /// The global directory's address.
    pub directory: Ipv4Addr,
}

impl SpMobile {
    /// A mobile host at home.
    pub fn new(
        home_addr: Ipv4Addr,
        home_prefix: Prefix,
        home_gateway: Ipv4Addr,
        directory: Ipv4Addr,
    ) -> SpMobile {
        SpMobile {
            shell: MobileShell::new(home_addr, home_prefix, home_gateway),
            endpoint: Endpoint::new(),
            directory,
        }
    }

    fn attach_via(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, forwarder: Ipv4Addr) {
        if self.shell.agent != Some(forwarder) {
            self.shell.rehome(stack, forwarder);
            // Register with the global directory (the §7 bottleneck).
            ctx.stats().incr("sp.mobile_registrations");
            let reg = SpMessage::Register { mobile: self.shell.home_addr, forwarder };
            stack.send_udp(ctx, self.directory, CONTROL_PORT, CONTROL_PORT, reg.encode());
        }
        // (Re-)register the local lease every beacon.
        let reg = SpMessage::FwdRegister { mobile: self.shell.home_addr };
        self.shell.register(stack, ctx, forwarder, reg.encode());
    }
}

impl SendPath for SpMobile {
    /// Plain IP from the home address: only traffic *to* the host is
    /// redirected.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        stack.send(ctx, pkt);
    }

    fn source(&self, _: &IpStack, _: Ipv4Addr) -> Ipv4Addr {
        self.shell.home_addr
    }
}

impl Protocol for SpMobile {
    fn start(&mut self, stack: &mut IpStack, _ctx: &mut Ctx<'_>) {
        self.shell.start(stack);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        match MobileShell::hear(&pkt, PROTO_SPFWD) {
            Heard::Agent(forwarder) => self.attach_via(stack, ctx, forwarder),
            Heard::Noise => {}
            Heard::Other => {
                self.endpoint.deliver(stack, ctx, &pkt);
            }
        }
    }

    fn link(&mut self, _: &mut IpStack, _: &mut Ctx<'_>, _: IfaceId, event: LinkEvent) {
        self.shell.link(event);
    }
}

// Per-data-packet counters.
static VIA_FORWARDER: Counter = Counter::new("sp.data_via_forwarder");
static OVERHEAD_BYTES: Counter = Counter::new("sp.overhead_bytes");

/// A correspondent host under the Sunshine–Postel protocol: queries the
/// directory before sending, re-queries on host-unreachable.
pub type SpHostNode = StackNode<SpHost>;

/// The protocol of an [`SpHostNode`].
#[derive(Debug)]
pub struct SpHost {
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

impl SpHost {
    /// A correspondent host using `directory`.
    pub fn new(directory: Ipv4Addr) -> SpHost {
        SpHost {
            endpoint: Endpoint::new(),
            directory,
            bindings: HashMap::new(),
            pending: HashMap::new(),
            recent: HashMap::new(),
        }
    }

    /// Convenience ping under the protocol.
    pub fn ping(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, dst: Ipv4Addr) {
        let (_seq, pkt) = self.endpoint.make_ping(ctx.now(), self.source(stack, dst), dst);
        self.send_data(stack, ctx, pkt);
    }

    fn remember(&mut self, dst: Ipv4Addr, pkt: &Ipv4Packet) {
        let buf = self.recent.entry(dst).or_default();
        if buf.len() >= RETRANSMIT_BUFFER {
            buf.remove(0);
        }
        buf.push(pkt.clone());
    }

    fn query(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mobile: Ipv4Addr) {
        ctx.stats().incr("sp.host_queries");
        let q = SpMessage::Query { mobile };
        stack.send_udp(ctx, self.directory, CONTROL_PORT, CONTROL_PORT, q.encode());
        ctx.set_timer(SimDuration::from_secs(2), TimerToken(QUERY_TIMER));
    }

    /// The mobile host an ICMP error in `pkt` about a shimmed packet
    /// names, if `pkt` is one.
    fn unreachable_mobile(pkt: &Ipv4Packet) -> Option<Ipv4Addr> {
        if pkt.protocol != proto::ICMP {
            return None;
        }
        let msg = IcmpMessage::decode(&pkt.payload).ok()?;
        let original = msg.original()?;
        if original.len() < 20 + SP_SHIM_LEN || original[9] != PROTO_SPFWD {
            return None;
        }
        let hl = usize::from(original[0] & 0xf) * 4;
        let b = original.get(hl + 4..hl + 8)?;
        Some(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }
}

impl SendPath for SpHost {
    /// Query-first, then via the forwarder.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        let dst = pkt.dst;
        match self.bindings.get(&dst) {
            Some(fwd) if fwd.is_unspecified() => {
                self.remember(dst, &pkt);
                stack.send(ctx, pkt);
            }
            Some(&fwd) => {
                self.remember(dst, &pkt);
                VIA_FORWARDER.incr(ctx.stats());
                OVERHEAD_BYTES.add(ctx.stats(), SP_SHIM_LEN as u64);
                encapsulate(&mut pkt, fwd);
                stack.send(ctx, pkt);
            }
            None => {
                self.pending.entry(dst).or_default().push(pkt);
                self.query(stack, ctx, dst);
            }
        }
    }
}

impl Protocol for SpHost {
    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if let Some(msg) = control(&pkt) {
            if let Ok(SpMessage::Response { mobile, forwarder }) = SpMessage::decode(&msg) {
                self.bindings.insert(mobile, forwarder);
                for queued in self.pending.remove(&mobile).unwrap_or_default() {
                    self.send_data(stack, ctx, queued);
                }
            }
            return;
        }
        // Host unreachable about a shimmed packet: purge the binding,
        // re-query, retransmit the recent window.
        if let Some(mobile) = SpHost::unreachable_mobile(&pkt) {
            ctx.stats().incr("sp.requery_after_unreachable");
            self.bindings.remove(&mobile);
            let buffered = self.recent.get(&mobile).cloned().unwrap_or_default();
            for p in buffered {
                self.pending.entry(mobile).or_default().push(p);
            }
            self.query(stack, ctx, mobile);
            return;
        }
        self.endpoint.deliver(stack, ctx, &pkt);
    }

    fn timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if timer.0 & QUERY_TIMER != 0 {
            // Re-issue any queries whose answers never came, in address
            // order: the map's own order differs per instance.
            let mut waiting: Vec<Ipv4Addr> = self.pending.keys().copied().collect();
            waiting.sort_unstable();
            for mobile in waiting {
                self.query(stack, ctx, mobile);
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

    /// Every frame a harnessed node sends, in order.
    #[derive(Default)]
    struct Tape(Vec<Vec<u8>>);

    impl netsim::NodeIo for Tape {
        fn transmit(&mut self, _: netsim::NodeId, _: IfaceId, frame: netsim::Frame) {
            self.0.push(frame.payload.to_vec());
        }
    }

    /// A correspondent that asked the directory about eight mobile hosts
    /// and heard nothing back: the frames its query timers send.
    fn requeries() -> Vec<Vec<u8>> {
        let dir = a(9);
        let node = StackNode::host(SpHost::new(dir));
        let mut h = netsim::NodeHarness::new(netsim::NodeId(0), node, 7);
        h.add_iface(netsim::MacAddr([2, 0, 0, 0, 0, 1]), true);
        let mut tape = Tape::default();
        let t0 = SimTime::from_secs(0);
        h.with_node::<SpHostNode, _>(t0, &mut tape, |n, ctx| {
            n.stack.add_iface(IfaceId(0), a(2), "10.0.0.0/24".parse().unwrap());
            n.stack.arp.insert(IfaceId(0), dir, netsim::MacAddr([2, 0, 0, 0, 0, 9]));
            for m in 1..=8 {
                let pkt = Ipv4Packet::new(a(2), Ipv4Addr::new(10, 1, 0, m), proto::UDP, vec![m]);
                n.proto.send_data(&mut n.stack, ctx, pkt);
            }
        });
        tape.0.clear();
        h.tick(SimTime::from_secs(2), &mut tape);
        tape.0
    }

    #[test]
    fn requeries_leave_in_address_order() {
        // Two identical hosts in one process hold their pending mobiles
        // in maps with different hash keys; what they send must not
        // depend on that.
        let first = requeries();
        assert_eq!(first.len(), 64, "eight timers, each re-asking for eight mobiles");
        assert_eq!(first, requeries());
    }

    #[test]
    fn visitor_lease_expires() {
        let mut f = SpForwarder::new(IfaceId(0));
        f.visitors.insert(a(7), SimTime::from_secs(0));
        assert!(f.has_visitor(a(7), SimTime::from_secs(1)));
        assert!(!f.has_visitor(a(7), SimTime::from_secs(10)));
    }
}
