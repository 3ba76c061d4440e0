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
use ip::{proto, PacketError, Prefix};
use netsim::time::{SimDuration, SimTime};
use netsim::{Counter, Ctx, IfaceId, LinkEvent, TeleEventKind, TimerToken};
use netstack::nodes::{handle_icmp_delivery, Endpoint, Protocol, StackNode};
use netstack::IpStack;

use crate::common::{
    beacon, control, decode_addrs, encode_msg, is_beacon_timer, Heard, MobileShell, SendPath,
    CONTROL_PORT,
};

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
        match *self {
            ColumbiaMessage::MsrRegister { mobile } => encode_msg(1, &[mobile]),
            ColumbiaMessage::MsrQuery { mobile } => encode_msg(2, &[mobile]),
            ColumbiaMessage::MsrQueryReply { mobile, msr } => encode_msg(3, &[mobile, msr]),
            ColumbiaMessage::PopupRegister { mobile, temp } => encode_msg(4, &[mobile, temp]),
        }
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<ColumbiaMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        Ok(match ty {
            1 => ColumbiaMessage::MsrRegister { mobile: decode_addrs::<1>(rest)?[0] },
            2 => ColumbiaMessage::MsrQuery { mobile: decode_addrs::<1>(rest)?[0] },
            3 => {
                let [mobile, msr] = decode_addrs(rest)?;
                ColumbiaMessage::MsrQueryReply { mobile, msr }
            }
            4 => {
                let [mobile, temp] = decode_addrs(rest)?;
                ColumbiaMessage::PopupRegister { mobile, temp }
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
pub type MsrNode = StackNode<Msr>;

/// The protocol of an [`MsrNode`].
#[derive(Debug)]
pub struct Msr {
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

impl Msr {
    /// An MSR serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> Msr {
        Msr {
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
    pub fn add_home_mobile(&mut self, stack: &mut IpStack, mobile: Ipv4Addr) {
        self.home_mobiles.insert(mobile);
        stack.add_capture(mobile);
        stack.arp.add_proxy(self.local_iface, mobile);
    }

    /// Whether `mobile` currently visits this MSR (lease unexpired).
    pub fn has_visitor(&self, mobile: Ipv4Addr, now: SimTime) -> bool {
        self.visitors.get(&mobile).is_some_and(|&t| now.since(t) < VISITOR_LEASE)
    }

    /// Cache size (state metric, E07).
    pub fn cache_len(&self) -> usize {
        self.msr_cache.len()
    }

    fn self_addr(&self, stack: &IpStack) -> Ipv4Addr {
        stack.iface_addr(self.local_iface).map(|ia| ia.addr).unwrap_or_else(|| stack.primary_addr())
    }

    fn tunnel_to(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        target: Ipv4Addr,
        inner: &Ipv4Packet,
    ) {
        TUNNELED.incr(ctx.stats());
        OVERHEAD_BYTES.add(ctx.stats(), IPIP_OVERHEAD as u64);
        ctx.tele_event(TeleEventKind::Encap { by_sender: false });
        let ident = stack.next_ident();
        let mut outer = ipip_encapsulate(inner, self.self_addr(stack), target, ident);
        // The MSR is a router hop for the tunneled packet.
        outer.ttl = outer.ttl.saturating_sub(1);
        stack.send(ctx, outer);
    }

    fn locate_and_tunnel(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mobile: Ipv4Addr,
        inner: Ipv4Packet,
    ) {
        if self.has_visitor(mobile, ctx.now()) {
            stack.send_direct(ctx, self.local_iface, inner);
            return;
        }
        if let Some(&temp) = self.popup_bindings.get(&mobile) {
            self.tunnel_to(stack, ctx, temp, &inner);
            return;
        }
        if let Some(&msr) = self.msr_cache.get(&mobile) {
            self.tunnel_to(stack, ctx, msr, &inner);
            return;
        }
        // Cache miss: multicast a query to every peer MSR — the §7
        // control-traffic cost (one message per peer, per miss).
        ctx.stats().incr("columbia.query_rounds");
        ctx.stats().add("columbia.query_messages", self.peers.len() as u64);
        self.pending.entry(mobile).or_default().push(inner);
        let q = ColumbiaMessage::MsrQuery { mobile };
        for &peer in &self.peers {
            stack.send_udp(ctx, peer, CONTROL_PORT, CONTROL_PORT, q.encode());
        }
    }

    fn on_control(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        msg: ColumbiaMessage,
    ) {
        match msg {
            ColumbiaMessage::MsrRegister { mobile } => {
                ctx.stats().incr("columbia.registrations");
                self.visitors.insert(mobile, ctx.now());
                self.msr_cache.remove(&mobile);
                for queued in self.pending.remove(&mobile).unwrap_or_default() {
                    stack.send_direct(ctx, self.local_iface, queued);
                }
            }
            ColumbiaMessage::MsrQuery { mobile } => {
                if self.has_visitor(mobile, ctx.now()) {
                    let reply =
                        ColumbiaMessage::MsrQueryReply { mobile, msr: self.self_addr(stack) };
                    stack.send_udp(ctx, src, CONTROL_PORT, CONTROL_PORT, reply.encode());
                }
            }
            ColumbiaMessage::MsrQueryReply { mobile, msr } => {
                self.msr_cache.insert(mobile, msr);
                for queued in self.pending.remove(&mobile).unwrap_or_default() {
                    self.tunnel_to(stack, ctx, msr, &queued);
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

impl Protocol for Msr {
    fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        beacon(stack, ctx, self.local_iface, proto::IPIP);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        // Captured home-mobile traffic.
        if stack.is_captured(pkt.dst) && !stack.is_local_addr(pkt.dst) {
            self.locate_and_tunnel(stack, ctx, pkt.dst, pkt);
            return;
        }
        match pkt.protocol {
            proto::IPIP => {
                let Ok(inner) = ipip_decapsulate(&pkt) else { return };
                ctx.tele_event(TeleEventKind::Decap);
                let mobile = inner.dst;
                if self.has_visitor(mobile, ctx.now()) {
                    ctx.stats().incr("columbia.delivered");
                    stack.send_direct(ctx, self.local_iface, inner);
                } else {
                    // Stale cache at the tunneling MSR: locate afresh from
                    // here.
                    ctx.stats().incr("columbia.stale_tunnel");
                    self.locate_and_tunnel(stack, ctx, mobile, inner);
                }
            }
            proto::ICMP => {
                handle_icmp_delivery(stack, ctx, &pkt);
            }
            _ => {
                if let Some(Ok(msg)) = control(&pkt).map(|c| ColumbiaMessage::decode(&c)) {
                    self.on_control(stack, ctx, pkt.src, msg);
                }
            }
        }
    }

    fn timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if is_beacon_timer(timer) {
            beacon(stack, ctx, self.local_iface, proto::IPIP);
        }
    }
}

/// A Columbia mobile host.
pub type ColumbiaMobileNode = StackNode<ColumbiaMobile>;

/// The protocol of a [`ColumbiaMobileNode`]; its shell's home gateway is
/// the home MSR (the anchor for popup mode) and its agent the MSR serving
/// it inside the campus.
#[derive(Debug)]
pub struct ColumbiaMobile {
    /// Home address, home MSR and serving MSR.
    pub shell: MobileShell,
    /// The application layer.
    pub endpoint: Endpoint,
    /// Temporary address while outside the campus, if any.
    pub temp_addr: Option<Ipv4Addr>,
}

impl ColumbiaMobile {
    /// A mobile host at home behind `home_msr`, which, like any MSR, it
    /// registers with on its first beacon (the MSR always advertises
    /// reachability for it, so it must know the host is present).
    pub fn new(home_addr: Ipv4Addr, home_prefix: Prefix, home_msr: Ipv4Addr) -> ColumbiaMobile {
        ColumbiaMobile {
            shell: MobileShell::new(home_addr, home_prefix, home_msr),
            endpoint: Endpoint::new(),
            temp_addr: None,
        }
    }

    fn attach_via_msr(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, msr: Ipv4Addr) {
        // Re-registering with the same MSR each beacon refreshes the lease.
        if self.shell.agent != Some(msr) {
            self.temp_addr = None;
            stack.remove_capture(self.shell.home_addr);
            self.shell.rehome(stack, msr);
            ctx.stats().incr("columbia.mobile_moves");
        }
        let reg = ColumbiaMessage::MsrRegister { mobile: self.shell.home_addr };
        self.shell.register(stack, ctx, msr, reg.encode());
    }

    /// Enters popup mode on a network outside the campus: binds `temp`,
    /// routes via `gateway`, and registers the temporary address with the
    /// home MSR.
    pub fn popup(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        temp: Ipv4Addr,
        temp_prefix: Prefix,
        gateway: Ipv4Addr,
    ) {
        self.shell.agent = None;
        self.temp_addr = Some(temp);
        MobileShell::rebind(stack, temp, temp_prefix, gateway);
        stack.add_capture(self.shell.home_addr);
        ctx.stats().incr("columbia.popups");
        let reg = ColumbiaMessage::PopupRegister { mobile: self.shell.home_addr, temp };
        stack.send_udp(ctx, self.shell.home_gateway, CONTROL_PORT, CONTROL_PORT, reg.encode());
    }
}

impl SendPath for ColumbiaMobile {
    /// Plain IP from the home address: Columbia senders never tunnel.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        stack.send(ctx, pkt);
    }

    fn source(&self, _: &IpStack, _: Ipv4Addr) -> Ipv4Addr {
        self.shell.home_addr
    }
}

impl Protocol for ColumbiaMobile {
    fn start(&mut self, stack: &mut IpStack, _ctx: &mut Ctx<'_>) {
        self.shell.start(stack);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::IPIP {
            // Popup mode: tunnel terminates at our temp address.
            if let Ok(inner) = ipip_decapsulate(&pkt) {
                self.endpoint.deliver(stack, ctx, &inner);
            }
            return;
        }
        match MobileShell::hear(&pkt, proto::IPIP) {
            Heard::Agent(msr) => self.attach_via_msr(stack, ctx, msr),
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
