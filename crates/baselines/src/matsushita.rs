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
use ip::{proto, PacketError, Prefix};
use netsim::{Counter, Ctx, IfaceId, LinkEvent, TimerToken};
use netstack::nodes::{handle_icmp_delivery, Endpoint, Protocol, StackNode};
use netstack::IpStack;

use crate::common::{
    beacon, control, decode_addrs, encode_msg, is_beacon_timer, link_broadcast, Heard, MobileShell,
    SendPath, TempAddrPool, CONTROL_PORT,
};

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
        match *self {
            IptpMessage::TempRequest { mobile } => encode_msg(1, &[mobile]),
            IptpMessage::TempAssign { mobile, temp, prefix_len } => {
                let mut buf = encode_msg(2, &[mobile, temp]);
                buf.push(prefix_len);
                buf
            }
            IptpMessage::PfsRegister { mobile, temp } => encode_msg(3, &[mobile, temp]),
            IptpMessage::TempNotify { mobile, temp } => encode_msg(4, &[mobile, temp]),
        }
    }

    /// Decodes from control bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown type.
    pub fn decode(buf: &[u8]) -> Result<IptpMessage, PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        Ok(match ty {
            1 => IptpMessage::TempRequest { mobile: decode_addrs::<1>(rest)?[0] },
            2 => {
                let [mobile, temp] = decode_addrs(rest)?;
                let prefix_len = *rest.get(8).ok_or(PacketError::Truncated)?;
                IptpMessage::TempAssign { mobile, temp, prefix_len }
            }
            3 => {
                let [mobile, temp] = decode_addrs(rest)?;
                IptpMessage::PfsRegister { mobile, temp }
            }
            4 => {
                let [mobile, temp] = decode_addrs(rest)?;
                IptpMessage::TempNotify { mobile, temp }
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
pub type PfsNode = StackNode<Pfs>;

/// The protocol of a [`PfsNode`].
#[derive(Debug)]
pub struct Pfs {
    /// The home-network interface.
    pub home_iface: IfaceId,
    /// Whether the PFS notifies senders of temporary addresses, enabling
    /// autonomous mode.
    pub autonomous_notifications: bool,
    bindings: HashMap<Ipv4Addr, Ipv4Addr>,
    notified: HashSet<(Ipv4Addr, Ipv4Addr)>,
}

impl Pfs {
    /// A PFS on `home_iface`.
    pub fn new(home_iface: IfaceId) -> Pfs {
        Pfs {
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

    /// Forwarding mode: tunnels `pkt` for `mobile` to its temporary
    /// address, and tells the sender that address once.
    fn tunnel(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mobile: Ipv4Addr,
        pkt: Ipv4Packet,
    ) {
        let Some(&temp) = self.bindings.get(&mobile) else {
            ctx.stats().incr("iptp.no_binding");
            return;
        };
        FORWARDED.incr(ctx.stats());
        OVERHEAD_BYTES.add(ctx.stats(), IPTP_OVERHEAD as u64);
        let sender = pkt.src;
        let ident = stack.next_ident();
        let self_addr = stack
            .iface_addr(self.home_iface)
            .map(|ia| ia.addr)
            .unwrap_or_else(|| stack.primary_addr());
        let mut outer = iptp_encapsulate(&pkt, self_addr, temp, ident);
        // The PFS is a router hop for the tunneled packet.
        outer.ttl = outer.ttl.saturating_sub(1);
        stack.send(ctx, outer);
        if self.autonomous_notifications && self.notified.insert((sender, mobile)) {
            let n = IptpMessage::TempNotify { mobile, temp };
            stack.send_udp(ctx, sender, CONTROL_PORT, CONTROL_PORT, n.encode());
        }
    }
}

impl Protocol for Pfs {
    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if stack.is_captured(pkt.dst) && !stack.is_local_addr(pkt.dst) {
            self.tunnel(stack, ctx, pkt.dst, pkt);
            return;
        }
        if pkt.protocol == proto::ICMP {
            handle_icmp_delivery(stack, ctx, &pkt);
            return;
        }
        let Some(Ok(IptpMessage::PfsRegister { mobile, temp })) =
            control(&pkt).map(|c| IptpMessage::decode(&c))
        else {
            return;
        };
        ctx.stats().incr("iptp.registrations");
        if temp.is_unspecified() {
            self.bindings.remove(&mobile);
            stack.remove_capture(mobile);
            stack.arp.remove_proxy(self.home_iface, mobile);
        } else {
            self.bindings.insert(mobile, temp);
            stack.add_capture(mobile);
            stack.arp.add_proxy(self.home_iface, mobile);
            stack.send_gratuitous_arp(ctx, self.home_iface, mobile);
            // Movement invalidates who-was-notified.
            self.notified.retain(|(_, m)| *m != mobile);
        }
    }
}

/// An address-assignment agent on a visited network (router + pool).
pub type IptpAgentNode = StackNode<IptpAgent>;

/// The protocol of an [`IptpAgentNode`].
#[derive(Debug)]
pub struct IptpAgent {
    /// The local interface visitors attach to.
    pub local_iface: IfaceId,
    /// The temporary address pool.
    pub pool: TempAddrPool,
}

impl IptpAgent {
    /// An agent with `pool` on `local_iface`.
    pub fn new(local_iface: IfaceId, pool: TempAddrPool) -> IptpAgent {
        IptpAgent { local_iface, pool }
    }
}

impl Protocol for IptpAgent {
    fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        beacon(stack, ctx, self.local_iface, proto::IPTP);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::ICMP {
            handle_icmp_delivery(stack, ctx, &pkt);
        } else if let Some(Ok(IptpMessage::TempRequest { mobile })) =
            control(&pkt).map(|c| IptpMessage::decode(&c))
        {
            let temp = self.pool.allocate().unwrap_or(Ipv4Addr::UNSPECIFIED);
            if temp.is_unspecified() {
                ctx.stats().incr("iptp.pool_exhausted");
            }
            let reply =
                IptpMessage::TempAssign { mobile, temp, prefix_len: self.pool.prefix().len() };
            // The requester has no usable address yet: answer with a link
            // broadcast it will hear.
            let self_addr = stack
                .iface_addr(self.local_iface)
                .map(|ia| ia.addr)
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            link_broadcast(stack, ctx, self.local_iface, self_addr, CONTROL_PORT, reply.encode());
        }
    }

    fn timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if is_beacon_timer(timer) {
            beacon(stack, ctx, self.local_iface, proto::IPTP);
        }
    }
}

/// A Matsushita mobile host.
pub type MatsushitaMobileNode = StackNode<MatsushitaMobile>;

/// The protocol of a [`MatsushitaMobileNode`]; its shell's agent is the
/// address agent it asked for a temporary address.
#[derive(Debug)]
pub struct MatsushitaMobile {
    /// Home address, gateway and current address agent.
    pub shell: MobileShell,
    /// The application layer.
    pub endpoint: Endpoint,
    /// The PFS on the home network.
    pub pfs: Ipv4Addr,
    /// Current temporary address, if visiting.
    pub temp: Option<Ipv4Addr>,
    awaiting_temp: bool,
}

impl MatsushitaMobile {
    /// A mobile host at home.
    pub fn new(
        home_addr: Ipv4Addr,
        home_prefix: Prefix,
        home_gateway: Ipv4Addr,
        pfs: Ipv4Addr,
    ) -> MatsushitaMobile {
        MatsushitaMobile {
            shell: MobileShell::new(home_addr, home_prefix, home_gateway),
            endpoint: Endpoint::new(),
            pfs,
            temp: None,
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
        ctx.stats().incr("iptp.mobile_moves");
        self.awaiting_temp = false;
        self.temp = Some(temp);
        MobileShell::rebind(stack, temp, Prefix::new(temp, prefix_len), gateway);
        stack.add_capture(self.shell.home_addr);
        let reg = IptpMessage::PfsRegister { mobile: self.shell.home_addr, temp };
        stack.send_udp(ctx, self.pfs, CONTROL_PORT, CONTROL_PORT, reg.encode());
    }
}

impl SendPath for MatsushitaMobile {
    /// Plain IP from the home address: the PFS tunnels only toward the
    /// host.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        stack.send(ctx, pkt);
    }

    fn source(&self, _: &IpStack, _: Ipv4Addr) -> Ipv4Addr {
        self.shell.home_addr
    }
}

impl Protocol for MatsushitaMobile {
    fn start(&mut self, stack: &mut IpStack, _ctx: &mut Ctx<'_>) {
        self.shell.start(stack);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if pkt.protocol == proto::IPTP {
            if let Ok(inner) = iptp_decapsulate(&pkt) {
                ctx.stats().incr("iptp.mobile_decapsulated");
                self.endpoint.deliver(stack, ctx, &inner);
            }
            return;
        }
        match MobileShell::hear(&pkt, proto::IPTP) {
            Heard::Agent(agent) => {
                if self.shell.agent != Some(agent) {
                    self.awaiting_temp = true;
                    let req = IptpMessage::TempRequest { mobile: self.shell.home_addr };
                    self.shell.ask(stack, ctx, agent, req.encode());
                }
            }
            Heard::Noise => {}
            Heard::Other => match control(&pkt).map(|c| IptpMessage::decode(&c)) {
                Some(Ok(IptpMessage::TempAssign { mobile, temp, prefix_len }))
                    if mobile == self.shell.home_addr && self.awaiting_temp =>
                {
                    if temp.is_unspecified() {
                        ctx.stats().incr("iptp.temp_denied");
                    } else {
                        let gw = self.shell.agent.unwrap_or(self.shell.home_gateway);
                        self.adopt_temp(stack, ctx, temp, prefix_len, gw);
                    }
                }
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

/// A correspondent host capable of autonomous mode.
pub type MatsushitaHostNode = StackNode<MatsushitaHost>;

/// The protocol of a [`MatsushitaHostNode`].
#[derive(Debug, Default)]
pub struct MatsushitaHost {
    /// The application layer.
    pub endpoint: Endpoint,
    /// Autonomous-mode cache: mobile home address → temporary address.
    bindings: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl MatsushitaHost {
    /// The mobile host an ICMP error in `pkt` about a tunneled packet
    /// names, if `pkt` is one: its temporary address went stale.
    fn stale_mobile(pkt: &Ipv4Packet) -> Option<Ipv4Addr> {
        if pkt.protocol != proto::ICMP {
            return None;
        }
        let msg = IcmpMessage::decode(&pkt.payload).ok().filter(IcmpMessage::is_error)?;
        let original = msg.original()?;
        if original.len() < 20 + 8 || original[9] != proto::IPTP {
            return None;
        }
        let hl = usize::from(original[0] & 0xf) * 4;
        let b = original.get(hl..hl + 4)?;
        Some(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
    }
}

impl SendPath for MatsushitaHost {
    /// Tunnels directly (autonomous mode) when a temporary address is
    /// cached.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if let Some(&temp) = self.bindings.get(&pkt.dst) {
            ctx.stats().incr("iptp.autonomous_sent");
            ctx.stats().add("iptp.overhead_bytes", IPTP_OVERHEAD as u64);
            let ident = stack.next_ident();
            let outer = iptp_encapsulate(&pkt, pkt.src, temp, ident);
            stack.send(ctx, outer);
        } else {
            stack.send(ctx, pkt);
        }
    }
}

impl Protocol for MatsushitaHost {
    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        if let Some(payload) = control(&pkt) {
            if let Ok(IptpMessage::TempNotify { mobile, temp }) = IptpMessage::decode(&payload) {
                ctx.stats().incr("iptp.autonomous_enabled");
                self.bindings.insert(mobile, temp);
            }
            return;
        }
        // An error about a tunneled packet: fall back to forwarding mode.
        if let Some(mobile) = MatsushitaHost::stale_mobile(&pkt) {
            ctx.stats().incr("iptp.fallback_to_forwarding");
            self.bindings.remove(&mobile);
            return;
        }
        self.endpoint.deliver(stack, ctx, &pkt);
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
