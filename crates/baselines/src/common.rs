//! Infrastructure shared by the baseline protocols: agent beacons, the
//! mobile-host shell, temporary-address pools, and the protocol numbers /
//! ports they use.
//!
//! Every baseline needs two things MHRP also needs but solves within
//! itself: a way for mobile hosts to *find* the local support node
//! (forwarder / MSR / PFS / base station), and — for the Columbia, Sony
//! and Matsushita protocols — a **temporary IP address** on the visited
//! network. The paper's §7 scalability critique of those protocols rests
//! partly on that temporary-address requirement, so the pool is explicit
//! and exhaustible here.
//!
//! Support nodes find nothing themselves: they [`beacon`] once a
//! [`BEACON_INTERVAL`]. Each mobile host is a [`MobileShell`] plus its
//! protocol's delta: the shell binds the home address at start, reads
//! beacons, re-homes the host behind the agent it heard, registers with
//! it over the link, and forgets it on detach.

use std::net::Ipv4Addr;

use ip::ipv4::Ipv4Packet;
use ip::udp::UdpDatagram;
use ip::{proto, PacketError, Prefix};
use netsim::time::SimDuration;
use netsim::{Ctx, IfaceId, LinkEvent, TimerToken};
use netstack::nodes::Endpoint;
use netstack::route::NextHop;
use netstack::IpStack;

/// UDP port for baseline agent beacons (like MHRP's advertisements).
pub const BEACON_PORT: u16 = 9000;

/// UDP port for baseline control messages (registrations, queries).
pub const CONTROL_PORT: u16 = 9001;

/// IP protocol number for the Sunshine-Postel source-route shim.
pub const PROTO_SPFWD: u8 = 153;

/// Interval between two beacons of a support node.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Timer token bit of the periodic beacon.
const BEACON_TIMER: u64 = 1 << 57;

/// Broadcasts one [`Beacon`] for `protocol` on `iface`, when it has an
/// address and is attached, and arms the next one.
pub fn beacon(stack: &mut IpStack, ctx: &mut Ctx<'_>, iface: IfaceId, protocol: u8) {
    if let Some(ia) = stack.iface_addr(iface).filter(|_| ctx.iface_attached(iface)) {
        let beacon = Beacon { agent: ia.addr, protocol };
        link_broadcast(stack, ctx, iface, ia.addr, BEACON_PORT, beacon.encode());
    }
    ctx.set_timer(BEACON_INTERVAL, TimerToken(BEACON_TIMER));
}

/// Whether `timer` is the one [`beacon`] arms.
pub fn is_beacon_timer(timer: TimerToken) -> bool {
    timer.0 & BEACON_TIMER != 0
}

/// Broadcasts `msg` on `port` from `src`, on `iface`'s link only.
pub fn link_broadcast(
    stack: &mut IpStack,
    ctx: &mut Ctx<'_>,
    iface: IfaceId,
    src: Ipv4Addr,
    port: u16,
    msg: Vec<u8>,
) {
    let d = UdpDatagram::new(port, port, msg);
    let ident = stack.next_ident();
    let pkt = Ipv4Packet::new(src, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
        .with_ident(ident)
        .with_ttl(1);
    stack.send_link_broadcast(ctx, iface, pkt);
}

/// A baseline host's own traffic: the protocol's send path, and UDP on it.
pub trait SendPath {
    /// Puts `pkt` on the protocol's send path.
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet);

    /// The source address of the host's own packets to `dst`.
    fn source(&self, stack: &IpStack, dst: Ipv4Addr) -> Ipv4Addr {
        stack.pick_src(dst).expect("host has an address")
    }

    /// Sends UDP to `dst` along the send path.
    fn send_udp(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) {
        let pkt = Endpoint::make_udp(self.source(stack, dst), dst, src_port, dst_port, payload);
        self.send_data(stack, ctx, pkt);
    }
}

/// The payload of `pkt` when it is a datagram to the control port.
pub fn control(pkt: &Ipv4Packet) -> Option<Vec<u8>> {
    if pkt.protocol != proto::UDP {
        return None;
    }
    let d = UdpDatagram::decode(&pkt.payload).ok()?;
    (d.dst_port == CONTROL_PORT).then_some(d.payload)
}

/// What a packet delivered to a baseline mobile host is to its shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heard {
    /// A beacon from a support node of the host's protocol.
    Agent(Ipv4Addr),
    /// Anything else on the beacon port: another protocol's beacon, or
    /// garbage. The host drops it.
    Noise,
    /// Not for the beacon port: the protocol handles it.
    Other,
}

/// The interface every baseline mobile host has.
const MOBILE_IFACE: IfaceId = IfaceId(0);

/// What every baseline mobile host shares: a home address bound at start
/// behind the home gateway, and the support node it sits behind now.
#[derive(Debug)]
pub struct MobileShell {
    /// Home address (the host's permanent identity).
    pub home_addr: Ipv4Addr,
    /// Home network prefix.
    pub home_prefix: Prefix,
    /// Default gateway at home.
    pub home_gateway: Ipv4Addr,
    /// The support node the host sits behind, if it heard one since it
    /// last attached.
    pub agent: Option<Ipv4Addr>,
}

impl MobileShell {
    /// A host at home, behind no support node yet.
    pub fn new(home_addr: Ipv4Addr, home_prefix: Prefix, home_gateway: Ipv4Addr) -> MobileShell {
        MobileShell { home_addr, home_prefix, home_gateway, agent: None }
    }

    /// Binds the home address and routes via the home gateway.
    pub fn start(&self, stack: &mut IpStack) {
        stack.add_iface(MOBILE_IFACE, self.home_addr, self.home_prefix);
        stack.routes.add(
            Prefix::default_route(),
            NextHop::Gateway { iface: MOBILE_IFACE, via: self.home_gateway },
        );
    }

    /// Reads `pkt` as a beacon for `protocol`.
    pub fn hear(pkt: &Ipv4Packet, protocol: u8) -> Heard {
        if pkt.protocol != proto::UDP {
            return Heard::Other;
        }
        match UdpDatagram::decode(&pkt.payload) {
            Ok(d) if d.dst_port == BEACON_PORT => match Beacon::decode(&d.payload) {
                Ok(b) if b.protocol == protocol => Heard::Agent(b.agent),
                _ => Heard::Noise,
            },
            _ => Heard::Other,
        }
    }

    /// Re-homes the host behind `agent`: the home address becomes a host
    /// route on the link and everything goes via `agent`.
    pub fn rehome(&mut self, stack: &mut IpStack, agent: Ipv4Addr) {
        MobileShell::rebind(stack, self.home_addr, Prefix::host(self.home_addr), agent);
        self.agent = Some(agent);
    }

    /// Binds `addr`/`prefix` in place of the link's old address, starts
    /// ARP over and routes everything via `gateway`.
    pub fn rebind(stack: &mut IpStack, addr: Ipv4Addr, prefix: Prefix, gateway: Ipv4Addr) {
        stack.remove_iface_binding(MOBILE_IFACE);
        stack.add_iface(MOBILE_IFACE, addr, prefix);
        stack.arp.clear_iface(MOBILE_IFACE);
        stack.routes.remove(Prefix::default_route());
        stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: MOBILE_IFACE, via: gateway });
    }

    /// Sends `msg` from the home address to `agent`'s control port,
    /// straight over the link.
    pub fn register(&self, stack: &mut IpStack, ctx: &mut Ctx<'_>, agent: Ipv4Addr, msg: Vec<u8>) {
        let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, msg);
        let ident = stack.next_ident();
        let pkt = Ipv4Packet::new(self.home_addr, agent, proto::UDP, d.encode()).with_ident(ident);
        stack.send_direct(ctx, MOBILE_IFACE, pkt);
    }

    /// Asks `agent` for a temporary address: the host has no usable
    /// address on a visited link yet, so `msg` goes out as a link
    /// broadcast from the home address.
    pub fn ask(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, agent: Ipv4Addr, msg: Vec<u8>) {
        self.agent = Some(agent);
        let d = UdpDatagram::new(CONTROL_PORT, CONTROL_PORT, msg);
        let pkt = Ipv4Packet::new(self.home_addr, Ipv4Addr::BROADCAST, proto::UDP, d.encode())
            .with_ttl(1);
        stack.send_link_broadcast(ctx, MOBILE_IFACE, pkt);
    }

    /// Forgets the agent when the link goes.
    pub fn link(&mut self, event: LinkEvent) {
        if event == LinkEvent::Detached {
            self.agent = None;
        }
    }
}

/// A control message on the wire: its type byte, then each address.
pub fn encode_msg(ty: u8, addrs: &[Ipv4Addr]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + 4 * addrs.len());
    buf.push(ty);
    for addr in addrs {
        buf.extend_from_slice(&addr.octets());
    }
    buf
}

/// The `N` addresses at the front of a control message's body.
///
/// # Errors
///
/// Returns [`PacketError::Truncated`] if the body is shorter.
pub fn decode_addrs<const N: usize>(body: &[u8]) -> Result<[Ipv4Addr; N], PacketError> {
    if body.len() < 4 * N {
        return Err(PacketError::Truncated);
    }
    Ok(std::array::from_fn(|i| {
        let b = &body[4 * i..4 * i + 4];
        Ipv4Addr::new(b[0], b[1], b[2], b[3])
    }))
}

/// A periodic beacon from a baseline support node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Beacon {
    /// The advertising support node's address on this network.
    pub agent: Ipv4Addr,
    /// Protocol discriminator (so co-located experiments don't confuse
    /// each other's agents).
    pub protocol: u8,
}

impl Beacon {
    /// Encodes to 8 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.push(self.protocol);
        buf.extend_from_slice(&[0; 3]);
        buf.extend_from_slice(&self.agent.octets());
        buf
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError::Truncated`] if fewer than 8 bytes are given.
    pub fn decode(buf: &[u8]) -> Result<Beacon, PacketError> {
        if buf.len() < 8 {
            return Err(PacketError::Truncated);
        }
        Ok(Beacon { protocol: buf[0], agent: Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]) })
    }
}

/// A finite pool of temporary addresses on one network.
///
/// The Columbia, Sony and Matsushita protocols require each visiting
/// mobile host to obtain one; §7 argues this "places a limit on their
/// scalability, since the available IP address space within any foreign
/// network number is limited". [`TempAddrPool::exhausted`] makes that
/// limit measurable (experiment E07).
#[derive(Debug)]
pub struct TempAddrPool {
    prefix: Prefix,
    next: u32,
    limit: u32,
    allocated: Vec<Ipv4Addr>,
}

impl TempAddrPool {
    /// Creates a pool of `limit` addresses inside `prefix`, starting at
    /// host number `first`.
    pub fn new(prefix: Prefix, first: u32, limit: u32) -> TempAddrPool {
        TempAddrPool { prefix, next: first, limit, allocated: Vec::new() }
    }

    /// Allocates the next temporary address, or `None` when exhausted.
    pub fn allocate(&mut self) -> Option<Ipv4Addr> {
        if self.allocated.len() as u32 >= self.limit {
            return None;
        }
        let addr = self.prefix.host_at(self.next);
        self.next += 1;
        self.allocated.push(addr);
        Some(addr)
    }

    /// Returns `addr` to the pool.
    pub fn release(&mut self, addr: Ipv4Addr) {
        self.allocated.retain(|a| *a != addr);
    }

    /// Whether the pool has no more addresses.
    pub fn exhausted(&self) -> bool {
        self.allocated.len() as u32 >= self.limit
    }

    /// Number of outstanding allocations.
    pub fn in_use(&self) -> usize {
        self.allocated.len()
    }

    /// The pool's network prefix.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_round_trips() {
        let b = Beacon { agent: Ipv4Addr::new(10, 4, 0, 1), protocol: 7 };
        assert_eq!(Beacon::decode(&b.encode()).unwrap(), b);
        assert_eq!(b.encode().len(), 8);
        assert!(Beacon::decode(&[0; 4]).is_err());
    }

    #[test]
    fn pool_allocates_releases_and_exhausts() {
        let prefix: Prefix = "10.4.0.0/24".parse().unwrap();
        let mut pool = TempAddrPool::new(prefix, 100, 2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        assert_ne!(a, b);
        assert!(prefix.contains(a) && prefix.contains(b));
        assert!(pool.exhausted());
        assert_eq!(pool.allocate(), None);
        pool.release(a);
        assert!(!pool.exhausted());
        assert!(pool.allocate().is_some());
        assert_eq!(pool.in_use(), 2);
    }
}
