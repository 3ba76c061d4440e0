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
//!   route ([`LsrrHost::broken`]) send replies to the mobile host's
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
use netsim::{Counter, Ctx, IfaceId, LinkEvent, TimerToken};
use netstack::nodes::{handle_icmp_delivery, Endpoint, Protocol, StackNode, UDP_ECHO_PORT};
use netstack::IpStack;

use crate::common::{
    beacon, control, decode_addrs, encode_msg, is_beacon_timer, Heard, MobileShell, SendPath,
};

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
        let LsrrMessage::Register { mobile } = *self;
        encode_msg(1, &[mobile])
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
        Ok(LsrrMessage::Register { mobile: decode_addrs::<1>(rest)?[0] })
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
pub type BaseStationNode = StackNode<BaseStation>;

/// The protocol of a [`BaseStationNode`].
#[derive(Debug)]
pub struct BaseStation {
    /// The interface visitors attach to.
    pub local_iface: IfaceId,
    visitors: HashSet<Ipv4Addr>,
}

impl BaseStation {
    /// A base station serving `local_iface`.
    pub fn new(local_iface: IfaceId) -> BaseStation {
        BaseStation { local_iface, visitors: HashSet::new() }
    }

    /// Whether `mobile` is registered here.
    pub fn has_visitor(&self, mobile: Ipv4Addr) -> bool {
        self.visitors.contains(&mobile)
    }
}

impl Protocol for BaseStation {
    fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        beacon(stack, ctx, self.local_iface, LSRR_PROTO_TAG);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        // An LSRR packet addressed to us: advance the source route and
        // forward (possibly to a local visitor).
        if pkt.has_options() {
            let self_addr = stack
                .iface_addr(self.local_iface)
                .map(|ia| ia.addr)
                .unwrap_or_else(|| stack.primary_addr());
            if lsrr_advance(&mut pkt, self_addr) {
                ctx.stats().incr("lsrr.bs_relayed");
                if self.visitors.contains(&pkt.dst) {
                    stack.send_direct(ctx, self.local_iface, pkt);
                } else if stack.routes.lookup(pkt.dst).is_some() {
                    stack.forward(ctx, pkt);
                } else {
                    // Moved away and no route: the §7 gap.
                    ctx.stats().incr("lsrr.bs_dead_ends");
                    stack.send_host_unreachable(ctx, &pkt);
                }
                return;
            }
        }
        if pkt.protocol == proto::ICMP {
            handle_icmp_delivery(stack, ctx, &pkt);
        } else if let Some(Ok(LsrrMessage::Register { mobile })) =
            control(&pkt).map(|c| LsrrMessage::decode(&c))
        {
            ctx.stats().incr("lsrr.registrations");
            self.visitors.insert(mobile);
        }
    }

    fn timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, timer: TimerToken) {
        if is_beacon_timer(timer) {
            beacon(stack, ctx, self.local_iface, LSRR_PROTO_TAG);
        }
    }
}

// Per-data-packet counters.
static SOURCE_ROUTED: Counter = Counter::new("lsrr.host_source_routed");
static OVERHEAD_BYTES: Counter = Counter::new("lsrr.overhead_bytes");
static SENT_VIA_BS: Counter = Counter::new("lsrr.mobile_sent_via_bs");

/// A correspondent host; `broken` models the deployed implementations
/// that fail to reverse recorded routes (§7).
pub type LsrrHostNode = StackNode<LsrrHost>;

/// The protocol of an [`LsrrHostNode`].
#[derive(Debug)]
pub struct LsrrHost {
    /// The application layer.
    pub endpoint: Endpoint,
    /// Whether this host's LSRR implementation is broken.
    pub broken: bool,
    reverse_routes: HashMap<Ipv4Addr, Vec<Ipv4Addr>>,
}

impl LsrrHost {
    /// A correspondent host.
    pub fn new(broken: bool) -> LsrrHost {
        LsrrHost { endpoint: Endpoint::new(), broken, reverse_routes: HashMap::new() }
    }

    /// The saved reverse route toward `peer`, if any.
    pub fn reverse_route(&self, peer: Ipv4Addr) -> Option<&[Ipv4Addr]> {
        self.reverse_routes.get(&peer).map(Vec::as_slice)
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
}

impl SendPath for LsrrHost {
    /// Source-routes via the saved reverse route when one exists (a
    /// correct implementation's behaviour).
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        if !self.broken {
            if let Some(&first) = self.reverse_routes.get(&pkt.dst).and_then(|r| r.first()) {
                SOURCE_ROUTED.incr(ctx.stats());
                OVERHEAD_BYTES.add(ctx.stats(), LSRR_OPTION_BYTES as u64);
                let final_dst = pkt.dst;
                pkt.dst = first;
                pkt.options.push(Ipv4Option::lsrr(vec![final_dst]));
            }
        }
        stack.send(ctx, pkt);
    }
}

impl Protocol for LsrrHost {
    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        self.learn_route(&pkt);
        // Echo replies must honour the reverse route, so intercept echo
        // requests rather than letting the plain autoreply answer.
        if pkt.protocol == proto::ICMP {
            if let Ok(IcmpMessage::EchoRequest { ident, seq, payload }) =
                IcmpMessage::decode(&pkt.payload)
            {
                let reply = IcmpMessage::EchoReply { ident, seq, payload };
                let src = stack.pick_src(pkt.src).expect("host has an address");
                let rp = Ipv4Packet::new(src, pkt.src, proto::ICMP, reply.encode());
                self.send_data(stack, ctx, rp);
                return;
            }
        }
        if pkt.protocol == proto::UDP {
            if let Ok(d) = UdpDatagram::decode(&pkt.payload) {
                if d.dst_port == UDP_ECHO_PORT {
                    // Echo the payload back along the reverse route.
                    let src = stack.pick_src(pkt.src).expect("host has an address");
                    let rp = Endpoint::make_udp(src, pkt.src, UDP_ECHO_PORT, d.src_port, d.payload);
                    self.send_data(stack, ctx, rp);
                }
            }
            // Still log it (disable the endpoint's own echo to avoid
            // double replies).
        }
        let was_echo = self.endpoint.udp_echo;
        self.endpoint.udp_echo = false;
        self.endpoint.deliver(stack, ctx, &pkt);
        self.endpoint.udp_echo = was_echo;
    }
}

/// The mobile host: keeps its home address, routes everything through its
/// base station with an LSRR option.
pub type LsrrMobileNode = StackNode<LsrrMobile>;

/// The protocol of an [`LsrrMobileNode`]; its shell's agent is the
/// current base station.
#[derive(Debug)]
pub struct LsrrMobile {
    /// Home address, gateway and current base station.
    pub shell: MobileShell,
    /// The application layer.
    pub endpoint: Endpoint,
}

impl LsrrMobile {
    /// A mobile host at home.
    pub fn new(home_addr: Ipv4Addr, home_prefix: Prefix, home_gateway: Ipv4Addr) -> LsrrMobile {
        LsrrMobile {
            shell: MobileShell::new(home_addr, home_prefix, home_gateway),
            endpoint: Endpoint::new(),
        }
    }

    fn attach_via(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, bs: Ipv4Addr) {
        if self.shell.agent == Some(bs) {
            return;
        }
        ctx.stats().incr("lsrr.mobile_moves");
        self.shell.rehome(stack, bs);
        let reg = LsrrMessage::Register { mobile: self.shell.home_addr };
        self.shell.register(stack, ctx, bs, reg.encode());
    }
}

impl SendPath for LsrrMobile {
    /// Sends `pkt` through the base station with the LSRR option (§7:
    /// "All packets sent by a mobile host are sent through the mobile
    /// host's base station and include an LSRR option").
    fn send_data(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, mut pkt: Ipv4Packet) {
        if let Some(bs) = self.shell.agent {
            SENT_VIA_BS.incr(ctx.stats());
            OVERHEAD_BYTES.add(ctx.stats(), LSRR_OPTION_BYTES as u64);
            let final_dst = pkt.dst;
            pkt.dst = bs;
            pkt.options.push(Ipv4Option::lsrr(vec![final_dst]));
            stack.send_direct(ctx, IfaceId(0), pkt);
        } else {
            stack.send(ctx, pkt);
        }
    }

    fn source(&self, _: &IpStack, _: Ipv4Addr) -> Ipv4Addr {
        self.shell.home_addr
    }
}

impl Protocol for LsrrMobile {
    fn start(&mut self, stack: &mut IpStack, _ctx: &mut Ctx<'_>) {
        self.shell.start(stack);
    }

    fn deliver(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, pkt: Ipv4Packet) {
        match MobileShell::hear(&pkt, LSRR_PROTO_TAG) {
            Heard::Agent(bs) => self.attach_via(stack, ctx, bs),
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
        let mut h = LsrrHost::new(true);
        let pkt = Ipv4Packet::new(a(1), a(2), proto::UDP, vec![])
            .with_option(Ipv4Option::Lsrr { pointer: 8, route: vec![a(100)] });
        h.learn_route(&pkt);
        assert!(h.reverse_route(a(1)).is_none());
        let mut ok = LsrrHost::new(false);
        ok.learn_route(&pkt);
        assert_eq!(ok.reverse_route(a(1)).unwrap(), &[a(100)]);
    }
}
