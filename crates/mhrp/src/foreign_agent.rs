//! The foreign agent (paper §2, §4.4, §5.1, §5.2).
//!
//! A foreign agent serves visiting mobile hosts on its local network: it
//! accepts registrations, decapsulates arriving tunnels and transmits the
//! reconstructed packets over the last hop, re-tunnels packets for mobile
//! hosts that have moved on (to a cached "forwarding pointer" or back to
//! the home network), and recovers its visitor list after a crash.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::icmp::{LocationUpdate, LocationUpdateCode};
use ip::ipv4::Ipv4Packet;
use netsim::{Counter, Ctx, IfaceId, TeleEventKind};
use netstack::IpStack;

use crate::agent::CacheAgentCore;
use crate::auth::AuthGate;
use crate::config::MhrpConfig;
use crate::messages::{AuthExt, ControlMessage, MHRP_PORT};
use crate::tunnel;

/// One visiting mobile host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visitor {
    /// The visitor's home agent, when it told us (from registration; a
    /// §5.2 recovery re-add learns it from the location update's source).
    pub home_agent: Option<Ipv4Addr>,
}

// Per-data-packet and per-registration counters.
static FA_DELIVERED: Counter = Counter::new("mhrp.fa_delivered");
static FA_TUNNELED_HOME: Counter = Counter::new("mhrp.fa_tunneled_home");
static FA_REGISTRATIONS: Counter = Counter::new("mhrp.fa_registrations");
static FA_DEREGISTRATIONS: Counter = Counter::new("mhrp.fa_deregistrations");

/// The foreign-agent role state.
#[derive(Debug)]
pub struct ForeignAgentCore {
    /// The interface attached to the network where visitors connect.
    pub local_iface: IfaceId,
    /// Keep forwarding-pointer cache entries on deregistration (§2).
    pub forwarding_pointers: bool,
    /// Verify a mobile host's presence (ARP) before §5.2 re-adds, instead
    /// of believing the home agent outright.
    pub verify_on_recovery: bool,
    /// The regional agent owning this cell's registration domain, when the
    /// world runs hierarchical MHRP (DESIGN.md §12). Registrations are
    /// acked with [`ControlMessage::FaRegisterAckRegional`] so the mobile
    /// registers regionally, §5.1 updates name the regional agent (the
    /// region's stable ingress), and packets for departed visitors fall
    /// back to the regional agent instead of tunneling to the home
    /// network. `None` = flat MHRP, byte-identical to the pre-regional
    /// protocol.
    pub regional_agent: Option<Ipv4Addr>,
    visitors: HashMap<Ipv4Addr, Visitor>,
    pending_verify: HashSet<Ipv4Addr>,
    /// Authentication (DESIGN.md §13): with a key, registrations must be
    /// signed, deregistrations come from the mobile itself, and §5.2
    /// recovery updates must carry a valid MAC before this agent
    /// "believes the home agent".
    gate: AuthGate,
}

impl ForeignAgentCore {
    /// Creates a foreign agent serving `local_iface`.
    pub fn new(local_iface: IfaceId, config: &MhrpConfig) -> ForeignAgentCore {
        ForeignAgentCore {
            local_iface,
            forwarding_pointers: config.forwarding_pointers,
            verify_on_recovery: config.verify_on_recovery,
            regional_agent: None,
            visitors: HashMap::new(),
            pending_verify: HashSet::new(),
            gate: AuthGate::new(config.auth_key),
        }
    }

    /// Whether `mobile` is on the visitor list.
    pub fn has_visitor(&self, mobile: Ipv4Addr) -> bool {
        self.visitors.contains_key(&mobile)
    }

    /// Number of visitors (state-size metric, E07).
    pub fn visitor_count(&self) -> usize {
        self.visitors.len()
    }

    fn self_addr(&self, stack: &IpStack) -> Ipv4Addr {
        stack.iface_addr(self.local_iface).map(|ia| ia.addr).unwrap_or_else(|| stack.primary_addr())
    }

    fn control_packet(
        &self,
        stack: &mut IpStack,
        mobile: Ipv4Addr,
        msg: &ControlMessage,
    ) -> Ipv4Packet {
        let datagram = ip::udp::UdpDatagram::new(MHRP_PORT, MHRP_PORT, msg.encode());
        let ident = stack.next_ident();
        Ipv4Packet::new(self.self_addr(stack), mobile, ip::proto::UDP, datagram.encode())
            .with_ident(ident)
    }

    /// Handles a registration control message from `src`, which arrived
    /// with the authentication extension `auth`. Returns `true` if
    /// consumed.
    pub fn on_control(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        msg: &ControlMessage,
        auth: Option<AuthExt>,
    ) -> bool {
        match *msg {
            ControlMessage::FaRegister { mobile, home_agent } => {
                if !self.gate.admit(ctx, msg, auth) {
                    return true;
                }
                FA_REGISTRATIONS.incr(ctx.stats());
                self.visitors.insert(mobile, Visitor { home_agent: Some(home_agent) });
                self.pending_verify.remove(&mobile);
                // A registration supersedes any stale forwarding pointer.
                ca.cache.remove(mobile);
                // The visitor's home address would *route* toward its home
                // network — deliver the ack directly on the local segment.
                let ack = match self.regional_agent {
                    Some(regional) => ControlMessage::FaRegisterAckRegional { mobile, regional },
                    None => ControlMessage::FaRegisterAck { mobile },
                };
                let pkt = self.control_packet(stack, mobile, &ack);
                stack.send_direct(ctx, self.local_iface, pkt);
                true
            }
            ControlMessage::FaDeregister { mobile, new_fa } => {
                if self.gate.enforced() && src != mobile {
                    // Deregistration carries no MAC (it only moves or
                    // clears a forwarding pointer); with auth on it is
                    // accepted from the mobile host itself only.
                    self.gate.reject(ctx);
                    return true;
                }
                FA_DEREGISTRATIONS.incr(ctx.stats());
                self.visitors.remove(&mobile);
                if self.forwarding_pointers && !new_fa.is_unspecified() {
                    // §2: keep a "forwarding pointer" as an ordinary cache
                    // entry pointing at the new foreign agent.
                    ca.cache.insert(mobile, new_fa, ctx.now());
                } else {
                    ca.cache.remove(mobile);
                }
                let ack = ControlMessage::FaDeregisterAck { mobile };
                stack.send_udp(ctx, mobile, MHRP_PORT, MHRP_PORT, ack.encode());
                true
            }
            _ => false,
        }
    }

    /// Handles an MHRP packet tunneled to this agent (§4.4): deliver to a
    /// current visitor, or re-tunnel toward the forwarding pointer / the
    /// mobile host's home network.
    pub fn handle_tunneled(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mut pkt: Ipv4Packet,
    ) {
        let Ok((header, _)) = tunnel::parse(&pkt) else {
            ctx.stats().incr("mhrp.fa_malformed");
            return;
        };
        let mobile = header.mobile;
        if self.pending_verify.contains(&mobile)
            && stack.arp.lookup(self.local_iface, mobile).is_some()
        {
            // §5.2 (verification variant): the ARP query we issued on the
            // home agent's update got an answer; the host really is here.
            self.pending_verify.remove(&mobile);
            self.visitors.insert(mobile, Visitor { home_agent: None });
            ctx.stats().incr("mhrp.fa_recovered_verified");
        }
        if self.visitors.contains_key(&mobile) {
            // Correct foreign agent: update every out-of-date cache agent
            // on the previous-source list (§5.1), then deliver locally. In
            // hierarchical mode the updates name the regional agent — the
            // region's stable ingress — so correspondent caches survive
            // intra-region handoffs; the regional agent itself is skipped
            // (its binding table, not its cache, is authoritative here).
            let self_addr = self.self_addr(stack);
            let location = self.regional_agent.unwrap_or(self_addr);
            for node in &header.prev_sources {
                if Some(*node) == self.regional_agent {
                    continue;
                }
                ca.send_update(stack, ctx, *node, mobile, location, LocationUpdateCode::Bind);
            }
            match tunnel::decapsulate(&mut pkt) {
                Ok(_) => {
                    FA_DELIVERED.incr(ctx.stats());
                    ctx.tele_event(TeleEventKind::Decap);
                    stack.send_direct(ctx, self.local_iface, pkt);
                }
                Err(_) => ctx.stats().incr("mhrp.fa_malformed"),
            }
            return;
        }
        // Not (any longer) a visitor: §4.4 re-tunnel.
        let new_dst = match ca.cache.lookup(mobile, ctx.now()) {
            Some(fa) => {
                ctx.stats().incr("mhrp.fa_forward_pointer_used");
                fa
            }
            None => match self.regional_agent {
                // Hierarchical mode: hand unknown mobiles back to the
                // regional agent — it either knows the mobile's new cell
                // or escalates toward the home network itself.
                Some(regional) => {
                    ctx.stats().incr("mhrp.fa_tunneled_regional");
                    regional
                }
                None => {
                    // Tunnel to the mobile host's home IP address; the home
                    // agent intercepts it there.
                    FA_TUNNELED_HOME.incr(ctx.stats());
                    mobile
                }
            },
        };
        let self_addr = self.self_addr(stack);
        match tunnel::retunnel_opts(
            &mut pkt,
            self_addr,
            new_dst,
            ca.max_prev_sources,
            ca.detect_loops,
        ) {
            Ok(tunnel::Retunnel::Forward { truncation_updates }) => {
                crate::agent::counters::OVERHEAD_BYTES.add(ctx.stats(), 4); // §4.4: +4 per re-tunnel
                ctx.tele_event(TeleEventKind::Retunnel);
                for node in truncation_updates {
                    ca.send_update(stack, ctx, node, mobile, new_dst, LocationUpdateCode::Bind);
                }
                stack.forward(ctx, pkt);
            }
            Ok(tunnel::Retunnel::Loop { members }) => {
                // §5.3: dissolve the loop by purging every implicated cache.
                ctx.stats().incr("mhrp.loops_detected");
                ctx.tele_event(TeleEventKind::LoopDetected {
                    members: members.len().min(u8::MAX as usize) as u8,
                });
                for node in members {
                    ca.send_update(
                        stack,
                        ctx,
                        node,
                        mobile,
                        Ipv4Addr::UNSPECIFIED,
                        LocationUpdateCode::Purge,
                    );
                }
                ca.cache.remove(mobile);
            }
            Err(_) => ctx.stats().incr("mhrp.fa_malformed"),
        }
    }

    /// Handles a location update that names *this agent* as the mobile
    /// host's location: §5.2 state recovery. Returns `true` if the update
    /// caused (or began) a visitor re-add.
    pub fn on_update_for_self(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        update: &LocationUpdate,
    ) -> bool {
        if update.code != ip::icmp::LocationUpdateCode::Bind {
            return false;
        }
        if !stack.is_local_addr(update.foreign_agent) {
            return false;
        }
        if !self.gate.update_authentic(update) {
            // §5.2 says "believing the home agent" — with auth on, first
            // prove the update actually came from a key holder. A forged
            // re-add would make this agent blackhole-deliver for a mobile
            // that is not here.
            self.gate.reject(ctx);
            return false;
        }
        if self.visitors.contains_key(&update.mobile) {
            return false;
        }
        if self.verify_on_recovery {
            // Ask the network whether the host is really here; the answer
            // primes the ARP cache, and the next tunneled packet completes
            // the re-add in `handle_tunneled`.
            ctx.stats().incr("mhrp.fa_recovery_verifying");
            self.pending_verify.insert(update.mobile);
            stack.send_direct_probe(ctx, self.local_iface, update.mobile);
        } else {
            // "Simply add the mobile host back ... believing the home
            // agent" (§5.2).
            ctx.stats().incr("mhrp.fa_recovered_trusting");
            self.visitors.insert(update.mobile, Visitor { home_agent: None });
        }
        true
    }

    /// Reboot (§5.2): the visitor list is volatile and is lost. The node
    /// should broadcast a [`ControlMessage::FaRecoveryQuery`] afterwards to
    /// speed recovery.
    pub fn reboot(&mut self) {
        self.visitors.clear();
        self.pending_verify.clear();
        // The replay window is volatile too; it re-seeds from the first
        // authenticated registration after recovery.
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    #[test]
    fn visitor_list_lifecycle() {
        let cfg = MhrpConfig::default();
        let mut fa = ForeignAgentCore::new(IfaceId(0), &cfg);
        assert!(!fa.has_visitor(a(7)));
        fa.visitors.insert(a(7), Visitor { home_agent: Some(a(1)) });
        assert!(fa.has_visitor(a(7)));
        assert_eq!(fa.visitor_count(), 1);
        fa.reboot();
        assert!(!fa.has_visitor(a(7)));
        assert_eq!(fa.visitor_count(), 0);
    }
}
