//! Per-interface ARP: cache, resolution queue, proxy ARP and gratuitous
//! learning.
//!
//! The cache **always learns** from observed ARP traffic (requests and
//! replies, solicited or not). That is exactly the property MHRP's home
//! agent exploits: broadcasting an unsolicited ARP reply for a departed
//! mobile host rewrites every neighbour's cache so the home agent receives
//! the mobile host's frames (paper §2), and the mobile host broadcasts its
//! own gratuitous reply to repair the caches when it returns.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use ip::arp::{ArpMessage, ArpOp};
use ip::ipv4::Ipv4Packet;
use netsim::{IfaceId, JourneyId, MacAddr};

/// How many packets may wait on one unresolved next hop.
pub const ARP_PENDING_QUEUE_CAP: usize = 16;

/// How many times a resolution request is retried before giving up.
pub const ARP_MAX_RETRIES: u8 = 3;

/// What [`ArpModule::handle_message`] wants the caller to do.
#[derive(Debug, Default)]
pub struct ArpOutcome {
    /// A reply to transmit (unicast to the requester), if the request was
    /// for one of our addresses or a proxied address.
    pub reply: Option<ArpMessage>,
    /// Packets whose next hop just resolved, ready to transmit to `mac`,
    /// each with the telemetry journey it was queued under (so the flush
    /// re-attributes the send to the *original* packet, not to the ARP
    /// reply that triggered it).
    pub flushed: Vec<(MacAddr, Ipv4Packet, Option<JourneyId>)>,
}

#[derive(Debug, Default)]
struct IfaceArp {
    cache: HashMap<Ipv4Addr, MacAddr>,
    pending: HashMap<Ipv4Addr, PendingEntry>,
    proxy: HashSet<Ipv4Addr>,
}

#[derive(Debug, Default)]
struct PendingEntry {
    packets: Vec<(Ipv4Packet, Option<JourneyId>)>,
    retries: u8,
}

/// ARP state for all interfaces of one node.
#[derive(Debug, Default)]
pub struct ArpModule {
    ifaces: Vec<IfaceArp>,
}

impl ArpModule {
    /// Creates an empty module.
    pub fn new() -> ArpModule {
        ArpModule::default()
    }

    fn slot(&mut self, iface: IfaceId) -> &mut IfaceArp {
        if self.ifaces.len() <= iface.0 {
            // Exactly as many slots as interfaces: a `Vec` would round a
            // host's one 144 B slot up to four.
            self.ifaces.reserve_exact(iface.0 + 1 - self.ifaces.len());
            self.ifaces.resize_with(iface.0 + 1, IfaceArp::default);
        }
        &mut self.ifaces[iface.0]
    }

    /// Looks up a cached mapping.
    pub fn lookup(&self, iface: IfaceId, ip: Ipv4Addr) -> Option<MacAddr> {
        self.ifaces.get(iface.0).and_then(|s| s.cache.get(&ip)).copied()
    }

    /// Inserts a mapping directly (e.g. learned from a registration
    /// message, as the paper suggests foreign agents may do in §2).
    pub fn insert(&mut self, iface: IfaceId, ip: Ipv4Addr, mac: MacAddr) {
        self.slot(iface).cache.insert(ip, mac);
    }

    /// Starts answering ARP requests for `ip` on `iface` (proxy ARP).
    pub fn add_proxy(&mut self, iface: IfaceId, ip: Ipv4Addr) {
        self.slot(iface).proxy.insert(ip);
    }

    /// Stops proxying `ip` on `iface`.
    pub fn remove_proxy(&mut self, iface: IfaceId, ip: Ipv4Addr) {
        self.slot(iface).proxy.remove(&ip);
    }

    /// Whether `ip` is currently proxied on `iface`.
    pub fn is_proxied(&self, iface: IfaceId, ip: Ipv4Addr) -> bool {
        self.ifaces.get(iface.0).is_some_and(|s| s.proxy.contains(&ip))
    }

    /// Flushes all cache and pending state for `iface` (host moved to a
    /// different segment; the old mappings are meaningless there).
    pub fn clear_iface(&mut self, iface: IfaceId) {
        if let Some(s) = self.ifaces.get_mut(iface.0) {
            s.cache.clear();
            s.pending.clear();
        }
    }

    /// Flushes cache and pending state on every interface (reboot: the
    /// tables are volatile). Proxy entries stay, as with
    /// [`Self::clear_iface`].
    pub fn clear_all(&mut self) {
        for s in &mut self.ifaces {
            s.cache.clear();
            s.pending.clear();
        }
    }

    /// Processes a received ARP message. `our_addr` is the interface's own
    /// IP (if configured), `our_mac` its MAC.
    pub fn handle_message(
        &mut self,
        iface: IfaceId,
        msg: &ArpMessage,
        our_addr: Option<Ipv4Addr>,
        our_mac: MacAddr,
    ) -> ArpOutcome {
        let slot = self.slot(iface);
        let mut outcome = ArpOutcome::default();
        // Learn from every ARP message (including gratuitous replies; this
        // is the overwrite path the home agent's interception relies on).
        if !msg.sender_ip.is_unspecified() {
            slot.cache.insert(msg.sender_ip, MacAddr(msg.sender_hw));
            // Nearly every reception is a bystander's, with nothing
            // pending: skip hashing the key for a lookup in an empty map.
            if !slot.pending.is_empty() {
                if let Some(entry) = slot.pending.remove(&msg.sender_ip) {
                    let mac = MacAddr(msg.sender_hw);
                    outcome.flushed = entry.packets.into_iter().map(|(p, j)| (mac, p, j)).collect();
                }
            }
        }
        if msg.op == ArpOp::Request {
            let for_us = our_addr == Some(msg.target_ip);
            let proxied = slot.proxy.contains(&msg.target_ip);
            if for_us || proxied {
                outcome.reply =
                    Some(ArpMessage::reply(our_mac.0, msg.target_ip, msg.sender_hw, msg.sender_ip));
            }
        }
        outcome
    }

    /// Queues `pkt` pending resolution of `next_hop`, remembering the
    /// telemetry journey it belongs to. Returns `true` if this is a new
    /// resolution (the caller should broadcast a request and arm a retry
    /// timer). Packets beyond the queue cap are dropped.
    pub fn enqueue(
        &mut self,
        iface: IfaceId,
        next_hop: Ipv4Addr,
        pkt: Ipv4Packet,
        journey: Option<JourneyId>,
    ) -> bool {
        let slot = self.slot(iface);
        match slot.pending.get_mut(&next_hop) {
            Some(entry) => {
                if entry.packets.len() < ARP_PENDING_QUEUE_CAP {
                    entry.packets.push((pkt, journey));
                }
                false
            }
            None => {
                slot.pending
                    .insert(next_hop, PendingEntry { packets: vec![(pkt, journey)], retries: 0 });
                true
            }
        }
    }

    /// Called when a retry timer for `next_hop` fires. Returns:
    ///
    /// * `Ok(())` — still unresolved, a retry request should be sent and the
    ///   timer re-armed;
    /// * `Err(dropped)` — retries exhausted; the queued packets are handed
    ///   back so the caller can emit host-unreachable errors.
    ///
    /// Returns `Ok(())` with no side effects if the entry no longer exists
    /// (it resolved in the meantime).
    pub fn retry(
        &mut self,
        iface: IfaceId,
        next_hop: Ipv4Addr,
    ) -> Result<bool, Vec<(Ipv4Packet, Option<JourneyId>)>> {
        let slot = self.slot(iface);
        let Some(entry) = slot.pending.get_mut(&next_hop) else {
            return Ok(false); // resolved already; nothing to do
        };
        if entry.retries >= ARP_MAX_RETRIES {
            let entry = slot.pending.remove(&next_hop).expect("entry just seen");
            Err(entry.packets)
        } else {
            entry.retries += 1;
            Ok(true)
        }
    }

    /// Number of cached mappings on `iface` (state-size metric for E07).
    pub fn cache_len(&self, iface: IfaceId) -> usize {
        self.ifaces.get(iface.0).map_or(0, |s| s.cache.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn mac(x: u64) -> MacAddr {
        MacAddr::from_index(x)
    }

    fn pkt() -> Ipv4Packet {
        Ipv4Packet::new(ip(1), ip(2), 17, vec![])
    }

    #[test]
    fn learns_from_request_and_replies_for_own_addr() {
        let mut arp = ArpModule::new();
        let req = ArpMessage::request(mac(5).0, ip(5), ip(1));
        let out = arp.handle_message(IfaceId(0), &req, Some(ip(1)), mac(1));
        // Learned the sender.
        assert_eq!(arp.lookup(IfaceId(0), ip(5)), Some(mac(5)));
        // Replied with our MAC for our IP.
        let reply = out.reply.unwrap();
        assert_eq!(reply.sender_hw, mac(1).0);
        assert_eq!(reply.sender_ip, ip(1));
        assert_eq!(reply.target_ip, ip(5));
    }

    #[test]
    fn proxy_arp_answers_for_foreign_addr() {
        let mut arp = ArpModule::new();
        arp.add_proxy(IfaceId(0), ip(77));
        let req = ArpMessage::request(mac(5).0, ip(5), ip(77));
        let out = arp.handle_message(IfaceId(0), &req, Some(ip(1)), mac(1));
        let reply = out.reply.unwrap();
        // The proxy claims the mobile host's IP at its own MAC: interception.
        assert_eq!(reply.sender_ip, ip(77));
        assert_eq!(reply.sender_hw, mac(1).0);
        arp.remove_proxy(IfaceId(0), ip(77));
        let out2 = arp.handle_message(IfaceId(0), &req, Some(ip(1)), mac(1));
        assert!(out2.reply.is_none());
    }

    #[test]
    fn ignores_requests_for_others() {
        let mut arp = ArpModule::new();
        let req = ArpMessage::request(mac(5).0, ip(5), ip(9));
        let out = arp.handle_message(IfaceId(0), &req, Some(ip(1)), mac(1));
        assert!(out.reply.is_none());
    }

    #[test]
    fn gratuitous_reply_overwrites_cache() {
        let mut arp = ArpModule::new();
        arp.insert(IfaceId(0), ip(7), mac(7));
        // Home agent claims mobile host ip(7) at its own MAC mac(2).
        let grat = ArpMessage::gratuitous(mac(2).0, ip(7));
        arp.handle_message(IfaceId(0), &grat, Some(ip(1)), mac(1));
        assert_eq!(arp.lookup(IfaceId(0), ip(7)), Some(mac(2)));
    }

    #[test]
    fn pending_flushes_on_reply() {
        let mut arp = ArpModule::new();
        assert!(arp.enqueue(IfaceId(0), ip(9), pkt(), None));
        assert!(!arp.enqueue(IfaceId(0), ip(9), pkt(), None)); // second packet, same hop
        let reply = ArpMessage::reply(mac(9).0, ip(9), mac(1).0, ip(1));
        let out = arp.handle_message(IfaceId(0), &reply, Some(ip(1)), mac(1));
        assert_eq!(out.flushed.len(), 2);
        assert!(out.flushed.iter().all(|(m, _, _)| *m == mac(9)));
        // Cache now primed; nothing pending.
        assert_eq!(arp.lookup(IfaceId(0), ip(9)), Some(mac(9)));
    }

    #[test]
    fn bystander_reception_learns_sender_and_pending_one_still_flushes() {
        let mut arp = ArpModule::new();
        // Nothing pending: the reception is a bystander's, and still
        // primes the cache.
        let grat = ArpMessage::gratuitous(mac(5).0, ip(5));
        let out = arp.handle_message(IfaceId(0), &grat, Some(ip(1)), mac(1));
        assert!(out.flushed.is_empty() && out.reply.is_none());
        assert_eq!(arp.lookup(IfaceId(0), ip(5)), Some(mac(5)));
        // Something pending for another address: a bystander reception
        // leaves it queued, the awaited sender flushes it.
        assert!(arp.enqueue(IfaceId(0), ip(9), pkt(), None));
        let other = ArpMessage::gratuitous(mac(6).0, ip(6));
        assert!(arp.handle_message(IfaceId(0), &other, Some(ip(1)), mac(1)).flushed.is_empty());
        assert_eq!(arp.lookup(IfaceId(0), ip(6)), Some(mac(6)));
        let reply = ArpMessage::reply(mac(9).0, ip(9), mac(1).0, ip(1));
        let out = arp.handle_message(IfaceId(0), &reply, Some(ip(1)), mac(1));
        assert_eq!(out.flushed.len(), 1);
        assert_eq!(arp.retry(IfaceId(0), ip(9)), Ok(false), "flushed entry is gone");
    }

    #[test]
    fn pending_queue_is_capped() {
        let mut arp = ArpModule::new();
        arp.enqueue(IfaceId(0), ip(9), pkt(), None);
        for _ in 0..ARP_PENDING_QUEUE_CAP + 10 {
            arp.enqueue(IfaceId(0), ip(9), pkt(), None);
        }
        let reply = ArpMessage::reply(mac(9).0, ip(9), mac(1).0, ip(1));
        let out = arp.handle_message(IfaceId(0), &reply, Some(ip(1)), mac(1));
        assert_eq!(out.flushed.len(), ARP_PENDING_QUEUE_CAP);
    }

    #[test]
    fn retries_then_gives_up() {
        let mut arp = ArpModule::new();
        arp.enqueue(IfaceId(0), ip(9), pkt(), None);
        for _ in 0..ARP_MAX_RETRIES {
            assert_eq!(arp.retry(IfaceId(0), ip(9)), Ok(true));
        }
        let dropped = arp.retry(IfaceId(0), ip(9)).unwrap_err();
        assert_eq!(dropped.len(), 1);
        // Entry is gone; a further timer fire is a no-op.
        assert_eq!(arp.retry(IfaceId(0), ip(9)), Ok(false));
    }

    #[test]
    fn clear_iface_drops_cache_and_pending() {
        let mut arp = ArpModule::new();
        arp.insert(IfaceId(0), ip(5), mac(5));
        arp.enqueue(IfaceId(0), ip(9), pkt(), None);
        arp.clear_iface(IfaceId(0));
        assert_eq!(arp.lookup(IfaceId(0), ip(5)), None);
        assert_eq!(arp.cache_len(IfaceId(0)), 0);
        // Pending cleared: enqueue starts a fresh resolution.
        assert!(arp.enqueue(IfaceId(0), ip(9), pkt(), None));
    }

    #[test]
    fn interfaces_are_independent() {
        let mut arp = ArpModule::new();
        arp.insert(IfaceId(0), ip(5), mac(5));
        assert_eq!(arp.lookup(IfaceId(1), ip(5)), None);
        arp.add_proxy(IfaceId(1), ip(7));
        assert!(!arp.is_proxied(IfaceId(0), ip(7)));
        assert!(arp.is_proxied(IfaceId(1), ip(7)));
    }
}
