//! The cache-agent role (paper §2, §4.3, §4.5): a finite location cache,
//! rate-limited location updates, forwarding-path interception, and the
//! ICMP error reverse path.
//!
//! Every MHRP-aware node embeds a [`CacheAgentCore`]: the paper recommends
//! that "any node functioning as a home agent, foreign agent, or mobile
//! host should generally also function as a cache agent", and that other
//! hosts do too.

use std::net::Ipv4Addr;

use ip::icmp::{IcmpMessage, LocationUpdate, LocationUpdateCode};
use ip::ipv4::Ipv4Packet;
use ip::proto;
use netsim::{Ctx, TeleEventKind};
use netstack::IpStack;

use crate::auth::AuthGate;
use crate::cache::LocationCache;
use crate::config::MhrpConfig;
use crate::rate_limit::UpdateRateLimiter;
use crate::tunnel;

/// Replaces the embedded original-packet bytes of an ICMP error message.
fn with_original(msg: &IcmpMessage, original: Vec<u8>) -> IcmpMessage {
    match msg {
        IcmpMessage::DestUnreachable { code, .. } => {
            IcmpMessage::DestUnreachable { code: *code, original }
        }
        IcmpMessage::TimeExceeded { .. } => IcmpMessage::TimeExceeded { original },
        IcmpMessage::Redirect { gateway, .. } => {
            IcmpMessage::Redirect { gateway: *gateway, original }
        }
        other => other.clone(),
    }
}

/// The cache agent's per-packet counters (everything bumped on the
/// tunneling/update fast paths); the other roles count their tunneling
/// overhead here too.
pub(crate) mod counters {
    use netsim::Counter;

    pub(crate) static TUNNELED_BY_SENDER: Counter = Counter::new("mhrp.tunneled_by_sender");
    pub(crate) static TUNNELED_BY_ROUTER: Counter = Counter::new("mhrp.tunneled_by_router_ca");
    pub(crate) static OVERHEAD_BYTES: Counter = Counter::new("mhrp.overhead_bytes");
    pub(crate) static UPDATES_SENT: Counter = Counter::new("mhrp.updates_sent");
    pub(crate) static UPDATES_RECEIVED: Counter = Counter::new("mhrp.updates_received");
    pub(crate) static UPDATES_SNOOPED: Counter = Counter::new("mhrp.updates_snooped");
    pub(crate) static UPDATES_RATE_LIMITED: Counter = Counter::new("mhrp.updates_rate_limited");
    pub(crate) static CACHE_EVICTIONS: Counter = Counter::new("mhrp.cache.evictions");
    pub(crate) static RATE_LIMIT_EVICTIONS: Counter = Counter::new("mhrp.rate_limit.evictions");
    pub(crate) static RATE_LIMIT_READMITTED: Counter = Counter::new("mhrp.rate_limit.readmitted");
    pub(crate) static POISON_DROPPED: Counter = Counter::new("mhrp.cache.poison_dropped");
}

/// Shared cache-agent state and behaviour.
#[derive(Debug)]
pub struct CacheAgentCore {
    /// The finite location cache (§2).
    pub cache: LocationCache,
    /// The §4.3 per-destination update rate limiter.
    pub rate: UpdateRateLimiter,
    /// Maximum previous-source-list length before truncation (§4.4).
    pub max_prev_sources: usize,
    /// §5.3 loop detection; disable to model TTL-only loop decay (E05).
    pub detect_loops: bool,
    /// Authentication (DESIGN.md §13): with a key, outgoing location
    /// updates carry a MAC and incoming ones are verified (forgeries are
    /// dropped and counted as `mhrp.cache.poison_dropped`).
    gate: AuthGate,
    /// Eviction totals already published to the stats sink, so only the
    /// delta is added on the next publish.
    reported_cache_evictions: u64,
    reported_rate_evictions: u64,
    reported_rate_readmissions: u64,
}

impl CacheAgentCore {
    /// Creates a cache agent from the shared configuration.
    ///
    /// `max_prev_sources` is clamped to the encodable range (`1..=255`,
    /// see [`MhrpConfig::effective_max_prev_sources`]) so a misconfigured
    /// cap cannot drive the header encoder past its one-octet count field.
    pub fn new(config: &MhrpConfig) -> CacheAgentCore {
        CacheAgentCore {
            cache: LocationCache::new(config.cache_capacity),
            rate: UpdateRateLimiter::new(config.update_min_interval, config.update_rate_entries),
            max_prev_sources: config.effective_max_prev_sources(),
            detect_loops: config.detect_loops,
            gate: AuthGate::new(config.auth_key),
            reported_cache_evictions: 0,
            reported_rate_evictions: 0,
            reported_rate_readmissions: 0,
        }
    }

    /// Publishes cache/rate-limiter eviction deltas to the interned
    /// `mhrp.cache.evictions` / `mhrp.rate_limit.evictions` counters.
    fn publish_evictions(&mut self, ctx: &mut Ctx<'_>) {
        let cache_total = self.cache.evictions();
        if cache_total > self.reported_cache_evictions {
            counters::CACHE_EVICTIONS.add(ctx.stats(), cache_total - self.reported_cache_evictions);
            self.reported_cache_evictions = cache_total;
        }
        let rate_total = self.rate.evictions();
        if rate_total > self.reported_rate_evictions {
            counters::RATE_LIMIT_EVICTIONS
                .add(ctx.stats(), rate_total - self.reported_rate_evictions);
            self.reported_rate_evictions = rate_total;
        }
        let readmit_total = self.rate.readmissions();
        if readmit_total > self.reported_rate_readmissions {
            counters::RATE_LIMIT_READMITTED
                .add(ctx.stats(), readmit_total - self.reported_rate_readmissions);
            self.reported_rate_readmissions = readmit_total;
        }
    }

    /// Sends a location update about `mobile` to `to`, rate-limited per
    /// §4.3. Updates to ourselves or to the mobile host itself are
    /// pointless and suppressed.
    pub fn send_update(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        to: Ipv4Addr,
        mobile: Ipv4Addr,
        foreign_agent: Ipv4Addr,
        code: LocationUpdateCode,
    ) {
        if to.is_unspecified() || to == mobile || stack.is_local_addr(to) {
            return;
        }
        let allowed = self.rate.allow(to, ctx.now());
        self.publish_evictions(ctx);
        if !allowed {
            counters::UPDATES_RATE_LIMITED.incr(ctx.stats());
            return;
        }
        counters::UPDATES_SENT.incr(ctx.stats());
        let mac = self.gate.sign_update(code, mobile, foreign_agent);
        let msg = IcmpMessage::LocationUpdate(LocationUpdate { code, mobile, foreign_agent, mac });
        stack.send_icmp(ctx, to, &msg, None);
    }

    /// Applies a location update delivered to this node (§4.3). With
    /// authentication on, an update without a valid MAC is a poisoning
    /// attempt: it is dropped and counted instead of applied.
    pub fn on_update(&mut self, ctx: &mut Ctx<'_>, update: &LocationUpdate) {
        counters::UPDATES_RECEIVED.incr(ctx.stats());
        if !self.gate.update_authentic(update) {
            counters::POISON_DROPPED.incr(ctx.stats());
            ctx.tele_event(TeleEventKind::PoisonDrop);
            return;
        }
        ctx.tele_event(TeleEventKind::CacheUpdate);
        self.cache.apply_update(update, ctx.now());
        self.publish_evictions(ctx);
    }

    /// Forwarding-path interception for routers acting as cache agents
    /// (§4.3, §6.2): on a cache hit for a plain transit packet, the packet
    /// is encapsulated and tunneled to the cached foreign agent. Location
    /// updates being *forwarded* are also snooped into the cache. Returns
    /// the packet when it was *not* consumed (the caller forwards it
    /// normally), `None` when it was tunneled here.
    pub fn intercept_forward(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mut pkt: Ipv4Packet,
    ) -> Option<Ipv4Packet> {
        if pkt.protocol == proto::MHRP {
            return Some(pkt); // transit tunnel traffic routes normally
        }
        if pkt.protocol == proto::ICMP {
            // "Any intermediate router that forwards a location update
            // message may also cache the address" (§4.3). Updates are
            // forwarded, not tunneled.
            if let Ok(IcmpMessage::LocationUpdate(lu)) = IcmpMessage::decode(&pkt.payload) {
                // Snooping is opportunistic: a forged update is not
                // cached, but the packet is still forwarded (the final
                // recipient does its own verification and counting).
                if self.gate.update_authentic(&lu) {
                    counters::UPDATES_SNOOPED.incr(ctx.stats());
                    ctx.tele_event(TeleEventKind::CacheUpdate);
                    self.cache.apply_update(&lu, ctx.now());
                    self.publish_evictions(ctx);
                } else {
                    counters::POISON_DROPPED.incr(ctx.stats());
                    ctx.tele_event(TeleEventKind::PoisonDrop);
                }
                return Some(pkt);
            }
        }
        let Some(fa) = self.cache.lookup(pkt.dst, ctx.now()) else {
            return Some(pkt);
        };
        let agent = stack.primary_addr();
        counters::TUNNELED_BY_ROUTER.incr(ctx.stats());
        // §4.2: an agent-built header is 12 octets.
        counters::OVERHEAD_BYTES.add(ctx.stats(), 12);
        ctx.tele_event(TeleEventKind::CacheHit);
        ctx.tele_event(TeleEventKind::Encap { by_sender: false });
        tunnel::encapsulate(&mut pkt, agent, fa, false);
        stack.forward(ctx, pkt);
        None
    }

    /// Handles an ICMP *error* delivered to this node when it may be a
    /// tunnel head (§4.5). Walks the error one hop back along the tunnel
    /// chain, purging our cache entry, and resends it. Returns `true` if
    /// the error belonged to the tunnel reverse path (consumed), `false`
    /// if it is an ordinary error the caller should log.
    pub fn on_icmp_error(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        msg: &IcmpMessage,
    ) -> bool {
        let Some(original) = msg.original() else { return false };
        // Only errors about packets *we* tunneled concern us: the copied
        // packet's source must be one of our addresses and it must be MHRP.
        let Some(partial) = tunnel::parse_partial(original) else { return false };
        if partial.protocol != proto::MHRP || !stack.is_local_addr(partial.src) {
            return false;
        }
        let self_addr = partial.src;
        match tunnel::reverse_icmp_original(original, self_addr) {
            tunnel::ErrorReverse::Resend { next, rebuilt_original, mobile } => {
                // §4.5: the unreachable may be a router near the *cached*
                // location, not the mobile host — drop the stale entry.
                self.cache.remove(mobile);
                ctx.stats().incr("mhrp.icmp_errors_reversed");
                let rebuilt = with_original(msg, rebuilt_original);
                stack.send_icmp(ctx, next, &rebuilt, None);
                true
            }
            tunnel::ErrorReverse::Local { mobile, .. } => {
                self.cache.remove(mobile);
                ctx.stats().incr("mhrp.icmp_errors_terminated");
                // The embedding endpoint logs the error itself.
                false
            }
            tunnel::ErrorReverse::Insufficient { mobile } => {
                if let Some(m) = mobile {
                    self.cache.remove(m);
                }
                ctx.stats().incr("mhrp.icmp_errors_insufficient");
                true
            }
        }
    }

    /// Drops all volatile state (reboot).
    pub fn reboot(&mut self) {
        self.cache.clear();
        self.rate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_original_replaces_payload_bytes() {
        let msg = IcmpMessage::DestUnreachable {
            code: ip::icmp::UnreachableCode::Host,
            original: vec![1, 2, 3],
        };
        let out = with_original(&msg, vec![9, 9]);
        assert_eq!(out.original().unwrap(), &[9, 9]);
        let te = IcmpMessage::TimeExceeded { original: vec![] };
        assert_eq!(with_original(&te, vec![5]).original().unwrap(), &[5]);
    }

    #[test]
    fn core_construction_respects_config() {
        let cfg = MhrpConfig { cache_capacity: 3, max_prev_sources: 2, ..Default::default() };
        let core = CacheAgentCore::new(&cfg);
        assert_eq!(core.cache.capacity(), 3);
        assert_eq!(core.max_prev_sources, 2);
    }

    fn update(mac: Option<u64>) -> LocationUpdate {
        LocationUpdate {
            code: LocationUpdateCode::Bind,
            mobile: Ipv4Addr::new(10, 1, 1, 1),
            foreign_agent: Ipv4Addr::new(11, 1, 0, 1),
            mac,
        }
    }

    #[test]
    fn without_auth_every_update_is_trusted() {
        // The 1994 baseline: the protocol believes any source — this is
        // exactly the poisoning surface E19 measures.
        let core = CacheAgentCore::new(&MhrpConfig::default());
        assert!(core.gate.update_authentic(&update(None)));
        assert!(core.gate.update_authentic(&update(Some(0xdead_beef))));
    }

    #[test]
    fn with_auth_only_a_matching_mac_is_accepted() {
        let key = 0x1994_0d0c_5bad_c0de;
        let cfg = MhrpConfig { auth_key: Some(key), ..Default::default() };
        let core = CacheAgentCore::new(&cfg);
        let good = update(None);
        let mac = crate::auth::update_mac(key, good.code.as_u8(), good.mobile, good.foreign_agent);

        assert!(core.gate.update_authentic(&update(Some(mac))));
        // A spoofed update (no MAC — the attacker holds no key) and a
        // guessed MAC are both poisoning attempts.
        assert!(!core.gate.update_authentic(&update(None)));
        assert!(!core.gate.update_authentic(&update(Some(mac ^ 1))));
        // A valid MAC replayed onto different content (the "stale
        // previous-source" splice: same mobile, different agent) fails —
        // the MAC binds code, mobile and agent together.
        let mut spliced = update(Some(mac));
        spliced.foreign_agent = Ipv4Addr::new(11, 9, 0, 1);
        assert!(!core.gate.update_authentic(&spliced));
        let mut purge = update(Some(mac));
        purge.code = LocationUpdateCode::Purge;
        assert!(!core.gate.update_authentic(&purge));
    }
}
