//! The mobile host (paper §2, §3, §6).
//!
//! A mobile host always uses its home IP address. While visiting a foreign
//! network it points its default route at the serving foreign agent and
//! runs the §3 notification sequence on every move: first the new foreign
//! agent, then the home agent, then the old foreign agent. Returning home
//! it registers "a special foreign agent address of zero" and repairs its
//! neighbours' ARP caches with a gratuitous reply.
//!
//! The optional §2 mode where a mobile host *is its own foreign agent*
//! (using a temporary address on the visited network) is supported via
//! [`MobileHostCore::adopt_own_fa`].

use std::net::Ipv4Addr;
use std::sync::Arc;

use ip::icmp::{AgentAdvertisement, LocationUpdateCode};
use ip::ipv4::Ipv4Packet;
use ip::Prefix;
use netsim::time::SimTime;
use netsim::{Ctx, IfaceId, LinkEvent, TimerToken};
use netstack::route::NextHop;
use netstack::IpStack;

use crate::agent::CacheAgentCore;
use crate::auth;
use crate::config::MhrpConfig;
use crate::messages::{ControlMessage, MHRP_PORT};
use crate::tunnel;

/// Timer bit: registration retransmission sweep.
pub const REG_TIMER_BIT: u64 = 1 << 60;
/// Timer bit: advertisement watchdog (movement detection).
pub const WATCH_TIMER_BIT: u64 = 1 << 59;
/// Timer bit: delayed solicitation after (re)attachment.
pub const SOLICIT_TIMER_BIT: u64 = 1 << 58;

const REG_KIND_OLD_REG: u64 = 0;
const REG_KIND_FA: u64 = 1;
const REG_KIND_HA: u64 = 2;
const REG_KIND_OLD_FA: u64 = 3;

/// Where the mobile host currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attachment {
    /// Connected to the home network.
    Home,
    /// Served by a foreign agent at this address.
    Foreign(Ipv4Addr),
    /// Acting as its own foreign agent with this temporary address (§2).
    OwnFa(Ipv4Addr),
    /// Detached / looking for an agent.
    Searching,
}

/// Movement/registration counters for the experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct MobilityStats {
    /// Completed attachment changes.
    pub moves: u64,
    /// Home-agent registrations acknowledged.
    pub ha_registrations_acked: u64,
    /// Solicitations sent.
    pub solicits_sent: u64,
    /// Registrations abandoned after exhausting retries.
    pub registrations_failed: u64,
    /// Re-registrations triggered by a foreign agent recovery query (§5.2).
    pub recovery_reregistrations: u64,
    /// Low-rate probes sent to an unreachable home agent after the normal
    /// retries were exhausted (reconvergence after partitions).
    pub registration_probes: u64,
    /// Times a dark foreign agent forced a fallback to home-agent routing.
    pub fa_dark_fallbacks: u64,
    /// Crash/reboot recoveries (volatile state lost, discovery restarted).
    pub reboots: u64,
    /// Sum of end-to-end registration latencies (µs): from the start of a
    /// move to the acknowledged location registration (regional or home).
    pub registration_latency_us_sum: u64,
    /// Number of moves whose registration latency was measured.
    pub registration_latency_count: u64,
    /// Worst observed registration latency (µs).
    pub registration_latency_us_max: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    msg: ControlMessage,
    /// The sequence number a registration is signed with when the domain
    /// runs authentication (DESIGN.md §13); `None` for a deregistration,
    /// which is never signed.
    seq: Option<u16>,
    dst: Ipv4Addr,
    retries: u32,
    /// Retries exhausted; the failure has been counted and any §3
    /// follow-ups ran. Home-agent registrations keep probing at
    /// `registration_retry_cap` cadence in this state.
    gave_up: bool,
}

impl Pending {
    fn new(msg: ControlMessage, dst: Ipv4Addr) -> Pending {
        Pending { msg, seq: None, dst, retries: 0, gave_up: false }
    }

    fn registration(msg: ControlMessage, dst: Ipv4Addr, seq: u16) -> Pending {
        Pending { seq: Some(seq), ..Pending::new(msg, dst) }
    }
}

/// The mobile host's counters (every tunneled packet delivered to a host
/// walks the first three).
mod counters {
    use netsim::Counter;

    pub(super) static DECAPSULATED: Counter = Counter::new("mhrp.mh_decapsulated");
    pub(super) static NOT_FOR_US: Counter = Counter::new("mhrp.mh_not_for_us");
    pub(super) static MALFORMED: Counter = Counter::new("mhrp.mh_malformed");
    pub(super) static SOLICITS_SENT: Counter = Counter::new("mhrp.solicits_sent");
    pub(super) static MOVES: Counter = Counter::new("mhrp.mh_moves");
    pub(super) static REGISTRATION_MSGS: Counter = Counter::new("mhrp.registration_msgs_sent");
}

/// The mobile-host protocol engine.
#[derive(Debug)]
pub struct MobileHostCore {
    /// The host's permanent home address (§2: used everywhere, always).
    pub home_addr: Ipv4Addr,
    /// The home network prefix.
    pub home_prefix: Prefix,
    /// The home agent's address on the home network.
    pub home_agent: Ipv4Addr,
    /// The default gateway to use when at home.
    pub home_gateway: Ipv4Addr,
    /// The (single) network interface this host roams with.
    pub iface: IfaceId,
    /// Current attachment.
    pub state: Attachment,
    /// Observation counters.
    pub stats: MobilityStats,
    /// Protocol parameters, one copy shared by every host of a world
    /// that was built from the same `Arc`.
    config: Arc<MhrpConfig>,
    old_fa: Option<Ipv4Addr>,
    /// The regional agent owning the current cell's registration domain
    /// (learned from [`ControlMessage::FaRegisterAckRegional`]); `None`
    /// in flat MHRP or while unattached. While set (and distinct from the
    /// home agent) location registrations go to the regional agent — an
    /// intra-region handoff never crosses the backbone (DESIGN.md §12).
    regional: Option<Ipv4Addr>,
    /// The previous region's agent, owed a deregistration after the next
    /// acknowledged registration (mirrors `old_fa` one tier up).
    old_regional: Option<Ipv4Addr>,
    /// When the in-progress move began, for the registration-latency
    /// metric; cleared once the location registration is acknowledged.
    reg_started: Option<SimTime>,
    last_advert: Option<SimTime>,
    reg_seq: u16,
    pending_fa: Option<Pending>,
    pending_ha: Option<Pending>,
    pending_old_fa: Option<Pending>,
    pending_old_reg: Option<Pending>,
    /// Bumped on every (re)start so periodic timers armed before a crash
    /// are recognisably stale after the reboot (the low byte of the
    /// watchdog token carries it).
    ///
    /// Migration note: `netsim::Ctx::cancel_timer` now offers O(1)
    /// queue-level cancellation, so a restart could cancel the previous
    /// watchdog token instead of epoch-tagging and discarding stale
    /// fires. Kept as-is deliberately: cancellation removes queue
    /// entries, which shifts event sequence numbers and would invalidate
    /// the byte-identical golden replays.
    epoch: u64,
}

impl MobileHostCore {
    /// Creates the engine. The host starts [`Attachment::Searching`];
    /// call [`MobileHostCore::start`] from `Node::on_start` to attach at
    /// home and arm the watchdog. Pass an `Arc` to share one `config`
    /// among many hosts.
    pub fn new(
        iface: IfaceId,
        home_addr: Ipv4Addr,
        home_prefix: Prefix,
        home_agent: Ipv4Addr,
        home_gateway: Ipv4Addr,
        config: impl Into<Arc<MhrpConfig>>,
    ) -> MobileHostCore {
        MobileHostCore {
            home_addr,
            home_prefix,
            home_agent,
            home_gateway,
            iface,
            state: Attachment::Searching,
            stats: MobilityStats::default(),
            config: config.into(),
            old_fa: None,
            regional: None,
            old_regional: None,
            reg_started: None,
            last_advert: None,
            reg_seq: 0,
            pending_fa: None,
            pending_ha: None,
            pending_old_fa: None,
            pending_old_reg: None,
            epoch: 0,
        }
    }

    /// Attaches at home (no registration traffic — there is "no penalty
    /// for a host being mobile capable", §1) and starts the watchdog.
    pub fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        self.configure_home_stack(stack);
        self.state = Attachment::Home;
        self.last_advert = Some(ctx.now());
        self.epoch = self.epoch.wrapping_add(1);
        ctx.set_timer(self.config.advertisement_interval, self.watch_token());
    }

    /// Recovers from a crash that wiped all volatile protocol state
    /// (pending registrations, agent bindings, pending timers). The host
    /// restarts discovery from scratch: it cannot know where it is, so it
    /// searches, re-arms its watchdog under a fresh epoch and solicits an
    /// agent shortly after coming back up.
    pub fn on_reboot(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        self.stats.reboots += 1;
        ctx.stats().incr("mhrp.mh_reboots");
        self.pending_fa = None;
        self.pending_ha = None;
        self.pending_old_fa = None;
        self.pending_old_reg = None;
        self.old_fa = None;
        self.regional = None;
        self.old_regional = None;
        self.reg_started = None;
        self.last_advert = None;
        self.state = Attachment::Searching;
        self.configure_home_stack(stack);
        self.epoch = self.epoch.wrapping_add(1);
        ctx.set_timer(self.config.advertisement_interval, self.watch_token());
        ctx.set_timer(self.config.advertisement_interval / 10, TimerToken(SOLICIT_TIMER_BIT));
    }

    /// The current watchdog token; the low byte carries the epoch so a
    /// pre-crash watchdog chain dies instead of doubling up post-reboot.
    fn watch_token(&self) -> TimerToken {
        TimerToken(WATCH_TIMER_BIT | (self.epoch & 0xff))
    }

    /// Retransmission delay before attempt `retries + 1`: exponential
    /// backoff from `registration_retry`, capped at
    /// `registration_retry_cap`.
    fn retry_delay(&self, retries: u32) -> netsim::time::SimDuration {
        let base = self.config.registration_retry.as_micros() as f64;
        let factor = self.config.registration_backoff.powi(retries.min(32) as i32);
        let capped = (base * factor).min(self.config.registration_retry_cap.as_micros() as f64);
        netsim::time::SimDuration::from_micros(capped as u64)
    }

    fn configure_home_stack(&self, stack: &mut IpStack) {
        stack.remove_capture(self.home_addr);
        stack.remove_iface_binding(self.iface);
        stack.add_iface(self.iface, self.home_addr, self.home_prefix);
        stack.routes.remove(Prefix::default_route());
        if !self.home_gateway.is_unspecified() {
            stack.routes.add(
                Prefix::default_route(),
                NextHop::Gateway { iface: self.iface, via: self.home_gateway },
            );
        }
    }

    fn configure_foreign_stack(&self, stack: &mut IpStack, fa: Ipv4Addr) {
        stack.remove_capture(self.home_addr);
        stack.remove_iface_binding(self.iface);
        // Keep the home address bound (we answer ARP for it on the foreign
        // segment so the foreign agent can deliver to us) but drop the
        // home connected route: every destination goes via the FA.
        stack.add_iface(self.iface, self.home_addr, Prefix::host(self.home_addr));
        stack.arp.clear_iface(self.iface);
        stack.routes.remove(Prefix::default_route());
        stack.routes.add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: fa });
    }

    /// Processes an agent advertisement heard on the local network (§3).
    pub fn on_advert(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, ad: &AgentAdvertisement) {
        let now = ctx.now();
        let from_home_agent = ad.agent == self.home_agent;
        match self.state {
            Attachment::Home => {
                if from_home_agent {
                    self.last_advert = Some(now);
                }
            }
            Attachment::Foreign(fa) if ad.agent == fa => {
                self.last_advert = Some(now);
            }
            Attachment::Foreign(_) | Attachment::OwnFa(_) | Attachment::Searching => {
                // Hearing a *different* agent. Home agent wins outright;
                // a new foreign agent is adopted immediately when we're
                // searching or own-FA, and on overlap only once the old
                // agent has gone quiet for an advertisement period.
                if from_home_agent && ad.home {
                    self.return_home(stack, ctx);
                } else if ad.foreign {
                    let switch = match self.state {
                        Attachment::Searching | Attachment::OwnFa(_) => true,
                        Attachment::Foreign(_) => self
                            .last_advert
                            .is_none_or(|t| now.since(t) > self.config.advertisement_interval),
                        Attachment::Home => false,
                    };
                    if switch {
                        self.move_to_foreign(stack, ctx, ad.agent);
                    }
                }
            }
        }
    }

    /// Handles link attach/detach of the roaming interface.
    pub fn on_link(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, event: LinkEvent) {
        match event {
            LinkEvent::Detached => {
                // Implicit disconnection (§3): carried out of range; we
                // could not notify anyone beforehand.
                if let Attachment::Foreign(fa) = self.state {
                    self.old_fa = Some(fa);
                }
                self.state = Attachment::Searching;
                self.last_advert = None;
                stack.arp.clear_iface(self.iface);
            }
            LinkEvent::Attached => {
                // Ask for an agent rather than waiting a full period.
                ctx.set_timer(
                    self.config.advertisement_interval / 10,
                    TimerToken(SOLICIT_TIMER_BIT),
                );
            }
        }
    }

    /// Sends an agent solicitation (§3).
    pub fn solicit(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        if !ctx.iface_attached(self.iface) {
            return;
        }
        self.stats.solicits_sent += 1;
        counters::SOLICITS_SENT.incr(ctx.stats());
        let msg = ip::icmp::IcmpMessage::AgentSolicitation;
        let ident = stack.next_ident();
        let pkt =
            Ipv4Packet::new(self.home_addr, Ipv4Addr::BROADCAST, ip::proto::ICMP, msg.encode())
                .with_ident(ident)
                .with_ttl(1);
        stack.send_link_broadcast(ctx, self.iface, pkt);
    }

    /// Explicit planned disconnection (§3): notify the home agent first,
    /// then the old foreign agent, before physically detaching.
    pub fn explicit_disconnect(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        match self.state {
            Attachment::Foreign(fa) => {
                if let Some(r) = self.regional.take() {
                    self.old_regional = Some(r);
                }
                self.register_ha(stack, ctx, Ipv4Addr::UNSPECIFIED);
                let msg = ControlMessage::FaDeregister {
                    mobile: self.home_addr,
                    new_fa: Ipv4Addr::UNSPECIFIED,
                };
                self.pending_old_fa = Some(Pending::new(msg, fa));
                self.send_pending(stack, ctx, REG_KIND_OLD_FA);
                self.old_fa = None;
            }
            Attachment::Home => {
                self.register_ha(stack, ctx, Ipv4Addr::UNSPECIFIED);
            }
            _ => {}
        }
        self.state = Attachment::Searching;
    }

    fn move_to_foreign(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, fa: Ipv4Addr) {
        if let Attachment::Foreign(prev) = self.state {
            if prev == fa {
                return;
            }
            self.old_fa = Some(prev);
        }
        counters::MOVES.incr(ctx.stats());
        self.stats.moves += 1;
        self.reg_started = Some(ctx.now());
        self.configure_foreign_stack(stack, fa);
        self.state = Attachment::Foreign(fa);
        self.last_advert = Some(ctx.now());
        // §3 ordering: new foreign agent first; the rest follows its ack.
        self.register_fa(stack, ctx, fa);
    }

    /// Registers with foreign agent `fa`. Only a signed registration
    /// consumes a sequence number — the plain 1994 message carries none,
    /// and burning one would shift every later `HaRegister` seq and break
    /// byte-identical replays of the baseline.
    fn register_fa(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, fa: Ipv4Addr) {
        if self.config.auth_key.is_some() {
            self.reg_seq = self.reg_seq.wrapping_add(1);
        }
        let msg =
            ControlMessage::FaRegister { mobile: self.home_addr, home_agent: self.home_agent };
        self.pending_fa = Some(Pending::registration(msg, fa, self.reg_seq));
        self.send_pending(stack, ctx, REG_KIND_FA);
    }

    fn return_home(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        if self.state == Attachment::Home {
            return;
        }
        if let Attachment::Foreign(prev) = self.state {
            self.old_fa = Some(prev);
        }
        if let Some(r) = self.regional.take() {
            self.old_regional = Some(r);
        }
        ctx.stats().incr("mhrp.mh_returns_home");
        self.stats.moves += 1;
        self.reg_started = Some(ctx.now());
        self.configure_home_stack(stack);
        self.state = Attachment::Home;
        self.last_advert = Some(ctx.now());
        // §2/§6.3: repair neighbour ARP caches (the home agent answered
        // for us while we were away), twice for reliability.
        stack.send_gratuitous_arp(ctx, self.iface, self.home_addr);
        stack.send_gratuitous_arp(ctx, self.iface, self.home_addr);
        // §3: register the zero foreign agent address with the home agent.
        self.register_ha(stack, ctx, Ipv4Addr::UNSPECIFIED);
    }

    /// Adopts a temporary address and becomes its own foreign agent (§2,
    /// optional). `temp`/`temp_prefix` come from whatever assignment
    /// mechanism the visited network offers ("beyond the scope" of the
    /// paper; scenarios hand one out), `gateway` is that network's router.
    pub fn adopt_own_fa(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        temp: Ipv4Addr,
        temp_prefix: Prefix,
        gateway: Ipv4Addr,
    ) {
        if let Attachment::Foreign(prev) = self.state {
            self.old_fa = Some(prev);
        }
        if let Some(r) = self.regional.take() {
            self.old_regional = Some(r);
        }
        ctx.stats().incr("mhrp.mh_own_fa");
        self.stats.moves += 1;
        self.reg_started = Some(ctx.now());
        stack.remove_iface_binding(self.iface);
        stack.add_iface(self.iface, temp, temp_prefix);
        // Tunneled packets arrive addressed to `temp`; the inner packets
        // are for our home address, which we capture.
        stack.add_capture(self.home_addr);
        stack.arp.clear_iface(self.iface);
        stack.routes.remove(Prefix::default_route());
        stack
            .routes
            .add(Prefix::default_route(), NextHop::Gateway { iface: self.iface, via: gateway });
        self.state = Attachment::OwnFa(temp);
        self.last_advert = Some(ctx.now());
        self.register_ha(stack, ctx, temp);
    }

    /// Notifies the previous foreign agent of the move (§3's final step),
    /// handing it the new agent's address for a §2 forwarding pointer.
    fn notify_old_fa(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        let Some(old) = self.old_fa.take() else { return };
        let new_fa = match self.state {
            Attachment::Foreign(fa) => fa,
            Attachment::OwnFa(t) => t,
            _ => Ipv4Addr::UNSPECIFIED,
        };
        if old != new_fa {
            let m = ControlMessage::FaDeregister { mobile: self.home_addr, new_fa };
            self.pending_old_fa = Some(Pending::new(m, old));
            self.send_pending(stack, ctx, REG_KIND_OLD_FA);
        }
    }

    /// Records the regional agent (if any) announced by the current
    /// cell's registration ack. A region change queues the old regional
    /// agent for deregistration, exactly like `old_fa` one tier down.
    fn note_regional(&mut self, regional: Option<Ipv4Addr>) {
        if self.regional != regional {
            if let Some(old) = self.regional {
                self.old_regional = Some(old);
            }
            self.regional = regional;
        }
    }

    /// Deregisters from the previous region's agent once the new location
    /// registration is acknowledged, handing it the new region ingress
    /// for a region-granularity §2 forwarding pointer.
    fn notify_old_regional(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        let Some(old) = self.old_regional.take() else { return };
        if Some(old) == self.regional {
            return;
        }
        let new_fa = match self.state {
            Attachment::Foreign(fa) => self.regional.unwrap_or(fa),
            Attachment::OwnFa(t) => t,
            _ => Ipv4Addr::UNSPECIFIED,
        };
        let m = ControlMessage::FaDeregister { mobile: self.home_addr, new_fa };
        self.pending_old_reg = Some(Pending::new(m, old));
        self.send_pending(stack, ctx, REG_KIND_OLD_REG);
    }

    fn register_ha(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, fa: Ipv4Addr) {
        self.reg_seq = self.reg_seq.wrapping_add(1);
        // Hierarchical mode (DESIGN.md §12): while served by a cell in a
        // regional domain, the location registration terminates at the
        // regional agent — unless the region is our *home* region, where
        // the regional agent and home agent coincide and the plain §3
        // registration is both correct and cheaper.
        let seq = self.reg_seq;
        let mobile = self.home_addr;
        let (msg, dst) = match self.regional {
            Some(ra)
                if ra != self.home_agent
                    && !fa.is_unspecified()
                    && matches!(self.state, Attachment::Foreign(_)) =>
            {
                (ControlMessage::RegRegister { mobile, home_agent: self.home_agent, fa, seq }, ra)
            }
            _ => (ControlMessage::HaRegister { mobile, fa, seq }, self.home_agent),
        };
        self.pending_ha = Some(Pending::registration(msg, dst, seq));
        self.send_pending(stack, ctx, REG_KIND_HA);
    }

    fn store_pending(&mut self, kind: u64, value: Option<Pending>) {
        match kind {
            REG_KIND_FA => self.pending_fa = value,
            REG_KIND_HA => self.pending_ha = value,
            REG_KIND_OLD_FA => self.pending_old_fa = value,
            _ => self.pending_old_reg = value,
        }
    }

    fn send_pending(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, kind: u64) {
        let pending = match kind {
            REG_KIND_FA => self.pending_fa,
            REG_KIND_HA => self.pending_ha,
            REG_KIND_OLD_FA => self.pending_old_fa,
            _ => self.pending_old_reg,
        };
        let Some(p) = pending else { return };
        counters::REGISTRATION_MSGS.incr(ctx.stats());
        let auth = p.seq.zip(self.config.auth_key).map(|(seq, key)| auth::sign(key, &p.msg, seq));
        // Control traffic is sourced from the home address like all our
        // traffic (§2: the mobile host "always uses only its home address").
        let datagram = ip::udp::UdpDatagram::new(MHRP_PORT, MHRP_PORT, p.msg.encode_with(auth));
        let ident = stack.next_ident();
        let pkt = Ipv4Packet::new(self.home_addr, p.dst, ip::proto::UDP, datagram.encode())
            .with_ident(ident);
        stack.send(ctx, pkt);
        ctx.set_timer(self.retry_delay(p.retries), TimerToken(REG_TIMER_BIT | kind));
    }

    /// Handles MHRP timers. Returns `true` if the token was ours.
    pub fn on_timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, token: TimerToken) -> bool {
        if token.0 & REG_TIMER_BIT != 0 {
            let kind = token.0 & 0x3;
            let pending = match kind {
                REG_KIND_FA => self.pending_fa,
                REG_KIND_HA => self.pending_ha,
                REG_KIND_OLD_FA => self.pending_old_fa,
                _ => self.pending_old_reg,
            };
            let Some(mut p) = pending else { return true };
            if p.retries < self.config.registration_max_retries {
                p.retries += 1;
                self.store_pending(kind, Some(p));
                self.send_pending(stack, ctx, kind);
                return true;
            }
            match kind {
                REG_KIND_HA => {
                    // The home agent may be on the far side of a
                    // partition: count the failure once, run the §3
                    // follow-ups, then keep probing at the capped cadence
                    // so registration reconverges when the partition
                    // heals.
                    if !p.gave_up {
                        p.gave_up = true;
                        self.pending_ha = Some(p);
                        self.stats.registrations_failed += 1;
                        ctx.stats().incr("mhrp.registrations_failed");
                        // §3 gates the old-FA notification on the home
                        // agent's ack; when the home agent is unreachable
                        // we notify the old foreign agent anyway, so its
                        // §2 forwarding pointer can bridge the outage.
                        self.notify_old_fa(stack, ctx);
                    }
                    self.stats.registration_probes += 1;
                    ctx.stats().incr("mhrp.registration_probes");
                    self.send_pending(stack, ctx, kind);
                }
                REG_KIND_FA => {
                    self.pending_fa = None;
                    self.stats.registrations_failed += 1;
                    ctx.stats().incr("mhrp.registrations_failed");
                    // The foreign agent stayed dark. Degrade gracefully:
                    // abandon it, fall back to plain home-agent routing
                    // (register the zero FA, §3) and go looking for a
                    // live agent.
                    if let Attachment::Foreign(_) = self.state {
                        self.stats.fa_dark_fallbacks += 1;
                        ctx.stats().incr("mhrp.fa_dark_fallbacks");
                        self.state = Attachment::Searching;
                        self.register_ha(stack, ctx, Ipv4Addr::UNSPECIFIED);
                        self.solicit(stack, ctx);
                    }
                }
                _ => {
                    // Old-FA / old-regional courtesy notifications: give up
                    // quietly, the §2 pointer is an optimisation only.
                    self.store_pending(kind, None);
                    self.stats.registrations_failed += 1;
                    ctx.stats().incr("mhrp.registrations_failed");
                }
            }
            return true;
        }
        if token.0 & WATCH_TIMER_BIT != 0 {
            if token.0 & 0xff != self.epoch & 0xff {
                // A watchdog from before the last crash/restart; let the
                // stale chain die (the fresh epoch has its own).
                return true;
            }
            // Movement detection (§3): no advertisement from our agent for
            // `advertisement_loss_tolerance` periods means we have moved.
            let tolerance = self.config.advertisement_interval
                * u64::from(self.config.advertisement_loss_tolerance);
            let stale = self.last_advert.is_none_or(|t| ctx.now().since(t) > tolerance);
            if stale && !matches!(self.state, Attachment::Searching) {
                ctx.stats().incr("mhrp.mh_agent_lost");
                if let Attachment::Foreign(fa) = self.state {
                    self.old_fa = Some(fa);
                }
                self.state = Attachment::Searching;
                self.solicit(stack, ctx);
            }
            ctx.set_timer(self.config.advertisement_interval, self.watch_token());
            return true;
        }
        if token.0 & SOLICIT_TIMER_BIT != 0 {
            if matches!(self.state, Attachment::Searching) {
                self.solicit(stack, ctx);
            }
            return true;
        }
        false
    }

    /// Handles a registration control message addressed to us (acks and
    /// recovery queries); `src` is the (inner) source address the message
    /// arrived from, which disambiguates acks when notifications to both
    /// an old foreign agent and an old regional agent are outstanding.
    /// Returns `true` if consumed.
    pub fn on_control(
        &mut self,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        src: Ipv4Addr,
        msg: &ControlMessage,
    ) -> bool {
        match *msg {
            ControlMessage::FaRegisterAck { mobile } if mobile == self.home_addr => {
                if self.pending_fa.take().is_some() {
                    // §3: the new foreign agent is registered; now notify
                    // the home agent. A plain ack also means this cell is
                    // not part of a regional domain.
                    self.note_regional(None);
                    if let Attachment::Foreign(fa) = self.state {
                        self.register_ha(stack, ctx, fa);
                    }
                }
                true
            }
            ControlMessage::FaRegisterAckRegional { mobile, regional }
                if mobile == self.home_addr =>
            {
                if self.pending_fa.take().is_some() {
                    // As above, but the cell announced its regional agent:
                    // the location registration stays inside the region.
                    self.note_regional(Some(regional));
                    if let Attachment::Foreign(fa) = self.state {
                        self.register_ha(stack, ctx, fa);
                    }
                }
                true
            }
            ControlMessage::HaRegisterAck { mobile, seq } if mobile == self.home_addr => {
                if let Some(p) = self.pending_ha {
                    // The regional agent acks a RegRegister with the same
                    // message type — the retransmission machine is shared
                    // between the two tiers. The ack itself is not MAC'd
                    // (it is only useful to the mobile that sent the
                    // matching registration).
                    let matched = match p.msg {
                        ControlMessage::HaRegister { seq: s, .. }
                        | ControlMessage::RegRegister { seq: s, .. } => s == seq,
                        _ => false,
                    };
                    if matched {
                        self.pending_ha = None;
                        self.stats.ha_registrations_acked += 1;
                        if let Some(t0) = self.reg_started.take() {
                            let us = ctx.now().since(t0).as_micros();
                            self.stats.registration_latency_us_sum += us;
                            self.stats.registration_latency_count += 1;
                            self.stats.registration_latency_us_max =
                                self.stats.registration_latency_us_max.max(us);
                        }
                        // §3: finally notify the old foreign agent (unless
                        // we already explicitly disconnected from it), and
                        // the old region's agent when we changed regions.
                        self.notify_old_fa(stack, ctx);
                        self.notify_old_regional(stack, ctx);
                    }
                }
                true
            }
            ControlMessage::FaDeregisterAck { mobile } if mobile == self.home_addr => {
                if self.pending_old_reg.is_some_and(|p| p.dst == src) {
                    self.pending_old_reg = None;
                } else {
                    self.pending_old_fa = None;
                }
                true
            }
            ControlMessage::FaRecoveryQuery => {
                // §5.2: our foreign agent rebooted; re-register with it.
                if let Attachment::Foreign(fa) = self.state {
                    self.stats.recovery_reregistrations += 1;
                    ctx.stats().incr("mhrp.mh_recovery_reregs");
                    self.register_fa(stack, ctx, fa);
                }
                true
            }
            _ => false,
        }
    }

    /// Handles an MHRP-encapsulated packet delivered to this host: either
    /// we are at home and a stale cache somewhere tunneled it here (§6.3),
    /// or we are our own foreign agent (§2). Decapsulates, updates the
    /// stale cache agents, and returns the inner packet for normal local
    /// delivery.
    pub fn handle_mhrp_delivery(
        &mut self,
        ca: &mut CacheAgentCore,
        stack: &mut IpStack,
        ctx: &mut Ctx<'_>,
        mut pkt: Ipv4Packet,
    ) -> Option<Ipv4Packet> {
        let outer_src = pkt.src;
        let header = match tunnel::decapsulate(&mut pkt) {
            Ok(h) => h,
            Err(_) => {
                counters::MALFORMED.incr(ctx.stats());
                return None;
            }
        };
        if header.mobile != self.home_addr {
            counters::NOT_FOR_US.incr(ctx.stats());
            return None;
        }
        // §6.3: tell everyone who handled this packet where we really are.
        let (fa, code) = match self.state {
            Attachment::Home => (Ipv4Addr::UNSPECIFIED, LocationUpdateCode::AtHome),
            Attachment::OwnFa(temp) => (temp, LocationUpdateCode::Bind),
            // In a regional domain stale caches are pointed at the region
            // ingress, not the cell — intra-region handoffs then never
            // invalidate them (DESIGN.md §12).
            Attachment::Foreign(fa) => (self.regional.unwrap_or(fa), LocationUpdateCode::Bind),
            Attachment::Searching => (Ipv4Addr::UNSPECIFIED, LocationUpdateCode::AtHome),
        };
        let mut targets = header.prev_sources.clone();
        targets.push(outer_src);
        for t in targets {
            ca.send_update(stack, ctx, t, self.home_addr, fa, code);
        }
        counters::DECAPSULATED.incr(ctx.stats());
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_bits_are_disjoint() {
        let bits = [
            REG_TIMER_BIT,
            WATCH_TIMER_BIT,
            SOLICIT_TIMER_BIT,
            crate::discovery::ADVERT_TIMER_BIT,
            netstack::STACK_TIMER_BIT,
        ];
        for (i, a) in bits.iter().enumerate() {
            for b in bits.iter().skip(i + 1) {
                assert_eq!(a & b, 0, "timer namespaces overlap");
            }
        }
    }

    #[test]
    fn initial_state_is_searching_until_started() {
        let core = MobileHostCore::new(
            IfaceId(0),
            Ipv4Addr::new(10, 1, 0, 7),
            "10.1.0.0/24".parse().unwrap(),
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 1),
            MhrpConfig::default(),
        );
        assert_eq!(core.state, Attachment::Searching);
        assert_eq!(core.stats.moves, 0);
    }
}
