//! Agent discovery (paper §3): periodic agent advertisements and
//! solicitation handling, modeled on ICMP router discovery (RFC 1256).
//!
//! Foreign and home agents run an [`Advertiser`] on each network they
//! serve; mobile hosts listen for advertisements to notice their own
//! movement, and may multicast a solicitation to find an agent faster.

use ip::icmp::{AgentAdvertisement, IcmpMessage};
use netsim::time::SimDuration;
use netsim::{Counter, Ctx, IfaceId, TimerToken};
use netstack::IpStack;

/// Timer tokens with this bit set belong to an [`Advertiser`].
pub const ADVERT_TIMER_BIT: u64 = 1 << 61;

/// All bits below [`ADVERT_TIMER_BIT`] carry the advertiser epoch.
///
/// The full width matters: an 8-bit field aliases after 256 `start`
/// calls, at which point a timer chain armed before a long-ago crash
/// matches a live epoch again and the node advertises at twice the
/// rate. Epochs are bumped once per reboot, so 61 bits never wrap in
/// practice.
const ADVERT_EPOCH_MASK: u64 = ADVERT_TIMER_BIT - 1;

// Bumped once per advertisement: a per-second × per-cell path at
// mega-world scale.
static ADVERTS_SENT: Counter = Counter::new("mhrp.adverts_sent");

/// Periodically broadcasts agent advertisements on a set of interfaces.
#[derive(Debug)]
pub struct Advertiser {
    /// Advertise home-agent service.
    pub home: bool,
    /// Advertise foreign-agent service.
    pub foreign: bool,
    ifaces: Vec<IfaceId>,
    interval: SimDuration,
    seq: u16,
    running: bool,
    /// Bumped on every [`Advertiser::start`]; the token bits below
    /// [`ADVERT_TIMER_BIT`] carry it, so a pre-crash advertisement chain
    /// is dropped as stale after a reboot restarts the advertiser
    /// (instead of the node advertising at twice the rate).
    ///
    /// Migration note: the timer wheel supports real cancellation
    /// (`netsim::Ctx::cancel_timer`, an O(1) watermark), so `start` could
    /// cancel the old chain's token outright instead of letting stale
    /// fires dribble through `on_timer`. The epoch idiom is kept because
    /// it is replay-neutral: a cancelled timer never surfaces as a typed
    /// `Timer` telemetry event, while an epoch-dropped one does, so
    /// switching would change the typed-event logs that the determinism
    /// suite and the golden replay fixtures pin byte-for-byte.
    epoch: u64,
}

impl Advertiser {
    /// Creates an advertiser for `ifaces` with the given service flags.
    pub fn new(
        ifaces: Vec<IfaceId>,
        home: bool,
        foreign: bool,
        interval: SimDuration,
    ) -> Advertiser {
        Advertiser { home, foreign, ifaces, interval, seq: 0, running: false, epoch: 0 }
    }

    /// Begins periodic advertisement (call from `Node::on_start`, and
    /// again from `Node::on_reboot` — restarting opens a fresh timer
    /// epoch, so any chain armed before a crash dies quietly).
    pub fn start(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        self.running = true;
        self.epoch = self.epoch.wrapping_add(1);
        self.advertise_all(stack, ctx);
        ctx.set_timer(self.interval, self.token());
    }

    fn token(&self) -> TimerToken {
        TimerToken(ADVERT_TIMER_BIT | (self.epoch & ADVERT_EPOCH_MASK))
    }

    /// Handles a timer; returns `true` if the token belonged to us.
    pub fn on_timer(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, token: TimerToken) -> bool {
        if token.0 & ADVERT_TIMER_BIT == 0 {
            return false;
        }
        if token.0 & ADVERT_EPOCH_MASK != self.epoch & ADVERT_EPOCH_MASK {
            // Stale chain from before the last restart.
            return true;
        }
        if self.running {
            self.advertise_all(stack, ctx);
            ctx.set_timer(self.interval, self.token());
        }
        true
    }

    /// Responds immediately to a solicitation heard on `iface` (§3).
    pub fn solicited(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, iface: IfaceId) {
        if self.ifaces.contains(&iface) {
            self.advertise_one(stack, ctx, iface);
        }
    }

    fn advertise_all(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>) {
        for i in 0..self.ifaces.len() {
            let iface = self.ifaces[i];
            self.advertise_one(stack, ctx, iface);
        }
    }

    fn advertise_one(&mut self, stack: &mut IpStack, ctx: &mut Ctx<'_>, iface: IfaceId) {
        let Some(ia) = stack.iface_addr(iface) else { return };
        if !ctx.iface_attached(iface) {
            return;
        }
        self.seq = self.seq.wrapping_add(1);
        let ad = AgentAdvertisement {
            agent: ia.addr,
            home: self.home,
            foreign: self.foreign,
            seq: self.seq,
        };
        let msg = IcmpMessage::AgentAdvertisement(ad);
        let ident = stack.next_ident();
        let pkt = ip::ipv4::Ipv4Packet::new(
            ia.addr,
            std::net::Ipv4Addr::BROADCAST,
            ip::proto::ICMP,
            msg.encode(),
        )
        .with_ident(ident)
        .with_ttl(1);
        ADVERTS_SENT.incr(ctx.stats());
        stack.send_link_broadcast(ctx, iface, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_bit_disjoint_from_stack_bit() {
        assert_eq!(ADVERT_TIMER_BIT & netstack::STACK_TIMER_BIT, 0);
    }

    #[test]
    fn non_advert_tokens_are_refused() {
        let mut adv = Advertiser::new(vec![IfaceId(0)], false, true, SimDuration::from_secs(1));
        // Construct a throwaway world to get a Ctx.
        let mut w = netsim::World::new(0);
        struct Probe;
        impl netsim::Node for Probe {
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: &netsim::Frame) {}
        }
        let n = w.add_node(Probe);
        w.add_iface(n, None);
        let mut stack = IpStack::new(true);
        w.with_node::<Probe, _>(n, |_, ctx| {
            assert!(!adv.on_timer(&mut stack, ctx, TimerToken(0)));
            assert!(adv.on_timer(&mut stack, ctx, TimerToken(ADVERT_TIMER_BIT)));
        });
    }

    #[test]
    fn epoch_does_not_alias_after_256_starts() {
        // A timer chain armed in epoch 1, surviving while the advertiser
        // restarts 256 times, lands in epoch 257. With the old 8-bit
        // field (257 & 0xff == 1) the stale token matched the live epoch
        // and re-armed a second chain; the widened field keeps it stale.
        let mut adv = Advertiser::new(vec![IfaceId(0)], false, true, SimDuration::from_secs(1));
        adv.running = true;
        adv.epoch = 257;
        let stale = TimerToken(ADVERT_TIMER_BIT | 1);
        let mut w = netsim::World::new(0);
        struct Probe;
        impl netsim::Node for Probe {
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: IfaceId, _: &netsim::Frame) {}
        }
        let n = w.add_node(Probe);
        let seg = w.add_segment(netsim::SegmentParams::default());
        w.add_iface(n, Some(seg));
        let mut stack = IpStack::new(true);
        stack.add_iface(
            IfaceId(0),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            ip::Prefix::new(std::net::Ipv4Addr::new(10, 0, 0, 0), 24),
        );
        w.with_node::<Probe, _>(n, |_, ctx| {
            assert!(adv.on_timer(&mut stack, ctx, stale), "token carries the advert bit");
            assert!(adv.on_timer(&mut stack, ctx, adv.token()));
        });
        // The stale chain must have died without advertising; only the
        // live epoch's token reaches advertise_all.
        assert_eq!(w.stats().counter("mhrp.adverts_sent"), 1);
    }
}
