//! Registration authentication (DESIGN.md §13).
//!
//! The paper's protocol accepts any `HaRegister` naming any mobile host —
//! an off-path attacker who can source a UDP datagram to the home agent
//! can divert all of a mobile's traffic. Mobile IP later closed this gap
//! with a mandatory authentication extension (keyed MAC over the
//! registration plus a replay-protected identification field); this
//! module is that extension back-ported onto MHRP, **off by default** so
//! the baseline reproduction stays byte-identical to the 1994 design.
//!
//! Three pieces:
//!
//! * a keyed 64-bit MAC ([`mac64`]) over the semantic fields of a
//!   message. The mixer is a splitmix64 chain — a stand-in for a real
//!   HMAC, chosen because the workspace takes no external crypto
//!   dependencies; it is *not* cryptographically strong, but in the
//!   simulator the adversary is the `adversary`-crate attack engine,
//!   which does not brute-force keys, so forgery resistance reduces to
//!   "the attacker does not know the key";
//! * [`sign`], the one function that computes a registration's MAC. It
//!   returns the [`AuthExt`] a registration carries beside its message
//!   (see [`crate::messages`] for the wire layout);
//! * `AuthGate`, one per agent, which holds the key and decides
//!   whether a registration or location update is authentic. A
//!   registration's sequence number must also pass a per-mobile replay
//!   window ([`ReplayWindow`]), compared with RFC 1982 serial arithmetic
//!   so the `u16` counter may wrap.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ip::icmp::{LocationUpdate, LocationUpdateCode};
use netsim::{Ctx, TeleEventKind};

use crate::messages::{AuthExt, ControlMessage};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Keyed 64-bit MAC over `parts`: each word is absorbed through a
/// splitmix64 chain seeded by the key. Deterministic, order-sensitive,
/// and (for the simulator's threat model) unforgeable without the key.
pub fn mac64(key: u64, parts: &[u64]) -> u64 {
    let mut acc = splitmix64(key ^ 0x6d68_7270_2d61_7574); // "mhrp-aut"
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

fn addr_word(a: Ipv4Addr) -> u64 {
    u64::from(u32::from_be_bytes(a.octets()))
}

/// Signs registration `msg` under `key`. `seq` is the mobile's
/// registration sequence number; `HaRegister` and `RegRegister` carry it
/// already, and it must equal theirs. The MAC covers a tag per message
/// type (1 `FaRegister`, 2 `HaRegister`, 3 `RegRegister`), so a signature
/// made for one type never verifies as another with the same addresses,
/// then every address of the message, then `seq`.
///
/// # Panics
///
/// Panics if `msg` is not a registration.
pub fn sign(key: u64, msg: &ControlMessage, seq: u16) -> AuthExt {
    let a = addr_word;
    let seq_word = u64::from(seq);
    let mac = match *msg {
        ControlMessage::FaRegister { mobile, home_agent } => {
            mac64(key, &[1, a(mobile), a(home_agent), seq_word])
        }
        ControlMessage::HaRegister { mobile, fa, .. } => {
            mac64(key, &[2, a(mobile), a(fa), seq_word])
        }
        ControlMessage::RegRegister { mobile, home_agent, fa, .. } => {
            mac64(key, &[3, a(mobile), a(home_agent), a(fa), seq_word])
        }
        _ => panic!("{msg:?} is not a registration; only registrations are signed"),
    };
    AuthExt { seq, mac }
}

/// MAC over a location update's semantic fields (`code` as its wire
/// value). Updates carry no sequence number — they are idempotent cache
/// hints, and replaying a *genuine* one is harmless (§4.3: stale entries
/// self-correct) — so the MAC only proves the sender holds the key.
pub fn update_mac(key: u64, code: u8, mobile: Ipv4Addr, foreign_agent: Ipv4Addr) -> u64 {
    mac64(key, &[0x75, u64::from(code), addr_word(mobile), addr_word(foreign_agent)])
}

/// Per-mobile replay window over registration sequence numbers.
///
/// Accepts a sequence equal to or newer than the last accepted one
/// (serial arithmetic, so the `u16` may wrap). *Equal* is accepted so a
/// retransmission of a registration whose ack was lost is re-acked
/// idempotently rather than dropped; an attacker replaying the same
/// captured message achieves nothing new, because applying the same
/// binding twice is a no-op.
#[derive(Debug, Clone, Default)]
pub struct ReplayWindow {
    last: HashMap<Ipv4Addr, u16>,
}

impl ReplayWindow {
    /// Checks `seq` for `mobile` and, if acceptable, records it as the
    /// new high-water mark. Returns whether the message should be
    /// processed.
    pub fn accept(&mut self, mobile: Ipv4Addr, seq: u16) -> bool {
        // A first sighting passes; after that, RFC 1982 serial comparison:
        // "newer or equal" is a forward distance under half the space.
        let fresh = self.last.get(&mobile).is_none_or(|&last| seq.wrapping_sub(last) < 0x8000);
        if fresh {
            self.last.insert(mobile, seq);
        }
        fresh
    }

    /// Forgets all recorded sequence numbers (volatile state on reboot;
    /// the first registration seen afterwards re-seeds the window).
    pub fn clear(&mut self) {
        self.last.clear();
    }
}

/// One agent's authentication gate: the shared key and the replay
/// window. Without a key it admits everything (the 1994 protocol). With
/// one, a registration is admitted only if it carries an extension, the
/// extension's MAC is the one [`sign`] computes, and its sequence number
/// passes the replay window — checked in that order, so a bad MAC never
/// moves the window.
#[derive(Debug)]
pub(crate) struct AuthGate {
    key: Option<u64>,
    replay: ReplayWindow,
}

impl AuthGate {
    /// Creates a gate; `key` is [`crate::MhrpConfig::auth_key`].
    pub fn new(key: Option<u64>) -> AuthGate {
        AuthGate { key, replay: ReplayWindow::default() }
    }

    /// Whether authentication is on.
    pub fn enforced(&self) -> bool {
        self.key.is_some()
    }

    /// The extension to send with registration `msg` (see [`sign`]), or
    /// `None` when authentication is off.
    pub fn sign(&self, msg: &ControlMessage, seq: u16) -> Option<AuthExt> {
        self.key.map(|key| sign(key, msg, seq))
    }

    /// Decides whether registration `msg`, which arrived with `auth`, is
    /// authentic, and counts it as rejected when it is not.
    pub fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &ControlMessage,
        auth: Option<AuthExt>,
    ) -> bool {
        let Some(key) = self.key else { return true };
        let (ControlMessage::FaRegister { mobile, .. }
        | ControlMessage::HaRegister { mobile, .. }
        | ControlMessage::RegRegister { mobile, .. }) = *msg
        else {
            panic!("{msg:?} is not a registration");
        };
        let admitted = auth.is_some_and(|ext| {
            sign(key, msg, ext.seq) == ext && self.replay.accept(mobile, ext.seq)
        });
        if !admitted {
            self.reject(ctx);
        }
        admitted
    }

    /// Counts one rejected message (`mhrp.auth.rejected`) and records it
    /// on the journey. Rejections are rare, so the counter is looked up
    /// by name.
    pub fn reject(&self, ctx: &mut Ctx<'_>) {
        ctx.stats().incr("mhrp.auth.rejected");
        ctx.tele_event(TeleEventKind::AuthReject);
    }

    /// Forgets the replay window (volatile state on reboot; the first
    /// registration seen afterwards re-seeds it).
    pub fn clear(&mut self) {
        self.replay.clear();
    }

    /// The MAC an outgoing location update carries, or `None` when
    /// authentication is off.
    pub fn sign_update(
        &self,
        code: LocationUpdateCode,
        mobile: Ipv4Addr,
        foreign_agent: Ipv4Addr,
    ) -> Option<u64> {
        self.key.map(|key| update_mac(key, code.as_u8(), mobile, foreign_agent))
    }

    /// Whether a received location update is authentic: always without a
    /// key (the 1994 baseline trusts every update, which is exactly what
    /// E19 measures), else only with the MAC [`update_mac`] computes.
    pub fn update_authentic(&self, update: &LocationUpdate) -> bool {
        self.key.is_none()
            || update.mac == self.sign_update(update.code, update.mobile, update.foreign_agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn ha(seq: u16) -> ControlMessage {
        ControlMessage::HaRegister { mobile: a(3), fa: a(4), seq }
    }

    #[test]
    fn mac_depends_on_every_input() {
        let m = sign(1, &ha(5), 5).mac;
        let fa = ControlMessage::FaRegister { mobile: a(3), home_agent: a(4) };
        assert_ne!(m, sign(9, &ha(5), 5).mac, "key");
        assert_ne!(m, sign(1, &fa, 5).mac, "message type");
        assert_ne!(
            m,
            sign(1, &ControlMessage::HaRegister { mobile: a(9), fa: a(4), seq: 5 }, 5).mac
        );
        assert_ne!(
            m,
            sign(1, &ControlMessage::HaRegister { mobile: a(3), fa: a(9), seq: 5 }, 5).mac
        );
        assert_ne!(m, sign(1, &ha(9), 9).mac, "seq");
        assert_eq!(m, sign(1, &ha(5), 5).mac, "deterministic");
        let reg = |ha_addr, fa| ControlMessage::RegRegister {
            mobile: a(3),
            home_agent: ha_addr,
            fa,
            seq: 5,
        };
        let r = sign(1, &reg(a(4), a(6)), 5).mac;
        assert_ne!(r, sign(1, &reg(a(9), a(6)), 5).mac, "RegRegister home agent");
        assert_ne!(r, sign(1, &reg(a(4), a(9)), 5).mac, "RegRegister foreign agent");
    }

    #[test]
    fn update_mac_differs_from_registration_mac() {
        let fa = ControlMessage::FaRegister { mobile: a(3), home_agent: a(4) };
        assert_ne!(update_mac(1, 1, a(3), a(4)), sign(1, &fa, 0).mac);
    }

    fn with_ctx<R>(f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        struct Probe;
        impl netsim::Node for Probe {
            fn on_frame(&mut self, _: &mut Ctx<'_>, _: netsim::IfaceId, _: &netsim::Frame) {}
        }
        let mut w = netsim::World::new(0);
        let n = w.add_node(Probe);
        w.with_node::<Probe, _>(n, |_, ctx| f(ctx))
    }

    /// The gate's whole decision table, with the key off and on: what is
    /// admitted, one `mhrp.auth.rejected` per rejection, and a bad MAC
    /// that leaves the replay window where it was.
    #[test]
    fn gate_decision_table() {
        const KEY: u64 = 0x1994_0d0c_5bad_c0de;
        let good = |seq| Some(sign(KEY, &ha(seq), seq));
        let spliced = sign(KEY, &ControlMessage::FaRegister { mobile: a(3), home_agent: a(4) }, 9);
        // (case, message, extension, admitted with the key on)
        let cases = [
            ("first sighting", ha(5), good(5), true),
            ("no extension", ha(6), None, false),
            ("wrong MAC", ha(9), good(9).map(|e| AuthExt { mac: e.mac ^ 1, ..e }), false),
            ("FaRegister signature on an HaRegister", ha(9), Some(spliced), false),
            ("older seq", ha(4), good(4), false),
            ("equal seq", ha(5), good(5), true),
            // Newer than 5 but older than the 9 the forgeries carried.
            ("newer seq", ha(6), good(6), true),
        ];
        for key in [None, Some(KEY)] {
            with_ctx(|ctx| {
                let mut gate = AuthGate::new(key);
                assert_eq!(gate.enforced(), key.is_some());
                for (case, msg, auth, admitted_on) in cases {
                    let want = key.is_none() || admitted_on;
                    let before = ctx.stats().counter("mhrp.auth.rejected");
                    assert_eq!(gate.admit(ctx, &msg, auth), want, "{case}, key {key:?}");
                    let counted = ctx.stats().counter("mhrp.auth.rejected") - before;
                    assert_eq!(counted, u64::from(!want), "{case}, key {key:?}");
                }
                gate.clear();
                assert!(gate.admit(ctx, &ha(1), good(1)), "a cleared window re-seeds");
            });
        }
    }

    #[test]
    fn replay_window_accepts_newer_and_equal_rejects_older() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(a(1), 5));
        assert!(w.accept(a(1), 5), "retransmission of the current seq re-accepted");
        assert!(w.accept(a(1), 6));
        assert!(!w.accept(a(1), 5), "replayed older seq rejected");
        assert!(!w.accept(a(1), 4));
        // Independent per mobile.
        assert!(w.accept(a(2), 1));
    }

    #[test]
    fn replay_window_wraps() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(a(1), 0xfffe));
        assert!(w.accept(a(1), 0xffff));
        assert!(w.accept(a(1), 0), "wrap to zero is newer");
        assert!(!w.accept(a(1), 0xffff), "pre-wrap seq now older");
        assert!(w.accept(a(1), 1));
    }

    #[test]
    fn clear_reseeds() {
        let mut w = ReplayWindow::default();
        assert!(w.accept(a(1), 100));
        assert!(!w.accept(a(1), 1));
        w.clear();
        assert!(w.accept(a(1), 1), "post-reboot window re-seeds from first sighting");
    }
}
