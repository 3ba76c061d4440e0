//! # mhrp-suite — the MHRP reproduction, in one import
//!
//! A complete reproduction of **David B. Johnson, "Scalable and Robust
//! Internetwork Routing for Mobile Hosts" (ICDCS 1994)** — the Mobile
//! Host Routing Protocol that preceded IETF Mobile IP — together with
//! every substrate it needs and the five §7 baseline protocols it is
//! compared against.
//!
//! This crate is a facade over the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`netsim`] | deterministic discrete-event internetwork simulator |
//! | [`ip`] | IPv4/ICMP/UDP/ARP wire formats (from scratch) |
//! | [`netstack`] | routing, ARP, forwarding, plain host/router nodes |
//! | [`mhrp`] | the paper's protocol: agents, mobile host, robustness |
//! | [`baselines`] | Sunshine-Postel, Columbia, Sony VIP, Matsushita, IBM LSRR |
//! | [`scenarios`] | the Figure 1 topology, workloads, experiments E01–E10 |
//!
//! # Quickstart
//!
//! Build the paper's Figure 1 internetwork, carry the mobile host to a
//! foreign wireless cell, and watch a correspondent's traffic follow it:
//!
//! ```rust
//! use mhrp_suite::prelude::*;
//!
//! let mut f = Figure1::build(Figure1Options::default());
//! f.world.run_until(SimTime::from_secs(2));
//!
//! // Carry M from its home network to R4's wireless cell.
//! f.move_m_to_d();
//! assert!(f.run_until_attached(Attachment::Foreign(f.addrs.r4), SimDuration::from_secs(10)));
//! f.world.run_for(SimDuration::from_secs(2));
//!
//! // S pings M's *home* address; the home agent tunnels it to R4.
//! let m_addr = f.addrs.m;
//! f.world.with_node::<MhrpHostNode, _>(f.s, |s, ctx| { s.ping(ctx, m_addr); });
//! f.world.run_for(SimDuration::from_secs(2));
//! assert_eq!(f.world.node::<MhrpHostNode>(f.s).log().echo_replies.len(), 1);
//! ```
//!
//! See `examples/` for runnable walkthroughs and `cargo run -p bench --bin
//! report` for the full experiment suite.

pub use baselines;
pub use ip;
pub use mhrp;
pub use netsim;
pub use netstack;
pub use scenarios;

/// The names most programs need.
pub mod prelude {
    pub use ip::{PacketError, Prefix};
    pub use mhrp::{Attachment, MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
    pub use netsim::time::{SimDuration, SimTime};
    pub use netsim::{IfaceId, NodeId, Op, SegmentParams, World};
    pub use netstack::nodes::{HostNode, RouterNode};
    pub use scenarios::topology::{CorrespondentKind, Figure1, Figure1Addrs, Figure1Options};
}
