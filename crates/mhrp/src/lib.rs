//! # MHRP — the Mobile Host Routing Protocol
//!
//! A complete implementation of the protocol described in
//! **David B. Johnson, "Scalable and Robust Internetwork Routing for
//! Mobile Hosts", ICDCS 1994** — the direct precursor of IETF Mobile IP —
//! running over the deterministic internetwork simulator in `netsim` and
//! the IPv4 stack in `netstack`.
//!
//! ## Protocol summary
//!
//! A mobile host keeps its **home IP address** forever. When it visits a
//! foreign network it registers with a **foreign agent** there, then tells
//! the **home agent** on its home network where it is (§3). The home agent
//! intercepts packets arriving on the home network for departed mobile
//! hosts — using gratuitous and proxy ARP (§2) — and *tunnels* them to the
//! foreign agent by inserting an 8–12 byte [`header::MhrpHeader`] between
//! the IP and transport headers (§4, Figures 2–3). Any node may be a
//! **cache agent**, learning locations from **location update** ICMP
//! messages and tunneling directly (§4.3). The header's list of previous
//! IP source addresses drives three robustness mechanisms: stale-cache
//! correction (§5.1), foreign-agent crash recovery (§5.2), and forwarding
//! loop detection/dissolution (§5.3).
//!
//! ## Crate layout
//!
//! | module | paper | contents |
//! |---|---|---|
//! | [`header`] | Fig. 3 | the MHRP header wire format |
//! | [`tunnel`] | §4, §5.3, §4.5 | encapsulate / re-tunnel / decapsulate, loop detection, truncation, ICMP error reversal |
//! | [`messages`] | §3 | the registration control protocol |
//! | [`discovery`] | §3 | agent advertisements/solicitations |
//! | [`cache`] | §2, §4.3 | the finite LRU location cache |
//! | [`lru`] | §2, §4.3 | deterministic O(1) LRU map backing the bounded tables |
//! | [`rate_limit`] | §4.3 | per-destination update rate limiting |
//! | [`agent`] | §2, §4.3, §4.5 | the cache-agent role |
//! | [`auth`] | extension | registration authentication: keyed MACs + replay windows (DESIGN.md §13) |
//! | [`home_agent`] | §2, §5.1, §5.2 | the home-agent role |
//! | [`foreign_agent`] | §2, §4.4, §5.2 | the foreign-agent role |
//! | [`regional`] | extension | the regional-agent tier (hierarchical MHRP, DESIGN.md §12) |
//! | [`mobile_host`] | §2, §3, §6 | the mobile host engine |
//! | [`nodes`] | — | ready-to-simulate node types |
//! | [`config`] | — | tunable constants (documented in DESIGN.md) |
//!
//! ## Example
//!
//! See `examples/quickstart.rs` at the workspace root for the paper's
//! Figure 1 walked end-to-end; the `scenarios` crate builds that topology
//! with one call.

#![deny(missing_docs)]

pub mod agent;
pub mod auth;
pub mod cache;
pub mod config;
pub mod discovery;
pub mod foreign_agent;
pub mod header;
pub mod home_agent;
pub mod lru;
pub mod messages;
pub mod mobile_host;
pub mod nodes;
pub mod rate_limit;
pub mod regional;
pub mod tunnel;

pub use agent::CacheAgentCore;
pub use auth::ReplayWindow;
pub use cache::LocationCache;
pub use config::MhrpConfig;
pub use foreign_agent::ForeignAgentCore;
pub use header::MhrpHeader;
pub use home_agent::HomeAgentCore;
pub use lru::LruMap;
pub use messages::{AuthExt, ControlMessage, MHRP_PORT};
pub use mobile_host::{Attachment, MobileHostCore, MobilityStats};
pub use nodes::{MhrpHostNode, MhrpRouterNode, MobileHostNode};
pub use rate_limit::UpdateRateLimiter;
pub use regional::RegionalAgentCore;
