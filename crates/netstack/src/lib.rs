//! A host/router IPv4 stack over the `netsim` substrate.
//!
//! This crate provides everything a *non-mobile* 1994 internet node does:
//!
//! * [`route`] — longest-prefix-match routing with host and default routes;
//! * [`arp`] — ARP caches with proxy and gratuitous-learning behaviour
//!   (the substrate for MHRP's home-network interception, paper §2);
//! * [`stack`] — the forwarding engine: TTL handling, ICMP error
//!   generation, ARP-driven transmission, and hook points
//!   ([`stack::StackEvent`]) that let the MHRP and baseline agents
//!   interpose on the forwarding path;
//! * [`nodes`] — the generic [`nodes::StackNode`] over a small
//!   [`nodes::Protocol`] hooks trait, and on it the ready-made
//!   [`nodes::RouterNode`] and [`nodes::HostNode`] for the unmodified
//!   routers and hosts the paper requires to keep working untouched.
//!
//! # Example: two hosts through a router
//!
//! ```rust
//! use netsim::{World, SegmentParams, IfaceId, SimTime};
//! use netstack::nodes::{HostNode, RouterNode};
//! use netstack::route::NextHop;
//! use std::net::Ipv4Addr;
//!
//! let mut w = World::new(1);
//! let left = w.add_segment(SegmentParams::default());
//! let right = w.add_segment(SegmentParams::default());
//!
//! let rid = w.add_node(RouterNode::new());
//! w.add_iface(rid, Some(left));
//! w.add_iface(rid, Some(right));
//! w.with_node::<RouterNode, _>(rid, |r, _ctx| {
//!     r.stack.add_iface(IfaceId(0), Ipv4Addr::new(10, 0, 0, 1), "10.0.0.0/24".parse().unwrap());
//!     r.stack.add_iface(IfaceId(1), Ipv4Addr::new(10, 0, 1, 1), "10.0.1.0/24".parse().unwrap());
//! });
//!
//! let a = w.add_node(HostNode::new());
//! w.add_iface(a, Some(left));
//! w.with_node::<HostNode, _>(a, |h, _| {
//!     h.stack.add_iface(IfaceId(0), Ipv4Addr::new(10, 0, 0, 2), "10.0.0.0/24".parse().unwrap());
//!     h.stack.routes.add(ip::Prefix::default_route(),
//!                        NextHop::Gateway { iface: IfaceId(0), via: Ipv4Addr::new(10, 0, 0, 1) });
//! });
//!
//! let b = w.add_node(HostNode::new());
//! w.add_iface(b, Some(right));
//! w.with_node::<HostNode, _>(b, |h, _| {
//!     h.stack.add_iface(IfaceId(0), Ipv4Addr::new(10, 0, 1, 2), "10.0.1.0/24".parse().unwrap());
//!     h.stack.routes.add(ip::Prefix::default_route(),
//!                        NextHop::Gateway { iface: IfaceId(0), via: Ipv4Addr::new(10, 0, 1, 1) });
//! });
//!
//! w.start();
//! w.with_node::<HostNode, _>(a, |h, ctx| { h.ping(ctx, Ipv4Addr::new(10, 0, 1, 2)); });
//! w.run_until(SimTime::from_secs(2));
//! assert_eq!(w.node::<HostNode>(a).log().echo_replies.len(), 1);
//! ```

#![deny(missing_docs)]

pub mod arp;
pub mod nodes;
pub mod route;
pub mod stack;

pub use arp::ArpModule;
pub use nodes::{EndpointLog, HostNode, Protocol, RouterNode, StackNode};
pub use route::{NextHop, RoutingTable};
pub use stack::{IfaceAddr, IpStack, StackEvent, STACK_TIMER_BIT};
