//! Deterministic discrete-event internetwork simulator.
//!
//! `netsim` is the substrate on which the MHRP reproduction runs. It models:
//!
//! * **Segments** — Ethernet-like broadcast domains with configurable
//!   latency, jitter and loss. A frame sent to the broadcast MAC is delivered
//!   to every other attachment; a unicast frame only to the matching MAC.
//! * **Nodes** — user-defined protocol state machines implementing [`Node`],
//!   driven by frame arrivals, timers and link events.
//! * **A per-world event queue** — totally ordered by `(time, seq)` so
//!   that runs are bit-for-bit reproducible for a given RNG seed. Backed by
//!   a hierarchical timer wheel ([`sched`]) for O(1) scheduling, with
//!   queue-level timer cancellation ([`Ctx::cancel_timer`]). A classic
//!   [`World`] is one queue; a [`ShardedWorld`] runs several worlds in
//!   conservative barrier windows, exchanging cross-shard frames through
//!   portal segments ([`shard`]).
//! * **Admin operations** — scripted topology changes (interface moves for
//!   host mobility, segment up/down, node reboots) and arbitrary scripted
//!   callbacks, all scheduled on the same queue.
//!
//! # Example
//!
//! ```rust
//! use netsim::{World, Node, Ctx, Frame, EtherType, IfaceId, TimerToken, AsAny};
//! use netsim::time::{SimDuration, SimTime};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_frame(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, frame: &Frame) {
//!         // Bounce every frame straight back to its sender.
//!         let reply = Frame::new(ctx.mac(iface), frame.src, EtherType::Other(0x88b5),
//!                                frame.payload.clone());
//!         ctx.send_frame(iface, reply);
//!     }
//! }
//!
//! struct Probe { got: usize }
//! impl Node for Probe {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.set_timer(SimDuration::from_millis(1), TimerToken(0));
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerToken) {
//!         let f = Frame::broadcast(ctx.mac(IfaceId(0)), EtherType::Other(0x88b5), vec![1, 2, 3]);
//!         ctx.send_frame(IfaceId(0), f);
//!     }
//!     fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _frame: &Frame) {
//!         self.got += 1;
//!     }
//! }
//!
//! let mut world = World::new(7);
//! let seg = world.add_segment(Default::default());
//! let echo = world.add_node(Echo);
//! world.add_iface(echo, Some(seg));
//! let probe = world.add_node(Probe { got: 0 });
//! world.add_iface(probe, Some(seg));
//! world.start();
//! world.run_until(SimTime::from_secs(1));
//! assert_eq!(world.node::<Probe>(probe).got, 1);
//! ```
//!
//! # Fault injection
//!
//! The [`faults`] module adds a deterministic fault layer on top of the
//! admin operations: a [`faults::FaultPlan`] of timed [`faults::FaultOp`]s
//! (link flaps, partitions, latency spikes, payload corruption, node
//! crashes with state loss, broadcast suppression) compiled onto the same
//! event queue via [`World::install_faults`].
//!
//! # Structured telemetry
//!
//! The [`telemetry`] crate (re-exported here) adds typed events and causal
//! packet journeys on top of the counters: enable with
//! [`World::set_telemetry`], reconstruct any packet's hop list with
//! [`World::journey_hops`], and capture delivered frames to a
//! Wireshark-readable pcap-ng buffer with [`World::start_pcap_capture`].
//! Everything is off by default and costs nothing until enabled; building
//! `netsim` with `--no-default-features` compiles the hooks out entirely.

#![deny(missing_docs)]

mod arena;
pub mod event;
pub mod faults;
pub mod frame;
pub mod id;
pub mod io;
pub mod node;
pub mod sched;
pub mod segment;
pub mod shard;
pub mod stats;
pub mod time;
pub mod world;

pub use faults::{FaultOp, FaultPlan};
pub use frame::Payload;
pub use frame::{EtherType, Frame};
pub use id::{IfaceId, MacAddr, NodeId, PortalId, SegmentId};
pub use io::{Clock, NodeHarness, NodeIo, NullIo};
pub use node::{AsAny, Ctx, LinkEvent, Node, TimerToken};
pub use sched::TimerWheel;
pub use segment::SegmentParams;
pub use shard::{ShardedWorld, SimWorld};
pub use stats::{metric, Counter, HistId, MetricId, SeriesId, Stats};
pub use time::{SimDuration, SimTime};
pub use world::{AdminOp, World};

pub use telemetry;
pub use telemetry::{
    DropReason, Event, EventKind as TeleEventKind, EventLog, FaultKind, HistSnapshot, Histogram,
    Journey, JourneyId,
};
