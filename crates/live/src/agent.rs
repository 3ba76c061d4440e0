//! One live agent: a [`NodeHarness`]-driven protocol core behind real
//! UDP sockets.
//!
//! Each agent owns one node's harness and a command mailbox. Socket
//! reader tasks (spawned by the runtime in `run.rs`) forward received
//! datagrams into the mailbox; the coordinator injects link events,
//! probe requests and shutdown the same way. The agent's loop is the
//! live counterpart of the simulator's event loop for one node: wait
//! until the next timer deadline or the next message, then dispatch
//! through the harness — which reproduces the simulator's pipeline
//! (telemetry, counters, drop rules) exactly.

use std::net::Ipv4Addr;

use mhrp::{MhrpHostNode, MobileHostNode};
use netsim::time::SimTime;
use netsim::{Clock, Frame, IfaceId, LinkEvent, NodeHarness, NodeId, NodeIo};
use netstack::nodes::UdpRecord;
use telemetry::Event;
use tokio::sync::mpsc::UnboundedReceiver;
use tokio::time::Duration;
use workload::encode_probe;

use crate::clock::WallClock;
use crate::scenario::{LoopbackScenario, PROBE_LEN, PROBE_PORT};
use crate::switchboard::Switchboard;
use crate::wire::LiveDatagram;

/// A message into an agent's mailbox.
#[derive(Debug)]
pub enum Cmd {
    /// A datagram arrived on interface `iface`.
    Datagram {
        /// Receiving interface.
        iface: IfaceId,
        /// Raw datagram bytes.
        bytes: Vec<u8>,
    },
    /// The node's interface attached or detached (mobility).
    Link {
        /// Affected interface.
        iface: IfaceId,
        /// What happened.
        event: LinkEvent,
    },
    /// Originate one probe to `dst` (only sent to S's agent).
    Probe {
        /// Destination (a mobile's home address).
        dst: Ipv4Addr,
        /// Flow id for the probe payload.
        flow: u32,
        /// Sequence number for the probe payload.
        seq: u32,
    },
    /// Finish up and report.
    Stop,
}

/// What kind of protocol core an agent runs (decides result
/// extraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// One of R1–R5.
    Router,
    /// The correspondent host S.
    HostS,
    /// A mobile host (scenario index).
    Mobile(usize),
}

/// The [`NodeIo`] implementation for live mode: frames become
/// datagrams fanned out per the switchboard's segment membership.
///
/// Sends use blocking `std` clones of the agent's bound sockets — a
/// loopback `send_to` does not block in practice, and staying
/// synchronous keeps `NodeIo`'s contract (the harness calls it from
/// inside dispatch).
pub struct LiveIo {
    switchboard: Switchboard,
    senders: Vec<std::net::UdpSocket>,
    /// Datagrams successfully handed to the kernel.
    pub datagrams_sent: u64,
    /// Datagrams the kernel refused (counted, not retried: the
    /// simulator's lossy-segment analogue).
    pub send_errors: u64,
}

impl LiveIo {
    /// Creates the I/O backend from per-interface sender sockets (index
    /// = interface id).
    pub fn new(switchboard: Switchboard, senders: Vec<std::net::UdpSocket>) -> LiveIo {
        LiveIo { switchboard, senders, datagrams_sent: 0, send_errors: 0 }
    }
}

impl NodeIo for LiveIo {
    fn transmit(&mut self, node: NodeId, iface: IfaceId, frame: Frame) {
        let (seg, dests) = self.switchboard.destinations(node, iface, frame.dst);
        let Some(seg) = seg else { return };
        let bytes = LiveDatagram::from_frame(seg as u16, &frame).encode();
        for dest in dests {
            match self.senders[iface.0].send_to(&bytes, dest) {
                Ok(_) => self.datagrams_sent += 1,
                Err(_) => self.send_errors += 1,
            }
        }
    }
}

/// Everything an agent hands back when stopped.
#[derive(Debug)]
pub struct AgentReport {
    /// The node this agent ran.
    pub node_id: NodeId,
    /// Its full structured telemetry (journey fragments included).
    pub events: Vec<Event>,
    /// `mhrp.overhead_bytes` counter at shutdown.
    pub overhead_bytes: u64,
    /// `mhrp.updates_sent` counter at shutdown.
    pub updates_sent: u64,
    /// Application-level deliveries (mobile hosts only).
    pub udp_rx: Vec<UdpRecord>,
    /// Actual probe transmission times (S only): `(flow, seq, at)`.
    pub probe_sends: Vec<(u32, u32, SimTime)>,
    /// Datagrams sent on the wire.
    pub datagrams_sent: u64,
    /// Datagrams dropped because their segment tag did not match the
    /// interface's current cell (in flight across a handoff).
    pub stale_segment_drops: u64,
    /// Datagrams that failed to parse.
    pub malformed: u64,
}

/// One live agent, ready to [`run`](Agent::run).
pub struct Agent {
    /// The sans-io dispatch engine around the protocol core.
    pub harness: NodeHarness,
    /// What the core is (decides extraction on shutdown).
    pub role: Role,
    /// Frame egress.
    pub io: LiveIo,
    /// Shared wall clock.
    pub clock: WallClock,
    /// Command mailbox (readers and the coordinator hold senders).
    pub rx: UnboundedReceiver<Cmd>,
    /// Shared segment membership (for stale-datagram filtering).
    pub switchboard: Switchboard,
}

impl Agent {
    /// Runs the agent until [`Cmd::Stop`] (or every sender hangs up),
    /// then extracts the report.
    pub async fn run(mut self) -> AgentReport {
        let clock = self.clock;
        self.harness.start(clock.now(), &mut self.io);
        let mut probe_sends = Vec::new();
        let mut stale_segment_drops = 0u64;
        let mut malformed = 0u64;
        loop {
            self.harness.tick(clock.now(), &mut self.io);
            let wait = match self.harness.next_deadline() {
                Some(d) => {
                    let now = clock.now();
                    if d <= now {
                        Duration::ZERO
                    } else {
                        Duration::from_nanos(d.since(now).as_nanos())
                    }
                }
                None => Duration::from_millis(50),
            };
            match tokio::time::timeout(wait, self.rx.recv()).await {
                Err(_) => continue, // deadline reached: tick at loop top
                Ok(None) => break,
                Ok(Some(Cmd::Stop)) => break,
                Ok(Some(Cmd::Datagram { iface, bytes })) => {
                    let datagram = match LiveDatagram::decode(&bytes) {
                        Ok(d) => d,
                        Err(_) => {
                            malformed += 1;
                            continue;
                        }
                    };
                    // A datagram tagged with another segment was in
                    // flight while this interface changed cells: the
                    // radio-range drop, made explicit.
                    let here = self.switchboard.segment_of(self.harness.node_id(), iface);
                    if here != Some(datagram.segment as usize) {
                        stale_segment_drops += 1;
                        continue;
                    }
                    let frame = datagram.into_frame();
                    self.harness.on_frame(clock.now(), &mut self.io, iface, &frame);
                }
                Ok(Some(Cmd::Link { iface, event })) => {
                    self.harness.on_link(clock.now(), &mut self.io, iface, event);
                }
                Ok(Some(Cmd::Probe { dst, flow, seq })) => {
                    let at = clock.now();
                    let payload = encode_probe(flow, seq, PROBE_LEN);
                    self.harness.with_node::<MhrpHostNode, _>(at, &mut self.io, |h, ctx| {
                        h.send_udp(ctx, dst, LoopbackScenario::src_port(flow), PROBE_PORT, payload);
                    });
                    probe_sends.push((flow, seq, at));
                }
            }
        }
        let stopped = clock.now();
        self.harness.tick(stopped, &mut self.io);

        // Handed over, not copied: the log is the run's largest table.
        let udp_rx = match self.role {
            Role::Mobile(_) => {
                self.harness.with_node::<MobileHostNode, _>(stopped, &mut self.io, |m, _| {
                    std::mem::take(&mut m.endpoint.log.udp_rx)
                })
            }
            _ => Vec::new(),
        };
        AgentReport {
            node_id: self.harness.node_id(),
            events: self.harness.telemetry().events().copied().collect(),
            overhead_bytes: self.harness.stats().counter("mhrp.overhead_bytes"),
            updates_sent: self.harness.stats().counter("mhrp.updates_sent"),
            udp_rx,
            probe_sends,
            datagrams_sent: self.io.datagrams_sent,
            stale_segment_drops,
            malformed,
        }
    }
}
