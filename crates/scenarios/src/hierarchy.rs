//! Seeded hierarchical internetwork generator for paper-scale runs (§1:
//! "the mobile internetworking problem is fundamentally one of scale";
//! §7's scalability argument).
//!
//! ```text
//!                       backbone 10.255.0.0/16
//!          ┌───────────────┬───────────────┐
//!         RR0             RR1             RR2 ...        regional routers
//!          │ 10.1.0.0/16   │ 10.2.0.0/16   │             (home agents)
//!      ┌───┴───┐       ┌───┴───┐
//!     FA0    FA1 ...  FA0    FA1 ...                     foreign agents
//!      │      │        │      │
//!   11.1.0/24 │     11.2.0/24 │                          wireless cells
//!    m m m   m m m   m m m   m m m                       mobile hosts
//! ```
//!
//! Every region `r` has one regional router (the home agent for all of the
//! region's mobile hosts), `F` foreign agents fanning out wireless cells,
//! and `M` mobile hosts homed on the regional LAN. Mobile hosts start
//! *away*, spread round-robin over the region's cells, so the build is
//! immediately followed by a realistic registration storm: every host
//! discovers its cell's foreign agent and registers with its home agent
//! across the hierarchy.
//!
//! The address plan (region index `r` uses octet `r+1`):
//!
//! * backbone: `10.255.0.0/16`, regional router `r` at `10.255.0.(r+1)`;
//! * region LAN `r`: `10.(r+1).0.0/16`, regional router at `10.(r+1).0.1`,
//!   foreign agent `f`'s upstream at `10.(r+1).0.(f+2)`;
//! * cell `(r, f)`: `11.(r+1).f.0/24`, foreign agent at `11.(r+1).f.1`;
//! * mobile host `i` of region `r`: homed at `10.(r+1).0.0 + 256 + i`
//!   (i.e. starting from `10.(r+1).1.0`);
//! * optional correspondent host on the backbone at `10.255.0.254`.
//!
//! Worlds of a million hosts fit the plan (200 regions × 65 000 hosts);
//! the committed `mega_world` benches exercise 1k/10k/100k.
//!
//! One builder, [`ShardedHierarchy::build`], creates every node and
//! segment; a classic single-[`World`] [`Hierarchy`] is its one-shard
//! build, unwrapped by [`ShardedWorld::into_world`].

use std::net::Ipv4Addr;
use std::sync::Arc;

use ip::Prefix;
use mhrp::{Attachment, MhrpConfig, MhrpHostNode, MhrpRouterNode, MobileHostNode};
use netsim::time::SimDuration;
use netsim::{IfaceId, NodeId, SegmentId, SegmentParams, ShardedWorld, SimWorld, World};
use netstack::route::NextHop;

/// The backbone prefix every regional router has one interface on.
pub fn backbone_prefix() -> Prefix {
    Prefix::new(Ipv4Addr::new(10, 255, 0, 0), 16)
}

/// The network octet of region `region` (`0`-based index → octet `r+1`,
/// keeping `10.0/24`-style octets and the backbone's `255` free).
fn region_octet(region: usize) -> u8 {
    u8::try_from(region + 1).expect("region octet")
}

/// Regional router `region`'s backbone address.
pub fn backbone_addr(region: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 255, 0, region_octet(region))
}

/// Region `region`'s LAN prefix (mobile hosts are homed inside it).
pub fn region_prefix(region: usize) -> Prefix {
    Prefix::new(Ipv4Addr::new(10, region_octet(region), 0, 0), 16)
}

/// The regional router's LAN address — the home agent (and home gateway)
/// of every mobile host in the region.
pub fn region_router_addr(region: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, region_octet(region), 0, 1)
}

/// Foreign agent `fa`'s address on the regional LAN.
pub fn fa_upstream_addr(region: usize, fa: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, region_octet(region), 0, u8::try_from(fa + 2).expect("fa octet"))
}

/// The aggregate covering every cell of `region` (one backbone route per
/// region, not per cell — the hierarchy is what makes the plan scale).
pub fn cells_prefix(region: usize) -> Prefix {
    Prefix::new(Ipv4Addr::new(11, region_octet(region), 0, 0), 16)
}

/// Cell `(region, fa)`'s wireless prefix.
pub fn cell_prefix(region: usize, fa: usize) -> Prefix {
    Prefix::new(
        Ipv4Addr::new(11, region_octet(region), u8::try_from(fa).expect("cell octet"), 0),
        24,
    )
}

/// Foreign agent `fa`'s address inside its own cell.
pub fn fa_cell_addr(region: usize, fa: usize) -> Ipv4Addr {
    Ipv4Addr::new(11, region_octet(region), u8::try_from(fa).expect("cell octet"), 1)
}

/// Mobile host `i` of `region`'s home address (from `10.(r+1).1.0` up).
pub fn mobile_home_addr(region: usize, i: usize) -> Ipv4Addr {
    let base = u32::from(Ipv4Addr::new(10, region_octet(region), 0, 0));
    Ipv4Addr::from(base + 256 + u32::try_from(i).expect("mobile index"))
}

/// The optional correspondent host's backbone address.
pub const CORRESPONDENT_ADDR: Ipv4Addr = Ipv4Addr::new(10, 255, 0, 254);

/// Attacker host `i`'s backbone address (from `10.255.0.253` *down*, so
/// the range never collides with the regional routers' `10.255.0.(r+1)`
/// octets — regions stop at 200 — or the correspondent at `.254`).
pub fn attacker_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 255, 0, u8::try_from(253 - i).expect("attacker octet"))
}

/// Cell segment parameters chosen by the plan (see
/// [`HierarchyParams::deterministic_cells`]).
fn cell_params(p: &HierarchyParams) -> SegmentParams {
    if p.deterministic_cells {
        SegmentParams::with_latency(SimDuration::from_millis(2))
    } else {
        SegmentParams::wireless()
    }
}

/// Parameters of a hierarchical world.
#[derive(Debug, Clone)]
pub struct HierarchyParams {
    /// Number of regions (1..=200).
    pub regions: usize,
    /// Foreign agents (= wireless cells) per region (1..=250).
    pub fas_per_region: usize,
    /// Mobile hosts homed in each region (..=65_000), started away and
    /// spread round-robin over the region's cells.
    pub mobiles_per_region: usize,
    /// Whether to add an MHRP correspondent host on the backbone.
    pub correspondent: bool,
    /// Number of attacker hosts on the backbone (0..=50), addressed from
    /// `10.255.0.253` down. They are ordinary [`MhrpHostNode`]s built
    /// *after* every legitimate node, so `attackers: 0` yields a world
    /// byte-identical to the pre-adversary plan and any other count only
    /// appends node ids. The `adversary` crate drives them.
    pub attackers: usize,
    /// The protocol configuration shared by every MHRP node.
    pub config: MhrpConfig,
    /// Link latency of the wired segments.
    pub wired_latency: SimDuration,
    /// Run hierarchical MHRP (DESIGN.md §12): every regional router also
    /// hosts a regional agent owning its region's visitor bindings, and
    /// every cell foreign agent registers its visitors regionally instead
    /// of straight with the home agent. `false` builds the classic flat
    /// world, byte-identical to every pre-regional release.
    pub hierarchical: bool,
    /// Replace the wireless cells' default 1 ms per-receiver jitter with
    /// jitter-free 2 ms cells. Per-receiver jitter draws consume the
    /// owning world's RNG, which is the one source of divergence between
    /// equal worlds sharded differently — the shard-count determinism
    /// suite runs with this set. Off by default (classic worlds keep
    /// their golden-replay timing).
    pub deterministic_cells: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for HierarchyParams {
    fn default() -> HierarchyParams {
        HierarchyParams {
            regions: 2,
            fas_per_region: 4,
            mobiles_per_region: 32,
            correspondent: true,
            attackers: 0,
            config: MhrpConfig::default(),
            wired_latency: SimDuration::from_micros(500),
            hierarchical: false,
            deterministic_cells: false,
            seed: 1994,
        }
    }
}

impl HierarchyParams {
    /// Total mobile hosts the plan creates.
    pub fn host_count(&self) -> usize {
        self.regions * self.mobiles_per_region
    }
}

/// The built hierarchical world with handles to every node, on either
/// execution engine: [`Hierarchy`] runs a classic [`World`],
/// [`ShardedHierarchy`] a [`ShardedWorld`]. Both come out of
/// [`ShardedHierarchy::build`], so node ids and MAC addresses are the
/// same whatever the engine and the shard count.
#[derive(Debug)]
pub struct HierarchyOf<W> {
    /// The simulation world (started).
    pub world: W,
    /// Number of regions built.
    pub regions: usize,
    /// Foreign agents per region.
    pub fas_per_region: usize,
    /// Mobile hosts per region.
    pub mobiles_per_region: usize,
    /// Regional routers, indexed by region.
    pub routers: Vec<NodeId>,
    /// Foreign agents, indexed `region * fas_per_region + fa`.
    pub fas: Vec<NodeId>,
    /// Cell segments, indexed like [`HierarchyOf::fas`].
    pub cells: Vec<SegmentId>,
    /// Mobile hosts, indexed `region * mobiles_per_region + i`.
    pub mobiles: Vec<NodeId>,
    /// The correspondent host, when built.
    pub correspondent: Option<NodeId>,
    /// Attacker hosts on the backbone (see [`HierarchyParams::attackers`]).
    pub attackers: Vec<NodeId>,
}

/// The hierarchy on one classic [`World`].
pub type Hierarchy = HierarchyOf<World>;

/// The hierarchy spread region by region over a [`ShardedWorld`]: every
/// region's LAN, cells, routers, agents and mobiles live on one shard
/// (regions in contiguous blocks, see [`shard_of_region`]), the backbone
/// is the single portal segment, and the correspondent and attackers sit
/// on shard 0.
pub type ShardedHierarchy = HierarchyOf<ShardedWorld>;

/// The shard owning `region` when `regions` regions are spread over
/// `shards` shards: contiguous balanced blocks, so neighbouring regions
/// share a shard and every shard gets `regions/shards` ± 1 regions.
pub fn shard_of_region(region: usize, regions: usize, shards: usize) -> usize {
    region * shards / regions
}

impl Hierarchy {
    /// Builds (and starts) the hierarchical world on one classic
    /// [`World`]: the one-shard [`ShardedHierarchy::build`], unwrapped.
    ///
    /// # Panics
    ///
    /// Panics if the parameters exceed the address plan (see
    /// [`HierarchyParams`] field limits).
    pub fn build(p: HierarchyParams) -> Hierarchy {
        let HierarchyOf {
            world,
            regions,
            fas_per_region,
            mobiles_per_region,
            routers,
            fas,
            cells,
            mobiles,
            correspondent,
            attackers,
        } = ShardedHierarchy::build(p, 1);
        HierarchyOf {
            world: world.into_world(),
            regions,
            fas_per_region,
            mobiles_per_region,
            routers,
            fas,
            cells,
            mobiles,
            correspondent,
            attackers,
        }
    }
}

impl ShardedHierarchy {
    /// Builds (and starts) the hierarchy over `shards` shards (clamped
    /// to the region count — a shard with no region would idle through
    /// every barrier window).
    ///
    /// Nodes and segments are created in one global order whatever the
    /// shard count, so node ids and MAC addresses never depend on it —
    /// which is what lets the determinism suite compare merged telemetry
    /// across shard counts directly.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the parameters exceed the address plan
    /// (see [`HierarchyParams`] field limits).
    pub fn build(p: HierarchyParams, shards: usize) -> ShardedHierarchy {
        assert!(shards >= 1, "need at least one shard");
        assert!((1..=200).contains(&p.regions), "regions must be in 1..=200");
        assert!((1..=250).contains(&p.fas_per_region), "fas_per_region must be in 1..=250");
        assert!(p.mobiles_per_region <= 65_000, "mobiles_per_region must be <= 65_000");
        assert!(p.attackers <= 50, "attackers must be <= 50");
        let shards = shards.min(p.regions);
        let shard_of = |r: usize| shard_of_region(r, p.regions, shards);

        let mut w = ShardedWorld::new(p.seed, shards);
        // The population is known up front, so hint the event queue's
        // steady-state size before anything is scheduled: each node keeps
        // a few timers armed (watchdog, advertiser, retransmit) plus its
        // share of frames in flight.
        let nodes = p.regions * (1 + p.fas_per_region)
            + p.host_count()
            + usize::from(p.correspondent)
            + p.attackers;
        w.reserve_events((nodes * 4).div_ceil(shards));
        let wired = SegmentParams::with_latency(p.wired_latency);
        let all_shards: Vec<usize> = (0..shards).collect();
        let backbone = w.add_portal_segment(wired, &all_shards);
        let lans: Vec<SegmentId> =
            (0..p.regions).map(|r| w.add_segment(shard_of(r), wired)).collect();
        let mut cells = Vec::with_capacity(p.regions * p.fas_per_region);
        for r in 0..p.regions {
            for _ in 0..p.fas_per_region {
                cells.push(w.add_segment(shard_of(r), cell_params(&p)));
            }
        }

        // --- Regional routers: backbone <-> region LAN, home agents ---
        let mut routers = Vec::with_capacity(p.regions);
        for (r, &lan) in lans.iter().enumerate() {
            let mut node = MhrpRouterNode::new(p.config.clone())
                .with_home_agent(IfaceId(1))
                .with_advertiser(vec![IfaceId(1)]);
            if p.hierarchical {
                node = node.with_regional_agent(IfaceId(1));
            }
            let id = w.add_node(shard_of(r), node);
            w.add_iface(id, Some(backbone)); // iface 0
            w.add_iface(id, Some(lan)); // iface 1
            let fas_per_region = p.fas_per_region;
            let regions = p.regions;
            w.with_node::<MhrpRouterNode, _>(id, move |n, _| {
                n.stack.add_iface(IfaceId(0), backbone_addr(r), backbone_prefix());
                n.stack.add_iface(IfaceId(1), region_router_addr(r), region_prefix(r));
                for r2 in (0..regions).filter(|&r2| r2 != r) {
                    let via = backbone_addr(r2);
                    n.stack
                        .routes
                        .add(region_prefix(r2), NextHop::Gateway { iface: IfaceId(0), via });
                    n.stack
                        .routes
                        .add(cells_prefix(r2), NextHop::Gateway { iface: IfaceId(0), via });
                }
                for f in 0..fas_per_region {
                    n.stack.routes.add(
                        cell_prefix(r, f),
                        NextHop::Gateway { iface: IfaceId(1), via: fa_upstream_addr(r, f) },
                    );
                }
            });
            routers.push(id);
        }

        // --- Foreign agents: region LAN <-> own wireless cell ---
        let mut fas = Vec::with_capacity(p.regions * p.fas_per_region);
        for r in 0..p.regions {
            for f in 0..p.fas_per_region {
                let mut node = MhrpRouterNode::new(p.config.clone())
                    .with_foreign_agent(IfaceId(1))
                    .with_advertiser(vec![IfaceId(1)]);
                if p.hierarchical {
                    node = node.with_regional_parent(region_router_addr(r));
                }
                let id = w.add_node(shard_of(r), node);
                w.add_iface(id, Some(lans[r])); // iface 0
                w.add_iface(id, Some(cells[r * p.fas_per_region + f])); // iface 1
                w.with_node::<MhrpRouterNode, _>(id, move |n, _| {
                    n.stack.add_iface(IfaceId(0), fa_upstream_addr(r, f), region_prefix(r));
                    n.stack.add_iface(IfaceId(1), fa_cell_addr(r, f), cell_prefix(r, f));
                    n.stack.routes.add(
                        Prefix::default_route(),
                        NextHop::Gateway { iface: IfaceId(0), via: region_router_addr(r) },
                    );
                });
                fas.push(id);
            }
        }

        // --- Correspondent host on the backbone (shard 0) ---
        let correspondent = p.correspondent.then(|| {
            let id = w.add_node(0, MhrpHostNode::new(&p.config));
            w.add_iface(id, Some(backbone));
            let regions = p.regions;
            w.with_node::<MhrpHostNode, _>(id, move |h, _| {
                h.stack.add_iface(IfaceId(0), CORRESPONDENT_ADDR, backbone_prefix());
                for r in 0..regions {
                    let via = backbone_addr(r);
                    h.stack
                        .routes
                        .add(region_prefix(r), NextHop::Gateway { iface: IfaceId(0), via });
                    h.stack
                        .routes
                        .add(cells_prefix(r), NextHop::Gateway { iface: IfaceId(0), via });
                }
            });
            id
        });

        // --- Mobile hosts: homed on the regional LAN, started away in the
        // region's cells (round-robin) ---
        let mut mobiles = Vec::with_capacity(p.host_count());
        let config = Arc::new(p.config.clone());
        for r in 0..p.regions {
            for i in 0..p.mobiles_per_region {
                let id = w.add_node(
                    shard_of(r),
                    MobileHostNode::new(
                        mobile_home_addr(r, i),
                        region_prefix(r),
                        region_router_addr(r),
                        region_router_addr(r),
                        Arc::clone(&config),
                    ),
                );
                let cell = cells[r * p.fas_per_region + (i % p.fas_per_region)];
                w.add_iface(id, Some(cell));
                mobiles.push(id);
            }
        }

        // --- Attacker hosts on the backbone, shard 0 (built last: node
        // ids of every legitimate node are independent of the attacker
        // count) ---
        let mut attackers = Vec::with_capacity(p.attackers);
        for a in 0..p.attackers {
            let id = w.add_node(0, MhrpHostNode::new(&p.config));
            w.add_iface(id, Some(backbone));
            let regions = p.regions;
            w.with_node::<MhrpHostNode, _>(id, move |h, _| {
                h.stack.add_iface(IfaceId(0), attacker_addr(a), backbone_prefix());
                for r in 0..regions {
                    let via = backbone_addr(r);
                    h.stack
                        .routes
                        .add(region_prefix(r), NextHop::Gateway { iface: IfaceId(0), via });
                    h.stack
                        .routes
                        .add(cells_prefix(r), NextHop::Gateway { iface: IfaceId(0), via });
                }
            });
            attackers.push(id);
        }

        w.start();
        HierarchyOf {
            world: w,
            regions: p.regions,
            fas_per_region: p.fas_per_region,
            mobiles_per_region: p.mobiles_per_region,
            routers,
            fas,
            cells,
            mobiles,
            correspondent,
            attackers,
        }
    }
}

impl<W: SimWorld> HierarchyOf<W> {
    /// Mobile host `idx`'s home address (`idx` indexes
    /// [`HierarchyOf::mobiles`]).
    pub fn mobile_addr(&self, idx: usize) -> Ipv4Addr {
        mobile_home_addr(idx / self.mobiles_per_region, idx % self.mobiles_per_region)
    }

    /// The cell foreign agent mobile host `idx` starts under.
    pub fn mobile_cell_fa(&self, idx: usize) -> Ipv4Addr {
        let r = idx / self.mobiles_per_region;
        let f = (idx % self.mobiles_per_region) % self.fas_per_region;
        fa_cell_addr(r, f)
    }

    /// How many mobile hosts are currently registered with a foreign
    /// agent.
    pub fn attached_count(&self) -> usize {
        self.mobiles
            .iter()
            .filter(|&&m| {
                matches!(self.world.node::<MobileHostNode>(m).core.state, Attachment::Foreign(_))
            })
            .count()
    }

    /// Runs until at least `fraction` of the mobile hosts are registered
    /// away (or `deadline` of additional simulated time passes). Returns
    /// `true` on success.
    pub fn run_until_attached(&mut self, fraction: f64, deadline: SimDuration) -> bool {
        let want = (self.mobiles.len() as f64 * fraction).ceil() as usize;
        let end = self.world.now() + deadline;
        loop {
            if self.attached_count() >= want {
                return true;
            }
            if self.world.now() >= end {
                return false;
            }
            self.world.run_for(SimDuration::from_millis(250));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::MacAddr;
    use proptest::prelude::*;

    #[test]
    fn address_plan_is_disjoint() {
        // Region LANs, cells and the backbone never overlap.
        assert!(!backbone_prefix().contains(region_router_addr(0)));
        assert!(!region_prefix(0).contains(region_router_addr(1)));
        assert!(!cells_prefix(0).contains(fa_upstream_addr(0, 0)));
        assert!(cell_prefix(1, 3).contains(fa_cell_addr(1, 3)));
        assert!(cells_prefix(1).contains(fa_cell_addr(1, 3)));
        assert!(region_prefix(2).contains(mobile_home_addr(2, 64_999)));
        assert_eq!(mobile_home_addr(0, 0), Ipv4Addr::new(10, 1, 1, 0));
    }

    #[test]
    fn small_world_registers_everyone() {
        let p = HierarchyParams {
            regions: 2,
            fas_per_region: 3,
            mobiles_per_region: 9,
            ..Default::default()
        };
        let mut h = Hierarchy::build(p);
        assert_eq!(h.mobiles.len(), 18);
        assert_eq!(h.fas.len(), 6);
        // Mobiles start away and must all register: discovery takes the
        // watchdog's loss tolerance (3 s) before the host searches.
        assert!(h.run_until_attached(1.0, SimDuration::from_secs(30)), "registration stalled");
        // Each host sits under the round-robin cell it was placed in.
        for idx in [0, 4, 17] {
            let m = h.mobiles[idx];
            let state = h.world.node::<MobileHostNode>(m).core.state;
            assert_eq!(state, Attachment::Foreign(h.mobile_cell_fa(idx)));
        }
    }

    #[test]
    fn sharded_world_registers_everyone() {
        let p = HierarchyParams {
            regions: 2,
            fas_per_region: 3,
            mobiles_per_region: 9,
            ..Default::default()
        };
        let mut h = ShardedHierarchy::build(p, 2);
        assert_eq!(h.world.shard_count(), 2);
        assert!(h.run_until_attached(1.0, SimDuration::from_secs(30)), "registration stalled");
        for idx in [0, 4, 17] {
            let m = h.mobiles[idx];
            let state = h.world.node::<MobileHostNode>(m).core.state;
            assert_eq!(state, Attachment::Foreign(h.mobile_cell_fa(idx)));
        }
    }

    /// Every interface's MAC address, node by node in build order, read
    /// through `with_node` the way a node itself sees them.
    fn macs<W: SimWorld>(h: &mut HierarchyOf<W>) -> Vec<MacAddr> {
        fn of<T: 'static, W: SimWorld>(w: &mut W, ids: &[NodeId], out: &mut Vec<MacAddr>) {
            for &id in ids {
                w.with_node::<T, _>(id, |_, ctx| {
                    out.extend((0..ctx.iface_count()).map(|i| ctx.mac(IfaceId(i))));
                });
            }
        }
        let mut out = Vec::new();
        of::<MhrpRouterNode, _>(&mut h.world, &h.routers, &mut out);
        of::<MhrpRouterNode, _>(&mut h.world, &h.fas, &mut out);
        of::<MhrpHostNode, _>(&mut h.world, h.correspondent.as_slice(), &mut out);
        of::<MobileHostNode, _>(&mut h.world, &h.mobiles, &mut out);
        of::<MhrpHostNode, _>(&mut h.world, &h.attackers, &mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The classic world and every sharded layout of the same
        /// parameters hand out the same node and segment handles and the
        /// same MAC addresses, and the shard count clamps to the region
        /// count — uneven region/shard splits and attackers included.
        #[test]
        fn build_is_identical_over_engines_and_shard_counts(
            regions in 1usize..=5,
            fas_per_region in 1usize..=3,
            mobiles_per_region in 0usize..=6,
            attackers in 0usize..=2,
            correspondent in any::<bool>(),
            hierarchical in any::<bool>(),
        ) {
            let p = HierarchyParams {
                regions,
                fas_per_region,
                mobiles_per_region,
                attackers,
                correspondent,
                hierarchical,
                ..Default::default()
            };
            let mut classic = Hierarchy::build(p.clone());
            let classic_macs = macs(&mut classic);
            for shards in 1..=4 {
                let mut s = ShardedHierarchy::build(p.clone(), shards);
                prop_assert_eq!(s.world.shard_count(), shards.min(regions));
                prop_assert_eq!(&s.routers, &classic.routers);
                prop_assert_eq!(&s.fas, &classic.fas);
                prop_assert_eq!(&s.cells, &classic.cells);
                prop_assert_eq!(&s.mobiles, &classic.mobiles);
                prop_assert_eq!(s.correspondent, classic.correspondent);
                prop_assert_eq!(&s.attackers, &classic.attackers);
                prop_assert_eq!(macs(&mut s), classic_macs.clone(), "MACs at {} shards", shards);
            }
        }
    }

    #[test]
    fn hierarchical_cross_region_visit_registers_regionally() {
        let p = HierarchyParams {
            regions: 2,
            fas_per_region: 3,
            mobiles_per_region: 3,
            hierarchical: true,
            ..Default::default()
        };
        let mut h = Hierarchy::build(p);
        assert!(h.run_until_attached(1.0, SimDuration::from_secs(30)), "registration stalled");
        // Carry region 0's host 0 into region 1's cell 1 — a cross-region
        // visit that must be served by region 1's regional agent.
        let mover = h.mobiles[0];
        let at = h.world.now() + SimDuration::from_millis(10);
        let visit =
            netsim::Op::AttachIface { node: mover, iface: IfaceId(0), segment: h.cells[3 + 1] };
        h.world.schedule(at, visit);
        h.world.run_for(SimDuration::from_secs(10));
        let state = h.world.node::<MobileHostNode>(mover).core.state;
        assert_eq!(state, Attachment::Foreign(fa_cell_addr(1, 1)));
        assert!(
            h.world.stats().counter("mhrp.reg_registrations") > 0,
            "the regional tier saw no registration"
        );
        // Correspondent traffic reaches the visitor through the two-tier
        // tunnel (home agent -> regional agent -> cell FA).
        let target = h.mobile_addr(0);
        let c = h.correspondent.expect("correspondent");
        h.world.with_node::<MhrpHostNode, _>(c, |host, ctx| {
            host.send_udp(ctx, target, 4242, 4242, vec![7; 16]);
        });
        h.world.run_for(SimDuration::from_secs(2));
        let got = h
            .world
            .node::<MobileHostNode>(mover)
            .endpoint
            .log
            .udp_rx
            .iter()
            .any(|r| r.payload == vec![7; 16]);
        assert!(got, "probe did not reach the cross-region visitor");
    }

    #[test]
    fn build_is_deterministic() {
        let p = HierarchyParams {
            regions: 2,
            fas_per_region: 2,
            mobiles_per_region: 6,
            ..Default::default()
        };
        let mut a = Hierarchy::build(p.clone());
        let mut b = Hierarchy::build(p);
        a.world.run_for(SimDuration::from_secs(8));
        b.world.run_for(SimDuration::from_secs(8));
        assert_eq!(a.world.events_processed(), b.world.events_processed());
        assert_eq!(a.attached_count(), b.attached_count());
    }
}
