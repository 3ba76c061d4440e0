//! Seeded, deterministic mobility models compiled to timed attachment
//! changes.
//!
//! A [`MobilityModel`] turns a static [`Layout`] (how many wireless cells
//! exist, where each mobile host starts) into a [`MovePlan`]: an ordered
//! list of `(time, MoveOp)` pairs, exactly analogous to
//! [`netsim::faults::FaultPlan`]. Installing a plan lowers every entry to
//! a [`netsim::Op::AttachIface`] / [`netsim::Op::DetachIface`] on the
//! world's single event queue (silent: moves are not faults), so
//! movement interleaves with frames and timers under the same total
//! `(time, seq)` order — the same seed plus the same plan reproduces a
//! byte-identical run.
//!
//! Plans speak in *indices* (host `0..layout.hosts()`, cell
//! `0..layout.cells`), not [`NodeId`]s, so a plan is a pure value that
//! can be generated, compared and property-tested without a world. The
//! world binding happens only at [`MovePlan::install`] time.
//!
//! The three models cover the movement regimes the paper's mechanisms
//! are sensitive to:
//!
//! * [`RandomWaypoint`] — independent wander: dwell a uniform random
//!   time, hop to a uniform random other cell (cache-staleness and
//!   update-rate background load, §4.3/§5).
//! * [`Commuter`] — periodic home↔work oscillation; the handoff *rate*
//!   is the swept parameter in experiment E15 (§5's ≤1 lost packet per
//!   stale cache hop).
//! * [`FlashCrowd`] — correlated mass migration into one cell
//!   (conference-room arrival): stresses one foreign agent's visitor
//!   list and every correspondent's location cache at once (§7 scaling).

use netsim::id::{IfaceId, NodeId, SegmentId};
use netsim::time::{SimDuration, SimTime};
use netsim::{Op, SimWorld};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// The static roaming surface a model compiles plans over.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Number of wireless cells; hosts roam over cell indices
    /// `0..cells`.
    pub cells: usize,
    /// Starting cell index of each mobile host (the vector length is the
    /// host count).
    pub start_cells: Vec<usize>,
}

impl Layout {
    /// A layout with `hosts` hosts spread round-robin over `cells` cells
    /// (the same placement [`scenarios`-style] hierarchy builders use).
    ///
    /// [`scenarios`-style]: https://example.invalid/mhrp
    pub fn round_robin(cells: usize, hosts: usize) -> Layout {
        assert!(cells > 0, "layout needs at least one cell");
        Layout { cells, start_cells: (0..hosts).map(|h| h % cells).collect() }
    }

    /// Number of mobile hosts in the layout.
    pub fn hosts(&self) -> usize {
        self.start_cells.len()
    }
}

/// One attachment change, applied at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOp {
    /// Carry `host` into `cell` (a handoff when it was attached
    /// elsewhere).
    Attach {
        /// Index of the moving host.
        host: usize,
        /// Destination cell index.
        cell: usize,
    },
    /// Carry `host` out of radio range entirely.
    Detach {
        /// Index of the detaching host.
        host: usize,
    },
}

impl fmt::Display for MoveOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveOp::Attach { host, cell } => write!(f, "attach h{host} -> c{cell}"),
            MoveOp::Detach { host } => write!(f, "detach h{host}"),
        }
    }
}

/// An ordered schedule of timed [`MoveOp`]s — the mobility analogue of
/// [`netsim::faults::FaultPlan`].
///
/// Built by a [`MobilityModel`] (or by hand with [`MovePlan::op`]), then
/// bound to a world with [`MovePlan::install`]. Plans are plain values
/// (`Clone + PartialEq`): the determinism proptests compare whole plans
/// across replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MovePlan {
    ops: Vec<(SimTime, MoveOp)>,
}

impl MovePlan {
    /// Creates an empty plan.
    pub fn new() -> MovePlan {
        MovePlan::default()
    }

    /// Adds one operation at an absolute time.
    pub fn op(mut self, at: SimTime, op: MoveOp) -> MovePlan {
        self.ops.push((at, op));
        self
    }

    /// The scheduled operations, in insertion order.
    pub fn ops(&self) -> &[(SimTime, MoveOp)] {
        &self.ops
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of attach operations — the handoff count the SLO
    /// evaluator normalises losses by.
    pub fn handoffs(&self) -> u64 {
        self.ops.iter().filter(|(_, op)| matches!(op, MoveOp::Attach { .. })).count() as u64
    }

    /// Number of attaches that move `host` specifically — for
    /// normalising loss by the handoffs of the hosts that actually
    /// carry traffic.
    pub fn handoffs_for(&self, host: usize) -> u64 {
        self.ops
            .iter()
            .filter(|(_, op)| matches!(op, MoveOp::Attach { host: h, .. } if *h == host))
            .count() as u64
    }

    /// The largest cell index any attach targets, if the plan attaches
    /// at all (the proptests bound this by the layout's cell count).
    pub fn max_cell(&self) -> Option<usize> {
        self.ops
            .iter()
            .filter_map(|(_, op)| match op {
                MoveOp::Attach { cell, .. } => Some(*cell),
                MoveOp::Detach { .. } => None,
            })
            .max()
    }

    /// The time of the latest scheduled operation ([`SimTime::ZERO`] for
    /// an empty plan).
    pub fn end(&self) -> SimTime {
        self.ops.iter().map(|(at, _)| *at).max().unwrap_or(SimTime::ZERO)
    }

    /// Lowers the plan to [`Op`]s on `world`'s event queue.
    ///
    /// `hosts[i]` is the `(node, iface)` that represents host index `i`;
    /// `cells[c]` is the segment for cell index `c`. Works on any
    /// [`SimWorld`]; on a sharded world, every host must stay inside
    /// its owning shard (region-confined mobility), or the shard router
    /// panics.
    ///
    /// # Panics
    ///
    /// Panics if an op names a host or cell index outside the slices.
    pub fn install<W: SimWorld>(
        &self,
        world: &mut W,
        hosts: &[(NodeId, IfaceId)],
        cells: &[SegmentId],
    ) {
        for &(at, op) in &self.ops {
            let op = match op {
                MoveOp::Attach { host, cell } => {
                    let (node, iface) = hosts[host];
                    Op::AttachIface { node, iface, segment: cells[cell] }
                }
                MoveOp::Detach { host } => {
                    let (node, iface) = hosts[host];
                    Op::DetachIface { node, iface }
                }
            };
            world.schedule(at, op);
        }
    }
}

/// A seeded, deterministic generator of [`MovePlan`]s.
///
/// `compile` must be a pure function of `(self, layout, from, until)`:
/// equal inputs yield equal plans (property-tested), and every attach
/// must target a cell inside the layout.
pub trait MobilityModel {
    /// Compiles the model into timed attachment changes covering
    /// `from..until`.
    fn compile(&self, layout: &Layout, from: SimTime, until: SimTime) -> MovePlan;

    /// A short human label for reports (e.g. `"random-waypoint"`).
    fn name(&self) -> &'static str;
}

/// Cell-granular random waypoint: each host dwells a uniform random time
/// in `dwell_min..=dwell_max`, then hops to a uniformly chosen *other*
/// cell, independently of every other host.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWaypoint {
    /// Deterministic seed (independent of the world's seed).
    pub seed: u64,
    /// Shortest dwell time in one cell.
    pub dwell_min: SimDuration,
    /// Longest dwell time in one cell (inclusive; must be ≥ `dwell_min`).
    pub dwell_max: SimDuration,
}

impl MobilityModel for RandomWaypoint {
    fn compile(&self, layout: &Layout, from: SimTime, until: SimTime) -> MovePlan {
        assert!(self.dwell_min <= self.dwell_max, "dwell_min must be <= dwell_max");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut plan = MovePlan::new();
        for host in 0..layout.hosts() {
            let mut cell = layout.start_cells[host];
            let mut at = from + dwell(&mut rng, self.dwell_min, self.dwell_max);
            while at < until {
                if layout.cells > 1 {
                    // Uniform over the other cells.
                    let pick = rng.random_range(0..layout.cells - 1);
                    cell = if pick >= cell { pick + 1 } else { pick };
                    plan = plan.op(at, MoveOp::Attach { host, cell });
                }
                at += dwell(&mut rng, self.dwell_min, self.dwell_max);
            }
        }
        plan
    }

    fn name(&self) -> &'static str {
        "random-waypoint"
    }
}

/// Periodic home↔work oscillation: each host picks one fixed "work"
/// cell and a random phase, then commutes there and back every
/// `period`, spending half the period at each end. The handoff rate is
/// exactly `2/period` per host — the knob experiment E15 sweeps.
///
/// With `work_hops > 0` the model additionally wanders *within the work
/// region* during each work phase: the cells are treated as contiguous
/// regions of `region_cells` each (matching the hierarchy builders'
/// global cell indexing `region * fas_per_region + fa`), and the host
/// hops to `work_hops` random other cells of the work cell's region,
/// evenly spaced through the phase. Those hops are exactly the
/// intra-region handoffs a regional registration tier absorbs without
/// touching the backbone — experiment E17 contrasts them flat vs
/// hierarchical. Hops draw from their own RNG stream, so the commute
/// pattern (work cells, phases) is the same at every `work_hops`
/// setting and `work_hops == 0` plans are identical to the classic
/// two-field model's.
#[derive(Debug, Clone, PartialEq)]
pub struct Commuter {
    /// Deterministic seed.
    pub seed: u64,
    /// Full home → work → home cycle length.
    pub period: SimDuration,
    /// Intra-work-region cell hops per work phase (0 = classic pure
    /// oscillation).
    pub work_hops: usize,
    /// Cells per region of the underlying world (global cell index /
    /// `region_cells` = region). Must be positive when `work_hops > 0`;
    /// ignored otherwise.
    pub region_cells: usize,
}

impl MobilityModel for Commuter {
    fn compile(&self, layout: &Layout, from: SimTime, until: SimTime) -> MovePlan {
        assert!(self.period > SimDuration::ZERO, "period must be positive");
        assert!(
            self.work_hops == 0 || self.region_cells > 0,
            "work_hops needs region_cells to delimit the work region"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Hops draw from their own stream so they never perturb the
        // commute draws above — plans with different `work_hops` share
        // the same work cells and phases.
        let mut hop_rng = StdRng::seed_from_u64(self.seed ^ 0xc2b2_ae3d_27d4_eb4f);
        let mut plan = MovePlan::new();
        let half = SimDuration::from_micros(self.period.as_micros() / 2);
        for host in 0..layout.hosts() {
            let home = layout.start_cells[host];
            if layout.cells < 2 {
                continue; // nowhere to commute to
            }
            let pick = rng.random_range(0..layout.cells - 1);
            let work = if pick >= home { pick + 1 } else { pick };
            let phase =
                SimDuration::from_micros(rng.random_range(0..self.period.as_micros().max(1)));
            let mut at = from + phase;
            let mut at_work = false;
            while at < until {
                at_work = !at_work;
                let cell = if at_work { work } else { home };
                plan = plan.op(at, MoveOp::Attach { host, cell });
                if at_work && self.work_hops > 0 {
                    plan = self.work_phase_hops(
                        &mut hop_rng,
                        plan,
                        layout,
                        host,
                        work,
                        at,
                        half,
                        until,
                    );
                }
                at += half;
            }
        }
        plan
    }

    fn name(&self) -> &'static str {
        "commuter"
    }
}

impl Commuter {
    /// Emits the intra-region hops of one work phase starting at
    /// `arrive`; hops are spaced `half / (work_hops + 1)` apart so the
    /// last one still leaves dwell time before the commute home.
    #[allow(clippy::too_many_arguments)]
    fn work_phase_hops(
        &self,
        rng: &mut StdRng,
        mut plan: MovePlan,
        layout: &Layout,
        host: usize,
        work: usize,
        arrive: SimTime,
        half: SimDuration,
        until: SimTime,
    ) -> MovePlan {
        let base = work / self.region_cells * self.region_cells;
        let span = self.region_cells.min(layout.cells - base);
        if span < 2 {
            return plan; // single-cell work region: nowhere to hop
        }
        let step = half.as_micros() / (self.work_hops as u64 + 1);
        let mut cur = work;
        for k in 0..self.work_hops {
            let at = arrive + SimDuration::from_micros(step * (k as u64 + 1));
            if at >= until {
                break;
            }
            // Uniform over the region's other cells.
            let pick = rng.random_range(0..span - 1);
            let rel = cur - base;
            cur = base + if pick >= rel { pick + 1 } else { pick };
            plan = plan.op(at, MoveOp::Attach { host, cell: cur });
        }
        plan
    }
}

/// Correlated mass migration: at `at`, each host joins the crowd with
/// probability `fraction` and attaches to `cell` at a uniform random
/// instant inside `arrival_window`; participants optionally return to
/// their start cell `disperse_after` later.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowd {
    /// Deterministic seed.
    pub seed: u64,
    /// Instant the event begins.
    pub at: SimTime,
    /// Destination cell everyone converges on.
    pub cell: usize,
    /// Probability each host joins, in `[0, 1]`.
    pub fraction: f64,
    /// Arrivals spread uniformly over this window after `at`.
    pub arrival_window: SimDuration,
    /// When set, each participant returns to its start cell this long
    /// after its arrival.
    pub disperse_after: Option<SimDuration>,
}

impl MobilityModel for FlashCrowd {
    fn compile(&self, layout: &Layout, from: SimTime, until: SimTime) -> MovePlan {
        assert!(self.cell < layout.cells, "flash-crowd target cell outside the layout");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut plan = MovePlan::new();
        let window = self.arrival_window.as_micros().max(1);
        for host in 0..layout.hosts() {
            // Draw both variates unconditionally so each host consumes a
            // fixed number of draws: participation of host i is
            // independent of every other host's parameters.
            let joins = rng.random_bool(self.fraction);
            let offset = SimDuration::from_micros(rng.random_range(0..window));
            if !joins {
                continue;
            }
            let arrive = self.at + offset;
            if arrive < from || arrive >= until {
                continue;
            }
            plan = plan.op(arrive, MoveOp::Attach { host, cell: self.cell });
            if let Some(stay) = self.disperse_after {
                let back = arrive + stay;
                if back < until {
                    plan = plan.op(back, MoveOp::Attach { host, cell: layout.start_cells[host] });
                }
            }
        }
        plan
    }

    fn name(&self) -> &'static str {
        "flash-crowd"
    }
}

fn dwell(rng: &mut StdRng, min: SimDuration, max: SimDuration) -> SimDuration {
    SimDuration::from_micros(rng.random_range(min.as_micros()..=max.as_micros()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::round_robin(4, 6)
    }

    #[test]
    fn round_robin_spreads_hosts() {
        let l = layout();
        assert_eq!(l.hosts(), 6);
        assert_eq!(l.start_cells, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn random_waypoint_is_deterministic_and_in_bounds() {
        let m = RandomWaypoint {
            seed: 7,
            dwell_min: SimDuration::from_millis(500),
            dwell_max: SimDuration::from_secs(2),
        };
        let a = m.compile(&layout(), SimTime::ZERO, SimTime::from_secs(30));
        let b = m.compile(&layout(), SimTime::ZERO, SimTime::from_secs(30));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.max_cell().unwrap() < 4);
        assert!(a.end() < SimTime::from_secs(30));
    }

    #[test]
    fn commuter_alternates_work_and_home() {
        let m =
            Commuter { seed: 3, period: SimDuration::from_secs(4), work_hops: 0, region_cells: 0 };
        let l = Layout::round_robin(3, 1);
        let plan = m.compile(&l, SimTime::ZERO, SimTime::from_secs(20));
        // ~2 handoffs per period over 20 s: at least 8 attaches, and the
        // destinations strictly alternate between two cells.
        assert!(plan.handoffs() >= 8, "handoffs = {}", plan.handoffs());
        let cells: Vec<usize> = plan
            .ops()
            .iter()
            .map(|(_, op)| match op {
                MoveOp::Attach { cell, .. } => *cell,
                MoveOp::Detach { .. } => unreachable!(),
            })
            .collect();
        for pair in cells.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        assert!(cells.contains(&l.start_cells[0]));
    }

    #[test]
    fn commuter_work_hops_stay_inside_the_work_region() {
        // 3 regions of 4 cells; every work-phase hop must land in the
        // same region as the host's work cell.
        let l = Layout::round_robin(12, 6);
        let base =
            Commuter { seed: 9, period: SimDuration::from_secs(4), work_hops: 0, region_cells: 4 };
        let hoppy = Commuter { work_hops: 3, ..base.clone() };
        let plain = base.compile(&l, SimTime::ZERO, SimTime::from_secs(20));
        let plan = hoppy.compile(&l, SimTime::ZERO, SimTime::from_secs(20));
        assert!(plan.handoffs() > plain.handoffs(), "work_hops added no handoffs");
        // Reconstruct each host's work cell (first attach not at home).
        let mut work = vec![None; l.hosts()];
        for (_, op) in plain.ops() {
            if let MoveOp::Attach { host, cell } = op {
                if *cell != l.start_cells[*host] && work[*host].is_none() {
                    work[*host] = Some(*cell);
                }
            }
        }
        for (_, op) in plan.ops() {
            if let MoveOp::Attach { host, cell } = op {
                let (home, w) = (l.start_cells[*host], work[*host].unwrap());
                assert!(
                    *cell == home || *cell / 4 == w / 4,
                    "host {host} attached to cell {cell} outside home {home} / work region {}",
                    w / 4
                );
            }
        }
    }

    #[test]
    fn commuter_without_work_hops_matches_classic_plans() {
        // work_hops = 0 must not perturb the RNG draw sequence: the plan
        // is identical whatever region_cells says.
        let l = Layout::round_robin(8, 5);
        let a =
            Commuter { seed: 5, period: SimDuration::from_secs(6), work_hops: 0, region_cells: 0 };
        let b = Commuter { region_cells: 4, ..a.clone() };
        assert_eq!(
            a.compile(&l, SimTime::ZERO, SimTime::from_secs(30)),
            b.compile(&l, SimTime::ZERO, SimTime::from_secs(30)),
        );
    }

    #[test]
    fn flash_crowd_converges_and_disperses() {
        let m = FlashCrowd {
            seed: 11,
            at: SimTime::from_secs(5),
            cell: 2,
            fraction: 1.0,
            arrival_window: SimDuration::from_secs(1),
            disperse_after: Some(SimDuration::from_secs(4)),
        };
        let l = layout();
        let plan = m.compile(&l, SimTime::ZERO, SimTime::from_secs(30));
        // Everyone joins (fraction 1) and everyone disperses in-window.
        assert_eq!(plan.handoffs(), 2 * l.hosts() as u64);
        for (at, op) in plan.ops() {
            if let MoveOp::Attach { cell: 2, .. } = op {
                if *at < SimTime::from_secs(7) {
                    assert!(*at >= SimTime::from_secs(5));
                }
            }
        }
    }

    #[test]
    fn single_cell_layouts_produce_empty_wander() {
        let l = Layout::round_robin(1, 5);
        let rw = RandomWaypoint {
            seed: 1,
            dwell_min: SimDuration::from_millis(100),
            dwell_max: SimDuration::from_millis(200),
        };
        assert!(rw.compile(&l, SimTime::ZERO, SimTime::from_secs(10)).is_empty());
        let c =
            Commuter { seed: 1, period: SimDuration::from_secs(2), work_hops: 0, region_cells: 0 };
        assert!(c.compile(&l, SimTime::ZERO, SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn plans_are_comparable_values() {
        let a = MovePlan::new().op(SimTime::from_secs(1), MoveOp::Attach { host: 0, cell: 1 });
        let b = MovePlan::new().op(SimTime::from_secs(1), MoveOp::Attach { host: 0, cell: 1 });
        assert_eq!(a, b);
        let c = b.clone().op(SimTime::from_secs(2), MoveOp::Detach { host: 0 });
        assert_ne!(a, c);
        assert_eq!(c.end(), SimTime::from_secs(2));
        assert_eq!(c.handoffs(), 1);
        assert_eq!(c.ops()[1].1.to_string(), "detach h0");
    }
}
