//! Global statistics: named counters and time series, interned for the
//! hot path.
//!
//! Counters live in a dense `Vec<u64>` indexed by [`MetricId`]; series in
//! a dense `Vec` indexed by [`SeriesId`]. A counter name is interned once
//! per *process*, in one registry that every [`Stats`] shares (pre-seeded
//! with the constants in [`metric`]), so a counter's id is the same in
//! every world and on every thread: protocol code bumps `static`
//! [`Counter`] handles by direct index, with no hashing and no per-node
//! copy of the handle. Each `Stats` still owns its values, so worlds
//! never see each other's counts, and everything a `Stats` reports is
//! keyed and ordered by name, never by id, so the order in which worlds
//! first used their names does not show.
//!
//! The string API (`incr`/`add`/`counter`/`record`) remains for cold
//! paths and tests; it costs one registry lookup and allocates only the
//! first time the process sees a name.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, PoisonError, RwLock};

use crate::time::SimTime;
use telemetry::Histogram;

/// Dense handle for a counter, issued by [`Stats::metric`] or
/// [`Counter::id`].
///
/// Ids come from the process-wide name registry, so one id means the same
/// counter in every [`Stats`]; the constants in [`metric`] hold the
/// registry's first ids. Ids order by first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(pub(crate) u32);

/// Dense handle for a time series, issued by [`Stats::series_metric`].
///
/// Only meaningful for the [`Stats`] that issued it; the constants in
/// [`metric`] are universal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(pub(crate) u32);

/// Dense handle for a histogram, issued by [`Stats::histogram_metric`].
///
/// Only meaningful for the [`Stats`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(pub(crate) u32);

/// Pre-registered ids for the counters and series the simulator core
/// updates on every event, plus their names for the string API.
pub mod metric {
    use super::{MetricId, SeriesId};

    /// Frames accepted onto a segment.
    pub const LINK_FRAMES_SENT: MetricId = MetricId(0);
    /// Payload + link-header bytes accepted onto a segment.
    pub const LINK_BYTES_SENT: MetricId = MetricId(1);
    /// Frames delivered to a receiver's `on_frame`.
    pub const LINK_FRAMES_DELIVERED: MetricId = MetricId(2);
    /// Frames lost to per-receiver random loss.
    pub const LINK_FRAMES_DROPPED: MetricId = MetricId(3);
    /// Frames suppressed because the receiver moved away mid-flight.
    pub const LINK_FRAMES_LOST_MOVED: MetricId = MetricId(4);
    /// Transmissions out of an interface id the node does not have.
    pub const LINK_TX_BAD_IFACE: MetricId = MetricId(5);
    /// Transmissions out of a detached interface.
    pub const LINK_TX_DETACHED: MetricId = MetricId(6);
    /// Transmissions onto a segment that is administratively down.
    pub const LINK_TX_SEGMENT_DOWN: MetricId = MetricId(7);
    /// Node reboots executed.
    pub const WORLD_REBOOTS: MetricId = MetricId(8);
    /// Delivered frame copies that had a bit flipped by fault injection.
    pub const LINK_FRAMES_CORRUPTED: MetricId = MetricId(9);
    /// Fault operations applied from installed `FaultPlan`s.
    pub const FAULT_OPS_APPLIED: MetricId = MetricId(10);
    /// Frames that arrived at a crashed (down) node and were discarded.
    pub const FAULT_FRAMES_DROPPED_NODE_DOWN: MetricId = MetricId(11);
    /// Timers that fired on a crashed (down) node and were discarded.
    pub const FAULT_TIMERS_DROPPED_NODE_DOWN: MetricId = MetricId(12);
    /// Broadcast transmissions suppressed by `Op::SetBroadcastsMuted`.
    pub const FAULT_TX_MUTED: MetricId = MetricId(13);
    /// Node crashes injected (`Op::Crash`).
    pub const FAULT_CRASHES: MetricId = MetricId(14);
    /// Timer events discarded by `Ctx::cancel_timer` before dispatch.
    pub const SIM_TIMERS_CANCELLED: MetricId = MetricId(15);
    /// Frames that crossed a shard boundary outbound: transmissions onto a
    /// portal segment buffered for the barrier exchange (sending shard).
    pub const SHARD_EGRESS_FRAMES: MetricId = MetricId(16);
    /// Portal frames injected into this shard's replica at a barrier
    /// (receiving shard; one count per replica injection, not per copy).
    pub const SHARD_INGRESS_FRAMES: MetricId = MetricId(17);
    /// Staged batch entries stepped over by events scheduled below the
    /// timer wheel's cursor (see `sched`'s cursor discipline): near zero
    /// while run loops stay bounded, quadratic in a burst when not.
    pub const SIM_SCHED_LATE_SCAN_STEPS: MetricId = MetricId(18);

    /// Names the counter registry is seeded with, in id order.
    pub(super) const COUNTER_NAMES: [&str; 19] = [
        "link.frames_sent",
        "link.bytes_sent",
        "link.frames_delivered",
        "link.frames_dropped",
        "link.frames_lost_moved",
        "link.tx_bad_iface",
        "link.tx_detached",
        "link.tx_segment_down",
        "world.reboots",
        "link.frames_corrupted",
        "fault.ops_applied",
        "fault.frames_dropped_node_down",
        "fault.timers_dropped_node_down",
        "fault.tx_muted",
        "fault.crashes",
        "sim.timers_cancelled",
        "shard.egress_frames",
        "shard.ingress_frames",
        "sim.sched.late_scan_steps",
    ];

    /// Event-queue depth samples (see `World::set_queue_sampling`).
    pub const SIM_QUEUE_DEPTH: SeriesId = SeriesId(0);

    /// Names backing the pre-registered series, in id order.
    pub(super) const SERIES_NAMES: [&str; 1] = ["sim.queue_depth"];
}

/// Per-[`Stats`] name interner for series and histograms: `Box<str>`
/// keys shared with a dense name table. Interning and lookup are
/// O(log n), which is irrelevant off the hot path (hot call sites hold
/// dense ids and never touch the map).
#[derive(Debug, Default, Clone)]
struct Interner {
    ids: BTreeMap<Box<str>, u32>,
    names: Vec<Box<str>>,
}

impl Interner {
    /// Id for `name`, interning it on first sight (the only allocation).
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(Box::from(name));
        self.ids.insert(Box::from(name), id);
        id
    }

    /// Allocation-free lookup of an already-interned name.
    fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }
}

/// The process-wide counter-name registry: name ↔ [`MetricId`], shared by
/// every [`Stats`] and every [`Counter`]. Names are leaked into it, one
/// allocation per distinct name for the life of the process. The keys
/// are a `BTreeMap` so that [`Stats::counter_prefix_sum`] can range-scan
/// just the names sharing a prefix.
struct Registry {
    ids: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static REGISTRY: LazyLock<RwLock<Registry>> = LazyLock::new(|| {
    let mut r = Registry { ids: BTreeMap::new(), names: Vec::new() };
    for name in metric::COUNTER_NAMES {
        r.ids.insert(name, r.names.len() as u32);
        r.names.push(name);
    }
    RwLock::new(r)
});

impl Registry {
    /// Runs `f` on the registry under its read lock. Every write leaves
    /// the registry valid (a name is pushed before its id is published),
    /// so a lock poisoned by a panic elsewhere is still read.
    fn read<R>(f: impl FnOnce(&Registry) -> R) -> R {
        f(&REGISTRY.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The id of `name`, registering it on first sight.
    fn intern(name: &str) -> MetricId {
        if let Some(id) = Registry::read(|r| r.ids.get(name).copied()) {
            return MetricId(id);
        }
        let mut r = REGISTRY.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&id) = r.ids.get(name) {
            return MetricId(id); // another thread got there first
        }
        let id = r.names.len() as u32;
        let name: &'static str = Box::leak(Box::from(name));
        r.names.push(name);
        r.ids.insert(name, id);
        MetricId(id)
    }
}

/// A hub of named counters and `(time, value)` series.
///
/// ```rust
/// use netsim::{Stats, SimTime};
/// let mut s = Stats::new();
/// s.incr("pkt.sent");
/// s.add("pkt.bytes", 120);
/// s.record("queue.depth", SimTime::from_millis(1), 3.0);
/// assert_eq!(s.counter("pkt.sent"), 1);
/// assert_eq!(s.counter("pkt.bytes"), 120);
/// assert_eq!(s.counter("nonexistent"), 0);
/// ```
///
/// Hot paths intern once and use the id API:
///
/// ```rust
/// use netsim::Stats;
/// let mut s = Stats::new();
/// let id = s.metric("pkt.sent");
/// for _ in 0..1000 {
///     s.add_id(id, 1); // direct index, no hashing, no allocation
/// }
/// assert_eq!(s.counter("pkt.sent"), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Stats {
    /// Values by registry id; ids past the end read as zero.
    counters: Vec<u64>,
    series_names: Interner,
    series: Vec<Vec<(SimTime, f64)>>,
    hist_names: Interner,
    hists: Vec<Histogram>,
}

impl Default for Stats {
    fn default() -> Stats {
        Stats::new()
    }
}

impl Stats {
    /// Creates a statistics hub with room for the [`metric`] counters
    /// and the [`metric`] series registered.
    pub fn new() -> Stats {
        let mut s = Stats {
            counters: vec![0; metric::COUNTER_NAMES.len()],
            series_names: Interner::default(),
            series: Vec::new(),
            hist_names: Interner::default(),
            hists: Vec::new(),
        };
        for name in metric::SERIES_NAMES {
            s.series_metric(name);
        }
        s
    }

    /// Interns counter `name` in the process-wide registry and makes room
    /// for it here, returning its dense id. Idempotent.
    pub fn metric(&mut self, name: &str) -> MetricId {
        let id = Registry::intern(name);
        self.reserve(id);
        id
    }

    /// Grows the value table to hold `id`.
    fn reserve(&mut self, id: MetricId) {
        if id.0 as usize >= self.counters.len() {
            self.counters.resize(id.0 as usize + 1, 0);
        }
    }

    /// [`Stats::add_id`] for an id this hub has no room for yet: the
    /// first count a world makes of a name.
    #[cold]
    #[inline(never)]
    fn add_new(&mut self, id: MetricId, amount: u64) {
        self.reserve(id);
        self.counters[id.0 as usize] += amount;
    }

    /// Interns series `name`, returning its dense id. Idempotent.
    pub fn series_metric(&mut self, name: &str) -> SeriesId {
        let id = self.series_names.intern(name);
        if id as usize >= self.series.len() {
            self.series.resize(id as usize + 1, Vec::new());
        }
        SeriesId(id)
    }

    /// Increments counter `id` by one (direct index; allocates only the
    /// first time this hub counts `id`).
    #[inline]
    pub fn incr_id(&mut self, id: MetricId) {
        self.add_id(id, 1);
    }

    /// Adds `amount` to counter `id` (direct index; allocates only the
    /// first time this hub counts `id`).
    #[inline]
    pub fn add_id(&mut self, id: MetricId, amount: u64) {
        match self.counters.get_mut(id.0 as usize) {
            Some(value) => *value += amount,
            None => self.add_new(id, amount),
        }
    }

    /// Reads counter `id` (0 if never written here).
    #[inline]
    pub fn counter_id(&self, id: MetricId) -> u64 {
        self.counters.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Appends a `(time, value)` sample to series `id`.
    ///
    /// Allocation-free apart from the series buffer's own amortized
    /// growth.
    #[inline]
    pub fn record_id(&mut self, id: SeriesId, at: SimTime, value: f64) {
        self.series[id.0 as usize].push((at, value));
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `amount` to counter `name` (one registry lookup; allocates
    /// only the first time `name` is seen).
    pub fn add(&mut self, name: &str, amount: u64) {
        let id = Registry::intern(name);
        self.add_id(id, amount);
    }

    /// Reads counter `name` (0 if never written). Allocation-free.
    pub fn counter(&self, name: &str) -> u64 {
        Registry::read(|r| r.ids.get(name).map_or(0, |&id| self.counter_id(MetricId(id))))
    }

    /// Sum of every counter whose name starts with `prefix`.
    ///
    /// Allocation-free, and O(log n + matches) thanks to the registry's
    /// sorted index — report generation sums many prefixes over many
    /// metrics, so this must not scan the whole table per prefix.
    pub fn counter_prefix_sum(&self, prefix: &str) -> u64 {
        Registry::read(|r| {
            r.ids
                .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|(name, _)| name.starts_with(prefix))
                .map(|(_, &id)| self.counter_id(MetricId(id)))
                .sum()
        })
    }

    /// Appends a `(time, value)` sample to series `name` (one hash
    /// lookup; allocates only the first time `name` is seen).
    pub fn record(&mut self, name: &str, at: SimTime, value: f64) {
        let id = self.series_metric(name);
        self.series[id.0 as usize].push((at, value));
    }

    /// Reads series `name` (empty slice if never written).
    /// Allocation-free.
    pub fn series(&self, name: &str) -> &[(SimTime, f64)] {
        self.series_names.get(name).map(|id| self.series[id as usize].as_slice()).unwrap_or(&[])
    }

    /// Interns histogram `name` with the given fixed bucket `bounds`,
    /// returning its dense id. Idempotent; the bounds of the first
    /// registration win.
    pub fn histogram_metric(&mut self, name: &str, bounds: &'static [u64]) -> HistId {
        let id = self.hist_names.intern(name);
        if id as usize >= self.hists.len() {
            self.hists.push(Histogram::new(bounds));
        }
        HistId(id)
    }

    /// Records one sample into histogram `id` (direct index,
    /// allocation-free).
    #[inline]
    pub fn record_hist_id(&mut self, id: HistId, value: u64) {
        self.hists[id.0 as usize].record(value);
    }

    /// Records one sample into histogram `name`, registering it with
    /// `bounds` on first sight.
    pub fn record_hist(&mut self, name: &str, bounds: &'static [u64], value: u64) {
        let id = self.histogram_metric(name, bounds);
        self.hists[id.0 as usize].record(value);
    }

    /// Reads histogram `name` (`None` if never registered).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hist_names.get(name).map(|id| &self.hists[id as usize])
    }

    /// Iterates over all non-empty histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        let mut entries: Vec<(&str, &Histogram)> = self
            .hist_names
            .names
            .iter()
            .zip(&self.hists)
            .filter(|(_, h)| h.count() != 0)
            .map(|(name, h)| (&**name, h))
            .collect();
        entries.sort_unstable_by_key(|(name, _)| *name);
        entries.into_iter()
    }

    /// Iterates over all *written* (nonzero) counters in name order.
    ///
    /// Counters that were merely registered but never incremented are
    /// skipped, so pre-registration does not clutter reports.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut entries: Vec<(&str, u64)> = Registry::read(|r| {
            self.counters
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != 0)
                .map(|(id, v)| (r.names[id], *v))
                .collect()
        });
        entries.sort_unstable_by_key(|(name, _)| *name);
        entries.into_iter()
    }

    /// Adds every counter and appends every series of `other` into
    /// `self`, matching by name — for combining per-run statistics in
    /// experiments that simulate several worlds.
    pub fn merge(&mut self, other: &Stats) {
        if other.counters.len() > self.counters.len() {
            self.counters.resize(other.counters.len(), 0);
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        for (name, samples) in other.series_names.names.iter().zip(&other.series) {
            if !samples.is_empty() {
                let id = self.series_metric(name);
                self.series[id.0 as usize].extend_from_slice(samples);
            }
        }
        for (name, hist) in other.hist_names.names.iter().zip(&other.hists) {
            if hist.count() != 0 {
                let id = self.histogram_metric(name, hist.bounds());
                self.hists[id.0 as usize].merge(hist);
            }
        }
    }

    /// Resets all counter values and series samples. Issued ids remain
    /// valid.
    pub fn clear(&mut self) {
        self.counters.fill(0);
        for s in &mut self.series {
            s.clear();
        }
        for h in &mut self.hists {
            *h = Histogram::new(h.bounds());
        }
    }
}

/// A counter handle for protocol code: a `static`, shared by every node
/// of every world on every thread.
///
/// ```rust
/// use netsim::{Counter, Stats};
/// static SENT: Counter = Counter::new("pkt.sent");
/// let mut s = Stats::new();
/// SENT.incr(&mut s); // first use anywhere: registers the name
/// SENT.add(&mut s, 4); // then a direct index, no hashing
/// assert_eq!(s.counter("pkt.sent"), 5);
/// ```
///
/// The first use anywhere in the process interns the name in the
/// registry every [`Stats`] shares and caches the id in an atomic; ids are
/// process-wide, so the cached id is right for whichever world's `Stats`
/// the next call passes. Nothing about a counter lives in a node.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    /// The registry id, or [`Counter::UNSET`] before first use.
    id: AtomicU32,
}

impl Counter {
    const UNSET: u32 = u32::MAX;

    /// Creates a handle for `name` (nothing is interned yet).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, id: AtomicU32::new(Counter::UNSET) }
    }

    /// This counter's registry id, interning the name on first use.
    #[inline]
    pub fn id(&self) -> MetricId {
        // Acquire pairs with `register`'s Release: a thread that sees the
        // id also sees the registry entry behind it.
        match self.id.load(Ordering::Acquire) {
            Counter::UNSET => self.register(),
            id => MetricId(id),
        }
    }

    #[cold]
    #[inline(never)]
    fn register(&self) -> MetricId {
        // Racing threads intern the same name and so store the same id.
        let id = Registry::intern(self.name);
        self.id.store(id.0, Ordering::Release);
        id
    }

    /// Adds `amount` to this counter in `stats`.
    #[inline]
    pub fn add(&self, stats: &mut Stats, amount: u64) {
        stats.add_id(self.id(), amount);
    }

    /// Increments this counter in `stats` by one.
    #[inline]
    pub fn incr(&self, stats: &mut Stats) {
        self.add(stats, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.incr("a");
        s.incr("a");
        s.add("a", 3);
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counter("b"), 0);
    }

    #[test]
    fn prefix_sum_covers_only_prefix() {
        let mut s = Stats::new();
        s.add("seg.0.bytes", 10);
        s.add("seg.1.bytes", 20);
        s.add("other", 99);
        assert_eq!(s.counter_prefix_sum("seg."), 30);
        assert_eq!(s.counter_prefix_sum("nope."), 0);
    }

    #[test]
    fn prefix_sum_respects_ordered_boundaries() {
        // The sorted-index range scan must stop exactly at the prefix
        // boundary: names that sort immediately after the prefix range
        // ("seh.*") and names that are a strict prefix of the prefix
        // ("se") must not be counted; a name *equal* to the prefix must.
        let mut s = Stats::new();
        s.add("se", 1);
        s.add("seg", 2);
        s.add("seg.a", 4);
        s.add("seg.z", 8);
        s.add("seh.a", 16);
        assert_eq!(s.counter_prefix_sum("seg"), 2 + 4 + 8);
        assert_eq!(s.counter_prefix_sum("seg."), 4 + 8);
        assert_eq!(s.counter_prefix_sum("seh"), 16);
        assert_eq!(s.counter_prefix_sum("se"), 1 + 2 + 4 + 8 + 16);
        assert_eq!(s.counter_prefix_sum(""), s.counters().map(|(_, v)| v).sum::<u64>());
    }

    #[test]
    fn histograms_register_record_and_merge() {
        let mut a = Stats::new();
        let id = a.histogram_metric("flow.latency_us", telemetry::LATENCY_US_BOUNDS);
        a.record_hist_id(id, 300);
        a.record_hist("flow.latency_us", telemetry::LATENCY_US_BOUNDS, 900);
        assert_eq!(a.histogram("flow.latency_us").unwrap().count(), 2);
        assert_eq!(a.histogram("flow.latency_us").unwrap().max(), 900);
        assert!(a.histogram("missing").is_none());

        let mut b = Stats::new();
        b.record_hist("flow.latency_us", telemetry::LATENCY_US_BOUNDS, 5_000);
        a.merge(&b);
        let h = a.histogram("flow.latency_us").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 5_000);
        assert_eq!(a.histograms().count(), 1);

        a.clear();
        assert_eq!(a.histogram("flow.latency_us").unwrap().count(), 0);
        assert_eq!(a.histograms().count(), 0);
    }

    #[test]
    fn series_preserve_order() {
        let mut s = Stats::new();
        s.record("q", SimTime::from_millis(1), 1.0);
        s.record("q", SimTime::from_millis(2), 4.0);
        assert_eq!(s.series("q").len(), 2);
        assert_eq!(s.series("q")[1].1, 4.0);
        assert!(s.series("missing").is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = Stats::new();
        s.incr("x");
        s.record("y", SimTime::ZERO, 0.0);
        s.clear();
        assert_eq!(s.counter("x"), 0);
        assert!(s.series("y").is_empty());
        assert_eq!(s.counters().count(), 0);
    }

    #[test]
    fn ids_survive_clear() {
        let mut s = Stats::new();
        let id = s.metric("x");
        s.add_id(id, 5);
        s.clear();
        s.add_id(id, 2);
        assert_eq!(s.counter("x"), 2);
    }

    #[test]
    fn interned_and_string_apis_agree() {
        let mut s = Stats::new();
        let id = s.metric("both.ways");
        s.add_id(id, 7);
        s.add("both.ways", 3);
        assert_eq!(s.counter("both.ways"), 10);
        assert_eq!(s.counter_id(id), 10);
        // Pre-registered core ids resolve to their documented names.
        s.add_id(metric::LINK_FRAMES_SENT, 2);
        assert_eq!(s.counter("link.frames_sent"), 2);
        s.record_id(metric::SIM_QUEUE_DEPTH, SimTime::from_millis(1), 9.0);
        assert_eq!(s.series("sim.queue_depth"), &[(SimTime::from_millis(1), 9.0)]);
    }

    #[test]
    fn counters_iterate_in_name_order_and_skip_zero() {
        let mut s = Stats::new();
        s.incr("b.two");
        s.incr("a.one");
        let names: Vec<&str> = s.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.one", "b.two"]);
    }

    #[test]
    fn merge_combines_counters_and_series() {
        let mut a = Stats::new();
        a.add("shared", 1);
        a.add("only_a", 5);
        a.record("s", SimTime::from_millis(1), 1.0);
        let mut b = Stats::new();
        b.add("shared", 2);
        b.add("only_b", 7);
        b.record("s", SimTime::from_millis(2), 2.0);
        a.merge(&b);
        assert_eq!(a.counter("shared"), 3);
        assert_eq!(a.counter("only_a"), 5);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.series("s").len(), 2);
    }

    #[test]
    fn counter_handle_caches_id() {
        static HITS: Counter = Counter::new("handle.hits");
        let mut s = Stats::new();
        HITS.incr(&mut s);
        HITS.add(&mut s, 4);
        assert_eq!(s.counter("handle.hits"), 5);
        assert_eq!(HITS.id(), s.metric("handle.hits"));
        // The same static counts into another world's hub on its own.
        let mut s2 = Stats::new();
        HITS.incr(&mut s2);
        assert_eq!(s2.counter("handle.hits"), 1);
        assert_eq!(s.counter("handle.hits"), 5);
    }
}
