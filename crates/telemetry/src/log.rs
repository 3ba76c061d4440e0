//! The bounded ring-buffer event log and the journey query API.

use crate::event::{Event, EventKind, JourneyId};

/// A bounded, pre-allocated ring buffer of [`Event`] records.
///
/// The log is created *disabled*: [`EventLog::record`] returns immediately
/// and [`EventLog::mint_journey`] hands out nothing, so a world that never
/// enables telemetry pays one branch per call site and zero allocations
/// (the buffer itself is only allocated on first enable). Once enabled,
/// recording is still allocation-free — the buffer never grows; when full,
/// the oldest record is overwritten and [`EventLog::overwritten`] counts
/// the loss.
#[derive(Debug, Clone)]
pub struct EventLog {
    enabled: bool,
    cap: usize,
    buf: Vec<Event>,
    /// Write cursor once the buffer has wrapped (== index of the oldest
    /// record). Stays 0 until the first overwrite.
    next: usize,
    wrapped: bool,
    overwritten: u64,
    next_journey: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new()
    }
}

impl EventLog {
    /// Default ring capacity (events), ≈ 2.5 MiB of records.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a disabled log with the default capacity.
    pub fn new() -> EventLog {
        EventLog::with_capacity(EventLog::DEFAULT_CAPACITY)
    }

    /// Creates a disabled log that will hold at most `cap` events.
    /// Nothing is allocated until the log is enabled.
    pub fn with_capacity(cap: usize) -> EventLog {
        EventLog {
            enabled: false,
            cap: cap.max(1),
            buf: Vec::new(),
            next: 0,
            wrapped: false,
            overwritten: 0,
            next_journey: 0,
        }
    }

    /// Re-sizes the ring. Discards any buffered events.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        self.buf = Vec::new();
        if self.enabled {
            self.buf.reserve_exact(self.cap);
        }
        self.next = 0;
        self.wrapped = false;
    }

    /// Turns recording on or off. The first enable pre-allocates the
    /// ring so the record path never allocates.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if on && self.buf.capacity() < self.cap {
            self.buf.reserve_exact(self.cap - self.buf.len());
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event. No-op while disabled; never allocates.
    #[inline]
    pub fn record(&mut self, ev: Event) {
        if !self.enabled {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next += 1;
            if self.next == self.cap {
                self.next = 0;
                self.wrapped = true;
            }
            self.overwritten += 1;
        }
    }

    /// Mints a fresh journey id, or `None` while disabled (so disabled
    /// worlds never pay for journey bookkeeping).
    #[inline]
    pub fn mint_journey(&mut self) -> Option<JourneyId> {
        if !self.enabled {
            return None;
        }
        self.next_journey += 1;
        Some(JourneyId(self.next_journey))
    }

    /// Moves the journey-id counter forward to at least `base`, so ids
    /// minted from here on are `base + 1, base + 2, …`.
    ///
    /// A sharded world gives each shard's log a disjoint namespace
    /// (`shard_index << 40`) so journeys minted concurrently on different
    /// shards never collide when the logs are merged. Never moves the
    /// counter backwards (re-basing an active log cannot re-issue ids).
    pub fn set_journey_base(&mut self, base: u64) {
        self.next_journey = self.next_journey.max(base);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many records were overwritten because the ring was full.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drops every buffered event (capacity and enablement are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.wrapped = false;
        self.overwritten = 0;
    }

    /// Buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        let split = if self.buf.len() == self.cap && (self.wrapped || self.next != 0) {
            self.next
        } else {
            0
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Every journey id seen in the buffer, in order of first appearance.
    pub fn journeys(&self) -> Vec<JourneyId> {
        let mut seen = Vec::new();
        for ev in self.events() {
            if let Some(j) = ev.journey {
                if !seen.contains(&j) {
                    seen.push(j);
                }
            }
        }
        seen
    }

    /// Reconstructs one packet's journey: every buffered event stamped
    /// with `id`, oldest first.
    pub fn journey(&self, id: JourneyId) -> Journey {
        Journey { id, events: self.events().filter(|e| e.journey == Some(id)).copied().collect() }
    }

    /// The journey of the most recent [`EventKind::FrameRx`] at `node`,
    /// if any. This is the usual entry point for assertions: "take the
    /// last packet that reached M and show me its path".
    pub fn last_journey_to(&self, node: u32) -> Option<JourneyId> {
        self.events()
            .filter(|e| e.node == Some(node) && matches!(e.kind, EventKind::FrameRx { .. }))
            .filter_map(|e| e.journey)
            .last()
    }
}

/// One packet's reconstructed journey: the ordered slice of the event
/// log that carries its [`JourneyId`].
#[derive(Debug, Clone)]
pub struct Journey {
    /// The journey being described.
    pub id: JourneyId,
    /// Its events, oldest first.
    pub events: Vec<Event>,
}

impl Journey {
    /// The hop list: the node of every frame *delivery*, in order. For a
    /// Figure 1 home-routed packet this reads `[R1, R2, R3, R4, M]`
    /// (S itself originates and so never *receives* the frame).
    pub fn hops(&self) -> Vec<u32> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FrameRx { .. }))
            .filter_map(|e| e.node)
            .collect()
    }

    /// Whether any event of this journey happened at `node`.
    pub fn visited(&self, node: u32) -> bool {
        self.events.iter().any(|e| e.node == Some(node))
    }

    /// Number of tunnel encapsulations along the way.
    pub fn encap_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::Encap { .. })).count()
    }

    /// Number of tunnel decapsulations along the way.
    pub fn decap_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::Decap)).count()
    }

    /// Whether a routing loop was detected (and therefore cut) on this
    /// journey (§5.3).
    pub fn loop_detected(&self) -> bool {
        self.events.iter().any(|e| matches!(e.kind, EventKind::LoopDetected { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;

    fn ev(t: u64, node: u32, j: Option<u64>, kind: EventKind) -> Event {
        Event { at_nanos: t, node: Some(node), journey: j.map(JourneyId), kind }
    }

    #[test]
    fn disabled_log_records_nothing_and_mints_nothing() {
        let mut log = EventLog::new();
        log.record(ev(1, 0, None, EventKind::Timer { token: 7 }));
        assert!(log.is_empty());
        assert_eq!(log.mint_journey(), None);
    }

    #[test]
    fn ring_overwrites_oldest_and_iterates_in_order() {
        let mut log = EventLog::with_capacity(4);
        log.set_enabled(true);
        for t in 0..6u64 {
            log.record(ev(t, 0, None, EventKind::Timer { token: t }));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.overwritten(), 2);
        let times: Vec<u64> = log.events().map(|e| e.at_nanos).collect();
        assert_eq!(times, vec![2, 3, 4, 5]);
    }

    #[test]
    fn journey_reconstruction_filters_and_orders() {
        let mut log = EventLog::with_capacity(16);
        log.set_enabled(true);
        let j = log.mint_journey().unwrap();
        log.record(ev(1, 5, Some(j.0), EventKind::FrameTx { iface: 0, bytes: 64 }));
        log.record(ev(2, 1, Some(j.0), EventKind::FrameRx { iface: 0, bytes: 64 }));
        log.record(ev(2, 9, None, EventKind::Timer { token: 1 }));
        log.record(ev(3, 2, Some(j.0), EventKind::FrameRx { iface: 0, bytes: 64 }));
        log.record(ev(3, 2, Some(j.0), EventKind::Encap { by_sender: false }));
        log.record(ev(4, 6, Some(j.0), EventKind::FrameRx { iface: 1, bytes: 76 }));

        let journey = log.journey(j);
        assert_eq!(journey.hops(), vec![1, 2, 6]);
        assert!(journey.visited(5));
        assert!(!journey.visited(9));
        assert_eq!(journey.encap_count(), 1);
        assert_eq!(journey.decap_count(), 0);
        assert_eq!(log.last_journey_to(6), Some(j));
        assert_eq!(log.journeys(), vec![j]);
    }

    #[test]
    fn clear_keeps_capacity_and_enablement() {
        let mut log = EventLog::with_capacity(2);
        log.set_enabled(true);
        log.record(ev(1, 0, None, EventKind::FrameDrop { reason: DropReason::Loss }));
        log.clear();
        assert!(log.is_empty());
        assert!(log.enabled());
        log.record(ev(2, 0, None, EventKind::FrameDrop { reason: DropReason::Loss }));
        assert_eq!(log.len(), 1);
    }
}
