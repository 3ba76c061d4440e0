//! A deterministic, O(1)-amortized LRU map keyed by IPv4 address.
//!
//! Both per-agent state tables the paper bounds — the location cache (§2,
//! §4.3) and the per-destination update rate limiter (§4.3) — need LRU
//! replacement over a finite capacity. The first implementation kept a
//! timestamp per entry and evicted with a full `O(n)` scan for the minimum
//! `last_used`; besides the scan cost (which dominates at the
//! million-host scale the ROADMAP targets), the victim choice on
//! *tied* timestamps fell through to `HashMap` iteration order — i.e. it
//! was nondeterministic, and two replays of the same seed could evict
//! different entries.
//!
//! [`LruMap`] fixes both at once: recency is an explicit intrusive
//! doubly-linked list threaded through a slab of slots, with a `HashMap`
//! index from key to slot. Every operation is O(1); the eviction victim
//! is always the list head. Because the order is maintained structurally
//! (move-to-back on touch, append on insert) rather than derived from
//! timestamps, ties cannot exist: same operation sequence, same victim,
//! every run.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Sentinel slot index meaning "no slot" (list ends, free slots).
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<V> {
    key: Ipv4Addr,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity map with O(1) insert/lookup/remove and deterministic
/// least-recently-used eviction.
///
/// Recency order is structural: the list runs from the least recently
/// used entry (head, the eviction victim) to the most recently used
/// (tail). [`LruMap::touch`] and [`LruMap::insert`] move an entry to the
/// tail; nothing else reorders.
#[derive(Debug, Clone)]
pub struct LruMap<V> {
    capacity: usize,
    index: HashMap<Ipv4Addr, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    evictions: u64,
}

impl<V> LruMap<V> {
    /// Creates a map holding at most `capacity` entries. Allocates
    /// nothing: the index and the slab grow with the entries, so a table
    /// nobody inserts into (an idle host's cache and rate limiter) costs
    /// only this struct.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> LruMap<V> {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruMap {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total entries evicted (not removed) since construction. Monotonic;
    /// survives [`LruMap::clear`] so callers can report per-run deltas.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Shared access to the value for `key` without touching recency.
    pub fn peek(&self, key: Ipv4Addr) -> Option<&V> {
        let &slot = self.index.get(&key)?;
        self.slots[slot].value.as_ref()
    }

    /// Mutable access to the value for `key` without touching recency.
    pub fn peek_mut(&mut self, key: Ipv4Addr) -> Option<&mut V> {
        let &slot = self.index.get(&key)?;
        self.slots[slot].value.as_mut()
    }

    /// Marks `key` most recently used and returns its value, or `None`
    /// when absent.
    pub fn touch(&mut self, key: Ipv4Addr) -> Option<&mut V> {
        let &slot = self.index.get(&key)?;
        self.unlink(slot);
        self.push_back(slot);
        self.slots[slot].value.as_mut()
    }

    /// Inserts or replaces the value for `key`, marking it most recently
    /// used. When the key is new and the map is full, the least recently
    /// used entry is evicted first and returned as `(key, value)`.
    pub fn insert(&mut self, key: Ipv4Addr, value: V) -> Option<(Ipv4Addr, V)> {
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].value = Some(value);
            self.unlink(slot);
            self.push_back(slot);
            return None;
        }
        let evicted = if self.index.len() >= self.capacity {
            debug_assert!(self.head != NIL, "full map must have a head");
            let victim = self.slots[self.head].key;
            let v = self.remove(victim).expect("victim is live");
            self.evictions += 1;
            Some((victim, v))
        } else {
            None
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Slot { key, value: Some(value), prev: NIL, next: NIL };
                s
            }
            None => {
                self.slots.push(Slot { key, value: Some(value), prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        self.push_back(slot);
        evicted
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: Ipv4Addr) -> Option<V> {
        let slot = self.index.remove(&key)?;
        self.unlink(slot);
        self.free.push(slot);
        self.slots[slot].value.take()
    }

    /// Iterates `(key, &value)` from least to most recently used.
    /// Intended for tests and metrics, not hot paths.
    pub fn iter_lru(&self) -> impl Iterator<Item = (Ipv4Addr, &V)> {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let slot = &self.slots[cursor];
            cursor = slot.next;
            Some((slot.key, slot.value.as_ref().expect("listed slot is live")))
        })
    }

    /// The current eviction victim (least recently used key), if any.
    pub fn lru_key(&self) -> Option<Ipv4Addr> {
        if self.head == NIL {
            None
        } else {
            Some(self.slots[self.head].key)
        }
    }

    /// Drops every entry (volatile state on reboot). The eviction total
    /// is preserved; the slab is released.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_back(&mut self, slot: usize) {
        self.slots[slot].prev = self.tail;
        self.slots[slot].next = NIL;
        if self.tail != NIL {
            self.slots[self.tail].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    #[test]
    fn insert_peek_touch_remove() {
        let mut m = LruMap::new(4);
        assert!(m.insert(a(1), 10).is_none());
        assert_eq!(m.peek(a(1)), Some(&10));
        assert_eq!(m.touch(a(1)), Some(&mut 10));
        assert_eq!(m.remove(a(1)), Some(10));
        assert!(m.is_empty());
        assert_eq!(m.lru_key(), None);
    }

    #[test]
    fn eviction_order_is_recency_order() {
        let mut m = LruMap::new(3);
        m.insert(a(1), 1);
        m.insert(a(2), 2);
        m.insert(a(3), 3);
        // Touch 1 so the order is [2, 3, 1].
        m.touch(a(1));
        assert_eq!(m.lru_key(), Some(a(2)));
        assert_eq!(m.insert(a(4), 4), Some((a(2), 2)));
        assert_eq!(m.insert(a(5), 5), Some((a(3), 3)));
        assert_eq!(m.insert(a(6), 6), Some((a(1), 1)));
        assert_eq!(m.evictions(), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn insert_existing_refreshes_without_evicting() {
        let mut m = LruMap::new(2);
        m.insert(a(1), 1);
        m.insert(a(2), 2);
        assert!(m.insert(a(1), 11).is_none());
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek(a(1)), Some(&11));
        // 1 was refreshed, so 2 is now the victim.
        assert_eq!(m.insert(a(3), 3), Some((a(2), 2)));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut m = LruMap::new(2);
        m.insert(a(1), 1);
        m.insert(a(2), 2);
        m.peek(a(1));
        m.peek_mut(a(1));
        assert_eq!(m.insert(a(3), 3), Some((a(1), 1)));
    }

    #[test]
    fn deterministic_victim_under_identical_sequences() {
        // The regression the module exists for: two entries inserted with
        // no intervening touches (the old timestamp scheme would have
        // recorded a tie) must evict the *same* victim on every run.
        let victim = || {
            let mut m = LruMap::new(2);
            m.insert(a(1), 0u8);
            m.insert(a(2), 0);
            m.insert(a(3), 0).map(|(k, _)| k)
        };
        let first = victim();
        assert_eq!(first, Some(a(1)), "FIFO among untouched entries");
        for _ in 0..64 {
            assert_eq!(victim(), first);
        }
    }

    #[test]
    fn slot_reuse_keeps_links_valid() {
        let mut m = LruMap::new(4);
        for i in 1..=4 {
            m.insert(a(i), i);
        }
        // Remove from the middle of the recency list, then keep churning;
        // freed slots must recycle without corrupting the order.
        m.remove(a(2));
        m.insert(a(5), 5);
        m.remove(a(1));
        m.insert(a(6), 6);
        m.touch(a(3));
        let order: Vec<_> = m.iter_lru().map(|(k, _)| k).collect();
        assert_eq!(order, vec![a(4), a(5), a(6), a(3)]);
        assert_eq!(m.len(), 4);
        m.insert(a(7), 7);
        assert_eq!(m.lru_key(), Some(a(5)));
    }

    #[test]
    fn clear_preserves_eviction_total() {
        let mut m = LruMap::new(1);
        m.insert(a(1), 1);
        m.insert(a(2), 2);
        assert_eq!(m.evictions(), 1);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.evictions(), 1);
        m.insert(a(3), 3);
        assert_eq!(m.peek(a(3)), Some(&3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruMap::<u8>::new(0);
    }
}
