//! A binding database journaled to stable storage (§2: the home agent's
//! database "should also be recorded on disk").
//!
//! The home agent and the regional agent each keep a volatile table of
//! mobile host → binding and, when [`crate::MhrpConfig::home_agent_disk`]
//! is on, a disk copy that survives a reboot. Every change is mirrored
//! to the disk copy one entry at a time, never by copying the table.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Mobile host → `V`, with an optional disk copy that outlives reboots.
#[derive(Debug)]
pub(crate) struct Journaled<V> {
    live: HashMap<Ipv4Addr, V>,
    disk: Option<HashMap<Ipv4Addr, V>>,
}

impl<V: Copy> Journaled<V> {
    /// An empty table, journaled to disk when `disk` is set.
    pub fn new(disk: bool) -> Journaled<V> {
        Journaled { live: HashMap::new(), disk: disk.then(HashMap::new) }
    }

    /// `mobile`'s binding, if any.
    pub fn get(&self, mobile: Ipv4Addr) -> Option<V> {
        self.live.get(&mobile).copied()
    }

    /// Number of bound mobiles.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Every binding, in address order: the order a real agent reads
    /// its disk file in, and one that does not differ per instance as
    /// the map's own order does.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Addr, V)> + '_ {
        self.mobiles().into_iter().map(|mobile| (mobile, self.live[&mobile]))
    }

    /// Every bound mobile, in address order, collected so the caller can
    /// change the table while it walks them.
    pub fn mobiles(&self) -> Vec<Ipv4Addr> {
        let mut mobiles: Vec<Ipv4Addr> = self.live.keys().copied().collect();
        mobiles.sort_unstable();
        mobiles
    }

    /// Binds `mobile` to `value`, on disk too.
    pub fn insert(&mut self, mobile: Ipv4Addr, value: V) {
        self.live.insert(mobile, value);
        if let Some(disk) = &mut self.disk {
            disk.insert(mobile, value);
        }
    }

    /// Unbinds `mobile`, on disk too; returns the binding it had.
    pub fn remove(&mut self, mobile: Ipv4Addr) -> Option<V> {
        if let Some(disk) = &mut self.disk {
            disk.remove(&mobile);
        }
        self.live.remove(&mobile)
    }

    /// A reboot: the volatile table reloads from disk, or is lost without
    /// one.
    pub fn reload(&mut self) {
        match &self.disk {
            Some(disk) => self.live.clone_from(disk),
            None => self.live.clear(),
        }
    }

    /// Forgets every binding, on disk too.
    pub fn wipe(&mut self) {
        self.live.clear();
        if let Some(disk) = &mut self.disk {
            disk.clear();
        }
    }
}

#[cfg(test)]
impl<V> Journaled<V> {
    /// The volatile table, for tests that compare it with a reference.
    pub fn live(&self) -> &HashMap<Ipv4Addr, V> {
        &self.live
    }

    /// The disk copy, if journaling is on.
    pub fn disk(&self) -> Option<&HashMap<Ipv4Addr, V>> {
        self.disk.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Mirroring one binding per change leaves the disk copy exactly
        /// where copying the whole table did, across binds, unbinds (of
        /// bound and unknown mobiles) and reboots that reload from it.
        #[test]
        fn per_binding_journal_matches_a_full_copy(
            // (mobile, value; 0 = unbind), or a reboot.
            ops in prop::collection::vec(
                prop_oneof![
                    (1u8..7, 0u8..4).prop_map(Some),
                    (1u8..7, 0u8..4).prop_map(Some),
                    (1u8..7, 0u8..4).prop_map(Some),
                    Just(None),
                ],
                1..60,
            ),
        ) {
            let mut table = Journaled::new(true);
            let mut full_copy = HashMap::new();
            for op in ops {
                match op {
                    Some((m, value)) => {
                        let mobile = Ipv4Addr::new(10, 9, 0, m);
                        if value == 0 {
                            table.remove(mobile);
                        } else {
                            table.insert(mobile, value);
                        }
                        full_copy.clone_from(&table.live);
                    }
                    None => {
                        table.reload();
                        prop_assert_eq!(&table.live, &full_copy);
                    }
                }
                prop_assert_eq!(table.disk.as_ref(), Some(&full_copy));
            }
        }
    }
}
