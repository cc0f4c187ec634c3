//! A generic set-associative lookup structure with true-LRU replacement.
//!
//! All translation structures in this crate (TLBs, MMU caches, nested TLBs)
//! are instances of [`SetAssoc`].  Entries are stored per set in MRU-first
//! order; sets are selected by hashing the key, which is adequate for a
//! behavioural simulator (the real index functions differ per structure but
//! do not change the conclusions the paper draws).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A set-associative container mapping keys to values with LRU replacement.
///
/// The sets live in one flat array: `ways` slots per set, most recently
/// used first, plus a fill count per set.  A set's first `lens[set]` slots
/// hold its entries; the slots past them are `None` or stale and are never
/// read.
#[derive(Debug, Clone)]
pub struct SetAssoc<K, V> {
    slots: Vec<Option<(K, V)>>,
    lens: Vec<u32>,
    ways: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> SetAssoc<K, V> {
    /// Creates a structure with `entries` total entries organised as
    /// `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is zero, or if `ways` does not divide
    /// `entries`.
    #[must_use]
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0, "structure must have at least one entry");
        assert!(ways > 0, "structure must have at least one way");
        assert!(
            entries.is_multiple_of(ways),
            "ways ({ways}) must divide total entries ({entries})"
        );
        Self {
            slots: (0..entries).map(|_| None).collect(),
            lens: vec![0; entries / ways],
            ways,
        }
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Returns `true` if no entries are valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn set_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.lens.len()
    }

    /// `key`'s set and its position within the set, if present.
    fn find(&self, key: &K) -> (usize, Option<usize>) {
        let set = self.set_index(key);
        let base = set * self.ways;
        let pos = self.slots[base..base + self.lens[set] as usize]
            .iter()
            .position(|slot| matches!(slot, Some((k, _)) if k == key));
        (set, pos)
    }

    /// Looks up `key`, promoting it to MRU on a hit.
    pub fn lookup(&mut self, key: &K) -> Option<&V> {
        let (set, pos) = self.find(key);
        let base = set * self.ways;
        let pos = pos?;
        if pos > 0 {
            self.slots[base..=base + pos].rotate_right(1);
        }
        self.slots[base].as_ref().map(|(_, v)| v)
    }

    /// Looks up `key` without changing recency (probe).
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        let (set, pos) = self.find(key);
        self.slots[set * self.ways + pos?].as_ref().map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, returning the evicted victim if the set
    /// overflowed.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        let (set, pos) = self.find(&key);
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        // The slot the new MRU entry shifts down into: the key's own old
        // slot, the first free slot, or the LRU victim's.
        let (last, victim) = match pos {
            Some(pos) => (pos, None),
            None if len < self.ways => {
                self.lens[set] += 1;
                (len, None)
            }
            None => (len - 1, self.slots[base + len - 1].take()),
        };
        self.slots[base..=base + last].rotate_right(1);
        self.slots[base] = Some((key, value));
        victim
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (set, pos) = self.find(key);
        let base = set * self.ways;
        let pos = base + pos?;
        let (_, value) = self.slots[pos].take()?;
        self.slots[pos..base + self.lens[set] as usize].rotate_left(1);
        self.lens[set] -= 1;
        Some(value)
    }

    /// Removes every entry for which `pred` returns `true`; returns how many
    /// entries were removed.  `pred` sees the entries in [`iter`](Self::iter)
    /// order, and the survivors keep their recency order.
    pub fn invalidate_matching<F: FnMut(&K, &V) -> bool>(&mut self, mut pred: F) -> u64 {
        let mut removed = 0;
        for (set, len) in self.slots.chunks_mut(self.ways).zip(&mut self.lens) {
            let mut kept = 0;
            for i in 0..*len as usize {
                if matches!(&set[i], Some((k, v)) if pred(k, v)) {
                    set[i] = None;
                } else {
                    if kept < i {
                        set.swap(kept, i);
                    }
                    kept += 1;
                }
            }
            removed += u64::from(*len) - kept as u64;
            *len = kept as u32;
        }
        removed
    }

    /// Removes every entry; returns how many entries were valid.
    pub fn flush(&mut self) -> u64 {
        let count = self.len() as u64;
        self.lens.fill(0);
        count
    }

    /// Iterates over all valid entries (no recency effect): sets in index
    /// order, each MRU first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .chunks(self.ways)
            .zip(&self.lens)
            .flat_map(|(set, &len)| set[..len as usize].iter())
            .filter_map(|slot| slot.as_ref().map(|(k, v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(8, 2);
        assert!(c.insert(1, 10).is_none());
        assert_eq!(c.lookup(&1), Some(&10));
        assert_eq!(c.lookup(&2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        // Fully associative (1 set) makes eviction order easy to verify.
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(2, 2);
        c.insert(1, 1);
        c.insert(2, 2);
        // Touch 1 so 2 becomes LRU.
        assert!(c.lookup(&1).is_some());
        let victim = c.insert(3, 3);
        assert_eq!(victim, Some((2, 2)));
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&2).is_none());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(2, 2);
        c.insert(1, 1);
        c.insert(1, 100);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), Some(&100));
    }

    #[test]
    fn invalidate_matching_counts() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(16, 4);
        for i in 0..10 {
            c.insert(i, i * 10);
        }
        let removed = c.invalidate_matching(|_, v| *v >= 50);
        assert_eq!(removed, 5);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn flush_empties() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(16, 4);
        for i in 0..10 {
            c.insert(i, i);
        }
        assert_eq!(c.flush(), 10);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn rejects_nondividing_ways() {
        let _: SetAssoc<u64, u64> = SetAssoc::new(10, 4);
    }

    #[test]
    fn capacity_is_respected_overall() {
        let mut c: SetAssoc<u64, u64> = SetAssoc::new(64, 4);
        for i in 0..1000 {
            c.insert(i, i);
        }
        assert!(c.len() <= c.capacity());
    }
}
