//! A set-associative private cache (tags + MESI state only).

use serde::{Deserialize, Serialize};

use hatric_types::consts::CACHE_LINE_BYTES;
use hatric_types::{CacheLineAddr, RatioStat};

use crate::line::MesiState;

/// Geometry of a private cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrivateCacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl PrivateCacheConfig {
    /// 32 KiB, 8-way L1 data cache (paper Sec. 5.1).
    #[must_use]
    pub fn l1_default() -> Self {
        Self {
            capacity_bytes: 32 * 1024,
            ways: 8,
        }
    }

    /// 256 KiB, 8-way private L2 cache.
    #[must_use]
    pub fn l2_default() -> Self {
        Self {
            capacity_bytes: 256 * 1024,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    #[must_use]
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / CACHE_LINE_BYTES) as usize / self.ways
    }
}

/// MESI states by their one-byte slot encoding: `MESI[state as usize] ==
/// state`, since the array follows the enum's declaration order.
const MESI: [MesiState; 4] = [
    MesiState::Modified,
    MesiState::Exclusive,
    MesiState::Shared,
    MesiState::Invalid,
];

/// A private, set-associative, LRU cache tracking line tags and MESI state.
///
/// The sets live in flat arrays: `ways` slots per set, most recently used
/// first, plus a fill count per set; only a set's first `lens[set]` slots
/// are valid.  Tags and states sit in separate arrays so a probe scans
/// packed tags, and all three arrays are zero-allocated: the pages of sets
/// a run never touches are never written.
#[derive(Debug, Clone)]
pub struct PrivateCache {
    /// Raw line address of each slot.
    lines: Vec<u64>,
    /// State of each slot, as an index into [`MESI`].
    states: Vec<u8>,
    lens: Vec<u32>,
    ways: usize,
    stats: RatioStat,
}

impl PrivateCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields zero sets.
    #[must_use]
    pub fn new(config: PrivateCacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0, "cache must have at least one set");
        Self {
            lines: vec![0; sets * config.ways],
            states: vec![0; sets * config.ways],
            lens: vec![0; sets],
            ways: config.ways,
            stats: RatioStat::new(),
        }
    }

    /// `line`'s set: its first slot and its fill count.
    fn set_of(&self, line: CacheLineAddr) -> (usize, usize) {
        let set = (line.index() as usize) % self.lens.len();
        (set * self.ways, self.lens[set] as usize)
    }

    /// Slot of `line` within the set starting at `base`, if present.
    fn find(&self, base: usize, len: usize, line: CacheLineAddr) -> Option<usize> {
        let raw = line.raw();
        self.lines[base..base + len]
            .iter()
            .position(|&l| l == raw)
            .map(|pos| base + pos)
    }

    /// Shifts the slots `base..slot` down by one and puts `line` in the
    /// freed MRU slot `base` (overwriting what was in `slot`).
    fn put_mru(&mut self, base: usize, slot: usize, line: CacheLineAddr, state: MesiState) {
        if slot > base {
            self.lines.copy_within(base..slot, base + 1);
            self.states.copy_within(base..slot, base + 1);
        }
        self.lines[base] = line.raw();
        self.states[base] = state as u8;
    }

    /// Looks up a line, promoting it to MRU.  Records hit/miss statistics.
    pub fn lookup(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (base, len) = self.set_of(line);
        let slot = self.find(base, len, line);
        self.stats.record(slot.is_some());
        let slot = slot?;
        let state = MESI[usize::from(self.states[slot])];
        if slot > base {
            self.put_mru(base, slot, line, state);
        }
        Some(state)
    }

    /// Probes a line without recency or statistics effects.
    #[must_use]
    pub fn probe(&self, line: CacheLineAddr) -> Option<MesiState> {
        let (base, len) = self.set_of(line);
        self.find(base, len, line)
            .map(|slot| MESI[usize::from(self.states[slot])])
    }

    /// Changes the MESI state of a present line; returns `false` if absent.
    pub fn set_state(&mut self, line: CacheLineAddr, state: MesiState) -> bool {
        let (base, len) = self.set_of(line);
        match self.find(base, len, line) {
            Some(slot) => {
                self.states[slot] = state as u8;
                true
            }
            None => false,
        }
    }

    /// Inserts a line in the given state; returns the evicted victim
    /// (line, state) if the set overflowed.
    pub fn fill(
        &mut self,
        line: CacheLineAddr,
        state: MesiState,
    ) -> Option<(CacheLineAddr, MesiState)> {
        let (base, len) = self.set_of(line);
        // The slot the new MRU line shifts down into: the line's own old
        // slot, the first free slot, or the LRU victim's.
        let (slot, victim) = match self.find(base, len, line) {
            Some(slot) => (slot, None),
            None if len < self.ways => {
                self.lens[base / self.ways] += 1;
                (base + len, None)
            }
            None => {
                let lru = base + len - 1;
                let victim = (
                    CacheLineAddr::new(self.lines[lru]),
                    MESI[usize::from(self.states[lru])],
                );
                (lru, Some(victim))
            }
        };
        self.put_mru(base, slot, line, state);
        victim
    }

    /// Removes a line (coherence invalidation); returns its state if present.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let (base, len) = self.set_of(line);
        let slot = self.find(base, len, line)?;
        let state = MESI[usize::from(self.states[slot])];
        self.lines.copy_within(slot + 1..base + len, slot);
        self.states.copy_within(slot + 1..base + len, slot);
        self.lens[base / self.ways] -= 1;
        Some(state)
    }

    /// Number of valid lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Returns `true` if the cache holds no lines.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> RatioStat {
        self.stats
    }

    /// Resets hit/miss statistics.
    pub fn reset_stats(&mut self) {
        self.stats = RatioStat::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> CacheLineAddr {
        CacheLineAddr::new(n * CACHE_LINE_BYTES)
    }

    #[test]
    fn geometry() {
        let cfg = PrivateCacheConfig::l1_default();
        assert_eq!(cfg.sets(), 64);
        let cache = PrivateCache::new(cfg);
        assert!(cache.is_empty());
    }

    #[test]
    fn fill_lookup_invalidate() {
        let mut cache = PrivateCache::new(PrivateCacheConfig::l1_default());
        cache.fill(line(3), MesiState::Exclusive);
        assert_eq!(cache.lookup(line(3)), Some(MesiState::Exclusive));
        assert_eq!(cache.invalidate(line(3)), Some(MesiState::Exclusive));
        assert_eq!(cache.lookup(line(3)), None);
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
    }

    #[test]
    fn eviction_returns_lru_victim() {
        // Tiny cache: 2 sets of 2 ways (256 bytes).
        let mut cache = PrivateCache::new(PrivateCacheConfig {
            capacity_bytes: 256,
            ways: 2,
        });
        // Lines 0, 2, 4 all map to set 0.
        cache.fill(line(0), MesiState::Shared);
        cache.fill(line(2), MesiState::Shared);
        cache.lookup(line(0));
        let victim = cache.fill(line(4), MesiState::Shared);
        assert_eq!(victim, Some((line(2), MesiState::Shared)));
    }

    #[test]
    fn set_state_upgrades() {
        let mut cache = PrivateCache::new(PrivateCacheConfig::l1_default());
        cache.fill(line(9), MesiState::Shared);
        assert!(cache.set_state(line(9), MesiState::Modified));
        assert_eq!(cache.probe(line(9)), Some(MesiState::Modified));
        assert!(!cache.set_state(line(10), MesiState::Modified));
    }
}
