//! Property-based tests for the cache hierarchy and directory coherence.

use proptest::prelude::*;

use hatric_cache::{
    CacheHierarchy, CacheHierarchyConfig, DirectoryConfig, HitLevel, MesiState, PrivateCache,
    PrivateCacheConfig,
};
use hatric_types::{CacheLineAddr, CpuId};

fn hierarchy(cpus: usize) -> CacheHierarchy {
    CacheHierarchy::new(CacheHierarchyConfig {
        num_cpus: cpus,
        l1: PrivateCacheConfig {
            capacity_bytes: 2 * 1024,
            ways: 2,
        },
        l2: PrivateCacheConfig {
            capacity_bytes: 8 * 1024,
            ways: 4,
        },
        llc_bytes: 128 * 1024,
        llc_ways: 8,
        directory: DirectoryConfig::unbounded(),
        eager_pt_directory_update: false,
    })
}

#[derive(Debug, Clone)]
enum Op {
    Read(u8, u64),
    Write(u8, u64),
}

fn op_strategy(cpus: u8, lines: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..cpus, 0..lines).prop_map(|(c, l)| Op::Read(c, l)),
        (0..cpus, 0..lines).prop_map(|(c, l)| Op::Write(c, l)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-writer invariant: after any sequence of reads and writes, a
    /// write by one CPU invalidates every other CPU's private copy of that
    /// line, so no other CPU can hit on it in L1/L2 immediately afterwards.
    #[test]
    fn write_invalidates_all_other_private_copies(
        ops in proptest::collection::vec(op_strategy(4, 64), 1..200),
        line in 0u64..64,
        writer in 0u8..4,
    ) {
        let mut h = hierarchy(4);
        for op in &ops {
            match *op {
                Op::Read(c, l) => { h.read(CpuId::new(c.into()), CacheLineAddr::new(l * 64)); }
                Op::Write(c, l) => { h.write(CpuId::new(c.into()), CacheLineAddr::new(l * 64)); }
            }
        }
        let target = CacheLineAddr::new(line * 64);
        h.write(CpuId::new(writer.into()), target);
        for cpu in 0..4u32 {
            if cpu != u32::from(writer) {
                prop_assert!(
                    !h.cpu_holds_line(CpuId::new(cpu), target),
                    "cpu{cpu} still holds a line written by cpu{writer}"
                );
            }
        }
    }

    /// Reads after a write by the same CPU always hit locally (L1), i.e. the
    /// hierarchy never loses the writer's own copy.
    #[test]
    fn writer_keeps_its_own_copy(
        ops in proptest::collection::vec(op_strategy(4, 64), 0..100),
        line in 0u64..64,
    ) {
        let mut h = hierarchy(4);
        for op in &ops {
            match *op {
                Op::Read(c, l) => { h.read(CpuId::new(c.into()), CacheLineAddr::new(l * 64)); }
                Op::Write(c, l) => { h.write(CpuId::new(c.into()), CacheLineAddr::new(l * 64)); }
            }
        }
        let target = CacheLineAddr::new(line * 64);
        h.write(CpuId::new(0), target);
        let outcome = h.read(CpuId::new(0), target);
        prop_assert_eq!(outcome.level, HitLevel::L1);
    }

    /// Statistics are consistent: hits plus misses equals the number of
    /// lookups performed at each level.
    #[test]
    fn stats_account_for_every_access(
        ops in proptest::collection::vec(op_strategy(2, 128), 1..300),
    ) {
        let mut h = hierarchy(2);
        for op in &ops {
            match *op {
                Op::Read(c, l) => { h.read(CpuId::new(c.into()), CacheLineAddr::new(l * 64)); }
                Op::Write(c, l) => { h.write(CpuId::new(c.into()), CacheLineAddr::new(l * 64)); }
            }
        }
        let stats = h.stats();
        prop_assert_eq!(stats.l1.total(), ops.len() as u64);
        prop_assert!(stats.memory_accesses.get() <= ops.len() as u64);
    }
}

/// A `PrivateCache` written the obvious way — one `Vec` per set, MRU
/// first — to check the flat-array cache against.
struct ModelCache {
    sets: Vec<Vec<(CacheLineAddr, MesiState)>>,
    ways: usize,
    hits: u64,
    misses: u64,
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, line: CacheLineAddr) -> &mut Vec<(CacheLineAddr, MesiState)> {
        let count = self.sets.len();
        &mut self.sets[line.index() as usize % count]
    }

    fn lookup(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let set = self.set(line);
        let found = set.iter().position(|w| w.0 == line).map(|pos| {
            let way = set.remove(pos);
            set.insert(0, way);
            way.1
        });
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    fn probe(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        self.set(line).iter().find(|w| w.0 == line).map(|w| w.1)
    }

    fn set_state(&mut self, line: CacheLineAddr, state: MesiState) -> bool {
        self.set(line)
            .iter_mut()
            .find(|w| w.0 == line)
            .map(|w| w.1 = state)
            .is_some()
    }

    fn fill(
        &mut self,
        line: CacheLineAddr,
        state: MesiState,
    ) -> Option<(CacheLineAddr, MesiState)> {
        let ways = self.ways;
        let set = self.set(line);
        set.retain(|w| w.0 != line);
        set.insert(0, (line, state));
        (set.len() > ways).then(|| set.pop().expect("overfull set"))
    }

    fn invalidate(&mut self, line: CacheLineAddr) -> Option<MesiState> {
        let set = self.set(line);
        let pos = set.iter().position(|w| w.0 == line)?;
        Some(set.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u64),
    Probe(u64),
    SetState(u64, u8),
    Fill(u64, u8),
    Invalidate(u64),
}

fn cache_op_strategy(lines: u64) -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0..lines).prop_map(CacheOp::Lookup),
        (0..lines).prop_map(CacheOp::Probe),
        (0..lines, 0u8..4).prop_map(|(l, s)| CacheOp::SetState(l, s)),
        (0..lines, 0u8..4).prop_map(|(l, s)| CacheOp::Fill(l, s)),
        (0..lines, 0u8..4).prop_map(|(l, s)| CacheOp::Fill(l, s)),
        (0..lines).prop_map(CacheOp::Invalidate),
    ]
}

fn mesi(n: u8) -> MesiState {
    [
        MesiState::Modified,
        MesiState::Exclusive,
        MesiState::Shared,
        MesiState::Invalid,
    ][usize::from(n)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat-array `PrivateCache` returns the same states, victims,
    /// occupancy and hit/miss counts as a per-set `Vec` model over random
    /// op sequences — LRU promotion and victim choice are unchanged.
    #[test]
    fn flat_private_cache_matches_the_vec_of_sets_model(
        sets in 1usize..6,
        ways in 1usize..6,
        ops in proptest::collection::vec(cache_op_strategy(40), 1..300),
    ) {
        let mut cache = PrivateCache::new(PrivateCacheConfig {
            capacity_bytes: (sets * ways * 64) as u64,
            ways,
        });
        let mut model = ModelCache::new(sets, ways);
        for op in ops {
            let line = |n: u64| CacheLineAddr::new(n * 64);
            match op {
                CacheOp::Lookup(l) => prop_assert_eq!(cache.lookup(line(l)), model.lookup(line(l))),
                CacheOp::Probe(l) => prop_assert_eq!(cache.probe(line(l)), model.probe(line(l))),
                CacheOp::SetState(l, s) => prop_assert_eq!(
                    cache.set_state(line(l), mesi(s)),
                    model.set_state(line(l), mesi(s))
                ),
                CacheOp::Fill(l, s) => prop_assert_eq!(
                    cache.fill(line(l), mesi(s)),
                    model.fill(line(l), mesi(s))
                ),
                CacheOp::Invalidate(l) => prop_assert_eq!(
                    cache.invalidate(line(l)),
                    model.invalidate(line(l))
                ),
            }
            prop_assert_eq!(cache.len(), model.len());
        }
        prop_assert_eq!(cache.stats().hits(), model.hits);
        prop_assert_eq!(cache.stats().misses(), model.misses);
    }
}
