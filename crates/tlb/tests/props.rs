//! Property-based tests for the translation structures and co-tag
//! invalidation invariants.

use proptest::prelude::*;

use hatric_tlb::{SetAssoc, StructureSizes, TranslationStructures};
use hatric_types::{AddressSpaceId, CoTag, GuestVirtPage, SystemFrame, SystemPhysAddr, VmId};

fn filled(entries: &[(u64, u64)]) -> TranslationStructures {
    let mut ts = TranslationStructures::new(&StructureSizes::haswell_like(), 2);
    for &(gvp, pte_addr) in entries {
        ts.fill_data(
            VmId::new(0),
            AddressSpaceId::new(0),
            GuestVirtPage::new(gvp),
            SystemFrame::new(gvp + 1),
            SystemPhysAddr::new(pte_addr),
            None,
        );
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invalidating by the co-tag of a page-table line removes every cached
    /// translation whose PTE lives in that line and never leaves one behind.
    #[test]
    fn cotag_invalidation_is_complete(
        entries in proptest::collection::btree_map(0u64..2_000, 0u64..(1 << 19), 1..60),
        victim_index in 0usize..60,
    ) {
        let list: Vec<(u64, u64)> = entries.into_iter().collect();
        let mut ts = filled(&list);
        let (victim_gvp, victim_pte) = list[victim_index % list.len()];
        let tag = CoTag::from_pte_addr(SystemPhysAddr::new(victim_pte), 2);
        ts.invalidate_cotag(tag);
        // The victim translation must be gone.
        prop_assert!(ts
            .lookup_data(VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(victim_gvp))
            .is_none());
        // Any translation from a *different* page-table line that is still
        // cached must still translate correctly (no over-invalidation beyond
        // the line/co-tag granularity).
        for &(gvp, pte) in &list {
            if CoTag::from_pte_addr(SystemPhysAddr::new(pte), 2) != tag {
                if let Some(hit) =
                    ts.lookup_data(VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(gvp))
                {
                    prop_assert_eq!(hit.spp, SystemFrame::new(gvp + 1));
                }
            }
        }
    }

    /// A full flush always empties every structure, regardless of content.
    #[test]
    fn flush_all_empties_everything(
        entries in proptest::collection::btree_map(0u64..5_000, 0u64..(1 << 19), 1..100),
    ) {
        let list: Vec<(u64, u64)> = entries.into_iter().collect();
        let mut ts = filled(&list);
        let counted = ts.flush_all();
        prop_assert_eq!(ts.occupancy(), 0);
        prop_assert!(counted.total() > 0);
        for &(gvp, _) in &list {
            prop_assert!(ts
                .lookup_data(VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(gvp))
                .is_none());
        }
    }

    /// Lookups never return a frame that was not filled for that exact page.
    #[test]
    fn lookups_never_alias(
        entries in proptest::collection::btree_map(0u64..10_000, 0u64..(1 << 19), 1..80),
    ) {
        let list: Vec<(u64, u64)> = entries.into_iter().collect();
        let mut ts = filled(&list);
        for &(gvp, _) in &list {
            if let Some(hit) =
                ts.lookup_data(VmId::new(0), AddressSpaceId::new(0), GuestVirtPage::new(gvp))
            {
                prop_assert_eq!(hit.spp, SystemFrame::new(gvp + 1));
            }
        }
    }
}

/// A `SetAssoc` written the obvious way — one `Vec` per set, MRU first,
/// the same SipHash set index — to check the flat-array structure against.
struct ModelSetAssoc {
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
}

impl ModelSetAssoc {
    fn set(&mut self, key: u64) -> &mut Vec<(u64, u64)> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        let count = self.sets.len();
        &mut self.sets[(hasher.finish() as usize) % count]
    }

    fn lookup(&mut self, key: u64) -> Option<u64> {
        let set = self.set(key);
        let pos = set.iter().position(|e| e.0 == key)?;
        let entry = set.remove(pos);
        set.insert(0, entry);
        Some(entry.1)
    }

    fn peek(&mut self, key: u64) -> Option<u64> {
        self.set(key).iter().find(|e| e.0 == key).map(|e| e.1)
    }

    fn insert(&mut self, key: u64, value: u64) -> Option<(u64, u64)> {
        let ways = self.ways;
        let set = self.set(key);
        set.retain(|e| e.0 != key);
        set.insert(0, (key, value));
        (set.len() > ways).then(|| set.pop().expect("overfull set"))
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let set = self.set(key);
        let pos = set.iter().position(|e| e.0 == key)?;
        Some(set.remove(pos).1)
    }

    fn entries(&self) -> Vec<(u64, u64)> {
        self.sets.iter().flatten().copied().collect()
    }
}

#[derive(Debug, Clone, Copy)]
enum SetOp {
    Lookup(u64),
    Peek(u64),
    Insert(u64, u64),
    Remove(u64),
    /// Drop every entry whose value is `≡ r (mod m)`.
    InvalidateMatching(u64, u64),
    Flush,
}

fn set_op_strategy(keys: u64) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0..keys).prop_map(SetOp::Lookup),
        (0..keys).prop_map(SetOp::Peek),
        (0..keys, 0u64..1000).prop_map(|(k, v)| SetOp::Insert(k, v)),
        (0..keys, 0u64..1000).prop_map(|(k, v)| SetOp::Insert(k, v)),
        (0..keys, 0u64..1000).prop_map(|(k, v)| SetOp::Insert(k, v)),
        (0..keys).prop_map(SetOp::Remove),
        (2u64..5, 0u64..5).prop_map(|(m, r)| SetOp::InvalidateMatching(m, r % m)),
        // A flush in one draw of this arm out of 30, so sets get to fill up.
        (0u64..30).prop_map(|n| if n == 0 { SetOp::Flush } else { SetOp::Peek(n) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The flat-array `SetAssoc` returns the same values and victims, the
    /// same `len`, and iterates (and feeds `invalidate_matching`'s
    /// predicate) in the same order as a per-set `Vec` model over random
    /// op sequences.
    #[test]
    fn flat_set_assoc_matches_the_vec_of_sets_model(
        sets in 1usize..6,
        ways in 1usize..6,
        ops in proptest::collection::vec(set_op_strategy(40), 1..300),
    ) {
        let mut flat: SetAssoc<u64, u64> = SetAssoc::new(sets * ways, ways);
        let mut model = ModelSetAssoc { sets: vec![Vec::new(); sets], ways };
        for op in ops {
            match op {
                SetOp::Lookup(k) => prop_assert_eq!(flat.lookup(&k).copied(), model.lookup(k)),
                SetOp::Peek(k) => prop_assert_eq!(flat.peek(&k).copied(), model.peek(k)),
                SetOp::Insert(k, v) => prop_assert_eq!(flat.insert(k, v), model.insert(k, v)),
                SetOp::Remove(k) => prop_assert_eq!(flat.remove(&k), model.remove(k)),
                SetOp::InvalidateMatching(m, r) => {
                    let mut seen = Vec::new();
                    let removed = flat.invalidate_matching(|k, v| {
                        seen.push(*k);
                        v % m == r
                    });
                    let before = model.entries();
                    prop_assert_eq!(seen, before.iter().map(|e| e.0).collect::<Vec<_>>());
                    for set in &mut model.sets {
                        set.retain(|e| e.1 % m != r);
                    }
                    prop_assert_eq!(removed as usize, before.len() - model.entries().len());
                }
                SetOp::Flush => {
                    prop_assert_eq!(flat.flush() as usize, model.entries().len());
                    model.sets.iter_mut().for_each(Vec::clear);
                }
            }
            prop_assert_eq!(flat.len(), model.entries().len());
            prop_assert_eq!(
                flat.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
                model.entries()
            );
        }
    }
}
