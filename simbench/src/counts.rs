//! Deterministic work counts read from the simulator's public reports.
//!
//! The simulator is bit-deterministic for a seed, so these repeat exactly
//! across runs: a pure simulator speed-up must leave every one identical.

use hatric::metrics::{MigrationStats, SimReport};

use crate::metrics::Values;

/// Work counts summed over one or more reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated guest accesses.
    pub accesses: u64,
    /// Sum over reports of runtime cycles × CPUs.
    pub cpu_cycles: u64,
    /// L1 TLB misses.
    pub tlb_l1_miss: u64,
    /// L2 TLB misses.
    pub tlb_l2_miss: u64,
    /// MMU-cache misses.
    pub mmu_cache_miss: u64,
    /// Nested-TLB misses.
    pub ntlb_miss: u64,
    /// L1 data-cache misses.
    pub l1_miss: u64,
    /// L2 misses.
    pub l2_miss: u64,
    /// LLC misses.
    pub llc_miss: u64,
    /// Lines back-invalidated by directory evictions.
    pub back_invalidations: u64,
    /// Accesses that reached DRAM.
    pub dram_accesses: u64,
    /// Nested-PTE remaps.
    pub remaps: u64,
    /// Shootdown IPIs.
    pub ipis: u64,
    /// Coherence VM exits.
    pub vm_exits: u64,
    /// Full translation-structure flushes.
    pub full_flushes: u64,
    /// Hardware coherence messages.
    pub hw_messages: u64,
    /// Hardware messages that found nothing to invalidate.
    pub spurious_messages: u64,
    /// Demand faults on slow-memory pages.
    pub demand_faults: u64,
    /// Pages promoted to die-stacked memory.
    pub pages_promoted: u64,
    /// Pages demoted to off-chip memory.
    pub pages_demoted: u64,
    /// Pages a migration source copied.
    pub pages_copied: u64,
    /// Pages a migration destination received.
    pub received_pages: u64,
    /// Remaps performed by migrations.
    pub migration_remaps: u64,
    /// Migrations completed.
    pub migrations_completed: u64,
}

impl Counts {
    /// Adds one report's counts.  Translation and cache statistics live in
    /// host-level reports only (a VM's own report leaves them at zero).
    pub fn add_sim(&mut self, r: &SimReport) {
        self.accesses += r.accesses;
        self.cpu_cycles += r.runtime_cycles() * r.cycles_per_cpu.len() as u64;
        self.tlb_l1_miss += r.translation.l1_tlb.misses();
        self.tlb_l2_miss += r.translation.l2_tlb.misses();
        self.mmu_cache_miss += r.translation.mmu_cache.misses();
        self.ntlb_miss += r.translation.ntlb.misses();
        self.l1_miss += r.cache.l1.misses();
        self.l2_miss += r.cache.l2.misses();
        self.llc_miss += r.cache.llc.misses();
        self.back_invalidations += r.cache.back_invalidations.get();
        self.dram_accesses += r.cache.memory_accesses.get();
        self.remaps += r.coherence.remaps;
        self.ipis += r.coherence.ipis;
        self.vm_exits += r.coherence.coherence_vm_exits;
        self.full_flushes += r.coherence.full_flushes;
        self.hw_messages += r.coherence.hw_messages;
        self.spurious_messages += r.coherence.spurious_messages;
        self.demand_faults += r.faults.demand_faults;
        self.pages_promoted += r.faults.pages_promoted;
        self.pages_demoted += r.faults.pages_demoted;
    }

    /// Adds one host's migration statistics.
    pub fn add_migration(&mut self, m: &MigrationStats) {
        self.pages_copied += m.pages_copied;
        self.received_pages += m.received_pages;
        self.migration_remaps += m.migration_remaps;
        self.migrations_completed += m.migrations_completed;
    }

    /// Writes the counts as per-layer metrics: events per 1000 accesses,
    /// migration totals, and simulated cycles per access.
    pub fn insert_into(&self, values: &mut Values) {
        let per_k = |n: u64| {
            if self.accesses == 0 {
                0.0
            } else {
                n as f64 * 1000.0 / self.accesses as f64
            }
        };
        let rows: [(&'static str, f64); 24] = [
            ("det.accesses", self.accesses as f64),
            ("tlb.l1_miss_pk", per_k(self.tlb_l1_miss)),
            ("tlb.l2_miss_pk", per_k(self.tlb_l2_miss)),
            ("tlb.mmu_cache_miss_pk", per_k(self.mmu_cache_miss)),
            ("tlb.ntlb_miss_pk", per_k(self.ntlb_miss)),
            ("cache.l1_miss_pk", per_k(self.l1_miss)),
            ("cache.l2_miss_pk", per_k(self.l2_miss)),
            ("cache.llc_miss_pk", per_k(self.llc_miss)),
            (
                "cache.back_invalidations_pk",
                per_k(self.back_invalidations),
            ),
            ("memory.dram_accesses_pk", per_k(self.dram_accesses)),
            ("coherence.remaps_pk", per_k(self.remaps)),
            ("coherence.ipis_pk", per_k(self.ipis)),
            ("coherence.vm_exits_pk", per_k(self.vm_exits)),
            ("coherence.full_flushes_pk", per_k(self.full_flushes)),
            ("coherence.hw_messages_pk", per_k(self.hw_messages)),
            (
                "coherence.spurious_messages_pk",
                per_k(self.spurious_messages),
            ),
            ("hypervisor.demand_faults_pk", per_k(self.demand_faults)),
            ("hypervisor.pages_promoted_pk", per_k(self.pages_promoted)),
            ("hypervisor.pages_demoted_pk", per_k(self.pages_demoted)),
            ("migration.pages_copied", self.pages_copied as f64),
            ("migration.received_pages", self.received_pages as f64),
            ("migration.migration_remaps", self.migration_remaps as f64),
            ("migration.completed", self.migrations_completed as f64),
            (
                "model.sim_cycles_per_access",
                per_k(self.cpu_cycles) / 1000.0,
            ),
        ];
        values.extend(rows);
    }
}
