//! `host_v32`: one wide consolidated host on the parallel slice engine.
//!
//! `HostScaleParams::default_scale().host_config(32, 2)`: 8 VMs × 4 vCPUs
//! pinned on 32 pCPUs — one DataCaching paging aggressor, 7
//! SmallFootprint victims — under HATRIC, on 2 engine threads.  Time goes
//! to the engine phases and the cache model; it is the only workload that
//! uses the worker pool.

use hatric_host::experiments::host_scale::HostScaleParams;
use hatric_host::ConsolidatedHost;

use crate::counts::Counts;
use crate::harness::{Size, Subject};
use crate::trace::Tracer;

/// Total vCPUs (= pCPUs) of the host.
const VCPUS: usize = 32;
/// Slice-engine threads.
pub const THREADS: usize = 2;
/// Scheduler slices per unit (about 7 ms on the reference machine).
const SLICES_PER_UNIT: u64 = 4;

/// The host and what the checks need.
#[derive(Debug)]
pub struct HostV32 {
    host: ConsolidatedHost,
    /// Warmup slices not yet run.
    warmup_left: u64,
    accesses_per_slice: u64,
}

impl HostV32 {
    /// The workload on `threads` engine threads.
    ///
    /// # Panics
    ///
    /// Panics if the derived host configuration is invalid (it never is).
    #[must_use]
    pub fn with_threads(seed: u64, size: Size, threads: usize) -> Self {
        let (params, vcpus) = match size {
            Size::Full => (HostScaleParams::default_scale(), VCPUS),
            Size::Tiny => (HostScaleParams::quick(), 8),
        };
        let params = HostScaleParams { seed, ..params };
        let config = params.host_config(vcpus, threads);
        let placed: usize = config.vms.iter().map(|v| v.vcpus).sum();
        let accesses_per_slice = placed.min(config.num_pcpus) as u64 * config.slice_accesses;
        Self {
            host: ConsolidatedHost::new(config).expect("host_scale configurations are valid"),
            warmup_left: params.warmup_slices,
            accesses_per_slice,
        }
    }
}

impl Subject for HostV32 {
    fn build(seed: u64, size: Size) -> Self {
        Self::with_threads(seed, size, THREADS)
    }

    fn warmup_step(&mut self) -> bool {
        let n = self.warmup_left.min(SLICES_PER_UNIT);
        self.host.run_slices(n);
        self.warmup_left -= n;
        if self.warmup_left > 0 {
            return true;
        }
        self.host.reset_measurements();
        false
    }

    fn threads(&self) -> usize {
        self.host.config().threads
    }

    fn count_units(size: Size) -> u64 {
        match size {
            Size::Full => 400,
            Size::Tiny => 4,
        }
    }

    fn run_unit(&mut self, trace: Option<(&mut Tracer, usize)>) {
        let Some((tracer, parent)) = trace else {
            self.host.run_slices(SLICES_PER_UNIT);
            return;
        };
        for _ in 0..SLICES_PER_UNIT {
            let before = *self.host.phase_totals();
            let id = tracer.open("run_slices", Some(parent));
            self.host.run_slices(1);
            tracer.close(id);
            tracer.phase_children(id, &before, self.host.phase_totals());
        }
    }

    fn finish_unit(&mut self) -> (u64, bool) {
        // Every vCPU is pinned, so a unit simulates a fixed number of
        // accesses; `final_checks` verifies the total.
        (SLICES_PER_UNIT * self.accesses_per_slice, true)
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        let report = self.host.report();
        c.add_sim(&report.host);
        c.add_migration(&report.migration);
        c
    }

    fn final_checks(&mut self, units: u64) -> Vec<String> {
        let report = self.host.report();
        let mut failures = Vec::new();
        let expected = units * SLICES_PER_UNIT * self.accesses_per_slice;
        if report.host.accesses != expected {
            failures.push(format!(
                "host_v32: {} accesses simulated, {units} units x {SLICES_PER_UNIT} slices x {} expected {expected}",
                report.host.accesses, self.accesses_per_slice
            ));
        }
        let per_vm: u64 = report.per_vm.iter().map(|r| r.accesses).sum();
        if per_vm != report.host.accesses {
            failures.push(format!(
                "host_v32: per-VM accesses sum to {per_vm}, host total is {}",
                report.host.accesses
            ));
        }
        if report.host.coherence.ipis != 0 {
            failures.push(format!(
                "host_v32: HATRIC sent {} IPIs",
                report.host.coherence.ipis
            ));
        }
        failures
    }
}
