//! `serial_sw`: one VM on the serial access-by-access path under software
//! shootdowns.
//!
//! A single-VM `System` with 16 vCPUs, 2048 die-stacked pages, DataCaching
//! and hypervisor paging, driven access by access through
//! `WorkloadDriver::next_access` and `System::step`.  Remaps go through the
//! software `remap_coherence` path (IPIs and full flushes), and TLB refills
//! rather than LLC misses dominate; the engine, host and cluster are idle.

use hatric::{CoherenceMechanism, CpuId, System, SystemConfig, VcpuId, WorkloadDriver};
use hatric_types::AddressSpaceId;
use hatric_workloads::{Access, Workload, WorkloadKind};

use crate::counts::Counts;
use crate::harness::{Size, Subject};
use crate::trace::Tracer;

/// Salt separating the workload seed from the system seed.
const WORKLOAD_SALT: u64 = 0x5e71_a15e;

/// The system, its access source and the unit's access buffer.
#[derive(Debug)]
pub struct SerialSw {
    system: System,
    driver: WorkloadDriver,
    /// Per guest thread: the CPU it is pinned to and its address space.
    placement: Vec<(CpuId, AddressSpaceId)>,
    buffer: Vec<(CpuId, AddressSpaceId, Access)>,
    /// Warmup units not yet run.
    warmup_units: u64,
    rounds_per_unit: u64,
}

impl SerialSw {
    /// Generates one unit's accesses (one per thread per round) into the
    /// buffer.
    fn generate(&mut self) {
        self.buffer.clear();
        for _ in 0..self.rounds_per_unit {
            for (thread, &(cpu, asid)) in self.placement.iter().enumerate() {
                self.buffer
                    .push((cpu, asid, self.driver.next_access(thread)));
            }
        }
    }

    /// Steps the system through the buffered accesses.
    fn step(&mut self) {
        for &(cpu, asid, access) in &self.buffer {
            self.system.step(cpu, asid, access);
        }
    }

    fn accesses_per_unit(&self) -> u64 {
        self.rounds_per_unit * self.placement.len() as u64
    }
}

impl Subject for SerialSw {
    fn build(seed: u64, size: Size) -> Self {
        let (vcpus, fast_pages, warmup_units, rounds_per_unit) = match size {
            Size::Full => (16, 2048, 8, 400),
            Size::Tiny => (4, 256, 6, 50),
        };
        let config = SystemConfig {
            seed,
            ..SystemConfig::scaled(vcpus, fast_pages).with_mechanism(CoherenceMechanism::Software)
        };
        let workload = Workload::build(
            WorkloadKind::DataCaching,
            vcpus,
            config.fast_capacity_pages(),
            seed ^ WORKLOAD_SALT,
        );
        let system = System::new(config).expect("the serial_sw configuration is valid");
        let driver = WorkloadDriver::from(workload);
        let vm = system.virtual_machine();
        let placement = (0..driver.thread_count().min(vcpus))
            .map(|t| {
                (
                    vm.cpu_of(VcpuId::new(t as u32)),
                    vm.address_space(driver.address_space_index(t)),
                )
            })
            .collect();
        Self {
            system,
            driver,
            placement,
            buffer: Vec::new(),
            warmup_units,
            rounds_per_unit,
        }
    }

    fn warmup_step(&mut self) -> bool {
        self.generate();
        self.step();
        self.warmup_units -= 1;
        if self.warmup_units > 0 {
            return true;
        }
        self.system.reset_measurements();
        false
    }

    fn threads(&self) -> usize {
        1
    }

    fn count_units(size: Size) -> u64 {
        match size {
            Size::Full => 400,
            Size::Tiny => 4,
        }
    }

    fn run_unit(&mut self, trace: Option<(&mut Tracer, usize)>) {
        let Some((tracer, parent)) = trace else {
            self.generate();
            self.step();
            return;
        };
        let id = tracer.open("next_access", Some(parent));
        self.generate();
        tracer.close(id);
        let id = tracer.open("step", Some(parent));
        self.step();
        tracer.close(id);
    }

    fn finish_unit(&mut self) -> (u64, bool) {
        // Every round issues one access per thread; `final_checks`
        // verifies the total against the system's own count.
        (self.accesses_per_unit(), true)
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        c.add_sim(&self.system.report());
        c
    }

    fn final_checks(&mut self, units: u64) -> Vec<String> {
        let report = self.system.report();
        let mut failures = Vec::new();
        let expected = units * self.accesses_per_unit();
        if report.accesses != expected {
            failures.push(format!(
                "serial_sw: {} accesses simulated, {units} units x {} expected {expected}",
                report.accesses,
                self.accesses_per_unit()
            ));
        }
        if report.coherence.remaps == 0 {
            failures.push("serial_sw: no remaps, so the software path never ran".into());
        }
        if report.coherence.ipis == 0 {
            failures.push("serial_sw: software shootdowns sent no IPIs".into());
        }
        failures
    }
}
