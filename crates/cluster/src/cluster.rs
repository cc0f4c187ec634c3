//! The lockstep-epoch fleet.

use std::collections::VecDeque;

use hatric::telemetry::{merge_chrome_traces, CounterTimeline};
use hatric::WorkerPool;
use hatric_faults::{FaultClock, FaultEvent, FaultKind};
use hatric_migration::{MigrationParams, ReceiverParams};
use hatric_types::{ConfigError, SimError};

use crate::churn::{ChurnEvent, ChurnKind};
use crate::placement::PlacementPolicy;
use crate::report::{ClusterReport, MigrationOutcome, RecoveryStats, RestartOutcome};
use crate::EpochHost;

/// How an inter-host migration moves the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMode {
    /// Iterative pre-copy on the source; the VM flips after convergence.
    PreCopy,
    /// The VM flips immediately; the destination pulls the image behind
    /// it (demand-fetched pages at critical-path cost).
    PostCopy,
}

/// An explicitly scheduled inter-host migration (scenarios use these to
/// raise a controlled migration storm; the churn stream's `Migrate`
/// events are the organic counterpart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledMigration {
    /// Epoch boundary at which the migration starts.
    pub epoch: u64,
    /// Source host index.
    pub src_host: usize,
    /// Source VM slot.
    pub src_slot: usize,
    /// Operator-pinned destination host, or `None` to let the placement
    /// policy choose.  A pinned destination that is unusable at fire time
    /// (crashed, receiving, or full) drops the migration; a later *retry*
    /// always falls back to policy placement — the pin may be the very
    /// host that crashed.
    pub dst_host: Option<usize>,
    /// Pre-copy or post-copy.
    pub mode: MigrationMode,
}

/// Cluster-wide knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterParams {
    /// Scheduler slices every host runs per epoch (must be ≥ 1: hosts
    /// must advance between boundary wirings).
    pub epoch_slices: u64,
    /// Worker threads hosts are sharded over (1 = serial).
    pub threads: usize,
    /// Where arrivals and migration destinations land.
    pub policy: PlacementPolicy,
    /// Template for source-side migration engines (`vm_slot` and
    /// `start_slice` are overridden per migration).
    pub migration: MigrationParams,
    /// Template for destination-side receivers (`vm_slot` is overridden
    /// per migration).
    pub receiver: ReceiverParams,
    /// Epochs a pre-copy migration may spend without handing off before
    /// the cluster force-escalates it to a post-copy flip (the
    /// non-convergence timeout).  `0` disables escalation.
    pub stall_timeout_epochs: u64,
    /// Bounded retries for migrations aborted by a crashed *destination*
    /// (the source VM survived, so the move can be re-attempted).  `0`
    /// disables retry.
    pub max_retries: u32,
    /// Linear backoff between retry attempts: attempt `n` re-fires
    /// `retry_backoff_epochs × n` epochs after its abort (deterministic —
    /// sim-time, never wall-clock).
    pub retry_backoff_epochs: u64,
    /// Unavailability window charged to each crash-driven VM cold
    /// restart (the restart has no live state to migrate, so its
    /// downtime is a fixed re-provisioning cost, not a protocol result).
    pub restart_penalty_cycles: u64,
}

impl ClusterParams {
    /// Defaults: `epoch_slices` slices per epoch on `threads` workers,
    /// least-loaded placement, the stock migration/receiver templates,
    /// and inert fault handling (no escalation timeout, no retries) —
    /// recovery knobs only matter once faults are armed.
    #[must_use]
    pub fn new(epoch_slices: u64, threads: usize) -> Self {
        Self {
            epoch_slices,
            threads,
            policy: PlacementPolicy::LeastLoaded,
            migration: MigrationParams::at(0, 0),
            receiver: ReceiverParams::for_slot(0),
            stall_timeout_epochs: 0,
            max_retries: 0,
            retry_backoff_epochs: 1,
            restart_penalty_cycles: 50_000,
        }
    }
}

/// One inter-host migration's lifecycle, tracked at epoch boundaries.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    src_host: usize,
    src_slot: usize,
    dst_host: usize,
    dst_slot: usize,
    post_copy: bool,
    /// The VM has flipped from source to destination.
    handed_off: bool,
    /// Every page also landed on the destination (receiver finished).
    drained: bool,
    downtime_cycles: u64,
    /// Torn down by a crashed endpoint.
    aborted: bool,
    /// Force-escalated to post-copy by the non-convergence timeout.
    escalated: bool,
    /// 0 for a first try, `n` for the `n`-th bounded retry.
    attempt: u32,
    /// Epochs spent pre-copying without handing off (drives escalation).
    precopy_epochs: u64,
}

/// An aborted migration waiting out its deterministic backoff before the
/// cluster re-attempts it.
#[derive(Debug, Clone, Copy)]
struct RetryTicket {
    due_epoch: u64,
    src_host: usize,
    src_slot: usize,
    post_copy: bool,
    attempt: u32,
}

/// Gauge names for the per-host load series (bounds the fleet size a
/// timeline can label; the series are `'static` by `CounterTimeline`
/// contract).
const HOST_LOAD_SERIES: [&str; 16] = [
    "host0_load",
    "host1_load",
    "host2_load",
    "host3_load",
    "host4_load",
    "host5_load",
    "host6_load",
    "host7_load",
    "host8_load",
    "host9_load",
    "host10_load",
    "host11_load",
    "host12_load",
    "host13_load",
    "host14_load",
    "host15_load",
];

/// A fleet of consolidated hosts advanced in lockstep epochs.
///
/// Within an epoch every host runs `epoch_slices` scheduler slices in
/// complete isolation (its own platform), so hosts execute concurrently on
/// a [`WorkerPool`] — contiguous host chunks, one per worker.  All
/// cross-host coupling (page streams, hand-offs, churn, placement) runs
/// serially at the epoch boundary in deterministic order, which makes the
/// whole cluster byte-identical for any `threads` value.
#[derive(Debug)]
pub struct Cluster<H: EpochHost> {
    hosts: Vec<H>,
    params: ClusterParams,
    pool: Option<WorkerPool>,
    churn: VecDeque<ChurnEvent>,
    scheduled: VecDeque<ScheduledMigration>,
    tickets: Vec<Ticket>,
    epochs_run: u64,
    peak_inflight: u64,
    timeline: Option<CounterTimeline>,
    /// Armed fault schedule (empty when fault injection is off).
    faults: FaultClock,
    /// Hosts taken down by `HostCrash` faults (they stay down).
    crashed: Vec<bool>,
    /// Per-host link-degradation window: `(divisor, epochs_left)`.
    link_degrade: Vec<(u64, u64)>,
    /// Per-host link-blackout window: epochs left.
    link_blackout: Vec<u64>,
    /// Per-host DRAM-brownout window: `(multiplier_x100, epochs_left)`.
    brownout: Vec<(u64, u64)>,
    /// Per-host stuck-pre-copy window: epochs left.
    stall: Vec<u64>,
    /// Aborted migrations awaiting their backoff.
    retries: Vec<RetryTicket>,
    recovery: RecoveryStats,
    restarts: Vec<RestartOutcome>,
}

impl<H: EpochHost> Cluster<H> {
    /// Builds a cluster over `hosts`.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is empty, `params.epoch_slices` is 0 or
    /// `params.threads` is 0.
    #[must_use]
    pub fn new(hosts: Vec<H>, params: ClusterParams) -> Self {
        assert!(!hosts.is_empty(), "a cluster needs at least one host");
        assert!(params.epoch_slices > 0, "epochs must advance sim time");
        assert!(params.threads > 0, "the epoch loop needs a thread");
        // One chunk runs on the caller's thread; the pool only needs
        // workers for the rest (and none at all when serial).
        let extra = params.threads.min(hosts.len()).saturating_sub(1);
        let pool = (extra > 0).then(|| WorkerPool::new(extra));
        let fleet = hosts.len();
        Self {
            hosts,
            params,
            pool,
            churn: VecDeque::new(),
            scheduled: VecDeque::new(),
            tickets: Vec::new(),
            epochs_run: 0,
            peak_inflight: 0,
            timeline: None,
            faults: FaultClock::new(Vec::new()).expect("an empty schedule is ordered"),
            crashed: vec![false; fleet],
            link_degrade: vec![(1, 0); fleet],
            link_blackout: vec![0; fleet],
            brownout: vec![(100, 0); fleet],
            stall: vec![0; fleet],
            retries: Vec::new(),
            recovery: RecoveryStats::default(),
            restarts: Vec::new(),
        }
    }

    /// The hosts (for inspection).
    #[must_use]
    pub fn hosts(&self) -> &[H] {
        &self.hosts
    }

    /// Epochs executed so far (warmup included).
    #[must_use]
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Installs a churn schedule (events must be in epoch order, as
    /// [`ChurnStream::generate`](crate::ChurnStream::generate) produces).
    pub fn set_churn(&mut self, events: Vec<ChurnEvent>) {
        self.churn = events.into();
    }

    /// Schedules an explicit migration (events must be pushed in epoch
    /// order).
    pub fn schedule_migration(&mut self, migration: ScheduledMigration) {
        self.scheduled.push_back(migration);
    }

    /// Arms a fault schedule (replacing any previous one).  Events fire
    /// at epoch boundaries, before churn — so a crash resolves its
    /// migrations and restarts its VMs before placement reacts.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadFaultPlan`] when the events are out of epoch
    /// order or name a host outside the fleet.
    pub fn set_faults(&mut self, events: Vec<FaultEvent>) -> Result<(), ConfigError> {
        self.faults = FaultClock::for_fleet(events, self.hosts.len())?;
        Ok(())
    }

    /// Whether host `host` was taken down by a crash fault.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    #[must_use]
    pub fn is_crashed(&self, host: usize) -> bool {
        self.crashed[host]
    }

    /// Fleet-level recovery metrics accumulated so far.
    #[must_use]
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Deactivates slot `slot` on host `host` (spare capacity arrivals
    /// and migration destinations land in).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn set_vm_active(&mut self, host: usize, slot: usize, active: bool) {
        self.hosts[host].set_vm_active(slot, active);
    }

    // ----- observability ----------------------------------------------------

    /// Enables sim-time tracing on every host (`capacity` spans each).
    pub fn enable_tracing(&mut self, capacity: usize) {
        for host in &mut self.hosts {
            host.enable_tracing(capacity);
        }
    }

    /// The merged Chrome trace: host `i`'s spans under process `i` (see
    /// [`merge_chrome_traces`]), or `None` when tracing is off.
    #[must_use]
    pub fn export_trace(&self) -> Option<String> {
        let sinks: Vec<_> = self
            .hosts
            .iter()
            .filter_map(EpochHost::trace_sink)
            .collect();
        (!sinks.is_empty()).then(|| merge_chrome_traces(sinks.iter().copied()))
    }

    /// Enables cluster counter-timeline sampling every `interval` epochs:
    /// in-flight migrations, cluster-wide active VMs, undelivered
    /// migration pages, and one load gauge per host.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is larger than the labelled series pool
    /// (`HOST_LOAD_SERIES` entries).
    pub fn enable_timeline(&mut self, interval: u64) {
        assert!(
            self.hosts.len() <= HOST_LOAD_SERIES.len(),
            "timeline labels exist for up to {} hosts",
            HOST_LOAD_SERIES.len()
        );
        let mut series = vec!["inflight_migrations", "active_vms", "pending_pages"];
        series.extend_from_slice(&HOST_LOAD_SERIES[..self.hosts.len()]);
        self.timeline = Some(CounterTimeline::new(interval, series));
    }

    /// The recorded cluster timeline, or `None` when sampling is off.
    #[must_use]
    pub fn timeline(&self) -> Option<&CounterTimeline> {
        self.timeline.as_ref()
    }

    fn sample_timeline(&mut self) {
        let due = self
            .timeline
            .as_ref()
            .is_some_and(|t| self.epochs_run.is_multiple_of(t.interval()));
        if !due {
            return;
        }
        let ts = self.hosts.iter().map(|h| h.sim_cycles()).max().unwrap_or(0);
        let inflight = self.tickets.iter().filter(|t| !t.drained).count() as u64;
        let active: u64 = self
            .hosts
            .iter()
            .map(|h| (0..h.vm_slots()).filter(|&s| h.vm_active(s)).count() as u64)
            .sum();
        let pending: u64 = self
            .hosts
            .iter()
            .map(|h| h.migration_pending_pages() + h.receiver_pending_pages())
            .sum();
        let mut values = vec![inflight, active, pending];
        values.extend(self.hosts.iter().map(EpochHost::active_vcpus));
        if let Some(timeline) = &mut self.timeline {
            timeline.record(ts, &values);
        }
    }

    // ----- the epoch loop ---------------------------------------------------

    /// Runs `warmup` unmeasured epochs, clears measurement state, runs
    /// `measured` epochs and returns the merged report.
    pub fn run(&mut self, warmup: u64, measured: u64) -> ClusterReport {
        self.run_epochs(warmup);
        self.reset_measurements();
        self.run_epochs(measured);
        self.report()
    }

    /// Executes `n` lockstep epochs.
    pub fn run_epochs(&mut self, n: u64) {
        // Idle shard workers spin between this call's epochs.
        let _armed = self.pool.as_ref().map(WorkerPool::arm);
        for _ in 0..n {
            self.fire_due_faults();
            self.fire_due_events();
            self.apply_fault_state();
            self.advance_hosts();
            self.wire_migrations();
            self.recovery.unavailability_epochs +=
                self.crashed.iter().filter(|dead| **dead).count() as u64;
            self.tick_fault_windows();
            self.epochs_run += 1;
            self.sample_timeline();
        }
    }

    /// Clears measurement counters on every host (and the cluster's own
    /// gauges) while keeping architectural state — including in-flight
    /// migrations — intact.
    pub fn reset_measurements(&mut self) {
        for host in &mut self.hosts {
            host.reset_measurements();
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.clear();
        }
        self.peak_inflight = self.tickets.iter().filter(|t| !t.drained).count() as u64;
    }

    /// The merged cluster report.
    #[must_use]
    pub fn report(&self) -> ClusterReport {
        let per_host: Vec<_> = self.hosts.iter().map(EpochHost::report).collect();
        let migrations = self
            .tickets
            .iter()
            .map(|t| MigrationOutcome {
                src_host: t.src_host,
                src_slot: t.src_slot,
                dst_host: t.dst_host,
                dst_slot: t.dst_slot,
                post_copy: t.post_copy,
                downtime_cycles: t.downtime_cycles,
                handed_off: t.handed_off,
                drained: t.drained,
                aborted: t.aborted,
                escalated: t.escalated,
                attempt: t.attempt,
            })
            .collect();
        ClusterReport::new(
            per_host,
            migrations,
            self.peak_inflight,
            self.recovery,
            self.restarts.clone(),
        )
    }

    /// Runs every host's epoch concurrently: contiguous host chunks, one
    /// per pool worker plus one on the calling thread.  Hosts share
    /// nothing within an epoch, so the shard assignment cannot influence
    /// any host's state — only the epoch-boundary serialization below is
    /// order-sensitive, and it always runs on this thread.
    fn advance_hosts(&mut self) {
        let slices = self.params.epoch_slices;
        let crashed = self.crashed.clone();
        let Some(pool) = &self.pool else {
            for (host, dead) in self.hosts.iter_mut().zip(&crashed) {
                if !dead {
                    host.run_slices(slices);
                }
            }
            return;
        };
        let chunk_len = self.hosts.len().div_ceil(pool.workers() + 1);
        let mut chunks = self.hosts.chunks_mut(chunk_len);
        let mut flags = crashed.chunks(chunk_len);
        let local = chunks.next().expect("a cluster has at least one host");
        let local_flags = flags.next().expect("a cluster has at least one host");
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
            .zip(flags)
            .map(|(chunk, chunk_flags)| {
                Box::new(move || {
                    for (host, dead) in chunk.iter_mut().zip(chunk_flags) {
                        if !dead {
                            host.run_slices(slices);
                        }
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_with_local(jobs, || {
            for (host, dead) in local.iter_mut().zip(local_flags) {
                if !dead {
                    host.run_slices(slices);
                }
            }
        });
    }

    // ----- epoch-boundary serialization -------------------------------------

    /// Applies churn and explicitly scheduled migrations due at this
    /// boundary, in install order (churn first).
    fn fire_due_events(&mut self) {
        let now = self.epochs_run;
        while self.churn.front().is_some_and(|e| e.epoch <= now) {
            let event = self.churn.pop_front().expect("front checked above");
            match event.kind {
                ChurnKind::Arrive { home } => self.place_arrival(home),
                ChurnKind::Depart { ordinal } => {
                    if let Some((host, slot)) = self.pick_active(ordinal) {
                        self.hosts[host].set_vm_active(slot, false);
                    }
                }
                ChurnKind::Migrate { ordinal, post_copy } => {
                    if let Some((host, slot)) = self.pick_active(ordinal) {
                        let mode = if post_copy {
                            MigrationMode::PostCopy
                        } else {
                            MigrationMode::PreCopy
                        };
                        // `pick_active` only yields slots on alive hosts
                        // (a crashed host's slots are all inactive), so
                        // the start cannot fail with `HostDown`.
                        let _ = self.try_start_migration(host, slot, mode);
                    }
                }
            }
        }
        while self.scheduled.front().is_some_and(|m| m.epoch <= now) {
            let m = self.scheduled.pop_front().expect("front checked above");
            if !self.crashed[m.src_host] && self.hosts[m.src_host].vm_active(m.src_slot) {
                // A scheduled source is alive by the guard above, so the
                // start cannot fail with `HostDown`.
                let _ = self.start_migration_attempt(m.src_host, m.src_slot, m.mode, 0, m.dst_host);
            }
        }
        self.fire_due_retries();
    }

    /// Re-attempts aborted migrations whose backoff has elapsed, in abort
    /// order.  A retry whose VM departed (or whose host died) while
    /// waiting is dropped; one that cannot find a destination right now
    /// is consumed, not re-queued — the bound is on attempts, not luck.
    fn fire_due_retries(&mut self) {
        let now = self.epochs_run;
        let due: Vec<RetryTicket> = {
            let mut waiting = Vec::with_capacity(self.retries.len());
            let mut due = Vec::new();
            for retry in self.retries.drain(..) {
                if retry.due_epoch <= now {
                    due.push(retry);
                } else {
                    waiting.push(retry);
                }
            }
            self.retries = waiting;
            due
        };
        for retry in due {
            if self.crashed[retry.src_host] || !self.hosts[retry.src_host].vm_active(retry.src_slot)
            {
                continue;
            }
            let mode = if retry.post_copy {
                MigrationMode::PostCopy
            } else {
                MigrationMode::PreCopy
            };
            if matches!(
                self.start_migration_attempt(
                    retry.src_host,
                    retry.src_slot,
                    mode,
                    retry.attempt,
                    None,
                ),
                Ok(true)
            ) {
                self.recovery.migrations_retried += 1;
            }
        }
    }

    // ----- fault injection --------------------------------------------------

    /// Pops and applies every fault event due at this boundary.
    fn fire_due_faults(&mut self) {
        for event in self.faults.pop_due(self.epochs_run) {
            self.apply_fault(event);
        }
    }

    /// Applies one fault event.  Events aimed at an already-crashed host
    /// are counted but do nothing — a dead host cannot fail harder.
    fn apply_fault(&mut self, event: FaultEvent) {
        self.recovery.faults_injected += 1;
        let host = event.kind.host();
        if self.crashed[host] {
            return;
        }
        match event.kind {
            FaultKind::HostCrash { .. } => {
                self.hosts[host].record_fault_span("host_crash", vec![("epoch", event.epoch)]);
                self.crash_host(host, event.epoch);
            }
            FaultKind::LinkDegrade { factor, epochs, .. } => {
                self.hosts[host].record_fault_span(
                    "link_degrade",
                    vec![
                        ("epoch", event.epoch),
                        ("factor", factor),
                        ("epochs", epochs),
                    ],
                );
                self.link_degrade[host] = (factor.max(2), epochs);
            }
            FaultKind::LinkBlackout { epochs, .. } => {
                self.hosts[host].record_fault_span(
                    "link_blackout",
                    vec![("epoch", event.epoch), ("epochs", epochs)],
                );
                self.link_blackout[host] = epochs;
            }
            FaultKind::DramBrownout {
                multiplier_x100,
                epochs,
                ..
            } => {
                self.hosts[host].record_fault_span(
                    "dram_brownout",
                    vec![
                        ("epoch", event.epoch),
                        ("multiplier_x100", multiplier_x100),
                        ("epochs", epochs),
                    ],
                );
                self.brownout[host] = (multiplier_x100.max(1), epochs);
            }
            FaultKind::StuckPreCopy { epochs, .. } => {
                self.hosts[host].record_fault_span(
                    "stuck_precopy",
                    vec![("epoch", event.epoch), ("epochs", epochs)],
                );
                self.stall[host] = epochs;
            }
        }
    }

    /// Takes host `host` down: resolves every migration touching it
    /// (aborts with rollback / bookkeeping discards, scheduling retries
    /// where the source VM survived), then cold-restarts its VMs through
    /// the placement policy.  The host stays down for the rest of the
    /// run.
    fn crash_host(&mut self, host: usize, epoch: u64) {
        self.crashed[host] = true;
        self.recovery.host_crashes += 1;
        for i in 0..self.tickets.len() {
            let t = self.tickets[i];
            if t.drained || (t.src_host != host && t.dst_host != host) {
                continue;
            }
            if t.src_host == host && !t.handed_off {
                // The source died mid-pre-copy: its VM dies with it (the
                // restart sweep below picks the slot up); the alive
                // destination rolls back the partial image it had landed.
                let _ = self.hosts[t.src_host].abort_migration();
                let _ = self.hosts[t.dst_host].abort_receiver(true);
            } else if t.src_host == host {
                // The VM already flipped; only the residual stream died.
                // The alive destination keeps the VM and discards the
                // backlog it can no longer pull (a modeling
                // simplification: lost residual state is not charged).
                let _ = self.hosts[t.dst_host].abort_receiver(false);
            } else if !t.handed_off {
                // The destination died mid-pre-copy: the source resumes
                // its VM (the slot was never deactivated) and the move
                // retries after backoff.  The dead receiver's backlog is
                // discarded in stats only — no rollback work happens on a
                // crashed host.
                let _ = self.hosts[t.src_host].abort_migration();
                let _ = self.hosts[t.dst_host].abort_receiver(false);
                if t.attempt < self.params.max_retries {
                    let attempt = t.attempt + 1;
                    self.retries.push(RetryTicket {
                        due_epoch: epoch
                            + self.params.retry_backoff_epochs.max(1) * u64::from(attempt),
                        src_host: t.src_host,
                        src_slot: t.src_slot,
                        post_copy: t.post_copy,
                        attempt,
                    });
                }
            } else {
                // The destination died after hand-off: the VM dies with
                // it (the restart sweep below picks the slot up); the
                // residual backlog is discarded in stats only.
                let _ = self.hosts[t.dst_host].abort_receiver(false);
            }
            self.tickets[i].aborted = true;
            self.tickets[i].drained = true;
            self.recovery.migrations_aborted += 1;
        }
        let dead_slots: Vec<usize> = (0..self.hosts[host].vm_slots())
            .filter(|&s| self.hosts[host].vm_active(s))
            .collect();
        for slot in dead_slots {
            self.hosts[host].set_vm_active(slot, false);
            let candidates: Vec<(u64, bool)> = self
                .hosts
                .iter()
                .enumerate()
                .map(|(h, candidate)| {
                    let free = !self.crashed[h] && self.free_slot(h).is_some();
                    (candidate.active_vcpus(), free)
                })
                .collect();
            let Some(to_host) = self.params.policy.choose_host(&candidates, host) else {
                self.recovery.restarts_failed += 1;
                continue;
            };
            let to_slot = self
                .free_slot(to_host)
                .expect("choose_host requires a free slot");
            self.hosts[to_host].set_vm_active(to_slot, true);
            self.restarts.push(RestartOutcome {
                from_host: host,
                from_slot: slot,
                to_host,
                to_slot,
                epoch,
                downtime_cycles: self.params.restart_penalty_cycles,
            });
            self.recovery.vm_restarts += 1;
        }
    }

    /// Pushes the current fault windows into the (alive) hosts before
    /// they advance: DRAM brownout multiplier and migration stall.  With
    /// no windows active this re-asserts the nominal state, which is a
    /// strict no-op on host behavior.
    fn apply_fault_state(&mut self) {
        for h in 0..self.hosts.len() {
            if self.crashed[h] {
                continue;
            }
            let multiplier = if self.brownout[h].1 > 0 {
                self.brownout[h].0
            } else {
                100
            };
            self.hosts[h].set_dram_brownout(multiplier);
            self.hosts[h].set_migration_stalled(self.stall[h] > 0);
        }
    }

    /// Burns one epoch off every active fault window (a window fired at
    /// epoch `E` with duration `k` affects epochs `E..E+k`).
    fn tick_fault_windows(&mut self) {
        for h in 0..self.hosts.len() {
            if self.link_degrade[h].1 > 0 {
                self.link_degrade[h].1 -= 1;
            }
            if self.link_blackout[h] > 0 {
                self.link_blackout[h] -= 1;
            }
            if self.brownout[h].1 > 0 {
                self.brownout[h].1 -= 1;
            }
            if self.stall[h] > 0 {
                self.stall[h] -= 1;
            }
        }
    }

    /// Whether `(host, slot)` is tied up by an undrained migration.
    fn in_flight(&self, host: usize, slot: usize) -> bool {
        self.tickets.iter().any(|t| {
            !t.drained
                && ((t.src_host == host && t.src_slot == slot)
                    || (t.dst_host == host && t.dst_slot == slot))
        })
    }

    /// Whether host `host` already receives a migration.
    fn receiver_busy(&self, host: usize) -> bool {
        self.tickets
            .iter()
            .any(|t| !t.drained && t.dst_host == host)
    }

    /// Whether host `host` already sources a pre-copy migration.
    fn source_busy(&self, host: usize) -> bool {
        self.tickets
            .iter()
            .any(|t| !t.drained && !t.handed_off && t.src_host == host)
    }

    /// The `ordinal`-th migratable active VM, wrapping around (hosts in
    /// index order, slots ascending; VMs already mid-migration excluded).
    fn pick_active(&self, ordinal: u64) -> Option<(usize, usize)> {
        let population: Vec<(usize, usize)> = self
            .hosts
            .iter()
            .enumerate()
            .flat_map(|(h, host)| {
                (0..host.vm_slots())
                    .filter(move |&s| host.vm_active(s) && !self.in_flight(h, s))
                    .map(move |s| (h, s))
            })
            .collect();
        if population.is_empty() {
            return None;
        }
        Some(population[(ordinal % population.len() as u64) as usize])
    }

    /// The lowest inactive, unreserved slot on host `host`.
    fn free_slot(&self, host: usize) -> Option<usize> {
        (0..self.hosts[host].vm_slots())
            .find(|&s| !self.hosts[host].vm_active(s) && !self.in_flight(host, s))
    }

    /// Activates an arriving VM on the policy-chosen host.
    fn place_arrival(&mut self, home: usize) {
        let candidates: Vec<(u64, bool)> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(h, host)| {
                (
                    host.active_vcpus(),
                    !self.crashed[h] && self.free_slot(h).is_some(),
                )
            })
            .collect();
        let Some(host) = self.params.policy.choose_host(&candidates, home) else {
            return;
        };
        let slot = self
            .free_slot(host)
            .expect("choose_host requires a free slot");
        self.hosts[host].set_vm_active(slot, true);
    }

    /// Starts an inter-host migration of `(src_host, src_slot)` if a
    /// destination exists and neither side is busy.  Returns whether it
    /// started.
    ///
    /// # Errors
    ///
    /// [`SimError::HostDown`] when the source host was taken down by a
    /// crash fault — a dead host cannot source a migration.
    pub fn try_start_migration(
        &mut self,
        src_host: usize,
        src_slot: usize,
        mode: MigrationMode,
    ) -> Result<bool, SimError> {
        self.start_migration_attempt(src_host, src_slot, mode, 0, None)
    }

    fn start_migration_attempt(
        &mut self,
        src_host: usize,
        src_slot: usize,
        mode: MigrationMode,
        attempt: u32,
        pinned_dst: Option<usize>,
    ) -> Result<bool, SimError> {
        if self.crashed[src_host] {
            return Err(SimError::HostDown { host: src_host });
        }
        if self.in_flight(src_host, src_slot)
            || (mode == MigrationMode::PreCopy
                && (self.source_busy(src_host) || !self.hosts[src_host].migration_idle()))
        {
            return Ok(false);
        }
        let usable = |cluster: &Self, h: usize| {
            h != src_host
                && !cluster.crashed[h]
                && !cluster.receiver_busy(h)
                && cluster.free_slot(h).is_some()
        };
        let dst_host = if let Some(pin) = pinned_dst {
            if pin >= self.hosts.len() || !usable(self, pin) {
                return Ok(false);
            }
            pin
        } else {
            let candidates: Vec<(u64, bool)> = self
                .hosts
                .iter()
                .enumerate()
                .map(|(h, host)| (host.active_vcpus(), usable(self, h)))
                .collect();
            let Some(dst_host) = self.params.policy.choose_host(&candidates, src_host) else {
                return Ok(false);
            };
            dst_host
        };
        let dst_slot = self
            .free_slot(dst_host)
            .expect("choose_host requires a free slot");
        let receiver = ReceiverParams {
            vm_slot: dst_slot,
            ..self.params.receiver
        };
        self.hosts[dst_host].attach_receiver(receiver);
        let mut ticket = Ticket {
            src_host,
            src_slot,
            dst_host,
            dst_slot,
            post_copy: mode == MigrationMode::PostCopy,
            handed_off: false,
            drained: false,
            downtime_cycles: 0,
            aborted: false,
            escalated: false,
            attempt,
            precopy_epochs: 0,
        };
        match mode {
            MigrationMode::PreCopy => {
                let params = MigrationParams {
                    vm_slot: src_slot,
                    ..self.params.migration
                };
                self.hosts[src_host].start_migration(params);
            }
            MigrationMode::PostCopy => {
                // The VM flips now: pause, ship vCPU state, resume over
                // there.  Its memory follows — demand-fetched pages first.
                let image = self.hosts[src_host].vm_image(src_slot);
                self.hosts[src_host].set_vm_active(src_slot, false);
                self.hosts[dst_host].begin_post_copy(image);
                self.hosts[dst_host].mark_source_done();
                self.hosts[dst_host].set_vm_active(dst_slot, true);
                ticket.handed_off = true;
                ticket.downtime_cycles = self.params.migration.pause_resume_cycles;
            }
        }
        self.tickets.push(ticket);
        Ok(true)
    }

    /// The epoch-boundary wire: forwards each undrained migration's
    /// outbox to its receiver (honoring the source link's degradation or
    /// blackout window), performs due hand-offs — including the
    /// non-convergence escalation to post-copy — and retires drained
    /// tickets, strictly in ticket (start) order.
    fn wire_migrations(&mut self) {
        let mut inflight = 0u64;
        for i in 0..self.tickets.len() {
            let ticket = self.tickets[i];
            if ticket.drained {
                continue;
            }
            if !ticket.post_copy {
                if !ticket.handed_off {
                    self.tickets[i].precopy_epochs += 1;
                }
                let mut pages = self.hosts[ticket.src_host].drain_outbox();
                if !pages.is_empty() {
                    if self.link_blackout[ticket.src_host] > 0 {
                        if self.hosts[ticket.src_host].migration_in_precopy() {
                            // A blacked-out wire loses pre-copy pages
                            // outright: the source pays to copy them
                            // again.
                            self.recovery.wire_dropped_pages += pages.len() as u64;
                            self.hosts[ticket.src_host].requeue_copy(pages);
                        } else {
                            // Stop-and-copy residue is the VM's only
                            // up-to-date state — held back reliably,
                            // never dropped.
                            self.hosts[ticket.src_host].requeue_outbox(pages);
                        }
                        pages = Vec::new();
                    } else if self.link_degrade[ticket.src_host].1 > 0 {
                        let budget = (self.params.migration.copy_pages_per_slice
                            * self.params.epoch_slices
                            / self.link_degrade[ticket.src_host].0)
                            .max(1) as usize;
                        if pages.len() > budget {
                            let held = pages.split_off(budget);
                            self.hosts[ticket.src_host].requeue_outbox(held);
                        }
                    }
                }
                if !pages.is_empty() {
                    self.hosts[ticket.dst_host].deliver_pages(pages);
                }
                if !self.tickets[i].handed_off
                    && self.params.stall_timeout_epochs > 0
                    && self.tickets[i].precopy_epochs >= self.params.stall_timeout_epochs
                    && self.hosts[ticket.src_host].migration_in_precopy()
                {
                    // Non-convergence timeout: stop iterating and flip
                    // the VM post-copy style — the destination pulls
                    // whatever the source never sent.
                    let pending = self.hosts[ticket.src_host].escalate_migration();
                    self.hosts[ticket.dst_host].begin_post_copy(pending);
                    self.hosts[ticket.dst_host].mark_source_done();
                    self.hosts[ticket.src_host].set_vm_active(ticket.src_slot, false);
                    self.hosts[ticket.dst_host].set_vm_active(ticket.dst_slot, true);
                    self.tickets[i].handed_off = true;
                    self.tickets[i].escalated = true;
                    self.tickets[i].downtime_cycles = self.params.migration.pause_resume_cycles;
                    self.recovery.migrations_escalated += 1;
                } else if !self.tickets[i].handed_off
                    && self.hosts[ticket.src_host].migration_idle()
                {
                    // The source converged and ran stop-and-copy this
                    // epoch: flip the VM.
                    self.tickets[i].downtime_cycles = self.hosts[ticket.src_host]
                        .migration_stats()
                        .downtime_cycles;
                    self.tickets[i].handed_off = true;
                    self.hosts[ticket.dst_host].mark_source_done();
                    self.hosts[ticket.src_host].set_vm_active(ticket.src_slot, false);
                    self.hosts[ticket.dst_host].set_vm_active(ticket.dst_slot, true);
                }
            }
            if self.tickets[i].handed_off && self.hosts[ticket.dst_host].receiver_complete() {
                self.tickets[i].drained = true;
            } else {
                inflight += 1;
            }
        }
        self.peak_inflight = self.peak_inflight.max(inflight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatric::metrics::{HostReport, MigrationStats};
    use hatric::telemetry::TraceSink;
    use hatric_types::GuestFrame;

    /// A host stub precise enough to exercise the boundary wiring: an
    /// outgoing "migration" emits 4 pages per epoch from a 10-page image
    /// and completes when the image is sent; the receiver mirrors the
    /// counting.
    #[derive(Debug)]
    struct MockHost {
        active: Vec<bool>,
        slices: u64,
        outgoing: Option<(u64, u64)>, // (sent, total)
        outbox: Vec<GuestFrame>,
        incoming: Option<(u64, bool)>, // (pending, source_done)
        downtime: u64,
        stalled: bool,
    }

    impl MockHost {
        fn new(active: usize, slots: usize) -> Self {
            Self {
                active: (0..slots).map(|s| s < active).collect(),
                slices: 0,
                outgoing: None,
                outbox: Vec::new(),
                incoming: None,
                downtime: 0,
                stalled: false,
            }
        }
    }

    impl EpochHost for MockHost {
        fn run_slices(&mut self, n: u64) {
            self.slices += n;
            if let Some((sent, total)) = &mut self.outgoing {
                if !self.stalled {
                    let burst = 4.min(*total - *sent);
                    for p in 0..burst {
                        self.outbox.push(GuestFrame::new(*sent + p));
                    }
                    *sent += burst;
                    if sent == total {
                        self.downtime = 111;
                    }
                }
            }
            if let Some((pending, _)) = &mut self.incoming {
                *pending = pending.saturating_sub(4);
            }
        }
        fn reset_measurements(&mut self) {}
        fn report(&self) -> HostReport {
            HostReport::default()
        }
        fn vm_slots(&self) -> usize {
            self.active.len()
        }
        fn vm_active(&self, slot: usize) -> bool {
            self.active[slot]
        }
        fn set_vm_active(&mut self, slot: usize, active: bool) {
            self.active[slot] = active;
        }
        fn active_vcpus(&self) -> u64 {
            self.active.iter().filter(|a| **a).count() as u64
        }
        fn sim_cycles(&self) -> u64 {
            self.slices
        }
        fn vm_image(&self, _slot: usize) -> Vec<GuestFrame> {
            (0..10).map(GuestFrame::new).collect()
        }
        fn start_migration(&mut self, _params: MigrationParams) {
            self.outgoing = Some((0, 10));
            self.downtime = 0;
        }
        fn migration_idle(&self) -> bool {
            self.outgoing.is_none_or(|(sent, total)| sent == total)
        }
        fn migration_stats(&self) -> MigrationStats {
            MigrationStats {
                downtime_cycles: self.downtime,
                ..MigrationStats::default()
            }
        }
        fn migration_pending_pages(&self) -> u64 {
            self.outgoing.map_or(0, |(sent, total)| total - sent)
        }
        fn drain_outbox(&mut self) -> Vec<GuestFrame> {
            std::mem::take(&mut self.outbox)
        }
        fn attach_receiver(&mut self, _params: ReceiverParams) {
            self.incoming = Some((0, false));
        }
        fn deliver_pages(&mut self, pages: Vec<GuestFrame>) {
            if let Some((pending, _)) = &mut self.incoming {
                *pending += pages.len() as u64;
            }
        }
        fn begin_post_copy(&mut self, outstanding: Vec<GuestFrame>) {
            if let Some((pending, _)) = &mut self.incoming {
                *pending += outstanding.len() as u64;
            }
        }
        fn mark_source_done(&mut self) {
            if let Some((_, done)) = &mut self.incoming {
                *done = true;
            }
        }
        fn receiver_complete(&self) -> bool {
            self.incoming
                .is_some_and(|(pending, done)| done && pending == 0)
        }
        fn receiver_pending_pages(&self) -> u64 {
            self.incoming.map_or(0, |(pending, _)| pending)
        }
        fn abort_migration(&mut self) -> u64 {
            self.outgoing = None;
            let discarded = self.outbox.len() as u64;
            self.outbox.clear();
            discarded
        }
        fn escalate_migration(&mut self) -> Vec<GuestFrame> {
            let pending = self.outgoing.map_or(Vec::new(), |(sent, total)| {
                (sent..total).map(GuestFrame::new).collect()
            });
            self.outgoing = None;
            pending
        }
        fn migration_in_precopy(&self) -> bool {
            self.outgoing.is_some_and(|(sent, total)| sent < total)
        }
        fn requeue_outbox(&mut self, pages: Vec<GuestFrame>) {
            let tail = std::mem::replace(&mut self.outbox, pages);
            self.outbox.extend(tail);
        }
        fn requeue_copy(&mut self, pages: Vec<GuestFrame>) {
            if let Some((sent, _)) = &mut self.outgoing {
                *sent = sent.saturating_sub(pages.len() as u64);
            }
        }
        fn set_migration_stalled(&mut self, stalled: bool) {
            self.stalled = stalled;
        }
        fn abort_receiver(&mut self, _rollback: bool) -> u64 {
            let discarded = self.incoming.map_or(0, |(pending, _)| pending);
            if let Some((pending, done)) = &mut self.incoming {
                *pending = 0;
                *done = true;
            }
            discarded
        }
        fn set_dram_brownout(&mut self, _multiplier_x100: u64) {}
        fn enable_tracing(&mut self, _capacity: usize) {}
        fn trace_sink(&self) -> Option<&TraceSink> {
            None
        }
    }

    fn two_hosts() -> Cluster<MockHost> {
        Cluster::new(
            vec![MockHost::new(2, 3), MockHost::new(1, 3)],
            ClusterParams::new(1, 1),
        )
    }

    #[test]
    fn precopy_migration_streams_pages_and_flips_the_vm() {
        let mut cluster = two_hosts();
        assert!(cluster
            .try_start_migration(0, 0, MigrationMode::PreCopy)
            .unwrap());
        assert!(
            !cluster
                .try_start_migration(0, 0, MigrationMode::PreCopy)
                .unwrap(),
            "the slot is already migrating"
        );
        cluster.run_epochs(5);
        let report = cluster.report();
        assert_eq!(report.migrations.len(), 1);
        let outcome = report.migrations[0];
        assert!(outcome.handed_off && outcome.drained);
        assert_eq!(outcome.downtime_cycles, 111);
        assert_eq!((outcome.dst_host, outcome.dst_slot), (1, 1));
        assert!(
            !cluster.hosts()[0].vm_active(0),
            "the source slot deactivated at hand-off"
        );
        assert!(cluster.hosts()[1].vm_active(1), "the destination slot runs");
        assert_eq!(report.peak_inflight, 1);
    }

    #[test]
    fn postcopy_flips_immediately_and_drains_behind() {
        let mut cluster = two_hosts();
        assert!(cluster
            .try_start_migration(0, 1, MigrationMode::PostCopy)
            .unwrap());
        assert!(
            !cluster.hosts()[0].vm_active(1),
            "source deactivates at once"
        );
        assert!(cluster.hosts()[1].vm_active(1), "destination runs at once");
        cluster.run_epochs(4);
        let report = cluster.report();
        assert!(report.migrations[0].drained);
        assert_eq!(
            report.migrations[0].downtime_cycles,
            ClusterParams::new(1, 1).migration.pause_resume_cycles
        );
    }

    #[test]
    fn churn_arrivals_fill_the_least_loaded_host() {
        let mut cluster = two_hosts();
        cluster.set_churn(vec![ChurnEvent {
            epoch: 0,
            kind: ChurnKind::Arrive { home: 0 },
        }]);
        cluster.run_epochs(1);
        assert!(
            cluster.hosts()[1].vm_active(1),
            "host 1 had fewer active vCPUs, so the arrival lands there"
        );
    }

    #[test]
    fn destination_crash_aborts_retries_and_restarts() {
        let mut cluster = Cluster::new(
            vec![
                MockHost::new(2, 3),
                MockHost::new(1, 3),
                MockHost::new(1, 3),
            ],
            ClusterParams {
                max_retries: 1,
                retry_backoff_epochs: 1,
                ..ClusterParams::new(1, 1)
            },
        );
        assert!(cluster
            .try_start_migration(0, 0, MigrationMode::PreCopy)
            .unwrap());
        cluster
            .set_faults(vec![FaultEvent {
                epoch: 1,
                kind: FaultKind::HostCrash { host: 1 },
            }])
            .unwrap();
        cluster.run_epochs(8);
        let report = cluster.report();
        assert_eq!(report.recovery.host_crashes, 1);
        assert_eq!(report.recovery.migrations_aborted, 1);
        assert_eq!(report.recovery.migrations_retried, 1);
        assert_eq!(report.recovery.vm_restarts, 1, "host 1's VM re-placed");
        assert_eq!(report.restarts.len(), 1);
        assert_eq!(report.restarts[0].to_host, 2);
        assert_eq!(report.migrations.len(), 2, "the abort plus its retry");
        assert!(report.migrations[0].aborted && !report.migrations[0].handed_off);
        let retry = report.migrations[1];
        assert_eq!(retry.attempt, 1);
        assert_eq!(retry.dst_host, 2, "the retry avoids the dead host");
        assert!(retry.handed_off && retry.drained && !retry.aborted);
        assert!(
            cluster.hosts()[0].vm_active(1),
            "the bystander VM on the source is untouched"
        );
        assert!(cluster.is_crashed(1));
        let err = cluster
            .try_start_migration(1, 0, MigrationMode::PreCopy)
            .unwrap_err();
        assert_eq!(err, SimError::HostDown { host: 1 });
    }

    #[test]
    fn blackout_drops_precopy_pages_and_the_source_resends() {
        let mut cluster = two_hosts();
        assert!(cluster
            .try_start_migration(0, 0, MigrationMode::PreCopy)
            .unwrap());
        cluster
            .set_faults(vec![FaultEvent {
                epoch: 0,
                kind: FaultKind::LinkBlackout { host: 0, epochs: 1 },
            }])
            .unwrap();
        cluster.run_epochs(10);
        let report = cluster.report();
        assert_eq!(
            report.recovery.wire_dropped_pages, 4,
            "one epoch's burst was lost"
        );
        let outcome = report.migrations[0];
        assert!(outcome.handed_off && outcome.drained && !outcome.aborted);
    }

    #[test]
    fn stuck_precopy_escalates_to_postcopy_after_timeout() {
        let mut cluster = Cluster::new(
            vec![MockHost::new(2, 3), MockHost::new(1, 3)],
            ClusterParams {
                stall_timeout_epochs: 3,
                ..ClusterParams::new(1, 1)
            },
        );
        assert!(cluster
            .try_start_migration(0, 0, MigrationMode::PreCopy)
            .unwrap());
        cluster
            .set_faults(vec![FaultEvent {
                epoch: 0,
                kind: FaultKind::StuckPreCopy {
                    host: 0,
                    epochs: 10,
                },
            }])
            .unwrap();
        cluster.run_epochs(8);
        let report = cluster.report();
        assert_eq!(report.recovery.migrations_escalated, 1);
        let outcome = report.migrations[0];
        assert!(outcome.escalated && outcome.handed_off && outcome.drained);
        assert_eq!(
            outcome.downtime_cycles, cluster.params.migration.pause_resume_cycles,
            "escalation pays the post-copy flip, not a stop-and-copy"
        );
        assert!(!cluster.hosts()[0].vm_active(0), "source slot flipped away");
        assert!(cluster.hosts()[1].vm_active(1), "destination slot runs");
    }

    #[test]
    fn fault_schedule_naming_an_unknown_host_is_rejected() {
        use hatric_types::ConfigError;
        let mut cluster = two_hosts();
        let err = cluster
            .set_faults(vec![FaultEvent {
                epoch: 0,
                kind: FaultKind::HostCrash { host: 9 },
            }])
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadFaultPlan { .. }));
    }

    #[test]
    fn timeline_tracks_inflight_and_loads() {
        let mut cluster = two_hosts();
        cluster.enable_timeline(1);
        cluster
            .try_start_migration(0, 0, MigrationMode::PreCopy)
            .unwrap();
        cluster.run_epochs(2);
        let timeline = cluster.timeline().expect("enabled");
        assert_eq!(
            timeline.series(),
            &[
                "inflight_migrations",
                "active_vms",
                "pending_pages",
                "host0_load",
                "host1_load"
            ]
        );
        assert_eq!(timeline.samples()[0].1[0], 1, "one migration in flight");
    }
}
