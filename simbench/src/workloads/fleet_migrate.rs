//! `fleet_migrate`: the cluster tier under recurring pre-copy migrations.
//!
//! The `ClusterChurnParams::default_scale()` fleet — 4 hosts × 4 pCPUs,
//! each with 3 active 2-vCPU VMs and 2 spare slots, seeded arrivals and
//! departures, HATRIC, cluster and host engines on 1 thread.  Left alone it lands only a few
//! migrations per hundred epochs, so the benchmark schedules another pre-copy
//! migration through `Cluster::schedule_migration` every few epochs,
//! whenever a source and a destination are free: epoch orchestration,
//! placement, `MigrationEngine` and `MigrationReceiver` stay busy through
//! the whole window.
//!
//! Migrations are scheduled only where they must start, so a scheduled
//! migration missing from the ledger is a failed check, as is a page the
//! source copied that the destinations neither received, dropped nor
//! discarded.  The page balance holds between points where no migration
//! is in flight: the warmup starts none (the churn stream carries no
//! migrate events), and after the window the fleet runs on until all have
//! drained.
//!
//! `ClusterReport::aggregate` leaves translation, cache and energy
//! statistics at zero, so counts are summed over `per_host`.

use hatric::telemetry::PhaseTotals;
use hatric_cluster::{
    ChurnKind, ChurnStream, Cluster, ClusterReport, EpochHost, MigrationMode, MigrationOutcome,
    ScheduledMigration,
};
use hatric_host::experiments::ClusterChurnParams;
use hatric_host::{CoherenceMechanism, ConsolidatedHost};

use crate::counts::Counts;
use crate::harness::{Size, Subject};
use crate::trace::Tracer;

/// Salt separating the churn seed from the workload seeds.
const CHURN_SALT: u64 = 0xc4_55ed;
/// Epochs the final drain may add to reach a point where no migration is
/// in flight.
const MAX_DRAIN_EPOCHS: u64 = 200;
/// The benchmark tries to start a migration every this many epochs, so the
/// window holds both epochs with a migration in flight and quiet ones.
/// Odd, so that a traced run, which traces every other unit, traces both.
const MIGRATION_EVERY: u64 = 3;

/// The fleet and the benchmark's migration bookkeeping.
#[derive(Debug)]
pub struct FleetMigrate {
    cluster: Cluster<ConsolidatedHost>,
    warmup_epochs: u64,
    /// Epochs at which a churn event fires (the benchmark schedules nothing
    /// there, so churn cannot take the chosen source or destination).
    churn_epochs: Vec<u64>,
    /// The ledger as of the last epoch boundary.
    ledger: Vec<MigrationOutcome>,
    /// Host the next scheduling search starts from.
    cursor: usize,
    /// The `(host, slot)` scheduled to migrate in the coming epoch.
    pending: Option<(usize, usize)>,
    /// Migrations the benchmark scheduled in the window.
    scheduled: u64,
    accesses: u64,
}

fn any_in_flight(cluster: &Cluster<ConsolidatedHost>) -> bool {
    cluster
        .hosts()
        .iter()
        .any(|h| h.migration_phase().is_some_and(|p| !p.is_terminal()))
}

fn phase_sum(cluster: &Cluster<ConsolidatedHost>) -> PhaseTotals {
    let mut total = PhaseTotals::default();
    for host in cluster.hosts() {
        total.merge(host.phase_totals());
    }
    total
}

fn total_accesses(report: &ClusterReport) -> u64 {
    report.per_host.iter().map(|h| h.host.accesses).sum()
}

impl FleetMigrate {
    /// Runs epochs until no ledger entry is in flight, at most
    /// [`MAX_DRAIN_EPOCHS`]; returns whether it got there.
    fn drain(&mut self) -> bool {
        for _ in 0..=MAX_DRAIN_EPOCHS {
            if self.cluster.report().migrations.iter().all(|m| m.drained) {
                return true;
            }
            self.cluster.run_epochs(1);
        }
        false
    }

    /// The first active, not-migrating VM on a host that can source a
    /// pre-copy now, given that some other host can receive it.
    fn pick_source(&self) -> Option<(usize, usize)> {
        let hosts = self.cluster.hosts();
        let open: Vec<&MigrationOutcome> = self.ledger.iter().filter(|m| !m.drained).collect();
        let in_flight = |h: usize, s: usize| {
            open.iter()
                .any(|m| (m.src_host, m.src_slot) == (h, s) || (m.dst_host, m.dst_slot) == (h, s))
        };
        let can_receive = |h: usize| {
            !open.iter().any(|m| m.dst_host == h)
                && (0..hosts[h].vm_slots()).any(|s| !hosts[h].vm_active(s) && !in_flight(h, s))
        };
        let n = hosts.len();
        (0..n).map(|k| (self.cursor + k) % n).find_map(|h| {
            let sourcing =
                open.iter().any(|m| m.src_host == h && !m.handed_off) || !hosts[h].migration_idle();
            if sourcing || !(0..n).any(|d| d != h && can_receive(d)) {
                return None;
            }
            (0..hosts[h].vm_slots())
                .find(|&s| hosts[h].vm_active(s) && !in_flight(h, s))
                .map(|s| (h, s))
        })
    }
}

impl Subject for FleetMigrate {
    fn build(seed: u64, size: Size) -> Self {
        let base = match size {
            Size::Full => ClusterChurnParams::default_scale(),
            Size::Tiny => ClusterChurnParams::quick(),
        };
        let params = ClusterChurnParams { seed, ..base };
        let mut cluster = params.build_cluster(CoherenceMechanism::Hatric, 0);
        // Arrivals and departures only: the benchmark supplies the
        // migrations, and the page balance it checks holds for pre-copy
        // alone (a post-copy destination receives pages no source copied).
        let churn: Vec<_> = ChurnStream::new(seed ^ CHURN_SALT, params.hosts, params.churn_period)
            .generate(params.warmup_epochs + params.measured_epochs)
            .into_iter()
            .filter(|e| !matches!(e.kind, ChurnKind::Migrate { .. }))
            .collect();
        let churn_epochs = churn.iter().map(|e| e.epoch).collect();
        cluster.set_churn(churn);
        Self {
            cluster,
            warmup_epochs: params.warmup_epochs,
            churn_epochs,
            ledger: Vec::new(),
            cursor: 0,
            pending: None,
            scheduled: 0,
            accesses: 0,
        }
    }

    fn warmup_step(&mut self) -> bool {
        if self.cluster.epochs_run() < self.warmup_epochs {
            self.cluster.run_epochs(1);
            return true;
        }
        self.cluster.reset_measurements();
        false
    }

    fn threads(&self) -> usize {
        1
    }

    fn count_units(size: Size) -> u64 {
        match size {
            Size::Full => 150,
            Size::Tiny => 6,
        }
    }

    fn prepare_unit(&mut self) {
        let epoch = self.cluster.epochs_run();
        self.pending = None;
        if !epoch.is_multiple_of(MIGRATION_EVERY) || self.churn_epochs.binary_search(&epoch).is_ok()
        {
            return;
        }
        if let Some((src_host, src_slot)) = self.pick_source() {
            self.cluster.schedule_migration(ScheduledMigration {
                epoch,
                src_host,
                src_slot,
                dst_host: None,
                mode: MigrationMode::PreCopy,
            });
            self.pending = Some((src_host, src_slot));
            self.cursor = src_host + 1;
            self.scheduled += 1;
        }
    }

    fn run_unit(&mut self, trace: Option<(&mut Tracer, usize)>) {
        let Some((tracer, parent)) = trace else {
            self.cluster.run_epochs(1);
            return;
        };
        let inflight_before = self.pending.is_some() || any_in_flight(&self.cluster);
        let before = phase_sum(&self.cluster);
        let id = tracer.open("run_epochs", Some(parent));
        self.cluster.run_epochs(1);
        tracer.close(id);
        tracer.phase_children(id, &before, &phase_sum(&self.cluster));
        tracer.mark_inflight(id, inflight_before || any_in_flight(&self.cluster));
    }

    fn finish_unit(&mut self) -> (u64, bool) {
        let report = self.cluster.report();
        let total = total_accesses(&report);
        let accesses = total - self.accesses;
        self.accesses = total;
        let started = self.pending.is_none_or(|(h, s)| {
            report.migrations[self.ledger.len()..]
                .iter()
                .any(|m| (m.src_host, m.src_slot) == (h, s) && m.attempt == 0 && !m.post_copy)
        });
        self.ledger = report.migrations;
        (accesses, started)
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for host in &self.cluster.report().per_host {
            c.add_sim(&host.host);
            c.add_migration(&host.migration);
        }
        c
    }

    fn final_checks(&mut self, _units: u64) -> Vec<String> {
        let mut failures = Vec::new();
        if self.scheduled == 0 {
            failures.push("fleet_migrate: no migration was scheduled".into());
        }
        if !self.drain() {
            failures.push(format!(
                "fleet_migrate: migrations still in flight {MAX_DRAIN_EPOCHS} epochs after the window"
            ));
        }
        let report = self.cluster.report();
        for (i, m) in report.migrations.iter().enumerate() {
            if !(m.handed_off && m.drained) || m.aborted {
                failures.push(format!(
                    "fleet_migrate: migration {i} did not complete: {m:?}"
                ));
            }
        }
        let sum = |f: fn(&hatric::metrics::MigrationStats) -> u64| -> u64 {
            report.per_host.iter().map(|h| f(&h.migration)).sum()
        };
        let copied = sum(|m| m.pages_copied);
        let landed =
            sum(|m| m.received_pages) + sum(|m| m.pages_dropped) + sum(|m| m.pages_discarded);
        if copied != landed {
            failures.push(format!(
                "fleet_migrate: {copied} pages copied but {landed} received, dropped or discarded"
            ));
        }
        if copied == 0 {
            failures.push("fleet_migrate: no page was copied".into());
        }
        failures
    }
}
