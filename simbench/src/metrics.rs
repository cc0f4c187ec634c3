//! The metric registry and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit; `BENCHMARK.json` at the repository root lists the same names (a
//! test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement (read by the test that keeps
    /// `BENCHMARK.json` in step).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, printed by untraced runs.
pub const END_TO_END: [Spec; 3] = [
    spec("accesses_per_s", "1/s", Higher),
    spec("setup_s", "s", Lower),
    spec("peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics, printed by traced runs.  A layer a workload does not
/// exercise reports 0 with a sample count of 0.
pub const PER_LAYER: [Spec; 58] = [
    // Slice-engine phases (`ConsolidatedHost::phase_totals` deltas).
    spec("engine.pool_refill_ns_per_access", "ns", Lower),
    spec("engine.simulate_ns_per_access", "ns", Lower),
    spec("engine.bank_replay_ns_per_access", "ns", Lower),
    spec("engine.booking_replay_ns_per_access", "ns", Lower),
    spec("engine.serial_commit_ns_per_access", "ns", Lower),
    spec("engine.samples", "count", Higher),
    // The host around the engine.
    spec("host.self_ns_per_access", "ns", Lower),
    spec("host.slice_ms_p50", "ms", Lower),
    spec("host.slice_ms_tail", "ms", Lower),
    spec("host.slice_tail_pct", "%", Higher),
    spec("host.slice_samples", "count", Higher),
    // The serial access-by-access path.
    spec("workloads.next_access_ns", "ns", Lower),
    spec("core.step_ns", "ns", Lower),
    spec("serial.batch_samples", "count", Higher),
    // The cluster epoch loop.
    spec("cluster.epoch_ms_p50", "ms", Lower),
    spec("cluster.epoch_ms_tail", "ms", Lower),
    spec("cluster.epoch_tail_pct", "%", Higher),
    spec("cluster.epoch_samples", "count", Higher),
    spec("cluster.outside_engine_ns_per_access", "ns", Lower),
    spec("migration.epoch_ms_inflight", "ms", Lower),
    spec("migration.epoch_ms_quiet", "ms", Lower),
    spec("migration.epochs_inflight", "count", Higher),
    spec("migration.epochs_quiet", "count", Higher),
    // Set-up and memory.
    spec("setup.build_s", "s", Lower),
    spec("setup.warmup_s", "s", Lower),
    spec("setup.samples", "count", Higher),
    spec("mem.rss_after_build_mb", "MB", Lower),
    // Deterministic work counts over the fixed counting prefix.
    spec("det.accesses", "count", Higher),
    spec("tlb.l1_miss_pk", "count/1k", Lower),
    spec("tlb.l2_miss_pk", "count/1k", Lower),
    spec("tlb.mmu_cache_miss_pk", "count/1k", Lower),
    spec("tlb.ntlb_miss_pk", "count/1k", Lower),
    spec("cache.l1_miss_pk", "count/1k", Lower),
    spec("cache.l2_miss_pk", "count/1k", Lower),
    spec("cache.llc_miss_pk", "count/1k", Lower),
    spec("cache.back_invalidations_pk", "count/1k", Lower),
    spec("memory.dram_accesses_pk", "count/1k", Lower),
    spec("coherence.remaps_pk", "count/1k", Lower),
    spec("coherence.ipis_pk", "count/1k", Lower),
    spec("coherence.vm_exits_pk", "count/1k", Lower),
    spec("coherence.full_flushes_pk", "count/1k", Lower),
    spec("coherence.hw_messages_pk", "count/1k", Lower),
    spec("coherence.spurious_messages_pk", "count/1k", Lower),
    spec("hypervisor.demand_faults_pk", "count/1k", Lower),
    spec("hypervisor.pages_promoted_pk", "count/1k", Lower),
    spec("hypervisor.pages_demoted_pk", "count/1k", Lower),
    spec("migration.pages_copied", "count", Lower),
    spec("migration.received_pages", "count", Lower),
    spec("migration.migration_remaps", "count", Lower),
    spec("migration.completed", "count", Higher),
    spec("model.sim_cycles_per_access", "cycles", Lower),
    // Auditing the normalization and the tracing cost.
    spec("wall.raw_accesses_per_s", "1/s", Higher),
    spec("wall.calib_rate", "1/s", Higher),
    spec("wall.calib_samples", "count", Higher),
    spec("wall.untraced_units", "count", Higher),
    spec("wall.traced_units", "count", Higher),
    spec("trace.overhead", "ratio", Higher),
    spec("trace.spans", "count", Higher),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Measured values keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Formats the result line for `specs`: every declared metric must have a
/// valid name and unit and a finite value in `values`.
///
/// # Errors
///
/// Names the first declared metric that is invalid, missing or not
/// finite.
pub fn result_line(
    specs: &[Spec],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, s) in specs.iter().enumerate() {
        if !valid_name(s.name) || !valid_unit(s.unit) {
            return Err(format!(
                "metric {} has an invalid name or unit {}",
                s.name, s.unit
            ));
        }
        let v = values
            .get(s.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", s.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", s.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            s.name,
            json_number(v),
            s.unit
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    ))
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
#[must_use]
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad name {}", s.name);
            assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric names");
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("accesses_per_s"));
        assert!(valid_name("9lives.x-y_z"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("count/1k"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"s".repeat(17)));
    }

    /// `BENCHMARK.json` declares exactly the metrics this binary prints,
    /// with the same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let declared = |section: &str| -> Vec<(String, String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("section {section} is missing"));
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry
                            .find(&format!("\"{key}\""))
                            .unwrap_or_else(|| panic!("{key} missing in {entry}"));
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes");
                        rest[open..open + close].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let expect = |specs: &[Spec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|s| {
                    let better = match s.better {
                        Better::Higher => "higher",
                        Better::Lower => "lower",
                    };
                    (s.name.to_string(), s.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), expect(&END_TO_END));
        assert_eq!(declared("per_layer"), expect(&PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("accesses_per_s", 1_234_567.25);
        values.insert("setup_s", 0.5);
        values.insert("peak_rss_mb", 100.0);
        let line = result_line(&END_TO_END, &values, true, 12, 0).expect("all present");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"accesses_per_s\": {\"value\": 1234567.25, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 100.0, \"unit\": \"MB\"}}}"
        );
        values.remove("setup_s");
        assert!(result_line(&END_TO_END, &values, true, 1, 0).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(result_line(&END_TO_END, &values, true, 1, 0).is_err());
    }
}
