//! The closed loop every workload shares.
//!
//! One process, one thread: the system is built and warmed up
//! several times (set-up time is the sum of per-step medians), then
//! advanced in fixed units back to back for the requested wall time.  The
//! calibration kernel runs between every two units, and each unit's time
//! is normalized by the kernel rate measured on both sides of it.  The
//! first units, a fixed number per workload, form the counting prefix: the
//! deterministic work counts and the peak resident memory are read at its
//! end, so they describe a fixed amount of simulation whatever the host's
//! speed.  A traced run alternates traced and untraced units, so the
//! tracing cost is measured under the same host conditions.

use std::time::Instant;

use crate::calib::{self, Calibrator};
use crate::counts::Counts;
use crate::metrics::Values;
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// Size of a run: the benchmark's own sizes, or the tiny ones tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` runs.
    Full,
    /// A few units on a small system, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// A workload driven through the simulator's public API.
pub trait Subject: Sized {
    /// Builds the system from configs generated from `seed`.
    fn build(seed: u64, size: Size) -> Self;
    /// Runs one chunk of the unmeasured warmup; the last chunk clears
    /// measurement state and returns `false`.
    fn warmup_step(&mut self) -> bool;
    /// Slice-engine worker threads the workload runs with.
    fn threads(&self) -> usize;
    /// Units in the counting prefix.
    fn count_units(size: Size) -> u64;
    /// Untimed work before a unit.
    fn prepare_unit(&mut self) {}
    /// Advances the simulation by one unit.  With a tracer, records one
    /// span per call into a layer under the `parent` unit span.
    fn run_unit(&mut self, trace: Option<(&mut Tracer, usize)>);
    /// Untimed: the accesses the unit simulated and whether its checks
    /// passed.
    fn finish_unit(&mut self) -> (u64, bool);
    /// Work counts since the warmup ended.
    fn counts(&self) -> Counts;
    /// Checks the outputs after `units` units; returns what failed.
    fn final_checks(&mut self, units: u64) -> Vec<String>;
}

/// What a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Wall time of the timed window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Benchmark or test sizes.
    pub size: Size,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric measured (end-to-end and per-layer).
    pub values: Values,
    /// Uncalibrated `accesses_per_s` and `setup_s`, for the steadiness
    /// table.
    pub raw_accesses_per_s: f64,
    /// Uncalibrated set-up time.
    pub raw_setup_s: f64,
    /// Units run.
    pub attempted: u64,
    /// Units whose checks failed.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub failures: Vec<String>,
    /// Slice-engine worker threads.
    pub threads: usize,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Set-ups per run.
fn setups(size: Size) -> usize {
    match size {
        Size::Full => 7,
        Size::Tiny => 2,
    }
}

#[derive(Debug, Clone, Copy)]
struct Unit {
    raw_s: f64,
    rate: f64,
    accesses: u64,
    traced: bool,
}

impl Unit {
    fn norm_s(&self) -> f64 {
        calib::normalize(self.raw_s, self.rate)
    }
}

/// The median, over repeated set-ups, of each step's time.  Their sum is
/// the set-up time: a stall during one set-up's step does not count, as
/// long as most set-ups ran that step undisturbed.
///
/// # Panics
///
/// Panics if the set-ups took different numbers of steps (they repeat the
/// same deterministic work).
fn step_medians(setups: &[Vec<f64>]) -> Vec<f64> {
    let steps = setups[0].len();
    assert!(
        setups.iter().all(|s| s.len() == steps),
        "every set-up runs the same steps"
    );
    (0..steps)
        .map(|k| median(&setups.iter().map(|s| s[k]).collect::<Vec<_>>()))
        .collect()
}

/// Resident-set figure `field` (`VmRSS`, `VmHWM`) of this process in MB,
/// or 0 where `/proc` is unavailable.
#[must_use]
pub fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs workload `S` as `cfg` asks.
pub fn run<S: Subject>(cfg: &RunConfig) -> Outcome {
    let mut kernel = Calibrator::new();
    kernel.measure();
    let mut calib_rates = Vec::new();

    // Set-up, several times over; the last system built is the one
    // measured.  Every set-up repeats the same deterministic steps (the
    // build, then the warmup chunks), each timed between two kernel runs.
    let (mut steps_norm, mut steps_raw) = (Vec::new(), Vec::new());
    let mut rss_after_build = 0.0;
    let mut subject: Option<S> = None;
    for i in 0..setups(cfg.size) {
        drop(subject.take());
        let (mut norm, mut raw) = (Vec::new(), Vec::new());
        let mut before = kernel.measure();
        calib_rates.push(before);
        let t0 = Instant::now();
        let mut s = S::build(cfg.seed, cfg.size);
        let mut dt = t0.elapsed().as_secs_f64();
        if i == 0 {
            rss_after_build = proc_status_mb("VmRSS");
        }
        let mut more = true;
        loop {
            let after = kernel.measure();
            calib_rates.push(after);
            raw.push(dt);
            norm.push(calib::normalize(dt, calib::bracket(before, after)));
            if !more {
                break;
            }
            before = after;
            let t = Instant::now();
            more = s.warmup_step();
            dt = t.elapsed().as_secs_f64();
        }
        steps_norm.push(norm);
        steps_raw.push(raw);
        subject = Some(s);
    }
    let mut s = subject.expect("at least one set-up ran");
    let threads = s.threads();

    // The timed window.
    let count_units = S::count_units(cfg.size);
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut units: Vec<Unit> = Vec::new();
    let mut failed = 0;
    let mut counts = None;
    let mut peak_rss_mb = 0.0;
    let start = Instant::now();
    let mut before = kernel.measure();
    calib_rates.push(before);
    while (units.len() as u64) < count_units || start.elapsed().as_secs_f64() < cfg.seconds {
        let index = units.len();
        let traced = cfg.trace && index % 2 == 1;
        s.prepare_unit();
        let t0 = Instant::now();
        match tracer.as_mut().filter(|_| traced) {
            Some(t) => {
                t.set_unit(index);
                let id = t.open("unit", None);
                s.run_unit(Some((t, id)));
                t.close(id);
            }
            None => s.run_unit(None),
        }
        let raw_s = t0.elapsed().as_secs_f64();
        let after = kernel.measure();
        calib_rates.push(after);
        let (accesses, ok) = s.finish_unit();
        failed += u64::from(!ok);
        units.push(Unit {
            raw_s,
            rate: calib::bracket(before, after),
            accesses,
            traced,
        });
        before = after;
        if units.len() as u64 == count_units {
            counts = Some(s.counts());
            peak_rss_mb = proc_status_mb("VmHWM");
        }
    }
    let attempted = units.len() as u64;
    let failures = s.final_checks(attempted);
    if !failures.is_empty() {
        failed = attempted;
    }

    let rate_of = |u: &Unit| u.accesses as f64 / u.norm_s();
    let untraced: Vec<&Unit> = units.iter().filter(|u| !u.traced).collect();
    let traced: Vec<&Unit> = units.iter().filter(|u| u.traced).collect();
    let accesses_per_s = median(&untraced.iter().map(|u| rate_of(u)).collect::<Vec<_>>());
    let raw_accesses_per_s = median(
        &untraced
            .iter()
            .map(|u| u.accesses as f64 / u.raw_s)
            .collect::<Vec<_>>(),
    );

    let mut values = Values::new();
    values.insert("accesses_per_s", accesses_per_s);
    let norm = step_medians(&steps_norm);
    values.insert("setup_s", norm.iter().sum());
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("setup.build_s", norm[0]);
    values.insert("setup.warmup_s", norm[1..].iter().sum());
    values.insert("setup.samples", steps_norm.len() as f64);
    values.insert("mem.rss_after_build_mb", rss_after_build);
    counts
        .expect("the window covers the counting prefix")
        .insert_into(&mut values);
    values.insert("wall.raw_accesses_per_s", raw_accesses_per_s);
    values.insert("wall.calib_rate", median(&calib_rates));
    values.insert("wall.calib_samples", calib_rates.len() as f64);
    values.insert("wall.untraced_units", untraced.len() as f64);
    values.insert("wall.traced_units", traced.len() as f64);
    let traced_rate = median(&traced.iter().map(|u| rate_of(u)).collect::<Vec<_>>());
    values.insert(
        "trace.overhead",
        if accesses_per_s > 0.0 {
            traced_rate / accesses_per_s
        } else {
            0.0
        },
    );
    let traced_accesses: u64 = traced.iter().map(|u| u.accesses).sum();
    if let Some(t) = &tracer {
        layer_metrics(t, &units, traced_accesses, &mut values);
    }

    Outcome {
        values,
        raw_accesses_per_s,
        raw_setup_s: step_medians(&steps_raw).iter().sum(),
        attempted,
        failed,
        failures,
        threads,
        tracer,
    }
}

/// Per-layer host times from the spans, each span normalized by the
/// calibration rate of its unit.  Layers the workload never called report
/// 0 with a sample count of 0.
fn layer_metrics(tracer: &Tracer, units: &[Unit], accesses: u64, values: &mut Values) {
    let spans = tracer.spans();
    let norm_ns = |i: usize| calib::normalize(spans[i].dur_ns as f64, units[spans[i].unit].rate);
    let named = |name: &str| -> Vec<usize> {
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .collect()
    };
    let sum_ns = |ids: &[usize]| ids.iter().fold(0.0, |acc, &i| acc + norm_ns(i));
    let ms = |ids: &[usize]| ids.iter().map(|&i| norm_ns(i) / 1e6).collect::<Vec<f64>>();
    let per_access = |ns: f64| {
        if accesses == 0 {
            0.0
        } else {
            ns / accesses as f64
        }
    };
    // Time of the engine-phase children under spans named `parent`.
    let children_of = |parent: &str| -> f64 {
        (0..spans.len())
            .filter(|&i| spans[i].parent.is_some_and(|p| spans[p].name == parent))
            .fold(0.0, |acc, i| acc + norm_ns(i))
    };

    for (metric, child) in [
        ("engine.pool_refill_ns_per_access", "engine.pool_refill"),
        ("engine.simulate_ns_per_access", "engine.simulate"),
        ("engine.bank_replay_ns_per_access", "engine.bank_replay"),
        (
            "engine.booking_replay_ns_per_access",
            "engine.booking_replay",
        ),
        ("engine.serial_commit_ns_per_access", "engine.serial_commit"),
    ] {
        values.insert(metric, per_access(sum_ns(&named(child))));
    }

    let slices = named("run_slices");
    let epochs = named("run_epochs");
    values.insert("engine.samples", (slices.len() + epochs.len()) as f64);

    values.insert(
        "host.self_ns_per_access",
        if slices.is_empty() {
            0.0
        } else {
            per_access(sum_ns(&slices) - children_of("run_slices"))
        },
    );
    let slice_ms = ms(&slices);
    let slice_tail = tail(&slice_ms);
    values.insert("host.slice_ms_p50", median(&slice_ms));
    values.insert("host.slice_ms_tail", slice_tail.map_or(0.0, |t| t.value));
    values.insert("host.slice_tail_pct", slice_tail.map_or(0.0, |t| t.pct));
    values.insert("host.slice_samples", slice_ms.len() as f64);

    let steps = named("step");
    values.insert(
        "workloads.next_access_ns",
        per_access(sum_ns(&named("next_access"))),
    );
    values.insert("core.step_ns", per_access(sum_ns(&steps)));
    values.insert("serial.batch_samples", steps.len() as f64);

    let epoch_ms = ms(&epochs);
    let epoch_tail = tail(&epoch_ms);
    values.insert("cluster.epoch_ms_p50", median(&epoch_ms));
    values.insert("cluster.epoch_ms_tail", epoch_tail.map_or(0.0, |t| t.value));
    values.insert("cluster.epoch_tail_pct", epoch_tail.map_or(0.0, |t| t.pct));
    values.insert("cluster.epoch_samples", epoch_ms.len() as f64);
    values.insert(
        "cluster.outside_engine_ns_per_access",
        if epochs.is_empty() {
            0.0
        } else {
            per_access(sum_ns(&epochs) - children_of("run_epochs"))
        },
    );
    for (flag, ms_metric, count_metric) in [
        (
            true,
            "migration.epoch_ms_inflight",
            "migration.epochs_inflight",
        ),
        (false, "migration.epoch_ms_quiet", "migration.epochs_quiet"),
    ] {
        let ids: Vec<usize> = epochs
            .iter()
            .copied()
            .filter(|&i| spans[i].inflight == Some(flag))
            .collect();
        values.insert(ms_metric, median(&ms(&ids)));
        values.insert(count_metric, ids.len() as f64);
    }
    values.insert("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_time_is_the_sum_of_per_step_medians() {
        // Three set-ups of a build and two warmup chunks; the second
        // set-up stalled in its first chunk, the third in its second.
        let setups = [
            vec![0.5, 10.0, 20.0],
            vec![0.7, 90.0, 21.0],
            vec![0.6, 11.0, 80.0],
        ];
        assert_eq!(step_medians(&setups), vec![0.6, 11.0, 21.0]);
    }
}
