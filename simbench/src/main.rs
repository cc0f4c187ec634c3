//! Throughput benchmark of the HATRIC simulator.
//!
//! ```text
//! simbench --workload <host_v32|serial_sw|fleet_migrate> --seed <n>
//!          --seconds <s> --trace <0|1> [--commit <id>] [--trace-out <path>]
//! ```
//!
//! Prints a context line (workload, seed, `nproc`, threads, commit and the
//! uncalibrated figures), then the result line: end-to-end metrics when
//! `--trace 0`, per-layer metrics when `--trace 1`.  Exits 1 when an output
//! check fails and 2 on a usage error.

mod calib;
mod counts;
mod harness;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{Outcome, RunConfig, Size};
use workloads::{FleetMigrate, HostV32, SerialSw};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["host_v32", "serial_sw", "fleet_migrate"];

/// The master seed of the simulated systems for command-line seed `n`
/// (splitmix64, so nearby seeds give unrelated systems).
#[must_use]
fn master_seed(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs workload `name`, or `None` for an unknown name.
fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "host_v32" => harness::run::<HostV32>(cfg),
        "serial_sw" => harness::run::<SerialSw>(cfg),
        "fleet_migrate" => harness::run::<FleetMigrate>(cfg),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("expected 0 to 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            "--commit" => commit = value,
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: master_seed(args.seed),
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
    };
    let out = run_workload(&args.workload, &cfg).expect("the workload name was validated");
    for f in &out.failures {
        eprintln!("simbench: check failed: {f}");
    }
    if let (Some(path), Some(tracer)) = (&args.trace_out, &out.tracer) {
        if let Err(e) = std::fs::write(path, tracer.to_json_lines()) {
            eprintln!("simbench: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"threads\": {}, \"commit\": \"{}\", \"units\": {}, \"raw_accesses_per_s\": {}, \"raw_setup_s\": {}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.threads,
        args.commit.replace(['"', '\\'], ""),
        out.attempted,
        metrics::json_number(out.raw_accesses_per_s),
        metrics::json_number(out.raw_setup_s),
    );
    let specs: &[metrics::Spec] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let correct = out.failed == 0;
    match metrics::result_line(specs, &out.values, correct, out.attempted, out.failed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Subject;

    fn tiny(seed: u64, trace: bool) -> RunConfig {
        RunConfig {
            seed: master_seed(seed),
            seconds: 0.0,
            trace,
            size: Size::Tiny,
        }
    }

    /// A tiny run of every workload with a non-default seed passes its
    /// output checks and yields every declared metric.
    #[test]
    fn tiny_runs_pass_their_checks_and_report_every_metric() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let out = run_workload(name, &tiny(7, trace)).expect("a known workload");
                assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
                assert_eq!(out.failed, 0, "{name}");
                assert!(out.attempted >= 1, "{name}");
                let specs: &[metrics::Spec] = if trace {
                    &metrics::PER_LAYER
                } else {
                    &metrics::END_TO_END
                };
                for spec in specs {
                    let v = out.values.get(spec.name).copied();
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{name}: {} = {v:?}",
                        spec.name
                    );
                }
                for spec in &metrics::END_TO_END {
                    assert!(out.values[spec.name] > 0.0, "{name}: {} is 0", spec.name);
                }
            }
        }
    }

    /// The deterministic counts repeat exactly for a seed.
    #[test]
    fn counts_repeat_for_a_seed_and_differ_across_seeds() {
        let counts = |seed: u64| {
            let mut s = SerialSw::build(master_seed(seed), Size::Tiny);
            while s.warmup_step() {}
            for _ in 0..SerialSw::count_units(Size::Tiny) {
                s.run_unit(None);
            }
            s.counts()
        };
        assert_eq!(counts(3), counts(3));
        assert_ne!(counts(3), counts(4));
    }

    /// `host_v32`'s work counts are the same on 1 and 2 engine threads.
    #[test]
    fn host_v32_counts_are_identical_at_threads_1_and_2() {
        let counts = |threads: usize| {
            let mut h = HostV32::with_threads(master_seed(11), Size::Tiny, threads);
            while h.warmup_step() {}
            for _ in 0..HostV32::count_units(Size::Tiny) {
                h.run_unit(None);
            }
            h.counts()
        };
        let one = counts(1);
        assert!(one.accesses > 0);
        assert_eq!(one, counts(2));
    }

    #[test]
    fn master_seeds_differ_for_nearby_seeds() {
        assert_ne!(master_seed(1), master_seed(2));
        assert_eq!(master_seed(5), master_seed(5));
    }
}
