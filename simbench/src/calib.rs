//! Host-speed calibration.
//!
//! On a small shared machine the host CPU changes speed underneath the
//! simulator: identical runs of one workload have measured 0.87M–1.56M
//! accesses/s within minutes of each other, while CPU time stayed equal to
//! wall time (no preemption or steal).  Every host-time number this
//! benchmark reports is therefore divided by how fast a fixed calibration
//! kernel ran *next to it*: the kernel runs between every pair of timed
//! chunks, and a chunk's time is scaled to what it would have been had
//! the kernel run at [`NOMINAL_RATE`].
//!
//! The kernel is a fixed random-update loop over a 1 MiB table, which
//! stays in a 2 MiB L2.  Of the kernels tried on the reference machine
//! (random updates over 256 KiB, 512 KiB, 1 MiB, 2 MiB and 4 MiB, pointer
//! chases over 256 KiB to 128 MiB), its rate tracked the workloads' speed
//! most closely with an exponent near 1: on a `host_v32` run whose raw
//! throughput varied with a coefficient of variation of 18% across
//! 150-unit windows, normalizing by it left 7%, against 10% for the
//! 256 KiB version.  Tables that spill out of L2 overcorrect.

use std::hint::black_box;
use std::time::Instant;

/// Table size of the kernel, in 64-bit words (1 MiB).
const WORDS: usize = 1024 * 1024 / 8;

/// Updates one kernel run performs (about 2 ms on the reference machine).
pub const UPDATES: u64 = 3 << 18;

/// The kernel rate, in updates per second, that normalized times are
/// scaled to: a round figure inside the range the kernel runs at on the
/// reference machine (2-vCPU x86-64 container, 4e8–6e8 updates/s), so
/// calibrated and raw figures read alike there.  It is a fixed constant:
/// changing it rescales every calibrated figure and breaks comparison with
/// earlier runs.
pub const NOMINAL_RATE: f64 = 5.0e8;

/// The calibration kernel and its table.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A kernel with a zeroed table; the first [`Calibrator::measure`]
    /// faults the table in, so callers discard it.
    #[must_use]
    pub fn new() -> Self {
        Self {
            table: vec![0; WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Runs the kernel once and returns its rate in updates per second.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = self.state;
        let table = black_box(&mut self.table[..]);
        for _ in 0..UPDATES {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize & (WORDS - 1);
            table[i] = table[i].rotate_left(7) ^ x;
        }
        self.state = black_box(x);
        rate(UPDATES, start.elapsed().as_secs_f64())
    }
}

/// Kernel rate of `updates` updates that took `seconds`.
#[must_use]
pub fn rate(updates: u64, seconds: f64) -> f64 {
    updates as f64 / seconds
}

/// The rate that stands for the host's speed during a chunk timed between
/// two kernel runs: the rate of their combined work (the harmonic mean of
/// the two rates), so a slow kernel run weighs by the time it took.
#[must_use]
pub fn bracket(before: f64, after: f64) -> f64 {
    2.0 / (1.0 / before + 1.0 / after)
}

/// Scales `seconds` measured while the kernel ran at `rate` to the time it
/// would have taken at [`NOMINAL_RATE`]: a host running the kernel 20%
/// slower than nominal ran the chunk about 20% slower too, so the chunk's
/// time shrinks by that factor.
#[must_use]
pub fn normalize(seconds: f64, rate: f64) -> f64 {
    seconds * rate / NOMINAL_RATE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_is_identity_at_the_nominal_rate() {
        assert_eq!(normalize(0.25, NOMINAL_RATE), 0.25);
    }

    #[test]
    fn a_slow_host_shrinks_the_chunk_time_by_its_slowdown() {
        // The kernel ran at 80% of nominal: the chunk's 10 ms stand for
        // 8 ms on the nominal host.
        let t = normalize(0.010, 0.8 * NOMINAL_RATE);
        assert!((t - 0.008).abs() < 1e-15, "{t}");
        // A chunk and kernel slowed by the same factor normalize to the
        // same time as on the nominal host.
        let slowdown = 1.37;
        let nominal_chunk = 0.007;
        let t = normalize(nominal_chunk * slowdown, NOMINAL_RATE / slowdown);
        assert!((t - nominal_chunk).abs() < 1e-15, "{t}");
    }

    #[test]
    fn bracket_rate_is_the_rate_of_the_combined_kernel_work() {
        // Two runs of `UPDATES` at 1e8/s and 4e8/s took 1/1e8 + 1/4e8
        // seconds per update, so together they ran at 1.6e8/s.
        let r = bracket(1e8, 4e8);
        assert!((r - 1.6e8).abs() < 1e-3, "{r}");
        assert_eq!(bracket(3e8, 3e8), 3e8);
        assert!((rate(1_000, 0.5) - 2_000.0).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_measures_a_positive_finite_rate() {
        let mut c = Calibrator::new();
        let r = c.measure();
        assert!(r.is_finite() && r > 0.0, "{r}");
    }
}
