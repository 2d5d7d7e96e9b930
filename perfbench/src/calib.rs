//! How fast the host runs while a pass runs.
//!
//! On a shared host the CPU speed changes by up to a factor of two over
//! minutes: in one set of ten runs a cold trial's median went from 7.0 to
//! 11.5 ms and back, and every time of a run moved with it. So each pass
//! also times a fixed calibration kernel, between its blocks of work, and
//! its times are scaled by how much slower than [`REFERENCE_S`] the kernel
//! ran. The kernel mixes what the stack spends its time on: hash-map
//! inserts and lookups, sorting, floating-point arithmetic and allocation.
//! It is part of the benchmark, not of the stack, so a change to the stack
//! leaves it alone.

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's time on the 2-vCPU Intel Xeon host the benchmark was
/// defined on, in the quietest phase seen there (4.4–4.6 ms; 8–10 ms in
/// busy phases). A time scaled by [`speed_factor`] reads as it would there.
pub const REFERENCE_S: f64 = 0.0045;
/// Kernel runs per calibration.
const RUNS: usize = 3;
/// Calibrations are at least this far apart, so they cost a few percent
/// of a pass.
const INTERVAL_S: f64 = 0.2;

/// One run of the kernel; returns a checksum so that none of it is
/// optimised away.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..32_768).map(|_| next() % 131_072).collect();
    let mut map: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut acc = 0.0_f64;
    for &k in &keys {
        let v = map.entry(k).or_insert_with(|| vec![(k as f64 + 1.0).ln(); 2]);
        v[1] = v[0] / (1.0 + (acc * 1e-3).exp());
        acc += v[1];
    }
    keys.sort_unstable();
    keys.dedup();
    keys.iter().fold(acc.to_bits(), |h, &k| h.rotate_left(5) ^ k)
}

/// Kernel times taken through a pass.
#[derive(Debug, Default)]
pub struct Calibration {
    kernel_s: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    /// Times the kernel a few times, unless the last calibration was less
    /// than [`INTERVAL_S`] ago. Call it between blocks of work, outside
    /// every timer.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < INTERVAL_S) {
            return;
        }
        for _ in 0..RUNS {
            let t = Instant::now();
            std::hint::black_box(kernel());
            self.kernel_s.push(t.elapsed().as_secs_f64());
        }
        self.last = Some(Instant::now());
    }

    /// The kernel times taken.
    pub fn kernel_s(&self) -> &[f64] {
        &self.kernel_s
    }
}

/// The factor that scales times taken while the kernel ran in `kernel_s`
/// (their median) to the reference host's speed; 1 with no kernel time.
pub fn speed_factor(kernel_s: &[f64]) -> f64 {
    if kernel_s.is_empty() {
        1.0
    } else {
        REFERENCE_S / crate::stats::quantile(kernel_s, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrations_are_spaced_and_scale_to_the_reference() {
        let mut c = Calibration::default();
        c.tick();
        c.tick();
        assert_eq!(c.kernel_s().len(), RUNS);
        assert_eq!(speed_factor(&[]), 1.0);
        assert_eq!(speed_factor(&[REFERENCE_S * 2.0, REFERENCE_S * 4.0, 1.0]), 0.25);
    }
}
