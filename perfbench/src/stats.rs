//! Sample summaries and result digests.

use std::time::Duration;

/// A named list of measurements in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl From<Vec<f64>> for Samples {
    fn from(values: Vec<f64>) -> Self {
        Samples { values }
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn push_duration(&mut self, d: Duration, scale: f64) {
        self.values.push(d.as_secs_f64() * scale);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), linearly interpolated between the two
    /// nearest ranks; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.values, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The arithmetic mean; 0 for an empty sample.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Linearly interpolated quantile of `values` (any order); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a: a stable digest of result bytes, independent of the
/// compiler and the platform's default hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a whole byte string.
pub fn digest_of(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_matches_the_fnv1a_reference_vectors() {
        assert_eq!(digest_of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_of(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
