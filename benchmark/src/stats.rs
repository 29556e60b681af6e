//! Exact order statistics, the geometric mean, and posterior fingerprints.

/// A percentile read from sorted samples, with the counts that say how
/// much it can be trusted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pct {
    /// The percentile, as a fraction (0.99 is p99).
    pub p: f64,
    /// The sample at nearest rank `ceil(p * n)`.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{}={:.4} (n={}, {} beyond)",
            self.p * 100.0,
            self.value,
            self.n,
            self.beyond
        )
    }
}

/// The nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p * n` samples at or below it. NaN when there are no
/// samples, so a run without any cannot pass unnoticed.
pub fn percentile(sorted: &[f64], p: f64) -> Pct {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    Pct {
        p,
        value: sorted.get(rank - 1).copied().unwrap_or(f64::NAN),
        n,
        beyond: n.saturating_sub(rank),
    }
}

/// The highest of p99, p98, p95, p90, p75 that still has at least ten
/// samples beyond it; the median when even p75 has fewer.
pub fn tail(sorted: &[f64]) -> Pct {
    [0.99, 0.98, 0.95, 0.90, 0.75]
        .iter()
        .map(|&p| percentile(sorted, p))
        .find(|q| q.beyond >= 10)
        .unwrap_or_else(|| percentile(sorted, 0.5))
}

/// The tail of samples in time order, read window by window: the p99 of
/// each run of `window` consecutive samples (`window` of at least 1000
/// leaves ten beyond each), and the median of those over the windows.
/// A stall of the host that spans less than half the windows does not
/// move it. With fewer samples than one window, the [`tail`] of them
/// all. Returns the percentile and the number of windows.
pub fn windowed_tail(in_order: &[f64], window: usize) -> (Pct, usize) {
    let windows: Vec<Pct> = in_order
        .chunks_exact(window)
        .map(|w| percentile(&sorted(w.to_vec()), 0.99))
        .collect();
    if windows.is_empty() {
        return (tail(&sorted(in_order.to_vec())), 1);
    }
    let values: Vec<f64> = windows.iter().map(|w| w.value).collect();
    let pct = Pct {
        value: median(&values),
        ..windows[0]
    };
    (pct, windows.len())
}

/// Sorts samples ascending (they are finite durations), in place.
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_unstable_by(f64::total_cmp);
    xs
}

/// The median of arbitrary values (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 0.5).value
}

/// Geometric mean of positive values (NaN when empty or any is not
/// positive, so a broken cell cannot hide in the combination).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// FNV-1a over the bit patterns of a stream of `f64`s: two runs agree
/// on it only if every value agrees to the last bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds one value's bits into the fingerprint.
    pub fn push(&mut self, x: f64) {
        for byte in x.to_bits().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99);
        assert_eq!((p99.value, p99.n, p99.beyond), (990.0, 1000, 10));
        assert_eq!(percentile(&xs, 0.5).value, 500.0);
        // With 1000 samples p99 keeps ten beyond it; with 999 it does not.
        assert_eq!(tail(&xs).p, 0.99);
        assert_eq!(tail(&xs[..999]).p, 0.98);
        // A 1.9 ms tail is reported as 1.9 ms, not an octave floor.
        let mut ms = vec![1.0; 900];
        ms.extend(vec![1.9; 100]);
        assert_eq!(percentile(&ms, 0.99).value, 1.9);
        assert!(percentile(&[], 0.5).value.is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_windowed_tail_ignores_a_stall_in_a_minority_of_windows() {
        // Three windows of 1000; the second has a 50-sample stall.
        let mut xs: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut xs[1000..1050] {
            *x = 1e6;
        }
        let (p, windows) = windowed_tail(&xs, 1000);
        assert_eq!(windows, 3);
        assert_eq!((p.value, p.n, p.beyond), (989.0, 1000, 10));
        assert_eq!(percentile(&sorted(xs.clone()), 0.99).value, 1e6);
        // Short of a window, it is the tail of everything.
        let (p, windows) = windowed_tail(&xs[..999], 1000);
        assert_eq!((p.p, windows), (0.98, 1));
    }

    #[test]
    fn geomean_of_hand_made_values() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(geomean(&[]).is_nan());
    }
}
