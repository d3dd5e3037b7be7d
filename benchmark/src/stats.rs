//! Order statistics the whole benchmark reports with.

/// Sorts `values` ascending. Benchmarks never produce NaN; a NaN here is
/// a bug in a measurement and is reported as one.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice by linear
/// interpolation between closest ranks; `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the acceptance check uses for run-to-run
/// spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the *spread* a
/// metric's regression bound is sized from.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1).abs() / q2.abs())
}

/// Cost per unit of work in the *fastest* slice of a pass.
///
/// The hosts this runs on slow down by a third for seconds at a time
/// (a neighbour on the same physical core or cache); the mean over a
/// pass then measures the neighbour. That noise only ever adds time, so
/// for work that repeats — slices of a sweep, rounds of one simulation —
/// the fastest slice is the one reading the code, and a regression in
/// the code moves it like every other slice. Each slice is
/// `(cost, work)`; `None` when no slice did any work.
pub fn best_slice_cost(slices: &[(f64, f64)]) -> Option<f64> {
    slices
        .iter()
        .filter(|(_, work)| *work > 0.0)
        .map(|(cost, work)| cost / work)
        .min_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"))
}

/// Mean of the values whose ranks lie between the `lo` and `hi`
/// quantiles of an ascending slice. For continuous data this is close to
/// the percentile in the middle of the band; for data that comes in a
/// few steps (delays in whole milliseconds over a theoretical delay of a
/// few tens) it moves when the share of late samples moves, where a plain
/// percentile sits on one step and then jumps.
pub fn band_mean(sorted: &[f64], lo: f64, hi: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let a = ((n - 1) as f64 * lo.clamp(0.0, 1.0)).floor() as usize;
    let b = ((n - 1) as f64 * hi.clamp(lo, 1.0)).ceil() as usize;
    let band = &sorted[a..=b];
    Some(band.iter().sum::<f64>() / band.len() as f64)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.75];

/// The highest percentile of the ladder that still has at least ten of
/// the `n` samples beyond it — a tail read from fewer is noise.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Median and tail of a latency-like sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// The percentile `tail` was read at, by [`tail_percentile`]; the
    /// median's own rank (0.5) when no ladder step is resolved.
    pub tail_at: f64,
    /// The value at `tail_at`.
    pub tail: f64,
}

/// Summarises a sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let p50 = quantile(&v, 0.5)?;
    let tail_at = tail_percentile(n).unwrap_or(0.5);
    Some(Summary {
        n,
        p50,
        p75: quantile(&v, 0.75)?,
        p90: quantile(&v, 0.9)?,
        p99: quantile(&v, 0.99)?,
        mean: v.iter().sum::<f64>() / n as f64,
        tail_at,
        tail: quantile(&v, tail_at)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn best_slice_is_the_cheapest_per_unit_of_work() {
        // Three slices of different size; the middle one ran undisturbed.
        let slices = [(130.0, 100.0), (200.0, 200.0), (70.0, 50.0), (5.0, 0.0)];
        assert_eq!(best_slice_cost(&slices), Some(1.0));
        assert_eq!(best_slice_cost(&[(1.0, 0.0)]), None);
    }

    #[test]
    fn band_mean_moves_between_the_steps_of_discrete_data() {
        // 85 samples at 1.0 and 15 at 1.1: the plain p90 is 1.1 whether
        // the late share is 11 % or 40 %; the band mean tells them apart.
        let mut v = vec![1.0; 85];
        v.extend(vec![1.1; 15]);
        assert_eq!(quantile(&v, 0.9), Some(1.1));
        let few_late = band_mean(&v, 0.85, 0.95).unwrap();
        assert!(few_late > 1.0 && few_late < 1.1, "{few_late}");
        let mut w = vec![1.0; 60];
        w.extend(vec![1.1; 40]);
        assert!((band_mean(&w, 0.85, 0.95).unwrap() - 1.1).abs() < 1e-12);
        // Continuous data: the band mean is the percentile in its middle.
        let c: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert!((band_mean(&c, 0.85, 0.95).unwrap() - 900.0).abs() < 1e-9);
        assert_eq!(band_mean(&[], 0.4, 0.6), None);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 0.5), Some(25.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn summary_reads_the_resolved_tail() {
        let v: Vec<f64> = (0..1_000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.n, 1_000);
        assert_eq!(s.tail_at, 0.99);
        assert!((s.p50 - 499.5).abs() < 1e-9);
        assert!((s.tail - s.p99).abs() < 1e-9);
        let few = summarize(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(few.tail_at, 0.5, "no tail is resolved from three samples");
    }
}
