//! Sample statistics for the benchmark's reported figures.
//!
//! Percentiles use the nearest-rank definition and refuse to answer when
//! fewer than [`MIN_BEYOND`] samples lie beyond the requested rank: a p99
//! from 300 samples is the third-largest sample, which says more about
//! luck than about the system. [`tail`] degrades explicitly instead —
//! it reports the highest percentile the sample can support, labelled.

/// Samples that must lie strictly beyond a percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    pub q: f64,
    pub n: usize,
    pub beyond: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            self.q * 100.0,
            self.n,
            self.beyond
        )
    }
}

/// Nearest-rank index of quantile `q` in `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile of `sorted` (ascending), or a refusal when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, Refused> {
    let n = sorted.len();
    let k = if n == 0 { 0 } else { rank(q, n) };
    let beyond = n.saturating_sub(k + 1);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(Refused { q, n, beyond });
    }
    Ok(sorted[k])
}

/// A percentile as reported: which one it really is, over how many
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub q: f64,
    pub n: usize,
    pub value: f64,
}

/// The `q`-quantile when the sample supports it, else the highest
/// percentile with [`MIN_BEYOND`] samples beyond it. `None` below
/// `MIN_BEYOND + 1` samples.
pub fn tail(sorted: &[f64], q: f64) -> Option<Tail> {
    let n = sorted.len();
    if let Ok(value) = percentile(sorted, q) {
        return Some(Tail { q, n, value });
    }
    if n <= MIN_BEYOND {
        return None;
    }
    let k = n - MIN_BEYOND - 1;
    Some(Tail {
        q: (k + 1) as f64 / n as f64,
        n,
        value: sorted[k],
    })
}

/// A latency sample set, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    us: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn from_us(us: Vec<f64>) -> Self {
        Samples { us, sorted: false }
    }

    pub fn push_us(&mut self, us: f64) {
        self.us.push(us);
        self.sorted = false;
    }

    pub fn push(&mut self, d: std::time::Duration) {
        self.push_us(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.us.len()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.us.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.us
    }

    pub fn percentile(&mut self, q: f64) -> Result<f64, Refused> {
        percentile(self.sorted(), q)
    }

    pub fn tail(&mut self, q: f64) -> Option<Tail> {
        tail(self.sorted(), q)
    }

    /// p50, or 0 when there are too few samples (used only for per-layer
    /// figures, where "not exercised" reads 0).
    pub fn p50_or_zero(&mut self) -> f64 {
        self.percentile(0.5).unwrap_or(0.0)
    }

    /// The p99, or the highest percentile the samples support (see
    /// [`tail`]), or 0; for per-layer figures.
    pub fn p99_or_zero(&mut self) -> f64 {
        self.tail(0.99).map_or(0.0, |t| t.value)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Ratio of two sample sets' medians, or 0 when either is too small.
pub fn ratio_p50(mut a: Samples, mut b: Samples) -> f64 {
    match (a.percentile(0.5), b.percentile(0.5)) {
        (Ok(x), Ok(y)) if y > 0.0 => x / y,
        _ => 0.0,
    }
}

/// Stretches a run's throughput is split into (see [`median_rate`]).
pub const RATE_CHUNKS: usize = 30;
/// Stretches a run's latencies are split into (see [`stretch_quantile`]);
/// few enough that each stretch of a 25-second run holds hundreds of
/// operations.
pub const LATENCY_CHUNKS: usize = 8;

/// The median over `chunks` consecutive stretches of `us` (in time order)
/// of each stretch's `q`-quantile, or of the highest percentile the
/// stretch supports. A burst of host noise covering fewer than half the
/// stretches does not move it, where it would drag a pooled percentile.
pub fn stretch_quantile(us: &[f64], chunks: usize, q: f64) -> Option<f64> {
    let chunks = chunks.min(us.len());
    let per: Vec<f64> = (0..chunks)
        .filter_map(|j| {
            let mut part = us[j * us.len() / chunks..(j + 1) * us.len() / chunks].to_vec();
            part.sort_by(f64::total_cmp);
            tail(&part, q).map(|t| t.value)
        })
        .collect();
    (!per.is_empty()).then(|| median(&per))
}

/// Throughput as the median over `chunks` consecutive stretches of the
/// run holding equal numbers of events: `events` are `(seconds since the
/// window opened, weight)` in time order, and a stretch's rate is its
/// weight over the time since the previous stretch ended. The median
/// shrugs off a stall that a mean over the window would carry.
pub fn median_rate(events: &[(f64, f64)], chunks: usize) -> f64 {
    let chunks = chunks.min(events.len());
    if chunks == 0 {
        return 0.0;
    }
    let mut rates = Vec::with_capacity(chunks);
    let mut prev_end = 0.0;
    let mut start = 0;
    for j in 1..=chunks {
        let end = j * events.len() / chunks;
        let weight: f64 = events[start..end].iter().map(|e| e.1).sum();
        let t_end = events[end - 1].0;
        if t_end > prev_end {
            rates.push(weight / (t_end - prev_end));
        }
        prev_end = t_end;
        start = end;
    }
    median(&rates)
}

/// Median of an unsorted slice (mean of the middle pair for even n).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        // p99 of 999 samples sits at rank 990; only 9 samples lie beyond.
        let err = percentile(&ramp(999), 0.99).unwrap_err();
        assert_eq!(err.beyond, 9);
        // 1000 samples is the smallest set that supports a p99.
        assert_eq!(percentile(&ramp(1000), 0.99).unwrap(), 990.0);
        // p50 needs 20 samples.
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert_eq!(percentile(&ramp(20), 0.5).unwrap(), 10.0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let t = tail(&ramp(300), 0.99).unwrap();
        assert_eq!(t.n, 300);
        assert_eq!(t.value, 290.0);
        assert!((t.q - 290.0 / 300.0).abs() < 1e-12);
        let exact = tail(&ramp(2000), 0.99).unwrap();
        assert_eq!((exact.q, exact.value), (0.99, 1980.0));
        assert!(tail(&ramp(10), 0.5).is_none());
    }

    #[test]
    fn median_rate_ignores_a_stall() {
        // Ten events per second, with a one-second stall after event 20.
        let events: Vec<(f64, f64)> = (1..=40)
            .map(|i| {
                let t = i as f64 / 10.0;
                (if i > 20 { t + 1.0 } else { t }, 1.0)
            })
            .collect();
        let r = median_rate(&events, 4);
        assert!((r - 10.0).abs() < 1e-9, "{r}");
        // Weights count, not events.
        assert!((median_rate(&[(0.5, 3.0)], 8) - 6.0).abs() < 1e-9);
        assert_eq!(median_rate(&[], 8), 0.0);
    }

    #[test]
    fn stretch_quantile_ignores_a_burst_under_half_the_run() {
        // 8 stretches of 100 samples at 10.0; stretches 2..5 run at 50.0.
        let us: Vec<f64> = (0..800)
            .map(|i| if (200..500).contains(&i) { 50.0 } else { 10.0 })
            .collect();
        assert_eq!(stretch_quantile(&us, 8, 0.5), Some(10.0));
        assert_eq!(stretch_quantile(&us, 8, 0.9), Some(10.0));
        let mut pooled = us.clone();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(percentile(&pooled, 0.9).unwrap(), 50.0);
        assert_eq!(stretch_quantile(&[], 8, 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
