//! Order statistics and the α–β fit the report is built from.

/// `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, linearly interpolated
/// between the two nearest order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `n` (None below 20 samples, where not
/// even the median qualifies).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    const LADDER: [(f64, usize); 6] = [
        (50.0, 2),
        (90.0, 10),
        (95.0, 20),
        (99.0, 100),
        (99.9, 1000),
        (99.99, 10_000),
    ];
    LADDER
        .iter()
        .rev()
        .find(|(_, one_in)| n >= 10 * one_in)
        .map(|&(p, _)| p)
}

/// What every timing reports of its samples: count, median, quartiles,
/// and the tail percentile the count supports.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest percentile with ≥ 10 samples
    /// beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            median: quantile(&v, 0.5),
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            tail: tail_percentile(v.len()).map(|p| (p, quantile(&v, p / 100.0))),
        }
    }
}

/// A reported timing: a median over groups of samples (the slices of a
/// window, the cold set-ups of a run) of one statistic of each group.
#[derive(Clone, Debug)]
pub struct Estimate {
    pub value: f64,
    /// Quartiles of the per-group values `value` is the median of: the
    /// run's own spread, which `--check` holds against the bound.
    pub spread: (f64, f64),
    /// All samples of all groups as one.
    pub all: Summary,
}

impl Estimate {
    /// Every value its own group: the plain median.
    pub fn of(values: &[f64]) -> Estimate {
        let all = Summary::of(values);
        Estimate {
            value: all.median,
            spread: (all.q1, all.q3),
            all,
        }
    }

    /// Median over the (non-empty) groups of each group's `q`-quantile.
    pub fn of_groups(groups: &[Vec<f64>], q: f64) -> Estimate {
        let per_group: Vec<f64> = groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                let mut g = g.clone();
                g.sort_by(f64::total_cmp);
                quantile(&g, q)
            })
            .collect();
        let of_groups = Summary::of(&per_group);
        let pooled: Vec<f64> = groups.iter().flatten().copied().collect();
        Estimate {
            value: of_groups.median,
            spread: (of_groups.q1, of_groups.q3),
            all: Summary::of(&pooled),
        }
    }
}

/// Least-squares line `t = α + β·x` through `(x, t)` points; returns
/// `(α, β)`. With fewer than two distinct `x` the slope is zero.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mt = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxt: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - mt)).sum();
    let beta = if sxx > 0.0 { sxt / sxx } else { 0.0 };
    (mt - beta * mx, beta)
}

/// Longest slice a window is cut into, seconds.
const SLICE_S: f64 = 1.0;

/// Values of `(when, value)` samples grouped into consecutive slices of
/// `[0, window)`, one second long (a quarter of a shorter window), and
/// that length. Samples outside the window are dropped.
pub fn slices(samples: &[(f64, f64)], window: f64) -> (f64, Vec<Vec<f64>>) {
    let length = SLICE_S.min(window / 4.0);
    let count = ((window / length + 1e-9) as usize).max(1);
    let mut out = vec![Vec::new(); count];
    for &(when, value) in samples {
        let i = (when / length) as usize;
        if when >= 0.0 && i < count {
            out[i].push(value);
        }
    }
    (length, out)
}

/// Latency of a window of timed operations. The box this runs on slows
/// down for a second at a time; so the median and the 99th percentile
/// are each taken per slice of the window, and the median over the slices
/// is reported: interference shorter than half the window moves neither.
pub struct Latency {
    pub p50: Estimate,
    pub p99: f64,
}

/// `samples` are `(seconds into the window, latency)`.
pub fn latency(samples: &[(f64, f64)], window: f64) -> Latency {
    let (_, slices) = slices(samples, window);
    Latency {
        p50: Estimate::of_groups(&slices, 0.5),
        p99: Estimate::of_groups(&slices, 0.99).value,
    }
}

/// Operations per second of a closed loop: `samples` are `(seconds into
/// the window at which an operation ended, seconds since the one before
/// ended)`. Per slice the rate is operations over the time they took —
/// no counting against slice edges — and the median slice is reported.
pub fn closed_loop_rate(samples: &[(f64, f64)], window: f64) -> f64 {
    let (_, slices) = slices(samples, window);
    let rates: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.len() as f64 / s.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// Completions per second of an open loop: the median over slices of the
/// completions that fell into the slice. An empty slice is a stall and
/// counts as zero.
pub fn open_loop_rate(done: &[f64], window: f64) -> f64 {
    let samples: Vec<(f64, f64)> = done.iter().map(|&d| (d, 1.0)).collect();
    let (length, slices) = slices(&samples, window);
    median(
        &slices
            .iter()
            .map(|s| s.len() as f64 / length)
            .collect::<Vec<_>>(),
    )
}
