//! Order statistics over timing samples.

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest order statistic that still
/// has at least ten samples beyond it, so the tail figure rests on more
/// than a handful of outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the tail rank.
    pub value: f64,
    /// The percentile that rank sits at (0–100).
    pub percentile: f64,
}

/// [`Tail`] of `values`, or `None` with fewer than 11 samples (no rank
/// has ten samples beyond it).
pub fn tail(values: &[f64]) -> Option<Tail> {
    const BEYOND: usize = 10;
    let n = values.len();
    if n <= BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - 1 - BEYOND;
    Some(Tail { value: v[rank], percentile: 100.0 * (rank + 1) as f64 / n as f64 })
}

/// Consecutive samples per latency window.
pub const WINDOW: usize = 1000;

/// A latency series summarized window by window in bounded memory: each
/// run of `window` consecutive samples yields its median and its
/// [`tail`], and the series reports the median of each. Over one whole
/// long series the tail rank would sit ever closer to the maximum as the
/// run grows; a fixed window keeps the percentile fixed, and the median
/// over windows keeps one stall from setting it. Keeping every sample of
/// a long run would also grow the benchmark's own memory with run
/// length, inside `peak_rss_mb`.
#[derive(Debug)]
pub struct Windows {
    window: usize,
    count: usize,
    open: Vec<f64>,
    medians: Vec<f64>,
    tails: Vec<Tail>,
}

/// What [`Windows`] reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over windows of each window's median.
    pub p50: f64,
    /// Median over windows of each window's tail.
    pub tail: f64,
    /// The percentile the tail sits at within a window.
    pub percentile: f64,
    /// Samples in the windows summarized.
    pub samples: usize,
}

impl Default for Windows {
    fn default() -> Self {
        Windows::new(WINDOW)
    }
}

impl Windows {
    /// An empty series with `window` samples per window.
    pub fn new(window: usize) -> Windows {
        Windows {
            window,
            count: 0,
            open: Vec::with_capacity(window),
            medians: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.open.push(v);
        if self.open.len() == self.window {
            self.medians.extend(median(&self.open));
            self.tails.extend(tail(&self.open));
            self.open.clear();
        }
    }

    /// Appends another series' samples, window for window.
    pub fn absorb(&mut self, other: Windows) {
        self.count += other.count - other.open.len();
        self.medians.extend(other.medians);
        self.tails.extend(other.tails);
        for v in other.open {
            self.push(v);
        }
    }

    /// Samples pushed, windowed or not.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The summary over complete windows; a series shorter than one
    /// window is summarized whole. `None` with fewer than 11 samples.
    pub fn summary(&self) -> Option<Summary> {
        if self.tails.is_empty() {
            let t = tail(&self.open)?;
            let p50 = median(&self.open)?;
            return Some(Summary {
                p50,
                tail: t.value,
                percentile: t.percentile,
                samples: self.open.len(),
            });
        }
        Some(Summary {
            p50: median(&self.medians)?,
            tail: median(&self.tails.iter().map(|t| t.value).collect::<Vec<_>>())?,
            percentile: self.tails[0].percentile,
            samples: self.tails.len() * self.window,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave no rank with ten beyond");
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).expect("eleven samples");
        assert_eq!(t.value, 1.0, "only the minimum has ten samples beyond it");
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).expect("a thousand samples");
        assert_eq!(t.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_counts_ties_beyond_by_rank() {
        // Ties at the top still leave exactly ten ranks beyond the tail.
        let mut v = vec![5.0; 20];
        v.extend([1.0; 5]);
        let t = tail(&v).expect("25 samples");
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 60.0);
    }

    #[test]
    fn windows_report_the_median_window() {
        // Three windows of 100 with medians 49.5, 149.5, 1049.5 and tails
        // (rank 89) 89, 189, 1089; a short leftover window is dropped.
        let mut w = Windows::new(100);
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        v.extend((100..200).map(f64::from));
        v.extend((1000..1100).map(f64::from));
        v.extend([1e9; 50]);
        for x in &v {
            w.push(*x);
        }
        let s = w.summary().expect("three windows");
        assert_eq!(s, Summary { p50: 149.5, tail: 189.0, percentile: 90.0, samples: 300 });

        // Absorbing keeps each series' windows: halves split at a window
        // boundary give the whole's summary.
        let (mut a, mut b) = (Windows::new(100), Windows::new(100));
        v[..100].iter().for_each(|x| a.push(*x));
        v[100..].iter().for_each(|x| b.push(*x));
        a.absorb(b);
        assert_eq!(a.summary(), Some(s));
        assert_eq!(a.count(), v.len());
    }

    #[test]
    fn short_series_are_summarized_whole() {
        let mut w = Windows::new(100);
        (0..50).for_each(|x| w.push(f64::from(x)));
        let s = w.summary().expect("fifty samples");
        assert_eq!((s.p50, s.tail, s.samples), (24.5, 39.0, 50));
        assert_eq!(Windows::new(100).summary(), None);
    }
}
