//! Sample sets, quantiles and process-level readings.

use std::collections::BTreeMap;
use std::time::Duration;

/// Timing samples in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one duration given in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0..=1) in nanoseconds, linearly interpolated
    /// between the two nearest ranks.
    pub fn quantile_ns(&mut self, q: f64) -> Option<f64> {
        self.sort();
        let n = self.ns.len();
        if n == 0 {
            return None;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.ns[lo] as f64 * (1.0 - frac) + self.ns[hi] as f64 * frac)
    }

    /// Every sample, in nanoseconds.
    pub fn ns(&self) -> &[u64] {
        &self.ns
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns / 1e3)
    }
}

/// Readings of named metrics, one per measuring window (about a second
/// of one activity's work), each reported as the median over the run's
/// windows.
///
/// The benchmark host is shared, and its speed drops in bursts: a fixed
/// spin loop, timed once a second, reads anywhere from 11.5 to 21.5 ms,
/// in stretches of a few seconds. A quantile or rate pooled over the
/// whole run moves with the share of the run such a burst covered; the
/// median over windows does not move while bursts cover fewer than half
/// of them. Unlike the fastest window, the median does not pick the
/// lucky stretches: a change that slows the program in half the windows
/// or more moves it fully, and each window's quantile includes every
/// operation of that window, slow ones too.
#[derive(Clone, Debug, Default)]
pub struct PerWindow(BTreeMap<&'static str, Vec<f64>>);

impl PerWindow {
    /// Records one window's reading of `name`; a window without one
    /// (NaN: no samples) is skipped.
    pub fn push(&mut self, name: &'static str, value: f64) {
        if !value.is_nan() {
            self.0.entry(name).or_default().push(value);
        }
    }

    /// The median over windows of `name`, NaN when no window had it.
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// The median of a small set of values (NaN-free).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`),
/// in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        assert_eq!(s.quantile_ns(0.5), None);
        for v in [40, 10, 30, 20] {
            s.push_ns(v);
        }
        assert_eq!(s.quantile_ns(0.0), Some(10.0));
        assert_eq!(s.quantile_ns(1.0), Some(40.0));
        assert_eq!(s.quantile_ns(0.5), Some(25.0));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn per_window_medians_skip_empty_windows() {
        let mut w = PerWindow::default();
        for v in [5.0, f64::NAN, 1.0, 3.0] {
            w.push("a", v);
        }
        assert_eq!(w.median("a"), 3.0);
        assert!(w.median("b").is_nan());
    }
}
