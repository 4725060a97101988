//! Measurement helpers: a log-linear latency histogram, exact order
//! statistics for small sample sets, the open-loop schedule, and peak
//! memory.

use std::time::{Duration, Instant};

/// Sub-buckets per power of two. Values below `2 * SUB` nanoseconds are
/// kept exactly; above, a bucket spans at most `1 / SUB` of its lower
/// bound (0.8 %).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB as usize;

/// A latency histogram in nanoseconds with bounded relative error.
///
/// Quantiles interpolate linearly inside the bucket that holds the
/// requested rank, so a reported percentile moves with the data rather
/// than snapping to a bucket edge.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) - SUB;
    ((shift as u64 + 1) * SUB + mantissa) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = i / SUB - 1;
    let mantissa = i % SUB;
    ((SUB + mantissa) << shift, 1 << shift)
}

impl Hist {
    /// Record one value in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum += ns as u128;
    }

    /// Record one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record the time elapsed since `start`, returning it.
    pub fn record_since(&mut self, start: Instant) -> Duration {
        let d = start.elapsed();
        self.record(d);
        d
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64 / 1e3
        }
    }

    /// The `q`-quantile (0 < q <= 1) in nanoseconds: the value below
    /// which a share `q` of the recorded values lies, interpolated inside
    /// its bucket. 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.n as f64).max(f64::MIN_POSITIVE);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bucket_span(i);
                let frac = (target - below as f64) / c as f64;
                return lo as f64 + frac * width as f64;
            }
            below += c;
        }
        let (lo, width) = bucket_span(BUCKETS - 1);
        (lo + width) as f64
    }

    /// The `q`-quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// Share of recorded values strictly above `ns` (bucket resolution).
    pub fn share_above_ns(&self, ns: u64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let above: u64 = self.counts[bucket_of(ns) + 1..].iter().sum();
        above as f64 / self.n as f64
    }
}

/// Length of one measurement window.
pub const WINDOW: Duration = Duration::from_secs(1);

/// The end-to-end figures of one measurement window.
#[derive(Default)]
pub struct Window {
    /// Transactions finished in the window.
    pub txns: u64,
    /// Transaction latencies.
    pub txn: Hist,
    /// `send` latencies.
    pub send: Hist,
}

/// Per-window figures of a measurement cut into fixed-length windows;
/// each reported value is the median over the windows, so a burst of
/// interference moves one window, not the result.
#[derive(Default)]
pub struct Windows {
    rates: Vec<f64>,
    txn_p50: Vec<f64>,
    txn_p99: Vec<f64>,
    send_p50: Vec<f64>,
    send_p99: Vec<f64>,
    txns: u64,
    sends: u64,
}

impl Windows {
    /// Close window `w`, which lasted `len`, and start a fresh one.
    pub fn close(&mut self, w: &mut Window, len: Duration) {
        let w = std::mem::take(w);
        self.rates.push(w.txns as f64 / len.as_secs_f64());
        self.txn_p50.push(w.txn.quantile_us(0.5));
        self.txn_p99.push(w.txn.quantile_us(0.99));
        self.send_p50.push(w.send.quantile_us(0.5));
        self.send_p99.push(w.send.quantile_us(0.99));
        self.txns += w.txn.count();
        self.sends += w.send.count();
    }

    /// Windows closed so far.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Median transactions per second over the windows.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// Median over the windows of `(txn p50, txn p99, send p50, send
    /// p99)`, in microseconds.
    pub fn latencies(&self) -> [f64; 4] {
        [
            median(&self.txn_p50),
            median(&self.txn_p99),
            median(&self.send_p50),
            median(&self.send_p99),
        ]
    }

    /// The table line: window count, samples, and the spread of the
    /// per-window rates.
    pub fn describe(&self) -> String {
        let lo = self.rates.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.rates.iter().copied().fold(0.0, f64::max);
        format!(
            "{} windows: {} txn and {} send samples; txn/s per window {:.0}..{:.0}",
            self.len(),
            self.txns,
            self.sends,
            lo,
            hi
        )
    }
}

/// Median of a small sample set (mean of the two middle values when the
/// count is even). 0 when empty.
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

/// A fixed-rate open-loop schedule: request `k` is due `k * period`
/// after `start`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// A schedule issuing `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.period.mul_f64(k as f64)
    }

    /// How late request `k` was issued at `issued`; zero when on time or
    /// early.
    pub fn lateness(&self, k: u64, issued: Instant) -> Duration {
        issued.saturating_duration_since(self.due(k))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile, the reference for the histogram.
    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_axis() {
        let mut next = 0u64;
        for i in 0..2000 {
            let (lo, width) = bucket_span(i);
            assert_eq!(lo, next, "bucket {i} starts where {} ended", i - 1);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + width - 1), i);
            next = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::default();
        for v in 1..=100u64 {
            h.record_ns(v);
        }
        // Interpolation inside a width-1 bucket adds less than 1 ns.
        assert!((h.quantile_ns(0.5) - 50.0).abs() <= 1.0);
        assert!((h.quantile_ns(0.99) - 99.0).abs() <= 1.0);
        assert_eq!(h.count(), 100);
        assert!((h.mean_us() - 0.0505).abs() < 1e-9);
    }

    #[test]
    fn quantiles_track_exact_order_statistics() {
        let mut values: Vec<u64> = (0..20_000u64)
            .map(|i| (i * 7919 % 20_000) * 37 + 500)
            .collect();
        let mut h = Hist::default();
        for &v in &values {
            h.record_ns(v);
        }
        values.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let want = exact(&values, q);
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() / want <= 1.0 / SUB as f64,
                "q={q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn bimodal_percentiles_land_in_the_right_mode() {
        // 95 % fast, 5 % slow: p50 is fast, p99 is slow.
        let mut h = Hist::default();
        for i in 0..10_000u64 {
            h.record_ns(if i % 20 == 0 { 100_000 } else { 1_000 });
        }
        assert!((h.quantile_ns(0.5) - 1_000.0).abs() < 10.0);
        assert!((h.quantile_ns(0.99) - 100_000.0).abs() < 1_000.0);
        assert!((h.share_above_ns(50_000) - 0.05).abs() < 1e-9);
    }

    #[test]
    fn windows_report_medians_over_windows() {
        let mut ws = Windows::default();
        for (txns, lat) in [(100, 10_000), (300, 30_000), (200, 20_000)] {
            let mut w = Window {
                txns,
                ..Window::default()
            };
            for _ in 0..txns {
                w.txn.record_ns(lat);
                w.send.record_ns(lat / 10);
            }
            ws.close(&mut w, Duration::from_secs(1));
            assert_eq!(w.txns, 0, "closing starts a fresh window");
        }
        assert_eq!(ws.len(), 3);
        assert_eq!(ws.rate(), 200.0);
        let [p50, p99, s50, s99] = ws.latencies();
        assert!((p50 - 20.0).abs() < 0.2 && (p99 - 20.0).abs() < 0.2);
        assert!((s50 - 2.0).abs() < 0.02 && (s99 - 2.0).abs() < 0.02);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn schedule_lateness_is_measured_from_due_time() {
        let start = Instant::now();
        let s = Schedule::new(start, 1000.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(3), start + Duration::from_millis(3));
        // Issued 250 us after request 2 was due.
        let issued = start + Duration::from_micros(2_250);
        assert_eq!(s.lateness(2, issued), Duration::from_micros(250));
        // Early issue counts as on time.
        assert_eq!(s.lateness(5, issued), Duration::ZERO);
    }
}
