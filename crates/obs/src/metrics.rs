//! Atomic metric primitives: striped counters, gauges, and the
//! log2-bucketed latency histogram.

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Stripes per [`Counter`]. Each stripe lives on its own cache line,
/// so concurrent `inc`s from the worker pool and the server's serving
/// thread do not bounce one line between cores.
const STRIPES: usize = 8;

/// Number of fixed histogram buckets: bucket 0 holds exact zeros,
/// bucket `i >= 1` holds values in `2^(i-1) ..= 2^i - 1`, and the last
/// bucket tops out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// One `u64` on its own cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The stripe this thread writes to: assigned round-robin on first
/// use, stable for the thread's lifetime.
fn stripe_index() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
        s.set(v);
        v
    })
}

/// A monotonically increasing counter, striped across cache lines.
///
/// `inc`/`add` are a single relaxed `fetch_add` on the calling
/// thread's stripe; [`value`](Counter::value) sums the stripes.
/// Counters are meaningful standalone (the fleet owns its shed
/// counters whether or not observability is installed) and can be
/// shared into a [`Registry`](crate::Registry) via
/// [`register_counter`](crate::Registry::register_counter).
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all stripes.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A signed instantaneous value (queue depth, live session count).
/// Single atomic — gauges are written under their owner's own
/// synchronisation (e.g. the fleet lock), not contended.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`sub`](Gauge::sub)).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in: 0 for zero, otherwise
/// `floor(log2(v)) + 1`. Deterministic — the edges are fixed powers of
/// two, never adapted to the data, so snapshots taken on different
/// hosts or at different times merge exactly.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` holds: `0` for bucket 0, `2^i - 1` for
/// `1 <= i < 64`, and `u64::MAX` for the last (saturation) bucket.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed log2-bucketed histogram for latencies in nanoseconds (or
/// any `u64`): lock-free record path, mergeable snapshots.
///
/// `record` is three relaxed atomic RMWs (bucket, count, saturating
/// sum) — no locks, no allocation, safe from any thread including the
/// drain-loop workers.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample. The running sum saturates at `u64::MAX`
    /// instead of wrapping, so a pathological sample cannot make the
    /// mean go backwards.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop (still lock-free) for the saturating sum.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Individual fields are read
    /// with relaxed loads, so a snapshot racing a `record` may be off
    /// by in-flight samples — fine for telemetry, and snapshots taken
    /// at rest are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state. Snapshots from different
/// shards, hosts, or times [`merge`](HistogramSnapshot::merge)
/// bucketwise; saturating unsigned addition is associative and
/// commutative, so the merge order does not matter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, [`HISTOGRAM_BUCKETS`] entries.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Accumulates `other` into `self`, bucketwise and saturating.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket the `q`-quantile falls in (`q` is
    /// clamped to `0.0..=1.0`); 0 when empty. Bucket edges quantise
    /// the estimate to the next power of two — good enough to tell a
    /// 2 µs drain from a 2 ms one, which is what it is for.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(b);
            if cum >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4000);
    }

    #[test]
    fn gauge_set_add_sub() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(7);
        assert_eq!(g.value(), 8);
        g.set(-3);
        assert_eq!(g.value(), -3);
    }

    #[test]
    fn bucket_edges_are_deterministic_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose bounds contain it.
        for i in 1..HISTOGRAM_BUCKETS {
            let hi = bucket_upper_bound(i);
            let lo = bucket_upper_bound(i - 1).saturating_add(1);
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_estimates() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert!((s.mean() - 221.2).abs() < 1e-9);
        // Median of {1,2,3,100,1000} is 3 -> bucket upper bound 3.
        assert_eq!(s.approx_quantile(0.5), 3);
        assert!(s.approx_quantile(1.0) >= 1000);
    }

    #[test]
    fn duration_recording_saturates() {
        let h = Histogram::new();
        h.record_duration(Duration::from_nanos(1500));
        h.record_duration(Duration::from_secs(u64::MAX / 1000)); // > u64::MAX ns
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(
            s.buckets[HISTOGRAM_BUCKETS - 1],
            1,
            "saturated to top bucket"
        );
    }
}
