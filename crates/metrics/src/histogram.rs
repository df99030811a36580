//! Fixed-footprint streaming histograms.
//!
//! Values (nanoseconds, queue depths, …) land in one of 64 log2
//! buckets: bucket `i` holds values whose highest set bit is `i`
//! (bucket 0 also takes 0). The record path is branch-free bit math
//! plus four relaxed stores on a producer-private cell — no allocation,
//! no locks, no RMW. Cells merge losslessly (bucket-wise addition), so
//! per-thread histograms aggregate on read exactly like the sharded
//! counters in [`crate::cell`], and percentile estimates interpolate
//! within the winning bucket (≤2× relative error by construction,
//! exact `max` tracked separately).

use std::cell::Cell as StdCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets; covers the whole `u64` range.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index for a recorded value: the position of its highest set
/// bit (`v | 1` folds 0 into bucket 0).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (63 - (value | 1).leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// One producer-private histogram: 64 buckets plus count/sum/max.
struct HistSlot {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistSlot {
    fn new() -> HistSlot {
        HistSlot {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A plain (non-atomic) histogram: the merged view of a family, and
/// also the arithmetic type for tests and offline aggregation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramData {
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramData {
    fn default() -> Self {
        HistogramData::new()
    }
}

impl HistogramData {
    pub fn new() -> HistogramData {
        HistogramData { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Records one value (non-atomic; for offline use and tests).
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Merges `other` in. Merging two histograms is exactly equivalent
    /// to recording the concatenation of their samples (bucket counts
    /// are additive, `max` is associative).
    pub fn merge(&mut self, other: &HistogramData) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`: finds the bucket holding the
    /// rank-`⌈q·count⌉` sample and interpolates linearly inside it.
    /// Clamped to the exact observed `max`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = bucket_lower(i);
                let hi = bucket_upper(i).min(self.max);
                let within = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi.saturating_sub(lo)) as f64 * within;
                return (est as u64).min(self.max);
            }
            seen += c;
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

struct HistogramState {
    cells: Vec<Arc<HistSlot>>,
    retired: HistogramData,
}

/// A streaming histogram family. Producers record through private
/// cells; `data()` merges every cell plus the retired accumulator.
#[derive(Clone)]
pub struct Histogram {
    state: Arc<Mutex<HistogramState>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            state: Arc::new(Mutex::new(HistogramState {
                cells: Vec::new(),
                retired: HistogramData::new(),
            })),
        }
    }

    /// Registers a producer-private recording cell.
    pub fn cell(&self) -> HistogramCell {
        let slot = Arc::new(HistSlot::new());
        self.state.lock().unwrap().cells.push(Arc::clone(&slot));
        HistogramCell { slot, state: Arc::clone(&self.state), _not_sync: PhantomData }
    }

    /// Merged view across every live cell and all retired cells.
    pub fn data(&self) -> HistogramData {
        let state = self.state.lock().unwrap();
        let mut out = state.retired.clone();
        for cell in &state.cells {
            for (i, b) in cell.buckets.iter().enumerate() {
                out.buckets[i] += b.load(Ordering::Relaxed);
            }
            out.count += cell.count.load(Ordering::Relaxed);
            out.sum = out.sum.wrapping_add(cell.sum.load(Ordering::Relaxed));
            out.max = out.max.max(cell.max.load(Ordering::Relaxed));
        }
        out
    }
}

/// Single-writer recording handle for one [`Histogram`].
pub struct HistogramCell {
    slot: Arc<HistSlot>,
    state: Arc<Mutex<HistogramState>>,
    _not_sync: PhantomData<StdCell<()>>,
}

impl HistogramCell {
    /// Records one value: four relaxed load/store pairs, no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = &self.slot.buckets[bucket_index(value)];
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let count = &self.slot.count;
        count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let sum = &self.slot.sum;
        sum.store(sum.load(Ordering::Relaxed).wrapping_add(value), Ordering::Relaxed);
        if value > self.slot.max.load(Ordering::Relaxed) {
            self.slot.max.store(value, Ordering::Relaxed);
        }
    }

    /// Records every sample of `data` at once — exactly as if each had
    /// gone through [`Self::record`] (see [`HistogramData::merge`]).
    pub fn merge(&self, data: &HistogramData) {
        let add = |slot: &AtomicU64, n: u64| {
            slot.store(slot.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed)
        };
        for (bucket, &n) in self.slot.buckets.iter().zip(data.buckets.iter()) {
            if n > 0 {
                add(bucket, n);
            }
        }
        add(&self.slot.count, data.count);
        add(&self.slot.sum, data.sum);
        if data.max > self.slot.max.load(Ordering::Relaxed) {
            self.slot.max.store(data.max, Ordering::Relaxed);
        }
    }
}

impl Drop for HistogramCell {
    fn drop(&mut self) {
        let mut state = self.state.lock().unwrap();
        for (i, b) in self.slot.buckets.iter().enumerate() {
            state.retired.buckets[i] += b.load(Ordering::Relaxed);
        }
        state.retired.count += self.slot.count.load(Ordering::Relaxed);
        state.retired.sum = state.retired.sum.wrapping_add(self.slot.sum.load(Ordering::Relaxed));
        state.retired.max = state.retired.max.max(self.slot.max.load(Ordering::Relaxed));
        state.cells.retain(|c| !Arc::ptr_eq(c, &self.slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i).max(1)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn percentiles_bracket_samples() {
        let hist = Histogram::new();
        let cell = hist.cell();
        for v in 1..=1000u64 {
            cell.record(v);
        }
        let data = hist.data();
        assert_eq!(data.count, 1000);
        assert_eq!(data.max, 1000);
        // Log2 buckets guarantee ≤2x relative error.
        let p50 = data.p50();
        assert!((250..=1000).contains(&p50), "p50 {p50}");
        assert!(data.p90() >= p50);
        assert!(data.p99() >= data.p90());
        assert!(data.p99() <= data.max);
        assert_eq!(data.percentile(1.0), 1000);
    }

    #[test]
    fn cells_retire_into_family() {
        let hist = Histogram::new();
        let a = hist.cell();
        a.record(7);
        a.record(9);
        drop(a);
        let b = hist.cell();
        b.record(100);
        let data = hist.data();
        assert_eq!(data.count, 3);
        assert_eq!(data.sum, 116);
        assert_eq!(data.max, 100);
    }

    proptest! {
        /// `merge` is exactly "record the concatenated sample streams":
        /// identical buckets, count, sum, and max.
        #[test]
        fn merge_equals_concatenated_recording(
            left in proptest::collection::vec(any::<u64>(), 0..200),
            right in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            let mut a = HistogramData::new();
            for &v in &left { a.record(v); }
            let mut b = HistogramData::new();
            for &v in &right { b.record(v); }
            a.merge(&b);

            let mut concat = HistogramData::new();
            for &v in left.iter().chain(right.iter()) { concat.record(v); }

            prop_assert_eq!(a, concat);
        }

        /// A cell fed by `merge` holds what one fed sample by sample holds.
        #[test]
        fn cell_merge_equals_recording(
            first in proptest::collection::vec(any::<u64>(), 0..100),
            batch in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let (merged, recorded) = (Histogram::new(), Histogram::new());
            let (m, r) = (merged.cell(), recorded.cell());
            let mut data = HistogramData::new();
            for &v in &first { m.record(v); r.record(v); }
            for &v in &batch { data.record(v); r.record(v); }
            m.merge(&data);
            prop_assert_eq!(merged.data(), recorded.data());
        }
    }
}
