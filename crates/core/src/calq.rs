//! A calendar-queue event structure for the DES completion path.
//!
//! The classic DES pending-event set is a binary heap: O(log n) per
//! operation and a pointer-chasing sift on every push/pop. A calendar
//! queue (Brown 1988, refined by the ladder queue) buckets events by
//! time window instead — with a width matched to the event density,
//! enqueue and dequeue are amortized O(1), and everything due at one
//! clock value drains as a *batch* from a single bucket window instead
//! of one heap pop per event.
//!
//! [`CalendarQueue`] keeps the design honest at both ends of the scale:
//!
//! * **Small occupancy** (the DES steady state: at most one in-flight
//!   completion per PE) stays in a handful of buckets and is scanned
//!   directly — an unsorted-vector min-scan, which beats a heap outright
//!   below ~16 elements and never pays bucket-administration cost.
//! * **Growth** (many PEs, retry storms, future sharded runs) doubles
//!   the bucket array once occupancy exceeds a few items per bucket and
//!   re-derives the bucket width from the observed event-time spread, so
//!   the structure converges to the textbook O(1) calendar.
//!
//! Ordering is delegated entirely to `T: Ord`, so the engines' shared
//! tie-break — `(time, rank, task key, seq)` — is preserved *exactly*:
//! events due in one window are drained together and sorted by full
//! `Ord` before they are handed back, and equal times always land in the
//! same bucket window (a window never splits a timestamp), so the pop
//! sequence is bit-identical to `BinaryHeap<Reverse<T>>` — which the
//! property tests in this module pin down.
//!
//! All storage is capacity-retaining: [`CalendarQueue::clear`] empties
//! the queue without freeing buckets, so a warm simulator reuses the
//! same allocations run after run (see [`crate::arena`]).

/// Types with a nanosecond timestamp the queue can bucket by.
///
/// `time_ns()` must equal the most-significant component of the type's
/// `Ord` — the queue batches by time and breaks ties by full `Ord`, and
/// that decomposition is only coherent when `Ord` sorts by time first.
pub trait Timed {
    /// The event's due time in nanoseconds.
    fn time_ns(&self) -> u64;
}

/// Initial (and minimum) bucket count; always a power of two by
/// construction (doubling only).
const MIN_BUCKETS: usize = 4;
/// Bucket-count ceiling — beyond this, buckets just get denser.
const MAX_BUCKETS: usize = 1 << 16;
/// Grow once occupancy exceeds this many items per bucket on average.
const GROW_PER_BUCKET: usize = 4;
/// Below this occupancy, skip the year sweep and min-scan directly.
const DIRECT_SCAN_MAX: usize = 16;

/// A calendar-queue priority queue over [`Timed`] + `Ord` events (see
/// the module docs).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<T>>,
    /// Nanoseconds per bucket window (always ≥ 1).
    width: u64,
    len: usize,
    /// Lower bound on the minimum queued time — the scan start. Raised
    /// as events are popped, lowered by out-of-order pushes.
    floor: u64,
    /// Cached minimum queued time (`None` = unknown, recompute).
    cached_min: Option<u64>,
}

impl<T: Timed> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Timed> CalendarQueue<T> {
    /// An empty queue with the minimum bucket array.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1 << 12,
            len: 0,
            floor: 0,
            cached_min: None,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the queue, retaining every bucket allocation (the warm
    /// re-run path).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.floor = 0;
        self.cached_min = None;
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t / self.width) % self.buckets.len() as u64) as usize
    }

    /// The exclusive upper bound of the window containing `t`.
    #[inline]
    fn window_hi(&self, t: u64) -> u128 {
        (t as u128 / self.width as u128 + 1) * self.width as u128
    }

    /// Enqueues an event.
    pub fn push(&mut self, item: T) {
        let t = item.time_ns();
        if t < self.floor {
            self.floor = t;
        }
        if let Some(m) = self.cached_min {
            if t < m {
                self.cached_min = Some(t);
            }
        }
        let slot = self.bucket_of(t);
        self.buckets[slot].push(item);
        self.len += 1;
        if self.len > self.buckets.len() * GROW_PER_BUCKET && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
    }

    /// Doubles the bucket array and re-derives the width from the
    /// observed event-time spread (≈ 3× the average inter-event gap, the
    /// classic calendar-queue sizing), then rehashes.
    fn grow(&mut self) {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for it in self.buckets.iter().flatten() {
            let t = it.time_ns();
            lo = lo.min(t);
            hi = hi.max(t);
        }
        let n = self.buckets.len() * 2;
        self.width = ((hi - lo) / self.len as u64).max(1).saturating_mul(3);
        let old = std::mem::replace(&mut self.buckets, (0..n).map(|_| Vec::new()).collect());
        for it in old.into_iter().flatten() {
            let slot = self.bucket_of(it.time_ns());
            self.buckets[slot].push(it);
        }
    }

    /// The minimum queued time, or `None` when empty. Cached between
    /// mutations; the scan itself is the calendar sweep (current year in
    /// window order, then a direct search for far-future events).
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some(m) = self.cached_min {
            return Some(m);
        }
        let m = self.find_min();
        self.cached_min = Some(m);
        Some(m)
    }

    fn find_min(&self) -> u64 {
        debug_assert!(self.len > 0);
        let n = self.buckets.len();
        if self.len <= DIRECT_SCAN_MAX {
            return self.direct_min();
        }
        // Sweep the current year: the first bucket holding an event
        // inside its own window holds the global minimum (later buckets
        // cover strictly later windows, and a timestamp never straddles
        // two windows).
        let year = self.floor / self.width;
        for k in 0..n as u64 {
            let slot = ((year + k) % n as u64) as usize;
            let hi = (year as u128 + k as u128 + 1) * self.width as u128;
            if let Some(m) =
                self.buckets[slot].iter().map(Timed::time_ns).filter(|&t| (t as u128) < hi).min()
            {
                return m;
            }
        }
        // Everything queued is at least a full year ahead: direct search.
        self.direct_min()
    }

    fn direct_min(&self) -> u64 {
        debug_assert!(self.len > 0, "non-empty");
        let mut min = u64::MAX;
        for bucket in &self.buckets {
            for it in bucket {
                min = min.min(it.time_ns());
            }
        }
        min
    }

    /// Pops the minimum event by full `Ord` (ties beyond the timestamp
    /// included) — the `BinaryHeap<Reverse<T>>::pop` equivalent.
    pub fn pop_min(&mut self) -> Option<T>
    where
        T: Ord,
    {
        let t = self.peek_time()?;
        let slot = self.bucket_of(t);
        let bucket = &mut self.buckets[slot];
        let mut best = usize::MAX;
        for (i, it) in bucket.iter().enumerate() {
            if it.time_ns() == t && (best == usize::MAX || *it < bucket[best]) {
                best = i;
            }
        }
        debug_assert_ne!(best, usize::MAX, "cached minimum must be present");
        let item = bucket.swap_remove(best);
        self.len -= 1;
        self.floor = t;
        self.cached_min = None;
        Some(item)
    }

    /// Drains every event with `time_ns() <= now` into `out`, in exactly
    /// the order repeated [`Self::pop_min`] calls would yield, and
    /// returns how many were drained.
    ///
    /// This is the batched path: each due bucket window is extracted in
    /// one pass and sorted by full `Ord`, so a burst of same-timestamp
    /// completions costs one bucket scan plus one small sort instead of
    /// one heap pop each.
    pub fn pop_due(&mut self, now: u64, out: &mut Vec<T>) -> usize
    where
        T: Ord,
    {
        let start = out.len();
        while let Some(t) = self.peek_time() {
            if t > now {
                break;
            }
            // Extract the whole due slice of the window containing the
            // minimum; equal timestamps always share a window, so the
            // sorted batch is globally ordered.
            let cut = self.window_hi(t).min(now as u128 + 1);
            let slot = self.bucket_of(t);
            let bucket = &mut self.buckets[slot];
            let mark = out.len();
            let mut i = 0;
            while i < bucket.len() {
                if (bucket[i].time_ns() as u128) < cut {
                    out.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            let drained = out.len() - mark;
            debug_assert!(drained > 0, "minimum must lie inside its own window");
            self.len -= drained;
            out[mark..].sort_unstable();
            self.floor = out.last().expect("drained > 0").time_ns();
            self.cached_min = None;
        }
        out.len() - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The shape of the engines' shared tie-break: `(time, rank, key,
    /// seq)`. `Ord` derives lexicographically, time first — exactly the
    /// [`Timed`] coherence requirement.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Ev {
        time: u64,
        rank: u8,
        key: (u32, u32),
        seq: u64,
    }

    impl Timed for Ev {
        fn time_ns(&self) -> u64 {
            self.time
        }
    }

    fn ev(time: u64, seq: u64) -> Ev {
        Ev { time, rank: 0, key: (seq as u32 % 3, seq as u32 % 5), seq }
    }

    #[test]
    fn pops_in_time_then_tiebreak_order() {
        let mut q = CalendarQueue::new();
        for (t, s) in [(50u64, 0u64), (10, 1), (50, 2), (10, 3), (7, 4)] {
            q.push(ev(t, s));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(7));
        let mut got = Vec::new();
        while let Some(e) = q.pop_min() {
            got.push((e.time, e.seq));
        }
        // Same-timestamp ties resolved by the full Ord (key, then seq).
        let mut want = [(50u64, 0u64), (10, 1), (50, 2), (10, 3), (7, 4)];
        want.sort_by_key(|&(t, s)| (t, (s as u32 % 3, s as u32 % 5), s));
        assert_eq!(got, want);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_batches_whole_timestamps() {
        let mut q = CalendarQueue::new();
        for s in 0..6 {
            q.push(ev(100, s));
        }
        q.push(ev(101, 6));
        q.push(ev(5_000_000, 7));
        let mut out = Vec::new();
        assert_eq!(q.pop_due(100, &mut out), 6, "all six t=100 events in one batch");
        assert!(out.iter().all(|e| e.time == 100));
        assert_eq!(q.pop_due(99, &mut out), 0, "nothing newly due");
        assert_eq!(q.pop_due(200, &mut out), 1);
        assert_eq!(out.last().unwrap().time, 101);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_retains_and_reuses() {
        let mut q = CalendarQueue::new();
        for s in 0..100 {
            q.push(ev(s * 997, s));
        }
        let grown = q.buckets.len();
        assert!(grown > MIN_BUCKETS, "100 events should have grown the calendar");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.buckets.len(), grown, "clear keeps the bucket array");
        // Reuse after clear behaves like new.
        q.push(ev(3, 0));
        q.push(ev(1, 1));
        assert_eq!(q.pop_min().unwrap().time, 1);
        assert_eq!(q.pop_min().unwrap().time, 3);
    }

    #[test]
    fn out_of_order_push_lowers_the_floor() {
        let mut q = CalendarQueue::new();
        q.push(ev(1000, 0));
        assert_eq!(q.pop_min().unwrap().seq, 0);
        // Push below the last popped time: still retrievable.
        q.push(ev(10, 1));
        q.push(ev(2000, 2));
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop_min().unwrap().seq, 1);
        assert_eq!(q.pop_min().unwrap().seq, 2);
    }

    #[test]
    fn growth_preserves_order_across_wide_spreads() {
        // Times spanning ns to seconds force both the grow path and the
        // direct-search fallback (events far beyond one year window).
        let mut q = CalendarQueue::new();
        let mut heap = BinaryHeap::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for s in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 3_000_000_000;
            q.push(ev(t, s));
            heap.push(Reverse(ev(t, s)));
        }
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(q.pop_min(), Some(want));
        }
        assert!(q.is_empty());
    }

    /// One op of the differential driver below.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push an event at `last_pop + delta` (a dispatch or a
        /// fault-retry re-insertion — both land at or after the clock).
        Push { delta: u64 },
        /// Pop one event.
        Pop,
        /// Drain everything due within `ahead` of the last popped time
        /// (the batched same-timestamp path).
        Due { ahead: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Tiny deltas make same-timestamp collisions common.
            (0u64..4).prop_map(|delta| Op::Push { delta }),
            (0u64..1_000_000).prop_map(|delta| Op::Push { delta }),
            Just(Op::Pop),
            (0u64..8).prop_map(|ahead| Op::Due { ahead }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Satellite: calendar-queue pop order ≡ `BinaryHeap<Reverse<_>>`
        /// pop order on the shared `(time, rank, key, seq)` tie-break,
        /// under arbitrary interleavings of pushes (including retry-style
        /// re-insertions after pops) and batched draining.
        #[test]
        #[cfg_attr(miri, ignore)] // exhaustive cases are too slow under miri
        fn matches_binary_heap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut q: CalendarQueue<Ev> = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
            let mut clock = 0u64; // last popped time, the DES clock analogue
            let mut seq = 0u64;
            for op in ops {
                match op {
                    Op::Push { delta } => {
                        let e = ev(clock.saturating_add(delta), seq);
                        seq += 1;
                        q.push(e);
                        heap.push(Reverse(e));
                    }
                    Op::Pop => {
                        let want = heap.pop().map(|Reverse(e)| e);
                        let got = q.pop_min();
                        prop_assert_eq!(got, want);
                        if let Some(e) = got { clock = clock.max(e.time); }
                        prop_assert_eq!(q.len(), heap.len());
                    }
                    Op::Due { ahead } => {
                        let now = clock.saturating_add(ahead);
                        let mut got = Vec::new();
                        q.pop_due(now, &mut got);
                        let mut want = Vec::new();
                        while heap.peek().is_some_and(|Reverse(e)| e.time <= now) {
                            want.push(heap.pop().map(|Reverse(e)| e).expect("peeked"));
                        }
                        prop_assert_eq!(&got, &want, "batched drain must equal heap pops");
                        if let Some(e) = got.last() { clock = clock.max(e.time); }
                    }
                }
                prop_assert_eq!(q.peek_time(), heap.peek().map(|Reverse(e)| e.time));
            }
        }
    }

    /// A miri-sized deterministic version of the differential above, so
    /// the nightly miri pass still exercises push/pop/due/grow.
    #[test]
    fn matches_binary_heap_smoke() {
        let mut q: CalendarQueue<Ev> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut x = 42u64;
        let mut clock = 0u64;
        for s in 0..200u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let e = ev(clock + x % 7, s);
            q.push(e);
            heap.push(Reverse(e));
            if x.is_multiple_of(3) {
                let want = heap.pop().map(|Reverse(e)| e);
                let got = q.pop_min();
                assert_eq!(got, want);
                if let Some(e) = got {
                    clock = clock.max(e.time);
                }
            }
        }
        let mut got = Vec::new();
        q.pop_due(u64::MAX, &mut got);
        let mut want = Vec::new();
        while let Some(Reverse(e)) = heap.pop() {
            want.push(e);
        }
        assert_eq!(got, want);
    }
}
