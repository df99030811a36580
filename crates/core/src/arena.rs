//! Warm per-engine scratch for the engines' hot loops.
//!
//! This module makes both engines' runs allocation-free *across* runs,
//! not just within one.
//! [`RunScratch`] owns every growable buffer an engine loop touches — the
//! DES pending-completion set, the flat DAG countdowns, the ready list's
//! backing store and the scheduler's view of it, the completion columns, retry
//! and placement staging, and the threaded engine's collected
//! completions and per-PE in-flight state — and lives inside
//! [`DesSimulator`] and [`Emulation`], so warm [`JobRunner`] engines,
//! warm resource pools and repeat-iteration sweep cells reuse the same
//! capacity run after run. [`RunScratch::reset`] clears lengths but
//! never frees: after the first run at a given problem size, subsequent
//! runs perform no heap allocation in the engine loop. The one
//! deliberate exception is [`DoneColumns`] — completed-task columns
//! leave the arena with the run's stats (they back the lazily-
//! materialized task log), so each run pays exactly one right-sized
//! reservation for them up front instead of reusing the previous run's
//! storage.
//!
//! Also here: [`CompletionEvent`], the 64-byte POD the DES schedules
//! (ordered by the engine-wide `(time, key, seq)` tie-break), and
//! [`PendingCompletions`], the small unordered set that holds the
//! in-flight ones — at most one per PE — and drains each due batch in
//! that order; `Collected`, a completion the threaded engine read from
//! a resource handler; [`DoneColumns`], struct-of-arrays storage for completed-task
//! facts that are materialized into [`TaskRecord`]s only if someone reads
//! the per-task log; [`DenseReady`], the `Arc`-free entry both engines'
//! ready lists queue; `DagState`, the flat per-run DAG countdowns; and
//! [`ViewScratch`], which recycles the `Vec<PeView<'_>>` scheduler-view
//! allocation across runs despite its borrowed lifetime.
//!
//! [`DesSimulator`]: crate::des::DesSimulator
//! [`Emulation`]: crate::engine::Emulation
//! [`JobRunner`]: crate::job::JobRunner
//! [`TaskRecord`]: crate::stats::TaskRecord

use std::time::Duration;

use dssoc_appmodel::error::ModelError;
use dssoc_trace::FaultKind;

use crate::exec::ReadyList;
use crate::job::CompiledScenario;
use crate::sched::{Assignment, EstimateBook, PeView};
use crate::soa::SpecSoa;
use crate::time::SimTime;

/// A task completion (or fault) the DES holds in [`PendingCompletions`].
///
/// Plain-old-data: the task is identified by `(inst, node)` index pair
/// rather than an `Arc` handle, so events copy in one move and carry no
/// refcount traffic. `col` is the PE's platform column (its index in
/// `platform.pes`), `dur_ns` the modeled duration — together with
/// `time` they reconstruct the start time without storing it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompletionEvent {
    /// Completion (or fault) timestamp.
    pub time: SimTime,
    /// Instance id (`InstanceId.0`).
    pub inst: u32,
    /// DAG node index within the instance.
    pub node: u32,
    /// Dispatch sequence number — the final tie-breaker, preserving the
    /// engine-wide `(time, key, seq)` pop order the differential suites
    /// pin down.
    pub seq: u64,
    /// PE column in `platform.pes`.
    pub col: u32,
    /// When the task became ready (for the task record).
    pub ready_at: SimTime,
    /// Modeled duration in ns (`start = time - dur_ns` absent faults).
    pub dur_ns: u64,
    /// `Some` when this event is an injected fault firing mid-task.
    pub fault: Option<FaultKind>,
}

impl CompletionEvent {
    /// The shared tie-break. Must stay aligned with the threaded
    /// engine's completion ordering: time first, then task key, then
    /// sequence. `seq` is unique per run, so the order is total.
    fn order_key(&self) -> (SimTime, u32, u32, u64) {
        (self.time, self.inst, self.node, self.seq)
    }
}

impl PartialEq for CompletionEvent {
    fn eq(&self, other: &Self) -> bool {
        self.order_key() == other.order_key()
    }
}

impl Eq for CompletionEvent {}

impl PartialOrd for CompletionEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompletionEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

/// The DES's in-flight completions and faults, kept unordered with
/// their earliest time cached.
///
/// The DES has no reservation queues: a PE holds at most one attempt in
/// flight, so the set never holds more events than the platform has PEs
/// (the push site asserts it). At that size one linear pass over the
/// set ran faster than a binary heap or a calendar queue on every
/// `des_throughput` row, 96 PEs included. [`Self::pop_due`] drains a whole
/// due batch in that pass and sorts it; the `(time, key, seq)` order is
/// total, so the batch comes out exactly as a heap would pop it.
/// [`Self::clear`] keeps the capacity, so warm runs never reallocate.
#[derive(Debug)]
pub(crate) struct PendingCompletions {
    events: Vec<CompletionEvent>,
    /// Earliest queued time (`u64::MAX` when empty).
    min_ns: u64,
}

impl Default for PendingCompletions {
    fn default() -> Self {
        PendingCompletions { events: Vec::new(), min_ns: u64::MAX }
    }
}

impl PendingCompletions {
    /// Queues an event.
    pub fn push(&mut self, ev: CompletionEvent) {
        self.min_ns = self.min_ns.min(ev.time.0);
        self.events.push(ev);
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.events.clear();
        self.min_ns = u64::MAX;
    }

    /// The earliest queued time, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        (!self.events.is_empty()).then_some(SimTime(self.min_ns))
    }

    /// Moves every event due by `now` into `out`, in `(time, key, seq)`
    /// order.
    pub fn pop_due(&mut self, now: SimTime, out: &mut Vec<CompletionEvent>) {
        if self.min_ns > now.0 {
            return;
        }
        let mark = out.len();
        let mut min_ns = u64::MAX;
        let mut i = 0;
        while i < self.events.len() {
            let t = self.events[i].time.0;
            if t <= now.0 {
                out.push(self.events.swap_remove(i));
            } else {
                min_ns = min_ns.min(t);
                i += 1;
            }
        }
        self.min_ns = min_ns;
        out[mark..].sort_unstable();
    }
}

/// One entry of an engine's [`ReadyList`]: the task as an index pair
/// plus its readiness timestamp and sequence number. No `Arc` handle —
/// pushing a task onto the ready list is a plain store with no refcount
/// traffic, and policies read these entries directly through a
/// [`ReadyView`](crate::sched::ReadyView).
#[derive(Debug, Clone, Copy)]
pub struct DenseReady {
    /// Instance id (`InstanceId.0`).
    pub inst: u32,
    /// DAG node index within the instance.
    pub node: u32,
    /// When the task became ready (last predecessor completion, the
    /// instance arrival for roots, or a retry's release).
    pub ready_ns: u64,
    /// Readiness sequence number, stamped by the ready list.
    pub seq: u64,
}

impl DenseReady {
    /// An entry for task `(inst, node)` ready at `ready_at` (the ready
    /// list stamps `seq` on push).
    pub fn new(inst: u32, node: u32, ready_at: SimTime) -> Self {
        DenseReady { inst, node, ready_ns: ready_at.0, seq: 0 }
    }
}

/// A faulted task waiting out its retry backoff.
#[derive(Debug)]
pub(crate) struct RetryEntry {
    /// When the task re-enters the ready list.
    pub release: SimTime,
    /// Dispatch seq of the faulted attempt (stable retry ordering).
    pub seq: u64,
    /// Instance id (`InstanceId.0`).
    pub inst: u32,
    /// DAG node index within the instance.
    pub node: u32,
}

/// A completion the threaded engine collected from a resource handler,
/// waiting for the emulation clock to reach its `finish`. Plain data
/// apart from a failed kernel's error: the task is its `(inst, node)`
/// pair and `col` the PE's platform column.
#[derive(Debug)]
pub(crate) struct Collected {
    /// When the completion takes effect (the fault manifestation time
    /// when `fault` is set).
    pub finish: SimTime,
    /// Instance id (`InstanceId.0`).
    pub inst: u32,
    /// DAG node index within the instance.
    pub node: u32,
    /// PE column in `platform.pes`.
    pub col: u32,
    /// Emulation time the attempt started.
    pub start: SimTime,
    /// Modeled execution duration.
    pub modeled: Duration,
    /// Host wall-clock duration of the functional execution.
    pub measured: Duration,
    /// `Some` when the fault plan rewrote this attempt's outcome.
    pub fault: Option<FaultKind>,
    /// The kernel's error, when it failed outside fault recovery.
    pub error: Option<ModelError>,
}

/// Struct-of-arrays storage for completed-task facts.
///
/// The hot loop appends six integers per completion; the fat
/// [`TaskRecord`](crate::stats::TaskRecord)s (with their `Name` clone
/// refcounts) are materialized only if someone reads the run's
/// [`TaskLog`](crate::stats::TaskLog). The threaded engine also fills
/// the two host columns (`start_ns`, `measured_ns`); the DES leaves them
/// empty, which reads as "start = finish − duration, nothing measured".
///
/// Node indices and PE columns fit 16 bits ([`MAX_NODES`] and
/// [`MAX_PES`], checked at compile): a cached result keeps these
/// columns, so every byte per task counts against the cache's memory.
///
/// [`MAX_NODES`]: crate::job::MAX_NODES
/// [`MAX_PES`]: crate::job::MAX_PES
#[derive(Debug, Default, Clone)]
pub(crate) struct DoneColumns {
    pub inst: Vec<u32>,
    pub node: Vec<u16>,
    pub col: Vec<u16>,
    pub ready_ns: Vec<u64>,
    pub finish_ns: Vec<u64>,
    pub dur_ns: Vec<u64>,
    /// Start times (wall-clock timing finishes at collection, not at
    /// start + duration).
    pub start_ns: Vec<u64>,
    /// Host-measured kernel times.
    pub measured_ns: Vec<u64>,
}

impl DoneColumns {
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        inst: u32,
        node: u32,
        col: u32,
        ready_ns: u64,
        finish_ns: u64,
        dur_ns: u64,
    ) {
        self.inst.push(inst);
        self.node.push(node as u16);
        self.col.push(col as u16);
        self.ready_ns.push(ready_ns);
        self.finish_ns.push(finish_ns);
        self.dur_ns.push(dur_ns);
    }

    /// Pre-sizes every column for `n` more completions. The DES
    /// prologue knows the run's exact task count, so the columns that
    /// move out into the run's [`TaskLog`] take one right-sized
    /// allocation each instead of doubling.
    ///
    /// [`TaskLog`]: crate::stats::TaskLog
    pub fn reserve(&mut self, n: usize) {
        self.inst.reserve(n);
        self.node.reserve(n);
        self.col.reserve(n);
        self.ready_ns.reserve(n);
        self.finish_ns.reserve(n);
        self.dur_ns.reserve(n);
    }

    /// [`Self::reserve`] for the two host columns as well.
    pub fn reserve_host(&mut self, n: usize) {
        self.reserve(n);
        self.start_ns.reserve(n);
        self.measured_ns.reserve(n);
    }

    pub fn len(&self) -> usize {
        self.inst.len()
    }

    pub fn clear(&mut self) {
        self.inst.clear();
        self.node.clear();
        self.col.clear();
        self.ready_ns.clear();
        self.finish_ns.clear();
        self.dur_ns.clear();
        self.start_ns.clear();
        self.measured_ns.clear();
    }
}

/// Per-run DAG progress in flat arrays: task `(inst, node)` has flat id
/// `inst_base[inst] + node`.
#[derive(Debug, Default)]
pub(crate) struct DagState {
    /// `instance id -> base flat task id` (prefix sums of node counts).
    pub inst_base: Vec<u32>,
    /// Per flat task id: predecessors still outstanding.
    pub remaining_preds: Vec<u32>,
    /// Per instance id: tasks still incomplete (app finishes at zero).
    pub remaining_tasks: Vec<u32>,
}

impl DagState {
    /// Lays out the countdowns for the arrivals of `scenario` (instance
    /// `i` is arrival `i`, of the app its index names); returns the
    /// run's task count.
    fn prepare(&mut self, scenario: &CompiledScenario) -> u32 {
        let specs = scenario.names().specs();
        for arrival in scenario.spec().workload.arrivals() {
            let preds = &specs[arrival.app as usize].preds;
            self.inst_base.push(self.remaining_preds.len() as u32);
            self.remaining_tasks.push(preds.len() as u32);
            self.remaining_preds.extend_from_slice(preds);
        }
        self.remaining_preds.len() as u32
    }

    /// Records task `(inst, node)` of `spec` finishing at `at`: each
    /// successor whose last predecessor this was joins `ready`. True
    /// when it was the instance's last task.
    #[inline]
    pub fn complete(
        &mut self,
        spec: &SpecSoa,
        inst: u32,
        node: u32,
        at: SimTime,
        ready: &mut ReadyList,
    ) -> bool {
        // CSR successor walk over flat countdowns.
        let base = self.inst_base[inst as usize];
        for &succ in spec.app.successors(node as usize) {
            let flat = (base + succ) as usize;
            self.remaining_preds[flat] -= 1;
            if self.remaining_preds[flat] == 0 {
                ready.push_entry(DenseReady::new(inst, succ, at));
            }
        }
        let left = &mut self.remaining_tasks[inst as usize];
        *left -= 1;
        *left == 0
    }

    fn clear(&mut self) {
        self.inst_base.clear();
        self.remaining_preds.clear();
        self.remaining_tasks.clear();
    }
}

/// Recycles the scheduler's `Vec<PeView<'_>>` allocation across runs.
///
/// The views borrow `PeDescriptor`s with the run's lifetime, so the
/// vector cannot be stored in [`RunScratch`] as-is. Since the buffer is
/// always *empty* at the take/put boundary, only the allocation (not
/// any borrowed data) crosses runs, making the lifetime cast sound.
#[derive(Debug, Default)]
pub(crate) struct ViewScratch(Vec<PeView<'static>>);

impl ViewScratch {
    /// Hands the empty backing buffer out at the caller's lifetime.
    pub fn take<'a>(&mut self) -> Vec<PeView<'a>> {
        let mut v = std::mem::take(&mut self.0);
        v.clear();
        // SAFETY: `v` is empty — it holds no `PeView` values, so no
        // `&'static PeDescriptor` is fabricated; the types differ only
        // in lifetime, so layout is identical and only the allocation
        // is reused.
        unsafe { std::mem::transmute::<Vec<PeView<'static>>, Vec<PeView<'a>>>(v) }
    }

    /// Returns the buffer, dropping all borrowed views first.
    pub fn put<'a>(&mut self, mut v: Vec<PeView<'a>>) {
        v.clear();
        // SAFETY: mirror of `take` — `v` was just cleared, so the
        // vector carries capacity only, no borrowed data.
        self.0 = unsafe { std::mem::transmute::<Vec<PeView<'a>>, Vec<PeView<'static>>>(v) };
    }
}

/// Every growable buffer an engine loop touches, owned by the engine so
/// capacity survives across runs (see module docs). Each engine uses
/// the fields it needs; the rest stay empty.
#[derive(Debug)]
pub(crate) struct RunScratch {
    /// Flat DAG countdowns.
    pub dag: DagState,
    /// Completed-task columns, materialized to records at end of run.
    pub done: DoneColumns,
    /// DES: the in-flight completions and faults.
    pub events: PendingCompletions,
    /// DES: same-timestamp batch drained from `events` each iteration.
    pub due: Vec<CompletionEvent>,
    /// Threaded engine: completions collected from the handlers, not
    /// yet due.
    pub collected: Vec<Collected>,
    /// Threaded engine: readiness time of the task in flight on each PE
    /// column (what its task record reports).
    pub ready_at: Vec<SimTime>,
    /// Threaded engine: start time of the task in flight on each PE
    /// column.
    pub started: Vec<SimTime>,
    /// Faulted tasks waiting out retry backoff.
    pub retries: Vec<RetryEntry>,
    /// Backing storage for the run's `ReadyList`.
    pub ready_buf: Vec<DenseReady>,
    /// Warm estimate book. A run uses only its values, at the slots the
    /// scenario's prototype issued, so its slot map stays empty.
    pub estimates: EstimateBook,
    /// Recycled scheduler-view allocation.
    pub views: ViewScratch,
    /// Scheduler output staging (`schedule_into` target).
    pub assignments: Vec<Assignment>,
    /// One scheduling round's placements: `(entry, PE column, duration ns)`.
    pub placed: Vec<(DenseReady, u32, u64)>,
    /// Threaded engine: the round's placements on idle PEs, `(PE column,
    /// entry)`, handed to their resource managers once the round is timed.
    pub handoff: Vec<(u32, DenseReady)>,
}

impl Default for RunScratch {
    fn default() -> Self {
        RunScratch {
            dag: DagState::default(),
            done: DoneColumns::default(),
            events: PendingCompletions::default(),
            due: Vec::new(),
            collected: Vec::new(),
            ready_at: Vec::new(),
            started: Vec::new(),
            retries: Vec::new(),
            ready_buf: Vec::new(),
            estimates: EstimateBook::new(),
            views: ViewScratch::default(),
            assignments: Vec::new(),
            placed: Vec::new(),
            handoff: Vec::new(),
        }
    }
}

impl RunScratch {
    /// Clears all per-run state, retaining capacity. The estimate book
    /// is left to [`Self::begin`].
    pub fn reset(&mut self) {
        self.dag.clear();
        self.done.clear();
        self.events.clear();
        self.due.clear();
        self.collected.clear();
        self.ready_at.clear();
        self.started.clear();
        self.retries.clear();
        self.ready_buf.clear();
        self.assignments.clear();
        self.placed.clear();
        self.handoff.clear();
    }

    /// Takes back the ready list's buffer at the end of a run, whether
    /// it finished or stopped early.
    pub fn recycle(&mut self, ready: ReadyList) {
        self.ready_buf = ready.into_buffer();
    }

    /// Resets the arena for one run of `scenario`, whose instances are
    /// its workload's arrivals: lays out the DAG countdowns and restores
    /// the estimate book. Returns the run's task count.
    pub fn begin(&mut self, scenario: &CompiledScenario) -> usize {
        self.reset();
        self.estimates.values.clone_from(&scenario.estimates_ref().values);
        self.dag.prepare(scenario) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev(time: u64, inst: u32, node: u32, seq: u64) -> CompletionEvent {
        CompletionEvent {
            time: SimTime(time),
            inst,
            node,
            seq,
            col: 0,
            ready_at: SimTime::ZERO,
            dur_ns: 0,
            fault: None,
        }
    }

    /// The engines must stay `Send` with the scratch inside them —
    /// `JobRunner` engines move across sweep worker threads.
    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunScratch>();
    }

    /// Event ordering ignores payload fields — only the shared
    /// `(time, key, seq)` tie-break participates.
    #[test]
    fn event_order_is_time_key_seq() {
        let mut events =
            [ev(5, 0, 0, 9), ev(3, 7, 0, 0), ev(3, 1, 2, 4), ev(3, 1, 2, 3), ev(3, 1, 1, 8)];
        events.sort_unstable();
        let keys: Vec<_> = events.iter().map(|e| (e.time.0, e.inst, e.node, e.seq)).collect();
        assert_eq!(
            keys,
            vec![(3, 1, 1, 8), (3, 1, 2, 3), (3, 1, 2, 4), (3, 7, 0, 0), (5, 0, 0, 9)]
        );
        // Payload differences do not affect equality.
        let mut a = ev(3, 1, 1, 8);
        a.dur_ns = 999;
        a.col = 2;
        assert_eq!(a, events[0]);
    }

    /// ViewScratch hands the same allocation back and forth without
    /// leaking borrowed views — exercised under Miri in CI.
    #[test]
    fn view_scratch_recycles_allocation() {
        use dssoc_platform::presets::zcu102;

        let mut scratch = ViewScratch::default();
        let platform = zcu102(2, 1);
        let mut views = scratch.take();
        assert!(views.is_empty());
        views.extend(platform.pes.iter().map(|pe| PeView {
            pe,
            idle: true,
            available_at: SimTime::ZERO,
        }));
        assert_eq!(views.len(), 3);
        let cap = views.capacity();
        let ptr = views.as_ptr() as usize;
        scratch.put(views);

        // Second borrow scope: same allocation, fresh lifetime.
        let platform2 = zcu102(1, 0);
        let mut views = scratch.take();
        assert!(views.is_empty());
        assert_eq!(views.capacity(), cap);
        assert_eq!(views.as_ptr() as usize, ptr);
        views.extend(platform2.pes.iter().map(|pe| PeView {
            pe,
            idle: false,
            available_at: SimTime(7),
        }));
        assert_eq!(views.len(), 1);
        scratch.put(views);
    }

    /// reset() keeps capacity on every buffer, the pending-completion
    /// set's included — the across-runs allocation-free guarantee.
    #[test]
    fn reset_retains_capacity() {
        let mut s = RunScratch::default();
        s.dag.inst_base.extend(0..100);
        s.dag.remaining_preds.extend(0..100);
        s.dag.remaining_tasks.extend(0..100);
        for i in 0..100 {
            s.done.push(i, 0, 0, 0, i as u64, 1);
            s.events.push(ev(i as u64, i, 0, i as u64));
        }
        s.due.push(ev(1, 0, 0, 0));
        s.assignments.push(Assignment { ready_idx: 0, pe: dssoc_platform::pe::PeId(0) });
        let caps = |s: &RunScratch| {
            [
                s.dag.inst_base.capacity(),
                s.due.capacity(),
                s.done.inst.capacity(),
                s.events.events.capacity(),
            ]
        };
        let before = caps(&s);
        s.reset();
        assert_eq!(s.dag.inst_base.len(), 0);
        assert_eq!(s.done.len(), 0);
        assert_eq!(s.events.peek_time(), None);
        assert_eq!(caps(&s), before);
        // Refill after reset: still works, no stale state.
        s.events.push(ev(3, 1, 1, 0));
        s.events.push(ev(2, 0, 0, 1));
        let mut out = Vec::new();
        s.events.pop_due(SimTime(2), &mut out);
        s.events.pop_due(SimTime(3), &mut out);
        assert_eq!(out.iter().map(|e| e.time.0).collect::<Vec<_>>(), [2, 3]);
    }

    /// An event at `time` whose task key and seq vary with `seq`.
    fn keyed(time: u64, seq: u64) -> CompletionEvent {
        ev(time, seq as u32 % 3, seq as u32 % 5, seq)
    }

    /// Everything queued, drained in one batch.
    fn drain(set: &mut PendingCompletions) -> Vec<CompletionEvent> {
        let mut out = Vec::new();
        set.pop_due(SimTime(u64::MAX), &mut out);
        out
    }

    #[test]
    fn pending_pops_in_time_then_tiebreak_order() {
        let mut set = PendingCompletions::default();
        for (t, s) in [(50u64, 0u64), (10, 1), (50, 2), (10, 3), (7, 4)] {
            set.push(keyed(t, s));
        }
        assert_eq!(set.len(), 5);
        assert_eq!(set.peek_time(), Some(SimTime(7)));
        let got: Vec<_> = drain(&mut set).iter().map(|e| (e.time.0, e.seq)).collect();
        // Same-timestamp ties resolved by the full Ord (key, then seq).
        let mut want = [(50u64, 0u64), (10, 1), (50, 2), (10, 3), (7, 4)];
        want.sort_by_key(|&(t, s)| (t, (s as u32 % 3, s as u32 % 5), s));
        assert_eq!(got, want);
        assert_eq!(set.peek_time(), None);
    }

    #[test]
    fn pending_pop_due_batches_whole_timestamps() {
        let mut set = PendingCompletions::default();
        for s in 0..6 {
            set.push(keyed(100, s));
        }
        set.push(keyed(101, 6));
        set.push(keyed(5_000_000, 7));
        let mut out = Vec::new();
        set.pop_due(SimTime(100), &mut out);
        assert_eq!(out.len(), 6, "all six t=100 events in one batch");
        assert!(out.iter().all(|e| e.time.0 == 100));
        set.pop_due(SimTime(99), &mut out);
        assert_eq!(out.len(), 6, "nothing newly due");
        set.pop_due(SimTime(200), &mut out);
        assert_eq!(out.last().map(|e| e.time.0), Some(101));
        assert_eq!(set.len(), 1);
        assert_eq!(set.peek_time(), Some(SimTime(5_000_000)));
    }

    #[test]
    fn pending_clear_retains_and_reuses() {
        let mut set = PendingCompletions::default();
        for s in 0..100 {
            set.push(keyed(s * 997, s));
        }
        let cap = set.events.capacity();
        set.clear();
        assert_eq!(set.len(), 0);
        assert_eq!(set.peek_time(), None);
        assert_eq!(set.events.capacity(), cap, "clear keeps the allocation");
        // Reuse after clear behaves like new: the old minimum is gone.
        set.push(keyed(3, 0));
        set.push(keyed(1, 1));
        assert_eq!(set.peek_time(), Some(SimTime(1)));
        let times: Vec<_> = drain(&mut set).iter().map(|e| e.time.0).collect();
        assert_eq!(times, [1, 3]);
    }

    #[test]
    fn pending_out_of_order_push_lowers_the_min() {
        let mut set = PendingCompletions::default();
        set.push(keyed(1000, 0));
        let mut out = Vec::new();
        set.pop_due(SimTime(1000), &mut out);
        assert_eq!(out.len(), 1);
        // Push below the last drained time: still retrievable, first.
        set.push(keyed(2000, 2));
        set.push(keyed(10, 1));
        assert_eq!(set.peek_time(), Some(SimTime(10)));
        assert_eq!(drain(&mut set).iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn pending_matches_heap_across_wide_spreads() {
        // Times spanning ns to seconds, drained in ~7 ms steps.
        let mut x = 0x9e3779b97f4a7c15u64;
        let pushes: Vec<_> = (0..500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Op::Push { delta: x % 3_000_000_000 }
            })
            .collect();
        let drains = (0..430).map(|_| Op::Due { ahead: 7_000_001 });
        check_against_heap(pushes.into_iter().chain(drains).chain([Op::Due { ahead: u64::MAX }]));
    }

    /// One op of the differential driver below.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push an event at `clock + delta` (a dispatch or a fault-retry
        /// re-insertion — both land at or after the clock).
        Push { delta: u64 },
        /// Drain everything due within `ahead` of the clock (the
        /// batched same-timestamp path).
        Due { ahead: u64 },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Tiny deltas make same-timestamp collisions common.
            (0u64..4).prop_map(|delta| Op::Push { delta }),
            (0u64..1_000_000).prop_map(|delta| Op::Push { delta }),
            (0u64..8).prop_map(|ahead| Op::Due { ahead }),
        ]
    }

    /// Drives `ops` against the set and `BinaryHeap<Reverse<_>>`: every
    /// drained batch must equal the heap's pops up to the same time,
    /// and the earliest queued times must agree after every op.
    fn check_against_heap(ops: impl IntoIterator<Item = Op>) {
        let mut set = PendingCompletions::default();
        let mut heap: BinaryHeap<Reverse<CompletionEvent>> = BinaryHeap::new();
        let mut clock = 0u64; // the DES clock analogue
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Push { delta } => {
                    let e = keyed(clock.saturating_add(delta), seq);
                    seq += 1;
                    set.push(e);
                    heap.push(Reverse(e));
                }
                Op::Due { ahead } => {
                    let now = clock.saturating_add(ahead);
                    let mut got = Vec::new();
                    set.pop_due(SimTime(now), &mut got);
                    let mut want = Vec::new();
                    while heap.peek().is_some_and(|Reverse(e)| e.time.0 <= now) {
                        want.push(heap.pop().map(|Reverse(e)| e).expect("peeked"));
                    }
                    assert_eq!(got, want, "batched drain must equal heap pops");
                    if let Some(e) = got.last() {
                        clock = clock.max(e.time.0);
                    }
                }
            }
            assert_eq!(set.len(), heap.len());
            assert_eq!(set.peek_time(), heap.peek().map(|Reverse(e)| e.time));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Drain order ≡ `BinaryHeap<Reverse<_>>` pop order on the
        /// shared `(time, key, seq)` tie-break, under arbitrary
        /// interleavings of pushes (including retry-style re-insertions
        /// after drains) and batched draining.
        #[test]
        #[cfg_attr(miri, ignore)] // exhaustive cases are too slow under miri
        fn pending_matches_binary_heap(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            check_against_heap(ops);
        }
    }

    /// A miri-sized deterministic version of the differential above, so
    /// the nightly miri pass still exercises push and drain.
    #[test]
    fn pending_matches_binary_heap_smoke() {
        let mut x = 42u64;
        let ops = (0..300).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = x >> 33;
            if r.is_multiple_of(3) {
                Op::Due { ahead: r % 5 }
            } else {
                Op::Push { delta: r % 7 }
            }
        });
        check_against_heap(ops.chain([Op::Due { ahead: u64::MAX }]));
    }
}
