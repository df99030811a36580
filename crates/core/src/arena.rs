//! Warm per-engine scratch for the engines' hot loops.
//!
//! This module makes both engines' runs allocation-free *across* runs,
//! not just within one.
//! [`RunScratch`] owns every growable buffer an engine loop touches — the
//! DES calendar queue, the flat DAG countdowns, the ready list's backing
//! store and the scheduler's view of it, the completion columns, retry
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
//! Also here: [`CompletionEvent`], the 64-byte POD the calendar queue
//! carries (ordered by the engine-wide `(time, key, seq)` tie-break);
//! `Collected`, a completion the threaded engine read from a resource
//! handler; [`DoneColumns`], struct-of-arrays storage for completed-task
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

use crate::calq::{CalendarQueue, Timed};
use crate::exec::ReadyList;
use crate::job::CompiledScenario;
use crate::sched::{Assignment, EstimateBook, PeView};
use crate::soa::SpecSoa;
use crate::time::SimTime;

/// A task completion (or fault) scheduled on the DES calendar queue.
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
    /// engine's completion ordering and the pre-calendar-queue
    /// `BinaryHeap` event: time first, then task key, then sequence.
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

impl Timed for CompletionEvent {
    fn time_ns(&self) -> u64 {
        self.time.0
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
    /// DES: the completion event calendar queue.
    pub events: CalendarQueue<CompletionEvent>,
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
            events: CalendarQueue::new(),
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
    /// `(time, key, seq)` tie-break participates, exactly like the old
    /// heap event.
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

    /// reset() keeps capacity on every buffer — the across-runs
    /// allocation-free guarantee.
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
        let caps = (s.dag.inst_base.capacity(), s.due.capacity(), s.done.inst.capacity());
        s.reset();
        assert_eq!(s.dag.inst_base.len(), 0);
        assert_eq!(s.done.len(), 0);
        assert!(s.events.is_empty());
        assert_eq!((s.dag.inst_base.capacity(), s.due.capacity(), s.done.inst.capacity()), caps);
        // Refill after reset: still works, no stale state.
        s.events.push(ev(3, 1, 1, 0));
        s.events.push(ev(2, 0, 0, 1));
        assert_eq!(s.events.pop_min().map(|e| e.time.0), Some(2));
        assert_eq!(s.events.pop_min().map(|e| e.time.0), Some(3));
    }
}
