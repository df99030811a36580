//! Engine-agnostic scheduling core shared by the threaded emulator
//! ([`crate::engine::Emulation`]) and the discrete-event baseline
//! ([`crate::des::DesSimulator`]).
//!
//! Both engines execute the same policy logic — the paper's workload-
//! manager phases of tracking instance progress, maintaining the ready
//! list, invoking the scheduler, and enforcing its contract — and only
//! differ in how time advances and where task durations come from. This
//! module owns that common logic so the two engines cannot drift apart:
//!
//! * [`ReadyList`] — the ready-task queue with its consumed-prefix
//!   offset and reclamation rule (the paper's flat-FRFS-overhead trick),
//! * [`PeSlots`] — the busy-PE map plus the reservation queues of the
//!   future-work work-queue feature,
//! * placement: the engine-side FIFO placement over the idle-PE mask
//!   for `dense_fifo()` policies, and for every other policy the
//!   scheduler-contract check and the staging of the assignments it
//!   made over a [`ReadyView`](crate::sched::ReadyView) of the list,
//! * [`CompletionSink`] — the statistics accumulator feeding
//!   [`EmulationStats`],
//! * [`preflight_compat`] and the fault-recovery stall resolver.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::ApplicationSpec;
use dssoc_appmodel::instance::InstanceId;
use dssoc_appmodel::workload::Arrival;
use dssoc_metrics::HistogramData;
use dssoc_platform::pe::{PeDescriptor, PeId, PlatformConfig};
use dssoc_trace::{EventKind as TraceKind, FaultKind, TraceSink, TraceWriter};

use crate::arena::{DenseReady, RetryEntry, RunScratch};
use crate::engine::EmuError;
use crate::fault::{FaultPlan, FaultState};
use crate::intern::NameTable;
use crate::job::CompiledScenario;
use crate::metrics::{EngineMetrics, OverheadPhase};
use crate::sched::{Assignment, PeView};
use crate::soa::{ScenarioSoa, INCOMPATIBLE};
use crate::stats::{
    AppColumns, AppLog, DenseTaskLog, EmulationStats, OverheadBreakdown, ReliabilityCounters,
    TaskLog,
};
use crate::time::SimTime;

/// Optional per-run trace recording handle shared by the pieces of one
/// engine loop (the loop itself, its [`ReadyList`], its
/// [`CompletionSink`]).
///
/// Disabled is the common case and costs one branch per would-be event.
/// Enabled, all clones share one [`TraceWriter`] (and therefore one
/// ring) via `Rc` — the engine loop is single-threaded, and `Rc` keeps
/// it that way: the tracer cannot be sent to another thread, which is
/// exactly the single-producer discipline the ring requires.
#[derive(Debug, Clone, Default)]
pub struct ExecTracer {
    writer: Option<Rc<TraceWriter>>,
}

impl ExecTracer {
    /// The no-op tracer (what untraced runs use).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer recording through a new producer named `producer` on
    /// `sink`'s session.
    pub fn attach(sink: &TraceSink, producer: &str) -> Self {
        ExecTracer { writer: Some(Rc::new(sink.writer(producer))) }
    }

    /// True when events are being recorded (lets callers skip building
    /// event payloads entirely).
    pub fn enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// Records one event at emulation time `at` (no-op when disabled).
    #[inline]
    pub fn emit(&self, at: SimTime, kind: TraceKind) {
        if let Some(w) = &self.writer {
            w.emit(at.0, kind);
        }
    }
}

/// The bit representing a PE in a [`SchedDecision`] candidate/chosen
/// bitmask. Platforms with more than 64 PEs fold the tail onto bit 63 —
/// the masks are decision provenance, not an exact set at that scale.
///
/// [`SchedDecision`]: dssoc_trace::EventKind::SchedDecision
pub fn pe_mask_bit(pe: PeId) -> u64 {
    1u64 << pe.0.min(63)
}

/// Registers one traced run's display metadata — policy name, PE names,
/// task and application labels — with the session. Both engines call
/// this once at run start, so exports from either engine resolve ids to
/// identical names.
///
/// `apps` is the workload's resolved app table and `arrivals` its
/// arrivals: instance `i` is arrival `i`, of the app its index names.
/// One node-name table is registered per app, so registration stays
/// cheap for workloads with many instances.
pub fn register_trace_meta(
    sink: &TraceSink,
    platform: &PlatformConfig,
    policy: &str,
    apps: &[Arc<ApplicationSpec>],
    arrivals: &[Arrival],
) {
    sink.set_policy(policy);
    for pe in &platform.pes {
        sink.set_pe(pe.id.0, &pe.name, !pe.kind.is_cpu());
    }
    for app in apps {
        sink.register_app(&app.name, app.nodes.iter().map(|n| n.name.to_string()).collect());
    }
    for (i, arrival) in arrivals.iter().enumerate() {
        sink.register_instance(i as u64, &apps[arrival.app as usize].name);
    }
}

/// Pre-flight deadlock guard shared by both engines: every node of every
/// application a workload resolves to (see
/// [`Workload::resolve`](dssoc_appmodel::workload::Workload::resolve))
/// must have at least one compatible PE in the platform, or the run
/// would stall with permanently unschedulable tasks.
pub fn preflight_compat(
    platform: &PlatformConfig,
    apps: &[Arc<ApplicationSpec>],
) -> Result<(), EmuError> {
    for spec in apps {
        for node in &spec.nodes {
            if !platform.pes.iter().any(|pe| node.supports(&pe.platform_key)) {
                return Err(EmuError::Config(format!(
                    "node '{}' of app '{}' supports none of the platform's PE types",
                    node.name, spec.name
                )));
            }
        }
    }
    Ok(())
}

/// The ready-task list: a `Vec` of [`DenseReady`] entries with a
/// consumed-prefix offset.
///
/// FRFS dispatches prefixes, so the common case is O(1) bookkeeping and
/// scheduling overhead stays flat no matter how long the queue gets
/// (paper Fig. 10b). Arbitrary-index removal (MET/EFT) compacts in one
/// pass while preserving readiness (`seq`) order, and the consumed
/// prefix is reclaimed once it dominates the buffer.
#[derive(Debug, Default)]
pub struct ReadyList {
    items: Vec<DenseReady>,
    head: usize,
    seq: u64,
    tracer: ExecTracer,
    /// The ready depth after each [`Self::push_entry`], when recorded
    /// (see [`Self::record_depth`]).
    depth_samples: Option<HistogramData>,
}

impl ReadyList {
    /// Prefix length below which reclamation is never attempted.
    const RECLAIM_MIN: usize = 1024;

    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// A list wrapping a recycled backing buffer (cleared here), so warm
    /// engines keep the ready list's capacity across runs. Pair with
    /// [`Self::into_buffer`] at end of run.
    pub fn recycled(mut buf: Vec<DenseReady>) -> Self {
        buf.clear();
        ReadyList { items: buf, ..Self::default() }
    }

    /// Surrenders the backing buffer for reuse by a later
    /// [`Self::recycled`] call. Pending entries are dropped here.
    pub fn into_buffer(mut self) -> Vec<DenseReady> {
        self.items.clear();
        self.items
    }

    /// Installs the run's tracer. [`Self::push_entry`] is the single
    /// funnel every newly ready task passes through in both engines, so
    /// this is where `task_ready` events come from.
    pub fn set_tracer(&mut self, tracer: ExecTracer) {
        self.tracer = tracer;
    }

    /// Records the list's length after every [`Self::push_entry`] into a
    /// plain histogram, for the metrics fold to take with
    /// [`Self::take_depth_samples`].
    pub fn record_depth(&mut self) {
        self.depth_samples = Some(HistogramData::new());
    }

    /// The depth samples recorded since the last call (empty when not
    /// recording).
    pub fn take_depth_samples(&mut self) -> HistogramData {
        self.depth_samples.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Appends a newly ready entry, stamping the next sequence number.
    #[inline]
    pub fn push_entry(&mut self, mut entry: DenseReady) {
        if self.tracer.enabled() {
            let (instance, node) = (entry.inst as u64, entry.node);
            self.tracer.emit(SimTime(entry.ready_ns), TraceKind::TaskReady { instance, node });
        }
        entry.seq = self.seq;
        self.items.push(entry);
        self.seq += 1;
        let depth = self.len() as u64;
        if let Some(samples) = &mut self.depth_samples {
            samples.record(depth);
        }
    }

    /// The entries awaiting dispatch, in readiness order. The scheduler
    /// contract's `ready_idx` indexes into this slice.
    pub fn pending(&self) -> &[DenseReady] {
        &self.items[self.head..]
    }

    /// Number of entries awaiting dispatch.
    pub fn len(&self) -> usize {
        self.items.len() - self.head
    }

    /// True if no entry awaits dispatch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes dispatched entries. `assignments` must be sorted by
    /// ascending `ready_idx` (indices into [`Self::pending`]). The
    /// common (FRFS) case is a prefix: O(1) head advance; arbitrary
    /// indices compact in one order-preserving pass.
    pub fn remove(&mut self, assignments: &[Assignment]) {
        debug_assert!(assignments.windows(2).all(|w| w[0].ready_idx < w[1].ready_idx));
        let is_prefix = assignments.iter().enumerate().all(|(k, a)| a.ready_idx == k);
        if is_prefix {
            self.remove_prefix(assignments.len());
            return;
        }
        // One order-preserving pass drops the consumed prefix and the
        // dispatched entries together.
        let head = self.head;
        let (mut pos, mut k) = (0usize, 0usize); // buffer index, next assignment
        self.items.retain(|_| {
            let idx = pos;
            pos += 1;
            if idx < head {
                return false;
            }
            let dispatched = k < assignments.len() && assignments[k].ready_idx == idx - head;
            k += usize::from(dispatched);
            !dispatched
        });
        self.head = 0;
    }

    /// Removes the first `n` pending entries (a FIFO dispatch round),
    /// reclaiming the consumed prefix once it dominates.
    #[inline]
    pub fn remove_prefix(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        self.head += n;
        if self.head > Self::RECLAIM_MIN && self.head * 2 > self.items.len() {
            self.items.drain(..self.head);
            self.head = 0;
        }
    }

    #[cfg(test)]
    pub(crate) fn buffer_len(&self) -> usize {
        self.items.len()
    }
}

/// The busy-PE map plus reservation queues (the paper's proposed
/// PE-level work queues): which PEs have work in flight, when they are
/// projected to free up, and which tasks are queued behind them.
///
/// Backed by dense vectors indexed by [`PeId`] (slots grow on demand, so
/// sparse id spaces still work): the engines query this structure
/// several times per PE per scheduler invocation, and vector indexing
/// keeps those queries branch-plus-load instead of a hash each.
///
/// It also keeps the idle PEs as a bitmask over platform columns
/// ([`Self::idle_mask`]), which is what FIFO placement intersects with
/// a task's compatibility mask.
#[derive(Debug)]
pub struct PeSlots {
    pes: Vec<PeSlot>,                    // by PeId
    reserved: Vec<VecDeque<DenseReady>>, // by PeId; empty until reserve()
    cols: u64,                           // every represented column
    busy_cols: u64,                      // columns with work in flight
    failed_cols: u64,                    // quarantined columns
    busy_wide: usize,                    // busy PEs past column 63
    failed_count: usize,
    depth: usize,
    ids: Vec<PeId>, // the PEs, in column order
}

/// One PE's occupancy, by `PeId`.
#[derive(Debug, Clone, Copy, Default)]
struct PeSlot {
    /// Projected (or exact) finish while work is in flight.
    busy: Option<SimTime>,
    /// The PE's column bit in the masks (0 past column 63).
    bit: u64,
    /// Quarantined.
    failed: bool,
}

impl PeSlots {
    /// All-idle state for `total` PEs with reservation-queue `depth`,
    /// where PE id `i` occupies platform column `i`.
    pub fn new(total: usize, depth: usize) -> Self {
        Self::with_columns((0..total as u32).map(PeId), depth)
    }

    /// All-idle state for `platform`'s PEs with reservation-queue
    /// `depth`; [`Self::idle_mask`] follows the descriptor order.
    pub fn for_platform(platform: &PlatformConfig, depth: usize) -> Self {
        Self::with_columns(platform.pes.iter().map(|pe| pe.id), depth)
    }

    fn with_columns(ids: impl Iterator<Item = PeId>, depth: usize) -> Self {
        let ids: Vec<PeId> = ids.collect();
        let mut pes = vec![PeSlot::default(); ids.len()];
        let mut cols = 0u64;
        for (col, id) in ids.iter().enumerate().filter(|&(col, _)| col < 64) {
            let idx = id.0 as usize;
            if idx >= pes.len() {
                pes.resize(idx + 1, PeSlot::default());
            }
            pes[idx].bit = 1u64 << col;
            cols |= 1u64 << col;
        }
        PeSlots {
            pes,
            reserved: Vec::new(),
            cols,
            busy_cols: 0,
            failed_cols: 0,
            busy_wide: 0,
            failed_count: 0,
            depth,
            ids,
        }
    }

    /// The configured reservation-queue depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of PEs with work in flight.
    pub fn busy_count(&self) -> usize {
        self.busy_cols.count_ones() as usize + self.busy_wide
    }

    /// True when no PE has work in flight.
    pub fn all_idle(&self) -> bool {
        self.busy_count() == 0
    }

    /// True if `pe` has work in flight.
    pub fn is_busy(&self, pe: PeId) -> bool {
        self.pes.get(pe.0 as usize).is_some_and(|p| p.busy.is_some())
    }

    /// Tasks queued behind `pe`'s running task.
    pub fn queued(&self, pe: PeId) -> usize {
        self.reserved.get(pe.0 as usize).map_or(0, VecDeque::len)
    }

    /// True if `pe` is quarantined (the fault-injection availability
    /// mask every scheduler must respect).
    pub fn is_failed(&self, pe: PeId) -> bool {
        self.pes.get(pe.0 as usize).is_some_and(|p| p.failed)
    }

    /// Number of quarantined PEs.
    pub fn failed_count(&self) -> usize {
        self.failed_count
    }

    /// Idle, unquarantined PEs as a bitmask over platform columns (bit
    /// `c` for `platform.pes[c]`). Columns ≥ 64 are not represented.
    #[inline]
    pub fn idle_mask(&self) -> u64 {
        self.cols & !(self.busy_cols | self.failed_cols)
    }

    /// The slot of `pe`, growing the table for ids past its end.
    fn slot_mut(&mut self, pe: PeId) -> &mut PeSlot {
        let idx = pe.0 as usize;
        if idx >= self.pes.len() {
            self.pes.resize(idx + 1, PeSlot::default());
        }
        &mut self.pes[idx]
    }

    /// Quarantines `pe`: it never reports idle again, so the scheduler
    /// contract forbids assigning to it for the rest of the run.
    pub fn fail(&mut self, pe: PeId) {
        let slot = self.slot_mut(pe);
        if !slot.failed {
            slot.failed = true;
            let bit = slot.bit;
            self.failed_cols |= bit;
            self.failed_count += 1;
        }
    }

    /// Drains `pe`'s reservation queue (tasks queued behind a task that
    /// just faulted must re-enter the ready list when the PE is
    /// quarantined).
    pub fn take_reserved(&mut self, pe: PeId) -> VecDeque<DenseReady> {
        self.reserved.get_mut(pe.0 as usize).map(std::mem::take).unwrap_or_default()
    }

    /// True if the scheduler may assign to `pe`: not quarantined, and
    /// idle or busy with reservation-queue room.
    pub fn has_room(&self, pe: PeId) -> bool {
        let slot = self.pes.get(pe.0 as usize).copied().unwrap_or_default();
        !slot.failed && (slot.busy.is_none() || self.queued(pe) < self.depth)
    }

    /// True if any PE can accept an assignment right now.
    pub fn any_schedulable(&self) -> bool {
        // An idle live PE in the masks settles it; otherwise only PEs
        // past column 63 or reservation-queue room can take work.
        self.idle_mask() != 0
            || ((self.ids.len() > 64 || self.depth > 0)
                && self.ids.iter().any(|&pe| self.has_room(pe)))
    }

    /// When `pe` is projected to become available (`now` when idle).
    pub fn available_at(&self, pe: PeId, now: SimTime) -> SimTime {
        self.pes.get(pe.0 as usize).and_then(|p| p.busy).unwrap_or(now)
    }

    /// The scheduler's view of one PE, with the shared idle semantics
    /// (a busy PE with queue room is schedulable).
    pub fn view<'a>(&self, pe: &'a PeDescriptor, now: SimTime) -> PeView<'a> {
        PeView { pe, idle: self.has_room(pe.id), available_at: self.available_at(pe.id, now) }
    }

    /// Marks `pe` busy until `finish`.
    #[inline]
    pub fn occupy(&mut self, pe: PeId, finish: SimTime) {
        let slot = self.slot_mut(pe);
        if slot.busy.replace(finish).is_none() {
            match slot.bit {
                0 => self.busy_wide += 1,
                bit => self.busy_cols |= bit,
            }
        }
    }

    /// Extends `pe`'s projected finish by `by` (a reservation joined its
    /// queue).
    pub fn extend(&mut self, pe: PeId, by: Duration) {
        if let Some(t) = self.pes.get_mut(pe.0 as usize).and_then(|p| p.busy.as_mut()) {
            *t += by;
        }
    }

    /// Queues a task behind `pe`'s running task. Invariant: only valid
    /// while the PE is busy and its queue has room.
    pub fn reserve(&mut self, pe: PeId, entry: DenseReady) {
        debug_assert!(self.is_busy(pe) && self.queued(pe) < self.depth);
        let idx = pe.0 as usize;
        if idx >= self.reserved.len() {
            self.reserved.resize_with(idx + 1, VecDeque::new);
        }
        self.reserved[idx].push_back(entry);
    }

    /// Handles `pe`'s completion: pops its next reserved task (the PE
    /// stays busy and starts it immediately), or marks it idle.
    #[inline]
    pub fn release(&mut self, pe: PeId) -> Option<DenseReady> {
        if self.depth > 0 {
            let next = self.reserved.get_mut(pe.0 as usize).and_then(VecDeque::pop_front);
            if next.is_some() {
                return next;
            }
        }
        if let Some(slot) = self.pes.get_mut(pe.0 as usize) {
            if slot.busy.take().is_some() {
                match slot.bit {
                    0 => self.busy_wide -= 1,
                    bit => self.busy_cols &= !bit,
                }
            }
        }
        None
    }
}

/// Engine-side FIFO placement for a `dense_fifo()` policy on a ≤64-PE
/// platform: strict FIFO, first idle compatible PE in descriptor order,
/// stopping at the first head task that cannot start — `compat & idle`'s
/// lowest set bit is exactly FRFS's placement rule. Stages `(entry, PE
/// column, modeled cost ns)` into `placed` in `ready_idx` order; the
/// placements are the engine's own, so they skip the contract check.
#[inline]
pub(crate) fn place_fifo(
    pending: &[DenseReady],
    mut idle: u64,
    soa: &ScenarioSoa,
    names: &NameTable,
    placed: &mut Vec<(DenseReady, u32, u64)>,
) {
    for e in pending {
        let spec = &soa.specs[names.spec_index(InstanceId(e.inst as u64))];
        let fits = spec.compat[e.node as usize] & idle;
        if fits == 0 {
            break;
        }
        let col = fits.trailing_zeros();
        idle &= !(1u64 << col);
        let dur_ns = spec.cost_ns[e.node as usize * soa.stride + col as usize];
        placed.push((*e, col, dur_ns));
    }
}

/// Enforces the scheduler contract on a policy's `assignments` over the
/// `pending` ready entries it was shown, before any state is touched —
/// indices in bounds, PEs with room, no double assignment of a PE or a
/// task, platform compatibility (the SoA sentinel probe) — then stages
/// them into `placed` as `(entry, PE column, modeled cost ns)` in
/// `ready_idx` order (sorting `assignments` that way too). Both engines
/// run exactly this check.
///
/// Allocation-free: duplicate detection scans the already-validated
/// prefix of `assignments` instead of building side tables. Batches are
/// bounded by the PE count (times queue depth), so the scan is tiny.
pub(crate) fn stage_assignments(
    scheduler_name: &str,
    assignments: &mut [Assignment],
    pending: &[DenseReady],
    slots: &PeSlots,
    names: &NameTable,
    soa: &ScenarioSoa,
    placed: &mut Vec<(DenseReady, u32, u64)>,
) -> Result<(), EmuError> {
    let cost = |e: &DenseReady, col: usize| {
        soa.specs[names.spec_index(InstanceId(e.inst as u64))].cost_ns
            [e.node as usize * soa.stride + col]
    };
    for (k, a) in assignments.iter().enumerate() {
        // Assignments earlier in this batch targeting the same PE: they
        // consume reservation-queue room (busy PE) or the PE itself.
        let same_pe_before = assignments[..k].iter().filter(|b| b.pe == a.pe).count();
        let room = if slots.is_busy(a.pe) {
            slots.queued(a.pe) + same_pe_before < slots.depth()
        } else {
            same_pe_before == 0
        };
        let ok = a.ready_idx < pending.len()
            && room
            && !slots.is_failed(a.pe)
            && !assignments[..k].iter().any(|b| b.ready_idx == a.ready_idx)
            && names
                .pe_column(a.pe)
                .is_some_and(|c| cost(&pending[a.ready_idx], c) != INCOMPATIBLE);
        if !ok {
            return Err(EmuError::Config(format!(
                "scheduler '{scheduler_name}' violated the assignment contract ({a:?})"
            )));
        }
    }
    assignments.sort_unstable_by_key(|a| a.ready_idx);
    placed.extend(assignments.iter().map(|a| {
        let e = pending[a.ready_idx];
        let col = names.pe_column(a.pe).expect("validated PE");
        (e, col as u32, cost(&e, col))
    }));
    Ok(())
}

/// Moves the retries released by `now` into the ready list, in
/// deterministic (release, seq) order; returns how many.
pub(crate) fn release_retries(
    retries: &mut Vec<RetryEntry>,
    now: SimTime,
    ready: &mut ReadyList,
) -> usize {
    retries.sort_by_key(|r| (r.release, r.seq));
    let due = retries.iter().take_while(|r| r.release <= now).count();
    for r in retries.drain(..due) {
        ready.push_entry(DenseReady::new(r.inst, r.node, r.release));
    }
    due
}

/// The per-run pieces both engine loops start from: the tracer, the
/// ready list (on the warm arena's recycled buffer), the PE slots and
/// the statistics sink, wired together.
pub(crate) struct RunParts {
    pub ready: ReadyList,
    pub slots: PeSlots,
    pub sink: CompletionSink,
    pub tracer: ExecTracer,
}

impl RunParts {
    /// Sets up one run of `scenario` (its instances are its workload's
    /// arrivals) on `platform` with reservation-queue `depth`, published
    /// to `metrics`; `trace` is the sink with the run's policy label and
    /// the engine's producer name. Pair with [`RunScratch::recycle`].
    pub fn new(
        platform: &PlatformConfig,
        depth: usize,
        metrics: Option<&mut EngineMetrics>,
        scenario: &CompiledScenario,
        trace: Option<(&TraceSink, &str, &str)>,
        s: &mut RunScratch,
    ) -> Self {
        let (names, arrivals) = (scenario.names(), scenario.spec().workload.arrivals());
        let tracer = match trace {
            Some((trace_sink, policy, producer)) => {
                register_trace_meta(trace_sink, platform, policy, names.specs(), arrivals);
                ExecTracer::attach(trace_sink, producer)
            }
            None => ExecTracer::disabled(),
        };
        let mut ready = ReadyList::recycled(std::mem::take(&mut s.ready_buf));
        if let Some(m) = metrics {
            m.begin_run(names);
            ready.record_depth();
        }
        ready.set_tracer(tracer.clone());
        let slots = PeSlots::for_platform(platform, depth);
        let mut sink = CompletionSink::new();
        sink.apps.reserve(arrivals.len());
        sink.set_tracer(tracer.clone());
        RunParts { ready, slots, sink, tracer }
    }

    /// Resolves a stall — ready tasks, nothing in flight, nothing due:
    /// with fault recovery on (`faults`), tasks that lost their last
    /// compatible PE abort their applications and the loop goes on
    /// (`Ok`); otherwise the policy dispatches nothing, a deadlock.
    pub fn resolve_stall(
        &mut self,
        platform: &PlatformConfig,
        faults: Option<&mut FaultState>,
        names: &NameTable,
        soa: &ScenarioSoa,
        scheduler: &str,
    ) -> Result<(), EmuError> {
        let resolved = match faults {
            Some(state) => {
                let (slots, sink) = (&mut self.slots, &mut self.sink);
                resolve_unschedulable(platform, slots, &mut self.ready, state, sink, names, soa)?
            }
            None => false,
        };
        if resolved {
            return Ok(());
        }
        Err(EmuError::Config(format!(
            "deadlock: {} ready task(s) but scheduler '{scheduler}' dispatches nothing and no work is in flight",
            self.ready.len(),
        )))
    }
}

/// Statistics accumulator shared by both engines: application records,
/// overhead, invocation and reliability counters, folded with the run's
/// completion columns into an [`EmulationStats`] when the run ends. The
/// engines' metrics are folded from the same state (see
/// [`crate::metrics`]).
#[derive(Debug, Default)]
pub struct CompletionSink {
    apps: AppColumns,
    tracer: ExecTracer,
    /// Degraded dispatches, every one (the reliability counter counts
    /// distinct tasks).
    pub(crate) degraded_dispatches: u64,
    /// Accumulated workload-manager overhead.
    pub overhead: OverheadBreakdown,
    /// Number of scheduler invocations.
    pub sched_invocations: u64,
    /// Fault-injection and recovery counters.
    pub reliability: ReliabilityCounters,
}

impl CompletionSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the run's tracer. Every task and application completion
    /// in both engines funnels through this sink, so the `task_slice`
    /// and `app_finish` events the engines emit are structurally
    /// identical — which is what makes event streams diffable across
    /// engines.
    pub fn set_tracer(&mut self, tracer: ExecTracer) {
        self.tracer = tracer;
    }

    /// The application records so far, in completion order.
    pub(crate) fn apps(&self) -> &AppColumns {
        &self.apps
    }

    /// One scheduler invocation.
    pub fn note_sched_invocation(&mut self) {
        self.sched_invocations += 1;
    }

    /// Charges `d` of workload-manager overhead to `phase`.
    pub fn charge_overhead(&mut self, phase: OverheadPhase, d: Duration) {
        match phase {
            OverheadPhase::Monitor => self.overhead.monitor += d,
            OverheadPhase::Update => self.overhead.update += d,
            OverheadPhase::Schedule => self.overhead.schedule += d,
            OverheadPhase::Dispatch => self.overhead.dispatch += d,
        }
    }

    /// Records an application abort (fault recovery ran out of options
    /// for one of its tasks).
    pub fn record_abort(&mut self) {
        self.reliability.apps_aborted += 1;
    }

    /// Records an application completing despite injected faults.
    pub fn record_survival(&mut self) {
        self.reliability.apps_completed_despite_faults += 1;
    }

    /// Emits one completed task's `task_slice` from its raw fields.
    /// Engines skip the call when the run is not traced.
    pub(crate) fn trace_task(
        &self,
        pe: PeId,
        (instance, node): (u64, u32),
        ready_at: SimTime,
        start: SimTime,
        finish: SimTime,
    ) {
        let (ready_ns, start_ns, finish_ns) = (ready_at.0, start.0, finish.0);
        let slice =
            TraceKind::TaskSlice { instance, node, pe: pe.0, ready_ns, start_ns, finish_ns };
        self.tracer.emit(finish, slice);
    }

    /// Records instance `inst`, which arrived as `arrival`, finishing its
    /// last task at `finish`, and, when one of its attempts faulted
    /// (`faults`), that it survived.
    pub(crate) fn finish_instance(
        &mut self,
        inst: u32,
        arrival: Arrival,
        finish: SimTime,
        faults: Option<&FaultState>,
    ) {
        if faults.is_some_and(|f| f.had_faults(inst as u64)) {
            self.record_survival();
        }
        self.tracer.emit(finish, TraceKind::AppFinish { instance: inst as u64 });
        self.apps.push(inst, arrival.at_ns, finish.0);
    }

    /// Emits the scheduling decision taken at `at`: the PEs with room
    /// (exactly the `idle` the policy's views carry) and the PE columns
    /// `placed` chose.
    pub(crate) fn trace_decision(
        &self,
        at: SimTime,
        platform: &PlatformConfig,
        slots: &PeSlots,
        placed: &[(DenseReady, u32, u64)],
        ready: usize,
    ) {
        let pes = platform.pes.iter();
        let candidates =
            pes.filter(|pe| slots.has_room(pe.id)).fold(0u64, |m, pe| m | pe_mask_bit(pe.id));
        let pe = |col: u32| platform.pes[col as usize].id;
        let chosen = placed.iter().fold(0u64, |m, p| m | pe_mask_bit(pe(p.1)));
        self.tracer.emit(
            at,
            TraceKind::SchedDecision {
                invocation: self.sched_invocations,
                ready: ready as u32,
                candidates,
                chosen,
                assigned: placed.len() as u32,
            },
        );
    }

    /// Records one faulted execution attempt (trace event + per-kind
    /// counters). Faulted attempts produce no
    /// [`TaskRecord`](crate::stats::TaskRecord) and charge
    /// no PE busy time — the work was lost.
    pub fn record_fault(
        &mut self,
        at: SimTime,
        instance: u64,
        node: usize,
        pe: PeId,
        kind: FaultKind,
    ) {
        self.tracer.emit(at, TraceKind::Fault { instance, node: node as u32, pe: pe.0, kind });
        let r = &mut self.reliability;
        r.faults_injected += 1;
        match kind {
            FaultKind::Transient => r.transient_faults += 1,
            FaultKind::Permanent => r.permanent_faults += 1,
            FaultKind::Hang => r.hang_faults += 1,
            FaultKind::Watchdog => r.watchdog_faults += 1,
            FaultKind::Exec => r.exec_faults += 1,
        }
    }

    /// Records one retry grant: the faulted attempt (1-based) will be
    /// re-attempted once the ready list reaches `release`.
    pub fn record_retry(
        &mut self,
        at: SimTime,
        instance: u64,
        node: usize,
        attempt: u32,
        release: SimTime,
    ) {
        self.tracer.emit(
            at,
            TraceKind::Retry { instance, node: node as u32, attempt, release_ns: release.0 },
        );
        self.reliability.retries += 1;
    }

    /// Records a PE quarantine at `at` (the fault time, not the
    /// detection time).
    pub fn record_quarantine(&mut self, at: SimTime, pe: PeId) {
        self.tracer.emit(at, TraceKind::Quarantine { pe: pe.0 });
        self.reliability.pes_quarantined += 1;
    }

    /// Records a degraded dispatch — a retried task landing on a
    /// different PE class than the one it faulted on. `first` is true
    /// the first time this task degrades (the unique-task counter).
    pub fn record_degraded(
        &mut self,
        at: SimTime,
        instance: u64,
        node: usize,
        pe: PeId,
        first: bool,
    ) {
        self.tracer.emit(at, TraceKind::DegradedDispatch { instance, node: node as u32, pe: pe.0 });
        self.degraded_dispatches += 1;
        if first {
            self.reliability.tasks_degraded += 1;
        }
    }

    /// Folds the run into its statistics. The per-task facts arrive as
    /// dense columns (each engine emits a completion's trace events
    /// inline and records nothing here), and stay
    /// dense in the returned stats (see [`TaskLog`](crate::stats::TaskLog)).
    /// PE busy time and makespan are computed with one pass over the
    /// columns: a PE's busy time is the sum of its tasks' modeled
    /// durations, and it appears in the map once it ran a task, even a
    /// zero-duration one.
    pub(crate) fn finish(self, scheduler: String, dense: DenseTaskLog) -> EmulationStats {
        let (cols, platform) = (&dense.cols, &*dense.platform);
        let mut busy = vec![0u64; platform.pes.len()];
        let mut seen = vec![false; platform.pes.len()];
        for k in 0..cols.len() {
            let c = cols.col[k] as usize;
            busy[c] += cols.dur_ns[k];
            seen[c] = true;
        }
        // Completions are not recorded in finish order in every timing
        // mode, so the latest finish is a maximum, not the last entry.
        let makespan = self
            .apps
            .finish_ns
            .iter()
            .chain(cols.finish_ns.iter())
            .max()
            .map_or(Duration::ZERO, |&t| SimTime(t).as_duration());
        EmulationStats {
            platform: platform.name.clone(),
            scheduler,
            makespan,
            apps: AppLog::from_dense(self.apps, Arc::clone(&dense.names)),
            pe_busy: platform
                .pes
                .iter()
                .zip(busy.iter().zip(seen.iter()))
                .filter(|(_, (_, &s))| s)
                .map(|(pe, (&ns, _))| (pe.id, Duration::from_nanos(ns)))
                .collect(),
            pe_names: platform.pes.iter().map(|pe| (pe.id, pe.name.clone())).collect(),
            sched_invocations: self.sched_invocations,
            overhead: self.overhead,
            reliability: self.reliability,
            tasks: TaskLog::from_dense(dense),
            app_agg: std::sync::OnceLock::new(),
        }
    }
}

/// The fault machinery of one engine run, present only with a fault
/// plan: the plan, the recovery state, and the steps both engines take
/// identically around them. The steps run out of line: fault-free runs
/// never call them, and keeping their bodies out of the engine loops
/// keeps the loops tight.
pub(crate) struct RunFaults<'a> {
    pub plan: &'a FaultPlan,
    pub state: FaultState,
    pub platform: &'a PlatformConfig,
    pub soa: &'a ScenarioSoa,
    pub names: &'a NameTable,
    pub tracer: ExecTracer,
    retry_seq: u64,
}

impl<'a> RunFaults<'a> {
    pub fn new(
        plan: &'a FaultPlan,
        platform: &'a PlatformConfig,
        soa: &'a ScenarioSoa,
        names: &'a NameTable,
        tracer: ExecTracer,
    ) -> Self {
        let state = FaultState::new(plan.retry.clone());
        RunFaults { plan, state, platform, soa, names, tracer, retry_seq: 0 }
    }

    /// The runfunc task `(instance, node)` executes on PE column `col`
    /// (empty where incompatible) — what fault rules match on.
    pub fn kernel(&self, instance: u64, node: usize, col: usize) -> &'a str {
        let spec = &self.soa.specs[self.names.spec_index(InstanceId(instance))];
        spec.runfunc(node, node * self.soa.stride + col)
    }

    /// Notes the dispatch of `(instance, node)` on PE column `col` at
    /// `at` and returns its 1-based attempt number. A retry landing on a
    /// PE of another platform key than the one it last faulted on is
    /// recorded as a degraded dispatch.
    #[cold]
    #[inline(never)]
    pub fn note_dispatch(
        &mut self,
        instance: u64,
        node: usize,
        col: usize,
        at: SimTime,
        sink: &mut CompletionSink,
    ) -> u32 {
        let pe = &self.platform.pes[col];
        let attempt = self.state.attempt_of(instance, node);
        if attempt > 1 {
            if let Some(prev) = self.state.last_fault_pe(instance, node) {
                let prev_key =
                    self.names.pe_column(prev).map(|c| self.platform.pes[c].platform_key.as_str());
                if prev_key != Some(pe.platform_key.as_str()) {
                    let first = self.state.note_degraded(instance, node);
                    sink.record_degraded(at, instance, node, pe.id, first);
                }
            }
        }
        attempt
    }

    /// A faulted attempt of `(instance, node)` on `pe` at `at`: no task
    /// record, no estimate update, no DAG progress — the work was lost.
    /// Records the fault and runs the recovery policy; the engine then
    /// frees or quarantines the PE and calls [`Self::settle`].
    #[cold]
    #[inline(never)]
    pub fn on_fault(
        &mut self,
        at: SimTime,
        instance: u64,
        node: usize,
        pe: PeId,
        kind: FaultKind,
        sink: &mut CompletionSink,
    ) -> crate::fault::FaultAction {
        sink.record_fault(at, instance, node, pe, kind);
        self.state.on_fault(self.plan, instance, node, pe, kind, at)
    }

    /// Books a fault's outcome for task `(inst, node)`: its retry (it
    /// re-enters the ready list at the release time) or its
    /// application's abort.
    pub fn settle(
        &mut self,
        action: crate::fault::FaultAction,
        at: SimTime,
        inst: u32,
        node: u32,
        sink: &mut CompletionSink,
        retries: &mut Vec<RetryEntry>,
    ) {
        if let Some((attempt, release)) = action.retry {
            sink.record_retry(at, inst as u64, node as usize, attempt, release);
            retries.push(RetryEntry { release, seq: self.retry_seq, inst, node });
            self.retry_seq += 1;
        } else if action.newly_aborted {
            sink.record_abort();
        }
    }
}

/// Quarantines every idle PE of `platform` whose scheduled permanent
/// failure has passed by `now`, for either engine (busy PEs die through
/// their in-flight attempt's fault decision instead). Runs only under a
/// fault plan, so it stays out of line of the engine loops.
#[cold]
#[inline(never)]
pub fn fail_idle_pes(
    plan: &FaultPlan,
    platform: &PlatformConfig,
    now: SimTime,
    slots: &mut PeSlots,
    sink: &mut CompletionSink,
) {
    for pe in platform.pes.iter().map(|pe| pe.id) {
        if slots.is_failed(pe) || slots.is_busy(pe) {
            continue;
        }
        if let Some(tf) = plan.permanent_failure_at(pe) {
            if tf <= now {
                slots.fail(pe);
                sink.record_quarantine(tf, pe);
            }
        }
    }
}

/// Resolves a stall with ready tasks but nothing schedulable, on behalf
/// of either engine's fault-recovery path:
///
/// * every PE quarantined with work remaining → unrecoverable,
///   [`EmuError::Fault`] with the last fault's context;
/// * some ready tasks have no surviving compatible PE → abort their
///   applications (counted once each), drop them from the ready list,
///   and return `Ok(true)` so the engine loop re-evaluates;
/// * otherwise → `Ok(false)`: the remaining tasks *are* schedulable on
///   live PEs, so the stall is a genuine scheduler deadlock and the
///   caller reports its usual deadlock error.
///
/// Compatibility is the SoA sentinel probe.
pub(crate) fn resolve_unschedulable(
    platform: &PlatformConfig,
    slots: &mut PeSlots,
    ready: &mut ReadyList,
    state: &mut FaultState,
    sink: &mut CompletionSink,
    names: &NameTable,
    soa: &ScenarioSoa,
) -> Result<bool, EmuError> {
    let mut doomed: Vec<Assignment> = Vec::new();
    for (idx, entry) in ready.pending().iter().enumerate() {
        let (inst, node) = (entry.inst as u64, entry.node);
        let spec = &soa.specs[names.spec_index(InstanceId(inst))];
        let live = platform.pes.iter().enumerate().any(|(col, pe)| {
            !slots.is_failed(pe.id)
                && spec.cost_ns[node as usize * soa.stride + col] != INCOMPATIBLE
        });
        if !live {
            // ReadyList::remove only reads ready_idx; the PE field is a
            // placeholder.
            doomed.push(Assignment { ready_idx: idx, pe: PeId(0) });
        }
    }
    if doomed.is_empty() {
        return Ok(false);
    }
    if slots.failed_count() == platform.pes.len() {
        let (instance, node, pe) = state.last_context().unwrap_or((0, 0, PeId(0)));
        let id = InstanceId(instance);
        return Err(EmuError::Fault {
            app: names.app(id).as_str().to_string(),
            node: names.node(id, node).as_str().to_string(),
            pe: platform
                .pes
                .iter()
                .find(|p| p.id == pe)
                .map_or_else(|| format!("pe{}", pe.0), |p| p.name.clone()),
            reason: format!("every PE is quarantined with {} task(s) still ready", ready.len()),
        });
    }
    for a in &doomed {
        let inst = ready.pending()[a.ready_idx].inst as u64;
        if state.abort(inst) {
            sink.record_abort();
        }
    }
    ready.remove(&doomed);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An entry for node `i % 8` of instance 0 (ordering logic only looks
    /// at `seq`, which the list stamps).
    fn entry(i: usize) -> DenseReady {
        DenseReady::new(0, (i % 8) as u32, SimTime(i as u64))
    }

    /// Builds a ReadyList of `n` tasks with seq 0..n.
    fn filled(n: usize) -> ReadyList {
        let mut list = ReadyList::new();
        (0..n).for_each(|i| list.push_entry(entry(i)));
        list
    }

    fn seqs(list: &ReadyList) -> Vec<u64> {
        list.pending().iter().map(|e| e.seq).collect()
    }

    #[test]
    fn prefix_removal_advances_head() {
        let mut list = filled(6);
        let asg: Vec<Assignment> =
            (0..2).map(|i| Assignment { ready_idx: i, pe: dssoc_platform::pe::PeId(0) }).collect();
        list.remove(&asg);
        assert_eq!(seqs(&list), vec![2, 3, 4, 5]);
        // Buffer unchanged: prefix removal is O(1).
        assert_eq!(list.buffer_len(), 6);
    }

    #[test]
    fn scattered_removal_compacts_in_order() {
        let mut list = filled(6);
        let asg: Vec<Assignment> = [1usize, 3, 4]
            .iter()
            .map(|&i| Assignment { ready_idx: i, pe: dssoc_platform::pe::PeId(0) })
            .collect();
        list.remove(&asg);
        assert_eq!(seqs(&list), vec![0, 2, 5]);
    }

    #[test]
    fn prefix_is_reclaimed_once_it_dominates() {
        let mut list = filled(3000);
        // Consume 2900 as prefixes of one.
        for _ in 0..2900 {
            list.remove(&[Assignment { ready_idx: 0, pe: dssoc_platform::pe::PeId(0) }]);
        }
        assert_eq!(list.len(), 100);
        assert!(
            list.buffer_len() < 3000,
            "consumed prefix should have been reclaimed (buffer {})",
            list.buffer_len()
        );
        assert_eq!(seqs(&list), (2900..3000).collect::<Vec<u64>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Any interleaving of pushes and (sorted) removals keeps the
        /// pending slice in strictly increasing seq order and removes
        /// exactly the chosen entries — the invariant FRFS relies on.
        fn ready_list_preserves_seq_order(ops in proptest::collection::vec((1u8..6, proptest::prelude::any::<u64>()), 1..40)) {
            let mut list = ReadyList::new();
            let mut model: Vec<u64> = Vec::new();
            let mut next_seq = 0u64;
            for (pushes, mask) in ops {
                for _ in 0..pushes {
                    list.push_entry(entry(next_seq as usize));
                    model.push(next_seq);
                    next_seq += 1;
                }
                // Remove the pending subset selected by the mask bits.
                let chosen: Vec<usize> =
                    (0..list.len().min(64)).filter(|i| mask & (1 << i) != 0).collect();
                let asg: Vec<Assignment> = chosen
                    .iter()
                    .map(|&i| Assignment { ready_idx: i, pe: dssoc_platform::pe::PeId(0) })
                    .collect();
                let removed: Vec<u64> = chosen.iter().map(|&i| model[i]).collect();
                list.remove(&asg);
                model.retain(|s| !removed.contains(s));
                let got = seqs(&list);
                prop_assert_eq!(&got, &model);
                prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "seq order broken: {:?}", got);
            }
        }
    }

    #[test]
    fn pe_slots_reservation_lifecycle() {
        let pe = dssoc_platform::pe::PeId(7);
        let mut slots = PeSlots::new(2, 1);
        assert!(slots.all_idle() && slots.has_room(pe) && slots.any_schedulable());

        slots.occupy(pe, SimTime(100));
        assert!(slots.is_busy(pe));
        assert_eq!(slots.available_at(pe, SimTime(5)), SimTime(100));
        assert!(slots.has_room(pe), "depth 1 leaves queue room");

        slots.reserve(pe, entry(0));
        slots.extend(pe, Duration::from_nanos(50));
        assert_eq!(slots.available_at(pe, SimTime(5)), SimTime(150));
        assert!(!slots.has_room(pe), "queue full at depth 1");
        assert!(slots.any_schedulable(), "the other PE is idle");

        // Completion pops the reservation; the PE stays busy.
        assert!(slots.release(pe).is_some());
        assert!(slots.is_busy(pe), "reservation keeps the PE busy");
        assert!(slots.release(pe).is_none());
        assert!(!slots.is_busy(pe));
    }

    #[test]
    fn pe_slots_failure_mask() {
        let mut slots = PeSlots::new(2, 1);
        let (a, b) = (dssoc_platform::pe::PeId(0), dssoc_platform::pe::PeId(1));
        assert!(!slots.is_failed(a) && slots.failed_count() == 0);

        slots.fail(a);
        slots.fail(a); // idempotent
        assert!(slots.is_failed(a));
        assert_eq!(slots.failed_count(), 1);
        assert!(!slots.has_room(a), "quarantined PEs never have room");
        assert!(slots.any_schedulable(), "the live PE remains schedulable");

        // A quarantined idle PE reports idle=false to the scheduler.
        let cfg = dssoc_platform::presets::zcu102(2, 1);
        assert!(!slots.view(&cfg.pes[0], SimTime(0)).idle);
        assert!(slots.view(&cfg.pes[1], SimTime(0)).idle);

        // Queued work behind a quarantined PE can be reclaimed.
        slots.occupy(b, SimTime(100));
        slots.reserve(b, entry(0));
        slots.fail(b);
        assert_eq!(slots.take_reserved(b).len(), 1);
        assert!(slots.take_reserved(b).is_empty());
        assert_eq!(slots.failed_count(), 2);
        assert!(!slots.any_schedulable(), "every PE quarantined");
    }
}
