//! A discrete-event simulator baseline (the DS3/SimGrid class of tools
//! the paper compares against, §III-D).
//!
//! Unlike the emulator, the DES executes nothing: task durations come
//! purely from statistical cost estimates, the clock jumps between
//! events, and — crucially — scheduling itself is free, which is exactly
//! the limitation the paper calls out ("they are inadequate in capturing
//! scheduling overhead and performing functional validation"). An
//! optional fixed per-invocation overhead can be charged to approximate
//! a runtime, which the ablation benches sweep.
//!
//! The DES shares the application model, platform descriptors, cost
//! tables, and the [`Scheduler`] implementations with the threaded
//! engine, so it doubles as a deterministic differential-testing oracle:
//! on a CPU-only platform with a fully populated [`CostTable`] and
//! [`OverheadMode::None`], the threaded engine in
//! [`TimingMode::Modeled`] and this simulator must agree on every task
//! start/finish time.
//!
//! # Performance
//!
//! The DES is the design-space-exploration workhorse: sweep grids run
//! it thousands of times, so its one event loop is engineered to do no
//! redundant work per event — for every run, whatever observers, fault
//! plan or policy are attached:
//!
//! * the event queue is a [`CalendarQueue`](crate::calq::CalendarQueue)
//!   of plain-old-data [`CompletionEvent`]s, drained in same-timestamp
//!   batches (`pop_due`) under the engines' shared tie-break `(time,
//!   completions-before-arrivals, task key, seq)` — amortized O(1) per
//!   event against the heap's O(log n), with the rank enforced
//!   structurally by draining completions before the arrival cursor at
//!   each clock value. Arrivals are known up front and drained from a
//!   sorted cursor, so the queue only ever holds in-flight completions
//!   (at most one per PE);
//! * scenario state is struct-of-arrays ([`ScenarioSoa`]): per-spec
//!   dense slabs hold the modeled cost (ns), estimate slot, and runfunc
//!   name per `(node, PE)` pair — one array probe each, with an
//!   [`INCOMPATIBLE`] sentinel doubling as the compatibility test — and
//!   the per-node PE-compatibility bitmask, beside the app's DAG in CSR
//!   form (derived once when the app was loaded);
//!   per-run instance state (predecessor countdowns, remaining-task
//!   counts) lives in flat arrays indexed by `inst_base[instance] +
//!   node`, so the completion path touches one cache line per field
//!   instead of one fat struct;
//! * the [`ReadyList`] holds `Arc`-free `(instance, node)` entries, so a
//!   newly ready task is a plain store;
//! * placement takes one of two forms. A policy that declares
//!   [`Scheduler::dense_fifo`] on a ≤64-PE platform is placed by the
//!   engine: `compat & idle` with trailing zeros, over the idle-column
//!   mask [`PeSlots`] keeps — no `PeView`s, no virtual call, no contract
//!   check. Every other policy is called through `dyn Scheduler` with a
//!   [`ReadyView`] of the ready list's own entries over the SoA tables
//!   (no per-entry copy or `Arc` clone), and its assignments are
//!   validated;
//! * completed-task facts always go to struct-of-arrays columns that
//!   become the run's task log, materialized into [`TaskRecord`]s only if
//!   a consumer reads them; trace events are emitted from the same raw
//!   fields behind one branch per completion, and live metrics are
//!   folded from the columns in batches (see [`crate::metrics`]). Fault
//!   handling runs out of line, so fault-free runs never pay for its
//!   code in the loop;
//! * every growable buffer lives in a warm per-simulator
//!   [`RunScratch`](crate::arena::RunScratch) arena that resets between
//!   runs without freeing (and gets its buffers back even when a run
//!   stops early), so warm [`JobRunner`](crate::job::JobRunner) engines
//!   and repeat-iteration sweep cells run the hot loop allocation-free
//!   *across* runs, not just within one. An instance is only its
//!   arrival — the workload's `(app index, ns)` pair, with no memory
//!   image, since nothing executes — and policies write assignments
//!   into a reused buffer ([`Scheduler::schedule_into`]).
//!
//! [`TaskRecord`]: crate::stats::TaskRecord
//! [`CostTable`]: dssoc_platform::cost::CostTable
//! [`OverheadMode::None`]: crate::engine::OverheadMode::None
//! [`TimingMode::Modeled`]: crate::engine::TimingMode::Modeled

use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::instance::InstanceId;
use dssoc_appmodel::workload::Workload;
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::{PeId, PlatformConfig};
use dssoc_trace::{EventKind as TraceKind, FaultKind, TraceSink};

use crate::arena::{CompletionEvent, DenseReady, RetryEntry, RunScratch};
use crate::engine::{EmuError, OverheadMode, TimingMode};
use crate::exec::{
    fail_idle_pes, place_fifo, release_retries, stage_assignments, CompletionSink, PeSlots,
    RunFaults, RunParts,
};
use crate::fault::{FaultDecision, FaultSpec};
use crate::intern::NameTable;
use crate::job::{CompiledScenario, CostSpec, Engine, ScenarioSpec};
use crate::metrics::{EngineMetrics, OverheadPhase};
use crate::sched::{EstimateBook, EstimateSlot, PeView, ReadyView, SchedContext, Scheduler};
use crate::stats::{DenseTaskLog, EmulationStats};
use crate::time::SimTime;

/// DES configuration: the observers a [`DesSimulator`] is built with
/// (trace, metrics), and the scenario defaults (cost, per-invocation
/// overhead, faults) that [`DesSimulator::run`] and sweep runners lower
/// into each run's [`ScenarioSpec`]. A run reads its cost, overhead and
/// faults from its compiled scenario only.
#[derive(Clone)]
pub struct DesConfig {
    /// Cost source for task durations (typically a calibrated
    /// [`CostTable`] behind [`CostSpec::Table`]).
    pub cost: CostSpec,
    /// Optional fixed scheduling overhead charged per scheduler
    /// invocation (zero = the classic free-scheduling DES).
    pub overhead_per_invocation: Duration,
    /// Optional event-trace sink. The DES emits the same event schema
    /// as the threaded engine through the shared scheduling core, so
    /// traces from the two engines diff cleanly. (It has no resource
    /// pool or DMA phases, so `pool_*` and `dma` events never appear.)
    pub trace: Option<TraceSink>,
    /// Optional deterministic fault-injection spec. The DES models the
    /// same seeded plan the threaded engine injects, in virtual time —
    /// which is what extends the cross-engine differential tests to
    /// faulty runs.
    pub faults: Option<Arc<FaultSpec>>,
    /// Optional live-metrics registry. The DES publishes the same
    /// metric families as the threaded engine from the shared
    /// scheduling core's run state, so dashboards and the cross-engine
    /// metrics differential test see one schema. The simulator
    /// registers its cells once, when it is built.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            cost: CostSpec::table(CostTable::new()),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics: None,
        }
    }
}

impl DesConfig {
    /// Lowers this configuration to the scenario of one run: always
    /// [`TimingMode::Modeled`], the fixed per-invocation overhead (none
    /// when zero), the configured cost and faults, no reservation.
    pub fn scenario(
        &self,
        library: Arc<AppLibrary>,
        platform: Arc<PlatformConfig>,
        scheduler: String,
        workload: Arc<Workload>,
    ) -> ScenarioSpec {
        let overhead = if self.overhead_per_invocation.is_zero() {
            OverheadMode::None
        } else {
            OverheadMode::Fixed(self.overhead_per_invocation)
        };
        ScenarioSpec {
            library,
            platform,
            scheduler,
            workload,
            timing: TimingMode::Modeled,
            overhead,
            cost: self.cost.clone(),
            reservation_depth: 0,
            faults: self.faults.clone(),
        }
    }
}

impl std::fmt::Debug for DesConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DesConfig")
            .field("cost", &self.cost)
            .field("overhead_per_invocation", &self.overhead_per_invocation)
            .field("traced", &self.trace.is_some())
            .field("faulted", &self.faults.is_some())
            .field("metered", &self.metrics.is_some())
            .finish()
    }
}

/// The discrete-event simulator.
///
/// Holds a warm [`RunScratch`] arena, so a long-lived simulator (a
/// [`JobRunner`](crate::job::JobRunner) engine, a sweep worker) reuses
/// every hot-loop buffer across runs — which is why [`Self::run`] and
/// [`Self::run_compiled`] take `&mut self`.
pub struct DesSimulator {
    platform: Arc<PlatformConfig>,
    config: DesConfig,
    /// Warm per-simulator buffers, reset (not freed) between runs.
    scratch: RunScratch,
    /// The simulator's metric cells, with `config.metrics`.
    metrics: Option<EngineMetrics>,
}

impl DesSimulator {
    /// Builds a simulator for a platform. The platform is `Arc`-shared:
    /// pass an existing `Arc<PlatformConfig>` to avoid a deep clone.
    pub fn new(
        platform: impl Into<Arc<PlatformConfig>>,
        config: DesConfig,
    ) -> Result<Self, EmuError> {
        let platform = platform.into();
        platform.validate().map_err(EmuError::Config)?;
        let metrics = config.metrics.as_ref().map(|r| EngineMetrics::new(r, &platform));
        Ok(DesSimulator { platform, config, scratch: RunScratch::default(), metrics })
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// Simulates a workload to completion under `scheduler`: lowers the
    /// configuration to a [`ScenarioSpec`], compiles it (labelled with
    /// the scheduler's name), and runs it with [`Self::run_compiled`].
    pub fn run(
        &mut self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        library: &AppLibrary,
    ) -> Result<EmulationStats, EmuError> {
        let spec = self.config.scenario(
            Arc::new(library.clone()),
            Arc::clone(&self.platform),
            scheduler.name().to_string(),
            Arc::new(workload.clone()),
        );
        let scenario = CompiledScenario::compile_custom(spec)?;
        self.run_compiled(scheduler, &scenario, None, None)
    }

    /// Simulates a precompiled scenario, reusing its name table, SoA
    /// cost slabs, slot-assigned estimate book, and fault plan — nothing
    /// scenario-derived is rebuilt. Compatibility was preflighted at
    /// compile time; the warm estimate book takes only the prototype's
    /// values. A scenario the DES cannot run
    /// ([`ScenarioSpec::check_engine`]) is refused with
    /// [`EmuError::Config`].
    ///
    /// `trace` records this run only, in place of the configured sink.
    /// `cancel` is polled (relaxed) once per clock advance; when it
    /// reads `true` the run aborts with [`EmuError::Canceled`], leaving
    /// the warm scratch arena intact for the next run — how a
    /// supervising owner (the serve daemon) reclaims a worker from a
    /// long simulation without tearing the thread down.
    pub fn run_compiled(
        &mut self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        trace: Option<&TraceSink>,
        cancel: Option<&AtomicBool>,
    ) -> Result<EmulationStats, EmuError> {
        scenario.spec().check_engine(Engine::Des)?;
        // Split the warm scratch and the metric cells out of `self` (so
        // the loop can borrow `&self` and them disjointly); both return.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut metrics = self.metrics.take();
        let trace = trace.or(self.config.trace.as_ref());
        let result =
            self.run_loop(scheduler, scenario, trace, cancel, &mut scratch, metrics.as_mut());
        self.scratch = scratch;
        self.metrics = metrics;
        result
    }

    /// The event loop over a compiled scenario's shared state. All
    /// per-run growable state comes from (and returns to) the scratch
    /// arena, and the run is published to `metrics`, on every exit path.
    fn run_loop(
        &self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        trace: Option<&TraceSink>,
        cancel: Option<&AtomicBool>,
        s: &mut RunScratch,
        mut metrics: Option<&mut EngineMetrics>,
    ) -> Result<EmulationStats, EmuError> {
        let names_arc = &scenario.names;
        let names: &NameTable = names_arc;
        let soa = scenario.soa();
        let plan = scenario.plan();
        // Instance `i` is arrival `i`; arrivals are in time order, ties
        // in instantiation order, so they are drained by cursor and
        // never pay queue traffic.
        let arrivals = scenario.spec().workload.arrivals();
        // The completion columns leave with the stats at end of run, so
        // right-size them up front (the run's task count is known).
        let total = s.begin(scenario);
        s.done.reserve(total);

        // DES PEs have no reservation queues (depth 0); the busy map
        // holds *exact* finish times — the simulator's one luxury over
        // the emulator's estimates.
        let label = format!("{} (DES)", scheduler.name());
        let trace = trace.map(|t| (t, label.as_str(), "des"));
        let m = metrics.as_deref_mut();
        let mut p = RunParts::new(&self.platform, 0, m, scenario, trace, s);
        let RunScratch {
            dag,
            done,
            events,
            due,
            retries,
            estimates,
            views: view_scratch,
            assignments,
            placed,
            ..
        } = &mut *s;

        let mut next_arrival = 0usize;
        let mut event_seq = 0u64;

        // ---- Fault machinery (None without a fault spec).
        let mut faults =
            plan.map(|plan| RunFaults::new(plan, &self.platform, soa, names, p.tracer.clone()));

        // Placement: a policy that declares FRFS semantics is placed by
        // the engine straight off the SoA compatibility masks (one `u64`
        // per node, so ≤ 64 PEs); every other case calls the policy.
        let fifo = scheduler.dense_fifo() && self.platform.pes.len() <= 64;
        // The EWMA estimate book is scratch state, never part of the
        // run's output: skip maintaining it when nothing can read it (no
        // estimate-driven policy and no fault plan deriving hang
        // deadlines from estimates, or JSON estimates for every pair).
        let observe = (scheduler.uses_estimates() || plan.is_some()) && soa.reads_book();
        // The scenario's fixed per-invocation charge; the DES treats the
        // other modes as free scheduling.
        let charge = match scenario.spec().overhead {
            OverheadMode::Fixed(d) => d,
            OverheadMode::Measured | OverheadMode::None => Duration::ZERO,
        };
        // Untraced, the completion path skips every event on one branch.
        let traced = p.tracer.enabled();
        // `PeId` by platform column (also the task log's column map).
        let pe_ids: Vec<PeId> = self.platform.pes.iter().map(|pe| pe.id).collect();
        let mut clock = SimTime::ZERO;
        // Scheduler PE views: recycled allocation, borrowed lifetimes.
        let mut views: Vec<PeView<'_>> = view_scratch.take();

        let outcome: Result<(), EmuError> = 'run: loop {
            // Cooperative cancel: one relaxed load per clock window is
            // invisible at ~30M events/sec, and a stale read only delays
            // the abort by one window.
            if cancel.is_some_and(|flag| flag.load(AtomicOrdering::Relaxed)) {
                break 'run Err(EmuError::Canceled);
            }
            // Drain everything due at the current clock first, in one
            // same-window batch. The batch comes out in full `Ord` order,
            // so tie order matches the threaded engine: completions
            // before arrivals, completions in (instance, node, seq)
            // order, arrivals in instantiation order.
            due.clear();
            events.pop_due(clock.0, due);
            for ev in due.iter() {
                let id = InstanceId(ev.inst as u64);
                let node_idx = ev.node as usize;
                let pe = pe_ids[ev.col as usize];
                if let Some(kind) = ev.fault {
                    let faults = faults.as_mut().expect("fault implies a plan");
                    on_fault(faults, ev, kind, &mut p.slots, &mut p.sink, retries);
                    continue;
                }
                // DES PEs have no reservation queues, so every
                // completion idles its PE.
                p.slots.release(pe);
                let spec = &soa.specs[names.spec_index(id)];
                let cell = node_idx * soa.stride + ev.col as usize;
                if observe {
                    estimates.observe_at(
                        EstimateSlot::from_raw(spec.est_slot[cell]),
                        Duration::from_nanos(ev.dur_ns),
                    );
                }
                // The completion facts go to the SoA columns (the run's
                // task log, and what the metrics fold reads); the trace
                // reads the same raw fields.
                done.push(ev.inst, ev.node, ev.col, ev.ready_at.0, ev.time.0, ev.dur_ns);
                if traced {
                    p.tracer.emit(ev.time, TraceKind::PeIdle { pe: pe.0 });
                    let start = SimTime(ev.time.0 - ev.dur_ns);
                    p.sink.trace_task(pe, (id.0, ev.node), ev.ready_at, start, ev.time);
                }
                if dag.complete(spec, ev.inst, ev.node, ev.time, &mut p.ready) {
                    let state = faults.as_ref().map(|f| &f.state);
                    p.sink.finish_instance(ev.inst, arrivals[ev.inst as usize], ev.time, state);
                }
            }
            // Release due retries into the ready list, in deterministic
            // (release, seq) order — before arrivals, like the emulator.
            if !retries.is_empty() {
                release_retries(retries, clock, &mut p.ready);
            }
            while let Some(a) = arrivals.get(next_arrival).filter(|a| SimTime(a.at_ns) <= clock) {
                let (inst, at) = (next_arrival as u32, SimTime(a.at_ns));
                next_arrival += 1;
                p.tracer.emit(at, TraceKind::AppArrive { instance: inst as u64 });
                for &root in &soa.specs[a.app as usize].app.roots {
                    p.ready.push_entry(DenseReady::new(inst, root as u32, at));
                }
            }

            if let Some(plan) = plan {
                fail_idle_pes(plan, &self.platform, clock, &mut p.slots, &mut p.sink);
            }
            if let Some(m) = metrics.as_deref_mut().filter(|m| m.due(done.len())) {
                m.publish(&mut p, done, names, soa);
            }

            // Schedule at the current clock: place ready tasks as
            // `(entry, PE column, duration)`, then dispatch them.
            if !p.ready.is_empty() && p.slots.any_schedulable() {
                placed.clear();
                if fifo {
                    place_fifo(p.ready.pending(), p.slots.idle_mask(), soa, names, placed);
                } else {
                    views.clear();
                    views.extend(self.platform.pes.iter().map(|pe| p.slots.view(pe, clock)));
                    let ready = ReadyView::new(p.ready.pending(), soa, names, estimates);
                    assignments.clear();
                    scheduler.schedule_into(
                        &ready,
                        &views,
                        &SchedContext { now: clock },
                        assignments,
                    );
                    let (name, pending) = (scheduler.name(), p.ready.pending());
                    if let Err(e) =
                        stage_assignments(name, assignments, pending, &p.slots, names, soa, placed)
                    {
                        break 'run Err(e);
                    }
                }
                p.sink.note_sched_invocation();
                if p.tracer.enabled() {
                    p.sink.trace_decision(clock, &self.platform, &p.slots, placed, p.ready.len());
                }
                if !charge.is_zero() {
                    p.sink.charge_overhead(OverheadPhase::Schedule, charge);
                }
                let start = clock + charge;
                for &(e, col, dur_ns) in placed.iter() {
                    let col = col as usize;
                    let pe = pe_ids[col];
                    let mut finish = SimTime(start.0.saturating_add(dur_ns));
                    if p.tracer.enabled() {
                        let (instance, node) = (e.inst as u64, e.node);
                        p.tracer.emit(clock, TraceKind::TaskDispatch { instance, node, pe: pe.0 });
                        p.tracer.emit(clock, TraceKind::PeBusy { pe: pe.0 });
                    }
                    let mut fault = None;
                    if let Some(faults) = faults.as_mut() {
                        let times = (clock, start, finish);
                        if let Some(d) = decide(faults, e, col, times, &mut p.sink, estimates) {
                            finish = d.time;
                            fault = Some(d.kind);
                        }
                    }
                    p.slots.occupy(pe, finish);
                    events.push(CompletionEvent {
                        time: finish,
                        inst: e.inst,
                        node: e.node,
                        seq: event_seq,
                        col: col as u32,
                        ready_at: SimTime(e.ready_ns),
                        dur_ns,
                        fault,
                    });
                    event_seq += 1;
                }
                if fifo {
                    p.ready.remove_prefix(placed.len());
                } else {
                    p.ready.remove(assignments);
                }
            }

            // Advance to the next event (completion, arrival, or retry
            // release).
            let next_completion = events.peek_time().map(SimTime);
            let next_arr = arrivals.get(next_arrival).map(|a| SimTime(a.at_ns));
            let next_retry = retries.iter().map(|r| r.release).min();
            match next_completion.into_iter().chain(next_arr).chain(next_retry).min() {
                Some(t) => clock = clock.max(t),
                None => {
                    if p.ready.is_empty() {
                        break 'run Ok(());
                    }
                    let state = faults.as_mut().map(|f| &mut f.state);
                    let name = scheduler.name();
                    if let Err(e) = p.resolve_stall(&self.platform, state, names, soa, name) {
                        break 'run Err(e);
                    }
                }
            }
        };

        // Publish the run and return recycled buffers to the arena for
        // the next run, whether the run finished or stopped early.
        if let Some(m) = metrics {
            m.end_run(&mut p, done, names, soa, outcome.is_ok().then_some(label.as_str()));
        }
        view_scratch.put(views);
        s.recycle(p.ready);
        outcome?;

        // The completion columns ARE the run's task log: hand them (with
        // the scenario's name table) to the stats, which materialize
        // fat records only if a consumer reads them.
        let log = DenseTaskLog {
            cols: std::mem::take(&mut s.done),
            names: Arc::clone(names_arc),
            platform: Arc::clone(&self.platform),
        };
        Ok(p.sink.finish(label, log))
    }
}

/// A faulted attempt firing: the recovery policy runs, the PE is freed
/// or quarantined (the threaded engine's fault branch, minus
/// reservation queues).
#[cold]
#[inline(never)]
fn on_fault(
    f: &mut RunFaults,
    ev: &CompletionEvent,
    kind: FaultKind,
    slots: &mut PeSlots,
    sink: &mut CompletionSink,
    retries: &mut Vec<RetryEntry>,
) {
    let pe = f.platform.pes[ev.col as usize].id;
    let action = f.on_fault(ev.time, ev.inst as u64, ev.node as usize, pe, kind, sink);
    slots.release(pe);
    if action.quarantine && !slots.is_failed(pe) {
        // No PeIdle event — the PE leaves the schedulable set for good.
        slots.fail(pe);
        sink.record_quarantine(ev.time, pe);
    } else {
        f.tracer.emit(ev.time, TraceKind::PeIdle { pe: pe.0 });
    }
    f.settle(action, ev.time, ev.inst, ev.node, sink, retries);
}

/// The fault decision for dispatching `e` on column `col` at `clock`,
/// the attempt starting at `start` (after the invocation's overhead
/// charge) and naturally finishing at `finish`; also records a degraded
/// dispatch.
#[cold]
#[inline(never)]
fn decide(
    f: &mut RunFaults,
    e: DenseReady,
    col: usize,
    (clock, start, finish): (SimTime, SimTime, SimTime),
    sink: &mut CompletionSink,
    estimates: &EstimateBook,
) -> Option<FaultDecision> {
    let (instance, node) = (e.inst as u64, e.node as usize);
    let attempt = f.note_dispatch(instance, node, col, clock, sink);
    let pe = &f.platform.pes[col];
    let est = f.soa.estimate(f.names, estimates, (e.inst, e.node), col);
    let kernel = f.kernel(instance, node, col);
    f.plan.decide(kernel, pe.id, instance, node, attempt, start, finish, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Assignment, FrfsScheduler, MetScheduler};
    use dssoc_appmodel::WorkloadSpec;
    use dssoc_platform::presets::zcu102;

    /// Breaks the scheduler contract on its first call (an out-of-range
    /// ready index), stopping the run at validation.
    struct Rogue;

    impl Scheduler for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }

        fn schedule_into(
            &mut self,
            ready: &ReadyView<'_>,
            pes: &[PeView<'_>],
            _ctx: &SchedContext,
            out: &mut Vec<Assignment>,
        ) {
            out.push(Assignment { ready_idx: ready.len(), pe: pes[0].pe.id });
        }
    }

    /// Runs that stop early — cancelled, or a contract violation — hand
    /// the warm ready buffer back to the arena, so the next warm run
    /// starts with its capacity.
    #[test]
    fn early_exits_keep_warm_buffers() {
        let (library, _registry) = dssoc_apps::standard_library();
        let workload = WorkloadSpec::validation([("range_detection", 20)])
            .generate(&library)
            .expect("workload");
        let mut des = DesSimulator::new(zcu102(2, 1), DesConfig::default()).expect("platform");
        let spec = des.config.scenario(
            Arc::new(library),
            Arc::clone(&des.platform),
            "frfs".into(),
            Arc::new(workload),
        );
        let scenario = CompiledScenario::compile_custom(spec).expect("scenario");
        let cancel = AtomicBool::new(true);
        let mut frfs = FrfsScheduler::new();
        let mut met = MetScheduler::new();
        let policies: [&mut dyn Scheduler; 2] = [&mut frfs, &mut met];
        for scheduler in policies {
            let name = scheduler.name();
            let want = des.run_compiled(scheduler, &scenario, None, None).expect("warm run");
            let caps = |des: &DesSimulator| des.scratch.ready_buf.capacity();
            let warm = caps(&des);
            assert!(warm > 0, "{name}: the warm run grew no ready buffer");

            let canceled = des.run_compiled(scheduler, &scenario, None, Some(&cancel));
            assert!(matches!(canceled, Err(EmuError::Canceled)));
            assert_eq!(caps(&des), warm, "{name}: cancel dropped a buffer");

            let rogue = des.run_compiled(&mut Rogue, &scenario, None, None);
            assert!(matches!(rogue, Err(EmuError::Config(_))));
            let kept = caps(&des);
            assert!(kept >= warm, "{name}: violation dropped a buffer");

            let again = des.run_compiled(scheduler, &scenario, None, None).expect("warm run");
            assert_eq!(again.makespan, want.makespan);
            assert_eq!(caps(&des), kept, "{name}: the next warm run regrew a buffer");
        }
    }
}
