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
//! it thousands of times, so the event loop is engineered to do no
//! redundant work per event:
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
//!   dense slabs hold the modeled cost (ns), estimate slot, and interned
//!   runfunc per `(node, PE)` pair — one array probe each, with an
//!   [`INCOMPATIBLE`] sentinel doubling as the compatibility test — and
//!   the DAG in CSR form; per-run instance state (predecessor
//!   countdowns, remaining-task counts) lives in flat arrays indexed by
//!   `inst_base[instance] + node`, so the completion path touches one
//!   cache line per field instead of one fat struct;
//! * every growable buffer lives in a warm per-simulator
//!   [`DesScratch`](crate::arena::DesScratch) arena that resets between
//!   runs without freeing, so warm [`JobRunner`](crate::job::JobRunner)
//!   engines and repeat-iteration sweep cells run the hot loop
//!   allocation-free *across* runs, not just within one;
//! * completed-task facts accumulate in struct-of-arrays columns and are
//!   materialized into [`TaskRecord`]s once after the loop (when neither
//!   tracing nor metrics need them live), instances of one application
//!   share one read-only memory image
//!   ([`Workload::instantiate_shared`]), and the scheduler writes
//!   assignments into a reused buffer ([`Scheduler::schedule_into`]).
//!
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
use dssoc_trace::{EventKind as TraceKind, TraceSink};

use crate::arena::{CompletionEvent, DenseReady, DesScratch, RetryEntry};
use crate::engine::{EmuError, OverheadMode, TimingMode};
use crate::exec::{
    pe_mask_bit, register_trace_meta, resolve_unschedulable, validate_assignments_with,
    CompletionSink, ExecTracer, PeSlots, ReadyList,
};
use crate::fault::{FaultSpec, FaultState};
use crate::intern::NameTable;
use crate::job::{CompiledScenario, CostSpec, ScenarioSpec};
use crate::metrics::{ExecMetrics, OverheadPhase};
use crate::sched::{Assignment, EstimateSlot, PeView, SchedContext, Scheduler};
use crate::soa::{ScenarioSoa, INCOMPATIBLE};
use crate::stats::{AppRecord, DenseTaskLog, EmulationStats, TaskRecord};
use crate::task::ReadyTask;
use crate::task::Task;
use crate::time::SimTime;

/// DES configuration.
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
    /// metric families as the threaded engine through the shared
    /// scheduling core, so dashboards and the cross-engine metrics
    /// differential test see one schema.
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
/// Holds a warm [`DesScratch`] arena, so a long-lived simulator (a
/// [`JobRunner`](crate::job::JobRunner) engine, a sweep worker) reuses
/// every hot-loop buffer across runs — which is why [`Self::run`] and
/// [`Self::run_compiled`] take `&mut self`.
pub struct DesSimulator {
    platform: Arc<PlatformConfig>,
    config: DesConfig,
    /// Warm per-simulator buffers, reset (not freed) between runs.
    scratch: DesScratch,
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
        Ok(DesSimulator { platform, config, scratch: DesScratch::default() })
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

    /// Simulates a precompiled scenario, reusing its shared instance
    /// images, name table, SoA cost slabs, slot-assigned estimate book,
    /// and fault plan — nothing scenario-derived is rebuilt.
    /// Compatibility was preflighted at compile time. Consecutive runs
    /// of the same scenario additionally skip the estimate-book rebuild
    /// (a values-only reset, keyed on the scenario fingerprint).
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
        // Split the warm scratch out of `self` (so the loop can borrow
        // `&self` and the arena disjointly); it always returns.
        let mut scratch = std::mem::take(&mut self.scratch);
        let trace = trace.or(self.config.trace.as_ref());
        // The fully-dense loop: FRFS-exact policy, bitmask-sized
        // platform, nothing that wants fat per-event bookkeeping — no
        // fault plan, no tracer, no live metrics, no estimate-reading
        // policy. Everything else takes the general loop.
        let dense_loop = scheduler.dense_fifo()
            && !scheduler.uses_estimates()
            && self.platform.pes.len() <= 64
            && scenario.plan().is_none()
            && trace.is_none()
            && self.config.metrics.is_none();
        let result = if dense_loop {
            self.run_loop_dense(scheduler, scenario, cancel, &mut scratch)
        } else {
            self.run_loop(scheduler, scenario, trace, cancel, &mut scratch)
        };
        self.scratch = scratch;
        result
    }

    /// The event loop over a compiled scenario's shared state. All
    /// per-run growable state comes from (and returns to) the scratch
    /// arena.
    fn run_loop(
        &self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        trace: Option<&TraceSink>,
        cancel: Option<&AtomicBool>,
        s: &mut DesScratch,
    ) -> Result<EmulationStats, EmuError> {
        let instances = scenario.instances();
        let names_arc = &scenario.names;
        let names: &NameTable = names_arc;
        let soa = scenario.soa();
        let plan = scenario.plan();
        s.reset();
        // Estimate-book reuse: during a run only `observe_at` touches the
        // book (slots are resolved at scenario compile), so a book whose
        // slot map came from this same scenario needs only its values
        // restored — a memcpy instead of rebuilding two hash maps.
        let est_ident = Some(scenario.fingerprint());
        if s.est_src == est_ident {
            s.estimates.reset_values_from(scenario.estimates_ref());
        } else {
            s.estimates.reset_from(scenario.estimates_ref());
        }
        s.est_src = est_ident;

        let DesScratch {
            inst_base,
            remaining_preds,
            remaining_tasks,
            arrival_order,
            done,
            events,
            due,
            retries,
            ready_buf,
            estimates,
            views: view_scratch,
            assignments,
            ..
        } = &mut *s;

        // ---- SoA instance state: flat task ids `inst_base[id] + node`.
        let inst_top = instances.iter().map(|i| i.id.0 as usize + 1).max().unwrap_or(0);
        remaining_tasks.resize(inst_top, 0);
        for inst in instances {
            remaining_tasks[inst.id.0 as usize] = soa.specs[names.spec_index(inst.id)].n_nodes;
        }
        inst_base.resize(inst_top, 0);
        let mut flat_total = 0u32;
        for i in 0..inst_top {
            inst_base[i] = flat_total;
            flat_total += remaining_tasks[i];
        }
        remaining_preds.resize(flat_total as usize, 0);
        for inst in instances {
            let base = inst_base[inst.id.0 as usize] as usize;
            let spec = &soa.specs[names.spec_index(inst.id)];
            remaining_preds[base..base + spec.preds_init.len()].copy_from_slice(&spec.preds_init);
        }
        // The fast-record columns leave with the stats at end of run, so
        // right-size them up front (the run's task count is known).
        done.reserve(flat_total as usize);

        // Arrivals are known up front: sorted once by (time, instance
        // order) and drained by cursor, they never pay queue traffic.
        arrival_order.extend(
            instances
                .iter()
                .enumerate()
                .map(|(i, inst)| (SimTime::from_duration(inst.arrival), i as u32)),
        );
        arrival_order.sort_unstable_by_key(|&(t, i)| (t, i));
        let mut next_arrival = 0usize;
        let mut event_seq = 0u64;

        let metrics = match &self.config.metrics {
            Some(registry) => ExecMetrics::attach(registry, &self.platform, instances),
            None => ExecMetrics::disabled(),
        };
        let mut ready = ReadyList::recycled(std::mem::take(ready_buf));
        ready.set_metrics(metrics.clone());
        // DES PEs have no reservation queues (depth 0); the busy map
        // holds *exact* finish times — the simulator's one luxury over
        // the emulator's estimates.
        let mut slots = PeSlots::new(self.platform.pes.len(), 0);
        slots.set_metrics(metrics.clone());

        // ---- Fault machinery (all empty/None without a fault spec).
        let mut fstate: Option<FaultState> = plan.map(|p| FaultState::new(p.retry.clone()));
        let mut retry_seq = 0u64;
        // The platform key a PE dispatches as, for degraded-dispatch
        // detection (same comparison the threaded engine makes).
        let pe_platform_key =
            |pe: PeId| names.pe_column(pe).map(|col| self.platform.pes[col].platform_key.as_str());

        let mut sink = CompletionSink::new();
        sink.reserve_apps(instances.len());
        let tracer = match trace {
            Some(trace_sink) => {
                register_trace_meta(
                    trace_sink,
                    &self.platform,
                    &format!("{} (DES)", scheduler.name()),
                    instances,
                );
                ExecTracer::attach(trace_sink, "des")
            }
            None => ExecTracer::disabled(),
        };
        // With neither tracing nor metrics attached, completions write
        // six integers into SoA columns and the fat records (with their
        // refcounted `Name` clones) are materialized once, after the
        // loop. Live consumers force inline records — same side-effect
        // order as always.
        let fast_records = !metrics.enabled() && !tracer.enabled();
        // FRFS-exact policies take the dense assignment path (the
        // per-round PE mask caps it at 64 PEs — larger platforms fall
        // back to the general scheduler machinery).
        let dense = scheduler.dense_fifo() && self.platform.pes.len() <= 64;
        // The EWMA estimate book is scratch state, never part of the
        // run's output: skip maintaining it when nothing can read it
        // (no estimate-driven policy, no fault plan deriving hang
        // deadlines from estimates).
        let observe = scheduler.uses_estimates() || plan.is_some();
        ready.set_tracer(tracer.clone());
        sink.set_tracer(tracer.clone());
        sink.set_metrics(metrics);
        let mut clock = SimTime::ZERO;
        // Scheduler PE views: recycled allocation, borrowed lifetimes.
        let mut views: Vec<PeView<'_>> = view_scratch.take();

        loop {
            // Cooperative cancel: one relaxed load per clock window is
            // invisible at ~30M events/sec, and a stale read only delays
            // the abort by one window.
            if cancel.is_some_and(|flag| flag.load(AtomicOrdering::Relaxed)) {
                return Err(EmuError::Canceled);
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
                let pe = self.platform.pes[ev.col as usize].id;
                // Faulted attempt: no task record, no estimate update,
                // no DAG progress — run the recovery policy instead
                // (identical to the threaded engine's fault branch).
                if let Some(kind) = ev.fault {
                    let plan = plan.expect("fault implies a plan");
                    let state = fstate.as_mut().expect("fault implies fault state");
                    sink.record_fault(ev.time, id.0, node_idx, pe, kind);
                    let action = state.on_fault(plan, id.0, node_idx, pe, kind, ev.time);
                    slots.release(pe);
                    if action.quarantine && !slots.is_failed(pe) {
                        // No PeIdle event — the PE leaves the
                        // schedulable set for good.
                        slots.fail(pe);
                        sink.record_quarantine(ev.time, pe);
                    } else {
                        tracer.emit(ev.time, TraceKind::PeIdle { pe: pe.0 });
                    }
                    if let Some((attempt, release)) = action.retry {
                        sink.record_retry(ev.time, id.0, node_idx, attempt, release);
                        retries.push(RetryEntry {
                            release,
                            seq: retry_seq,
                            task: Task {
                                instance: Arc::clone(&instances[ev.inst as usize]),
                                node_idx,
                            },
                        });
                        retry_seq += 1;
                    } else if action.newly_aborted {
                        sink.record_abort();
                    }
                    continue;
                }
                // DES PEs have no reservation queues, so every
                // completion idles its PE.
                slots.release(pe);
                tracer.emit(ev.time, TraceKind::PeIdle { pe: pe.0 });
                let spec = &soa.specs[names.spec_index(id)];
                let cell = node_idx * soa.stride + ev.col as usize;
                if observe {
                    estimates.observe_at(
                        EstimateSlot::from_raw(spec.est_slot[cell]),
                        Duration::from_nanos(ev.dur_ns),
                    );
                }
                if fast_records {
                    done.push(ev.inst, ev.node, ev.col, ev.ready_at.0, ev.time.0, ev.dur_ns);
                } else {
                    sink.record_task(TaskRecord {
                        instance: id,
                        app: names.app(id).clone(),
                        node: names.node(id, node_idx).clone(),
                        node_idx,
                        kernel: spec.runfunc[cell].clone(),
                        pe,
                        ready_at: ev.ready_at,
                        start: SimTime(ev.time.0 - ev.dur_ns),
                        finish: ev.time,
                        modeled: Duration::from_nanos(ev.dur_ns),
                        measured: Duration::ZERO,
                    });
                }
                // DAG progress: CSR successor walk over flat countdowns.
                let base = inst_base[ev.inst as usize];
                let lo = spec.succ_off[node_idx] as usize;
                let hi = spec.succ_off[node_idx + 1] as usize;
                for &succ in &spec.succ[lo..hi] {
                    let flat = (base + succ) as usize;
                    remaining_preds[flat] -= 1;
                    if remaining_preds[flat] == 0 {
                        ready.push(
                            Task {
                                instance: Arc::clone(&instances[ev.inst as usize]),
                                node_idx: succ as usize,
                            },
                            ev.time,
                        );
                    }
                }
                let left = &mut remaining_tasks[ev.inst as usize];
                *left -= 1;
                if *left == 0 {
                    if fstate.as_ref().is_some_and(|st| st.had_faults(id.0)) {
                        sink.record_survival();
                    }
                    sink.record_app(AppRecord {
                        instance: id,
                        app: names.app(id).clone(),
                        arrival: SimTime::from_duration(instances[ev.inst as usize].arrival),
                        finish: ev.time,
                        task_count: spec.n_nodes as usize,
                    });
                }
            }
            // Release due retries into the ready list, in deterministic
            // (release, seq) order — before arrivals, like the emulator.
            if !retries.is_empty() {
                retries.sort_by_key(|r| (r.release, r.seq));
                let due_n = retries.iter().take_while(|r| r.release <= clock).count();
                for r in retries.drain(..due_n) {
                    ready.push(r.task, r.release);
                }
            }
            while next_arrival < arrival_order.len() && arrival_order[next_arrival].0 <= clock {
                let (at, idx) = arrival_order[next_arrival];
                next_arrival += 1;
                let inst = &instances[idx as usize];
                tracer.emit(at, TraceKind::AppArrive { instance: inst.id.0 });
                ready.push_roots(inst, at);
            }

            // Permanent failures on idle PEs take effect as the clock
            // passes them (busy PEs die through their in-flight
            // attempt's fault decision instead).
            if let Some(plan) = plan {
                for pe in &self.platform.pes {
                    if slots.is_failed(pe.id) || slots.is_busy(pe.id) {
                        continue;
                    }
                    if let Some(tf) = plan.permanent_failure_at(pe.id) {
                        if tf <= clock {
                            slots.fail(pe.id);
                            sink.record_quarantine(tf, pe.id);
                        }
                    }
                }
            }

            // Schedule at the current clock.
            if !ready.is_empty() && slots.any_schedulable() {
                assignments.clear();
                if dense {
                    // Dense FIFO path: the policy declared FRFS
                    // semantics, so the engine computes the identical
                    // assignment set straight off the SoA slabs — no
                    // `PeView` materialization, no virtual dispatch.
                    dense_fifo_assign(
                        soa,
                        names,
                        &slots,
                        &self.platform,
                        ready.pending(),
                        assignments,
                    );
                } else {
                    views.clear();
                    views.extend(self.platform.pes.iter().map(|pe| slots.view(pe, clock)));
                    let ctx = SchedContext { now: clock, estimates: &*estimates };
                    scheduler.schedule_into(ready.pending(), &views, &ctx, assignments);
                }
                sink.note_sched_invocation();
                if tracer.enabled() {
                    // `has_room` is exactly the `idle` the views carry.
                    let candidates = self
                        .platform
                        .pes
                        .iter()
                        .filter(|pe| slots.has_room(pe.id))
                        .fold(0u64, |m, pe| m | pe_mask_bit(pe.id));
                    let chosen = assignments.iter().fold(0u64, |m, a| m | pe_mask_bit(a.pe));
                    tracer.emit(
                        clock,
                        TraceKind::SchedDecision {
                            invocation: sink.sched_invocations,
                            ready: ready.len() as u32,
                            candidates,
                            chosen,
                            assigned: assignments.len() as u32,
                        },
                    );
                }
                let charge = self.config.overhead_per_invocation;
                sink.charge_overhead(OverheadPhase::Schedule, charge);

                // The same contract check the emulator runs, with the
                // platform-key string compare replaced by the SoA
                // sentinel probe. The dense path skips it: those
                // assignments are the engine's own, correct by
                // construction.
                if !dense {
                    validate_assignments_with(
                        scheduler.name(),
                        assignments,
                        ready.pending(),
                        &slots,
                        |rt, pe| match names.pe_column(pe) {
                            Some(col) => {
                                let spec = &soa.specs[names.spec_index(rt.task.instance.id)];
                                spec.cost_ns[rt.task.node_idx * soa.stride + col] != INCOMPATIBLE
                            }
                            None => false,
                        },
                    )?;
                    assignments.sort_unstable_by_key(|a| a.ready_idx);
                }
                for a in assignments.iter() {
                    let rt = &ready.pending()[a.ready_idx];
                    let id = rt.task.instance.id;
                    let node_idx = rt.task.node_idx;
                    let col = names.pe_column(a.pe).expect("known PE");
                    let spec = &soa.specs[names.spec_index(id)];
                    let cell = node_idx * soa.stride + col;
                    let dur_ns = spec.cost_ns[cell];
                    let start = clock + charge;
                    let mut finish = start + Duration::from_nanos(dur_ns);
                    tracer.emit(
                        clock,
                        TraceKind::TaskDispatch {
                            instance: id.0,
                            node: node_idx as u32,
                            pe: a.pe.0,
                        },
                    );
                    tracer.emit(clock, TraceKind::PeBusy { pe: a.pe.0 });
                    let mut fault = None;
                    if let Some(plan) = plan {
                        let state = fstate.as_mut().expect("plan implies fault state");
                        let attempt = state.attempt_of(id.0, node_idx);
                        if attempt > 1 {
                            if let Some(prev) = state.last_fault_pe(id.0, node_idx) {
                                if pe_platform_key(prev) != pe_platform_key(a.pe) {
                                    sink.record_degraded(
                                        clock,
                                        id.0,
                                        node_idx,
                                        a.pe,
                                        state.note_degraded(id.0, node_idx),
                                    );
                                }
                            }
                        }
                        // The *estimate* (not the exact duration) feeds
                        // the hang deadline — the same value the
                        // threaded engine derives at its dispatch, since
                        // both engines observe completions identically.
                        let est = estimates
                            .estimate(&rt.task, &self.platform.pes[col])
                            .unwrap_or(Duration::from_micros(100));
                        if let Some(d) = plan.decide(
                            spec.runfunc[cell].as_str(),
                            a.pe,
                            id.0,
                            node_idx,
                            attempt,
                            start,
                            finish,
                            est,
                        ) {
                            finish = d.time;
                            fault = Some(d.kind);
                        }
                    }
                    slots.occupy(a.pe, finish);
                    events.push(CompletionEvent {
                        time: finish,
                        inst: id.0 as u32,
                        node: node_idx as u32,
                        seq: event_seq,
                        col: col as u32,
                        ready_at: rt.ready_at,
                        dur_ns,
                        fault,
                    });
                    event_seq += 1;
                }
                ready.remove(assignments);
            }

            // Advance to the next event (completion, arrival, or retry
            // release).
            let next_completion = events.peek_time().map(SimTime);
            let next_arr = arrival_order.get(next_arrival).map(|&(t, _)| t);
            let next_retry = retries.iter().map(|r| r.release).min();
            match [next_completion, next_arr, next_retry].into_iter().flatten().min() {
                Some(t) => clock = clock.max(t),
                None => {
                    if ready.is_empty() {
                        break;
                    }
                    // With fault recovery active this stall may mean
                    // "these tasks lost their last compatible PE"
                    // rather than a scheduler bug; let the resolver
                    // abort those apps and re-evaluate.
                    let resolved = match fstate.as_mut() {
                        Some(state) => resolve_unschedulable(
                            &self.platform,
                            &mut slots,
                            &mut ready,
                            state,
                            &mut sink,
                            names,
                        )?,
                        None => false,
                    };
                    if !resolved {
                        return Err(EmuError::Config(format!(
                            "deadlock: {} ready task(s) but scheduler '{}' dispatches nothing and no events remain",
                            ready.len(),
                            scheduler.name()
                        )));
                    }
                }
            }
        }

        // Return recycled buffers to the arena for the next run.
        view_scratch.put(views);
        *ready_buf = ready.into_buffer();

        let label = format!("{} (DES)", scheduler.name());
        if fast_records {
            // The completion columns ARE the run's task log: hand them
            // (with the scenario's interned names) to the stats, which
            // materializes fat records only if a consumer reads them.
            let dense = DenseTaskLog {
                cols: std::mem::take(done),
                names: Arc::clone(names_arc),
                pes: self.platform.pes.iter().map(|pe| pe.id).collect(),
            };
            Ok(sink.finish_dense(&self.platform, label, instances.to_vec(), dense))
        } else {
            Ok(sink.finish(&self.platform, label, instances.to_vec()))
        }
    }

    /// The dense fast loop: FRFS computed in-engine over an `Arc`-free
    /// ready ring, PE state as one idle bitmask, and completion facts
    /// appended straight to the SoA columns. Taken only when nothing
    /// needs the general machinery (see the gate in
    /// [`Self::run_compiled`]) — and pinned bit-identical to
    /// [`Self::run_loop`] over the same inputs by the
    /// `dense_loop_matches_general_loop` test and the cross-engine
    /// differential suites.
    fn run_loop_dense(
        &self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        cancel: Option<&AtomicBool>,
        s: &mut DesScratch,
    ) -> Result<EmulationStats, EmuError> {
        let instances = scenario.instances();
        let names_arc = &scenario.names;
        let names: &NameTable = names_arc;
        let soa = scenario.soa();
        s.reset();
        let DesScratch {
            inst_base,
            remaining_preds,
            remaining_tasks,
            arrival_order,
            done,
            events,
            due,
            dense_ready,
            ..
        } = &mut *s;

        // ---- SoA instance state, identical to the general prologue.
        let inst_top = instances.iter().map(|i| i.id.0 as usize + 1).max().unwrap_or(0);
        remaining_tasks.resize(inst_top, 0);
        for inst in instances {
            remaining_tasks[inst.id.0 as usize] = soa.specs[names.spec_index(inst.id)].n_nodes;
        }
        inst_base.resize(inst_top, 0);
        let mut flat_total = 0u32;
        for i in 0..inst_top {
            inst_base[i] = flat_total;
            flat_total += remaining_tasks[i];
        }
        remaining_preds.resize(flat_total as usize, 0);
        for inst in instances {
            let base = inst_base[inst.id.0 as usize] as usize;
            let spec = &soa.specs[names.spec_index(inst.id)];
            remaining_preds[base..base + spec.preds_init.len()].copy_from_slice(&spec.preds_init);
        }
        // The columns leave with the stats at end of run, so right-size
        // them up front (the run's task count is known exactly).
        done.reserve(flat_total as usize);

        arrival_order.extend(
            instances
                .iter()
                .enumerate()
                .map(|(i, inst)| (SimTime::from_duration(inst.arrival), i as u32)),
        );
        arrival_order.sort_unstable_by_key(|&(t, i)| (t, i));
        let mut next_arrival = 0usize;
        let mut event_seq = 0u64;

        let mut sink = CompletionSink::new();
        sink.reserve_apps(instances.len());
        let n_pes = self.platform.pes.len();
        // Idle-PE bitmask over platform columns: `free & compat`'s
        // lowest set bit is exactly "first idle compatible PE in
        // descriptor order" — FRFS's placement rule.
        let all_free: u64 = if n_pes >= 64 { u64::MAX } else { (1u64 << n_pes) - 1 };
        let mut free = all_free;
        let charge = self.config.overhead_per_invocation;
        let mut clock = SimTime::ZERO;
        let mut head = 0usize;

        loop {
            if cancel.is_some_and(|flag| flag.load(AtomicOrdering::Relaxed)) {
                return Err(EmuError::Canceled);
            }
            // Same-window batch drain, same full-`Ord` tie-break order
            // as the general loop.
            due.clear();
            events.pop_due(clock.0, due);
            for ev in due.iter() {
                free |= 1u64 << ev.col;
                let id = InstanceId(ev.inst as u64);
                let node_idx = ev.node as usize;
                let spec = &soa.specs[names.spec_index(id)];
                done.push(ev.inst, ev.node, ev.col, ev.ready_at.0, ev.time.0, ev.dur_ns);
                // DAG progress: CSR successor walk over flat countdowns.
                let base = inst_base[ev.inst as usize];
                let lo = spec.succ_off[node_idx] as usize;
                let hi = spec.succ_off[node_idx + 1] as usize;
                for &succ in &spec.succ[lo..hi] {
                    let flat = (base + succ) as usize;
                    remaining_preds[flat] -= 1;
                    if remaining_preds[flat] == 0 {
                        dense_ready.push(DenseReady {
                            inst: ev.inst,
                            node: succ,
                            ready_ns: ev.time.0,
                        });
                    }
                }
                let left = &mut remaining_tasks[ev.inst as usize];
                *left -= 1;
                if *left == 0 {
                    sink.record_app(AppRecord {
                        instance: id,
                        app: names.app(id).clone(),
                        arrival: SimTime::from_duration(instances[ev.inst as usize].arrival),
                        finish: ev.time,
                        task_count: spec.n_nodes as usize,
                    });
                }
            }
            while next_arrival < arrival_order.len() && arrival_order[next_arrival].0 <= clock {
                let (at, idx) = arrival_order[next_arrival];
                next_arrival += 1;
                let inst = &instances[idx as usize];
                let spec = &soa.specs[names.spec_index(inst.id)];
                let iid = inst.id.0 as u32;
                for &r in &spec.roots {
                    dense_ready.push(DenseReady { inst: iid, node: r, ready_ns: at.0 });
                }
            }

            // Schedule at the current clock: strict FIFO, stop at the
            // first head task with no idle compatible PE.
            if head < dense_ready.len() && free != 0 {
                sink.note_sched_invocation();
                if !charge.is_zero() {
                    // With metrics off (guaranteed on this path) a zero
                    // charge is a no-op — skip the call entirely.
                    sink.charge_overhead(OverheadPhase::Schedule, charge);
                }
                while head < dense_ready.len() {
                    let rt = dense_ready[head];
                    let spec = &soa.specs[names.spec_index(InstanceId(rt.inst as u64))];
                    let m = spec.compat[rt.node as usize] & free;
                    if m == 0 {
                        break;
                    }
                    let col = m.trailing_zeros() as usize;
                    free &= !(1u64 << col);
                    let dur_ns = spec.cost_ns[rt.node as usize * soa.stride + col];
                    let finish = clock + charge + Duration::from_nanos(dur_ns);
                    events.push(CompletionEvent {
                        time: finish,
                        inst: rt.inst,
                        node: rt.node,
                        seq: event_seq,
                        col: col as u32,
                        ready_at: SimTime(rt.ready_ns),
                        dur_ns,
                        fault: None,
                    });
                    event_seq += 1;
                    head += 1;
                }
                // Reclaim the consumed prefix once it dominates the
                // ring (mirrors `ReadyList::remove`'s policy).
                if head >= 64 && head * 2 >= dense_ready.len() {
                    dense_ready.drain(..head);
                    head = 0;
                }
            }

            // Advance to the next event (completion or arrival).
            let next_completion = events.peek_time().map(SimTime);
            let next_arr = arrival_order.get(next_arrival).map(|&(t, _)| t);
            match [next_completion, next_arr].into_iter().flatten().min() {
                Some(t) => clock = clock.max(t),
                None => {
                    if head == dense_ready.len() {
                        break;
                    }
                    return Err(EmuError::Config(format!(
                        "deadlock: {} ready task(s) but scheduler '{}' dispatches nothing and no events remain",
                        dense_ready.len() - head,
                        scheduler.name()
                    )));
                }
            }
        }

        let dense = DenseTaskLog {
            cols: std::mem::take(done),
            names: Arc::clone(names_arc),
            pes: self.platform.pes.iter().map(|pe| pe.id).collect(),
        };
        Ok(sink.finish_dense(
            &self.platform,
            format!("{} (DES)", scheduler.name()),
            instances.to_vec(),
            dense,
        ))
    }
}

/// FRFS computed inside the engine: strict FIFO over the pending queue,
/// first idle compatible PE in descriptor order, stop at the first head
/// that cannot start. Byte-for-byte the assignment set
/// [`FrfsScheduler::schedule_into`](crate::sched::FrfsScheduler) would
/// return — `slots.has_room` is exactly the `idle` flag the views would
/// carry, and the SoA sentinel probe is exactly `task.supports(key)`
/// (pinned by `soa_matches_grid` and the differential suites). Output is
/// already in `ready_idx` order and engine-valid, so the caller skips
/// both the sort and the contract check.
fn dense_fifo_assign(
    soa: &ScenarioSoa,
    names: &NameTable,
    slots: &PeSlots,
    platform: &PlatformConfig,
    pending: &[ReadyTask],
    out: &mut Vec<Assignment>,
) {
    let mut taken: u64 = 0;
    for (i, rt) in pending.iter().enumerate() {
        let spec = &soa.specs[names.spec_index(rt.task.instance.id)];
        let row = rt.task.node_idx * soa.stride;
        let mut found = false;
        for (col, pe) in platform.pes.iter().enumerate() {
            if taken & (1 << col) != 0 || !slots.has_room(pe.id) {
                continue;
            }
            if spec.cost_ns[row + col] != INCOMPATIBLE {
                taken |= 1 << col;
                out.push(Assignment { ready_idx: i, pe: pe.id });
                found = true;
                break;
            }
        }
        if !found {
            break;
        }
    }
}
