//! The emulation engine: workload manager + driver (paper Fig. 3).
//!
//! The workload manager "begins by capturing the system clock as the
//! reference start time", then loops: inject applications whose arrival
//! time has passed, monitor the completion status of running tasks via
//! the resource handlers, update the ready task list with tasks whose
//! predecessors have all completed, run the user-selected scheduling
//! policy on the ready list, and communicate selected tasks to the
//! resource managers. Scheduling overhead is accumulated exactly over
//! those phases — monitoring, ready-queue update, policy execution, and
//! dispatch — which is what Fig. 10b reports.
//!
//! # The hand-off on the host
//!
//! The paper's §II-C protocol is kept: the manager dispatches by writing
//! a PE's status field and collects by reading it, each under the PE's
//! lock. What the host adds is how the two sides wait for each other
//! (see [`crate::handler`]). A resource-manager thread waits for work by
//! spinning on a lock-free mirror of its status field for a few tens of
//! µs, then blocking; a dispatch wakes it only if it blocked. The
//! manager, when the virtual clock cannot advance until an in-flight
//! task reports, waits the same way on a pool-wide completion counter —
//! bounded, with faults on, by the earliest running task's watchdog
//! deadline. Both sides spin only when the pool has no more PE threads
//! than the host has cores; otherwise they block at once, since a
//! spinner would take the core a kernel needs and skew `Measured`
//! overhead figures. None of this reaches the emulated SoC's clock:
//! monitoring is still charged `HANDLER_POLL_COST` per PE and dispatch
//! `STATUS_WRITE_COST` per task, the modeled cost of polling status
//! fields on the target, whatever the host did to notice a completion.
//!
//! # Timing modes
//!
//! * [`TimingMode::WallClock`] — the paper's literal behaviour: emulation
//!   time is host wall time, PE threads embody modeled durations in real
//!   time. Faithful, but on a small host the emulated PE count is limited
//!   by real cores.
//! * [`TimingMode::Modeled`] — the emulation clock is virtual: kernels
//!   still execute functionally on real threads (outputs are real), but
//!   task durations are charged from the cost model and the clock only
//!   advances when every in-flight task has reported (a conservative
//!   parallel discrete-event scheme). This is what lets a 2-core host
//!   emulate a 7-PE DSSoC with correct *relative* timing — and it is
//!   deterministic when paired with a [`CostTable`] and
//!   [`OverheadMode::Fixed`]/[`OverheadMode::None`].
//!
//! [`CostTable`]: dssoc_platform::cost::CostTable

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::error::ModelError;
use dssoc_appmodel::instance::{AppInstance, InstanceId};
use dssoc_appmodel::workload::Workload;
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::pe::{PeId, PlatformConfig};
use dssoc_trace::{EventKind as TraceKind, FaultKind, TraceSink};

use crate::exec::{
    fail_idle_pes, pe_mask_bit, register_trace_meta, resolve_unschedulable, validate_assignments,
    CompletionSink, ExecTracer, InstanceTracker, PeSlots, ReadyList,
};
use crate::fault::{FaultDecision, FaultPlan, FaultSpec, FaultState};
use crate::handler::{ResourceHandler, TaskAssignment, TaskCompletion};
use crate::intern::NameTable;
use crate::job::{CompiledScenario, CostSpec, ScenarioSpec};
use crate::metrics::{ExecMetrics, OverheadPhase};
use crate::resource::ResourcePool;
use crate::sched::{EstimateBook, PeView, SchedContext, Scheduler};
use crate::stats::{EmulationStats, TaskRecord};
use crate::task::{ReadyTask, Task};
use crate::time::SimTime;

/// How emulation time is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Host wall time; PE threads busy-wait/sleep out their modeled
    /// durations (the paper's literal behaviour on its testbeds).
    WallClock,
    /// Virtual emulation clock driven by the cost model; functional
    /// execution still happens for real.
    Modeled,
}

/// How workload-manager overhead is charged to the emulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadMode {
    /// Measure the real phase durations and scale them by the overlay
    /// core's relative speed (default; this is what exposes FRFS vs
    /// MET vs EFT overhead in Fig. 10b and the slow-overlay effect in
    /// Fig. 11).
    Measured,
    /// Charge a fixed duration per scheduler invocation (deterministic;
    /// used by differential tests).
    Fixed(Duration),
    /// Charge nothing (what a discrete-event simulator implicitly does).
    None,
}

/// Engine configuration.
#[derive(Clone)]
pub struct EmulationConfig {
    /// Timing mode.
    pub timing: TimingMode,
    /// Overhead charging mode.
    pub overhead: OverheadMode,
    /// Cost specification for CPU task durations in
    /// [`TimingMode::Modeled`]; resolved to a
    /// [`CostModel`](dssoc_platform::cost::CostModel) when the resource
    /// pool is spawned.
    pub cost: CostSpec,
    /// PE-level reservation-queue depth — the paper's stated future work
    /// ("abstractions like PE-level work queues to enable lower-overhead
    /// task dispatch"). `0` reproduces the paper's evaluated behaviour:
    /// the scheduler runs on every task completion and each dispatch
    /// pays scheduling overhead. With depth `k > 0`, a scheduler may
    /// assign up to `k` additional tasks to a busy PE; the PE starts a
    /// queued task the instant the previous one finishes, with no
    /// workload-manager involvement charged.
    pub reservation_depth: usize,
    /// Optional event-trace sink (see the `dssoc-trace` crate). `None`
    /// — the default — costs one branch per would-be event; `Some`
    /// records the full emulation lifecycle into the sink's session for
    /// Chrome/Perfetto, Gantt, and JSONL export.
    pub trace: Option<TraceSink>,
    /// Optional deterministic fault-injection spec (see [`FaultSpec`]).
    /// `None` — the default — keeps every fault-recovery path compiled
    /// out of the hot loop behind one branch.
    pub faults: Option<Arc<FaultSpec>>,
    /// Optional live-metrics registry (see the `dssoc-metrics` crate).
    /// `None` — the default — costs one branch per would-be sample;
    /// `Some` publishes counters/gauges/histograms that any thread can
    /// snapshot mid-run or expose over HTTP.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            timing: TimingMode::Modeled,
            overhead: OverheadMode::Measured,
            cost: CostSpec::default(),
            reservation_depth: 0,
            trace: None,
            faults: None,
            metrics: None,
        }
    }
}

impl EmulationConfig {
    /// Lowers this configuration to the scenario of one run: the config
    /// supplies timing, overhead, cost, reservation depth, and faults.
    pub fn scenario(
        &self,
        library: Arc<AppLibrary>,
        platform: Arc<PlatformConfig>,
        scheduler: String,
        workload: Arc<Workload>,
    ) -> ScenarioSpec {
        ScenarioSpec {
            library,
            platform,
            scheduler,
            workload,
            timing: self.timing,
            overhead: self.overhead,
            cost: self.cost.clone(),
            reservation_depth: self.reservation_depth,
            faults: self.faults.clone(),
        }
    }
}

impl std::fmt::Debug for EmulationConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmulationConfig")
            .field("timing", &self.timing)
            .field("overhead", &self.overhead)
            .field("cost", &self.cost)
            .field("reservation_depth", &self.reservation_depth)
            .field("traced", &self.trace.is_some())
            .field("faulted", &self.faults.is_some())
            .field("metered", &self.metrics.is_some())
            .finish()
    }
}

/// Errors surfaced by an emulation run.
#[derive(Debug)]
pub enum EmuError {
    /// Application-model failure (parsing, instantiation, unknown app).
    Model(ModelError),
    /// Invalid configuration (bad platform, incompatible workload,
    /// misbehaving scheduler).
    Config(String),
    /// A kernel failed during execution.
    TaskFailed {
        /// Application name.
        app: String,
        /// DAG node name.
        node: String,
        /// Kernel error text.
        reason: String,
    },
    /// Fault recovery ran out of options: the injected faults left no
    /// PE able to make progress. Carries the last fault's context.
    Fault {
        /// Application name of the last faulted task.
        app: String,
        /// DAG node name of the last faulted task.
        node: String,
        /// Display name of the PE the last fault hit.
        pe: String,
        /// Why the run is unrecoverable.
        reason: String,
    },
    /// The run was cooperatively cancelled mid-flight: its cancel flag
    /// (see [`DesSimulator::run_compiled`]
    /// (crate::des::DesSimulator::run_compiled)) was observed set at an
    /// event-loop poll point. Simulated state is discarded; the warm
    /// scratch arena is returned intact, so the engine stays reusable.
    Canceled,
}

impl std::fmt::Display for EmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmuError::Model(e) => write!(f, "model error: {e}"),
            EmuError::Config(msg) => write!(f, "configuration error: {msg}"),
            EmuError::TaskFailed { app, node, reason } => {
                write!(f, "task {app}/{node} failed: {reason}")
            }
            EmuError::Fault { app, node, pe, reason } => {
                write!(f, "unrecoverable fault (last: {app}/{node} on {pe}): {reason}")
            }
            EmuError::Canceled => write!(f, "run cancelled"),
        }
    }
}

impl std::error::Error for EmuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmuError::Model(e) => Some(e),
            EmuError::Config(_)
            | EmuError::TaskFailed { .. }
            | EmuError::Fault { .. }
            | EmuError::Canceled => None,
        }
    }
}

impl From<ModelError> for EmuError {
    fn from(e: ModelError) -> Self {
        EmuError::Model(e)
    }
}

/// Robust overhead sampler: on a small host, concurrently executing PE
/// threads preempt the workload manager mid-phase, so a raw `Instant`
/// span can include an involuntary context switch plus a slice of
/// somebody else's kernel. The paper avoids this by pinning the manager
/// to a dedicated core; we approximate that isolation by *learning*
/// phase costs only from quiet iterations (no emulated PE actively
/// executing on the host) and charging the learned cost during noisy
/// ones.
struct PhaseSampler {
    ewma: f64, // seconds
}

impl PhaseSampler {
    const OUTLIER_FACTOR: f64 = 4.0;
    /// Prior for the very first samples: a few microseconds of
    /// bookkeeping, so cold-start page faults and first-touch
    /// allocations don't poison the average.
    const PRIOR: f64 = 1.5e-6;

    fn new() -> Self {
        PhaseSampler { ewma: Self::PRIOR }
    }

    /// Feeds a raw measurement, returning the charge. `quiet` iterations
    /// (every in-flight task already reported, so all PE threads are
    /// parked) update the running average; noisy ones are charged at
    /// most the learned quiet-iteration cost.
    fn sample(&mut self, raw: Duration, quiet: bool) -> Duration {
        let x = raw.as_secs_f64();
        if quiet {
            let clamped = x.min(self.ewma * Self::OUTLIER_FACTOR);
            self.ewma = 0.85 * self.ewma + 0.15 * clamped;
            Duration::from_secs_f64(clamped)
        } else {
            Duration::from_secs_f64(x.min(self.ewma))
        }
    }
}

/// Modeled cost of communicating one dispatch to a resource manager on
/// the emulated SoC: a locked status-field write plus the coherence
/// traffic for the polling manager thread to observe it.
const STATUS_WRITE_COST: Duration = Duration::from_nanos(300);

/// Modeled cost of polling one resource handler's status field under its
/// lock (host-relative; scaled by the overlay speed like every other
/// overhead term). On the emulated SoC each poll is a lock acquisition
/// plus a cache line that the PE core last wrote — this is the term that
/// makes monitoring cost proportional to the PE count (the paper's
/// Fig. 11 explanation for why 7-PE Odroid pools stop paying off on a
/// slow LITTLE overlay core). It is a modeled charge for the emulated
/// SoC: it does not depend on how the host discovers completions (the
/// manager's wait on the pool's completion counter).
const HANDLER_POLL_COST: Duration = Duration::from_nanos(800);

struct PendingCompletion {
    finish: SimTime,
    pe: PeId,
    /// `Some` when the fault plan rewrote this attempt's outcome:
    /// `finish` is then the fault manifestation time.
    fault: Option<FaultKind>,
    completion: TaskCompletion,
}

/// Dispatch-time metadata for the task currently running on a PE, kept
/// only when fault injection is on: the fault decision and the
/// wall-clock watchdog both need the attempt's estimate and start.
struct RunningMeta {
    task: Task,
    est: Duration,
    start: SimTime,
    wall: Instant,
    attempt: u32,
}

impl RunningMeta {
    /// The wall-clock instant past which the watchdog declares this
    /// attempt's manager thread wedged.
    fn deadline(&self, plan: &FaultPlan) -> Instant {
        self.wall + mul_duration(self.est, plan.watchdog_factor).max(plan.watchdog_min_wall)
    }
}

/// A faulted task waiting out its retry backoff. `seq` breaks release-
/// time ties deterministically (fault processing order).
struct RetryEntry {
    release: SimTime,
    seq: u64,
    task: Task,
}

/// The platform key of a PE, for degraded-dispatch detection (a retry
/// landing on a different key than the PE it faulted on).
fn pe_key(handlers: &[Arc<ResourceHandler>], id: PeId) -> Option<&str> {
    handlers.iter().find(|h| h.pe_id() == id).map(|h| h.pe.platform_key.as_str())
}

/// Handles `pe` freeing up at `at`: starts its next reserved task (the
/// reservation-queue fast path, shared by normal and faulted
/// completions) or marks it idle. With fault state, records the new
/// attempt's dispatch metadata and degraded-dispatch event.
#[allow(clippy::too_many_arguments)]
fn release_pe(
    pe: PeId,
    at: SimTime,
    handlers: &[Arc<ResourceHandler>],
    slots: &mut PeSlots,
    estimates: &EstimateBook,
    ready_at_of: &mut HashMap<(InstanceId, usize), SimTime>,
    tracer: &ExecTracer,
    running: &mut HashMap<PeId, RunningMeta>,
    fstate: Option<&mut FaultState>,
    sink: &mut CompletionSink,
) {
    let Some(next) = slots.release(pe) else {
        tracer.emit(at, TraceKind::PeIdle { pe: pe.0 });
        return;
    };
    let handler = handlers.iter().find(|h| h.pe_id() == pe).expect("known PE");
    let est = estimates.estimate(&next.task, &handler.pe).unwrap_or(Duration::from_micros(100));
    slots.occupy(pe, at + est);
    ready_at_of.insert(next.task.key(), next.ready_at);
    tracer.emit(
        at,
        TraceKind::TaskDispatch {
            instance: next.task.instance.id.0,
            node: next.task.node_idx as u32,
            pe: pe.0,
        },
    );
    if let Some(state) = fstate {
        let (instance, node) = (next.task.instance.id.0, next.task.node_idx);
        let attempt = state.attempt_of(instance, node);
        if attempt > 1 {
            if let Some(prev) = state.last_fault_pe(instance, node) {
                if pe_key(handlers, prev) != pe_key(handlers, pe) {
                    sink.record_degraded(
                        at,
                        instance,
                        node,
                        pe,
                        state.note_degraded(instance, node),
                    );
                }
            }
        }
        running.insert(
            pe,
            RunningMeta { task: next.task.clone(), est, start: at, wall: Instant::now(), attempt },
        );
    }
    handler.dispatch(TaskAssignment { task: next.task, start: at });
}

/// The emulation driver: a thin per-run loop over a persistent
/// [`ResourcePool`].
///
/// Construction brings up the pool (paper §II-A's initialization phase:
/// handlers plus one named resource-manager thread per PE); each
/// [`Self::run`] call executes one workload against it and the threads
/// park between runs, so a batch sweep pays thread-spawn cost once. The
/// pool is shut down and joined when the `Emulation` is dropped.
pub struct Emulation {
    platform: Arc<PlatformConfig>,
    config: EmulationConfig,
    pool: ResourcePool,
    /// PEs whose resource-manager thread wedged (watchdog fired and the
    /// thread never reported back). They are excluded from end-of-run
    /// drains and start subsequent runs quarantined; a PE is removed
    /// again once its thread finally posts the stale completion.
    wedged: RefCell<HashSet<PeId>>,
}

impl Emulation {
    /// Builds a driver with the default configuration (modeled timing,
    /// measured overhead, scaled-measured costs).
    pub fn new(platform: impl Into<Arc<PlatformConfig>>) -> Result<Self, EmuError> {
        Self::with_config(platform, EmulationConfig::default())
    }

    /// Builds a driver with an explicit configuration, spawning its
    /// resource pool. The platform is `Arc`-shared: pass an existing
    /// `Arc<PlatformConfig>` to avoid a deep clone.
    pub fn with_config(
        platform: impl Into<Arc<PlatformConfig>>,
        config: EmulationConfig,
    ) -> Result<Self, EmuError> {
        let platform = platform.into();
        platform.validate().map_err(EmuError::Config)?;
        let cost = config.cost.resolve();
        let pool = ResourcePool::spawn(&platform, &cost, config.timing)?;
        if let Some(sink) = &config.trace {
            pool.attach_trace(sink);
        }
        Ok(Emulation { platform, config, pool, wedged: RefCell::new(HashSet::new()) })
    }

    /// The platform being emulated.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// Runs a workload to completion under `scheduler`, returning the
    /// collected statistics: lowers the configuration to a
    /// [`ScenarioSpec`], compiles it (labelled with the scheduler's
    /// name), and runs it with [`Self::run_compiled`]. The persistent
    /// resource pool is reused: consecutive runs on the same `Emulation`
    /// dispatch to the same threads.
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
        self.run_compiled(scheduler, &scenario, None)
    }

    /// Runs a precompiled scenario, reusing its name table and fault
    /// plan. Kernels mutate instance memory, so the threaded engine
    /// instantiates fresh private instances per run; ids and spec
    /// mapping match the scenario's shared images by construction,
    /// which is what keeps the precompiled [`NameTable`] valid.
    /// Compatibility was preflighted at compile time.
    ///
    /// `trace` records this run only — the driver and every resource
    /// manager — in place of the configured sink, which is back in
    /// place when the call returns.
    pub fn run_compiled(
        &mut self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        trace: Option<&TraceSink>,
    ) -> Result<EmulationStats, EmuError> {
        let spec = scenario.spec();
        let instances: Vec<Arc<AppInstance>> =
            spec.workload.instantiate(&spec.library)?.into_iter().map(Arc::new).collect();
        if let Some(sink) = trace {
            self.pool.attach_trace(sink);
        }
        let result = self.workload_manager(
            scheduler,
            instances,
            self.pool.handlers(),
            scenario.names(),
            scenario.plan(),
            trace.or(self.config.trace.as_ref()),
        );
        if result.is_err() {
            // A failed run can leave tasks in flight; wait them out so
            // every PE is idle again for the next run on this pool —
            // except wedged manager threads, which would never report.
            self.pool.drain_except(&self.wedged.borrow());
        }
        if trace.is_some() {
            match &self.config.trace {
                Some(sink) => self.pool.attach_trace(sink),
                None => self.pool.detach_trace(),
            }
        }
        result
    }

    /// The workload-manager loop (runs on the calling thread — the
    /// emulation's "overlay processor"). `names` and `plan` are the
    /// compiled scenario's shared precomputations.
    fn workload_manager(
        &self,
        scheduler: &mut dyn Scheduler,
        instances: Vec<Arc<AppInstance>>,
        handlers: &[Arc<ResourceHandler>],
        names: &NameTable,
        plan: Option<&FaultPlan>,
        trace: Option<&TraceSink>,
    ) -> Result<EmulationStats, EmuError> {
        let timing = self.config.timing;
        let overlay_speed = self.platform.overlay.speed;

        let mut tracker = InstanceTracker::new(&instances, names);
        let kept_instances = instances.clone();
        let metrics = match &self.config.metrics {
            Some(registry) => ExecMetrics::attach(registry, &self.platform, &kept_instances),
            None => ExecMetrics::disabled(),
        };
        let mut arrivals: VecDeque<Arc<AppInstance>> = instances.into();
        let mut ready = ReadyList::new();
        ready.set_metrics(metrics.clone());
        let mut slots = PeSlots::for_platform(&self.platform, self.config.reservation_depth);
        slots.set_metrics(metrics.clone());
        // Platform compatibility of a ready task with a PE column, for
        // the fault-recovery stall resolver.
        let supports =
            |rt: &ReadyTask, col: usize| rt.task.supports(&self.platform.pes[col].platform_key);
        // ready_at of dispatched tasks, consumed when the completion is
        // recorded.
        let mut ready_at_of: HashMap<(InstanceId, usize), SimTime> = HashMap::new();
        let mut pending: Vec<PendingCompletion> = Vec::new();
        let mut estimates = EstimateBook::new();

        // ---- Fault machinery (all empty/None without a fault spec).
        let mut fstate: Option<FaultState> = plan.map(|p| FaultState::new(p.retry.clone()));
        let mut retries: Vec<RetryEntry> = Vec::new();
        let mut retry_seq = 0u64;
        let mut running: HashMap<PeId, RunningMeta> = HashMap::new();
        // PEs whose manager thread wedged in an earlier run on this
        // pool: their eventual (stale) completions are discarded, and
        // they start this run quarantined.
        let mut stale: HashSet<PeId> = self.wedged.borrow().clone();
        for &pe in &stale {
            slots.fail(pe);
        }

        // Reference start time (paper: captured at emulation start).
        let wall_start = Instant::now();
        let mut vclock = SimTime::ZERO;

        let mut sink = CompletionSink::new();
        let tracer = match trace {
            Some(trace_sink) => {
                register_trace_meta(trace_sink, &self.platform, scheduler.name(), &kept_instances);
                ExecTracer::attach(trace_sink, "workload-manager")
            }
            None => ExecTracer::disabled(),
        };
        ready.set_tracer(tracer.clone());
        sink.set_tracer(tracer.clone());
        sink.set_metrics(metrics);
        let mut sampler_mu = PhaseSampler::new();
        let mut sampler_s = PhaseSampler::new();
        let mut sampler_d = PhaseSampler::new();
        let mut failure: Option<EmuError> = None;
        // Scratch buffer for the scheduler's per-invocation PE views.
        let mut views: Vec<PeView<'_>> = Vec::with_capacity(handlers.len());

        let completions = self.pool.completions();
        'outer: loop {
            // Read before the monitor scan, so a completion the scan
            // misses still ends the wait below.
            let seen = completions.posted();
            let mut now = match timing {
                TimingMode::WallClock => SimTime::from_duration(wall_start.elapsed()),
                TimingMode::Modeled => vclock,
            };
            let mut progress = false;
            // Quiet = every in-flight task has already posted its
            // completion, so no PE thread is executing on the host and
            // phase measurements are preemption-free (the paper's
            // dedicated-manager-core situation).
            let quiet = slots.busy_count() == pending.len();

            // ---- Monitor: read every resource handler's status field
            // under its lock (the paper's poll).
            let t_mon = Instant::now();
            for h in handlers.iter() {
                if let Some(c) = h.try_collect() {
                    let pe = h.pe_id();
                    if stale.remove(&pe) {
                        // A wedged manager thread finally reported: the
                        // result belongs to an abandoned attempt.
                        // Discard it — the thread is usable again next
                        // run, but the PE stays quarantined in this one.
                        self.wedged.borrow_mut().remove(&pe);
                        continue;
                    }
                    let meta = running.remove(&pe);
                    let natural = match timing {
                        TimingMode::WallClock => now,
                        TimingMode::Modeled => c.start + c.modeled,
                    };
                    let mut fault = None;
                    let mut finish = natural;
                    if let Some(plan) = plan {
                        let m = meta.as_ref().expect("dispatched task has metadata");
                        let decision = if c.result.is_err() {
                            // A real kernel error under the recovery
                            // policy is a retryable exec fault.
                            Some(FaultDecision { time: natural, kind: FaultKind::Exec })
                        } else {
                            let kernel = names
                                .runfunc(c.task.instance.id, c.task.node_idx, pe)
                                .cloned()
                                .unwrap_or_default();
                            plan.decide(
                                kernel.as_str(),
                                pe,
                                c.task.instance.id.0,
                                c.task.node_idx,
                                m.attempt,
                                c.start,
                                natural,
                                m.est,
                            )
                        };
                        if let Some(d) = decision {
                            finish = d.time;
                            fault = Some(d.kind);
                        }
                    }
                    pending.push(PendingCompletion { finish, pe, fault, completion: c });
                }
            }
            // Wall-clock watchdog: a dispatched kernel that has blown
            // far past its estimate in *real* time has wedged its
            // manager thread. Synthesize a faulted completion at the
            // virtual deadline and stop waiting on the thread (it is
            // skipped by end-of-run drains and remembered across runs)
            // — the alternative is deadlocking the whole emulation.
            if let Some(plan) = plan {
                let wedged: Vec<PeId> = running
                    .iter()
                    .filter(|(pe, m)| !stale.contains(pe) && Instant::now() >= m.deadline(plan))
                    .map(|(pe, _)| *pe)
                    .collect();
                for pe in wedged {
                    let m = running.remove(&pe).expect("listed above");
                    let virtual_overrun = mul_duration(m.est, plan.watchdog_factor);
                    pending.push(PendingCompletion {
                        finish: m.start + virtual_overrun,
                        pe,
                        fault: Some(FaultKind::Watchdog),
                        completion: TaskCompletion {
                            task: m.task,
                            start: m.start,
                            modeled: virtual_overrun,
                            measured: m.wall.elapsed(),
                            accel_reports: Vec::new(),
                            result: Ok(()),
                        },
                    });
                    stale.insert(pe);
                    self.wedged.borrow_mut().insert(pe);
                }
            }
            let monitor_raw = t_mon.elapsed();

            // ---- Update: process completions that are due, in
            // deterministic (finish, task) order; append newly unblocked
            // tasks to the ready list.
            let t_upd = Instant::now();
            pending.sort_by(|a, b| {
                (a.finish, a.completion.task.key()).cmp(&(b.finish, b.completion.task.key()))
            });
            while let Some(pos) = pending.iter().position(|p| p.finish <= now) {
                let p = pending.remove(pos);
                progress = true;
                // Faulted attempt: no task record, no estimate update,
                // no DAG progress — the work was lost. Run the recovery
                // policy instead.
                if let Some(kind) = p.fault {
                    let plan = plan.expect("fault implies a plan");
                    let state = fstate.as_mut().expect("fault implies fault state");
                    let c = p.completion;
                    let (instance, node) = (c.task.instance.id.0, c.task.node_idx);
                    ready_at_of.remove(&c.task.key());
                    sink.record_fault(p.finish, instance, node, p.pe, kind);
                    let action = state.on_fault(plan, instance, node, p.pe, kind, p.finish);
                    if action.quarantine && !slots.is_failed(p.pe) {
                        // Requeue work reserved behind the dead PE, then
                        // retire it: no PeIdle event — the PE leaves the
                        // schedulable set for good.
                        for rt in slots.take_reserved(p.pe) {
                            ready.push(rt.task, p.finish);
                        }
                        slots.release(p.pe);
                        slots.fail(p.pe);
                        sink.record_quarantine(p.finish, p.pe);
                    } else {
                        release_pe(
                            p.pe,
                            p.finish,
                            handlers,
                            &mut slots,
                            &estimates,
                            &mut ready_at_of,
                            &tracer,
                            &mut running,
                            Some(state),
                            &mut sink,
                        );
                    }
                    if let Some((attempt, release)) = action.retry {
                        sink.record_retry(p.finish, instance, node, attempt, release);
                        retries.push(RetryEntry { release, seq: retry_seq, task: c.task });
                        retry_seq += 1;
                    } else if action.newly_aborted {
                        sink.record_abort();
                    }
                    continue;
                }
                // Reservation queue: the PE itself starts its next
                // queued task at the completion instant — no scheduler
                // invocation, no charged overhead (the point of the
                // paper's proposed work queues).
                release_pe(
                    p.pe,
                    p.finish,
                    handlers,
                    &mut slots,
                    &estimates,
                    &mut ready_at_of,
                    &tracer,
                    &mut running,
                    fstate.as_mut(),
                    &mut sink,
                );
                let c = p.completion;
                if let Err(e) = &c.result {
                    failure = Some(EmuError::TaskFailed {
                        app: c.task.app_name().to_string(),
                        node: c.task.node().name.clone(),
                        reason: e.to_string(),
                    });
                    break 'outer;
                }
                let pe = handlers.iter().find(|h| h.pe_id() == p.pe).expect("known PE");
                let kernel = names
                    .runfunc(c.task.instance.id, c.task.node_idx, p.pe)
                    .cloned()
                    .unwrap_or_default();
                estimates.observe(&kernel, pe.pe.class_name(), c.modeled);
                sink.record_task(TaskRecord {
                    instance: c.task.instance.id,
                    app: names.app(c.task.instance.id).clone(),
                    node: names.node(c.task.instance.id, c.task.node_idx).clone(),
                    node_idx: c.task.node_idx,
                    kernel,
                    pe: p.pe,
                    ready_at: ready_at_of.remove(&c.task.key()).unwrap_or(c.start),
                    start: c.start,
                    finish: p.finish,
                    modeled: c.modeled,
                    measured: c.measured,
                });
                if let Some(rec) = tracker.complete_task(&c.task, p.finish, &mut ready) {
                    if fstate.as_ref().is_some_and(|s| s.had_faults(c.task.instance.id.0)) {
                        sink.record_survival();
                    }
                    sink.record_app(rec);
                }
            }

            // ---- Release due retries into the ready list, in
            // deterministic (release, seq) order.
            if !retries.is_empty() {
                retries.sort_by_key(|r| (r.release, r.seq));
                while retries.first().is_some_and(|r| r.release <= now) {
                    let r = retries.remove(0);
                    ready.push(r.task, r.release);
                    progress = true;
                }
            }

            // ---- Inject: applications whose arrival time has passed.
            while arrivals.front().is_some_and(|a| SimTime::from_duration(a.arrival) <= now) {
                let inst = arrivals.pop_front().expect("checked front");
                let at = SimTime::from_duration(inst.arrival);
                tracer.emit(at, TraceKind::AppArrive { instance: inst.id.0 });
                ready.push_roots(&inst, at);
                progress = true;
            }
            let update_raw = t_upd.elapsed();

            // Charge monitor/update overhead on productive iterations.
            // (Idle polls are not charged — the paper's overhead metric
            // covers the work done around task completions and arrivals,
            // not the spin-wait between them.)
            if progress {
                let (m, u) = match self.config.overhead {
                    OverheadMode::Measured => {
                        let k = 1.0 / overlay_speed;
                        let mu = sampler_mu.sample(monitor_raw + update_raw, quiet)
                            + HANDLER_POLL_COST * handlers.len() as u32;
                        let m_frac = monitor_raw.as_secs_f64()
                            / (monitor_raw + update_raw).as_secs_f64().max(1e-12);
                        (
                            mul_duration(mul_duration(mu, m_frac), k),
                            mul_duration(mul_duration(mu, 1.0 - m_frac), k),
                        )
                    }
                    OverheadMode::Fixed(_) | OverheadMode::None => (Duration::ZERO, Duration::ZERO),
                };
                sink.charge_overhead(OverheadPhase::Monitor, m);
                sink.charge_overhead(OverheadPhase::Update, u);
                if timing == TimingMode::Modeled {
                    now += m + u;
                    vclock = now;
                }
            }

            // ---- Schedule + dispatch. The scheduling and dispatch
            // overhead delays the dispatched tasks themselves (the
            // workload manager runs inline on the overlay core), which is
            // how scheduler complexity shows up in workload execution
            // time (paper Fig. 10). The policy runs when the ready list
            // or PE availability just changed — i.e. on completions and
            // arrivals, matching the paper's "a scheduling algorithm
            // incurs this overhead every time a task completes".
            // With reservation queues a single pass fills at most one
            // slot per PE, so the scheduling phase repeats until the
            // policy stops assigning or no schedulable slot remains —
            // each pass paying its own overhead charge.

            // Permanent failures on idle PEs take effect as the clock
            // passes them (busy PEs die through their in-flight
            // attempt's fault decision instead).
            if let Some(plan) = plan {
                let pes = handlers.iter().map(|h| h.pe_id());
                fail_idle_pes(plan, pes, now, &mut slots, &mut sink);
            }

            let mut sched_pass = 0usize;
            loop {
                if !(progress && !ready.is_empty() && slots.any_schedulable()) {
                    break;
                }
                if sched_pass > 0 && slots.depth() == 0 {
                    // Without queues one pass is complete (the policy saw
                    // every idle PE already).
                    break;
                }
                sched_pass += 1;
                let t_sched = Instant::now();
                views.clear();
                views.extend(handlers.iter().map(|h| slots.view(&h.pe, now)));
                let ctx = SchedContext { now, estimates: &estimates };
                let mut assignments = scheduler.schedule(ready.pending(), &views, &ctx);
                sink.note_sched_invocation();
                let schedule_raw = t_sched.elapsed();
                if tracer.enabled() {
                    let candidates =
                        views.iter().filter(|v| v.idle).fold(0u64, |m, v| m | pe_mask_bit(v.pe.id));
                    let chosen = assignments.iter().fold(0u64, |m, a| m | pe_mask_bit(a.pe));
                    tracer.emit(
                        now,
                        TraceKind::SchedDecision {
                            invocation: sink.sched_invocations,
                            ready: ready.len() as u32,
                            candidates,
                            chosen,
                            assigned: assignments.len() as u32,
                        },
                    );
                }

                // Charge the policy's own cost before dispatching.
                let s_charge = match self.config.overhead {
                    OverheadMode::Measured => {
                        mul_duration(sampler_s.sample(schedule_raw, quiet), 1.0 / overlay_speed)
                    }
                    OverheadMode::Fixed(d) => d,
                    OverheadMode::None => Duration::ZERO,
                };
                sink.charge_overhead(OverheadPhase::Schedule, s_charge);
                if timing == TimingMode::Modeled {
                    now += s_charge;
                    vclock = now;
                }

                let t_disp = Instant::now();
                // Validate the scheduler contract before touching state.
                if let Err(e) = validate_assignments(
                    scheduler.name(),
                    &assignments,
                    ready.pending(),
                    &slots,
                    &self.platform,
                ) {
                    failure = Some(e);
                    break 'outer;
                }
                // The handler hand-off itself is *not* timed: waking a
                // sleeping host thread costs a futex syscall here,
                // whereas on the emulated SoC the dispatch communication
                // is a locked status-field write that the polling
                // resource manager observes — that cost is charged as a
                // fixed term per dispatch instead.
                assignments.sort_by_key(|a| a.ready_idx);
                let mut to_dispatch = Vec::with_capacity(assignments.len());
                for a in &assignments {
                    let rt = ready.pending()[a.ready_idx].clone();
                    let handler = handlers.iter().find(|h| h.pe_id() == a.pe).expect("validated");
                    let est = estimates
                        .estimate(&rt.task, &handler.pe)
                        .unwrap_or(Duration::from_micros(100));
                    if slots.is_busy(a.pe) {
                        // PE busy but with reservation room: enqueue.
                        slots.extend(a.pe, est);
                        slots.reserve(a.pe, rt);
                    } else {
                        slots.occupy(a.pe, now + est);
                        ready_at_of.insert(rt.task.key(), rt.ready_at);
                        tracer.emit(
                            now,
                            TraceKind::TaskDispatch {
                                instance: rt.task.instance.id.0,
                                node: rt.task.node_idx as u32,
                                pe: a.pe.0,
                            },
                        );
                        tracer.emit(now, TraceKind::PeBusy { pe: a.pe.0 });
                        if let Some(state) = fstate.as_mut() {
                            let (instance, node) = (rt.task.instance.id.0, rt.task.node_idx);
                            let attempt = state.attempt_of(instance, node);
                            if attempt > 1 {
                                if let Some(prev) = state.last_fault_pe(instance, node) {
                                    if pe_key(handlers, prev) != pe_key(handlers, a.pe) {
                                        sink.record_degraded(
                                            now,
                                            instance,
                                            node,
                                            a.pe,
                                            state.note_degraded(instance, node),
                                        );
                                    }
                                }
                            }
                            running.insert(
                                a.pe,
                                RunningMeta {
                                    task: rt.task.clone(),
                                    est,
                                    start: now,
                                    wall: Instant::now(),
                                    attempt,
                                },
                            );
                        }
                        to_dispatch.push((handler, TaskAssignment { task: rt.task, start: now }));
                    }
                    progress = true;
                }
                ready.remove(&assignments);
                let dispatch_raw = t_disp.elapsed() + STATUS_WRITE_COST * to_dispatch.len() as u32;
                for (handler, assignment) in to_dispatch {
                    handler.dispatch(assignment);
                }
                let d_charge = match self.config.overhead {
                    OverheadMode::Measured => {
                        mul_duration(sampler_d.sample(dispatch_raw, quiet), 1.0 / overlay_speed)
                    }
                    OverheadMode::Fixed(_) | OverheadMode::None => Duration::ZERO,
                };
                sink.charge_overhead(OverheadPhase::Dispatch, d_charge);
                if timing == TimingMode::Modeled {
                    now += d_charge;
                    vclock = now;
                }
                if assignments.is_empty() {
                    break;
                }
            }

            // ---- Termination.
            if arrivals.is_empty()
                && ready.is_empty()
                && slots.all_idle()
                && pending.is_empty()
                && retries.is_empty()
            {
                break;
            }

            // ---- Advance time / wait for reports.
            if !progress {
                match timing {
                    TimingMode::WallClock => {
                        if arrivals.is_empty()
                            && pending.is_empty()
                            && retries.is_empty()
                            && slots.all_idle()
                            && !ready.is_empty()
                        {
                            // With fault recovery active this stall may
                            // mean "these tasks lost their last
                            // compatible PE" rather than a scheduler
                            // bug; let the resolver abort those apps.
                            let resolved = match fstate.as_mut() {
                                Some(state) => match resolve_unschedulable(
                                    &self.platform,
                                    &mut slots,
                                    &mut ready,
                                    state,
                                    &mut sink,
                                    names,
                                    supports,
                                ) {
                                    Ok(r) => r,
                                    Err(e) => {
                                        failure = Some(e);
                                        break 'outer;
                                    }
                                },
                                None => false,
                            };
                            if !resolved {
                                failure = Some(EmuError::Config(format!(
                                    "deadlock: {} ready task(s) but scheduler '{}' dispatches nothing and no work is in flight",
                                    ready.len(),
                                    scheduler.name()
                                )));
                                break 'outer;
                            }
                            continue;
                        }
                        std::thread::yield_now();
                    }
                    TimingMode::Modeled => {
                        if pending.len() < slots.busy_count() {
                            // Some in-flight task hasn't reported its
                            // modeled duration yet; the virtual clock
                            // cannot safely advance. Wait for a report —
                            // with faults on, no longer than the first
                            // watchdog deadline, so a wedged thread is
                            // still caught.
                            let deadline = plan.and_then(|plan| {
                                running
                                    .iter()
                                    .filter(|(pe, _)| !stale.contains(pe))
                                    .map(|(_, m)| m.deadline(plan))
                                    .min()
                            });
                            completions.wait_past(seen, deadline);
                            continue;
                        }
                        let mut next = SimTime::MAX;
                        if let Some(a) = arrivals.front() {
                            next = next.min(SimTime::from_duration(a.arrival));
                        }
                        for p in &pending {
                            next = next.min(p.finish);
                        }
                        for r in &retries {
                            next = next.min(r.release);
                        }
                        if next == SimTime::MAX {
                            let resolved = match fstate.as_mut() {
                                Some(state) => match resolve_unschedulable(
                                    &self.platform,
                                    &mut slots,
                                    &mut ready,
                                    state,
                                    &mut sink,
                                    names,
                                    supports,
                                ) {
                                    Ok(r) => r,
                                    Err(e) => {
                                        failure = Some(e);
                                        break 'outer;
                                    }
                                },
                                None => false,
                            };
                            if !resolved {
                                failure = Some(EmuError::Config(format!(
                                    "deadlock: {} ready task(s) but scheduler '{}' dispatches nothing and no work is in flight",
                                    ready.len(),
                                    scheduler.name()
                                )));
                                break 'outer;
                            }
                            continue;
                        }
                        vclock = vclock.max(next);
                    }
                }
            }
        }

        if let Some(e) = failure {
            return Err(e);
        }

        Ok(sink.finish(&self.platform, scheduler.name().to_string(), kept_instances))
    }
}

fn mul_duration(d: Duration, k: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * k)
}
