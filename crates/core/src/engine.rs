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
//! The paper's §II-C protocol is kept: the manager dispatches by moving
//! a PE's status field from idle to run, the PE's resource manager
//! reports by moving it to complete, and the manager collects by reading
//! it and moving it back to idle. On the host the status field is an
//! atomic word and the task travels beside it in the same cache line
//! (see [`crate::handler`]): a dispatch writes the task's `(instance,
//! node)`, its `(node, PE)` cell's platform entry, start and cost, then
//! release-stores *run*, and a completion comes back the same way, so a
//! round trip moves one line each way and takes no lock. A resource-manager
//! thread waits for work by spinning on its status word for a few tens
//! of µs, then blocking; a dispatch wakes it only if it blocked. The
//! manager, when the virtual clock cannot advance until an in-flight
//! task reports, polls the pool's status words the same way —
//! bounded, with faults on, by the earliest running task's watchdog
//! deadline. Both sides spin only when the pool has no more PE threads
//! than the host has cores; otherwise they block at once, since a
//! spinner would take the core a kernel needs and skew `Measured`
//! overhead figures. None of this reaches the emulated SoC's clock:
//! monitoring is still charged `HANDLER_POLL_COST` per PE and dispatch
//! `STATUS_WRITE_COST` per task, the modeled cost of polling status
//! fields on the target, whatever the host did to notice a completion.
//!
//! # Performance
//!
//! In `Modeled` timing the manager usually has one task in flight, so
//! everything it and a resource-manager thread do between a completion
//! and the next dispatch adds straight to a run's wall time. That path
//! runs on the DES's dense run state (see [`crate::des`]) and does no
//! per-task host work beyond the protocol itself:
//!
//! * the ready list holds `Arc`-free `(instance, node)` entries; a
//!   `dense_fifo()` policy on a ≤64-PE platform without reservation
//!   queues is placed from [`PeSlots`]' idle-column mask, and every other
//!   policy is called through `schedule_into` with a [`ReadyView`] of
//!   the list's own entries and a reused assignment buffer;
//! * per-PE state (the in-flight task's readiness, the wedged set, fault
//!   metadata) is vectors indexed by platform column, estimates are read
//!   and observed at the scenario's pre-resolved estimate slots, and DAG
//!   progress is the flat countdown arrays the DES uses;
//! * completions go to struct-of-arrays columns that become the run's
//!   task log, materialized into records only if a consumer reads them,
//!   and live metrics are folded from those columns in batches into
//!   cells the `Emulation` registered once (see [`crate::metrics`]);
//! * every buffer lives in a warm per-pool `RunScratch` arena, so a
//!   warm `Emulation` runs its loop allocation-free across runs;
//! * fault handling runs out of line; fault-free runs never execute it;
//! * a productive pass that leaves nothing due goes straight to the
//!   completion wait instead of an empty monitor/update pass, and a
//!   wait that ends with every in-flight task reported advances the
//!   clock in the same pass, so a task costs one manager pass;
//! * phase timestamps are taken only under [`OverheadMode::Measured`],
//!   the one mode that charges them;
//! * a dispatch is integers: the run's instance table reaches each
//!   resource-manager thread once per run, and the thread borrows the
//!   task's node, arguments and kernel from it by index (the platform
//!   entry was resolved at compile), keying its outlier average by the
//!   runfunc's process-wide id.
//!
//! `tests/alloc_per_task.rs` bounds the heap allocations of a warm run
//! per task, and CI's `engines` smoke gates the bare round trip's ns
//! and the warm pools' ns/task.
//!
//! # What a run returns
//!
//! Every run instantiates fresh private instances, because kernels
//! write their memory. [`Emulation::run`] and [`Emulation::run_compiled`]
//! return the compact [`EmulationStats`] summary and free those
//! instances when the run returns, so results kept by a cache, a sweep
//! or the serve daemon never pin a variable arena (a pulse-Doppler
//! image is 1.84 MB). [`Emulation::run_with_images`] is the one entry
//! point that also hands back the final memory, as [`InstanceImages`],
//! for functional checks. The job layer never calls it, so the images
//! are never cached.
//!
//! # Timing modes
//!
//! * [`TimingMode::WallClock`] — the paper's literal behaviour: emulation
//!   time is host wall time, PE threads embody modeled durations in real
//!   time. Faithful, but on a small host the emulated PE count is limited
//!   by real cores.
//! * [`TimingMode::Modeled`] — the emulation clock is virtual: kernels
//!   still execute functionally on real threads (outputs are real), but
//!   task durations are charged from the compiled scenario's costs and
//!   the clock only advances when every in-flight task has reported (a
//!   conservative parallel discrete-event scheme); when an overhead
//!   charge moves it past the start of a task still executing, nothing
//!   at the new time is decided before that task reports. This is what
//!   lets a 2-core host emulate a 7-PE DSSoC with correct *relative*
//!   timing — and it is deterministic when paired with a [`CostTable`]
//!   and [`OverheadMode::Fixed`]/[`OverheadMode::None`].
//!
//! [`CostTable`]: dssoc_platform::cost::CostTable

use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::error::ModelError;
use dssoc_appmodel::instance::InstanceId;
use dssoc_appmodel::workload::{Arrival, Workload};
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::pe::PlatformConfig;
use dssoc_trace::{EventKind as TraceKind, FaultKind, TraceSink};

use crate::arena::{Collected, DenseReady, RunScratch};
use crate::exec::{
    fail_idle_pes, place_fifo, release_retries, stage_assignments, CompletionSink, RunFaults,
    RunParts,
};
use crate::fault::{FaultDecision, FaultPlan, FaultSpec};
use crate::handler::{ResourceHandler, RunInstances, TaskAssignment, TaskCompletion, TaskCost};
use crate::intern::NameTable;
use crate::job::{CompiledScenario, CostSpec, ScenarioSpec};
use crate::metrics::{EngineMetrics, OverheadPhase};
use crate::resource::ResourcePool;
use crate::sched::{EstimateSlot, PeView, ReadyView, SchedContext, Scheduler};
use crate::soa::ScenarioSoa;
use crate::stats::{DenseTaskLog, EmulationStats, InstanceImages};
use crate::time::SimTime;

/// How emulation time is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMode {
    /// Host wall time; PE threads busy-wait/sleep out their modeled
    /// durations (the paper's literal behaviour on its testbeds).
    WallClock,
    /// Virtual emulation clock driven by the scenario's costs;
    /// functional execution still happens for real.
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

/// Engine configuration: the observers an [`Emulation`] is built with
/// (trace, metrics), and the scenario defaults that [`Emulation::run`],
/// [`Emulation::run_with_images`] and sweep runners lower into each
/// run's [`ScenarioSpec`]. A run reads timing, overhead, cost,
/// reservation depth and faults from its compiled scenario only.
#[derive(Clone)]
pub struct EmulationConfig {
    /// Timing mode.
    pub timing: TimingMode,
    /// Overhead charging mode.
    pub overhead: OverheadMode,
    /// Cost specification for task durations.
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
/// manager's spin-then-park poll of the pool's status words).
const HANDLER_POLL_COST: Duration = Duration::from_nanos(800);

/// Dispatch-time facts about the attempt in flight on a PE, kept only
/// when fault injection is on: the fault decision and the wall-clock
/// watchdog both need the attempt's estimate and start.
struct Running {
    inst: u32,
    node: u32,
    est: Duration,
    start: SimTime,
    wall: Instant,
    attempt: u32,
}

impl Running {
    /// The wall-clock instant past which the watchdog declares this
    /// attempt's manager thread wedged.
    fn deadline(&self, plan: &FaultPlan) -> Instant {
        self.wall + mul_duration(self.est, plan.watchdog_factor).max(plan.watchdog_min_wall)
    }
}

/// The threaded engine's side of a run's fault machinery: the shared
/// [`RunFaults`] plus the attempt in flight per PE column. Every step is
/// out of line; fault-free runs never reach one.
struct EmuFaults<'r> {
    run: RunFaults<'r>,
    running: Vec<Option<Running>>,
}

impl EmuFaults<'_> {
    /// Notes the dispatch of `(inst, node)` on `col` at `at`: records a
    /// degraded dispatch and the attempt's metadata.
    #[cold]
    #[inline(never)]
    fn dispatched(
        &mut self,
        col: usize,
        (inst, node): (u32, u32),
        at: SimTime,
        est: Duration,
        sink: &mut CompletionSink,
    ) {
        let attempt = self.run.note_dispatch(inst as u64, node as usize, col, at, sink);
        let wall = Instant::now();
        self.running[col] = Some(Running { inst, node, est, start: at, wall, attempt });
    }

    /// The fault decision for the attempt `c` reports from `col`, which
    /// would naturally finish at `natural`: a real kernel error is a
    /// retryable exec fault; otherwise the plan decides.
    #[cold]
    #[inline(never)]
    fn decide(
        &mut self,
        col: usize,
        c: &TaskCompletion,
        natural: SimTime,
    ) -> Option<FaultDecision> {
        let m = self.running[col].take().expect("dispatched task has metadata");
        if c.error.is_some() {
            return Some(FaultDecision { time: natural, kind: FaultKind::Exec });
        }
        let (inst, node) = (m.inst as u64, m.node as usize);
        let kernel = self.run.kernel(inst, node, col);
        let pe = self.run.platform.pes[col].id;
        self.run.plan.decide(kernel, pe, inst, node, m.attempt, c.start, natural, m.est)
    }

    /// Wall-clock watchdog: a dispatched kernel that has blown far past
    /// its estimate in *real* time has wedged its manager thread.
    /// Synthesizes a faulted completion at the virtual deadline and stops
    /// waiting on the thread (it is skipped by end-of-run drains and
    /// remembered across runs) — the alternative is deadlocking the whole
    /// emulation.
    #[cold]
    #[inline(never)]
    fn watchdog(&mut self, wedged: &mut [bool], collected: &mut Vec<Collected>) {
        let now = Instant::now();
        for (col, slot) in self.running.iter_mut().enumerate() {
            let overdue =
                slot.as_ref().is_some_and(|m| !wedged[col] && now >= m.deadline(self.run.plan));
            if !overdue {
                continue;
            }
            let m = slot.take().expect("checked above");
            let virtual_overrun = mul_duration(m.est, self.run.plan.watchdog_factor);
            collected.push(Collected {
                finish: m.start + virtual_overrun,
                inst: m.inst,
                node: m.node,
                col: col as u32,
                start: m.start,
                modeled: virtual_overrun,
                measured: m.wall.elapsed(),
                fault: Some(FaultKind::Watchdog),
                error: None,
            });
            wedged[col] = true;
        }
    }

    /// The earliest watchdog deadline of a live attempt, bounding the
    /// manager's wait so a wedged thread is still caught.
    fn deadline(&self, wedged: &[bool]) -> Option<Instant> {
        let live = self.running.iter().enumerate().filter(|&(col, _)| !wedged[col]);
        live.filter_map(|(_, m)| m.as_ref()).map(|m| m.deadline(self.run.plan)).min()
    }
}

/// The emulation driver: a thin per-run loop over a persistent
/// [`ResourcePool`].
///
/// Construction brings up the pool (paper §II-A's initialization phase:
/// handlers plus one named resource-manager thread per PE); each
/// [`Self::run`] call executes one workload against it and the threads
/// park between runs, so a batch sweep pays thread-spawn cost once. The
/// pool is shut down and joined when the `Emulation` is dropped. A warm
/// `RunScratch` arena rides along, so consecutive runs reuse the
/// workload manager's buffers too.
pub struct Emulation {
    platform: Arc<PlatformConfig>,
    config: EmulationConfig,
    pool: ResourcePool,
    /// By PE column: the resource-manager thread wedged (watchdog fired
    /// and the thread never reported back). Such PEs are excluded from
    /// end-of-run drains and start subsequent runs quarantined; a PE is
    /// cleared again once its thread finally posts the stale completion.
    wedged: Vec<bool>,
    /// Warm per-pool buffers, reset (not freed) between runs.
    scratch: RunScratch,
    /// The emulation's metric cells, with `config.metrics`.
    metrics: Option<EngineMetrics>,
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
        let pool = ResourcePool::spawn(&platform)?;
        if let Some(sink) = &config.trace {
            pool.attach_trace(sink);
        }
        let wedged = vec![false; platform.pes.len()];
        let metrics = config.metrics.as_ref().map(|r| EngineMetrics::new(r, &platform));
        let scratch = RunScratch::default();
        Ok(Emulation { platform, config, pool, wedged, scratch, metrics })
    }

    /// The platform being emulated.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// Runs a workload to completion under `scheduler`, returning the
    /// run's summary: [`Self::run_with_images`] without the images. The
    /// persistent resource pool is reused: consecutive runs on the same
    /// `Emulation` dispatch to the same threads.
    pub fn run(
        &mut self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        library: &AppLibrary,
    ) -> Result<EmulationStats, EmuError> {
        self.run_with_images(scheduler, workload, library).map(|(stats, _)| stats)
    }

    /// Runs a workload to completion under `scheduler`, returning the
    /// run's summary and the final memory of every instance — the one
    /// way to read what the kernels computed (validation mode's
    /// functional check). Lowers the configuration to a
    /// [`ScenarioSpec`], compiles it (labelled with the scheduler's
    /// name) and runs it like [`Self::run_compiled`]. Nothing caches
    /// the images: they live as long as the caller keeps them.
    pub fn run_with_images(
        &mut self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        library: &AppLibrary,
    ) -> Result<(EmulationStats, InstanceImages), EmuError> {
        let spec = self.config.scenario(
            Arc::new(library.clone()),
            Arc::clone(&self.platform),
            scheduler.name().to_string(),
            Arc::new(workload.clone()),
        );
        let scenario = CompiledScenario::compile_custom(spec)?;
        self.run_scenario(scheduler, &scenario, None)
    }

    /// Runs a precompiled scenario, reusing its name table, SoA
    /// compatibility and estimate tables, and fault plan, and returns
    /// the run's summary. Kernels mutate instance memory, so the
    /// threaded engine instantiates fresh private instances per run;
    /// instance `i` is the workload's arrival `i`, the numbering the
    /// precompiled tables and the run's bookkeeping use. The private
    /// instances are freed when the run returns. Compatibility was
    /// preflighted at compile time.
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
        self.run_scenario(scheduler, scenario, trace).map(|(stats, _)| stats)
    }

    /// One run of a compiled scenario on fresh private instances,
    /// returned with the summary.
    fn run_scenario(
        &mut self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        trace: Option<&TraceSink>,
    ) -> Result<(EmulationStats, InstanceImages), EmuError> {
        let spec = scenario.spec();
        let instances: RunInstances = Arc::new(spec.workload.instantiate(&spec.library)?);
        self.pool.begin_run(&instances);
        if let Some(sink) = trace {
            self.pool.attach_trace(sink);
        }
        // Split the warm scratch, the wedged set and the metric cells out
        // of `self` (so the loop can borrow `&self` and them
        // disjointly); all return.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut wedged = std::mem::take(&mut self.wedged);
        let mut metrics = self.metrics.take();
        // Empty only if an earlier run panicked mid-loop.
        wedged.resize(self.platform.pes.len(), false);
        let sink = trace.or(self.config.trace.as_ref());
        let (s, m) = (&mut scratch, metrics.as_mut());
        let result = self.workload_manager(scheduler, scenario, sink, s, &mut wedged, m);
        if result.is_err() {
            // A failed run can leave tasks in flight; wait them out so
            // every PE is idle again for the next run on this pool —
            // except wedged manager threads, which would never report.
            self.pool.drain_except(&wedged);
        }
        self.pool.end_run();
        self.scratch = scratch;
        self.wedged = wedged;
        self.metrics = metrics;
        if trace.is_some() {
            match &self.config.trace {
                Some(sink) => self.pool.attach_trace(sink),
                None => self.pool.detach_trace(),
            }
        }
        result.map(|stats| (stats, InstanceImages(instances)))
    }

    /// Sets up one run's workload manager over the warm arena, runs its
    /// loop, and folds the outcome into the run's statistics and its
    /// metrics.
    #[allow(clippy::too_many_arguments)]
    fn workload_manager(
        &self,
        scheduler: &mut dyn Scheduler,
        scenario: &CompiledScenario,
        trace: Option<&TraceSink>,
        s: &mut RunScratch,
        wedged: &mut [bool],
        mut metrics: Option<&mut EngineMetrics>,
    ) -> Result<EmulationStats, EmuError> {
        let platform = &*self.platform;
        let total = s.begin(scenario);
        s.done.reserve_host(total);
        s.ready_at.resize(platform.pes.len(), SimTime::ZERO);
        s.started.resize(platform.pes.len(), SimTime::ZERO);
        let trace = trace.map(|t| (t, scheduler.name(), "workload-manager"));
        let spec = scenario.spec();
        let depth = spec.reservation_depth;
        let (names, soa) = (scenario.names(), scenario.soa());
        let m = metrics.as_deref_mut();
        let mut p = RunParts::new(platform, depth, m, scenario, trace, s);
        // PEs whose manager thread wedged in an earlier run on this pool
        // start this run quarantined; their eventual (stale) completions
        // are discarded.
        for (col, _) in wedged.iter().enumerate().filter(|(_, &w)| w) {
            p.slots.fail(platform.pes[col].id);
        }
        let faults = scenario.plan().map(|plan| EmuFaults {
            run: RunFaults::new(plan, platform, soa, names, p.tracer.clone()),
            running: (0..platform.pes.len()).map(|_| None).collect(),
        });
        let views = s.views.take();
        // The EWMA estimate book is scratch state, never part of the
        // run's output: maintain it only when something can read it (the
        // DES's rule).
        let observe = (scheduler.uses_estimates() || faults.is_some()) && soa.reads_book();
        let mut m = Manager {
            emu: self,
            spec,
            observe,
            platform,
            handlers: self.pool.handlers(),
            arrivals: spec.workload.arrivals(),
            names,
            soa,
            s,
            wedged,
            metrics,
            p,
            faults,
            views,
            vclock: SimTime::ZERO,
            next_arrival: 0,
        };
        let outcome = m.run(scheduler);
        let Manager { s, mut p, views, metrics, .. } = m;
        // Publish the run and return recycled buffers to the arena for
        // the next run, whether the run finished or stopped early.
        if let Some(m) = metrics {
            let finished = outcome.is_ok().then_some(scheduler.name());
            m.end_run(&mut p, &s.done, names, soa, finished);
        }
        s.views.put(views);
        s.recycle(p.ready);
        outcome?;
        // The completion columns ARE the run's task log (materialized
        // into records only if a consumer reads them).
        let log = DenseTaskLog {
            cols: std::mem::take(&mut s.done),
            names: Arc::clone(&scenario.names),
            platform: Arc::clone(&self.platform),
        };
        Ok(p.sink.finish(scheduler.name().to_string(), log))
    }
}

/// One run's workload-manager state (the emulation's "overlay
/// processor", running on the calling thread) and the steps of its loop.
struct Manager<'r> {
    emu: &'r Emulation,
    /// The run's scenario: timing, overhead, cost and reservation depth.
    spec: &'r ScenarioSpec,
    /// Whether completions are observed into the estimate book.
    observe: bool,
    platform: &'r PlatformConfig,
    handlers: &'r [Arc<ResourceHandler>],
    /// The workload's arrivals, in time order: instance `i` is arrival
    /// `i`.
    arrivals: &'r [Arrival],
    names: &'r NameTable,
    soa: &'r ScenarioSoa,
    s: &'r mut RunScratch,
    wedged: &'r mut [bool],
    /// The run's metrics, folded every `PUBLISH_EVERY` completions.
    metrics: Option<&'r mut EngineMetrics>,
    p: RunParts,
    faults: Option<EmuFaults<'r>>,
    views: Vec<PeView<'r>>,
    vclock: SimTime,
    /// Cursor into `arrivals`.
    next_arrival: usize,
}

impl<'r> Manager<'r> {
    /// The workload-manager loop: monitor, update, inject, schedule,
    /// dispatch; then wait for a report or advance the clock.
    fn run(&mut self, scheduler: &mut dyn Scheduler) -> Result<(), EmuError> {
        let emu = self.emu;
        let (timing, overhead) = (self.spec.timing, self.spec.overhead);
        // Phase timestamps are read only when the overhead charge is
        // measured; every other mode charges nothing or a constant.
        let timed = matches!(overhead, OverheadMode::Measured);
        let k = 1.0 / self.platform.overlay.speed;
        let depth = self.spec.reservation_depth;
        // Placement: a policy that declares FRFS semantics is placed by
        // the engine off the SoA compatibility masks (one `u64` per node,
        // so ≤ 64 PEs) when no reservation queue can take work on a busy
        // PE; every other case calls the policy.
        let fifo = scheduler.dense_fifo() && self.platform.pes.len() <= 64 && depth == 0;
        let (mut sampler_mu, mut sampler_s, mut sampler_d) =
            (PhaseSampler::new(), PhaseSampler::new(), PhaseSampler::new());
        let pool = &emu.pool;
        // Reference start time (paper: captured at emulation start).
        let wall_start = Instant::now();

        loop {
            let mut now = match timing {
                TimingMode::WallClock => SimTime::from_duration(wall_start.elapsed()),
                TimingMode::Modeled => self.vclock,
            };
            // The virtual clock is conservative: an overhead charge can
            // move it past the start of a task still executing on the
            // host, which may finish at or before `now`. Nothing at
            // `now` is decided before every such task has reported, so
            // the outcome never depends on how fast the host ran it.
            if timing == TimingMode::Modeled {
                while self.unreported_before(now) {
                    self.monitor(timing, now);
                    if !self.unreported_before(now) {
                        break;
                    }
                    let deadline = self.faults.as_ref().and_then(|f| f.deadline(self.wedged));
                    pool.wait_for_report(deadline);
                }
            }
            // Quiet = every in-flight task has already posted its
            // completion, so no PE thread is executing on the host and
            // phase measurements are preemption-free (the paper's
            // dedicated-manager-core situation).
            let quiet = self.p.slots.busy_count() == self.s.collected.len();

            let t_mon = timed.then(Instant::now);
            self.monitor(timing, now);
            let monitor_raw = t_mon.map_or(Duration::ZERO, |t| t.elapsed());

            let t_upd = timed.then(Instant::now);
            let mut progress = self.update(now)?;
            if !self.s.retries.is_empty() {
                progress |= release_retries(&mut self.s.retries, now, &mut self.p.ready) > 0;
            }
            progress |= self.inject(now);
            let update_raw = t_upd.map_or(Duration::ZERO, |t| t.elapsed());
            if let Some(m) = self.metrics.as_deref_mut().filter(|m| m.due(self.s.done.len())) {
                m.publish(&mut self.p, &self.s.done, self.names, self.soa);
            }

            // Charge monitor/update overhead on productive iterations.
            // (Idle polls are not charged — the paper's overhead metric
            // covers the work done around task completions and arrivals,
            // not the spin-wait between them.)
            if progress {
                let (m, u) = if timed {
                    let mu = sampler_mu.sample(monitor_raw + update_raw, quiet)
                        + HANDLER_POLL_COST * self.handlers.len() as u32;
                    let m_frac = monitor_raw.as_secs_f64()
                        / (monitor_raw + update_raw).as_secs_f64().max(1e-12);
                    (
                        mul_duration(mul_duration(mu, m_frac), k),
                        mul_duration(mul_duration(mu, 1.0 - m_frac), k),
                    )
                } else {
                    (Duration::ZERO, Duration::ZERO)
                };
                self.p.sink.charge_overhead(OverheadPhase::Monitor, m);
                self.p.sink.charge_overhead(OverheadPhase::Update, u);
                if timing == TimingMode::Modeled {
                    now += m + u;
                    self.vclock = now;
                }
            }

            // Permanent failures on idle PEs take effect as the clock
            // passes them (busy PEs die through their in-flight
            // attempt's fault decision instead).
            if let Some(f) = &self.faults {
                fail_idle_pes(f.run.plan, self.platform, now, &mut self.p.slots, &mut self.p.sink);
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
            let mut sched_pass = 0usize;
            while progress && !self.p.ready.is_empty() && self.p.slots.any_schedulable() {
                if sched_pass > 0 && depth == 0 {
                    // Without queues one pass is complete (the policy saw
                    // every idle PE already).
                    break;
                }
                sched_pass += 1;
                if !fifo {
                    self.refresh_views(now);
                }
                // The charge times the policy's decision only.
                let t_sched = timed.then(Instant::now);
                self.place(scheduler, fifo, now);
                let schedule_raw = t_sched.map_or(Duration::ZERO, |t| t.elapsed());
                self.p.sink.note_sched_invocation();
                let decided_at = now;
                // Charge the policy's own cost before dispatching.
                let s_charge = match overhead {
                    OverheadMode::Measured => {
                        mul_duration(sampler_s.sample(schedule_raw, quiet), k)
                    }
                    OverheadMode::Fixed(d) => d,
                    OverheadMode::None => Duration::ZERO,
                };
                self.p.sink.charge_overhead(OverheadPhase::Schedule, s_charge);
                if timing == TimingMode::Modeled {
                    now += s_charge;
                    self.vclock = now;
                }

                let t_disp = timed.then(Instant::now);
                let placed = self.stage(scheduler, fifo, decided_at, now)?;
                // The handler hand-off itself is *not* timed: waking a
                // sleeping host thread costs a futex syscall here,
                // whereas on the emulated SoC the dispatch communication
                // is a locked status-field write that the polling
                // resource manager observes — that cost is charged as a
                // fixed term per dispatch instead.
                let handoffs = self.s.handoff.len() as u32;
                let dispatch_raw =
                    t_disp.map_or(Duration::ZERO, |t| t.elapsed() + STATUS_WRITE_COST * handoffs);
                for i in 0..self.s.handoff.len() {
                    let (col, e) = self.s.handoff[i];
                    self.hand_off(col as usize, e, now);
                }
                self.s.handoff.clear();
                let d_charge = match overhead {
                    OverheadMode::Measured => {
                        mul_duration(sampler_d.sample(dispatch_raw, quiet), k)
                    }
                    OverheadMode::Fixed(_) | OverheadMode::None => Duration::ZERO,
                };
                self.p.sink.charge_overhead(OverheadPhase::Dispatch, d_charge);
                if timing == TimingMode::Modeled {
                    now += d_charge;
                    self.vclock = now;
                }
                if placed == 0 {
                    break;
                }
            }

            // ---- Termination.
            let in_flight = self.p.slots.busy_count();
            if self.next_arrival == self.arrivals.len()
                && self.p.ready.is_empty()
                && in_flight == 0
                && self.s.collected.is_empty()
                && self.s.retries.is_empty()
            {
                return Ok(());
            }

            // ---- Advance time / wait for reports. A productive modeled
            // pass that left nothing due at the clock (fault-free, so no
            // retries or permanent failures can fall due either) would be
            // followed by an empty monitor/update pass; go straight to
            // the wait or clock advance that pass would end in.
            let settled = !progress
                || (timing == TimingMode::Modeled && self.faults.is_none() && !self.due(now));
            if !settled {
                continue;
            }
            match timing {
                TimingMode::WallClock => {
                    if self.next_arrival == self.arrivals.len()
                        && self.s.collected.is_empty()
                        && self.s.retries.is_empty()
                        && in_flight == 0
                        && !self.p.ready.is_empty()
                    {
                        // With fault recovery active this stall may mean
                        // "these tasks lost their last compatible PE"
                        // rather than a scheduler bug; let the resolver
                        // abort those apps.
                        self.resolve_stall(scheduler.name())?;
                        continue;
                    }
                    std::thread::yield_now();
                }
                TimingMode::Modeled => {
                    if self.s.collected.len() < in_flight {
                        // Some in-flight task hasn't reported its modeled
                        // duration yet; the virtual clock cannot safely
                        // advance. Wait for a report — with faults on, no
                        // longer than the first watchdog deadline, so a
                        // wedged thread is still caught — and collect it.
                        // Once every in-flight task has reported, the
                        // clock advances in this same pass: a pass of its
                        // own would find nothing new to monitor and be
                        // settled with nothing due, ending here too.
                        let deadline = self.faults.as_ref().and_then(|f| f.deadline(self.wedged));
                        pool.wait_for_report(deadline);
                        self.monitor(timing, now);
                        if self.s.collected.len() < in_flight {
                            continue;
                        }
                    }
                    let next_arrival = self.arrivals.get(self.next_arrival).map(arrival_of);
                    let next_finish = self.s.collected.iter().map(|c| c.finish).min();
                    let next_retry = self.s.retries.iter().map(|r| r.release).min();
                    match next_arrival.into_iter().chain(next_finish).chain(next_retry).min() {
                        Some(t) => self.vclock = self.vclock.max(t),
                        None => self.resolve_stall(scheduler.name())?,
                    }
                }
            }
        }
    }

    /// Monitor: reads every resource handler's status field under its
    /// lock (the paper's poll), collecting completions with their fault
    /// decisions; then runs the wall-clock watchdog.
    fn monitor(&mut self, timing: TimingMode, now: SimTime) {
        for (col, h) in self.handlers.iter().enumerate() {
            let Some(c) = h.try_collect() else { continue };
            if self.wedged[col] {
                // A wedged manager thread finally reported: the result
                // belongs to an abandoned attempt. Discard it — the
                // thread is usable again next run, but the PE stays
                // quarantined in this one.
                self.wedged[col] = false;
                continue;
            }
            let natural = match timing {
                TimingMode::WallClock => now,
                TimingMode::Modeled => c.start + c.modeled,
            };
            let decision = match self.faults.as_mut() {
                Some(f) => f.decide(col, &c, natural),
                None => None,
            };
            self.s.collected.push(Collected {
                finish: decision.map_or(natural, |d| d.time),
                inst: c.inst,
                node: c.node,
                col: col as u32,
                start: c.start,
                modeled: c.modeled,
                measured: c.measured,
                fault: decision.map(|d| d.kind),
                error: c.error,
            });
        }
        if let Some(f) = self.faults.as_mut() {
            f.watchdog(self.wedged, &mut self.s.collected);
        }
    }

    /// Update: processes the collected completions that are due, in
    /// deterministic (finish, task) order, appending newly unblocked
    /// tasks to the ready list. Returns whether any was due.
    fn update(&mut self, now: SimTime) -> Result<bool, EmuError> {
        let mut collected = std::mem::take(&mut self.s.collected);
        collected.sort_unstable_by_key(|c| (c.finish, c.inst, c.node));
        let due = collected.iter().take_while(|c| c.finish <= now).count();
        let mut outcome = Ok(due > 0);
        for c in collected.drain(..due) {
            if let Some(kind) = c.fault {
                self.on_fault(&c, kind);
                continue;
            }
            let col = c.col as usize;
            let ready_at = self.s.ready_at[col];
            // Reservation queue: the PE itself starts its next queued
            // task at the completion instant — no scheduler invocation,
            // no charged overhead (the point of the paper's proposed work
            // queues).
            self.release(col, c.finish);
            if let Some(e) = &c.error {
                let id = InstanceId(c.inst as u64);
                outcome = Err(EmuError::TaskFailed {
                    app: self.names.app(id).to_string(),
                    node: self.names.node(id, c.node as usize).to_string(),
                    reason: e.to_string(),
                });
                break;
            }
            self.complete(&c, ready_at);
        }
        self.s.collected = collected;
        outcome
    }

    /// Books a successful completion: estimate, task log, trace, DAG
    /// progress and a finished application.
    fn complete(&mut self, c: &Collected, ready_at: SimTime) {
        let (id, soa) = (InstanceId(c.inst as u64), self.soa);
        let spec = &soa.specs[self.names.spec_index(id)];
        if self.observe {
            let cell = c.node as usize * soa.stride + c.col as usize;
            self.s.estimates.observe_at(EstimateSlot::from_raw(spec.est_slot[cell]), c.modeled);
        }
        let done = &mut self.s.done;
        let dur_ns = c.modeled.as_nanos() as u64;
        done.push(c.inst, c.node, c.col, ready_at.0, c.finish.0, dur_ns);
        done.start_ns.push(c.start.0);
        done.measured_ns.push(c.measured.as_nanos() as u64);
        if self.p.tracer.enabled() {
            let pe = self.platform.pes[c.col as usize].id;
            self.p.sink.trace_task(pe, (id.0, c.node), ready_at, c.start, c.finish);
        }
        if self.s.dag.complete(spec, c.inst, c.node, c.finish, &mut self.p.ready) {
            let state = self.faults.as_ref().map(|f| &f.run.state);
            let arrival = self.arrivals[c.inst as usize];
            self.p.sink.finish_instance(c.inst, arrival, c.finish, state);
        }
    }

    /// A faulted attempt: the recovery policy runs instead of a
    /// completion. A quarantined PE's reserved work re-enters the ready
    /// list; otherwise the PE frees up as after a completion.
    #[cold]
    #[inline(never)]
    fn on_fault(&mut self, c: &Collected, kind: FaultKind) {
        let f = self.faults.as_mut().expect("fault implies a plan");
        let col = c.col as usize;
        let pe = self.platform.pes[col].id;
        let (inst, node) = (c.inst as u64, c.node as usize);
        let action = f.run.on_fault(c.finish, inst, node, pe, kind, &mut self.p.sink);
        if action.quarantine && !self.p.slots.is_failed(pe) {
            // Requeue work reserved behind the dead PE, then retire it:
            // no PeIdle event — the PE leaves the schedulable set for
            // good.
            for e in self.p.slots.take_reserved(pe) {
                self.p.ready.push_entry(DenseReady::new(e.inst, e.node, c.finish));
            }
            self.p.slots.release(pe);
            self.p.slots.fail(pe);
            self.p.sink.record_quarantine(c.finish, pe);
        } else {
            self.release(col, c.finish);
        }
        let f = self.faults.as_mut().expect("fault implies a plan");
        f.run.settle(action, c.finish, c.inst, c.node, &mut self.p.sink, &mut self.s.retries);
    }

    /// Inject: applications whose arrival time has passed. Returns
    /// whether any arrived.
    fn inject(&mut self, now: SimTime) -> bool {
        let first = self.next_arrival;
        while let Some(&a) = self.arrivals.get(self.next_arrival) {
            let at = arrival_of(&a);
            if at > now {
                break;
            }
            let inst = self.next_arrival as u32;
            self.next_arrival += 1;
            self.p.tracer.emit(at, TraceKind::AppArrive { instance: inst as u64 });
            for &root in &self.soa.specs[a.app as usize].app.roots {
                self.p.ready.push_entry(DenseReady::new(inst, root as u32, at));
            }
        }
        self.next_arrival > first
    }

    /// True when a task in flight since before `now` has not reported
    /// yet. Each busy column has at most one collected completion.
    fn unreported_before(&self, now: SimTime) -> bool {
        let (s, slots) = (&*self.s, &self.p.slots);
        if s.collected.len() >= slots.busy_count() {
            return false;
        }
        let pes = &self.platform.pes;
        let early = |col: usize| s.started[col] < now && slots.is_busy(pes[col].id);
        let running = (0..pes.len()).filter(|&col| early(col)).count();
        running > s.collected.iter().filter(|c| early(c.col as usize)).count()
    }

    /// True when a collected completion or an arrival is due at `now`.
    fn due(&self, now: SimTime) -> bool {
        self.s.collected.iter().any(|c| c.finish <= now)
            || self.arrivals.get(self.next_arrival).is_some_and(|a| arrival_of(a) <= now)
    }

    /// Rebuilds the policy's PE views at `now`.
    fn refresh_views(&mut self, now: SimTime) {
        let (slots, platform) = (&self.p.slots, self.platform);
        self.views.clear();
        self.views.extend(platform.pes.iter().map(|pe| slots.view(pe, now)));
    }

    /// One scheduling decision at `now`: FIFO placement into `placed`,
    /// or the policy's assignments over a view of the ready list (with
    /// the PE views [`Self::refresh_views`] built).
    fn place(&mut self, scheduler: &mut dyn Scheduler, fifo: bool, now: SimTime) {
        self.s.placed.clear();
        self.s.assignments.clear();
        if fifo {
            let idle = self.p.slots.idle_mask();
            place_fifo(self.p.ready.pending(), idle, self.soa, self.names, &mut self.s.placed);
            return;
        }
        let ready = ReadyView::new(self.p.ready.pending(), self.soa, self.names, &self.s.estimates);
        let ctx = SchedContext { now };
        scheduler.schedule_into(&ready, &self.views, &ctx, &mut self.s.assignments);
    }

    /// Validates a policy's assignments and records the decision taken
    /// at `decided_at`, then books every placement at `now`: a busy PE
    /// with reservation room queues the task, an idle one is occupied and
    /// staged for hand-off. Returns how many tasks were placed.
    fn stage(
        &mut self,
        scheduler: &dyn Scheduler,
        fifo: bool,
        decided_at: SimTime,
        now: SimTime,
    ) -> Result<usize, EmuError> {
        if !fifo {
            stage_assignments(
                scheduler.name(),
                &mut self.s.assignments,
                self.p.ready.pending(),
                &self.p.slots,
                self.names,
                self.soa,
                &mut self.s.placed,
            )?;
        }
        if self.p.tracer.enabled() {
            let (placed, ready) = (&self.s.placed, self.p.ready.len());
            self.p.sink.trace_decision(decided_at, self.platform, &self.p.slots, placed, ready);
        }
        let placed = std::mem::take(&mut self.s.placed);
        for &(e, col, _) in &placed {
            let col = col as usize;
            let pe = self.platform.pes[col].id;
            let est = self.estimate(e.inst, e.node, col);
            if self.p.slots.is_busy(pe) {
                // PE busy but with reservation room: enqueue.
                self.p.slots.extend(pe, est);
                self.p.slots.reserve(pe, e);
            } else {
                self.occupy(col, e, now, est, true);
                self.s.handoff.push((col as u32, e));
            }
        }
        let n = placed.len();
        self.s.placed = placed;
        if fifo {
            self.p.ready.remove_prefix(n);
        } else {
            self.p.ready.remove(&self.s.assignments);
        }
        Ok(n)
    }

    /// The estimate of `(inst, node)` on PE column `col`.
    fn estimate(&self, inst: u32, node: u32, col: usize) -> Duration {
        self.soa.estimate(self.names, &self.s.estimates, (inst, node), col)
    }

    /// Books `e` starting on PE column `col` at `at`, projected to run
    /// for `est` (the hand-off itself is the caller's).
    fn occupy(&mut self, col: usize, e: DenseReady, at: SimTime, est: Duration, busy_event: bool) {
        let pe = self.platform.pes[col].id;
        self.p.slots.occupy(pe, at + est);
        self.s.ready_at[col] = SimTime(e.ready_ns);
        self.s.started[col] = at;
        if self.p.tracer.enabled() {
            let (instance, node) = (e.inst as u64, e.node);
            self.p.tracer.emit(at, TraceKind::TaskDispatch { instance, node, pe: pe.0 });
            if busy_event {
                self.p.tracer.emit(at, TraceKind::PeBusy { pe: pe.0 });
            }
        }
        if let Some(f) = self.faults.as_mut() {
            f.dispatched(col, (e.inst, e.node), at, est, &mut self.p.sink);
        }
    }

    /// Handles PE column `col` freeing up at `at`: starts its next
    /// reserved task (the reservation-queue fast path, shared by normal
    /// and faulted completions) or marks it idle.
    fn release(&mut self, col: usize, at: SimTime) {
        let pe = self.platform.pes[col].id;
        let Some(next) = self.p.slots.release(pe) else {
            self.p.tracer.emit(at, TraceKind::PeIdle { pe: pe.0 });
            return;
        };
        let est = self.estimate(next.inst, next.node, col);
        self.occupy(col, next, at, est, false);
        self.hand_off(col, next, at);
    }

    /// Dispatches `e` to PE column `col`'s resource manager, starting at
    /// `start`, with its cell's platform entry, its cost and its timing
    /// from the scenario.
    fn hand_off(&self, col: usize, e: DenseReady, start: SimTime) {
        let (spec, cell) = self.soa.cell(self.names, e, col);
        let cost = match self.spec.cost {
            CostSpec::Table(_) => TaskCost::Modeled(Duration::from_nanos(spec.cost_ns[cell])),
            CostSpec::ScaledMeasured => TaskCost::ScaledMeasured,
        };
        let (inst, node, entry) = (e.inst, e.node, spec.entry[cell]);
        let embody = self.spec.timing == TimingMode::WallClock;
        self.handlers[col].dispatch(TaskAssignment { inst, node, entry, start, cost, embody });
    }

    /// Resolves a stall: fault recovery aborts what lost its last
    /// compatible PE, or the run ends in a deadlock error.
    fn resolve_stall(&mut self, scheduler: &str) -> Result<(), EmuError> {
        let state = self.faults.as_mut().map(|f| &mut f.run.state);
        self.p.resolve_stall(self.platform, state, self.names, self.soa, scheduler)
    }
}

/// An arrival's time on the emulation clock.
fn arrival_of(arrival: &Arrival) -> SimTime {
    SimTime(arrival.at_ns)
}

fn mul_duration(d: Duration, k: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * k)
}
