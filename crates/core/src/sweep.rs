//! Batch sweep API: run a grid of (platform, scheduler, workload) cells
//! with per-cell iteration counts against warm, reusable engines.
//!
//! Every case study in the paper's evaluation (§III) is a sweep of this
//! shape — Fig. 9 sweeps platform configurations, Fig. 10 sweeps
//! schedulers × injection rates, Fig. 11 sweeps big.LITTLE mixes — and
//! each used to hand-roll the same harness loop. [`SweepRunner`] owns
//! that loop once, on either engine: the [`EngineConfig`] it is built
//! with picks the threaded emulator or the discrete-event baseline (the
//! design-space-exploration configuration, where grids get large and
//! per-cell cost is pure compute). Each cell is lowered to a
//! [`ScenarioSpec`], compiled (name tables, cost slabs, fault plans) on
//! the thread that runs it, and executed through a [`JobRunner`]: the
//! cell's iterations share that one [`CompiledScenario`], warm engines
//! are shared per platform so consecutive cells reuse the persistent PE
//! resource pool instead of respawning threads, and
//! deterministic repeats replay from the runner's [`ResultCache`]. The
//! runner keeps no compiled scenario once its cell is done: sweep grids
//! are mostly distinct cells, and a duplicate costs one compile before
//! the cache answers it.
//!
//! [`SweepRunner::run_batch_parallel`] distributes the grid over a small
//! pool of worker threads. Each worker compiles the cells it claims and
//! owns its warm engines; all workers share one [`ResultCache`]. Cells
//! are independent (each run starts from fresh instances), so results
//! are identical to the sequential [`SweepRunner::run_batch`] whenever
//! the underlying engine runs are deterministic, and they come back in
//! cell order either way.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::Workload;
use dssoc_platform::pe::PlatformConfig;
use dssoc_trace::TraceSink;

use crate::des::DesConfig;
use crate::engine::{EmuError, EmulationConfig};
use crate::fault::FaultSpec;
use crate::job::{CompiledScenario, Engine, JobRunner, ResultCache, ScenarioSpec};
use crate::sched::{by_name, Scheduler};
use crate::stats::EmulationStats;

/// One cell of a sweep grid: a platform, a scheduler, a workload, and
/// how often to repeat the run.
#[derive(Clone)]
pub struct SweepCell {
    /// Display label carried into the [`CellResult`].
    pub label: String,
    /// Platform to emulate (shared, so grids can reuse one config
    /// across cells without deep-cloning its PE descriptors).
    pub platform: Arc<PlatformConfig>,
    /// Library scheduler name (resolved via [`by_name`]).
    pub scheduler: String,
    /// Workload to run (shared, so grids can reuse one workload across
    /// platforms without cloning it per cell).
    pub workload: Arc<Workload>,
    /// Number of measured iterations (at least 1).
    pub iterations: usize,
    /// Whether to prepend one discarded warm-up run.
    pub warmup: bool,
    /// Fault-injection spec applied to every run of this cell (the
    /// engine compiles it against the cell's platform). `None` runs
    /// fault-free.
    pub faults: Option<Arc<FaultSpec>>,
}

impl SweepCell {
    /// A single-iteration cell without warm-up, labeled
    /// `"{platform}/{scheduler}"`.
    pub fn new(
        platform: impl Into<Arc<PlatformConfig>>,
        scheduler: impl Into<String>,
        workload: Arc<Workload>,
    ) -> Self {
        let platform = platform.into();
        let scheduler = scheduler.into();
        SweepCell {
            label: format!("{}/{}", platform.name, scheduler),
            platform,
            scheduler,
            workload,
            iterations: 1,
            warmup: false,
            faults: None,
        }
    }

    /// Replaces the display label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the measured iteration count (clamped to at least 1).
    pub fn iterations(mut self, n: usize) -> Self {
        self.iterations = n.max(1);
        self
    }

    /// Enables or disables the discarded warm-up run.
    pub fn warmup(mut self, warmup: bool) -> Self {
        self.warmup = warmup;
        self
    }

    /// Attaches a fault-injection spec to every run of this cell.
    pub fn faults(mut self, spec: Arc<FaultSpec>) -> Self {
        self.faults = Some(spec);
        self
    }
}

/// Shared live progress of a sweep batch: how many cells are done,
/// running, and failed, plus an ETA extrapolated from completed-cell
/// wall times. Clone the handle before handing a runner the original;
/// any thread can [`Self::snapshot`] it while the batch runs (the
/// renderer thread of [`Self::watch_stderr`] does exactly that).
#[derive(Clone)]
pub struct SweepProgress {
    inner: Arc<ProgressInner>,
}

struct ProgressInner {
    total: AtomicUsize,
    done: AtomicUsize,
    running: AtomicUsize,
    failed: AtomicUsize,
    /// Sum of completed-cell wall times, nanoseconds.
    completed_ns: AtomicU64,
    workers: AtomicUsize,
    started: Instant,
}

impl Default for SweepProgress {
    fn default() -> Self {
        SweepProgress::new()
    }
}

impl SweepProgress {
    pub fn new() -> Self {
        SweepProgress {
            inner: Arc::new(ProgressInner {
                total: AtomicUsize::new(0),
                done: AtomicUsize::new(0),
                running: AtomicUsize::new(0),
                failed: AtomicUsize::new(0),
                completed_ns: AtomicU64::new(0),
                workers: AtomicUsize::new(1),
                started: Instant::now(),
            }),
        }
    }

    fn begin_batch(&self, cells: usize, workers: usize) {
        self.inner.total.fetch_add(cells, Ordering::Relaxed);
        self.inner.workers.store(workers.max(1), Ordering::Relaxed);
    }

    fn cell_started(&self) {
        self.inner.running.fetch_add(1, Ordering::Relaxed);
    }

    fn cell_finished(&self, elapsed: Duration, ok: bool) {
        self.inner.running.fetch_sub(1, Ordering::Relaxed);
        self.inner.completed_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if ok {
            self.inner.done.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time view of the batch.
    pub fn snapshot(&self) -> SweepProgressSnapshot {
        let i = &self.inner;
        let total = i.total.load(Ordering::Relaxed);
        let done = i.done.load(Ordering::Relaxed);
        let failed = i.failed.load(Ordering::Relaxed);
        let running = i.running.load(Ordering::Relaxed);
        let completed = done + failed;
        let workers = i.workers.load(Ordering::Relaxed).max(1);
        let eta = if completed > 0 && total > completed {
            let mean_ns = i.completed_ns.load(Ordering::Relaxed) as f64 / completed as f64;
            let remaining = (total - completed) as f64;
            Some(Duration::from_secs_f64(mean_ns * 1e-9 * remaining / workers as f64))
        } else {
            None
        };
        SweepProgressSnapshot { total, done, running, failed, elapsed: i.started.elapsed(), eta }
    }

    /// Spawns a thread that redraws a one-line progress display on
    /// stderr every `interval` until the returned guard is dropped (a
    /// final newline-terminated line is printed on drop).
    pub fn watch_stderr(&self, interval: Duration) -> ProgressWatcher {
        let progress = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sweep-progress".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    eprint!("\r{}", progress.snapshot().render());
                    let _ = std::io::stderr().flush();
                    std::thread::sleep(interval);
                }
                eprintln!("\r{}", progress.snapshot().render());
            })
            .expect("spawn progress watcher");
        ProgressWatcher { stop, handle: Some(handle) }
    }
}

/// Stops the [`SweepProgress::watch_stderr`] thread when dropped.
pub struct ProgressWatcher {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ProgressWatcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// One observation of a batch's progress.
#[derive(Clone, Debug)]
pub struct SweepProgressSnapshot {
    /// Cells in the batch (grows if batches share one progress handle).
    pub total: usize,
    /// Cells completed successfully.
    pub done: usize,
    /// Cells currently running.
    pub running: usize,
    /// Cells that returned an error.
    pub failed: usize,
    /// Wall time since the progress handle was created.
    pub elapsed: Duration,
    /// Estimated time to finish the remaining cells, extrapolated from
    /// the mean completed-cell time over the worker count. `None` until
    /// the first cell completes.
    pub eta: Option<Duration>,
}

impl SweepProgressSnapshot {
    /// The one-line display the stderr watcher prints.
    pub fn render(&self) -> String {
        let mut line =
            format!("sweep: {}/{} cells done, {} running", self.done, self.total, self.running);
        if self.failed > 0 {
            line.push_str(&format!(", {} failed", self.failed));
        }
        line.push_str(&format!(", {:.1}s elapsed", self.elapsed.as_secs_f64()));
        match self.eta {
            Some(eta) => line.push_str(&format!(", eta {:.1}s", eta.as_secs_f64())),
            None => line.push_str(", eta --"),
        }
        line
    }
}

/// The outcome of one sweep cell.
#[derive(Debug)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// Makespan of each measured iteration, in milliseconds.
    pub makespans_ms: Vec<f64>,
    /// The run summary of the last measured iteration (no per-task
    /// records; see [`EmulationStats::into_summary`]).
    pub stats: EmulationStats,
}

/// A sensible worker count for [`SweepRunner::run_batch_parallel`]: the
/// host's available parallelism, or 1 when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Resolves a cell's scheduler name once, returning a factory that
/// yields a fresh policy per iteration. The eagerly resolved instance
/// is handed out first, so single-iteration cells (the common grid
/// case) resolve exactly once.
fn scheduler_factory<'c>(
    scheduler: &'c str,
) -> Result<impl FnMut() -> Box<dyn Scheduler> + 'c, EmuError> {
    let mut first = Some(
        by_name(scheduler)
            .ok_or_else(|| EmuError::Config(format!("unknown scheduler '{scheduler}'")))?,
    );
    Ok(move || first.take().unwrap_or_else(|| by_name(scheduler).expect("resolved above")))
}

/// Runs `run` as one cell of a batch, reporting its start and its
/// finish (wall time, success) into `progress` when one is installed.
fn tracked(
    progress: Option<&SweepProgress>,
    run: impl FnOnce() -> Result<CellResult, EmuError>,
) -> Result<CellResult, EmuError> {
    let Some(p) = progress else { return run() };
    let start = Instant::now();
    p.cell_started();
    let result = run();
    p.cell_finished(start.elapsed(), result.is_ok());
    result
}

/// Work-stealing fan-out for [`SweepRunner::run_batch_parallel`]: `workers` threads pull
/// cells off a shared index, each running them through its own
/// `make_worker()` closure (one warm engine pool per worker). Results
/// come back ordered by cell index; on error the batch stops early and
/// the error of the lowest-indexed failing cell is returned — the same
/// cell a sequential run would have failed on first.
fn run_cells_parallel<W, F>(
    cells: &[SweepCell],
    workers: usize,
    progress: Option<&SweepProgress>,
    make_worker: F,
) -> Result<Vec<CellResult>, EmuError>
where
    F: Fn() -> W + Sync,
    W: FnMut(&SweepCell) -> Result<CellResult, EmuError>,
{
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<CellResult, EmuError>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    if let Some(p) = progress {
        p.begin_batch(cells.len(), workers);
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut run = make_worker();
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let result = tracked(progress, || run(&cells[i]));
                    if result.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("result slot") = Some(result);
                }
            });
        }
    });
    // Indices are claimed in order and a claimed cell always fills its
    // slot, so empty slots only follow the first error, where collecting
    // stops.
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("claimed before any error"))
        .collect()
}

/// Runs one cell on the calling thread: lowers it to a spec under
/// `config`, compiles it (`custom` skips the scheduler-name check, for
/// policies from a factory, and keeps its runs out of the result
/// cache), then runs the iterations through `jobs`. Warm-up runs are
/// discarded, the final measured iteration records into the cell's
/// sink if it is the designated trace target, and deterministic
/// repeats replay from the job runner's cache.
fn run_cell_on(
    jobs: &mut JobRunner,
    config: &EngineConfig,
    apps: &Arc<AppLibrary>,
    trace: &Option<(String, TraceSink)>,
    cell: &SweepCell,
    custom: bool,
    make_scheduler: &mut dyn FnMut() -> Box<dyn Scheduler>,
) -> Result<CellResult, EmuError> {
    let spec = config.scenario(apps, cell);
    let scenario = if custom {
        CompiledScenario::compile_custom(spec)?
    } else {
        CompiledScenario::compile(spec)?
    };
    let engine = config.engine();
    let traced = trace.as_ref().filter(|(label, _)| *label == cell.label).map(|(_, sink)| sink);
    let warmup = usize::from(cell.warmup);
    let total = cell.iterations + warmup;
    let mut makespans = Vec::with_capacity(cell.iterations);
    let mut last: Option<EmulationStats> = None;
    for i in 0..total {
        let mut sched = make_scheduler();
        // Trace only the final measured iteration, so the exported
        // timeline isn't a concatenation of repeats.
        let result = match traced {
            Some(sink) if i + 1 == total => {
                jobs.run_traced(&scenario, engine, sched.as_mut(), sink.clone())?
            }
            _ => jobs.run_with(&scenario, engine, sched.as_mut())?,
        };
        if i >= warmup {
            makespans.push(result.stats.makespan.as_secs_f64() * 1e3);
            last = Some(result.stats);
        }
    }
    Ok(CellResult {
        label: cell.label.clone(),
        makespans_ms: makespans,
        stats: last.expect("at least one measured iteration"),
    })
}

/// The engine a [`SweepRunner`] runs its cells on, with that engine's
/// configuration: the scenario defaults every cell inherits (timing,
/// overhead, cost, reservation depth, faults) and the observers
/// (metrics, persistent trace) its engines are built with. Converts
/// from either engine's config, which is how
/// [`SweepRunner::with_config`] picks the engine.
#[derive(Clone, Debug)]
pub enum EngineConfig {
    /// The threaded emulation engine.
    Threaded(EmulationConfig),
    /// The discrete-event baseline: no threads, no kernel execution,
    /// durations from the configured cost spec, always deterministic.
    Des(DesConfig),
}

impl From<EmulationConfig> for EngineConfig {
    fn from(config: EmulationConfig) -> Self {
        EngineConfig::Threaded(config)
    }
}

impl From<DesConfig> for EngineConfig {
    fn from(config: DesConfig) -> Self {
        EngineConfig::Des(config)
    }
}

impl EngineConfig {
    /// Which engine runs the cells.
    fn engine(&self) -> Engine {
        match self {
            EngineConfig::Threaded(_) => Engine::Threaded,
            EngineConfig::Des(_) => Engine::Des,
        }
    }

    /// Lowers a cell to a scenario spec under this configuration.
    /// Cell-level faults take precedence over a config-level spec.
    fn scenario(&self, apps: &Arc<AppLibrary>, cell: &SweepCell) -> ScenarioSpec {
        let (library, platform) = (Arc::clone(apps), Arc::clone(&cell.platform));
        let (scheduler, workload) = (cell.scheduler.clone(), Arc::clone(&cell.workload));
        let mut spec = match self {
            EngineConfig::Threaded(c) => c.scenario(library, platform, scheduler, workload),
            EngineConfig::Des(c) => c.scenario(library, platform, scheduler, workload),
        };
        spec.faults = cell.faults.clone().or(spec.faults);
        spec
    }

    /// A job runner over `cache` whose engines carry this
    /// configuration's observers. A config-level trace sink records
    /// every run (and disables caching); `trace_cell` stays the precise
    /// per-cell path.
    fn jobs(&self, cache: ResultCache) -> JobRunner {
        let (metrics, trace) = match self {
            EngineConfig::Threaded(c) => (&c.metrics, &c.trace),
            EngineConfig::Des(c) => (&c.metrics, &c.trace),
        };
        let mut jobs = JobRunner::with_cache(cache);
        jobs.set_metrics(metrics.clone());
        jobs.set_trace(trace.clone());
        jobs
    }
}

/// Runs sweep cells through the scenario/job layer, on the engine its
/// [`EngineConfig`] names.
///
/// Each cell is lowered to a [`ScenarioSpec`] (the runner's engine
/// configuration plus the cell's platform/scheduler/workload/faults)
/// and compiled where it runs; the runner keeps no compiled scenario
/// after its cell finishes. The embedded [`JobRunner`] keeps one warm
/// engine per platform (up to its warm-PE budget) — cells on the same
/// platform, and repeated iterations within a cell, share its threaded
/// resource pool or its DES scratch arena (event queue, ready rings, SoA
/// completion columns, estimate book) — and replays deterministic
/// repeats from its [`ResultCache`]. DES cells always replay; threaded
/// cells do when their timing, overhead and cost are deterministic.
pub struct SweepRunner<'a> {
    library: &'a AppLibrary,
    /// Arc'd view of the library, shared into every [`ScenarioSpec`]
    /// instead of deep-cloning app models per cell.
    apps: Arc<AppLibrary>,
    config: EngineConfig,
    /// Job front door: warm engines plus the shared result cache.
    pub(crate) jobs: JobRunner,
    /// `(cell label, sink)` of the one designated trace target, if any.
    trace: Option<(String, TraceSink)>,
    /// Live batch progress, shared with whoever installed it.
    progress: Option<SweepProgress>,
}

/// Another name for [`SweepRunner`], for callers that spell out a
/// discrete-event sweep. The engine still comes from the config passed
/// to [`SweepRunner::with_config`], never from this name.
pub type DesSweepRunner<'a> = SweepRunner<'a>;

impl<'a> SweepRunner<'a> {
    /// A runner applying one engine configuration to every cell: an
    /// [`EmulationConfig`] runs cells on the threaded engine, a
    /// [`DesConfig`] on the discrete-event baseline.
    pub fn with_config(library: &'a AppLibrary, config: impl Into<EngineConfig>) -> Self {
        let config = config.into();
        SweepRunner {
            library,
            apps: Arc::new(library.clone()),
            jobs: config.jobs(ResultCache::default()),
            config,
            trace: None,
            progress: None,
        }
    }

    /// The application library the runner draws specs from.
    pub fn library(&self) -> &'a AppLibrary {
        self.library
    }

    /// The result cache shared by this runner's jobs (attach metrics or
    /// inspect hit counters through it).
    pub fn cache(&self) -> &ResultCache {
        self.jobs.cache()
    }

    /// Replaces the result cache (e.g. to share one cache across
    /// several runners).
    pub fn set_cache(&mut self, cache: ResultCache) {
        self.jobs.set_cache(cache);
    }

    /// Installs a shared [`SweepProgress`] handle: subsequent batch
    /// calls report per-cell starts/finishes into it. Clone the handle
    /// first to watch it (e.g. [`SweepProgress::watch_stderr`]).
    pub fn set_progress(&mut self, progress: SweepProgress) {
        self.progress = Some(progress);
    }

    /// The current batch progress, if a handle is installed.
    pub fn progress(&self) -> Option<SweepProgressSnapshot> {
        self.progress.as_ref().map(|p| p.snapshot())
    }

    /// Designates the cell labeled `label` for event tracing: its final
    /// measured iteration records into `sink`'s session. One cell, one
    /// iteration — a sweep's other cells and warm-up/earlier iterations
    /// stay untraced, so the trace doesn't distort the measured grid and
    /// the exported timeline isn't a concatenation of repeats.
    pub fn trace_cell(&mut self, label: impl Into<String>, sink: TraceSink) {
        self.trace = Some((label.into(), sink));
    }

    /// Runs one cell with its named library scheduler (a fresh policy
    /// instance per iteration; the name is resolved once).
    pub fn run_cell(&mut self, cell: &SweepCell) -> Result<CellResult, EmuError> {
        let mut factory = scheduler_factory(&cell.scheduler)?;
        let SweepRunner { jobs, config, apps, trace, .. } = self;
        run_cell_on(jobs, config, apps, trace, cell, false, &mut factory)
    }

    /// Runs one cell with a custom scheduler factory (called once per
    /// iteration, so stateful policies start fresh each time). The
    /// cell's scheduler name is a display label here, not resolved
    /// against the library, and results are never served from cache.
    pub fn run_cell_with(
        &mut self,
        cell: &SweepCell,
        make_scheduler: &mut dyn FnMut() -> Box<dyn Scheduler>,
    ) -> Result<CellResult, EmuError> {
        let SweepRunner { jobs, config, apps, trace, .. } = self;
        run_cell_on(jobs, config, apps, trace, cell, true, make_scheduler)
    }

    /// Runs every cell of a grid in order, stopping at the first error.
    pub fn run_batch(&mut self, cells: &[SweepCell]) -> Result<Vec<CellResult>, EmuError> {
        let progress = self.progress.clone();
        if let Some(p) = &progress {
            p.begin_batch(cells.len(), 1);
        }
        cells.iter().map(|c| tracked(progress.as_ref(), || self.run_cell(c))).collect()
    }

    /// Runs a grid across `workers` threads (see [`default_workers`]),
    /// returning results in cell order.
    ///
    /// Each worker compiles the cells it claims and owns its warm
    /// engines — resource pools or DES scratch arenas are never shared
    /// or contended across workers — while all workers share this
    /// runner's [`ResultCache`] by `Arc` (so deterministic duplicate
    /// cells across workers collapse into shared hits). DES cells are
    /// pure single-threaded compute, so DES grids scale with cores.
    /// With one worker — or a single cell — this is exactly
    /// [`Self::run_batch`] on `self`, reusing its engines.
    pub fn run_batch_parallel(
        &mut self,
        cells: &[SweepCell],
        workers: usize,
    ) -> Result<Vec<CellResult>, EmuError> {
        let workers = workers.clamp(1, cells.len().max(1));
        if workers <= 1 {
            return self.run_batch(cells);
        }
        let (config, apps, trace) = (&self.config, &self.apps, &self.trace);
        let cache = self.jobs.cache();
        run_cells_parallel(cells, workers, self.progress.as_ref(), || {
            let mut jobs = config.jobs(cache.clone());
            move |cell: &SweepCell| {
                let mut factory = scheduler_factory(&cell.scheduler)?;
                run_cell_on(&mut jobs, config, apps, trace, cell, false, &mut factory)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OverheadMode, TimingMode};
    use crate::job::CostSpec;
    use crate::sched::FrfsScheduler;
    use dssoc_platform::presets::zcu102;

    fn tiny_setup() -> (AppLibrary, Arc<Workload>) {
        use dssoc_appmodel::json::AppJson;
        use dssoc_appmodel::registry::KernelRegistry;
        use dssoc_appmodel::WorkloadSpec;
        let mut registry = KernelRegistry::new();
        registry.register_fn("t.so", "work", |ctx| {
            let n = ctx.read_u32("n")?;
            ctx.write_u32("n", n + 1)
        });
        let json = AppJson::from_str(
            r#"{
            "AppName": "tiny",
            "SharedObject": "t.so",
            "Variables": {"n": {"bytes": 4, "is_ptr": false, "ptr_alloc_bytes": 0, "val": [0,0,0,0]}},
            "DAG": {"only": {"arguments": ["n"],
                             "platforms": [{"name": "cpu", "runfunc": "work"}]}}
        }"#,
        )
        .unwrap();
        let mut library = AppLibrary::new();
        library.register_json(&json, &registry).unwrap();
        let workload =
            Arc::new(WorkloadSpec::validation([("tiny", 2usize)]).generate(&library).unwrap());
        (library, workload)
    }

    fn quiet_config() -> EmulationConfig {
        EmulationConfig {
            timing: TimingMode::Modeled,
            overhead: OverheadMode::None,
            cost: CostSpec::default(),
            reservation_depth: 0,
            trace: None,
            faults: None,
            metrics: None,
        }
    }

    #[test]
    fn batch_reuses_pools_across_cells() {
        let (library, workload) = tiny_setup();
        let mut runner = SweepRunner::with_config(&library, quiet_config());
        let cells = vec![
            SweepCell::new(zcu102(2, 0), "frfs", Arc::clone(&workload)).iterations(2),
            SweepCell::new(zcu102(2, 0), "met", Arc::clone(&workload)),
            SweepCell::new(zcu102(1, 0), "frfs", workload).warmup(true),
        ];
        let before = crate::resource::threads_spawned_total();
        let results = runner.run_batch(&cells).unwrap();
        let spawned = crate::resource::threads_spawned_total() - before;
        assert_eq!(spawned, 3, "two pools: 2 PEs + 1 PE, reused across 5 runs");
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].makespans_ms.len(), 2);
        assert_eq!(results[1].label, "zcu102-2C+0F/met");
        assert_eq!(results[2].makespans_ms.len(), 1, "warm-up run discarded");
        for r in &results {
            assert_eq!(r.stats.completed_apps(), 2);
            assert!(r.makespans_ms.iter().all(|&m| m > 0.0));
        }
    }

    #[test]
    fn unknown_scheduler_is_a_config_error() {
        let (library, workload) = tiny_setup();
        let mut runner = SweepRunner::with_config(&library, quiet_config());
        let cell = SweepCell::new(zcu102(1, 0), "heft", workload);
        let err = runner.run_cell(&cell).unwrap_err();
        assert!(err.to_string().contains("heft"), "{err}");
    }

    #[test]
    fn custom_scheduler_factory() {
        let (library, workload) = tiny_setup();
        let mut runner = SweepRunner::with_config(&library, quiet_config());
        let cell = SweepCell::new(zcu102(1, 0), "custom", workload).label("mine").iterations(2);
        let result = runner.run_cell_with(&cell, &mut || Box::new(FrfsScheduler::new())).unwrap();
        assert_eq!(result.label, "mine");
        assert_eq!(result.makespans_ms.len(), 2);
    }

    #[test]
    fn des_runner_reuses_simulators() {
        let (library, workload) = tiny_setup();
        let mut runner = SweepRunner::with_config(&library, DesConfig::default());
        let cells = vec![
            SweepCell::new(zcu102(2, 0), "frfs", Arc::clone(&workload)).iterations(2),
            SweepCell::new(zcu102(2, 0), "met", Arc::clone(&workload)),
            SweepCell::new(zcu102(1, 0), "frfs", workload).warmup(true),
        ];
        let results = runner.run_batch(&cells).unwrap();
        assert_eq!(runner.jobs.warm_engines(), (0, 2), "one simulator per platform shape");
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].makespans_ms.len(), 2);
        assert_eq!(results[2].makespans_ms.len(), 1, "warm-up run discarded");
        for r in &results {
            assert_eq!(r.stats.completed_apps(), 2);
        }
    }

    #[test]
    fn duplicate_des_cells_replay_from_result_cache() {
        let (library, workload) = tiny_setup();
        let mut runner = SweepRunner::with_config(&library, DesConfig::default());
        // Same scenario content under two labels: one live run, one
        // cache replay with byte-identical makespans.
        let cells = vec![
            SweepCell::new(zcu102(2, 0), "frfs", Arc::clone(&workload)).label("a"),
            SweepCell::new(zcu102(2, 0), "frfs", workload).label("b"),
        ];
        let results = runner.run_batch(&cells).unwrap();
        assert_eq!(runner.cache().hits(), 1, "duplicate cell served from cache");
        assert_eq!(runner.cache().misses(), 1);
        assert_eq!(results[0].makespans_ms, results[1].makespans_ms);
        assert_eq!(results[1].label, "b", "labels stay per-cell even on cache hits");
    }

    #[test]
    fn runner_keeps_no_workload_alive_after_its_cells() {
        let (library, workload) = tiny_setup();
        let configs: [EngineConfig; 2] = [quiet_config().into(), DesConfig::default().into()];
        for config in configs {
            let mut runner = SweepRunner::with_config(&library, config);
            let cell = || SweepCell::new(zcu102(1, 0), "frfs", Arc::clone(&workload));
            runner.run_cell(&cell()).unwrap();
            runner.run_cell_with(&cell(), &mut || Box::new(FrfsScheduler::new())).unwrap();
            runner.run_batch(&[cell(), cell().iterations(2)]).unwrap();
            let grid = vec![cell(), SweepCell::new(zcu102(2, 0), "met", Arc::clone(&workload))];
            runner.run_batch_parallel(&grid, 2).unwrap();
            drop(grid);
            assert_eq!(
                Arc::strong_count(&workload),
                1,
                "the runner still holds a cell's workload after its batches"
            );
        }
    }

    #[test]
    fn parallel_single_worker_uses_own_pools() {
        let (library, workload) = tiny_setup();
        let mut runner = SweepRunner::with_config(&library, quiet_config());
        let cells = vec![SweepCell::new(zcu102(1, 0), "frfs", workload)];
        let results = runner.run_batch_parallel(&cells, 4).unwrap();
        assert_eq!(results.len(), 1, "single cell degrades to sequential");
        assert_eq!(runner.jobs.warm_engines(), (1, 0), "sequential fallback warms self's pool");
    }
}
