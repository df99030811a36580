//! The `emu_sweep` workload: one caller drives
//! [`SweepRunner::run_cell`] over distinct seeded performance-mode
//! cells. The threaded engine runs the real WiFi/RADAR kernels on
//! ZCU102 shapes with at most two PEs, in Modeled timing with a full
//! cost table and no charged overhead, so every makespan is
//! deterministic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec};
use dssoc_appmodel::memory::TaskCtx;
use dssoc_appmodel::workload::Workload;
use dssoc_core::des::DesConfig;
use dssoc_core::engine::{EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec, Engine, JobRunner, ResultCache, ScenarioSpec};
use dssoc_core::sweep::{DesSweepRunner, SweepRunner};
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::cost::CostTable;
use dssoc_platform::presets::zcu102;

use crate::gen::{sweep_job, Rng, SweepJob, SWEEP_SHAPES};
use crate::measure::{secs, Metrics, SliceStats, Slices, Spans};
use crate::verify::{run_uncached, SimResult};
use crate::{Args, RunResult};

/// Cells run before the timed window: one per shape, so every PE pool
/// is spawned before timing starts.
const WARMUP_CELLS: usize = SWEEP_SHAPES.len();
/// Cells after which the untraced window reads the memory peak. The
/// sweep runner's compile memo keeps one scenario per distinct cell, so
/// memory grows with every cell run; read at a fixed count, the peak
/// does not depend on how fast cells run. About 9 s of a 30 s window at
/// 70 cells/s; a window too short to reach it reads at its end.
const RSS_AT_CELLS: usize = 600;
/// Set-ups per run; `setup_s` is their median. The first is the cold
/// one, timed from `main`; the others run after the window (and after
/// its memory peak is read), so their leftovers never touch what is
/// measured.
const SETUP_REPS: usize = 5;
/// Generator stream of sweep cells.
const STREAM: u64 = 0x5eed_c311;
/// Seed of the warm-up cells: the same for every run, so set-up does the
/// same work whatever the benchmark seed.
const WARMUP_SEED: u64 = 0x3a9d;

/// A deterministic cost for every `(runfunc, PE class)` pair the
/// reference apps can hit on the sweep shapes: the JSON estimate when
/// present, else a synthetic per-node duration (the differential
/// suite's table).
pub fn cost_table(library: &AppLibrary) -> CostTable {
    let mut table = CostTable::new();
    for app in library.names() {
        let spec = library.get(app).expect("listed app");
        for node in &spec.nodes {
            for (cores, ffts) in SWEEP_SHAPES {
                for pe in &zcu102(cores, ffts).pes {
                    if let Some(p) = node.platform(&pe.platform_key) {
                        let d = p
                            .mean_exec
                            .unwrap_or_else(|| Duration::from_micros(50 + 10 * node.index as u64));
                        table.set(p.runfunc.clone(), pe.class_name(), d);
                    }
                }
            }
        }
    }
    table
}

fn config(table: &CostTable) -> EmulationConfig {
    EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table.clone()),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    }
}

/// The scenario a sweep runner lowers `job`'s cell to, compiled.
fn compile(job: &SweepJob, library: &Arc<AppLibrary>, table: &CostTable) -> Arc<CompiledScenario> {
    let cell = &job.cell;
    let spec = ScenarioSpec::builder()
        .library(Arc::clone(library))
        .platform(Arc::clone(&cell.platform))
        .scheduler(cell.scheduler.clone())
        .workload(Arc::clone(&cell.workload))
        .timing(TimingMode::Modeled)
        .overhead(OverheadMode::None)
        .cost(CostSpec::table(table.clone()))
        .build()
        .expect("generated cells are valid scenarios");
    CompiledScenario::compile(spec).expect("generated cells compile")
}

/// DAG order of one application: predecessors before successors.
fn dag_order(spec: &ApplicationSpec) -> Vec<usize> {
    let mut waiting: Vec<usize> = spec.nodes.iter().map(|n| n.predecessors.len()).collect();
    let mut order: Vec<usize> = spec.roots.clone();
    let mut i = 0;
    while i < order.len() {
        for &s in &spec.nodes[order[i]].successors {
            waiting[s] -= 1;
            if waiting[s] == 0 {
                order.push(s);
            }
        }
        i += 1;
    }
    order
}

/// Runs every kernel of `workload` once, in DAG order on this thread,
/// through the app model's `Kernel`/`TaskCtx` interface (CPU entries).
/// Returns the time spent inside kernels only.
fn run_kernels(workload: &Workload, library: &AppLibrary) -> Duration {
    let instances = workload.instantiate(library).expect("generated workloads instantiate");
    let mut busy = Duration::ZERO;
    for inst in &instances {
        for idx in dag_order(&inst.spec) {
            let node = &inst.spec.nodes[idx];
            let cpu = node.platform("cpu").expect("every reference node runs on a CPU");
            let ctx = TaskCtx::new(&inst.memory, &node.name, &node.arguments, None);
            let t = Instant::now();
            cpu.kernel.run(&ctx).expect("reference kernels succeed");
            busy += t.elapsed();
        }
    }
    busy
}

/// One cell as the caller saw it.
struct Sample {
    job: SweepJob,
    latency_ms: f64,
    done_at: Instant,
    result: Result<SimResult, String>,
}

/// Per-cell probes of a traced run, made after the cell outside its
/// latency: the same scenario through a cache-less `JobRunner` on both
/// engines, the kernels alone, and a warm cache hit.
struct Probe<'a> {
    threaded: JobRunner,
    des_metrics: JobRunner,
    des_bare: JobRunner,
    des_sweep: DesSweepRunner<'a>,
}

impl<'a> Probe<'a> {
    fn new(library: &'a AppLibrary, table: &CostTable) -> Probe<'a> {
        let mut des_metrics = JobRunner::new();
        des_metrics.set_metrics(Some(MetricsRegistry::new()));
        let des_config = DesConfig { cost: CostSpec::table(table.clone()), ..DesConfig::default() };
        Probe {
            threaded: JobRunner::new(),
            des_metrics,
            des_bare: JobRunner::new(),
            des_sweep: DesSweepRunner::with_config(library, des_config),
        }
    }

    fn trace_cell(
        &mut self,
        s: &Sample,
        spans: &Spans,
        library: &Arc<AppLibrary>,
        table: &CostTable,
    ) {
        let (scenario, _) = spans.time("core.job.compile", || compile(&s.job, library, table));
        let (stats, run_us) = spans.time("core.engine.run", || {
            run_uncached(&mut self.threaded, &scenario, Engine::Threaded)
        });
        let tasks = stats.tasks.len().max(1) as f64;
        spans.count("core.engine.ns_per_task", run_us * 1e3 / tasks);
        let kernels = run_kernels(&s.job.cell.workload, library);
        spans.count("apps.kernel_us", kernels.as_secs_f64() * 1e6);
        spans.count("core.engine.runtime_overhead_us", run_us - kernels.as_secs_f64() * 1e6);
        let (_, des_us) = spans.time("core.des.run_with_metrics", || {
            run_uncached(&mut self.des_metrics, &scenario, Engine::Des)
        });
        spans.count("core.des.ns_per_task", des_us * 1e3 / tasks);
        let (_, bare_us) = spans
            .time("core.des.run_bare", || run_uncached(&mut self.des_bare, &scenario, Engine::Des));
        spans.count("core.des.ns_per_task_bare", bare_us * 1e3 / tasks);
        // The sweep layer's own cost per cell (lowering the cell to a
        // spec, fingerprinting, compiling into the memo): `run_cell`
        // minus the `JobRunner` run of the same scenario. Taken on the
        // DES twin of the sweep layer, whose runs repeat closely enough
        // to subtract; the threaded engine's run-to-run spread is larger
        // than the quantity.
        let cell = s.job.cell.clone();
        let (_, cell_us) = spans.time("core.sweep.des_run_cell", || {
            self.des_sweep.set_cache(ResultCache::new(1));
            self.des_sweep.run_cell(&cell).expect("DES sweep cell")
        });
        spans.count("core.sweep.overhead_us", cell_us - bare_us);
        let cache = ResultCache::new(1);
        cache.insert(scenario.fingerprint(), Engine::Threaded, stats);
        let (hit, _) = spans
            .time("core.job.cache_get", || cache.get(scenario.fingerprint(), Engine::Threaded));
        assert!(hit.is_some(), "a just-inserted result is a warm hit");
    }
}

/// Runs cells closed-loop until `seconds` have passed. Returns the
/// memory peak after [`RSS_AT_CELLS`] cells (or at the end).
fn window(
    runner: &mut SweepRunner<'_>,
    rng: &mut Rng,
    next: &mut usize,
    library: &Arc<AppLibrary>,
    seconds: f64,
    trace: Option<(&Spans, &CostTable)>,
) -> (Vec<Sample>, SliceStats, f64) {
    let mut probe = trace.map(|(_, table)| Probe::new(library, table));
    let slices = Slices::start();
    let deadline = slices.started() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    let mut peak_rss_mb = None;
    while Instant::now() < deadline {
        let job = sweep_job(rng, library, *next);
        *next += 1;
        let t = Instant::now();
        let result = runner.run_cell(&job.cell);
        let done_at = Instant::now();
        let latency_ms = done_at.duration_since(t).as_secs_f64() * 1e3;
        slices.tick();
        let result = result.map(|r| SimResult::of(&r.stats)).map_err(|e| e.to_string());
        let sample = Sample { job, latency_ms, done_at, result };
        if let (Some(p), Some((spans, table))) = (probe.as_mut(), trace) {
            p.trace_cell(&sample, spans, library, table);
        }
        samples.push(sample);
        if samples.len() == RSS_AT_CELLS {
            peak_rss_mb = Some(crate::measure::peak_rss_mb());
        }
    }
    let done: Vec<(Instant, f64)> = samples.iter().map(|s| (s.done_at, s.latency_ms)).collect();
    let stats = slices.finish(&done);
    (samples, stats, peak_rss_mb.unwrap_or_else(crate::measure::peak_rss_mb))
}

/// CPU-only cells must equal their DES run bit for bit (the
/// cross-engine oracle); every cell must complete every app within the
/// generator's task range.
fn verify_samples(
    samples: &[Sample],
    library: &Arc<AppLibrary>,
    table: &CostTable,
) -> (u64, Vec<String>) {
    let mut runner = JobRunner::new();
    let mut verified = 0;
    let mut problems = Vec::new();
    for s in samples {
        let label = &s.job.cell.label;
        let got = match &s.result {
            Ok(got) => *got,
            Err(e) => {
                problems.push(format!("{label} failed: {e}"));
                continue;
            }
        };
        let (lo, hi) = s.job.task_range();
        if !(lo..=hi).contains(&(got.tasks as usize)) {
            problems.push(format!("{label} has {} tasks, outside [{lo}, {hi}]", got.tasks));
        } else if got.apps_completed != s.job.cell.workload.len() as u64 {
            problems.push(format!("{label} completed {} apps", got.apps_completed));
        } else if s.job.cpu_only
            && got
                != SimResult::of(&run_uncached(
                    &mut runner,
                    &compile(&s.job, library, table),
                    Engine::Des,
                ))
        {
            problems.push(format!("{label} differs from its DES run"));
        } else {
            verified += 1;
        }
    }
    (verified, problems)
}

/// Results of the first golden cells, run in-process the way the
/// workload runs them.
pub fn golden_results(seed: u64, count: usize) -> Vec<SimResult> {
    let library = Arc::new(dssoc_apps::standard_library().0);
    let table = cost_table(&library);
    let mut rng = Rng::new(seed, STREAM);
    let mut runner = JobRunner::new();
    (0..count)
        .map(|i| {
            let job = sweep_job(&mut rng, &library, i);
            let scenario = compile(&job, &library, &table);
            SimResult::of(&run_uncached(&mut runner, &scenario, Engine::Threaded))
        })
        .collect()
}

/// Builds the library and cost table (set-up phase 0).
fn set_up(phases: &mut [Vec<f64>; 3]) -> (Arc<AppLibrary>, CostTable) {
    let t = Instant::now();
    let library = Arc::new(dssoc_apps::standard_library().0);
    let table = cost_table(&library);
    phases[0].push(secs(t) * 1e3);
    (library, table)
}

/// Starts a sweep runner and runs one warm-up cell on each shape
/// (set-up phases 1 and 2).
fn start_runner<'a>(
    library: &'a AppLibrary,
    table: &CostTable,
    phases: &mut [Vec<f64>; 3],
) -> SweepRunner<'a> {
    let t = Instant::now();
    let mut runner = SweepRunner::with_config(library, config(table));
    phases[1].push(secs(t) * 1e3);
    let t = Instant::now();
    let mut warmup = Rng::new(WARMUP_SEED, STREAM);
    for (i, (cores, ffts)) in SWEEP_SHAPES.into_iter().enumerate() {
        // One warm-up cell on each shape in turn.
        let mut job = sweep_job(&mut warmup, library, i);
        job.cell.platform = Arc::new(zcu102(cores, ffts));
        runner.run_cell(&job.cell).expect("warm-up cell runs");
    }
    phases[2].push(secs(t) * 1e3);
    runner
}

pub fn run(args: &Args, main_start: Instant) -> RunResult {
    let mut phases: [Vec<f64>; 3] = Default::default();
    let (library, table) = set_up(&mut phases);
    let runner = start_runner(&library, &table, &mut phases);
    let mut setup_s = vec![secs(main_start)];
    let result = measure(args, &library, &table, runner);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let (library, table) = set_up(&mut phases);
        drop(start_runner(&library, &table, &mut phases));
        setup_s.push(secs(t));
    }
    RunResult { setup_s, phases, ..result }
}

fn measure(
    args: &Args,
    library: &Arc<AppLibrary>,
    table: &CostTable,
    mut runner: SweepRunner<'_>,
) -> RunResult {
    let mut rng = Rng::new(args.seed, STREAM);
    let mut next = WARMUP_CELLS;
    let untraced_s = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let hits0 = runner.cache().hits();
    let (mut samples, measured, peak_rss_mb) =
        window(&mut runner, &mut rng, &mut next, library, untraced_s, None);
    let latencies_ms: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();

    let spans = Spans::new();
    let mut layers = Metrics::default();
    let mut problems = Vec::new();
    if args.trace {
        let (misses0, t_hits0) = (runner.cache().misses(), runner.cache().hits());
        let (traced, _, _) = window(
            &mut runner,
            &mut rng,
            &mut next,
            library,
            args.seconds - untraced_s,
            Some((&spans, table)),
        );
        let lookups = (runner.cache().misses() - misses0) + (runner.cache().hits() - t_hits0);
        let hit_ratio = (runner.cache().hits() - t_hits0) as f64 / lookups.max(1) as f64;
        let traced_ms: Vec<f64> = traced.iter().map(|s| s.latency_ms).collect();
        samples.extend(traced);
        let ms = |name: &str| spans.median(name) / 1e3;
        layers.set("core.engine.run_ms", spans.median_us("core.engine.run") / 1e3, "ms");
        layers.set("core.engine.ns_per_task", spans.median("core.engine.ns_per_task"), "ns");
        layers.set("apps.kernel_ms_per_job", ms("apps.kernel_us"), "ms");
        layers.set("core.engine.runtime_overhead_ms", ms("core.engine.runtime_overhead_us"), "ms");
        layers.set("core.sweep.overhead_us_per_cell", spans.median("core.sweep.overhead_us"), "us");
        layers.set("core.job.compile_us", spans.median_us("core.job.compile"), "us");
        layers.set("core.job.cache_get_us", spans.median_us("core.job.cache_get"), "us");
        layers.set("core.job.cache_hit_ratio", hit_ratio, "share");
        layers.set("core.des.ns_per_task", spans.median("core.des.ns_per_task"), "ns");
        layers.set("core.des.ns_per_task_bare", spans.median("core.des.ns_per_task_bare"), "ns");
        let overhead = crate::measure::median_or_zero(&traced_ms)
            - crate::measure::median_or_zero(&latencies_ms);
        layers.set("trace.overhead_p50_ms", overhead, "ms");
    }
    if runner.cache().hits() != hits0 {
        problems.push("emu_sweep cells hit the result cache; cells must be distinct".to_string());
    }
    let (verified, mismatches) = verify_samples(&samples, library, table);
    problems.extend(mismatches);
    RunResult {
        setup_s: Vec::new(),
        phases: Default::default(),
        window: measured,
        peak_rss_mb,
        attempted: samples.len() as u64,
        verified,
        problems,
        layers,
    }
}
