//! DES core throughput: simulated events per second vs workload size.
//!
//! The DES is the design-space-exploration workhorse (the DS3-class
//! role, paper §III-D): sweep grids run it thousands of times, so its
//! event-loop complexity is directly the DSE turnaround time. This
//! bench pins that trajectory: FRFS on a CPU-only `zcu102(3, 0)` with a
//! fully populated cost table (deterministic, no host measurement),
//! across workloads from ~250 to ~4000 tasks. Each task contributes one
//! dispatch and one completion event, so "events" here is 2x the task
//! count.
//!
//! Two paths are measured per size:
//!
//! - **cold** — `DesSimulator::run`: compile + `run_compiled`. The
//!   config is lowered to a `ScenarioSpec` and compiled afresh (key,
//!   name table, SoA slabs, estimate book) every run,
//!   then simulated on the warm scratch arena. This is the one-off path
//!   of a library caller.
//! - **warm** — `DesSimulator::run_compiled` against one
//!   [`CompiledScenario`], repeated on the same simulator: the run
//!   reuses the precompiled SoA slabs and the simulator's scratch arena
//!   (event queue, dense state arrays, estimate book values-only
//!   reset), so the hot loop is allocation-free. This is the
//!   `SweepCell` iteration / `JobRunner` steady state and the headline
//!   events/sec number. The scenario is driven directly (not through
//!   `JobRunner`) because the deterministic result cache would replay
//!   repeats instead of simulating them.
//!
//! Besides the criterion timings, a best-of-N summary is merged into
//! `BENCH_des.json` (see `dssoc_bench::report`) in both bench and
//! `--test` (CI smoke) modes, so every CI run records the current
//! events/sec alongside the numbers in `crates/bench/README.md`. The
//! summary also times the warm 4002-task run with a live metrics
//! registry attached — the configuration every served DES job runs in
//! (`tasks_4002_warm_metrics_*`) — interleaved with the bare warm run,
//! best of [`METRICS_REPS`] each, and records their ratio
//! (`tasks_4002_warm_metrics_ratio`). Two perf gates, checked after the
//! summary is written:
//!
//! - `--test` fails when that ratio exceeds [`METRICS_RATIO_CEILING`];
//! - `--floor <events/sec>` fails when any size's bare warm throughput
//!   lands below the floor.
//!
//! ```sh
//! cargo bench -p dssoc-bench --bench des_throughput
//! cargo bench -p dssoc-bench --bench des_throughput -- --test --floor 2000000
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::{Workload, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_bench::report::BenchReport;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioSpec};
use dssoc_core::sched::by_name;
use dssoc_core::sweep::{default_workers, DesSweepRunner, SweepCell};
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

/// range_detection instance counts giving ~250 / ~1000 / ~4000 tasks
/// (6 tasks per instance).
const SIZES: [usize; 3] = [42, 167, 667];

/// Interleaved bare/metrics warm runs timed for the metrics ratio.
const METRICS_REPS: usize = 32;

/// The most the metrics-attached warm 4002-task run may cost over the
/// bare one in `--test` mode. Measured at 1.16–1.30, typically ~1.2, on
/// a 2-vCPU x86-64 dev box, depending on host load (it was 2.0–2.8
/// while every run registered its own cells and hashed each kernel
/// name); the ceiling sits about 1.3x above the typical ratio.
const METRICS_RATIO_CEILING: f64 = 1.55;

/// A deterministic cost table covering every runfunc of
/// `range_detection` on `platform` (same scheme as the cross-engine
/// differential test), so the DES never falls back to defaults.
fn full_cost_table(library: &AppLibrary, platform: &PlatformConfig) -> CostTable {
    let mut table = CostTable::new();
    let spec = library.get("range_detection").expect("reference app");
    for node in &spec.nodes {
        for pe in &platform.pes {
            if let Some(p) = node.platform(&pe.platform_key) {
                let d = p
                    .mean_exec
                    .unwrap_or_else(|| Duration::from_micros(50 + 10 * node.index as u64));
                table.set(p.runfunc.clone(), pe.class_name(), d);
            }
        }
    }
    table
}

/// A simulator publishing to `metrics` when given one.
fn make_sim(
    platform: &PlatformConfig,
    table: &CostTable,
    metrics: Option<MetricsRegistry>,
) -> DesSimulator {
    DesSimulator::new(
        platform.clone(),
        DesConfig {
            cost: CostSpec::table(table.clone()),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics,
        },
    )
    .expect("platform")
}

fn workload(library: &AppLibrary, instances: usize) -> Arc<Workload> {
    Arc::new(
        WorkloadSpec::validation([("range_detection", instances)])
            .generate(library)
            .expect("workload"),
    )
}

/// Precompiles the scenario the warm path replays.
fn compile_scenario(
    library: &AppLibrary,
    platform: &PlatformConfig,
    table: &CostTable,
    wl: &Arc<Workload>,
) -> Arc<CompiledScenario> {
    let spec = ScenarioSpec::builder()
        .library(library.clone())
        .platform(platform.clone())
        .scheduler("frfs")
        .workload(Arc::clone(wl))
        .cost(CostSpec::table(table.clone()))
        .build()
        .expect("scenario");
    CompiledScenario::compile(spec).expect("compile")
}

/// One cold DES run (fresh FRFS policy, scenario compiled afresh),
/// returning the task count.
fn run_once(sim: &mut DesSimulator, wl: &Workload, library: &AppLibrary) -> usize {
    let mut sched = by_name("frfs").expect("library policy");
    let stats = sim.run(sched.as_mut(), wl, library).expect("simulation");
    stats.tasks.len()
}

/// One warm DES run (fresh FRFS policy, precompiled scenario + warm
/// simulator scratch), returning the task count.
fn run_warm(sim: &mut DesSimulator, scenario: &CompiledScenario) -> usize {
    let mut sched = by_name("frfs").expect("library policy");
    let stats = sim.run_compiled(sched.as_mut(), scenario, None, None).expect("simulation");
    stats.tasks.len()
}

fn bench_des_throughput(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    let platform = zcu102(3, 0);
    let table = full_cost_table(&library, &platform);
    let mut group = c.benchmark_group("des_throughput");
    group.sample_size(10);
    for &n in &SIZES {
        let wl = workload(&library, n);
        let mut sim = make_sim(&platform, &table, None);
        let tasks = run_once(&mut sim, &wl, &library);
        group.bench_with_input(BenchmarkId::new("tasks", tasks), &wl, |b, wl| {
            b.iter(|| black_box(run_once(&mut sim, wl, &library)))
        });
        let scenario = compile_scenario(&library, &platform, &table, &wl);
        let mut sim = make_sim(&platform, &table, None);
        group.bench_with_input(BenchmarkId::new("tasks_warm", tasks), &scenario, |b, sc| {
            b.iter(|| black_box(run_warm(&mut sim, sc)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_des_throughput);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let floor: Option<f64> = args
        .iter()
        .position(|a| a == "--floor")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    if !test_mode {
        benches();
    }

    // Best-of-N summary for BENCH_des.json — written in --test (CI
    // smoke) mode too, so the artifact tracks every CI run.
    let reps = if test_mode { 2 } else { 16 };
    let (library, _registry) = standard_library();
    let platform = zcu102(3, 0);
    let table = full_cost_table(&library, &platform);
    let mut report = BenchReport::new("des_throughput");
    let mut min_warm = f64::INFINITY;
    let mut metrics_ratio = None;
    println!();
    println!("== des_throughput summary (best of {reps}) ==");
    for &n in &SIZES {
        let wl = workload(&library, n);
        let mut sim = make_sim(&platform, &table, None);
        let tasks = run_once(&mut sim, &wl, &library);
        let scenario = compile_scenario(&library, &platform, &table, &wl);
        // Untimed warm-up (~0.5 s): lets the frequency governor ramp
        // up, so best-of-N measures the hot-loop cost rather than the
        // host's idle clock.
        if !test_mode {
            let warm = Instant::now();
            while warm.elapsed() < Duration::from_millis(500) {
                black_box(run_warm(&mut sim, &scenario));
            }
        }
        let best_cold = (0..reps)
            .map(|_| {
                let start = Instant::now();
                black_box(run_once(&mut sim, &wl, &library));
                start.elapsed()
            })
            .min()
            .expect("reps > 0");
        // The first run_compiled after the cold runs re-primes the
        // estimate-book identity; exclude it from the timed reps.
        black_box(run_warm(&mut sim, &scenario));
        let best_warm = (0..reps)
            .map(|_| {
                let start = Instant::now();
                black_box(run_warm(&mut sim, &scenario));
                start.elapsed()
            })
            .min()
            .expect("reps > 0");
        // One dispatch + one completion event per task.
        let events = 2.0 * tasks as f64;
        let cold_eps = events / best_cold.as_secs_f64();
        let warm_eps = events / best_warm.as_secs_f64();
        min_warm = min_warm.min(warm_eps);
        println!(
            "  {tasks:>5} tasks: cold {:>10.3?} ({:>12.0} ev/s), warm {:>10.3?} ({:>12.0} ev/s)",
            best_cold, cold_eps, best_warm, warm_eps
        );
        report.set_f64(format!("tasks_{tasks}_run_us"), best_cold.as_secs_f64() * 1e6);
        report.set_f64(format!("tasks_{tasks}_events_per_sec"), cold_eps);
        report.set_f64(format!("tasks_{tasks}_warm_run_us"), best_warm.as_secs_f64() * 1e6);
        report.set_f64(format!("tasks_{tasks}_warm_events_per_sec"), warm_eps);

        // The largest size once more with live metrics attached, as the
        // serve daemon runs every DES job, timed interleaved with the
        // bare warm run so host drift hits both alike.
        if n == SIZES[SIZES.len() - 1] {
            let mut metered = make_sim(&platform, &table, Some(MetricsRegistry::new()));
            black_box(run_warm(&mut metered, &scenario));
            let time = |sim: &mut DesSimulator| {
                let start = Instant::now();
                black_box(run_warm(sim, &scenario));
                start.elapsed()
            };
            let (mut bare, mut best) = (Duration::MAX, Duration::MAX);
            for _ in 0..METRICS_REPS {
                bare = bare.min(time(&mut sim));
                best = best.min(time(&mut metered));
            }
            let eps = events / best.as_secs_f64();
            let ratio = best.as_secs_f64() / bare.as_secs_f64();
            println!(
                "  {tasks:>5} tasks, metrics attached: warm {best:>10.3?} ({eps:>12.0} ev/s), \
                 {ratio:.2}x the bare {bare:.3?}"
            );
            report.set_f64(format!("tasks_{tasks}_warm_metrics_run_us"), best.as_secs_f64() * 1e6);
            report.set_f64(format!("tasks_{tasks}_warm_metrics_events_per_sec"), eps);
            report.set_f64(format!("tasks_{tasks}_warm_metrics_ratio"), ratio);
            metrics_ratio = Some(ratio);
        }
    }

    // Parallel sweep scaling: an 8-cell DES grid (8 ZCU102 shapes,
    // FRFS, ~1000 tasks per run) timed sequentially vs across 4
    // workers. DES cells are pure virtual-time compute, so the grid
    // should scale with cores — this is the DSE turnaround claim.
    let iters = if test_mode { 1 } else { 20 };
    let grid_reps = if test_mode { 1 } else { 3 };
    let wl = workload(&library, 167);
    let table = full_cost_table(&library, &zcu102(3, 2));
    let config = DesConfig {
        cost: CostSpec::table(table),
        overhead_per_invocation: Duration::ZERO,
        trace: None,
        faults: None,
        metrics: None,
    };
    let cells: Vec<SweepCell> = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]
        .iter()
        .map(|&(cores, ffts)| {
            SweepCell::new(zcu102(cores, ffts), "frfs", Arc::clone(&wl)).iterations(iters)
        })
        .collect();
    // Cap at 4 so the recorded speedup reflects the "4-core runner"
    // configuration; on fewer cores the grid degrades gracefully (and
    // with a single core the parallel path falls back to sequential).
    let workers = default_workers().min(4);
    let time_grid = |parallel: bool| -> Duration {
        (0..grid_reps)
            .map(|_| {
                let mut runner = DesSweepRunner::with_config(&library, config.clone());
                let start = Instant::now();
                let results = if parallel {
                    runner.run_batch_parallel(&cells, workers)
                } else {
                    runner.run_batch(&cells)
                }
                .expect("grid");
                black_box(results);
                start.elapsed()
            })
            .min()
            .expect("reps > 0")
    };
    let sequential = time_grid(false);
    let parallel = time_grid(true);
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    println!(
        "  {}-cell grid x{iters}: sequential {:.1?}, parallel({workers}) {:.1?} -> {speedup:.2}x",
        cells.len(),
        sequential,
        parallel
    );
    report.set_f64("sweep8_sequential_ms", sequential.as_secs_f64() * 1e3);
    report.set_f64("sweep8_parallel_ms", parallel.as_secs_f64() * 1e3);
    report.set_f64("sweep8_speedup", speedup);
    report.set_f64("sweep8_workers", workers as f64);

    match report.write() {
        Ok(path) => println!("bench summary -> {}", path.display()),
        Err(e) => eprintln!("warning: cannot write bench summary: {e}"),
    }

    // Perf gates (CI perf-smoke), checked after the summary lands so the
    // artifact still records the failing numbers: metrics must stay
    // under their stated price, and every size's warm throughput must
    // clear the floor.
    let ratio = metrics_ratio.expect("the largest size times the metrics row");
    if test_mode {
        if ratio > METRICS_RATIO_CEILING {
            eprintln!(
                "metrics ratio FAILED: metrics-attached warm run {ratio:.2}x the bare one > \
                 ceiling {METRICS_RATIO_CEILING}"
            );
            std::process::exit(1);
        }
        println!("metrics ratio ok: {ratio:.2}x <= ceiling {METRICS_RATIO_CEILING}");
    }
    if let Some(floor) = floor {
        if min_warm < floor {
            eprintln!("perf floor FAILED: warm {min_warm:.0} events/sec < floor {floor:.0}");
            std::process::exit(1);
        }
        println!("perf floor ok: warm {min_warm:.0} events/sec >= floor {floor:.0}");
    }
}
