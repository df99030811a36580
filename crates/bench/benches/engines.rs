//! Turn-around-time comparison between the threaded emulation engine and
//! the discrete-event baseline (paper §III-D): the DES is faster per run
//! because it executes nothing — and that is exactly why it cannot do
//! functional validation or capture scheduling overhead. The emulator
//! pays for running real kernels but stays far below cycle-accurate
//! simulation cost.
//!
//! `emulator_modeled` builds a fresh `Emulation` per iteration, so it
//! includes spawning the PE threads. `emulator_modeled_warm_pool` reuses
//! one `Emulation` across iterations (the `SweepRunner`/`JobRunner`
//! steady state), so it times the workload manager's per-task hand-off
//! to already-running PE threads.
//!
//! ```sh
//! cargo bench -p dssoc-bench --bench engines
//! cargo bench -p dssoc-bench --bench engines -- --test   # warm-pool smoke
//! cargo bench -p dssoc-bench --bench engines -- --test --ceiling 100000 \
//!     --round-trip-ceiling 3000
//! ```
//!
//! The `--test` smoke first times the bare hand-off: dispatch → pickup
//! → post → collect on one spinning resource handler whose other side
//! posts at once, best of five batches, in ns per round trip. It then
//! reruns warm pools a few times — the 3-PE pool above, which parks at
//! once on a 2-core host, and the `emu_sweep` shapes `zcu102(1, 0)`,
//! `(2, 0)` and `(1, 1)`, which spin — checks that none spawns a thread
//! after its first run and that each repeats its makespan (the DES's on
//! CPU-only pools), and prints each pool's best per-task wall time.
//! `--ceiling <ns/task>` and `--round-trip-ceiling <ns>` turn them into
//! perf gates: the smoke fails when a time lands above its ceiling.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::{Workload, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec};
use dssoc_core::{
    threads_spawned_total, FrfsScheduler, ResourceHandler, RunHold, SimTime, TaskAssignment,
    TaskCost,
};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

/// 30 µs for every kernel of `library` on every PE class of
/// `platform`, so runs on it are deterministic Modeled timing.
fn cost_table(library: &AppLibrary, platform: &PlatformConfig) -> CostTable {
    let mut t = CostTable::new();
    for app in library.names() {
        for node in &library.get(app).expect("listed app").nodes {
            for pe in &platform.pes {
                if let Some(p) = node.platform(&pe.platform_key) {
                    t.set(p.runfunc.clone(), pe.class_name(), Duration::from_micros(30));
                }
            }
        }
    }
    t
}

fn modeled_config(table: &CostTable) -> EmulationConfig {
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

fn workload(library: &AppLibrary) -> Workload {
    WorkloadSpec::validation([("range_detection", 16usize)]).generate(library).unwrap()
}

/// One warm emulator on `platform` and the compiled scenario it runs
/// over and over.
fn warm_pool(
    library: &AppLibrary,
    workload: &Workload,
    platform: &PlatformConfig,
) -> (Emulation, Arc<CompiledScenario>) {
    let config = modeled_config(&cost_table(library, platform));
    let platform = Arc::new(platform.clone());
    let spec = config.scenario(
        Arc::new(library.clone()),
        Arc::clone(&platform),
        "frfs".to_string(),
        Arc::new(workload.clone()),
    );
    let emu = Emulation::with_config(platform, config).unwrap();
    (emu, CompiledScenario::compile(spec).unwrap())
}

fn bench_engines(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    let workload = workload(&library);
    let table = cost_table(&library, &zcu102(3, 0));

    let mut g = c.benchmark_group("turnaround");
    g.sample_size(20);

    g.bench_function("emulator_modeled", |b| {
        b.iter(|| {
            let mut emu = Emulation::with_config(zcu102(3, 0), modeled_config(&table)).unwrap();
            black_box(emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });

    let (mut emu, scenario) = warm_pool(&library, &workload, &zcu102(3, 0));
    g.bench_function("emulator_modeled_warm_pool", |b| {
        b.iter(|| black_box(emu.run_compiled(&mut FrfsScheduler::new(), &scenario, None).unwrap()))
    });

    g.bench_function("emulator_measured_costs", |b| {
        b.iter(|| {
            let mut emu = Emulation::new(zcu102(3, 0)).unwrap();
            black_box(emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });

    g.bench_function("des_baseline", |b| {
        b.iter(|| {
            let mut des = DesSimulator::new(
                zcu102(3, 0),
                DesConfig {
                    cost: CostSpec::table(table.clone()),
                    overhead_per_invocation: Duration::ZERO,
                    trace: None,
                    faults: None,
                    metrics: None,
                },
            )
            .unwrap();
            black_box(des.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });

    g.finish();
}

/// Reruns one warm `Emulation` on `platform` five times: it must spawn
/// no thread after the first run and repeat its makespan (the DES's, on
/// a CPU-only platform). Returns the best run's wall time per task.
fn warm_ns_per_task(library: &AppLibrary, workload: &Workload, platform: PlatformConfig) -> f64 {
    let (mut emu, scenario) = warm_pool(library, workload, &platform);
    let mut expected = None;
    if platform.pes.iter().all(|pe| pe.platform_key == "cpu") {
        let des_config = DesConfig {
            cost: CostSpec::table(cost_table(library, &platform)),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics: None,
        };
        let mut des = DesSimulator::new(platform.clone(), des_config).unwrap();
        expected = Some(des.run(&mut FrfsScheduler::new(), workload, library).unwrap().makespan);
    }
    let spawned = threads_spawned_total();
    let mut best = Duration::MAX;
    let mut tasks = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let stats = emu.run_compiled(&mut FrfsScheduler::new(), &scenario, None).unwrap();
        best = best.min(t0.elapsed());
        tasks = stats.tasks.len();
        let makespan = *expected.get_or_insert(stats.makespan);
        assert_eq!(stats.makespan, makespan, "warm-pool run on {} diverged", platform.name);
    }
    assert_eq!(threads_spawned_total(), spawned, "a warm pool must not spawn threads");
    let ns_per_task = best.as_nanos() as f64 / tasks.max(1) as f64;
    println!(
        "engines warm_pool smoke: {} ({} PEs), {tasks} tasks, best run {best:?}, \
         {ns_per_task:.0} ns/task",
        platform.name,
        platform.pes.len()
    );
    ns_per_task
}

/// The bare hand-off: dispatch → pickup → post → collect on one
/// spinning handler, whose resource-manager side is an echo thread that
/// posts at once. Returns the best of five batches' ns per round trip.
fn round_trip_ns() -> f64 {
    const TRIPS: u32 = 100_000;
    let handler = ResourceHandler::new(zcu102(1, 0).pes[0].clone());
    let echo = {
        let h = Arc::clone(&handler);
        std::thread::spawn(move || {
            let mut hold = RunHold::default();
            while h.wait_for_assignment(&mut hold).is_some() {
                h.post_completion(Duration::from_nanos(1), Duration::ZERO, Ok(()));
            }
        })
    };
    let cost = TaskCost::Modeled(Duration::from_nanos(1));
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t0 = Instant::now();
        for i in 0..TRIPS {
            let start = SimTime(i as u64);
            handler.dispatch(TaskAssignment {
                inst: 0,
                node: i,
                entry: 0,
                start,
                cost,
                embody: false,
            });
            let c = loop {
                if let Some(c) = handler.try_collect() {
                    break c;
                }
                handler.wait_for_completion(None);
            };
            assert_eq!((c.node, c.start), (i, start), "round trip {i} returned another task");
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / TRIPS as f64);
    }
    handler.shutdown();
    echo.join().unwrap();
    println!("engines round_trip smoke: {best:.0} ns per dispatch -> post -> collect");
    best
}

/// Exits non-zero when `value` is above the optional `ceiling`.
fn gate(what: &str, value: f64, ceiling: Option<f64>) {
    if let Some(ceiling) = ceiling {
        if value > ceiling {
            eprintln!("perf ceiling FAILED: {what} {value:.0} ns > ceiling {ceiling:.0}");
            std::process::exit(1);
        }
        println!("perf ceiling ok: {what} {value:.0} ns <= ceiling {ceiling:.0}");
    }
}

/// The `--test` smoke: the bare round trip, then warm pools that must
/// reuse their threads and repeat their makespans — the 3-PE pool
/// (which parks at once on a 2-core host) and the `emu_sweep` shapes
/// `zcu102(1, 0)`, `(2, 0)` and `(1, 1)`, which spin on any host with
/// two cores. Per-task times are held under `ceiling` ns and the round
/// trip under `round_trip_ceiling` ns when given.
fn warm_pool_smoke(ceiling: Option<f64>, round_trip_ceiling: Option<f64>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("engines smoke: {cores} host cores; pools with at most {cores} PEs spin");
    gate("round trip", round_trip_ns(), round_trip_ceiling);
    let (library, _registry) = standard_library();
    let workload = workload(&library);
    for (c, f) in [(3, 0), (1, 0), (2, 0), (1, 1)] {
        let ns = warm_ns_per_task(&library, &workload, zcu102(c, f));
        gate(&format!("warm zcu102({c}, {f}) per task"), ns, ceiling);
    }
}

criterion_group!(benches, bench_engines);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).and_then(|v| v.parse().ok())
    };
    if args.iter().any(|a| a == "--test") {
        warm_pool_smoke(value("--ceiling"), value("--round-trip-ceiling"));
        return;
    }
    benches();
}
