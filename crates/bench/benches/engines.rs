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
//! cargo bench -p dssoc-bench --bench engines -- --test --ceiling 100000
//! ```
//!
//! The `--test` smoke runs the warm-pool case a few times, checks that it
//! spawns no thread after the first run and matches the DES makespan,
//! and prints the per-task wall time of the best run. `--ceiling
//! <ns/task>` turns it into a perf gate: the smoke fails when that time
//! lands above the ceiling.

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
use dssoc_core::{threads_spawned_total, FrfsScheduler};
use dssoc_platform::cost::CostTable;
use dssoc_platform::presets::zcu102;

fn cost_table() -> CostTable {
    let mut t = CostTable::new();
    for k in [
        "range_detect_LFM",
        "range_detect_FFT_0_CPU",
        "range_detect_FFT_1_CPU",
        "range_detect_MUL",
        "range_detect_IFFT_CPU",
        "range_detect_MAX",
    ] {
        t.set(k, "cortex-a53", Duration::from_micros(30));
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

/// One warm emulator and the compiled scenario it runs over and over.
fn warm_pool(library: &AppLibrary, workload: &Workload) -> (Emulation, Arc<CompiledScenario>) {
    let config = modeled_config(&cost_table());
    let platform = Arc::new(zcu102(3, 0));
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
    let table = cost_table();

    let mut g = c.benchmark_group("turnaround");
    g.sample_size(20);

    g.bench_function("emulator_modeled", |b| {
        b.iter(|| {
            let mut emu = Emulation::with_config(zcu102(3, 0), modeled_config(&table)).unwrap();
            black_box(emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });

    let (mut emu, scenario) = warm_pool(&library, &workload);
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

/// The `--test` smoke: the warm-pool case must reuse its threads and
/// agree with the DES, and its per-task wall time is printed — and held
/// under `ceiling` ns/task when one is given.
fn warm_pool_smoke(ceiling: Option<f64>) {
    let (library, _registry) = standard_library();
    let workload = workload(&library);
    let (mut emu, scenario) = warm_pool(&library, &workload);
    let mut des = DesSimulator::new(
        zcu102(3, 0),
        DesConfig {
            cost: CostSpec::table(cost_table()),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics: None,
        },
    )
    .unwrap();
    let expected = des.run(&mut FrfsScheduler::new(), &workload, &library).unwrap().makespan;
    let spawned = threads_spawned_total();
    let mut best = Duration::MAX;
    let mut tasks = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let stats = emu.run_compiled(&mut FrfsScheduler::new(), &scenario, None).unwrap();
        best = best.min(t0.elapsed());
        tasks = stats.tasks.len();
        assert_eq!(stats.makespan, expected, "warm-pool run diverged from the DES");
    }
    assert_eq!(threads_spawned_total(), spawned, "a warm pool must not spawn threads");
    let ns_per_task = best.as_nanos() as f64 / tasks.max(1) as f64;
    println!("engines warm_pool smoke: {tasks} tasks, best run {best:?}, {ns_per_task:.0} ns/task");
    if let Some(ceiling) = ceiling {
        if ns_per_task > ceiling {
            eprintln!("perf ceiling FAILED: warm {ns_per_task:.0} ns/task > ceiling {ceiling:.0}");
            std::process::exit(1);
        }
        println!("perf ceiling ok: warm {ns_per_task:.0} ns/task <= ceiling {ceiling:.0}");
    }
}

criterion_group!(benches, bench_engines);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--test") {
        let ceiling = args
            .iter()
            .position(|a| a == "--ceiling")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok());
        warm_pool_smoke(ceiling);
        return;
    }
    benches();
}
