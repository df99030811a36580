//! Cost of live metrics (the `dssoc-metrics` subsystem), at two
//! granularities:
//!
//! * **record path** — ns/op of one counter-cell increment and one
//!   histogram-cell record (single-writer cells, relaxed load+store;
//!   the engines pay these when they fold a run's completions into
//!   their cells), plus the cost of a full registry snapshot while
//!   producers exist;
//! * **end to end** — the same 4-PE validation run with metrics off vs
//!   on, for both engines. The budget is <3% added wall time on the
//!   threaded engine (see README.md for the measured numbers). The DES
//!   runs the same event loop either way, so its off/on delta is the
//!   cost of registering an engine's cells (each iteration builds a
//!   new simulator) plus the fold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::CostSpec;
use dssoc_core::FrfsScheduler;
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

/// Covers every `(runfunc, PE class)` pair range_detection can hit on
/// `platform`, so neither engine falls back to host measurement.
fn full_cost_table(platform: &PlatformConfig) -> CostTable {
    let (library, _registry) = standard_library();
    let spec = library.get("range_detection").expect("bundled app");
    let mut table = CostTable::new();
    for node in &spec.nodes {
        for pe in &platform.pes {
            if let Some(p) = node.platform(&pe.platform_key) {
                let d = p.mean_exec.unwrap_or_else(|| Duration::from_micros(30));
                table.set(p.runfunc.clone(), pe.class_name(), d);
            }
        }
    }
    table
}

fn bench_record_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_record");

    let registry = MetricsRegistry::new();
    let counter = registry.counter("bench_counter", &[("pe", "Core1")]).cell();
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));

    let hist = registry.histogram("bench_hist", &[]).cell();
    let mut v = 1u64;
    g.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        })
    });

    // Snapshot with a realistic family count: the ~20 engine families
    // plus a handful of per-PE/per-app label sets.
    for pe in ["Core1", "Core2", "Core3", "FFT1"] {
        registry.counter("bench_tasks", &[("pe", pe)]).cell().add(7);
        registry.histogram("bench_exec_ns", &[("pe", pe)]).cell().record(1000);
    }
    g.bench_function("registry_snapshot", |b| b.iter(|| black_box(registry.snapshot())));

    g.finish();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    // Same shape as trace_overhead: long enough that per-run attach
    // cost (cell registration per PE/app family) amortizes the way it
    // does in a sweep, so the delta reflects steady-state record cost.
    let workload =
        WorkloadSpec::validation([("range_detection", 64usize)]).generate(&library).unwrap();
    let platform = zcu102(3, 1); // 4 PEs: 3 cores + 1 FFT accelerator
    let table = full_cost_table(&platform);
    let config = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table.clone()),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    };

    let mut g = c.benchmark_group("metrics_overhead");
    g.sample_size(30);

    // Each warm pool is reused across iterations (as in a sweep), so the
    // measured delta is the per-run metrics cost, not thread spawning.
    let registry = MetricsRegistry::new();
    let mut emu = Emulation::with_config(platform.clone(), config.clone()).unwrap();
    let mut metered_emu = Emulation::with_config(
        platform.clone(),
        EmulationConfig { metrics: Some(registry.clone()), ..config.clone() },
    )
    .unwrap();

    // Metrics are recorded off the emulation clock: enabling them must
    // not move the modeled makespan at all (the <3% budget is about
    // host wall time; the model itself sees 0%).
    let base = emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap().makespan;
    let metered = metered_emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap().makespan;
    assert_eq!(base, metered, "enabling metrics perturbed the modeled makespan");

    g.bench_function("emulator_off", |b| {
        b.iter(|| black_box(emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap()))
    });
    g.bench_function("emulator_on", |b| {
        b.iter(|| {
            black_box(metered_emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });
    assert!(
        registry.snapshot().value("dssoc_tasks_ready", &[]).unwrap_or(0.0) > 0.0,
        "metered runs must have published samples"
    );

    g.bench_function("des_off", |b| {
        b.iter(|| {
            let mut des = DesSimulator::new(
                platform.clone(),
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
    let registry = MetricsRegistry::new();
    g.bench_function("des_on", |b| {
        b.iter(|| {
            let mut des = DesSimulator::new(
                platform.clone(),
                DesConfig {
                    cost: CostSpec::table(table.clone()),
                    overhead_per_invocation: Duration::ZERO,
                    trace: None,
                    faults: None,
                    metrics: Some(registry.clone()),
                },
            )
            .unwrap();
            black_box(des.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_record_path, bench_metrics_overhead);
criterion_main!(benches);
