//! Cost of event tracing (the `dssoc-trace` subsystem): the same
//! 4-PE validation run with tracing off vs on, for both engines. The
//! emit path is a sequence-counter increment plus one bounded ring
//! write behind a single `Option` branch, so the target budget is
//! <3% added wall time on the threaded engine (see README.md for the
//! measured numbers).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec};
use dssoc_core::FrfsScheduler;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;
use dssoc_trace::TraceSession;

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

fn bench_trace_overhead(c: &mut Criterion) {
    let (library, _registry) = standard_library();
    // Long enough that the per-run trace setup (session + ring
    // allocation, metadata registration) amortizes the way it does in a
    // real sweep; the delta then reflects steady-state emit cost.
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

    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(30);

    // The warm pool and one compiled scenario are reused across
    // iterations (as in a sweep), so the measured delta is the per-run
    // tracing cost, not thread spawning or compilation.
    let mut emu = Emulation::with_config(platform.clone(), config.clone()).unwrap();
    let scenario = CompiledScenario::compile(config.scenario(
        Arc::new(library.clone()),
        Arc::new(platform.clone()),
        "frfs".to_string(),
        Arc::new(workload.clone()),
    ))
    .unwrap();
    g.bench_function("emulator_off", |b| {
        b.iter(|| black_box(emu.run_compiled(&mut FrfsScheduler::new(), &scenario, None).unwrap()))
    });
    g.bench_function("emulator_on", |b| {
        b.iter(|| {
            let session = TraceSession::new();
            let sink = session.sink();
            let stats =
                emu.run_compiled(&mut FrfsScheduler::new(), &scenario, Some(&sink)).unwrap();
            assert_eq!(session.dropped(), 0);
            black_box((stats, session.events_recorded()))
        })
    });

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
    g.bench_function("des_on", |b| {
        b.iter(|| {
            let session = TraceSession::new();
            let mut des = DesSimulator::new(
                platform.clone(),
                DesConfig {
                    cost: CostSpec::table(table.clone()),
                    overhead_per_invocation: Duration::ZERO,
                    trace: Some(session.sink()),
                    faults: None,
                    metrics: None,
                },
            )
            .unwrap();
            let stats = des.run(&mut FrfsScheduler::new(), &workload, &library).unwrap();
            assert_eq!(session.dropped(), 0);
            black_box((stats, session.events_recorded()))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
