//! Isolated scheduler-invocation cost vs ready-queue length — the
//! microbenchmark behind Fig. 10(b): FRFS stays flat (early exit once
//! the PEs are exhausted), MET grows linearly (whole-queue scan with
//! cost estimates), EFT grows fastest (whole-queue scan with per-PE
//! projections) — plus the harness-level cost of a full run with a
//! cold-spawned engine vs a warm persistent resource pool.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec};
use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson};
use dssoc_appmodel::{KernelRegistry, Workload, WorkloadSpec};
use dssoc_core::arena::DenseReady;
use dssoc_core::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioSpec};
use dssoc_core::sched::{by_name, Assignment, FrfsScheduler, PeView, ReadyView, SchedContext};
use dssoc_core::SimTime;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

/// Compiles one instance of an `n`-node app of independent tasks (all
/// cpu-capable, every third also fft-capable), mirroring a loaded SDR
/// ready queue, onto `platform`.
fn ready_scenario(n: usize, platform: &PlatformConfig) -> Arc<CompiledScenario> {
    let mut reg = KernelRegistry::new();
    reg.register_fn("b.so", "k", |_| Ok(()));
    let mut dag = BTreeMap::new();
    for i in 0..n {
        let mut platforms = vec![PlatformJson {
            name: "cpu".into(),
            runfunc: "k".into(),
            shared_object: None,
            mean_exec_us: Some(50.0),
        }];
        if i % 3 == 0 {
            platforms.push(PlatformJson {
                name: "fft".into(),
                runfunc: "k".into(),
                shared_object: None,
                mean_exec_us: Some(80.0),
            });
        }
        dag.insert(
            format!("n{i:05}"),
            NodeJson { arguments: vec![], predecessors: vec![], successors: vec![], platforms },
        );
    }
    let json = AppJson {
        app_name: "bench".into(),
        shared_object: "b.so".into(),
        variables: BTreeMap::new(),
        dag,
    };
    let mut library = AppLibrary::new();
    library.register(ApplicationSpec::from_json(&json, &reg).unwrap());
    let workload = WorkloadSpec::validation([("bench", 1usize)]).generate(&library).unwrap();
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(platform.clone())
        .workload(workload)
        .build()
        .unwrap();
    CompiledScenario::compile(spec).unwrap()
}

fn bench_policies(c: &mut Criterion) {
    let platform = zcu102(3, 2);
    let mut g = c.benchmark_group("scheduler_invocation");
    for len in [16usize, 128, 1024, 4096] {
        let scenario = ready_scenario(len, &platform);
        // Instance ids are arrival indices: the one arrival is instance 0.
        assert_eq!(scenario.spec().workload.len(), 1);
        let inst = 0;
        let entries: Vec<DenseReady> = (0..len as u32)
            .map(|i| DenseReady { inst, node: i, ready_ns: i as u64, seq: i as u64 })
            .collect();
        let (soa, names, book) = (scenario.soa(), scenario.names(), scenario.estimates_ref());
        let ready = ReadyView::new(&entries, soa, names, book);
        for policy in ["frfs", "met", "eft", "random"] {
            g.bench_with_input(BenchmarkId::new(policy, len), &len, |b, _| {
                let mut sched = by_name(policy).unwrap();
                let mut out: Vec<Assignment> = Vec::new();
                b.iter(|| {
                    // One idle core + one idle accelerator: the loaded
                    // steady state right after a completion.
                    let views: Vec<PeView<'_>> = platform
                        .pes
                        .iter()
                        .enumerate()
                        .map(|(i, pe)| PeView {
                            pe,
                            idle: i == 0 || i == 3,
                            available_at: SimTime(100_000),
                        })
                        .collect();
                    out.clear();
                    sched.schedule_into(
                        &ready,
                        &views,
                        &SchedContext { now: SimTime(200_000) },
                        &mut out,
                    );
                    black_box(out.len())
                })
            });
        }
    }
    g.finish();
}

/// A small real workload for pool-lifecycle benchmarking: one range
/// detection instance on a 2C+0F config, modeled timing, no overhead
/// sampling — the run itself is cheap, so engine setup cost dominates.
fn pool_setup() -> (AppLibrary, Workload, EmulationConfig) {
    let (library, _registry) = dssoc_apps::standard_library();
    let workload =
        WorkloadSpec::validation([("range_detection", 1usize)]).generate(&library).unwrap();
    let config = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::default(),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    };
    (library, workload, config)
}

/// Cold spawn vs warm pool: a fresh `Emulation` per run spawns and joins
/// one thread per PE every iteration; a persistent one parks its
/// resource managers between runs and reuses them.
fn bench_pool_reuse(c: &mut Criterion) {
    let platform = zcu102(2, 0);
    let (library, workload, config) = pool_setup();
    let mut g = c.benchmark_group("pool_lifecycle");

    g.bench_function("cold_spawn_per_run", |b| {
        b.iter(|| {
            let mut emu = Emulation::with_config(platform.clone(), config.clone()).unwrap();
            black_box(emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap())
        })
    });

    g.bench_function("warm_pool_reuse", |b| {
        let mut emu = Emulation::with_config(platform.clone(), config.clone()).unwrap();
        b.iter(|| black_box(emu.run(&mut FrfsScheduler::new(), &workload, &library).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench_policies, bench_pool_reuse);
criterion_main!(benches);
