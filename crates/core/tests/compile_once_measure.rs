//! Measurement harness behind the "Compile-once scenario layer"
//! numbers in `crates/bench/README.md`, and the compile time of a
//! pulse-Doppler and a serve-shaped scenario mix
//! (`measure_compile_mixes`); ignored by default (run with
//! `--ignored --nocapture`). Not a regression test — it prints
//! timings instead of asserting them, because the development
//! container's single shared core makes absolute thresholds flaky.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::job::{CompiledScenario, CostSpec, Engine, JobRunner, ScenarioSpec};
use dssoc_core::prelude::*;
use dssoc_core::sched::by_name;
use dssoc_platform::cost::CostTable;
use dssoc_platform::presets::zcu102;

#[test]
#[ignore]
fn measure_compile_once() {
    let (library, _registry) = standard_library();
    let platform = zcu102(3, 0);
    let workload = Arc::new(
        WorkloadSpec::validation([("range_detection", 167usize)])
            .generate(&library)
            .expect("workload"),
    );
    let mut table = CostTable::new();
    let spec0 = library.get("range_detection").expect("app");
    for node in &spec0.nodes {
        for pe in &platform.pes {
            if let Some(p) = node.platform(&pe.platform_key) {
                let d = p
                    .mean_exec
                    .unwrap_or_else(|| Duration::from_micros(50 + 10 * node.index as u64));
                table.set(p.runfunc.clone(), pe.class_name(), d);
            }
        }
    }
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(platform)
        .scheduler("frfs")
        .workload(workload)
        .timing(TimingMode::Modeled)
        .overhead(OverheadMode::None)
        .cost(CostSpec::table(table))
        .build()
        .expect("spec");

    const ROUNDS: usize = 16;
    const RUNS: usize = 20;
    let mut jobs = JobRunner::new();
    let mut sched = by_name("frfs").expect("frfs");

    // Warm-up: build the engine once so neither arm pays pool spawn.
    let warm = CompiledScenario::compile_custom(spec.clone()).expect("compile");
    jobs.run_with(&warm, Engine::Des, sched.as_mut()).expect("warm");

    let mut fresh_best = f64::INFINITY;
    let mut shared_best = f64::INFINITY;
    let mut cached_best = f64::INFINITY;
    let mut compile_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        // Arm A: compile per run (what each run cost before the job
        // layer: name tables, cost slabs, estimates rebuilt per run).
        // compile_custom keeps the result cache out of the picture.
        let t = Instant::now();
        for _ in 0..RUNS {
            let sc = CompiledScenario::compile_custom(spec.clone()).expect("compile");
            jobs.run_with(&sc, Engine::Des, sched.as_mut()).expect("run");
        }
        fresh_best = fresh_best.min(t.elapsed().as_secs_f64() / RUNS as f64);

        // Arm B: compile once, share the Arc across runs.
        let sc = CompiledScenario::compile_custom(spec.clone()).expect("compile");
        let t = Instant::now();
        for _ in 0..RUNS {
            jobs.run_with(&sc, Engine::Des, sched.as_mut()).expect("run");
        }
        shared_best = shared_best.min(t.elapsed().as_secs_f64() / RUNS as f64);

        // Compile cost in isolation.
        let t = Instant::now();
        for _ in 0..RUNS {
            std::hint::black_box(CompiledScenario::compile_custom(spec.clone()).expect("compile"));
        }
        compile_best = compile_best.min(t.elapsed().as_secs_f64() / RUNS as f64);

        // Arm C: deterministic scenario replayed from the result cache.
        let sc = CompiledScenario::compile(spec.clone()).expect("compile");
        jobs.run(&sc, Engine::Des).expect("prime");
        let t = Instant::now();
        for _ in 0..RUNS {
            let r = jobs.run(&sc, Engine::Des).expect("run");
            assert!(r.cached);
        }
        cached_best = cached_best.min(t.elapsed().as_secs_f64() / RUNS as f64);
    }
    println!("per-run compile+run (fresh compile each run): {:.1} us", fresh_best * 1e6);
    println!("per-run on shared CompiledScenario:           {:.1} us", shared_best * 1e6);
    println!("compile alone:                                {:.1} us", compile_best * 1e6);
    println!("cached replay:                                {:.1} us", cached_best * 1e6);
    println!("compile-once speedup: {:.2}x", fresh_best / shared_best);
    println!("cache-replay speedup: {:.1}x", fresh_best / cached_best);
}

/// Compile time of two scenario mixes on `zcu102:3C+1F` with FRFS and
/// table costs: one pulse-Doppler instance with three range-detection
/// and three WiFi TX instances, and a serve-shaped performance trace of
/// WiFi TX/RX and range detection. Prints the best mean over 15 rounds
/// of 200 compiles of each (each encodes the spec once).
#[test]
#[ignore]
fn measure_compile_mixes() {
    use dssoc_appmodel::workload::InjectionParams;
    let (library, _registry) = standard_library();
    let library = Arc::new(library);
    let platform = Arc::new(zcu102(3, 1));
    let pulse_doppler = WorkloadSpec::validation([
        ("pulse_doppler", 1usize),
        ("range_detection", 3),
        ("wifi_tx", 3),
    ]);
    let inject = |app: &str| InjectionParams {
        app: app.into(),
        period: Duration::from_micros(400),
        probability: 0.5,
    };
    let apps = ["wifi_tx", "wifi_rx", "range_detection"];
    let serve = WorkloadSpec::performance(
        apps.iter().map(|app| inject(app)).collect(),
        Duration::from_micros(14_400),
        1,
    );
    for (mix, workload) in [("pulse-Doppler", pulse_doppler), ("serve-shaped", serve)] {
        let workload = workload.generate(&library).expect("workload");
        let (arrivals, tasks) = (workload.len(), workload.total_tasks(&library).expect("tasks"));
        let spec = ScenarioSpec::builder()
            .library(Arc::clone(&library))
            .platform(Arc::clone(&platform))
            .scheduler("frfs")
            .workload(workload)
            .overhead(OverheadMode::None)
            .cost(CostSpec::table(CostTable::new()))
            .build()
            .expect("spec");
        const ROUNDS: usize = 15;
        const CALLS: usize = 200;
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t = Instant::now();
            for _ in 0..CALLS {
                let compiled = CompiledScenario::compile(spec.clone());
                std::hint::black_box(compiled.expect("compile"));
            }
            best = best.min(t.elapsed().as_secs_f64() / CALLS as f64);
        }
        println!("{mix} mix ({arrivals} arrivals, {tasks} tasks): compile {:.1} us", best * 1e6);
    }
}
