//! A warm `Emulation` that changes scenarios leaks nothing from one run
//! into the next.
//!
//! One warm emulator per platform runs a sequence of different compiled
//! scenarios — FRFS, MET and EFT, each with and without a fault plan,
//! over different workloads — with a run that fails mid-flight (a policy
//! that breaks the scheduler contract while tasks are in flight)
//! interleaved. Every result must equal a cold `Emulation`'s run of the
//! same scenario: the full summary and the task log. On CPU-only
//! platforms it must also equal the DES. This pins the reset of the
//! workload manager's warm scratch arena (ready buffers, DAG countdowns,
//! collected completions, estimate book, per-PE state) across scenario
//! changes and failures.
//!
//! Every reference app carries JSON estimates, which take precedence over
//! the learned (EWMA) estimate book, so a second case strips them from
//! one app: under MET and EFT its placements then follow the book, and a
//! warm run that started from the previous run's observations instead of
//! the scenario's prototype would place differently from a cold one.
//!
//! A warm engine depends only on its platform: a third case alternates
//! timing, overhead, cost and reservation depth on one warm engine per
//! kind against cold runs, and a fourth drives a job runner past its
//! warm-PE budget and checks that the least recently used engine's
//! threads are gone.

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::ApplicationSpec;
use dssoc_appmodel::workload::InjectionParams;
use dssoc_appmodel::{AppLibrary, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::fault::{FaultSpec, RateFault, RetryPolicy};
use dssoc_core::job::{
    CompiledScenario, CostSpec, Engine, JobRunner, ScenarioSpec, WARM_PE_BUDGET,
};
use dssoc_core::sched::{by_name, Assignment, PeView, ReadyView, SchedContext, Scheduler};
use dssoc_core::stats::EmulationStats;
use dssoc_core::{threads_spawned_total, FrfsScheduler};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::{PeDescriptor, PeId, PlatformConfig};
use dssoc_platform::presets::zcu102;

const APPS: [&str; 3] = ["range_detection", "wifi_tx", "wifi_rx"];

/// Deterministic cost table over every `(runfunc, class)` pair the apps
/// can hit on `platform`.
fn cost_table(library: &AppLibrary, platform: &PlatformConfig) -> CostTable {
    let mut table = CostTable::new();
    for app in APPS {
        for node in &library.get(app).expect("reference app").nodes {
            for pe in &platform.pes {
                if let Some(p) = node.platform(&pe.platform_key) {
                    let d = p
                        .mean_exec
                        .unwrap_or_else(|| Duration::from_micros(40 + 15 * node.index as u64));
                    table.set(p.runfunc.clone(), pe.class_name(), d);
                }
            }
        }
    }
    table
}

fn config(table: &CostTable, faults: Option<Arc<FaultSpec>>) -> EmulationConfig {
    EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table.clone()),
        reservation_depth: 0,
        trace: None,
        faults,
        metrics: None,
    }
}

/// Transient faults on every kernel, retried; PEs are never quarantined,
/// so even a one-PE platform recovers.
fn fault_spec(seed: u64) -> Arc<FaultSpec> {
    Arc::new(FaultSpec {
        seed,
        transient: vec![RateFault { kernel: None, pe: None, probability: 0.15 }],
        retry: RetryPolicy { max_retries: 4, backoff_us: 25.0, quarantine_after: 10_000 },
        ..FaultSpec::default()
    })
}

/// Scenario `i`'s workload: validation-mode counts or staggered
/// performance-mode arrivals, different for every `i`.
fn workload(library: &AppLibrary, i: usize) -> dssoc_appmodel::Workload {
    let spec = if i.is_multiple_of(2) {
        WorkloadSpec::validation([(APPS[0], 1 + i % 3), (APPS[1], 1 + i % 2), (APPS[2], 1)])
    } else {
        let injections = APPS
            .iter()
            .map(|app| InjectionParams {
                app: app.to_string(),
                period: Duration::from_micros(300),
                probability: 0.5,
            })
            .collect();
        WorkloadSpec::performance(injections, Duration::from_millis(3), i as u64)
    };
    spec.generate(library).expect("workload")
}

/// FRFS until its `fail_at`-th call, then, at the first call that sees
/// a busy PE (on a one-PE platform, at once), an out-of-range
/// assignment: a contract violation that stops the run with tasks still
/// in flight.
struct FailsMidFlight {
    inner: FrfsScheduler,
    calls: usize,
    fail_at: usize,
}

impl Scheduler for FailsMidFlight {
    fn name(&self) -> &'static str {
        "fails-mid-flight"
    }

    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    ) {
        self.calls += 1;
        let busy = pes.len() == 1 || pes.iter().any(|v| !v.idle);
        if self.calls >= self.fail_at && busy {
            out.push(Assignment { ready_idx: ready.len(), pe: pes[0].pe.id });
            return;
        }
        self.inner.schedule_into(ready, pes, ctx, out)
    }
}

/// Everything a deterministic run reports, minus host-measured kernel
/// times and the scheduler label.
fn assert_same(got: &EmulationStats, want: &EmulationStats, what: &str) {
    assert_same_summary(got, want, what);
    let tasks = |s: &EmulationStats| {
        s.tasks
            .iter()
            .map(|t| {
                let names = (t.app.to_string(), t.node.to_string(), t.kernel.to_string());
                (t.instance, t.node_idx, names, t.pe, t.ready_at, t.start, t.finish, t.modeled)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(tasks(got), tasks(want), "{what}: task log");
}

/// Everything a deterministic run's summary (a job-layer result)
/// reports, minus the scheduler label.
fn assert_same_summary(got: &EmulationStats, want: &EmulationStats, what: &str) {
    assert_eq!(got.makespan, want.makespan, "{what}: makespan");
    assert_eq!(got.sched_invocations, want.sched_invocations, "{what}: sched invocations");
    assert_eq!(got.overhead, want.overhead, "{what}: overhead");
    assert_eq!(got.reliability, want.reliability, "{what}: reliability");
    assert_eq!(got.pe_busy, want.pe_busy, "{what}: PE busy time");
    let apps = |s: &EmulationStats| {
        s.apps
            .iter()
            .map(|a| (a.instance, a.app.to_string(), a.arrival, a.finish, a.task_count))
            .collect::<Vec<_>>()
    };
    assert_eq!(apps(got), apps(want), "{what}: app records");
    assert_eq!(got.tasks.len(), want.tasks.len(), "{what}: task count");
    assert_eq!(got.app_aggregates(), want.app_aggregates(), "{what}: per-app aggregates");
}

#[test]
fn warm_pool_changing_scenarios_matches_cold_runs() {
    let (library, _registry) = standard_library();
    let library = Arc::new(library);
    for (cores, ffts) in [(1, 0), (2, 0), (1, 1)] {
        let platform = Arc::new(zcu102(cores, ffts));
        let table = cost_table(&library, &platform);
        let mut warm = Emulation::with_config(Arc::clone(&platform), config(&table, None)).unwrap();
        let mut step = 0usize;
        for scheduler in ["frfs", "met", "eft"] {
            for faulted in [false, true] {
                step += 1;
                let what = format!("{}/{scheduler}/faults={faulted}/step {step}", platform.name);
                let faults = faulted.then(|| fault_spec(step as u64));
                let spec = config(&table, faults.clone()).scenario(
                    Arc::clone(&library),
                    Arc::clone(&platform),
                    scheduler.to_string(),
                    Arc::new(workload(&library, step)),
                );
                let scenario = CompiledScenario::compile(spec).unwrap();

                if step == 2 {
                    // A run that stops mid-flight, between two good ones.
                    let mut rogue =
                        FailsMidFlight { inner: FrfsScheduler::new(), calls: 0, fail_at: 4 };
                    let failed = warm.run_compiled(&mut rogue, &scenario, None);
                    assert!(matches!(failed, Err(EmuError::Config(_))), "{what}: {failed:?}");
                }

                let got = warm
                    .run_compiled(by_name(scheduler).unwrap().as_mut(), &scenario, None)
                    .unwrap_or_else(|e| panic!("{what}: warm run failed: {e}"));
                assert!(got.completed_apps() > 0, "{what}: nothing ran");

                let mut cold =
                    Emulation::with_config(Arc::clone(&platform), config(&table, faults.clone()))
                        .unwrap();
                let want = cold.run_compiled(by_name(scheduler).unwrap().as_mut(), &scenario, None);
                assert_same(&got, &want.unwrap(), &format!("{what} vs cold"));

                if ffts == 0 {
                    let des_config = DesConfig {
                        cost: CostSpec::table(table.clone()),
                        faults,
                        ..DesConfig::default()
                    };
                    let mut des = DesSimulator::new(Arc::clone(&platform), des_config).unwrap();
                    let mut policy = by_name(scheduler).unwrap();
                    let des_run = des.run_compiled(policy.as_mut(), &scenario, None, None).unwrap();
                    assert_same(&got, &des_run, &format!("{what} vs DES"));
                }
            }
        }
    }
}

/// `library` with `app`'s JSON estimates stripped, so its tasks are
/// estimated from the learned book.
fn without_estimates(library: &AppLibrary, app: &str) -> AppLibrary {
    let spec = library.get(app).expect("reference app");
    let mut nodes = spec.nodes.clone();
    for platform in nodes.iter_mut().flat_map(|n| n.platforms.iter_mut()) {
        platform.mean_exec = None;
    }
    let mut stripped = library.clone();
    stripped.register(ApplicationSpec::new(spec.name.clone(), Arc::clone(&spec.variables), nodes));
    stripped
}

#[test]
fn warm_pool_learned_estimates_match_cold_runs() {
    let (library, _registry) = standard_library();
    // range_detection's FFT nodes run on a CPU or the accelerator: which
    // one MET and EFT pick depends on the learned estimates.
    let library = Arc::new(without_estimates(&library, APPS[0]));
    for (cores, ffts) in [(1, 1), (2, 1)] {
        let platform = Arc::new(zcu102(cores, ffts));
        let table = cost_table(&library, &platform);
        let mut warm = Emulation::with_config(Arc::clone(&platform), config(&table, None)).unwrap();
        let mut des = DesSimulator::new(
            Arc::clone(&platform),
            DesConfig { cost: CostSpec::table(table.clone()), ..DesConfig::default() },
        )
        .unwrap();
        for scheduler in ["met", "eft"] {
            for (step, i) in [0usize, 1].into_iter().enumerate() {
                let spec = config(&table, None).scenario(
                    Arc::clone(&library),
                    Arc::clone(&platform),
                    scheduler.to_string(),
                    Arc::new(workload(&library, i)),
                );
                let scenario = CompiledScenario::compile(spec).unwrap();
                let mut cold =
                    Emulation::with_config(Arc::clone(&platform), config(&table, None)).unwrap();
                let policy = || by_name(scheduler).unwrap();
                let want = cold.run_compiled(policy().as_mut(), &scenario, None).unwrap();
                let want_des = DesSimulator::new(
                    Arc::clone(&platform),
                    DesConfig { cost: CostSpec::table(table.clone()), ..DesConfig::default() },
                )
                .unwrap()
                .run_compiled(policy().as_mut(), &scenario, None, None)
                .unwrap();
                // Each scenario twice in a row: the repeat reuses the
                // book's slot map and must still restore its values.
                for repeat in 0..2 {
                    let what = format!(
                        "{}/{scheduler}/workload {i}/step {step}/repeat {repeat}",
                        platform.name
                    );
                    let got = warm.run_compiled(policy().as_mut(), &scenario, None).unwrap();
                    assert_same(&got, &want, &format!("{what}: warm vs cold"));
                    let got = des.run_compiled(policy().as_mut(), &scenario, None, None).unwrap();
                    assert_same(&got, &want_des, &format!("{what}: warm DES vs cold DES"));
                }
            }
        }
    }
}

/// One warm engine per kind runs scenarios that alternate every per-run
/// knob — timing, overhead, cost and reservation depth — on one
/// platform. Each deterministic result equals a cold runner's; the
/// host-measured ones (wall-clock timing, measured overhead or
/// scaled-measured cost) run every task, except that the DES, which
/// measures nothing and models no reservation queues, refuses a
/// scaled-measured cost and a reservation depth above 0. The platform keeps
/// one warm engine per kind, and the threaded one spawns its threads
/// once.
#[test]
fn one_warm_engine_per_kind_alternates_every_knob() {
    let (library, _registry) = standard_library();
    let library = Arc::new(library);
    let platform = Arc::new(zcu102(2, 0));
    let full = CostSpec::table(cost_table(&library, &platform));
    let empty = CostSpec::table(CostTable::new());
    let us = |n| OverheadMode::Fixed(Duration::from_micros(n));
    let (modeled, wall) = (TimingMode::Modeled, TimingMode::WallClock);
    let knobs = [
        (modeled, OverheadMode::None, full.clone(), 0),
        (wall, OverheadMode::Measured, CostSpec::ScaledMeasured, 1),
        (modeled, us(7), empty.clone(), 1),
        (modeled, OverheadMode::Measured, full.clone(), 0),
        (modeled, us(2), full, 2),
        (modeled, us(3), CostSpec::ScaledMeasured, 0),
        (modeled, OverheadMode::None, empty, 0),
    ];
    let mut warm = JobRunner::new();
    for (step, (timing, overhead, cost, depth)) in knobs.into_iter().enumerate() {
        let spec = ScenarioSpec::builder()
            .library(Arc::clone(&library))
            .platform(Arc::clone(&platform))
            .scheduler(["frfs", "met", "eft"][step % 3])
            .workload(workload(&library, step))
            .timing(timing)
            .overhead(overhead)
            .cost(cost.clone())
            .reservation_depth(depth)
            .build()
            .unwrap();
        let scenario = CompiledScenario::compile(spec).unwrap();
        let what = format!("step {step}: {timing:?}/{overhead:?}/{cost:?}/depth {depth}");
        for engine in [Engine::Threaded, Engine::Des] {
            let spawned = threads_spawned_total();
            if engine == Engine::Des && (matches!(cost, CostSpec::ScaledMeasured) || depth > 0) {
                let err = warm.run(&scenario, engine).expect_err(&what);
                assert!(err.to_string().contains("needs the threaded engine"), "{what}: {err}");
                continue;
            }
            let got = warm.run(&scenario, engine).unwrap_or_else(|e| panic!("{what}: {e}"));
            let pool = if step == 0 && engine == Engine::Threaded { platform.pes.len() } else { 0 };
            assert_eq!(threads_spawned_total() - spawned, pool as u64, "{what}: threads spawned");
            assert!(!got.cached, "{what}: every scenario is new");
            let want = JobRunner::new().run(&scenario, engine).unwrap().stats;
            if scenario.deterministic(engine) {
                assert_same_summary(&got.stats, &want, &format!("{what}: {engine} warm vs cold"));
            } else {
                assert_eq!(got.stats.completed_apps(), want.completed_apps(), "{what}");
                assert_eq!(got.stats.tasks.len(), want.tasks.len(), "{what}: tasks");
            }
        }
    }
    assert_eq!(warm.warm_engines(), (1, 1), "distinct knobs on one platform share its engines");
}

/// A CPU-only platform of `n` A53 cores named `{tag}c{i}`, so its
/// resource-manager threads (`rm-{tag}c{i}`) can be told apart from
/// every other test's.
fn tagged_platform(tag: &str, n: usize) -> Arc<PlatformConfig> {
    let mut platform = zcu102(1, 0);
    let a53 = platform.pes[0].clone();
    platform.name = format!("{tag}-{n}C");
    platform.pes = (0..n)
        .map(|i| PeDescriptor { id: PeId(i as u32), name: format!("{tag}c{i}"), ..a53.clone() })
        .collect();
    Arc::new(platform)
}

/// Live threads of this process whose name starts with `rm-{tag}c`.
#[cfg(target_os = "linux")]
fn live_threads_of(tag: &str) -> usize {
    let prefix = format!("rm-{tag}c");
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with(&prefix))
        .count()
}

/// Three 30-PE platforms exceed the 64-PE warm budget: building the
/// third engine evicts the least recently used one — not the oldest —
/// and the evicted engine's threads are joined before the run returns.
#[cfg(target_os = "linux")]
#[test]
fn exceeding_the_pe_budget_evicts_the_least_recently_used_engine() {
    const PES: usize = 30;
    const { assert!(2 * PES <= WARM_PE_BUDGET && 3 * PES > WARM_PE_BUDGET) };
    let (library, _registry) = standard_library();
    let library = Arc::new(library);
    let tags = ["lrua", "lrub", "lruc"];
    let platforms = tags.map(|tag| tagged_platform(tag, PES));
    let mut jobs = JobRunner::new();
    // Each run a new scenario (step), so none is answered from the
    // result cache without touching its engine.
    let mut step = 0;
    let mut run_on = |i: usize| {
        step += 1;
        let spec = ScenarioSpec::builder()
            .library(Arc::clone(&library))
            .platform(Arc::clone(&platforms[i]))
            .workload(workload(&library, step))
            .overhead(OverheadMode::None)
            .cost(CostSpec::table(CostTable::new()))
            .build()
            .unwrap();
        let scenario = CompiledScenario::compile(spec).unwrap();
        assert!(jobs.run(&scenario, Engine::Threaded).unwrap().stats.completed_apps() > 0);
        let live = tags.map(live_threads_of);
        (jobs.warm_engines(), live)
    };
    assert_eq!(run_on(0), ((1, 0), [PES, 0, 0]));
    assert_eq!(run_on(1), ((2, 0), [PES, PES, 0]));
    // The first platform again: now the second is the least recently
    // used, and the third platform's engine pushes it out.
    assert_eq!(run_on(0), ((2, 0), [PES, PES, 0]));
    assert_eq!(run_on(2), ((2, 0), [PES, 0, PES]), "the LRU engine's threads were joined");
}
