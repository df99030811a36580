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

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::ApplicationSpec;
use dssoc_appmodel::workload::InjectionParams;
use dssoc_appmodel::{AppLibrary, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::fault::{FaultSpec, RateFault, RetryPolicy};
use dssoc_core::job::{CompiledScenario, CostSpec};
use dssoc_core::sched::{by_name, Assignment, PeView, ReadyView, SchedContext, Scheduler};
use dssoc_core::stats::EmulationStats;
use dssoc_core::FrfsScheduler;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
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
    stripped.register(Arc::new(ApplicationSpec {
        name: spec.name.clone(),
        variables: Arc::clone(&spec.variables),
        nodes,
        roots: spec.roots.clone(),
    }));
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
