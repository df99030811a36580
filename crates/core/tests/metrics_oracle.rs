//! Metric values against an oracle: every family an engine publishes,
//! read after the run returns, must equal the value recomputed from the
//! run's own `EmulationStats` (and, for degraded dispatches, its trace).
//! Both engines, every library policy, with faults injected and a fixed
//! overhead charged per scheduler invocation.
//!
//! Also: runs that stop early — a scheduler contract violation, a
//! mid-run cancel — must leave the ready-depth and busy-PE gauges where
//! they found them, on both engines; and repeated runs on one warm
//! engine must not add up the quarantined-PE gauge.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::fault::{PermanentFault, RateFault};
use dssoc_core::prelude::*;
use dssoc_core::sched::{by_name, Assignment, PeView, ReadyView, SchedContext};
use dssoc_metrics::{HistogramData, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;
use dssoc_trace::{EventKind, TraceSession};

const APPS: [&str; 3] = ["range_detection", "wifi_tx", "wifi_rx"];

/// The fixed overhead charged per scheduler invocation.
const CHARGE: Duration = Duration::from_micros(5);

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

/// Transient faults everywhere with one retry per task (so some
/// applications abort), and the FFT accelerator dying mid-run (a
/// quarantine, and FFT retries degrading onto the CPUs).
fn fault_spec() -> Arc<FaultSpec> {
    Arc::new(FaultSpec {
        seed: 11,
        permanent: vec![PermanentFault { pe: 2, at_us: 400.0 }],
        transient: vec![RateFault { kernel: None, pe: None, probability: 0.25 }],
        retry: RetryPolicy { max_retries: 1, backoff_us: 20.0, quarantine_after: 1_000 },
        ..FaultSpec::default()
    })
}

/// Runs `scheduler` once on a fresh engine with `registry` and a trace
/// attached, returning the stats and the number of degraded dispatches
/// the trace recorded.
fn run(des: bool, scheduler: &str, registry: &MetricsRegistry) -> (EmulationStats, u64) {
    let (library, _kernels) = standard_library();
    let platform = zcu102(2, 1);
    let table = cost_table(&library, &platform);
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 3usize))).generate(&library).expect("workload");
    let session = TraceSession::new();
    let mut policy = by_name(scheduler).expect("library policy");
    let stats = if des {
        let config = DesConfig {
            cost: CostSpec::table(table),
            overhead_per_invocation: CHARGE,
            trace: Some(session.sink()),
            faults: Some(fault_spec()),
            metrics: Some(registry.clone()),
        };
        let mut sim = DesSimulator::new(platform, config).expect("platform");
        sim.run(policy.as_mut(), &workload, &library)
    } else {
        let config = EmulationConfig {
            timing: TimingMode::Modeled,
            overhead: OverheadMode::Fixed(CHARGE),
            cost: CostSpec::table(table),
            reservation_depth: 0,
            trace: Some(session.sink()),
            faults: Some(fault_spec()),
            metrics: Some(registry.clone()),
        };
        let mut emu = Emulation::with_config(platform, config).expect("platform");
        emu.run(policy.as_mut(), &workload, &library)
    };
    let degraded = session
        .drain()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DegradedDispatch { .. }))
        .count() as u64;
    (stats.unwrap_or_else(|e| panic!("{scheduler} (des={des}): {e}")), degraded)
}

/// A histogram family's series as comparable `(buckets, count, sum,
/// max)`.
fn hist_key(h: &HistogramSnapshot) -> (Vec<(u64, u64)>, u64, u64, u64) {
    (h.buckets.clone(), h.count, h.sum, h.max)
}

/// Records `value` under `label` in `map`.
fn record(map: &mut BTreeMap<String, HistogramData>, label: &str, value: Duration) {
    map.entry(label.to_string()).or_default().record(value.as_nanos() as u64);
}

/// Asserts histogram family `name` holds exactly `want`, by label.
fn assert_hist_family(
    snap: &MetricsSnapshot,
    name: &str,
    label: &str,
    want: &BTreeMap<String, HistogramData>,
    what: &str,
) {
    let got: BTreeMap<String, _> = snap
        .samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let value = s.labels.iter().find(|(k, _)| k == label).map(|(_, v)| v.clone());
            (value.unwrap_or_default(), hist_key(s.histogram.as_ref().expect("a histogram")))
        })
        .filter(|(_, h)| h.1 > 0)
        .collect();
    let want: BTreeMap<String, _> =
        want.iter().map(|(k, d)| (k.clone(), hist_key(&HistogramSnapshot::from_data(d)))).collect();
    assert_eq!(got, want, "{what}: {name}");
}

#[test]
fn every_family_matches_the_run_stats() {
    let mut degraded_runs = 0;
    for des in [true, false] {
        for scheduler in ["frfs", "met", "eft"] {
            let what = format!("{scheduler} (des={des})");
            let registry = MetricsRegistry::new();
            let (stats, degraded) = run(des, scheduler, &registry);
            let snap = registry.snapshot();
            let value = |name: &str, labels: &[(&str, &str)]| {
                snap.value(name, labels).unwrap_or_else(|| panic!("{what}: no {name}{labels:?}"))
            };
            let r = &stats.reliability;
            assert!(
                r.retries > 0 && r.apps_aborted > 0 && r.pes_quarantined > 0,
                "{what}: the fault plan must exercise the outcome families: {r:?}"
            );
            degraded_runs += usize::from(degraded > 0);

            // Completion families, from the task log.
            let pe_name = |pe| stats.pe_names[&pe].clone();
            let (mut per_pe, mut per_kernel) = (BTreeMap::new(), BTreeMap::new());
            let (mut wait, mut skew) = (BTreeMap::new(), BTreeMap::new());
            for t in stats.tasks.iter() {
                record(&mut per_pe, &pe_name(t.pe), t.modeled);
                record(&mut per_kernel, &t.kernel, t.modeled);
                record(&mut wait, "", t.start.since(t.ready_at));
                if t.measured > Duration::ZERO {
                    record(&mut skew, "", t.modeled.abs_diff(t.measured));
                }
            }
            assert_hist_family(&snap, "dssoc_task_exec_ns", "pe", &per_pe, &what);
            assert_hist_family(&snap, "dssoc_kernel_exec_ns", "kernel", &per_kernel, &what);
            assert_hist_family(&snap, "dssoc_task_wait_ns", "", &wait, &what);
            assert_hist_family(&snap, "dssoc_task_skew_ns", "", &skew, &what);
            assert_eq!(des, skew.is_empty(), "{what}: only the threaded engine measures");
            for (pe, h) in &per_pe {
                assert_eq!(value("dssoc_tasks_completed", &[("pe", pe)]), h.count as f64, "{what}");
            }

            // Application families, from the app records.
            let mut latency = BTreeMap::new();
            for a in &stats.apps {
                record(&mut latency, &a.app, a.latency());
            }
            assert_hist_family(&snap, "dssoc_app_latency_ns", "app", &latency, &what);
            for app in APPS {
                let done = latency.get(app).map_or(0, |h| h.count);
                assert_eq!(value("dssoc_apps_completed", &[("app", app)]), done as f64, "{what}");
            }

            // Outcome counters, from the run's counters.
            let o = &stats.overhead;
            let phases = [
                ("monitor", o.monitor),
                ("update", o.update),
                ("schedule", o.schedule),
                ("dispatch", o.dispatch),
            ];
            for (phase, d) in phases {
                let got = value("dssoc_overhead_ns", &[("phase", phase)]);
                assert_eq!(got, d.as_nanos() as f64, "{what}: overhead {phase}");
            }
            assert!(o.schedule > Duration::ZERO, "{what}: the fixed charge must land");
            let counters = [
                ("dssoc_sched_invocations", vec![], stats.sched_invocations),
                ("dssoc_faults", vec![("kind", "transient")], r.transient_faults),
                ("dssoc_faults", vec![("kind", "permanent")], r.permanent_faults),
                ("dssoc_faults", vec![("kind", "hang")], r.hang_faults),
                ("dssoc_faults", vec![("kind", "watchdog")], r.watchdog_faults),
                ("dssoc_faults", vec![("kind", "exec")], r.exec_faults),
                ("dssoc_retries", vec![], r.retries),
                ("dssoc_quarantines", vec![], r.pes_quarantined),
                ("dssoc_degraded_dispatches", vec![], degraded),
                ("dssoc_apps_aborted", vec![], r.apps_aborted),
                ("dssoc_fault_survivals", vec![], r.apps_completed_despite_faults),
                ("dssoc_runs", vec![("scheduler", stats.scheduler.as_str())], 1),
            ];
            for (name, labels, want) in counters {
                assert_eq!(value(name, &labels), want as f64, "{what}: {name}{labels:?}");
            }
            assert!(degraded >= r.tasks_degraded, "{what}: degraded dispatches vs tasks");

            // Gauges once the run returned, and the depth samples.
            assert_eq!(value("dssoc_ready_depth", &[]), 0.0, "{what}");
            assert_eq!(value("dssoc_pes_busy", &[]), 0.0, "{what}");
            assert_eq!(value("dssoc_pes_quarantined", &[]), 0.0, "{what}");
            let observed = value("dssoc_ready_depth_observed", &[]);
            assert_eq!(value("dssoc_tasks_ready", &[]), observed, "{what}: one sample per push");
            assert!(observed >= stats.tasks.len() as f64, "{what}");
        }
    }
    assert!(degraded_runs > 0, "no run degraded a dispatch");
}

/// Plays FRFS until its `at`-th call that sees a busy PE, then stops the
/// run there with tasks in flight: by setting `cancel` when one is
/// given, else by breaking the scheduler contract.
struct StopsMidFlight {
    calls: usize,
    at: usize,
    cancel: Option<Arc<AtomicBool>>,
}

impl Scheduler for StopsMidFlight {
    fn name(&self) -> &'static str {
        "stops-mid-flight"
    }

    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    ) {
        if pes.iter().any(|v| !v.idle) {
            self.calls += 1;
        }
        if self.calls >= self.at {
            match &self.cancel {
                Some(flag) => flag.store(true, Ordering::Relaxed),
                None => {
                    out.push(Assignment { ready_idx: ready.len(), pe: pes[0].pe.id });
                    return;
                }
            }
        }
        FrfsScheduler::new().schedule_into(ready, pes, ctx, out)
    }
}

/// The gauges a run moves, read after it returned.
fn run_gauges(registry: &MetricsRegistry) -> (f64, f64) {
    let snap = registry.snapshot();
    let read = |name| snap.value(name, &[]).expect("registered at engine build");
    (read("dssoc_ready_depth"), read("dssoc_pes_busy"))
}

#[test]
fn early_exits_return_the_run_gauges_to_zero() {
    let (library, _kernels) = standard_library();
    let platform = zcu102(2, 1);
    let table = cost_table(&library, &platform);
    let workload = WorkloadSpec::validation([("range_detection", 5usize)])
        .generate(&library)
        .expect("workload");
    let registry = MetricsRegistry::new();
    let des_config = DesConfig {
        cost: CostSpec::table(table.clone()),
        metrics: Some(registry.clone()),
        ..DesConfig::default()
    };
    let mut des = DesSimulator::new(platform.clone(), des_config).expect("platform");
    let spec = ScenarioSpec::builder()
        .library(library.clone())
        .platform(platform.clone())
        .scheduler("frfs")
        .workload(Arc::new(workload.clone()))
        .overhead(OverheadMode::None)
        .cost(CostSpec::table(table.clone()))
        .build()
        .expect("scenario");
    let scenario = CompiledScenario::compile(spec).expect("compile");
    let emu_config = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: Some(registry.clone()),
    };
    let mut emu = Emulation::with_config(platform, emu_config).expect("platform");

    // A violation before anything ran (ready tasks only), one with tasks
    // in flight, and a cancel with tasks in flight.
    for (at, cancel) in [(0, false), (2, false), (2, true)] {
        let flag = Arc::new(AtomicBool::new(false));
        let mut stop = StopsMidFlight { calls: 0, at, cancel: cancel.then(|| Arc::clone(&flag)) };
        let what = format!("DES, stop at busy call {at}, cancel={cancel}");
        let result = des.run_compiled(&mut stop, &scenario, None, Some(&flag));
        assert!(result.is_err(), "{what}: the run must stop early");
        assert_eq!(run_gauges(&registry), (0.0, 0.0), "{what}");

        if cancel {
            continue; // the threaded engine takes no cancel flag
        }
        let mut stop = StopsMidFlight { calls: 0, at, cancel: None };
        let result = emu.run(&mut stop, &workload, &library);
        assert!(result.is_err(), "threaded, stop at busy call {at}: the run must stop early");
        assert_eq!(run_gauges(&registry), (0.0, 0.0), "threaded, stop at busy call {at}");
    }

    // The engines stay usable, and a clean run leaves the gauges at zero
    // too.
    des.run(&mut FrfsScheduler::new(), &workload, &library).expect("clean DES run");
    emu.run(&mut FrfsScheduler::new(), &workload, &library).expect("clean threaded run");
    assert_eq!(run_gauges(&registry), (0.0, 0.0), "clean runs");
}

/// Three runs on one warm engine, each losing the FFT accelerator for
/// good: every run quarantines it (the `dssoc_quarantines` counter
/// reads 1, 2, 3), and the quarantined-PE gauge reads 0 after each,
/// on both engines.
#[test]
fn warm_runs_do_not_add_up_the_quarantine_gauge() {
    let (library, _kernels) = standard_library();
    let platform = zcu102(2, 1);
    let table = cost_table(&library, &platform);
    let workload = WorkloadSpec::validation([("range_detection", 4usize)])
        .generate(&library)
        .expect("workload");
    let faults = Arc::new(FaultSpec {
        permanent: vec![PermanentFault { pe: 2, at_us: 0.0 }],
        ..FaultSpec::default()
    });
    for des in [true, false] {
        let registry = MetricsRegistry::new();
        let mut runs: Box<dyn FnMut() -> EmulationStats> = if des {
            let config = DesConfig {
                cost: CostSpec::table(table.clone()),
                faults: Some(Arc::clone(&faults)),
                metrics: Some(registry.clone()),
                ..DesConfig::default()
            };
            let mut sim = DesSimulator::new(platform.clone(), config).expect("platform");
            let (workload, library) = (workload.clone(), library.clone());
            Box::new(move || sim.run(&mut FrfsScheduler::new(), &workload, &library).expect("run"))
        } else {
            let config = EmulationConfig {
                timing: TimingMode::Modeled,
                overhead: OverheadMode::None,
                cost: CostSpec::table(table.clone()),
                reservation_depth: 0,
                trace: None,
                faults: Some(Arc::clone(&faults)),
                metrics: Some(registry.clone()),
            };
            let mut emu = Emulation::with_config(platform.clone(), config).expect("platform");
            let (workload, library) = (workload.clone(), library.clone());
            Box::new(move || emu.run(&mut FrfsScheduler::new(), &workload, &library).expect("run"))
        };
        for run in 1..=3 {
            let stats = runs();
            assert_eq!(stats.reliability.pes_quarantined, 1, "des={des} run {run}");
            let snap = registry.snapshot();
            let value = |name| snap.value(name, &[]).expect("registered at engine build");
            assert_eq!(value("dssoc_quarantines"), run as f64, "des={des} run {run}");
            assert_eq!(value("dssoc_pes_quarantined"), 0.0, "des={des} run {run}");
        }
    }
}
