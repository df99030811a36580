//! Behavioural tests of deterministic fault injection and the
//! fault-tolerant recovery policy, across both engines: permanent
//! accelerator loss with CPU fallback, transient retry + quarantine,
//! modeled hangs, the wall-clock watchdog, exec-fault recovery, and the
//! error-path satellites (`EmuError::source`, pool reuse after
//! `TaskFailed`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson, VariableJson};
use dssoc_appmodel::{AppLibrary, KernelRegistry, ModelError, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::fault::{FaultSpec, PermanentFault, RateFault, RetryPolicy};
use dssoc_core::job::CostSpec;
use dssoc_core::sched::by_name;
use dssoc_core::time::SimTime;
use dssoc_core::FrfsScheduler;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::{PeId, PlatformConfig};
use dssoc_platform::presets::zcu102;
use dssoc_trace::{EventKind, FaultKind, TraceEvent, TraceSession};

const APPS: [&str; 2] = ["pulse_doppler", "range_detection"];

/// Deterministic cost table over every `(runfunc, class)` pair the
/// reference apps can hit on `platform` (same scheme as the
/// cross-engine differential tests).
fn full_cost_table(library: &AppLibrary, platform: &PlatformConfig) -> CostTable {
    let mut table = CostTable::new();
    for app in APPS {
        let spec = library.get(app).expect("reference app");
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
    }
    table
}

fn modeled_config(table: CostTable, faults: Option<Arc<FaultSpec>>) -> EmulationConfig {
    EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table),
        reservation_depth: 0,
        trace: None,
        faults,
        metrics: None,
    }
}

/// The fault-family events of a drained trace, as comparable tuples in
/// canonical stream order.
fn fault_tuples(events: &[TraceEvent]) -> Vec<(u64, &'static str, u64, u64, u64)> {
    events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Fault { instance, node, pe, kind } => {
                Some((ev.ts_ns, kind.name(), instance, u64::from(node), u64::from(pe)))
            }
            EventKind::Retry { instance, node, attempt, release_ns } => Some((
                ev.ts_ns,
                "retry",
                instance,
                u64::from(node) | (u64::from(attempt) << 32),
                release_ns,
            )),
            EventKind::Quarantine { pe } => Some((ev.ts_ns, "quarantine", 0, 0, u64::from(pe))),
            EventKind::DegradedDispatch { instance, node, pe } => {
                Some((ev.ts_ns, "degraded", instance, u64::from(node), u64::from(pe)))
            }
            _ => None,
        })
        .collect()
}

/// The ISSUE's acceptance scenario: a permanent accelerator failure
/// mid-flight (50% through one of its task executions) must not abort a
/// single application — retried FFT work degrades onto the CPUs via the
/// alternate-runfunc path — and the trace must show the fault, the
/// quarantine, the retry, and the degraded dispatch.
#[test]
fn permanent_accel_failure_recovers_via_cpu_fallback() {
    let (library, _registry) = standard_library();
    let platform = zcu102(2, 1); // PEs 0,1 = CPUs; PE 2 = FFT accel.
    let fft_pe = PeId(2);
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 2usize))).generate(&library).expect("workload");
    let table = full_cost_table(&library, &platform);

    for scheduler in ["frfs", "eft"] {
        // Baseline run: find a task mid-flight on the accelerator so the
        // failure instant is guaranteed to kill an in-flight attempt.
        let mut emu =
            Emulation::with_config(platform.clone(), modeled_config(table.clone(), None)).unwrap();
        let mut sched = by_name(scheduler).unwrap();
        let baseline = emu.run(sched.as_mut(), &workload, &library).unwrap();
        assert_eq!(baseline.completed_apps(), 4);
        let victim = baseline
            .tasks
            .iter()
            .filter(|t| t.pe == fft_pe)
            .max_by_key(|t| t.finish)
            .unwrap_or_else(|| panic!("{scheduler}: baseline never used the accelerator"));
        let fail_at_us = (victim.start.0 + victim.finish.0) as f64 / 2.0 / 1e3;

        let spec = Arc::new(FaultSpec {
            permanent: vec![PermanentFault { pe: fft_pe.0, at_us: fail_at_us }],
            ..FaultSpec::default()
        });
        let session = TraceSession::new();
        let mut cfg = modeled_config(table.clone(), Some(Arc::clone(&spec)));
        cfg.trace = Some(session.sink());
        let mut emu = Emulation::with_config(platform.clone(), cfg).unwrap();
        let mut sched = by_name(scheduler).unwrap();
        let stats = emu.run(sched.as_mut(), &workload, &library).unwrap();

        assert_eq!(stats.completed_apps(), 4, "{scheduler}: all apps must finish via CPU fallback");
        let r = &stats.reliability;
        assert_eq!(r.apps_aborted, 0, "{scheduler}: zero aborted apps");
        assert!(r.permanent_faults >= 1, "{scheduler}: in-flight attempt must die: {r:?}");
        assert_eq!(r.faults_injected, r.permanent_faults, "{scheduler}: only permanent faults");
        assert!(r.retries >= 1, "{scheduler}: the lost attempt must be retried");
        assert_eq!(r.pes_quarantined, 1, "{scheduler}: the dead accelerator is quarantined");
        assert!(r.tasks_degraded >= 1, "{scheduler}: retry must degrade to another PE class");
        assert!(r.apps_completed_despite_faults >= 1, "{scheduler}");

        let events = session.drain();
        let tuples = fault_tuples(&events);
        assert!(
            tuples.iter().any(|t| t.1 == "permanent" && t.4 == u64::from(fft_pe.0)),
            "{scheduler}: trace must carry the fault event"
        );
        assert!(tuples.iter().any(|t| t.1 == "quarantine" && t.4 == u64::from(fft_pe.0)));
        assert!(tuples.iter().any(|t| t.1 == "retry"));
        assert!(tuples.iter().any(|t| t.1 == "degraded"));
        // No task record may claim the accelerator after it died.
        let fail_at = SimTime((fail_at_us * 1e3) as u64);
        for t in &stats.tasks {
            assert!(
                t.pe != fft_pe || t.finish <= fail_at,
                "{scheduler}: task finished on the dead PE after the failure"
            );
        }
    }
}

/// The same seeded permanent-failure scenario must produce identical
/// makespans and byte-identical fault event sequences on the threaded
/// engine and the DES. CPU-only platform: that is the regime where the
/// engines are pinned to exact agreement (see `differential.rs`), so
/// any divergence here is attributable to the fault path.
#[test]
fn permanent_failure_is_identical_across_engines() {
    let (library, _registry) = standard_library();
    let platform = zcu102(3, 0);
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 2usize))).generate(&library).expect("workload");
    let table = full_cost_table(&library, &platform);
    let spec = Arc::new(FaultSpec {
        permanent: vec![PermanentFault { pe: 2, at_us: 300.0 }],
        ..FaultSpec::default()
    });

    for scheduler in ["frfs", "met"] {
        let emu_session = TraceSession::new();
        let mut cfg = modeled_config(table.clone(), Some(Arc::clone(&spec)));
        cfg.trace = Some(emu_session.sink());
        let mut emu = Emulation::with_config(platform.clone(), cfg).unwrap();
        let mut sched = by_name(scheduler).unwrap();
        let emu_stats = emu.run(sched.as_mut(), &workload, &library).unwrap();

        let des_session = TraceSession::new();
        let mut des = DesSimulator::new(
            platform.clone(),
            DesConfig {
                cost: CostSpec::table(table.clone()),
                overhead_per_invocation: Duration::ZERO,
                trace: Some(des_session.sink()),
                faults: Some(Arc::clone(&spec)),
                metrics: None,
            },
        )
        .unwrap();
        let mut sched = by_name(scheduler).unwrap();
        let des_stats = des.run(sched.as_mut(), &workload, &library).unwrap();

        assert_eq!(emu_stats.makespan, des_stats.makespan, "{scheduler}: makespans diverged");
        assert_eq!(emu_stats.reliability, des_stats.reliability, "{scheduler}");
        let emu_faults = fault_tuples(&emu_session.drain());
        let des_faults = fault_tuples(&des_session.drain());
        assert!(!emu_faults.is_empty(), "{scheduler}: scenario must inject at least one fault");
        assert_eq!(emu_faults, des_faults, "{scheduler}: fault sequences diverged");
    }
}

/// Diamond fixture: src -> (a, b) -> sink on CPU-only platforms, fixed
/// 200 us per kernel.
fn diamond_library() -> (AppLibrary, KernelRegistry) {
    let mut reg = KernelRegistry::new();
    for k in ["ksrc", "ka", "kb", "ksink"] {
        reg.register_fn("diamond.so", k, |ctx| {
            let v = ctx.read_u32("counter")?;
            ctx.write_u32("counter", v + 1)
        });
    }
    let mut vars = BTreeMap::new();
    vars.insert("counter".to_string(), VariableJson::u32_scalar(0));
    let cpu = |runfunc: &str| PlatformJson {
        name: "cpu".into(),
        runfunc: runfunc.into(),
        shared_object: None,
        mean_exec_us: None,
    };
    let mut dag = BTreeMap::new();
    dag.insert(
        "src".to_string(),
        NodeJson {
            arguments: vec!["counter".into()],
            predecessors: vec![],
            successors: vec!["a".into(), "b".into()],
            platforms: vec![cpu("ksrc")],
        },
    );
    for n in ["a", "b"] {
        dag.insert(
            n.to_string(),
            NodeJson {
                arguments: vec!["counter".into()],
                predecessors: vec!["src".into()],
                successors: vec!["sink".into()],
                platforms: vec![cpu(if n == "a" { "ka" } else { "kb" })],
            },
        );
    }
    dag.insert(
        "sink".to_string(),
        NodeJson {
            arguments: vec!["counter".into()],
            predecessors: vec!["a".into(), "b".into()],
            successors: vec![],
            platforms: vec![cpu("ksink")],
        },
    );
    let json = AppJson {
        app_name: "diamond".into(),
        shared_object: "diamond.so".into(),
        variables: vars,
        dag,
    };
    let mut lib = AppLibrary::new();
    lib.register_json(&json, &reg).unwrap();
    (lib, reg)
}

fn diamond_cost_table() -> CostTable {
    let mut t = CostTable::new();
    for k in ["ksrc", "ka", "kb", "ksink"] {
        t.set(k, "cortex-a53", Duration::from_micros(200));
    }
    t
}

/// Transient faults on one PE: bounded retry succeeds elsewhere once
/// the flaky PE hits its quarantine threshold, and the whole scenario
/// is reproducible run to run and across engines.
#[test]
fn transient_fault_retries_quarantines_and_is_deterministic() {
    let (lib, _reg) = diamond_library();
    let wl = WorkloadSpec::validation([("diamond", 3usize)]).generate(&lib).unwrap();
    // Find which PE runs instance 0's "a" so the fault rule provably
    // fires (the engines are deterministic, so the baseline schedule is
    // the faulty run's schedule up to the first fault).
    let mut emu =
        Emulation::with_config(zcu102(2, 0), modeled_config(diamond_cost_table(), None)).unwrap();
    let baseline = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    let victim_pe =
        baseline.tasks.iter().find(|t| t.instance.0 == 0 && &*t.node == "a").unwrap().pe;

    let spec = Arc::new(FaultSpec {
        transient: vec![RateFault {
            kernel: Some("ka".into()),
            pe: Some(victim_pe.0),
            probability: 1.0,
        }],
        retry: RetryPolicy { max_retries: 2, backoff_us: 50.0, quarantine_after: 1 },
        ..FaultSpec::default()
    });

    let run = || {
        let session = TraceSession::new();
        let mut cfg = modeled_config(diamond_cost_table(), Some(Arc::clone(&spec)));
        cfg.trace = Some(session.sink());
        let mut emu = Emulation::with_config(zcu102(2, 0), cfg).unwrap();
        let stats = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
        (stats, session)
    };
    let (stats, session) = run();
    assert_eq!(stats.completed_apps(), 3);
    let r = &stats.reliability;
    assert!(r.transient_faults >= 1, "{r:?}");
    assert_eq!(r.faults_injected, r.transient_faults);
    assert!(r.retries >= 1);
    assert_eq!(r.pes_quarantined, 1, "quarantine_after=1 retires the flaky PE: {r:?}");
    assert_eq!(r.apps_aborted, 0);
    assert!(r.apps_completed_despite_faults >= 1);

    // Reproducible: identical makespan, counters, and fault sequence.
    let (stats2, session2) = run();
    assert_eq!(stats.makespan, stats2.makespan);
    assert_eq!(stats.reliability, stats2.reliability);
    assert_eq!(fault_tuples(&session.drain()), fault_tuples(&session2.drain()));

    // And the DES agrees exactly.
    let des_session = TraceSession::new();
    let mut des = DesSimulator::new(
        zcu102(2, 0),
        DesConfig {
            cost: CostSpec::table(diamond_cost_table()),
            overhead_per_invocation: Duration::ZERO,
            trace: Some(des_session.sink()),
            faults: Some(Arc::clone(&spec)),
            metrics: None,
        },
    )
    .unwrap();
    let des_stats = des.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats.makespan, des_stats.makespan);
    assert_eq!(stats.reliability, des_stats.reliability);
    assert_eq!(fault_tuples(&session2.drain()), fault_tuples(&des_session.drain()));
}

/// A hung kernel is modeled: the attempt stretches to the virtual
/// watchdog deadline, the PE is quarantined, and both engines agree in
/// virtual time (no wall clock involved).
#[test]
fn modeled_hang_quarantines_and_matches_des() {
    let (lib, _reg) = diamond_library();
    let wl = WorkloadSpec::validation([("diamond", 2usize)]).generate(&lib).unwrap();
    let mut emu =
        Emulation::with_config(zcu102(2, 0), modeled_config(diamond_cost_table(), None)).unwrap();
    let baseline = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    let victim_pe =
        baseline.tasks.iter().find(|t| t.instance.0 == 0 && &*t.node == "b").unwrap().pe;

    let spec = Arc::new(FaultSpec {
        hangs: vec![RateFault {
            kernel: Some("kb".into()),
            pe: Some(victim_pe.0),
            probability: 1.0,
        }],
        watchdog_factor: 3.0,
        ..FaultSpec::default()
    });
    let run_threaded = || {
        let mut emu = Emulation::with_config(
            zcu102(2, 0),
            modeled_config(diamond_cost_table(), Some(Arc::clone(&spec))),
        )
        .unwrap();
        emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap()
    };
    let stats = run_threaded();
    assert_eq!(stats.completed_apps(), 2);
    let r = &stats.reliability;
    assert!(r.hang_faults >= 1, "{r:?}");
    assert!(r.pes_quarantined >= 1, "hangs always quarantine: {r:?}");
    assert_eq!(r.apps_aborted, 0);
    assert_eq!(stats.makespan, run_threaded().makespan, "hangs must be reproducible");

    let mut des = DesSimulator::new(
        zcu102(2, 0),
        DesConfig {
            cost: CostSpec::table(diamond_cost_table()),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: Some(Arc::clone(&spec)),
            metrics: None,
        },
    )
    .unwrap();
    let des_stats = des.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats.makespan, des_stats.makespan);
    assert_eq!(stats.reliability, des_stats.reliability);
}

/// The wall-clock watchdog (threaded engine only): a kernel that
/// really blocks past its deadline is abandoned — its task retries on a
/// surviving PE, the run completes, and the wedged manager thread does
/// not poison later runs on the same pool.
#[test]
fn wall_clock_watchdog_recovers_from_stuck_kernel() {
    let calls = Arc::new(AtomicUsize::new(0));
    let calls_in_kernel = Arc::clone(&calls);
    let mut reg = KernelRegistry::new();
    reg.register_fn("w.so", "maybe_stall", move |_| {
        if calls_in_kernel.fetch_add(1, Ordering::SeqCst) == 0 {
            // First invocation wedges well past the watchdog deadline
            // (bounded, so pool teardown always finishes).
            std::thread::sleep(Duration::from_millis(150));
        }
        Ok(())
    });
    let mut dag = BTreeMap::new();
    dag.insert(
        "only".to_string(),
        NodeJson {
            arguments: vec![],
            predecessors: vec![],
            successors: vec![],
            platforms: vec![PlatformJson {
                name: "cpu".into(),
                runfunc: "maybe_stall".into(),
                shared_object: None,
                mean_exec_us: None,
            }],
        },
    );
    let json = AppJson {
        app_name: "stall".into(),
        shared_object: "w.so".into(),
        variables: BTreeMap::new(),
        dag,
    };
    let mut lib = AppLibrary::new();
    lib.register_json(&json, &reg).unwrap();
    let wl = WorkloadSpec::validation([("stall", 2usize)]).generate(&lib).unwrap();

    let mut table = CostTable::new();
    table.set("maybe_stall", "cortex-a53", Duration::from_micros(200));
    let spec = Arc::new(FaultSpec {
        watchdog_factor: 2.0,
        watchdog_min_wall_ms: 25.0,
        ..FaultSpec::default()
    });
    let mut emu = Emulation::with_config(zcu102(2, 0), modeled_config(table, Some(spec))).unwrap();
    let stats = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats.completed_apps(), 2, "retry on the surviving PE must complete the run");
    let r = &stats.reliability;
    assert_eq!(r.watchdog_faults, 1, "{r:?}");
    assert_eq!(r.pes_quarantined, 1, "{r:?}");
    assert_eq!(r.apps_aborted, 0);

    // The pool survives: a second run on the same engine completes even
    // though one manager thread may still be sleeping in the old kernel
    // (its stale completion is discarded whenever it lands).
    let stats2 = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats2.completed_apps(), 2);
    // Let the wedged thread post its stale result and be rehabilitated,
    // then run once more.
    std::thread::sleep(Duration::from_millis(200));
    let stats3 = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats3.completed_apps(), 2);
}

/// A kernel returning `Err` under the recovery policy is a retryable
/// exec fault rather than an immediate abort.
#[test]
fn exec_fault_is_retried_under_recovery_policy() {
    let calls = Arc::new(AtomicUsize::new(0));
    let calls_in_kernel = Arc::clone(&calls);
    let mut reg = KernelRegistry::new();
    reg.register_fn("e.so", "flaky", move |_| {
        if calls_in_kernel.fetch_add(1, Ordering::SeqCst) == 0 {
            Err(ModelError::KernelFailed { kernel: "flaky".into(), reason: "bit flip".into() })
        } else {
            Ok(())
        }
    });
    let mut dag = BTreeMap::new();
    dag.insert(
        "only".to_string(),
        NodeJson {
            arguments: vec![],
            predecessors: vec![],
            successors: vec![],
            platforms: vec![PlatformJson {
                name: "cpu".into(),
                runfunc: "flaky".into(),
                shared_object: None,
                mean_exec_us: None,
            }],
        },
    );
    let json = AppJson {
        app_name: "flaky".into(),
        shared_object: "e.so".into(),
        variables: BTreeMap::new(),
        dag,
    };
    let mut lib = AppLibrary::new();
    lib.register_json(&json, &reg).unwrap();
    let wl = WorkloadSpec::validation([("flaky", 1usize)]).generate(&lib).unwrap();
    let mut table = CostTable::new();
    table.set("flaky", "cortex-a53", Duration::from_micros(100));

    let mut emu = Emulation::with_config(
        zcu102(2, 0),
        modeled_config(table, Some(Arc::new(FaultSpec::default()))),
    )
    .unwrap();
    let stats = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats.completed_apps(), 1);
    let r = &stats.reliability;
    assert_eq!(r.exec_faults, 1, "{r:?}");
    assert_eq!(r.retries, 1);
    assert_eq!(r.apps_aborted, 0);
    assert_eq!(calls.load(Ordering::SeqCst), 2, "exactly one retry");
}

/// When every PE is quarantined with work still outstanding, the run
/// fails with the dedicated `EmuError::Fault` carrying the last fault's
/// context — on both engines.
#[test]
fn all_pes_quarantined_surfaces_fault_error() {
    let (lib, _reg) = diamond_library();
    let wl = WorkloadSpec::validation([("diamond", 1usize)]).generate(&lib).unwrap();
    let spec = Arc::new(FaultSpec {
        transient: vec![RateFault { kernel: None, pe: None, probability: 1.0 }],
        retry: RetryPolicy { max_retries: 10, backoff_us: 10.0, quarantine_after: 1 },
        ..FaultSpec::default()
    });
    let mut emu = Emulation::with_config(
        zcu102(1, 0),
        modeled_config(diamond_cost_table(), Some(Arc::clone(&spec))),
    )
    .unwrap();
    let err = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap_err();
    match &err {
        EmuError::Fault { app, node, .. } => {
            assert_eq!(app, "diamond");
            assert_eq!(node, "src");
        }
        other => panic!("expected EmuError::Fault, got {other:?}"),
    }
    assert!(err.to_string().contains("unrecoverable fault"), "{err}");

    let mut des = DesSimulator::new(
        zcu102(1, 0),
        DesConfig {
            cost: CostSpec::table(diamond_cost_table()),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: Some(spec),
            metrics: None,
        },
    )
    .unwrap();
    let des_err = des.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap_err();
    assert!(matches!(des_err, EmuError::Fault { .. }), "{des_err:?}");
}

/// Retry exhaustion aborts only the faulted application; healthy
/// instances keep completing and the run returns `Ok`.
#[test]
fn retry_exhaustion_aborts_only_the_faulted_app() {
    let (lib, _reg) = diamond_library();
    let wl = WorkloadSpec::validation([("diamond", 3usize)]).generate(&lib).unwrap();
    // Instance-keyed draws: pick a probability where, with two attempts
    // per task, at least one task of some instance faults twice while
    // others survive. p=1.0 on "ksrc" with max_retries=1 aborts every
    // instance deterministically — the strongest version of the claim.
    let spec = Arc::new(FaultSpec {
        transient: vec![RateFault { kernel: Some("ksrc".into()), pe: None, probability: 1.0 }],
        retry: RetryPolicy { max_retries: 1, backoff_us: 10.0, quarantine_after: 100 },
        ..FaultSpec::default()
    });
    let mut emu = Emulation::with_config(
        zcu102(2, 0),
        modeled_config(diamond_cost_table(), Some(Arc::clone(&spec))),
    )
    .unwrap();
    let stats = emu.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats.completed_apps(), 0, "every src attempt faults");
    assert_eq!(stats.reliability.apps_aborted, 3);
    assert_eq!(stats.reliability.retries, 3, "one retry per instance before exhaustion");

    let mut des = DesSimulator::new(
        zcu102(2, 0),
        DesConfig {
            cost: CostSpec::table(diamond_cost_table()),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: Some(spec),
            metrics: None,
        },
    )
    .unwrap();
    let des_stats = des.run(&mut FrfsScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(stats.reliability, des_stats.reliability);
    assert_eq!(stats.makespan, des_stats.makespan);
}

/// Satellite: a failing kernel *without* a fault spec still surfaces as
/// `TaskFailed` with app/node context, and the pool's threads survive
/// the error path — the same engine completes a healthy run afterwards
/// without respawning.
#[test]
fn task_failed_without_faults_leaves_pool_reusable() {
    let mut reg = KernelRegistry::new();
    reg.register_fn("d.so", "boom", |_| {
        Err(ModelError::KernelFailed { kernel: "boom".into(), reason: "injected fault".into() })
    });
    reg.register_fn("d.so", "fine", |_| Ok(()));
    let node = |runfunc: &str| {
        let mut dag = BTreeMap::new();
        dag.insert(
            "n".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec![],
                platforms: vec![PlatformJson {
                    name: "cpu".into(),
                    runfunc: runfunc.into(),
                    shared_object: None,
                    mean_exec_us: None,
                }],
            },
        );
        dag
    };
    let mut lib = AppLibrary::new();
    lib.register_json(
        &AppJson {
            app_name: "bad".into(),
            shared_object: "d.so".into(),
            variables: BTreeMap::new(),
            dag: node("boom"),
        },
        &reg,
    )
    .unwrap();
    lib.register_json(
        &AppJson {
            app_name: "good".into(),
            shared_object: "d.so".into(),
            variables: BTreeMap::new(),
            dag: node("fine"),
        },
        &reg,
    )
    .unwrap();

    let before = dssoc_core::resource::threads_spawned_total();
    let mut table = CostTable::new();
    table.set("boom", "cortex-a53", Duration::from_micros(100));
    table.set("fine", "cortex-a53", Duration::from_micros(100));
    let mut emu = Emulation::with_config(zcu102(2, 0), modeled_config(table, None)).unwrap();

    let bad = WorkloadSpec::validation([("bad", 1usize)]).generate(&lib).unwrap();
    match emu.run(&mut FrfsScheduler::new(), &bad, &lib) {
        Err(EmuError::TaskFailed { app, node, reason }) => {
            assert_eq!(app, "bad");
            assert_eq!(node, "n");
            assert!(reason.contains("injected fault"), "{reason}");
        }
        other => panic!("expected TaskFailed, got {other:?}"),
    }

    let good = WorkloadSpec::validation([("good", 3usize)]).generate(&lib).unwrap();
    let stats = emu.run(&mut FrfsScheduler::new(), &good, &lib).unwrap();
    assert_eq!(stats.completed_apps(), 3);
    assert_eq!(stats.reliability.faults_injected, 0);
    let spawned = dssoc_core::resource::threads_spawned_total() - before;
    assert_eq!(spawned, 2, "both runs share the pool's two threads (no respawn after the error)");
}

/// Satellite: `EmuError` participates in the `std::error::Error` chain
/// — model errors are reachable through `source()`, and the new `Fault`
/// variant formats its context.
#[test]
fn emu_error_source_chain_and_fault_display() {
    let e = EmuError::Model(ModelError::KernelFailed { kernel: "k".into(), reason: "boom".into() });
    let src = std::error::Error::source(&e).expect("Model errors must expose a source");
    assert!(src.to_string().contains("boom"));

    let e = EmuError::Fault {
        app: "radar".into(),
        node: "FFT_0".into(),
        pe: "FFT1".into(),
        reason: "all PEs quarantined with work remaining".into(),
    };
    assert!(std::error::Error::source(&e).is_none());
    let msg = e.to_string();
    assert!(msg.contains("radar/FFT_0") && msg.contains("FFT1"), "{msg}");

    let e = EmuError::Config("deadlock".into());
    assert!(std::error::Error::source(&e).is_none());
    let _ = FaultKind::Exec.name(); // re-exported kind is part of the public surface
}

/// A watchdog-abandoned attempt's completion lands in the *next* run on
/// the same pool: that run keeps the PE quarantined and discards the
/// stale report, and the run after it uses the PE again.
#[test]
fn stale_completion_lands_in_the_next_run_and_is_discarded() {
    let calls = Arc::new(AtomicUsize::new(0));
    let stale_posted = Arc::new(AtomicBool::new(false));
    let mut reg = KernelRegistry::new();
    {
        let (calls, stale_posted) = (Arc::clone(&calls), Arc::clone(&stale_posted));
        reg.register_fn("w.so", "stall_once", move |_| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                // Wedges far past the watchdog deadline, then reports.
                std::thread::sleep(Duration::from_millis(150));
                stale_posted.store(true, Ordering::SeqCst);
            }
            Ok(())
        });
    }
    reg.register_fn("w.so", "slow", |_| {
        std::thread::sleep(Duration::from_millis(4));
        Ok(())
    });
    let mut lib = AppLibrary::new();
    for (app, runfunc) in [("stall", "stall_once"), ("slow", "slow")] {
        let mut dag = BTreeMap::new();
        dag.insert(
            "only".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec![],
                platforms: vec![PlatformJson {
                    name: "cpu".into(),
                    runfunc: runfunc.into(),
                    shared_object: None,
                    mean_exec_us: None,
                }],
            },
        );
        let json = AppJson {
            app_name: app.into(),
            shared_object: "w.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        lib.register_json(&json, &reg).unwrap();
    }
    let mut table = CostTable::new();
    table.set("stall_once", "cortex-a53", Duration::from_micros(200));
    table.set("slow", "cortex-a53", Duration::from_micros(200));
    let spec = Arc::new(FaultSpec {
        watchdog_factor: 2.0,
        watchdog_min_wall_ms: 25.0,
        ..FaultSpec::default()
    });
    let mut emu = Emulation::with_config(zcu102(2, 0), modeled_config(table, Some(spec))).unwrap();

    let stall = WorkloadSpec::validation([("stall", 1usize)]).generate(&lib).unwrap();
    let first = emu.run(&mut FrfsScheduler::new(), &stall, &lib).unwrap();
    assert_eq!(first.reliability.watchdog_faults, 1, "{:?}", first.reliability);
    // The retry completed on the PE that did not wedge.
    let survivor = first.tasks.records()[0].pe;
    let wedged = emu.platform().pes.iter().map(|pe| pe.id).find(|&id| id != survivor).unwrap();
    assert!(!stale_posted.load(Ordering::SeqCst), "the abandoned attempt is still running");

    // ~60 slow tasks on the one PE left: far longer than the stall.
    let slow = WorkloadSpec::validation([("slow", 60usize)]).generate(&lib).unwrap();
    let second = emu.run(&mut FrfsScheduler::new(), &slow, &lib).unwrap();
    assert!(stale_posted.load(Ordering::SeqCst), "the stale completion landed during the run");
    assert_eq!(second.completed_apps(), 60);
    assert!(second.tasks.records().iter().all(|t| t.pe != wedged), "quarantined for the run");
    assert_eq!(second.reliability.faults_injected, 0, "the stale report is no fault");

    // Rehabilitated: the next run spreads over both PEs again.
    let third = emu.run(&mut FrfsScheduler::new(), &slow, &lib).unwrap();
    assert_eq!(third.completed_apps(), 60);
    assert!(third.tasks.records().iter().any(|t| t.pe == wedged), "the PE is back in service");
    assert_eq!(calls.load(Ordering::SeqCst), 2, "one stalled attempt, one retry");
}
