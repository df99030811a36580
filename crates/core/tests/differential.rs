//! Cross-engine differential tests: the threaded engine in modeled
//! timing and the discrete-event simulator are built on the same
//! scheduling core (`dssoc_core::exec`), so with a fully populated
//! [`CostTable`], no overhead charging, and CPU-only platforms the two
//! must agree on the makespan *exactly* — any divergence means the
//! engines' ready-list, completion, or clock bookkeeping drifted apart.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::fault::{FaultSpec, RateFault, RetryPolicy};
use dssoc_core::job::{CompiledScenario, CostSpec, Engine, JobRunner, ScenarioSpec};
use dssoc_core::prelude::*;
use dssoc_core::sched::by_name;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::{PeDescriptor, PeId, PlatformConfig};
use dssoc_platform::presets::zcu102;

const APPS: [&str; 4] = ["pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"];

/// A deterministic cost table covering every `(runfunc, PE class)` pair
/// the reference apps can hit on `platform`: the JSON `mean_exec_us`
/// when present, otherwise a synthetic per-node duration. Both engines
/// consume this table, so neither ever falls back to host measurement.
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

/// Runs one (platform, scheduler) cell on both engines and returns the
/// two makespans.
fn makespans(platform: &PlatformConfig, scheduler: &str) -> (Duration, Duration) {
    let (emu, des) = run_both(platform, scheduler);
    (emu.makespan, des.makespan)
}

/// Runs one (platform, scheduler) cell on both engines and returns both
/// runs' statistics.
fn run_both(platform: &PlatformConfig, scheduler: &str) -> (EmulationStats, EmulationStats) {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 1usize))).generate(&library).expect("workload");
    let table = full_cost_table(&library, platform);

    let cfg = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table.clone()),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    };
    let mut emu = Emulation::with_config(platform.clone(), cfg).expect("platform");
    let mut sched = by_name(scheduler).expect("library policy");
    let emu_stats = emu.run(sched.as_mut(), &workload, &library).expect("emulation");

    let mut des = DesSimulator::new(
        platform.clone(),
        DesConfig {
            cost: CostSpec::table(table),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics: None,
        },
    )
    .expect("platform");
    let mut sched = by_name(scheduler).expect("library policy");
    let des_stats = des.run(sched.as_mut(), &workload, &library).expect("simulation");

    assert_eq!(emu_stats.completed_apps(), APPS.len());
    assert_eq!(des_stats.completed_apps(), APPS.len());
    assert_eq!(emu_stats.tasks.len(), des_stats.tasks.len());
    (emu_stats, des_stats)
}

#[test]
fn engines_agree_on_cpu_only_configs() {
    for scheduler in ["frfs", "met"] {
        for (cores, ffts) in [(1usize, 0usize), (2, 0), (3, 0)] {
            let platform = zcu102(cores, ffts);
            let (emu, des) = makespans(&platform, scheduler);
            assert_eq!(
                emu, des,
                "threaded-Modeled vs DES diverged: {scheduler} on {cores}C+{ffts}F \
                 (emu {emu:?}, des {des:?})"
            );
        }
    }
}

/// The CPU-only configs above land on either side of the resource
/// pool's spin rule (spin while PE threads ≤ host cores), depending on
/// the host. One more core than the host has forces the park-at-once
/// hand-off on any host, and it must agree with the DES task for task.
/// (`zcu102` caps its presets at 3 cores, so the platform clones its
/// A53 PE.)
#[test]
fn engines_agree_with_more_pes_than_host_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
    let mut platform = zcu102(1, 0);
    let a53 = platform.pes[0].clone();
    platform.pes = (0..cores)
        .map(|i| PeDescriptor { id: PeId(i as u32), name: format!("Core{}", i + 1), ..a53.clone() })
        .collect();
    for scheduler in ["frfs", "met"] {
        let (emu, des) = run_both(&platform, scheduler);
        let tuples = |s: &EmulationStats| -> Vec<_> {
            s.tasks.iter().map(|t| (t.instance, t.node_idx, t.pe, t.start, t.finish)).collect()
        };
        assert_eq!(emu.makespan, des.makespan, "{scheduler} on {cores}C+0F");
        assert_eq!(tuples(&emu), tuples(&des), "{scheduler} on {cores}C+0F");
    }
}

/// The differential invariant must survive the job layer: one shared
/// [`CompiledScenario`] run through a single [`JobRunner`] on both
/// engines yields the same makespan the raw-config runs produce — and
/// on the second pass both answers replay from the result cache
/// without drifting.
#[test]
fn engines_agree_through_job_runner() {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 1usize))).generate(&library).expect("workload");
    let mut jobs = JobRunner::new();
    for scheduler in ["frfs", "met"] {
        for (cores, ffts) in [(2usize, 0usize), (3, 0)] {
            let platform = zcu102(cores, ffts);
            let table = full_cost_table(&library, &platform);
            let spec = ScenarioSpec::builder()
                .library(library.clone())
                .platform(platform.clone())
                .scheduler(scheduler)
                .workload(workload.clone())
                .timing(TimingMode::Modeled)
                .overhead(OverheadMode::None)
                .cost(CostSpec::table(table))
                .build()
                .expect("spec");
            let scenario = CompiledScenario::compile(spec).expect("compile");
            let threaded = jobs.run(&scenario, Engine::Threaded).expect("threaded");
            let des = jobs.run(&scenario, Engine::Des).expect("des");
            assert!(!threaded.cached && !des.cached, "first passes must execute");
            assert_eq!(
                threaded.stats.makespan, des.stats.makespan,
                "JobRunner engines diverged: {scheduler} on {cores}C+{ffts}F"
            );
            // And both must match the raw-config baseline.
            let (emu_mk, des_mk) = makespans(&platform, scheduler);
            assert_eq!(threaded.stats.makespan, emu_mk);
            assert_eq!(des.stats.makespan, des_mk);
            // The deterministic config is cacheable on both engines.
            let replay_t = jobs.run(&scenario, Engine::Threaded).expect("threaded replay");
            let replay_d = jobs.run(&scenario, Engine::Des).expect("des replay");
            assert!(replay_t.cached && replay_d.cached, "replays must hit the cache");
            assert_eq!(replay_t.stats.makespan, threaded.stats.makespan);
            assert_eq!(replay_d.stats.makespan, des.stats.makespan);
        }
    }
}

/// Sorted `(instance, node, pe, start, finish)` tuples of every task
/// slice in `events` — the schedule skeleton a trace records.
fn slice_tuples(events: &[dssoc_trace::TraceEvent]) -> Vec<(u64, u32, u32, u64, u64)> {
    let mut out: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            dssoc_trace::EventKind::TaskSlice {
                instance, node, pe, start_ns, finish_ns, ..
            } => Some((instance, node, pe, start_ns, finish_ns)),
            _ => None,
        })
        .collect();
    out.sort_unstable();
    out
}

/// Both engines traced on the same deterministic cell must emit the
/// same task slices — same task on the same PE over the same interval —
/// because they share the exec-core instrumentation funnels. The trace
/// is therefore a cross-engine diffing artifact, not just a view.
#[test]
fn engines_emit_identical_trace_slices() {
    let platform = zcu102(2, 0);
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 1usize))).generate(&library).expect("workload");
    let table = full_cost_table(&library, &platform);

    let emu_session = dssoc_trace::TraceSession::new();
    let cfg = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table.clone()),
        reservation_depth: 0,
        trace: Some(emu_session.sink()),
        faults: None,
        metrics: None,
    };
    let mut emu = Emulation::with_config(platform.clone(), cfg).expect("platform");
    let mut sched = by_name("frfs").expect("library policy");
    emu.run(sched.as_mut(), &workload, &library).expect("emulation");

    let des_session = dssoc_trace::TraceSession::new();
    let mut des = DesSimulator::new(
        platform,
        DesConfig {
            cost: CostSpec::table(table),
            overhead_per_invocation: Duration::ZERO,
            trace: Some(des_session.sink()),
            faults: None,
            metrics: None,
        },
    )
    .expect("platform");
    let mut sched = by_name("frfs").expect("library policy");
    des.run(sched.as_mut(), &workload, &library).expect("simulation");

    assert_eq!(emu_session.dropped(), 0, "emu trace overflowed its ring");
    assert_eq!(des_session.dropped(), 0, "des trace overflowed its ring");
    let emu_slices = slice_tuples(&emu_session.drain());
    let des_slices = slice_tuples(&des_session.drain());
    assert!(!emu_slices.is_empty(), "emu trace recorded no task slices");
    assert_eq!(
        emu_slices, des_slices,
        "threaded-Modeled and DES traces diverged on (task, pe, start, finish)"
    );
}

/// One fault-family trace event as `(ts, kind, instance, detail, pe)`.
type FaultTuple = (u64, &'static str, u64, u64, u64);

/// The fault-family events of a drained trace as comparable tuples, in
/// canonical stream order (each engine emits trace events from a single
/// consumer thread, so drained order is emission order).
fn fault_tuples(events: &[dssoc_trace::TraceEvent]) -> Vec<FaultTuple> {
    use dssoc_trace::EventKind;
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

/// One traced run of the reference workload under `spec`'s faults:
/// `(makespan, reliability counters, fault event tuples)`.
fn faulty_run(
    platform: &PlatformConfig,
    scheduler: &str,
    spec: &Arc<FaultSpec>,
    des: bool,
) -> (Duration, dssoc_core::ReliabilityCounters, Vec<FaultTuple>) {
    let (library, _registry) = standard_library();
    let workload =
        WorkloadSpec::validation(APPS.map(|a| (a, 1usize))).generate(&library).expect("workload");
    let table = full_cost_table(&library, platform);
    let session = dssoc_trace::TraceSession::new();
    let mut sched = by_name(scheduler).expect("library policy");
    let stats = if des {
        let mut sim = DesSimulator::new(
            platform.clone(),
            DesConfig {
                cost: CostSpec::table(table),
                overhead_per_invocation: Duration::ZERO,
                trace: Some(session.sink()),
                faults: Some(Arc::clone(spec)),
                metrics: None,
            },
        )
        .expect("platform");
        sim.run(sched.as_mut(), &workload, &library).expect("simulation")
    } else {
        let cfg = EmulationConfig {
            timing: TimingMode::Modeled,
            overhead: OverheadMode::None,
            cost: CostSpec::table(table),
            reservation_depth: 0,
            trace: Some(session.sink()),
            faults: Some(Arc::clone(spec)),
            metrics: None,
        };
        let mut emu = Emulation::with_config(platform.clone(), cfg).expect("platform");
        emu.run(sched.as_mut(), &workload, &library).expect("emulation")
    };
    assert_eq!(session.dropped(), 0, "trace ring overflowed");
    (stats.makespan, stats.reliability, fault_tuples(&session.drain()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded `FaultSpec`, the threaded-Modeled engine and the
    /// DES inject byte-identical fault sequences and agree on the
    /// resulting makespan and reliability counters — fault decisions
    /// are pure functions of the seed and task identity, never of host
    /// timing. Transient-only spec: retries stay on live PEs (the
    /// quarantine threshold is unreachable), so every drawn fault is
    /// recoverable and the runs always return `Ok`.
    #[test]
    fn engines_agree_under_seeded_faults(
        seed in any::<u64>(),
        prob in 0.05f64..0.35,
        cores in 2usize..4,
    ) {
        let spec = Arc::new(FaultSpec {
            seed,
            transient: vec![RateFault { kernel: None, pe: None, probability: prob }],
            retry: RetryPolicy { max_retries: 2, backoff_us: 50.0, quarantine_after: 1000 },
            ..FaultSpec::default()
        });
        let platform = zcu102(cores, 0);
        for scheduler in ["frfs", "met"] {
            let (emu_mk, emu_rel, emu_faults) = faulty_run(&platform, scheduler, &spec, false);
            let (des_mk, des_rel, des_faults) = faulty_run(&platform, scheduler, &spec, true);
            prop_assert_eq!(emu_mk, des_mk, "makespan diverged under {} (seed {})", scheduler, seed);
            prop_assert_eq!(&emu_rel, &des_rel, "counters diverged under {} (seed {})", scheduler, seed);
            prop_assert_eq!(emu_faults, des_faults, "fault sequences diverged under {} (seed {})", scheduler, seed);
            // The same seed must reproduce the same run wholesale.
            let (mk2, rel2, faults2) = faulty_run(&platform, scheduler, &spec, false);
            prop_assert_eq!(emu_mk, mk2);
            prop_assert_eq!(&emu_rel, &rel2);
            prop_assert_eq!(des_faults, faults2);
        }
    }
}
