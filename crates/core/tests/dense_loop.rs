//! Pins the DES FIFO placement to the policy path. The DES has one event
//! loop with two placements: a policy that declares `dense_fifo()` (FRFS)
//! on a ≤64-PE platform is placed by the engine from the SoA
//! compatibility masks and the idle-PE mask, and every other policy is
//! called through `dyn Scheduler` and validated. The reference here is
//! `GeneralFrfs`: the same FRFS policy behind a wrapper that hides
//! `dense_fifo()`, so the engine must take the policy path.
//!
//! Both must produce bit-identical stats — every task record field, app
//! records, per-PE busy time, makespan, scheduler-invocation count, the
//! overhead breakdown and the reliability counters — on a heterogeneous
//! platform with staggered arrivals, so scheduling interleaves with
//! completions. That holds with no observer, with live metrics, with a
//! trace sink, and with a fault plan, each with and without
//! per-invocation overhead charging; the metric samples and trace events
//! themselves must match too. On a platform with more than 64 PEs FRFS
//! takes the policy path as well, and still agrees.

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::InjectionParams;
use dssoc_appmodel::{Workload, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::fault::{FaultSpec, PermanentFault, RateFault};
use dssoc_core::job::CostSpec;
use dssoc_core::prelude::*;
use dssoc_core::sched::{Assignment, PeView, ReadyView, SchedContext};
use dssoc_core::stats::OverheadBreakdown;
use dssoc_metrics::MetricsRegistry;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::{PeDescriptor, PeId, PlatformConfig};
use dssoc_platform::presets::zcu102;
use dssoc_trace::TraceSession;

const APPS: [&str; 4] = ["pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"];

/// Deterministic cost table covering every `(runfunc, PE class)` pair
/// the reference apps can hit on `platform` (same recipe as the
/// cross-engine differential suite).
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

/// Delegates every scheduling decision to [`FrfsScheduler`] but keeps
/// the default `dense_fifo() == false`, so the engine must call the
/// policy with `PeView`s and validate its assignments — the reference
/// behavior the FIFO placement is pinned against.
struct GeneralFrfs(FrfsScheduler);

impl Scheduler for GeneralFrfs {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    ) {
        self.0.schedule_into(ready, pes, ctx, out)
    }

    fn uses_estimates(&self) -> bool {
        false
    }
}

/// Everything observable a DES run produces, flattened into comparable
/// owned tuples (task and app records carry interned `Name`s whose ids
/// differ across independent runs, so compare by string).
type Fingerprint = (
    Duration,
    u64,
    OverheadBreakdown,
    Vec<(u32, Duration)>,
    Vec<(u64, String, String, usize, String, u32, u64, u64, u64, Duration, Duration)>,
    Vec<(u64, String, u64, u64, usize)>,
);

fn fingerprint(stats: &EmulationStats) -> Fingerprint {
    (
        stats.makespan,
        stats.sched_invocations,
        stats.overhead,
        stats.pe_busy.iter().map(|(pe, d)| (pe.0, *d)).collect(),
        stats
            .tasks
            .iter()
            .map(|t| {
                (
                    t.instance.0,
                    t.app.as_str().to_owned(),
                    t.node.as_str().to_owned(),
                    t.node_idx,
                    t.kernel.as_str().to_owned(),
                    t.pe.0,
                    t.ready_at.0,
                    t.start.0,
                    t.finish.0,
                    t.modeled,
                    t.measured,
                )
            })
            .collect(),
        stats
            .apps
            .iter()
            .map(|a| {
                (a.instance.0, a.app.as_str().to_owned(), a.arrival.0, a.finish.0, a.task_count)
            })
            .collect(),
    )
}

/// Staggered arrivals of all four reference apps.
fn staggered_workload(library: &AppLibrary) -> Workload {
    let injections = APPS
        .iter()
        .map(|a| InjectionParams {
            app: (*a).to_owned(),
            period: Duration::from_micros(40),
            probability: 0.8,
        })
        .collect();
    WorkloadSpec::performance(injections, Duration::from_millis(2), 7)
        .generate(library)
        .expect("workload")
}

/// What a run is observed with.
#[derive(Debug, Clone, Copy)]
enum Observer {
    None,
    Metrics,
    Trace,
    Faults,
}

/// A run's stats plus what its observer recorded: the metric samples or
/// the trace events as comparable strings (empty for the others).
struct Observed {
    stats: EmulationStats,
    recorded: Vec<String>,
}

/// Runs `workload` on a fresh simulator with `observer` attached.
fn run_observed(
    platform: &PlatformConfig,
    table: &CostTable,
    overhead: Duration,
    observer: Observer,
    scheduler: &mut dyn Scheduler,
    workload: &Workload,
    library: &AppLibrary,
) -> Observed {
    let metrics = matches!(observer, Observer::Metrics).then(MetricsRegistry::new);
    let session = matches!(observer, Observer::Trace).then(|| TraceSession::with_capacity(1 << 20));
    // One accelerator dies, the other and one core fail transiently, and
    // a third core hangs now and then: retries, quarantine, degraded
    // dispatch and hang deadlines (which read the estimate book) all
    // happen, and two cores survive.
    let faults = matches!(observer, Observer::Faults).then(|| {
        Arc::new(FaultSpec {
            seed: 11,
            permanent: vec![PermanentFault { pe: 3, at_us: 300.0 }],
            transient: vec![
                RateFault { kernel: None, pe: Some(4), probability: 0.02 },
                RateFault { kernel: None, pe: Some(1), probability: 0.001 },
            ],
            hangs: vec![RateFault { kernel: None, pe: Some(2), probability: 0.001 }],
            ..FaultSpec::default()
        })
    });
    let config = DesConfig {
        cost: CostSpec::table(table.clone()),
        overhead_per_invocation: overhead,
        trace: session.as_ref().map(TraceSession::sink),
        faults,
        metrics: metrics.clone(),
    };
    let mut des = DesSimulator::new(platform.clone(), config).expect("platform");
    let stats = des.run(scheduler, workload, library).expect("simulation");
    let mut recorded: Vec<String> = Vec::new();
    if let Some(registry) = metrics {
        recorded.extend(registry.snapshot().samples.iter().map(|s| format!("{s:?}")));
    }
    if let Some(session) = session {
        assert_eq!(session.dropped(), 0, "trace ring overflowed");
        recorded.extend(session.drain().iter().map(|e| format!("{} {:?}", e.ts_ns, e.kind)));
    }
    Observed { stats, recorded }
}

#[test]
fn dense_loop_matches_general_loop() {
    let (library, _registry) = standard_library();
    let platform = zcu102(3, 2);
    let table = full_cost_table(&library, &platform);
    let workload = staggered_workload(&library);

    for overhead in [Duration::ZERO, Duration::from_nanos(700)] {
        // Bare FIFO placement, cold then warm (scratch reuse).
        let config = DesConfig {
            cost: CostSpec::table(table.clone()),
            overhead_per_invocation: overhead,
            trace: None,
            faults: None,
            metrics: None,
        };
        let mut des = DesSimulator::new(platform.clone(), config).expect("platform");
        let mut frfs = FrfsScheduler::new();
        let cold = des.run(&mut frfs, &workload, &library).expect("cold");
        let warm = des.run(&mut frfs, &workload, &library).expect("warm");
        let want = fingerprint(&cold);
        assert!(!cold.tasks.is_empty(), "workload produced no tasks");
        assert_eq!(fingerprint(&warm), want, "warm run diverged (overhead {overhead:?})");

        for observer in [Observer::None, Observer::Metrics, Observer::Trace, Observer::Faults] {
            let run = |scheduler: &mut dyn Scheduler| {
                run_observed(&platform, &table, overhead, observer, scheduler, &workload, &library)
            };
            let fifo = run(&mut FrfsScheduler::new());
            let policy = run(&mut GeneralFrfs(FrfsScheduler::new()));
            let label = format!("{observer:?}, overhead {overhead:?}");
            assert_eq!(
                fingerprint(&fifo.stats),
                fingerprint(&policy.stats),
                "FIFO placement diverged from the policy path ({label})"
            );
            assert_eq!(
                fifo.stats.reliability, policy.stats.reliability,
                "reliability counters diverged ({label})"
            );
            assert_eq!(fifo.recorded, policy.recorded, "observer records diverged ({label})");
            match observer {
                // Observers never change the simulated outcome.
                Observer::None | Observer::Metrics | Observer::Trace => {
                    assert_eq!(fingerprint(&fifo.stats), want, "{label} changed the run")
                }
                Observer::Faults => {
                    let r = &fifo.stats.reliability;
                    assert!(
                        r.retries > 0 && r.pes_quarantined > 0 && r.tasks_degraded > 0,
                        "fault plan exercised too little: {r:?}"
                    );
                }
            }
            if matches!(observer, Observer::Metrics | Observer::Trace) {
                assert!(!fifo.recorded.is_empty(), "{label}: nothing recorded");
            }
        }
    }
}

/// More PEs than the FIFO placement's 64-bit masks hold: FRFS must take
/// the policy path (a truncated mask would misplace tasks) and agree
/// with the reference, with and without metrics.
#[test]
fn more_than_64_pes_take_the_policy_path() {
    let (library, _registry) = standard_library();
    let mut platform = zcu102(1, 0);
    let a53 = platform.pes[0].clone();
    platform.pes = (0..70)
        .map(|i| PeDescriptor { id: PeId(i), name: format!("Core{}", i + 1), ..a53.clone() })
        .collect();
    let table = full_cost_table(&library, &platform);
    let workload = staggered_workload(&library);
    for observer in [Observer::None, Observer::Metrics] {
        let run = |scheduler: &mut dyn Scheduler| {
            run_observed(
                &platform,
                &table,
                Duration::ZERO,
                observer,
                scheduler,
                &workload,
                &library,
            )
        };
        let frfs = run(&mut FrfsScheduler::new());
        let policy = run(&mut GeneralFrfs(FrfsScheduler::new()));
        assert!(!frfs.stats.tasks.is_empty(), "workload produced no tasks");
        assert!(
            frfs.stats.tasks.iter().any(|t| t.pe.0 >= 64),
            "the run never used a PE past column 63"
        );
        assert_eq!(fingerprint(&frfs.stats), fingerprint(&policy.stats), "{observer:?}");
        assert_eq!(frfs.recorded, policy.recorded, "{observer:?}");
    }
}
