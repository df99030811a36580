//! Batch-sweep behavior tests: parallel grids must be indistinguishable
//! from sequential ones (same labels, same makespans, same first error),
//! and the DES must fail loudly — not hang — when a scheduler never
//! dispatches anything.

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::Workload;
use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::job::CostSpec;
use dssoc_core::prelude::*;
use dssoc_core::sched::{Assignment, PeView, ReadyView, SchedContext, Scheduler};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

const APPS: [&str; 4] = ["pulse_doppler", "range_detection", "wifi_tx", "wifi_rx"];

/// A deterministic cost table covering every `(runfunc, PE class)` pair
/// the reference apps can hit on any of `platforms` — with it, neither
/// engine falls back to host-time measurement, so repeated runs of a
/// cell produce bit-identical makespans.
fn full_cost_table(library: &AppLibrary, platforms: &[&PlatformConfig]) -> CostTable {
    let mut table = CostTable::new();
    for app in APPS {
        let spec = library.get(app).expect("reference app");
        for node in &spec.nodes {
            for platform in platforms {
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
    }
    table
}

fn setup() -> (AppLibrary, Arc<Workload>) {
    let (library, _registry) = standard_library();
    let workload = Arc::new(
        WorkloadSpec::validation(APPS.map(|a| (a, 1usize))).generate(&library).expect("workload"),
    );
    (library, workload)
}

/// An 8-cell grid: 2 platform shapes × the 4 library schedulers
/// (RANDOM resolves to a fixed seed, so every cell is deterministic).
fn grid(workload: &Arc<Workload>) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for platform in [zcu102(2, 0), zcu102(3, 0)] {
        for scheduler in ["frfs", "met", "eft", "random"] {
            cells.push(SweepCell::new(platform.clone(), scheduler, Arc::clone(workload)));
        }
    }
    cells
}

fn assert_same_results(sequential: &[CellResult], parallel: &[CellResult]) {
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(parallel) {
        assert_eq!(s.label, p.label, "cell order must be preserved");
        assert_eq!(
            s.makespans_ms, p.makespans_ms,
            "parallel run of '{}' diverged from sequential",
            s.label
        );
        assert_eq!(s.stats.completed_apps(), APPS.len());
    }
}

#[test]
fn des_parallel_batch_matches_sequential() {
    let (library, workload) = setup();
    let table = full_cost_table(&library, &[&zcu102(2, 0), &zcu102(3, 0)]);
    let config = DesConfig {
        cost: CostSpec::table(table),
        overhead_per_invocation: Duration::ZERO,
        trace: None,
        faults: None,
        metrics: None,
    };
    let cells = grid(&workload);

    let sequential =
        DesSweepRunner::with_config(&library, config.clone()).run_batch(&cells).expect("grid");
    let parallel =
        DesSweepRunner::with_config(&library, config).run_batch_parallel(&cells, 4).expect("grid");
    assert_same_results(&sequential, &parallel);
}

#[test]
fn threaded_parallel_batch_matches_sequential() {
    let (library, workload) = setup();
    let table = full_cost_table(&library, &[&zcu102(2, 0), &zcu102(3, 0)]);
    let config = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    };
    let cells = grid(&workload);

    let sequential =
        SweepRunner::with_config(&library, config.clone()).run_batch(&cells).expect("grid");
    let parallel =
        SweepRunner::with_config(&library, config).run_batch_parallel(&cells, 4).expect("grid");
    assert_same_results(&sequential, &parallel);
}

#[test]
fn parallel_batch_reports_first_error() {
    let (library, workload) = setup();
    let mut cells = grid(&workload);
    // Two bad cells; the one at the lower index must win, as it would
    // sequentially.
    cells[3].scheduler = "heft".into();
    cells[6].scheduler = "bogus".into();

    let err = DesSweepRunner::with_config(&library, DesConfig::default())
        .run_batch_parallel(&cells, 4)
        .expect_err("bad cell");
    assert!(err.to_string().contains("heft"), "expected the lower-indexed failure, got: {err}");
}

/// A policy that never dispatches anything: the DES must detect that no
/// progress is possible and return a deadlock error instead of spinning
/// or silently dropping tasks.
struct NeverScheduler;

impl Scheduler for NeverScheduler {
    fn name(&self) -> &'static str {
        "NEVER"
    }

    fn schedule_into(
        &mut self,
        _ready: &ReadyView<'_>,
        _pes: &[PeView<'_>],
        _ctx: &SchedContext,
        _out: &mut Vec<Assignment>,
    ) {
    }
}

#[test]
fn des_reports_deadlock_when_scheduler_never_dispatches() {
    let (library, workload) = setup();
    let mut sim = DesSimulator::new(zcu102(2, 0), DesConfig::default()).expect("platform");
    let err = sim.run(&mut NeverScheduler, &workload, &library).expect_err("no progress");
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "expected deadlock diagnosis, got: {msg}");
    assert!(msg.contains("NEVER"), "error should name the policy: {msg}");
}
