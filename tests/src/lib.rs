//! Shared fixtures for the cross-crate integration tests.
//!
//! The tests themselves live in `tests/tests/`; this small library holds
//! the helpers they share.

use std::time::Duration;

use dssoc_appmodel::{AppLibrary, Workload, WorkloadSpec};
use dssoc_core::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::CostSpec;
use dssoc_core::stats::{EmulationStats, InstanceImages};
use dssoc_core::Scheduler;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;

/// Builds a deterministic engine config: modeled timing, no overhead
/// charge, costs from `table`.
pub fn deterministic_config(table: CostTable) -> EmulationConfig {
    EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    }
}

/// Builds the default engine config used by most integration tests:
/// modeled timing with measured (host-scaled) costs and overhead.
pub fn default_config() -> EmulationConfig {
    EmulationConfig::default()
}

/// Runs a validation workload of `counts` on `platform` under
/// `scheduler` and returns the summary and the instances' final memory.
pub fn run_validation(
    platform: PlatformConfig,
    scheduler: &mut dyn Scheduler,
    library: &AppLibrary,
    counts: &[(&str, usize)],
    config: EmulationConfig,
) -> (EmulationStats, InstanceImages) {
    let wl = WorkloadSpec::validation(counts.iter().map(|&(n, c)| (n.to_string(), c)))
        .generate(library)
        .expect("workload generation");
    run_workload(platform, scheduler, library, &wl, config)
}

/// Runs an arbitrary workload and returns the summary and the
/// instances' final memory.
pub fn run_workload(
    platform: PlatformConfig,
    scheduler: &mut dyn Scheduler,
    library: &AppLibrary,
    workload: &Workload,
    config: EmulationConfig,
) -> (EmulationStats, InstanceImages) {
    let mut emu = Emulation::with_config(platform, config).expect("platform config");
    emu.run_with_images(scheduler, workload, library).expect("emulation run")
}

/// A cost table assigning `per_task` to every `(kernel, class)` pair in
/// the given kernel/class lists.
pub fn uniform_cost_table(kernels: &[&str], classes: &[&str], per_task: Duration) -> CostTable {
    let mut t = CostTable::new();
    for k in kernels {
        for c in classes {
            t.set(*k, *c, per_task);
        }
    }
    t
}
