//! Design-space exploration: the paper's headline use case.
//!
//! Sweeps DSSoC configurations (CPU cores × FFT accelerators) and
//! scheduling policies for a mixed radar + WiFi workload, printing the
//! execution-time / utilization matrix a DSSoC architect would use to
//! narrow the configuration space before cycle-accurate simulation —
//! case studies 1 and 2 in miniature.
//!
//! ```sh
//! cargo run --release --bin design_space_exploration
//! ```

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::{InjectionParams, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::prelude::*;
use dssoc_examples::print_run_row;
use dssoc_platform::presets::zcu102;

fn main() {
    let (library, _registry) = standard_library();
    let mut runner = SweepRunner::with_config(&library, EmulationConfig::default());

    // --- Validation-mode configuration sweep (Fig. 9 style).
    println!("== configuration sweep: validation mode, FRFS ==");
    println!("workload: 1x range_detection + 1x wifi_tx + 1x wifi_rx");
    let workload = Arc::new(
        WorkloadSpec::validation([
            ("range_detection", 1usize),
            ("wifi_tx", 1usize),
            ("wifi_rx", 1usize),
        ])
        .generate(&library)
        .expect("workload"),
    );

    let config_cells: Vec<SweepCell> =
        [(1usize, 0usize), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)]
            .iter()
            .map(|&(cores, ffts)| {
                SweepCell::new(zcu102(cores, ffts), "frfs", Arc::clone(&workload))
                    .label(format!("{cores}C+{ffts}F"))
            })
            .collect();
    for result in runner.run_batch(&config_cells).expect("emulation") {
        print_run_row(&result.label, &result.stats);
    }

    // --- Performance-mode scheduler sweep (Fig. 10 style).
    println!();
    println!("== scheduler sweep: performance mode on 3C+2F ==");
    let perf = WorkloadSpec::performance(
        vec![
            InjectionParams {
                app: "range_detection".into(),
                period: Duration::from_micros(800),
                probability: 1.0,
            },
            InjectionParams {
                app: "wifi_tx".into(),
                period: Duration::from_millis(4),
                probability: 1.0,
            },
            InjectionParams {
                app: "wifi_rx".into(),
                period: Duration::from_millis(4),
                probability: 1.0,
            },
        ],
        Duration::from_millis(50),
        7,
    )
    .generate(&library)
    .expect("workload");
    println!(
        "workload: {} arrivals over 50 ms ({:.2} jobs/ms)",
        perf.len(),
        perf.injection_rate_per_ms().unwrap_or(0.0)
    );

    let perf = Arc::new(perf);
    let sched_cells: Vec<SweepCell> = ["frfs", "met", "eft", "random"]
        .iter()
        .map(|&name| SweepCell::new(zcu102(3, 2), name, Arc::clone(&perf)))
        .collect();
    for result in runner.run_batch(&sched_cells).expect("emulation") {
        print_run_row(&result.stats.scheduler.clone(), &result.stats);
    }

    println!();
    println!("(absolute numbers are host-dependent; compare rows, not clocks)");
}
