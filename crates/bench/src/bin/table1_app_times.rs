//! Table I — application execution time and task count on the paper's
//! 3-core + 2-FFT configuration under FRFS.
//!
//! ```text
//! Application       Execution Time (ms)   Task Count     (paper)
//! Range Detection   0.32                  6
//! Pulse Doppler     5.60                  770
//! WiFi TX           0.13                  7
//! WiFi RX           2.22                  9
//! ```
//!
//! ```sh
//! cargo run --release --bin table1_app_times
//! ```

use std::sync::Arc;

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_bench::report::BenchReport;
use dssoc_bench::{run_sweep_with_progress, summarize, sweep_workers};
use dssoc_core::platform_preset;
use dssoc_core::prelude::*;

fn main() {
    let (library, _registry) = standard_library();
    let platform = Arc::new(platform_preset("zcu102:3C+2F").expect("preset"));
    let iterations = 10;

    println!(
        "== Table I: standalone application execution on 3C+2F, FRFS ({iterations} iterations) =="
    );
    println!();
    println!(
        "{:<18} {:>18} {:>12}   {:>10}",
        "Application", "Exec Time (ms)", "Task Count", "paper (ms)"
    );

    let paper =
        [("range_detection", 0.32), ("pulse_doppler", 5.60), ("wifi_tx", 0.13), ("wifi_rx", 2.22)];
    let cells: Vec<SweepCell> = paper
        .iter()
        .map(|&(app, _)| {
            let workload = Arc::new(
                WorkloadSpec::validation([(app, 1usize)]).generate(&library).expect("workload"),
            );
            SweepCell::new(Arc::clone(&platform), "frfs", workload)
                .label(app)
                .iterations(iterations)
                .warmup(iterations > 1)
        })
        .collect();
    let results = run_sweep_with_progress(
        SweepRunner::with_config(&library, EmulationConfig::default()),
        &cells,
        sweep_workers(1),
    )
    .expect("sweep");

    let mut report = BenchReport::new("table1");
    for ((app, paper_ms), result) in paper.iter().zip(&results) {
        let s = summarize(&result.makespans_ms);
        report.set_f64(format!("median_ms_{app}"), s.median);
        report.set(format!("tasks_{app}"), serde_json::to_value(&result.stats.tasks.len()));
        println!(
            "{:<18} {:>18.3} {:>12}   {:>10.2}",
            app,
            s.median,
            result.stats.tasks.len(),
            paper_ms
        );
    }
    println!();
    println!("task counts must match the paper exactly; times are relative to this host.");
    if let Ok(path) = report.write() {
        println!("summary merged into {}", path.display());
    }
}
