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
//! Exits non-zero (a shape-check `MISMATCH`) if any task count differs
//! from the paper's or pulse Doppler is not the slowest application.
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

    // (app, paper ms, paper task count)
    let paper = [
        ("range_detection", 0.32, 6),
        ("pulse_doppler", 5.60, 770),
        ("wifi_tx", 0.13, 7),
        ("wifi_rx", 2.22, 9),
    ];
    let cells: Vec<SweepCell> = paper
        .iter()
        .map(|&(app, _, _)| {
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
    let mut checks = Vec::new();
    let mut medians = Vec::new();
    for (&(app, paper_ms, paper_tasks), result) in paper.iter().zip(&results) {
        let s = summarize(&result.makespans_ms);
        let tasks = result.stats.tasks.len();
        report.set_f64(format!("median_ms_{app}"), s.median);
        report.set(format!("tasks_{app}"), serde_json::to_value(&tasks));
        println!("{:<18} {:>18.3} {:>12}   {:>10.2}", app, s.median, tasks, paper_ms);
        checks.push((
            format!("{app} runs {tasks} tasks (paper: {paper_tasks})"),
            tasks == paper_tasks,
        ));
        medians.push((app, s.median));
    }
    let slowest = medians.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|&(app, _)| app);
    checks.push((
        format!("pulse_doppler is the slowest application (slowest: {})", slowest.unwrap_or("-")),
        slowest == Some("pulse_doppler"),
    ));

    // --- Shape checks: task counts match the paper exactly; times are
    // relative to this host, so only their ordering's head is checked.
    println!();
    println!("== shape checks (paper Table I) ==");
    let mut all_ok = true;
    for (desc, ok) in checks {
        println!("  [{}] {desc}", if ok { "ok" } else { "MISMATCH" });
        all_ok &= ok;
    }
    report.set("shape_checks_ok", serde_json::to_value(&all_ok));
    if let Ok(path) = report.write() {
        println!();
        println!("summary merged into {}", path.display());
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
