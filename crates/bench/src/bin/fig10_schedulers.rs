//! Fig. 10 — workload execution time (a) and average scheduling
//! overhead (b) vs injection rate, for EFT / MET / FRFS on the 3C+2F
//! configuration in performance mode.
//!
//! Expected shape (paper §III-D): FRFS wins on execution time with a
//! near-constant overhead; MET and EFT pay per-ready-task computation on
//! every completion, so their overhead grows with the injection rate and
//! their execution time blows up at overload (the paper's FRFS overhead
//! is ~2.5 us flat; EFT reaches milliseconds per invocation).
//!
//! ```sh
//! cargo run --release --bin fig10_schedulers [frame_ms]
//! ```

use std::sync::Arc;
use std::time::Duration;

use dssoc_apps::standard_library;
use dssoc_bench::report::BenchReport;
use dssoc_bench::{run_sweep_with_progress, sweep_workers, table2_workload};
use dssoc_core::platform_preset;
use dssoc_core::prelude::*;

fn main() {
    let frame_ms: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(100);
    let (library, _registry) = standard_library();
    let platform = Arc::new(platform_preset("zcu102:3C+2F").expect("preset"));
    let frame = Duration::from_millis(frame_ms);
    // The paper's Table II rates.
    let rates = [1.71, 2.28, 3.42, 4.57, 6.92];

    println!("== Fig. 10: schedulers on 3C+2F, performance mode ({frame_ms} ms frame) ==");
    println!();
    println!(
        "{:>6} | {:>12} {:>12} {:>12} | {:>10} {:>10} {:>10}",
        "rate", "EFT (ms)", "MET (ms)", "FRFS (ms)", "EFT ovh", "MET ovh", "FRFS ovh"
    );

    // One flat grid — rates × schedulers — through the batch sweep API.
    let schedulers = ["eft", "met", "frfs"];
    let cells: Vec<SweepCell> = rates
        .iter()
        .flat_map(|&rate| {
            let workload = Arc::new(table2_workload(&library, rate, frame, true, 42));
            let platform = &platform;
            schedulers.iter().map(move |&name| {
                SweepCell::new(Arc::clone(platform), name, Arc::clone(&workload))
                    .label(format!("{rate:.2}/{name}"))
            })
        })
        .collect();
    let results = run_sweep_with_progress(
        SweepRunner::with_config(&library, EmulationConfig::default()),
        &cells,
        sweep_workers(1),
    )
    .expect("sweep");

    let mut report = BenchReport::new("fig10");
    let mut rows: Vec<(f64, Vec<(f64, f64)>)> = Vec::new();
    for (&rate, chunk) in rates.iter().zip(results.chunks(schedulers.len())) {
        let row: Vec<(f64, f64)> = chunk
            .iter()
            .map(|r| {
                (
                    r.stats.makespan.as_secs_f64() * 1e3,
                    r.stats.avg_sched_overhead().as_secs_f64() * 1e6,
                )
            })
            .collect();
        for (r, &(ms, ovh_us)) in chunk.iter().zip(&row) {
            report.set_f64(format!("makespan_ms_{}", r.label), ms);
            report.set_f64(format!("sched_overhead_us_{}", r.label), ovh_us);
        }
        println!(
            "{:>6.2} | {:>12.2} {:>12.2} {:>12.2} | {:>8.2}us {:>8.2}us {:>8.2}us",
            rate, row[0].0, row[1].0, row[2].0, row[0].1, row[1].1, row[2].1
        );
        rows.push((rate, row));
    }

    // --- Shape checks (paper Fig. 10).
    println!();
    println!("== shape checks ==");
    let last = &rows[rows.len() - 1].1;
    let first = &rows[0].1;
    let checks: Vec<(String, bool)> = vec![
        (
            format!(
                "FRFS beats MET beats EFT at the top rate: {:.1} < {:.1} < {:.1} ms",
                last[2].0, last[1].0, last[0].0
            ),
            last[2].0 < last[1].0 && last[1].0 < last[0].0,
        ),
        (
            format!(
                "FRFS overhead ~flat: {:.2} -> {:.2} us (EFT grows {:.1}x, FRFS {:.1}x)",
                first[2].1,
                last[2].1,
                last[0].1 / first[0].1,
                last[2].1 / first[2].1
            ),
            // The paper's claim is relative: FRFS stays (near) constant
            // while the sophisticated policies' overhead scales with the
            // ready-queue length.
            last[2].1 < first[2].1 * 5.0
                && (last[0].1 / first[0].1) > 1.5 * (last[2].1 / first[2].1),
        ),
        (
            format!("MET overhead grows with rate: {:.2} -> {:.2} us", first[1].1, last[1].1),
            last[1].1 > first[1].1 * 2.0,
        ),
        (
            format!("EFT overhead grows with rate: {:.2} -> {:.2} us", first[0].1, last[0].1),
            last[0].1 > first[0].1 * 2.0,
        ),
        (
            format!(
                "EFT overhead exceeds MET exceeds FRFS at the top rate: {:.1} > {:.1} > {:.1} us",
                last[0].1, last[1].1, last[2].1
            ),
            last[0].1 > last[1].1 && last[1].1 > last[2].1,
        ),
    ];
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
