//! Fig. 9 — validation-mode execution time (a) and PE utilization (b)
//! across DSSoC configurations.
//!
//! Paper setup: one instance each of pulse Doppler, range detection, and
//! WiFi on ZCU102; FRFS; 50 iterations for the box plot; configurations
//! 1C+0F, 1C+1F, 1C+2F, 2C+0F, 2C+1F, 2C+2F, 3C+0F.
//!
//! Expected shape (paper §III-C): execution time improves with PE count;
//! adding a CPU core helps more than adding a 128-point FFT accelerator
//! (DMA overhead dominates small transforms); 2C+2F ≈ 2C+1F because the
//! two accelerator manager threads share a host core and preempt each
//! other; 3C+0F is best.
//!
//! ```sh
//! cargo run --release --bin fig9_validation [iterations]
//! ```

use std::sync::Arc;

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_bench::report::BenchReport;
use dssoc_bench::{print_summary_row, run_sweep_with_progress, summarize, sweep_workers};
use dssoc_core::platform_preset;
use dssoc_core::prelude::*;

fn main() {
    let iterations: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(50);
    let (library, _registry) = standard_library();
    // The paper's workload: single instances of Pulse Doppler, range
    // detection, and WiFi.
    let workload = Arc::new(
        WorkloadSpec::validation([
            ("pulse_doppler", 1usize),
            ("range_detection", 1usize),
            ("wifi_tx", 1usize),
            ("wifi_rx", 1usize),
        ])
        .generate(&library)
        .expect("workload"),
    );

    println!(
        "== Fig. 9(a): workload execution time, validation mode, FRFS ({iterations} iterations) =="
    );
    println!();

    let configs = [(1usize, 0usize), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)];
    let cells: Vec<SweepCell> = configs
        .iter()
        .map(|&(cores, ffts)| {
            SweepCell::new(
                platform_preset(&format!("zcu102:{cores}C+{ffts}F")).expect("preset"),
                "frfs",
                Arc::clone(&workload),
            )
            .label(format!("{cores}C+{ffts}F"))
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

    let mut report = BenchReport::new("fig9");
    let mut medians = Vec::new();
    for (&(cores, ffts), result) in configs.iter().zip(&results) {
        let s = summarize(&result.makespans_ms);
        print_summary_row(&result.label, &s, "ms");
        report.set_f64(format!("median_ms_{}", result.label), s.median);
        medians.push(((cores, ffts), s.median));
    }

    println!();
    println!("== Fig. 9(b): mean PE utilization (last iteration) ==");
    println!();
    for result in &results {
        print!("{} : ", result.label);
        for (pe, u) in result.stats.utilizations() {
            print!("{}={:.1}%  ", result.stats.pe_names[&pe], u * 100.0);
        }
        println!();
    }

    // --- Shape checks against the paper's findings.
    println!();
    println!("== shape checks (paper §III-C) ==");
    let med =
        |c: usize, f: usize| medians.iter().find(|((cc, ff), _)| *cc == c && *ff == f).unwrap().1;
    let checks: Vec<(String, bool)> = vec![
        (
            format!("3C+0F is the best configuration ({:.2} ms)", med(3, 0)),
            configs.iter().all(|&(c, f)| med(3, 0) <= med(c, f) * 1.05),
        ),
        (
            format!(
                "adding a core beats adding an accelerator: 2C+1F {:.2} < 1C+2F {:.2}",
                med(2, 1),
                med(1, 2)
            ),
            med(2, 1) < med(1, 2),
        ),
        (
            format!(
                "2C+2F ~ 2C+1F (shared-core accel managers): {:.2} vs {:.2}",
                med(2, 2),
                med(2, 1)
            ),
            (med(2, 2) - med(2, 1)).abs() / med(2, 1) < 0.25,
        ),
        (
            format!(
                "more PEs help: 1C+0F {:.2} > 2C+0F {:.2} > 3C+0F {:.2}",
                med(1, 0),
                med(2, 0),
                med(3, 0)
            ),
            med(1, 0) > med(2, 0) && med(2, 0) > med(3, 0),
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
