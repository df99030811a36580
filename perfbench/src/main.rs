//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <serve_fresh|serve_replay|emu_sweep> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --print-golden
//! ```
//!
//! One invocation runs one workload in its own process: set-up (timed,
//! repeated after the window, median reported), a closed-loop measured
//! window, then verification of every result outside the window. The
//! last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `NOTES.md`.

mod gen;
mod measure;
mod serve;
mod sweep;
mod verify;

use std::time::Instant;

use measure::Metrics;

/// The benchmark's command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
pub struct RunResult {
    /// Duration of each set-up, seconds; the first, cold one from `main`
    /// to the first timed job.
    pub setup_s: Vec<f64>,
    /// Time of each set-up phase (library, start, prime), ms per set-up.
    pub phases: [Vec<f64>; 3],
    /// Throughput, CPU, latencies and wall time of the untraced window.
    pub window: measure::SliceStats,
    pub peak_rss_mb: f64,
    /// Jobs attempted in every window of the run.
    pub attempted: u64,
    /// Jobs that completed and passed verification.
    pub verified: u64,
    /// Failed verifications and workload-property checks.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
}

const WORKLOADS: [&str; 3] = ["serve_fresh", "serve_replay", "emu_sweep"];

/// Every per-layer metric, with its unit. A traced run reports all of
/// them on every workload; a layer the workload does not go through
/// reads 0 (it did no work there).
const LAYER_METRICS: [(&str, &str); 25] = [
    ("metrics.http.transport_us", "us"),
    ("metrics.http.requests_per_job", "count"),
    ("serve.api.parse_us", "us"),
    ("serve.daemon.route_submit_us", "us"),
    ("serve.daemon.route_result_us", "us"),
    ("serve.daemon.result_bytes", "bytes"),
    ("serve.manager.queue_wait_us", "us"),
    ("serve.manager.outside_engine_us", "us"),
    ("serve.flight.events_per_job", "count"),
    ("core.job.compile_us", "us"),
    ("core.job.cache_get_us", "us"),
    ("core.job.cache_hit_ratio", "share"),
    ("core.des.run_us", "us"),
    ("core.des.ns_per_task", "ns"),
    ("core.des.ns_per_task_bare", "ns"),
    ("core.engine.run_ms", "ms"),
    ("core.engine.ns_per_task", "ns"),
    ("apps.kernel_ms_per_job", "ms"),
    ("core.engine.runtime_overhead_ms", "ms"),
    ("core.sweep.overhead_us_per_cell", "us"),
    ("setup.library_ms", "ms"),
    ("setup.start_ms", "ms"),
    ("setup.prime_ms", "ms"),
    ("setup.cold_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --print-golden",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut args =
        Args { workload: String::new(), seed: verify::GOLDEN_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => args.trace = value.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            _ => return None,
        }
    }
    WORKLOADS.contains(&args.workload.as_str()).then_some(args)
}

/// Digest of `workload`'s golden results.
fn golden_digest(workload: &str) -> u64 {
    let results = match workload {
        "serve_fresh" => serve::golden_results(serve::Kind::Fresh),
        "serve_replay" => serve::golden_results(serve::Kind::Replay),
        _ => sweep::golden_results(verify::GOLDEN_SEED, verify::GOLDEN_JOBS),
    };
    verify::digest(&results)
}

fn print_golden() {
    for workload in WORKLOADS {
        println!("(\"{workload}\", 0x{:016x}),", golden_digest(workload));
    }
}

fn main() {
    let main_start = Instant::now();
    if std::env::args().nth(1).as_deref() == Some("--print-golden") {
        print_golden();
        return;
    }
    let args = parse_args().unwrap_or_else(|| usage());
    let mut run = match args.workload.as_str() {
        "serve_fresh" => serve::run(serve::Kind::Fresh, &args, main_start),
        "serve_replay" => serve::run(serve::Kind::Replay, &args, main_start),
        _ => sweep::run(&args, main_start),
    };
    run.problems.extend(verify::golden_problem(&args.workload, golden_digest(&args.workload)));

    let w = &run.window;
    let metrics = if args.trace {
        let mut m = std::mem::take(&mut run.layers);
        for (name, ms) in
            ["setup.library_ms", "setup.start_ms", "setup.prime_ms"].iter().zip(&run.phases)
        {
            m.set(name, measure::median(ms), "ms");
        }
        // The first set-up alone: `setup_s`, a median, hides a cost that
        // only a cold start pays.
        m.set("setup.cold_ms", run.setup_s[0] * 1e3, "ms");
        for (name, unit) in LAYER_METRICS {
            if !m.0.contains_key(name) {
                m.set(name, 0.0, unit);
            }
        }
        m
    } else {
        end_to_end(&run)
    };

    let failed = run.attempted - run.verified;
    for problem in run.problems.iter().take(20) {
        eprintln!("perfbench: {problem}");
    }
    println!(
        "workload {} seed {} on {} CPUs: {} jobs in {:.3} s, {} slices of at least {} jobs, median steal {:.3} CPU s/s; {} of {} jobs verified",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.jobs,
        w.wall_s,
        w.slices,
        w.fewest_per_slice,
        w.steal_per_s,
        run.verified,
        run.attempted
    );
    for (name, (value, unit)) in &metrics.0 {
        println!("{name:40} {value:>16.6} {unit}");
    }
    let line = serde_json::json!({
        "correct": run.problems.is_empty(),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics.to_json(),
    });
    println!("{}", serde_json::to_string(&line).expect("report serializes"));
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &RunResult) -> Metrics {
    let mut m = Metrics::default();
    // Every attempted job of an untraced run is a window job; jobs that
    // fail verification do not count as completed.
    let verified_share = run.verified as f64 / run.attempted.max(1) as f64;
    m.set("setup_s", measure::median(&run.setup_s), "s");
    m.set("jobs_per_s", run.window.jobs_per_s * verified_share, "1/s");
    m.set("latency_p50_ms", run.window.latency_p50_ms, "ms");
    m.set("latency_p90_ms", run.window.latency_p90_ms, "ms");
    m.set("cpu_ms_per_job", run.window.cpu_ms_per_job, "ms");
    m.set("peak_rss_mb", run.peak_rss_mb, "MB");
    m.set("verified_share", verified_share, "share");
    m
}
