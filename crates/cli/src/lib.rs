//! Argument parsing and orchestration for the `dssoc-emu` executable —
//! the paper's "lightweight Linux application": pick a platform
//! configuration, a scheduling policy, and an operation mode, run the
//! emulation, and print the collected statistics.
//!
//! ```text
//! dssoc-emu run --platform zcu102:3C+2F --scheduler frfs \
//!               --validation range_detection=2,wifi_rx=1
//! dssoc-emu run --platform odroid:3B+2L --scheduler eft \
//!               --inject range_detection:500us:1.0 --frame-ms 50 --seed 7
//! dssoc-emu run --platform-file configs/zcu102_2c1f.json ...
//! dssoc-emu apps                 # list the bundled applications
//! dssoc-emu export-app <name>    # print an application's JSON DAG
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency); every helper
//! here is unit-tested.

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::{InjectionParams, WorkloadSpec};
use dssoc_core::des::DesConfig;
use dssoc_core::engine::{EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::fault::FaultSpec;
use dssoc_core::job::{platform_preset, CostSpec, Engine};
use dssoc_core::stats::EmulationStats;
use dssoc_core::sweep::{default_workers, EngineConfig, SweepCell, SweepProgress, SweepRunner};
use dssoc_metrics::{MetricsRegistry, MetricsServer, MetricsSnapshot};
use dssoc_platform::pe::PlatformConfig;
use dssoc_trace::TraceSession;

/// A fully parsed `run` invocation.
#[derive(Debug)]
pub struct RunArgs {
    /// Platform to emulate.
    pub platform: PlatformConfig,
    /// Scheduler name (library policy).
    pub scheduler: String,
    /// Engine to run on: the threaded emulation (default) or the
    /// discrete-event baseline.
    pub engine: Engine,
    /// Workload specification.
    pub workload: WorkloadSpec,
    /// Timing mode.
    pub timing: TimingMode,
    /// Reservation-queue depth.
    pub reservation_depth: usize,
    /// Repetitions (first run is warm-up when > 1).
    pub iterations: usize,
    /// Emit machine-readable JSON instead of the text summary.
    pub json: bool,
    /// Write a Chrome/Perfetto trace of the final iteration here.
    pub trace: Option<String>,
    /// Fault-injection spec (loaded from the `--faults` JSON file).
    pub faults: Option<Arc<FaultSpec>>,
    /// Serve live metrics over HTTP on this address (e.g.
    /// `127.0.0.1:9464`, or port `0` for an ephemeral port printed to
    /// stderr). Also embeds the final snapshot in `--json` output.
    pub metrics: Option<String>,
    /// Keep the metrics endpoint alive this long after the run
    /// completes, so external scrapers can collect the final values.
    pub metrics_linger: Duration,
    /// Render a live sweep-progress line on stderr.
    pub progress: bool,
}

/// Parses a platform shorthand:
/// `zcu102:<cores>C+<ffts>F` or `odroid:<big>B+<little>L`.
///
/// The grammar lives in [`dssoc_core::job::platform_preset`] — the
/// single source of truth the bench harnesses use too — so the CLI,
/// the scenario builder, and the figure binaries accept exactly the
/// same strings.
pub fn parse_platform(spec: &str) -> Result<PlatformConfig, String> {
    platform_preset(spec)
}

/// Parses a validation-mode count list: `app=2,other=1`.
pub fn parse_counts(spec: &str) -> Result<Vec<(String, usize)>, String> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (app, n) =
            part.split_once('=').ok_or_else(|| format!("count '{part}' must look like app=2"))?;
        let n: usize = n.parse().map_err(|_| format!("bad count in '{part}'"))?;
        out.push((app.to_string(), n));
    }
    if out.is_empty() {
        return Err("no application counts given".into());
    }
    Ok(out)
}

/// Parses one injection triple: `app:<period><us|ms>:<probability>`.
pub fn parse_injection(spec: &str) -> Result<InjectionParams, String> {
    let mut parts = spec.splitn(3, ':');
    let app = parts.next().filter(|s| !s.is_empty()).ok_or("missing app name")?;
    let period = parts.next().ok_or("missing period (e.g. 500us)")?;
    let prob = parts.next().ok_or("missing probability (e.g. 1.0)")?;
    let period = parse_duration(period)?;
    let probability: f64 = prob.parse().map_err(|_| format!("bad probability '{prob}'"))?;
    if !(0.0..=1.0).contains(&probability) {
        return Err(format!("probability {probability} outside [0, 1]"));
    }
    Ok(InjectionParams { app: app.to_string(), period, probability })
}

/// Parses `<n>us`, `<n>ms`, or `<n>s` into a duration.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit) = s
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .map(|i| s.split_at(i))
        .ok_or_else(|| format!("duration '{s}' needs a unit (us/ms/s)"))?;
    let value: f64 = num.parse().map_err(|_| format!("bad duration value '{num}'"))?;
    let secs = match unit {
        "us" => value * 1e-6,
        "ms" => value * 1e-3,
        "s" => value,
        other => return Err(format!("unknown duration unit '{other}' (use us/ms/s)")),
    };
    if secs <= 0.0 {
        return Err("duration must be positive".into());
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Loads a platform configuration from a JSON file.
pub fn load_platform_file(path: &str) -> Result<PlatformConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg: PlatformConfig =
        serde_json::from_str(&text).map_err(|e| format!("bad platform JSON in {path}: {e}"))?;
    cfg.validate()?;
    Ok(cfg)
}

/// Loads a workload specification from a JSON file.
pub fn load_workload_file(path: &str) -> Result<WorkloadSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("bad workload JSON in {path}: {e}"))
}

/// Loads a fault-injection spec from a JSON file (see
/// [`FaultSpec::from_json`] for the schema).
pub fn load_faults_file(path: &str) -> Result<FaultSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FaultSpec::from_json(&text).map_err(|e| format!("bad fault spec in {path}: {e}"))
}

/// Parses the full argument list of the `run` subcommand.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut platform: Option<PlatformConfig> = None;
    let mut scheduler = "frfs".to_string();
    let mut engine = Engine::Threaded;
    let mut counts: Option<Vec<(String, usize)>> = None;
    let mut injections: Vec<InjectionParams> = Vec::new();
    let mut frame: Option<Duration> = None;
    let mut seed = 0u64;
    let mut workload_file: Option<String> = None;
    let mut timing = TimingMode::Modeled;
    let mut reservation_depth = 0usize;
    let mut iterations = 1usize;
    let mut json = false;
    let mut trace: Option<String> = None;
    let mut faults: Option<Arc<FaultSpec>> = None;
    let mut metrics: Option<String> = None;
    let mut metrics_linger = Duration::ZERO;
    let mut progress = false;

    let mut i = 0;
    let next_value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--platform" => platform = Some(parse_platform(&next_value(&mut i, "--platform")?)?),
            "--platform-file" => {
                platform = Some(load_platform_file(&next_value(&mut i, "--platform-file")?)?)
            }
            "--scheduler" => scheduler = next_value(&mut i, "--scheduler")?,
            "--engine" => engine = next_value(&mut i, "--engine")?.parse()?,
            "--validation" => counts = Some(parse_counts(&next_value(&mut i, "--validation")?)?),
            "--inject" => injections.push(parse_injection(&next_value(&mut i, "--inject")?)?),
            "--frame-ms" => {
                let v: u64 = next_value(&mut i, "--frame-ms")?
                    .parse()
                    .map_err(|_| "bad --frame-ms value".to_string())?;
                frame = Some(Duration::from_millis(v));
            }
            "--seed" => {
                seed = next_value(&mut i, "--seed")?
                    .parse()
                    .map_err(|_| "bad --seed value".to_string())?
            }
            "--workload-file" => workload_file = Some(next_value(&mut i, "--workload-file")?),
            "--timing" => {
                timing = match next_value(&mut i, "--timing")?.as_str() {
                    "modeled" => TimingMode::Modeled,
                    "wallclock" => TimingMode::WallClock,
                    other => return Err(format!("unknown timing mode '{other}'")),
                }
            }
            "--reservation-depth" => {
                reservation_depth = next_value(&mut i, "--reservation-depth")?
                    .parse()
                    .map_err(|_| "bad --reservation-depth value".to_string())?
            }
            "--iterations" => {
                iterations = next_value(&mut i, "--iterations")?
                    .parse()
                    .map_err(|_| "bad --iterations value".to_string())?;
                if iterations == 0 {
                    return Err("--iterations must be at least 1".into());
                }
            }
            "--json" => json = true,
            "--trace" => trace = Some(next_value(&mut i, "--trace")?),
            "--faults" => {
                faults = Some(Arc::new(load_faults_file(&next_value(&mut i, "--faults")?)?))
            }
            "--metrics" => metrics = Some(next_value(&mut i, "--metrics")?),
            "--metrics-linger" => {
                let ms: u64 = next_value(&mut i, "--metrics-linger")?
                    .parse()
                    .map_err(|_| "bad --metrics-linger value (milliseconds)".to_string())?;
                metrics_linger = Duration::from_millis(ms);
            }
            "--progress" => progress = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    let platform = platform.ok_or("missing --platform or --platform-file")?;
    let workload = if let Some(path) = workload_file {
        if counts.is_some() || !injections.is_empty() {
            return Err("--workload-file conflicts with --validation/--inject".into());
        }
        load_workload_file(&path)?
    } else if let Some(counts) = counts {
        if !injections.is_empty() {
            return Err("--validation conflicts with --inject".into());
        }
        WorkloadSpec::validation(counts)
    } else if !injections.is_empty() {
        let frame = frame.ok_or("performance mode needs --frame-ms")?;
        WorkloadSpec::performance(injections, frame, seed)
    } else {
        return Err("no workload: use --validation, --inject, or --workload-file".into());
    };
    if metrics_linger > Duration::ZERO && metrics.is_none() {
        return Err("--metrics-linger needs --metrics".into());
    }
    Ok(RunArgs {
        platform,
        scheduler,
        engine,
        workload,
        timing,
        reservation_depth,
        iterations,
        json,
        trace,
        faults,
        metrics,
        metrics_linger,
        progress,
    })
}

/// The outcome of [`execute`]: the final iteration's stats, the
/// per-iteration makespans in milliseconds, and — with
/// [`RunArgs::metrics`] set — the final metrics snapshot.
#[derive(Debug)]
pub struct RunOutcome {
    /// Full statistics of the final measured iteration.
    pub stats: EmulationStats,
    /// Makespan of each measured iteration, in milliseconds.
    pub makespans_ms: Vec<f64>,
    /// Final metrics snapshot (when `--metrics` was given).
    pub metrics: Option<MetricsSnapshot>,
}

/// Executes a parsed run.
///
/// With [`RunArgs::trace`] set, the final measured iteration is traced:
/// a Chrome/Perfetto JSON file is written to the given path and the
/// text timeline is printed to stdout. With [`RunArgs::metrics`] set, a
/// metrics endpoint serves `/metrics` (OpenMetrics) and
/// `/snapshot.json` for the duration of the run (plus
/// [`RunArgs::metrics_linger`]), and the final snapshot is returned.
pub fn execute(run: &RunArgs) -> Result<RunOutcome, String> {
    let (library, _registry) = dssoc_apps::standard_library();
    let workload = Arc::new(run.workload.generate(&library).map_err(|e| e.to_string())?);
    let registry = run.metrics.as_ref().map(|_| MetricsRegistry::new());
    let server = match (&run.metrics, &registry) {
        (Some(addr), Some(reg)) => {
            let server = MetricsServer::start(addr.as_str(), reg.clone())
                .map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
            // Stderr, so `--json` stdout stays machine-readable; port 0
            // binds ephemerally and scrapers discover the port here.
            eprintln!("metrics: serving http://{}/metrics", server.addr());
            Some(server)
        }
        _ => None,
    };
    let mut cell = SweepCell::new(run.platform.clone(), run.scheduler.clone(), workload)
        .iterations(run.iterations)
        .warmup(run.iterations > 1);
    if let Some(spec) = &run.faults {
        cell = cell.faults(Arc::clone(spec));
    }
    let session = run.trace.as_ref().map(|_| TraceSession::new());
    let progress = SweepProgress::new();
    let watcher = run.progress.then(|| progress.watch_stderr(Duration::from_millis(200)));
    // The runner lowers the cell to a ScenarioSpec and executes it
    // through its JobRunner on the configured engine. The batch API
    // clamps the worker count to the grid size, so this single cell
    // runs sequentially on the runner's own warm engine; CLI grids grown
    // beyond one cell parallelize for free.
    let config: EngineConfig = match run.engine {
        Engine::Threaded => EmulationConfig {
            timing: run.timing,
            overhead: OverheadMode::Measured,
            cost: CostSpec::default(),
            reservation_depth: run.reservation_depth,
            trace: None,
            faults: None,
            metrics: registry.clone(),
        }
        .into(),
        // DES runs carry no measured kernel times: a deterministic cost
        // table (JSON profile estimates underneath) stands in.
        Engine::Des => DesConfig { metrics: registry.clone(), ..DesConfig::default() }.into(),
    };
    let mut runner = SweepRunner::with_config(&library, config);
    if let Some(reg) = &registry {
        runner.cache().attach_metrics(reg);
    }
    if let Some(session) = &session {
        runner.trace_cell(cell.label.clone(), session.sink());
    }
    runner.set_progress(progress.clone());
    let result = runner
        .run_batch_parallel(std::slice::from_ref(&cell), default_workers())
        .map_err(|e| e.to_string())?
        .pop()
        .expect("one cell in, one result out");
    drop(watcher);
    if let (Some(path), Some(session)) = (&run.trace, &session) {
        write_trace(path, session)?;
    }
    // Trace-ring accounting joins the metric families once per session.
    if let (Some(session), Some(reg)) = (&session, &registry) {
        session.publish_metrics(reg);
    }
    let snapshot = registry.as_ref().map(|r| r.snapshot());
    if server.is_some() && run.metrics_linger > Duration::ZERO {
        eprintln!("metrics: lingering {:?} for scrapers", run.metrics_linger);
        std::thread::sleep(run.metrics_linger);
    }
    drop(server);
    Ok(RunOutcome { stats: result.stats, makespans_ms: result.makespans_ms, metrics: snapshot })
}

/// Drains `session` and writes its Chrome/Perfetto JSON to `path`,
/// printing the text timeline alongside.
fn write_trace(path: &str, session: &TraceSession) -> Result<(), String> {
    let events = session.drain();
    let meta = session.meta();
    let producers = session.producers();
    let json = dssoc_trace::export::chrome_json_with_drops(&events, &meta, &producers);
    let body = serde_json::to_string_pretty(&json).map_err(|e| e.to_string())? + "\n";
    std::fs::write(path, body).map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    print!("{}", dssoc_trace::timeline::render(&events, &meta, &producers));
    if let Some(report) = session.drop_report() {
        eprintln!("warning: {report}");
    }
    println!("trace: {} events -> {path} (open with ui.perfetto.dev)", events.len());
    Ok(())
}

/// Renders stats as a machine-readable JSON value. A metrics snapshot,
/// when given, is embedded under the `"metrics"` key.
pub fn stats_to_json(
    stats: &EmulationStats,
    makespans_ms: &[f64],
    metrics: Option<&MetricsSnapshot>,
) -> serde_json::Value {
    let mut value = serde_json::json!({
        "platform": stats.platform,
        "scheduler": stats.scheduler,
        "makespan_ms": stats.makespan.as_secs_f64() * 1e3,
        "iterations_ms": makespans_ms,
        "tasks": stats.tasks.len(),
        "apps_completed": stats.completed_apps(),
        "sched_invocations": stats.sched_invocations,
        "avg_sched_overhead_us": stats.avg_sched_overhead().as_secs_f64() * 1e6,
        "pe_utilization": stats
            .utilizations()
            .iter()
            .map(|(pe, u)| serde_json::json!({"pe": stats.pe_names[pe], "utilization": u}))
            .collect::<Vec<_>>(),
        "reliability": serde_json::json!({
            "apps_aborted": stats.reliability.apps_aborted,
            "apps_completed_despite_faults": stats.reliability.apps_completed_despite_faults,
            "exec_faults": stats.reliability.exec_faults,
            "faults_injected": stats.reliability.faults_injected,
            "hang_faults": stats.reliability.hang_faults,
            "permanent_faults": stats.reliability.permanent_faults,
            "pes_quarantined": stats.reliability.pes_quarantined,
            "retries": stats.reliability.retries,
            "tasks_degraded": stats.reliability.tasks_degraded,
            "transient_faults": stats.reliability.transient_faults,
            "watchdog_faults": stats.reliability.watchdog_faults,
        }),
    });
    if let (Some(snap), serde_json::Value::Object(map)) = (metrics, &mut value) {
        map.insert("metrics".to_string(), serde_json::to_value(snap));
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_platform::presets::zcu102;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn platform_shorthands() {
        let p = parse_platform("zcu102:2C+1F").unwrap();
        assert_eq!(p.cpu_count(), 2);
        assert_eq!(p.accel_count(), 1);
        let p = parse_platform("odroid:3b+2l").unwrap();
        assert_eq!(p.cpu_count(), 5);
        assert!(parse_platform("zcu102").is_err());
        assert!(parse_platform("zcu102:4C+0F").is_err());
        assert!(parse_platform("riscv:1C+0F").is_err());
        assert!(parse_platform("odroid:5B+0L").is_err());
        assert!(parse_platform("zcu102:0C+0F").is_err());
    }

    #[test]
    fn count_lists() {
        let c = parse_counts("range_detection=2,wifi_rx=1").unwrap();
        assert_eq!(c, vec![("range_detection".to_string(), 2), ("wifi_rx".to_string(), 1)]);
        assert!(parse_counts("").is_err());
        assert!(parse_counts("radar").is_err());
        assert!(parse_counts("radar=x").is_err());
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration("500us").unwrap(), Duration::from_micros(500));
        assert_eq!(parse_duration("2ms").unwrap(), Duration::from_millis(2));
        assert_eq!(parse_duration("1.5ms").unwrap(), Duration::from_micros(1500));
        assert_eq!(parse_duration("3s").unwrap(), Duration::from_secs(3));
        assert!(parse_duration("12").is_err());
        assert!(parse_duration("xus").is_err());
        assert!(parse_duration("0ms").is_err());
    }

    #[test]
    fn injections() {
        let i = parse_injection("range_detection:800us:0.9").unwrap();
        assert_eq!(i.app, "range_detection");
        assert_eq!(i.period, Duration::from_micros(800));
        assert!((i.probability - 0.9).abs() < 1e-12);
        assert!(parse_injection("app:800us").is_err());
        assert!(parse_injection("app:800us:1.5").is_err());
        assert!(parse_injection(":800us:0.5").is_err());
    }

    #[test]
    fn full_validation_run_args() {
        let args = argv(&[
            "--platform",
            "zcu102:2C+1F",
            "--scheduler",
            "met",
            "--validation",
            "range_detection=2",
            "--reservation-depth",
            "2",
            "--iterations",
            "3",
            "--json",
        ]);
        let run = parse_run_args(&args).unwrap();
        assert_eq!(run.scheduler, "met");
        assert_eq!(run.reservation_depth, 2);
        assert_eq!(run.iterations, 3);
        assert!(run.json);
        assert_eq!(run.timing, TimingMode::Modeled);
    }

    #[test]
    fn full_performance_run_args() {
        let args = argv(&[
            "--platform",
            "odroid:2B+1L",
            "--inject",
            "wifi_tx:1ms:1.0",
            "--inject",
            "wifi_rx:2ms:0.5",
            "--frame-ms",
            "20",
            "--seed",
            "9",
        ]);
        let run = parse_run_args(&args).unwrap();
        match &run.workload.mode {
            dssoc_appmodel::OperationMode::Performance { injections, time_frame } => {
                assert_eq!(injections.len(), 2);
                assert_eq!(*time_frame, Duration::from_millis(20));
            }
            other => panic!("unexpected mode {other:?}"),
        }
        assert_eq!(run.workload.seed, 9);
    }

    #[test]
    fn arg_conflicts_and_gaps() {
        assert!(parse_run_args(&argv(&["--platform", "zcu102:1C+0F"])).is_err(), "no workload");
        assert!(parse_run_args(&argv(&["--validation", "a=1"])).is_err(), "no platform");
        assert!(
            parse_run_args(&argv(&[
                "--platform",
                "zcu102:1C+0F",
                "--validation",
                "a=1",
                "--inject",
                "b:1ms:1.0",
                "--frame-ms",
                "5"
            ]))
            .is_err(),
            "validation + inject conflict"
        );
        assert!(parse_run_args(&argv(&["--bogus"])).is_err());
        assert!(
            parse_run_args(&argv(&["--platform", "zcu102:1C+0F", "--inject", "a:1ms:1.0"]))
                .is_err(),
            "performance mode without --frame-ms"
        );
    }

    #[test]
    fn end_to_end_execute() {
        let args = argv(&[
            "--platform",
            "zcu102:2C+1F",
            "--scheduler",
            "frfs",
            "--validation",
            "range_detection=2,wifi_tx=1",
        ]);
        let run = parse_run_args(&args).unwrap();
        let out = execute(&run).unwrap();
        assert_eq!(out.stats.completed_apps(), 3);
        assert_eq!(out.makespans_ms.len(), 1);
        assert!(out.metrics.is_none(), "no --metrics, no snapshot");
        let json = stats_to_json(&out.stats, &out.makespans_ms, None);
        assert_eq!(json["apps_completed"], 3);
        assert!(json["makespan_ms"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn metrics_flag_serves_endpoint_and_embeds_snapshot() {
        use std::io::{Read, Write};
        let args = argv(&[
            "--platform",
            "zcu102:2C+1F",
            "--validation",
            "range_detection=1",
            "--metrics",
            "127.0.0.1:0",
            "--json",
        ]);
        let run = parse_run_args(&args).unwrap();
        assert_eq!(run.metrics.as_deref(), Some("127.0.0.1:0"));
        let out = execute(&run).unwrap();
        let snap = out.metrics.expect("--metrics produces a snapshot");
        assert!(snap.value("dssoc_tasks_ready", &[]).unwrap() > 0.0);
        assert_eq!(snap.value("dssoc_ready_depth", &[]), Some(0.0), "run drained");
        let json = stats_to_json(&out.stats, &out.makespans_ms, Some(&snap));
        assert!(
            !json["metrics"]["samples"].as_array().unwrap().is_empty(),
            "snapshot embedded in --json output"
        );

        // The endpoint itself is exercised end-to-end: serve a run's
        // registry and scrape it over TCP.
        let registry = MetricsRegistry::new();
        registry.counter("dssoc_smoke", &[]).cell().inc();
        let server = MetricsServer::start("127.0.0.1:0", registry).unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("dssoc_smoke_total 1"), "{body}");
    }

    #[test]
    fn trace_flag_writes_chrome_json() {
        let dir = std::env::temp_dir().join("dssoc_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let args = argv(&[
            "--platform",
            "zcu102:2C+1F",
            "--validation",
            "range_detection=1",
            "--trace",
            path.to_str().unwrap(),
        ]);
        let run = parse_run_args(&args).unwrap();
        assert_eq!(run.trace.as_deref(), path.to_str());
        let out = execute(&run).unwrap();
        assert_eq!(out.stats.completed_apps(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let value: serde_json::Value = serde_json::from_str(&text).unwrap();
        let events = value["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty(), "trace file should hold events");
        assert!(
            events.iter().any(|e| e["ph"] == "X"),
            "trace should contain at least one task slice"
        );
    }

    #[test]
    fn des_engine_runs_from_cli() {
        let args = argv(&[
            "--platform",
            "zcu102:2C+1F",
            "--validation",
            "range_detection=1",
            "--engine",
            "des",
            "--iterations",
            "2",
        ]);
        let run = parse_run_args(&args).unwrap();
        assert_eq!(run.engine, Engine::Des);
        let out = execute(&run).unwrap();
        assert_eq!(out.stats.completed_apps(), 1);
        assert!(out.stats.scheduler.contains("DES"), "{}", out.stats.scheduler);
        assert_eq!(out.makespans_ms.len(), 2);
        assert_eq!(out.makespans_ms[0], out.makespans_ms[1], "DES repeats are deterministic");
        assert!(parse_run_args(&argv(&["--engine", "qemu"])).is_err());
    }

    #[test]
    fn unknown_scheduler_is_reported() {
        let args = argv(&[
            "--platform",
            "zcu102:1C+0F",
            "--scheduler",
            "heft",
            "--validation",
            "wifi_tx=1",
        ]);
        let run = parse_run_args(&args).unwrap();
        assert!(execute(&run).unwrap_err().contains("heft"));
    }

    #[test]
    fn platform_file_round_trip() {
        let dir = std::env::temp_dir().join("dssoc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plat.json");
        let cfg = zcu102(2, 1);
        std::fs::write(&path, serde_json::to_string_pretty(&cfg).unwrap()).unwrap();
        let loaded = load_platform_file(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, cfg);
        assert!(load_platform_file("/nonexistent/x.json").is_err());
    }

    #[test]
    fn workload_file_round_trip() {
        let dir = std::env::temp_dir().join("dssoc_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl.json");
        let spec = WorkloadSpec::validation([("range_detection", 2usize)]);
        std::fs::write(&path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
        let loaded = load_workload_file(path.to_str().unwrap()).unwrap();
        assert_eq!(loaded, spec);
    }
}
