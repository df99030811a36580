//! The submission wire format: one JSON object per job.
//!
//! A submission names everything the scenario layer needs — platform
//! (preset shorthand *or* inline [`PlatformConfig`]), workload (full
//! [`WorkloadSpec`] *or* the `"validation"` shorthand), scheduler,
//! engine, seed, optional fault spec — plus the daemon-level knobs
//! (priority, trace capture). [`parse_request`] builds and validates
//! the scenario without compiling it, so the daemon can answer a cached
//! job by value first and compile only the others, before queueing
//! them; [`parse_job`] parses and compiles in one call. Either way every
//! validation error (unknown app, bad platform shape, incompatible
//! workload) surfaces as a `400` with a one-line reason instead of a
//! queued job that fails later.
//!
//! ```json
//! {
//!   "engine": "des",
//!   "platform": "zcu102:2C+1F",
//!   "scheduler": "eft",
//!   "validation": { "range_detection": 8 },
//!   "seed": 7
//! }
//! ```
//!
//! Engine defaults keep the common cases deterministic-and-cacheable:
//! DES jobs get a table cost and no overhead charge unless overridden
//! (a DES job may not ask for `"cost": "measured"`: it measures no
//! kernel, so every task would cost zero — the core's
//! `ScenarioSpec::check_engine` rule, checked here to refuse the job);
//! threaded jobs default to the paper's measured configuration
//! (modeled timing, measured overhead, scaled-measured cost) and
//! become cacheable only when the client pins `"cost": "table"` and a
//! fixed `"overhead_us"` (with modeled timing). Such a job charges
//! every task its compiled cost — the table entry, else the app's JSON
//! estimate, else a speed-scaled default, as the DES does — so a
//! cached answer is exactly what a fresh run returns.
//!
//! An inline platform may have at most 64 PEs (the daemon's warm-engine
//! budget): each is a resource-manager thread in the threaded engine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::{OperationMode, WorkloadSpec};
use dssoc_core::engine::{EmuError, OverheadMode, TimingMode};
use dssoc_core::fault::FaultSpec;
use dssoc_core::job::{CompiledScenario, CostSpec, Engine, ScenarioSpec, WARM_PE_BUDGET};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use serde::Deserialize;
use serde_json::Value;

use crate::manager::{ChaosMode, SubmitOptions};

/// Priorities are small ordinals; anything above this is clamped.
pub const MAX_PRIORITY: u8 = 9;

/// Most application instances one submission may ask for (in
/// performance mode, injection attempts). Checked before the workload
/// is generated, so a count in a body cannot make parsing allocate
/// without bound.
const MAX_INSTANCES: u64 = 1 << 16;

/// Most PEs an inline platform may have: the daemon's warm threaded
/// engines hold at most this many PEs (one thread each) together, and
/// one job's engine must fit. Preset shorthands stay well below it.
const MAX_INLINE_PES: usize = WARM_PE_BUDGET;

/// A validated submission, not yet compiled: the built scenario plus
/// the daemon-level execution knobs.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The validated scenario.
    pub spec: ScenarioSpec,
    /// Engine, priority, trace capture, deadline and chaos hook.
    pub options: SubmitOptions,
}

/// A fully validated submission: the compiled scenario plus the
/// daemon-level execution knobs.
#[derive(Debug)]
pub struct ParsedJob {
    /// The compiled scenario, ready to run (and fingerprinted).
    pub scenario: Arc<CompiledScenario>,
    /// Which engine executes it.
    pub engine: Engine,
    /// Queue priority, `0..=9` (higher dispatches first).
    pub priority: u8,
    /// Capture a per-run Chrome/Perfetto trace artifact.
    pub trace: bool,
    /// Give up this long after submission (`"deadline_ms"`).
    pub deadline: Option<Duration>,
    /// Test-only failure injection (`"chaos"`), accepted only when the
    /// daemon runs with `DSSOC_SERVE_CHAOS` set.
    pub chaos: Option<ChaosMode>,
}

fn field_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => {
            val.as_str().map(Some).ok_or_else(|| format!("field '{key}' must be a string"))
        }
    }
}

fn field_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => val
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn field_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(val) => val.as_bool().ok_or_else(|| format!("field '{key}' must be a boolean")),
    }
}

/// Builds the workload request from either the full `"workload"` spec
/// (the serde form of [`WorkloadSpec`]) or the `"validation"` app →
/// count shorthand.
fn parse_workload(v: &Value) -> Result<WorkloadSpec, String> {
    let mut spec = match (v.get("workload"), v.get("validation")) {
        (Some(_), Some(_)) => {
            return Err("give either 'workload' or 'validation', not both".into());
        }
        (Some(w), None) => WorkloadSpec::from_value(w)
            .map_err(|e| format!("field 'workload' is not a valid WorkloadSpec: {e}"))?,
        (None, Some(val)) => {
            let map = val
                .as_object()
                .ok_or("field 'validation' must map app names to instance counts")?;
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for (app, n) in map {
                let n = n
                    .as_u64()
                    .ok_or_else(|| format!("validation count for '{app}' must be an integer"))?;
                counts.insert(app.clone(), n as usize);
            }
            WorkloadSpec::validation(counts)
        }
        (None, None) => {
            return Err("missing workload: give 'workload' or 'validation'".into());
        }
    };
    if let Some(seed) = field_u64(v, "seed")? {
        spec.seed = seed;
    }
    let n = requested_instances(&spec);
    if n > MAX_INSTANCES {
        return Err(format!("workload asks for {n} instances, more than {MAX_INSTANCES}"));
    }
    Ok(spec)
}

/// The instances `spec` would generate at most: its validation counts,
/// or its injection attempts over the time frame.
fn requested_instances(spec: &WorkloadSpec) -> u64 {
    match &spec.mode {
        OperationMode::Validation { counts } => {
            counts.values().fold(0u64, |n, &c| n.saturating_add(c as u64))
        }
        OperationMode::Performance { injections, time_frame } => {
            injections.iter().fold(0u64, |n, inj| {
                let period = inj.period.as_nanos().max(1);
                let attempts = time_frame.as_nanos().div_ceil(period);
                n.saturating_add(u64::try_from(attempts).unwrap_or(u64::MAX))
            })
        }
    }
}

/// The platform field: a preset shorthand string (`"zcu102:2C+1F"`)
/// or an inline [`PlatformConfig`] object.
enum PlatformField {
    Preset(String),
    Inline(Box<PlatformConfig>),
}

fn parse_platform(v: &Value) -> Result<PlatformField, String> {
    match v.get("platform") {
        Some(Value::String(preset)) => Ok(PlatformField::Preset(preset.clone())),
        Some(obj @ Value::Object(_)) => {
            let config = PlatformConfig::from_value(obj)
                .map_err(|e| format!("field 'platform' is not a valid PlatformConfig: {e}"))?;
            let n = config.pes.len();
            if n > MAX_INLINE_PES {
                return Err(format!("inline platform has {n} PEs, more than {MAX_INLINE_PES}"));
            }
            Ok(PlatformField::Inline(Box::new(config)))
        }
        Some(_) => Err("field 'platform' must be a preset string or a config object".into()),
        None => Err("missing field 'platform' (e.g. \"zcu102:2C+1F\")".into()),
    }
}

/// The one-line `400` reason for a scenario that does not build or
/// compile.
pub(crate) fn rejected(e: EmuError) -> String {
    format!("scenario rejected: {e}")
}

/// Parses and compiles one submission body against `library`:
/// [`parse_request`], then [`CompiledScenario::compile`].
pub fn parse_job(body: &[u8], library: &Arc<AppLibrary>) -> Result<ParsedJob, String> {
    let ParsedRequest { spec, options } = parse_request(body, library)?;
    let scenario = CompiledScenario::compile(spec).map_err(rejected)?;
    let SubmitOptions { engine, priority, trace, deadline, chaos } = options;
    Ok(ParsedJob { scenario, engine, priority, trace, deadline, chaos })
}

/// Parses one submission body against `library` and builds its
/// scenario, without compiling it.
///
/// Every rejection reason is a single human-readable line, returned
/// verbatim in the daemon's `400` error body: line breaks in quoted
/// client text are escaped.
pub fn parse_request(body: &[u8], library: &Arc<AppLibrary>) -> Result<ParsedRequest, String> {
    build_request(body, library).map_err(|why| why.replace('\r', "\\r").replace('\n', "\\n"))
}

fn build_request(body: &[u8], library: &Arc<AppLibrary>) -> Result<ParsedRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("body must be a JSON object".into());
    }

    let engine: Engine = field_str(&v, "engine")?.unwrap_or("des").parse()?;

    let workload_spec = parse_workload(&v)?;
    let workload =
        workload_spec.generate(library).map_err(|e| format!("workload rejected: {e}"))?;

    // Engine-specific defaults (see module docs), each overridable.
    let timing = match field_str(&v, "timing")? {
        None => TimingMode::Modeled,
        Some("modeled") => TimingMode::Modeled,
        Some("wallclock") => TimingMode::WallClock,
        Some(other) => {
            return Err(format!("unknown timing '{other}' (use modeled or wallclock)"));
        }
    };
    let overhead = match v.get("overhead_us") {
        None | Some(Value::Null) => match engine {
            Engine::Des => OverheadMode::None,
            Engine::Threaded => OverheadMode::Measured,
        },
        Some(val) => {
            let overhead = val
                .as_f64()
                .and_then(|us| Duration::try_from_secs_f64(us * 1e-6).ok())
                .ok_or("field 'overhead_us' must be a non-negative number")?;
            OverheadMode::Fixed(overhead)
        }
    };
    let cost = match field_str(&v, "cost")? {
        None => match engine {
            Engine::Des => CostSpec::table(CostTable::new()),
            Engine::Threaded => CostSpec::ScaledMeasured,
        },
        Some("table") => CostSpec::table(CostTable::new()),
        Some("measured") => CostSpec::ScaledMeasured,
        Some(other) => return Err(format!("unknown cost '{other}' (use table or measured)")),
    };

    let mut builder = ScenarioSpec::builder()
        .library(Arc::clone(library))
        .workload(workload)
        .scheduler(field_str(&v, "scheduler")?.unwrap_or("frfs"))
        .timing(timing)
        .overhead(overhead)
        .cost(cost)
        .reservation_depth(field_u64(&v, "reservation_depth")?.unwrap_or(0) as usize);
    builder = match parse_platform(&v)? {
        PlatformField::Preset(p) => builder.platform_named(p),
        PlatformField::Inline(config) => builder.platform(*config),
    };
    if let Some(faults) = v.get("faults") {
        if !faults.is_null() {
            let text = serde_json::to_string(faults).map_err(|e| e.to_string())?;
            let spec = FaultSpec::from_json(&text)
                .map_err(|e| format!("field 'faults' is not a valid FaultSpec: {e}"))?;
            builder = builder.faults(Arc::new(spec));
        }
    }

    let spec = builder.build().map_err(rejected)?;
    spec.check_engine(engine).map_err(rejected)?;

    let priority = field_u64(&v, "priority")?.unwrap_or(0).min(MAX_PRIORITY as u64) as u8;
    let trace = field_bool(&v, "trace")?;
    let deadline = field_u64(&v, "deadline_ms")?
        .map(|ms| {
            if ms == 0 {
                Err("field 'deadline_ms' must be positive".to_string())
            } else {
                Ok(Duration::from_millis(ms))
            }
        })
        .transpose()?;
    let chaos = parse_chaos(&v)?;
    Ok(ParsedRequest { spec, options: SubmitOptions { engine, priority, trace, deadline, chaos } })
}

/// The test-only `"chaos"` hook: `"panic"` or `"flaky:<n>"`. Rejected
/// outright unless the daemon opted in via the `DSSOC_SERVE_CHAOS`
/// environment variable, so production deployments cannot be
/// fault-injected from the wire.
fn parse_chaos(v: &Value) -> Result<Option<ChaosMode>, String> {
    let Some(text) = field_str(v, "chaos")? else { return Ok(None) };
    if std::env::var_os("DSSOC_SERVE_CHAOS").is_none() {
        return Err("field 'chaos' requires the daemon to run with DSSOC_SERVE_CHAOS set".into());
    }
    if text == "panic" {
        return Ok(Some(ChaosMode::Panic));
    }
    if let Some(n) = text.strip_prefix("flaky:") {
        let n: u32 =
            n.parse().map_err(|_| "field 'chaos' flaky count must be an integer".to_string())?;
        return Ok(Some(ChaosMode::Flaky(n)));
    }
    Err(format!("unknown chaos mode '{text}' (use panic or flaky:<n>)"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_apps::standard_library;

    fn library() -> Arc<AppLibrary> {
        Arc::new(standard_library().0)
    }

    #[test]
    fn preset_validation_job_parses() {
        let body = br#"{
            "engine": "des",
            "platform": "zcu102:2C+1F",
            "scheduler": "eft",
            "validation": { "range_detection": 3 }
        }"#;
        let job = parse_job(body, &library()).unwrap();
        assert_eq!(job.engine, Engine::Des);
        assert_eq!(job.scenario.spec().scheduler, "eft");
        assert_eq!(job.scenario.spec().workload.len(), 3);
        assert!(job.scenario.deterministic(Engine::Des), "DES default is cacheable");
        assert_eq!(job.priority, 0);
        assert!(!job.trace);
    }

    #[test]
    fn inline_platform_round_trips_through_json() {
        // Serialize a real preset config and feed it back inline.
        let config = dssoc_platform::presets::zcu102(1, 1);
        let inline = serde_json::to_value(&config);
        let body = serde_json::to_string(&serde_json::json!({
            "platform": inline,
            "validation": { "pulse_doppler": 1 }
        }))
        .unwrap();
        let job = parse_job(body.as_bytes(), &library()).unwrap();
        assert_eq!(job.scenario.spec().platform.name, config.name);
    }

    /// An inline platform over the PE bound is a 400 at parse time; no
    /// engine is built and no thread starts.
    #[test]
    fn inline_platform_pe_count_is_bounded() {
        let lib = library();
        let body = |pes: usize| {
            let mut config = dssoc_platform::presets::zcu102(1, 0);
            let pe = config.pes[0].clone();
            config.pes = (0..pes)
                .map(|i| {
                    let mut pe = pe.clone();
                    pe.id = dssoc_platform::pe::PeId(i as u32);
                    pe.name = format!("cpu{i}");
                    pe
                })
                .collect();
            serde_json::to_string(&serde_json::json!({
                "engine": "threaded",
                "platform": serde_json::to_value(&config),
                "validation": { "wifi_tx": 1 }
            }))
            .unwrap()
        };
        let at = parse_request(body(MAX_INLINE_PES).as_bytes(), &lib);
        assert!(at.is_ok(), "{:?}", at.err());
        let over = parse_request(body(MAX_INLINE_PES + 1).as_bytes(), &lib).unwrap_err();
        assert!(over.contains(&format!("more than {MAX_INLINE_PES}")), "{over}");
    }

    #[test]
    fn full_workload_spec_and_seed_override() {
        let body = br#"{
            "platform": "zcu102:2C+1F",
            "workload": {
                "mode": { "Performance": {
                    "injections": [{
                        "app": "range_detection",
                        "period": { "secs": 0, "nanos": 500000 },
                        "probability": 0.5
                    }],
                    "time_frame": { "secs": 0, "nanos": 10000000 }
                }},
                "seed": 1
            },
            "seed": 42
        }"#;
        let lib = library();
        let job = parse_job(body, &lib).unwrap();
        assert!(job.scenario.spec().workload.time_frame().is_some());
        // Top-level seed overrides the nested one: the same body with
        // a different override fingerprints differently.
        let body_no_override = String::from_utf8_lossy(body).replace("\"seed\": 42", "\"seed\": 1");
        let other = parse_job(body_no_override.as_bytes(), &lib).unwrap();
        assert_ne!(job.scenario.fingerprint(), other.scenario.fingerprint());
    }

    #[test]
    fn threaded_defaults_measured_but_can_pin_deterministic() {
        let lib = library();
        let body = br#"{
            "engine": "threaded",
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 }
        }"#;
        let job = parse_job(body, &lib).unwrap();
        assert!(!job.scenario.deterministic(Engine::Threaded));
        let body = br#"{
            "engine": "threaded",
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 },
            "cost": "table",
            "overhead_us": 5
        }"#;
        let job = parse_job(body, &lib).unwrap();
        assert!(job.scenario.deterministic(Engine::Threaded), "pinned config is cacheable");
    }

    #[test]
    fn rejections_carry_one_line_reasons() {
        let lib = library();
        let cases: &[(&[u8], &str)] = &[
            (b"not json", "not valid JSON"),
            (b"[1,2]", "must be a JSON object"),
            (b"{}", "missing workload"),
            (br#"{"validation": {"wifi_tx": 1}}"#, "missing field 'platform'"),
            (br#"{"platform": "zcu102:2C+1F"}"#, "missing workload"),
            (
                br#"{"platform": "zcu102:2C+1F", "validation": {"nope": 1}}"#,
                "unknown application",
            ),
            (
                br#"{"platform": "riscv:1C+0F", "validation": {"wifi_tx": 1}}"#,
                "unknown board",
            ),
            (
                br#"{"platform": "zcu102:2C+1F", "validation": {"wifi_tx": 1}, "engine": "qemu"}"#,
                "unknown engine",
            ),
            (
                br#"{"platform": "zcu102:2C+1F", "validation": {"wifi_tx": 1}, "scheduler": "heft"}"#,
                "unknown scheduler",
            ),
            (
                br#"{"platform": "zcu102:2C+1F", "validation": {"wifi_tx": 1}, "overhead_us": -2}"#,
                "overhead_us",
            ),
            (
                br#"{"platform": "zcu102:2C+1F", "validation": {"wifi_tx": 2}, "cost": "measured"}"#,
                "needs the threaded engine",
            ),
            (
                br#"{"engine": "des", "platform": "zcu102:2C+1F", "validation": {"wifi_tx": 2}, "cost": "measured"}"#,
                "needs the threaded engine",
            ),
        ];
        for (body, needle) in cases {
            let err = parse_job(body, &lib).unwrap_err();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
            assert!(!err.contains('\n'), "one line: {err}");
        }
    }

    #[test]
    fn deadline_ms_parses_and_rejects_zero() {
        let lib = library();
        let body = br#"{
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 },
            "deadline_ms": 1500
        }"#;
        let job = parse_job(body, &lib).unwrap();
        assert_eq!(job.deadline, Some(Duration::from_millis(1500)));
        let body = br#"{
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 },
            "deadline_ms": 0
        }"#;
        let err = parse_job(body, &lib).unwrap_err();
        assert!(err.contains("deadline_ms"), "got: {err}");
        // Absent means no deadline.
        let body = br#"{"platform": "zcu102:2C+1F", "validation": {"wifi_tx": 1}}"#;
        assert_eq!(parse_job(body, &lib).unwrap().deadline, None);
    }

    #[test]
    fn chaos_is_gated_on_the_environment_opt_in() {
        let lib = library();
        let body: &[u8] = br#"{
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 },
            "chaos": "flaky:2"
        }"#;
        // Both halves in one test: tests share the process
        // environment, so split tests would race on the variable.
        std::env::remove_var("DSSOC_SERVE_CHAOS");
        let err = parse_job(body, &lib).unwrap_err();
        assert!(err.contains("DSSOC_SERVE_CHAOS"), "got: {err}");
        std::env::set_var("DSSOC_SERVE_CHAOS", "1");
        assert_eq!(parse_job(body, &lib).unwrap().chaos, Some(ChaosMode::Flaky(2)));
        let panic_body = br#"{
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 },
            "chaos": "panic"
        }"#;
        assert_eq!(parse_job(panic_body, &lib).unwrap().chaos, Some(ChaosMode::Panic));
        let bad = br#"{
            "platform": "zcu102:2C+1F",
            "validation": { "wifi_tx": 1 },
            "chaos": "meltdown"
        }"#;
        let err = parse_job(bad, &lib).unwrap_err();
        assert!(err.contains("unknown chaos mode"), "got: {err}");
        std::env::remove_var("DSSOC_SERVE_CHAOS");
    }

    #[test]
    fn identical_bodies_fingerprint_identically() {
        let lib = library();
        let body = br#"{
            "platform": "odroid:2B+1L",
            "validation": { "range_detection": 2, "wifi_rx": 1 },
            "scheduler": "eft"
        }"#;
        let a = parse_job(body, &lib).unwrap();
        let b = parse_job(body, &lib).unwrap();
        assert_eq!(a.scenario.fingerprint(), b.scenario.fingerprint());
    }

    /// Byte-level properties of [`parse_request`]: whatever the body, it
    /// never panics, its heap stays within a bound linear in the body
    /// plus the largest workload a body may ask for, and every
    /// rejection reason is one line.
    mod bytes {
        use super::*;
        use proptest::prelude::*;
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        /// Counts each thread's live heap bytes and their peak.
        struct PerThread;

        thread_local! {
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static PEAK: Cell<isize> = const { Cell::new(0) };
        }

        fn note(delta: isize) {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + delta);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }

        // SAFETY: every method forwards its arguments unchanged to `System`;
        // the counting touches no memory the allocator hands out.
        unsafe impl GlobalAlloc for PerThread {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size() as isize);
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                note(-(layout.size() as isize));
                System.dealloc(ptr, layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size as isize - layout.size() as isize);
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static GLOBAL: PerThread = PerThread;

        /// Heap of the largest workload a body may ask for: one
        /// `(app index, ns)` arrival per instance, reserved once, and
        /// the scratch copy that merges the injections' runs.
        const WORKLOAD_BYTES: usize =
            2 * MAX_INSTANCES as usize * std::mem::size_of::<dssoc_appmodel::workload::Arrival>();

        /// The standard library, built once for all cases.
        fn shared() -> Arc<AppLibrary> {
            static LIBRARY: std::sync::OnceLock<Arc<AppLibrary>> = std::sync::OnceLock::new();
            Arc::clone(LIBRARY.get_or_init(library))
        }

        /// Parses `body` and checks the properties.
        fn parse(body: &[u8], library: &Arc<AppLibrary>) -> Result<(), TestCaseError> {
            let before = LIVE.with(Cell::get);
            PEAK.with(|peak| peak.set(before));
            let result = parse_request(body, library);
            let peak = (PEAK.with(Cell::get) - before) as usize;
            let bound = 64 * body.len() + WORKLOAD_BYTES;
            prop_assert!(peak <= bound, "{} body bytes took {peak} heap bytes", body.len());
            if let Err(why) = result {
                prop_assert!(!why.is_empty() && !why.contains(['\n', '\r']), "{why:?}");
            }
            Ok(())
        }

        /// Well-formed bodies the mutants start from.
        const VALID: [&str; 5] = [
            r#"{"engine":"des","platform":"zcu102:2C+1F","scheduler":"eft","validation":{"range_detection":3,"wifi_rx":1},"seed":7}"#,
            r#"{"platform":"odroid:2B+1L","workload":{"mode":{"Performance":{"injections":[{"app":"wifi_tx","period":{"secs":0,"nanos":400000},"probability":0.5}],"time_frame":{"secs":0,"nanos":20000000}}},"seed":3},"priority":4}"#,
            r#"{"engine":"threaded","platform":"zcu102:3C+1F","validation":{"wifi_tx":2},"cost":"table","overhead_us":5,"reservation_depth":1,"trace":true}"#,
            r#"{"platform":"zcu102:2C+1F","validation":{"range_detection":2},"faults":{"seed":11,"permanent":[{"pe":2,"at_us":400.0}],"transient":[{"kernel":null,"pe":null,"probability":0.25}]},"deadline_ms":500}"#,
            r#"{"platform":{"name":"x","pes":[]},"validation":{"pulse_doppler":1},"timing":"wallclock"}"#,
        ];

        /// JSON fragments, for bodies with structure.
        const TOKENS: [&str; 32] = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"platform\"",
            "\"zcu102:2C+1F\"",
            "\"odroid:9B+0L\"",
            "\"validation\"",
            "\"wifi_tx\"",
            "\"pulse_doppler\"",
            "\"workload\"",
            "\"engine\"",
            "\"threaded\"",
            "\"overhead_us\"",
            "\"secs\"",
            "\"nanos\"",
            "\"a\\nb\"",
            "1",
            "0",
            "-1",
            "1e300",
            "99999999999999999999",
            "18446744073709551615",
            "4294967295",
            "null",
            "true",
            "\"seed\"",
            "\"faults\"",
            "\"scheduler\"",
            " ",
        ];

        /// Odd string contents for a string literal to take.
        const STRINGS: [&str; 8] = [
            "",
            "a\\nb",
            "thr\\u000aeaded",
            "\\r",
            "zcu102:3C+99F",
            "odroid:1B+1L",
            "9",
            "\\u2028",
        ];

        /// The `(start, end)` byte spans of `body`'s number literals
        /// (`numbers`) or of its string literals' contents.
        fn spans(body: &[u8], numbers: bool) -> Vec<(usize, usize)> {
            let (mut out, mut i) = (Vec::new(), 0);
            while i < body.len() {
                let start = i;
                if body[i] == b'"' {
                    i += 1;
                    while i < body.len() && body[i] != b'"' {
                        i += 1;
                    }
                    if !numbers {
                        out.push((start + 1, i));
                    }
                } else if numbers && body[i].is_ascii_digit() {
                    while i + 1 < body.len() && body[i + 1].is_ascii_digit() {
                        i += 1;
                    }
                    out.push((start, i + 1));
                }
                i += 1;
            }
            out
        }

        /// Applies `(kind, at, byte)` mutations: overwrite, insert or
        /// delete an ASCII byte (arbitrary bytes have their own test), cut
        /// the body short, give a number literal `1..=8` random digits,
        /// or give a string literal odd contents.
        fn mutate(mut body: Vec<u8>, mutations: &[(u8, usize, u8)]) -> Vec<u8> {
            for &(kind, at, byte) in mutations {
                let pos = at % (body.len() + 1);
                match kind % 8 {
                    0 if pos < body.len() => body[pos] = byte % 128,
                    1 => body.insert(pos, byte % 128),
                    2 if pos < body.len() => {
                        body.remove(pos);
                    }
                    3 => body.truncate(pos),
                    4..=7 => {
                        let numbers = kind % 8 < 6;
                        let spans = spans(&body, numbers);
                        let Some(&(start, end)) = spans.get(at % spans.len().max(1)) else {
                            continue;
                        };
                        let new = if numbers {
                            let digits = 1 + byte as usize % 8;
                            (0..digits).map(|k| b'1' + ((at >> (4 * k)) % 9) as u8).collect()
                        } else {
                            STRINGS[byte as usize % STRINGS.len()].as_bytes().to_vec()
                        };
                        body.splice(start..end, new);
                    }
                    _ => {}
                }
            }
            body
        }

        /// The largest workloads a body may ask for, in either mode,
        /// parse within the bound.
        #[test]
        fn the_largest_workloads_parse_within_bounds() {
            let library = shared();
            let validation = format!(
                r#"{{"platform":"zcu102:2C+1F","validation":{{"wifi_tx":{},"range_detection":{}}}}}"#,
                MAX_INSTANCES / 2,
                MAX_INSTANCES / 2
            );
            let inject = |app: &str| {
                format!(r#"{{"app":"{app}","period":{{"secs":0,"nanos":2000}},"probability":1.0}}"#)
            };
            let performance = format!(
                r#"{{"platform":"zcu102:2C+1F","workload":{{"mode":{{"Performance":{{"injections":[{},{}],"time_frame":{{"secs":0,"nanos":{}}}}}}},"seed":1}}}}"#,
                inject("wifi_tx"),
                inject("range_detection"),
                MAX_INSTANCES * 1000
            );
            for body in [validation, performance] {
                let parsed = parse_request(body.as_bytes(), &library).expect("at the limit");
                assert_eq!(parsed.spec.workload.len() as u64, MAX_INSTANCES);
                parse(body.as_bytes(), &library).expect("within bounds");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arbitrary_bodies_are_answered_within_bounds(
                body in proptest::collection::vec(any::<u8>(), 0..2000),
            ) {
                parse(&body, &shared())?;
            }

            /// Runs of fragments, nesting included (to thousands of
            /// levels, past the JSON parser's recursion limit).
            #[test]
            fn token_soup_is_answered_within_bounds(
                picks in proptest::collection::vec((0usize..TOKENS.len(), 1usize..3000), 0..40),
            ) {
                let body: String = picks.iter().map(|&(i, n)| TOKENS[i].repeat(n)).collect();
                parse(body.as_bytes(), &shared())?;
            }

            #[test]
            fn mutated_valid_bodies_are_answered_within_bounds(
                pick in 0usize..VALID.len(),
                mutations in proptest::collection::vec(any::<(u8, usize, u8)>(), 1..3),
            ) {
                let library = shared();
                let valid = VALID[pick].as_bytes();
                prop_assert!(
                    pick == VALID.len() - 1 || parse_request(valid, &library).is_ok(),
                    "{}",
                    VALID[pick]
                );
                parse(&mutate(valid.to_vec(), &mutations), &library)?;
            }
        }
    }
}
