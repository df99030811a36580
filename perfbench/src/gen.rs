//! Seeded input generators: served job bodies and sweep cells.
//!
//! Everything here is a pure function of the benchmark seed, so the
//! same seed gives the same inputs; the program under test only ever
//! sees the generated bodies and cells.

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::{InjectionParams, Workload, WorkloadSpec};
use dssoc_core::sweep::SweepCell;
use dssoc_platform::presets::zcu102;

/// The apps every job injects at a steady rate: WiFi TX/RX and radar
/// range detection. Pulse-Doppler is left out; see `NOTES.md`.
const APPS: [&str; 3] = ["wifi_tx", "wifi_rx", "range_detection"];
/// Fewest and most tasks of one app instance (range detection has 6,
/// WiFi RX 9).
const APP_TASKS: (usize, usize) = (6, 9);
/// Injection probability per attempt of each app.
const PROBABILITY: f64 = 0.5;

/// The task-count range a job with `attempts` injection attempts can
/// produce: instance counts within six standard deviations of their
/// binomial mean, times the fewest and most tasks per instance.
fn task_range(attempts: usize) -> (usize, usize) {
    let n = attempts as f64;
    let mean = n * PROBABILITY;
    let spread = 6.0 * (n * PROBABILITY * (1.0 - PROBABILITY)).sqrt();
    let lo = (mean - spread).max(1.0).floor() as usize;
    let hi = (mean + spread).min(n).ceil() as usize;
    (lo * APP_TASKS.0, hi * APP_TASKS.1)
}

/// splitmix64 — a small, well-mixed generator; `stream` separates the
/// independent sequences drawn from one benchmark seed.
pub struct Rng(u64);

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mix64(stream.wrapping_add(1))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Served jobs
// ---------------------------------------------------------------------------

/// Platform presets of served jobs.
const SERVE_PLATFORMS: [&str; 4] = ["zcu102:2C+1F", "zcu102:3C+1F", "odroid:2B+2L", "odroid:4B+3L"];

/// Schedulers of served jobs with the DES cost each ms of time frame
/// adds (ms, daemon run with metrics attached, measured on a two-core
/// x86-64 host). MET and EFT weigh every PE per decision and cost
/// about 1.8 times FRFS per task; sizing each job to a common cost band
/// keeps the three schedulers' latencies overlapping, so the latency
/// mix has no gap a percentile could jump across.
const SERVE_SCHEDULERS: [(&str, f64); 3] = [("frfs", 0.0098), ("met", 0.0175), ("eft", 0.018)];

/// DES cost band of one served job, ms.
const SERVE_COST_MS: (f64, f64) = (1.5, 3.0);

/// App injection period of served jobs.
const SERVE_PERIOD: Duration = Duration::from_micros(400);

/// One served job: the request body and what the generator asked for.
#[derive(Clone)]
pub struct ServeJob {
    pub body: String,
    /// Injection attempts the body allows, so `tasks` has a known range.
    pub attempts: usize,
}

impl ServeJob {
    /// The task-count range this job's workload can produce.
    pub fn task_range(&self) -> (usize, usize) {
        task_range(self.attempts)
    }
}

fn duration_json(d: Duration) -> String {
    format!("{{\"secs\":{},\"nanos\":{}}}", d.as_secs(), d.subsec_nanos())
}

fn injection_json(app: &str, period: Duration, probability: f64) -> String {
    format!(
        "{{\"app\":\"{app}\",\"period\":{},\"probability\":{probability}}}",
        duration_json(period)
    )
}

/// Draws one served job: a performance-mode workload of the three apps
/// at a steady rate over a continuous time frame, on a random preset
/// and scheduler, with its own workload seed.
pub fn serve_job(rng: &mut Rng) -> ServeJob {
    let platform = SERVE_PLATFORMS[rng.below(SERVE_PLATFORMS.len())];
    let (scheduler, per_ms) = SERVE_SCHEDULERS[rng.below(SERVE_SCHEDULERS.len())];
    let cost = SERVE_COST_MS.0 + (SERVE_COST_MS.1 - SERVE_COST_MS.0) * rng.unit();
    let frame = Duration::from_secs_f64(cost / per_ms * 1e-3);
    let seed = rng.next_u64() >> 1;
    let injections: Vec<String> =
        APPS.iter().map(|app| injection_json(app, SERVE_PERIOD, PROBABILITY)).collect();
    let body = format!(
        "{{\"engine\":\"des\",\"platform\":\"{platform}\",\"scheduler\":\"{scheduler}\",\
         \"workload\":{{\"mode\":{{\"Performance\":{{\"injections\":[{}],\"time_frame\":{}}}}},\
         \"seed\":{seed}}}}}",
        injections.join(","),
        duration_json(frame),
    );
    ServeJob { body, attempts: APPS.len() * attempts_in(frame, SERVE_PERIOD) }
}

fn attempts_in(frame: Duration, period: Duration) -> usize {
    frame.as_nanos().div_ceil(period.as_nanos()) as usize
}

// ---------------------------------------------------------------------------
// Sweep cells
// ---------------------------------------------------------------------------

/// ZCU102 shapes of sweep cells: `(cores, FFT accelerators)`, never
/// more PEs than a two-core host has. The CPU-only shapes are the ones
/// the cross-engine differential suite pins.
pub const SWEEP_SHAPES: [(usize, usize); 3] = [(1, 0), (2, 0), (1, 1)];
const SWEEP_SCHEDULERS: [&str; 3] = ["frfs", "met", "eft"];
const SWEEP_PERIOD: Duration = Duration::from_micros(500);
/// Time-frame band of sweep cells, ms.
const SWEEP_FRAME_MS: (f64, f64) = (20.0, 60.0);

/// One sweep cell plus what the generator asked for.
pub struct SweepJob {
    pub cell: SweepCell,
    pub attempts: usize,
    /// True when the cell's platform is CPU-only, where the threaded
    /// engine must equal the DES bit for bit.
    pub cpu_only: bool,
}

impl SweepJob {
    pub fn task_range(&self) -> (usize, usize) {
        task_range(self.attempts)
    }
}

/// Draws sweep cell `index`: the served jobs' app blend over a
/// continuous time frame, on a random shape and scheduler.
pub fn sweep_job(rng: &mut Rng, library: &AppLibrary, index: usize) -> SweepJob {
    let (cores, ffts) = SWEEP_SHAPES[rng.below(SWEEP_SHAPES.len())];
    let scheduler = SWEEP_SCHEDULERS[rng.below(SWEEP_SCHEDULERS.len())];
    let frame_ms = SWEEP_FRAME_MS.0 + (SWEEP_FRAME_MS.1 - SWEEP_FRAME_MS.0) * rng.unit();
    let frame = Duration::from_secs_f64(frame_ms * 1e-3);
    let injections: Vec<InjectionParams> = APPS
        .iter()
        .map(|app| InjectionParams {
            app: app.to_string(),
            period: SWEEP_PERIOD,
            probability: PROBABILITY,
        })
        .collect();
    let seed = rng.next_u64() >> 1;
    let workload: Workload = WorkloadSpec::performance(injections, frame, seed)
        .generate(library)
        .expect("generated workloads name only library apps");
    let cell = SweepCell::new(zcu102(cores, ffts), scheduler, Arc::new(workload))
        .label(format!("cell{index}"));
    SweepJob { cell, attempts: APPS.len() * attempts_in(frame, SWEEP_PERIOD), cpu_only: ffts == 0 }
}
