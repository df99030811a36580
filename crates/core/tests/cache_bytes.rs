//! Bytes a full result cache holds.
//!
//! A cached result is a run summary: it keeps the per-app columns and
//! the task count, never the per-task columns or the run's instance
//! memory. One pulse-Doppler image is 1.84 MB, so a 256-entry cache
//! that kept images would hold ~470 MB; one that kept task columns
//! would hold 36 B (DES) to 52 B (threaded) per task, ~160 KB for a
//! serve-shaped job of ~4.5k tasks. This binary counts live heap bytes
//! with a counting global allocator, fills a 256-entry `ResultCache`
//! with distinct pulse-Doppler results from both engines, and bounds
//! what the cache holds after every insert. Then it caches distinct
//! serve-shaped DES results (WiFi TX/RX and range detection) and bounds
//! each one, so a per-task regression trips the bound. Each entry's
//! lazy accessors are called first, so what a consumer builds after the
//! insert is counted too.
//!
//! It holds a single test so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::{InjectionParams, Workload, WorkloadSpec};
use dssoc_core::engine::{OverheadMode, TimingMode};
use dssoc_core::job::{CostSpec, Engine, JobRunner, ResultCache, ScenarioKey, ScenarioSpec};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

struct Counting;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Entries the cache holds (the serve daemon's default capacity).
const CAPACITY: usize = 256;
/// Entries produced by the threaded engine; the rest come from the DES.
const THREADED: usize = 32;
/// What one pulse-Doppler entry may hold. Measured on x86-64: ~2.6 KB
/// per entry (the summary's names, PE maps, per-app columns and counts,
/// the scenario's key and its instance → app table, whose names are the
/// library app's own, and the cache's slot). The bound is that plus
/// ~50%. The 770 tasks' columns would add ~25 KB (DES) to ~40 KB
/// (threaded), and their materialized records ~99 KB.
const PER_ENTRY: i64 = 4 * 1024;
/// Serve-shaped entries cached after the pulse-Doppler ones.
const SERVE_ENTRIES: usize = 4;
/// What one serve-shaped DES entry (~600 instances, ~4.5k tasks) may
/// hold. Measured on x86-64: ~19.6 KB, nearly all of it the 20-byte
/// per-app columns, the instance → app table and the key's varint
/// arrivals. The bound is that plus ~60%; the task columns alone would
/// add ~145 KB.
const SERVE_ENTRY: i64 = 32 * 1024;
/// What the runner's warm engines (a resource pool, two scratch arenas)
/// may hold while the cache fills.
const ENGINES: i64 = 4 * 1024 * 1024;

/// Table costs for every pulse-Doppler kernel on every PE class, so
/// threaded runs are deterministic and therefore cached.
fn cost_table(library: &AppLibrary, platform: &PlatformConfig) -> CostTable {
    let mut table = CostTable::new();
    for node in &library.get("pulse_doppler").expect("reference app").nodes {
        for pe in &platform.pes {
            if let Some(p) = node.platform(&pe.platform_key) {
                table.set(p.runfunc.clone(), pe.class_name(), Duration::from_micros(20));
            }
        }
    }
    table
}

/// Scenario `i`: one pulse-Doppler instance arriving at `i` µs, so every
/// scenario is distinct and its result too.
fn scenario(
    i: usize,
    library: &Arc<AppLibrary>,
    platform: &Arc<PlatformConfig>,
    cost: &CostSpec,
) -> ScenarioSpec {
    let arrival = ("pulse_doppler", Duration::from_micros(i as u64));
    ScenarioSpec::builder()
        .library(Arc::clone(library))
        .platform(Arc::clone(platform))
        .workload(Workload::new([arrival], None))
        .timing(TimingMode::Modeled)
        .overhead(OverheadMode::None)
        .cost(cost.clone())
        .build()
        .expect("scenario")
}

#[test]
fn a_full_cache_of_pulse_doppler_results_holds_no_images() {
    let (library, _kernels) = dssoc_apps::standard_library();
    let library = Arc::new(library);
    let platform = Arc::new(zcu102(2, 1));
    let cost = CostSpec::table(cost_table(&library, &platform));
    let cache = ResultCache::new(CAPACITY);
    let mut runner = JobRunner::with_cache(cache.clone());
    let before = live();
    for i in 0..CAPACITY {
        let engine = if i < THREADED { Engine::Threaded } else { Engine::Des };
        let spec = scenario(i, &library, &platform, &cost);
        let key = ScenarioKey::of(&spec);
        let result = runner.run_spec(spec, engine).expect("run");
        assert!(!result.cached, "scenario {i} is distinct");
        assert_eq!(result.stats.tasks.len(), 770);
        drop(result);
        let entry = cache.lookup(&key, engine).expect("stored");
        entry.app_aggregates();
        drop((entry, key));
        let held = live() - before;
        let bound = (i as i64 + 1) * PER_ENTRY + ENGINES;
        assert!(held <= bound, "{} entries hold {held} B, over {bound} B", i + 1);
    }
    assert_eq!(cache.len(), CAPACITY);
    drop(runner);
    let held = live() - before;
    println!("{CAPACITY} entries hold {held} B, {} B per entry", held / CAPACITY as i64);
    assert!(held <= CAPACITY as i64 * PER_ENTRY, "the cache holds {held} B");

    // Serve-shaped DES entries, each bounded on its own. A longer
    // warm-up run, cached nowhere that stays, sizes the simulator's
    // scratch first, so what the loop measures is the entries.
    let platform = Arc::new(zcu102(3, 1));
    let mut runner = JobRunner::with_cache(ResultCache::new(1));
    let warm = serve_scenario(u64::MAX, Duration::from_millis(240), &library, &platform);
    runner.run_spec(warm, Engine::Des).expect("warm-up run");
    let serve = ResultCache::new(SERVE_ENTRIES);
    runner.set_cache(serve.clone());
    let (before, mut total_tasks) = (live(), 0);
    for seed in 0..SERVE_ENTRIES {
        let spec = serve_scenario(seed as u64, Duration::from_millis(160), &library, &platform);
        let key = ScenarioKey::of(&spec);
        let result = runner.run_spec(spec, Engine::Des).expect("run");
        let tasks = result.stats.tasks.len();
        assert!((4_000..=5_000).contains(&tasks), "a serve-shaped job runs {tasks} tasks");
        total_tasks += tasks;
        drop(result);
        let entry = serve.lookup(&key, Engine::Des).expect("stored");
        entry.app_aggregates();
        drop((entry, key));
        let held = live() - before;
        let bound = (seed as i64 + 1) * SERVE_ENTRY;
        assert!(held <= bound, "{} serve-shaped entries hold {held} B, over {bound} B", seed + 1);
    }
    let held = live() - before;
    println!("{SERVE_ENTRIES} serve-shaped entries ({total_tasks} tasks) hold {held} B");
}

/// A served DES job's shape: WiFi TX, WiFi RX and range detection each
/// injected every 400 µs with probability 0.5 over `frame`, on an empty
/// cost table (what `"cost": "table"` sends).
fn serve_scenario(
    seed: u64,
    frame: Duration,
    library: &Arc<AppLibrary>,
    platform: &Arc<PlatformConfig>,
) -> ScenarioSpec {
    let inject = |app: &str| InjectionParams {
        app: app.into(),
        period: Duration::from_micros(400),
        probability: 0.5,
    };
    let apps = ["wifi_tx", "wifi_rx", "range_detection"];
    let workload = WorkloadSpec::performance(apps.map(inject).to_vec(), frame, seed)
        .generate(library)
        .expect("workload");
    ScenarioSpec::builder()
        .library(Arc::clone(library))
        .platform(Arc::clone(platform))
        .workload(workload)
        .overhead(OverheadMode::None)
        .cost(CostSpec::table(CostTable::new()))
        .build()
        .expect("scenario")
}
