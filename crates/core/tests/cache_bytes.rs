//! Bytes a full result cache holds.
//!
//! A cached result is a run's compact summary. It must not pin the
//! run's instance memory: one pulse-Doppler image is 1.84 MB, so a
//! 256-entry cache that kept images would hold ~470 MB. This binary
//! counts live heap bytes with a counting global allocator, fills a
//! 256-entry `ResultCache` with distinct pulse-Doppler results from both
//! engines, and bounds what the cache holds after every insert. Each
//! entry's lazy accessors are called first, so records a consumer
//! materializes after the insert are counted too.
//!
//! It holds a single test so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::Workload;
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
/// What one entry may hold. Measured on x86-64: ~127 KB per entry once
/// its 770 task records are materialized. The records are ~99 KB of
/// that and the completion columns 25–37 KB; the rest of the summary,
/// the scenario's key and its instance → app table (whose names are
/// the library app's own) are a few hundred bytes.
const PER_ENTRY: i64 = 160 * 1024;
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
        entry.tasks.records();
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
}
