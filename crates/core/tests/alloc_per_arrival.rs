//! Heap allocations per arrival on a served cache hit's path.
//!
//! A workload is an app table plus `(app index, arrival ns)` pairs, so
//! generating a trace, fingerprinting its scenario, confirming a cached
//! result by value and dropping it all again allocate per application
//! and per call, never per arrival. This binary counts every
//! allocation with a counting global allocator and requires the same
//! count at 100 and at 2000 arrivals; a name cloned, a key built by
//! pushes, or a sort scratch buffer per trace fails it.
//!
//! It holds a single test so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::workload::{InjectionParams, WorkloadSpec};
use dssoc_core::engine::OverheadMode;
use dssoc_core::job::{CostSpec, Engine, JobRunner, ResultCache, ScenarioKey, ScenarioSpec};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PlatformConfig;
use dssoc_platform::presets::zcu102;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Two apps injected every 2 µs with certainty over `arrivals` µs:
/// exactly `arrivals` arrivals, in same-time pairs.
fn workload(arrivals: u64) -> WorkloadSpec {
    let inject = |app: &str| InjectionParams {
        app: app.into(),
        period: Duration::from_micros(2),
        probability: 1.0,
    };
    WorkloadSpec::performance(
        vec![inject("wifi_tx"), inject("range_detection")],
        Duration::from_micros(arrivals),
        arrivals,
    )
}

fn spec(
    workload: &WorkloadSpec,
    library: &Arc<AppLibrary>,
    platform: &Arc<PlatformConfig>,
    cost: &CostSpec,
) -> ScenarioSpec {
    ScenarioSpec::builder()
        .library(Arc::clone(library))
        .platform(Arc::clone(platform))
        .workload(workload.generate(library).expect("workload"))
        .overhead(OverheadMode::None)
        .cost(cost.clone())
        .build()
        .expect("scenario")
}

#[test]
fn a_cache_hit_allocates_nothing_per_arrival() {
    let library = Arc::new(dssoc_apps::standard_library().0);
    let platform = Arc::new(zcu102(2, 1));
    let cost = CostSpec::table(CostTable::new());
    let stats = Arc::new(
        JobRunner::new()
            .run_spec(spec(&workload(2), &library, &platform, &cost), Engine::Des)
            .expect("run")
            .stats,
    );

    let blocks_at = |arrivals: u64| {
        let request = workload(arrivals);
        let stored = spec(&request, &library, &platform, &cost);
        assert_eq!(stored.workload.len() as u64, arrivals);
        let cache = ResultCache::new(1);
        cache.store(&Arc::new(ScenarioKey::of(&stored)), Engine::Des, Arc::clone(&stats));
        let mut blocks = 0;
        // The first round warms whatever is initialized lazily.
        for _ in 0..2 {
            let before = ALLOCS.load(Ordering::Relaxed);
            let served = spec(&request, &library, &platform, &cost);
            let key = ScenarioKey::of(&served);
            let hit = cache.lookup(&key, Engine::Des);
            assert!(hit.is_some(), "the regenerated scenario hits");
            drop((hit, key, served));
            blocks = ALLOCS.load(Ordering::Relaxed) - before;
        }
        blocks
    };
    let (small, large) = (blocks_at(100), blocks_at(2000));
    assert_eq!(small, large, "blocks at 100 arrivals vs at 2000");
}
