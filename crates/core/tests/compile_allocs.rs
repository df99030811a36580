//! Heap allocations of one scenario compile.
//!
//! An application's names and DAG topology are built once, when it is
//! loaded, so compiling a scenario resolves only its `(app, platform,
//! cost)` cells: a fixed number of slabs per application, and nothing
//! per DAG node. This binary counts every allocation with a counting
//! global allocator and requires a one-pulse-Doppler scenario (770
//! nodes) to compile in fewer blocks than the app has nodes; a name
//! interned, a string cloned or a successor list copied per node fails
//! it.
//!
//! It holds a single test so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::workload::Workload;
use dssoc_core::engine::OverheadMode;
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioSpec};
use dssoc_platform::cost::CostTable;
use dssoc_platform::presets::zcu102;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`;
// the counting touches no memory the allocator hands out.
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

#[test]
fn a_compile_allocates_nothing_per_node() {
    let library = Arc::new(dssoc_apps::standard_library().0);
    let nodes = library.get("pulse_doppler").expect("reference app").nodes.len();
    assert_eq!(nodes, 770);
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(zcu102(3, 1))
        .workload(Workload::new([("pulse_doppler", Duration::ZERO)], None))
        .overhead(OverheadMode::None)
        .cost(CostSpec::table(CostTable::new()))
        .build()
        .expect("scenario");
    let mut blocks = 0;
    // The first round warms whatever is initialized lazily.
    for _ in 0..2 {
        let spec = spec.clone();
        let before = ALLOCS.load(Ordering::Relaxed);
        let compiled = CompiledScenario::compile(spec).expect("compile");
        blocks = ALLOCS.load(Ordering::Relaxed) - before;
        drop(compiled);
    }
    println!("a one-pulse-Doppler compile allocates {blocks} blocks");
    assert!(blocks < nodes as u64, "{blocks} blocks for {nodes} nodes");
}
