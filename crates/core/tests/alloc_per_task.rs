//! Heap allocations per task on a warm threaded run.
//!
//! A warm `Emulation` reuses its resource-manager threads and its
//! workload manager's scratch buffers, so once a run at a given size has
//! sized them, the per-task path — dispatch, kernel execution on the PE
//! thread, completion, ready-list update — allocates nothing. What a
//! run still allocates is per instance (fresh instance memory) or per
//! run (the stats). This binary counts every allocation on every thread
//! with a counting global allocator and bounds the second run's count per
//! task; a per-task clone on either side of the hand-off (a node spec, a
//! runfunc name, a fat task record) costs several allocations per task
//! and fails it.
//!
//! It holds a single test so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson, VariableJson};
use dssoc_appmodel::registry::KernelRegistry;
use dssoc_appmodel::WorkloadSpec;
use dssoc_core::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
use dssoc_core::job::{CompiledScenario, CostSpec};
use dssoc_core::FrfsScheduler;
use dssoc_platform::cost::CostTable;
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

/// A diamond `src -> {a, b} -> sink` of no-op kernels with one variable.
fn diamond_library() -> AppLibrary {
    let mut registry = KernelRegistry::new();
    for k in ["k_src", "k_a", "k_b", "k_sink"] {
        registry.register_fn("noop.so", k, |_| Ok(()));
    }
    let node = |runfunc: &str, preds: &[&str], succs: &[&str]| NodeJson {
        arguments: vec!["x".into()],
        predecessors: preds.iter().map(|s| s.to_string()).collect(),
        successors: succs.iter().map(|s| s.to_string()).collect(),
        platforms: vec![PlatformJson {
            name: "cpu".into(),
            runfunc: runfunc.into(),
            shared_object: None,
            mean_exec_us: None,
        }],
    };
    let mut dag = BTreeMap::new();
    dag.insert("src".to_string(), node("k_src", &[], &["a", "b"]));
    dag.insert("a".to_string(), node("k_a", &["src"], &["sink"]));
    dag.insert("b".to_string(), node("k_b", &["src"], &["sink"]));
    dag.insert("sink".to_string(), node("k_sink", &["a", "b"], &[]));
    let mut variables = BTreeMap::new();
    variables.insert("x".to_string(), VariableJson::u32_scalar(7));
    let json = AppJson { app_name: "noop".into(), shared_object: "noop.so".into(), variables, dag };
    let mut library = AppLibrary::new();
    library.register_json(&json, &registry).unwrap();
    library
}

#[test]
fn warm_threaded_run_allocates_little_per_task() {
    let library = diamond_library();
    let workload = WorkloadSpec::validation([("noop", 100usize)]).generate(&library).unwrap();
    let mut table = CostTable::new();
    for k in ["k_src", "k_a", "k_b", "k_sink"] {
        table.set(k, "cortex-a53", Duration::from_micros(20));
    }
    let config = EmulationConfig {
        timing: TimingMode::Modeled,
        overhead: OverheadMode::None,
        cost: CostSpec::table(table),
        reservation_depth: 0,
        trace: None,
        faults: None,
        metrics: None,
    };
    let platform = Arc::new(zcu102(2, 0));
    let spec = config.scenario(
        Arc::new(library),
        Arc::clone(&platform),
        "frfs".to_string(),
        Arc::new(workload),
    );
    let scenario = CompiledScenario::compile(spec).unwrap();
    let mut emu = Emulation::with_config(platform, config).unwrap();

    let first = emu.run_compiled(&mut FrfsScheduler::new(), &scenario, None).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let second = emu.run_compiled(&mut FrfsScheduler::new(), &scenario, None).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let tasks = second.tasks.len();
    assert_eq!(tasks, 400);
    assert_eq!(second.makespan, first.makespan, "warm runs are deterministic");
    let per_task = allocs as f64 / tasks as f64;
    println!("warm threaded run: {allocs} allocations over {tasks} tasks ({per_task:.2}/task)");
    // Per instance (4 tasks) the run allocates the instance, its memory
    // and its one data buffer; the rest is per run.
    assert!(per_task < 1.5, "{allocs} allocations over {tasks} tasks ({per_task:.2}/task)");
}
