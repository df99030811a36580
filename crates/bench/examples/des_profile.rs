//! Profiler driver: hammers the warm DES path (`run_compiled` on one
//! precompiled scenario) so a sampling profiler sees only the hot loop.
//!
//! ```sh
//! cargo build --release --example des_profile -p dssoc-bench
//! gprofng collect app -o /tmp/des.er target/release/examples/des_profile 2000
//! gprofng display text -functions /tmp/des.er | head -40
//! ```

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::standard_library;
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::job::{CompiledScenario, CostSpec, ScenarioSpec};
use dssoc_core::sched::by_name;
use dssoc_platform::cost::CostTable;
use dssoc_platform::presets::zcu102;

fn main() {
    let reps: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(1000);
    let instances: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(667);

    let (library, _registry) = standard_library();
    let platform = zcu102(3, 0);
    let mut table = CostTable::new();
    let spec = library.get("range_detection").expect("reference app");
    for node in &spec.nodes {
        for pe in &platform.pes {
            if let Some(p) = node.platform(&pe.platform_key) {
                let d = p
                    .mean_exec
                    .unwrap_or_else(|| Duration::from_micros(50 + 10 * node.index as u64));
                table.set(p.runfunc.clone(), pe.class_name(), d);
            }
        }
    }
    let wl = Arc::new(
        WorkloadSpec::validation([("range_detection", instances)])
            .generate(&library)
            .expect("workload"),
    );
    let scenario = CompiledScenario::compile(
        ScenarioSpec::builder()
            .library(library)
            .platform(platform.clone())
            .scheduler("frfs")
            .workload(wl)
            .cost(CostSpec::table(table.clone()))
            .build()
            .expect("scenario"),
    )
    .expect("compile");
    let mut sim = DesSimulator::new(
        platform,
        DesConfig {
            cost: CostSpec::table(table),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics: None,
        },
    )
    .expect("platform");
    let mut sched = by_name("frfs").expect("library policy");

    let mut tasks = 0usize;
    let start = Instant::now();
    for _ in 0..reps {
        let stats = sim.run_compiled(sched.as_mut(), &scenario, None, None).expect("simulation");
        tasks = black_box(stats.tasks.len());
    }
    let elapsed = start.elapsed();
    let per_run = elapsed / reps as u32;
    println!(
        "{reps} runs x {tasks} tasks: {elapsed:.2?} total, {per_run:.2?}/run, {:.0} events/sec",
        2.0 * tasks as f64 / per_run.as_secs_f64()
    );
}
