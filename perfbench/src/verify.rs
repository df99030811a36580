//! Correctness oracles: cache-less in-process DES runs of served
//! bodies, and the committed digest of the default seed's results.

use std::sync::Arc;

use dssoc_appmodel::app::AppLibrary;
use dssoc_core::job::{Engine, JobRunner, ResultCache};
use dssoc_core::stats::EmulationStats;
use dssoc_serve::parse_job;

/// Threads the oracle runs on (the benchmark's thread budget).
const ORACLE_THREADS: usize = 2;

/// The simulated result fields every check compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimResult {
    pub makespan_ns: u64,
    pub tasks: u64,
    pub apps_completed: u64,
    pub sched_invocations: u64,
}

impl SimResult {
    pub fn of(stats: &EmulationStats) -> SimResult {
        SimResult {
            makespan_ns: stats.makespan.as_nanos() as u64,
            tasks: stats.tasks.len() as u64,
            apps_completed: stats.completed_apps() as u64,
            sched_invocations: stats.sched_invocations,
        }
    }
}

/// A runner whose every run executes: a new one-slot cache per run
/// keeps the warm engines but never answers from a previous result.
pub fn run_uncached(
    runner: &mut JobRunner,
    scenario: &Arc<dssoc_core::job::CompiledScenario>,
    engine: Engine,
) -> EmulationStats {
    runner.set_cache(ResultCache::new(1));
    let result = runner.run(scenario, engine).expect("oracle run");
    assert!(!result.cached, "oracle runs never come from a cache");
    result.stats
}

/// Fresh, cache-less in-process DES runs of each body (no metrics
/// attached, as a library caller runs it), on two threads.
pub fn des_oracle(bodies: &[&str], library: &Arc<AppLibrary>) -> Vec<SimResult> {
    let chunk = bodies.len().div_ceil(ORACLE_THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut runner = JobRunner::new();
                    part.iter()
                        .map(|body| {
                            let parsed = parse_job(body.as_bytes(), library).expect("body parses");
                            SimResult::of(&run_uncached(&mut runner, &parsed.scenario, Engine::Des))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("oracle thread")).collect()
    })
}

/// The seed whose first results are pinned by [`GOLDEN`].
pub const GOLDEN_SEED: u64 = 1;
/// Jobs of the golden seed each workload's digest covers.
pub const GOLDEN_JOBS: usize = 8;

/// Committed digests of the first [`GOLDEN_JOBS`] simulated results of
/// each workload at [`GOLDEN_SEED`]. Regenerate with
/// `perfbench --print-golden` only when a change is meant to alter
/// simulated results.
pub const GOLDEN: [(&str, u64); 3] = [
    ("serve_fresh", 0x74ff476331521a51),
    ("serve_replay", 0xa5706317f07d8b66),
    ("emu_sweep", 0xee04af0974ca8091),
];

/// FNV-1a over every field of every result, in order.
pub fn digest(results: &[SimResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in results {
        for v in [r.makespan_ns, r.tasks, r.apps_completed, r.sched_invocations] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// `Some(problem)` when `workload`'s golden results drifted.
pub fn golden_problem(workload: &str, actual: u64) -> Option<String> {
    let expected = GOLDEN.iter().find(|(w, _)| *w == workload).map(|(_, d)| *d)?;
    (expected != actual)
        .then(|| format!("{workload}: golden digest {actual:016x} != committed {expected:016x}"))
}
