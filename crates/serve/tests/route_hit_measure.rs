//! Measurement harness: the in-process time of `route(POST /jobs)` on a
//! served cache hit of an ~800-arrival body (`configs/serve_perf_job.json`
//! with a 77 ms time frame). Ignored by default (run with `--ignored
//! --nocapture`); it prints timings instead of asserting them, because
//! absolute thresholds are flaky on a shared host.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_metrics::http::Request;
use dssoc_metrics::MetricsRegistry;
use dssoc_serve::daemon::route;
use dssoc_serve::{parse_job, JobManager, ManagerConfig};

#[test]
#[ignore]
fn measure_route_of_a_cache_hit() {
    let library = Arc::new(dssoc_apps::standard_library().0);
    let registry = MetricsRegistry::new();
    let manager = JobManager::start(ManagerConfig::default(), registry.clone());
    let body = include_str!("../../../configs/serve_perf_job.json")
        .replace("\"nanos\": 100000000", "\"nanos\": 77000000");
    let submit = Request {
        method: "POST".into(),
        path: "/jobs".into(),
        query: Vec::new(),
        headers: vec![("x-tenant".into(), "probe".into())],
        body: body.into_bytes(),
    };
    let started = Instant::now();
    let post = || route(&submit, &manager, &registry, &library, started);

    // The first submission runs and fills the cache.
    let first = post();
    assert_eq!(first.status, 202, "{}", String::from_utf8_lossy(&first.body));
    let receipt: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&first.body).expect("UTF-8")).expect("JSON");
    let id = receipt["job"].as_u64().expect("a job id");
    manager.wait(id, Duration::from_secs(30)).expect("the job is known");
    let arrivals =
        parse_job(&submit.body, &library).expect("parses").scenario.spec().workload.len();

    const ROUNDS: usize = 7;
    const CALLS: usize = 3000;
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..CALLS {
            let hit = post();
            assert_eq!(hit.status, 202);
        }
        best = best.min(t.elapsed().as_secs_f64() / CALLS as f64);
    }
    let replay: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&post().body).expect("UTF-8")).expect("JSON");
    assert_eq!(replay["cached"].as_bool(), Some(true), "{replay:?}");
    println!(
        "route(POST /jobs) on a cache hit of {arrivals} arrivals: {:.1} us (best of {ROUNDS} x {CALLS})",
        best * 1e6
    );
    manager.shutdown(true);
}
