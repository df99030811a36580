//! End-to-end exercise of the daemon over real sockets: boot on an
//! ephemeral port, submit from multiple "tenants" with the blocking
//! HTTP client, and verify the acceptance properties — bit-identical
//! results vs a direct [`JobRunner`] run, cross-tenant cache hits
//! observable on `/metrics`, quota breaches answered `429`, cancel,
//! and a graceful drain.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::workload::WorkloadSpec;
use dssoc_core::job::{CompiledScenario, CostSpec, Engine, Fingerprint, JobRunner, ScenarioSpec};
use dssoc_metrics::http::{request, ClientResponse};
use dssoc_platform::cost::CostTable;
use dssoc_serve::{Daemon, ManagerConfig, ServeConfig};
use serde_json::Value;

fn daemon(manager: ManagerConfig) -> Daemon {
    Daemon::start(ServeConfig { addr: "127.0.0.1:0".to_string(), manager }).expect("bind daemon")
}

fn post_job(addr: SocketAddr, tenant: &str, body: &str) -> ClientResponse {
    request(addr, "POST", "/jobs", &[("X-Tenant", tenant)], Some(body.as_bytes()))
        .expect("submit request")
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let resp = request(addr, "GET", path, &[], None).expect("get request");
    assert!(resp.is_success(), "GET {path} -> {}: {}", resp.status, resp.body);
    serde_json::from_str(&resp.body).expect("json body")
}

fn job_id(resp: &ClientResponse) -> u64 {
    assert_eq!(resp.status, 202, "submit should be accepted: {}", resp.body);
    let v: Value = serde_json::from_str(&resp.body).expect("submit body");
    v["job"].as_u64().expect("job id")
}

/// Long-polls until the job is terminal and returns its result body.
fn await_result(addr: SocketAddr, id: u64) -> Value {
    for _ in 0..600 {
        let status = get_json(addr, &format!("/jobs/{id}?wait_ms=500"));
        match status["status"].as_str().unwrap() {
            "queued" | "running" => continue,
            "done" => return get_json(addr, &format!("/jobs/{id}/result")),
            other => panic!("job {id} ended {other}: {status:?}"),
        }
    }
    panic!("job {id} never finished");
}

const DES_JOB: &str = r#"{
    "engine": "des",
    "platform": "zcu102:2C+1F",
    "scheduler": "eft",
    "validation": { "range_detection": 4, "pulse_doppler": 1 }
}"#;

/// The exact scenario `DES_JOB` describes, compiled directly against
/// the job layer — the reference for bit-identity.
fn reference_scenario() -> Arc<CompiledScenario> {
    let (library, _) = dssoc_apps::standard_library();
    let library = Arc::new(library);
    let workload = WorkloadSpec::validation([("range_detection", 4usize), ("pulse_doppler", 1)])
        .generate(&library)
        .unwrap();
    let spec = ScenarioSpec::builder()
        .library(library)
        .workload(workload)
        .platform_named("zcu102:2C+1F")
        .scheduler("eft")
        // The api layer's DES defaults: table costs, no overhead.
        .cost(CostSpec::table(CostTable::new()))
        .overhead(dssoc_core::engine::OverheadMode::None)
        .build()
        .unwrap();
    CompiledScenario::compile(spec).unwrap()
}

#[test]
fn results_are_bit_identical_to_direct_runner_and_cached_across_tenants() {
    let d = daemon(ManagerConfig::default());
    let addr = d.addr();

    // Reference: the same scenario through a private JobRunner.
    let scenario = reference_scenario();
    let mut runner = JobRunner::new();
    let direct = runner.run(&scenario, Engine::Des).unwrap();

    // Tenant alice submits over the wire.
    let first = post_job(addr, "alice", DES_JOB);
    let first_result = await_result(addr, job_id(&first));
    assert_eq!(
        first_result["makespan_ns"].as_u64().unwrap() as u128,
        direct.stats.makespan.as_nanos(),
        "HTTP result must be bit-identical to the direct run"
    );
    assert_eq!(
        Fingerprint::parse(first_result["fingerprint"].as_str().unwrap()),
        Some(scenario.fingerprint()),
        "wire fingerprint round-trips to the compiled scenario's"
    );
    assert_eq!(first_result["cached"].as_bool(), Some(false));
    assert_eq!(first_result["apps_completed"].as_u64(), Some(5));

    // Tenant bob submits the identical body: served from cache,
    // bit-identical makespan.
    let second = post_job(addr, "bob", DES_JOB);
    let second_result = await_result(addr, job_id(&second));
    assert_eq!(second_result["cached"].as_bool(), Some(true), "{second_result:?}");
    assert_eq!(second_result["makespan_ns"], first_result["makespan_ns"]);

    // The hit is observable on the daemon's own /metrics ...
    let metrics = request(addr, "GET", "/metrics", &[], None).unwrap();
    assert!(metrics.is_success());
    let hits_line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("dssoc_result_cache_hits_total"))
        .expect("cache hit family exported");
    let hits: f64 = hits_line.split_whitespace().last().unwrap().parse().unwrap();
    assert!(hits >= 1.0, "expected >=1 cache hit, got {hits_line}");

    // ... and attributed to bob in the tenant accounting.
    let tenants = get_json(addr, "/tenants");
    let bob = tenants["tenants"]
        .as_array()
        .unwrap()
        .iter()
        .find(|t| t["tenant"].as_str() == Some("bob"))
        .expect("bob accounted");
    assert_eq!(bob["cache_served"].as_u64(), Some(1), "{bob:?}");

    d.shutdown();
}

#[test]
fn four_concurrent_tenants_mixed_engines() {
    let d = daemon(ManagerConfig::default());
    let addr = d.addr();
    // Four clients at once: two DES, two threaded (wallclock-free
    // modeled timing; measured costs keep kernels actually running).
    let threaded_job = r#"{
        "engine": "threaded",
        "platform": "zcu102:2C+1F",
        "validation": { "wifi_tx": 1 }
    }"#;
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let tenant = format!("tenant-{i}");
            let body = if i % 2 == 0 { DES_JOB } else { threaded_job };
            std::thread::spawn(move || {
                let id = job_id(&post_job(addr, &tenant, body));
                await_result(addr, id)
            })
        })
        .collect();
    let results: Vec<Value> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (i, result) in results.iter().enumerate() {
        let expected_engine = if i % 2 == 0 { "des" } else { "threaded" };
        assert_eq!(result["engine"].as_str(), Some(expected_engine), "{result:?}");
        assert!(result["makespan_ns"].as_u64().unwrap() > 0);
        assert!(result["apps_completed"].as_u64().unwrap() > 0);
    }
    // Both engines' completions show up in the serve metric families.
    let snapshot = get_json(addr, "/snapshot.json");
    let text = serde_json::to_string(&snapshot).unwrap();
    assert!(text.contains("dssoc_serve_jobs_completed"), "{text}");
    d.shutdown();
}

#[test]
fn quota_breach_is_429_and_queue_full_is_503() {
    // In-flight quota 0 pins jobs in the queue so the breach point is
    // exact; queue capacity 3 exercises the global bound via a second
    // tenant.
    let d = daemon(ManagerConfig {
        max_queued_per_tenant: 2,
        max_inflight_per_tenant: 0,
        queue_capacity: 3,
        ..ManagerConfig::default()
    });
    let addr = d.addr();
    assert_eq!(post_job(addr, "carol", DES_JOB).status, 202);
    assert_eq!(post_job(addr, "carol", DES_JOB).status, 202);
    let breach = post_job(addr, "carol", DES_JOB);
    assert_eq!(breach.status, 429, "{}", breach.body);
    assert!(breach.body.contains("quota"), "{}", breach.body);
    // Other tenants still fit until the global queue bound trips.
    assert_eq!(post_job(addr, "dan", DES_JOB).status, 202);
    let full = post_job(addr, "erin", DES_JOB);
    assert_eq!(full.status, 503, "{}", full.body);
    assert!(full.body.contains("queue_full"), "{}", full.body);
    // The rejections are visible per tenant and reason.
    let metrics = request(addr, "GET", "/metrics", &[], None).unwrap().body;
    assert!(
        metrics.contains("dssoc_serve_rejections_total"),
        "rejection family missing:\n{metrics}"
    );
    assert!(metrics.contains("tenant_quota"), "{metrics}");
    assert!(metrics.contains("queue_full"), "{metrics}");
    drop(d); // non-graceful: queued jobs are cancelled
}

#[test]
fn bad_submissions_get_one_line_json_errors() {
    let d = daemon(ManagerConfig::default());
    let addr = d.addr();
    let bad = post_job(addr, "alice", r#"{"platform": "zcu102:2C+1F"}"#);
    assert_eq!(bad.status, 400);
    let v: Value = serde_json::from_str(&bad.body).expect("error body is JSON");
    assert!(v["error"].as_str().unwrap().contains("missing workload"), "{v:?}");
    let missing = request(addr, "GET", "/jobs/424242", &[], None).unwrap();
    assert_eq!(missing.status, 404);
    d.shutdown();
}

#[test]
fn cancel_trace_and_graceful_drain() {
    let d = daemon(ManagerConfig { des_workers: 1, ..ManagerConfig::default() });
    let addr = d.addr();

    // A heavy blocker keeps the single DES worker busy so the jobs
    // behind it are reliably cancellable.
    let blocker = r#"{
        "engine": "des",
        "platform": "zcu102:2C+1F",
        "workload": {
            "mode": { "Performance": {
                "injections": [{
                    "app": "range_detection",
                    "period": { "secs": 0, "nanos": 20000 },
                    "probability": 1.0
                }],
                "time_frame": { "secs": 0, "nanos": 100000000 }
            }},
            "seed": 3
        }
    }"#;
    let blocker_id = job_id(&post_job(addr, "frank", blocker));
    let traced = r#"{
        "engine": "des",
        "platform": "zcu102:2C+1F",
        "validation": { "wifi_rx": 2 },
        "trace": true
    }"#;
    let traced_id = job_id(&post_job(addr, "frank", traced));
    let victim_id = job_id(&post_job(addr, "frank", DES_JOB));

    // Cancel the queued victim over the wire.
    let cancel = request(addr, "POST", &format!("/jobs/{victim_id}/cancel"), &[], None).unwrap();
    assert_eq!(cancel.status, 200, "{}", cancel.body);
    let again = request(addr, "DELETE", &format!("/jobs/{victim_id}"), &[], None).unwrap();
    assert_eq!(again.status, 409, "second cancel conflicts: {}", again.body);

    // Graceful drain: the blocker and the traced job run to
    // completion even though the listener is gone afterwards.
    let manager = Arc::clone(d.manager());
    d.shutdown();
    let blocker_snap = manager.job(blocker_id).unwrap();
    assert_eq!(blocker_snap.state.name(), "done", "{:?}", blocker_snap.state);
    let traced_snap = manager.job(traced_id).unwrap();
    assert_eq!(traced_snap.state.name(), "done", "{:?}", traced_snap.state);
    assert_eq!(manager.job(victim_id).unwrap().state.name(), "cancelled");

    // The trace artifact was captured and is valid Chrome JSON.
    let trace = manager.trace_artifact(traced_id).expect("trace artifact");
    let v: Value = serde_json::from_str(&trace).expect("trace is JSON");
    assert!(
        v["traceEvents"].as_array().map(|a| !a.is_empty()).unwrap_or(false),
        "trace has events"
    );
}

#[test]
fn timeline_and_trace_stitch_over_the_wire() {
    let d = daemon(ManagerConfig::default());
    let addr = d.addr();
    let traced = r#"{
        "engine": "des",
        "platform": "zcu102:2C+1F",
        "validation": { "range_detection": 2 },
        "trace": true
    }"#;
    let id = job_id(&post_job(addr, "harriet", traced));
    await_result(addr, id);

    let timeline = get_json(addr, &format!("/jobs/{id}/timeline"));
    assert_eq!(timeline["status"].as_str(), Some("done"));
    assert_eq!(timeline["tenant"].as_str(), Some("harriet"));
    let span = timeline["span"].as_str().expect("root span").to_string();
    let events = timeline["events"].as_array().unwrap();
    assert_eq!(events.first().unwrap()["event"].as_str(), Some("submitted"));
    assert_eq!(events.last().unwrap()["event"].as_str(), Some("completed"));
    // Every event carries the context the flight recorder promises.
    for ev in events {
        for key in ["seq", "ts_ns", "level", "event", "job", "span", "tenant", "lane"] {
            assert!(!ev[key].is_null(), "event missing '{key}': {ev:?}");
        }
    }
    // The span tree stitches the engine trace in by span id ...
    let stitch = &timeline["span_tree"]["engine_trace"];
    assert_eq!(stitch["span"].as_str(), Some(span.as_str()));
    let trace_url = stitch["url"].as_str().expect("stitched trace url");
    // ... and the referenced artifact really carries that span id as
    // a metadata record, so external tools can join the two.
    let trace = request(addr, "GET", trace_url, &[], None).unwrap();
    assert!(trace.is_success(), "{}", trace.body);
    assert!(trace.body.contains(&span), "trace artifact not stamped with span {span}");
    // Ring drops during the traced run are published on the timeline.
    assert!(timeline["trace_dropped"].as_u64().is_some(), "{timeline:?}");
    d.shutdown();
}

#[test]
fn event_stream_over_the_wire_is_jsonl_with_a_summary() {
    let d = daemon(ManagerConfig::default());
    let addr = d.addr();
    let id = job_id(&post_job(addr, "iris", DES_JOB));
    // The stream stays open (chunked) until the job goes terminal,
    // then appends a stream_end summary line. The blocking client
    // returns once the server closes the connection.
    let resp = request(addr, "GET", &format!("/jobs/{id}/events?since=0&max_ms=25000"), &[], None)
        .unwrap();
    assert!(resp.is_success(), "{}", resp.body);
    let lines: Vec<Value> = resp
        .body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad JSONL '{l}': {e}")))
        .collect();
    assert!(lines.len() >= 5, "expected a full lifecycle, got {lines:?}");
    assert_eq!(lines[0]["event"].as_str(), Some("submitted"));
    let summary = lines.last().unwrap();
    assert_eq!(summary["stream_end"].as_bool(), Some(true), "{summary:?}");
    assert_eq!(summary["dropped"].as_u64(), Some(0));
    let events = &lines[..lines.len() - 1];
    assert_eq!(events.last().unwrap()["event"].as_str(), Some("completed"));
    // seq strictly increases over the wire, and resuming from the last
    // seen seq replays nothing.
    let mut prev = 0;
    for ev in events {
        let seq = ev["seq"].as_u64().unwrap();
        assert!(seq > prev, "seq regressed: {events:?}");
        prev = seq;
    }
    let resume =
        request(addr, "GET", &format!("/jobs/{id}/events?since={prev}&max_ms=100"), &[], None)
            .unwrap();
    let replayed = resume.body.lines().filter(|l| l.contains("\"event\"")).count();
    assert_eq!(replayed, 0, "resume past the end replays nothing: {}", resume.body);
    d.shutdown();
}

#[test]
fn recorder_overhead_with_streaming_subscribers_is_bounded() {
    // The flight recorder is always on; what this measures is the
    // *incremental* cost of live streaming subscribers hanging off
    // every job vs the same workload unobserved. The acceptance target
    // is ≤3% recorder overhead; the assertion bound is deliberately
    // generous (2x) because CI wall clocks are noisy — the measured
    // numbers are printed for the perf log.
    const JOBS: usize = 12;
    let run = |observe: bool, seed_base: usize| -> Duration {
        let d = daemon(ManagerConfig::default());
        let addr = d.addr();
        let t0 = std::time::Instant::now();
        let ids: Vec<u64> = (0..JOBS)
            .map(|n| {
                let body = format!(
                    r#"{{"platform": "zcu102:2C+1F",
                         "validation": {{ "range_detection": 2 }},
                         "seed": {}}}"#,
                    seed_base + n
                );
                job_id(&post_job(addr, "perf", &body))
            })
            .collect();
        let watchers: Vec<_> = if observe {
            ids.iter()
                .map(|id| {
                    let path = format!("/jobs/{id}/events?since=0&max_ms=25000");
                    std::thread::spawn(move || {
                        request(addr, "GET", &path, &[], None).expect("stream").body
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        for id in &ids {
            await_result(addr, *id);
        }
        let elapsed = t0.elapsed();
        for w in watchers {
            let body = w.join().expect("watcher");
            assert!(body.contains("stream_end"), "stream truncated: {body}");
        }
        d.shutdown();
        elapsed
    };
    let baseline = run(false, 1000);
    let observed = run(true, 2000);
    let overhead = observed.as_secs_f64() / baseline.as_secs_f64() - 1.0;
    println!(
        "flight recorder overhead: baseline {baseline:?}, \
         with {JOBS} streaming subscribers {observed:?} ({:+.1}%)",
        overhead * 100.0
    );
    assert!(
        observed.as_secs_f64() < baseline.as_secs_f64() * 2.0 + 0.25,
        "streaming subscribers must not dominate throughput: \
         baseline {baseline:?}, observed {observed:?}"
    );
}

#[test]
fn long_poll_returns_promptly_once_done() {
    let d = daemon(ManagerConfig::default());
    let addr = d.addr();
    let id = job_id(&post_job(addr, "gina", DES_JOB));
    let started = std::time::Instant::now();
    // One long-poll with a generous window: must return as soon as
    // the (fast) job finishes, not after the full window.
    let status = get_json(addr, &format!("/jobs/{id}?wait_ms=20000"));
    assert!(
        matches!(status["status"].as_str(), Some("done")),
        "short DES job finishes within the poll window: {status:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "long-poll must return early, took {:?}",
        started.elapsed()
    );
    d.shutdown();
}

#[test]
fn long_pollers_do_not_starve_the_listener() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    // In-flight quota 0 keeps the job queued, so every poll waits out
    // its window unless the job is cancelled.
    let d = daemon(ManagerConfig { max_inflight_per_tenant: 0, ..ManagerConfig::default() });
    let addr = d.addr();
    let id = job_id(&post_job(addr, "hana", DES_JOB));
    // Whole requests are written before `/healthz` connects, and the
    // accept queue is FIFO: every poller is taken by a server thread
    // before the probe is.
    let pollers: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connect poller");
            write!(
                s,
                "GET /jobs/{id}?wait_ms=3000 HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
            )
            .expect("send long-poll");
            s
        })
        .collect();
    let started = std::time::Instant::now();
    let health = request(addr, "GET", "/healthz", &[], None).expect("healthz");
    assert!(health.is_success(), "{}", health.body);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "healthz behind 8 long-polls took {:?}",
        started.elapsed()
    );
    let cancel = request(addr, "POST", &format!("/jobs/{id}/cancel"), &[], None).unwrap();
    assert_eq!(cancel.status, 200, "{}", cancel.body);
    for mut s in pollers {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("long-poll answer");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        assert!(out.contains("\"cancelled\""), "{out}");
    }
    d.shutdown();
}
