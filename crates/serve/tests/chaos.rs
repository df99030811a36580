//! Chaos soak: many tenants drive a live daemon with a hostile job
//! mix — panicking jobs, transiently-failing jobs, deadline-doomed
//! jobs, cancels, both engines — while a slow-loris client holds a
//! stalled connection. The invariants under test are the hardening
//! story end to end:
//!
//! * no job is lost: every accepted submission reaches a terminal
//!   state, and its snapshot stays queryable;
//! * worker panics are contained to their job and every lane is
//!   respawned (worker count returns to the configured topology);
//! * retryable failures converge (flaky jobs finish `done` with the
//!   attempt count showing the retries);
//! * queue wait stays bounded for every job despite the churn;
//! * the stalled connection never wedges the API;
//! * the final drain is clean.
//!
//! The run writes `target/chaos-snapshot.json` — final job states plus
//! the daemon's metrics snapshot — as a CI artifact for post-mortems.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_metrics::http::{request, ClientResponse};
use dssoc_serve::{validate_timeline, Daemon, FlightConfig, JobState, ManagerConfig, ServeConfig};
use serde_json::{json, Value};

const TENANTS: usize = 4;

fn post_job(addr: SocketAddr, tenant: &str, body: &str) -> ClientResponse {
    request(addr, "POST", "/jobs", &[("X-Tenant", tenant)], Some(body.as_bytes()))
        .expect("submit request")
}

fn job_id(resp: &ClientResponse) -> u64 {
    assert_eq!(resp.status, 202, "submit accepted: {}", resp.body);
    let v: Value = serde_json::from_str(&resp.body).expect("submit body");
    v["job"].as_u64().expect("job id")
}

/// The per-tenant job mix; `{}` slots take the tenant index as seed so
/// tenants don't all hit the result cache.
fn job_mix(seed: usize) -> Vec<(&'static str, String)> {
    let des = format!(
        r#"{{"platform": "zcu102:2C+1F", "scheduler": "eft",
             "validation": {{ "range_detection": 3 }}, "seed": {seed}}}"#
    );
    let threaded = format!(
        r#"{{"engine": "threaded", "platform": "zcu102:2C+1F",
             "validation": {{ "wifi_tx": 1 }}, "seed": {seed}}}"#
    );
    let flaky = format!(
        r#"{{"platform": "zcu102:2C+1F", "validation": {{ "wifi_rx": 1 }},
             "seed": {seed}, "chaos": "flaky:2"}}"#
    );
    let panic = format!(
        r#"{{"platform": "zcu102:2C+1F", "validation": {{ "pulse_doppler": 1 }},
             "seed": {seed}, "chaos": "panic"}}"#
    );
    // A 1ms deadline with real work behind it usually expires while
    // queued; either way it must go terminal, never stick.
    let doomed = format!(
        r#"{{"platform": "zcu102:2C+1F", "validation": {{ "range_detection" : 2 }},
             "seed": {seed}, "deadline_ms": 1}}"#
    );
    vec![
        ("des", des),
        ("threaded", threaded),
        ("flaky", flaky),
        ("panic", panic),
        ("doomed", doomed),
    ]
}

#[test]
fn chaos_soak_survives_panics_retries_deadlines_and_slow_clients() {
    // The chaos hook is env-gated; this is its opt-in (own process:
    // integration tests don't share the environment with other
    // binaries).
    std::env::set_var("DSSOC_SERVE_CHAOS", "1");

    let des_workers = 2;
    // Panic dumps land in the workspace target/ dir (tests run with
    // the crate dir as cwd, so the default relative "target" would
    // stray) — CI uploads them next to the chaos snapshot.
    let dump_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let d = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        manager: ManagerConfig {
            des_workers,
            retry_backoff: Duration::from_millis(5),
            sweep_interval: Duration::from_millis(10),
            flight: FlightConfig { dump_dir: Some(dump_dir.clone()), ..FlightConfig::default() },
            ..ManagerConfig::default()
        },
    })
    .expect("bind daemon");
    let addr = d.addr();

    // A slow-loris client parks on a half-sent request for the whole
    // soak. The connection-level deadline means it cannot pin an
    // accept slot forever, and it must never block other clients.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris.write_all(b"POST /jobs HTTP/1.1\r\nHost: chaos\r\nContent-Le").expect("partial head");

    // Every tenant submits its whole mix concurrently.
    let handles: Vec<_> = (0..TENANTS)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("chaos-{t}");
                job_mix(t)
                    .into_iter()
                    .map(|(kind, body)| (kind, job_id(&post_job(addr, &tenant, &body))))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let submitted: Vec<(&'static str, u64)> =
        handles.into_iter().flat_map(|h| h.join().expect("submitter")).collect();
    assert_eq!(submitted.len(), TENANTS * 5, "every submission admitted");

    // The API stays responsive while the loris connection is parked.
    let health = request(addr, "GET", "/healthz", &[], None).expect("healthz");
    assert!(health.is_success(), "daemon healthy mid-soak: {}", health.body);

    // Soak: wait for every job to reach a terminal state.
    let manager = Arc::clone(d.manager());
    let soak_deadline = Instant::now() + Duration::from_secs(120);
    let mut finals: Vec<(&'static str, u64, Value)> = Vec::new();
    for (kind, id) in &submitted {
        loop {
            let timeout = soak_deadline.saturating_duration_since(Instant::now());
            assert!(!timeout.is_zero(), "job {id} ({kind}) stuck — lost job");
            let snap = manager
                .wait(*id, timeout.min(Duration::from_secs(5)))
                .unwrap_or_else(|| panic!("job {id} ({kind}) vanished before terminal"));
            if snap.state.terminal() {
                finals.push((
                    kind,
                    *id,
                    json!({
                        "kind": kind,
                        "job": id,
                        "status": snap.state.name(),
                        "attempts": snap.attempts,
                        "queue_wait_ms": snap.queue_wait.as_secs_f64() * 1e3,
                        "last_error": snap.last_error,
                    }),
                ));
                // Bounded wait: nothing starved behind the churn.
                assert!(
                    snap.queue_wait < Duration::from_secs(60),
                    "job {id} ({kind}) waited {:?}",
                    snap.queue_wait
                );
                break;
            }
        }
    }

    // Kind-level outcomes.
    for (kind, id, v) in &finals {
        let status = v["status"].as_str().unwrap();
        match *kind {
            "des" | "threaded" => assert_eq!(status, "done", "job {id}: {v:?}"),
            "flaky" => {
                assert_eq!(status, "done", "flaky jobs converge via retries: {v:?}");
                assert_eq!(v["attempts"].as_u64(), Some(3), "two injected failures: {v:?}");
            }
            "panic" => {
                assert_eq!(status, "failed", "panics fail the job, not the daemon: {v:?}");
                let err = v["last_error"].as_str().unwrap_or_default();
                assert!(err.contains("panicked"), "panic surfaced in the error: {v:?}");
            }
            "doomed" => assert!(
                status == "deadline_exceeded" || status == "done",
                "doomed job must still terminate: {v:?}"
            ),
            other => unreachable!("unknown kind {other}"),
        }
    }

    // Supervision: every panicked lane was respawned and the pool is
    // back to full strength. A panicked job goes terminal a beat
    // before its worker thread exits and the supervisor notices, so
    // poll the respawn counter (and the pool size) with a deadline
    // rather than sampling once.
    let counter_sum = |metrics: &str, family: &str| -> f64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(family))
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .sum()
    };
    let restore_deadline = Instant::now() + Duration::from_secs(10);
    let (respawns, panics) = loop {
        let metrics = request(addr, "GET", "/metrics", &[], None).expect("metrics").body;
        let respawns = counter_sum(&metrics, "dssoc_serve_worker_respawns_total");
        let panics = counter_sum(&metrics, "dssoc_serve_worker_panics_total");
        if respawns >= TENANTS as f64 && manager.worker_count() > des_workers {
            break (respawns, panics);
        }
        assert!(
            Instant::now() < restore_deadline,
            "worker pool never restored: {respawns} respawn(s), {} live worker(s)",
            manager.worker_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(respawns >= TENANTS as f64, "4 panic jobs → ≥4 respawns, saw {respawns}");
    assert!(panics >= TENANTS as f64, "panic counter tracks injected panics, saw {panics}");

    // Flight recorder: every terminal job still carries a complete,
    // causally ordered timeline — no lifecycle hop lost to the churn.
    for (kind, id) in &submitted {
        let t =
            manager.timeline(*id).unwrap_or_else(|| panic!("job {id} ({kind}) lost its timeline"));
        validate_timeline(&t.events)
            .unwrap_or_else(|e| panic!("job {id} ({kind}) timeline invalid: {e}"));
    }
    // Each panicking worker dumped the flight ring for post-mortems
    // (the dump fires before the thread exits, so once the respawn
    // counter confirms the deaths the files are on disk). Dumps carry
    // the writing process's id, so earlier runs' files in the shared
    // directory cannot satisfy this check.
    let prefix = format!("flight-panic-{}-", std::process::id());
    let dumped = std::fs::read_dir(&dump_dir).expect("dump dir").flatten().any(|e| {
        let name = e.file_name().to_string_lossy().into_owned();
        name.starts_with(&prefix) && name.ends_with(".json")
    });
    assert!(dumped, "panicking workers must leave a {prefix}*.json dump in {dump_dir:?}");

    // A normal job still completes on the respawned pool.
    let after = job_id(&post_job(addr, "chaos-after", &job_mix(99)[0].1));
    let snap = manager.wait(after, Duration::from_secs(60)).expect("post-chaos job");
    assert!(matches!(snap.state, JobState::Done(_)), "post-chaos job done: {:?}", snap.state);

    // Persist the post-mortem artifact before draining.
    let snapshot = request(addr, "GET", "/snapshot.json", &[], None).expect("snapshot").body;
    let artifact = json!({
        "jobs": finals.iter().map(|(_, _, v)| v.clone()).collect::<Vec<_>>(),
        "worker_count": manager.worker_count(),
        "metrics": serde_json::from_str::<Value>(&snapshot).unwrap_or(Value::Null),
    });
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-snapshot.json");
    std::fs::write(&out, serde_json::to_string_pretty(&artifact).unwrap_or_default())
        .expect("write chaos snapshot");

    drop(loris);
    // Clean drain: everything already terminal, shutdown joins the
    // pool and the supervisor without hanging.
    d.shutdown();
    for (kind, id) in &submitted {
        let snap = manager.job(*id).unwrap_or_else(|| panic!("job {id} lost after drain"));
        assert!(snap.state.terminal(), "job {id} ({kind}) not terminal after drain");
    }
}
