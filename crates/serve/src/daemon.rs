//! The HTTP face of the daemon: routes, JSON rendering, and lifecycle.
//!
//! Endpoints (all JSON unless noted):
//!
//! | Method & path            | Meaning                                      |
//! |--------------------------|----------------------------------------------|
//! | `POST /jobs`             | Submit a job (`202`, body from [`api`]; a    |
//! |                          | cache hit is already `done` in the reply)   |
//! | `GET /jobs`              | List known jobs                              |
//! | `GET /jobs/<id>`         | Job status (`?wait_ms=` long-polls)          |
//! | `GET /jobs/<id>/result`  | Result of a finished job                     |
//! | `GET /jobs/<id>/trace`   | Chrome/Perfetto trace artifact, if captured  |
//! | `GET /jobs/<id>/timeline`| Flight record: span tree + lifecycle events  |
//! | `GET /jobs/<id>/events`  | Live JSONL event stream (chunked;            |
//! |                          | `?since=<seq>` resumes, `?max_ms=` bounds)   |
//! | `POST /jobs/<id>/cancel` | Cancel a queued job, or cooperatively abort |
//! |                          | a running DES job (`DELETE /jobs/<id>` too) |
//! | `GET /tenants`           | Per-tenant accounting                        |
//! | `GET /debug/flight`      | Last-N flight-recorder ring events (`?n=`)   |
//! | `GET /metrics`           | OpenMetrics exposition (shared with          |
//! |                          | [`MetricsServer`]'s routing)                 |
//! | `GET /snapshot.json`     | Metrics snapshot as JSON                     |
//! | `GET /healthz`           | Liveness: uptime, version, lane health       |
//!
//! Tenants are identified by the `X-Tenant` header (falling back to
//! a `Bearer` token, then `"anonymous"`): the daemon is a quota and
//! accounting boundary, not an authentication one.
//!
//! [`api`]: crate::api
//! [`MetricsServer`]: dssoc_metrics::server::MetricsServer

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::app::AppLibrary;
use dssoc_metrics::http::{Handler, HttpServer, Request, Response};
use dssoc_metrics::server::serve_one;
use dssoc_metrics::MetricsRegistry;
use serde_json::{json, Value};

use crate::api::{self, parse_request};
use crate::flight;
use crate::manager::{
    AdmissionError, CancelOutcome, JobManager, JobSnapshot, JobState, ManagerConfig, SubmitError,
};

/// Longest accepted `?wait_ms=` long-poll.
const MAX_WAIT: Duration = Duration::from_secs(30);

/// Daemon configuration: bind address plus the manager's sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Manager sizing and quotas.
    pub manager: ManagerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:8093".to_string(), manager: ManagerConfig::default() }
    }
}

/// A running daemon; dropping it stops the listener and cancels
/// queued jobs, [`Daemon::shutdown`] drains them first.
pub struct Daemon {
    server: Option<HttpServer>,
    manager: Arc<JobManager>,
    registry: MetricsRegistry,
}

impl Daemon {
    /// Binds the listener, starts the worker pool, and begins serving.
    pub fn start(config: ServeConfig) -> std::io::Result<Daemon> {
        let registry = MetricsRegistry::new();
        let library = Arc::new(dssoc_apps::standard_library().0);
        let manager = JobManager::start(config.manager, registry.clone());
        let handler_manager = Arc::clone(&manager);
        let handler_registry = registry.clone();
        let started = Instant::now();
        let handler: Arc<Handler> =
            Arc::new(move |req| route(req, &handler_manager, &handler_registry, &library, started));
        let server = HttpServer::start("dssoc-serve", config.addr.as_str(), handler)?;
        Ok(Daemon { server: Some(server), manager, registry })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }

    /// The daemon's metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The job manager (for in-process inspection in tests).
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.manager
    }

    /// Graceful shutdown: stop accepting connections, run every queued
    /// job to completion, then join the workers.
    pub fn shutdown(mut self) {
        self.server.take();
        self.manager.shutdown(true);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.take();
        // Fast path for aborts: queued jobs are cancelled, in-flight
        // runs still finish (engine runs are not interruptible).
        self.manager.shutdown(false);
    }
}

/// The tenant identity of a request (accounting key, not auth).
fn tenant_of(req: &Request) -> String {
    if let Some(t) = req.header("x-tenant") {
        if !t.is_empty() {
            return t.to_string();
        }
    }
    if let Some(auth) = req.header("authorization") {
        if let Some(token) = auth.strip_prefix("Bearer ") {
            if !token.is_empty() {
                return token.to_string();
            }
        }
    }
    "anonymous".to_string()
}

fn error_body(status: u16, message: &str) -> Response {
    let body = json!({ "error": message });
    Response::json(status, serde_json::to_string(&body).unwrap_or_default())
}

fn json_ok(status: u16, value: &Value) -> Response {
    Response::json(status, serde_json::to_string(value).unwrap_or_default())
}

fn status_value(snap: &JobSnapshot) -> Value {
    let mut v = json!({
        "job": snap.id,
        "status": snap.state.name(),
        "tenant": snap.tenant,
        "engine": snap.engine.as_str(),
        "priority": snap.priority,
        "fingerprint": snap.fingerprint.to_string(),
        "scheduler": snap.scheduler,
        "platform": snap.platform,
        "queue_wait_ms": snap.queue_wait.as_secs_f64() * 1e3,
        "trace": snap.trace,
    });
    if let Value::Object(map) = &mut v {
        if let Some(run) = snap.run_time {
            map.insert("run_ms".to_string(), json!(run.as_secs_f64() * 1e3));
        }
        if let JobState::Failed(err) = &snap.state {
            map.insert("error".to_string(), json!(err));
        }
        if let JobState::Done(outcome) = &snap.state {
            map.insert("cached".to_string(), json!(outcome.cached));
        }
        map.insert("attempts".to_string(), json!(snap.attempts));
        if let Some(err) = &snap.last_error {
            map.insert("last_error".to_string(), json!(err));
        }
    }
    v
}

fn result_value(snap: &JobSnapshot) -> Option<Value> {
    let JobState::Done(outcome) = &snap.state else { return None };
    let mut v = json!({
        "job": snap.id,
        "fingerprint": snap.fingerprint.to_string(),
        "engine": snap.engine.as_str(),
        "scheduler": snap.scheduler,
        "platform": snap.platform,
        "cached": outcome.cached,
        "makespan_ns": outcome.makespan_ns as u64,
        "makespan_ms": outcome.makespan_ns as f64 / 1e6,
        "apps_completed": outcome.apps_completed,
        "apps_total": outcome.apps_total,
        "tasks": outcome.tasks,
        "sched_invocations": outcome.sched_invocations,
        "pe_utilization": outcome
            .utilization
            .iter()
            .map(|(pe, u)| json!({ "pe": pe, "utilization": u }))
            .collect::<Vec<_>>(),
        "reliability": {
            "faults_injected": outcome.faults_injected,
            "apps_aborted": outcome.apps_aborted,
        },
    });
    if let Value::Object(map) = &mut v {
        if snap.trace {
            map.insert("trace_url".to_string(), json!(format!("/jobs/{}/trace", snap.id)));
        }
    }
    Some(v)
}

fn submit(req: &Request, manager: &JobManager, library: &Arc<AppLibrary>) -> Response {
    let tenant = tenant_of(req);
    let request = match parse_request(&req.body, library) {
        Ok(request) => request,
        Err(why) => return error_body(400, &why),
    };
    match manager.submit_spec(&tenant, request.spec, request.options) {
        Ok(snap) => json_ok(202, &status_value(&snap)),
        Err(SubmitError::Invalid(e)) => error_body(400, &api::rejected(e)),
        Err(SubmitError::Refused(err @ AdmissionError::TenantOverQuota(n))) => error_body(
            429,
            &format!("tenant '{tenant}' has {n} queued job(s), quota reached ({})", err.reason()),
        ),
        Err(SubmitError::Refused(AdmissionError::QueueFull)) => {
            error_body(503, "job queue is full (queue_full)")
        }
        Err(SubmitError::Refused(AdmissionError::Draining)) => {
            error_body(503, "daemon is draining (draining)")
        }
    }
}

fn job_status(req: &Request, manager: &JobManager, id: u64) -> Response {
    // `?wait_ms=` long-polls for a terminal state (bounded).
    let wait = req
        .query_param("wait_ms")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|ms| Duration::from_millis(ms).min(MAX_WAIT));
    let snap = match wait {
        Some(timeout) => manager.wait(id, timeout),
        None => manager.job(id),
    };
    match snap {
        Some(snap) => json_ok(200, &status_value(&snap)),
        None => error_body(404, &format!("no job {id}")),
    }
}

fn job_result(manager: &JobManager, id: u64) -> Response {
    match manager.job(id) {
        None => error_body(404, &format!("no job {id}")),
        Some(snap) => match result_value(&snap) {
            Some(v) => json_ok(200, &v),
            None => error_body(409, &format!("job {id} is {}, not done", snap.state.name())),
        },
    }
}

fn job_trace(manager: &JobManager, id: u64) -> Response {
    match manager.job(id) {
        None => error_body(404, &format!("no job {id}")),
        Some(snap) if !snap.trace => {
            error_body(404, &format!("job {id} was submitted without trace capture"))
        }
        Some(snap) => match manager.trace_artifact(id) {
            Some(text) => Response::json(200, text.as_str()),
            None => error_body(409, &format!("job {id} is {}, trace not ready", snap.state.name())),
        },
    }
}

fn job_timeline(manager: &JobManager, id: u64) -> Response {
    match manager.timeline(id) {
        Some(t) => json_ok(200, &flight::timeline_value(&t)),
        None => error_body(404, &format!("no job {id}")),
    }
}

/// Streams one job's lifecycle events as chunked JSONL: one event per
/// chunk, starting with everything after `?since=<seq>` (default: the
/// whole history), live until the job goes terminal or `?max_ms=`
/// elapses. The stream always ends with a `{"stream_end": true, ...}`
/// summary line carrying the drop count (bounded-buffer backpressure)
/// and the seq to resume from.
fn job_events(req: &Request, manager: &JobManager, id: u64) -> Response {
    let since = req.query_param("since").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let max_ms = req.query_param("max_ms").and_then(|v| v.parse::<u64>().ok()).unwrap_or(10_000);
    let window = Duration::from_millis(max_ms).min(MAX_WAIT);
    let Some(sub) = manager.subscribe(id, since) else {
        return error_body(404, &format!("no job {id}"));
    };
    Response::stream(200, "application/jsonl", move |sink| {
        let deadline = Instant::now() + window;
        let mut last_seq = since;
        let mut dropped;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // Short poll quanta keep the worst-case overshoot of the
            // deadline small without busy-waiting.
            let batch = sub.poll(remaining.min(Duration::from_millis(250)));
            dropped = batch.dropped;
            for ev in &batch.events {
                last_seq = ev.seq;
                let line = format!("{}\n", flight::event_line(ev));
                if !sink.send(line.as_bytes()) {
                    return; // client went away; skip the summary
                }
            }
            if batch.closed || remaining.is_zero() {
                break;
            }
        }
        let summary = json!({ "stream_end": true, "dropped": dropped, "next_since": last_seq });
        let line = serde_json::to_string(&summary).unwrap_or_default();
        let _ = sink.send(format!("{line}\n").as_bytes());
    })
}

fn debug_flight(req: &Request, manager: &JobManager) -> Response {
    let n = req.query_param("n").and_then(|v| v.parse::<usize>().ok()).unwrap_or(256);
    let events: Vec<Value> = manager.flight_tail(n).iter().map(flight::event_value).collect();
    json_ok(
        200,
        &json!({
            "total_recorded": manager.flight_total(),
            "returned": events.len(),
            "events": events,
        }),
    )
}

fn healthz(manager: &JobManager, started: Instant) -> Response {
    let lanes = manager.lane_health();
    let degraded = lanes.iter().any(|l| l.alive < l.configured);
    json_ok(
        200,
        &json!({
            "status": if degraded { "up with dead lanes" } else { "up" },
            "version": env!("CARGO_PKG_VERSION"),
            "uptime_s": started.elapsed().as_secs_f64(),
            "lanes": lanes
                .iter()
                .map(|l| json!({ "lane": l.lane, "configured": l.configured, "alive": l.alive }))
                .collect::<Vec<_>>(),
        }),
    )
}

fn job_cancel(manager: &JobManager, id: u64) -> Response {
    match manager.cancel(id) {
        CancelOutcome::Cancelled => json_ok(200, &json!({ "job": id, "status": "cancelled" })),
        CancelOutcome::Cancelling => json_ok(202, &json!({ "job": id, "status": "cancelling" })),
        CancelOutcome::Running => error_body(
            409,
            &format!("job {id} is running on the threaded engine; real runs are not interruptible"),
        ),
        CancelOutcome::Terminal => error_body(409, &format!("job {id} already finished")),
        CancelOutcome::NotFound => error_body(404, &format!("no job {id}")),
    }
}

fn list_jobs(manager: &JobManager) -> Response {
    let (queued, running) = manager.depth();
    let jobs: Vec<Value> = manager.list().iter().map(status_value).collect();
    json_ok(200, &json!({ "queued": queued, "running": running, "jobs": jobs }))
}

fn list_tenants(manager: &JobManager) -> Response {
    let tenants: Vec<Value> = manager
        .tenants()
        .iter()
        .map(|t| {
            json!({
                "tenant": t.tenant,
                "queued": t.queued,
                "inflight": t.inflight,
                "submitted": t.submitted,
                "rejected": t.rejected,
                "cache_served": t.cache_served,
            })
        })
        .collect();
    json_ok(200, &json!({ "tenants": tenants }))
}

const INDEX: &str = "dssoc-serve: emulation as a service\n\
    POST /jobs            submit a job (JSON body)\n\
    GET  /jobs            list jobs\n\
    GET  /jobs/<id>       job status (?wait_ms= long-polls)\n\
    GET  /jobs/<id>/result finished-job result\n\
    GET  /jobs/<id>/trace  trace artifact (submit with \"trace\": true)\n\
    GET  /jobs/<id>/timeline flight record: span tree + lifecycle events\n\
    GET  /jobs/<id>/events live JSONL event stream (?since=seq, ?max_ms=)\n\
    POST /jobs/<id>/cancel cancel a queued or running-DES job\n\
    GET  /tenants         per-tenant accounting\n\
    GET  /debug/flight    last-N flight-recorder events (?n=)\n\
    GET  /metrics         OpenMetrics exposition\n\
    GET  /snapshot.json   metrics snapshot as JSON\n\
    GET  /healthz         liveness (uptime, version, lane health)\n";

/// Routes one request (exposed for in-process tests).
pub fn route(
    req: &Request,
    manager: &JobManager,
    registry: &MetricsRegistry,
    library: &Arc<AppLibrary>,
    started: Instant,
) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => Response::text(200, INDEX),
        ("GET", ["healthz"]) => healthz(manager, started),
        ("GET", ["metrics"]) | ("GET", ["snapshot.json"]) => serve_one(req, registry),
        ("GET", ["debug", "flight"]) => debug_flight(req, manager),
        ("POST", ["jobs"]) => submit(req, manager, library),
        ("GET", ["jobs"]) => list_jobs(manager),
        ("GET", ["tenants"]) => list_tenants(manager),
        (method, ["jobs", id, rest @ ..]) => {
            let Ok(id) = id.parse::<u64>() else {
                return error_body(400, "job id must be an integer");
            };
            match (method, rest) {
                ("GET", []) => job_status(req, manager, id),
                ("DELETE", []) => job_cancel(manager, id),
                ("GET", ["result"]) => job_result(manager, id),
                ("GET", ["trace"]) => job_trace(manager, id),
                ("GET", ["timeline"]) => job_timeline(manager, id),
                ("GET", ["events"]) => job_events(req, manager, id),
                ("POST", ["cancel"]) => job_cancel(manager, id),
                _ => Response::not_found(),
            }
        }
        ("GET", _) => Response::not_found(),
        _ => Response::method_not_allowed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: vec![("x-tenant".to_string(), "route-tests".to_string())],
            body: body.to_vec(),
        }
    }

    fn fixture() -> (Arc<JobManager>, MetricsRegistry, Arc<AppLibrary>) {
        let registry = MetricsRegistry::new();
        let manager = JobManager::start(ManagerConfig::default(), registry.clone());
        let library = Arc::new(dssoc_apps::standard_library().0);
        (manager, registry, library)
    }

    fn submit_and_finish(
        manager: &Arc<JobManager>,
        registry: &MetricsRegistry,
        library: &Arc<AppLibrary>,
    ) -> u64 {
        let body = br#"{"platform": "zcu102:2C+1F", "validation": {"range_detection": 1}}"#;
        let resp =
            route(&request("POST", "/jobs", body), manager, registry, library, Instant::now());
        assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let id = v["job"].as_u64().unwrap();
        let done = manager.wait(id, Duration::from_secs(30)).unwrap();
        assert!(done.state.terminal());
        id
    }

    #[test]
    fn missing_job_is_404_not_done_is_409() {
        let (manager, registry, library) = fixture();
        // A nonexistent id is a 404 on every job route — including the
        // long-poll, which must return immediately.
        for (method, path) in [
            ("GET", "/jobs/999"),
            ("GET", "/jobs/999/result"),
            ("GET", "/jobs/999/trace"),
            ("POST", "/jobs/999/cancel"),
            ("DELETE", "/jobs/999"),
        ] {
            let resp =
                route(&request(method, path, b""), &manager, &registry, &library, Instant::now());
            assert_eq!(resp.status, 404, "{method} {path}");
        }
        // An existing-but-finished job distinguishes conflict from
        // absence: result of a Done job is 200, cancel is 409.
        let id = submit_and_finish(&manager, &registry, &library);
        let resp = route(
            &request("GET", &format!("/jobs/{id}/result"), b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 200);
        let resp = route(
            &request("POST", &format!("/jobs/{id}/cancel"), b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 409, "terminal job cancel conflicts, not vanishes");
        manager.shutdown(false);
    }

    #[test]
    fn status_reports_attempts() {
        let (manager, registry, library) = fixture();
        let id = submit_and_finish(&manager, &registry, &library);
        let resp = route(
            &request("GET", &format!("/jobs/{id}"), b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v["attempts"].as_u64(), Some(1));
        assert!(v.get("last_error").is_none(), "clean runs carry no last_error");
        manager.shutdown(false);
    }

    #[test]
    fn cached_submission_is_done_in_its_receipt() {
        let (manager, registry, library) = fixture();
        let first = submit_and_finish(&manager, &registry, &library);
        let body = br#"{"platform": "zcu102:2C+1F", "validation": {"range_detection": 1}}"#;
        let resp =
            route(&request("POST", "/jobs", body), &manager, &registry, &library, Instant::now());
        assert_eq!(resp.status, 202);
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let id = v["job"].as_u64().unwrap();
        assert_ne!(id, first);
        assert_eq!(v["status"].as_str(), Some("done"), "{v:?}");
        assert_eq!(v["cached"].as_bool(), Some(true));
        assert_eq!(v["attempts"].as_u64(), Some(0));
        assert_eq!(v["queue_wait_ms"].as_f64(), Some(0.0));
        assert_eq!(v["run_ms"].as_f64(), Some(0.0));
        let resp = route(
            &request("GET", &format!("/jobs/{id}/timeline"), b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let events: Vec<&str> =
            v["events"].as_array().unwrap().iter().map(|e| e["event"].as_str().unwrap()).collect();
        assert_eq!(events, ["submitted", "admitted", "cache_hit", "completed"]);
        manager.shutdown(false);
    }

    #[test]
    fn queued_job_result_is_409_with_state_name() {
        let registry = MetricsRegistry::new();
        // In-flight quota 0 pins the job in the queue so the result
        // route deterministically sees a non-terminal job.
        let manager = JobManager::start(
            ManagerConfig { max_inflight_per_tenant: 0, ..ManagerConfig::default() },
            registry.clone(),
        );
        let library = Arc::new(dssoc_apps::standard_library().0);
        let body = br#"{"platform": "zcu102:2C+1F", "validation": {"range_detection": 2}}"#;
        let resp =
            route(&request("POST", "/jobs", body), &manager, &registry, &library, Instant::now());
        assert_eq!(resp.status, 202);
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let id = v["job"].as_u64().unwrap();
        let resp = route(
            &request("GET", &format!("/jobs/{id}/result"), b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 409, "exists-but-not-done conflicts, never 404s");
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(v["error"].as_str().unwrap().contains("queued"), "names the state: {v:?}");
        manager.shutdown(false);
    }

    #[test]
    fn timeline_route_serves_the_span_tree() {
        let (manager, registry, library) = fixture();
        let resp = route(
            &request("GET", "/jobs/999/timeline", b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 404, "unknown job timeline is a 404");
        let id = submit_and_finish(&manager, &registry, &library);
        let resp = route(
            &request("GET", &format!("/jobs/{id}/timeline"), b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v["job"].as_u64(), Some(id));
        assert_eq!(v["status"].as_str(), Some("done"));
        assert_eq!(v["tenant"].as_str(), Some("route-tests"));
        let span = v["span"].as_str().unwrap();
        assert_eq!(span.len(), 16, "root span is a 16-hex-digit id: {span}");
        let events = v["events"].as_array().unwrap();
        assert_eq!(events.first().unwrap()["event"].as_str(), Some("submitted"));
        assert_eq!(events.last().unwrap()["event"].as_str(), Some("completed"));
        let tree = &v["span_tree"];
        assert_eq!(tree["span"].as_str(), Some(span));
        let children = tree["children"].as_array().unwrap();
        assert_eq!(children.len(), 1, "one attempt, one child span");
        assert_eq!(children[0]["parent"].as_str(), Some(span));
        manager.shutdown(false);
    }

    #[test]
    fn debug_flight_dumps_the_recent_ring() {
        let (manager, registry, library) = fixture();
        let id = submit_and_finish(&manager, &registry, &library);
        let resp = route(
            &request("GET", "/debug/flight", b""),
            &manager,
            &registry,
            &library,
            Instant::now(),
        );
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let total = v["total_recorded"].as_u64().unwrap();
        let returned = v["returned"].as_u64().unwrap();
        assert!(total >= returned && returned > 0);
        let events = v["events"].as_array().unwrap();
        assert_eq!(events.len() as u64, returned);
        assert!(events.iter().any(|e| e["job"].as_u64() == Some(id)));
        manager.shutdown(false);
    }

    #[test]
    fn healthz_reports_version_uptime_and_lanes() {
        let (manager, registry, library) = fixture();
        let resp =
            route(&request("GET", "/healthz", b""), &manager, &registry, &library, Instant::now());
        assert_eq!(resp.status, 200);
        let v: Value = serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v["status"].as_str(), Some("up"), "all lanes alive: {v:?}");
        assert_eq!(v["version"].as_str(), Some(env!("CARGO_PKG_VERSION")));
        assert!(v["uptime_s"].as_f64().is_some());
        let lanes = v["lanes"].as_array().unwrap();
        assert_eq!(lanes.len(), 2, "threaded + des lanes");
        for lane in lanes {
            assert!(lane["configured"].as_u64().unwrap() > 0);
            assert_eq!(lane["alive"].as_u64(), lane["configured"].as_u64());
        }
        manager.shutdown(false);
    }
}
