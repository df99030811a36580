//! The served workloads: `serve_fresh` (every job misses the result
//! cache, so the DES does the work) and `serve_replay` (a primed pool
//! replayed, so every job hits the cache and the front end does the
//! work).
//!
//! Both drive an in-process [`Daemon`] on `127.0.0.1:0` with the default
//! [`ManagerConfig`] over real sockets, from two closed-loop client
//! threads (one tenant each): submit, long-poll the status, fetch the
//! result, then send the next job. Latency is client time from the
//! start of `POST /jobs` until the result body has arrived.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::app::AppLibrary;
use dssoc_core::job::{CompiledScenario, Engine, JobRunner, ResultCache};
use dssoc_metrics::http::{request, Request};
use dssoc_metrics::MetricsRegistry;
use dssoc_serve::daemon::route;
use dssoc_serve::{parse_job, Daemon, JobManager, ManagerConfig, ServeConfig};
use serde_json::Value;

use crate::gen::{serve_job, Rng, ServeJob};
use crate::measure::{median_or_zero, secs, Metrics, SliceStats, Slices, Spans};
use crate::verify::{self, run_uncached, SimResult};
use crate::{Args, RunResult};

/// Closed-loop client threads (one tenant each); at most `nproc` on the
/// two-core hosts this benchmark targets.
const CLIENTS: usize = 2;
/// Jobs each client runs before the timed window (a fixed count, so
/// warm-up never depends on timing).
const WARMUP_JOBS: usize = 2;
/// Distinct jobs in the replay pool; below the default cache capacity
/// (256) so the primed pool stays cached.
const REPLAY_POOL: usize = 64;
/// Seed of the warm-up jobs: the same for every run, so set-up does the
/// same work whatever the benchmark seed.
const WARMUP_SEED: u64 = 0x3a9d;
/// Set-ups per run; `setup_s` is their median. The first is the cold
/// one, timed from `main`; the others run after the window (and after
/// its memory peak is read), so their leftovers never touch what is
/// measured.
const SETUP_REPS: usize = 5;
/// Long-poll bound on the status request.
const WAIT_MS: u64 = 30_000;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Fresh,
    Replay,
}

impl Kind {
    /// Separate generator streams, so the two workloads draw different
    /// jobs from one seed.
    fn stream(self) -> u64 {
        match self {
            Kind::Fresh => 0x0f5e_5400,
            Kind::Replay => 0x5e91_a900,
        }
    }

    /// The stream of client `c`'s own jobs.
    fn client_stream(self, c: usize) -> u64 {
        self.stream() + 1 + c as u64
    }
}

/// Where a client's next job comes from.
enum Source {
    /// A fresh, never-repeated job per draw.
    Fresh(Rng),
    /// A seeded random pick from the primed pool.
    Replay(Rng, Arc<Vec<Arc<ServeJob>>>),
}

impl Source {
    fn next(&mut self) -> Arc<ServeJob> {
        match self {
            Source::Fresh(rng) => Arc::new(serve_job(rng)),
            Source::Replay(rng, pool) => Arc::clone(&pool[rng.below(pool.len())]),
        }
    }
}

/// The fields of a result body that verification compares.
#[derive(Clone, Default)]
struct Served {
    result: SimResult,
    cached: bool,
    result_bytes: usize,
}

/// One job as a client saw it.
struct Sample {
    job: Arc<ServeJob>,
    id: u64,
    latency_ms: f64,
    done_at: Instant,
    /// HTTP requests the job made.
    requests: u32,
    queue_wait_ms: f64,
    run_ms: f64,
    /// `None` when the job was refused (429/503) or failed.
    served: Option<Served>,
    refused: bool,
    error: Option<String>,
}

/// A started daemon with its clients' job sources.
struct Rig {
    library: Arc<AppLibrary>,
    daemon: Daemon,
    sources: Vec<Source>,
}

fn json(text: &str) -> Result<Value, String> {
    serde_json::from_str(text).map_err(|e| format!("bad JSON ({e}): {text}"))
}

/// Runs one job through the daemon's HTTP API.
fn one_job(addr: SocketAddr, tenant: &str, job: Arc<ServeJob>) -> Sample {
    let mut sample = Sample {
        job,
        id: 0,
        latency_ms: 0.0,
        done_at: Instant::now(),
        requests: 0,
        queue_wait_ms: 0.0,
        run_ms: 0.0,
        served: None,
        refused: false,
        error: None,
    };
    let start = Instant::now();
    if let Err(e) = drive(addr, tenant, &mut sample) {
        sample.error = Some(e);
    }
    sample.done_at = Instant::now();
    sample.latency_ms = sample.done_at.duration_since(start).as_secs_f64() * 1e3;
    sample
}

fn drive(addr: SocketAddr, tenant: &str, s: &mut Sample) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    s.requests += 1;
    let sub = request(addr, "POST", "/jobs", &[("X-Tenant", tenant)], Some(s.job.body.as_bytes()))
        .map_err(io)?;
    if sub.status == 429 || sub.status == 503 {
        s.refused = true;
        return Err(format!("refused {}: {}", sub.status, sub.body));
    }
    if sub.status != 202 {
        return Err(format!("submit {}: {}", sub.status, sub.body));
    }
    s.id = json(&sub.body)?["job"].as_u64().ok_or("submit body has no job id")?;

    s.requests += 1;
    let st = request(addr, "GET", &format!("/jobs/{}?wait_ms={WAIT_MS}", s.id), &[], None)
        .map_err(io)?;
    let status = json(&st.body)?;
    if status["status"].as_str() != Some("done") {
        return Err(format!("job {} not done: {}", s.id, st.body));
    }
    s.queue_wait_ms = status["queue_wait_ms"].as_f64().unwrap_or(0.0);
    s.run_ms = status["run_ms"].as_f64().unwrap_or(0.0);

    s.requests += 1;
    let res = request(addr, "GET", &format!("/jobs/{}/result", s.id), &[], None).map_err(io)?;
    if res.status != 200 {
        return Err(format!("result {}: {}", res.status, res.body));
    }
    let v = json(&res.body)?;
    let field = |k: &str| v[k].as_u64().ok_or_else(|| format!("result has no '{k}'"));
    s.served = Some(Served {
        result: SimResult {
            makespan_ns: field("makespan_ns")?,
            tasks: field("tasks")?,
            apps_completed: field("apps_completed")?,
            sched_invocations: field("sched_invocations")?,
        },
        cached: v["cached"].as_bool().ok_or("result has no 'cached'")?,
        result_bytes: res.body.len(),
    });
    Ok(())
}

/// Builds the library, starts the daemon, generates the clients' job
/// sources and primes: the replay pool is served once (filling the
/// cache), then every client runs its fixed warm-up jobs.
fn setup(kind: Kind, seed: u64, phases: &mut [Vec<f64>; 3]) -> Rig {
    let t = Instant::now();
    let library = Arc::new(dssoc_apps::standard_library().0);
    phases[0].push(secs(t) * 1e3);

    let t = Instant::now();
    let daemon = Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        manager: ManagerConfig::default(),
    })
    .expect("bind the daemon on an ephemeral port");
    phases[1].push(secs(t) * 1e3);

    let t = Instant::now();
    let mut rng = Rng::new(seed, kind.stream());
    let pool: Vec<Arc<ServeJob>> = match kind {
        Kind::Fresh => Vec::new(),
        Kind::Replay => (0..REPLAY_POOL).map(|_| Arc::new(serve_job(&mut rng))).collect(),
    };
    let shared_pool = Arc::new(pool.clone());
    let sources: Vec<Source> = (0..CLIENTS)
        .map(|c| {
            let client_rng = Rng::new(seed, kind.client_stream(c));
            match kind {
                Kind::Fresh => Source::Fresh(client_rng),
                Kind::Replay => Source::Replay(client_rng, Arc::clone(&shared_pool)),
            }
        })
        .collect();
    let addr = daemon.addr();
    std::thread::scope(|scope| {
        // Prime the pool from both clients, split evenly.
        for (c, chunk) in pool.chunks(REPLAY_POOL.div_ceil(CLIENTS)).enumerate() {
            scope.spawn(move || {
                for job in chunk {
                    let s = one_job(addr, &tenant(c), Arc::clone(job));
                    assert!(s.served.is_some(), "priming job failed: {:?}", s.error);
                }
            });
        }
    });
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut warmup = Rng::new(WARMUP_SEED, kind.client_stream(c));
                for _ in 0..WARMUP_JOBS {
                    let s = one_job(addr, &tenant(c), Arc::new(serve_job(&mut warmup)));
                    assert!(s.served.is_some(), "warm-up job failed: {:?}", s.error);
                }
            });
        }
    });
    phases[2].push(secs(t) * 1e3);
    Rig { library, daemon, sources }
}

fn tenant(client: usize) -> String {
    format!("bench-client-{client}")
}

/// Per-layer probes a traced run makes after each job, outside the
/// job's latency: in-process calls into the same layers the job went
/// through, each recorded as a span of that job.
struct Probe<'a> {
    spans: &'a Spans,
    library: &'a Arc<AppLibrary>,
    daemon: &'a Daemon,
    /// Admission-only manager for timing `route(POST /jobs)`: nothing
    /// dispatches (in-flight quota 0), and each probe job is cancelled
    /// right after, so probing never runs or caches a job.
    shadow: &'a (Arc<JobManager>, MetricsRegistry),
    started: Instant,
    with_metrics: JobRunner,
    bare: JobRunner,
}

impl Probe<'_> {
    fn route(&self, manager: &JobManager, registry: &MetricsRegistry, req: &Request) -> Vec<u8> {
        route(req, manager, registry, self.library, self.started).body
    }

    fn trace_job(&mut self, s: &Sample) {
        let sp = self.spans;
        let Some(served) = &s.served else { return };
        let get = |path: String| Request {
            method: "GET".to_string(),
            path,
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let manager = self.daemon.manager();
        let registry = self.daemon.registry();
        // Transport of one request, timed apart from the job: the client
        // time of an empty request minus its in-process route time.
        let (client, client_us) = sp.time("metrics.http.healthz", || {
            request(self.daemon.addr(), "GET", "/healthz", &[], None)
        });
        assert_eq!(client.map(|r| r.status).ok(), Some(200), "the daemon answers /healthz");
        let healthz = get("/healthz".to_string());
        let (_, route_healthz) =
            sp.time("serve.daemon.route_healthz", || self.route(manager, registry, &healthz));
        sp.count("metrics.http.transport_us", client_us - route_healthz);
        let result = get(format!("/jobs/{}/result", s.id));
        sp.time("serve.daemon.route_result", || self.route(manager, registry, &result));
        let status = get(format!("/jobs/{}", s.id));
        sp.time("serve.daemon.route_status", || self.route(manager, registry, &status));
        let mut submit = get("/jobs".to_string());
        submit.method = "POST".to_string();
        submit.headers.push(("x-tenant".to_string(), "bench-probe".to_string()));
        submit.body = s.job.body.clone().into_bytes();
        let (shadow, shadow_registry) = self.shadow;
        let (body, _) =
            sp.time("serve.daemon.route_submit", || self.route(shadow, shadow_registry, &submit));
        let id = std::str::from_utf8(&body).ok().and_then(|b| json(b).ok()?["job"].as_u64());
        shadow.cancel(id.expect("the shadow manager admits every probe"));

        let (parsed, _) =
            sp.time("serve.api.parse", || parse_job(s.job.body.as_bytes(), self.library));
        let spec = parsed.expect("a served body parses").scenario.spec().clone();
        let (scenario, _) = sp.time("core.job.compile", || CompiledScenario::compile(spec));
        let scenario = scenario.expect("a served scenario compiles");

        let (stats, run_us) = sp.time("core.des.run_with_metrics", || {
            run_uncached(&mut self.with_metrics, &scenario, Engine::Des)
        });
        let tasks = stats.tasks.len().max(1) as f64;
        sp.count("core.des.ns_per_task", run_us * 1e3 / tasks);
        let (_, bare_us) =
            sp.time("core.des.run_bare", || run_uncached(&mut self.bare, &scenario, Engine::Des));
        sp.count("core.des.ns_per_task_bare", bare_us * 1e3 / tasks);

        let cache = ResultCache::new(1);
        cache.insert(scenario.fingerprint(), Engine::Des, stats);
        let (hit, _) =
            sp.time("core.job.cache_get", || cache.get(scenario.fingerprint(), Engine::Des));
        assert!(hit.is_some(), "a just-inserted result is a warm hit");

        let outside = (s.latency_ms - s.queue_wait_ms - s.run_ms) * 1e3;
        sp.count("serve.manager.queue_wait_us", s.queue_wait_ms * 1e3);
        sp.count("core.des.run_us", s.run_ms * 1e3);
        sp.count("serve.manager.outside_engine_us", outside);
        sp.count("serve.daemon.result_bytes", served.result_bytes as f64);
        sp.count("core.job.cache_hit", if served.cached { 1.0 } else { 0.0 });
        sp.count("metrics.http.requests", f64::from(s.requests));
    }
}

fn shadow_manager() -> (Arc<JobManager>, MetricsRegistry) {
    let registry = MetricsRegistry::new();
    let config = ManagerConfig {
        max_inflight_per_tenant: 0,
        queue_capacity: usize::MAX,
        max_queued_per_tenant: usize::MAX,
        ..ManagerConfig::default()
    };
    (JobManager::start(config, registry.clone()), registry)
}

/// Runs the first `clients` clients closed-loop until `seconds` have
/// passed (each finishes the job it is in), probing every job when
/// `spans` is given.
fn window(
    rig: &mut Rig,
    clients: usize,
    seconds: f64,
    spans: Option<&Spans>,
) -> (Vec<Sample>, SliceStats) {
    let Rig { library, daemon, sources, .. } = rig;
    let (library, daemon) = (&*library, &*daemon);
    let addr = daemon.addr();
    let shadow = spans.map(|_| shadow_manager());
    let slices = Slices::start();
    let started = slices.started();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources[..clients]
            .iter_mut()
            .enumerate()
            .map(|(c, source)| {
                let (shadow, slices) = (shadow.as_ref(), &slices);
                scope.spawn(move || {
                    let mut probe = spans.zip(shadow).map(|(spans, shadow)| {
                        let mut with_metrics = JobRunner::new();
                        with_metrics.set_metrics(Some(MetricsRegistry::new()));
                        Probe {
                            spans,
                            library,
                            daemon,
                            shadow,
                            started,
                            with_metrics,
                            bare: JobRunner::new(),
                        }
                    });
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let s = one_job(addr, &tenant(c), source.next());
                        slices.tick();
                        if let Some(p) = probe.as_mut() {
                            p.trace_job(&s);
                        }
                        out.push(s);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    let done: Vec<(Instant, f64)> = samples.iter().map(|s| (s.done_at, s.latency_ms)).collect();
    let stats = slices.finish(&done);
    if let Some((manager, _)) = shadow {
        manager.shutdown(false);
    }
    (samples, stats)
}

fn cache_counter(daemon: &Daemon, name: &str) -> f64 {
    daemon.registry().snapshot().value(name, &[]).unwrap_or(0.0)
}

/// Checks every served result against a fresh, cache-less in-process
/// DES run of the same body, plus the generator's task range. Returns
/// the number of samples that pass.
fn verify_samples(samples: &[Sample], library: &Arc<AppLibrary>) -> (u64, Vec<String>) {
    let mut bodies: Vec<&str> = samples.iter().map(|s| s.job.body.as_str()).collect();
    bodies.sort_unstable();
    bodies.dedup();
    let oracle: HashMap<&str, SimResult> =
        bodies.iter().copied().zip(verify::des_oracle(&bodies, library)).collect();
    let mut verified = 0;
    let mut problems = Vec::new();
    for s in samples {
        let Some(served) = &s.served else {
            problems.push(format!("job {} not served: {}", s.id, s.error.as_deref().unwrap_or("")));
            continue;
        };
        let (lo, hi) = s.job.task_range();
        let tasks = served.result.tasks as usize;
        if !(lo..=hi).contains(&tasks) {
            problems.push(format!("job {} has {tasks} tasks, outside [{lo}, {hi}]", s.id));
        } else if served.result != oracle[s.job.body.as_str()] {
            problems.push(format!("job {} differs from its DES run", s.id));
        } else {
            verified += 1;
        }
    }
    (verified, problems)
}

pub fn run(kind: Kind, args: &Args, main_start: Instant) -> RunResult {
    let mut phases: [Vec<f64>; 3] = Default::default();
    let mut rig = setup(kind, args.seed, &mut phases);
    let mut setup_s = vec![secs(main_start)];
    let hits0 = cache_counter(&rig.daemon, "dssoc_result_cache_hits");
    let misses0 = cache_counter(&rig.daemon, "dssoc_result_cache_misses");

    // A traced run drives one client in both halves: its probes then
    // compete with no other client's job for the two cores, so a job's
    // parts are measured under the load its latency saw, and traced
    // minus untraced latency is the probes' own overhead.
    let (untraced_s, clients) =
        if args.trace { (args.seconds / 2.0, 1) } else { (args.seconds, CLIENTS) };
    let (mut samples, measured) = window(&mut rig, clients, untraced_s, None);
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let latencies_ms: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();

    let spans = Spans::new();
    let mut traced_ms = Vec::new();
    let flight0 = rig.daemon.manager().flight_total();
    if args.trace {
        let (traced, _) = window(&mut rig, clients, args.seconds - untraced_s, Some(&spans));
        traced_ms = traced.iter().map(|s| s.latency_ms).collect();
        samples.extend(traced);
    }
    let flight_events = (rig.daemon.manager().flight_total() - flight0) as f64;
    let hits = cache_counter(&rig.daemon, "dssoc_result_cache_hits") - hits0;
    let misses = cache_counter(&rig.daemon, "dssoc_result_cache_misses") - misses0;

    // Workload properties: the run fails when a workload stops
    // measuring what it claims.
    let mut problems = Vec::new();
    let refused = samples.iter().filter(|s| s.refused).count();
    if refused > 0 {
        problems.push(format!("{refused} job(s) refused with 429/503"));
    }
    let cached = samples.iter().filter(|s| s.served.as_ref().is_some_and(|r| r.cached)).count();
    let jobs = samples.len() as f64;
    match kind {
        // Warm-up jobs are fresh too: the counter must read 0 overall.
        Kind::Fresh
            if cached > 0 || cache_counter(&rig.daemon, "dssoc_result_cache_hits") > 0.0 =>
        {
            problems.push(format!("serve_fresh saw cache hits ({cached} cached results)"));
        }
        Kind::Replay if cached != samples.len() || hits != jobs || misses != 0.0 => {
            problems.push(format!(
                "serve_replay missed the cache: {cached} of {} results cached, {hits} hits, {misses} misses",
                samples.len()
            ));
        }
        _ => {}
    }

    let (verified, mismatches) = verify_samples(&samples, &rig.library);
    problems.extend(mismatches);
    let layers = if args.trace {
        layer_metrics(&spans, &latencies_ms, &traced_ms, flight_events, &mut problems)
    } else {
        Metrics::default()
    };
    drop(rig);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        drop(setup(kind, args.seed, &mut phases));
        setup_s.push(secs(t));
    }
    RunResult {
        setup_s,
        phases,
        window: measured,
        peak_rss_mb,
        attempted: samples.len() as u64,
        verified,
        problems,
        layers,
    }
}

/// The per-layer metrics of a traced run, plus the check that a served
/// job's parts add up to its median client latency.
fn layer_metrics(
    spans: &Spans,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    flight_events: f64,
    problems: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let jobs = traced_ms.len().max(1) as f64;
    m.set("metrics.http.transport_us", spans.median("metrics.http.transport_us"), "us");
    let requests = spans.values("metrics.http.requests");
    m.set("metrics.http.requests_per_job", requests.iter().sum::<f64>() / jobs, "count");
    m.set("serve.api.parse_us", spans.median_us("serve.api.parse"), "us");
    m.set("serve.daemon.route_submit_us", spans.median_us("serve.daemon.route_submit"), "us");
    m.set("serve.daemon.route_result_us", spans.median_us("serve.daemon.route_result"), "us");
    m.set("serve.daemon.result_bytes", spans.median("serve.daemon.result_bytes"), "bytes");
    m.set("serve.manager.queue_wait_us", spans.median("serve.manager.queue_wait_us"), "us");
    m.set("serve.manager.outside_engine_us", spans.median("serve.manager.outside_engine_us"), "us");
    m.set("serve.flight.events_per_job", flight_events / jobs, "count");
    m.set("core.job.compile_us", spans.median_us("core.job.compile"), "us");
    m.set("core.job.cache_get_us", spans.median_us("core.job.cache_get"), "us");
    let hits = spans.values("core.job.cache_hit");
    m.set("core.job.cache_hit_ratio", hits.iter().sum::<f64>() / hits.len().max(1) as f64, "share");
    m.set("core.des.run_us", spans.median("core.des.run_us"), "us");
    m.set("core.des.ns_per_task", spans.median("core.des.ns_per_task"), "ns");
    m.set("core.des.ns_per_task_bare", spans.median("core.des.ns_per_task_bare"), "ns");

    let overhead_ms = median_or_zero(traced_ms) - median_or_zero(untraced_ms);
    m.set("trace.overhead_p50_ms", overhead_ms, "ms");

    // A served job is three requests back to back: each pays one
    // transport and one in-process route, and between submit and result
    // the job waits in the queue and runs. Every part is measured on its
    // own (transport on a separate empty request, routes as in-process
    // calls, queue wait and run by the manager), never derived from the
    // client's clock. No part holds the wake-ups and run-queue waits
    // between the job's threads (submit wakes every worker lane, the
    // status waiter wakes on completion, each connection gets a thread)
    // or the client's own parsing: on a two-core host they were 12-40%
    // of the median latency. So the parts must explain at least 40% of
    // it (no layer's time has dropped out of the accounting), and may
    // exceed it, as the run overlaps the submit response, by no more
    // than the tracing overhead, and at least 10% of the latency.
    let parts_ms = (3.0 * spans.median("metrics.http.transport_us")
        + ["route_submit", "route_status", "route_result"]
            .iter()
            .map(|r| spans.median_us(&format!("serve.daemon.{r}")))
            .sum::<f64>()
        + spans.median("serve.manager.queue_wait_us")
        + spans.median("core.des.run_us"))
        / 1e3;
    let latency_ms = median_or_zero(traced_ms);
    let tolerance_ms = overhead_ms.abs().max(0.1 * latency_ms);
    eprintln!(
        "perfbench: parts add up to {parts_ms:.3} ms of the median latency {latency_ms:.3} ms ({:.0}%)",
        100.0 * parts_ms / latency_ms
    );
    if parts_ms < 0.4 * latency_ms || parts_ms > latency_ms + tolerance_ms {
        problems.push(format!(
            "parts do not add up: {parts_ms:.3} ms vs median latency {latency_ms:.3} ms (at most {tolerance_ms:.3} ms above it, at least 40% of it)"
        ));
    }
    m
}

/// The first jobs the workload serves at the golden seed (the replay
/// pool's first jobs; the fresh clients' first window jobs), run
/// through the in-process DES oracle.
pub fn golden_results(kind: Kind) -> Vec<SimResult> {
    let library = Arc::new(dssoc_apps::standard_library().0);
    let seed = verify::GOLDEN_SEED;
    let per_client = verify::GOLDEN_JOBS / CLIENTS;
    let jobs: Vec<ServeJob> = match kind {
        Kind::Replay => {
            let mut rng = Rng::new(seed, kind.stream());
            (0..verify::GOLDEN_JOBS).map(|_| serve_job(&mut rng)).collect()
        }
        Kind::Fresh => (0..CLIENTS)
            .flat_map(|c| {
                let mut rng = Rng::new(seed, kind.client_stream(c));
                (0..per_client).map(move |_| serve_job(&mut rng))
            })
            .collect(),
    };
    let bodies: Vec<&str> = jobs.iter().map(|j| j.body.as_str()).collect();
    verify::des_oracle(&bodies, &library)
}
