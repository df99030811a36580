//! The job manager: bounded priority queue with aging, per-tenant
//! admission control, and a *supervised* worker pool over the shared
//! job layer.
//!
//! Topology follows what the engines can actually share. All workers
//! clone one [`ResultCache`] handle, so any worker's deterministic run
//! answers every tenant's identical resubmission. The *threaded* lane
//! is a single worker owning one persistent [`JobRunner`]: its warm
//! [`Emulation`] engines hold the real resource-pool threads, and two
//! threaded jobs time-sharing the host would corrupt each other's
//! measured timings. The *DES* lane fans out across N workers — a
//! simulation is a pure single-threaded computation, so parallelism
//! across jobs is free.
//!
//! Admission is two-tiered: a tenant over its queued quota (or the
//! daemon over its global queue bound) is rejected at submit time,
//! while the in-flight quota is enforced at dispatch — an over-limit
//! tenant's jobs stay queued and other tenants' work overtakes them.
//!
//! # Resilience
//!
//! The manager assumes jobs misbehave and contains the blast radius:
//!
//! * **Panic isolation + supervision.** Each job runs under
//!   `catch_unwind`: a panicking scenario fails *that job* (the panic
//!   payload becomes the error string) and the worker thread exits —
//!   its warm engines are suspect after an unwind. A supervisor thread
//!   respawns the lane with a fresh [`JobRunner`], so worker count
//!   always returns to the configured topology
//!   (`dssoc_serve_worker_panics` / `dssoc_serve_worker_respawns`).
//! * **Deadlines.** A job past its `deadline` while queued goes
//!   terminal as [`JobState::DeadlineExceeded`]; a *running* DES job is
//!   cancelled cooperatively through an atomic flag the event loop
//!   polls. (The threaded engine executes real kernels and cannot be
//!   interrupted mid-run.)
//! * **Queue aging.** Effective priority rises with queue wait
//!   (`aging_step` per priority level), so a low-priority job behind a
//!   high-priority flood is overtaken only for a bounded time.
//! * **Bounded retries.** A run failing with the retryable class
//!   ([`EmuError::Fault`]) is re-queued with seeded, jittered
//!   exponential backoff up to `retry_max_attempts` total attempts;
//!   `attempts` and `last_error` surface in the job snapshot.
//! * **Retention.** Terminal records expire by global count, per-tenant
//!   count, and wall-clock TTL, so an abandoned tenant cannot pin
//!   memory.
//!
//! [`Emulation`]: dssoc_core::engine::Emulation
//! [`EmuError::Fault`]: dssoc_core::engine::EmuError::Fault

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dssoc_core::engine::EmuError;
use dssoc_core::job::{CompiledScenario, Engine, Fingerprint, JobRunner, ResultCache};
use dssoc_core::sched::by_name;
use dssoc_core::stats::EmulationStats;
use dssoc_metrics::MetricsRegistry;
use dssoc_trace::TraceSession;

use crate::flight::{
    self, FlightConfig, FlightEvent, FlightEventKind, FlightRecorder, JobSubscription, JobTimeline,
    LaneHealth,
};

/// Sizing, quota, and resilience knobs for [`JobManager::start`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// DES-lane worker count (the threaded lane is always 1).
    pub des_workers: usize,
    /// Global bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// Per-tenant bound on queued jobs (submit-time `429`).
    pub max_queued_per_tenant: usize,
    /// Per-tenant bound on concurrently running jobs (dispatch-time
    /// holdback, never a rejection).
    pub max_inflight_per_tenant: usize,
    /// Result-cache capacity (shared across all workers).
    pub cache_capacity: usize,
    /// Terminal jobs retained for status/result queries before the
    /// oldest are forgotten.
    pub retention: usize,
    /// Queue-aging slope: a queued job gains one effective priority
    /// level per `aging_step` of wait. `None` disables aging (strict
    /// priority, FIFO within a level).
    pub aging_step: Option<Duration>,
    /// Wall-clock TTL on terminal records; older results are evicted
    /// even under the retention bound.
    pub result_ttl: Duration,
    /// Per-tenant bound on retained terminal records.
    pub max_terminal_per_tenant: usize,
    /// Total attempts (first run + retries) for jobs failing with the
    /// retryable [`EmuError::Fault`] class. `1` disables retries.
    ///
    /// [`EmuError::Fault`]: dssoc_core::engine::EmuError::Fault
    pub retry_max_attempts: u32,
    /// Base backoff before a retry; attempt `n` waits
    /// `base * 2^(n-1)`, jittered to `[0.5x, 1.5x)`.
    pub retry_backoff: Duration,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
    /// Supervisor cadence: deadline sweeps, TTL eviction, and dead-lane
    /// respawn all run on this period.
    pub sweep_interval: Duration,
    /// Flight-recorder sizing and outputs (ring capacity, JSONL log,
    /// panic-dump directory).
    pub flight: FlightConfig,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            des_workers: 2,
            queue_capacity: 256,
            max_queued_per_tenant: 32,
            max_inflight_per_tenant: 4,
            cache_capacity: 256,
            retention: 1024,
            aging_step: Some(Duration::from_millis(500)),
            result_ttl: Duration::from_secs(3600),
            max_terminal_per_tenant: 256,
            retry_max_attempts: 3,
            retry_backoff: Duration::from_millis(25),
            retry_seed: 0x5eed_0dd5,
            sweep_interval: Duration::from_millis(25),
            flight: FlightConfig::default(),
        }
    }
}

/// Why a submission was turned away (the daemon maps these to `429` /
/// `503` bodies).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The daemon is draining for shutdown.
    Draining,
    /// The global queue bound is reached.
    QueueFull,
    /// The tenant already has `max_queued_per_tenant` jobs queued.
    TenantOverQuota(usize),
}

impl AdmissionError {
    /// Stable reason label for metrics and error bodies.
    pub fn reason(&self) -> &'static str {
        match self {
            AdmissionError::Draining => "draining",
            AdmissionError::QueueFull => "queue_full",
            AdmissionError::TenantOverQuota(_) => "tenant_quota",
        }
    }
}

/// Outcome of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now cancelled.
    Cancelled,
    /// The job is running on the DES: its cancel flag is set and the
    /// event loop will abort at the next poll point.
    Cancelling,
    /// The job is running on the threaded engine, which executes real
    /// kernels and is not interruptible.
    Running,
    /// The job already reached a terminal state.
    Terminal,
    /// No such job.
    NotFound,
}

/// Test-only failure injection, parsed from the submission body when
/// the daemon runs with `DSSOC_SERVE_CHAOS` set. Exercises the
/// supervision and retry paths from outside the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Panic inside the worker before the engine runs.
    Panic,
    /// Fail the first `n` attempts with a retryable error.
    Flaky(u32),
}

/// Everything a finished run reports (a subset of [`EmulationStats`]
/// that serializes small; full task tables stay in the engine layer).
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Exact makespan in nanoseconds — the bit-identity handle for
    /// cache and cross-engine comparisons.
    pub makespan_ns: u128,
    /// Applications that ran to completion.
    pub apps_completed: usize,
    /// Total application instances injected.
    pub apps_total: usize,
    /// Tasks executed.
    pub tasks: usize,
    /// Scheduler invocations.
    pub sched_invocations: u64,
    /// Served from the shared result cache without running.
    pub cached: bool,
    /// Busy fraction per PE, in platform order.
    pub utilization: Vec<(String, f64)>,
    /// Faults injected (0 without a fault spec).
    pub faults_injected: u64,
    /// Applications aborted by faults.
    pub apps_aborted: u64,
}

impl JobOutcome {
    fn from_stats(stats: &EmulationStats, cached: bool) -> JobOutcome {
        JobOutcome {
            makespan_ns: stats.makespan.as_nanos(),
            apps_completed: stats.completed_apps(),
            apps_total: stats.apps.len(),
            tasks: stats.tasks.len(),
            sched_invocations: stats.sched_invocations,
            cached,
            utilization: stats
                .utilizations()
                .iter()
                .map(|(pe, u)| (stats.pe_names.get(pe).cloned().unwrap_or_default(), *u))
                .collect(),
            faults_injected: stats.reliability.faults_injected,
            apps_aborted: stats.reliability.apps_aborted,
        }
    }
}

/// Job lifecycle, as exposed over the API.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the priority queue.
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished successfully.
    Done(Box<JobOutcome>),
    /// Failed with an engine error (or a contained worker panic).
    Failed(String),
    /// Cancelled by request.
    Cancelled,
    /// The per-job deadline elapsed before the job finished.
    DeadlineExceeded,
}

impl JobState {
    /// The wire name of this state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline_exceeded",
        }
    }

    /// True once the job can no longer change state.
    pub fn terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_)
                | JobState::Failed(_)
                | JobState::Cancelled
                | JobState::DeadlineExceeded
        )
    }
}

/// Per-job execution knobs for [`JobManager::submit`].
#[derive(Debug, Clone)]
pub struct SubmitOptions {
    /// Which engine executes the job.
    pub engine: Engine,
    /// Queue priority (higher dispatches first).
    pub priority: u8,
    /// Capture a per-run Chrome/Perfetto trace artifact.
    pub trace: bool,
    /// Give up on the job this long after submission: queued past the
    /// deadline goes [`JobState::DeadlineExceeded`]; a running DES job
    /// is cancelled cooperatively.
    pub deadline: Option<Duration>,
    /// Test-only failure injection (see [`ChaosMode`]).
    pub chaos: Option<ChaosMode>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            engine: Engine::Des,
            priority: 0,
            trace: false,
            deadline: None,
            chaos: None,
        }
    }
}

impl SubmitOptions {
    /// Defaults for `engine`.
    pub fn new(engine: Engine) -> SubmitOptions {
        SubmitOptions { engine, ..SubmitOptions::default() }
    }

    /// Sets the queue priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Enables trace capture.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the job deadline (relative to submission).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a chaos hook (test-only).
    pub fn chaos(mut self, chaos: ChaosMode) -> Self {
        self.chaos = Some(chaos);
        self
    }
}

/// A point-in-time public view of one job.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Daemon-assigned job id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Executing engine.
    pub engine: Engine,
    /// Queue priority.
    pub priority: u8,
    /// Scenario fingerprint (the cache key).
    pub fingerprint: Fingerprint,
    /// Scheduler name from the scenario.
    pub scheduler: String,
    /// Platform name from the scenario.
    pub platform: String,
    /// Current state.
    pub state: JobState,
    /// Time spent queued (final once running; covers re-queues).
    pub queue_wait: Duration,
    /// Run duration (`None` until the job finishes running).
    pub run_time: Option<Duration>,
    /// A trace artifact is (or will be) available.
    pub trace: bool,
    /// Execution attempts claimed so far (>1 means retried).
    pub attempts: u32,
    /// Most recent attempt's error, kept across retries.
    pub last_error: Option<String>,
}

/// Why a running job's cancel flag was raised — decides the terminal
/// state the aborted run maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CancelReason {
    User,
    Deadline,
}

struct JobRecord {
    tenant: String,
    engine: Engine,
    priority: u8,
    fingerprint: Fingerprint,
    scheduler: String,
    platform: String,
    /// Dropped when the job reaches a terminal state.
    scenario: Option<Arc<CompiledScenario>>,
    want_trace: bool,
    trace_json: Option<Arc<String>>,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
    state: JobState,
    /// Cooperative-cancel flag handed to the DES event loop.
    cancel: Arc<AtomicBool>,
    /// Why `cancel` was raised, if it was.
    cancel_reason: Option<CancelReason>,
    /// Absolute give-up time, from [`SubmitOptions::deadline`].
    deadline: Option<Instant>,
    attempts: u32,
    last_error: Option<String>,
    chaos: Option<ChaosMode>,
    /// Root correlation span (flight recorder + engine-trace stitch).
    span: u64,
    /// The complete lifecycle event sequence. Bounded by construction:
    /// a few submit-side events, a handful per attempt (attempts are
    /// bounded by `retry_max_attempts`), and at most
    /// [`MAX_AGED_EVENTS`] aging notices.
    flight: Vec<FlightEvent>,
    /// Whole aging levels already reported for the current queue stay.
    aged_level: u64,
    /// Aging notices emitted so far (capped at [`MAX_AGED_EVENTS`]).
    aged_events: u32,
    /// Trace-ring events dropped during the traced run (`None` until a
    /// traced attempt finishes).
    trace_dropped: Option<u64>,
}

/// Cap on per-job `aged` events, so an unclaimable job cannot grow its
/// own timeline without bound.
const MAX_AGED_EVENTS: u32 = 8;

impl JobRecord {
    fn snapshot(&self, id: u64) -> JobSnapshot {
        JobSnapshot {
            id,
            tenant: self.tenant.clone(),
            engine: self.engine,
            priority: self.priority,
            fingerprint: self.fingerprint,
            scheduler: self.scheduler.clone(),
            platform: self.platform.clone(),
            state: self.state.clone(),
            queue_wait: self
                .started
                .unwrap_or_else(Instant::now)
                .saturating_duration_since(self.submitted),
            run_time: match (self.started, self.finished) {
                (Some(s), Some(f)) => Some(f.saturating_duration_since(s)),
                _ => None,
            },
            trace: self.want_trace,
            attempts: self.attempts,
            last_error: self.last_error.clone(),
        }
    }
}

/// One queued-lane entry. Lanes are plain vectors scanned at claim
/// time: queues are small (bounded by `queue_capacity`), and aging
/// makes the effective priority time-dependent, so a heap's frozen
/// ordering would go stale anyway. Vector storage also makes active
/// removal (cancel, deadline expiry) an O(n) `retain` instead of a
/// tombstone that admission would still count.
struct QueuedEntry {
    priority: u8,
    seq: u64,
    id: u64,
    /// When the entry (re-)entered the queue; aging counts from here.
    enqueued: Instant,
    /// Earliest claim time (retry backoff).
    not_before: Option<Instant>,
}

/// Effective priority under aging: the base level plus one level per
/// `step` of queue wait. With `step == None` aging is off and base
/// priority alone decides.
fn effective_priority(base: u8, waited: Duration, step: Option<Duration>) -> u64 {
    let aged = match step {
        Some(step) if !step.is_zero() => {
            (waited.as_nanos() / step.as_nanos()).min(u64::MAX as u128) as u64
        }
        _ => 0,
    };
    (base as u64).saturating_add(aged)
}

/// splitmix64 — the workspace-standard stateless hash (same idiom as
/// the fault plan's decision hashing).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic jittered exponential backoff for retry `attempt`
/// (1-based count of attempts already made): `base * 2^(attempt-1)`,
/// jittered into `[0.5x, 1.5x)` by a seeded hash of `(seed, id,
/// attempt)` — reproducible across runs, decorrelated across jobs.
fn retry_backoff(seed: u64, id: u64, attempt: u32, base: Duration) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(10));
    let h = splitmix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt));
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    exp.mul_f64(0.5 + frac)
}

#[derive(Default)]
struct TenantCounters {
    queued: usize,
    inflight: usize,
    submitted: u64,
    rejected: u64,
    cache_served: u64,
}

/// Per-tenant accounting, as reported by [`JobManager::tenants`].
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant name (from the `X-Tenant` header).
    pub tenant: String,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently running.
    pub inflight: usize,
    /// Total admitted submissions.
    pub submitted: u64,
    /// Total rejected submissions.
    pub rejected: u64,
    /// Results served straight from the shared cache.
    pub cache_served: u64,
}

const LANE_THREADED: usize = 0;
const LANE_DES: usize = 1;

fn lane_of(engine: Engine) -> usize {
    match engine {
        Engine::Threaded => LANE_THREADED,
        Engine::Des => LANE_DES,
    }
}

fn lane_name(lane: usize) -> &'static str {
    match lane {
        LANE_THREADED => "threaded",
        _ => "des",
    }
}

struct State {
    next_id: u64,
    lanes: [Vec<QueuedEntry>; 2],
    jobs: HashMap<u64, JobRecord>,
    /// Submission order, for listing; lazily compacted as terminal
    /// jobs age out of `jobs`.
    order: VecDeque<u64>,
    tenants: HashMap<String, TenantCounters>,
    /// Terminal job ids in completion order, bounding `jobs` growth.
    terminal: VecDeque<u64>,
    queued_total: usize,
    draining: bool,
    /// Shutdown chose to kill queued jobs (no-drain): retries must not
    /// re-enqueue behind the reaper.
    kill_queued: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers: new work, a finished job freeing an in-flight
    /// slot, or drain.
    work_cv: Condvar,
    /// Wakes long-poll watchers on any terminal transition.
    done_cv: Condvar,
    registry: MetricsRegistry,
    cache: ResultCache,
    config: ManagerConfig,
    /// Raised once at shutdown: the supervisor exits and stops
    /// respawning (a drained worker's exit is not a death).
    stopping: AtomicBool,
    /// The job flight recorder (ring, log, subscribers, dumps).
    flight: FlightRecorder,
}

/// Emits one flight event and appends it to the job's own timeline.
/// Caller holds the state lock — that is the single-producer
/// discipline the recorder's ring and subscriber catch-up rely on.
/// `in_attempt` assigns the event to the current attempt's span
/// (run-side events) instead of the root span (queue-side events).
fn record_flight(
    shared: &Shared,
    st: &mut State,
    id: u64,
    kind: FlightEventKind,
    in_attempt: bool,
    error: Option<&str>,
    at: Instant,
) {
    let queue_depth = st.queued_total;
    let Some(r) = st.jobs.get_mut(&id) else { return };
    let attempt_span = if in_attempt { flight::attempt_span(r.span, r.attempts) } else { 0 };
    let ev = shared.flight.emit(
        kind,
        id,
        r.span,
        attempt_span,
        r.attempts,
        &r.tenant,
        lane_name(lane_of(r.engine)),
        queue_depth,
        error,
        at,
    );
    r.flight.push(ev);
}

impl Shared {
    fn count_rejection(&self, st: &mut State, tenant: &str, err: &AdmissionError) {
        st.tenants.entry(tenant.to_string()).or_default().rejected += 1;
        self.registry
            .counter("dssoc_serve_rejections", &[("tenant", tenant), ("reason", err.reason())])
            .cell()
            .inc();
    }
}

/// One supervised worker slot; the supervisor replaces `handle` when
/// the thread dies.
struct WorkerSlot {
    lane: usize,
    handle: JoinHandle<()>,
}

type WorkerTable = Arc<Mutex<Vec<WorkerSlot>>>;

/// The multi-tenant job manager (see module docs).
pub struct JobManager {
    shared: Arc<Shared>,
    workers: WorkerTable,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl JobManager {
    /// Starts the worker pool and supervisor, returning the manager
    /// handle.
    pub fn start(config: ManagerConfig, registry: MetricsRegistry) -> Arc<JobManager> {
        let cache = ResultCache::new(config.cache_capacity.max(1));
        cache.attach_metrics(&registry);
        let flight = FlightRecorder::new(&config.flight, registry.clone());
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                next_id: 1,
                lanes: [Vec::new(), Vec::new()],
                jobs: HashMap::new(),
                order: VecDeque::new(),
                tenants: HashMap::new(),
                terminal: VecDeque::new(),
                queued_total: 0,
                draining: false,
                kill_queued: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            registry,
            cache,
            config: config.clone(),
            stopping: AtomicBool::new(false),
            flight,
        });
        let mut slots = Vec::new();
        for (lane, count) in [(LANE_THREADED, 1), (LANE_DES, config.des_workers.max(1))] {
            for i in 0..count {
                slots.push(WorkerSlot { lane, handle: spawn_worker(&shared, lane, i) });
            }
        }
        let workers: WorkerTable = Arc::new(Mutex::new(slots));
        let sup_shared = Arc::clone(&shared);
        let sup_workers = Arc::clone(&workers);
        let supervisor = std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || supervisor_loop(&sup_shared, &sup_workers))
            .expect("spawn supervisor");
        Arc::new(JobManager {
            shared,
            workers,
            supervisor: Mutex::new(Some(supervisor)),
            stopped: AtomicBool::new(false),
        })
    }

    /// The shared result cache (all lanes).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Live (not yet exited) worker threads — returns to the
    /// configured topology after panics, via the supervisor.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().expect("workers").iter().filter(|s| !s.handle.is_finished()).count()
    }

    /// Admits one job for `tenant`, or rejects it with the reason.
    pub fn submit(
        &self,
        tenant: &str,
        scenario: Arc<CompiledScenario>,
        opts: SubmitOptions,
    ) -> Result<JobSnapshot, AdmissionError> {
        let shared = &self.shared;
        let mut st = shared.state.lock().expect("manager state");
        if st.draining {
            shared.count_rejection(&mut st, tenant, &AdmissionError::Draining);
            return Err(AdmissionError::Draining);
        }
        if st.queued_total >= shared.config.queue_capacity {
            shared.count_rejection(&mut st, tenant, &AdmissionError::QueueFull);
            return Err(AdmissionError::QueueFull);
        }
        let queued = st.tenants.entry(tenant.to_string()).or_default().queued;
        if queued >= shared.config.max_queued_per_tenant {
            let err = AdmissionError::TenantOverQuota(queued);
            shared.count_rejection(&mut st, tenant, &err);
            return Err(err);
        }

        let id = st.next_id;
        st.next_id += 1;
        let now = Instant::now();
        let spec = scenario.spec();
        let record = JobRecord {
            tenant: tenant.to_string(),
            engine: opts.engine,
            priority: opts.priority,
            fingerprint: scenario.fingerprint(),
            scheduler: spec.scheduler.clone(),
            platform: spec.platform.name.clone(),
            scenario: Some(scenario),
            want_trace: opts.trace,
            trace_json: None,
            submitted: now,
            started: None,
            finished: None,
            state: JobState::Queued,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_reason: None,
            deadline: opts.deadline.map(|d| now + d),
            attempts: 0,
            last_error: None,
            chaos: opts.chaos,
            span: shared.flight.span_of(id),
            flight: Vec::new(),
            aged_level: 0,
            aged_events: 0,
            trace_dropped: None,
        };
        let snapshot = record.snapshot(id);
        st.jobs.insert(id, record);
        st.order.push_back(id);
        st.lanes[lane_of(opts.engine)].push(QueuedEntry {
            priority: opts.priority,
            seq: id,
            id,
            enqueued: now,
            not_before: None,
        });
        st.queued_total += 1;
        {
            let t = st.tenants.entry(tenant.to_string()).or_default();
            t.queued += 1;
            t.submitted += 1;
        }
        shared.registry.counter("dssoc_serve_submissions", &[("tenant", tenant)]).cell().inc();
        shared.registry.gauge("dssoc_serve_queue_depth", &[]).cell().inc();
        // All three share the submission instant, so the timeline's
        // `queued → dispatched` delta is exactly the queue-wait the
        // histogram records at claim time.
        record_flight(shared, &mut st, id, FlightEventKind::Submitted, false, None, now);
        record_flight(shared, &mut st, id, FlightEventKind::Admitted, false, None, now);
        record_flight(shared, &mut st, id, FlightEventKind::Queued, false, None, now);
        drop(st);
        shared.work_cv.notify_all();
        Ok(snapshot)
    }

    /// A point-in-time view of one job.
    pub fn job(&self, id: u64) -> Option<JobSnapshot> {
        let st = self.shared.state.lock().expect("manager state");
        st.jobs.get(&id).map(|r| r.snapshot(id))
    }

    /// Blocks up to `timeout` for the job to reach a terminal state,
    /// then returns whatever state it is in (long-poll support).
    /// Returns `None` *immediately* for an unknown id — a typo'd job
    /// number must not hold a connection thread to the deadline.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("manager state");
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(r) if r.state.terminal() => return Some(r.snapshot(id)),
                Some(r) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Some(r.snapshot(id));
                    }
                    let (next, _) = self
                        .shared
                        .done_cv
                        .wait_timeout(st, deadline.saturating_duration_since(now))
                        .expect("manager state");
                    st = next;
                }
            }
        }
    }

    /// All known jobs in submission order (bounded by retention).
    pub fn list(&self) -> Vec<JobSnapshot> {
        let st = self.shared.state.lock().expect("manager state");
        st.order.iter().filter_map(|id| st.jobs.get(id).map(|r| r.snapshot(*id))).collect()
    }

    /// Per-tenant accounting, sorted by tenant name.
    pub fn tenants(&self) -> Vec<TenantSnapshot> {
        let st = self.shared.state.lock().expect("manager state");
        let mut out: Vec<TenantSnapshot> = st
            .tenants
            .iter()
            .map(|(name, t)| TenantSnapshot {
                tenant: name.clone(),
                queued: t.queued,
                inflight: t.inflight,
                submitted: t.submitted,
                rejected: t.rejected,
                cache_served: t.cache_served,
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// `(queued, running)` totals.
    pub fn depth(&self) -> (usize, usize) {
        let st = self.shared.state.lock().expect("manager state");
        let running = st.jobs.values().filter(|r| matches!(r.state, JobState::Running)).count();
        (st.queued_total, running)
    }

    /// Cancels a job. Queued jobs go terminal at once (and their queue
    /// entry is removed, so depth metrics and admission stop counting
    /// them). A running DES job is cancelled cooperatively
    /// ([`CancelOutcome::Cancelling`]); a running threaded job is not
    /// interruptible.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let shared = &self.shared;
        let mut st = shared.state.lock().expect("manager state");
        let Some(record) = st.jobs.get_mut(&id) else { return CancelOutcome::NotFound };
        match record.state {
            JobState::Queued => {
                cancel_queued_locked(shared, &mut st, id);
                drop(st);
                shared.done_cv.notify_all();
                shared.work_cv.notify_all();
                CancelOutcome::Cancelled
            }
            JobState::Running => {
                if record.engine == Engine::Des {
                    if record.cancel_reason.is_none() {
                        record.cancel_reason = Some(CancelReason::User);
                    }
                    record.cancel.store(true, Ordering::Relaxed);
                    record_flight(
                        shared,
                        &mut st,
                        id,
                        FlightEventKind::CancelRequested,
                        true,
                        None,
                        Instant::now(),
                    );
                    CancelOutcome::Cancelling
                } else {
                    CancelOutcome::Running
                }
            }
            _ => CancelOutcome::Terminal,
        }
    }

    /// The Chrome/Perfetto trace artifact of a traced, finished job.
    pub fn trace_artifact(&self, id: u64) -> Option<Arc<String>> {
        let st = self.shared.state.lock().expect("manager state");
        st.jobs.get(&id).and_then(|r| r.trace_json.clone())
    }

    /// The job's complete flight record: every lifecycle event plus
    /// the span ids that stitch it to the engine trace artifact.
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        let st = self.shared.state.lock().expect("manager state");
        st.jobs.get(&id).map(|r| JobTimeline {
            id,
            span: r.span,
            tenant: r.tenant.clone(),
            state: r.state.name(),
            attempts: r.attempts,
            want_trace: r.want_trace,
            trace_ready: r.trace_json.is_some(),
            trace_dropped: r.trace_dropped,
            events: r.flight.clone(),
        })
    }

    /// Opens a live event feed for one job (`None` for unknown ids):
    /// seeded with the job's recorded history past `since` (a flight
    /// seq; `0` replays everything), then streaming until the job goes
    /// terminal. Catch-up and registration happen under the state
    /// lock, so no event can fall between them.
    pub fn subscribe(&self, id: u64, since: u64) -> Option<JobSubscription> {
        let st = self.shared.state.lock().expect("manager state");
        let r = st.jobs.get(&id)?;
        Some(self.shared.flight.subscribe(id, &r.flight, since, r.state.terminal()))
    }

    /// The last `n` events retained in the global flight ring (the
    /// post-mortem view behind `GET /debug/flight`).
    pub fn flight_tail(&self, n: usize) -> Vec<FlightEvent> {
        self.shared.flight.tail(n)
    }

    /// Flight events ever recorded (retained or rotated out).
    pub fn flight_total(&self) -> u64 {
        self.shared.flight.total()
    }

    /// Dumps the retained flight ring to the configured dump
    /// directory, returning the written path.
    pub fn flight_dump(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.shared.flight.dump(reason)
    }

    /// Per-lane worker liveness: configured topology vs threads
    /// currently alive (the supervisor closes any gap).
    pub fn lane_health(&self) -> Vec<LaneHealth> {
        let slots = self.workers.lock().expect("workers");
        let mut out = vec![
            LaneHealth { lane: "threaded", configured: 0, alive: 0 },
            LaneHealth { lane: "des", configured: 0, alive: 0 },
        ];
        for slot in slots.iter() {
            let entry = &mut out[if slot.lane == LANE_THREADED { 0 } else { 1 }];
            entry.configured += 1;
            if !slot.handle.is_finished() {
                entry.alive += 1;
            }
        }
        out
    }

    /// Stops admission and joins the workers. With `drain`, queued
    /// jobs run to completion first; without, they are cancelled and
    /// only in-flight runs finish. Idempotent.
    pub fn shutdown(&self, drain: bool) {
        let shared = &self.shared;
        shared.stopping.store(true, Ordering::SeqCst);
        {
            let mut st = shared.state.lock().expect("manager state");
            st.draining = true;
            if !drain {
                st.kill_queued = true;
                let queued: Vec<u64> = st
                    .jobs
                    .iter()
                    .filter(|(_, r)| matches!(r.state, JobState::Queued))
                    .map(|(id, _)| *id)
                    .collect();
                for id in queued {
                    cancel_queued_locked(shared, &mut st, id);
                }
                for lane in &mut st.lanes {
                    lane.clear();
                }
            }
        }
        shared.work_cv.notify_all();
        shared.done_cv.notify_all();
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(sup) = self.supervisor.lock().expect("supervisor").take() {
            let _ = sup.join();
        }
        let slots: Vec<_> = self.workers.lock().expect("workers").drain(..).collect();
        for slot in slots {
            let _ = slot.handle.join();
        }
        // Safety net: if a lane died mid-drain with the supervisor
        // already gone, its queued jobs have no worker left. Cancel
        // them so every submitted job still goes terminal.
        let leftovers: Vec<u64> = {
            let st = shared.state.lock().expect("manager state");
            st.jobs
                .iter()
                .filter(|(_, r)| matches!(r.state, JobState::Queued))
                .map(|(id, _)| *id)
                .collect()
        };
        if !leftovers.is_empty() {
            let mut st = shared.state.lock().expect("manager state");
            for id in leftovers {
                cancel_queued_locked(shared, &mut st, id);
            }
            drop(st);
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown(false);
    }
}

/// Transitions a still-queued job to `Cancelled` with full accounting.
/// Caller holds the state lock and notifies `done_cv` after.
fn cancel_queued_locked(shared: &Shared, st: &mut State, id: u64) {
    let now = Instant::now();
    let Some(r) = st.jobs.get_mut(&id) else { return };
    if !matches!(r.state, JobState::Queued) {
        return;
    }
    r.state = JobState::Cancelled;
    r.finished = Some(now);
    r.scenario = None;
    let tenant = r.tenant.clone();
    let lane = lane_of(r.engine);
    st.lanes[lane].retain(|e| e.id != id);
    st.queued_total -= 1;
    st.terminal.push_back(id);
    if let Some(t) = st.tenants.get_mut(&tenant) {
        t.queued = t.queued.saturating_sub(1);
    }
    record_flight(shared, st, id, FlightEventKind::Cancelled, false, None, now);
    expire_terminal(st, shared.config.retention);
    shared.registry.gauge("dssoc_serve_queue_depth", &[]).cell().dec();
    shared.registry.counter("dssoc_serve_jobs_cancelled", &[]).cell().inc();
}

/// Transitions a still-queued job past its deadline to
/// `DeadlineExceeded` with full accounting. Caller holds the state
/// lock and has already removed (or will remove) the lane entry.
fn expire_queued_locked(shared: &Shared, st: &mut State, id: u64) {
    let now = Instant::now();
    let Some(r) = st.jobs.get_mut(&id) else { return };
    if !matches!(r.state, JobState::Queued) {
        return;
    }
    r.state = JobState::DeadlineExceeded;
    r.finished = Some(now);
    r.scenario = None;
    let tenant = r.tenant.clone();
    st.queued_total -= 1;
    st.terminal.push_back(id);
    if let Some(t) = st.tenants.get_mut(&tenant) {
        t.queued = t.queued.saturating_sub(1);
    }
    record_flight(
        shared,
        st,
        id,
        FlightEventKind::Expired,
        false,
        Some("deadline exceeded while queued"),
        now,
    );
    expire_terminal(st, shared.config.retention);
    shared.registry.gauge("dssoc_serve_queue_depth", &[]).cell().dec();
    shared.registry.counter("dssoc_serve_jobs_deadline_exceeded", &[]).cell().inc();
}

/// Forgets the oldest terminal jobs beyond the retention bound.
fn expire_terminal(st: &mut State, retention: usize) {
    while st.terminal.len() > retention {
        if let Some(old) = st.terminal.pop_front() {
            st.jobs.remove(&old);
        }
    }
    // Compact the listing order once forgotten ids dominate it.
    if st.order.len() > 2 * (st.jobs.len() + 1) {
        let State { order, jobs, .. } = &mut *st;
        order.retain(|id| jobs.contains_key(id));
    }
}

/// What a worker takes off the queue: everything needed to run the
/// attempt without touching the state lock.
struct Claimed {
    id: u64,
    scenario: Arc<CompiledScenario>,
    engine: Engine,
    trace: bool,
    /// 1-based attempt number (this claim included).
    attempt: u32,
    chaos: Option<ChaosMode>,
    cancel: Arc<AtomicBool>,
    /// Root correlation span, stamped into the engine trace.
    span: u64,
}

/// Claims the next eligible job for `lane`, blocking until one exists
/// or the manager drains dry.
///
/// Eligibility and order are decided by a linear scan (queues are
/// small and aging makes priority time-dependent): dead entries are
/// removed, queued jobs past their deadline expire on the spot,
/// backoff holds (`not_before`) and tenants at their in-flight quota
/// are skipped, and the survivor with the highest effective priority
/// (FIFO within a level) wins.
fn claim(shared: &Shared, lane: usize) -> Option<Claimed> {
    let mut st = shared.state.lock().expect("manager state");
    loop {
        let now = Instant::now();
        // Pass 1: drop dead entries, expire overdue queued jobs.
        let mut i = 0;
        while i < st.lanes[lane].len() {
            let id = st.lanes[lane][i].id;
            let (alive, overdue) = match st.jobs.get(&id) {
                Some(r) if matches!(r.state, JobState::Queued) => {
                    (true, r.deadline.is_some_and(|d| d <= now))
                }
                _ => (false, false),
            };
            if !alive {
                st.lanes[lane].swap_remove(i);
                continue;
            }
            if overdue {
                st.lanes[lane].swap_remove(i);
                expire_queued_locked(shared, &mut st, id);
                shared.done_cv.notify_all();
                continue;
            }
            i += 1;
        }
        // Pass 2: pick the best eligible entry.
        let mut best: Option<(u64, u64, usize)> = None; // (eff, seq, index)
        let mut next_wake: Option<Instant> = None;
        for (idx, e) in st.lanes[lane].iter().enumerate() {
            if let Some(nb) = e.not_before {
                if nb > now {
                    next_wake = Some(next_wake.map_or(nb, |w: Instant| w.min(nb)));
                    continue;
                }
            }
            let r = &st.jobs[&e.id];
            let inflight = st.tenants.get(&r.tenant).map(|t| t.inflight).unwrap_or(0);
            if inflight >= shared.config.max_inflight_per_tenant {
                continue;
            }
            let eff = effective_priority(
                e.priority,
                now.saturating_duration_since(e.enqueued),
                shared.config.aging_step,
            );
            let better = match best {
                None => true,
                Some((b_eff, b_seq, _)) => eff > b_eff || (eff == b_eff && e.seq < b_seq),
            };
            if better {
                best = Some((eff, e.seq, idx));
            }
        }
        if let Some((_, _, idx)) = best {
            let entry = st.lanes[lane].swap_remove(idx);
            let record = st.jobs.get_mut(&entry.id).expect("picked job exists");
            record.state = JobState::Running;
            record.started = Some(Instant::now());
            record.attempts += 1;
            let claimed = Claimed {
                id: entry.id,
                scenario: record.scenario.clone().expect("queued job keeps scenario"),
                engine: record.engine,
                trace: record.want_trace,
                attempt: record.attempts,
                chaos: record.chaos,
                cancel: Arc::clone(&record.cancel),
                span: record.span,
            };
            let tenant = record.tenant.clone();
            let started = record.started.expect("just set");
            let wait = started.saturating_duration_since(record.submitted);
            st.queued_total -= 1;
            let counters = st.tenants.entry(tenant).or_default();
            counters.queued = counters.queued.saturating_sub(1);
            counters.inflight += 1;
            shared.registry.gauge("dssoc_serve_queue_depth", &[]).cell().dec();
            shared.registry.gauge("dssoc_serve_inflight", &[]).cell().inc();
            shared
                .registry
                .histogram("dssoc_serve_queue_wait_ns", &[])
                .cell()
                .record(wait.as_nanos() as u64);
            // Timestamped with the exact claim instant the histogram
            // sample derives from, so timelines and the queue-wait
            // histogram agree to the nanosecond.
            record_flight(
                shared,
                &mut st,
                claimed.id,
                FlightEventKind::Dispatched,
                true,
                None,
                started,
            );
            return Some(claimed);
        }
        if st.draining && st.lanes[lane].is_empty() {
            return None;
        }
        // Nothing runnable. Sleep until new work arrives, an in-flight
        // slot frees, or the earliest backoff hold expires.
        st = match next_wake {
            Some(wake) => {
                let dur = wake.saturating_duration_since(Instant::now());
                shared.work_cv.wait_timeout(st, dur.max(Duration::from_millis(1))).expect("state").0
            }
            None => shared.work_cv.wait(st).expect("manager state"),
        };
    }
}

/// How a failed attempt should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunErrorKind {
    /// Deterministic failure: retrying would reproduce it.
    Fatal,
    /// Transient-failure class (injected faults): worth a bounded,
    /// backed-off retry.
    Retryable,
    /// The cooperative-cancel flag aborted the run.
    Canceled,
}

struct RunError {
    kind: RunErrorKind,
    message: String,
}

/// Everything a successful attempt hands back to the manager.
struct RunDone {
    outcome: JobOutcome,
    trace_json: Option<String>,
    /// Trace-ring drops during the traced run (`None` when untraced),
    /// surfaced in the job's timeline so a gappy artifact is visible.
    trace_dropped: Option<u64>,
}

impl RunError {
    fn fatal(message: impl Into<String>) -> RunError {
        RunError { kind: RunErrorKind::Fatal, message: message.into() }
    }

    fn classify(e: EmuError) -> RunError {
        let kind = match &e {
            EmuError::Fault { .. } => RunErrorKind::Retryable,
            EmuError::Canceled => RunErrorKind::Canceled,
            _ => RunErrorKind::Fatal,
        };
        RunError { kind, message: e.to_string() }
    }
}

/// Records one attempt's outcome: terminal transition, retry
/// re-enqueue, or cancel/deadline mapping.
fn finish(shared: &Shared, id: u64, outcome: Result<RunDone, RunError>) {
    let mut st = shared.state.lock().expect("manager state");
    let kill_queued = st.kill_queued;
    let Some(record) = st.jobs.get_mut(&id) else { return };
    let now = Instant::now();
    let engine = record.engine;
    let tenant = record.tenant.clone();
    let latency = now.saturating_duration_since(record.submitted);
    let mut terminal = true;
    // Deferred one step so the borrow of `record` can end before the
    // recorder walks the whole state.
    let flight_event: (FlightEventKind, Option<String>);
    match outcome {
        Ok(done) => {
            let cached = done.outcome.cached;
            record.finished = Some(now);
            record.scenario = None;
            record.trace_json = done.trace_json.map(Arc::new);
            record.trace_dropped = done.trace_dropped;
            record.state = JobState::Done(Box::new(done.outcome));
            flight_event = (FlightEventKind::Completed, None);
            shared
                .registry
                .counter("dssoc_serve_jobs_completed", &[("engine", engine.as_str())])
                .cell()
                .inc();
            if cached {
                st.tenants.entry(tenant.clone()).or_default().cache_served += 1;
                shared
                    .registry
                    .counter("dssoc_serve_cache_served", &[("tenant", &tenant)])
                    .cell()
                    .inc();
            }
        }
        Err(err) => {
            record.last_error = Some(err.message.clone());
            let retry = err.kind == RunErrorKind::Retryable
                && record.attempts < shared.config.retry_max_attempts
                && !kill_queued;
            match err.kind {
                RunErrorKind::Canceled => {
                    record.finished = Some(now);
                    record.scenario = None;
                    // Deadline-driven cancels and user cancels land in
                    // different terminal states.
                    if record.cancel_reason == Some(CancelReason::Deadline) {
                        record.state = JobState::DeadlineExceeded;
                        flight_event = (FlightEventKind::Expired, Some(err.message));
                        shared
                            .registry
                            .counter("dssoc_serve_jobs_deadline_exceeded", &[])
                            .cell()
                            .inc();
                    } else {
                        record.state = JobState::Cancelled;
                        flight_event = (FlightEventKind::Cancelled, Some(err.message));
                        shared.registry.counter("dssoc_serve_jobs_cancelled", &[]).cell().inc();
                    }
                }
                RunErrorKind::Retryable if retry => {
                    terminal = false;
                    flight_event = (FlightEventKind::HeldForRetry, Some(err.message.clone()));
                    let attempt = record.attempts;
                    record.aged_level = 0; // aging restarts with the re-enqueue
                    let hold = retry_backoff(
                        shared.config.retry_seed,
                        id,
                        attempt,
                        shared.config.retry_backoff,
                    );
                    record.state = JobState::Queued;
                    let entry = QueuedEntry {
                        priority: record.priority,
                        seq: id,
                        id,
                        enqueued: now,
                        not_before: Some(now + hold),
                    };
                    st.lanes[lane_of(engine)].push(entry);
                    st.queued_total += 1;
                    if let Some(t) = st.tenants.get_mut(&tenant) {
                        t.queued += 1;
                    }
                    shared
                        .registry
                        .counter("dssoc_serve_jobs_retried", &[("engine", engine.as_str())])
                        .cell()
                        .inc();
                    shared.registry.gauge("dssoc_serve_queue_depth", &[]).cell().inc();
                }
                _ => {
                    record.finished = Some(now);
                    record.scenario = None;
                    flight_event = (FlightEventKind::Failed, Some(err.message.clone()));
                    record.state = JobState::Failed(err.message);
                    shared
                        .registry
                        .counter("dssoc_serve_jobs_failed", &[("engine", engine.as_str())])
                        .cell()
                        .inc();
                }
            }
        }
    }
    let (kind, error) = flight_event;
    record_flight(shared, &mut st, id, kind, true, error.as_deref(), now);
    if terminal {
        st.terminal.push_back(id);
        shared
            .registry
            .histogram("dssoc_serve_job_latency_ns", &[("engine", engine.as_str())])
            .cell()
            .record(latency.as_nanos() as u64);
    }
    if let Some(t) = st.tenants.get_mut(&tenant) {
        t.inflight = t.inflight.saturating_sub(1);
    }
    expire_terminal(&mut st, shared.config.retention);
    shared.registry.gauge("dssoc_serve_inflight", &[]).cell().dec();
    drop(st);
    // A freed in-flight slot may unblock a held-back tenant.
    shared.work_cv.notify_all();
    shared.done_cv.notify_all();
}

fn run_job(
    runner: &mut JobRunner,
    scenario: &Arc<CompiledScenario>,
    engine: Engine,
    trace: bool,
) -> Result<RunDone, RunError> {
    if trace {
        let session = TraceSession::new();
        let mut sched = by_name(&scenario.spec().scheduler).ok_or_else(|| {
            RunError::fatal(format!("unknown scheduler '{}'", scenario.spec().scheduler))
        })?;
        let result = runner
            .run_traced(scenario, engine, sched.as_mut(), session.sink())
            .map_err(RunError::classify)?;
        let dropped = session.dropped();
        let events = session.drain();
        let json = dssoc_trace::export::chrome_json_with_drops(
            &events,
            &session.meta(),
            &session.producers(),
        );
        let text =
            serde_json::to_string_pretty(&json).map_err(|e| RunError::fatal(e.to_string()))?;
        Ok(RunDone {
            outcome: JobOutcome::from_stats(&result.stats, false),
            trace_json: Some(text),
            trace_dropped: Some(dropped),
        })
    } else {
        let result = runner.run(scenario, engine).map_err(RunError::classify)?;
        Ok(RunDone {
            outcome: JobOutcome::from_stats(&result.stats, result.cached),
            trace_json: None,
            trace_dropped: None,
        })
    }
}

/// Executes one claimed attempt (the chaos hook fires first, so panic
/// injection exercises the real unwind path through the worker).
fn run_claimed(runner: &mut JobRunner, claimed: &Claimed) -> Result<RunDone, RunError> {
    match claimed.chaos {
        Some(ChaosMode::Panic) => panic!("chaos hook: injected worker panic"),
        Some(ChaosMode::Flaky(n)) if claimed.attempt <= n => {
            return Err(RunError {
                kind: RunErrorKind::Retryable,
                message: format!(
                    "chaos hook: injected transient fault (attempt {})",
                    claimed.attempt
                ),
            });
        }
        _ => {}
    }
    run_job(runner, &claimed.scenario, claimed.engine, claimed.trace)
}

/// Renders a panic payload the way `std` would print it.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn_worker(shared: &Arc<Shared>, lane: usize, index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let name = match lane {
        LANE_THREADED => "serve-threaded".to_string(),
        _ => format!("serve-des-{index}"),
    };
    std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared, lane))
        .expect("spawn worker")
}

fn worker_loop(shared: &Shared, lane: usize) {
    // One persistent runner per worker: the threaded lane's warm
    // engines keep their resource pool across jobs; every runner
    // shares the manager-wide result cache and metrics registry.
    let mut runner = JobRunner::with_cache(shared.cache.clone());
    runner.set_metrics(Some(shared.registry.clone()));
    while let Some(claimed) = claim(shared, lane) {
        let id = claimed.id;
        runner.set_cancel(Some(Arc::clone(&claimed.cancel)));
        runner.set_span(Some(claimed.span));
        {
            let mut st = shared.state.lock().expect("manager state");
            record_flight(
                shared,
                &mut st,
                id,
                FlightEventKind::EngineStart,
                true,
                None,
                Instant::now(),
            );
        }
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_claimed(&mut runner, &claimed)));
        match outcome {
            Ok(result) => {
                runner.set_cancel(None);
                runner.set_span(None);
                finish(shared, id, result);
            }
            Err(payload) => {
                // The panic is contained to this job; the thread still
                // exits because its warm engines are suspect after an
                // unwind — the supervisor respawns the lane fresh.
                let msg = panic_message(payload);
                shared
                    .registry
                    .counter("dssoc_serve_worker_panics", &[("lane", lane_name(lane))])
                    .cell()
                    .inc();
                finish(shared, id, Err(RunError::fatal(format!("worker panicked: {msg}"))));
                // Post-mortem: the retained flight ring (this job's
                // Failed event included) goes to disk next to the
                // other CI artifacts.
                shared.flight.dump("panic");
                return;
            }
        }
    }
}

/// The supervisor: every `sweep_interval` it expires queued jobs past
/// their deadline, raises cancel flags on overdue running DES jobs,
/// evicts terminal records past the TTL or per-tenant bound, nudges
/// workers whose backoff holds may have expired, and respawns any lane
/// whose worker thread died.
fn supervisor_loop(shared: &Arc<Shared>, workers: &WorkerTable) {
    while !shared.stopping.load(Ordering::SeqCst) {
        sweep(shared);
        respawn_dead_lanes(shared, workers);
        std::thread::sleep(shared.config.sweep_interval);
    }
}

fn sweep(shared: &Shared) {
    let mut st = shared.state.lock().expect("manager state");
    let now = Instant::now();
    // Queued past deadline → terminal, entries actively removed.
    let overdue: Vec<u64> = st
        .jobs
        .iter()
        .filter(|(_, r)| {
            matches!(r.state, JobState::Queued) && r.deadline.is_some_and(|d| d <= now)
        })
        .map(|(id, _)| *id)
        .collect();
    let any_expired = !overdue.is_empty();
    for id in overdue {
        if let Some(r) = st.jobs.get(&id) {
            let lane = lane_of(r.engine);
            st.lanes[lane].retain(|e| e.id != id);
        }
        expire_queued_locked(shared, &mut st, id);
    }
    // Running DES jobs past deadline → raise the cooperative flag.
    for r in st.jobs.values_mut() {
        if matches!(r.state, JobState::Running)
            && r.engine == Engine::Des
            && r.deadline.is_some_and(|d| d <= now)
            && r.cancel_reason.is_none()
        {
            r.cancel_reason = Some(CancelReason::Deadline);
            r.cancel.store(true, Ordering::Relaxed);
        }
    }
    // Aging visibility: record when a queued entry crosses one or more
    // whole aging levels (bounded per job, so a long-parked job cannot
    // grow its own timeline without bound).
    if let Some(step) = shared.config.aging_step.filter(|s| !s.is_zero()) {
        let mut aged: Vec<(u64, u64)> = Vec::new();
        for lane in &st.lanes {
            for e in lane {
                let level =
                    (now.saturating_duration_since(e.enqueued).as_nanos() / step.as_nanos()) as u64;
                if let Some(r) = st.jobs.get(&e.id) {
                    if matches!(r.state, JobState::Queued)
                        && level > r.aged_level
                        && r.aged_events < MAX_AGED_EVENTS
                    {
                        aged.push((e.id, level));
                    }
                }
            }
        }
        for (id, level) in aged {
            if let Some(r) = st.jobs.get_mut(&id) {
                r.aged_level = level;
                r.aged_events += 1;
            }
            record_flight(shared, &mut st, id, FlightEventKind::Aged, false, None, now);
        }
    }
    // TTL eviction: `terminal` is completion-ordered, so expiry only
    // ever pops from the front.
    let ttl = shared.config.result_ttl;
    let mut expired = 0u64;
    while let Some(&front) = st.terminal.front() {
        match st.jobs.get(&front) {
            None => {
                st.terminal.pop_front();
            }
            Some(r) if r.finished.is_some_and(|f| f + ttl <= now) => {
                st.terminal.pop_front();
                st.jobs.remove(&front);
                expired += 1;
            }
            Some(_) => break,
        }
    }
    // Per-tenant terminal bound: a chatty tenant cannot crowd out
    // everyone else's retained results.
    let bound = shared.config.max_terminal_per_tenant;
    if bound > 0 && st.terminal.len() > bound {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for id in &st.terminal {
            if let Some(r) = st.jobs.get(id) {
                *counts.entry(r.tenant.clone()).or_default() += 1;
            }
        }
        if counts.values().any(|&n| n > bound) {
            let mut evict = Vec::new();
            for id in &st.terminal {
                if let Some(r) = st.jobs.get(id) {
                    if let Some(n) = counts.get_mut(&r.tenant) {
                        if *n > bound {
                            *n -= 1;
                            evict.push(*id);
                        }
                    }
                }
            }
            expired += evict.len() as u64;
            for id in &evict {
                st.jobs.remove(id);
            }
            let State { terminal, jobs, .. } = &mut *st;
            terminal.retain(|id| jobs.contains_key(id));
        }
    }
    if expired > 0 {
        shared.registry.counter("dssoc_serve_results_expired", &[]).cell().add(expired);
        let State { order, jobs, .. } = &mut *st;
        order.retain(|id| jobs.contains_key(id));
    }
    drop(st);
    if any_expired {
        shared.done_cv.notify_all();
    }
    // Wake claimers whose backoff holds may have elapsed.
    shared.work_cv.notify_all();
}

fn respawn_dead_lanes(shared: &Arc<Shared>, workers: &WorkerTable) {
    let mut slots = workers.lock().expect("workers");
    for (index, slot) in slots.iter_mut().enumerate() {
        if slot.handle.is_finished() && !shared.stopping.load(Ordering::SeqCst) {
            let fresh = spawn_worker(shared, slot.lane, index);
            let dead = std::mem::replace(&mut slot.handle, fresh);
            let _ = dead.join();
            shared
                .registry
                .counter("dssoc_serve_worker_respawns", &[("lane", lane_name(slot.lane))])
                .cell()
                .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_appmodel::workload::{InjectionParams, WorkloadSpec};
    use dssoc_apps::standard_library;
    use dssoc_core::job::{CostSpec, ScenarioSpec};
    use dssoc_platform::cost::CostTable;

    fn compile(spec: WorkloadSpec) -> Arc<CompiledScenario> {
        let (library, _) = standard_library();
        let library = Arc::new(library);
        let workload = spec.generate(&library).unwrap();
        let spec = ScenarioSpec::builder()
            .library(library)
            .workload(workload)
            .platform_named("zcu102:2C+1F")
            // The DES needs table costs (the api layer's default);
            // scaled-measured would model every task as zero-length.
            .cost(CostSpec::table(CostTable::new()))
            .build()
            .unwrap();
        CompiledScenario::compile(spec).unwrap()
    }

    fn scenario(count: usize, seed: u64) -> Arc<CompiledScenario> {
        let mut spec = WorkloadSpec::validation([("range_detection", count)]);
        spec.seed = seed;
        compile(spec)
    }

    /// Tens of thousands of arrivals: a DES run slow enough (>100ms
    /// even with FRFS's engine-side placement) to reliably occupy a worker
    /// while the test submits and cancels behind it.
    fn heavy_scenario_seeded(seed: u64) -> Arc<CompiledScenario> {
        compile(WorkloadSpec::performance(
            vec![InjectionParams {
                app: "range_detection".into(),
                period: Duration::from_micros(20),
                probability: 1.0,
            }],
            Duration::from_secs(2),
            seed,
        ))
    }

    fn heavy_scenario() -> Arc<CompiledScenario> {
        heavy_scenario_seeded(0)
    }

    fn manager(config: ManagerConfig) -> Arc<JobManager> {
        JobManager::start(config, MetricsRegistry::new())
    }

    fn opts() -> SubmitOptions {
        SubmitOptions::default()
    }

    #[test]
    fn runs_des_job_to_done() {
        let m = manager(ManagerConfig::default());
        let snap = m.submit("alice", scenario(2, 0), opts()).unwrap();
        let done = m.wait(snap.id, Duration::from_secs(30)).unwrap();
        match done.state {
            JobState::Done(outcome) => {
                assert_eq!(outcome.apps_completed, 2);
                assert!(outcome.makespan_ns > 0);
                assert!(!outcome.cached, "first run executes");
            }
            other => panic!("expected done, got {other:?}"),
        }
        assert_eq!(done.attempts, 1);
        assert!(done.last_error.is_none());
        m.shutdown(true);
    }

    #[test]
    fn identical_resubmission_hits_cache_across_tenants() {
        let m = manager(ManagerConfig::default());
        let first = m.submit("alice", scenario(3, 0), opts()).unwrap();
        let a = m.wait(first.id, Duration::from_secs(30)).unwrap();
        let second = m.submit("bob", scenario(3, 0), opts()).unwrap();
        assert_eq!(first.fingerprint, second.fingerprint);
        let b = m.wait(second.id, Duration::from_secs(30)).unwrap();
        let (JobState::Done(ours), JobState::Done(theirs)) = (a.state, b.state) else {
            panic!("both jobs should finish");
        };
        assert_eq!(ours.makespan_ns, theirs.makespan_ns, "bit-identical");
        assert!(theirs.cached, "second submission served from cache");
        let bob = m.tenants().into_iter().find(|t| t.tenant == "bob").unwrap();
        assert_eq!(bob.cache_served, 1);
        // Claiming a job must release its queued-quota slot, or tenants
        // would exhaust their quota after max_queued_per_tenant jobs ever.
        for t in m.tenants() {
            assert_eq!(t.queued, 0, "tenant {} leaked queued slots", t.tenant);
            assert_eq!(t.inflight, 0, "tenant {} leaked inflight slots", t.tenant);
        }
        m.shutdown(true);
    }

    #[test]
    fn tenant_queue_quota_rejects() {
        // An in-flight quota of 0 pins every job in the queue, so the
        // queued quota trips at exactly max_queued_per_tenant — no
        // race against worker drain speed.
        let m = manager(ManagerConfig {
            max_queued_per_tenant: 2,
            max_inflight_per_tenant: 0,
            ..ManagerConfig::default()
        });
        let a = scenario(1, 0);
        assert!(m.submit("carol", Arc::clone(&a), opts()).is_ok());
        assert!(m.submit("carol", Arc::clone(&a), opts()).is_ok());
        let err = m.submit("carol", Arc::clone(&a), opts()).unwrap_err();
        assert_eq!(err, AdmissionError::TenantOverQuota(2));
        assert_eq!(err.reason(), "tenant_quota");
        // Another tenant is unaffected by carol's quota.
        assert!(m.submit("mallory", a, opts()).is_ok());
        let carol = m.tenants().into_iter().find(|t| t.tenant == "carol").unwrap();
        assert_eq!(carol.rejected, 1);
        assert_eq!(carol.queued, 2);
        m.shutdown(false);
    }

    #[test]
    fn cancel_queued_job_and_drain() {
        let m = manager(ManagerConfig { des_workers: 1, ..ManagerConfig::default() });
        // One long blocker occupies the single DES worker; everything
        // submitted behind it is reliably still queued.
        let blocker = m.submit("dave", heavy_scenario(), opts()).unwrap().id;
        let tail: Vec<u64> =
            (2..5).map(|n| m.submit("dave", scenario(n, 0), opts()).unwrap().id).collect();
        let victim = *tail.last().unwrap();
        assert_eq!(m.cancel(victim), CancelOutcome::Cancelled);
        assert_eq!(m.cancel(victim), CancelOutcome::Terminal);
        assert_eq!(m.cancel(9999), CancelOutcome::NotFound);
        m.shutdown(true);
        // After a drain every job is terminal, and the cancelled one
        // never ran.
        for id in std::iter::once(blocker).chain(tail.iter().copied()) {
            let snap = m.job(id).unwrap();
            assert!(snap.state.terminal(), "job {id} not terminal: {:?}", snap.state);
        }
        assert!(matches!(m.job(victim).unwrap().state, JobState::Cancelled));
        assert!(matches!(m.job(blocker).unwrap().state, JobState::Done(_)));
        // Post-drain submissions are refused.
        let err = m.submit("dave", scenario(1, 0), opts()).unwrap_err();
        assert_eq!(err, AdmissionError::Draining);
    }

    #[test]
    fn priority_overtakes_fifo() {
        // Compile everything first so the submissions land in one
        // burst while the blocker still owns the single worker.
        let blocker = heavy_scenario();
        let low_s = scenario(2, 0);
        let high_s = scenario(3, 0);
        let m = manager(ManagerConfig { des_workers: 1, ..ManagerConfig::default() });
        m.submit("eve", blocker, opts()).unwrap();
        let low = m.submit("eve", low_s, opts()).unwrap().id;
        let high = m.submit("eve", high_s, opts().priority(5)).unwrap().id;
        m.shutdown(true);
        let low_snap = m.job(low).unwrap();
        let high_snap = m.job(high).unwrap();
        // The high-priority job was claimed first, so the low one's
        // queue wait additionally covers the high one's run.
        assert!(
            high_snap.queue_wait <= low_snap.queue_wait,
            "high priority waited {:?}, low waited {:?}",
            high_snap.queue_wait,
            low_snap.queue_wait
        );
    }

    #[test]
    fn wait_returns_immediately_for_unknown_job() {
        let m = manager(ManagerConfig::default());
        let t0 = Instant::now();
        assert!(m.wait(424242, Duration::from_secs(10)).is_none());
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "wait on a nonexistent id must not block: took {:?}",
            t0.elapsed()
        );
        m.shutdown(false);
    }

    #[test]
    fn cancel_removes_queue_entry() {
        // In-flight quota 0 pins the job in the queue so the cancel
        // path (not a racing claim) is what removes the entry.
        let m = manager(ManagerConfig { max_inflight_per_tenant: 0, ..ManagerConfig::default() });
        let id = m.submit("frank", scenario(1, 0), opts()).unwrap().id;
        {
            let st = m.shared.state.lock().unwrap();
            assert_eq!(st.lanes[LANE_DES].len(), 1);
        }
        assert_eq!(m.cancel(id), CancelOutcome::Cancelled);
        {
            let st = m.shared.state.lock().unwrap();
            assert!(
                st.lanes[LANE_DES].is_empty(),
                "cancel must remove the queue entry, not tombstone it"
            );
            assert_eq!(st.queued_total, 0);
        }
        assert_eq!(m.depth(), (0, 0));
        m.shutdown(false);
    }

    #[test]
    fn queued_deadline_expires_to_terminal() {
        // In-flight quota 0: the job can never start, so only the
        // deadline sweep can move it.
        let m = manager(ManagerConfig {
            max_inflight_per_tenant: 0,
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        let id = m
            .submit("grace", scenario(1, 0), opts().deadline(Duration::from_millis(50)))
            .unwrap()
            .id;
        let done = m.wait(id, Duration::from_secs(10)).unwrap();
        assert!(
            matches!(done.state, JobState::DeadlineExceeded),
            "expected deadline_exceeded, got {:?}",
            done.state
        );
        assert_eq!(done.attempts, 0, "the job never ran");
        {
            let st = m.shared.state.lock().unwrap();
            assert!(st.lanes[LANE_DES].is_empty(), "expired entry must leave the queue");
        }
        m.shutdown(false);
    }

    #[test]
    fn running_des_job_past_deadline_is_cancelled_cooperatively() {
        let m = manager(ManagerConfig {
            des_workers: 1,
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        // The heavy run takes well over 100ms; a 50ms deadline lands
        // mid-run and the event loop aborts at its next poll point.
        let id = m
            .submit("heidi", heavy_scenario(), opts().deadline(Duration::from_millis(50)))
            .unwrap()
            .id;
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(done.state, JobState::DeadlineExceeded),
            "expected deadline_exceeded, got {:?}",
            done.state
        );
        assert_eq!(done.attempts, 1, "the run was claimed before the deadline hit");
        assert!(done.last_error.as_deref().unwrap_or("").contains("cancelled"));
        m.shutdown(true);
    }

    #[test]
    fn cancel_running_des_job_goes_through_cancelling() {
        let m = manager(ManagerConfig { des_workers: 1, ..ManagerConfig::default() });
        let id = m.submit("ivan", heavy_scenario_seeded(7), opts()).unwrap().id;
        // Wait for the worker to claim it.
        let t0 = Instant::now();
        while !matches!(m.job(id).unwrap().state, JobState::Running) {
            assert!(t0.elapsed() < Duration::from_secs(10), "job never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.cancel(id), CancelOutcome::Cancelling);
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(done.state, JobState::Cancelled),
            "user cancel of a running job ends Cancelled, got {:?}",
            done.state
        );
        assert_eq!(m.cancel(id), CancelOutcome::Terminal);
        m.shutdown(true);
    }

    #[test]
    fn panic_is_isolated_and_lane_respawns() {
        let m = manager(ManagerConfig {
            des_workers: 1,
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        assert_eq!(m.worker_count(), 2, "1 threaded + 1 des");
        let id = m.submit("judy", scenario(1, 0), opts().chaos(ChaosMode::Panic)).unwrap().id;
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        match &done.state {
            JobState::Failed(msg) => {
                assert!(msg.contains("panicked"), "panic payload surfaced: {msg}");
                assert!(msg.contains("chaos hook"), "payload preserved: {msg}");
            }
            other => panic!("expected failed, got {other:?}"),
        }
        // The supervisor replaces the dead lane...
        let t0 = Instant::now();
        while m.worker_count() < 2 {
            assert!(t0.elapsed() < Duration::from_secs(10), "lane never respawned");
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...and the fresh worker runs normal jobs.
        let next = m.submit("judy", scenario(2, 1), opts()).unwrap().id;
        let done = m.wait(next, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(done.state, JobState::Done(_)),
            "post-panic job must complete, got {:?}",
            done.state
        );
        m.shutdown(true);
    }

    #[test]
    fn flaky_job_retries_to_done() {
        let m = manager(ManagerConfig {
            retry_max_attempts: 3,
            retry_backoff: Duration::from_millis(1),
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        let id = m.submit("kim", scenario(1, 0), opts().chaos(ChaosMode::Flaky(2))).unwrap().id;
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(done.state, JobState::Done(_)),
            "third attempt succeeds, got {:?}",
            done.state
        );
        assert_eq!(done.attempts, 3);
        let last = done.last_error.expect("failed attempts leave their error");
        assert!(last.contains("attempt 2"), "last error is the final failure: {last}");
        m.shutdown(true);
    }

    #[test]
    fn retry_exhaustion_fails_with_last_error() {
        let m = manager(ManagerConfig {
            retry_max_attempts: 3,
            retry_backoff: Duration::from_millis(1),
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        let id = m.submit("leo", scenario(1, 0), opts().chaos(ChaosMode::Flaky(99))).unwrap().id;
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        match &done.state {
            JobState::Failed(msg) => {
                assert!(msg.contains("attempt 3"), "fails with the final attempt's error: {msg}")
            }
            other => panic!("expected failed after exhausting retries, got {other:?}"),
        }
        assert_eq!(done.attempts, 3, "bounded at retry_max_attempts");
        m.shutdown(true);
    }

    #[test]
    fn queue_aging_bounds_starvation() {
        // Deterministic by construction: once both jobs are queued
        // they age at the same rate, so the low-priority job's head
        // start (~150ms at 1ms/level ≈ 150 levels) permanently
        // outweighs the high job's 5-level base advantage. Without
        // aging the priority-5 job would always overtake.
        let blockers = [heavy_scenario_seeded(11), heavy_scenario_seeded(12)];
        let low_s = scenario(2, 0);
        let high_s = scenario(3, 0);
        let m = manager(ManagerConfig {
            des_workers: 1,
            aging_step: Some(Duration::from_millis(1)),
            ..ManagerConfig::default()
        });
        // Two distinct blockers (distinct seeds → no cache hit) keep
        // the single worker busy across the head-start gap.
        for b in blockers {
            m.submit("bulk", b, opts()).unwrap();
        }
        let low_submitted = Instant::now();
        let low = m.submit("slow", low_s, opts()).unwrap().id;
        std::thread::sleep(Duration::from_millis(150));
        let high_submitted = Instant::now();
        let high = m.submit("fast", high_s, opts().priority(5)).unwrap().id;
        m.shutdown(true);
        let low_snap = m.job(low).unwrap();
        let high_snap = m.job(high).unwrap();
        assert!(matches!(low_snap.state, JobState::Done(_)));
        assert!(matches!(high_snap.state, JobState::Done(_)));
        // Reconstruct absolute claim times: submit instant + queue
        // wait. The aged job must have been claimed first.
        let low_started = low_submitted + low_snap.queue_wait;
        let high_started = high_submitted + high_snap.queue_wait;
        assert!(
            low_started < high_started,
            "aging must let the older low-priority job run first \
             (low waited {:?}, high waited {:?})",
            low_snap.queue_wait,
            high_snap.queue_wait
        );
    }

    #[test]
    fn terminal_results_expire_by_ttl() {
        let m = manager(ManagerConfig {
            result_ttl: Duration::from_millis(50),
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        let id = m.submit("mia", scenario(1, 0), opts()).unwrap().id;
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        assert!(matches!(done.state, JobState::Done(_)));
        let t0 = Instant::now();
        while m.job(id).is_some() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "terminal record must expire after the TTL"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        m.shutdown(false);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(25);
        let a = retry_backoff(42, 7, 1, base);
        let b = retry_backoff(42, 7, 1, base);
        assert_eq!(a, b, "same (seed, id, attempt) → same backoff");
        assert_ne!(
            retry_backoff(42, 7, 1, base),
            retry_backoff(42, 8, 1, base),
            "different jobs decorrelate"
        );
        // Attempt n's nominal delay is base * 2^(n-1), jittered into
        // [0.5x, 1.5x).
        for attempt in 1..=4u32 {
            let exp = base * (1 << (attempt - 1));
            let d = retry_backoff(123, 9, attempt, base);
            assert!(d >= exp.mul_f64(0.5), "attempt {attempt}: {d:?} below jitter floor");
            assert!(d < exp.mul_f64(1.5), "attempt {attempt}: {d:?} above jitter ceiling");
        }
    }

    #[test]
    fn timeline_deltas_match_queue_wait_histogram_exactly() {
        // Both the histogram sample and the flight events derive from
        // the same two Instants (submit `now`, claim `started`), so
        // Σ(dispatched.ts − submitted.ts) over every job must equal
        // the histogram's sum to the nanosecond — not approximately.
        let registry = MetricsRegistry::new();
        let m = JobManager::start(
            ManagerConfig {
                des_workers: 1,
                aging_step: Some(Duration::from_millis(1)),
                sweep_interval: Duration::from_millis(5),
                ..ManagerConfig::default()
            },
            registry.clone(),
        );
        // A long blocker pins the single worker so everything behind
        // it measurably queues (and ages a level or two).
        let blocker = m.submit("hist", heavy_scenario_seeded(21), opts()).unwrap().id;
        let tail: Vec<u64> =
            (0..4).map(|n| m.submit("hist", scenario(2, 100 + n), opts()).unwrap().id).collect();
        m.shutdown(true);
        let mut delta_sum: u128 = 0;
        let mut dispatches = 0u64;
        let mut aged_seen = false;
        for id in std::iter::once(blocker).chain(tail) {
            let t = m.timeline(id).expect("terminal jobs keep their timeline");
            flight::validate_timeline(&t.events).unwrap();
            let submitted =
                t.events.iter().find(|e| e.kind == FlightEventKind::Submitted).unwrap().ts_ns;
            for ev in &t.events {
                match ev.kind {
                    FlightEventKind::Dispatched => {
                        delta_sum += u128::from(ev.ts_ns - submitted);
                        dispatches += 1;
                    }
                    FlightEventKind::Aged => aged_seen = true,
                    _ => {}
                }
            }
        }
        assert!(aged_seen, "jobs stuck behind the blocker must age visibly");
        let snap = registry.snapshot();
        let hist = snap.get("dssoc_serve_queue_wait_ns", &[]).unwrap().histogram.clone().unwrap();
        assert_eq!(hist.count, dispatches, "one histogram sample per dispatch");
        assert_eq!(
            u128::from(hist.sum),
            delta_sum,
            "timeline queued→dispatched deltas must equal the histogram sum exactly"
        );
    }

    #[test]
    fn timelines_are_complete_across_job_fates() {
        let m = manager(ManagerConfig {
            des_workers: 1,
            retry_max_attempts: 2,
            retry_backoff: Duration::from_millis(1),
            sweep_interval: Duration::from_millis(5),
            ..ManagerConfig::default()
        });
        let blocker = m.submit("fate", heavy_scenario_seeded(31), opts()).unwrap().id;
        let doomed = m
            .submit("fate", scenario(2, 41), opts().deadline(Duration::from_millis(1)))
            .unwrap()
            .id;
        let victim = m.submit("fate", scenario(2, 42), opts()).unwrap().id;
        let flaky =
            m.submit("fate", scenario(2, 43), opts().chaos(ChaosMode::Flaky(99))).unwrap().id;
        assert_eq!(m.cancel(victim), CancelOutcome::Cancelled);
        m.shutdown(true);
        let kinds = |id: u64| -> Vec<FlightEventKind> {
            let t = m.timeline(id).expect("timeline survives to terminal state");
            flight::validate_timeline(&t.events)
                .unwrap_or_else(|e| panic!("job {id} timeline invalid: {e}"));
            t.events.iter().map(|e| e.kind).collect()
        };
        let done = kinds(blocker);
        assert!(done.starts_with(&[
            FlightEventKind::Submitted,
            FlightEventKind::Admitted,
            FlightEventKind::Queued
        ]));
        assert!(done.contains(&FlightEventKind::Dispatched));
        assert!(done.contains(&FlightEventKind::EngineStart));
        assert_eq!(*done.last().unwrap(), FlightEventKind::Completed);
        assert_eq!(*kinds(victim).last().unwrap(), FlightEventKind::Cancelled);
        assert_eq!(*kinds(doomed).last().unwrap(), FlightEventKind::Expired);
        let failed = kinds(flaky);
        assert!(
            failed.contains(&FlightEventKind::HeldForRetry),
            "retried job records the held-for-retry hop: {failed:?}"
        );
        assert_eq!(*failed.last().unwrap(), FlightEventKind::Failed);
        // The failed job's terminal event carries the error payload.
        let t = m.timeline(flaky).unwrap();
        let last = t.events.last().unwrap();
        assert!(last.error.as_deref().unwrap_or_default().contains("attempt"));
    }

    #[test]
    fn subscribe_streams_live_events_until_terminal() {
        let m = manager(ManagerConfig { des_workers: 1, ..ManagerConfig::default() });
        let blocker = m.submit("sub", heavy_scenario_seeded(51), opts()).unwrap().id;
        let watched = m.submit("sub", scenario(2, 52), opts()).unwrap().id;
        // Subscribing replays the backlog (submitted/admitted/queued)
        // and then delivers live events as the job is claimed and run.
        let sub = m.subscribe(watched, 0).expect("known job is subscribable");
        let mut got: Vec<FlightEventKind> = Vec::new();
        let t0 = Instant::now();
        loop {
            let batch = sub.poll(Duration::from_millis(250));
            got.extend(batch.events.iter().map(|e| e.kind));
            if batch.closed {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "stream never closed: {got:?}");
        }
        assert_eq!(got.first(), Some(&FlightEventKind::Submitted));
        assert!(got.contains(&FlightEventKind::Dispatched));
        assert_eq!(got.last(), Some(&FlightEventKind::Completed));
        // `since` resumes: a late subscriber from the last seen seq
        // gets only what's newer (here: nothing, job is terminal).
        let t = m.timeline(watched).unwrap();
        let last_seq = t.events.last().unwrap().seq;
        let late = m.subscribe(watched, last_seq).unwrap();
        let batch = late.poll(Duration::from_millis(50));
        assert!(batch.events.is_empty());
        assert!(batch.closed);
        assert!(m.job(blocker).is_some());
        m.shutdown(true);
    }

    #[test]
    fn worker_panic_dumps_the_flight_ring() {
        let dir = std::env::temp_dir().join(format!("dssoc-panic-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = manager(ManagerConfig {
            flight: FlightConfig { dump_dir: Some(dir.clone()), ..FlightConfig::default() },
            ..ManagerConfig::default()
        });
        let id = m.submit("boom", scenario(1, 61), opts().chaos(ChaosMode::Panic)).unwrap().id;
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        assert!(matches!(done.state, JobState::Failed(_)));
        // The dump is written by the dying worker after finish(); poll
        // briefly rather than racing it.
        let t0 = Instant::now();
        let dump = loop {
            let found = std::fs::read_dir(&dir).ok().and_then(|entries| {
                entries
                    .flatten()
                    .find(|e| e.file_name().to_string_lossy().starts_with("flight-panic-"))
            });
            if let Some(found) = found {
                break found;
            }
            assert!(t0.elapsed() < Duration::from_secs(10), "panic dump never appeared");
            std::thread::sleep(Duration::from_millis(10));
        };
        let body = std::fs::read_to_string(dump.path()).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc["reason"].as_str(), Some("panic"));
        assert!(doc["events"].as_array().is_some_and(|evs| !evs.is_empty()));
        // The failed job's terminal event made it into the ring before
        // the dump fired.
        assert!(body.contains("\"event\": \"failed\"") || body.contains("\"event\":\"failed\""));
        m.shutdown(true);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
