//! The job manager: bounded priority queue with aging, per-tenant
//! admission control, and a *supervised* worker pool over the shared
//! job layer.
//!
//! Topology follows what the engines can actually share. All workers
//! clone one [`ResultCache`] handle, so any worker's deterministic run
//! answers every tenant's identical resubmission. Most such answers
//! never reach a worker: [`JobManager::submit_spec`] looks a cacheable
//! job up by value before compiling it, and admits a hit straight to
//! `done`. The worker-side lookup still catches identical jobs that
//! missed while both were in flight. The *threaded* lane
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
//! The job state machine lives in `lifecycle`, with no threads: one
//! transition moves every job, and the queue and tenant counters, the
//! depth gauges and the outcome metrics all follow from its state
//! changes. This module holds the public types, the workers and the
//! supervisor, which lock the lifecycle state, call into it, and
//! notify.
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
//! * **Drain always ends.** A queued job that can never be claimed (its
//!   tenant's in-flight quota is 0) is cancelled once the drain has
//!   nothing else to wait for.
//!
//! [`Emulation`]: dssoc_core::engine::Emulation
//! [`EmuError::Fault`]: dssoc_core::engine::EmuError::Fault

mod lifecycle;

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dssoc_core::engine::EmuError;
use dssoc_core::job::{
    CompiledScenario, Engine, Fingerprint, JobRunner, ResultCache, ScenarioKey, ScenarioSpec,
};
use dssoc_core::sched::by_name;
use dssoc_core::stats::EmulationStats;
use dssoc_metrics::MetricsRegistry;
use dssoc_trace::TraceSession;

use crate::flight::{
    FlightConfig, FlightEvent, FlightRecorder, JobSubscription, JobTimeline, LaneHealth,
};
use lifecycle::{
    lane_name, Claimed, Env, Pick, RunDone, RunError, RunErrorKind, State, Work, LANE_DES,
    LANE_THREADED,
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
    /// oldest are forgotten (the newest is always kept).
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

/// Why [`JobManager::submit_spec`] did not admit a job.
#[derive(Debug)]
pub enum SubmitError {
    /// The scenario does not compile (the daemon answers `400`).
    Invalid(EmuError),
    /// Admission control turned the job away.
    Refused(AdmissionError),
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

struct Shared {
    state: Mutex<State>,
    /// Wakes workers: new work, a finished job freeing an in-flight
    /// slot, or drain.
    work_cv: Condvar,
    /// Wakes long-poll watchers on any terminal transition.
    done_cv: Condvar,
    /// Limits, metrics registry and flight recorder.
    env: Env,
    cache: ResultCache,
    /// Raised once at shutdown: the supervisor exits and stops
    /// respawning (a drained worker's exit is not a death).
    stopping: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("manager state")
    }

    /// Runs `f` on the locked state and wakes the long-poll watchers if
    /// it settled any job.
    fn settle<T>(&self, f: impl FnOnce(&mut State, &Env) -> T) -> T {
        let mut st = self.lock();
        let settled = st.settled;
        let out = f(&mut st, &self.env);
        let woke = st.settled != settled;
        drop(st);
        if woke {
            self.done_cv.notify_all();
        }
        out
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
        let des_workers = config.des_workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State::new()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            env: Env { config, registry, flight },
            cache,
            stopping: AtomicBool::new(false),
        });
        let mut slots = Vec::new();
        for (lane, count) in [(LANE_THREADED, 1), (LANE_DES, des_workers)] {
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
        let work = Work::Run(scenario);
        let admitted = shared.lock().admit(&shared.env, tenant, work, opts, Instant::now());
        if admitted.is_ok() {
            shared.work_cv.notify_all();
        }
        admitted
    }

    /// Admits one job for `tenant` from its uncompiled spec.
    ///
    /// A job the cache may answer (a deterministic `(spec, engine)`
    /// pair, untraced, with no chaos hook) is looked up by value first,
    /// by its [`ScenarioKey`]. A hit is admitted straight to `done`,
    /// with no compile, no queue and no worker; admission refusals
    /// still apply. Anything else is compiled — a miss under the key it
    /// was looked up by, which the worker stores its result with, so
    /// the spec is encoded once either way — so an invalid scenario is
    /// refused here, and queued as by [`Self::submit`].
    pub fn submit_spec(
        &self,
        tenant: &str,
        spec: ScenarioSpec,
        opts: SubmitOptions,
    ) -> Result<JobSnapshot, SubmitError> {
        let shared = &self.shared;
        let compiled = if opts.trace || opts.chaos.is_some() || !spec.deterministic(opts.engine) {
            CompiledScenario::compile(spec)
        } else {
            let key = ScenarioKey::of(&spec);
            if let Some(stats) = shared.cache.lookup(&key, opts.engine) {
                let fingerprint = key.fingerprint();
                let outcome = Box::new(JobOutcome::from_stats(&stats, true));
                let hit = Work::Cached { spec: &spec, fingerprint, outcome };
                let admitted = shared.lock().admit(&shared.env, tenant, hit, opts, Instant::now());
                // Counted once served; a miss is counted by the worker
                // that runs the job.
                if admitted.is_ok() {
                    shared.cache.count(true);
                }
                return admitted.map_err(SubmitError::Refused);
            }
            CompiledScenario::compile_keyed(spec, key)
        };
        let scenario = compiled.map_err(SubmitError::Invalid)?;
        self.submit(tenant, scenario, opts).map_err(SubmitError::Refused)
    }

    /// A point-in-time view of one job.
    pub fn job(&self, id: u64) -> Option<JobSnapshot> {
        self.shared.lock().jobs.get(&id).map(|r| r.snapshot(id))
    }

    /// Blocks up to `timeout` for the job to reach a terminal state,
    /// then returns whatever state it is in (long-poll support).
    /// Returns `None` *immediately* for an unknown id — a typo'd job
    /// number must not hold a connection thread to the deadline.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(r) if r.state().terminal() => return Some(r.snapshot(id)),
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
        let st = self.shared.lock();
        st.order.iter().filter_map(|id| st.jobs.get(id).map(|r| r.snapshot(*id))).collect()
    }

    /// Per-tenant accounting, sorted by tenant name.
    pub fn tenants(&self) -> Vec<TenantSnapshot> {
        let st = self.shared.lock();
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
        let st = self.shared.lock();
        (st.queued_total, st.inflight_total)
    }

    /// Cancels a job. Queued jobs go terminal at once (and their queue
    /// entry is removed, so depth metrics and admission stop counting
    /// them). A running DES job is cancelled cooperatively
    /// ([`CancelOutcome::Cancelling`]); a running threaded job is not
    /// interruptible.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let outcome = self.shared.settle(|st, env| st.cancel(env, id, Instant::now()));
        if outcome == CancelOutcome::Cancelled {
            self.shared.work_cv.notify_all();
        }
        outcome
    }

    /// The Chrome/Perfetto trace artifact of a traced, finished job.
    pub fn trace_artifact(&self, id: u64) -> Option<Arc<String>> {
        self.shared.lock().jobs.get(&id).and_then(|r| r.trace_json.clone())
    }

    /// The job's complete flight record: every lifecycle event plus
    /// the span ids that stitch it to the engine trace artifact.
    pub fn timeline(&self, id: u64) -> Option<JobTimeline> {
        let st = self.shared.lock();
        st.jobs.get(&id).map(|r| JobTimeline {
            id,
            span: r.span,
            tenant: r.tenant.clone(),
            state: r.state().name(),
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
        let st = self.shared.lock();
        let r = st.jobs.get(&id)?;
        Some(self.shared.env.flight.subscribe(id, &r.flight, since, r.state().terminal()))
    }

    /// The last `n` events retained in the global flight ring (the
    /// post-mortem view behind `GET /debug/flight`).
    pub fn flight_tail(&self, n: usize) -> Vec<FlightEvent> {
        self.shared.env.flight.tail(n)
    }

    /// Flight events ever recorded (retained or rotated out).
    pub fn flight_total(&self) -> u64 {
        self.shared.env.flight.total()
    }

    /// Dumps the retained flight ring to the configured dump
    /// directory, returning the written path.
    pub fn flight_dump(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.shared.env.flight.dump(reason)
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
    /// jobs run to completion first (a job that can never be claimed
    /// is cancelled); without, they are cancelled and only in-flight
    /// runs finish. Idempotent.
    pub fn shutdown(&self, drain: bool) {
        let shared = &self.shared;
        shared.stopping.store(true, Ordering::SeqCst);
        shared.settle(|st, env| st.stop(env, drain, Instant::now()));
        shared.work_cv.notify_all();
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
        shared.settle(|st, env| st.stop(env, false, Instant::now()));
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown(false);
    }
}

/// Claims the next eligible job for `lane`, blocking until one exists
/// or the manager drains dry.
fn claim(shared: &Shared, lane: usize) -> Option<Claimed> {
    let mut st = shared.lock();
    loop {
        let settled = st.settled;
        let pick = st.claim(&shared.env, lane, Instant::now());
        if st.settled != settled {
            shared.done_cv.notify_all();
        }
        st = match pick {
            Pick::Run(claimed) => return Some(claimed),
            Pick::Dry => return None,
            Pick::Idle(Some(wake)) => {
                let dur = wake.saturating_duration_since(Instant::now());
                shared.work_cv.wait_timeout(st, dur.max(Duration::from_millis(1))).expect("state").0
            }
            Pick::Idle(None) => shared.work_cv.wait(st).expect("manager state"),
        };
    }
}

/// Records one attempt's outcome.
fn finish(shared: &Shared, id: u64, outcome: Result<RunDone, RunError>) {
    shared.settle(|st, env| st.finish(env, id, outcome, Instant::now()));
    // A freed in-flight slot may unblock a held-back tenant.
    shared.work_cv.notify_all();
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
        let text = serde_json::to_string(&json).map_err(|e| RunError::fatal(e.to_string()))?;
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
    runner.set_metrics(Some(shared.env.registry.clone()));
    while let Some(claimed) = claim(shared, lane) {
        let id = claimed.id;
        runner.set_cancel(Some(Arc::clone(&claimed.cancel)));
        runner.set_span(Some(claimed.span));
        shared.lock().engine_start(&shared.env, id, Instant::now());
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
                    .env
                    .registry
                    .counter("dssoc_serve_worker_panics", &[("lane", lane_name(lane))])
                    .cell()
                    .inc();
                finish(shared, id, Err(RunError::fatal(format!("worker panicked: {msg}"))));
                // Post-mortem: the retained flight ring (this job's
                // Failed event included) goes to disk next to the
                // other CI artifacts.
                shared.env.flight.dump("panic");
                return;
            }
        }
    }
}

/// The supervisor: every `sweep_interval` it runs the lifecycle's sweep
/// (deadlines, aging notices, retention), nudges workers whose backoff
/// holds may have expired, and respawns any lane whose worker thread
/// died.
fn supervisor_loop(shared: &Arc<Shared>, workers: &WorkerTable) {
    while !shared.stopping.load(Ordering::SeqCst) {
        shared.settle(|st, env| st.sweep(env, Instant::now()));
        shared.work_cv.notify_all();
        respawn_dead_lanes(shared, workers);
        std::thread::sleep(shared.env.config.sweep_interval);
    }
}

fn respawn_dead_lanes(shared: &Arc<Shared>, workers: &WorkerTable) {
    let mut slots = workers.lock().expect("workers");
    for (index, slot) in slots.iter_mut().enumerate() {
        if slot.handle.is_finished() && !shared.stopping.load(Ordering::SeqCst) {
            let fresh = spawn_worker(shared, slot.lane, index);
            let dead = std::mem::replace(&mut slot.handle, fresh);
            let _ = dead.join();
            shared
                .env
                .registry
                .counter("dssoc_serve_worker_respawns", &[("lane", lane_name(slot.lane))])
                .cell()
                .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lifecycle::retry_backoff;
    use super::*;
    use crate::flight::{self, FlightEventKind};
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

    /// A cacheable body submitted N times across two tenants runs once:
    /// the repeats are answered at submit, counted as one hit each, and
    /// read `submitted → admitted → cache_hit → completed` with no
    /// attempt, queue wait or run time. A traced or chaos resubmission
    /// of the same body still goes to a worker.
    #[test]
    fn cached_resubmissions_are_answered_at_submit() {
        const N: usize = 6;
        let registry = MetricsRegistry::new();
        let m = JobManager::start(ManagerConfig::default(), registry.clone());
        let library = Arc::new(standard_library().0);
        let body = br#"{"platform": "zcu102:2C+1F", "validation": {"range_detection": 2}}"#;
        let request = || crate::api::parse_request(body, &library).unwrap();
        let submit = |tenant: &str| {
            let req = request();
            m.submit_spec(tenant, req.spec, req.options).unwrap()
        };
        let tenants = ["alice", "bob"];
        let first = submit(tenants[0]);
        assert!(matches!(first.state, JobState::Queued), "the first submission misses");
        let ran = m.wait(first.id, Duration::from_secs(30)).unwrap();
        let JobState::Done(original) = ran.state else { panic!("first job: {:?}", ran.state) };
        assert!(!original.cached);
        for i in 1..N {
            let hit = submit(tenants[i % 2]);
            let JobState::Done(outcome) = &hit.state else {
                panic!("a cached resubmission is done in its receipt: {:?}", hit.state)
            };
            assert!(outcome.cached);
            assert_eq!(outcome.makespan_ns, original.makespan_ns, "bit-identical");
            assert_eq!(hit.attempts, 0);
            assert_eq!(hit.queue_wait, Duration::ZERO);
            assert_eq!(hit.run_time, Some(Duration::ZERO));
            let t = m.timeline(hit.id).unwrap();
            flight::validate_timeline(&t.events).unwrap();
            let kinds: Vec<FlightEventKind> = t.events.iter().map(|e| e.kind).collect();
            use FlightEventKind::{Admitted, CacheHit, Completed, Submitted};
            assert_eq!(kinds, [Submitted, Admitted, CacheHit, Completed]);
        }
        let snap = registry.snapshot();
        let value = |name: &str| snap.value(name, &[]);
        assert_eq!(value("dssoc_result_cache_misses"), Some(1.0), "one lookup per job");
        assert_eq!(value("dssoc_result_cache_hits"), Some((N - 1) as f64));
        let histogram = |name: &str, labels: &[(&str, &str)]| {
            snap.get(name, labels).unwrap().histogram.clone().unwrap().count
        };
        assert_eq!(histogram("dssoc_serve_queue_wait_ns", &[]), 1, "only the run queued");
        assert_eq!(histogram("dssoc_serve_job_latency_ns", &[("engine", "des")]), N as u64);
        let served: Vec<(String, u64, u64)> =
            m.tenants().into_iter().map(|t| (t.tenant, t.submitted, t.cache_served)).collect();
        let (alice, bob) = ((N as u64).div_ceil(2), N as u64 / 2);
        assert_eq!(served, [("alice".into(), alice, alice - 1), ("bob".into(), bob, bob)]);

        // Traced or chaos resubmissions are not answered at submit.
        let mut traced = request();
        traced.options.trace = true;
        let mut flaky = request();
        flaky.options.chaos = Some(ChaosMode::Flaky(1));
        for req in [traced, flaky] {
            let queued = m.submit_spec("carol", req.spec, req.options).unwrap();
            assert!(matches!(queued.state, JobState::Queued), "{:?}", queued.state);
            let done = m.wait(queued.id, Duration::from_secs(30)).unwrap();
            assert!(matches!(done.state, JobState::Done(_)), "{:?}", done.state);
            assert!(done.attempts >= 1, "ran on a worker");
            let t = m.timeline(queued.id).unwrap();
            flight::validate_timeline(&t.events).unwrap();
            assert!(t.events.iter().any(|e| e.kind == FlightEventKind::Dispatched));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.value("dssoc_result_cache_misses", &[]), Some(1.0));
        m.shutdown(true);
    }

    #[test]
    fn queue_wait_of_a_job_that_never_started_is_final() {
        // In-flight quota 0: the job stays queued until cancelled.
        let m = manager(ManagerConfig { max_inflight_per_tenant: 0, ..ManagerConfig::default() });
        let id = m.submit("olga", scenario(1, 0), opts()).unwrap().id;
        assert_eq!(m.cancel(id), CancelOutcome::Cancelled);
        let first = m.job(id).unwrap().queue_wait;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(m.job(id).unwrap().queue_wait, first, "the wait ended with the job");
        m.shutdown(false);
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
        assert_eq!(cancel_requests(&m, id), 1, "the deadline cancel is recorded once");
        m.shutdown(true);
    }

    fn cancel_requests(m: &JobManager, id: u64) -> usize {
        let t = m.timeline(id).unwrap();
        t.events.iter().filter(|e| e.kind == FlightEventKind::CancelRequested).count()
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
        // A repeated cancel races the abort, but is never recorded twice.
        assert!(matches!(m.cancel(id), CancelOutcome::Cancelling | CancelOutcome::Terminal));
        let done = m.wait(id, Duration::from_secs(30)).unwrap();
        assert!(
            matches!(done.state, JobState::Cancelled),
            "user cancel of a running job ends Cancelled, got {:?}",
            done.state
        );
        assert_eq!(m.cancel(id), CancelOutcome::Terminal);
        assert_eq!(cancel_requests(&m, id), 1, "the user cancel is recorded once");
        m.shutdown(true);
    }

    #[test]
    fn drain_ends_when_a_queued_job_can_never_be_claimed() {
        // In-flight quota 0: no worker may ever claim the job, so the
        // drain has to give up on it instead of waiting forever.
        let m = manager(ManagerConfig { max_inflight_per_tenant: 0, ..ManagerConfig::default() });
        let id = m.submit("nora", scenario(1, 0), opts()).unwrap().id;
        let (tx, rx) = std::sync::mpsc::channel();
        let drainer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                m.shutdown(true);
                let _ = tx.send(());
            })
        };
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_ok(), "shutdown(true) hung");
        drainer.join().unwrap();
        assert!(matches!(m.job(id).unwrap().state, JobState::Cancelled));
        let t = m.timeline(id).unwrap();
        flight::validate_timeline(&t.events).unwrap();
        assert_eq!(t.events.last().unwrap().kind, FlightEventKind::Cancelled);
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
