//! The job lifecycle, with no threads and no condvars: the queue lanes,
//! the job records, the one state transition, lane selection (aging,
//! backoff, quota) and retention.
//!
//! Every state change, admission included, is an [`Event`] run through
//! [`step`], a pure function from a job to its next state and the
//! flight event that records the change, and then through
//! [`State::apply`], the only code that writes a job's state. `apply`
//! derives every side effect from the `(from, to)` pair: lane entries,
//! the queued / in-flight / terminal counts and the gauges that mirror
//! them, outcome counters and histograms, the flight events, and
//! retention. The manager's
//! threads lock [`State`], call in here, and notify.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dssoc_appmodel::hash::splitmix64;
use dssoc_core::engine::EmuError;
use dssoc_core::job::{CompiledScenario, Engine, Fingerprint, ScenarioSpec};
use dssoc_metrics::MetricsRegistry;

use super::{
    AdmissionError, CancelOutcome, ChaosMode, JobOutcome, JobSnapshot, JobState, ManagerConfig,
    SubmitOptions,
};
use crate::flight::{self, FlightEvent, FlightEventKind, FlightRecorder};

/// What the lifecycle reads and feeds besides [`State`]: the limits it
/// enforces and the outputs every transition records into.
pub(crate) struct Env {
    pub(crate) config: ManagerConfig,
    pub(crate) registry: MetricsRegistry,
    pub(crate) flight: FlightRecorder,
}

pub(crate) const LANE_THREADED: usize = 0;
pub(crate) const LANE_DES: usize = 1;

pub(crate) fn lane_of(engine: Engine) -> usize {
    match engine {
        Engine::Threaded => LANE_THREADED,
        Engine::Des => LANE_DES,
    }
}

pub(crate) fn lane_name(lane: usize) -> &'static str {
    match lane {
        LANE_THREADED => "threaded",
        _ => "des",
    }
}

/// Cap on per-job `aged` events, so an unclaimable job cannot grow its
/// own timeline without bound.
const MAX_AGED_EVENTS: u32 = 8;

/// Why a running job's cancel flag was raised — decides the terminal
/// state the aborted run maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CancelReason {
    User,
    Deadline,
}

pub(crate) struct JobRecord {
    pub(crate) tenant: String,
    pub(crate) engine: Engine,
    pub(crate) priority: u8,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) scheduler: String,
    pub(crate) platform: String,
    /// Dropped when the job reaches a terminal state.
    pub(crate) scenario: Option<Arc<CompiledScenario>>,
    pub(crate) want_trace: bool,
    pub(crate) trace_json: Option<Arc<String>>,
    pub(crate) submitted: Instant,
    pub(crate) started: Option<Instant>,
    pub(crate) finished: Option<Instant>,
    /// Written only by [`State::apply`]; read through [`JobRecord::state`].
    /// `None` only while admission creates the record.
    state: Option<JobState>,
    /// Cooperative-cancel flag handed to the DES event loop.
    pub(crate) cancel: Arc<AtomicBool>,
    /// Why `cancel` was raised, if it was.
    pub(crate) cancel_reason: Option<CancelReason>,
    /// Absolute give-up time, from [`SubmitOptions::deadline`].
    pub(crate) deadline: Option<Instant>,
    pub(crate) attempts: u32,
    pub(crate) last_error: Option<String>,
    pub(crate) chaos: Option<ChaosMode>,
    /// Root correlation span (flight recorder + engine-trace stitch).
    pub(crate) span: u64,
    /// The complete lifecycle event sequence. Bounded by construction:
    /// a few submit-side events, a handful per attempt (attempts are
    /// bounded by `retry_max_attempts`), and at most
    /// [`MAX_AGED_EVENTS`] aging notices.
    pub(crate) flight: Vec<FlightEvent>,
    /// Whole aging levels already reported for the current queue stay.
    aged_level: u64,
    /// Aging notices emitted so far (capped at [`MAX_AGED_EVENTS`]).
    aged_events: u32,
    /// Trace-ring events dropped during the traced run (`None` until a
    /// traced attempt finishes).
    pub(crate) trace_dropped: Option<u64>,
}

impl JobRecord {
    pub(crate) fn state(&self) -> &JobState {
        self.state.as_ref().expect("admitted jobs have a state")
    }

    pub(crate) fn snapshot(&self, id: u64) -> JobSnapshot {
        JobSnapshot {
            id,
            tenant: self.tenant.clone(),
            engine: self.engine,
            priority: self.priority,
            fingerprint: self.fingerprint,
            scheduler: self.scheduler.clone(),
            platform: self.platform.clone(),
            state: self.state().clone(),
            // A job that ended without starting waited until it ended.
            queue_wait: self
                .started
                .or(self.finished)
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

/// One queued-lane entry; a lane holds exactly its queued jobs. Lanes
/// are plain vectors scanned at claim time: queues are small (bounded
/// by `queue_capacity`), and aging makes the effective priority
/// time-dependent, so a heap's frozen ordering would go stale anyway.
pub(crate) struct QueuedEntry {
    pub(crate) id: u64,
    priority: u8,
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

/// Deterministic jittered exponential backoff for retry `attempt`
/// (1-based count of attempts already made): `base * 2^(attempt-1)`,
/// jittered into `[0.5x, 1.5x)` by a seeded hash of `(seed, id,
/// attempt)` — reproducible across runs, decorrelated across jobs.
pub(crate) fn retry_backoff(seed: u64, id: u64, attempt: u32, base: Duration) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt.saturating_sub(1)).min(10));
    let h = splitmix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt));
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    exp.mul_f64(0.5 + frac)
}

/// Per-tenant accounting. `queued`, `inflight` and `terminal` count
/// the tenant's jobs in those states: they change only with a job's
/// state (in [`State::apply`]) or when retention forgets a terminal
/// record.
#[derive(Default)]
pub(crate) struct TenantCounters {
    pub(crate) queued: usize,
    pub(crate) inflight: usize,
    /// Retained terminal records.
    pub(crate) terminal: usize,
    pub(crate) submitted: u64,
    pub(crate) rejected: u64,
    pub(crate) cache_served: u64,
}

/// How a failed attempt should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunErrorKind {
    /// Deterministic failure: retrying would reproduce it.
    Fatal,
    /// Transient-failure class (injected faults): worth a bounded,
    /// backed-off retry.
    Retryable,
    /// The cooperative-cancel flag aborted the run.
    Canceled,
}

pub(crate) struct RunError {
    pub(crate) kind: RunErrorKind,
    pub(crate) message: String,
}

impl RunError {
    pub(crate) fn fatal(message: impl Into<String>) -> RunError {
        RunError { kind: RunErrorKind::Fatal, message: message.into() }
    }

    pub(crate) fn classify(e: EmuError) -> RunError {
        let kind = match &e {
            EmuError::Fault { .. } => RunErrorKind::Retryable,
            EmuError::Canceled => RunErrorKind::Canceled,
            _ => RunErrorKind::Fatal,
        };
        RunError { kind, message: e.to_string() }
    }
}

/// Everything a successful attempt hands back to the manager.
pub(crate) struct RunDone {
    pub(crate) outcome: JobOutcome,
    pub(crate) trace_json: Option<String>,
    /// Trace-ring drops during the traced run (`None` when untraced),
    /// surfaced in the job's timeline so a gappy artifact is visible.
    pub(crate) trace_dropped: Option<u64>,
}

/// What a worker takes off the queue: everything needed to run the
/// attempt without touching the state lock.
pub(crate) struct Claimed {
    pub(crate) id: u64,
    pub(crate) scenario: Arc<CompiledScenario>,
    pub(crate) engine: Engine,
    pub(crate) trace: bool,
    /// 1-based attempt number (this claim included).
    pub(crate) attempt: u32,
    pub(crate) chaos: Option<ChaosMode>,
    pub(crate) cancel: Arc<AtomicBool>,
    /// Root correlation span, stamped into the engine trace.
    pub(crate) span: u64,
}

/// The result of one claim attempt on a lane.
pub(crate) enum Pick {
    /// A job to run.
    Run(Claimed),
    /// Nothing runnable yet: wait for new work or a freed in-flight
    /// slot, or until the earliest backoff hold expires.
    Idle(Option<Instant>),
    /// The manager is draining and the lane is empty: the worker exits.
    Dry,
}

/// What admission puts into a lane, or answers at once.
pub(crate) enum Work<'a> {
    /// A compiled scenario for a worker to run.
    Run(Arc<CompiledScenario>),
    /// A result the cache already holds for `spec`.
    Cached { spec: &'a ScenarioSpec, fingerprint: Fingerprint, outcome: Box<JobOutcome> },
}

/// Everything that can move a job.
enum Event {
    /// Admission puts the job on its lane.
    Admit,
    /// Admission found the job's result in the cache.
    CacheHit(Box<JobOutcome>),
    /// A worker takes the job off its lane.
    Claim,
    /// The attempt succeeded.
    RunOk(Box<JobOutcome>),
    /// The attempt failed with the retryable class and has attempts
    /// left.
    RunRetryable,
    /// The attempt failed for good.
    RunFatal(String),
    /// The cooperative-cancel flag aborted the attempt.
    RunCancelled,
    /// A user asked to cancel the job.
    UserCancel,
    /// The job's deadline passed.
    Deadline,
    /// Shutdown gives up on a queued job.
    Kill,
}

/// The transition `event` causes for `job` at `now`: the next state and
/// the flight event recording it, or `None` when the event does not
/// apply. A cache hit goes from admission straight to `Done`.
/// Cancelling a running DES job keeps it `Running` and records
/// `cancel_requested` once, whichever the reason; the aborted run then
/// settles it.
fn step(job: &JobRecord, event: Event, now: Instant) -> Option<(JobState, FlightEventKind)> {
    use FlightEventKind as F;
    let Some(state) = &job.state else {
        return match event {
            Event::Admit => Some((JobState::Queued, F::Queued)),
            Event::CacheHit(outcome) => Some((JobState::Done(outcome), F::Completed)),
            _ => None,
        };
    };
    let overdue = job.deadline.is_some_and(|d| d <= now);
    let cancellable = job.engine == Engine::Des && job.cancel_reason.is_none();
    Some(match (state, event) {
        (JobState::Queued, Event::Claim) => (JobState::Running, F::Dispatched),
        (JobState::Queued, Event::UserCancel | Event::Kill) => (JobState::Cancelled, F::Cancelled),
        (JobState::Queued, Event::Deadline) if overdue => (JobState::DeadlineExceeded, F::Expired),
        (JobState::Running, Event::RunOk(outcome)) => (JobState::Done(outcome), F::Completed),
        (JobState::Running, Event::RunRetryable) => (JobState::Queued, F::HeldForRetry),
        (JobState::Running, Event::RunFatal(error)) => (JobState::Failed(error), F::Failed),
        (JobState::Running, Event::RunCancelled) => match job.cancel_reason {
            Some(CancelReason::Deadline) => (JobState::DeadlineExceeded, F::Expired),
            _ => (JobState::Cancelled, F::Cancelled),
        },
        (JobState::Running, Event::UserCancel) if cancellable => {
            (JobState::Running, F::CancelRequested)
        }
        (JobState::Running, Event::Deadline) if cancellable && overdue => {
            (JobState::Running, F::CancelRequested)
        }
        _ => return None,
    })
}

pub(crate) struct State {
    next_id: u64,
    pub(crate) lanes: [Vec<QueuedEntry>; 2],
    pub(crate) jobs: HashMap<u64, JobRecord>,
    /// Submission order, for listing; compacted once forgotten ids
    /// dominate it.
    pub(crate) order: VecDeque<u64>,
    pub(crate) tenants: HashMap<String, TenantCounters>,
    /// Retained terminal job ids in completion order.
    terminal: VecDeque<u64>,
    /// Jobs in `Queued` (the sum of the lane lengths).
    pub(crate) queued_total: usize,
    /// Jobs in `Running`.
    pub(crate) inflight_total: usize,
    /// Terminal transitions so far: a caller that sees it move wakes
    /// the long-poll watchers.
    pub(crate) settled: u64,
    pub(crate) draining: bool,
    /// Shutdown chose to kill queued jobs (no-drain): retries must not
    /// re-enqueue behind the reaper.
    kill_queued: bool,
}

impl State {
    pub(crate) fn new() -> State {
        State {
            next_id: 1,
            lanes: [Vec::new(), Vec::new()],
            jobs: HashMap::new(),
            order: VecDeque::new(),
            tenants: HashMap::new(),
            terminal: VecDeque::new(),
            queued_total: 0,
            inflight_total: 0,
            settled: 0,
            draining: false,
            kill_queued: false,
        }
    }

    /// Admits one job for `tenant`, into its lane or, for a cache hit,
    /// straight to `Done`; or rejects it with the reason.
    pub(crate) fn admit(
        &mut self,
        env: &Env,
        tenant: &str,
        work: Work<'_>,
        opts: SubmitOptions,
        now: Instant,
    ) -> Result<JobSnapshot, AdmissionError> {
        let config = &env.config;
        let counters = self.tenants.entry(tenant.to_string()).or_default();
        let refusal = if self.draining {
            Some(AdmissionError::Draining)
        } else if self.queued_total >= config.queue_capacity {
            Some(AdmissionError::QueueFull)
        } else if counters.queued >= config.max_queued_per_tenant {
            Some(AdmissionError::TenantOverQuota(counters.queued))
        } else {
            None
        };
        if let Some(err) = refusal {
            counters.rejected += 1;
            env.registry
                .counter("dssoc_serve_rejections", &[("tenant", tenant), ("reason", err.reason())])
                .cell()
                .inc();
            return Err(err);
        }
        counters.submitted += 1;
        env.registry.counter("dssoc_serve_submissions", &[("tenant", tenant)]).cell().inc();

        let id = self.next_id;
        self.next_id += 1;
        let (spec, fingerprint) = match &work {
            Work::Run(scenario) => (scenario.spec(), scenario.fingerprint()),
            Work::Cached { spec, fingerprint, .. } => (*spec, *fingerprint),
        };
        let (scheduler, platform) = (spec.scheduler.clone(), spec.platform.name.clone());
        let (scenario, event) = match work {
            Work::Run(scenario) => (Some(scenario), Event::Admit),
            Work::Cached { outcome, .. } => (None, Event::CacheHit(outcome)),
        };
        let job = JobRecord {
            tenant: tenant.to_string(),
            engine: opts.engine,
            priority: opts.priority,
            fingerprint,
            scheduler,
            platform,
            scenario,
            want_trace: opts.trace,
            trace_json: None,
            submitted: now,
            started: None,
            finished: None,
            state: None,
            cancel: Arc::new(AtomicBool::new(false)),
            cancel_reason: None,
            deadline: opts.deadline.map(|d| now + d),
            attempts: 0,
            last_error: None,
            chaos: opts.chaos,
            span: env.flight.span_of(id),
            flight: Vec::new(),
            aged_level: 0,
            aged_events: 0,
            trace_dropped: None,
        };
        self.jobs.insert(id, job);
        self.order.push_back(id);
        // Every admission event shares the submission instant, so the
        // timeline's `queued → dispatched` delta is exactly the
        // queue-wait the histogram records at claim time.
        for kind in [FlightEventKind::Submitted, FlightEventKind::Admitted] {
            self.emit(env, id, kind, false, None, now);
        }
        self.fire(env, id, event, now);
        Ok(self.jobs[&id].snapshot(id))
    }

    /// Runs `event` through [`step`] and [`State::apply`]; a no-op when
    /// it does not apply to job `id`.
    fn fire(&mut self, env: &Env, id: u64, event: Event, now: Instant) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        let reason = match event {
            Event::UserCancel => Some(CancelReason::User),
            Event::Deadline => Some(CancelReason::Deadline),
            _ => None,
        };
        let Some((to, flight)) = step(job, event, now) else { return };
        if flight == FlightEventKind::CancelRequested {
            job.cancel_reason = reason;
        }
        self.apply(env, id, to, flight, now);
    }

    /// Moves job `id` to `to`, recording `flight`, and derives every
    /// side effect from the `(from, to)` pair. The only writer of a
    /// job's state.
    fn apply(&mut self, env: &Env, id: u64, to: JobState, flight: FlightEventKind, now: Instant) {
        let job = self.jobs.get_mut(&id).expect("transitions target retained jobs");
        let from = job.state.replace(to);
        let admitted = from.is_none();
        let was_queued = matches!(from, Some(JobState::Queued));
        let was_running = matches!(from, Some(JobState::Running));
        let queued = matches!(job.state, Some(JobState::Queued));
        let running = matches!(job.state, Some(JobState::Running));
        let terminal = job.state().terminal();
        let engine = [("engine", job.engine.as_str())];
        let tenant = self.tenants.get_mut(&job.tenant).expect("admitted tenants have counters");
        if was_queued {
            let lane = &mut self.lanes[lane_of(job.engine)];
            let at = lane.iter().position(|e| e.id == id).expect("queued jobs hold a lane entry");
            lane.swap_remove(at);
            self.queued_total -= 1;
            tenant.queued -= 1;
            env.registry.gauge("dssoc_serve_queue_depth", &[]).cell().dec();
        }
        if running && !was_running {
            job.started = Some(now);
            job.attempts += 1;
            self.inflight_total += 1;
            tenant.inflight += 1;
            env.registry.gauge("dssoc_serve_inflight", &[]).cell().inc();
            // The same instant stamps the `dispatched` event, so
            // timelines and this histogram agree to the nanosecond.
            let wait = now.saturating_duration_since(job.submitted);
            env.registry
                .histogram("dssoc_serve_queue_wait_ns", &[])
                .cell()
                .record(wait.as_nanos() as u64);
        } else if running {
            job.cancel.store(true, Ordering::Relaxed);
        } else if was_running {
            self.inflight_total -= 1;
            tenant.inflight -= 1;
            env.registry.gauge("dssoc_serve_inflight", &[]).cell().dec();
        }
        if terminal {
            if admitted {
                job.started = Some(now); // a cache hit runs for no time
            }
            // A job that ran, or was answered from the cache, records
            // its latency; one that never left the queue does not.
            if !was_queued {
                let latency = now.saturating_duration_since(job.submitted);
                env.registry
                    .histogram("dssoc_serve_job_latency_ns", &engine)
                    .cell()
                    .record(latency.as_nanos() as u64);
            }
            job.finished = Some(now);
            job.scenario = None;
            tenant.terminal += 1;
            self.terminal.push_back(id);
            self.settled += 1;
            let counter = match job.state() {
                JobState::Done(outcome) => {
                    if outcome.cached {
                        tenant.cache_served += 1;
                        env.registry
                            .counter("dssoc_serve_cache_served", &[("tenant", &job.tenant)])
                            .cell()
                            .inc();
                    }
                    env.registry.counter("dssoc_serve_jobs_completed", &engine)
                }
                JobState::Failed(_) => env.registry.counter("dssoc_serve_jobs_failed", &engine),
                JobState::Cancelled => env.registry.counter("dssoc_serve_jobs_cancelled", &[]),
                _ => env.registry.counter("dssoc_serve_jobs_deadline_exceeded", &[]),
            };
            counter.cell().inc();
        }
        // Run-side failures carry the attempt's error; a queued job's
        // expiry says why it never ran.
        let error = if was_running && !running && !matches!(job.state(), JobState::Done(_)) {
            job.last_error.clone()
        } else if matches!(job.state(), JobState::DeadlineExceeded) {
            Some("deadline exceeded while queued".to_string())
        } else {
            None
        };
        if queued {
            let mut not_before = None;
            if was_running {
                job.aged_level = 0; // aging restarts with the re-enqueue
                env.registry.counter("dssoc_serve_jobs_retried", &engine).cell().inc();
                let config = &env.config;
                let hold = retry_backoff(config.retry_seed, id, job.attempts, config.retry_backoff);
                not_before = Some(now + hold);
            }
            self.enqueue(env, id, not_before, now);
        }
        if admitted && terminal {
            self.emit(env, id, FlightEventKind::CacheHit, false, None, now);
        }
        self.emit(env, id, flight, was_running || running, error.as_deref(), now);
        if terminal {
            self.retain(env, now, false);
        }
    }

    /// Puts job `id` on its lane: the side effect of entering `Queued`,
    /// at admission or on a retry.
    fn enqueue(&mut self, env: &Env, id: u64, not_before: Option<Instant>, now: Instant) {
        let job = &self.jobs[&id];
        let entry = QueuedEntry { id, priority: job.priority, enqueued: now, not_before };
        self.lanes[lane_of(job.engine)].push(entry);
        self.queued_total += 1;
        self.tenants.get_mut(&job.tenant).expect("admitted tenants have counters").queued += 1;
        env.registry.gauge("dssoc_serve_queue_depth", &[]).cell().inc();
    }

    /// Emits one flight event for job `id` and appends it to the job's
    /// own timeline. `in_attempt` puts it on the current attempt's span
    /// (run-side events) instead of the root span (queue-side events).
    /// The caller holds the state lock — the single-producer discipline
    /// the recorder's ring and subscriber catch-up rely on.
    fn emit(
        &mut self,
        env: &Env,
        id: u64,
        kind: FlightEventKind,
        in_attempt: bool,
        error: Option<&str>,
        at: Instant,
    ) {
        let job = self.jobs.get_mut(&id).expect("flight events belong to retained jobs");
        let attempt_span =
            if in_attempt { flight::attempt_span(job.span, job.attempts) } else { 0 };
        let ev = env.flight.emit(
            kind,
            id,
            job.span,
            attempt_span,
            job.attempts,
            &job.tenant,
            lane_name(lane_of(job.engine)),
            self.queued_total,
            error,
            at,
        );
        job.flight.push(ev);
    }

    /// Claims the best eligible job on `lane` at `now`.
    ///
    /// Queued jobs past their deadline expire on the spot. Backoff holds
    /// (`not_before`) and tenants at their in-flight quota are skipped,
    /// and the entry with the highest effective priority (FIFO within a
    /// level) wins. While draining, entries that can never become
    /// eligible — no hold pending and no running job of theirs to free
    /// a slot — are cancelled, so a drain always ends.
    pub(crate) fn claim(&mut self, env: &Env, lane: usize, now: Instant) -> Pick {
        let overdue: Vec<u64> = self.lanes[lane]
            .iter()
            .filter(|e| self.jobs[&e.id].deadline.is_some_and(|d| d <= now))
            .map(|e| e.id)
            .collect();
        for id in overdue {
            self.fire(env, id, Event::Deadline, now);
        }
        let config = &env.config;
        let mut best: Option<(u64, u64)> = None; // (effective priority, id)
        let mut wake: Option<Instant> = None;
        let mut slot_may_free = false;
        for e in &self.lanes[lane] {
            if let Some(nb) = e.not_before.filter(|&nb| nb > now) {
                wake = Some(wake.map_or(nb, |w| w.min(nb)));
                continue;
            }
            let inflight = self.tenants[&self.jobs[&e.id].tenant].inflight;
            if inflight >= config.max_inflight_per_tenant {
                slot_may_free |= inflight > 0;
                continue;
            }
            let waited = now.saturating_duration_since(e.enqueued);
            let eff = effective_priority(e.priority, waited, config.aging_step);
            if best.is_none_or(|(b_eff, b_id)| eff > b_eff || (eff == b_eff && e.id < b_id)) {
                best = Some((eff, e.id));
            }
        }
        if let Some((_, id)) = best {
            self.fire(env, id, Event::Claim, now);
            let job = &self.jobs[&id];
            return Pick::Run(Claimed {
                id,
                scenario: job.scenario.clone().expect("queued jobs keep their scenario"),
                engine: job.engine,
                trace: job.want_trace,
                attempt: job.attempts,
                chaos: job.chaos,
                cancel: Arc::clone(&job.cancel),
                span: job.span,
            });
        }
        if self.draining && wake.is_none() && !slot_may_free {
            let stuck: Vec<u64> = self.lanes[lane].iter().map(|e| e.id).collect();
            for id in stuck {
                self.fire(env, id, Event::Kill, now);
            }
            return Pick::Dry;
        }
        Pick::Idle(wake)
    }

    /// Records that job `id`'s claimed attempt is starting its engine run.
    pub(crate) fn engine_start(&mut self, env: &Env, id: u64, now: Instant) {
        self.emit(env, id, FlightEventKind::EngineStart, true, None, now);
    }

    /// Settles job `id`'s claimed attempt: done, failed, cancelled or
    /// expired, or queued again under a retry hold.
    pub(crate) fn finish(
        &mut self,
        env: &Env,
        id: u64,
        outcome: Result<RunDone, RunError>,
        now: Instant,
    ) {
        let Some(job) = self.jobs.get_mut(&id) else { return };
        let event = match outcome {
            Ok(done) => {
                job.trace_json = done.trace_json.map(Arc::new);
                job.trace_dropped = done.trace_dropped;
                Event::RunOk(Box::new(done.outcome))
            }
            Err(err) => {
                job.last_error = Some(err.message.clone());
                match err.kind {
                    RunErrorKind::Canceled => Event::RunCancelled,
                    RunErrorKind::Retryable
                        if job.attempts < env.config.retry_max_attempts && !self.kill_queued =>
                    {
                        Event::RunRetryable
                    }
                    _ => Event::RunFatal(err.message),
                }
            }
        };
        self.fire(env, id, event, now);
    }

    /// A cancellation request for job `id`.
    pub(crate) fn cancel(&mut self, env: &Env, id: u64, now: Instant) -> CancelOutcome {
        let Some(job) = self.jobs.get(&id) else { return CancelOutcome::NotFound };
        let outcome = match (job.state(), job.engine) {
            (JobState::Queued, _) => CancelOutcome::Cancelled,
            (JobState::Running, Engine::Des) => CancelOutcome::Cancelling,
            (JobState::Running, Engine::Threaded) => CancelOutcome::Running,
            _ => CancelOutcome::Terminal,
        };
        self.fire(env, id, Event::UserCancel, now);
        outcome
    }

    /// The supervisor's periodic pass: deadlines (queued jobs expire,
    /// running DES jobs get their cancel flag), aging notices, and
    /// retention.
    pub(crate) fn sweep(&mut self, env: &Env, now: Instant) {
        let overdue: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, job)| !job.state().terminal() && job.deadline.is_some_and(|d| d <= now))
            .map(|(id, _)| *id)
            .collect();
        for id in overdue {
            self.fire(env, id, Event::Deadline, now);
        }
        // Record when a queued entry crosses one or more whole aging
        // levels (bounded per job).
        if let Some(step) = env.config.aging_step.filter(|s| !s.is_zero()) {
            let aged: Vec<(u64, u64)> = self
                .lanes
                .iter()
                .flatten()
                .filter_map(|e| {
                    let waited = now.saturating_duration_since(e.enqueued);
                    let level = (waited.as_nanos() / step.as_nanos()) as u64;
                    let job = &self.jobs[&e.id];
                    (level > job.aged_level && job.aged_events < MAX_AGED_EVENTS)
                        .then_some((e.id, level))
                })
                .collect();
            for (id, level) in aged {
                let job = self.jobs.get_mut(&id).expect("lane entries are retained jobs");
                job.aged_level = level;
                job.aged_events += 1;
                self.emit(env, id, FlightEventKind::Aged, false, None, now);
            }
        }
        self.retain(env, now, true);
    }

    /// Forgets terminal records, oldest first, in one pass: past the
    /// global `retention` count (never the newest record, which its
    /// submitter has yet to read) on every call, and on a `sweep` also
    /// past the per-tenant bound or the TTL (those count as
    /// `dssoc_serve_results_expired`).
    fn retain(&mut self, env: &Env, now: Instant, sweep: bool) {
        let config = &env.config;
        let ttl = config.result_ttl;
        let bound = config.max_terminal_per_tenant;
        let mut excess = self.terminal.len().saturating_sub(config.retention.max(1));
        let State { terminal, jobs, tenants, order, .. } = self;
        let expires = |job: &JobRecord| job.finished.is_some_and(|f| f + ttl <= now);
        let due = sweep
            && (terminal.front().is_some_and(|id| expires(&jobs[id]))
                || (bound > 0 && tenants.values().any(|t| t.terminal > bound)));
        if excess == 0 && !due {
            return;
        }
        let mut expired = 0u64;
        terminal.retain(|id| {
            if excess == 0 && !due {
                return true;
            }
            let job = &jobs[id];
            let tenant = tenants.get_mut(&job.tenant).expect("admitted tenants have counters");
            if excess > 0 {
                excess -= 1;
            } else if expires(job) || (bound > 0 && tenant.terminal > bound) {
                expired += 1;
            } else {
                return true;
            }
            tenant.terminal -= 1;
            jobs.remove(id);
            false
        });
        if expired > 0 {
            env.registry.counter("dssoc_serve_results_expired", &[]).cell().add(expired);
        }
        if order.len() > 2 * (jobs.len() + 1) {
            order.retain(|id| jobs.contains_key(id));
        }
    }

    /// Stops admission. Without `drain`, also gives up on every queued
    /// job, and on retries of the running ones.
    pub(crate) fn stop(&mut self, env: &Env, drain: bool, now: Instant) {
        self.draining = true;
        if !drain {
            self.kill_queued = true;
            let queued: Vec<u64> = self.lanes.iter().flatten().map(|e| e.id).collect();
            for id in queued {
                self.fire(env, id, Event::Kill, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! A model-based check of the lifecycle: random operation sequences
    //! on a fake clock, with the conservation invariants checked after
    //! every operation and once more after a shutdown reaches
    //! quiescence.

    use std::sync::OnceLock;

    use dssoc_appmodel::workload::WorkloadSpec;
    use dssoc_apps::standard_library;
    use dssoc_core::job::{CostSpec, ScenarioSpec};
    use dssoc_platform::cost::CostTable;
    use proptest::prelude::*;

    use super::*;
    use crate::flight::{validate_timeline, FlightConfig};

    fn scenario() -> Arc<CompiledScenario> {
        static SCENARIO: OnceLock<Arc<CompiledScenario>> = OnceLock::new();
        let compiled = SCENARIO.get_or_init(|| {
            let (library, _) = standard_library();
            let library = Arc::new(library);
            let workload = WorkloadSpec::validation([("wifi_tx", 1)]).generate(&library).unwrap();
            let spec = ScenarioSpec::builder()
                .library(library)
                .workload(workload)
                .platform_named("zcu102:2C+1F")
                .cost(CostSpec::table(CostTable::new()))
                .build()
                .unwrap();
            CompiledScenario::compile(spec).unwrap()
        });
        Arc::clone(compiled)
    }

    #[derive(Debug, Clone, Copy)]
    enum How {
        Ok,
        Retryable,
        Fatal,
        Cancelled,
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Submit { tenant: usize, threaded: bool, priority: u8, deadline_ms: Option<u64> },
        CacheHit { tenant: usize, threaded: bool },
        Claim { threaded: bool },
        Finish { pick: usize, how: How },
        Cancel { id: u64 },
        Sweep,
        Advance { ms: u64 },
    }

    fn op(x: u64) -> Op {
        let arg = x >> 8;
        match x % 9 {
            0 | 1 => Op::Submit {
                tenant: (arg % 3) as usize,
                threaded: arg & 0x8 != 0,
                priority: ((arg >> 4) % 3) as u8,
                deadline_ms: (arg & 0x40 != 0).then_some((arg >> 8) % 40),
            },
            2 | 3 => Op::Claim { threaded: arg & 1 != 0 },
            4 => Op::Finish {
                pick: (arg >> 2) as usize,
                how: [How::Ok, How::Retryable, How::Fatal, How::Cancelled][(arg % 4) as usize],
            },
            5 => Op::Cancel { id: arg % 12 },
            6 => Op::Sweep,
            7 => Op::CacheHit { tenant: (arg % 3) as usize, threaded: arg & 0x8 != 0 },
            _ => Op::Advance { ms: arg % 30 },
        }
    }

    /// Small limits, so quotas, retention and retries all bind; an
    /// in-flight quota of 0 leaves every tenant unable to run.
    fn config(x: u64) -> ManagerConfig {
        ManagerConfig {
            queue_capacity: 3 + (x % 6) as usize,
            max_queued_per_tenant: 1 + ((x >> 3) % 4) as usize,
            max_inflight_per_tenant: ((x >> 6) % 3) as usize,
            retention: 2 + ((x >> 8) % 6) as usize,
            max_terminal_per_tenant: ((x >> 11) % 4) as usize,
            result_ttl: Duration::from_millis(20 + (x >> 13) % 100),
            retry_max_attempts: 1 + ((x >> 20) % 3) as u32,
            retry_backoff: Duration::from_millis(1 + (x >> 22) % 10),
            aging_step: [None, Some(Duration::from_millis(5)), Some(Duration::from_millis(20))]
                [((x >> 26) % 3) as usize],
            flight: FlightConfig { capacity: 64, log: None, dump_dir: None },
            ..ManagerConfig::default()
        }
    }

    fn outcome(cached: bool) -> Box<JobOutcome> {
        Box::new(JobOutcome {
            makespan_ns: 1,
            apps_completed: 1,
            apps_total: 1,
            tasks: 1,
            sched_invocations: 1,
            cached,
            utilization: Vec::new(),
            faults_injected: 0,
            apps_aborted: 0,
        })
    }

    struct Model {
        st: State,
        env: Env,
        base: Instant,
        clock: Duration,
        running: Vec<u64>,
    }

    impl Model {
        fn new(config: ManagerConfig) -> Model {
            let registry = MetricsRegistry::new();
            let flight = FlightRecorder::new(&config.flight, registry.clone());
            Model {
                st: State::new(),
                env: Env { config, registry, flight },
                base: Instant::now(),
                clock: Duration::ZERO,
                running: Vec::new(),
            }
        }

        fn now(&self) -> Instant {
            self.base + self.clock
        }

        /// One claim on `lane`; the earliest backoff hold when idle.
        fn claim(&mut self, lane: usize) -> Option<Option<Instant>> {
            let now = self.now();
            match self.st.claim(&self.env, lane, now) {
                Pick::Run(claimed) => {
                    self.st.engine_start(&self.env, claimed.id, now);
                    self.running.push(claimed.id);
                    None
                }
                Pick::Idle(wake) => Some(wake),
                Pick::Dry => Some(None),
            }
        }

        fn finish(&mut self, pick: usize, how: How) {
            if self.running.is_empty() {
                return;
            }
            let id = self.running.swap_remove(pick % self.running.len());
            let error = |kind| Err(RunError { kind, message: format!("{how:?} attempt") });
            let outcome = match how {
                How::Ok => Ok(RunDone {
                    outcome: *outcome(pick.is_multiple_of(2)),
                    trace_json: None,
                    trace_dropped: None,
                }),
                How::Retryable => error(RunErrorKind::Retryable),
                How::Fatal => error(RunErrorKind::Fatal),
                How::Cancelled => error(RunErrorKind::Canceled),
            };
            let now = self.now();
            self.st.finish(&self.env, id, outcome, now);
        }

        fn run(&mut self, op: Op) {
            let now = self.now();
            match op {
                Op::Submit { tenant, threaded, priority, deadline_ms } => {
                    let engine = if threaded { Engine::Threaded } else { Engine::Des };
                    let mut opts = SubmitOptions::new(engine).priority(priority);
                    opts.deadline = deadline_ms.map(Duration::from_millis);
                    let tenant = ["ann", "bo", "cy"][tenant];
                    let _ = self.st.admit(&self.env, tenant, Work::Run(scenario()), opts, now);
                }
                Op::CacheHit { tenant, threaded } => {
                    let engine = if threaded { Engine::Threaded } else { Engine::Des };
                    let scenario = scenario();
                    let hit = Work::Cached {
                        spec: scenario.spec(),
                        fingerprint: scenario.fingerprint(),
                        outcome: outcome(true),
                    };
                    let tenant = ["ann", "bo", "cy"][tenant];
                    let _ = self.st.admit(&self.env, tenant, hit, SubmitOptions::new(engine), now);
                }
                Op::Claim { threaded } => {
                    self.claim(if threaded { LANE_THREADED } else { LANE_DES });
                }
                Op::Finish { pick, how } => self.finish(pick, how),
                Op::Cancel { id } => {
                    self.st.cancel(&self.env, id, now);
                }
                Op::Sweep => self.st.sweep(&self.env, now),
                Op::Advance { ms } => self.clock += Duration::from_millis(ms),
            }
        }

        /// Stops the manager, then claims, finishes and sweeps until
        /// nothing is queued or running.
        fn quiesce(&mut self, drain: bool) -> Result<(), String> {
            let now = self.now();
            self.st.stop(&self.env, drain, now);
            self.check()?;
            for round in 0..1000 {
                let mut wake: Option<Instant> = None;
                for lane in [LANE_THREADED, LANE_DES] {
                    let hold = loop {
                        if let Some(hold) = self.claim(lane) {
                            break hold;
                        }
                    };
                    wake = wake.into_iter().chain(hold).min();
                }
                while !self.running.is_empty() {
                    let how = [How::Ok, How::Retryable, How::Fatal, How::Cancelled][round % 4];
                    self.finish(round, how);
                }
                self.check()?;
                if self.st.lanes.iter().all(Vec::is_empty) {
                    return Ok(());
                }
                let target = wake.unwrap_or(self.now() + Duration::from_millis(1));
                self.clock = self.clock.max(target.duration_since(self.base));
                let now = self.now();
                self.st.sweep(&self.env, now);
                self.check()?;
            }
            Err("no quiescence after 1000 rounds".to_string())
        }

        fn check(&self) -> Result<(), String> {
            let st = &self.st;
            let mut queued: HashMap<&str, usize> = HashMap::new();
            let mut inflight: HashMap<&str, usize> = HashMap::new();
            let mut terminal: HashMap<&str, usize> = HashMap::new();
            let mut queued_ids = Vec::new();
            let mut running_ids = Vec::new();
            for (&id, job) in &st.jobs {
                let tenant = job.tenant.as_str();
                match job.state() {
                    JobState::Queued => {
                        *queued.entry(tenant).or_default() += 1;
                        queued_ids.push(id);
                    }
                    JobState::Running => {
                        *inflight.entry(tenant).or_default() += 1;
                        running_ids.push(id);
                    }
                    _ => *terminal.entry(tenant).or_default() += 1,
                }
                let ends = job.flight.iter().filter(|e| e.kind.terminal()).count();
                if job.state().terminal() {
                    if ends != 1 || !job.flight.last().is_some_and(|e| e.kind.terminal()) {
                        return Err(format!("job {id}: {ends} terminal events, or not last"));
                    }
                    validate_timeline(&job.flight).map_err(|e| format!("job {id}: {e}"))?;
                } else if ends != 0 {
                    return Err(format!(
                        "job {id} is {} after a terminal event",
                        job.state().name()
                    ));
                }
            }
            for (name, t) in &st.tenants {
                let recount = |m: &HashMap<&str, usize>| m.get(name.as_str()).copied().unwrap_or(0);
                let counted = (t.queued, t.inflight, t.terminal);
                let actual = (recount(&queued), recount(&inflight), recount(&terminal));
                if counted != actual {
                    return Err(format!(
                        "tenant {name}: (queued, inflight, terminal) {counted:?} != recount {actual:?}"
                    ));
                }
            }
            let mut lane_ids: Vec<u64> = st.lanes.iter().flatten().map(|e| e.id).collect();
            lane_ids.sort_unstable();
            queued_ids.sort_unstable();
            if st.queued_total != lane_ids.len() || lane_ids != queued_ids {
                return Err(format!(
                    "queued_total {} / lanes {lane_ids:?} / queued jobs {queued_ids:?} disagree",
                    st.queued_total
                ));
            }
            running_ids.sort_unstable();
            let mut tracked = self.running.clone();
            tracked.sort_unstable();
            if st.inflight_total != running_ids.len() || tracked != running_ids {
                return Err(format!(
                    "inflight_total {} / running jobs {running_ids:?} / claimed {tracked:?} disagree",
                    st.inflight_total
                ));
            }
            let gauge = |name| self.env.registry.gauge(name, &[]).value();
            let gauges = (gauge("dssoc_serve_queue_depth"), gauge("dssoc_serve_inflight"));
            if gauges != (st.queued_total as i64, st.inflight_total as i64) {
                return Err(format!("gauges {gauges:?} != counts"));
            }
            Ok(())
        }
    }

    fn run_model(config: ManagerConfig, ops: &[Op], drain: bool) -> Result<(), String> {
        let mut model = Model::new(config);
        for (i, &op) in ops.iter().enumerate() {
            model.run(op);
            model.check().map_err(|e| format!("after op {i} ({op:?}): {e}"))?;
        }
        model.quiesce(drain)?;
        if let Some((id, job)) = model.st.jobs.iter().find(|(_, job)| !job.state().terminal()) {
            return Err(format!("job {id} is still {} after quiescence", job.state().name()));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn lifecycle_conserves_jobs_counts_and_flights(
            setup in any::<u64>(),
            codes in proptest::collection::vec(any::<u64>(), 1..60),
            drain in any::<bool>(),
        ) {
            let ops: Vec<Op> = codes.iter().map(|&x| op(x)).collect();
            if let Err(e) = run_model(config(setup), &ops, drain) {
                prop_assert!(false, "{e}\nconfig {setup:#x}, drain {drain}\nops: {ops:?}");
            }
        }
    }
}
