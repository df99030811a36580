//! The job flight recorder: span-structured lifecycle events for every
//! job the manager touches, a bounded last-N ring for post-mortems,
//! structured JSONL logging, and live per-job event streaming.
//!
//! Every job gets a **root span** (a seeded hash of its id, stable for
//! the recorder's lifetime) and one **attempt span** per claimed
//! attempt, derived from the root. Each state transition emits a
//! [`FlightEvent`] carrying the span ids, tenant, lane, attempt, queue
//! depth at the time, and any error payload. Events flow four ways:
//!
//! 1. into the job's own record (the complete per-job timeline the
//!    `/jobs/<id>/timeline` endpoint reconstructs),
//! 2. into the global [`FlightRing`] — a bounded two-half ring whose
//!    readers never block the emitting (state-lock-holding) writer,
//!    dumped to `target/flight-*.json` when a worker panics,
//! 3. to live subscribers ([`JobSubscription`]) with bounded buffers
//!    and drop counting — the backpressure-aware streaming feed behind
//!    `GET /jobs/<id>/events`,
//! 4. optionally to a JSONL log (`--log <path|->`), one leveled,
//!    schema-stable object per line, written off the hot path by a
//!    dedicated logger thread.
//!
//! # Ring concurrency
//!
//! Emission is serialized by the manager's state lock, so the ring has
//! a single logical producer; readers (dump endpoints, panic dumps)
//! run concurrently. Each half commits slots through `OnceLock` writes
//! *before* publishing the new length with a `Release` store; readers
//! `Acquire`-load the length and only touch the committed prefix — no
//! reader ever blocks the writer, and (unlike a seqlock) the scheme is
//! race-free under ThreadSanitizer.

use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dssoc_appmodel::hash::splitmix64;
use dssoc_metrics::MetricsRegistry;
use serde_json::{json, Value};

/// Per-subscriber event buffer bound; a subscriber that stops draining
/// loses events (counted, reported in the stream) instead of growing
/// without bound or blocking the emitters.
pub const SUBSCRIBER_BUFFER: usize = 256;

/// The attempt span derived from a job's root span (1-based attempt).
pub fn attempt_span(root: u64, attempt: u32) -> u64 {
    splitmix64(root ^ u64::from(attempt))
}

/// A span id as it appears on the wire (and in engine-trace `span_id`
/// metadata records).
pub fn span_hex(span: u64) -> String {
    format!("{span:016x}")
}

/// Everything that can happen to a job, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// The submission arrived (before admission control).
    Submitted,
    /// Admission control accepted it.
    Admitted,
    /// Admission answered it from the result cache; `completed`
    /// follows at the same instant.
    CacheHit,
    /// It entered (or re-entered) the lane queue.
    Queued,
    /// Queue aging raised its effective priority by at least a level.
    Aged,
    /// A retryable failure put it back in the queue under a backoff
    /// hold.
    HeldForRetry,
    /// A worker claimed it off the lane queue.
    Dispatched,
    /// The engine run (or chaos hook) is about to execute.
    EngineStart,
    /// A cancel flag was raised on the running job.
    CancelRequested,
    /// Terminal: finished successfully.
    Completed,
    /// Terminal: failed (engine error or contained panic).
    Failed,
    /// Terminal: cancelled.
    Cancelled,
    /// Terminal: the deadline elapsed first.
    Expired,
}

impl FlightEventKind {
    /// Stable wire name (the `event` key of every log line).
    pub fn name(self) -> &'static str {
        match self {
            FlightEventKind::Submitted => "submitted",
            FlightEventKind::Admitted => "admitted",
            FlightEventKind::CacheHit => "cache_hit",
            FlightEventKind::Queued => "queued",
            FlightEventKind::Aged => "aged",
            FlightEventKind::HeldForRetry => "held_for_retry",
            FlightEventKind::Dispatched => "dispatched",
            FlightEventKind::EngineStart => "engine_start",
            FlightEventKind::CancelRequested => "cancel_requested",
            FlightEventKind::Completed => "completed",
            FlightEventKind::Failed => "failed",
            FlightEventKind::Cancelled => "cancelled",
            FlightEventKind::Expired => "expired",
        }
    }

    /// Log level of the event's JSONL line.
    pub fn level(self) -> &'static str {
        match self {
            FlightEventKind::Failed => "error",
            FlightEventKind::Aged
            | FlightEventKind::HeldForRetry
            | FlightEventKind::CancelRequested
            | FlightEventKind::Cancelled
            | FlightEventKind::Expired => "warn",
            _ => "info",
        }
    }

    /// True for the states a job cannot leave.
    pub fn terminal(self) -> bool {
        matches!(
            self,
            FlightEventKind::Completed
                | FlightEventKind::Failed
                | FlightEventKind::Cancelled
                | FlightEventKind::Expired
        )
    }
}

/// One lifecycle event. Cheap to clone: the only heap fields are
/// shared `Arc<str>`s.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Recorder-global sequence (1-based, strictly increasing).
    pub seq: u64,
    /// Nanoseconds since the recorder epoch (manager start).
    pub ts_ns: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// Job id.
    pub job: u64,
    /// The job's root span.
    pub span: u64,
    /// The attempt span this event belongs to; `0` means the root span
    /// (queue-side events).
    pub attempt_span: u64,
    /// Attempts claimed so far at emission time.
    pub attempt: u32,
    /// Submitting tenant.
    pub tenant: Arc<str>,
    /// Lane name (`threaded` / `des`).
    pub lane: &'static str,
    /// Queued jobs (globally) at emission time.
    pub queue_depth: usize,
    /// Error payload, for failure-class events.
    pub error: Option<Arc<str>>,
}

/// One event as a flat JSON object — the JSONL log-line shape (the
/// shim `Value` object is a `BTreeMap`, so keys always serialize
/// alphabetically and the schema is `jq`-stable).
pub fn event_value(ev: &FlightEvent) -> Value {
    let mut v = json!({
        "seq": ev.seq,
        "ts_ns": ev.ts_ns,
        "level": ev.kind.level(),
        "event": ev.kind.name(),
        "job": ev.job,
        "span": span_hex(ev.span),
        "tenant": &*ev.tenant,
        "lane": ev.lane,
        "attempt": ev.attempt,
        "queue_depth": ev.queue_depth,
    });
    if let Value::Object(map) = &mut v {
        if ev.attempt_span != 0 {
            map.insert("attempt_span".to_string(), json!(span_hex(ev.attempt_span)));
        }
        if let Some(err) = &ev.error {
            map.insert("error".to_string(), json!(&**err));
        }
    }
    v
}

/// One compact JSONL log line (no trailing newline).
pub fn event_line(ev: &FlightEvent) -> String {
    serde_json::to_string(&event_value(ev)).expect("flight event json")
}

/// Where the structured JSONL log goes (`--log <path|->`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightLogTarget {
    /// One line per event on stdout.
    Stdout,
    /// Append-created file.
    File(PathBuf),
}

/// Flight-recorder sizing and output knobs (part of `ManagerConfig`).
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Global ring capacity (events retained for post-mortem dumps;
    /// the ring keeps between half and all of this many).
    pub capacity: usize,
    /// Structured JSONL log destination (`None` disables logging).
    pub log: Option<FlightLogTarget>,
    /// Directory for automatic ring dumps on worker panics (`None`
    /// disables dumping).
    pub dump_dir: Option<PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { capacity: 1024, log: None, dump_dir: Some(PathBuf::from("target")) }
    }
}

// ---------------------------------------------------------------------------
// The bounded ring
// ---------------------------------------------------------------------------

/// One append-only half. Slots are committed through `OnceLock` before
/// the length is published with `Release`; readers `Acquire` the
/// length and read only the committed prefix.
struct Half {
    slots: Box<[OnceLock<FlightEvent>]>,
    len: AtomicUsize,
}

impl Half {
    fn new(capacity: usize) -> Half {
        Half { slots: (0..capacity).map(|_| OnceLock::new()).collect(), len: AtomicUsize::new(0) }
    }

    fn push(&self, ev: FlightEvent) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            return; // rotation races are handled by the caller
        }
        let _ = self.slots[i].set(ev);
        self.len.store(i + 1, Ordering::Release);
    }

    fn snapshot(&self, out: &mut Vec<FlightEvent>) {
        let n = self.len.load(Ordering::Acquire).min(self.slots.len());
        for slot in &self.slots[..n] {
            if let Some(ev) = slot.get() {
                out.push(ev.clone());
            }
        }
    }
}

/// Bounded last-N event ring: two append-only halves rotated when the
/// newer one fills, so between `capacity/2` and `capacity` recent
/// events are always retained. The halves mutex only serializes
/// rotation and `Arc` handout; slot commits use the `OnceLock`
/// publish protocol, so concurrent readers never block the writer.
pub struct FlightRing {
    half_capacity: usize,
    halves: Mutex<[Arc<Half>; 2]>,
    total: AtomicU64,
}

impl FlightRing {
    fn new(capacity: usize) -> FlightRing {
        let half_capacity = (capacity / 2).max(1);
        FlightRing {
            half_capacity,
            halves: Mutex::new([
                Arc::new(Half::new(half_capacity)),
                Arc::new(Half::new(half_capacity)),
            ]),
            total: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: FlightEvent) {
        let mut halves = self.halves.lock().expect("flight ring");
        if halves[1].len.load(Ordering::Relaxed) >= self.half_capacity {
            halves[0] = Arc::clone(&halves[1]);
            halves[1] = Arc::new(Half::new(self.half_capacity));
        }
        halves[1].push(ev);
        drop(halves);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// The last `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let (old, new) = {
            let halves = self.halves.lock().expect("flight ring");
            (Arc::clone(&halves[0]), Arc::clone(&halves[1]))
        };
        let mut out = Vec::new();
        if !Arc::ptr_eq(&old, &new) {
            old.snapshot(&mut out);
        }
        new.snapshot(&mut out);
        if out.len() > n {
            out.drain(..out.len() - n);
        }
        out
    }

    /// Events ever pushed (retained or rotated out).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// JSONL logger
// ---------------------------------------------------------------------------

struct FlightLog {
    tx: Sender<String>,
    handle: Option<JoinHandle<()>>,
}

impl FlightLog {
    /// Spawns the logger thread, or reports why the target is
    /// unusable. Writing happens entirely off the emitting thread; the
    /// writer flushes whenever its queue drains, so the log is current
    /// at every quiet point and complete at shutdown.
    fn start(target: &FlightLogTarget) -> std::io::Result<FlightLog> {
        let mut out: Box<dyn Write + Send> = match target {
            FlightLogTarget::Stdout => Box::new(std::io::stdout()),
            FlightLogTarget::File(path) => Box::new(std::io::BufWriter::new(
                std::fs::OpenOptions::new().create(true).append(true).open(path)?,
            )),
        };
        let (tx, rx) = mpsc::channel::<String>();
        let handle =
            std::thread::Builder::new().name("flight-log".to_string()).spawn(move || {
                while let Ok(line) = rx.recv() {
                    let _ = writeln!(out, "{line}");
                    // Drain the backlog before flushing once.
                    while let Ok(line) = rx.try_recv() {
                        let _ = writeln!(out, "{line}");
                    }
                    let _ = out.flush();
                }
                let _ = out.flush();
            })?;
        Ok(FlightLog { tx, handle: Some(handle) })
    }
}

// ---------------------------------------------------------------------------
// Subscriptions
// ---------------------------------------------------------------------------

struct SubscriberState {
    queue: VecDeque<FlightEvent>,
    dropped: u64,
    closed: bool,
}

struct SubscriberInner {
    state: Mutex<SubscriberState>,
    cv: Condvar,
}

/// One batch drained from a [`JobSubscription`].
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// Events since the last poll, in emission order.
    pub events: Vec<FlightEvent>,
    /// Cumulative events lost to the bounded buffer.
    pub dropped: u64,
    /// True once the job is terminal (no further events will arrive).
    pub closed: bool,
}

/// A live feed of one job's lifecycle events, with a bounded buffer:
/// a slow consumer loses events (drop-counted) rather than blocking
/// the manager or growing without bound.
pub struct JobSubscription {
    inner: Arc<SubscriberInner>,
}

impl JobSubscription {
    /// Drains buffered events, blocking up to `timeout` when none are
    /// pending and the stream is still open.
    pub fn poll(&self, timeout: Duration) -> StreamBatch {
        let mut st = self.inner.state.lock().expect("subscriber");
        if st.queue.is_empty() && !st.closed {
            let (next, _) = self.inner.cv.wait_timeout(st, timeout).expect("subscriber");
            st = next;
        }
        StreamBatch { events: st.queue.drain(..).collect(), dropped: st.dropped, closed: st.closed }
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// The manager-wide flight recorder (see module docs). All emission
/// runs under the manager's state lock, which is what serializes ring
/// pushes and keeps subscription catch-up race-free.
pub struct FlightRecorder {
    epoch: Instant,
    seed: u64,
    seq: AtomicU64,
    ring: FlightRing,
    registry: MetricsRegistry,
    log: Option<FlightLog>,
    subscribers: Mutex<std::collections::HashMap<u64, Vec<Weak<SubscriberInner>>>>,
    dump_dir: Option<PathBuf>,
    dump_seq: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with the given sizing/output knobs, publishing its
    /// accounting into `registry`.
    pub fn new(config: &FlightConfig, registry: MetricsRegistry) -> FlightRecorder {
        let log = config.log.as_ref().and_then(|target| match FlightLog::start(target) {
            Ok(log) => Some(log),
            Err(e) => {
                eprintln!("dssoc-serve: cannot open flight log {target:?}: {e}");
                None
            }
        });
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
            | 1;
        FlightRecorder {
            epoch: Instant::now(),
            seed: splitmix64(seed),
            seq: AtomicU64::new(0),
            ring: FlightRing::new(config.capacity.max(2)),
            registry,
            log,
            subscribers: Mutex::new(std::collections::HashMap::new()),
            dump_dir: config.dump_dir.clone(),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// The root span of a job: stable for the recorder's lifetime,
    /// decorrelated across recorder restarts by the epoch seed.
    pub fn span_of(&self, job: u64) -> u64 {
        splitmix64(self.seed ^ job)
    }

    /// Nanoseconds since the recorder epoch at `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Emits one event: ring, log, subscribers, and metrics. Returns
    /// the event so the caller can append it to the job's own
    /// timeline. Must be called with the manager state lock held (see
    /// module docs).
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        kind: FlightEventKind,
        job: u64,
        span: u64,
        attempt_span: u64,
        attempt: u32,
        tenant: &str,
        lane: &'static str,
        queue_depth: usize,
        error: Option<&str>,
        at: Instant,
    ) -> FlightEvent {
        let ev = FlightEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            ts_ns: self.ns_at(at),
            kind,
            job,
            span,
            attempt_span,
            attempt,
            tenant: Arc::from(tenant),
            lane,
            queue_depth,
            error: error.map(Arc::from),
        };
        self.ring.push(ev.clone());
        if let Some(log) = &self.log {
            let _ = log.tx.send(event_line(&ev));
        }
        self.publish(&ev);
        self.registry
            .counter("dssoc_serve_flight_events", &[("level", ev.kind.level())])
            .cell()
            .inc();
        ev
    }

    fn publish(&self, ev: &FlightEvent) {
        let mut subs = self.subscribers.lock().expect("flight subscribers");
        let Some(list) = subs.get_mut(&ev.job) else { return };
        list.retain(|weak| {
            let Some(inner) = weak.upgrade() else { return false };
            let mut st = inner.state.lock().expect("subscriber");
            if !st.closed {
                if st.queue.len() >= SUBSCRIBER_BUFFER {
                    st.dropped += 1;
                    self.registry.counter("dssoc_serve_stream_dropped", &[]).cell().inc();
                } else {
                    st.queue.push_back(ev.clone());
                }
                if ev.kind.terminal() {
                    st.closed = true;
                }
                inner.cv.notify_all();
            }
            true
        });
        if list.is_empty() {
            subs.remove(&ev.job);
        }
    }

    /// Opens a subscription seeded with `backlog` events newer than
    /// `since` (a seq). `terminal` closes the stream immediately after
    /// the backlog. Must be called with the manager state lock held so
    /// no event lands between catch-up and registration.
    pub fn subscribe(
        &self,
        job: u64,
        backlog: &[FlightEvent],
        since: u64,
        terminal: bool,
    ) -> JobSubscription {
        let inner = Arc::new(SubscriberInner {
            state: Mutex::new(SubscriberState {
                queue: backlog.iter().filter(|e| e.seq > since).cloned().collect(),
                dropped: 0,
                closed: terminal,
            }),
            cv: Condvar::new(),
        });
        self.subscribers
            .lock()
            .expect("flight subscribers")
            .entry(job)
            .or_default()
            .push(Arc::downgrade(&inner));
        JobSubscription { inner }
    }

    /// The last `n` retained ring events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        self.ring.tail(n)
    }

    /// Events ever recorded.
    pub fn total(&self) -> u64 {
        self.ring.total()
    }

    /// Dumps the retained ring to `<dump_dir>/flight-<reason>-*.json`
    /// for post-mortems (fired automatically on worker panics).
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.as_ref()?;
        let events: Vec<Value> = self.ring.tail(usize::MAX).iter().map(event_value).collect();
        let doc = json!({
            "reason": reason,
            "total_recorded": self.total(),
            "retained": events.len(),
            "events": events,
        });
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("flight-{reason}-{}-{n}.json", std::process::id()));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, serde_json::to_string_pretty(&doc).ok()?).ok()?;
        self.registry.counter("dssoc_serve_flight_dumps", &[("reason", reason)]).cell().inc();
        Some(path)
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // Disconnect the channel so the logger drains, flushes, and
        // exits; join so every emitted line is on disk when the
        // manager is gone.
        if let Some(FlightLog { tx, handle }) = self.log.take() {
            drop(tx);
            if let Some(handle) = handle {
                let _ = handle.join();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timelines
// ---------------------------------------------------------------------------

/// A job's reconstructed flight record (manager `timeline()` output).
#[derive(Debug, Clone)]
pub struct JobTimeline {
    /// Job id.
    pub id: u64,
    /// Root span.
    pub span: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Current state's wire name.
    pub state: &'static str,
    /// Attempts claimed so far.
    pub attempts: u32,
    /// A trace artifact was requested.
    pub want_trace: bool,
    /// The trace artifact is available (`/jobs/<id>/trace`).
    pub trace_ready: bool,
    /// Trace-ring events dropped during the traced run, per producer
    /// (`None` until a traced run finishes). Surfaced here so a gappy
    /// engine trace is visible where users look first.
    pub trace_dropped: Option<u64>,
    /// The complete event sequence, in emission order.
    pub events: Vec<FlightEvent>,
}

/// Renders a timeline as the `/jobs/<id>/timeline` JSON document: the
/// flat event list plus the reconstructed span tree (root span with
/// one child per attempt, the engine trace stitched in by span id).
pub fn timeline_value(t: &JobTimeline) -> Value {
    let root_hex = span_hex(t.span);
    let mut root_events: Vec<Value> = Vec::new();
    let mut children: Vec<Value> = Vec::new();
    for attempt in 1..=t.attempts {
        let span = attempt_span(t.span, attempt);
        let events: Vec<&FlightEvent> =
            t.events.iter().filter(|e| e.attempt_span == span).collect();
        if events.is_empty() {
            continue;
        }
        children.push(json!({
            "span": span_hex(span),
            "parent": root_hex,
            "name": format!("attempt {attempt}"),
            "start_ns": events.first().map(|e| e.ts_ns),
            "end_ns": events.last().map(|e| e.ts_ns),
            "events": events.iter().map(|e| event_value(e)).collect::<Vec<_>>(),
        }));
    }
    for ev in t.events.iter().filter(|e| e.attempt_span == 0) {
        root_events.push(event_value(ev));
    }
    let mut tree = json!({
        "span": root_hex,
        "name": format!("job {}", t.id),
        "start_ns": t.events.first().map(|e| e.ts_ns),
        "end_ns": t.events.last().map(|e| e.ts_ns),
        "events": root_events,
        "children": children,
    });
    if let Value::Object(map) = &mut tree {
        if t.want_trace && t.trace_ready {
            // The stitch key: the trace artifact carries a `span_id`
            // metadata record with this same hex span.
            let mut stitch = json!({
                "span": root_hex,
                "url": format!("/jobs/{}/trace", t.id),
            });
            if let (Value::Object(s), Some(dropped)) = (&mut stitch, t.trace_dropped) {
                s.insert("trace_dropped".to_string(), json!(dropped));
            }
            map.insert("engine_trace".to_string(), stitch);
        }
    }
    let mut doc = json!({
        "job": t.id,
        "span": root_hex,
        "tenant": t.tenant,
        "status": t.state,
        "attempts": t.attempts,
        "trace": t.want_trace,
        "events": t.events.iter().map(event_value).collect::<Vec<_>>(),
        "span_tree": tree,
    });
    if let (Value::Object(map), Some(dropped)) = (&mut doc, t.trace_dropped) {
        map.insert("trace_dropped".to_string(), json!(dropped));
    }
    doc
}

/// Checks that one job's timeline is complete and causally ordered:
/// opens with `submitted → admitted → queued`, or reads exactly
/// `submitted → admitted → cache_hit → completed`; strictly increasing seq,
/// nondecreasing time, one terminal event (last), consistent job/span
/// ids, no orphan attempt spans, and dispatch/engine-start causality.
/// The chaos soak runs this over every terminal job.
pub fn validate_timeline(events: &[FlightEvent]) -> Result<(), String> {
    let first = events.first().ok_or("timeline is empty")?;
    if first.kind != FlightEventKind::Submitted {
        return Err(format!("timeline starts with '{}', not 'submitted'", first.kind.name()));
    }
    let (job, span) = (first.job, first.span);
    let mut prev_seq = 0u64;
    let mut prev_ts = 0u64;
    let mut prev_attempt = 0u32;
    let mut queued_since_dispatch = false;
    let mut dispatched_attempt: Option<u32> = None;
    let mut terminal_at: Option<usize> = None;
    for (i, ev) in events.iter().enumerate() {
        if ev.job != job {
            return Err(format!("event {} belongs to job {}, not {}", ev.seq, ev.job, job));
        }
        if ev.span != span {
            return Err(format!("event {} has foreign root span {}", ev.seq, span_hex(ev.span)));
        }
        if ev.seq <= prev_seq {
            return Err(format!(
                "seq not strictly increasing at event {} (prev {})",
                ev.seq, prev_seq
            ));
        }
        if ev.ts_ns < prev_ts {
            return Err(format!(
                "time went backwards at seq {} ({} < {})",
                ev.seq, ev.ts_ns, prev_ts
            ));
        }
        if ev.attempt < prev_attempt {
            return Err(format!("attempt count regressed at seq {}", ev.seq));
        }
        if ev.attempt_span != 0 && ev.attempt_span != attempt_span(span, ev.attempt) {
            return Err(format!(
                "orphan attempt span {} at seq {}",
                span_hex(ev.attempt_span),
                ev.seq
            ));
        }
        match ev.kind {
            FlightEventKind::Queued | FlightEventKind::HeldForRetry => {
                queued_since_dispatch = true;
            }
            FlightEventKind::Dispatched => {
                if !queued_since_dispatch {
                    return Err(format!("dispatched without queue entry at seq {}", ev.seq));
                }
                queued_since_dispatch = false;
                dispatched_attempt = Some(ev.attempt);
            }
            FlightEventKind::EngineStart if dispatched_attempt != Some(ev.attempt) => {
                return Err(format!("engine_start for unclaimed attempt at seq {}", ev.seq));
            }
            _ => {}
        }
        if ev.kind.terminal() {
            if let Some(at) = terminal_at {
                return Err(format!(
                    "two terminal events ({} and {})",
                    events[at].kind.name(),
                    ev.kind.name()
                ));
            }
            terminal_at = Some(i);
        }
        prev_seq = ev.seq;
        prev_ts = ev.ts_ns;
        prev_attempt = ev.attempt;
    }
    match terminal_at {
        None => return Err("no terminal event".to_string()),
        Some(at) if at != events.len() - 1 => {
            return Err(format!("terminal event at index {at} is not last"));
        }
        Some(_) => {}
    }
    use FlightEventKind::{Admitted, CacheHit, Completed, Queued, Submitted};
    let kinds = events.iter().map(|e| e.kind);
    if events.iter().any(|e| e.kind == CacheHit) {
        if !kinds.eq([Submitted, Admitted, CacheHit, Completed]) {
            return Err("a cache hit does not read submitted → admitted → cache_hit → completed"
                .to_string());
        }
    } else if !kinds.take(3).eq([Submitted, Admitted, Queued]) {
        return Err("timeline does not open with submitted → admitted → queued".to_string());
    }
    Ok(())
}

/// Lane liveness, as reported by `/healthz`.
#[derive(Debug, Clone)]
pub struct LaneHealth {
    /// Lane name (`threaded` / `des`).
    pub lane: &'static str,
    /// Configured worker count.
    pub configured: usize,
    /// Workers currently alive (the supervisor closes the gap).
    pub alive: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::new()
    }

    fn recorder(capacity: usize) -> FlightRecorder {
        FlightRecorder::new(&FlightConfig { capacity, log: None, dump_dir: None }, registry())
    }

    fn emit_n(rec: &FlightRecorder, job: u64, n: usize) -> Vec<FlightEvent> {
        let span = rec.span_of(job);
        (0..n)
            .map(|_| {
                rec.emit(
                    FlightEventKind::Queued,
                    job,
                    span,
                    0,
                    0,
                    "t",
                    "des",
                    1,
                    None,
                    Instant::now(),
                )
            })
            .collect()
    }

    #[test]
    fn ring_retains_the_recent_tail_in_order() {
        let rec = recorder(8);
        emit_n(&rec, 1, 100);
        assert_eq!(rec.total(), 100);
        let tail = rec.tail(4);
        assert_eq!(tail.len(), 4);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![97, 98, 99, 100], "last-N, oldest first");
        // Rotation keeps at least half the capacity.
        let all = rec.tail(usize::MAX);
        assert!(all.len() >= 4, "retained {} of capacity 8", all.len());
        assert!(all.len() <= 8);
        let seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "monotone: {seqs:?}");
        assert_eq!(*seqs.last().unwrap(), 100);
    }

    #[test]
    fn ring_readers_race_the_writer_safely() {
        let rec = Arc::new(recorder(64));
        let reader = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                let mut max_seen = 0u64;
                for _ in 0..200 {
                    let tail = rec.tail(usize::MAX);
                    let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
                    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "torn read: {seqs:?}");
                    if let Some(&last) = seqs.last() {
                        assert!(last >= max_seen, "tail went backwards");
                        max_seen = last;
                    }
                }
            })
        };
        emit_n(&rec, 2, 2000);
        reader.join().unwrap();
    }

    #[test]
    fn subscription_catches_up_streams_and_closes() {
        let rec = recorder(64);
        let t = "t";
        let span = rec.span_of(9);
        let backlog = vec![
            rec.emit(FlightEventKind::Submitted, 9, span, 0, 0, t, "des", 0, None, Instant::now()),
            rec.emit(FlightEventKind::Queued, 9, span, 0, 0, t, "des", 1, None, Instant::now()),
        ];
        let sub = rec.subscribe(9, &backlog, backlog[0].seq, false);
        // Catch-up honours `since`: only the queued event is pending.
        let batch = sub.poll(Duration::from_millis(1));
        assert_eq!(batch.events.len(), 1);
        assert_eq!(batch.events[0].kind, FlightEventKind::Queued);
        assert!(!batch.closed);
        // Live events flow; a terminal event closes the stream.
        rec.emit(
            FlightEventKind::Dispatched,
            9,
            span,
            attempt_span(span, 1),
            1,
            t,
            "des",
            0,
            None,
            Instant::now(),
        );
        rec.emit(
            FlightEventKind::Completed,
            9,
            span,
            attempt_span(span, 1),
            1,
            t,
            "des",
            0,
            None,
            Instant::now(),
        );
        let batch = sub.poll(Duration::from_millis(1));
        assert_eq!(batch.events.len(), 2);
        assert!(batch.closed, "terminal event ends the stream");
        assert_eq!(batch.dropped, 0);
        // Events to other jobs never reach this subscriber.
        let other_span = rec.span_of(10);
        rec.emit(
            FlightEventKind::Submitted,
            10,
            other_span,
            0,
            0,
            t,
            "des",
            0,
            None,
            Instant::now(),
        );
        assert!(sub.poll(Duration::from_millis(1)).events.is_empty());
    }

    #[test]
    fn slow_subscriber_drops_are_counted_not_unbounded() {
        let rec = recorder(16);
        let t = "t";
        let span = rec.span_of(3);
        let sub = rec.subscribe(3, &[], 0, false);
        for _ in 0..SUBSCRIBER_BUFFER + 10 {
            rec.emit(FlightEventKind::Aged, 3, span, 0, 0, t, "des", 1, None, Instant::now());
        }
        let batch = sub.poll(Duration::from_millis(1));
        assert_eq!(batch.events.len(), SUBSCRIBER_BUFFER, "buffer is bounded");
        assert_eq!(batch.dropped, 10, "overflow is counted");
    }

    #[test]
    fn jsonl_log_lines_have_the_stable_schema() {
        let path =
            std::env::temp_dir().join(format!("dssoc-flight-log-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let rec = FlightRecorder::new(
                &FlightConfig {
                    capacity: 16,
                    log: Some(FlightLogTarget::File(path.clone())),
                    dump_dir: None,
                },
                registry(),
            );
            let t = "t";
            let span = rec.span_of(5);
            rec.emit(FlightEventKind::Submitted, 5, span, 0, 0, t, "des", 0, None, Instant::now());
            rec.emit(
                FlightEventKind::Failed,
                5,
                span,
                attempt_span(span, 1),
                1,
                t,
                "des",
                0,
                Some("boom"),
                Instant::now(),
            );
            // Drop flushes and joins the logger.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let mut prev_seq = 0;
        for line in &lines {
            let v: Value = serde_json::from_str(line).unwrap();
            for key in ["seq", "ts_ns", "level", "event", "job", "span", "tenant"] {
                assert!(v.get(key).is_some(), "line misses '{key}': {line}");
            }
            let seq = v["seq"].as_u64().unwrap();
            assert!(seq > prev_seq, "seq monotone");
            prev_seq = seq;
        }
        let failed: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(failed["level"], "error");
        assert_eq!(failed["error"], "boom");
        assert!(failed["attempt_span"].as_str().is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn dump_writes_the_ring_to_disk() {
        let dir = std::env::temp_dir().join(format!("dssoc-flight-dump-{}", std::process::id()));
        let rec = FlightRecorder::new(
            &FlightConfig { capacity: 16, log: None, dump_dir: Some(dir.clone()) },
            registry(),
        );
        emit_n(&rec, 7, 5);
        let path = rec.dump("test").expect("dump path");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc["reason"], "test");
        assert_eq!(doc["events"].as_array().unwrap().len(), 5);
        assert_eq!(doc["total_recorded"], 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn mk(seq: u64, ts: u64, kind: FlightEventKind, attempt: u32, aspan: u64) -> FlightEvent {
        FlightEvent {
            seq,
            ts_ns: ts,
            kind,
            job: 1,
            span: 42,
            attempt_span: aspan,
            attempt,
            tenant: Arc::from("t"),
            lane: "des",
            queue_depth: 0,
            error: None,
        }
    }

    #[test]
    fn validate_timeline_accepts_a_clean_flight() {
        use FlightEventKind::*;
        let a1 = attempt_span(42, 1);
        let a2 = attempt_span(42, 2);
        let good = vec![
            mk(1, 0, Submitted, 0, 0),
            mk(2, 0, Admitted, 0, 0),
            mk(3, 1, Queued, 0, 0),
            mk(4, 5, Aged, 0, 0),
            mk(5, 9, Dispatched, 1, a1),
            mk(6, 10, EngineStart, 1, a1),
            mk(7, 20, HeldForRetry, 1, a1),
            mk(8, 30, Dispatched, 2, a2),
            mk(9, 31, EngineStart, 2, a2),
            mk(10, 50, Completed, 2, a2),
        ];
        validate_timeline(&good).unwrap();
        let hit = vec![
            mk(1, 0, Submitted, 0, 0),
            mk(2, 0, Admitted, 0, 0),
            mk(3, 0, CacheHit, 0, 0),
            mk(4, 0, Completed, 0, 0),
        ];
        validate_timeline(&hit).unwrap();
    }

    #[test]
    fn validate_timeline_rejects_broken_flights() {
        use FlightEventKind::*;
        let a1 = attempt_span(42, 1);
        let base = vec![mk(1, 0, Submitted, 0, 0), mk(2, 1, Queued, 0, 0)];
        // No terminal event.
        assert!(validate_timeline(&base).unwrap_err().contains("no terminal"));
        // Doesn't start at submission.
        assert!(validate_timeline(&[mk(1, 0, Queued, 0, 0)]).unwrap_err().contains("submitted"));
        // Orphan attempt span.
        let mut orphan = base.clone();
        orphan.push(mk(3, 2, Dispatched, 1, 0xdead));
        assert!(validate_timeline(&orphan).unwrap_err().contains("orphan"));
        // Seq regression.
        let mut regressed = base.clone();
        regressed.push(mk(2, 2, Dispatched, 1, a1));
        assert!(validate_timeline(&regressed).unwrap_err().contains("seq"));
        // Terminal event that isn't last.
        let mut early_terminal = base.clone();
        early_terminal.push(mk(3, 2, Completed, 0, 0));
        early_terminal.push(mk(4, 3, Aged, 0, 0));
        assert!(validate_timeline(&early_terminal).unwrap_err().contains("not last"));
        // Dispatch with no queue entry before it.
        let mut no_queue = vec![mk(1, 0, Submitted, 0, 0)];
        no_queue.push(mk(2, 1, Dispatched, 1, a1));
        assert!(validate_timeline(&no_queue).unwrap_err().contains("queue"));
        // Engine start with no dispatch before it, even at attempt 0.
        let unclaimed = vec![
            mk(1, 0, Submitted, 0, 0),
            mk(2, 0, Admitted, 0, 0),
            mk(3, 0, Queued, 0, 0),
            mk(4, 1, EngineStart, 0, 0),
            mk(5, 2, Cancelled, 0, 0),
        ];
        assert!(validate_timeline(&unclaimed).unwrap_err().contains("engine_start"));
        // Admission skipped between submission and queueing.
        let unadmitted =
            vec![mk(1, 0, Submitted, 0, 0), mk(2, 0, Queued, 0, 0), mk(3, 1, Cancelled, 0, 0)];
        assert!(validate_timeline(&unadmitted).unwrap_err().contains("admitted"));
        // A cache hit after the job was queued.
        let hit_after_queue = vec![
            mk(1, 0, Submitted, 0, 0),
            mk(2, 0, Admitted, 0, 0),
            mk(3, 0, Queued, 0, 0),
            mk(4, 0, CacheHit, 0, 0),
            mk(5, 0, Completed, 0, 0),
        ];
        assert!(validate_timeline(&hit_after_queue).unwrap_err().contains("cache_hit"));
        // A cache hit that is then dispatched to a worker.
        let hit_then_dispatched = vec![
            mk(1, 0, Submitted, 0, 0),
            mk(2, 0, Admitted, 0, 0),
            mk(3, 0, CacheHit, 0, 0),
            mk(4, 1, Dispatched, 1, a1),
            mk(5, 2, Completed, 1, a1),
        ];
        assert!(validate_timeline(&hit_then_dispatched).unwrap_err().contains("dispatched"));
        // A cache hit that ends other than completed, or not at all.
        let hit_failed = vec![
            mk(1, 0, Submitted, 0, 0),
            mk(2, 0, Admitted, 0, 0),
            mk(3, 0, CacheHit, 0, 0),
            mk(4, 0, Failed, 0, 0),
        ];
        assert!(validate_timeline(&hit_failed).unwrap_err().contains("cache_hit"));
        let hit_unfinished =
            vec![mk(1, 0, Submitted, 0, 0), mk(2, 0, Admitted, 0, 0), mk(3, 0, CacheHit, 0, 0)];
        assert!(validate_timeline(&hit_unfinished).unwrap_err().contains("no terminal"));
    }

    #[test]
    fn timeline_value_builds_the_span_tree() {
        use FlightEventKind::*;
        let span = 42u64;
        let a1 = attempt_span(span, 1);
        let t = JobTimeline {
            id: 1,
            span,
            tenant: "t".into(),
            state: "done",
            attempts: 1,
            want_trace: true,
            trace_ready: true,
            trace_dropped: Some(3),
            events: vec![
                mk(1, 0, Submitted, 0, 0),
                mk(2, 1, Queued, 0, 0),
                mk(3, 5, Dispatched, 1, a1),
                mk(4, 9, Completed, 1, a1),
            ],
        };
        let v = timeline_value(&t);
        assert_eq!(v["job"], 1);
        assert_eq!(v["span"], span_hex(span));
        assert_eq!(v["trace_dropped"], 3);
        assert_eq!(v["events"].as_array().unwrap().len(), 4);
        let tree = &v["span_tree"];
        assert_eq!(tree["events"].as_array().unwrap().len(), 2, "root keeps queue-side events");
        let children = tree["children"].as_array().unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0]["span"], span_hex(a1));
        assert_eq!(children[0]["parent"], span_hex(span));
        assert_eq!(children[0]["events"].as_array().unwrap().len(), 2);
        // The engine trace is stitched by the root span id.
        assert_eq!(tree["engine_trace"]["span"], span_hex(span));
        assert_eq!(tree["engine_trace"]["trace_dropped"], 3);
        assert_eq!(tree["engine_trace"]["url"], "/jobs/1/trace");
    }

    #[test]
    fn spans_are_stable_and_decorrelated() {
        let rec = recorder(4);
        assert_eq!(rec.span_of(1), rec.span_of(1));
        assert_ne!(rec.span_of(1), rec.span_of(2));
        assert_ne!(attempt_span(rec.span_of(1), 1), attempt_span(rec.span_of(1), 2));
        assert_ne!(rec.span_of(1), attempt_span(rec.span_of(1), 1));
        assert_eq!(span_hex(0xabc).len(), 16);
    }
}
