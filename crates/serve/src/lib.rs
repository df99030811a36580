//! **dssoc-serve** — the emulation-as-a-service daemon.
//!
//! The paper's framework runs once per invocation; the ROADMAP's
//! north star (the CEDR direction) is a long-lived runtime that many
//! users target concurrently. This crate is that runtime: a
//! multi-tenant daemon accepting emulation jobs over a small JSON
//! HTTP API and executing them through the shared scenario/job layer
//! ([`dssoc_core::job`]).
//!
//! The stack, bottom to top:
//!
//! * [`api`] — the submission wire format: JSON in, a built
//!   [`ScenarioSpec`] plus job knobs out (or a one-line `400` reason);
//!   `parse_job` also compiles it into a [`CompiledScenario`]. Platforms
//!   may be preset shorthands or inline configs; workloads may be
//!   full [`WorkloadSpec`]s or the `"validation"` shorthand.
//! * [`manager`] — bounded priority queue with aging, per-tenant
//!   admission control (`429` on quota breach), and a *supervised*
//!   worker pool: one threaded-lane worker owning a persistent
//!   resource pool, N DES workers, all sharing one fingerprint-keyed,
//!   value-confirmed [`ResultCache`] so an identical submission — from
//!   any tenant — is answered at submit, without compiling, queueing or
//!   re-execution. Jobs carry optional deadlines
//!   (queued expiry + cooperative cancel of running DES jobs),
//!   transient failures retry with seeded backoff, worker panics are
//!   contained to the offending job and the lane is respawned, and
//!   terminal results expire by TTL and per-tenant retention bounds.
//!   The job state machine is `manager/lifecycle.rs`: a pure step
//!   function and one `apply` transition from which the queue and
//!   tenant counters, gauges and outcome metrics are all derived, with
//!   no threads, so it is model-checked directly.
//! * [`flight`] — the job flight recorder: span-structured lifecycle
//!   events (one root span per job, one child per attempt, stitched
//!   into the engine's Chrome trace by span id) in a bounded
//!   lock-free ring, with structured JSONL logging, live per-job
//!   event subscriptions (bounded, drop-counted), and automatic ring
//!   dumps on worker panic.
//! * [`daemon`] — HTTP routing (submit/status/result/trace/cancel,
//!   timeline/events/debug-flight, plus the metrics endpoints shared
//!   with `dssoc-metrics`) and graceful drain.
//!
//! Everything observable is published through `dssoc-metrics` on the
//! daemon's own `/metrics`: queue depth, in-flight gauge, per-tenant
//! submissions/rejections/cache hits, queue-wait and job-latency
//! histograms, and the engines' own execution families.
//!
//! [`CompiledScenario`]: dssoc_core::job::CompiledScenario
//! [`ScenarioSpec`]: dssoc_core::job::ScenarioSpec
//! [`WorkloadSpec`]: dssoc_appmodel::workload::WorkloadSpec
//! [`ResultCache`]: dssoc_core::job::ResultCache

pub mod api;
pub mod daemon;
pub mod flight;
pub mod manager;

pub use api::{parse_job, parse_request, ParsedJob, ParsedRequest};
pub use daemon::{Daemon, ServeConfig};
pub use flight::{
    validate_timeline, FlightConfig, FlightEvent, FlightEventKind, FlightLogTarget, JobTimeline,
};
pub use manager::{
    AdmissionError, CancelOutcome, ChaosMode, JobManager, JobOutcome, JobSnapshot, JobState,
    ManagerConfig, SubmitError, SubmitOptions, TenantSnapshot,
};
