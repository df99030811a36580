//! Emulation statistics.
//!
//! "Before termination, the framework collects the scheduling statistics
//! for all the applications and their tasks. These statistics can later
//! be used to evaluate the performance of the emulated DSSoC." (paper
//! §II-A). Everything the case studies report comes from here: workload
//! execution time (Figs. 9a, 10a, 11), per-PE utilization (Fig. 9b),
//! per-application latency and task counts (Table I), and average
//! scheduling overhead (Fig. 10b).
//!
//! What a run returns is [`EmulationStats`]: it holds no instance
//! memory, so a result cache, a sweep or a daemon can keep hundreds of
//! them without pinning the run's variable arenas. The final memory of
//! every instance — validation mode's functional check (paper §II-B) —
//! comes only from
//! [`Emulation::run_with_images`](crate::engine::Emulation::run_with_images)
//! as [`InstanceImages`], which nothing caches or stores.
//!
//! The engines' entry points (`Emulation::run`, `run_compiled`,
//! `run_with_images`, `DesSimulator::run`, `run_compiled`) also return
//! the per-task records, as dense columns expanded on first access
//! ([`TaskLog`]). Every job-layer result — [`JobRunner`], the sweep
//! runners, the serve daemon, a cache hit or a miss — is a run summary
//! ([`EmulationStats::into_summary`]): makespan, scheduler invocations,
//! PE busy times and names, overhead and reliability counters, the
//! per-app columns (20 bytes per instance) and the task count, but no
//! per-task columns. Asking a summary for task records panics.
//!
//! [`JobRunner`]: crate::job::JobRunner

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dssoc_appmodel::instance::{AppInstance, InstanceId};
use dssoc_appmodel::memory::AppMemory;
use dssoc_metrics::HistogramData;
use dssoc_platform::pe::{PeId, PlatformConfig};

use crate::arena::DoneColumns;
use crate::intern::{Name, NameTable};
use crate::time::SimTime;

/// Performance record of one executed task.
///
/// The name fields are [`Name`]s, clones of the application's own:
/// thousands of records share a handful of allocations, and building a
/// record costs three `Arc` clones instead of three `String` clones.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Owning application instance.
    pub instance: InstanceId,
    /// Application name.
    pub app: Name,
    /// DAG node name.
    pub node: Name,
    /// Dense DAG node index within the instance (the id trace events
    /// carry; `node` is its display name).
    pub node_idx: usize,
    /// The runfunc that executed.
    pub kernel: Name,
    /// PE that ran the task.
    pub pe: PeId,
    /// When all predecessors had completed.
    pub ready_at: SimTime,
    /// When the task started on the PE.
    pub start: SimTime,
    /// When the task finished (emulation time).
    pub finish: SimTime,
    /// Modeled execution duration charged to the emulation clock.
    pub modeled: Duration,
    /// Host wall-clock duration of the functional execution.
    pub measured: Duration,
}

impl TaskRecord {
    /// Queueing delay between readiness and dispatch.
    ///
    /// Saturates to zero when `start` precedes `ready_at` rather than
    /// panicking: a reservation-queue chained dispatch starts a task at
    /// the very completion instant that made it ready, and overhead
    /// charging can place the recorded start marginally before the
    /// bookkept readiness time.
    pub fn wait(&self) -> Duration {
        self.start.since(self.ready_at)
    }
}

/// The dense form of a run's per-task records: the completion columns
/// an engine loop appended, plus what it takes to expand them into
/// [`TaskRecord`]s — the scenario's [`NameTable`] and the platform whose
/// columns the PE column indexes.
#[derive(Debug, Clone)]
pub(crate) struct DenseTaskLog {
    /// Struct-of-arrays completion facts, in completion order.
    pub cols: DoneColumns,
    /// The instance → app table of the scenario the columns index into.
    pub names: Arc<NameTable>,
    /// The platform the run was on: PE column `c` is `platform.pes[c]`.
    pub platform: Arc<PlatformConfig>,
}

impl DenseTaskLog {
    /// Expands the columns into fat records, in completion order. Runs
    /// without the host columns (the DES) started `dur_ns` before they
    /// finished and measured nothing.
    fn materialize(&self) -> Vec<TaskRecord> {
        let c = &self.cols;
        (0..c.len())
            .map(|k| {
                let start = c.start_ns.get(k).map_or(c.finish_ns[k] - c.dur_ns[k], |&s| s);
                let id = InstanceId(c.inst[k] as u64);
                let (app, node_idx) = (self.names.spec(id), c.node[k] as usize);
                let node = &app.nodes[node_idx];
                let pe = &self.platform.pes[c.col[k] as usize];
                TaskRecord {
                    instance: id,
                    app: app.name.clone(),
                    node: node.name.clone(),
                    node_idx,
                    kernel: node
                        .platform(&pe.platform_key)
                        .map(|p| p.runfunc.clone())
                        .unwrap_or_default(),
                    pe: pe.id,
                    ready_at: SimTime(c.ready_ns[k]),
                    start: SimTime(start),
                    finish: SimTime(c.finish_ns[k]),
                    modeled: Duration::from_nanos(c.dur_ns[k]),
                    measured: Duration::from_nanos(c.measured_ns.get(k).copied().unwrap_or(0)),
                }
            })
            .collect()
    }
}

/// Per-task records of one run: given as [`TaskRecord`]s, an engine's
/// dense completion columns expanded to records on first access, or —
/// in a job-layer summary — only their count.
///
/// Cheap queries — [`len`](Self::len), [`is_empty`](Self::is_empty) —
/// never materialize and work on every log. Everything else
/// ([`Deref`]s to `[TaskRecord]`, so iteration/indexing/slicing all
/// work) expands the columns once and caches the result. Clones share
/// the columns and materialize their records separately.
///
/// A result from the job layer ([`JobRunner`], the sweep runners, the
/// serve daemon) keeps the count alone (see
/// [`EmulationStats::into_summary`]): asking it for records panics,
/// naming the engine entry points that return them. It never answers
/// with an empty slice beside a nonzero [`len`](Self::len).
///
/// [`JobRunner`]: crate::job::JobRunner
/// [`Deref`]: std::ops::Deref
#[derive(Debug, Clone, Default)]
pub struct TaskLog {
    source: TaskSource,
    records: OnceLock<Vec<TaskRecord>>,
}

#[derive(Debug, Clone, Default)]
enum TaskSource {
    /// The records were given by value (or there are none).
    #[default]
    Given,
    /// An engine's completion columns, expanded on first access.
    Dense(Arc<DenseTaskLog>),
    /// A summary: the task count and each application's share of it.
    Counted { len: usize, per_app: Arc<[(Name, usize)]> },
}

impl TaskLog {
    pub(crate) fn from_dense(dense: DenseTaskLog) -> TaskLog {
        TaskLog { source: TaskSource::Dense(Arc::new(dense)), records: OnceLock::new() }
    }

    /// The count-only log of the same tasks.
    fn counted(&self) -> TaskLog {
        let per_app = self.per_app().into();
        TaskLog {
            source: TaskSource::Counted { len: self.len(), per_app },
            records: OnceLock::new(),
        }
    }

    /// Number of task records (without materializing).
    pub fn len(&self) -> usize {
        match &self.source {
            TaskSource::Dense(d) => d.cols.len(),
            TaskSource::Counted { len, .. } => *len,
            TaskSource::Given => self.records.get().map_or(0, Vec::len),
        }
    }

    /// True when the run completed no tasks (without materializing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records as a slice, expanding dense columns on first call.
    ///
    /// # Panics
    ///
    /// On a job-layer summary, which keeps no records.
    pub fn records(&self) -> &[TaskRecord] {
        if let TaskSource::Counted { len, .. } = self.source {
            panic!(
                "a job-layer result is a run summary: it counts {len} tasks and keeps no \
                 per-task records; Emulation::run, run_compiled and run_with_images and \
                 DesSimulator::run and run_compiled return them"
            );
        }
        self.records.get_or_init(|| match &self.source {
            TaskSource::Dense(d) => d.materialize(),
            _ => Vec::new(),
        })
    }

    /// Iterates the records (materializing if needed; panics on a
    /// summary, like [`Self::records`]).
    pub fn iter(&self) -> std::slice::Iter<'_, TaskRecord> {
        self.records().iter()
    }

    /// Tasks per application, each application once, read from the
    /// dense columns or the summary when there are any (without
    /// materializing).
    fn per_app(&self) -> Vec<(Name, usize)> {
        match &self.source {
            TaskSource::Dense(d) => {
                let mut counts = vec![0usize; d.names.specs().len()];
                for &inst in &d.cols.inst {
                    counts[d.names.spec_index(InstanceId(inst as u64))] += 1;
                }
                let specs = d.names.specs().iter().zip(counts);
                specs.filter(|&(_, n)| n > 0).map(|(spec, n)| (spec.name.clone(), n)).collect()
            }
            TaskSource::Counted { per_app, .. } => per_app.to_vec(),
            TaskSource::Given => {
                let mut counts: BTreeMap<&Name, usize> = BTreeMap::new();
                for t in self.records() {
                    *counts.entry(&t.app).or_default() += 1;
                }
                counts.into_iter().map(|(app, n)| (app.clone(), n)).collect()
            }
        }
    }
}

impl From<Vec<TaskRecord>> for TaskLog {
    fn from(records: Vec<TaskRecord>) -> TaskLog {
        let log = TaskLog::default();
        let _ = log.records.set(records);
        log
    }
}

impl std::ops::Deref for TaskLog {
    type Target = [TaskRecord];

    fn deref(&self) -> &[TaskRecord] {
        self.records()
    }
}

impl<'a> IntoIterator for &'a TaskLog {
    type Item = &'a TaskRecord;
    type IntoIter = std::slice::Iter<'a, TaskRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records().iter()
    }
}

/// Completion record of one application instance.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// Instance id.
    pub instance: InstanceId,
    /// Application name.
    pub app: Name,
    /// Arrival (injection) time.
    pub arrival: SimTime,
    /// Time the last task of the instance finished.
    pub finish: SimTime,
    /// Number of tasks the instance executed.
    pub task_count: usize,
}

impl AppRecord {
    /// End-to-end latency of the instance.
    pub fn latency(&self) -> Duration {
        self.finish.since(self.arrival)
    }
}

/// What an engine records per finished application instance, in
/// completion order: the instance, its arrival and its finish, as
/// integers. The name and task count of an [`AppRecord`] come from the
/// scenario's [`NameTable`] when the records are expanded.
#[derive(Debug, Default, Clone)]
pub(crate) struct AppColumns {
    pub inst: Vec<u32>,
    pub arrival_ns: Vec<u64>,
    pub finish_ns: Vec<u64>,
}

impl AppColumns {
    pub fn push(&mut self, inst: u32, arrival_ns: u64, finish_ns: u64) {
        self.inst.push(inst);
        self.arrival_ns.push(arrival_ns);
        self.finish_ns.push(finish_ns);
    }

    pub fn reserve(&mut self, n: usize) {
        self.inst.reserve(n);
        self.arrival_ns.reserve(n);
        self.finish_ns.reserve(n);
    }

    pub fn len(&self) -> usize {
        self.inst.len()
    }

    /// Record `k`'s end-to-end latency in nanoseconds.
    pub fn latency_ns(&self, k: usize) -> u64 {
        self.finish_ns[k].saturating_sub(self.arrival_ns[k])
    }
}

#[derive(Debug)]
struct DenseAppLog {
    cols: AppColumns,
    names: Arc<NameTable>,
}

/// Per-application-instance records of one run: either given as
/// [`AppRecord`]s or an engine's dense columns (20 bytes per instance
/// instead of a 48-byte record with a name pointer), expanded to
/// records on first access — like [`TaskLog`]. [`len`](Self::len),
/// [`EmulationStats::completed_apps`] and the per-app aggregates never
/// expand them.
#[derive(Debug, Clone, Default)]
pub struct AppLog {
    dense: Option<Arc<DenseAppLog>>,
    records: OnceLock<Vec<AppRecord>>,
}

impl AppLog {
    pub(crate) fn from_dense(cols: AppColumns, names: Arc<NameTable>) -> AppLog {
        AppLog { dense: Some(Arc::new(DenseAppLog { cols, names })), records: OnceLock::new() }
    }

    /// Number of records (without materializing).
    pub fn len(&self) -> usize {
        match (&self.dense, self.records.get()) {
            (Some(d), _) => d.cols.len(),
            (None, Some(r)) => r.len(),
            (None, None) => 0,
        }
    }

    /// True when no instance finished (without materializing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records as a slice, expanding dense columns on first call.
    pub fn records(&self) -> &[AppRecord] {
        self.records.get_or_init(|| {
            let Some(d) = &self.dense else { return Vec::new() };
            let c = &d.cols;
            (0..c.len())
                .map(|k| {
                    let id = InstanceId(c.inst[k] as u64);
                    AppRecord {
                        instance: id,
                        app: d.names.app(id).clone(),
                        arrival: SimTime(c.arrival_ns[k]),
                        finish: SimTime(c.finish_ns[k]),
                        task_count: d.names.spec(id).nodes.len(),
                    }
                })
                .collect()
        })
    }

    /// Iterates the records (materializing if needed).
    pub fn iter(&self) -> std::slice::Iter<'_, AppRecord> {
        self.records().iter()
    }

    /// Each record's application name and latency, in completion order,
    /// read from the dense columns when there are any (without
    /// materializing).
    fn latencies(&self) -> impl Iterator<Item = (&Name, Duration)> {
        let dense = self.dense.as_deref();
        let cols = dense.map(|d| {
            let c = &d.cols;
            (0..c.len()).map(move |k| {
                let app = d.names.app(InstanceId(c.inst[k] as u64));
                (app, Duration::from_nanos(c.latency_ns(k)))
            })
        });
        let records = dense.is_none().then(|| self.records().iter().map(|a| (&a.app, a.latency())));
        cols.into_iter().flatten().chain(records.into_iter().flatten())
    }
}

impl From<Vec<AppRecord>> for AppLog {
    fn from(records: Vec<AppRecord>) -> AppLog {
        let log = AppLog::default();
        let _ = log.records.set(records);
        log
    }
}

impl std::ops::Deref for AppLog {
    type Target = [AppRecord];

    fn deref(&self) -> &[AppRecord] {
        self.records()
    }
}

impl<'a> IntoIterator for &'a AppLog {
    type Item = &'a AppRecord;
    type IntoIter = std::slice::Iter<'a, AppRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records().iter()
    }
}

/// Scheduling-overhead breakdown, accumulated across workload-manager
/// iterations (the paper's definition: monitoring completion status,
/// updating the ready queue, running the scheduling algorithm, and
/// communicating tasks to the resource managers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Polling resource handlers for completions.
    pub monitor: Duration,
    /// Processing completions and updating the ready list.
    pub update: Duration,
    /// Running the scheduling policy.
    pub schedule: Duration,
    /// Dispatching selected tasks to resource managers.
    pub dispatch: Duration,
}

impl OverheadBreakdown {
    /// Total overhead across all phases.
    pub fn total(&self) -> Duration {
        self.monitor + self.update + self.schedule + self.dispatch
    }
}

/// Fault-injection and recovery counters, accumulated by the shared
/// [`CompletionSink`](crate::exec::CompletionSink) in both engines. All
/// zeros when no fault spec is configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityCounters {
    /// Total faulted execution attempts (all kinds).
    pub faults_injected: u64,
    /// Transient (bad-result) faults.
    pub transient_faults: u64,
    /// Permanent PE failures observed by attempts.
    pub permanent_faults: u64,
    /// Hung attempts caught by the virtual watchdog deadline.
    pub hang_faults: u64,
    /// Wedged resource-manager threads caught by the threaded engine's
    /// wall-clock watchdog.
    pub watchdog_faults: u64,
    /// Real kernel execution errors absorbed by the recovery policy.
    pub exec_faults: u64,
    /// Retry grants issued.
    pub retries: u64,
    /// Distinct tasks that degraded onto another PE class after a fault.
    pub tasks_degraded: u64,
    /// PEs quarantined for the rest of the run.
    pub pes_quarantined: u64,
    /// Application instances given up on (retry budget exhausted or no
    /// surviving compatible PE).
    pub apps_aborted: u64,
    /// Application instances that completed even though at least one of
    /// their task attempts faulted.
    pub apps_completed_despite_faults: u64,
}

/// Per-application aggregate over a run's records: completed instance
/// count, task count, and summed end-to-end latency. Built once per
/// [`EmulationStats`] by [`EmulationStats::app_aggregates`] so the
/// per-app accessors don't rescan the full record vectors on every
/// call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppAggregate {
    /// Completed instances of the application.
    pub instances: usize,
    /// Tasks executed across all its instances.
    pub tasks: usize,
    /// Sum of end-to-end instance latencies.
    pub total_latency: Duration,
}

impl AppAggregate {
    /// Mean end-to-end latency, `None` when no instance completed.
    pub fn latency_mean(&self) -> Option<Duration> {
        if self.instances == 0 {
            None
        } else {
            Some(self.total_latency / self.instances as u32)
        }
    }
}

/// Log2-bucketed percentile view over a run's retained records, in
/// nanoseconds (see [`EmulationStats::percentiles`]). The same
/// [`HistogramData`] arithmetic backs the live metrics families, so
/// offline percentiles from a finished run agree with what a scrape of
/// `dssoc_task_wait_ns` / `dssoc_task_exec_ns` / `dssoc_app_latency_ns`
/// would have reported.
#[derive(Debug, Clone, Default)]
pub struct StatsPercentiles {
    /// Queueing delay between task readiness and dispatch.
    pub task_wait: HistogramData,
    /// Modeled task execution durations.
    pub task_exec: HistogramData,
    /// End-to-end application-instance latencies.
    pub app_latency: HistogramData,
}

/// The summary of one emulation run: everything the case studies read,
/// and no instance memory (see the module docs).
#[derive(Debug, Clone)]
pub struct EmulationStats {
    /// Platform name (e.g. `zcu102-3C+2F`).
    pub platform: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Workload execution time: emulation time when the last task
    /// finished.
    pub makespan: Duration,
    /// Per-task records, in completion order (lazily materialized for
    /// engine runs; only their count in a job-layer summary — see
    /// [`TaskLog`]).
    pub tasks: TaskLog,
    /// Per-application-instance records, in completion order (lazily
    /// materialized for engine runs — see [`AppLog`]).
    pub apps: AppLog,
    /// Accumulated busy time per PE.
    pub pe_busy: BTreeMap<PeId, Duration>,
    /// PE display names for reporting.
    pub pe_names: BTreeMap<PeId, String>,
    /// Number of scheduler invocations.
    pub sched_invocations: u64,
    /// Scheduling-overhead breakdown (as charged to the emulation clock).
    pub overhead: OverheadBreakdown,
    /// Fault-injection and recovery counters (all zeros without a fault
    /// spec).
    pub reliability: ReliabilityCounters,
    /// Lazily-built per-app aggregates (see [`Self::app_aggregates`]).
    pub(crate) app_agg: OnceLock<BTreeMap<Name, AppAggregate>>,
}

impl EmulationStats {
    /// PE utilization: busy time over workload execution time (the
    /// paper's Fig. 9b metric).
    pub fn utilization(&self, pe: PeId) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.pe_busy.get(&pe).map(|b| b.as_secs_f64() / self.makespan.as_secs_f64()).unwrap_or(0.0)
    }

    /// All `(PE, utilization)` pairs in id order.
    pub fn utilizations(&self) -> Vec<(PeId, f64)> {
        self.pe_names.keys().map(|&pe| (pe, self.utilization(pe))).collect()
    }

    /// Average scheduling overhead per scheduler invocation (Fig. 10b).
    pub fn avg_sched_overhead(&self) -> Duration {
        if self.sched_invocations == 0 {
            return Duration::ZERO;
        }
        self.overhead.total() / self.sched_invocations as u32
    }

    /// Per-app aggregates, built on first use with a single pass over
    /// the app records and the task log's columns, or from a summary's
    /// per-app task counts (task records are not materialized). Every
    /// per-app accessor reads this map, so reporting loops that ask
    /// about each app in turn (Table I does) cost O(n + apps·log apps)
    /// total instead of rescanning all n records once per app.
    pub fn app_aggregates(&self) -> &BTreeMap<Name, AppAggregate> {
        self.app_agg.get_or_init(|| {
            let mut map: BTreeMap<Name, AppAggregate> = BTreeMap::new();
            for (app, latency) in self.apps.latencies() {
                let agg = map.entry(app.clone()).or_default();
                agg.instances += 1;
                agg.total_latency += latency;
            }
            for (app, tasks) in self.tasks.per_app() {
                map.entry(app).or_default().tasks += tasks;
            }
            map
        })
    }

    /// Mean end-to-end latency of completed instances of `app`.
    pub fn app_latency_mean(&self, app: &str) -> Option<Duration> {
        self.app_aggregates().get(app).and_then(AppAggregate::latency_mean)
    }

    /// Total tasks executed for `app` across all its instances.
    pub fn app_task_count(&self, app: &str) -> usize {
        self.app_aggregates().get(app).map_or(0, |a| a.tasks)
    }

    /// Percentile view over the run's records: log2 histograms of task
    /// wait, modeled task execution, and app latency (nanoseconds).
    /// Built on demand in one pass over the task records, so it panics
    /// on a job-layer summary (see [`TaskLog`]); use
    /// [`HistogramData::p50`]/[`p90`](HistogramData::p90)/
    /// [`p99`](HistogramData::p99)/`max` on each.
    pub fn percentiles(&self) -> StatsPercentiles {
        let mut view = StatsPercentiles::default();
        for t in &self.tasks {
            view.task_wait.record(t.wait().as_nanos() as u64);
            view.task_exec.record(t.modeled.as_nanos() as u64);
        }
        for (_, latency) in self.apps.latencies() {
            view.app_latency.record(latency.as_nanos() as u64);
        }
        view
    }

    /// The run summary of these stats: the same stats with the task
    /// log reduced to its count and per-app counts, so they hold
    /// O(instances) bytes instead of O(tasks). Every accessor but the
    /// per-task records ([`TaskLog::records`], [`Self::percentiles`])
    /// answers as before. This is what every job-layer result is; the
    /// engines' own entry points return the records.
    pub fn into_summary(mut self) -> EmulationStats {
        self.tasks = self.tasks.counted();
        self
    }

    /// Number of completed application instances.
    pub fn completed_apps(&self) -> usize {
        self.apps.len()
    }

    /// A compact human-readable summary (used by the examples).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "platform:  {}", self.platform);
        let _ = writeln!(s, "scheduler: {}", self.scheduler);
        let _ = writeln!(s, "makespan:  {:.3} ms", self.makespan.as_secs_f64() * 1e3);
        let _ = writeln!(s, "tasks:     {}   apps: {}", self.tasks.len(), self.apps.len());
        let _ = writeln!(
            s,
            "avg sched overhead: {:.2} us over {} invocations",
            self.avg_sched_overhead().as_secs_f64() * 1e6,
            self.sched_invocations
        );
        for (&pe, name) in &self.pe_names {
            let _ = writeln!(s, "  {name:<8} utilization {:5.1}%", self.utilization(pe) * 100.0);
        }
        let r = &self.reliability;
        if *r != ReliabilityCounters::default() {
            let _ = writeln!(
                s,
                "reliability: {} faults, {} retries, {} degraded, {} PEs quarantined, \
                 {} apps aborted, {} survived faults",
                r.faults_injected,
                r.retries,
                r.tasks_degraded,
                r.pes_quarantined,
                r.apps_aborted,
                r.apps_completed_despite_faults,
            );
        }
        s
    }
}

/// The final variable memory of every instance of one threaded-engine
/// run, for functional checks (golden decodes, the range-detection
/// lag). Only [`Emulation::run_with_images`] returns it; it is never
/// part of an [`EmulationStats`], so no cache or sweep holds it.
///
/// [`Emulation::run_with_images`]: crate::engine::Emulation::run_with_images
#[derive(Debug)]
pub struct InstanceImages(pub(crate) Arc<Vec<AppInstance>>);

impl InstanceImages {
    /// The final variable memory of instance `id`.
    pub fn memory(&self, id: InstanceId) -> Option<&AppMemory> {
        self.0.iter().find(|i| i.id == id).map(|i| i.memory.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_fixture() -> EmulationStats {
        let mut pe_busy = BTreeMap::new();
        pe_busy.insert(PeId(0), Duration::from_millis(8));
        pe_busy.insert(PeId(1), Duration::from_millis(2));
        let mut pe_names = BTreeMap::new();
        pe_names.insert(PeId(0), "Core1".to_string());
        pe_names.insert(PeId(1), "FFT1".to_string());
        EmulationStats {
            platform: "test".into(),
            scheduler: "FRFS".into(),
            makespan: Duration::from_millis(10),
            tasks: vec![
                TaskRecord {
                    instance: InstanceId(0),
                    app: "radar".into(),
                    node: "A".into(),
                    node_idx: 0,
                    kernel: "ka".into(),
                    pe: PeId(0),
                    ready_at: SimTime(0),
                    start: SimTime(1_000),
                    finish: SimTime(2_000),
                    modeled: Duration::from_micros(1),
                    measured: Duration::from_nanos(500),
                },
                TaskRecord {
                    instance: InstanceId(0),
                    app: "radar".into(),
                    node: "B".into(),
                    node_idx: 1,
                    kernel: "kb".into(),
                    pe: PeId(1),
                    ready_at: SimTime(2_000),
                    start: SimTime(2_000),
                    finish: SimTime(3_000),
                    modeled: Duration::from_micros(1),
                    measured: Duration::from_nanos(500),
                },
            ]
            .into(),
            apps: vec![AppRecord {
                instance: InstanceId(0),
                app: "radar".into(),
                arrival: SimTime(0),
                finish: SimTime(3_000),
                task_count: 2,
            }]
            .into(),
            pe_busy,
            pe_names,
            sched_invocations: 4,
            overhead: OverheadBreakdown {
                monitor: Duration::from_micros(1),
                update: Duration::from_micros(1),
                schedule: Duration::from_micros(1),
                dispatch: Duration::from_micros(1),
            },
            reliability: ReliabilityCounters::default(),
            app_agg: OnceLock::new(),
        }
    }

    #[test]
    fn utilization_ratio() {
        let s = stats_fixture();
        assert!((s.utilization(PeId(0)) - 0.8).abs() < 1e-12);
        assert!((s.utilization(PeId(1)) - 0.2).abs() < 1e-12);
        assert_eq!(s.utilization(PeId(9)), 0.0);
        assert_eq!(s.utilizations().len(), 2);
    }

    #[test]
    fn overhead_average() {
        let s = stats_fixture();
        assert_eq!(s.overhead.total(), Duration::from_micros(4));
        assert_eq!(s.avg_sched_overhead(), Duration::from_micros(1));
    }

    #[test]
    fn app_metrics() {
        let s = stats_fixture();
        assert_eq!(s.app_latency_mean("radar"), Some(Duration::from_micros(3)));
        assert_eq!(s.app_latency_mean("wifi"), None);
        assert_eq!(s.app_task_count("radar"), 2);
        assert_eq!(s.completed_apps(), 1);
    }

    #[test]
    fn task_wait_time() {
        let s = stats_fixture();
        assert_eq!(s.tasks[0].wait(), Duration::from_micros(1));
        assert_eq!(s.tasks[1].wait(), Duration::ZERO);
    }

    #[test]
    fn task_wait_saturates_when_start_precedes_readiness() {
        // Regression: a chained reservation dispatch can record a start
        // at (or marginally before) the readiness time; wait() must
        // saturate to zero, never underflow or panic.
        let mut rec = stats_fixture().tasks[0].clone();
        rec.ready_at = SimTime(5_000);
        rec.start = SimTime(4_000);
        assert_eq!(rec.wait(), Duration::ZERO);
    }

    #[test]
    fn zero_makespan_utilization_is_zero() {
        let mut s = stats_fixture();
        s.makespan = Duration::ZERO;
        assert_eq!(s.utilization(PeId(0)), 0.0);
    }

    #[test]
    fn zero_invocations_overhead_is_zero() {
        let mut s = stats_fixture();
        s.sched_invocations = 0;
        assert_eq!(s.avg_sched_overhead(), Duration::ZERO);
    }

    #[test]
    fn summary_mentions_key_fields() {
        let s = stats_fixture();
        let text = s.summary();
        assert!(text.contains("FRFS"));
        assert!(text.contains("Core1"));
        assert!(text.contains("makespan"));
    }

    #[test]
    fn summary_omits_reliability_when_fault_free() {
        let s = stats_fixture();
        assert!(!s.summary().contains("reliability:"));
    }

    #[test]
    fn summary_reports_reliability_when_counters_nonzero() {
        let mut s = stats_fixture();
        s.reliability.faults_injected = 3;
        s.reliability.transient_faults = 2;
        s.reliability.hang_faults = 1;
        s.reliability.retries = 2;
        s.reliability.pes_quarantined = 1;
        s.reliability.apps_completed_despite_faults = 1;
        let text = s.summary();
        assert!(text.contains("reliability: 3 faults"));
        assert!(text.contains("2 retries"));
        assert!(text.contains("1 PEs quarantined"));
        assert!(text.contains("1 survived faults"));
    }

    #[test]
    fn app_aggregates_single_pass_map() {
        let s = stats_fixture();
        let agg = s.app_aggregates();
        assert_eq!(agg.len(), 1);
        let radar = &agg[&Name::from("radar")];
        assert_eq!(radar.instances, 1);
        assert_eq!(radar.tasks, 2);
        assert_eq!(radar.total_latency, Duration::from_micros(3));
        assert_eq!(radar.latency_mean(), Some(Duration::from_micros(3)));
        // Second call returns the cached map (same allocation).
        assert!(std::ptr::eq(agg, s.app_aggregates()));
    }

    #[test]
    fn a_summary_keeps_every_count() {
        let full = stats_fixture();
        let summary = stats_fixture().into_summary();
        assert_eq!((summary.tasks.len(), summary.tasks.is_empty()), (2, false));
        assert_eq!(summary.app_aggregates(), full.app_aggregates());
        assert_eq!(summary.app_task_count("radar"), 2);
        assert_eq!(summary.completed_apps(), 1);
        assert_eq!(summary.summary(), full.summary());
        let clone = summary.clone().into_summary();
        assert_eq!(clone.app_aggregates(), full.app_aggregates());
    }

    #[test]
    #[should_panic(expected = "counts 2 tasks and keeps no per-task records")]
    fn a_summary_refuses_task_records() {
        let summary = stats_fixture().into_summary();
        let _ = summary.tasks.iter().count();
    }

    #[test]
    fn percentiles_view_over_records() {
        let s = stats_fixture();
        let p = s.percentiles();
        assert_eq!(p.task_wait.count, 2);
        assert_eq!(p.task_exec.count, 2);
        assert_eq!(p.app_latency.count, 1);
        // Waits are 1 us and 0 ns; max is exact.
        assert_eq!(p.task_wait.max, 1_000);
        assert_eq!(p.app_latency.max, 3_000);
        assert!(p.task_exec.p99() >= p.task_exec.p50());
    }
}
