//! Exec-core metrics: what an engine publishes to a [`MetricsRegistry`],
//! and at what price.
//!
//! An engine built with a registry ([`DesConfig::metrics`],
//! [`EmulationConfig::metrics`]) owns one [`EngineMetrics`]: its
//! producer-private cells, registered when the engine is built — the
//! fixed families plus one pair of per-PE cells per platform column.
//! Kernel cells (indexed by the runfunc's process-wide id,
//! [`runfunc_id`]), application cells and `dssoc_runs` cells are
//! registered the first time the engine needs them. All of them stay
//! warm across the engine's runs, like its scratch arena.
//!
//! A run samples nothing for metrics in its event loop but the
//! ready-depth histogram, a plain [`HistogramData`] the
//! [`ReadyList`](crate::exec::ReadyList) records into. Every other
//! family is derived from state the run keeps anyway:
//!
//! * the completion families (per-PE count and execution time,
//!   per-kernel execution time, queue wait, modeled-vs-measured skew)
//!   from the completion columns that become the run's task log;
//! * the application and outcome families (invocations, overhead,
//!   faults, retries, quarantines, degraded dispatches, aborts,
//!   survivals) from the [`CompletionSink`];
//! * the gauges (`dssoc_ready_depth`, `dssoc_pes_busy`,
//!   `dssoc_pes_quarantined`) from the ready list and the PE slots,
//!   published as deltas.
//!
//! **Publish lag.** The engine folds the unpublished part of a run into
//! its cells at every run exit, and mid-run once `PUBLISH_EVERY` (256)
//! completions are unpublished, checked once per loop pass before the
//! scheduling step. A mid-run scrape therefore trails the run by fewer
//! than 256 completions plus the one event window being processed.
//! Once a run returns — finished, failed or cancelled — every value is
//! final, and the three gauges are back where the run found them: a
//! quarantine lasts for the rest of its run, and the run's count stays
//! in the `dssoc_quarantines` counter.
//!
//! Both engines fold the same columns and the same sink, so they publish
//! the same families with the same values on deterministic configs,
//! which `tests/metrics_differential.rs` asserts. The only families
//! exempt from that equality are `dssoc_task_skew_ns` (needs a real
//! measured duration, which only the threaded engine has) and
//! `dssoc_runs` (labeled by the engine-decorated scheduler name).
//!
//! [`DesConfig::metrics`]: crate::des::DesConfig::metrics
//! [`EmulationConfig::metrics`]: crate::engine::EmulationConfig::metrics
//! [`runfunc_id`]: dssoc_appmodel::registry::runfunc_id
//! [`HistogramData`]: dssoc_metrics::HistogramData

use std::collections::HashMap;
use std::time::Duration;

use dssoc_appmodel::instance::InstanceId;
use dssoc_metrics::{CounterCell, GaugeCell, HistogramCell, MetricsRegistry};
use dssoc_platform::pe::PlatformConfig;

use crate::arena::DoneColumns;
use crate::exec::{CompletionSink, RunParts};
use crate::intern::NameTable;
use crate::soa::{ScenarioSoa, NO_KERNEL};

/// The four workload-manager phases overhead is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadPhase {
    Monitor,
    Update,
    Schedule,
    Dispatch,
}

impl OverheadPhase {
    pub fn name(self) -> &'static str {
        match self {
            OverheadPhase::Monitor => "monitor",
            OverheadPhase::Update => "update",
            OverheadPhase::Schedule => "schedule",
            OverheadPhase::Dispatch => "dispatch",
        }
    }
}

/// Completions a run may hold unpublished before a mid-run fold (see
/// the module docs).
const PUBLISH_EVERY: usize = 256;

/// The counters folded from a [`CompletionSink`], in [`outcome_counts`]
/// order.
const OUTCOMES: [(&str, Option<(&str, &str)>); 15] = [
    ("dssoc_sched_invocations", None),
    ("dssoc_overhead_ns", Some(("phase", "monitor"))),
    ("dssoc_overhead_ns", Some(("phase", "update"))),
    ("dssoc_overhead_ns", Some(("phase", "schedule"))),
    ("dssoc_overhead_ns", Some(("phase", "dispatch"))),
    ("dssoc_faults", Some(("kind", "transient"))),
    ("dssoc_faults", Some(("kind", "permanent"))),
    ("dssoc_faults", Some(("kind", "hang"))),
    ("dssoc_faults", Some(("kind", "watchdog"))),
    ("dssoc_faults", Some(("kind", "exec"))),
    ("dssoc_retries", None),
    ("dssoc_quarantines", None),
    ("dssoc_degraded_dispatches", None),
    ("dssoc_apps_aborted", None),
    ("dssoc_fault_survivals", None),
];

/// The run's values of the [`OUTCOMES`] counters so far.
fn outcome_counts(sink: &CompletionSink) -> [u64; OUTCOMES.len()] {
    let (o, r) = (&sink.overhead, &sink.reliability);
    let ns = |d: Duration| d.as_nanos() as u64;
    [
        sink.sched_invocations,
        ns(o.monitor),
        ns(o.update),
        ns(o.schedule),
        ns(o.dispatch),
        r.transient_faults,
        r.permanent_faults,
        r.hang_faults,
        r.watchdog_faults,
        r.exec_faults,
        r.retries,
        r.pes_quarantined,
        sink.degraded_dispatches,
        r.apps_aborted,
        r.apps_completed_despite_faults,
    ]
}

/// The gauges folded from run state: ready depth, busy PEs,
/// quarantined PEs. Each returns to zero at every run exit.
const GAUGES: [&str; 3] = ["dssoc_ready_depth", "dssoc_pes_busy", "dssoc_pes_quarantined"];

/// Per-PE cells, by platform column.
struct PeCells {
    completed: CounterCell,
    exec_ns: HistogramCell,
}

/// Per-application cells.
struct AppCells {
    completed: CounterCell,
    latency_ns: HistogramCell,
}

/// What of the current run the cells already hold.
#[derive(Default)]
struct Published {
    /// Completion columns folded.
    tasks: usize,
    /// Application records folded.
    apps: usize,
    gauges: [i64; GAUGES.len()],
    outcomes: [u64; OUTCOMES.len()],
    /// The run's application cells, by scenario spec index.
    app_of_spec: Vec<u32>,
}

/// One engine's metric cells and the publication state of its current
/// run (see the module docs).
pub(crate) struct EngineMetrics {
    registry: MetricsRegistry,
    gauges: [GaugeCell; GAUGES.len()],
    outcomes: [CounterCell; OUTCOMES.len()],
    tasks_ready: CounterCell,
    ready_depth_observed: HistogramCell,
    task_wait_ns: HistogramCell,
    task_skew_ns: HistogramCell,
    per_pe: Vec<PeCells>,
    /// By runfunc id; registered on the kernel's first completion.
    kernels: Vec<Option<HistogramCell>>,
    apps: Vec<AppCells>,
    app_ids: HashMap<Box<str>, u32>,
    /// `dssoc_runs` by scheduler label.
    runs: Vec<(Box<str>, CounterCell)>,
    run: Published,
}

impl EngineMetrics {
    /// Registers the fixed and per-PE cells of an engine on `platform`.
    pub fn new(registry: &MetricsRegistry, platform: &PlatformConfig) -> Self {
        let reg = registry;
        let per_pe = platform
            .pes
            .iter()
            .map(|pe| PeCells {
                completed: reg.counter("dssoc_tasks_completed", &[("pe", &pe.name)]).cell(),
                exec_ns: reg.histogram("dssoc_task_exec_ns", &[("pe", &pe.name)]).cell(),
            })
            .collect();
        EngineMetrics {
            registry: registry.clone(),
            gauges: GAUGES.map(|name| reg.gauge(name, &[]).cell()),
            outcomes: OUTCOMES.map(|(name, label)| reg.counter(name, label.as_slice()).cell()),
            tasks_ready: reg.counter("dssoc_tasks_ready", &[]).cell(),
            ready_depth_observed: reg.histogram("dssoc_ready_depth_observed", &[]).cell(),
            task_wait_ns: reg.histogram("dssoc_task_wait_ns", &[]).cell(),
            task_skew_ns: reg.histogram("dssoc_task_skew_ns", &[]).cell(),
            per_pe,
            kernels: Vec::new(),
            apps: Vec::new(),
            app_ids: HashMap::new(),
            runs: Vec::new(),
            run: Published::default(),
        }
    }

    /// Starts a run of a scenario named by `names`: resolves (and on
    /// first use registers) the cells of each of its applications.
    pub fn begin_run(&mut self, names: &NameTable) {
        let mut app_of_spec = std::mem::take(&mut self.run.app_of_spec);
        app_of_spec.clear();
        for spec in 0..names.spec_count() {
            let app = names.spec_app(spec).as_str();
            let id = match self.app_ids.get(app) {
                Some(&id) => id,
                None => {
                    let reg = &self.registry;
                    self.apps.push(AppCells {
                        completed: reg.counter("dssoc_apps_completed", &[("app", app)]).cell(),
                        latency_ns: reg.histogram("dssoc_app_latency_ns", &[("app", app)]).cell(),
                    });
                    let id = self.apps.len() as u32 - 1;
                    self.app_ids.insert(app.into(), id);
                    id
                }
            };
            app_of_spec.push(id);
        }
        self.run = Published { app_of_spec, ..Published::default() };
    }

    /// True when the run holds enough unpublished completions (its
    /// completion columns are `done` long) for a mid-run fold.
    #[inline]
    pub fn due(&self, done: usize) -> bool {
        done >= self.run.tasks + PUBLISH_EVERY
    }

    /// Folds everything the run recorded since the last fold into the
    /// cells: completions `done`, the sink's application records and
    /// counters, the ready list's depth samples, and the gauges' moves.
    pub fn publish(
        &mut self,
        p: &mut RunParts,
        done: &DoneColumns,
        names: &NameTable,
        soa: &ScenarioSoa,
    ) {
        // The threaded engine fills the host columns; the DES leaves
        // them empty (start = finish - duration, nothing measured).
        let host = !done.start_ns.is_empty();
        for k in self.run.tasks..done.len() {
            let (col, dur) = (done.col[k] as usize, done.dur_ns[k]);
            let start = if host { done.start_ns[k] } else { done.finish_ns[k] - dur };
            self.task_wait_ns.record(start.saturating_sub(done.ready_ns[k]));
            let pe = &self.per_pe[col];
            pe.completed.inc();
            pe.exec_ns.record(dur);
            let spec = &soa.specs[names.spec_index(InstanceId(done.inst[k] as u64))];
            let cell = done.node[k] as usize * soa.stride + col;
            let kernel = spec.kernel_id[cell];
            if kernel != NO_KERNEL {
                let id = kernel as usize;
                if id >= self.kernels.len() {
                    self.kernels.resize_with(id + 1, || None);
                }
                let reg = &self.registry;
                let name = spec.runfunc[cell].as_str();
                self.kernels[id]
                    .get_or_insert_with(|| {
                        reg.histogram("dssoc_kernel_exec_ns", &[("kernel", name)]).cell()
                    })
                    .record(dur);
            }
            if host && done.measured_ns[k] > 0 {
                self.task_skew_ns.record(dur.abs_diff(done.measured_ns[k]));
            }
        }
        self.run.tasks = done.len();

        let apps = p.sink.apps();
        for rec in &apps[self.run.apps..] {
            let cells = &self.apps[self.run.app_of_spec[names.spec_index(rec.instance)] as usize];
            cells.completed.inc();
            cells.latency_ns.record(rec.latency().as_nanos() as u64);
        }
        self.run.apps = apps.len();

        let depth = p.ready.take_depth_samples();
        if depth.count > 0 {
            self.tasks_ready.add(depth.count);
            self.ready_depth_observed.merge(&depth);
        }
        let now = [p.ready.len(), p.slots.busy_count(), p.slots.failed_count()];
        for ((cell, last), now) in self.gauges.iter().zip(&mut self.run.gauges).zip(now) {
            cell.add(now as i64 - *last);
            *last = now as i64;
        }
        let now = outcome_counts(&p.sink);
        for ((cell, last), now) in self.outcomes.iter().zip(&mut self.run.outcomes).zip(now) {
            cell.add(now - *last);
            *last = now;
        }
    }

    /// Publishes the rest of a run that stopped, however it stopped,
    /// returns the gauges to where the run found them, and counts the
    /// run under its scheduler label if it `finished`.
    pub fn end_run(
        &mut self,
        p: &mut RunParts,
        done: &DoneColumns,
        names: &NameTable,
        soa: &ScenarioSoa,
        finished: Option<&str>,
    ) {
        self.publish(p, done, names, soa);
        self.release_run_gauges();
        if let Some(scheduler) = finished {
            self.run_completed(scheduler);
        }
    }

    fn release_run_gauges(&mut self) {
        for (cell, held) in self.gauges.iter().zip(&mut self.run.gauges) {
            cell.add(-std::mem::take(held));
        }
    }

    /// Counts one finished run under `scheduler`.
    fn run_completed(&mut self, scheduler: &str) {
        match self.runs.iter().find(|(label, _)| &**label == scheduler) {
            Some((_, cell)) => cell.inc(),
            None => {
                let cell = self.registry.counter("dssoc_runs", &[("scheduler", scheduler)]).cell();
                cell.inc();
                self.runs.push((scheduler.into(), cell));
            }
        }
    }
}

/// An engine dropped mid-run (a panic unwinding through it) still
/// releases what the run holds in the gauges.
impl Drop for EngineMetrics {
    fn drop(&mut self) {
        self.release_run_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{DesConfig, DesSimulator};
    use crate::engine::{Emulation, EmulationConfig, OverheadMode, TimingMode};
    use crate::job::CostSpec;
    use crate::sched::{Assignment, FrfsScheduler, PeView, SchedContext, Scheduler};
    use crate::task::ReadyTask;
    use dssoc_appmodel::WorkloadSpec;
    use dssoc_platform::cost::CostTable;
    use dssoc_platform::presets::zcu102;

    /// The registry's `dssoc_tasks_completed`, over every PE.
    fn completed(registry: &MetricsRegistry) -> usize {
        let snap = registry.snapshot();
        let series = snap.samples.iter().filter(|s| s.name == "dssoc_tasks_completed");
        series.map(|s| s.value as usize).sum()
    }

    /// FRFS, checking at every call that the registry's
    /// `dssoc_tasks_completed` trails the run by fewer than
    /// `PUBLISH_EVERY` completions. Fault-free and without reservation
    /// queues, the run's completions so far are the tasks this policy
    /// dispatched minus the PEs still busy.
    struct Scraper {
        registry: MetricsRegistry,
        dispatched: usize,
        /// Calls that saw a nonzero published count.
        live: usize,
    }

    impl Scheduler for Scraper {
        fn name(&self) -> &'static str {
            "scraper"
        }

        fn schedule(
            &mut self,
            ready: &[ReadyTask],
            pes: &[PeView<'_>],
            ctx: &SchedContext<'_>,
        ) -> Vec<Assignment> {
            let seen = completed(&self.registry);
            let done = self.dispatched - pes.iter().filter(|v| !v.idle).count();
            assert!(seen <= done, "published {seen} of {done} completions");
            assert!(done - seen < PUBLISH_EVERY, "published {seen} of {done} completions");
            self.live += usize::from(seen > 0);
            let assignments = FrfsScheduler::new().schedule(ready, pes, ctx);
            self.dispatched += assignments.len();
            assignments
        }
    }

    /// Both engines publish completions mid-run within the bound.
    #[test]
    fn mid_run_scrapes_lag_by_less_than_the_publish_bound() {
        let (library, _kernels) = dssoc_apps::standard_library();
        let platform = zcu102(3, 0);
        let mut table = CostTable::new();
        for node in &library.get("range_detection").expect("reference app").nodes {
            for pe in &platform.pes {
                if let Some(p) = node.platform(&pe.platform_key) {
                    let d = Duration::from_micros(40 + 15 * node.index as u64);
                    table.set(p.runfunc.clone(), pe.class_name(), d);
                }
            }
        }
        // ~4 publish bounds of tasks.
        let workload = WorkloadSpec::validation([("range_detection", PUBLISH_EVERY * 4 / 6)])
            .generate(&library)
            .expect("workload");
        for des in [true, false] {
            let registry = MetricsRegistry::new();
            let mut scraper = Scraper { registry: registry.clone(), dispatched: 0, live: 0 };
            let stats = if des {
                let config = DesConfig {
                    cost: CostSpec::table(table.clone()),
                    metrics: Some(registry.clone()),
                    ..DesConfig::default()
                };
                let mut sim = DesSimulator::new(platform.clone(), config).expect("platform");
                sim.run(&mut scraper, &workload, &library)
            } else {
                let config = EmulationConfig {
                    timing: TimingMode::Modeled,
                    overhead: OverheadMode::None,
                    cost: CostSpec::table(table.clone()),
                    reservation_depth: 0,
                    trace: None,
                    faults: None,
                    metrics: Some(registry.clone()),
                };
                let mut emu = Emulation::with_config(platform.clone(), config).expect("platform");
                emu.run(&mut scraper, &workload, &library)
            }
            .expect("run");
            assert!(scraper.live > 0, "des={des}: no scrape saw a published completion");
            assert_eq!(completed(&registry), stats.tasks.len(), "des={des}");
        }
    }
}
