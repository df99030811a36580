//! Exec-core metrics instrumentation.
//!
//! [`ExecMetrics`] is the metrics counterpart of
//! [`ExecTracer`](crate::exec::ExecTracer): one optional per-run handle
//! shared (via `Rc`) by the pieces of an engine loop — its
//! [`ReadyList`](crate::exec::ReadyList), its
//! [`PeSlots`](crate::exec::PeSlots), its
//! [`CompletionSink`](crate::exec::CompletionSink). Disabled costs one
//! branch per would-be sample. Enabled, every sample lands in
//! producer-private cells of a shared [`MetricsRegistry`], so another
//! thread can snapshot the registry mid-run while the engine records
//! lock-free.
//!
//! Because the handle is only driven from the shared exec-core funnels,
//! the threaded engine and the DES publish the *same* metric families
//! from the same touchpoints — identical values on deterministic
//! configs, which `tests/metrics_differential.rs` asserts. The only
//! families exempt from that equality are `dssoc_task_skew_ns` (needs a
//! real measured duration, which only the threaded engine has) and
//! `dssoc_runs` (labeled by the engine-decorated scheduler name).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::instance::AppInstance;
use dssoc_metrics::{CounterCell, GaugeCell, HistogramCell, MetricsRegistry};
use dssoc_platform::pe::{PeId, PlatformConfig};
use dssoc_trace::FaultKind;

use crate::intern::Name;
use crate::stats::AppRecord;

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

/// Per-PE cells, indexed by `PeId`.
struct PeCells {
    completed: CounterCell,
    exec_ns: HistogramCell,
}

/// Per-application cells, keyed by interned app name.
struct AppCells {
    completed: CounterCell,
    latency_ns: HistogramCell,
}

struct Inner {
    registry: MetricsRegistry,
    tasks_ready: CounterCell,
    ready_depth: GaugeCell,
    ready_depth_observed: HistogramCell,
    task_wait_ns: HistogramCell,
    task_skew_ns: HistogramCell,
    pes_busy: GaugeCell,
    pes_quarantined: GaugeCell,
    per_pe: Vec<Option<PeCells>>,
    apps: HashMap<Name, AppCells>,
    /// Per-kernel execution histograms, registered on first completion
    /// (the kernel set is only known once tasks run).
    kernels: RefCell<HashMap<Name, HistogramCell>>,
    sched_invocations: CounterCell,
    overhead_ns: [CounterCell; 4],
    faults: [CounterCell; 5],
    retries: CounterCell,
    quarantines: CounterCell,
    degraded: CounterCell,
    aborted: CounterCell,
    survivals: CounterCell,
}

/// Optional per-run metrics recording handle (see the module docs).
#[derive(Clone, Default)]
pub struct ExecMetrics {
    inner: Option<Rc<Inner>>,
}

impl std::fmt::Debug for ExecMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecMetrics").field("enabled", &self.inner.is_some()).finish()
    }
}

impl ExecMetrics {
    /// The no-op handle (what uninstrumented runs use).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Registers this run's cells on `registry`. Cells are
    /// producer-private: each run gets fresh ones, retired into the
    /// family aggregates when the run's handle drops.
    pub fn attach(
        registry: &MetricsRegistry,
        platform: &PlatformConfig,
        instances: &[Arc<AppInstance>],
    ) -> Self {
        let reg = registry;
        let mut per_pe: Vec<Option<PeCells>> = Vec::new();
        for pe in &platform.pes {
            let idx = pe.id.0 as usize;
            if idx >= per_pe.len() {
                per_pe.resize_with(idx + 1, || None);
            }
            per_pe[idx] = Some(PeCells {
                completed: reg.counter("dssoc_tasks_completed", &[("pe", &pe.name)]).cell(),
                exec_ns: reg.histogram("dssoc_task_exec_ns", &[("pe", &pe.name)]).cell(),
            });
        }
        let mut apps: HashMap<Name, AppCells> = HashMap::new();
        for inst in instances {
            let name = Name::from(inst.spec.name.as_str());
            apps.entry(name).or_insert_with(|| AppCells {
                completed: reg.counter("dssoc_apps_completed", &[("app", &inst.spec.name)]).cell(),
                latency_ns: reg
                    .histogram("dssoc_app_latency_ns", &[("app", &inst.spec.name)])
                    .cell(),
            });
        }
        let overhead_ns = [
            OverheadPhase::Monitor,
            OverheadPhase::Update,
            OverheadPhase::Schedule,
            OverheadPhase::Dispatch,
        ]
        .map(|p| reg.counter("dssoc_overhead_ns", &[("phase", p.name())]).cell());
        let faults = ["transient", "permanent", "hang", "watchdog", "exec"]
            .map(|kind| reg.counter("dssoc_faults", &[("kind", kind)]).cell());
        ExecMetrics {
            inner: Some(Rc::new(Inner {
                registry: registry.clone(),
                tasks_ready: reg.counter("dssoc_tasks_ready", &[]).cell(),
                ready_depth: reg.gauge("dssoc_ready_depth", &[]).cell(),
                ready_depth_observed: reg.histogram("dssoc_ready_depth_observed", &[]).cell(),
                task_wait_ns: reg.histogram("dssoc_task_wait_ns", &[]).cell(),
                task_skew_ns: reg.histogram("dssoc_task_skew_ns", &[]).cell(),
                pes_busy: reg.gauge("dssoc_pes_busy", &[]).cell(),
                pes_quarantined: reg.gauge("dssoc_pes_quarantined", &[]).cell(),
                per_pe,
                apps,
                kernels: RefCell::new(HashMap::new()),
                sched_invocations: reg.counter("dssoc_sched_invocations", &[]).cell(),
                overhead_ns,
                faults,
                retries: reg.counter("dssoc_retries", &[]).cell(),
                quarantines: reg.counter("dssoc_quarantines", &[]).cell(),
                degraded: reg.counter("dssoc_degraded_dispatches", &[]).cell(),
                aborted: reg.counter("dssoc_apps_aborted", &[]).cell(),
                survivals: reg.counter("dssoc_fault_survivals", &[]).cell(),
            })),
        }
    }

    /// True when samples are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A task entered the ready list; `depth` is the list length after
    /// the push.
    #[inline]
    pub fn task_ready(&self, depth: usize) {
        if let Some(m) = &self.inner {
            m.tasks_ready.inc();
            m.ready_depth.inc();
            m.ready_depth_observed.record(depth as u64);
        }
    }

    /// `n` tasks left the ready list (dispatched or aborted).
    #[inline]
    pub fn tasks_unready(&self, n: usize) {
        if let Some(m) = &self.inner {
            m.ready_depth.add(-(n as i64));
        }
    }

    /// A PE went busy / returned to idle / was quarantined.
    #[inline]
    pub fn pe_busy(&self) {
        if let Some(m) = &self.inner {
            m.pes_busy.inc();
        }
    }

    #[inline]
    pub fn pe_idle(&self) {
        if let Some(m) = &self.inner {
            m.pes_busy.dec();
        }
    }

    #[inline]
    pub fn pe_quarantined(&self) {
        if let Some(m) = &self.inner {
            m.pes_quarantined.inc();
        }
    }

    /// A task completed on `pe` after waiting `wait` in the ready list:
    /// per-PE throughput and execution time, queue wait, per-kernel
    /// execution time, and (threaded engine only, where a real
    /// `measured` duration exists) modeled-vs-measured skew. Takes the
    /// raw fields so the DES can sample without building a
    /// [`TaskRecord`](crate::stats::TaskRecord).
    pub fn task_completed(
        &self,
        pe: PeId,
        wait: Duration,
        modeled: Duration,
        measured: Duration,
        kernel: &Name,
    ) {
        let Some(m) = &self.inner else { return };
        m.task_wait_ns.record(wait.as_nanos() as u64);
        if let Some(Some(cells)) = m.per_pe.get(pe.0 as usize) {
            cells.completed.inc();
            cells.exec_ns.record(modeled.as_nanos() as u64);
        }
        if !kernel.as_str().is_empty() {
            let mut kernels = m.kernels.borrow_mut();
            let cell = kernels.entry(kernel.clone()).or_insert_with(|| {
                m.registry.histogram("dssoc_kernel_exec_ns", &[("kernel", kernel)]).cell()
            });
            cell.record(modeled.as_nanos() as u64);
        }
        if measured > Duration::ZERO {
            m.task_skew_ns.record(modeled.abs_diff(measured).as_nanos() as u64);
        }
    }

    /// An application completed.
    pub fn app_completed(&self, rec: &AppRecord) {
        let Some(m) = &self.inner else { return };
        if let Some(cells) = m.apps.get(&rec.app) {
            cells.completed.inc();
            cells.latency_ns.record(rec.latency().as_nanos() as u64);
        }
    }

    /// One scheduler invocation.
    #[inline]
    pub fn sched_invocation(&self) {
        if let Some(m) = &self.inner {
            m.sched_invocations.inc();
        }
    }

    /// Overhead charged to a workload-manager phase.
    #[inline]
    pub fn overhead(&self, phase: OverheadPhase, d: Duration) {
        if let Some(m) = &self.inner {
            m.overhead_ns[phase as usize].add(d.as_nanos() as u64);
        }
    }

    /// One injected fault of `kind`.
    pub fn fault(&self, kind: FaultKind) {
        if let Some(m) = &self.inner {
            let idx = match kind {
                FaultKind::Transient => 0,
                FaultKind::Permanent => 1,
                FaultKind::Hang => 2,
                FaultKind::Watchdog => 3,
                FaultKind::Exec => 4,
            };
            m.faults[idx].inc();
        }
    }

    #[inline]
    pub fn retry(&self) {
        if let Some(m) = &self.inner {
            m.retries.inc();
        }
    }

    #[inline]
    pub fn quarantine(&self) {
        if let Some(m) = &self.inner {
            m.quarantines.inc();
        }
    }

    #[inline]
    pub fn degraded(&self) {
        if let Some(m) = &self.inner {
            m.degraded.inc();
        }
    }

    #[inline]
    pub fn abort(&self) {
        if let Some(m) = &self.inner {
            m.aborted.inc();
        }
    }

    #[inline]
    pub fn survival(&self) {
        if let Some(m) = &self.inner {
            m.survivals.inc();
        }
    }

    /// One finished run under `scheduler` (a transient cell: created,
    /// bumped, and immediately retired into the family aggregate).
    pub fn run_completed(&self, scheduler: &str) {
        if let Some(m) = &self.inner {
            m.registry.counter("dssoc_runs", &[("scheduler", scheduler)]).cell().inc();
        }
    }
}
