//! The scheduling library and the user-scheduler integration point.
//!
//! "At run-time, the user is given the option to select either one of the
//! available scheduling policies from the library or use the custom
//! scheduling algorithm. The default scheduling library is composed of
//! minimum execution time (MET), first ready-first start (FRFS), earliest
//! finish time (EFT), and random (RANDOM)." (paper §II-C)
//!
//! A policy receives a [`ReadyView`] of the ready list and a [`PeView`]
//! of every PE's availability (the paper's resource-handler states), and
//! appends task→PE [`Assignment`]s. Integrating a new algorithm means
//! implementing [`Scheduler::schedule_into`] — the emulation engine
//! dispatches whatever it returns, after checking the safety contract
//! (PEs with room only, no double assignment, platform compatibility).
//!
//! The view reads the engines' own run state: the seq-ordered ready
//! entries and the compiled scenario's dense `[node][PE column]` tables
//! ([`ScenarioSoa`]). Compatibility is the modeled-cost sentinel and an
//! estimate a few array reads, so a policy pays for its own algorithm
//! — MET's scan of every (ready task, idle compatible PE) pair, EFT's of
//! every (ready task, compatible PE) pair — and not for string lookups.
//! The library policies keep their per-call scratch in `self` and
//! allocate nothing per call.

mod eft;
mod frfs;
mod met;
mod random;

pub use eft::EftScheduler;
pub use frfs::FrfsScheduler;
pub use met::MetScheduler;
pub use random::RandomScheduler;

use std::collections::BTreeMap;
use std::time::Duration;

use dssoc_appmodel::instance::InstanceId;
use dssoc_platform::pe::{PeDescriptor, PeId};

use crate::arena::DenseReady;
use crate::intern::{Name, NameTable};
use crate::soa::{ScenarioSoa, SpecSoa, INCOMPATIBLE};
use crate::time::SimTime;

/// What the scheduler sees of one PE. Engines pass one view per PE in
/// platform order, so `pes[c]` is PE column `c` of the [`ReadyView`]
/// queries.
#[derive(Debug, Clone)]
pub struct PeView<'a> {
    /// The PE's descriptor (type, speed, platform key).
    pub pe: &'a PeDescriptor,
    /// True if the PE can take an assignment now: idle, or busy with
    /// reservation-queue room; never when quarantined.
    pub idle: bool,
    /// Estimated emulation time at which the PE becomes available:
    /// `now` when idle, otherwise the running task's projected finish.
    pub available_at: SimTime,
}

/// One task→PE mapping decided by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index into the [`ReadyView`] passed to [`Scheduler::schedule_into`].
    pub ready_idx: usize,
    /// Destination PE (must be idle and compatible).
    pub pe: PeId,
}

/// A pre-resolved `(runfunc, PE class)` key into an [`EstimateBook`]
/// (see [`EstimateBook::slot_of`]). Only meaningful for the book that
/// issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimateSlot(u32);

impl EstimateSlot {
    /// The raw slot index, for engines that pack slots into dense
    /// per-scenario arrays (the DES SoA tables).
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a slot from [`Self::raw`]. Only meaningful against the
    /// book (or a clone of the book) that issued the raw index.
    pub(crate) fn from_raw(v: u32) -> Self {
        EstimateSlot(v)
    }
}

/// Execution-time estimates learned from completed tasks, used by
/// cost-aware policies (MET, EFT). Keyed by `(runfunc, PE class)`;
/// an exponentially weighted moving average smooths noise.
///
/// The string-keyed maps resolve a key to a stable slot in a value
/// vector. A compiled scenario resolves each of its `(runfunc, class)`
/// pairs once via [`Self::slot_of`]; both engines then feed
/// observations through [`Self::observe_at`], so no name is looked up
/// per completed task.
#[derive(Debug, Default, Clone)]
pub struct EstimateBook {
    // runfunc -> PE class -> slot in `values` (nested so lookups borrow).
    slots: BTreeMap<String, BTreeMap<String, EstimateSlot>>,
    // EWMA durations; `None` = slot reserved but nothing observed yet.
    pub(crate) values: Vec<Option<Duration>>,
}

impl EstimateBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `(runfunc, class)`, reserving one on first sight.
    /// Reserving is not observing: [`ReadyView::estimate`] ignores slots
    /// without observations.
    pub fn slot_of(&mut self, runfunc: &str, class: &str) -> EstimateSlot {
        let per_class = match self.slots.get_mut(runfunc) {
            Some(m) => m,
            None => self.slots.entry(runfunc.to_string()).or_default(),
        };
        match per_class.get(class) {
            Some(&slot) => slot,
            None => {
                let slot = EstimateSlot(self.values.len() as u32);
                self.values.push(None);
                per_class.insert(class.to_string(), slot);
                slot
            }
        }
    }

    /// Records an observed modeled duration for `(runfunc, class)`.
    pub fn observe(&mut self, runfunc: &str, class: &str, d: Duration) {
        let slot = self.slot_of(runfunc, class);
        self.observe_at(slot, d);
    }

    /// Records an observed modeled duration at a slot previously
    /// resolved by [`Self::slot_of`] — the hash-free fast path. Same
    /// EWMA arithmetic as [`Self::observe`], so mixing the two paths
    /// (as the two engines do) yields identical books.
    pub fn observe_at(&mut self, slot: EstimateSlot, d: Duration) {
        let entry = &mut self.values[slot.0 as usize];
        // alpha = 0.25
        *entry = Some(match entry {
            Some(prev) => {
                Duration::from_secs_f64(0.75 * prev.as_secs_f64() + 0.25 * d.as_secs_f64())
            }
            None => d,
        });
    }

    /// Number of `(runfunc, class)` pairs observed so far.
    pub fn len(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-invocation context handed to policies.
#[derive(Debug, Clone, Copy)]
pub struct SchedContext {
    /// Current emulation time.
    pub now: SimTime,
}

/// The ready list as a policy reads it: the engine's pending entries in
/// readiness (`seq`) order, with their per-PE compatibility and
/// execution-time estimates from the compiled scenario's dense tables.
/// Index `i` is what [`Assignment::ready_idx`] refers to; PE column
/// `col` is `pes[col]` of the same call.
#[derive(Debug, Clone, Copy)]
pub struct ReadyView<'a> {
    entries: &'a [DenseReady],
    soa: &'a ScenarioSoa,
    names: &'a NameTable,
    estimates: &'a EstimateBook,
}

impl<'a> ReadyView<'a> {
    /// A view of `entries` (seq-ordered, as engines hold them) over a
    /// compiled scenario's tables and the run's learned estimates.
    pub fn new(
        entries: &'a [DenseReady],
        soa: &'a ScenarioSoa,
        names: &'a NameTable,
        estimates: &'a EstimateBook,
    ) -> Self {
        ReadyView { entries, soa, names, estimates }
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no task is ready.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// When ready task `i` became ready.
    pub fn ready_at(&self, i: usize) -> SimTime {
        SimTime(self.entries[i].ready_ns)
    }

    /// Readiness sequence number of ready task `i` (ascending in `i`).
    pub fn seq(&self, i: usize) -> u64 {
        self.entries[i].seq
    }

    /// `(instance, DAG node index)` of ready task `i`.
    pub fn task(&self, i: usize) -> (InstanceId, usize) {
        let e = &self.entries[i];
        (InstanceId(e.inst as u64), e.node as usize)
    }

    /// The application name of ready task `i`.
    pub fn app(&self, i: usize) -> &'a Name {
        self.names.app(InstanceId(self.entries[i].inst as u64))
    }

    /// The DAG node name of ready task `i`.
    pub fn node_name(&self, i: usize) -> &'a Name {
        let (inst, node) = self.task(i);
        self.names.node(inst, node)
    }

    /// Ready task `i`'s per-PE cells, resolved once for a scan over
    /// PE columns.
    #[inline]
    pub fn row(&self, i: usize) -> ReadyRow<'a> {
        let e = &self.entries[i];
        let spec = &self.soa.specs[self.names.spec_index(InstanceId(e.inst as u64))];
        let base = e.node as usize * self.soa.stride;
        ReadyRow { soa: self.soa, spec, base, estimates: self.estimates }
    }

    /// True if ready task `i` can run on PE column `col`.
    pub fn compatible(&self, i: usize, col: usize) -> bool {
        self.row(i).compatible(col)
    }

    /// Ready task `i`'s estimated execution time on PE column `col`, or
    /// `None` where it cannot run there (see [`ReadyRow::estimate`]).
    pub fn estimate(&self, i: usize, col: usize) -> Option<Duration> {
        self.row(i).estimate(col)
    }
}

/// One ready task's cells of the scenario's `[node][PE column]` tables
/// (see [`ReadyView::row`]).
#[derive(Debug, Clone, Copy)]
pub struct ReadyRow<'a> {
    soa: &'a ScenarioSoa,
    spec: &'a SpecSoa,
    base: usize,
    estimates: &'a EstimateBook,
}

impl ReadyRow<'_> {
    /// True if the task can run on PE column `col`: its modeled cost
    /// there is not the [`INCOMPATIBLE`] sentinel.
    #[inline]
    pub fn compatible(&self, col: usize) -> bool {
        self.spec.cost_ns[self.base + col] != INCOMPATIBLE
    }

    /// The task's estimated execution time on PE column `col`, `None`
    /// where it cannot run there. Priority: the JSON's per-platform
    /// `mean_exec_us`, then the observed EWMA, then a speed-scaled
    /// default (100 µs of host work) — so cost-aware policies degrade
    /// gracefully on unprofiled kernels.
    #[inline]
    pub fn estimate(&self, col: usize) -> Option<Duration> {
        self.compatible(col)
            .then(|| self.soa.cell_estimate(self.spec, self.base + col, col, self.estimates))
    }
}

/// A scheduling policy.
pub trait Scheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Maps ready tasks onto PEs by appending to `out` (empty on entry;
    /// engines reuse it across calls). Contract:
    ///
    /// * only assign to PEs with `idle == true`;
    /// * at most one assignment per PE and per ready task;
    /// * `ready.compatible(a.ready_idx, c)` must hold for `a.pe`'s column `c`.
    ///
    /// `ready` is ordered by ascending `seq` (readiness order), so
    /// policies can rely on index order instead of sorting — which is
    /// what keeps FRFS's per-invocation cost proportional to the PE
    /// count (the paper's flat Fig. 10b line).
    ///
    /// Tasks left unassigned stay in the ready list for the next round.
    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    );

    /// True when this policy is *strict FIFO, first idle compatible PE
    /// in descriptor order* — i.e. its assignments are exactly what
    /// [`FrfsScheduler`] produces from the documented contract, with no
    /// internal state carried between invocations. An engine may then
    /// place ready tasks itself instead of calling the policy: both
    /// engines do so on a ≤64-PE platform (the threaded one without
    /// reservation queues), faults, trace and metrics included,
    /// intersecting each task's compatibility mask with its idle-PE mask
    /// (no `PeView` materialization, no virtual dispatch, no contract
    /// validation). Observable behavior must be indistinguishable.
    /// `schedule_into` remains the source of truth, must stay
    /// equivalent, and is what larger platforms call.
    fn dense_fifo(&self) -> bool {
        false
    }

    /// True when the policy reads estimates ([`ReadyView::estimate`]).
    /// Engines use this to skip maintaining the learned-estimate EWMA
    /// when nothing can observe it (the book is scratch state, not part
    /// of the run's output). The conservative default is `true`; only
    /// policies that provably never read estimates should override.
    fn uses_estimates(&self) -> bool {
        true
    }
}

/// Builds a library scheduler by name (`"frfs"`, `"met"`, `"eft"`,
/// `"random"`), mirroring the paper's run-time policy selection.
pub fn by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name.to_ascii_lowercase().as_str() {
        "frfs" => Some(Box::new(FrfsScheduler::new())),
        "met" => Some(Box::new(MetScheduler::new())),
        "eft" => Some(Box::new(EftScheduler::new())),
        "random" => Some(Box::new(RandomScheduler::seeded(0))),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for scheduler unit tests.

    use super::*;
    use crate::job::CostSpec;
    use dssoc_appmodel::app::ApplicationSpec;
    use dssoc_appmodel::instance::AppInstance;
    use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson};
    use dssoc_appmodel::registry::KernelRegistry;
    use dssoc_platform::cost::CostTable;
    use dssoc_platform::pe::PlatformConfig;
    use dssoc_platform::presets::zcu102;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// One instance of `n` independent nodes; node `i` supports "cpu",
    /// and even-indexed nodes also support "fft". Per-platform
    /// estimates: cpu = 100 µs, fft = `fft_us` µs.
    pub fn fixture_instance(n: usize, fft_us: f64) -> Arc<AppInstance> {
        let mut reg = KernelRegistry::new();
        reg.register_fn("t.so", "kc", |_| Ok(()));
        reg.register_fn("t.so", "ka", |_| Ok(()));
        let mut dag = BTreeMap::new();
        for i in 0..n {
            let mut platforms = vec![PlatformJson {
                name: "cpu".into(),
                runfunc: "kc".into(),
                shared_object: None,
                mean_exec_us: Some(100.0),
            }];
            if i % 2 == 0 {
                platforms.push(PlatformJson {
                    name: "fft".into(),
                    runfunc: "ka".into(),
                    shared_object: None,
                    mean_exec_us: Some(fft_us),
                });
            }
            dag.insert(
                format!("n{i:03}"),
                NodeJson { arguments: vec![], predecessors: vec![], successors: vec![], platforms },
            );
        }
        let json = AppJson {
            app_name: "fixture".into(),
            shared_object: "t.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        let spec = ApplicationSpec::from_json(&json, &reg).unwrap();
        Arc::new(AppInstance::instantiate(spec, InstanceId(0), std::time::Duration::ZERO).unwrap())
    }

    /// [`fixture_instance`]'s nodes, all ready (node `i` with seq `i`),
    /// compiled against a 2-CPU + 1-FFT platform.
    pub struct Fixture {
        pub platform: PlatformConfig,
        pub names: NameTable,
        pub soa: ScenarioSoa,
        pub book: EstimateBook,
        pub entries: Vec<DenseReady>,
    }

    impl Fixture {
        pub fn new(n: usize, fft_us: f64) -> Self {
            let platform = zcu102(2, 1);
            let specs = [Arc::clone(&fixture_instance(n, fft_us).spec)];
            let names = NameTable::new(specs.to_vec(), vec![0], &platform);
            let mut book = EstimateBook::new();
            let cost = CostSpec::table(CostTable::new());
            let soa = ScenarioSoa::build(&specs, &platform, &cost, &mut book);
            let entries = (0..n as u32)
                .map(|i| DenseReady { inst: 0, node: i, ready_ns: i as u64, seq: i as u64 })
                .collect();
            Fixture { platform, names, soa, book, entries }
        }

        /// The policy's view of the (possibly trimmed) entries.
        pub fn view(&self) -> ReadyView<'_> {
            ReadyView::new(&self.entries, &self.soa, &self.names, &self.book)
        }

        /// All-idle PE views of the platform.
        pub fn idle_views(&self) -> Vec<PeView<'_>> {
            let pes = self.platform.pes.iter();
            pes.map(|pe| PeView { pe, idle: true, available_at: SimTime::ZERO }).collect()
        }
    }

    /// One policy call at time zero; checks the contract on the result.
    pub fn call(
        s: &mut dyn Scheduler,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
    ) -> Vec<Assignment> {
        let mut out = Vec::new();
        s.schedule_into(ready, pes, &SchedContext { now: SimTime::ZERO }, &mut out);
        assert_contract(ready, pes, &out);
        out
    }

    /// Checks the scheduler contract on a result.
    pub fn assert_contract(ready: &ReadyView<'_>, pes: &[PeView<'_>], out: &[Assignment]) {
        let mut used_pe = std::collections::HashSet::new();
        let mut used_task = std::collections::HashSet::new();
        for a in out {
            let col = pes.iter().position(|v| v.pe.id == a.pe).expect("assignment to unknown PE");
            assert!(pes[col].idle, "assigned to busy PE");
            assert!(used_pe.insert(a.pe), "PE assigned twice");
            assert!(used_task.insert(a.ready_idx), "task assigned twice");
            assert!(ready.compatible(a.ready_idx, col), "incompatible assignment");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn by_name_builds_library_policies() {
        for (name, expect) in
            [("frfs", "FRFS"), ("MET", "MET"), ("eft", "EFT"), ("Random", "RANDOM")]
        {
            let s = by_name(name).unwrap_or_else(|| panic!("policy {name}"));
            assert_eq!(s.name(), expect);
        }
        assert!(by_name("heft").is_none());
    }

    #[test]
    fn estimate_book_priorities() {
        let mut fx = Fixture::new(2, 70.0);
        let us = std::time::Duration::from_micros;
        // JSON mean_exec wins even after observations.
        fx.book.observe("kc", fx.platform.pes[0].class_name(), us(5));
        let ready = fx.view();
        assert_eq!(ready.estimate(0, 0), Some(us(100)));
        assert_eq!(ready.estimate(0, 2), Some(us(70)));
        // The odd task doesn't support fft.
        assert!(!ready.compatible(1, 2));
        assert_eq!(ready.estimate(1, 2), None);
        assert_eq!((ready.app(1).as_str(), ready.node_name(1).as_str()), ("fixture", "n001"));
        assert_eq!(
            (ready.task(1), ready.seq(1), ready.ready_at(1)),
            ((InstanceId(0), 1), 1, SimTime(1))
        );

        // EWMA path: a kernel with no JSON estimate.
        let mut book = EstimateBook::new();
        book.observe("kx", "cortex-a53", us(40));
        book.observe("kx", "cortex-a53", us(80));
        let d = book.values[book.slots["kx"]["cortex-a53"].0 as usize].unwrap();
        assert!(d > us(40) && d < us(80));
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn idle_compatible_filters() {
        let fx = Fixture::new(2, 70.0);
        let mut views = fx.idle_views();
        let ready = fx.view();
        let idle_compatible = |views: &[PeView<'_>], i: usize| -> Vec<usize> {
            (0..views.len()).filter(|&col| views[col].idle && ready.compatible(i, col)).collect()
        };
        // Even task: all three PEs compatible.
        assert_eq!(idle_compatible(&views, 0), vec![0, 1, 2]);
        // Odd task: only the two CPU PEs.
        assert_eq!(idle_compatible(&views, 1), vec![0, 1]);
        // Busy PEs are excluded.
        views[0].idle = false;
        assert_eq!(idle_compatible(&views, 0), vec![1, 2]);
    }
}
