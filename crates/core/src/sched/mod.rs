//! The scheduling library and the user-scheduler integration point.
//!
//! "At run-time, the user is given the option to select either one of the
//! available scheduling policies from the library or use the custom
//! scheduling algorithm. The default scheduling library is composed of
//! minimum execution time (MET), first ready-first start (FRFS), earliest
//! finish time (EFT), and random (RANDOM)." (paper §II-C)
//!
//! A policy receives the ready task list and a view of every PE's
//! availability (the paper's resource-handler states), and returns
//! task→PE assignments. Integrating a new algorithm means implementing
//! [`Scheduler`] — the emulation engine dispatches whatever it returns,
//! enforcing the safety contract (idle PEs only, no double assignment,
//! platform compatibility) with debug assertions.

mod eft;
mod frfs;
mod met;
mod random;

pub use eft::EftScheduler;
pub use frfs::FrfsScheduler;
pub use met::MetScheduler;
pub use random::RandomScheduler;

use std::collections::HashMap;
use std::time::Duration;

use dssoc_platform::pe::{PeDescriptor, PeId};

use crate::task::{ReadyTask, Task};
use crate::time::SimTime;

/// What the scheduler sees of one PE.
#[derive(Debug, Clone)]
pub struct PeView<'a> {
    /// The PE's descriptor (type, speed, platform key).
    pub pe: &'a PeDescriptor,
    /// True if the resource handler reports *idle*.
    pub idle: bool,
    /// Estimated emulation time at which the PE becomes available:
    /// `now` when idle, otherwise the running task's projected finish.
    pub available_at: SimTime,
}

/// One task→PE mapping decided by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index into the ready slice passed to [`Scheduler::schedule`].
    pub ready_idx: usize,
    /// Destination PE (must be idle and compatible).
    pub pe: PeId,
}

/// FNV-1a for the estimate book's keys: the book is updated and queried
/// per completed task in both engines, its keys are short kernel/class
/// names from trusted application JSON, and nothing iterates it in an
/// order-sensitive way — a multiply-xor hash beats SipHash here.
#[derive(Debug, Clone, Copy, Default)]
struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = Fnv1a;
    fn build_hasher(&self) -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

#[derive(Debug)]
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
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
/// vector; engines that know their `(runfunc, class)` pairs up front
/// (the DES does) resolve each once via [`Self::slot_of`] and feed
/// observations through [`Self::observe_at`], skipping both hash
/// lookups on the per-completion path.
#[derive(Debug, Default, Clone)]
pub struct EstimateBook {
    // runfunc -> PE class -> slot in `values` (nested so lookups borrow).
    slots: HashMap<String, HashMap<String, EstimateSlot, FnvBuild>, FnvBuild>,
    // EWMA durations; `None` = slot reserved but nothing observed yet.
    pub(crate) values: Vec<Option<Duration>>,
}

impl EstimateBook {
    /// Empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `(runfunc, class)`, reserving one on first sight.
    /// Reserving is not observing: [`Self::estimate`] ignores slots
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

    /// Estimates `task`'s execution time on `pe`.
    ///
    /// Priority: the JSON's per-platform `mean_exec_us`, then the
    /// observed EWMA, then a speed-scaled default (100 µs of host work) —
    /// so cost-aware policies degrade gracefully on unprofiled kernels.
    /// Returns `None` if the task does not support the PE at all.
    pub fn estimate(&self, task: &Task, pe: &PeDescriptor) -> Option<Duration> {
        let platform = task.node().platform(&pe.platform_key)?;
        if let Some(d) = platform.mean_exec {
            return Some(d);
        }
        if let Some(d) = self
            .slots
            .get(&platform.runfunc)
            .and_then(|m| m.get(pe.class_name()))
            .and_then(|slot| self.values[slot.0 as usize])
        {
            return Some(d);
        }
        Some(Duration::from_secs_f64(100e-6 / pe.speed()))
    }

    /// Makes this book a copy of `proto` (slot map and values), reusing
    /// existing allocations where the collections allow. The warm-run
    /// reset path for books whose slot map came from a *different*
    /// scenario (or nowhere).
    pub fn reset_from(&mut self, proto: &EstimateBook) {
        self.slots.clone_from(&proto.slots);
        self.values.clone_from(&proto.values);
    }

    /// Values-only reset: overwrites the EWMA vector from `proto`,
    /// leaving the slot map untouched. Sound only when this book's slot
    /// map is already identical to `proto`'s — the DES guarantees that
    /// by keying reuse on the compiled scenario's fingerprint (slots are
    /// never added during a run; only [`Self::observe_at`] runs there).
    pub fn reset_values_from(&mut self, proto: &EstimateBook) {
        debug_assert_eq!(self.values.len(), proto.values.len());
        self.values.clone_from(&proto.values);
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
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current emulation time.
    pub now: SimTime,
    /// Learned execution-time estimates.
    pub estimates: &'a EstimateBook,
}

/// A scheduling policy.
pub trait Scheduler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Maps ready tasks onto PEs. Contract:
    ///
    /// * only assign to PEs with `idle == true`;
    /// * at most one assignment per PE and per ready task;
    /// * `ready[a.ready_idx]` must support `pe.platform_key`.
    ///
    /// The engine guarantees `ready` is ordered by ascending `seq`
    /// (readiness order), so policies can rely on slice order instead of
    /// sorting — which is what keeps FRFS's per-invocation cost
    /// proportional to the PE count (the paper's flat Fig. 10b line).
    ///
    /// Tasks left unassigned stay in the ready list for the next round.
    fn schedule(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
    ) -> Vec<Assignment>;

    /// Allocation-aware variant: append assignments to `out` (cleared by
    /// the caller) instead of returning a fresh vector. Hot-loop engines
    /// call this with a reused buffer; the default forwards to
    /// [`Self::schedule`], so existing policies need no change. Policies
    /// on an engine's per-event path should override it and implement
    /// `schedule` as a thin wrapper.
    fn schedule_into(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
        out: &mut Vec<Assignment>,
    ) {
        out.extend(self.schedule(ready, pes, ctx));
    }

    /// True when this policy is *strict FIFO, first idle compatible PE
    /// in descriptor order* — i.e. its assignments are exactly what
    /// [`FrfsScheduler`] produces from the documented contract, with no
    /// internal state carried between invocations. An engine may then
    /// place ready tasks itself instead of calling the policy: the DES
    /// does so on every run on a ≤64-PE platform, faults, trace and
    /// metrics included, intersecting each task's compatibility mask
    /// with its idle-PE mask (no `PeView` materialization, no virtual
    /// dispatch, no contract validation). Observable behavior must be
    /// indistinguishable. `schedule`/`schedule_into` remain the source
    /// of truth, must stay equivalent, and are what the threaded engine
    /// and larger platforms call.
    fn dense_fifo(&self) -> bool {
        false
    }

    /// True when the policy reads `ctx.estimates`. Engines use this to
    /// skip maintaining the learned-estimate EWMA when nothing can
    /// observe it (the book is scratch state, not part of the run's
    /// output). The conservative default is `true`; only policies that
    /// provably never touch `ctx.estimates` should override.
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

/// Shared helper: indices of idle PEs compatible with `task`.
pub(crate) fn idle_compatible<'a>(
    task: &'a Task,
    pes: &'a [PeView<'a>],
) -> impl Iterator<Item = usize> + 'a {
    pes.iter()
        .enumerate()
        .filter(move |(_, v)| v.idle && task.supports(&v.pe.platform_key))
        .map(|(i, _)| i)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for scheduler unit tests.

    use super::*;
    use dssoc_appmodel::app::ApplicationSpec;
    use dssoc_appmodel::instance::{AppInstance, InstanceId};
    use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson};
    use dssoc_appmodel::registry::KernelRegistry;
    use dssoc_platform::pe::PlatformConfig;
    use dssoc_platform::presets::zcu102;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// Builds `n` independent ready tasks; node `i` supports "cpu", and
    /// even-indexed nodes also support "fft". Per-platform estimates:
    /// cpu = 100 µs, fft = `fft_us` µs.
    pub fn ready_tasks(n: usize, fft_us: f64) -> Vec<ReadyTask> {
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
        let inst = Arc::new(
            AppInstance::instantiate(spec, InstanceId(0), std::time::Duration::ZERO).unwrap(),
        );
        (0..n)
            .map(|i| ReadyTask {
                task: Task { instance: Arc::clone(&inst), node_idx: i },
                ready_at: SimTime(i as u64),
                seq: i as u64,
            })
            .collect()
    }

    /// A 2-CPU + 1-FFT platform and all-idle views of it.
    pub fn platform_2c1f() -> PlatformConfig {
        zcu102(2, 1)
    }

    /// Builds all-idle PE views for a platform.
    pub fn idle_views(cfg: &PlatformConfig) -> Vec<PeView<'_>> {
        cfg.pes.iter().map(|pe| PeView { pe, idle: true, available_at: SimTime::ZERO }).collect()
    }

    /// Checks the scheduler contract on a result.
    pub fn assert_contract(ready: &[ReadyTask], pes: &[PeView<'_>], out: &[Assignment]) {
        let mut used_pe = std::collections::HashSet::new();
        let mut used_task = std::collections::HashSet::new();
        for a in out {
            let view = pes.iter().find(|v| v.pe.id == a.pe).expect("assignment to unknown PE");
            assert!(view.idle, "assigned to busy PE");
            assert!(used_pe.insert(a.pe), "PE assigned twice");
            assert!(used_task.insert(a.ready_idx), "task assigned twice");
            assert!(
                ready[a.ready_idx].task.supports(&view.pe.platform_key),
                "incompatible assignment"
            );
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
        let cfg = platform_2c1f();
        let ready = ready_tasks(2, 70.0);
        let cpu_pe = &cfg.pes[0];
        let fft_pe = &cfg.pes[2];
        let mut book = EstimateBook::new();

        // JSON mean_exec wins even after observations.
        let t0 = &ready[0].task;
        assert_eq!(book.estimate(t0, cpu_pe).unwrap(), std::time::Duration::from_micros(100));
        assert_eq!(book.estimate(t0, fft_pe).unwrap(), std::time::Duration::from_micros(70));

        // Odd task doesn't support fft.
        assert!(book.estimate(&ready[1].task, fft_pe).is_none());

        // EWMA path: a kernel with no JSON estimate.
        book.observe("kx", "cortex-a53", std::time::Duration::from_micros(40));
        book.observe("kx", "cortex-a53", std::time::Duration::from_micros(80));
        let d = book.values[book.slots["kx"]["cortex-a53"].0 as usize].unwrap();
        assert!(
            d > std::time::Duration::from_micros(40) && d < std::time::Duration::from_micros(80)
        );
        assert_eq!(book.len(), 1);
    }

    #[test]
    fn idle_compatible_filters() {
        let cfg = platform_2c1f();
        let mut views = idle_views(&cfg);
        let ready = ready_tasks(2, 70.0);
        // Even task: all three PEs compatible.
        let all: Vec<usize> = idle_compatible(&ready[0].task, &views).collect();
        assert_eq!(all.len(), 3);
        // Odd task: only the two CPU PEs.
        let cpus: Vec<usize> = idle_compatible(&ready[1].task, &views).collect();
        assert_eq!(cpus.len(), 2);
        // Busy PEs are excluded.
        views[0].idle = false;
        let fewer: Vec<usize> = idle_compatible(&ready[0].task, &views).collect();
        assert_eq!(fewer.len(), 2);
    }
}
