//! Resource handler objects — the shared-memory coordination protocol
//! between the workload manager and the per-PE resource-manager threads.
//!
//! Straight from the paper (§II-C): each PE gets a dedicated resource
//! handler "composed of fields that track PE availability, type, and id
//! along with its workload and synchronization lock. ... A PE's
//! availability status can be *idle*, *run*, or *complete*."
//!
//! On the host the status field is one atomic word, and the task
//! travels beside it: each handler's exchange is one 64-byte cache line
//! (`HotLine`) holding the status word, the assignment (`(instance,
//! node)`, the `(node, PE)` cell's platform entry, start, cost and
//! whether to embody it) and the completion (modeled and measured
//! durations, an error flag), all as atomics. Every transition is one
//! release-store of the status word by the side the paper assigns it
//! to, after that side has written the payload the other side reads:
//!
//! * the workload manager writes an assignment and moves idle → run;
//! * the resource-manager thread writes its completion and moves
//!   run → complete;
//! * the workload manager reads the completion and moves complete → idle.
//!
//! The acquire-load that observes a transition makes the payload
//! written before it visible, so a task's round trip moves one cache
//! line each way and takes no lock: the paper's per-PE lock becomes the
//! rule that only the side owed the next transition writes the line.
//! Shutdown is a sticky flag in the same line. Rare payloads go through a
//! cold slot under a mutex: a failed kernel's error, and the run's
//! instance table, which a resource-manager thread reads once per run.
//! Accelerator latency reports never cross: the resource-manager thread
//! turns them into the modeled duration and its trace events itself.
//!
//! What the host adds is how each side *waits* for the other to move,
//! through one spin-then-park primitive (`SpinPark`):
//!
//! * A resource-manager thread waiting for work polls its status word
//!   for a bounded budget and only then blocks on a condvar; a dispatch
//!   wakes it only if it actually blocked. Back-to-back tasks thus reach
//!   a spinning thread without a futex wake-up and a scheduler
//!   round-trip per task.
//! * The workload manager waiting for an in-flight task to report polls
//!   the status words of its pool (the monitor's own poll), with the same
//!   spin-then-park wait on a pool-wide park that every posted completion
//!   wakes. Each wait can be bounded by a deadline (the fault watchdog's).
//!
//! Spinning only pays when a spinner does not take the core the thread
//! it waits for needs. A pool spins when its PE-thread count is at most
//! the host's available parallelism; otherwise its threads park at
//! once, as a plain condvar hand-off would. On an oversubscribed host a
//! spinner would steal the very core a kernel (or the manager) needs,
//! which distorts the host-measured figures of `Measured`-overhead runs.
//!
//! The workload manager is not counted, although it spins too: a pool
//! with as many PE threads as cores runs one spinner more than there
//! are cores — three on a two-core host for a 2-PE pool. That is
//! deliberate. Each spinner yields every `SPINS_PER_YIELD` polls, so
//! one that shares a core with a thread that has work lets it run, and
//! no spin outlasts `SPIN_BUDGET`. Counting the manager
//! (`spin_enabled(pes + 1)`) was measured and is worse: it makes 2-PE
//! pools on a two-core host park at once, and on `emu_sweep` that shape
//! went from 88–92 to 38–46 jobs/s, with p50 latency from 10.5–11.1 to
//! 21–29 ms (three alternating pairs of runs) — every hand-off then paid
//! two futex wake-ups.

use std::sync::atomic::{
    fence, AtomicBool, AtomicU32, AtomicU64,
    Ordering::{Acquire, Relaxed, Release, SeqCst},
};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dssoc_appmodel::error::ModelError;
use dssoc_appmodel::instance::AppInstance;
use dssoc_platform::pe::{PeDescriptor, PeId};
use dssoc_trace::TraceWriter;

use crate::time::SimTime;

/// How long a spin-enabled waiter spins before it blocks: a few times
/// what a task's turnaround costs on a busy pool (kernels of a few µs
/// plus well under a µs of hand-off), so a steady stream of short tasks
/// rarely parks, while an idle pool stops burning its cores quickly.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Spin iterations between two `yield_now` calls while spinning, so a
/// spinner sharing a core with the thread it waits for lets it run.
const SPINS_PER_YIELD: u32 = 64;

/// Whether a pool of `pe_threads` resource-manager threads spins before
/// parking: only when every PE thread can have a host core of its own.
/// The spinning workload manager is not counted (see the module docs for
/// why, and what counting it was measured to cost).
pub(crate) fn spin_enabled(pe_threads: usize) -> bool {
    pe_threads <= std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Spin-then-park wait on a condition published through atomics.
///
/// A waiter polls its condition for [`SPIN_BUDGET`] (when spinning is
/// enabled), then blocks on a condvar. A publisher stores the new state
/// and calls [`Self::wake`], which takes the lock and notifies only if
/// some waiter has blocked. The waiter counts itself in `sleepers` and
/// re-checks the condition under the lock before blocking; a
/// sequentially consistent fence on each side (after the waiter's count,
/// after the publisher's store) means one of the two sees the other, so
/// a wake-up cannot be lost between the check and the wait.
pub(crate) struct SpinPark {
    spin: bool,
    sleepers: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinPark {
    pub(crate) fn new(spin: bool) -> Self {
        SpinPark { spin, sleepers: AtomicU32::new(0), lock: Mutex::new(()), cv: Condvar::new() }
    }

    /// Waits until `ready` holds or `deadline` passes; returns whether
    /// `ready` held.
    pub(crate) fn wait_until(&self, ready: impl Fn() -> bool, deadline: Option<Instant>) -> bool {
        if self.spin {
            let budget = Instant::now() + SPIN_BUDGET;
            let give_up = deadline.map_or(budget, |d| d.min(budget));
            loop {
                for _ in 0..SPINS_PER_YIELD {
                    if ready() {
                        return true;
                    }
                    std::hint::spin_loop();
                }
                if Instant::now() >= give_up {
                    break;
                }
                std::thread::yield_now();
            }
        }
        let mut guard = self.lock.lock();
        self.sleepers.fetch_add(1, SeqCst);
        fence(SeqCst);
        let held = loop {
            if ready() {
                break true;
            }
            match deadline {
                None => self.cv.wait(&mut guard),
                Some(d) => {
                    if self.cv.wait_until(&mut guard, d).timed_out() {
                        break ready();
                    }
                }
            }
        };
        self.sleepers.fetch_sub(1, SeqCst);
        held
    }

    /// Wakes every blocked waiter; free when none has blocked. Call
    /// after storing the state the waiters' condition reads.
    pub(crate) fn wake(&self) {
        fence(SeqCst);
        if self.sleepers.load(Relaxed) != 0 {
            drop(self.lock.lock());
            self.cv.notify_all();
        }
    }
}

/// PE availability as seen through the resource handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeStatus {
    /// No task assigned; the scheduler may dispatch here.
    Idle,
    /// A task was assigned by the workload manager and is executing.
    Run,
    /// The resource manager finished the task; the workload manager must
    /// collect the completion and reset the PE to idle.
    Complete,
}

/// Values of the status word.
const IDLE: u32 = 0;
const RUN: u32 = 1;
const COMPLETE: u32 = 2;

/// `cost_ns` of a [`TaskCost::ScaledMeasured`] assignment.
const SCALED_MEASURED: u64 = u64::MAX;

/// What a dispatched task costs on its PE, from the compiled scenario.
/// An accelerator's latency reports win over either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskCost {
    /// The scenario's modeled duration of this `(node, PE)` cell — the
    /// number the DES charges.
    Modeled(Duration),
    /// The host-measured kernel time scaled by the PE's speed.
    ScaledMeasured,
}

/// A dispatch from the workload manager to a resource manager: the
/// values [`ResourceHandler::dispatch`] writes into the handler's line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskAssignment {
    /// The task's instance: its index in the run's instance table.
    pub inst: u32,
    /// The task's DAG node index within its instance.
    pub node: u32,
    /// The index, in the node's platform entries, of the one this PE
    /// runs, resolved when the scenario was compiled
    /// ([`NO_ENTRY`](crate::soa::NO_ENTRY) when the node has none).
    pub entry: u32,
    /// Emulation time at which the task starts on the PE.
    pub start: SimTime,
    /// What the task costs.
    pub cost: TaskCost,
    /// Embody the modeled duration in wall time (busy-wait or sleep out
    /// the residual), as under [`TimingMode::WallClock`].
    ///
    /// [`TimingMode::WallClock`]: crate::engine::TimingMode::WallClock
    pub embody: bool,
}

/// A completion report, as the workload manager collects it: the
/// assignment's task and start beside what the resource manager posted.
#[derive(Debug)]
pub struct TaskCompletion {
    /// The finished task's instance index.
    pub inst: u32,
    /// The finished task's node index.
    pub node: u32,
    /// Emulation time the task started (the assignment's).
    pub start: SimTime,
    /// Modeled execution duration (what the emulation clock is charged).
    pub modeled: Duration,
    /// Host wall-clock time the functional execution actually took.
    pub measured: Duration,
    /// The kernel's error, when it failed.
    pub error: Option<ModelError>,
}

/// A run's private application instances, indexed by assignment
/// `inst`; shared between the workload manager and every PE thread.
pub type RunInstances = Arc<Vec<AppInstance>>;

/// A handler's exchange: the status word and both payloads, in one
/// cache line. Only the side owed the next transition writes it.
#[repr(align(64))]
struct HotLine {
    status: AtomicU32,
    /// Sticky: once set, the resource-manager thread exits when idle.
    shutdown: AtomicBool,
    embody: AtomicBool,
    failed: AtomicBool,
    /// Bumped when a run's instance table is retired; see [`RunHold`].
    epoch: AtomicU32,
    inst: AtomicU32,
    node: AtomicU32,
    entry: AtomicU32,
    start_ns: AtomicU64,
    /// [`SCALED_MEASURED`] or the modeled cost in ns.
    cost_ns: AtomicU64,
    modeled_ns: AtomicU64,
    measured_ns: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<HotLine>() == 64);

/// Payloads too rare or too large for the hot line.
#[derive(Default)]
struct Cold {
    /// The current run's instances, between `begin_run` and `end_run`.
    instances: Option<RunInstances>,
    /// The error of the completion in flight, when its `failed` is set.
    error: Option<ModelError>,
}

/// A resource-manager thread's hold on a run's instance table: a weak
/// reference taken from the handler's cold slot at the first task of a
/// run. The thread upgrades it for the length of each task only, so an
/// idle pool never pins a finished run's instances: they are freed
/// when the workload manager lets go, whatever the threads are doing.
#[derive(Default)]
pub struct RunHold {
    /// The held run's epoch and table.
    held: Option<(u32, Weak<Vec<AppInstance>>)>,
}

impl RunHold {
    /// The held run's instances, for one task. Panics when the handler
    /// published no table: the workload manager publishes one before a
    /// run's first dispatch and keeps it until every task has reported.
    pub fn instances(&self) -> RunInstances {
        self.held
            .as_ref()
            .and_then(|(_, table)| table.upgrade())
            .expect("a run's instance table is published before its first dispatch")
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128 - 1) as u64
}

/// The per-PE coordination object. One exists per PE; the workload
/// manager holds one end, the PE's resource-manager thread the other.
pub struct ResourceHandler {
    /// The PE this handler manages.
    pub pe: PeDescriptor,
    line: HotLine,
    cold: Mutex<Cold>,
    /// Where the resource-manager thread waits for an assignment.
    park: SpinPark,
    /// Where the workload manager waits for a report; shared by a
    /// pool's handlers, woken by every posted completion.
    reports: Arc<SpinPark>,
    /// This PE's trace producer, installed by
    /// [`ResourcePool::attach_trace`](crate::resource::ResourcePool::attach_trace).
    /// A separate lock from the exchange: the resource-manager thread
    /// records events without touching it, and the writer (`Send` but
    /// not `Sync`) crosses to that thread through it.
    trace: Mutex<Option<TraceWriter>>,
    /// Whether `trace` holds a writer, so an untraced thread skips its
    /// lock. Written under that lock between runs; the dispatch hand-off
    /// orders it before the resource-manager thread's next read.
    traced: AtomicBool,
}

impl ResourceHandler {
    /// Creates an idle handler for a PE, with a report park of its own.
    pub fn new(pe: PeDescriptor) -> Arc<Self> {
        let spin = spin_enabled(1);
        Self::in_pool(pe, Arc::new(SpinPark::new(spin)), spin)
    }

    /// Creates an idle handler whose completions wake a pool's shared
    /// report park; `spin` selects spin-then-park (`true`) or
    /// park-at-once waiting for assignments.
    pub(crate) fn in_pool(pe: PeDescriptor, reports: Arc<SpinPark>, spin: bool) -> Arc<Self> {
        Arc::new(ResourceHandler {
            pe,
            line: HotLine {
                status: AtomicU32::new(IDLE),
                shutdown: AtomicBool::new(false),
                embody: AtomicBool::new(false),
                failed: AtomicBool::new(false),
                epoch: AtomicU32::new(0),
                inst: AtomicU32::new(0),
                node: AtomicU32::new(0),
                entry: AtomicU32::new(0),
                start_ns: AtomicU64::new(0),
                cost_ns: AtomicU64::new(0),
                modeled_ns: AtomicU64::new(0),
                measured_ns: AtomicU64::new(0),
            },
            cold: Mutex::new(Cold::default()),
            park: SpinPark::new(spin),
            reports,
            trace: Mutex::new(None),
            traced: AtomicBool::new(false),
        })
    }

    /// A standalone handler on the spin-then-park (`true`) or
    /// park-at-once (`false`) path, whatever the host.
    #[cfg(test)]
    pub(crate) fn with_spin(pe: PeDescriptor, spin: bool) -> Arc<Self> {
        Self::in_pool(pe, Arc::new(SpinPark::new(spin)), spin)
    }

    /// Installs (or removes) this PE's trace producer.
    pub(crate) fn set_trace(&self, writer: Option<TraceWriter>) {
        let mut trace = self.trace.lock();
        self.traced.store(writer.is_some(), Release);
        *trace = writer;
    }

    /// Runs `f` against the installed trace writer, if any. Untraced, it
    /// takes no lock; traced, the lock is uncontended in steady state
    /// (the resource-manager thread is the only per-event caller;
    /// attach/detach happen between runs).
    pub(crate) fn with_trace(&self, f: impl FnOnce(&TraceWriter)) {
        if !self.traced.load(Acquire) {
            return;
        }
        if let Some(w) = self.trace.lock().as_ref() {
            f(w);
        }
    }

    /// The PE's id.
    pub fn pe_id(&self) -> PeId {
        self.pe.id
    }

    /// Reads the availability status.
    pub fn status(&self) -> PeStatus {
        match self.line.status.load(Acquire) {
            IDLE => PeStatus::Idle,
            RUN => PeStatus::Run,
            _ => PeStatus::Complete,
        }
    }

    /// Whether the PE reports *complete* (the monitor's poll).
    pub(crate) fn is_complete(&self) -> bool {
        self.line.status.load(Acquire) == COMPLETE
    }

    /// Workload-manager side: publishes a run's instance table, which
    /// the resource-manager thread takes at its first task of the run.
    pub fn begin_run(&self, instances: &RunInstances) {
        self.cold.lock().instances = Some(Arc::clone(instances));
    }

    /// Workload-manager side: retires the run's instance table; the
    /// resource-manager thread takes the next run's at its next task.
    pub fn end_run(&self) {
        self.cold.lock().instances = None;
        self.line.epoch.fetch_add(1, Release);
    }

    /// Workload-manager side: dispatches a task — writes the assignment
    /// and moves idle → run — and wakes the resource-manager thread if it
    /// has parked (a spinning one sees the status word flip by itself).
    ///
    /// Panics if the PE is not idle — the scheduler contract forbids
    /// double dispatch.
    pub fn dispatch(&self, a: TaskAssignment) {
        let line = &self.line;
        assert_eq!(line.status.load(Relaxed), IDLE, "dispatch to non-idle PE {}", self.pe.name);
        line.inst.store(a.inst, Relaxed);
        line.node.store(a.node, Relaxed);
        line.entry.store(a.entry, Relaxed);
        line.start_ns.store(a.start.0, Relaxed);
        let cost = match a.cost {
            TaskCost::Modeled(d) => nanos(d),
            TaskCost::ScaledMeasured => SCALED_MEASURED,
        };
        line.cost_ns.store(cost, Relaxed);
        line.embody.store(a.embody, Relaxed);
        line.status.store(RUN, Release);
        self.park.wake();
    }

    /// Workload-manager side: if the PE reports *complete*, reads the
    /// completion and moves complete → idle.
    pub fn try_collect(&self) -> Option<TaskCompletion> {
        let line = &self.line;
        if line.status.load(Acquire) != COMPLETE {
            return None;
        }
        let error = if line.failed.load(Relaxed) { self.cold.lock().error.take() } else { None };
        let completion = TaskCompletion {
            inst: line.inst.load(Relaxed),
            node: line.node.load(Relaxed),
            start: SimTime(line.start_ns.load(Relaxed)),
            modeled: Duration::from_nanos(line.modeled_ns.load(Relaxed)),
            measured: Duration::from_nanos(line.measured_ns.load(Relaxed)),
            error,
        };
        line.status.store(IDLE, Release);
        Some(completion)
    }

    /// Workload-manager side: waits (spin, then park) until this PE
    /// reports *complete* or `deadline` passes; returns whether it did.
    pub fn wait_for_completion(&self, deadline: Option<Instant>) -> bool {
        self.reports.wait_until(|| self.is_complete(), deadline)
    }

    /// Resource-manager side: waits (spin, then park) until a task is
    /// assigned (returning it) or shutdown is requested (returning
    /// `None`). On return `hold` holds the run's instance table.
    pub fn wait_for_assignment(&self, hold: &mut RunHold) -> Option<TaskAssignment> {
        let line = &self.line;
        self.park
            .wait_until(|| line.status.load(Acquire) == RUN || line.shutdown.load(Acquire), None);
        if line.shutdown.load(Acquire) {
            return None;
        }
        let epoch = line.epoch.load(Relaxed);
        if hold.held.as_ref().is_none_or(|(e, _)| *e != epoch) {
            let table = self.cold.lock().instances.as_ref().map_or_else(Weak::new, Arc::downgrade);
            hold.held = Some((epoch, table));
        }
        let cost = match line.cost_ns.load(Relaxed) {
            SCALED_MEASURED => TaskCost::ScaledMeasured,
            ns => TaskCost::Modeled(Duration::from_nanos(ns)),
        };
        Some(TaskAssignment {
            inst: line.inst.load(Relaxed),
            node: line.node.load(Relaxed),
            entry: line.entry.load(Relaxed),
            start: SimTime(line.start_ns.load(Relaxed)),
            cost,
            embody: line.embody.load(Relaxed),
        })
    }

    /// Resource-manager side: writes the completion and moves
    /// run → complete, waking the workload manager only if it has
    /// parked.
    pub fn post_completion(
        &self,
        modeled: Duration,
        measured: Duration,
        result: Result<(), ModelError>,
    ) {
        let line = &self.line;
        debug_assert_eq!(line.status.load(Relaxed), RUN, "completion without a running task");
        let failed = result.is_err();
        if let Err(e) = result {
            self.cold.lock().error = Some(e);
        }
        line.modeled_ns.store(nanos(modeled), Relaxed);
        line.measured_ns.store(nanos(measured), Relaxed);
        line.failed.store(failed, Relaxed);
        line.status.store(COMPLETE, Release);
        self.reports.wake();
    }

    /// Asks the resource-manager thread to exit once idle.
    pub fn shutdown(&self) {
        self.line.shutdown.store(true, Release);
        self.park.wake();
    }
}

impl std::fmt::Debug for ResourceHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceHandler")
            .field("pe", &self.pe.name)
            .field("status", &self.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_platform::presets::zcu102;
    use std::thread;

    fn assignment(inst: u32, start: SimTime) -> TaskAssignment {
        let cost = TaskCost::Modeled(Duration::from_micros(3));
        TaskAssignment { inst, node: 2, entry: 1, start, cost, embody: false }
    }

    fn handler() -> Arc<ResourceHandler> {
        ResourceHandler::new(zcu102(1, 0).pes[0].clone())
    }

    #[test]
    fn protocol_idle_run_complete_idle() {
        let h = handler();
        assert_eq!(h.status(), PeStatus::Idle);
        assert!(h.try_collect().is_none());

        let sent = assignment(7, SimTime(11));
        h.dispatch(sent);
        assert_eq!(h.status(), PeStatus::Run);
        assert!(h.try_collect().is_none(), "a running PE has nothing to collect");

        // Simulate the resource manager taking the work and completing it.
        let mut hold = RunHold::default();
        assert_eq!(h.wait_for_assignment(&mut hold), Some(sent));
        h.post_completion(Duration::from_micros(5), Duration::from_micros(1), Ok(()));
        assert_eq!(h.status(), PeStatus::Complete);

        let c = h.try_collect().unwrap();
        assert_eq!((c.inst, c.node, c.start), (7, 2, SimTime(11)));
        assert_eq!(c.modeled, Duration::from_micros(5));
        assert_eq!(c.measured, Duration::from_micros(1));
        assert!(c.error.is_none());
        assert_eq!(h.status(), PeStatus::Idle);
        assert!(h.try_collect().is_none());
    }

    #[test]
    fn scaled_measured_cost_and_embody_cross_the_line() {
        let h = handler();
        let mut hold = RunHold::default();
        let mut a = assignment(0, SimTime::ZERO);
        a.cost = TaskCost::ScaledMeasured;
        a.embody = true;
        h.dispatch(a);
        assert_eq!(h.wait_for_assignment(&mut hold), Some(a));
    }

    #[test]
    fn kernel_error_round_trips_through_the_cold_slot() {
        let h = handler();
        let mut hold = RunHold::default();
        h.dispatch(assignment(0, SimTime::ZERO));
        h.wait_for_assignment(&mut hold).unwrap();
        let failure = ModelError::KernelFailed { kernel: "k".into(), reason: "injected".into() };
        h.post_completion(Duration::from_micros(2), Duration::ZERO, Err(failure));
        let c = h.try_collect().unwrap();
        assert_eq!(c.modeled, Duration::from_micros(2));
        let error = c.error.expect("the error crosses with its completion");
        assert!(error.to_string().contains("injected"), "{error}");
        // The next completion on the same handler is clean.
        h.dispatch(assignment(1, SimTime(1)));
        h.wait_for_assignment(&mut hold).unwrap();
        h.post_completion(Duration::ZERO, Duration::ZERO, Ok(()));
        assert!(h.try_collect().unwrap().error.is_none());
    }

    #[test]
    #[should_panic(expected = "non-idle")]
    fn double_dispatch_panics() {
        let h = handler();
        h.dispatch(assignment(0, SimTime::ZERO));
        h.dispatch(assignment(0, SimTime::ZERO));
    }

    #[test]
    #[should_panic(expected = "non-idle")]
    fn dispatch_before_collect_panics() {
        let h = handler();
        let mut hold = RunHold::default();
        h.dispatch(assignment(0, SimTime::ZERO));
        h.wait_for_assignment(&mut hold).unwrap();
        h.post_completion(Duration::ZERO, Duration::ZERO, Ok(()));
        h.dispatch(assignment(0, SimTime::ZERO));
    }

    #[test]
    fn shutdown_wakes_waiter() {
        for spin in [true, false] {
            let h = ResourceHandler::with_spin(zcu102(1, 0).pes[0].clone(), spin);
            let h2 = Arc::clone(&h);
            let t = thread::spawn(move || h2.wait_for_assignment(&mut RunHold::default()));
            // Past the spin budget: the waiter has parked.
            thread::sleep(Duration::from_millis(10));
            h.shutdown();
            assert!(t.join().unwrap().is_none());
        }
    }

    /// A resource-manager thread that completes every assignment at
    /// once, as `resource_manager_loop` does after the kernel, echoing
    /// its start as the modeled duration.
    fn echo_worker(h: Arc<ResourceHandler>) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            let mut hold = RunHold::default();
            while let Some(a) = h.wait_for_assignment(&mut hold) {
                h.post_completion(Duration::from_nanos(a.start.0), Duration::ZERO, Ok(()));
            }
        })
    }

    /// Dispatches `n` tasks one after another and collects each
    /// completion the way the workload manager does: scan, then wait for
    /// a status word to read *complete*. A lost wake-up on either side
    /// leaves the wait to run into its deadline.
    fn round_trips(h: &Arc<ResourceHandler>, n: u64, pause_every: u64) {
        let worker = echo_worker(Arc::clone(h));
        for i in 0..n {
            if i % pause_every == pause_every - 1 {
                // Let the worker's spin budget run out so it parks.
                thread::sleep(Duration::from_micros(200));
            }
            h.dispatch(assignment(i as u32, SimTime(i)));
            let c = loop {
                if let Some(c) = h.try_collect() {
                    break c;
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                assert!(h.wait_for_completion(Some(deadline)), "lost wake-up at {i}");
            };
            assert_eq!((c.inst, c.start), (i as u32, SimTime(i)));
            assert_eq!(c.modeled, Duration::from_nanos(i), "payload of round trip {i}");
        }
        h.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn cross_thread_handoff() {
        round_trips(&handler(), 10, u64::MAX);
    }

    #[test]
    fn no_lost_wakeups_spinning() {
        round_trips(&ResourceHandler::with_spin(zcu102(1, 0).pes[0].clone(), true), 10_000, 1000);
    }

    #[test]
    fn no_lost_wakeups_parking() {
        round_trips(&ResourceHandler::with_spin(zcu102(1, 0).pes[0].clone(), false), 10_000, 1000);
    }

    #[test]
    fn spinning_needs_a_core_per_pe_thread() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(spin_enabled(1));
        assert!(spin_enabled(cores));
        assert!(!spin_enabled(cores + 1));
    }

    #[test]
    fn timed_wait_returns_at_deadline() {
        let h = handler();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(!h.wait_for_completion(Some(deadline)));
        assert!(Instant::now() >= deadline);
    }

    /// The instance table crosses once per run and pins nothing
    /// between tasks: once the manager lets go, it is freed.
    #[test]
    fn run_table_is_taken_once_per_run_and_never_pinned() {
        let h = handler();
        let worker = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                let mut hold = RunHold::default();
                while h.wait_for_assignment(&mut hold).is_some() {
                    let len = hold.instances().len() as u64;
                    h.post_completion(Duration::from_nanos(len), Duration::ZERO, Ok(()));
                }
            })
        };
        for run in 0..3u64 {
            let table: RunInstances = Arc::new(Vec::new());
            let weak = Arc::downgrade(&table);
            h.begin_run(&table);
            for i in 0..4 {
                h.dispatch(assignment(i, SimTime(i as u64)));
                let c = loop {
                    if let Some(c) = h.try_collect() {
                        break c;
                    }
                    h.wait_for_completion(None);
                };
                assert_eq!(c.modeled, Duration::ZERO, "run {run} reads its own table");
            }
            h.end_run();
            drop(table);
            assert!(weak.upgrade().is_none(), "run {run}: an idle thread pins the table");
        }
        h.shutdown();
        worker.join().unwrap();
    }
}
