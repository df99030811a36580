//! Resource handler objects — the shared-memory coordination protocol
//! between the workload manager and the per-PE resource-manager threads.
//!
//! Straight from the paper (§II-C): each PE gets a dedicated resource
//! handler "composed of fields that track PE availability, type, and id
//! along with its workload and synchronization lock. ... A PE's
//! availability status can be *idle*, *run*, or *complete*. A thread
//! monitoring or modifying the status field should acquire the PE's
//! synchronization lock, read or write to the status field, and release
//! the lock."
//!
//! That protocol is kept as written: every status transition, and the
//! assignment and completion payloads, stay behind the handler's lock,
//! and the workload manager collects completions by reading the status
//! field under it. What the host adds is how each side *waits* for the
//! other to move, through one spin-then-park primitive (`SpinPark`):
//!
//! * A resource-manager thread waiting for work watches a lock-free
//!   mirror of its status field (an [`AtomicU8`] written under the lock
//!   with every transition). It spins on the mirror for a bounded budget
//!   and only then blocks on a condvar; a dispatch wakes it only if it
//!   actually blocked. Back-to-back tasks thus reach a spinning thread
//!   without a futex wake-up and a scheduler round-trip per task.
//! * The workload manager waiting for an in-flight task to report
//!   watches a pool-wide completion counter (`Completions`) that every
//!   posted completion bumps, with the same spin-then-park wait. Each
//!   wait can be bounded by a deadline (the fault watchdog's).
//!
//! Spinning only pays when a spinner does not take the core the thread
//! it waits for needs. A pool spins when its PE-thread count is at most
//! the host's available parallelism; otherwise its threads park at
//! once, as a plain condvar hand-off would. On an oversubscribed host a
//! spinner would steal the very core a kernel (or the manager) needs,
//! which distorts the host-measured figures of `Measured`-overhead runs.
//!
//! The workload manager is not counted, although it spins too (in
//! `Completions::wait_past`): a pool with as many PE threads as cores
//! runs one spinner more than there are cores — three on a two-core host
//! for a 2-PE pool. That is deliberate. Each spinner yields every
//! `SPINS_PER_YIELD` polls, so one that shares a core with a thread
//! that has work lets it run, and no spin outlasts `SPIN_BUDGET`.
//! Counting the manager (`spin_enabled(pes + 1)`) was measured and is
//! worse: it makes 2-PE pools on a two-core host park at once, and on
//! `emu_sweep` that shape went from 88–92 to 38–46 jobs/s, with p50
//! latency from 10.5–11.1 to 21–29 ms (three alternating pairs of runs)
//! — every hand-off then paid two futex wake-ups.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use dssoc_appmodel::error::ModelError;
use dssoc_platform::accel::AccelJobReport;
use dssoc_platform::pe::{PeDescriptor, PeId};
use dssoc_trace::TraceWriter;

use crate::task::Task;
use crate::time::SimTime;

/// How long a spin-enabled waiter spins before it blocks: a few times
/// the 10–20 µs the workload manager takes to turn one completion
/// around into the next dispatch, so a steady stream of short tasks
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
/// (sequentially consistent) and calls [`Self::wake`], which takes the
/// lock and notifies only if some waiter has blocked. The waiter counts
/// itself in `sleepers` and re-checks the condition under the lock
/// before blocking, so a wake-up cannot be lost between its check and
/// its wait.
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
        if self.sleepers.load(SeqCst) != 0 {
            drop(self.lock.lock());
            self.cv.notify_all();
        }
    }
}

/// A pool-wide count of posted completions: the workload manager's
/// wait for in-flight tasks to report. Every handler of a pool bumps
/// the same counter, so one wait covers all PEs.
pub(crate) struct Completions {
    posted: AtomicU64,
    park: SpinPark,
}

impl Completions {
    pub(crate) fn new(spin: bool) -> Arc<Self> {
        Arc::new(Completions { posted: AtomicU64::new(0), park: SpinPark::new(spin) })
    }

    /// The number of completions posted so far. Read it *before*
    /// scanning the handlers, then [`Self::wait_past`] it: a completion
    /// the scan missed has bumped the count already.
    pub(crate) fn posted(&self) -> u64 {
        self.posted.load(SeqCst)
    }

    /// Waits until a completion is posted after `seen` was read, or
    /// until `deadline` passes; returns whether one was posted.
    pub(crate) fn wait_past(&self, seen: u64, deadline: Option<Instant>) -> bool {
        self.park.wait_until(|| self.posted.load(SeqCst) != seen, deadline)
    }

    fn bump(&self) {
        self.posted.fetch_add(1, SeqCst);
        self.park.wake();
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

/// A dispatch from the workload manager to a resource manager.
#[derive(Debug, Clone)]
pub struct TaskAssignment {
    /// The task to execute.
    pub task: Task,
    /// Emulation time at which the task starts on the PE.
    pub start: SimTime,
}

/// A completion report from a resource manager back to the workload
/// manager.
pub struct TaskCompletion {
    /// The finished task.
    pub task: Task,
    /// Emulation time the task started (copied from the assignment).
    pub start: SimTime,
    /// Modeled execution duration (what the emulation clock is charged).
    pub modeled: Duration,
    /// Host wall-clock time the functional execution actually took.
    pub measured: Duration,
    /// Accelerator timing breakdowns, if the kernel used the device.
    pub accel_reports: Vec<AccelJobReport>,
    /// Kernel outcome.
    pub result: Result<(), ModelError>,
}

impl std::fmt::Debug for TaskCompletion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCompletion")
            .field("task", &self.task)
            .field("start", &self.start)
            .field("modeled", &self.modeled)
            .field("ok", &self.result.is_ok())
            .finish()
    }
}

struct HandlerState {
    status: PeStatus,
    assignment: Option<TaskAssignment>,
    completion: Option<TaskCompletion>,
    shutdown: bool,
}

/// Values of [`ResourceHandler`]'s lock-free status mirror.
const MIRROR_IDLE: u8 = 0;
const MIRROR_RUN: u8 = 1;
const MIRROR_COMPLETE: u8 = 2;
/// Sticky: once shut down, later transitions leave the mirror alone.
const MIRROR_SHUTDOWN: u8 = 3;

/// The per-PE coordination object. One exists per PE; the workload
/// manager holds one end, the PE's resource-manager thread the other.
pub struct ResourceHandler {
    /// The PE this handler manages.
    pub pe: PeDescriptor,
    state: Mutex<HandlerState>,
    /// Lock-free mirror of `state.status` (or shutdown), stored under
    /// `state`'s lock with every transition. Only the resource-manager
    /// thread's wait reads it; the protocol itself reads `state`.
    mirror: AtomicU8,
    /// Where the resource-manager thread waits for an assignment.
    park: SpinPark,
    /// The pool-wide completion counter this handler bumps.
    completions: Arc<Completions>,
    /// This PE's trace producer, installed by
    /// [`ResourcePool::attach_trace`](crate::resource::ResourcePool::attach_trace).
    /// A separate lock from `state`: the resource-manager thread records
    /// events without touching the dispatch/completion protocol, and the
    /// writer (`Send` but not `Sync`) crosses to that thread through it.
    trace: Mutex<Option<TraceWriter>>,
    /// Whether `trace` holds a writer, so an untraced thread skips its
    /// lock. Written under that lock between runs; the dispatch hand-off
    /// orders it before the resource-manager thread's next read.
    traced: AtomicBool,
}

impl ResourceHandler {
    /// Creates an idle handler for a PE, with a completion counter of
    /// its own.
    pub fn new(pe: PeDescriptor) -> Arc<Self> {
        let spin = spin_enabled(1);
        Self::in_pool(pe, Completions::new(spin), spin)
    }

    /// Creates an idle handler that reports into a pool's shared
    /// completion counter; `spin` selects spin-then-park (`true`) or
    /// park-at-once waiting for assignments.
    pub(crate) fn in_pool(
        pe: PeDescriptor,
        completions: Arc<Completions>,
        spin: bool,
    ) -> Arc<Self> {
        Arc::new(ResourceHandler {
            pe,
            state: Mutex::new(HandlerState {
                status: PeStatus::Idle,
                assignment: None,
                completion: None,
                shutdown: false,
            }),
            mirror: AtomicU8::new(MIRROR_IDLE),
            park: SpinPark::new(spin),
            completions,
            trace: Mutex::new(None),
            traced: AtomicBool::new(false),
        })
    }

    /// A standalone handler on the spin-then-park (`true`) or
    /// park-at-once (`false`) path, whatever the host.
    #[cfg(test)]
    pub(crate) fn with_spin(pe: PeDescriptor, spin: bool) -> Arc<Self> {
        Self::in_pool(pe, Completions::new(spin), spin)
    }

    /// Installs (or removes) this PE's trace producer.
    pub(crate) fn set_trace(&self, writer: Option<TraceWriter>) {
        let mut trace = self.trace.lock();
        self.traced.store(writer.is_some(), Ordering::Release);
        *trace = writer;
    }

    /// Runs `f` against the installed trace writer, if any. Untraced, it
    /// takes no lock; traced, the lock is uncontended in steady state
    /// (the resource-manager thread is the only per-event caller;
    /// attach/detach happen between runs).
    pub(crate) fn with_trace(&self, f: impl FnOnce(&TraceWriter)) {
        if !self.traced.load(Ordering::Acquire) {
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

    /// Reads the availability status (acquiring the lock, per the paper's
    /// protocol).
    pub fn status(&self) -> PeStatus {
        self.state.lock().status
    }

    /// Writes the status field (the caller holds the lock) and its
    /// lock-free mirror.
    fn set_status(&self, st: &mut HandlerState, status: PeStatus) {
        st.status = status;
        if !st.shutdown {
            let code = match status {
                PeStatus::Idle => MIRROR_IDLE,
                PeStatus::Run => MIRROR_RUN,
                PeStatus::Complete => MIRROR_COMPLETE,
            };
            self.mirror.store(code, SeqCst);
        }
    }

    /// Workload-manager side: dispatches a task, transitioning
    /// idle → run, and wakes the resource-manager thread if it has
    /// parked (a spinning one sees the mirror flip by itself).
    ///
    /// Panics if the PE is not idle — the scheduler contract forbids
    /// double dispatch.
    pub fn dispatch(&self, assignment: TaskAssignment) {
        {
            let mut st = self.state.lock();
            assert_eq!(st.status, PeStatus::Idle, "dispatch to non-idle PE {}", self.pe.name);
            st.assignment = Some(assignment);
            self.set_status(&mut st, PeStatus::Run);
        }
        self.park.wake();
    }

    /// Workload-manager side: if the PE reports *complete*, collects the
    /// completion and resets the PE to *idle*.
    pub fn try_collect(&self) -> Option<TaskCompletion> {
        let mut st = self.state.lock();
        if st.status != PeStatus::Complete {
            return None;
        }
        let completion = st.completion.take().expect("complete status implies a completion");
        self.set_status(&mut st, PeStatus::Idle);
        completion.into()
    }

    /// Resource-manager side: waits (spin, then park) until a task is
    /// assigned (returning it) or shutdown is requested (returning
    /// `None`).
    pub fn wait_for_assignment(&self) -> Option<TaskAssignment> {
        loop {
            self.park.wait_until(
                || matches!(self.mirror.load(SeqCst), MIRROR_RUN | MIRROR_SHUTDOWN),
                None,
            );
            let mut st = self.state.lock();
            if st.shutdown {
                return None;
            }
            if st.status == PeStatus::Run {
                if let Some(a) = st.assignment.take() {
                    return Some(a);
                }
            }
        }
    }

    /// Resource-manager side: posts a completion, transitioning
    /// run → complete, and bumps the pool's completion counter (which
    /// wakes the workload manager only if it has parked).
    pub fn post_completion(&self, completion: TaskCompletion) {
        {
            let mut st = self.state.lock();
            debug_assert_eq!(st.status, PeStatus::Run, "completion without a running task");
            st.completion = Some(completion);
            self.set_status(&mut st, PeStatus::Complete);
        }
        self.completions.bump();
    }

    /// Asks the resource-manager thread to exit once idle.
    pub fn shutdown(&self) {
        {
            let mut st = self.state.lock();
            st.shutdown = true;
            self.mirror.store(MIRROR_SHUTDOWN, SeqCst);
        }
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
    use dssoc_appmodel::app::ApplicationSpec;
    use dssoc_appmodel::instance::{AppInstance, InstanceId};
    use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson};
    use dssoc_appmodel::registry::KernelRegistry;
    use dssoc_platform::presets::zcu102;
    use std::collections::BTreeMap;
    use std::thread;

    fn dummy_task() -> Task {
        let mut reg = KernelRegistry::new();
        reg.register_fn("d.so", "k", |_| Ok(()));
        let mut dag = BTreeMap::new();
        dag.insert(
            "n".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec![],
                platforms: vec![PlatformJson {
                    name: "cpu".into(),
                    runfunc: "k".into(),
                    shared_object: None,
                    mean_exec_us: None,
                }],
            },
        );
        let json = AppJson {
            app_name: "d".into(),
            shared_object: "d.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        let spec = ApplicationSpec::from_json(&json, &reg).unwrap();
        let inst = Arc::new(AppInstance::instantiate(spec, InstanceId(0), Duration::ZERO).unwrap());
        Task { instance: inst, node_idx: 0 }
    }

    fn handler() -> Arc<ResourceHandler> {
        ResourceHandler::new(zcu102(1, 0).pes[0].clone())
    }

    #[test]
    fn protocol_idle_run_complete_idle() {
        let h = handler();
        assert_eq!(h.status(), PeStatus::Idle);
        assert!(h.try_collect().is_none());

        h.dispatch(TaskAssignment { task: dummy_task(), start: SimTime::ZERO });
        assert_eq!(h.status(), PeStatus::Run);

        // Simulate the resource manager taking the work and completing it.
        let a = h.wait_for_assignment().unwrap();
        h.post_completion(TaskCompletion {
            task: a.task,
            start: a.start,
            modeled: Duration::from_micros(5),
            measured: Duration::from_micros(1),
            accel_reports: vec![],
            result: Ok(()),
        });
        assert_eq!(h.status(), PeStatus::Complete);

        let c = h.try_collect().unwrap();
        assert_eq!(c.modeled, Duration::from_micros(5));
        assert_eq!(h.status(), PeStatus::Idle);
        assert!(h.try_collect().is_none());
    }

    #[test]
    #[should_panic(expected = "non-idle")]
    fn double_dispatch_panics() {
        let h = handler();
        h.dispatch(TaskAssignment { task: dummy_task(), start: SimTime::ZERO });
        h.dispatch(TaskAssignment { task: dummy_task(), start: SimTime::ZERO });
    }

    #[test]
    fn shutdown_wakes_waiter() {
        let h = handler();
        let h2 = Arc::clone(&h);
        let t = thread::spawn(move || h2.wait_for_assignment());
        thread::sleep(Duration::from_millis(10));
        h.shutdown();
        assert!(t.join().unwrap().is_none());
    }

    /// A resource-manager thread that completes every assignment at
    /// once, as `resource_manager_loop` does after the kernel.
    fn echo_worker(h: Arc<ResourceHandler>) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            while let Some(a) = h.wait_for_assignment() {
                h.post_completion(TaskCompletion {
                    task: a.task,
                    start: a.start,
                    modeled: Duration::from_micros(1),
                    measured: Duration::ZERO,
                    accel_reports: vec![],
                    result: Ok(()),
                });
            }
        })
    }

    /// Dispatches `n` tasks one after another and collects each
    /// completion the way the workload manager does: read the
    /// completion count, scan, then wait past the count. A lost wake-up
    /// on either side leaves the wait to run into its deadline.
    fn round_trips(h: &Arc<ResourceHandler>, n: u64, pause_every: u64) {
        let worker = echo_worker(Arc::clone(h));
        let task = dummy_task();
        for i in 0..n {
            if i % pause_every == pause_every - 1 {
                // Let the worker's spin budget run out so it parks.
                thread::sleep(Duration::from_micros(200));
            }
            h.dispatch(TaskAssignment { task: task.clone(), start: SimTime(i) });
            let c = loop {
                let seen = h.completions.posted();
                if let Some(c) = h.try_collect() {
                    break c;
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                assert!(h.completions.wait_past(seen, Some(deadline)), "lost wake-up at {i}");
            };
            assert_eq!(c.start, SimTime(i));
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
        let seen = h.completions.posted();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(!h.completions.wait_past(seen, Some(deadline)));
        assert!(Instant::now() >= deadline);
    }
}
