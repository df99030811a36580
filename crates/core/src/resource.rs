//! Resource-manager threads — one per PE (paper Fig. 4).
//!
//! Each thread waits on its resource handler (spinning briefly, then
//! parking; see [`crate::handler`]) until the workload manager assigns a
//! task, executes it, and posts a completion. An assignment is a few
//! integers in the handler's cache line: the task's `(instance, node)`
//! in the run's instance table (which the thread takes from the handler
//! once per run) and the index of the node's platform entry for this
//! PE, resolved when the scenario was compiled, so the thread finds its
//! kernel without a string comparison:
//!
//! * **CPU PE** — the kernel executes directly on the thread; the modeled
//!   duration is the assignment's [`TaskCost`]: the compiled scenario's
//!   cell cost, or the host-measured functional time scaled by the
//!   core's relative speed.
//! * **Accelerator PE** — the kernel stages data to the device through the
//!   thread's [`AccelPort`] (DDR→device DMA, compute, device→DDR DMA);
//!   the modeled duration comes from the device's latency reports. When
//!   the manager thread shares its host core with other manager threads
//!   (the paper's 2C+2F scenario), the DMA handling phases are stretched
//!   by the sharing factor and a context-switch penalty is charged per
//!   extra sharer — the preemption cycle the paper describes.
//!
//! When the assignment asks (wall-clock timing), the thread also
//! *embodies* the model on the host: it busy-waits the residual for slow
//! cores and sleeps while the "device" processes, exactly as the paper
//! migrates accelerator manager threads to the sleep state.
//!
//! A pool depends only on its platform: each assignment carries its cost
//! and whether to embody it, read from the run's compiled scenario.

use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dssoc_appmodel::error::ModelError;
use dssoc_appmodel::memory::{AccelPort, TaskCtx};
use dssoc_appmodel::registry::runfunc_id;
use dssoc_platform::accel::{AccelJobReport, FftAccelerator};
use dssoc_platform::pe::{ContentionModel, PeKind, PlatformConfig};
use dssoc_platform::placement::Placement;
use dssoc_trace::{DmaPhase, EventKind as TraceKind, TraceSink};

use crate::engine::EmuError;
use crate::handler::{
    spin_enabled, PeStatus, ResourceHandler, RunHold, RunInstances, SpinPark, TaskCost,
};

/// [`AccelPort`] implementation backed by the simulated FFT device.
pub struct FftPort {
    device: FftAccelerator,
}

impl FftPort {
    /// Wraps a device.
    pub fn new(device: FftAccelerator) -> Self {
        FftPort { device }
    }
}

impl AccelPort for FftPort {
    fn kind(&self) -> &str {
        "fft"
    }

    fn fft_bytes(&self, buf: &mut [u8], inverse: bool) -> Result<AccelJobReport, String> {
        self.device.process_bytes(buf, inverse).map_err(|e| e.to_string())
    }
}

thread_local! {
    /// Resource-manager threads spawned by pools built on this thread.
    static THREADS_SPAWNED: Cell<u64> = const { Cell::new(0) };
}

/// Total resource-manager threads spawned so far by pools built on the
/// calling thread. Tests use it to assert that [`ResourcePool`] reuses
/// its threads across consecutive runs instead of respawning per run;
/// counting per thread keeps pools other tests build concurrently out
/// of the difference.
pub fn threads_spawned_total() -> u64 {
    THREADS_SPAWNED.with(Cell::get)
}

/// The persistent PE resource pool: one resource handler and one named
/// manager thread per PE, spawned once and reused across emulation runs.
///
/// The paper's initialization phase brings this pool up before the
/// workload manager starts; keeping it alive between runs means a batch
/// sweep pays thread-spawn cost once, not per cell. Threads park in
/// [`ResourceHandler::wait_for_assignment`] between runs and are shut
/// down and joined on [`Drop`]. Each run publishes its instance table to
/// every handler before its first dispatch and retires it when it ends.
/// While a run is on, the threads spin briefly before parking when the
/// pool has no more threads than the host has cores — the workload manager, which spins too, is deliberately not
/// counted (see the [`handler`](crate::handler) module for the rule and
/// the measurement behind it).
pub struct ResourcePool {
    handlers: Vec<Arc<ResourceHandler>>,
    threads: Vec<JoinHandle<()>>,
    /// Where the workload manager waits for a report; every handler's
    /// posted completion wakes it.
    reports: Arc<SpinPark>,
}

impl ResourcePool {
    /// Spawns one handler + manager thread per PE of `platform`.
    pub fn spawn(platform: &PlatformConfig) -> Result<Self, EmuError> {
        let placement = Placement::compute(platform);
        // PE threads only: the workload manager spins as well, but
        // counting it makes every pool with as many PEs as cores park at
        // once, which more than halves `emu_sweep` throughput on such
        // pools (measured; see the `handler` module docs).
        let spin = spin_enabled(platform.pes.len());
        let reports = Arc::new(SpinPark::new(spin));
        let handlers: Vec<Arc<ResourceHandler>> = platform
            .pes
            .iter()
            .map(|pe| ResourceHandler::in_pool(pe.clone(), Arc::clone(&reports), spin))
            .collect();
        let mut threads = Vec::with_capacity(handlers.len());
        for h in &handlers {
            let ctx = RmContext {
                handler: Arc::clone(h),
                sharers: placement.sharers_of(h.pe_id()),
                contention: platform.contention.clone(),
            };
            let name = format!("rm-{}", h.pe.name);
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || resource_manager_loop(ctx))
                    .map_err(|e| {
                        EmuError::Config(format!("failed to spawn manager thread: {e}"))
                    })?,
            );
            THREADS_SPAWNED.with(|n| n.set(n.get() + 1));
        }
        Ok(ResourcePool { handlers, threads, reports })
    }

    /// The per-PE handlers, in platform PE order.
    pub fn handlers(&self) -> &[Arc<ResourceHandler>] {
        &self.handlers
    }

    /// Waits until some PE reports *complete* or `deadline` passes;
    /// returns whether one did. The workload manager's wait for an
    /// in-flight task: a poll of the status words that parks, when the
    /// spin budget runs out, until a completion is posted.
    pub(crate) fn wait_for_report(&self, deadline: Option<Instant>) -> bool {
        self.reports.wait_until(|| self.handlers.iter().any(|h| h.is_complete()), deadline)
    }

    /// Publishes a run's instance table to every PE thread.
    pub(crate) fn begin_run(&self, instances: &RunInstances) {
        for h in &self.handlers {
            h.begin_run(instances);
        }
    }

    /// Retires the run's instance table (see
    /// [`ResourceHandler::end_run`]).
    pub(crate) fn end_run(&self) {
        for h in &self.handlers {
            h.end_run();
        }
    }

    /// Installs one trace producer per PE (named `rm-{pe}`): the manager
    /// threads record pool park/unpark transitions and accelerator DMA
    /// phases into `sink`'s session until [`Self::detach_trace`].
    pub fn attach_trace(&self, sink: &TraceSink) {
        for h in &self.handlers {
            h.set_trace(Some(sink.writer(&format!("rm-{}", h.pe.name))));
        }
    }

    /// Removes the per-PE trace producers installed by
    /// [`Self::attach_trace`].
    pub fn detach_trace(&self) {
        for h in &self.handlers {
            h.set_trace(None);
        }
    }

    /// Waits until every PE is idle again, discarding any uncollected
    /// completions. Called after a run ends early (scheduler contract
    /// violation, task failure) so in-flight work cannot leak into the
    /// next run on this pool.
    pub fn drain(&self) {
        self.drain_except(&[]);
    }

    /// [`Self::drain`], skipping PEs whose manager thread is known
    /// wedged (a fault watchdog fired on them; `skip[i]` for the PE of
    /// handler `i`): waiting on those would block forever, and their
    /// eventual stale completions are discarded by the next run instead.
    pub fn drain_except(&self, skip: &[bool]) {
        for (i, h) in self.handlers.iter().enumerate() {
            if skip.get(i).copied().unwrap_or(false) {
                continue;
            }
            loop {
                let _ = h.try_collect();
                if h.status() == PeStatus::Idle {
                    break;
                }
                h.wait_for_completion(None);
            }
        }
    }
}

impl Drop for ResourcePool {
    fn drop(&mut self) {
        for h in &self.handlers {
            h.shutdown();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Immutable context shared by one resource-manager thread.
pub struct RmContext {
    /// The handler connecting this thread to the workload manager.
    pub handler: Arc<ResourceHandler>,
    /// How many manager threads share this thread's host core (1 =
    /// dedicated).
    pub sharers: usize,
    /// Context-switch penalty model for shared host cores.
    pub contention: ContentionModel,
}

/// Computes the modeled duration of a completed task.
///
/// Accelerator invocations take precedence: their latency model is
/// authoritative. The host-core sharing factor stretches the DMA phases
/// (the manager thread must be scheduled on its core to drive each
/// transfer) and adds `context_switch * (sharers - 1)` per invocation.
/// Otherwise the task costs what its assignment says.
pub fn modeled_duration(
    ctx: &RmContext,
    cost: TaskCost,
    measured: Duration,
    reports: &[AccelJobReport],
) -> Duration {
    if !reports.is_empty() {
        let k = ctx.sharers.max(1) as u32;
        let mut total = Duration::ZERO;
        for r in reports {
            total += (r.dma_in + r.dma_out) * k + r.compute;
            total += ctx.contention.context_switch * (k - 1);
        }
        return total;
    }
    match cost {
        TaskCost::Modeled(d) => d,
        TaskCost::ScaledMeasured => {
            Duration::from_secs_f64(measured.as_secs_f64() / ctx.handler.pe.speed())
        }
    }
}

/// Spins until `total` wall time has elapsed since `t0` (models a slower
/// core actually occupying its host slot).
fn busy_wait_until(t0: Instant, total: Duration) {
    while t0.elapsed() < total {
        std::hint::spin_loop();
    }
}

/// The resource-manager thread body. Returns when the workload manager
/// shuts the handler down.
pub fn resource_manager_loop(ctx: RmContext) {
    // Per-kernel running averages for outlier clamping, indexed by the
    // runfunc's process-wide id (NaN until the kernel first runs here).
    let mut kernel_ewma: Vec<f64> = Vec::new();
    // Accelerator PEs own their device for the lifetime of the thread.
    let port: Option<FftPort> = match &ctx.handler.pe.kind {
        PeKind::Accel(model) if model.kind == "fft" => {
            Some(FftPort::new(FftAccelerator::new(model.clone())))
        }
        _ => None,
    };
    let mut hold = RunHold::default();

    while let Some(assignment) = ctx.handler.wait_for_assignment(&mut hold) {
        // The instance, node, arguments and kernel are borrowed from the
        // run's instance table for the kernel's execution: nothing per
        // task is copied or looked up by name.
        let instances = hold.instances();
        let instance = &instances[assignment.inst as usize];
        let node = &instance.spec.nodes[assignment.node as usize];
        let platform = node.platforms.get(assignment.entry as usize);
        let kernel_id = platform.map_or_else(|| runfunc_id(""), |p| p.runfunc_id) as usize;

        let t0 = Instant::now();
        let (result, reports) = match platform {
            Some(p) => {
                let task_ctx = TaskCtx::new(
                    &instance.memory,
                    &node.name,
                    &node.arguments,
                    port.as_ref().map(|p| p as &dyn AccelPort),
                );
                let r = p.kernel.run(&task_ctx);
                // Only a kernel with a device port can file reports.
                let reports =
                    if port.is_some() { task_ctx.take_accel_reports() } else { Vec::new() };
                (r, reports)
            }
            None => (
                Err(ModelError::KernelFailed {
                    kernel: node.name.to_string(),
                    reason: format!(
                        "scheduled on incompatible PE '{}' (platform key '{}')",
                        ctx.handler.pe.name, ctx.handler.pe.platform_key
                    ),
                }),
                Vec::new(),
            ),
        };
        drop(instances);
        // On an oversubscribed host a concurrent PE thread can preempt
        // this one mid-kernel, inflating the wall measurement; clamp
        // outliers against this kernel's running average (each paper PE
        // has a dedicated core, so its measurements are preemption-free).
        let raw_measured = t0.elapsed();
        if kernel_id >= kernel_ewma.len() {
            kernel_ewma.resize(kernel_id + 1, f64::NAN);
        }
        let avg = &mut kernel_ewma[kernel_id];
        let measured = if avg.is_nan() {
            *avg = raw_measured.as_secs_f64();
            raw_measured
        } else {
            let clamped = raw_measured.as_secs_f64().min(*avg * 3.0);
            *avg = 0.8 * *avg + 0.2 * clamped;
            Duration::from_secs_f64(clamped)
        };
        let modeled = modeled_duration(&ctx, assignment.cost, measured, &reports);

        if assignment.embody {
            // Embody the model in real time, as the paper's testbed does.
            match &ctx.handler.pe.kind {
                PeKind::Cpu(_) => busy_wait_until(t0, modeled),
                PeKind::Accel(_) => {
                    // The device "processes" while the manager sleeps.
                    let residual = modeled.saturating_sub(measured);
                    if !residual.is_zero() {
                        std::thread::sleep(residual);
                    }
                }
            }
        }

        // Record this invocation's pool and DMA lifecycle (modeled
        // timeline: the thread "unparked" at the assigned start and
        // "parks" again once the modeled duration has elapsed, with the
        // accelerator's DMA/compute phases laid out in between, DMA
        // stretched by the host-core sharing factor exactly as
        // [`modeled_duration`] charges it).
        ctx.handler.with_trace(|w| {
            let pe = ctx.handler.pe_id().0;
            let k = ctx.sharers.max(1) as u32;
            w.emit(assignment.start.0, TraceKind::PoolUnpark { pe });
            // CPU tasks have no DMA phases — only accelerators get the
            // in/compute/out breakdown (zero-width phases would clutter
            // the exported DMA tracks).
            if matches!(ctx.handler.pe.kind, PeKind::Accel(_)) {
                let mut t = assignment.start;
                for r in &reports {
                    for (phase, dur) in [
                        (DmaPhase::In, r.dma_in * k),
                        (DmaPhase::Compute, r.compute),
                        (DmaPhase::Out, r.dma_out * k),
                    ] {
                        let end = t + dur;
                        w.emit(end.0, TraceKind::Dma { pe, phase, start_ns: t.0, end_ns: end.0 });
                        t = end;
                    }
                    t += ctx.contention.context_switch * (k - 1);
                }
            }
            let parked = assignment.start + modeled;
            w.emit(parked.0, TraceKind::PoolPark { pe });
        });

        ctx.handler.post_completion(modeled, measured, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_platform::presets::{zcu102, zcu102_fft_accel, A53_SPEED};

    fn rm_ctx(cores: usize, ffts: usize, pe_idx: usize, sharers: usize) -> RmContext {
        let cfg = zcu102(cores, ffts);
        RmContext {
            handler: ResourceHandler::new(cfg.pes[pe_idx].clone()),
            sharers,
            contention: ContentionModel::default(),
        }
    }

    #[test]
    fn cpu_duration_scales_by_speed() {
        let ctx = rm_ctx(1, 0, 0, 1);
        let d = modeled_duration(&ctx, TaskCost::ScaledMeasured, Duration::from_millis(1), &[]);
        let expect = Duration::from_secs_f64(1e-3 / A53_SPEED);
        assert!((d.as_secs_f64() - expect.as_secs_f64()).abs() < 1e-9);
        // A modeled cost ignores the measurement.
        let cost = TaskCost::Modeled(Duration::from_micros(42));
        assert_eq!(
            modeled_duration(&ctx, cost, Duration::from_secs(9), &[]),
            Duration::from_micros(42)
        );
    }

    #[test]
    fn accel_duration_comes_from_reports() {
        let ctx = rm_ctx(1, 1, 1, 1);
        let report = AccelJobReport {
            dma_in: Duration::from_micros(30),
            compute: Duration::from_micros(5),
            dma_out: Duration::from_micros(30),
        };
        // Host-measured time is irrelevant for accelerator tasks.
        let cost = TaskCost::Modeled(Duration::from_secs(1));
        let d = modeled_duration(&ctx, cost, Duration::from_secs(1), &[report]);
        assert_eq!(d, Duration::from_micros(65));
    }

    #[test]
    fn shared_slot_stretches_dma_and_adds_switches() {
        let mut ctx = rm_ctx(2, 2, 2, 2); // accel sharing with one other manager
        ctx.contention = ContentionModel { context_switch: Duration::from_micros(10) };
        let report = AccelJobReport {
            dma_in: Duration::from_micros(30),
            compute: Duration::from_micros(5),
            dma_out: Duration::from_micros(30),
        };
        let d = modeled_duration(&ctx, TaskCost::ScaledMeasured, Duration::ZERO, &[report]);
        // (30+30)*2 + 5 + 10 = 135 us
        assert_eq!(d, Duration::from_micros(135));
    }

    #[test]
    fn multiple_reports_accumulate() {
        let ctx = rm_ctx(1, 1, 1, 1);
        let r = AccelJobReport {
            dma_in: Duration::from_micros(10),
            compute: Duration::from_micros(10),
            dma_out: Duration::from_micros(10),
        };
        let d = modeled_duration(&ctx, TaskCost::ScaledMeasured, Duration::ZERO, &[r, r]);
        assert_eq!(d, Duration::from_micros(60));
    }

    #[test]
    fn fft_port_round_trip() {
        let port = FftPort::new(FftAccelerator::new(zcu102_fft_accel()));
        assert_eq!(port.kind(), "fft");
        // 4 complex samples = 32 bytes
        let mut buf = vec![0u8; 32];
        buf[0..4].copy_from_slice(&1.0f32.to_le_bytes()); // impulse
        let report = port.fft_bytes(&mut buf, false).unwrap();
        assert!(report.total() > Duration::ZERO);
        // FFT of impulse = all-ones
        for i in 0..4 {
            let re = f32::from_le_bytes(buf[i * 8..i * 8 + 4].try_into().unwrap());
            assert!((re - 1.0).abs() < 1e-5);
        }
        // Misaligned buffer errors pass through as strings.
        let mut bad = vec![0u8; 5];
        assert!(port.fft_bytes(&mut bad, false).is_err());
    }
}
