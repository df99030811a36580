//! First Ready-First Start: the paper's lightweight default policy.
//!
//! Strict FIFO: the task that became ready first starts first — no task
//! overtakes the queue head. Each head task takes the first idle
//! compatible PE; dispatch stops at the first head that cannot be
//! placed. Per the paper, "the complexity of FRFS is equal to the
//! number of PEs in the emulated SoC" — the policy looks at one queue
//! position per placed task and never walks the rest of the queue,
//! which is why its scheduling overhead stays flat in Fig. 10b while
//! MET's and EFT's grow with the ready-queue length.

use crate::sched::{idle_compatible, Assignment, PeView, SchedContext, Scheduler};
use crate::task::ReadyTask;

/// First Ready-First Start scheduler.
#[derive(Debug, Default, Clone)]
pub struct FrfsScheduler {
    /// Reused per-invocation "PE already taken this round" scratch, so
    /// the policy itself allocates nothing in the steady state.
    taken: Vec<bool>,
}

impl FrfsScheduler {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FrfsScheduler {
    fn name(&self) -> &'static str {
        "FRFS"
    }

    // `schedule_into` below implements exactly this contract and the
    // policy is stateless across invocations, so engines may place FRFS
    // tasks themselves. `tests/dense_loop.rs` and the DES differential
    // suites (cross-engine, trace, metrics, faults) pin the equivalence.
    fn dense_fifo(&self) -> bool {
        true
    }

    fn uses_estimates(&self) -> bool {
        false
    }

    fn schedule(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        ctx: &SchedContext<'_>,
    ) -> Vec<Assignment> {
        let mut out = Vec::with_capacity(pes.len().min(ready.len()));
        self.schedule_into(ready, pes, ctx, &mut out);
        out
    }

    // The default policy sits on the DES per-event path, so it takes the
    // allocation-free entry point; `schedule` above is the thin wrapper.
    fn schedule_into(
        &mut self,
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        _ctx: &SchedContext<'_>,
        out: &mut Vec<Assignment>,
    ) {
        self.taken.clear();
        self.taken.resize(pes.len(), false);
        // The engine guarantees readiness (seq) order: the head of the
        // slice is the first-ready task. Strict FIFO — stop at the first
        // task that cannot start (nothing overtakes it).
        for (i, rt) in ready.iter().enumerate() {
            match idle_compatible(&rt.task, pes).find(|&p| !self.taken[p]) {
                Some(slot) => {
                    self.taken[slot] = true;
                    out.push(Assignment { ready_idx: i, pe: pes[slot].pe.id });
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::*;
    use crate::sched::EstimateBook;
    use crate::time::SimTime;

    fn ctx(book: &EstimateBook) -> SchedContext<'_> {
        SchedContext { now: SimTime::ZERO, estimates: book }
    }

    #[test]
    fn assigns_in_ready_order_to_first_idle() {
        let cfg = platform_2c1f();
        let views = idle_views(&cfg);
        let ready = ready_tasks(4, 70.0);
        let book = EstimateBook::new();
        let mut s = FrfsScheduler::new();
        let out = s.schedule(&ready, &views, &ctx(&book));
        assert_contract(&ready, &views, &out);
        // Three PEs, four tasks: exactly three assignments.
        assert_eq!(out.len(), 3);
        // Task 0 (earliest seq) gets the first PE in descriptor order.
        assert_eq!(out[0].ready_idx, 0);
        assert_eq!(out[0].pe, cfg.pes[0].id);
        // Task 1 only supports cpu -> second core.
        assert_eq!(out[1].ready_idx, 1);
        assert_eq!(out[1].pe, cfg.pes[1].id);
        // Task 2 supports fft -> the accelerator.
        assert_eq!(out[2].ready_idx, 2);
        assert_eq!(out[2].pe, cfg.pes[2].id);
    }

    #[test]
    fn head_takes_the_only_idle_pe() {
        let cfg = platform_2c1f();
        let mut views = idle_views(&cfg);
        views[0].idle = false;
        views[1].idle = false; // only the FFT PE is idle
        let ready = ready_tasks(2, 70.0);
        let book = EstimateBook::new();
        let mut s = FrfsScheduler::new();
        let out = s.schedule(&ready, &views, &ctx(&book));
        assert_contract(&ready, &views, &out);
        // Head task supports fft and takes it; task 1 (cpu-only) waits.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ready_idx, 0);
    }

    #[test]
    fn strict_fifo_blocks_behind_unplaceable_head() {
        let cfg = platform_2c1f();
        let mut views = idle_views(&cfg);
        views[0].idle = false;
        views[1].idle = false; // only the FFT PE is idle
                               // Head task (index 1 is odd = cpu-only after the swap trick):
                               // build 2 tasks and drop the fft-capable head so the head is
                               // cpu-only while an fft-capable task waits behind it.
        let ready = ready_tasks(4, 70.0);
        let tail = &ready[1..]; // head now cpu-only (odd index), task 2 is fft-capable
        let book = EstimateBook::new();
        let mut s = FrfsScheduler::new();
        let out = s.schedule(tail, &views, &ctx(&book));
        // Nothing dispatched: first-ready-first-start means the
        // fft-capable task may not overtake the blocked head.
        assert!(out.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let cfg = platform_2c1f();
        let views = idle_views(&cfg);
        let book = EstimateBook::new();
        let mut s = FrfsScheduler::new();
        assert!(s.schedule(&[], &views, &ctx(&book)).is_empty());
        let ready = ready_tasks(1, 70.0);
        assert!(s.schedule(&ready, &[], &ctx(&book)).is_empty());
    }

    #[test]
    fn stops_at_first_unplaceable_task() {
        let cfg = platform_2c1f();
        let views = idle_views(&cfg);
        // Far more ready tasks than PEs: FRFS dispatches a prefix (one
        // task per PE) and never examines the rest of the queue.
        let ready = ready_tasks(64, 70.0);
        let book = EstimateBook::new();
        let mut s = FrfsScheduler::new();
        let out = s.schedule(&ready, &views, &ctx(&book));
        assert_eq!(out.len(), 3);
        let idxs: Vec<usize> = out.iter().map(|a| a.ready_idx).collect();
        assert_eq!(idxs, vec![0, 1, 2], "a strict prefix is dispatched");
    }
}
