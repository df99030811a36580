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

use crate::sched::{Assignment, PeView, ReadyView, SchedContext, Scheduler};

/// First Ready-First Start scheduler.
#[derive(Debug, Default, Clone)]
pub struct FrfsScheduler {
    /// Reused per-invocation scratch: the columns of the PEs still free
    /// this round, ascending. The policy allocates nothing in the steady
    /// state.
    free: Vec<usize>,
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

    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        _ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    ) {
        self.free.clear();
        self.free.extend(pes.iter().enumerate().filter(|(_, v)| v.idle).map(|(col, _)| col));
        // `ready` is in readiness (seq) order: index 0 is the
        // first-ready task. Strict FIFO — stop at the first task that
        // cannot start (nothing overtakes it).
        for i in 0..ready.len() {
            let row = ready.row(i);
            let Some(k) = self.free.iter().position(|&col| row.compatible(col)) else { break };
            let col = self.free.remove(k);
            out.push(Assignment { ready_idx: i, pe: pes[col].pe.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::*;

    #[test]
    fn assigns_in_ready_order_to_first_idle() {
        let fx = Fixture::new(4, 70.0);
        let out = call(&mut FrfsScheduler::new(), &fx.view(), &fx.idle_views());
        let pes = &fx.platform.pes;
        // Three PEs, four tasks: exactly three assignments.
        assert_eq!(out.len(), 3);
        // Task 0 (earliest seq) gets the first PE in descriptor order.
        assert_eq!(out[0], Assignment { ready_idx: 0, pe: pes[0].id });
        // Task 1 only supports cpu -> second core.
        assert_eq!(out[1], Assignment { ready_idx: 1, pe: pes[1].id });
        // Task 2 supports fft -> the accelerator.
        assert_eq!(out[2], Assignment { ready_idx: 2, pe: pes[2].id });
    }

    #[test]
    fn head_takes_the_only_idle_pe() {
        let fx = Fixture::new(2, 70.0);
        let mut views = fx.idle_views();
        views[0].idle = false;
        views[1].idle = false; // only the FFT PE is idle
        let out = call(&mut FrfsScheduler::new(), &fx.view(), &views);
        // Head task supports fft and takes it; task 1 (cpu-only) waits.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ready_idx, 0);
    }

    #[test]
    fn strict_fifo_blocks_behind_unplaceable_head() {
        let mut fx = Fixture::new(4, 70.0);
        // Drop the fft-capable head: the head is now cpu-only (node 1)
        // while an fft-capable task (node 2) waits behind it.
        fx.entries.remove(0);
        let mut views = fx.idle_views();
        views[0].idle = false;
        views[1].idle = false; // only the FFT PE is idle
        let out = call(&mut FrfsScheduler::new(), &fx.view(), &views);
        // Nothing dispatched: first-ready-first-start means the
        // fft-capable task may not overtake the blocked head.
        assert!(out.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let mut fx = Fixture::new(1, 70.0);
        let mut s = FrfsScheduler::new();
        assert!(call(&mut s, &fx.view(), &[]).is_empty());
        fx.entries.clear();
        assert!(call(&mut s, &fx.view(), &fx.idle_views()).is_empty());
    }

    #[test]
    fn stops_at_first_unplaceable_task() {
        // Far more ready tasks than PEs: FRFS dispatches a prefix (one
        // task per PE) and never examines the rest of the queue.
        let fx = Fixture::new(64, 70.0);
        let out = call(&mut FrfsScheduler::new(), &fx.view(), &fx.idle_views());
        let idxs: Vec<usize> = out.iter().map(|a| a.ready_idx).collect();
        assert_eq!(idxs, vec![0, 1, 2], "a strict prefix is dispatched");
    }
}
