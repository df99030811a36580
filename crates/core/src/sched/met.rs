//! Minimum Execution Time: each ready task is evaluated against every
//! PE and dispatched to the idle compatible PE with the smallest
//! estimated execution time.
//!
//! The paper-visible consequence: unlike FRFS, the policy walks the
//! *entire* ready queue computing cost estimates on every invocation
//! (`O(n)` in the paper's complexity discussion), so its overhead grows
//! with the injection rate (Fig. 10b) and that overhead feeds back into
//! workload execution time (Fig. 10a) — sophistication losing to a
//! cheap heuristic once scheduling runs on every task completion.

use std::time::Duration;

use crate::sched::{Assignment, PeView, ReadyView, SchedContext, Scheduler};

/// Minimum Execution Time scheduler.
#[derive(Debug, Default, Clone)]
pub struct MetScheduler {
    /// Reused per-invocation scratch: the columns of the PEs still free
    /// this round, ascending.
    free: Vec<usize>,
}

impl MetScheduler {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for MetScheduler {
    fn name(&self) -> &'static str {
        "MET"
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
        // Deliberately no early exit: MET evaluates the whole ready
        // queue each invocation — this IS the O(n) cost the paper
        // measures.
        for i in 0..ready.len() {
            let row = ready.row(i);
            // The first PE with the smallest estimate wins ties.
            let mut best: Option<(usize, Duration)> = None;
            for (k, &col) in self.free.iter().enumerate() {
                let Some(est) = row.estimate(col) else { continue };
                if best.is_none_or(|(_, b)| est < b) {
                    best = Some((k, est));
                }
            }
            if let Some((k, _)) = best {
                let col = self.free.remove(k);
                out.push(Assignment { ready_idx: i, pe: pes[col].pe.id });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::*;

    #[test]
    fn picks_cheapest_pe_per_task() {
        // FFT estimate (30 us) cheaper than CPU (100 us): even tasks
        // should prefer the accelerator.
        let fx = Fixture::new(1, 30.0);
        let out = call(&mut MetScheduler::new(), &fx.view(), &fx.idle_views());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pe, fx.platform.pes[2].id, "fft PE is the MET choice");
    }

    #[test]
    fn avoids_expensive_accelerator() {
        // FFT estimate (500 us) pricier than CPU (100 us): stay on cores.
        let fx = Fixture::new(1, 500.0);
        let out = call(&mut MetScheduler::new(), &fx.view(), &fx.idle_views());
        assert_eq!(out[0].pe, fx.platform.pes[0].id);
    }

    #[test]
    fn falls_back_when_cheapest_taken() {
        // Two fft-capable tasks, one cheap accelerator: the second task
        // settles for a core.
        let mut fx = Fixture::new(4, 30.0);
        fx.entries.remove(3);
        fx.entries.remove(1); // keep the two even (fft-capable) tasks
        let out = call(&mut MetScheduler::new(), &fx.view(), &fx.idle_views());
        let pes = &fx.platform.pes;
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].pe, pes[2].id);
        assert!(out[1].pe == pes[0].id || out[1].pe == pes[1].id);
    }

    #[test]
    fn leaves_task_when_nothing_idle() {
        let fx = Fixture::new(2, 30.0);
        let mut views = fx.idle_views();
        views.iter_mut().for_each(|v| v.idle = false);
        assert!(call(&mut MetScheduler::new(), &fx.view(), &views).is_empty());
    }
}
