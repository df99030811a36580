//! RANDOM: each ready task goes to a uniformly random idle compatible PE.
//!
//! The library's baseline policy — useful as a lower bound in scheduler
//! comparisons and for shaking out ordering assumptions in tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sched::{Assignment, PeView, ReadyView, SchedContext, Scheduler};

/// Uniformly random scheduler (seedable for reproducibility).
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
    /// Reused per-invocation scratch: the columns of the PEs still free
    /// this round, ascending.
    free: Vec<usize>,
    /// Reused per-task scratch: positions in `free` the task can run on.
    candidates: Vec<usize>,
}

impl RandomScheduler {
    /// Creates the policy with a fixed seed.
    pub fn seeded(seed: u64) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(seed),
            free: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &'static str {
        "RANDOM"
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
        for i in 0..ready.len() {
            if self.free.is_empty() {
                break;
            }
            let row = ready.row(i);
            self.candidates.clear();
            let open = self.free.iter().enumerate().filter(|&(_, &col)| row.compatible(col));
            self.candidates.extend(open.map(|(k, _)| k));
            if self.candidates.is_empty() {
                continue;
            }
            let k = self.candidates[self.rng.gen_range(0..self.candidates.len())];
            let col = self.free.remove(k);
            out.push(Assignment { ready_idx: i, pe: pes[col].pe.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::*;
    use std::collections::HashSet;

    #[test]
    fn honors_contract() {
        let fx = Fixture::new(6, 70.0);
        let views = fx.idle_views();
        let mut s = RandomScheduler::seeded(1);
        for _ in 0..20 {
            let out = call(&mut s, &fx.view(), &views);
            assert_eq!(out.len(), 3, "all three PEs get work with 6 ready tasks");
        }
    }

    #[test]
    fn is_seed_reproducible_and_actually_random() {
        let fx = Fixture::new(6, 70.0);
        let views = fx.idle_views();
        let run = |seed: u64| {
            let mut s = RandomScheduler::seeded(seed);
            (0..10).map(|_| call(&mut s, &fx.view(), &views)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));

        // Across seeds, the PE chosen for task 0 should vary.
        let mut pes_seen = HashSet::new();
        for seed in 0..20 {
            let out = run(seed);
            if let Some(a) = out[0].iter().find(|a| a.ready_idx == 0) {
                pes_seen.insert(a.pe);
            }
        }
        assert!(pes_seen.len() > 1, "task 0 always got the same PE across seeds");
    }

    #[test]
    fn cpu_only_task_never_lands_on_accelerator() {
        let fx = Fixture::new(2, 70.0); // task 1 is cpu-only
        let views = fx.idle_views();
        let mut s = RandomScheduler::seeded(3);
        for _ in 0..50 {
            let out = call(&mut s, &fx.view(), &views);
            for a in out.iter().filter(|a| a.ready_idx == 1) {
                assert_ne!(a.pe, fx.platform.pes[2].id);
            }
        }
    }
}
