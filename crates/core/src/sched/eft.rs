//! Earliest Finish Time: assigns each ready task to the PE — busy or
//! idle — that minimizes its projected finish time, keeping per-PE load
//! projections across the whole ready list.
//!
//! This is the `O(n^2)` policy of the paper's complexity discussion: for
//! every ready task it evaluates every PE's projected availability
//! (updated as earlier tasks in the same round are placed), so its
//! per-invocation cost grows with both the ready-queue length and the PE
//! count — the overhead that makes EFT *lose* to FRFS at high injection
//! rates (Fig. 10).
//!
//! Only assignments whose chosen PE is currently idle are dispatched;
//! a task whose earliest finish lands on a busy PE waits for it (that is
//! the EFT decision) and is reconsidered next round.

use crate::sched::{Assignment, PeView, ReadyView, SchedContext, Scheduler};
use crate::time::SimTime;

/// Earliest Finish Time scheduler.
#[derive(Debug, Default, Clone)]
pub struct EftScheduler {
    /// Projected availability per PE, advanced as a round places tasks.
    avail: Vec<SimTime>,
    /// Whether the current round may still dispatch to the PE (idle and
    /// not yet given a task this round).
    dispatchable: Vec<bool>,
}

impl EftScheduler {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for EftScheduler {
    fn name(&self) -> &'static str {
        "EFT"
    }

    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    ) {
        self.avail.clear();
        self.avail.extend(pes.iter().map(|v| v.available_at.max(ctx.now)));
        self.dispatchable.clear();
        self.dispatchable.extend(pes.iter().map(|v| v.idle));
        for i in 0..ready.len() {
            let row = ready.row(i);
            // Full O(PEs) scan with cost lookups — deliberate, this IS
            // the algorithm's cost. The first earliest finish wins ties.
            let mut best: Option<(usize, SimTime)> = None;
            for (col, &avail) in self.avail.iter().enumerate() {
                let Some(exec) = row.estimate(col) else { continue };
                let finish = avail + exec;
                if best.is_none_or(|(_, b)| finish < b) {
                    best = Some((col, finish));
                }
            }
            let Some((col, finish)) = best else { continue };
            // Commit the projection so later tasks see the load.
            self.avail[col] = finish;
            if self.dispatchable[col] {
                self.dispatchable[col] = false;
                out.push(Assignment { ready_idx: i, pe: pes[col].pe.id });
            }
            // else: EFT chose a busy PE — the task waits for it.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::*;

    #[test]
    fn spreads_load_across_pes() {
        // Two fft-capable tasks (0 and 2) and two cpu-only ones.
        let fx = Fixture::new(4, 30.0);
        let out = call(&mut EftScheduler::new(), &fx.view(), &fx.idle_views());
        // All three PEs should be used this round.
        assert_eq!(out.len(), 3);
        let mut pes_used: Vec<_> = out.iter().map(|a| a.pe).collect();
        pes_used.sort();
        pes_used.dedup();
        assert_eq!(pes_used.len(), 3);
    }

    #[test]
    fn defers_task_to_preferred_busy_pe() {
        // The accelerator is busy but frees up almost immediately, while
        // CPU execution would take 100x longer: EFT waits for the device.
        let fx = Fixture::new(1, 5.0); // fft exec: 5 us, cpu: 100 us
        let mut views = fx.idle_views();
        views[2].idle = false;
        views[2].available_at = SimTime(1_000); // 1 us from now
        let out = call(&mut EftScheduler::new(), &fx.view(), &views);
        assert!(out.is_empty(), "task should wait for the soon-free accelerator");
    }

    #[test]
    fn takes_idle_pe_when_busy_one_is_far_out() {
        let fx = Fixture::new(1, 5.0);
        let mut views = fx.idle_views();
        views[2].idle = false;
        views[2].available_at = SimTime(10_000_000); // 10 ms out
        let out = call(&mut EftScheduler::new(), &fx.view(), &views);
        let pes = &fx.platform.pes;
        assert_eq!(out.len(), 1, "a CPU core finishing sooner should win");
        assert!(out[0].pe == pes[0].id || out[0].pe == pes[1].id);
    }

    #[test]
    fn projections_accumulate_within_round() {
        // Two fft-capable tasks, accelerator much cheaper: the first
        // takes it, the second sees the projection and goes to a core
        // only if that finishes earlier than queueing on the device.
        // fft = 30, cpu = 100: queued-fft finish = 60 < 100 -> second
        // task also "chooses" the accelerator and is deferred.
        let mut fx = Fixture::new(4, 30.0);
        fx.entries.remove(3);
        fx.entries.remove(1);
        let out = call(&mut EftScheduler::new(), &fx.view(), &fx.idle_views());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].pe, fx.platform.pes[2].id);
    }

    #[test]
    fn empty_ready_list() {
        let mut fx = Fixture::new(1, 30.0);
        fx.entries.clear();
        assert!(call(&mut EftScheduler::new(), &fx.view(), &fx.idle_views()).is_empty());
    }
}
