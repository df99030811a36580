//! Integrating a user-defined scheduling policy — the paper's §II-C
//! integration point ("to utilize a user-defined scheduling policy, an
//! additional policy needs to be defined...").
//!
//! Implements a radar-priority policy: range-detection tasks preempt the
//! queue order (they are latency-critical), everything else runs FRFS,
//! and FFT-capable tasks prefer the accelerator when it is idle.
//!
//! ```sh
//! cargo run --release --bin custom_scheduler
//! ```

use std::time::Duration;

use dssoc_appmodel::{InjectionParams, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::prelude::*;
use dssoc_core::sched::{Assignment, PeView, ReadyView, SchedContext};
use dssoc_examples::print_run_row;
use dssoc_platform::presets::zcu102;

/// Radar tasks jump the queue; everything else is FRFS. The scratch
/// vectors live in the policy, so a call allocates nothing once warm.
#[derive(Default)]
struct RadarPriorityScheduler {
    order: Vec<usize>,
    free: Vec<bool>,
}

impl Scheduler for RadarPriorityScheduler {
    fn name(&self) -> &'static str {
        "RADAR-PRIO"
    }

    fn schedule_into(
        &mut self,
        ready: &ReadyView<'_>,
        pes: &[PeView<'_>],
        _ctx: &SchedContext,
        out: &mut Vec<Assignment>,
    ) {
        self.free.clear();
        self.free.extend(pes.iter().map(|v| v.idle));
        // Radar tasks first (by readiness order), then the rest.
        self.order.clear();
        self.order.extend(0..ready.len());
        self.order.sort_by_key(|&i| (ready.app(i).as_str() != "range_detection", ready.seq(i)));
        for &i in &self.order {
            // `pes[col]` is PE column `col` of the ready view's queries.
            let row = ready.row(i);
            if let Some(col) = (0..pes.len()).find(|&col| self.free[col] && row.compatible(col)) {
                self.free[col] = false;
                out.push(Assignment { ready_idx: i, pe: pes[col].pe.id });
            }
        }
    }

    // The policy never reads estimates, so engines may skip learning them.
    fn uses_estimates(&self) -> bool {
        false
    }
}

fn main() {
    let (library, _registry) = standard_library();
    let workload = WorkloadSpec::performance(
        vec![
            InjectionParams {
                app: "range_detection".into(),
                period: Duration::from_micros(400),
                probability: 1.0,
            },
            InjectionParams {
                app: "wifi_rx".into(),
                period: Duration::from_micros(700),
                probability: 1.0,
            },
        ],
        Duration::from_millis(30),
        11,
    )
    .generate(&library)
    .expect("workload");

    println!("== custom scheduler vs library policies on 2C+1F ==");
    println!("workload: {} arrivals over 30 ms", workload.len());

    let mut radar_latency = Vec::new();
    for (label, mut scheduler) in [
        ("FRFS", Box::new(FrfsScheduler::new()) as Box<dyn Scheduler>),
        ("RADAR-PRIO", Box::new(RadarPriorityScheduler::default())),
    ] {
        let mut emulation = Emulation::new(zcu102(2, 1)).expect("platform");
        let stats = emulation.run(scheduler.as_mut(), &workload, &library).expect("emulation");
        print_run_row(label, &stats);
        let mean = stats.app_latency_mean("range_detection").unwrap_or(Duration::ZERO);
        println!("    mean range_detection latency: {:.1} us", mean.as_secs_f64() * 1e6);
        radar_latency.push(mean);
    }

    println!();
    if radar_latency[1] <= radar_latency[0] {
        println!(
            "radar-priority policy cut mean radar latency by {:.1}%",
            (1.0 - radar_latency[1].as_secs_f64() / radar_latency[0].as_secs_f64().max(1e-12))
                * 100.0
        );
    } else {
        println!("radar-priority policy did not help on this trace (try a higher load)");
    }
}
