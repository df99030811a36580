//! Radar range detection across DSSoC configurations.
//!
//! Runs the paper's motivating application (Fig. 2) on several
//! hypothetical ZCU102 configurations, verifies the detected range, and
//! prints per-PE utilization — a miniature of case study 1.
//!
//! ```sh
//! cargo run --release --bin radar_range_detection
//! ```

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::{range_detection, standard_library};
use dssoc_core::prelude::*;
use dssoc_examples::{print_run_row, print_utilization};
use dssoc_platform::presets::zcu102;

fn main() {
    let (library, _registry) = standard_library();
    let params = range_detection::Params::default();
    println!(
        "range detection: {}-sample LFM pulse, planted echo at delay {}",
        params.n_samples, params.target_delay
    );
    println!();

    let workload = WorkloadSpec::validation([("range_detection", 8usize)])
        .generate(&library)
        .expect("workload");

    for (cores, ffts) in [(1usize, 0usize), (1, 1), (2, 1), (3, 0), (3, 2)] {
        let mut emulation = Emulation::new(zcu102(cores, ffts)).expect("platform");
        let (stats, images) = emulation
            .run_with_images(&mut FrfsScheduler::new(), &workload, &library)
            .expect("emulation");
        print_run_row(&format!("{cores}C+{ffts}F"), &stats);
        print_utilization(&stats);

        // Verify every instance found the planted target.
        for app in &stats.apps {
            let mem = images.memory(app.instance).unwrap();
            assert_eq!(
                mem.read_u32("lag").unwrap() as usize,
                params.target_delay,
                "{cores}C+{ffts}F {:?}",
                app.instance
            );
        }
    }
    println!();
    println!("all 5 configurations detected the target at delay {}.", params.target_delay);
}
