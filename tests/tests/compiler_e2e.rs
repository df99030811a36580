//! Case-study-4 end-to-end: a monolithic, unlabeled program is
//! automatically converted to a DAG application and executed by the
//! emulation runtime — including transparently substituted FFT kernels
//! running on the emulated accelerator.

use dssoc_appmodel::{AppLibrary, WorkloadSpec};
use dssoc_compiler::{compile, CompileOptions};
use dssoc_core::prelude::*;
use dssoc_integration::default_config;
use dssoc_platform::presets::zcu102;

fn read_scalar(mem: &dssoc_appmodel::memory::AppMemory, name: &str) -> f64 {
    f64::from_le_bytes(mem.read_bytes(name).unwrap()[..8].try_into().unwrap())
}

fn run_converted(
    opts: &CompileOptions,
    cores: usize,
    ffts: usize,
    n: usize,
    delay: usize,
) -> (f64, EmulationStats) {
    let program = dssoc_compiler::programs::monolithic_range_detection(n, delay);
    let app = compile(&program, opts).unwrap();
    let mut library = AppLibrary::new();
    library.register_json(&app.json, &app.registry).unwrap();
    let wl =
        WorkloadSpec::validation([(opts.app_name.clone(), 1usize)]).generate(&library).unwrap();
    let mut emu = Emulation::with_config(zcu102(cores, ffts), default_config()).unwrap();
    let (stats, images) = emu.run_with_images(&mut FrfsScheduler::new(), &wl, &library).unwrap();
    let mem = images.memory(stats.apps[0].instance).unwrap();
    let lag = read_scalar(mem, "lag");
    (lag, stats)
}

#[test]
fn converted_app_runs_in_the_emulator() {
    let opts = CompileOptions { app_name: "auto_rd".into(), ..CompileOptions::default() };
    let (lag, stats) = run_converted(&opts, 3, 0, 64, 13);
    assert_eq!(lag, 13.0);
    assert_eq!(stats.tasks.len(), 7, "glue + six kernels");
    assert_eq!(stats.completed_apps(), 1);
}

#[test]
fn optimized_substitution_preserves_output() {
    let opts = CompileOptions {
        app_name: "auto_rd_opt".into(),
        substitute_optimized: true,
        ..CompileOptions::default()
    };
    let (lag, stats) = run_converted(&opts, 3, 0, 64, 21);
    assert_eq!(lag, 21.0, "optimized FFT must preserve the detection result");
    // The recognized nodes ran the optimized runfuncs.
    let opt_tasks = stats.tasks.iter().filter(|t| t.kernel.starts_with("opt_fft_")).count();
    assert_eq!(opt_tasks, 3, "two DFTs + one IDFT substituted");
}

#[test]
fn accelerator_substitution_runs_on_the_device() {
    let opts = CompileOptions {
        app_name: "auto_rd_accel".into(),
        substitute_optimized: false,
        add_accelerator_platforms: true,
        ..CompileOptions::default()
    };
    // MET steers FFT-capable tasks to the accelerator when its estimate
    // wins; with only one core the FRFS fallback also reaches it. Use a
    // 1C+1F platform so the device gets work under FRFS.
    let program = dssoc_compiler::programs::monolithic_range_detection(64, 30);
    let app = compile(&program, &opts).unwrap();
    let mut library = AppLibrary::new();
    library.register_json(&app.json, &app.registry).unwrap();
    let wl = WorkloadSpec::validation([("auto_rd_accel".to_string(), 1usize)])
        .generate(&library)
        .unwrap();
    let mut emu = Emulation::with_config(zcu102(1, 1), default_config()).unwrap();
    let (stats, images) = emu.run_with_images(&mut MetScheduler::new(), &wl, &library).unwrap();
    let mem = images.memory(stats.apps[0].instance).unwrap();
    assert_eq!(read_scalar(mem, "lag"), 30.0);
    let accel_tasks = stats.tasks.iter().filter(|t| t.kernel.starts_with("accel_fft_")).count();
    assert!(accel_tasks > 0, "no substituted kernel reached the accelerator");
}

#[test]
fn optimized_fft_is_dramatically_faster_than_naive_dft() {
    // The quantitative heart of case study 4: measure the per-node
    // execution of the recognized kernels naive vs substituted. With
    // n = 256 the paper-scale ~100x gap should be visible even in a
    // debug-profile test (we only assert a conservative 5x here; the
    // bench reports the real ratio in release mode).
    let n = 256;
    let naive_opts = CompileOptions { app_name: "rd_naive".into(), ..CompileOptions::default() };
    let opt_opts = CompileOptions {
        app_name: "rd_opt".into(),
        substitute_optimized: true,
        ..CompileOptions::default()
    };
    let (lag_naive, stats_naive) = run_converted(&naive_opts, 1, 0, n, 77);
    let (lag_opt, stats_opt) = run_converted(&opt_opts, 1, 0, n, 77);
    assert_eq!(lag_naive, 77.0);
    assert_eq!(lag_opt, 77.0);

    // Sum functional times of the three FFT-class nodes in each run.
    let naive: f64 = stats_naive
        .tasks
        .iter()
        .filter(|t| ["kernel_1", "kernel_2", "kernel_4"].contains(&t.node.as_str()))
        .map(|t| t.measured.as_secs_f64())
        .sum();
    let optimized: f64 = stats_opt
        .tasks
        .iter()
        .filter(|t| ["kernel_1", "kernel_2", "kernel_4"].contains(&t.node.as_str()))
        .map(|t| t.measured.as_secs_f64())
        .sum();
    assert!(naive > 0.0 && optimized > 0.0);
    let speedup = naive / optimized;
    assert!(speedup > 5.0, "expected a large speedup, got {speedup:.1}x");
}
