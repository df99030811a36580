//! The fingerprint and the result cache's by-value key must agree on
//! what a scenario is: for a spec A stored in a [`ResultCache`] and a
//! spec B looked up under A's fingerprint, B hits exactly when it
//! fingerprints like A.
//!
//! Each identity field is perturbed in turn — the arrivals (an app, a
//! time, the order of two same-time arrivals), the time frame, the
//! injection-parameter order, the scheduler's letter case, the
//! platform, the cost table, the timing and overhead modes, the
//! reservation depth, the faults, and one node of a cloned library —
//! and where the outcome is known (an equal scenario must hit, a
//! different one must miss) it is asserted too.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec};
use dssoc_appmodel::workload::{InjectionParams, Workload, WorkloadSpec};
use dssoc_core::engine::{OverheadMode, TimingMode};
use dssoc_core::fault::{FaultSpec, PermanentFault, RateFault};
use dssoc_core::job::{CostSpec, Engine, JobRunner, ResultCache, ScenarioKey, ScenarioSpec};
use dssoc_core::stats::EmulationStats;
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::{AccelModel, PeKind, PlatformConfig};
use dssoc_platform::presets::zcu102;

const APPS: [&str; 3] = ["range_detection", "wifi_tx", "wifi_rx"];

fn library() -> &'static AppLibrary {
    static LIBRARY: OnceLock<AppLibrary> = OnceLock::new();
    LIBRARY.get_or_init(|| dssoc_apps::standard_library().0)
}

/// `library` with every app rebuilt into a fresh `Arc` (equal content,
/// distinct pointers), and `app`'s first node's first platform
/// estimate moved by 1 ns when `perturb` is set.
fn cloned_library(perturb: Option<&str>) -> AppLibrary {
    let mut out = AppLibrary::new();
    for name in library().names() {
        let spec = library().get(name).expect("listed app");
        let mut nodes = spec.nodes.clone();
        if perturb == Some(name) {
            let p = &mut nodes[0].platforms[0];
            p.mean_exec = Some(p.mean_exec.unwrap_or_default() + Duration::from_nanos(1));
        }
        out.register(ApplicationSpec::new(spec.name.clone(), Arc::clone(&spec.variables), nodes));
    }
    out
}

fn injections(probs: [f64; 3]) -> Vec<InjectionParams> {
    let periods_us = [100, 200, 300];
    APPS.iter()
        .zip(periods_us)
        .zip(probs)
        .map(|((app, period), probability)| InjectionParams {
            app: app.to_string(),
            period: Duration::from_micros(period),
            probability,
        })
        .collect()
}

fn cost() -> CostSpec {
    let mut table = CostTable::new();
    table.set("fft_256", "cortex-a53", Duration::from_micros(40));
    CostSpec::table(table)
}

fn faults(seed: u64) -> Arc<FaultSpec> {
    let transient = vec![RateFault { kernel: None, pe: None, probability: 0.1 }];
    Arc::new(FaultSpec { seed, transient, ..FaultSpec::default() })
}

fn base_spec(workload: Workload) -> ScenarioSpec {
    ScenarioSpec::builder()
        .library(library().clone())
        .platform(zcu102(2, 1))
        .scheduler("eft")
        .workload(workload)
        .timing(TimingMode::Modeled)
        .overhead(OverheadMode::Fixed(Duration::from_micros(3)))
        .cost(cost())
        .reservation_depth(1)
        .faults(faults(7))
        .build()
        .expect("base scenario")
}

/// Any stats record: the cache stores what it is given.
fn some_stats() -> Arc<EmulationStats> {
    static STATS: OnceLock<Arc<EmulationStats>> = OnceLock::new();
    let stats = STATS.get_or_init(|| {
        let workload = WorkloadSpec::validation([("wifi_tx", 1usize)]).generate(library());
        let spec = ScenarioSpec::builder()
            .library(library().clone())
            .platform(zcu102(1, 0))
            .workload(workload.expect("workload"))
            .overhead(OverheadMode::None)
            .cost(cost())
            .build()
            .expect("scenario");
        Arc::new(JobRunner::new().run_spec(spec, Engine::Des).expect("run").stats)
    });
    Arc::clone(stats)
}

/// The workload of `wl`'s arrivals after `edit`, as `(app, time)` pairs.
fn edited(wl: &Workload, edit: impl FnOnce(&mut Vec<(&str, Duration)>)) -> Workload {
    let mut pairs: Vec<(&str, Duration)> =
        wl.arrivals().iter().map(|&a| (wl.app_of(a), a.at())).collect();
    edit(&mut pairs);
    Workload::new(pairs, wl.time_frame())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fingerprint_equal_exactly_when_the_cache_hits(
        seed in any::<u64>(),
        probs in (0.4f64..=1.0, 0.4f64..=1.0, 0.4f64..=1.0),
        pick in any::<u64>(),
    ) {
        let probs = [probs.0, probs.1, probs.2];
        let frame = Duration::from_millis(2);
        let spec = WorkloadSpec::performance(injections(probs), frame, seed);
        let wl = spec.generate(library()).expect("workload");
        if wl.is_empty() {
            return Ok(());
        }
        let a = base_spec(wl.clone());
        let k = (pick % wl.len() as u64) as usize;

        // (what, perturbed spec, whether it is the same scenario if known)
        let mut cases: Vec<(&str, ScenarioSpec, Option<bool>)> = Vec::new();
        let with = |f: &dyn Fn(&mut ScenarioSpec)| {
            let mut b = a.clone();
            f(&mut b);
            b
        };
        let workload = |w: Workload| with(&|b| b.workload = Arc::new(w.clone()));

        cases.push(("nothing", a.clone(), Some(true)));
        cases.push(("an arrival's app", workload(edited(&wl, |p| {
            let next = APPS.iter().position(|&n| n == p[k].0).expect("app") + 1;
            p[k].0 = APPS[next % APPS.len()];
        })), Some(false)));
        cases.push(("an arrival's time", workload(edited(&wl, |p| {
            p[k].1 += Duration::from_nanos(1);
        })), Some(false)));
        let tie = wl.arrivals().windows(2).position(|w| w[0].at_ns == w[1].at_ns && w[0].app != w[1].app);
        if let Some(t) = tie {
            cases.push(("two same-time arrivals swapped", workload(edited(&wl, |p| {
                p.swap(t, t + 1);
            })), Some(false)));
        }
        let longer = Workload::new(
            wl.arrivals().iter().map(|&a| (wl.app_of(a), a.at())),
            Some(frame + Duration::from_nanos(1)),
        );
        cases.push(("the time frame", workload(longer), Some(false)));
        let mut reordered = injections(probs);
        reordered.reverse();
        let reordered = WorkloadSpec::performance(reordered, frame, seed).generate(library());
        cases.push(("injection order", workload(reordered.expect("workload")), None));
        cases.push(("scheduler case", with(&|b| b.scheduler = "EfT".into()), Some(true)));
        cases.push(("another scheduler", with(&|b| b.scheduler = "met".into()), Some(false)));
        cases.push(("the platform", with(&|b| b.platform = Arc::new(zcu102(3, 1))), Some(false)));
        cases.push(("an equal platform", with(&|b| b.platform = Arc::new(zcu102(2, 1))), Some(true)));
        cases.push(("the cost table", with(&|b| {
            let mut table = CostTable::new();
            table.set("fft_256", "cortex-a53", Duration::from_micros(41));
            b.cost = CostSpec::table(table);
        }), Some(false)));
        cases.push(("an equal cost table", with(&|b| b.cost = cost()), Some(true)));
        cases.push(("the timing", with(&|b| b.timing = TimingMode::WallClock), Some(false)));
        cases.push(("the overhead", with(&|b| {
            b.overhead = OverheadMode::Fixed(Duration::from_micros(4));
        }), Some(false)));
        cases.push(("the reservation depth", with(&|b| b.reservation_depth = 2), Some(false)));
        cases.push(("the fault seed", with(&|b| b.faults = Some(faults(8))), Some(false)));
        cases.push(("no faults", with(&|b| b.faults = None), Some(false)));
        cases.push(("equal faults", with(&|b| b.faults = Some(faults(7))), Some(true)));
        cases.push(("a cloned library", with(&|b| {
            b.library = Arc::new(cloned_library(None));
        }), Some(true)));
        let used = wl.app_of(wl.arrivals()[k]).to_string();
        cases.push(("one node's estimate", with(&|b| {
            b.library = Arc::new(cloned_library(Some(&used)));
        }), Some(false)));
        cases.push(("an unused app's estimate", with(&|b| {
            b.library = Arc::new(cloned_library(Some("pulse_doppler")));
        }), Some(true)));
        cases.push(("no time frame", workload(Workload::new(
            wl.arrivals().iter().map(|&a| (wl.app_of(a), a.at())),
            None,
        )), Some(false)));
        let platform = |f: &dyn Fn(&mut PlatformConfig)| with(&|b| {
            let mut p = (*b.platform).clone();
            f(&mut p);
            b.platform = Arc::new(p);
        });
        let accel = |f: &dyn Fn(&mut AccelModel)| platform(&|p| {
            let fft = p.pes.iter_mut().find_map(|pe| match &mut pe.kind {
                PeKind::Accel(a) => Some(a),
                PeKind::Cpu(_) => None,
            });
            f(fft.expect("an accelerator"));
        });
        cases.push(("a core's speed", platform(&|p| {
            let PeKind::Cpu(cpu) = &mut p.pes[0].kind else { panic!("PE 0 is a core") };
            cpu.speed *= 2.0;
        }), Some(false)));
        cases.push(("the DMA setup", accel(&|a| a.dma.setup += Duration::from_nanos(1)), Some(false)));
        cases.push(("the FFT throughput", accel(&|a| a.throughput_msps *= 2.0), Some(false)));
        cases.push(("the pipeline latency", accel(&|a| {
            a.pipeline_latency += Duration::from_nanos(1);
        }), Some(false)));
        cases.push(("the max points", accel(&|a| a.max_points += 1), Some(false)));
        cases.push(("the overlay speed", platform(&|p| p.overlay.speed *= 2.0), Some(false)));
        cases.push(("the context switch", platform(&|p| {
            p.contention.context_switch += Duration::from_nanos(1);
        }), Some(false)));
        cases.push(("the host slots", platform(&|p| p.host_slots += 1), Some(false)));
        let fault = |f: &dyn Fn(&mut FaultSpec)| with(&|b| {
            let mut spec = (*faults(7)).clone();
            f(&mut spec);
            b.faults = Some(Arc::new(spec));
        });
        cases.push(("a permanent fault", fault(&|f| {
            f.permanent.push(PermanentFault { pe: 0, at_us: 5.0 });
        }), Some(false)));
        cases.push(("a hang rule", fault(&|f| {
            f.hangs.push(RateFault { kernel: None, pe: Some(0), probability: 0.1 });
        }), Some(false)));
        cases.push(("the retry count", fault(&|f| f.retry.max_retries += 1), Some(false)));
        cases.push(("the retry backoff", fault(&|f| f.retry.backoff_us += 1.0), Some(false)));
        cases.push(("the quarantine count", fault(&|f| f.retry.quarantine_after += 1), Some(false)));
        cases.push(("the watchdog factor", fault(&|f| f.watchdog_factor += 1.0), Some(false)));
        cases.push(("the watchdog floor", fault(&|f| f.watchdog_min_wall_ms += 1.0), Some(false)));

        let fp = a.fingerprint();
        for (what, b, same) in cases {
            let cache = ResultCache::new(1);
            cache.store(&Arc::new(ScenarioKey::of(&a)), Engine::Des, some_stats());
            let hit = cache.lookup(&ScenarioKey::of(&b).with_fingerprint(fp), Engine::Des).is_some();
            let equal = b.fingerprint() == fp;
            prop_assert_eq!(hit, equal, "{}: hit {} but fingerprints equal {}", what, hit, equal);
            if let Some(same) = same {
                prop_assert_eq!(hit, same, "{}: expected the same scenario: {}", what, same);
            }
        }
    }
}

/// Stores `a`, then looks `b` up under `a`'s fingerprint: a miss, and
/// the fingerprints differ.
fn assert_distinct(a: &ScenarioSpec, b: &ScenarioSpec) {
    let cache = ResultCache::new(1);
    cache.store(&Arc::new(ScenarioKey::of(a)), Engine::Des, some_stats());
    let b_under_a = ScenarioKey::of(b).with_fingerprint(a.fingerprint());
    assert!(cache.lookup(&b_under_a, Engine::Des).is_none());
    assert_ne!(a.fingerprint(), b.fingerprint());
}

/// Variants that carry nothing, or a zero, are still tagged apart.
#[test]
fn tagged_variants_are_distinct_scenarios() {
    let wl = |frame| Workload::new([("wifi_tx", Duration::ZERO)], frame);
    let overhead = |overhead| ScenarioSpec { overhead, ..base_spec(wl(None)) };
    assert_distinct(&overhead(OverheadMode::Fixed(Duration::ZERO)), &overhead(OverheadMode::None));
    assert_distinct(&base_spec(wl(None)), &base_spec(wl(Some(Duration::ZERO))));
}

/// One fixed scenario's fingerprint, pinned: served fingerprints move
/// only when the encoding (or a standard app, or the preset) is changed
/// on purpose.
#[test]
fn a_fixed_scenario_keeps_its_fingerprint() {
    let arrivals = [("wifi_tx", Duration::ZERO), ("range_detection", Duration::from_micros(5))];
    let spec = base_spec(Workload::new(arrivals, Some(Duration::from_millis(1))));
    assert_eq!(spec.fingerprint().to_string(), "5795754b543ce7f1");
}

/// A spec naming an app the library lacks fingerprints by the app's
/// name, but is never stored.
#[test]
fn a_spec_with_an_unknown_app_is_never_stored() {
    let ghost = |name: &str| base_spec(Workload::new([(name, Duration::ZERO)], None));
    assert_ne!(ghost("ghost").fingerprint(), ghost("phantom").fingerprint());
    let cache = ResultCache::new(1);
    cache.store(&Arc::new(ScenarioKey::of(&ghost("ghost"))), Engine::Des, some_stats());
    assert!(cache.is_empty());
}
