//! Scenario fingerprint and result-cache properties.
//!
//! The fingerprint is the key the whole job layer hangs on: the
//! [`ResultCache`] finds a replayable result by it (and confirms the
//! hit by value), so it must be *structural* — equal for any two specs
//! describing the same scenario by value, regardless of `Arc` identity
//! or construction order — and it must move under every single field
//! that can change a run's outcome.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use dssoc_appmodel::app::AppLibrary;
use dssoc_appmodel::{Workload, WorkloadSpec};
use dssoc_apps::standard_library;
use dssoc_core::fault::{FaultSpec, RateFault, RetryPolicy};
use dssoc_core::job::{CompiledScenario, CostSpec, Engine, JobRunner, ScenarioKey, ScenarioSpec};
use dssoc_core::prelude::*;
use dssoc_core::stats::{AppAggregate, EmulationStats, OverheadBreakdown, ReliabilityCounters};
use dssoc_platform::cost::CostTable;
use dssoc_platform::pe::PeKind;
use dssoc_platform::presets::zcu102;
use dssoc_trace::TraceSession;

const APPS: [&str; 2] = ["pulse_doppler", "wifi_rx"];

/// Everything a test scenario varies over, as plain values — so a spec
/// can be rebuilt from scratch (fresh library, fresh `Arc`s, fresh
/// table) and must still fingerprint identically.
#[derive(Debug, Clone)]
struct Params {
    cores: usize,
    ffts: usize,
    scheduler: String,
    counts: [usize; 2],
    modeled: bool,
    overhead: u8,
    fixed_us: u64,
    table_us: u64,
    reservation_depth: usize,
    fault_seed: Option<u64>,
}

fn params_strategy() -> impl Strategy<Value = Params> {
    (
        (1usize..=3, 0usize..=2, 0usize..4, 1usize..=2),
        (1usize..=2, any::<bool>(), 0u8..3, 1u64..500),
        (10u64..5_000, 0usize..=2, any::<bool>(), any::<u64>()),
    )
        .prop_map(|(shape, run, rest)| {
            let (cores, ffts, sched_idx, count0) = shape;
            let (count1, modeled, overhead, fixed_us) = run;
            let (table_us, reservation_depth, with_faults, seed) = rest;
            Params {
                cores,
                ffts,
                scheduler: ["frfs", "met", "eft", "random"][sched_idx].to_string(),
                counts: [count0, count1],
                modeled,
                overhead,
                fixed_us,
                table_us,
                reservation_depth,
                fault_seed: with_faults.then_some(seed),
            }
        })
}

/// A deterministic cost table covering every `(runfunc, class)` pair the
/// reference apps can reach on a zcu102-family platform, with
/// `base_us` folded into each duration so the table contents vary with
/// the parameter.
fn cost_table(library: &AppLibrary, base_us: u64) -> CostTable {
    let platform = zcu102(3, 2);
    let mut table = CostTable::new();
    for app in APPS {
        let spec = library.get(app).expect("reference app");
        for node in &spec.nodes {
            for pe in &platform.pes {
                if let Some(p) = node.platform(&pe.platform_key) {
                    let d = Duration::from_micros(base_us + 10 * node.index as u64);
                    table.set(p.runfunc.clone(), pe.class_name(), d);
                }
            }
        }
    }
    table
}

/// Builds a spec from `p`, constructing every constituent — library,
/// workload, platform, cost table — from scratch. Two calls with equal
/// params share no `Arc`s, so fingerprint agreement between them is
/// structural, never pointer identity.
fn build_spec(p: &Params) -> ScenarioSpec {
    let (library, _registry) = standard_library();
    let workload = WorkloadSpec::validation([(APPS[0], p.counts[0]), (APPS[1], p.counts[1])])
        .generate(&library)
        .expect("workload");
    let overhead = match p.overhead {
        0 => OverheadMode::None,
        1 => OverheadMode::Measured,
        _ => OverheadMode::Fixed(Duration::from_micros(p.fixed_us)),
    };
    let mut builder = ScenarioSpec::builder()
        .platform(zcu102(p.cores, p.ffts))
        .scheduler(p.scheduler.clone())
        .workload(workload)
        .timing(if p.modeled { TimingMode::Modeled } else { TimingMode::WallClock })
        .overhead(overhead)
        .cost(CostSpec::table(cost_table(&library, p.table_us)))
        .reservation_depth(p.reservation_depth);
    if let Some(seed) = p.fault_seed {
        builder = builder.faults(Arc::new(FaultSpec {
            seed,
            transient: vec![RateFault { kernel: None, pe: None, probability: 0.1 }],
            retry: RetryPolicy { max_retries: 2, backoff_us: 50.0, quarantine_after: 1000 },
            ..FaultSpec::default()
        }));
    }
    builder.library(library).build().expect("valid scenario")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Structurally equal specs fingerprint equal even when every Arc,
    /// string, and table is constructed independently.
    #[test]
    fn equal_specs_fingerprint_equal(p in params_strategy()) {
        let a = build_spec(&p);
        let b = build_spec(&p);
        prop_assert!(!Arc::ptr_eq(&a.library, &b.library), "fixture must not share Arcs");
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        // Cloning (Arc-sharing) trivially preserves it too.
        prop_assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    /// Any single-field mutation moves the fingerprint: platform shape,
    /// scheduler policy, workload size, timing, overhead, cost-table
    /// contents, reservation depth, and fault seed are all visible.
    #[test]
    fn single_field_mutations_change_fingerprint(p in params_strategy()) {
        let base = build_spec(&p).fingerprint();
        let mutations: Vec<(&str, Params)> = vec![
            // Shape mutations wrap within the preset's bounds (≤3 cores,
            // ≤2 FFTs) but always land on a different shape.
            ("platform cores", Params { cores: p.cores % 3 + 1, ..p.clone() }),
            ("platform accelerators", Params { ffts: (p.ffts + 1) % 3, ..p.clone() }),
            (
                "scheduler",
                Params {
                    scheduler: if p.scheduler == "frfs" { "met".into() } else { "frfs".into() },
                    ..p.clone()
                },
            ),
            ("workload count", Params { counts: [p.counts[0] + 1, p.counts[1]], ..p.clone() }),
            ("timing mode", Params { modeled: !p.modeled, ..p.clone() }),
            ("overhead mode", Params { overhead: (p.overhead + 1) % 3, ..p.clone() }),
            ("cost table entry", Params { table_us: p.table_us + 1, ..p.clone() }),
            (
                "reservation depth",
                Params { reservation_depth: p.reservation_depth + 1, ..p.clone() },
            ),
            (
                "fault seed",
                Params {
                    fault_seed: Some(p.fault_seed.map_or(1, |s| s.wrapping_add(1))),
                    ..p.clone()
                },
            ),
        ];
        for (field, mutated) in mutations {
            let moved = build_spec(&mutated).fingerprint();
            prop_assert!(base != moved, "mutating {} did not move the fingerprint", field);
        }
    }
}

/// Scheduler resolution is case-insensitive, so the fingerprint must
/// treat `"FRFS"` and `"frfs"` as the same scenario.
#[test]
fn scheduler_name_case_is_canonicalized() {
    let p = Params {
        cores: 2,
        ffts: 1,
        scheduler: "frfs".into(),
        counts: [1, 1],
        modeled: true,
        overhead: 0,
        fixed_us: 1,
        table_us: 100,
        reservation_depth: 0,
        fault_seed: None,
    };
    let lower = build_spec(&p).fingerprint();
    let upper = build_spec(&Params { scheduler: "FRFS".into(), ..p }).fingerprint();
    assert_eq!(lower, upper);
}

/// A preset-name platform and the equivalent constructed config are the
/// same scenario.
#[test]
fn platform_named_matches_constructed_platform() {
    let (library, _registry) = standard_library();
    let workload = Arc::new(
        WorkloadSpec::validation([("pulse_doppler", 1usize)]).generate(&library).expect("workload"),
    );
    let by_value = ScenarioSpec::builder()
        .library(library.clone())
        .platform(zcu102(2, 1))
        .workload(Arc::clone(&workload))
        .build()
        .expect("spec");
    let by_name = ScenarioSpec::builder()
        .library(library)
        .platform_named("zcu102:2C+1F")
        .workload(workload)
        .build()
        .expect("spec");
    assert_eq!(by_value.fingerprint(), by_name.fingerprint());
}

/// Every field a run summary keeps, as comparable values. Job-layer
/// results carry no per-task records, so this is everything a cache hit
/// can be checked against; [`a_job_result_is_the_summary_of_a_direct_run`]
/// ties those fields to a direct engine run's records. (`EmulationStats`
/// carries a lazily initialized aggregation cache, so whole-struct Debug
/// comparison would be sensitive to *when* a copy was inspected; this
/// projection is not.)
#[derive(Debug, PartialEq)]
struct Summary {
    platform: String,
    scheduler: String,
    makespan: Duration,
    sched_invocations: u64,
    pe_busy: Vec<(u32, Duration)>,
    pe_names: Vec<(u32, String)>,
    overhead: OverheadBreakdown,
    reliability: ReliabilityCounters,
    /// `(instance, app, arrival, finish, task count)` per finished instance.
    apps: Vec<(u64, String, u64, u64, usize)>,
    tasks: usize,
    per_app: Vec<(String, AppAggregate)>,
}

fn stats_skeleton(stats: &EmulationStats) -> Summary {
    Summary {
        platform: stats.platform.clone(),
        scheduler: stats.scheduler.clone(),
        makespan: stats.makespan,
        sched_invocations: stats.sched_invocations,
        pe_busy: stats.pe_busy.iter().map(|(pe, d)| (pe.0, *d)).collect(),
        pe_names: stats.pe_names.iter().map(|(pe, n)| (pe.0, n.clone())).collect(),
        overhead: stats.overhead,
        reliability: stats.reliability,
        apps: stats
            .apps
            .iter()
            .map(|a| (a.instance.0, a.app.to_string(), a.arrival.0, a.finish.0, a.task_count))
            .collect(),
        tasks: stats.tasks.len(),
        per_app: stats.app_aggregates().iter().map(|(app, agg)| (app.to_string(), *agg)).collect(),
    }
}

/// A deterministic spec (modeled timing, no overhead, full cost table)
/// for the cache tests.
fn deterministic_spec() -> ScenarioSpec {
    build_spec(&Params {
        cores: 2,
        ffts: 1,
        scheduler: "frfs".into(),
        counts: [1, 1],
        modeled: true,
        overhead: 0,
        fixed_us: 1,
        table_us: 100,
        reservation_depth: 0,
        fault_seed: None,
    })
}

/// A repeated deterministic job replays from the cache with
/// bit-identical stats on both engines.
#[test]
fn cache_hit_returns_bit_identical_stats() {
    let mut jobs = JobRunner::new();
    for engine in [Engine::Des, Engine::Threaded] {
        let first = jobs.run_spec(deterministic_spec(), engine).expect("first run");
        let second = jobs.run_spec(deterministic_spec(), engine).expect("second run");
        assert!(!first.cached, "{engine:?}: first run must execute");
        assert!(second.cached, "{engine:?}: repeat must replay from the cache");
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(
            stats_skeleton(&first.stats),
            stats_skeleton(&second.stats),
            "{engine:?}: cached stats diverged from the original run"
        );
    }
    assert_eq!(jobs.cache().hits(), 2);
    assert_eq!(jobs.cache().misses(), 2);
}

/// Non-deterministic scenarios (host-measured overhead or scaled
/// costs on the threaded engine) bypass the cache entirely.
#[test]
fn nondeterministic_threaded_runs_are_never_cached() {
    let spec = build_spec(&Params {
        cores: 2,
        ffts: 0,
        scheduler: "frfs".into(),
        counts: [1, 1],
        modeled: true,
        overhead: 1, // Measured — outcome depends on host timing.
        fixed_us: 1,
        table_us: 100,
        reservation_depth: 0,
        fault_seed: None,
    });
    let mut jobs = JobRunner::new();
    let first = jobs.run_spec(spec.clone(), Engine::Threaded).expect("first run");
    let second = jobs.run_spec(spec, Engine::Threaded).expect("second run");
    assert!(!first.cached && !second.cached);
    assert_eq!(jobs.cache().hits(), 0);
    assert_eq!(jobs.cache().misses(), 0, "uncacheable runs must not even count as misses");
    assert!(jobs.cache().is_empty());
}

/// A traced run's sink is a run argument, not engine state: after
/// `run_traced`, an untraced run of the same scenario on the same warm
/// engine records nothing into that sink and is an ordinary cache miss
/// followed by an insert — on both engines.
#[test]
fn per_run_trace_sink_ends_with_its_run() {
    let scenario = CompiledScenario::compile(deterministic_spec()).expect("compile");
    for (engine, warm) in [(Engine::Des, (0, 1)), (Engine::Threaded, (1, 0))] {
        let mut jobs = JobRunner::new();
        let session = TraceSession::new();
        let traced = jobs
            .run_traced(&scenario, engine, &mut FrfsScheduler::new(), session.sink())
            .expect("traced run");
        let recorded = session.events_recorded();
        assert!(recorded > 0, "{engine:?}: the traced run records into its sink");
        assert!(!traced.cached);
        assert_eq!(jobs.cache().misses(), 0, "{engine:?}: traced runs bypass the cache");
        assert!(jobs.cache().is_empty());

        let untraced = jobs.run(&scenario, engine).expect("untraced run");
        assert_eq!(jobs.warm_engines(), warm, "{engine:?}: both runs share one warm engine");
        assert_eq!(
            session.events_recorded(),
            recorded,
            "{engine:?}: the first sink must hold only the first run's events"
        );
        assert!(!untraced.cached, "{engine:?}: a traced run never fills the cache");
        assert_eq!(jobs.cache().hits(), 0);
        assert_eq!(jobs.cache().misses(), 1, "{engine:?}: the untraced run is a cache miss");
        assert_eq!(jobs.cache().len(), 1, "{engine:?}: ...followed by an insert");
        assert_eq!(stats_skeleton(&traced.stats), stats_skeleton(&untraced.stats));
    }
}

/// A 64-bit fingerprint collision costs a miss, never another
/// scenario's answer. Forced by compiling a second scenario under the
/// first one's fingerprint: one arrival later, and separately one PE
/// faster. The collided run executes and returns its own result, and
/// each scenario is served from the cache only by its own entry.
#[test]
fn forced_fingerprint_collisions_miss_and_run_their_own_scenario() {
    let base = deterministic_spec();
    let mut later = base.clone();
    let mut arrivals: Vec<(&str, Duration)> =
        base.workload.arrivals().iter().map(|&a| (base.workload.app_of(a), a.at())).collect();
    arrivals.last_mut().expect("an arrival").1 += Duration::from_secs(10);
    later.workload = Arc::new(Workload::new(arrivals, base.workload.time_frame()));

    let mut faster = base.clone();
    let mut platform = (*base.platform).clone();
    let PeKind::Cpu(cpu) = &mut platform.pes[0].kind else { panic!("zcu102 PE 0 is a core") };
    cpu.speed *= 2.0;
    faster.platform = Arc::new(platform);

    // Every node of the reference apps carries a cost, so PE speed does
    // not reach their modeled durations: that pair's results coincide,
    // and only its lookups can tell the scenarios apart.
    for (a, b, results_differ) in [(base.clone(), later, true), (base, faster, false)] {
        let fresh = |spec: &ScenarioSpec| {
            let result = JobRunner::new().run_spec(spec.clone(), Engine::Des).expect("fresh run");
            stats_skeleton(&result.stats)
        };
        let (own_a, own_b) = (fresh(&a), fresh(&b));
        assert_eq!(own_a != own_b, results_differ);

        let mut jobs = JobRunner::new();
        let first = CompiledScenario::compile(a).expect("compile a");
        let fp = first.fingerprint();
        let b_under_a = ScenarioKey::of(&b).with_fingerprint(fp);
        let collided = CompiledScenario::compile_keyed(b, b_under_a).expect("compile b");
        assert!(!jobs.run(&first, Engine::Des).expect("run a").cached);
        assert!(
            jobs.cache().lookup(collided.key(), Engine::Des).is_none(),
            "a colliding spec must not find the other scenario's result"
        );
        assert!(jobs.cache().lookup(first.key(), Engine::Des).is_some());

        let ran = jobs.run(&collided, Engine::Des).expect("run b");
        assert!(!ran.cached, "a collision is a miss");
        assert_eq!(stats_skeleton(&ran.stats), own_b, "the collided run returns its own result");
        // b's result took the slot: a misses once, then hits its own.
        let again = jobs.run(&first, Engine::Des).expect("rerun a");
        assert!(!again.cached);
        assert_eq!(stats_skeleton(&again.stats), own_a);
        let hit = jobs.run(&first, Engine::Des).expect("replay a");
        assert!(hit.cached);
        assert_eq!(stats_skeleton(&hit.stats), own_a);
        assert_eq!((jobs.cache().hits(), jobs.cache().misses()), (1, 3));
    }
}

/// A warm engine's estimate book takes only the prototype's values, so
/// a scenario compiled under another's fingerprint runs on it exactly
/// as on a fresh runner, although the two books' slot maps differ.
#[test]
fn a_warm_engine_runs_a_collided_scenario_like_a_fresh_one() {
    let (library, _registry) = standard_library();
    let spec = |app: &str| {
        let workload = WorkloadSpec::validation([(app, 2usize)]).generate(&library);
        ScenarioSpec::builder()
            .library(library.clone())
            .platform(zcu102(2, 1))
            .scheduler("met")
            .workload(workload.expect("workload"))
            .overhead(OverheadMode::None)
            .cost(CostSpec::table(CostTable::new()))
            .build()
            .expect("spec")
    };
    let mut jobs = JobRunner::new();
    let first = CompiledScenario::compile(spec("wifi_tx")).expect("compile");
    jobs.run(&first, Engine::Des).expect("first run");
    let fp = first.fingerprint();
    let key = ScenarioKey::of(&spec("range_detection")).with_fingerprint(fp);
    let collided = CompiledScenario::compile_keyed(spec("range_detection"), key);
    let collided = collided.expect("compile");
    let warm = jobs.run(&collided, Engine::Des).expect("warm run");
    assert!(!warm.cached);
    let fresh = JobRunner::new().run(&collided, Engine::Des).expect("fresh run");
    assert_eq!(stats_skeleton(&warm.stats), stats_skeleton(&fresh.stats));
}

/// Fingerprint-only entries (`insert`/`get`) and by-value entries
/// (`store`/`lookup`) never answer each other's lookups, and only
/// `get` counts on its own.
#[test]
fn plain_and_by_value_entries_answer_only_their_own_lookups() {
    let spec = deterministic_spec();
    let key = Arc::new(ScenarioKey::of(&spec));
    let fp = key.fingerprint();
    assert_eq!(fp, spec.fingerprint(), "the fingerprint is the key's hash");
    let stats = JobRunner::new().run_spec(spec.clone(), Engine::Des).expect("run").stats;
    let cache = dssoc_core::job::ResultCache::new(4);
    cache.store(&key, Engine::Des, Arc::new(stats.clone()));
    assert!(cache.get(fp, Engine::Des).is_none(), "get never answers a by-value entry");
    let hit = cache.lookup(&key, Engine::Des).expect("by-value hit");
    assert_eq!(stats_skeleton(&hit), stats_skeleton(&stats));
    assert!(cache.lookup(&key, Engine::Threaded).is_none(), "the engine is part of the slot");
    cache.insert(fp, Engine::Threaded, stats);
    assert!(cache.lookup(&key, Engine::Threaded).is_none(), "lookup never answers insert");
    assert!(cache.get(fp, Engine::Threaded).is_some());
    assert_eq!((cache.hits(), cache.misses()), (1, 1), "only get counts by itself");
    cache.count(true);
    assert_eq!(cache.hits(), 2);
}

/// The scenario of [`deterministic_spec`] with a transient-fault plan
/// and `reservation_depth` reserved tasks per PE, so retries, fault
/// counters and (on the threaded engine) reservation dispatch all reach
/// the summary.
fn faulted_spec(reservation_depth: usize) -> ScenarioSpec {
    build_spec(&Params {
        cores: 2,
        ffts: 1,
        scheduler: "met".into(),
        counts: [2, 1],
        modeled: true,
        overhead: 2,
        fixed_us: 3,
        table_us: 100,
        reservation_depth,
        fault_seed: Some(7),
    })
}

/// A direct engine run of `scenario`: the full stats, task records
/// included, from a fresh engine outside the job layer.
fn direct_run(scenario: &Arc<CompiledScenario>, engine: Engine) -> EmulationStats {
    let platform = Arc::clone(&scenario.spec().platform);
    let mut sched = dssoc_core::sched::by_name(&scenario.spec().scheduler).expect("scheduler");
    match engine {
        Engine::Threaded => Emulation::with_config(platform, EmulationConfig::default())
            .expect("engine")
            .run_compiled(sched.as_mut(), scenario, None),
        Engine::Des => DesSimulator::new(platform, DesConfig::default())
            .expect("simulator")
            .run_compiled(sched.as_mut(), scenario, None, None),
    }
    .expect("direct run")
}

/// A job result, on a miss and on a hit, is exactly the summary of a
/// direct engine run of the same compiled scenario, on both engines,
/// bare and with a fault plan. The faulted threaded run also reserves
/// one task per PE; the DES models no reservation queues, so its faulted
/// run is at depth 0. The direct run's records back the summary's
/// counts: one task per record, and each app's task count is its
/// records'.
#[test]
fn a_job_result_is_the_summary_of_a_direct_run() {
    let runs = [
        (deterministic_spec(), Engine::Des),
        (deterministic_spec(), Engine::Threaded),
        (faulted_spec(0), Engine::Des),
        (faulted_spec(1), Engine::Threaded),
    ];
    for (spec, engine) in runs {
        let scenario = CompiledScenario::compile(spec).expect("compile");
        let full = direct_run(&scenario, engine);
        let mut per_app = std::collections::BTreeMap::<String, usize>::new();
        for t in full.tasks.iter() {
            *per_app.entry(t.app.to_string()).or_default() += 1;
        }
        assert_eq!(per_app.values().sum::<usize>(), full.tasks.len());
        let want = stats_skeleton(&full.into_summary());
        let counted: Vec<_> = want.per_app.iter().map(|(a, agg)| (a.clone(), agg.tasks)).collect();
        assert_eq!(counted, per_app.into_iter().collect::<Vec<_>>(), "{engine:?}");

        let mut jobs = JobRunner::new();
        let miss = jobs.run(&scenario, engine).expect("miss");
        let hit = jobs.run(&scenario, engine).expect("hit");
        assert!(!miss.cached && hit.cached, "{engine:?}");
        assert_eq!(stats_skeleton(&miss.stats), want, "{engine:?}: miss");
        assert_eq!(stats_skeleton(&hit.stats), want, "{engine:?}: hit");
    }
    let r = direct_run(&CompiledScenario::compile(faulted_spec(0)).unwrap(), Engine::Des);
    assert!(r.reliability.faults_injected > 0, "the fault plan fires: {:?}", r.reliability);
}

/// A job result holds no task records: asking for them panics with the
/// documented message, on a miss and on a hit, while the count stays.
#[test]
fn a_job_result_refuses_task_records() {
    for engine in [Engine::Des, Engine::Threaded] {
        let mut jobs = JobRunner::new();
        for pass in ["miss", "hit"] {
            let result = jobs.run_spec(deterministic_spec(), engine).expect("run");
            assert_eq!(result.cached, pass == "hit");
            assert!(!result.stats.tasks.is_empty());
            let records = std::panic::AssertUnwindSafe(|| result.stats.tasks.records().len());
            let asked = std::panic::catch_unwind(records);
            let message = *asked.expect_err("records panic").downcast::<String>().expect("message");
            let count = format!("counts {} tasks", result.stats.tasks.len());
            assert!(message.contains(&count), "{engine:?} {pass}: {message}");
            assert!(message.contains("keeps no per-task records"), "{message}");
            assert!(message.contains("DesSimulator::run and run_compiled"), "{message}");
        }
    }
}
