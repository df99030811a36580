//! Property-based tests over the whole stack: random DAGs through the
//! emulation engine, engine/DES equivalence, and workload-generator
//! invariants.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson, VariableJson};
use dssoc_appmodel::{AppLibrary, InjectionParams, KernelRegistry, WorkloadSpec};
use dssoc_core::des::{DesConfig, DesSimulator};
use dssoc_core::engine::Emulation;
use dssoc_core::job::CostSpec;
use dssoc_core::{EftScheduler, FrfsScheduler, MetScheduler, RandomScheduler, Scheduler};
use dssoc_integration::{deterministic_config, uniform_cost_table};
use dssoc_platform::presets::zcu102;

/// A randomly shaped layered DAG description: `layers[i]` is the node
/// count of layer `i`; every node gets edges from a random subset of the
/// previous layer (at least one).
#[derive(Debug, Clone)]
struct RandomDag {
    layers: Vec<usize>,
    // edge selector bits, consumed deterministically
    edge_seed: u64,
}

fn random_dag_strategy() -> impl Strategy<Value = RandomDag> {
    (proptest::collection::vec(1usize..4, 1..5), any::<u64>())
        .prop_map(|(layers, edge_seed)| RandomDag { layers, edge_seed })
}

/// Materializes the DAG as an application where every kernel bumps its
/// own counter variable (named by its first argument — independent
/// tasks may run concurrently, so a shared counter would be a data
/// race at the application level).
fn build_random_app(dag: &RandomDag) -> (AppLibrary, usize) {
    let mut reg = KernelRegistry::new();
    reg.register_fn("rand.so", "bump", |ctx| {
        let var = ctx.arg(0)?.to_string();
        let v = ctx.read_u32(&var)?;
        ctx.write_u32(&var, v + 1)
    });

    let mut rng = dag.edge_seed;
    let mut next = move |bound: usize| {
        // xorshift64
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng as usize) % bound.max(1)
    };

    let mut nodes: BTreeMap<String, NodeJson> = BTreeMap::new();
    let mut variables = BTreeMap::new();
    let mut prev_layer: Vec<String> = Vec::new();
    let mut total = 0usize;
    for (li, &count) in dag.layers.iter().enumerate() {
        let mut this_layer = Vec::new();
        for ni in 0..count {
            let name = format!("L{li}N{ni}");
            let mut preds = Vec::new();
            if !prev_layer.is_empty() {
                // at least one predecessor from the previous layer
                let first = next(prev_layer.len());
                preds.push(prev_layer[first].clone());
                for p in &prev_layer {
                    if *p != prev_layer[first] && next(2) == 0 {
                        preds.push(p.clone());
                    }
                }
            }
            variables.insert(format!("cnt_{name}"), VariableJson::u32_scalar(0));
            nodes.insert(
                name.clone(),
                NodeJson {
                    arguments: vec![format!("cnt_{name}")],
                    predecessors: preds,
                    successors: vec![],
                    platforms: vec![PlatformJson {
                        name: "cpu".into(),
                        runfunc: "bump".into(),
                        shared_object: None,
                        mean_exec_us: None,
                    }],
                },
            );
            this_layer.push(name);
            total += 1;
        }
        prev_layer = this_layer;
    }

    let json = AppJson {
        app_name: "random_dag".into(),
        shared_object: "rand.so".into(),
        variables,
        dag: nodes,
    };
    let mut lib = AppLibrary::new();
    lib.register_json(&json, &reg).expect("random layered DAG is always valid");
    (lib, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any layered DAG completes, respects dependencies, and never
    /// overlaps two tasks on one PE.
    #[test]
    fn random_dags_schedule_correctly(dag in random_dag_strategy(), cores in 1usize..4, sched_pick in 0usize..3) {
        let (lib, total) = build_random_app(&dag);
        let table = uniform_cost_table(&["bump"], &["cortex-a53"], Duration::from_micros(50));
        let mut emu = Emulation::with_config(zcu102(cores, 0), deterministic_config(table)).unwrap();
        let mut scheduler: Box<dyn Scheduler> = match sched_pick {
            0 => Box::new(FrfsScheduler::new()),
            1 => Box::new(MetScheduler::new()),
            _ => Box::new(RandomScheduler::seeded(dag.edge_seed)),
        };
        let wl = WorkloadSpec::validation([("random_dag", 1usize)]).generate(&lib).unwrap();
        let (stats, images) = emu.run_with_images(scheduler.as_mut(), &wl, &lib).unwrap();

        prop_assert_eq!(stats.tasks.len(), total);
        // Every kernel ran exactly once: each per-node counter is 1.
        let mem = images.memory(stats.apps[0].instance).unwrap();
        let spec0 = lib.get("random_dag").unwrap();
        for n in &spec0.nodes {
            prop_assert_eq!(mem.read_u32(&format!("cnt_{}", n.name)).unwrap(), 1u32, "node {}", n.name);
        }

        // Dependencies respected.
        let spec = lib.get("random_dag").unwrap();
        for t in &stats.tasks {
            let node = spec.node_by_name(&t.node).unwrap();
            for &p in &node.predecessors {
                let pred_name = &spec.nodes[p].name;
                let pred = stats.tasks.iter().find(|r| &r.node == pred_name).unwrap();
                prop_assert!(t.start >= pred.finish, "{} started before {}", t.node, pred_name);
            }
        }

        // No overlap per PE.
        let mut by_pe: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for t in &stats.tasks {
            by_pe.entry(t.pe).or_default().push((t.start, t.finish));
        }
        for (pe, mut spans) in by_pe {
            spans.sort();
            for w in spans.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "overlap on {pe}: {w:?}");
            }
        }
    }

    /// The threaded Modeled engine and the DES agree exactly on
    /// deterministic cost tables, for every library scheduler that is
    /// itself deterministic.
    #[test]
    fn engine_matches_des_on_random_dags(dag in random_dag_strategy(), cores in 1usize..4, cost_us in 10u64..500) {
        let (lib, _) = build_random_app(&dag);
        let table = uniform_cost_table(&["bump"], &["cortex-a53"], Duration::from_micros(cost_us));
        let wl = WorkloadSpec::validation([("random_dag", 2usize)]).generate(&lib).unwrap();

        for sched_name in ["frfs", "met", "eft"] {
            let mut emu = Emulation::with_config(zcu102(cores, 0), deterministic_config(table.clone())).unwrap();
            let mut s1 = dssoc_core::sched::by_name(sched_name).unwrap();
            let threaded = emu.run(s1.as_mut(), &wl, &lib).unwrap();

            let mut des = DesSimulator::new(
                zcu102(cores, 0),
                DesConfig { cost: CostSpec::table(table.clone()), overhead_per_invocation: Duration::ZERO, trace: None, faults: None, metrics: None },
            )
            .unwrap();
            let mut s2 = dssoc_core::sched::by_name(sched_name).unwrap();
            let simulated = des.run(s2.as_mut(), &wl, &lib).unwrap();

            prop_assert_eq!(threaded.makespan, simulated.makespan, "scheduler {}", sched_name);
            let mut a: Vec<_> = threaded.tasks.iter().map(|t| (t.instance, t.node.clone(), t.start, t.finish)).collect();
            let mut b: Vec<_> = simulated.tasks.iter().map(|t| (t.instance, t.node.clone(), t.start, t.finish)).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "per-task schedule mismatch under {}", sched_name);
        }
    }

    /// Workload generator invariants: sorted arrivals, all inside the
    /// frame, counts monotone in probability.
    #[test]
    fn workload_generator_invariants(
        period_us in 50u64..5000,
        prob in 0.0f64..=1.0,
        frame_ms in 1u64..50,
        seed in any::<u64>(),
    ) {
        let (lib, _) = build_random_app(&RandomDag { layers: vec![1], edge_seed: 1 });
        let spec = WorkloadSpec::performance(
            vec![InjectionParams {
                app: "random_dag".into(),
                period: Duration::from_micros(period_us),
                probability: prob,
            }],
            Duration::from_millis(frame_ms),
            seed,
        );
        let wl = spec.generate(&lib).unwrap();
        let frame = Duration::from_millis(frame_ms);
        let slots = frame.as_micros().div_ceil(period_us as u128) as usize;
        prop_assert!(wl.len() <= slots);
        for w in wl.entries.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
        }
        for e in &wl.entries {
            prop_assert!(e.arrival < frame);
        }
        if prob == 1.0 {
            prop_assert_eq!(wl.len(), slots);
        }
        // Determinism with the same seed.
        prop_assert_eq!(&spec.generate(&lib).unwrap(), &wl);
    }
}

/// EFT is deterministic but consults busy-PE estimates; make sure the
/// engine/DES agreement above wasn't vacuous — EFT must actually defer
/// sometimes. (Plain #[test]: a deterministic scenario.)
#[test]
fn eft_defers_in_engine_and_des_alike() {
    let (lib, _) = build_random_app(&RandomDag { layers: vec![3, 3, 3], edge_seed: 99 });
    let table = uniform_cost_table(&["bump"], &["cortex-a53"], Duration::from_micros(100));
    let wl = WorkloadSpec::validation([("random_dag", 3usize)]).generate(&lib).unwrap();
    let mut emu =
        Emulation::with_config(zcu102(2, 0), deterministic_config(table.clone())).unwrap();
    let a = emu.run(&mut EftScheduler::new(), &wl, &lib).unwrap();
    let mut des = DesSimulator::new(
        zcu102(2, 0),
        DesConfig {
            cost: CostSpec::table(table),
            overhead_per_invocation: Duration::ZERO,
            trace: None,
            faults: None,
            metrics: None,
        },
    )
    .unwrap();
    let b = des.run(&mut EftScheduler::new(), &wl, &lib).unwrap();
    assert_eq!(a.makespan, b.makespan);
}
