//! Property-based tests of the application model: JSON round-trips,
//! memory initialization, DAG validation, and workload generation.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec};
use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson, VariableJson};
use dssoc_appmodel::{InjectionParams, KernelRegistry, WorkloadSpec};

fn variable_strategy() -> impl Strategy<Value = VariableJson> {
    prop_oneof![
        // scalar with initializer no larger than its storage
        (1u32..16).prop_flat_map(|bytes| {
            proptest::collection::vec(any::<u8>(), 0..=bytes as usize)
                .prop_map(move |val| VariableJson { bytes, is_ptr: false, ptr_alloc_bytes: 0, val })
        }),
        // pointer with allocation and partial initializer
        (1u32..512).prop_flat_map(|alloc| {
            proptest::collection::vec(any::<u8>(), 0..=(alloc as usize).min(64)).prop_map(
                move |val| VariableJson { bytes: 8, is_ptr: true, ptr_alloc_bytes: alloc, val },
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every valid variable descriptor serializes, deserializes, and
    /// allocates to the declared size with the initializer as prefix.
    #[test]
    fn variables_round_trip_and_initialize(v in variable_strategy()) {
        prop_assert!(v.validate("x").is_ok());
        let json = serde_json::to_string(&v).unwrap();
        let back: VariableJson = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &v);

        let mut decls = BTreeMap::new();
        decls.insert("x".to_string(), v.clone());
        let mem = dssoc_appmodel::memory::AppMemory::from_decls(&decls).unwrap();
        let bytes = mem.read_bytes("x").unwrap();
        prop_assert_eq!(bytes.len(), v.storage_bytes());
        prop_assert_eq!(&bytes[..v.val.len()], &v.val[..]);
        prop_assert!(bytes[v.val.len()..].iter().all(|&b| b == 0));
    }

    /// A randomly shaped chain application always parses, and the full
    /// JSON text round-trips to the identical structure.
    #[test]
    fn chain_apps_parse_and_round_trip(len in 1usize..12, args_per_node in 0usize..3) {
        let mut reg = KernelRegistry::new();
        reg.register_fn("p.so", "k", |_| Ok(()));
        let mut variables = BTreeMap::new();
        for a in 0..3usize {
            variables.insert(format!("v{a}"), VariableJson::u32_scalar(a as u32));
        }
        let mut dag = BTreeMap::new();
        for i in 0..len {
            dag.insert(
                format!("n{i:02}"),
                NodeJson {
                    arguments: (0..args_per_node).map(|a| format!("v{a}")).collect(),
                    predecessors: if i == 0 { vec![] } else { vec![format!("n{:02}", i - 1)] },
                    successors: vec![],
                    platforms: vec![PlatformJson {
                        name: "cpu".into(),
                        runfunc: "k".into(),
                        shared_object: None,
                        mean_exec_us: None,
                    }],
                },
            );
        }
        let json = AppJson { app_name: "chain".into(), shared_object: "p.so".into(), variables, dag };
        let spec = ApplicationSpec::from_json(&json, &reg).unwrap();
        prop_assert_eq!(spec.task_count(), len);
        prop_assert_eq!(spec.roots.len(), 1);

        let text = json.to_pretty();
        prop_assert_eq!(AppJson::from_str(&text).unwrap(), json);
    }

    /// Cycles of any length are rejected.
    #[test]
    fn cycles_always_detected(len in 2usize..10) {
        let mut reg = KernelRegistry::new();
        reg.register_fn("p.so", "k", |_| Ok(()));
        let mut dag = BTreeMap::new();
        for i in 0..len {
            dag.insert(
                format!("n{i:02}"),
                NodeJson {
                    arguments: vec![],
                    predecessors: vec![],
                    successors: vec![format!("n{:02}", (i + 1) % len)], // closes the loop
                    platforms: vec![PlatformJson {
                        name: "cpu".into(),
                        runfunc: "k".into(),
                        shared_object: None,
                        mean_exec_us: None,
                    }],
                },
            );
        }
        let json = AppJson {
            app_name: "cycle".into(),
            shared_object: "p.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        prop_assert!(ApplicationSpec::from_json(&json, &reg).is_err());
    }

    /// Performance-mode generation is bounded, sorted, deterministic,
    /// and respects per-app proportions.
    #[test]
    fn workload_generation_invariants(
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut reg = KernelRegistry::new();
        reg.register_fn("p.so", "k", |_| Ok(()));
        let mut lib = AppLibrary::new();
        for name in ["a", "b"] {
            let mut dag = BTreeMap::new();
            dag.insert(
                "only".to_string(),
                NodeJson {
                    arguments: vec![],
                    predecessors: vec![],
                    successors: vec![],
                    platforms: vec![PlatformJson {
                        name: "cpu".into(),
                        runfunc: "k".into(),
                        shared_object: None,
                        mean_exec_us: None,
                    }],
                },
            );
            lib.register_json(
                &AppJson {
                    app_name: name.into(),
                    shared_object: "p.so".into(),
                    variables: BTreeMap::new(),
                    dag,
                },
                &reg,
            )
            .unwrap();
        }
        let frame = std::time::Duration::from_millis(10);
        let spec = WorkloadSpec::performance(
            vec![
                InjectionParams { app: "a".into(), period: std::time::Duration::from_micros(100), probability: p1 },
                InjectionParams { app: "b".into(), period: std::time::Duration::from_micros(250), probability: p2 },
            ],
            frame,
            seed,
        );
        let wl = spec.generate(&lib).unwrap();
        // bounded by the slot counts
        let counts = wl.counts_by_app();
        prop_assert!(counts.get("a").copied().unwrap_or(0) <= 100);
        prop_assert!(counts.get("b").copied().unwrap_or(0) <= 40);
        // sorted and inside the frame
        for w in wl.arrivals().windows(2) {
            prop_assert!(w[0].at_ns <= w[1].at_ns);
        }
        prop_assert!(wl.arrivals().iter().all(|a| a.at() < frame));
        // deterministic
        prop_assert_eq!(&spec.generate(&lib).unwrap(), &wl);
        // instances get sequential ids
        let instances = wl.instantiate(&lib).unwrap();
        for (i, inst) in instances.iter().enumerate() {
            prop_assert_eq!(inst.id.0, i as u64);
        }
    }
}
