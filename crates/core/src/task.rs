//! Tasks: DAG nodes of injected application instances.
//!
//! "Each task consists of a DAG node data structure with all the
//! information necessary for scheduling, dispatch, and measurement of a
//! single node's performance throughout the framework." (paper §II-C)

use std::sync::Arc;

use dssoc_appmodel::app::NodeSpec;
use dssoc_appmodel::instance::{AppInstance, InstanceId};

/// One schedulable task: a node of a specific application instance.
#[derive(Clone)]
pub struct Task {
    /// The application instance this task belongs to.
    pub instance: Arc<AppInstance>,
    /// Index of the node within the instance's spec.
    pub node_idx: usize,
}

impl Task {
    /// The node specification (arguments, platforms, topology).
    pub fn node(&self) -> &NodeSpec {
        &self.instance.spec.nodes[self.node_idx]
    }

    /// The owning application's name.
    pub fn app_name(&self) -> &str {
        &self.instance.spec.name
    }

    /// `(instance, node)` key uniquely identifying the task in a
    /// workload.
    pub fn key(&self) -> (InstanceId, usize) {
        (self.instance.id, self.node_idx)
    }

    /// True if the task can execute on a PE exposing `platform_key`.
    pub fn supports(&self, platform_key: &str) -> bool {
        self.node().supports(platform_key)
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Task({}/{}:{})", self.instance.id, self.app_name(), self.node().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_appmodel::app::ApplicationSpec;
    use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson};
    use dssoc_appmodel::registry::KernelRegistry;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn chain_spec() -> Arc<ApplicationSpec> {
        let mut reg = KernelRegistry::new();
        reg.register_fn("c.so", "k1", |_| Ok(()));
        reg.register_fn("c.so", "k2", |_| Ok(()));
        reg.register_fn("accel.so", "k2a", |_| Ok(()));
        let mut dag = BTreeMap::new();
        dag.insert(
            "first".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec!["second".into()],
                platforms: vec![PlatformJson {
                    name: "cpu".into(),
                    runfunc: "k1".into(),
                    shared_object: None,
                    mean_exec_us: None,
                }],
            },
        );
        dag.insert(
            "second".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec!["first".into()],
                successors: vec![],
                platforms: vec![
                    PlatformJson {
                        name: "cpu".into(),
                        runfunc: "k2".into(),
                        shared_object: None,
                        mean_exec_us: None,
                    },
                    PlatformJson {
                        name: "fft".into(),
                        runfunc: "k2a".into(),
                        shared_object: Some("accel.so".into()),
                        mean_exec_us: None,
                    },
                ],
            },
        );
        let json = AppJson {
            app_name: "chain".into(),
            shared_object: "c.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        ApplicationSpec::from_json(&json, &reg).unwrap()
    }

    #[test]
    fn task_accessors() {
        let spec = chain_spec();
        let inst = Arc::new(
            AppInstance::instantiate(spec, InstanceId(3), Duration::from_millis(1)).unwrap(),
        );
        let first_idx = inst.spec.node_by_name("first").unwrap().index;
        let second_idx = inst.spec.node_by_name("second").unwrap().index;

        let t1 = Task { instance: Arc::clone(&inst), node_idx: first_idx };
        assert_eq!(t1.app_name(), "chain");
        assert_eq!(t1.node().name, "first");
        assert_eq!(t1.key(), (InstanceId(3), first_idx));
        assert!(t1.supports("cpu"));
        assert!(!t1.supports("fft"));

        let t2 = Task { instance: inst, node_idx: second_idx };
        assert!(t2.supports("cpu"));
        assert!(t2.supports("fft"));
        assert!(format!("{t2:?}").contains("second"));
    }
}
