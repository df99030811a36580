//! Application instances: a spec plus freshly initialized memory and an
//! arrival time.
//!
//! "Each application instance will have all its variables allocated and
//! initialized as described in the JSON. After initialization, the
//! application will be enqueued into a workload queue." (paper §II-B)

use std::sync::Arc;
use std::time::Duration;

use crate::app::ApplicationSpec;
use crate::error::ModelError;
use crate::memory::AppMemory;

/// Unique id of one application instance within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst{}", self.0)
    }
}

/// One injected copy of an application.
pub struct AppInstance {
    /// Workload-unique id.
    pub id: InstanceId,
    /// The archetypal application this instance was cloned from.
    pub spec: Arc<ApplicationSpec>,
    /// This instance's own variable memory.
    pub memory: Arc<AppMemory>,
    /// Arrival timestamp relative to the emulation reference start time.
    pub arrival: Duration,
}

impl AppInstance {
    /// Instantiates an application: allocates and initializes all
    /// variables per the JSON declarations.
    pub fn instantiate(
        spec: Arc<ApplicationSpec>,
        id: InstanceId,
        arrival: Duration,
    ) -> Result<AppInstance, ModelError> {
        let memory = AppMemory::for_decls(Arc::clone(&spec.variables));
        Ok(AppInstance { id, spec, memory, arrival })
    }

    /// Number of tasks this instance contributes to the emulation.
    pub fn task_count(&self) -> usize {
        self.spec.task_count()
    }
}

impl std::fmt::Debug for AppInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppInstance")
            .field("id", &self.id)
            .field("app", &self.spec.name)
            .field("arrival", &self.arrival)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{AppJson, NodeJson, PlatformJson, VariableJson};
    use crate::registry::KernelRegistry;
    use std::collections::BTreeMap;

    fn tiny_spec() -> Arc<ApplicationSpec> {
        let mut reg = KernelRegistry::new();
        reg.register_fn("t.so", "k", |_| Ok(()));
        let mut vars = BTreeMap::new();
        vars.insert("n".to_string(), VariableJson::u32_scalar(42));
        vars.insert("buf".to_string(), VariableJson::buffer(128));
        let mut dag = BTreeMap::new();
        dag.insert(
            "only".to_string(),
            NodeJson {
                arguments: vec!["n".into(), "buf".into()],
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
        let json =
            AppJson { app_name: "tiny".into(), shared_object: "t.so".into(), variables: vars, dag };
        ApplicationSpec::from_json(&json, &reg).unwrap()
    }

    #[test]
    fn instantiation_initializes_memory() {
        let spec = tiny_spec();
        let inst = AppInstance::instantiate(spec, InstanceId(7), Duration::from_millis(3)).unwrap();
        assert_eq!(inst.id, InstanceId(7));
        assert_eq!(inst.arrival, Duration::from_millis(3));
        assert_eq!(inst.task_count(), 1);
        assert_eq!(inst.memory.read_u32("n").unwrap(), 42);
    }

    #[test]
    fn instances_have_independent_memory() {
        let spec = tiny_spec();
        let a = AppInstance::instantiate(Arc::clone(&spec), InstanceId(0), Duration::ZERO).unwrap();
        let b = AppInstance::instantiate(spec, InstanceId(1), Duration::ZERO).unwrap();
        a.memory.write_u32("n", 1000).unwrap();
        assert_eq!(a.memory.read_u32("n").unwrap(), 1000);
        assert_eq!(b.memory.read_u32("n").unwrap(), 42, "instance B must not see A's writes");
    }

    #[test]
    fn display_of_instance_id() {
        assert_eq!(InstanceId(12).to_string(), "inst12");
    }
}
