//! Parsed, validated application specifications.
//!
//! "On application startup, the runtime finds the shared object file
//! referenced in the application's JSON, and begins parsing the graph. As
//! graph parsing proceeds, it looks up every runfunc it finds in the
//! corresponding shared object and associates it with each given DAG
//! node." (paper §II-B). [`ApplicationSpec::from_json`] does exactly
//! that, plus structural validation: every referenced variable and node
//! must exist, edges must be consistent, the graph must be acyclic, and
//! every node needs at least one platform.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use crate::error::ModelError;
use crate::hash::{hash_bytes, Canon};
use crate::json::{AppJson, VariableJson};
use crate::memory::VarDecls;
use crate::name::Name;
use crate::registry::{Kernel, KernelRegistry};

/// A node's supported platform with its kernel resolved.
#[derive(Clone)]
pub struct ResolvedPlatform {
    /// Platform key (`"cpu"`, `"fft"`, ...).
    pub key: String,
    /// The runfunc symbol name (used for cost-table lookups and stats).
    pub runfunc: Name,
    /// `runfunc`'s process-wide id (see [`runfunc_id`](crate::registry::runfunc_id)).
    pub runfunc_id: u32,
    /// The shared object the kernel came from.
    pub shared_object: String,
    /// The resolved kernel.
    pub kernel: Arc<dyn Kernel>,
    /// Optional execution-time estimate from the JSON.
    pub mean_exec: Option<Duration>,
}

impl std::fmt::Debug for ResolvedPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedPlatform")
            .field("key", &self.key)
            .field("runfunc", &self.runfunc)
            .field("shared_object", &self.shared_object)
            .field("mean_exec", &self.mean_exec)
            .finish()
    }
}

/// One validated DAG node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node name from the JSON.
    pub name: Name,
    /// Dense index of this node within [`ApplicationSpec::nodes`].
    pub index: usize,
    /// Argument variable names, in kernel order.
    pub arguments: Vec<String>,
    /// Indices of upstream nodes.
    pub predecessors: Vec<usize>,
    /// Indices of downstream nodes.
    pub successors: Vec<usize>,
    /// Supported platforms with resolved kernels.
    pub platforms: Vec<ResolvedPlatform>,
}

impl NodeSpec {
    /// The platform entry matching a PE's platform key, if supported.
    pub fn platform(&self, key: &str) -> Option<&ResolvedPlatform> {
        self.platforms.iter().find(|p| p.key == key)
    }

    /// True if this node can run on a PE with the given platform key.
    pub fn supports(&self, key: &str) -> bool {
        self.platform(key).is_some()
    }
}

/// A validated application ready to instantiate.
///
/// Built only through [`Self::new`] (or [`Self::from_json`]), which
/// derives the topology and the content hash from the rest, and handed
/// out behind an `Arc`, so they always describe the fields beside them.
/// Like the paper's runtime, which parses each application's DAG once
/// at startup, everything a run reads per application — its names and
/// its DAG in CSR form — is built here, once per loaded application;
/// each arrival adds only its own id and time.
#[derive(Debug)]
pub struct ApplicationSpec {
    /// The application's `AppName`.
    pub name: Name,
    /// Variable declarations, shared by every instance's memory.
    pub variables: Arc<VarDecls>,
    /// Nodes in deterministic (JSON-name) order.
    pub nodes: Vec<NodeSpec>,
    /// Indices of nodes with no predecessors (the "head nodes" injected
    /// into the ready list on application arrival).
    pub roots: Vec<usize>,
    /// Predecessor count per node: what a run's per-task countdown
    /// starts from.
    pub preds: Vec<u32>,
    /// CSR offsets into [`Self::succ`], one per node plus one: node
    /// `i`'s successors are `succ[succ_off[i]..succ_off[i + 1]]`.
    pub succ_off: Vec<u32>,
    /// Every node's successor indices, concatenated in node order.
    pub succ: Vec<u32>,
    content_hash: u64,
}

impl ApplicationSpec {
    /// Assembles a spec from already validated parts, deriving its roots
    /// and CSR topology and hashing its content once.
    pub fn new(name: impl Into<Name>, variables: Arc<VarDecls>, nodes: Vec<NodeSpec>) -> Arc<Self> {
        let roots = nodes.iter().filter(|n| n.predecessors.is_empty()).map(|n| n.index).collect();
        let preds = nodes.iter().map(|n| n.predecessors.len() as u32).collect();
        let mut succ_off = Vec::with_capacity(nodes.len() + 1);
        let mut succ = Vec::with_capacity(nodes.iter().map(|n| n.successors.len()).sum());
        succ_off.push(0);
        for node in &nodes {
            succ.extend(node.successors.iter().map(|&s| s as u32));
            succ_off.push(succ.len() as u32);
        }
        let mut spec = ApplicationSpec {
            name: name.into(),
            variables,
            nodes,
            roots,
            preds,
            succ_off,
            succ,
            content_hash: 0,
        };
        spec.content_hash = hash_bytes(&spec.encoding());
        Arc::new(spec)
    }

    /// The successor indices of node `node` (its CSR row).
    #[inline]
    pub fn successors(&self, node: usize) -> &[u32] {
        &self.succ[self.succ_off[node] as usize..self.succ_off[node + 1] as usize]
    }

    /// The hash of the app's canonical encoding, computed once when the
    /// spec is built: equal specs hash equal whatever their `Arc`
    /// identity, and scenario fingerprints fold it in instead of walking
    /// the nodes.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// True when `self` and `other` are the same application: the same
    /// allocation, or equal encodings.
    pub fn same_content(&self, other: &ApplicationSpec) -> bool {
        std::ptr::eq(self, other)
            || (self.content_hash == other.content_hash && self.encoding() == other.encoding())
    }

    /// The canonical encoding of everything a run reads of this
    /// application: its name, variables, and every node's name,
    /// arguments, edges and platforms.
    fn encoding(&self) -> Vec<u8> {
        // The roots, the CSR topology and the hash are derived from the
        // rest.
        let ApplicationSpec {
            name,
            variables,
            nodes,
            roots: _,
            preds: _,
            succ_off: _,
            succ: _,
            content_hash: _,
        } = self;
        let mut w = Canon::default();
        w.bytes(name.as_str());
        w.list(variables.iter(), |w, (name, var)| {
            let VariableJson { bytes, is_ptr, ptr_alloc_bytes, val } = var;
            w.bytes(name);
            w.uint(*bytes as u64);
            w.tag(*is_ptr as u8);
            w.uint(*ptr_alloc_bytes as u64);
            w.bytes(val);
        });
        w.list(nodes, |w, node| {
            let NodeSpec { name, index, arguments, predecessors, successors, platforms } = node;
            w.bytes(name.as_str());
            w.uint(*index as u64);
            w.list(arguments, |w, a| w.bytes(a));
            w.list(predecessors, |w, &p| w.uint(p as u64));
            w.list(successors, |w, &s| w.uint(s as u64));
            w.list(platforms, |w, p| {
                // The id and the kernel follow from the runfunc and the
                // shared object.
                let ResolvedPlatform {
                    key,
                    runfunc,
                    runfunc_id: _,
                    shared_object,
                    kernel: _,
                    mean_exec,
                } = p;
                w.bytes(key);
                w.bytes(runfunc.as_str());
                w.bytes(shared_object);
                w.opt(*mean_exec, Canon::dur);
            });
        });
        w.0
    }

    /// Parses and validates a JSON application against a kernel registry.
    ///
    /// Edges may be declared on either endpoint (predecessor or successor
    /// list); the union is used and mirrored, so hand-written DAGs need
    /// not duplicate every edge — the paper's Listing 1 declares both.
    pub fn from_json(json: &AppJson, registry: &KernelRegistry) -> Result<Arc<Self>, ModelError> {
        let variables = Arc::new(VarDecls::new(&json.variables)?);

        let names: Vec<&String> = json.dag.keys().collect();
        let index_of: BTreeMap<&str, usize> =
            names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();

        // Union of declared edges, as (from, to) index pairs.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (name, node) in &json.dag {
            let this = index_of[name.as_str()];
            for pred in &node.predecessors {
                let p = *index_of.get(pred.as_str()).ok_or_else(|| ModelError::UnknownNode {
                    node: name.clone(),
                    referenced: pred.clone(),
                })?;
                edges.push((p, this));
            }
            for succ in &node.successors {
                let s = *index_of.get(succ.as_str()).ok_or_else(|| ModelError::UnknownNode {
                    node: name.clone(),
                    referenced: succ.clone(),
                })?;
                edges.push((this, s));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for &(a, b) in &edges {
            if a == b {
                return Err(ModelError::Cyclic { node: names[a].clone() });
            }
        }

        let mut nodes = Vec::with_capacity(names.len());
        for (i, (name, node)) in json.dag.iter().enumerate() {
            if node.platforms.is_empty() {
                return Err(ModelError::NoPlatforms { node: name.clone() });
            }
            for arg in &node.arguments {
                if !json.variables.contains_key(arg) {
                    return Err(ModelError::UnknownVariable {
                        node: name.clone(),
                        variable: arg.clone(),
                    });
                }
            }
            let mut platforms = Vec::with_capacity(node.platforms.len());
            for p in &node.platforms {
                let so = p.shared_object.as_deref().unwrap_or(&json.shared_object);
                let kernel = registry.resolve(so, &p.runfunc)?;
                platforms.push(ResolvedPlatform {
                    key: p.name.clone(),
                    runfunc: Name::from(p.runfunc.as_str()),
                    runfunc_id: crate::registry::runfunc_id(&p.runfunc),
                    shared_object: so.to_string(),
                    kernel,
                    mean_exec: p.mean_exec_us.map(|us| Duration::from_secs_f64(us * 1e-6)),
                });
            }
            nodes.push(NodeSpec {
                name: Name::from(name.as_str()),
                index: i,
                arguments: node.arguments.clone(),
                predecessors: edges.iter().filter(|(_, t)| *t == i).map(|(f, _)| *f).collect(),
                successors: edges.iter().filter(|(f, _)| *f == i).map(|(_, t)| *t).collect(),
                platforms,
            });
        }

        // Kahn's algorithm for cycle detection.
        let mut indegree: Vec<usize> = nodes.iter().map(|n| n.predecessors.len()).collect();
        let mut queue: Vec<usize> =
            indegree.iter().enumerate().filter(|(_, &d)| d == 0).map(|(i, _)| i).collect();
        let mut visited = 0usize;
        let mut cursor = 0usize;
        while cursor < queue.len() {
            let n = queue[cursor];
            cursor += 1;
            visited += 1;
            for &s in &nodes[n].successors {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if visited != nodes.len() {
            let stuck = indegree.iter().position(|&d| d > 0).unwrap_or(0);
            return Err(ModelError::Cyclic { node: nodes[stuck].name.to_string() });
        }

        Ok(ApplicationSpec::new(json.app_name.as_str(), variables, nodes))
    }

    /// Number of tasks one instance of this application contributes.
    pub fn task_count(&self) -> usize {
        self.nodes.len()
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.name == name)
    }
}

/// The set of applications the framework knows about — what the paper's
/// application handler builds by "parsing all available applications".
#[derive(Default, Clone)]
pub struct AppLibrary {
    apps: BTreeMap<String, Arc<ApplicationSpec>>,
}

impl AppLibrary {
    /// Empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an application (replacing any previous one of the same
    /// name).
    pub fn register(&mut self, spec: Arc<ApplicationSpec>) {
        self.apps.insert(spec.name.to_string(), spec);
    }

    /// Parses a JSON application against `registry` and registers it.
    pub fn register_json(
        &mut self,
        json: &AppJson,
        registry: &KernelRegistry,
    ) -> Result<(), ModelError> {
        let spec = ApplicationSpec::from_json(json, registry)?;
        self.register(spec);
        Ok(())
    }

    /// Fetches an application by `AppName`, with the paper's
    /// missing-application error behaviour.
    pub fn get(&self, name: &str) -> Result<Arc<ApplicationSpec>, ModelError> {
        self.find(name).cloned().ok_or_else(|| ModelError::UnknownApplication(name.to_string()))
    }

    /// Borrows an application by `AppName`, if registered.
    pub fn find(&self, name: &str) -> Option<&Arc<ApplicationSpec>> {
        self.apps.get(name)
    }

    /// All registered application names.
    pub fn names(&self) -> Vec<&str> {
        self.apps.keys().map(String::as_str).collect()
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True if no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

impl std::fmt::Debug for AppLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppLibrary").field("apps", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{NodeJson, PlatformJson, VariableJson};
    use crate::memory::TaskCtx;

    fn noop(_: &TaskCtx<'_>) -> Result<(), ModelError> {
        Ok(())
    }

    fn registry_with(symbols: &[&str]) -> KernelRegistry {
        let mut reg = KernelRegistry::new();
        for s in symbols {
            reg.register_fn("app.so", s, noop);
        }
        reg
    }

    fn platform_cpu(runfunc: &str) -> PlatformJson {
        PlatformJson {
            name: "cpu".into(),
            runfunc: runfunc.into(),
            shared_object: None,
            mean_exec_us: None,
        }
    }

    fn diamond_json() -> AppJson {
        // A -> B, A -> C, B -> D, C -> D
        let mut dag = BTreeMap::new();
        dag.insert(
            "A".to_string(),
            NodeJson {
                arguments: vec!["x".into()],
                predecessors: vec![],
                successors: vec!["B".into(), "C".into()],
                platforms: vec![platform_cpu("ka")],
            },
        );
        dag.insert(
            "B".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec!["A".into()],
                successors: vec!["D".into()],
                platforms: vec![platform_cpu("kb")],
            },
        );
        dag.insert(
            "C".to_string(),
            NodeJson {
                arguments: vec![],
                // Deliberately rely on A's successor list only: edge
                // A->C is declared one-sided.
                predecessors: vec![],
                successors: vec!["D".into()],
                platforms: vec![platform_cpu("kc")],
            },
        );
        dag.insert(
            "D".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec!["B".into(), "C".into()],
                successors: vec![],
                platforms: vec![platform_cpu("kd")],
            },
        );
        let mut variables = BTreeMap::new();
        variables.insert("x".to_string(), VariableJson::u32_scalar(1));
        AppJson { app_name: "diamond".into(), shared_object: "app.so".into(), variables, dag }
    }

    #[test]
    fn parses_diamond() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let spec = ApplicationSpec::from_json(&diamond_json(), &reg).unwrap();
        assert_eq!(spec.task_count(), 4);
        assert_eq!(spec.roots.len(), 1);
        let a = spec.node_by_name("A").unwrap();
        assert_eq!(a.predecessors.len(), 0);
        assert_eq!(a.successors.len(), 2);
        let c = spec.node_by_name("C").unwrap();
        assert_eq!(c.predecessors.len(), 1, "one-sided edge A->C must be mirrored");
        let d = spec.node_by_name("D").unwrap();
        assert_eq!(d.predecessors.len(), 2);
        assert!(d.supports("cpu"));
        assert!(!d.supports("fft"));
        // The CSR topology mirrors the nodes' edge lists.
        assert_eq!(spec.preds, [0, 1, 1, 2]);
        assert_eq!(spec.succ_off, [0, 2, 3, 4, 4]);
        assert_eq!(spec.successors(0), [1, 2]);
        assert_eq!(spec.successors(3), [] as [u32; 0]);
        assert_eq!(spec.roots, [0]);
    }

    /// Equal specs hash equal whatever their `Arc`; any field a run
    /// reads moves the hash.
    #[test]
    fn content_hash_follows_content() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let a = ApplicationSpec::from_json(&diamond_json(), &reg).unwrap();
        let b = ApplicationSpec::from_json(&diamond_json(), &reg).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.content_hash(), b.content_hash());
        let mut nodes = a.nodes.clone();
        nodes[3].platforms[0].mean_exec = Some(Duration::from_nanos(1));
        let c = ApplicationSpec::new(a.name.clone(), Arc::clone(&a.variables), nodes);
        assert_ne!(a.content_hash(), c.content_hash());
        assert_eq!(c.roots, a.roots);
        let mut renamed = diamond_json();
        renamed.app_name = "kite".into();
        let d = ApplicationSpec::from_json(&renamed, &reg).unwrap();
        assert_ne!(a.content_hash(), d.content_hash());
    }

    /// Edge lists are length-prefixed: A→B and its reverse B→A list the
    /// same indices in the same order, but are different apps.
    #[test]
    fn content_hash_tells_an_edge_from_its_reverse() {
        let app = |from: &str, to: &str| {
            let node = |successors| NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors,
                platforms: vec![platform_cpu("ka")],
            };
            let dag =
                BTreeMap::from([(from.into(), node(vec![to.into()])), (to.into(), node(vec![]))]);
            let json = AppJson { dag, app_name: "pair".into(), ..diamond_json() };
            ApplicationSpec::from_json(&json, &registry_with(&["ka"])).unwrap()
        };
        let (forward, reverse) = (app("A", "B"), app("B", "A"));
        assert_ne!(forward.content_hash(), reverse.content_hash());
        assert!(!forward.same_content(&reverse));
    }

    #[test]
    fn missing_kernel_symbol_fails() {
        let reg = registry_with(&["ka", "kb", "kc"]); // kd missing
        let err = ApplicationSpec::from_json(&diamond_json(), &reg).unwrap_err();
        assert!(matches!(err, ModelError::UnresolvedSymbol { .. }));
    }

    #[test]
    fn unknown_argument_fails() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let mut json = diamond_json();
        json.dag.get_mut("A").unwrap().arguments.push("ghost".into());
        assert!(matches!(
            ApplicationSpec::from_json(&json, &reg),
            Err(ModelError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn unknown_node_reference_fails() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let mut json = diamond_json();
        json.dag.get_mut("A").unwrap().successors.push("Z".into());
        assert!(matches!(
            ApplicationSpec::from_json(&json, &reg),
            Err(ModelError::UnknownNode { .. })
        ));
    }

    #[test]
    fn cycle_detected() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let mut json = diamond_json();
        json.dag.get_mut("D").unwrap().successors.push("A".into());
        assert!(matches!(ApplicationSpec::from_json(&json, &reg), Err(ModelError::Cyclic { .. })));
    }

    #[test]
    fn self_loop_detected() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let mut json = diamond_json();
        json.dag.get_mut("B").unwrap().successors.push("B".into());
        assert!(matches!(ApplicationSpec::from_json(&json, &reg), Err(ModelError::Cyclic { .. })));
    }

    #[test]
    fn empty_platforms_fails() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let mut json = diamond_json();
        json.dag.get_mut("B").unwrap().platforms.clear();
        assert!(matches!(
            ApplicationSpec::from_json(&json, &reg),
            Err(ModelError::NoPlatforms { .. })
        ));
    }

    #[test]
    fn per_platform_shared_object_override() {
        let mut reg = registry_with(&["ka", "kb", "kc", "kd"]);
        reg.register_fn("fft_accel.so", "ka_accel", noop);
        let mut json = diamond_json();
        json.dag.get_mut("A").unwrap().platforms.push(PlatformJson {
            name: "fft".into(),
            runfunc: "ka_accel".into(),
            shared_object: Some("fft_accel.so".into()),
            mean_exec_us: Some(70.0),
        });
        let spec = ApplicationSpec::from_json(&json, &reg).unwrap();
        let a = spec.node_by_name("A").unwrap();
        let fft = a.platform("fft").unwrap();
        assert_eq!(fft.shared_object, "fft_accel.so");
        assert_eq!(fft.mean_exec, Some(Duration::from_micros(70)));
    }

    #[test]
    fn library_lookup_and_error() {
        let reg = registry_with(&["ka", "kb", "kc", "kd"]);
        let mut lib = AppLibrary::new();
        assert!(lib.is_empty());
        lib.register_json(&diamond_json(), &reg).unwrap();
        assert_eq!(lib.len(), 1);
        assert!(lib.get("diamond").is_ok());
        assert_eq!(
            lib.get("range_detection").unwrap_err(),
            ModelError::UnknownApplication("range_detection".into())
        );
        assert_eq!(lib.names(), vec!["diamond"]);
    }

    #[test]
    fn multi_root_dag() {
        // Range-detection-like: two independent roots feeding one sink.
        let reg = registry_with(&["ka", "kb", "kc"]);
        let mut dag = BTreeMap::new();
        dag.insert(
            "R1".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec!["S".into()],
                platforms: vec![platform_cpu("ka")],
            },
        );
        dag.insert(
            "R2".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec!["S".into()],
                platforms: vec![platform_cpu("kb")],
            },
        );
        dag.insert(
            "S".to_string(),
            NodeJson {
                arguments: vec![],
                predecessors: vec![],
                successors: vec![],
                platforms: vec![platform_cpu("kc")],
            },
        );
        let json = AppJson {
            app_name: "two_roots".into(),
            shared_object: "app.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        let spec = ApplicationSpec::from_json(&json, &reg).unwrap();
        assert_eq!(spec.roots.len(), 2);
    }
}
