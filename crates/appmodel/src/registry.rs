//! The kernel registry — our safe substitute for `dlopen`'d shared
//! objects.
//!
//! In the paper, each application ships a `.so` whose exported symbols are
//! the task kernels; the runtime "looks up every runfunc it finds in the
//! corresponding shared object" while parsing the graph, and individual
//! platform entries may point at a different shared object (e.g.
//! `fft_accel.so`). Here a *shared object* is a named namespace of
//! registered Rust callables, and resolution failures surface the same
//! way (unresolved-symbol errors at parse time).

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::ModelError;
use crate::memory::TaskCtx;

/// A task kernel: the body of one DAG node.
///
/// Kernels receive a [`TaskCtx`] giving typed access to the application
/// instance's variables and, when running on an accelerator PE, to the
/// attached device.
pub trait Kernel: Send + Sync {
    /// The symbol name this kernel was registered under.
    fn name(&self) -> &str;
    /// Executes the kernel.
    fn run(&self, ctx: &TaskCtx<'_>) -> Result<(), ModelError>;
}

/// A process-wide dense id for the runfunc name `name`: equal names get
/// equal ids, whichever library or registry they come from, and ids
/// count up from zero. Resolution assigns each platform entry its id
/// once ([`ResolvedPlatform::runfunc_id`]), so per-kernel state on a
/// per-task path can be a vector indexed by id instead of a map hashing
/// the name.
///
/// [`ResolvedPlatform::runfunc_id`]: crate::app::ResolvedPlatform::runfunc_id
pub fn runfunc_id(name: &str) -> u32 {
    static IDS: std::sync::OnceLock<parking_lot::Mutex<HashMap<String, u32>>> =
        std::sync::OnceLock::new();
    let mut ids = IDS.get_or_init(Default::default).lock();
    if let Some(&id) = ids.get(name) {
        return id;
    }
    let id = ids.len() as u32;
    ids.insert(name.to_string(), id);
    id
}

/// Plain-function kernel type accepted by
/// [`KernelRegistry::register_fn`].
pub type KernelFn = fn(&TaskCtx<'_>) -> Result<(), ModelError>;

struct FnKernel<F> {
    name: String,
    f: F,
}

impl<F> Kernel for FnKernel<F>
where
    F: Fn(&TaskCtx<'_>) -> Result<(), ModelError> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&self, ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
        (self.f)(ctx)
    }
}

/// A collection of named "shared objects", each mapping symbol names to
/// kernels.
#[derive(Default, Clone)]
pub struct KernelRegistry {
    objects: HashMap<String, HashMap<String, Arc<dyn Kernel>>>,
}

impl KernelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a kernel object under `(shared_object, symbol)`.
    /// Re-registering a symbol replaces the previous kernel (like
    /// re-linking a shared object).
    pub fn register(&mut self, shared_object: &str, symbol: &str, kernel: Arc<dyn Kernel>) {
        self.objects
            .entry(shared_object.to_string())
            .or_default()
            .insert(symbol.to_string(), kernel);
    }

    /// Registers a closure or fn pointer as a kernel.
    pub fn register_fn<F>(&mut self, shared_object: &str, symbol: &str, f: F)
    where
        F: Fn(&TaskCtx<'_>) -> Result<(), ModelError> + Send + Sync + 'static,
    {
        self.register(shared_object, symbol, Arc::new(FnKernel { name: symbol.to_string(), f }));
    }

    /// Resolves a symbol, mirroring the paper's parse-time lookup.
    pub fn resolve(
        &self,
        shared_object: &str,
        symbol: &str,
    ) -> Result<Arc<dyn Kernel>, ModelError> {
        self.objects.get(shared_object).and_then(|syms| syms.get(symbol)).cloned().ok_or_else(
            || ModelError::UnresolvedSymbol {
                shared_object: shared_object.to_string(),
                runfunc: symbol.to_string(),
            },
        )
    }

    /// Lists the shared-object names currently registered.
    pub fn shared_objects(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.objects.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Lists the symbols exported by one shared object.
    pub fn symbols(&self, shared_object: &str) -> Vec<&str> {
        let mut syms: Vec<&str> = self
            .objects
            .get(shared_object)
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default();
        syms.sort_unstable();
        syms
    }

    /// Merges another registry into this one (`other` wins on conflicts) —
    /// how an application's custom shared objects join the framework's
    /// common kernel library.
    pub fn merge(&mut self, other: &KernelRegistry) {
        for (so, syms) in &other.objects {
            let slot = self.objects.entry(so.clone()).or_default();
            for (name, k) in syms {
                slot.insert(name.clone(), Arc::clone(k));
            }
        }
    }

    /// Total number of registered symbols.
    pub fn len(&self) -> usize {
        self.objects.values().map(|m| m.len()).sum()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelRegistry")
            .field("shared_objects", &self.shared_objects())
            .field("symbols", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: &TaskCtx<'_>) -> Result<(), ModelError> {
        Ok(())
    }

    #[test]
    fn register_and_resolve() {
        let mut reg = KernelRegistry::new();
        reg.register_fn("app.so", "kernel_a", noop);
        let k = reg.resolve("app.so", "kernel_a").unwrap();
        assert_eq!(k.name(), "kernel_a");
    }

    #[test]
    fn unresolved_symbol_error_names_both_parts() {
        let reg = KernelRegistry::new();
        let err = reg.resolve("fft_accel.so", "missing").err().unwrap();
        assert_eq!(
            err,
            ModelError::UnresolvedSymbol {
                shared_object: "fft_accel.so".into(),
                runfunc: "missing".into()
            }
        );
    }

    #[test]
    fn same_symbol_in_different_objects() {
        let mut reg = KernelRegistry::new();
        reg.register_fn("a.so", "fft", noop);
        reg.register_fn("b.so", "fft", noop);
        assert!(reg.resolve("a.so", "fft").is_ok());
        assert!(reg.resolve("b.so", "fft").is_ok());
        assert!(reg.resolve("c.so", "fft").is_err());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn reregistration_replaces() {
        let mut reg = KernelRegistry::new();
        reg.register_fn("a.so", "k", |_| Err(ModelError::Json("old".into())));
        reg.register_fn("a.so", "k", noop);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn merge_unions_registries() {
        let mut a = KernelRegistry::new();
        a.register_fn("common.so", "x", noop);
        let mut b = KernelRegistry::new();
        b.register_fn("app.so", "y", noop);
        b.register_fn("common.so", "z", noop);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.shared_objects(), vec!["app.so", "common.so"]);
        assert_eq!(a.symbols("common.so"), vec!["x", "z"]);
    }

    #[test]
    fn empty_registry() {
        let reg = KernelRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.symbols("none.so").is_empty());
    }
}
