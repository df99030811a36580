//! Interned names for the per-task hot path.
//!
//! Both engines record three display names per completed task — the
//! application, the DAG node, and the runfunc that executed. Cloning
//! `String`s for those on every completion made name bookkeeping the
//! dominant allocation source of the DES event loop (three mallocs plus
//! memcpy per task). A [`Name`] is an `Arc<str>` newtype: cloning one is
//! an atomic increment, equality short-circuits on pointer identity, and
//! every consumer that compared against `&str`/`String` keeps working.
//!
//! [`Interner`] deduplicates the underlying allocations within one run;
//! [`NameTable`] precomputes every name an engine can need — per spec,
//! per DAG node, per PE — at run start, so the steady-state loop does
//! hash-map lookups and `Arc` clones only.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::sync::Arc;

use dssoc_appmodel::app::ApplicationSpec;
use dssoc_appmodel::instance::InstanceId;
use dssoc_platform::pe::{PeId, PlatformConfig};

/// A cheaply clonable, interned string (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

/// Deduplicating [`Name`] factory: equal strings intern to the same
/// allocation.
#[derive(Debug, Default)]
pub struct Interner {
    set: HashSet<Arc<str>>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interned [`Name`] for `s`, allocating only on first sight.
    pub fn intern(&mut self, s: &str) -> Name {
        match self.set.get(s) {
            Some(a) => Name(Arc::clone(a)),
            None => {
                let a: Arc<str> = Arc::from(s);
                self.set.insert(Arc::clone(&a));
                Name(a)
            }
        }
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// Per-run name cache: every app, node, and runfunc name an engine can
/// emit, precomputed once per distinct [`ApplicationSpec`] (instances
/// map to their spec's entry, so cost is independent of instance count).
///
/// Instance and PE ids index dense vectors (both are small integers in
/// practice — instances are numbered `0..n`, PE ids come from platform
/// descriptors), so the per-completion lookups never hash.
#[derive(Debug)]
pub struct NameTable {
    specs: Vec<SpecNames>,
    /// `instance id -> spec index` (dense; unknown ids out of range).
    by_instance: Vec<u32>,
    /// `PeId -> column in the runfunc tables`, `NO_COLUMN` for ids the
    /// platform does not contain.
    pe_column: Vec<u32>,
}

const NO_COLUMN: u32 = u32::MAX;

#[derive(Debug)]
struct SpecNames {
    app: Name,
    nodes: Vec<Name>,
    /// `[node_idx][pe column]` — the runfunc `node_idx` executes on that
    /// PE, `None` when the node does not support the PE's platform.
    runfuncs: Vec<Vec<Option<Name>>>,
}

impl NameTable {
    /// Precomputes the names of `specs` (a workload's resolved app
    /// table) on `platform`; `spec_of[i]` is the index in `specs` of
    /// instance `i`'s application.
    pub fn build(
        specs: &[Arc<ApplicationSpec>],
        spec_of: Vec<u32>,
        platform: &PlatformConfig,
        interner: &mut Interner,
    ) -> Self {
        let pe_top = platform.pes.iter().map(|pe| pe.id.0 as usize + 1).max().unwrap_or(0);
        let mut pe_column = vec![NO_COLUMN; pe_top];
        for (i, pe) in platform.pes.iter().enumerate() {
            pe_column[pe.id.0 as usize] = i as u32;
        }
        let specs = specs.iter().map(|s| SpecNames::build(s, platform, interner)).collect();
        NameTable { specs, by_instance: spec_of, pe_column }
    }

    /// Number of distinct [`ApplicationSpec`]s in the table: the specs
    /// passed to [`Self::build`], in order.
    pub fn spec_count(&self) -> usize {
        self.specs.len()
    }

    /// The spec index `inst` maps to (see [`Self::spec_count`]). Engines
    /// use this to key their own per-spec precomputed tables.
    pub fn spec_index(&self, inst: InstanceId) -> usize {
        self.by_instance[inst.0 as usize] as usize
    }

    /// The column `pe` occupies in per-PE tables (its position in
    /// `platform.pes`), or `None` for ids the platform does not contain.
    pub fn pe_column(&self, pe: PeId) -> Option<usize> {
        match self.pe_column.get(pe.0 as usize) {
            Some(&c) if c != NO_COLUMN => Some(c as usize),
            _ => None,
        }
    }

    fn spec(&self, inst: InstanceId) -> &SpecNames {
        &self.specs[self.spec_index(inst)]
    }

    /// The application name of `inst`.
    pub fn app(&self, inst: InstanceId) -> &Name {
        &self.spec(inst).app
    }

    /// The application name of spec index `spec`.
    pub(crate) fn spec_app(&self, spec: usize) -> &Name {
        &self.specs[spec].app
    }

    /// The number of DAG nodes of `inst`'s application.
    pub(crate) fn node_count(&self, inst: InstanceId) -> usize {
        self.spec(inst).nodes.len()
    }

    /// The display name of `inst`'s DAG node `node_idx`.
    pub fn node(&self, inst: InstanceId, node_idx: usize) -> &Name {
        &self.spec(inst).nodes[node_idx]
    }

    /// The runfunc `inst`'s node `node_idx` executes on `pe` (`None`
    /// when the node does not support that PE's platform).
    pub fn runfunc(&self, inst: InstanceId, node_idx: usize, pe: PeId) -> Option<&Name> {
        let col = self.pe_column(pe)?;
        self.spec(inst).runfuncs[node_idx][col].as_ref()
    }

    /// [`Self::runfunc`] addressed by spec index and PE column directly —
    /// the form the SoA flattener walks (it iterates specs, not
    /// instances, and already holds the column).
    pub(crate) fn runfunc_by_spec(
        &self,
        spec: usize,
        node_idx: usize,
        col: usize,
    ) -> Option<&Name> {
        self.specs[spec].runfuncs[node_idx][col].as_ref()
    }
}

impl SpecNames {
    fn build(
        spec: &ApplicationSpec,
        platform: &PlatformConfig,
        interner: &mut Interner,
    ) -> SpecNames {
        SpecNames {
            app: interner.intern(&spec.name),
            nodes: spec.nodes.iter().map(|n| interner.intern(&n.name)).collect(),
            runfuncs: spec
                .nodes
                .iter()
                .map(|n| {
                    platform
                        .pes
                        .iter()
                        .map(|pe| n.platform(&pe.platform_key).map(|p| interner.intern(&p.runfunc)))
                        .collect()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_like_strings() {
        let mut i = Interner::new();
        let a = i.intern("fft_256");
        let b = i.intern("fft_256");
        assert_eq!(a, b);
        assert_eq!(a, "fft_256");
        assert_eq!("fft_256", a.clone());
        assert_eq!(a, String::from("fft_256"));
        assert_eq!(a.as_str(), "fft_256");
        assert!(a.starts_with("fft"), "Deref to str works");
        assert_eq!(format!("{a}"), "fft_256");
        assert_eq!(i.len(), 1, "equal strings share one allocation");
        assert!(Name::default().is_empty());
    }

    #[test]
    fn interner_dedups_allocations() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("x");
        let c = i.intern("y");
        assert!(Arc::ptr_eq(&a.0, &b.0), "same backing allocation");
        assert!(!Arc::ptr_eq(&a.0, &c.0));
        assert_eq!(i.len(), 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn names_order_and_hash_by_content() {
        use std::collections::HashMap;
        let mut i = Interner::new();
        let mut m: HashMap<Name, u32> = HashMap::new();
        m.insert(i.intern("b"), 2);
        m.insert(i.intern("a"), 1);
        // Borrow<str> lets the map be queried with plain &str.
        assert_eq!(m.get("a"), Some(&1));
        let mut keys: Vec<&Name> = m.keys().collect();
        keys.sort();
        assert_eq!(keys, ["a", "b"]);
    }
}
