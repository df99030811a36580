//! Names for the per-task hot path, by instance.
//!
//! Both engines record three display names per completed task — the
//! application, the DAG node, and the runfunc that executed — as
//! [`Name`]s: `Arc<str>`s, so recording one is an atomic increment.
//! Each loaded [`ApplicationSpec`] builds its own names once (see
//! [`dssoc_appmodel::name`]); a run never builds a name.
//!
//! [`NameTable`] maps a run's instance ids to the workload's resolved
//! app table and PE ids to platform columns, so every per-completion
//! lookup is an array read and every name it hands out is a clone of
//! the spec's own.

use std::sync::Arc;

use dssoc_appmodel::app::ApplicationSpec;
use dssoc_appmodel::instance::InstanceId;
use dssoc_platform::pe::{PeId, PlatformConfig};

pub use dssoc_appmodel::name::Name;

/// A compiled scenario's instance → application map: the workload's
/// resolved app table, each instance's index in it, and each PE's
/// platform column.
///
/// Instance and PE ids index dense vectors (both are small integers in
/// practice — instances are numbered `0..n`, PE ids come from platform
/// descriptors), so the per-completion lookups never hash.
#[derive(Debug)]
pub struct NameTable {
    /// The workload's resolved app table, in table order.
    specs: Vec<Arc<ApplicationSpec>>,
    /// `instance id -> spec index` (dense; unknown ids out of range).
    by_instance: Vec<u32>,
    /// `PeId -> column in per-PE tables`, `NO_COLUMN` for ids the
    /// platform does not contain.
    pe_column: Vec<u32>,
}

const NO_COLUMN: u32 = u32::MAX;

impl NameTable {
    /// The table of `specs` (a workload's resolved app table) on
    /// `platform`; `spec_of[i]` is the index in `specs` of instance
    /// `i`'s application.
    pub fn new(
        specs: Vec<Arc<ApplicationSpec>>,
        spec_of: Vec<u32>,
        platform: &PlatformConfig,
    ) -> Self {
        let pe_top = platform.pes.iter().map(|pe| pe.id.0 as usize + 1).max().unwrap_or(0);
        let mut pe_column = vec![NO_COLUMN; pe_top];
        for (i, pe) in platform.pes.iter().enumerate() {
            pe_column[pe.id.0 as usize] = i as u32;
        }
        NameTable { specs, by_instance: spec_of, pe_column }
    }

    /// The index in [`Self::specs`] that `inst` maps to. Engines use
    /// this to key their own per-spec precomputed tables.
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

    /// The resolved app table (the specs passed to [`Self::new`]), in
    /// spec-index order.
    pub fn specs(&self) -> &[Arc<ApplicationSpec>] {
        &self.specs
    }

    /// The application of `inst`.
    pub fn spec(&self, inst: InstanceId) -> &ApplicationSpec {
        &self.specs[self.spec_index(inst)]
    }

    /// The application name of `inst`.
    pub fn app(&self, inst: InstanceId) -> &Name {
        &self.spec(inst).name
    }

    /// The display name of `inst`'s DAG node `node_idx`.
    pub fn node(&self, inst: InstanceId, node_idx: usize) -> &Name {
        &self.spec(inst).nodes[node_idx].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::fixture_instance;
    use dssoc_platform::presets::zcu102;

    #[test]
    fn names_compare_like_strings() {
        let a = Name::from("fft_256");
        let b = Name::from(String::from("fft_256"));
        assert_eq!(a, b);
        assert_eq!(a, "fft_256");
        assert_eq!("fft_256", a.clone());
        assert_eq!(a, String::from("fft_256"));
        assert_eq!(String::from(a.clone()), "fft_256");
        assert_eq!(a.as_str(), "fft_256");
        assert!(a.starts_with("fft"), "Deref to str works");
        assert_eq!(format!("{a}"), "fft_256");
        assert!(Name::default().is_empty());
    }

    /// The table hands out the spec's own names: clones of one
    /// allocation, built when the app was loaded.
    #[test]
    fn table_names_are_the_specs_own() {
        let platform = zcu102(2, 1);
        let spec = Arc::clone(&fixture_instance(3, 70.0).spec);
        let names = NameTable::new(vec![Arc::clone(&spec)], vec![0, 0], &platform);
        let (first, second) = (InstanceId(0), InstanceId(1));
        assert!(std::ptr::eq(names.app(first).as_str(), spec.name.as_str()));
        assert!(std::ptr::eq(names.app(second).as_str(), names.app(first).as_str()));
        assert!(std::ptr::eq(names.node(second, 2).as_str(), spec.nodes[2].name.as_str()));
        assert_eq!(names.node(first, 1), "n001");
        assert_eq!((names.specs().len(), names.spec_index(second)), (1, 0));
        assert_eq!(names.pe_column(platform.pes[2].id), Some(2));
        assert_eq!(names.pe_column(PeId(99)), None);
    }

    #[test]
    fn names_order_and_hash_by_content() {
        use std::collections::HashMap;
        let mut m: HashMap<Name, u32> = HashMap::new();
        m.insert(Name::from("b"), 2);
        m.insert(Name::from("a"), 1);
        // Borrow<str> lets the map be queried with plain &str.
        assert_eq!(m.get("a"), Some(&1));
        let mut keys: Vec<&Name> = m.keys().collect();
        keys.sort();
        assert_eq!(keys, ["a", "b"]);
    }
}
