//! Struct-of-arrays scenario state for the DES hot loop.
//!
//! [`ScenarioSoa`] holds each application spec's per-`(node, PE)` data
//! as parallel dense arrays — one contiguous stride-indexed slab per
//! field — so the DES completion and dispatch paths touch one cache
//! line per field instead of chasing nested `Vec`s and branching on an
//! `Option`:
//!
//! * `cost_ns[node * stride + col]` — the modeled duration in
//!   nanoseconds, with [`INCOMPATIBLE`] (`u64::MAX`) marking pairs the
//!   node does not support. The sentinel test *is* the compatibility
//!   test, replacing the string-keyed `Task::supports` comparison on the
//!   DES validation path.
//! * `est_slot` — the raw estimate-book slot each completion observation
//!   lands in (aligned with `cost_ns`; only meaningful where
//!   compatible), and `est_prior_ns`, the JSON per-platform estimate that
//!   takes precedence over the book's observations — together what
//!   [`ScenarioSoa::estimate`] needs to answer without a string key.
//! * `entry` — the index of the node's platform entry the pair runs
//!   ([`NO_ENTRY`] where incompatible): what a dispatch names, so the
//!   PE thread finds its kernel without a string key, and where fault
//!   rules and per-kernel metrics read the runfunc name.
//! * `kernel_id` — the runfunc's process-wide id per pair
//!   ([`runfunc_id`]; [`NO_KERNEL`] where incompatible or unnamed), what
//!   the metrics fold indexes its per-kernel cells by.
//!
//! The DAG itself is not copied: each [`SpecSoa`] holds its
//! application, whose CSR topology ([`ApplicationSpec::succ`] and
//! friends) was derived once when the app was loaded, so
//! completion-time successor walks are two array reads plus a
//! contiguous slice scan instead of a pointer chase through
//! `NodeSpec`s. A compile resolves only the per-`(node, PE)` cost
//! cells.
//!
//! Instances of one application share their spec's slab (spec indices
//! come from [`NameTable::spec_index`], the workload's app-table
//! order), so the memory cost is per *distinct application*, not per
//! instance.
//! [`CompiledScenario`] builds one [`ScenarioSoa`] at compile time and
//! `Arc`-shares it across runs, workers, and sweep cells.
//!
//! [`CompiledScenario`]: crate::job::CompiledScenario
//! [`NameTable::spec_index`]: crate::intern::NameTable::spec_index
//! [`runfunc_id`]: dssoc_appmodel::registry::runfunc_id

use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::{ApplicationSpec, ResolvedPlatform};
use dssoc_appmodel::instance::InstanceId;
use dssoc_platform::pe::PlatformConfig;

use crate::arena::DenseReady;
use crate::intern::NameTable;
use crate::job::CostSpec;
use crate::sched::EstimateBook;

/// Sentinel in [`SpecSoa::cost_ns`] for `(node, PE)` pairs the node does
/// not support. No modeled duration can reach it: durations come from
/// `Duration::as_nanos()` clamped into `u64`, and a real `u64::MAX` ns
/// cost (584 years) would saturate the clock long before mattering.
pub const INCOMPATIBLE: u64 = u64::MAX;

/// Sentinel in [`SpecSoa::est_prior_ns`]: no JSON estimate.
pub(crate) const NO_PRIOR: u64 = u64::MAX;

/// Sentinel in [`SpecSoa::entry`]: the node has no platform entry for
/// the PE.
pub const NO_ENTRY: u32 = u32::MAX;

/// Sentinel in [`SpecSoa::kernel_id`]: no named runfunc.
pub(crate) const NO_KERNEL: u32 = u32::MAX;

/// One application spec's per-`(node, PE)` data as parallel dense
/// arrays (see module docs). All slabs are indexed
/// `node_idx * stride + pe_column`.
#[derive(Debug)]
pub struct SpecSoa {
    /// The application, whose DAG topology runs read directly.
    pub(crate) app: Arc<ApplicationSpec>,
    /// Modeled dispatch duration in ns, [`INCOMPATIBLE`] when the node
    /// does not support the PE's platform.
    pub(crate) cost_ns: Vec<u64>,
    /// Raw estimate-book slots aligned with `cost_ns` (zero where
    /// incompatible — never read there).
    pub(crate) est_slot: Vec<u32>,
    /// The JSON `mean_exec` estimate in ns per pair, [`NO_PRIOR`] where
    /// the JSON gives none (or the pair is incompatible).
    pub(crate) est_prior_ns: Vec<u64>,
    /// The index in `node.platforms` of the entry each pair runs,
    /// [`NO_ENTRY`] where incompatible.
    pub(crate) entry: Vec<u32>,
    /// The runfunc's process-wide id per pair, [`NO_KERNEL`] where
    /// incompatible or the runfunc is unnamed.
    pub(crate) kernel_id: Vec<u32>,
    /// Per-node compatibility bitmask over PE columns (bit `c` set when
    /// `cost_ns[node * stride + c]` is compatible). Columns ≥ 64 are not
    /// represented — the DES FIFO placement that consumes these masks
    /// runs only on ≤ 64-PE platforms.
    pub(crate) compat: Vec<u64>,
}

/// The struct-of-arrays form of one compiled scenario's dispatch costs:
/// one [`SpecSoa`] per distinct application spec, each beside its app's
/// DAG topology, in [`NameTable`] spec-index order.
#[derive(Debug)]
pub struct ScenarioSoa {
    /// Row stride of the per-pair slabs: the platform's PE count.
    pub(crate) stride: usize,
    pub(crate) specs: Vec<SpecSoa>,
    /// The estimate of last resort per PE column: 100 µs of host work
    /// scaled by the PE's speed.
    default_est: Vec<Duration>,
    /// Some compatible cell has no JSON estimate, so estimates there
    /// read the learned book (see [`Self::reads_book`]).
    reads_book: bool,
}

impl ScenarioSoa {
    /// Resolves every `(spec, node, PE)` dispatch cost of `specs` (a
    /// workload's resolved app table) on `platform` into SoA slabs,
    /// reserving estimate-book slots as it goes; slab `i` is spec index
    /// `i`.
    pub(crate) fn build(
        specs: &[Arc<ApplicationSpec>],
        platform: &PlatformConfig,
        cost: &CostSpec,
        estimates: &mut EstimateBook,
    ) -> ScenarioSoa {
        let specs: Vec<SpecSoa> =
            specs.iter().map(|spec| SpecSoa::build(spec, platform, cost, estimates)).collect();
        let default_est =
            platform.pes.iter().map(|pe| Duration::from_secs_f64(100e-6 / pe.speed())).collect();
        let reads_book = specs.iter().any(|spec| {
            spec.cost_ns
                .iter()
                .zip(&spec.est_prior_ns)
                .any(|(&c, &p)| c != INCOMPATIBLE && p == NO_PRIOR)
        });
        ScenarioSoa { stride: platform.pes.len(), specs, default_est, reads_book }
    }

    /// The estimate for task `(inst, node)` on PE column `col` (which
    /// must be compatible): the JSON estimate, else `book`'s
    /// observations, else the column's speed-scaled default — by the
    /// pair's pre-resolved slot instead of its string key. What
    /// [`ReadyRow::estimate`](crate::sched::ReadyRow::estimate) answers
    /// policies, and what reservation projections and hang deadlines use.
    pub(crate) fn estimate(
        &self,
        names: &NameTable,
        book: &EstimateBook,
        (inst, node): (u32, u32),
        col: usize,
    ) -> Duration {
        let spec = &self.specs[names.spec_index(InstanceId(inst as u64))];
        self.cell_estimate(spec, node as usize * self.stride + col, col, book)
    }

    /// The slab of ready entry `e`'s application and `e`'s slab index
    /// on PE column `col`.
    pub(crate) fn cell(&self, names: &NameTable, e: DenseReady, col: usize) -> (&SpecSoa, usize) {
        let spec = &self.specs[names.spec_index(InstanceId(e.inst as u64))];
        (spec, e.node as usize * self.stride + col)
    }

    /// [`Self::estimate`] at `spec`'s slab index `cell` (in column `col`).
    #[inline]
    pub(crate) fn cell_estimate(
        &self,
        spec: &SpecSoa,
        cell: usize,
        col: usize,
        book: &EstimateBook,
    ) -> Duration {
        match spec.est_prior_ns[cell] {
            NO_PRIOR => book.values[spec.est_slot[cell] as usize].unwrap_or(self.default_est[col]),
            prior => Duration::from_nanos(prior),
        }
    }

    /// True when some estimate comes from the learned book: without it
    /// every compatible pair has a JSON estimate, no estimate ever reads
    /// the book, and an engine may skip observing completions.
    pub(crate) fn reads_book(&self) -> bool {
        self.reads_book
    }

    /// Number of distinct application specs.
    pub fn spec_count(&self) -> usize {
        self.specs.len()
    }

    /// Total per-`(node, PE)` cells across all specs (a size gauge for
    /// diagnostics and tests).
    pub fn cell_count(&self) -> usize {
        self.specs.iter().map(|s| s.cost_ns.len()).sum()
    }
}

impl SpecSoa {
    /// The platform entry node `node` runs at slab index `cell` (in the
    /// node's row), if the pair is compatible.
    pub(crate) fn platform(&self, node: usize, cell: usize) -> Option<&ResolvedPlatform> {
        match self.entry[cell] {
            NO_ENTRY => None,
            i => Some(&self.app.nodes[node].platforms[i as usize]),
        }
    }

    /// The runfunc node `node` runs at slab index `cell` (empty where
    /// incompatible).
    pub(crate) fn runfunc(&self, node: usize, cell: usize) -> &str {
        self.platform(node, cell).map_or("", |p| p.runfunc.as_str())
    }

    fn build(
        spec: &Arc<ApplicationSpec>,
        platform: &PlatformConfig,
        cost: &CostSpec,
        estimates: &mut EstimateBook,
    ) -> SpecSoa {
        let n = spec.nodes.len();
        let stride = platform.pes.len();
        let mut cost_ns = vec![INCOMPATIBLE; n * stride];
        let mut est_slot = vec![0u32; n * stride];
        let mut est_prior_ns = vec![NO_PRIOR; n * stride];
        let mut entry = vec![NO_ENTRY; n * stride];
        let mut kernel_id = vec![NO_KERNEL; n * stride];
        for (node_idx, node) in spec.nodes.iter().enumerate() {
            for (col, pe) in platform.pes.iter().enumerate() {
                let found = node.platforms.iter().position(|p| p.key == pe.platform_key);
                if let Some(i) = found {
                    let (p, k) = (&node.platforms[i], node_idx * stride + col);
                    entry[k] = i as u32;
                    let dur = cost.cell_cost(node, pe);
                    cost_ns[k] = dur.as_nanos().min(u64::MAX as u128 - 1) as u64;
                    est_slot[k] = estimates.slot_of(&p.runfunc, pe.class_name()).raw();
                    if let Some(d) = p.mean_exec {
                        est_prior_ns[k] = d.as_nanos().min(NO_PRIOR as u128 - 1) as u64;
                    }
                    if !p.runfunc.is_empty() {
                        kernel_id[k] = p.runfunc_id;
                    }
                }
            }
        }
        let mut compat = vec![0u64; n];
        for (node_idx, mask) in compat.iter_mut().enumerate() {
            for col in 0..stride.min(64) {
                if cost_ns[node_idx * stride + col] != INCOMPATIBLE {
                    *mask |= 1u64 << col;
                }
            }
        }
        SpecSoa { app: Arc::clone(spec), cost_ns, est_slot, est_prior_ns, entry, kernel_id, compat }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::testutil::fixture_instance;
    use crate::task::Task;
    use dssoc_platform::cost::CostTable;
    use dssoc_platform::presets::zcu102;
    use std::time::Duration;

    /// Every slab cell must equal its oracle — the cell cost and
    /// estimate slot resolved straight from the cost spec and the book
    /// — with the sentinel exactly where the node has no implementation
    /// for the PE's platform. That equivalence is what lets the DES swap
    /// lookups.
    #[test]
    fn soa_matches_grid() {
        let platform = zcu102(2, 1);
        // fixture_instance: even-indexed nodes also support "fft", so the
        // compatibility pattern is non-trivial.
        let instances = vec![fixture_instance(6, 70.0)];
        let specs = [Arc::clone(&instances[0].spec)];
        let names = NameTable::new(specs.to_vec(), vec![0], &platform);
        // One table entry: cells resolve through the table and through
        // the JSON estimate fallback.
        let mut table = CostTable::new();
        table.set("kc", platform.pes[0].class_name(), Duration::from_micros(42));
        let cost = CostSpec::table(table);
        let mut estimates = EstimateBook::new();
        let soa = ScenarioSoa::build(&specs, &platform, &cost, &mut estimates);
        let reserved = format!("{estimates:?}");

        assert_eq!(soa.spec_count(), 1);
        assert_eq!(soa.stride, 3);
        assert_eq!(soa.cell_count(), 18);
        for inst in &instances {
            let spec = &soa.specs[names.spec_index(inst.id)];
            assert!(Arc::ptr_eq(&spec.app, &inst.spec), "the slab reads its app's topology");
            for (node_idx, node) in inst.spec.nodes.iter().enumerate() {
                for (col, pe) in platform.pes.iter().enumerate() {
                    let k = node_idx * soa.stride + col;
                    match node.platform(&pe.platform_key) {
                        Some(p) => {
                            let dur = cost.cell_cost(node, pe);
                            assert_eq!(spec.cost_ns[k], dur.as_nanos() as u64);
                            let slot = estimates.slot_of(&p.runfunc, pe.class_name());
                            assert_eq!(spec.est_slot[k], slot.raw());
                            assert!(std::ptr::eq(spec.platform(node_idx, k).unwrap(), p));
                            assert_eq!(spec.runfunc(node_idx, k), p.runfunc.as_str());
                            assert_eq!(spec.kernel_id[k], p.runfunc_id);
                        }
                        None => {
                            assert_eq!(spec.cost_ns[k], INCOMPATIBLE);
                            assert_eq!(spec.entry[k], NO_ENTRY);
                            assert!(spec.runfunc(node_idx, k).is_empty());
                            assert_eq!(spec.kernel_id[k], NO_KERNEL);
                        }
                    }
                    // Sentinel test ≡ supports() — the swap the DES
                    // validation path makes.
                    let task = Task { instance: inst.clone(), node_idx };
                    assert_eq!(spec.cost_ns[k] != INCOMPATIBLE, task.supports(&pe.platform_key));
                    // The per-node bitmask agrees with the sentinel cell by
                    // cell — the dense FIFO path relies on this equivalence.
                    assert_eq!(
                        spec.compat[node_idx] & (1 << col) != 0,
                        spec.cost_ns[k] != INCOMPATIBLE,
                    );
                }
            }
        }
        assert_eq!(format!("{estimates:?}"), reserved, "the build reserved every oracle slot");
        assert_eq!(soa.specs[0].cost_ns[0], 42_000, "the table entry wins over the JSON estimate");
    }
}
