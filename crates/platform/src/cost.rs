//! Deterministic per-`(kernel, PE class)` task costs.
//!
//! A [`CostTable`] is what a discrete-event simulator charges per task,
//! and what differential tests pin both engines to. The other way to
//! charge a task — "real application, modeled platform": the kernel's
//! host-measured time divided by the PE's relative speed — needs no
//! data, so it lives with the engine that measures (`dssoc-core`).
//!
//! Accelerator invocations are *always* charged from the
//! [`crate::accel::AccelJobReport`] latency model, whatever the cost,
//! because the functional FFT on the host says nothing about the
//! device's DMA and pipeline behaviour.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

use crate::pe::PeDescriptor;

/// Deterministic per-`(kernel, class)` duration table.
///
/// Serializable so calibration runs can persist a table and DES replays
/// can load it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostTable {
    /// `kernel name -> PE class name -> duration`.
    pub entries: BTreeMap<String, BTreeMap<String, Duration>>,
}

impl CostTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a cost entry.
    pub fn set(
        &mut self,
        kernel: impl Into<String>,
        class: impl Into<String>,
        cost: Duration,
    ) -> &mut Self {
        self.entries.entry(kernel.into()).or_default().insert(class.into(), cost);
        self
    }

    /// Fetches the cost for `kernel` on PE class `class`.
    pub fn get(&self, kernel: &str, class: &str) -> Option<Duration> {
        self.entries.get(kernel)?.get(class).copied()
    }

    /// Fetches the cost for a kernel on a concrete PE descriptor.
    pub fn estimate(&self, kernel: &str, pe: &PeDescriptor) -> Option<Duration> {
        self.get(kernel, pe.class_name())
    }

    /// Number of `(kernel, class)` pairs stored.
    pub fn len(&self) -> usize {
        self.entries.values().map(|m| m.len()).sum()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges `other` into `self`, with `other` winning on conflicts.
    pub fn merge(&mut self, other: &CostTable) {
        for (k, classes) in &other.entries {
            let slot = self.entries.entry(k.clone()).or_default();
            for (c, d) in classes {
                slot.insert(c.clone(), *d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup_and_merge() {
        let mut t = CostTable::new();
        t.set("fft128", "cortex-a53", Duration::from_micros(12));
        t.set("fft128", "fft", Duration::from_micros(70));
        assert_eq!(t.get("fft128", "cortex-a53"), Some(Duration::from_micros(12)));
        assert_eq!(t.get("fft128", "nope"), None);
        assert_eq!(t.get("nope", "fft"), None);
        assert_eq!(t.len(), 2);

        let mut other = CostTable::new();
        other.set("fft128", "cortex-a53", Duration::from_micros(99));
        other.set("viterbi", "cortex-a53", Duration::from_micros(500));
        t.merge(&other);
        assert_eq!(t.get("fft128", "cortex-a53"), Some(Duration::from_micros(99)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn table_serde_round_trip() {
        let mut t = CostTable::new();
        t.set("a", "cpu", Duration::from_nanos(123));
        let json = serde_json::to_string(&t).unwrap();
        let u: CostTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, u);
    }

    #[test]
    fn empty_table() {
        let t = CostTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
