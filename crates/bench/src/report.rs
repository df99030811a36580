//! Machine-readable bench summaries (`BENCH_des.json`).
//!
//! Every bench bin (and the `des_throughput` bench) merges its key
//! numbers into one JSON file so the performance trajectory is tracked
//! across PRs: CI uploads the file as an artifact, and
//! `crates/bench/README.md` records the before/after milestones.
//!
//! The file is a flat object of sections, one per bench bin:
//!
//! ```json
//! { "des_throughput": { "tasks_1002_events_per_sec": 1.9e6, ... },
//!   "fig9": { "median_ms_3C+0F": 2.97, ... } }
//! ```
//!
//! Sections are replaced wholesale on write; other bins' sections are
//! preserved, so running the bins in any order accumulates one summary.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::Value;

/// Environment variable overriding the summary file location.
pub const BENCH_JSON_ENV: &str = "BENCH_DES_JSON";

/// Default summary file name, written to the workspace root.
pub const BENCH_JSON_FILE: &str = "BENCH_des.json";

/// One bench bin's summary section, merged into `BENCH_des.json` on
/// [`BenchReport::write`].
#[derive(Debug)]
pub struct BenchReport {
    section: String,
    values: BTreeMap<String, Value>,
}

impl BenchReport {
    /// An empty section named after the bench bin.
    pub fn new(section: impl Into<String>) -> Self {
        BenchReport { section: section.into(), values: BTreeMap::new() }
    }

    /// Records one metric (`json!`-built value).
    pub fn set(&mut self, key: impl Into<String>, value: Value) -> &mut Self {
        self.values.insert(key.into(), value);
        self
    }

    /// Records one float metric.
    pub fn set_f64(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        self.set(key, serde_json::to_value(&value))
    }

    /// The summary file path: `$BENCH_DES_JSON`, or `BENCH_des.json` at
    /// the workspace root. The default is anchored to the source tree
    /// rather than the working directory because cargo runs bench
    /// targets from the package directory but bins from the invocation
    /// directory — every harness must merge into the same file.
    pub fn path() -> PathBuf {
        std::env::var(BENCH_JSON_ENV).map(PathBuf::from).unwrap_or_else(|_| {
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop(); // crates/
            p.pop(); // workspace root
            p.push(BENCH_JSON_FILE);
            p
        })
    }

    /// Merges this section into the summary file (other sections are
    /// preserved; a corrupt or missing file is started fresh) and
    /// returns the path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = Self::path();
        let mut sections: BTreeMap<String, Value> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(&text).ok())
            .and_then(|v| v.as_object().cloned())
            .unwrap_or_default();
        sections.insert(self.section.clone(), Value::Object(self.values.clone()));
        let body = serde_json::to_string_pretty(&Value::Object(sections))
            .expect("bench summary serializes")
            + "\n";
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_merge_and_replace() {
        let dir = std::env::temp_dir().join("dssoc_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_des.json");
        let _ = std::fs::remove_file(&path);
        std::env::set_var(BENCH_JSON_ENV, &path);

        let mut a = BenchReport::new("alpha");
        a.set_f64("x", 1.5);
        a.write().unwrap();
        let mut b = BenchReport::new("beta");
        b.set("label", serde_json::to_value("hi"));
        b.write().unwrap();
        // Re-writing a section replaces it without touching the other.
        let mut a2 = BenchReport::new("alpha");
        a2.set_f64("y", 2.0);
        a2.write().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert!(v["alpha"]["x"].is_null(), "replaced section dropped stale key");
        assert_eq!(v["alpha"]["y"].as_f64(), Some(2.0));
        assert_eq!(v["beta"]["label"].as_str(), Some("hi"));
        std::env::remove_var(BENCH_JSON_ENV);
    }
}
