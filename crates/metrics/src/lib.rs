//! # dssoc-metrics — live metrics for the DSSoC emulation framework
//!
//! The paper's framework reports scheduling statistics only at
//! termination; this crate adds the always-on telemetry layer a
//! production runtime (CEDR, DS3) leans on: cheap counters, streaming
//! percentile histograms, and a scrapable exposition endpoint, all
//! readable mid-run.
//!
//! Layers:
//!
//! - [`cell`] — sharded [`Counter`] / [`Gauge`]: per-producer cells,
//!   relaxed atomics, aggregated on read (the `EventRing` single-writer
//!   philosophy applied to scalars).
//! - [`histogram`] — fixed-footprint log2-bucket [`Histogram`]:
//!   mergeable, p50/p90/p99/max, no allocation on the record path.
//! - [`registry`] — [`MetricsRegistry`] keyed by interned [`Name`]
//!   labels, producing `Clone + Serialize` [`MetricsSnapshot`]s.
//! - [`expo`] — Prometheus/OpenMetrics text rendering.
//! - [`http`] — minimal shared HTTP plumbing (listener loop, request
//!   parse, response write, blocking client) used by [`server`] here
//!   and by the `dssoc-serve` daemon.
//! - [`server`] — a dependency-free HTTP endpoint ([`MetricsServer`])
//!   serving `/metrics` and `/snapshot.json`.
//!
//! ## Publish lag
//!
//! A snapshot shows what producers have published, which need not be
//! every sample they have taken. The emulation engines (`dssoc-core`'s
//! `metrics` module) register their cells once per engine, keep a run's
//! counts in plain run state, and fold them into the cells in batches:
//! at every run exit, and mid-run whenever 256 completions are
//! unpublished, checked once per engine loop pass. A mid-run scrape of
//! an engine's families therefore trails the run by fewer than 256
//! completions plus the event window being processed; once a run has
//! returned, its values are final. Each fold is single-writer relaxed
//! stores like any other record, so a concurrent snapshot sees every
//! counter move forward monotonically.
//!
//! ```
//! use dssoc_metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let tasks = registry.counter("tasks_completed", &[("pe", "Core1")]);
//! let wait = registry.histogram("task_wait_ns", &[]);
//! let (tasks_cell, wait_cell) = (tasks.cell(), wait.cell());
//! // hot path: lock-free, allocation-free
//! tasks_cell.inc();
//! wait_cell.record(1_250);
//! // any thread, any time
//! let snap = registry.snapshot();
//! assert_eq!(snap.value("tasks_completed", &[("pe", "Core1")]), Some(1.0));
//! ```

pub mod cell;
pub mod expo;
pub mod histogram;
pub mod http;
pub mod registry;
pub mod server;

pub use cell::{Counter, CounterCell, Gauge, GaugeCell};
pub use expo::{render_openmetrics, OPENMETRICS_CONTENT_TYPE};
pub use histogram::{Histogram, HistogramCell, HistogramData, NUM_BUCKETS};
pub use registry::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Name, SampleSnapshot};
pub use server::MetricsServer;
