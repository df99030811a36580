//! Workload generation — the two operation modes of the paper (§II-B).
//!
//! * **Validation mode** "involves generating all application instances
//!   and injecting them at t=0, with the emulation finishing once all
//!   applications are complete."
//! * **Performance mode** "involves generating a probabilistic trace,
//!   where applications are given injection times `t ∈ [0, t_end)` and
//!   injected throughout the emulation" — the user provides, per
//!   application, the injection period and probability, plus the time
//!   frame.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::app::AppLibrary;
use crate::error::ModelError;
use crate::instance::{AppInstance, InstanceId};
use crate::memory::AppMemory;

/// Per-application parameters for performance mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectionParams {
    /// Application `AppName`.
    pub app: String,
    /// Injection attempt period.
    pub period: Duration,
    /// Probability that each attempt actually injects (`0..=1`).
    pub probability: f64,
}

/// The operation mode requested by the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OperationMode {
    /// All instances at t=0; `counts` maps app name to instance count.
    Validation {
        /// Instance count per application name.
        counts: BTreeMap<String, usize>,
    },
    /// Probabilistic periodic injection over `time_frame`.
    Performance {
        /// Per-application injection parameters.
        injections: Vec<InjectionParams>,
        /// `t_end`: no arrivals at or after this time.
        time_frame: Duration,
    },
}

/// A workload request: mode plus RNG seed (performance mode only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Operation mode.
    pub mode: OperationMode,
    /// Seed for the probabilistic trace (ignored in validation mode).
    pub seed: u64,
}

impl WorkloadSpec {
    /// Validation-mode spec from `(app, count)` pairs.
    pub fn validation<I, S>(counts: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        WorkloadSpec {
            mode: OperationMode::Validation {
                counts: counts.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            },
            seed: 0,
        }
    }

    /// Performance-mode spec.
    pub fn performance(injections: Vec<InjectionParams>, time_frame: Duration, seed: u64) -> Self {
        WorkloadSpec { mode: OperationMode::Performance { injections, time_frame }, seed }
    }

    /// Generates the arrival trace, verifying every requested application
    /// exists in the library (the paper errors out when a requested
    /// `AppName` was never parsed).
    pub fn generate(&self, library: &AppLibrary) -> Result<Workload, ModelError> {
        match &self.mode {
            OperationMode::Validation { counts } => {
                let mut entries = Vec::new();
                for (app, &count) in counts {
                    library.get(app)?; // existence check
                    for _ in 0..count {
                        entries
                            .push(WorkloadEntry { app_name: app.clone(), arrival: Duration::ZERO });
                    }
                }
                if entries.is_empty() {
                    return Err(ModelError::BadWorkload("validation workload is empty".into()));
                }
                Ok(Workload { entries, time_frame: None })
            }
            OperationMode::Performance { injections, time_frame } => {
                if injections.is_empty() {
                    return Err(ModelError::BadWorkload("no injection parameters given".into()));
                }
                if time_frame.is_zero() {
                    return Err(ModelError::BadWorkload("time frame must be nonzero".into()));
                }
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut entries = Vec::new();
                for params in injections {
                    library.get(&params.app)?;
                    if params.period.is_zero() {
                        return Err(ModelError::BadWorkload(format!(
                            "app '{}' has zero injection period",
                            params.app
                        )));
                    }
                    if !(0.0..=1.0).contains(&params.probability) {
                        return Err(ModelError::BadWorkload(format!(
                            "app '{}' has probability {} outside [0, 1]",
                            params.app, params.probability
                        )));
                    }
                    let mut t = Duration::ZERO;
                    while t < *time_frame {
                        if rng.gen::<f64>() < params.probability {
                            entries
                                .push(WorkloadEntry { app_name: params.app.clone(), arrival: t });
                        }
                        t += params.period;
                    }
                }
                entries.sort_by_key(|e| e.arrival);
                Ok(Workload { entries, time_frame: Some(*time_frame) })
            }
        }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadEntry {
    /// Application to inject.
    pub app_name: String,
    /// Arrival time relative to the emulation reference start.
    pub arrival: Duration,
}

/// A generated arrival trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Arrivals in nondecreasing time order.
    pub entries: Vec<WorkloadEntry>,
    /// The performance-mode time frame (`None` in validation mode).
    pub time_frame: Option<Duration>,
}

impl Workload {
    /// Number of job arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Instance counts per application (paper Table II).
    pub fn counts_by_app(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.entries {
            *counts.entry(e.app_name.clone()).or_insert(0usize) += 1;
        }
        counts
    }

    /// Average injection rate in jobs per millisecond over the time
    /// frame (performance mode) or over the arrival span (validation
    /// mode injects everything at t=0, giving `None`).
    pub fn injection_rate_per_ms(&self) -> Option<f64> {
        let span = self.time_frame?;
        if span.is_zero() {
            return None;
        }
        Some(self.entries.len() as f64 / (span.as_secs_f64() * 1e3))
    }

    /// Instantiates every arrival against the application library,
    /// producing the workload queue handed to the workload manager.
    /// Instance ids are assigned in arrival order.
    pub fn instantiate(&self, library: &AppLibrary) -> Result<Vec<AppInstance>, ModelError> {
        let mut specs: BTreeMap<&str, Arc<crate::app::ApplicationSpec>> = BTreeMap::new();
        let mut out = Vec::with_capacity(self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            let spec = match specs.get(entry.app_name.as_str()) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = library.get(&entry.app_name)?;
                    specs.insert(entry.app_name.as_str(), Arc::clone(&s));
                    s
                }
            };
            out.push(AppInstance::instantiate(spec, InstanceId(i as u64), entry.arrival)?);
        }
        Ok(out)
    }

    /// Like [`Self::instantiate`], but all instances of the same
    /// application share one initialized memory image instead of
    /// allocating and initializing a private copy each.
    ///
    /// This is only sound for engines that never execute kernels — the
    /// discrete-event simulator, which takes task durations from cost
    /// estimates and never writes instance memory. There the shared
    /// image is observationally identical to per-instance copies (both
    /// stay at their initial values), and skipping the per-instance
    /// allocation and initialization removes the dominant setup cost of
    /// many-instance simulation runs.
    pub fn instantiate_shared(&self, library: &AppLibrary) -> Result<Vec<AppInstance>, ModelError> {
        let mut specs: BTreeMap<&str, (Arc<crate::app::ApplicationSpec>, Arc<AppMemory>)> =
            BTreeMap::new();
        let mut out = Vec::with_capacity(self.entries.len());
        for (i, entry) in self.entries.iter().enumerate() {
            let (spec, memory) = match specs.get(entry.app_name.as_str()) {
                Some((s, m)) => (Arc::clone(s), Arc::clone(m)),
                None => {
                    let s = library.get(&entry.app_name)?;
                    let m = AppMemory::for_decls(Arc::clone(&s.variables));
                    specs.insert(entry.app_name.as_str(), (Arc::clone(&s), Arc::clone(&m)));
                    (s, m)
                }
            };
            out.push(AppInstance {
                id: InstanceId(i as u64),
                spec,
                memory,
                arrival: entry.arrival,
            });
        }
        Ok(out)
    }

    /// Total task count across all arrivals (needs the library to size
    /// each application).
    pub fn total_tasks(&self, library: &AppLibrary) -> Result<usize, ModelError> {
        let mut total = 0usize;
        for e in &self.entries {
            total += library.get(&e.app_name)?.task_count();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{AppJson, NodeJson, PlatformJson};
    use crate::registry::KernelRegistry;

    fn library() -> AppLibrary {
        let mut reg = KernelRegistry::new();
        reg.register_fn("x.so", "k", |_| Ok(()));
        let mut lib = AppLibrary::new();
        for name in ["radar", "wifi"] {
            let mut dag = BTreeMap::new();
            dag.insert(
                "n0".to_string(),
                NodeJson {
                    arguments: vec![],
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
            let json = AppJson {
                app_name: name.into(),
                shared_object: "x.so".into(),
                variables: BTreeMap::new(),
                dag,
            };
            lib.register_json(&json, &reg).unwrap();
        }
        lib
    }

    #[test]
    fn spec_serde_round_trips() {
        let spec = WorkloadSpec::performance(
            vec![InjectionParams {
                app: "radar".into(),
                period: Duration::from_micros(500),
                probability: 0.8,
            }],
            Duration::from_millis(100),
            9,
        );
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        let v = WorkloadSpec::validation([("radar", 3usize)]);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(serde_json::from_str::<WorkloadSpec>(&json).unwrap(), v);
    }

    #[test]
    fn validation_mode_all_at_zero() {
        let lib = library();
        let spec = WorkloadSpec::validation([("radar", 3usize), ("wifi", 2usize)]);
        let wl = spec.generate(&lib).unwrap();
        assert_eq!(wl.len(), 5);
        assert!(wl.entries.iter().all(|e| e.arrival == Duration::ZERO));
        let counts = wl.counts_by_app();
        assert_eq!(counts["radar"], 3);
        assert_eq!(counts["wifi"], 2);
        assert_eq!(wl.injection_rate_per_ms(), None);
        assert_eq!(wl.total_tasks(&lib).unwrap(), 5);
    }

    #[test]
    fn validation_mode_unknown_app_errors() {
        let lib = library();
        let spec = WorkloadSpec::validation([("pulse_doppler", 1usize)]);
        assert!(matches!(spec.generate(&lib), Err(ModelError::UnknownApplication(_))));
    }

    #[test]
    fn empty_validation_rejected() {
        let lib = library();
        let spec = WorkloadSpec::validation(Vec::<(String, usize)>::new());
        assert!(matches!(spec.generate(&lib), Err(ModelError::BadWorkload(_))));
    }

    #[test]
    fn performance_mode_respects_time_frame() {
        let lib = library();
        let spec = WorkloadSpec::performance(
            vec![InjectionParams {
                app: "radar".into(),
                period: Duration::from_millis(1),
                probability: 1.0,
            }],
            Duration::from_millis(100),
            1,
        );
        let wl = spec.generate(&lib).unwrap();
        // probability 1, period 1ms over 100ms => exactly 100 arrivals
        assert_eq!(wl.len(), 100);
        assert!(wl.entries.iter().all(|e| e.arrival < Duration::from_millis(100)));
        assert!((wl.injection_rate_per_ms().unwrap() - 1.0).abs() < 1e-9);
        // arrivals sorted
        for w in wl.entries.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn performance_mode_probability_scales_count() {
        let lib = library();
        let make = |p: f64| {
            WorkloadSpec::performance(
                vec![InjectionParams {
                    app: "radar".into(),
                    period: Duration::from_micros(100),
                    probability: p,
                }],
                Duration::from_millis(100),
                42,
            )
            .generate(&lib)
            .unwrap()
            .len()
        };
        let full = make(1.0);
        let half = make(0.5);
        assert_eq!(full, 1000);
        assert!((400..600).contains(&half), "got {half}");
    }

    #[test]
    fn performance_mode_is_seed_deterministic() {
        let lib = library();
        let spec = |seed| {
            WorkloadSpec::performance(
                vec![InjectionParams {
                    app: "wifi".into(),
                    period: Duration::from_micros(250),
                    probability: 0.7,
                }],
                Duration::from_millis(50),
                seed,
            )
        };
        let a = spec(9).generate(&lib).unwrap();
        let b = spec(9).generate(&lib).unwrap();
        let c = spec(10).generate(&lib).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn performance_mode_validates_params() {
        let lib = library();
        let bad_period = WorkloadSpec::performance(
            vec![InjectionParams { app: "radar".into(), period: Duration::ZERO, probability: 0.5 }],
            Duration::from_millis(10),
            0,
        );
        assert!(bad_period.generate(&lib).is_err());

        let bad_prob = WorkloadSpec::performance(
            vec![InjectionParams {
                app: "radar".into(),
                period: Duration::from_millis(1),
                probability: 1.5,
            }],
            Duration::from_millis(10),
            0,
        );
        assert!(bad_prob.generate(&lib).is_err());

        let no_frame = WorkloadSpec::performance(
            vec![InjectionParams {
                app: "radar".into(),
                period: Duration::from_millis(1),
                probability: 0.5,
            }],
            Duration::ZERO,
            0,
        );
        assert!(no_frame.generate(&lib).is_err());

        let empty = WorkloadSpec::performance(vec![], Duration::from_millis(10), 0);
        assert!(empty.generate(&lib).is_err());
    }

    #[test]
    fn instantiate_assigns_sequential_ids() {
        let lib = library();
        let wl =
            WorkloadSpec::validation([("radar", 2usize), ("wifi", 1usize)]).generate(&lib).unwrap();
        let instances = wl.instantiate(&lib).unwrap();
        assert_eq!(instances.len(), 3);
        let ids: Vec<u64> = instances.iter().map(|i| i.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn mixed_apps_interleave_by_arrival() {
        let lib = library();
        let wl = WorkloadSpec::performance(
            vec![
                InjectionParams {
                    app: "radar".into(),
                    period: Duration::from_millis(3),
                    probability: 1.0,
                },
                InjectionParams {
                    app: "wifi".into(),
                    period: Duration::from_millis(7),
                    probability: 1.0,
                },
            ],
            Duration::from_millis(21),
            0,
        )
        .generate(&lib)
        .unwrap();
        // radar at 0,3,6,9,12,15,18 (7), wifi at 0,7,14 (3)
        assert_eq!(wl.len(), 10);
        assert_eq!(wl.counts_by_app()["radar"], 7);
        assert_eq!(wl.counts_by_app()["wifi"], 3);
    }
}
