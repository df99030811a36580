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
//!
//! A [`Workload`] is what either mode generates: a table of the
//! applications that arrive, sorted by name, and the arrivals as
//! `(app index, arrival ns)` integer pairs in time order. In the paper
//! an arrival is just an application and an injection time, and an
//! instance adds only its own variables to the application's DAG; the
//! representation keeps exactly that, so a trace costs 16 bytes per
//! arrival and no string work. The table is sorted so that an index is
//! the application's canonical rank: two equal traces are equal values,
//! however they were built, and a scenario's fingerprint and cache key
//! encode them as integers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::app::{AppLibrary, ApplicationSpec};
use crate::error::ModelError;
use crate::hash::Canon;
use crate::instance::{AppInstance, InstanceId};

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
    ///
    /// Arrivals are ordered by time, ties in injection order. Each is an
    /// integer pair: nothing is allocated, hashed or compared per
    /// arrival.
    pub fn generate(&self, library: &AppLibrary) -> Result<Workload, ModelError> {
        match &self.mode {
            OperationMode::Validation { counts } => {
                let total = counts.values().fold(0usize, |n, &c| n.saturating_add(c));
                let mut arrivals = Vec::with_capacity(total.min(MAX_RESERVE));
                for (tag, (app, &count)) in counts.iter().enumerate() {
                    library.get(app)?; // existence check
                    let arrival = Arrival { app: tag as u32, at_ns: 0 };
                    arrivals.extend(std::iter::repeat_n(arrival, count));
                }
                if arrivals.is_empty() {
                    return Err(ModelError::BadWorkload("validation workload is empty".into()));
                }
                let tags: Vec<&str> = counts.keys().map(String::as_str).collect();
                Ok(Workload::tagged(&tags, arrivals, None))
            }
            OperationMode::Performance { injections, time_frame } => {
                if injections.is_empty() {
                    return Err(ModelError::BadWorkload("no injection parameters given".into()));
                }
                if time_frame.is_zero() {
                    return Err(ModelError::BadWorkload("time frame must be nonzero".into()));
                }
                let mut attempts = 0u128;
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
                    attempts = attempts
                        .saturating_add(time_frame.as_nanos().div_ceil(params.period.as_nanos()));
                }
                let mut rng = StdRng::seed_from_u64(self.seed);
                let reserve = usize::try_from(attempts).unwrap_or(usize::MAX).min(MAX_RESERVE);
                let mut arrivals = Vec::with_capacity(reserve);
                // Each injection's arrivals are one run in time order.
                let mut runs = Vec::with_capacity(injections.len() + 1);
                runs.push(0);
                let frame_ns = time_frame.as_nanos();
                for (tag, params) in injections.iter().enumerate() {
                    let mut at = 0u128;
                    while at < frame_ns {
                        // Every attempt is written and a declined one cut
                        // off again: the draw sets the length, no branch
                        // depends on it.
                        let keep = rng.gen::<f64>() < params.probability;
                        let at_ns = u64::try_from(at).unwrap_or(u64::MAX);
                        arrivals.push(Arrival { app: tag as u32, at_ns });
                        arrivals.truncate(arrivals.len() - usize::from(!keep));
                        at += params.period.as_nanos();
                    }
                    runs.push(arrivals.len());
                }
                let arrivals = merge_runs(arrivals, runs);
                let tags: Vec<&str> = injections.iter().map(|p| p.app.as_str()).collect();
                Ok(Workload::tagged(&tags, arrivals, Some(*time_frame)))
            }
        }
    }
}

/// Most arrivals [`WorkloadSpec::generate`] reserves room for up front;
/// a longer trace grows its vector as it goes.
const MAX_RESERVE: usize = 1 << 20;

/// Stable-sorts `arrivals` by time, given that the boundaries `runs`
/// (ascending, from 0 to the length) delimit runs already in time
/// order: adjacent runs merge pairwise, the earlier run first on ties,
/// so `k` runs cost `O(n log k)` and one scratch buffer.
fn merge_runs(arrivals: Vec<Arrival>, mut runs: Vec<usize>) -> Vec<Arrival> {
    let mut src = arrivals;
    let mut dst = Vec::new();
    while runs.len() > 2 {
        dst.clear();
        dst.reserve_exact(src.len());
        let (mut i, mut kept) = (0, 1);
        while i + 1 < runs.len() {
            let (lo, mid) = (runs[i], runs[i + 1]);
            let hi = runs.get(i + 2).copied().unwrap_or(mid);
            let (mut a, mut b) = (lo, mid);
            while a < mid && b < hi {
                let b_first = src[b].at_ns < src[a].at_ns;
                dst.push(if b_first { src[b] } else { src[a] });
                b += usize::from(b_first);
                a += usize::from(!b_first);
            }
            dst.extend_from_slice(&src[a..mid]);
            dst.extend_from_slice(&src[b..hi]);
            runs[kept] = hi;
            kept += 1;
            i += 2;
        }
        runs.truncate(kept);
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// An arrival time in nanoseconds, saturating like the engines' clock.
fn nanos(at: Duration) -> u64 {
    u64::try_from(at.as_nanos()).unwrap_or(u64::MAX)
}

/// One scheduled arrival: which application, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arrival {
    /// The application's index in [`Workload::apps`] — its rank by
    /// name among the workload's applications.
    pub app: u32,
    /// Arrival time in nanoseconds from the emulation reference start.
    pub at_ns: u64,
}

impl Arrival {
    /// The arrival time as a duration.
    pub fn at(self) -> Duration {
        Duration::from_nanos(self.at_ns)
    }
}

/// A generated arrival trace: an application table and the arrivals
/// that index into it, in nondecreasing time order.
///
/// The table holds each application that arrives, once, sorted by name,
/// so an arrival's index is already its application's canonical rank:
/// equal traces are equal values, and a fingerprint or cache key can
/// encode arrivals as `(index, ns)` integers without a name in sight.
/// Consumers resolve the table against a library once
/// ([`Self::resolve`]) and index into the result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workload {
    apps: Vec<String>,
    arrivals: Vec<Arrival>,
    time_frame: Option<Duration>,
}

impl Workload {
    /// A hand-built trace of `(app, arrival)` pairs, ordered by arrival
    /// time (ties keep their given order).
    pub fn new<S: AsRef<str>>(
        arrivals: impl IntoIterator<Item = (S, Duration)>,
        time_frame: Option<Duration>,
    ) -> Self {
        let given: Vec<(S, Duration)> = arrivals.into_iter().collect();
        let tags: Vec<&str> = given.iter().map(|(app, _)| app.as_ref()).collect();
        let mut arrivals: Vec<Arrival> = given
            .iter()
            .enumerate()
            .map(|(tag, &(_, at))| Arrival { app: tag as u32, at_ns: nanos(at) })
            .collect();
        arrivals.sort_unstable_by_key(|a| (a.at_ns, a.app));
        Workload::tagged(&tags, arrivals, time_frame)
    }

    /// The workload of `arrivals`, ordered by time, whose `app` fields
    /// hold indices into `tags`: builds the table of the tagged apps that
    /// arrive and rewrites each tag to its app's rank in it.
    fn tagged(tags: &[&str], mut arrivals: Vec<Arrival>, time_frame: Option<Duration>) -> Self {
        let mut arrived = vec![false; tags.len()];
        for a in &arrivals {
            arrived[a.app as usize] = true;
        }
        let mut apps: Vec<&str> =
            tags.iter().zip(&arrived).filter(|(_, &seen)| seen).map(|(&t, _)| t).collect();
        apps.sort_unstable();
        apps.dedup();
        let rank: Vec<u32> =
            tags.iter().map(|t| apps.binary_search(t).map_or(u32::MAX, |r| r as u32)).collect();
        for a in &mut arrivals {
            a.app = rank[a.app as usize];
        }
        Workload { apps: apps.into_iter().map(String::from).collect(), arrivals, time_frame }
    }

    /// The applications that arrive, each once, sorted by name.
    pub fn apps(&self) -> &[String] {
        &self.apps
    }

    /// The arrivals in nondecreasing time order; instance ids are
    /// positions in this slice.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// The application name of `arrival`.
    pub fn app_of(&self, arrival: Arrival) -> &str {
        &self.apps[arrival.app as usize]
    }

    /// The performance-mode time frame (`None` in validation mode).
    pub fn time_frame(&self) -> Option<Duration> {
        self.time_frame
    }

    /// Number of job arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True if the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Writes the trace's canonical encoding: its application table in
    /// order, each entry by `app`; each arrival's app index and its
    /// distance in nanoseconds from the previous one (wrapping), as
    /// varints; then the time frame.
    pub fn encode(&self, w: &mut Canon, mut app: impl FnMut(&mut Canon, &str)) {
        let Workload { apps, arrivals, time_frame } = self;
        w.list(apps, |w, name| app(w, name));
        let mut prev = 0u64;
        w.list(arrivals, |w, &Arrival { app, at_ns }| {
            w.uint(app as u64);
            w.uint(at_ns.wrapping_sub(prev));
            prev = at_ns;
        });
        w.opt(*time_frame, Canon::dur);
    }

    /// The application table resolved against `library`, in table order.
    pub fn resolve(&self, library: &AppLibrary) -> Result<Vec<Arc<ApplicationSpec>>, ModelError> {
        self.apps.iter().map(|name| library.get(name)).collect()
    }

    /// Arrivals per application, in table order.
    fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.apps.len()];
        for a in &self.arrivals {
            counts[a.app as usize] += 1;
        }
        counts
    }

    /// Instance counts per application (paper Table II).
    pub fn counts_by_app(&self) -> BTreeMap<String, usize> {
        self.apps.iter().cloned().zip(self.counts()).collect()
    }

    /// Average injection rate in jobs per millisecond over the time
    /// frame (performance mode) or over the arrival span (validation
    /// mode injects everything at t=0, giving `None`).
    pub fn injection_rate_per_ms(&self) -> Option<f64> {
        let span = self.time_frame?;
        if span.is_zero() {
            return None;
        }
        Some(self.arrivals.len() as f64 / (span.as_secs_f64() * 1e3))
    }

    /// Instantiates every arrival against the application library,
    /// producing the workload queue handed to the workload manager.
    /// Instance ids are assigned in arrival order.
    pub fn instantiate(&self, library: &AppLibrary) -> Result<Vec<AppInstance>, ModelError> {
        let specs = self.resolve(library)?;
        self.arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let spec = Arc::clone(&specs[a.app as usize]);
                AppInstance::instantiate(spec, InstanceId(i as u64), a.at())
            })
            .collect()
    }

    /// Total task count across all arrivals (needs the library to size
    /// each application).
    pub fn total_tasks(&self, library: &AppLibrary) -> Result<usize, ModelError> {
        let specs = self.resolve(library)?;
        Ok(specs.iter().zip(self.counts()).map(|(s, n)| s.task_count() * n).sum())
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
        assert!(wl.arrivals().iter().all(|a| a.at_ns == 0));
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
        assert!(wl.arrivals().iter().all(|a| a.at() < Duration::from_millis(100)));
        assert!((wl.injection_rate_per_ms().unwrap() - 1.0).abs() < 1e-9);
        // arrivals sorted
        for w in wl.arrivals().windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns);
        }
    }

    #[test]
    fn performance_mode_stops_where_the_clock_would_overflow() {
        let spec = WorkloadSpec::performance(
            vec![InjectionParams {
                app: "radar".into(),
                period: Duration::from_secs(u64::MAX / 2 + 1),
                probability: 1.0,
            }],
            Duration::MAX,
            1,
        );
        // Arrivals at 0 and one period; the next would overflow.
        assert_eq!(spec.generate(&library()).unwrap().len(), 2);
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

    /// Same-time arrivals keep their injection order, whatever the
    /// table (name) order of their apps.
    #[test]
    fn ties_keep_injection_order_and_indices_rank_by_name() {
        let lib = library();
        let inject = |app: &str| InjectionParams {
            app: app.into(),
            period: Duration::from_millis(1),
            probability: 1.0,
        };
        let wl = WorkloadSpec::performance(
            vec![inject("wifi"), inject("radar")],
            Duration::from_millis(2),
            0,
        )
        .generate(&lib)
        .unwrap();
        assert_eq!(wl.apps(), ["radar", "wifi"]);
        let order: Vec<(&str, u64)> =
            wl.arrivals().iter().map(|&a| (wl.app_of(a), a.at_ns)).collect();
        assert_eq!(order, [("wifi", 0), ("radar", 0), ("wifi", 1_000_000), ("radar", 1_000_000)]);
        let instances = wl.instantiate(&lib).unwrap();
        let names: Vec<&str> = instances.iter().map(|i| i.spec.name.as_str()).collect();
        assert_eq!(names, ["wifi", "radar", "wifi", "radar"], "instance ids follow the arrivals");
    }

    /// The table holds exactly the apps that arrive, so equal traces
    /// are equal values however they were built.
    #[test]
    fn the_table_holds_only_arriving_apps() {
        let lib = library();
        let wl = WorkloadSpec::performance(
            vec![
                InjectionParams {
                    app: "radar".into(),
                    period: Duration::from_millis(1),
                    probability: 0.0,
                },
                InjectionParams {
                    app: "wifi".into(),
                    period: Duration::from_millis(3),
                    probability: 1.0,
                },
            ],
            Duration::from_millis(7),
            5,
        )
        .generate(&lib)
        .unwrap();
        assert_eq!(wl.apps(), ["wifi"]);
        assert!(wl.arrivals().iter().all(|a| a.app == 0));
        let by_hand = Workload::new(
            [0, 3, 6].map(|ms| ("wifi", Duration::from_millis(ms))),
            Some(Duration::from_millis(7)),
        );
        assert_eq!(by_hand, wl);
        assert_eq!(wl.total_tasks(&lib).unwrap(), 3);

        let v = WorkloadSpec::validation([("radar", 0usize), ("wifi", 2)]).generate(&lib).unwrap();
        assert_eq!(v.apps(), ["wifi"]);
        assert_eq!(v.counts_by_app(), BTreeMap::from([("wifi".to_string(), 2)]));
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
