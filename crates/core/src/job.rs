//! The Scenario/Job layer: one immutable description of "what to run",
//! compiled once and shared everywhere.
//!
//! The paper's framework is invoked once per configuration, but the
//! ROADMAP's north star is an emulation-as-a-service runtime (the CEDR
//! direction) where jobs arrive dynamically: the same scenario tuple —
//! applications × platform × scheduler × seed (DS3's decomposition) —
//! shows up again and again across sweep cells, tenants, and autotuner
//! probes. This module makes that tuple a first-class value:
//!
//! * [`ScenarioSpec`] — the immutable scenario: `Arc`-shared app
//!   library, platform, workload, scheduler name, fault spec, and the
//!   timing/overhead/reservation knobs. Cloning is a handful of
//!   refcount bumps.
//! * [`ScenarioSpec::fingerprint`] — a stable structural hash
//!   (splitmix64 mixing, like the fault plan's RNG): equal for
//!   structurally equal specs regardless of `Arc` identity or build
//!   order, different under any field mutation.
//! * [`CompiledScenario`] — everything a run needs that does not change
//!   between runs, precompiled once: interned [`NameTable`], the dense
//!   `[node][PE]` dispatch-cost slabs ([`ScenarioSoa`]), the compiled
//!   [`FaultPlan`], the shared read-only instance images, and a
//!   slot-assigned [`EstimateBook`] prototype. Shared across runs *and
//!   threads* via `Arc`. Both engines' one-off `run` compiles one too.
//! * [`JobRunner`] — the front door: give it a compiled scenario and an
//!   [`Engine`], get a [`JobResult`] back. It keeps warm engine pools
//!   keyed by what engine construction actually depends on, and a
//!   bounded [`ResultCache`] keyed by fingerprint and confirmed by value
//!   so repeated deterministic runs are answered without running at all.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec, NodeSpec};
use dssoc_appmodel::instance::AppInstance;
use dssoc_appmodel::workload::Workload;
use dssoc_metrics::{CounterCell, MetricsRegistry};
use dssoc_platform::cost::{CostModel, CostTable, ScaledMeasuredCost};
use dssoc_platform::pe::{PeDescriptor, PeKind, PlatformConfig};
use dssoc_platform::presets::{odroid_xu3, zcu102};
use dssoc_trace::TraceSink;

use crate::des::{DesConfig, DesSimulator};
use crate::engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
use crate::exec::preflight_compat;
use crate::fault::{FaultPlan, FaultSpec};
use crate::intern::{Interner, NameTable};
use crate::sched::{by_name, EstimateBook, Scheduler};
use crate::soa::ScenarioSoa;
use crate::stats::EmulationStats;

// ---------------------------------------------------------------------------
// Cost specification
// ---------------------------------------------------------------------------

/// How task durations are derived — the *describable* counterpart of
/// [`CostModel`].
///
/// Both engine configs used to hold a bare `Arc<dyn CostModel>`, which
/// made them impossible to `Debug` and their runs impossible to
/// fingerprint. The two models every harness actually uses are data
/// ([`ScaledMeasuredCost`] wraps a [`CostTable`] of estimates;
/// [`CostTable`] *is* its entries), so the spec stores that data and
/// resolves it to a model on demand. [`CostSpec::Model`] remains as the
/// escape hatch for custom [`CostModel`] implementations; it is
/// fingerprinted by identity and never treated as deterministic.
#[derive(Clone)]
pub enum CostSpec {
    /// Scale host-measured kernel time by PE speed; the table feeds
    /// scheduler estimates only (the default — real execution, modeled
    /// platform).
    ScaledMeasured(Arc<CostTable>),
    /// Fully deterministic per-`(kernel, class)` durations (what the
    /// DES consumes and what differential tests pin both engines to).
    Table(Arc<CostTable>),
    /// An opaque user-supplied model. Fingerprinted by `Arc` identity,
    /// so two specs compare equal only when they share the same
    /// instance; never eligible for result caching.
    Model(Arc<dyn CostModel>),
}

impl CostSpec {
    /// The default scaled-measured spec with no estimates.
    pub fn scaled_measured() -> Self {
        CostSpec::ScaledMeasured(Arc::new(CostTable::new()))
    }

    /// A deterministic cost-table spec.
    pub fn table(table: CostTable) -> Self {
        CostSpec::Table(Arc::new(table))
    }

    /// Resolves the spec into the model the engines consume.
    pub fn resolve(&self) -> Arc<dyn CostModel> {
        match self {
            CostSpec::ScaledMeasured(t) => {
                Arc::new(ScaledMeasuredCost { estimates: (**t).clone() })
            }
            CostSpec::Table(t) => Arc::clone(t) as Arc<dyn CostModel>,
            CostSpec::Model(m) => Arc::clone(m),
        }
    }

    /// True when every duration this spec yields is a pure function of
    /// the scenario (no host measurement involved). Note this assumes
    /// the table covers every kernel the workload dispatches — a missing
    /// entry makes the threaded engine fall back to scaled measurement.
    pub fn is_deterministic(&self) -> bool {
        matches!(self, CostSpec::Table(_))
    }

    fn hash_into(&self, h: u64) -> u64 {
        match self {
            CostSpec::ScaledMeasured(t) => hash_cost_table(mix(h, 1), t),
            CostSpec::Table(t) => hash_cost_table(mix(h, 2), t),
            // Identity hash: stable within a process, which is all a
            // memo key needs — Model specs are never cached.
            CostSpec::Model(m) => mix(mix(h, 3), Arc::as_ptr(m) as *const () as u64),
        }
    }
}

impl Default for CostSpec {
    fn default() -> Self {
        CostSpec::scaled_measured()
    }
}

/// By value for the table-backed specs; a custom model equals only
/// itself.
impl PartialEq for CostSpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CostSpec::ScaledMeasured(a), CostSpec::ScaledMeasured(b))
            | (CostSpec::Table(a), CostSpec::Table(b)) => a == b,
            (CostSpec::Model(a), CostSpec::Model(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for CostSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostSpec::ScaledMeasured(t) => {
                write!(f, "ScaledMeasured({} estimate(s))", t.len())
            }
            CostSpec::Table(t) => write!(f, "Table({} entry(s))", t.len()),
            CostSpec::Model(_) => f.write_str("Model(<custom>)"),
        }
    }
}

// ---------------------------------------------------------------------------
// Platform presets by name
// ---------------------------------------------------------------------------

/// Parses a platform-preset shorthand — `zcu102:<cores>C+<ffts>F` or
/// `odroid:<big>B+<little>L` — into a validated [`PlatformConfig`].
///
/// This is the single source of truth for preset resolution: the CLI's
/// `--platform` flag and the figure harnesses both route through it
/// (they used to duplicate the bounds checks and error strings).
pub fn platform_preset(spec: &str) -> Result<PlatformConfig, String> {
    let (board, shape) = spec
        .split_once(':')
        .ok_or_else(|| format!("platform '{spec}' must look like zcu102:2C+1F or odroid:3B+2L"))?;
    let shape_up = shape.to_ascii_uppercase();
    let parse_pair = |a_tag: char, b_tag: char| -> Result<(usize, usize), String> {
        let (a, b) = shape_up
            .split_once('+')
            .ok_or_else(|| format!("shape '{shape}' must look like 2{a_tag}+1{b_tag}"))?;
        let a_n = a
            .strip_suffix(a_tag)
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| format!("bad count '{a}' (expected e.g. 2{a_tag})"))?;
        let b_n = b
            .strip_suffix(b_tag)
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| format!("bad count '{b}' (expected e.g. 1{b_tag})"))?;
        Ok((a_n, b_n))
    };
    match board.to_ascii_lowercase().as_str() {
        "zcu102" => {
            let (c, f) = parse_pair('C', 'F')?;
            if c > 3 {
                return Err("zcu102 supports at most 3 resource-pool cores".into());
            }
            if c + f == 0 {
                return Err("platform needs at least one PE".into());
            }
            Ok(zcu102(c, f))
        }
        "odroid" => {
            let (b, l) = parse_pair('B', 'L')?;
            if b > 4 || l > 3 {
                return Err("odroid supports at most 4 big and 3 LITTLE pool cores".into());
            }
            if b + l == 0 {
                return Err("platform needs at least one PE".into());
            }
            Ok(odroid_xu3(b, l))
        }
        other => Err(format!("unknown board '{other}' (use zcu102 or odroid)")),
    }
}

// ---------------------------------------------------------------------------
// Structural fingerprint
// ---------------------------------------------------------------------------

/// The stable content fingerprint of a [`ScenarioSpec`] (see
/// [`ScenarioSpec::fingerprint`]). Displays as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Fingerprint {
    /// Parses the 16-hex-digit form [`Display`](std::fmt::Display)
    /// produces — the round-trip for fingerprints quoted in API
    /// responses and logs.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

// The same splitmix64 finalizer the fault plan's counter RNG uses: a
// strong, dependency-free 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds one word into the running hash.
fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn mix_str(h: u64, s: &str) -> u64 {
    mix(mix(h, s.len() as u64), fnv1a(s.as_bytes()))
}

fn mix_f64(h: u64, x: f64) -> u64 {
    mix(h, x.to_bits())
}

fn mix_dur(h: u64, d: Duration) -> u64 {
    mix(h, d.as_nanos() as u64)
}

fn mix_opt_dur(h: u64, d: Option<Duration>) -> u64 {
    match d {
        Some(d) => mix_dur(mix(h, 1), d),
        None => mix(h, 0),
    }
}

fn hash_cost_table(mut h: u64, t: &CostTable) -> u64 {
    // BTreeMaps iterate in key order, so the walk is canonical.
    h = mix(h, t.entries.len() as u64);
    for (kernel, classes) in &t.entries {
        h = mix_str(h, kernel);
        h = mix(h, classes.len() as u64);
        for (class, d) in classes {
            h = mix_dur(mix_str(h, class), *d);
        }
    }
    h
}

fn hash_platform(mut h: u64, p: &PlatformConfig) -> u64 {
    h = mix_str(h, &p.name);
    h = mix(h, p.host_slots as u64);
    h = mix_f64(mix_str(h, &p.overlay.name), p.overlay.speed);
    h = mix_dur(h, p.contention.context_switch);
    h = mix(h, p.pes.len() as u64);
    for pe in &p.pes {
        h = mix(h, pe.id.0 as u64);
        h = mix_str(h, &pe.name);
        h = mix_str(h, &pe.platform_key);
        match &pe.kind {
            PeKind::Cpu(c) => {
                h = mix_f64(mix_str(mix(h, 1), &c.class), c.speed);
            }
            PeKind::Accel(a) => {
                h = mix_str(mix(h, 2), &a.kind);
                h = mix_f64(mix_dur(h, a.dma.setup), a.dma.bytes_per_sec);
                h = mix_f64(h, a.throughput_msps);
                h = mix_dur(h, a.pipeline_latency);
                h = mix(h, a.max_points as u64);
            }
        }
    }
    h
}

fn hash_app(mut h: u64, spec: &ApplicationSpec) -> u64 {
    h = mix_str(h, &spec.name);
    h = mix(h, spec.variables.len() as u64);
    for (name, v) in spec.variables.iter() {
        h = mix_str(h, name);
        h = mix(h, v.bytes as u64);
        h = mix(h, v.is_ptr as u64);
        h = mix(h, v.ptr_alloc_bytes as u64);
        h = mix(mix(h, v.val.len() as u64), fnv1a(&v.val));
    }
    h = mix(h, spec.nodes.len() as u64);
    for node in &spec.nodes {
        h = mix_str(h, &node.name);
        h = mix(h, node.index as u64);
        for arg in &node.arguments {
            h = mix_str(h, arg);
        }
        for &p in &node.predecessors {
            h = mix(h, p as u64);
        }
        for &s in &node.successors {
            h = mix(h, s as u64);
        }
        h = mix(h, node.platforms.len() as u64);
        for p in &node.platforms {
            h = mix_str(h, &p.key);
            h = mix_str(h, &p.runfunc);
            h = mix_str(h, &p.shared_object);
            h = mix_opt_dur(h, p.mean_exec);
        }
    }
    h
}

fn hash_faults(mut h: u64, f: &FaultSpec) -> u64 {
    h = mix(h, f.seed);
    h = mix(h, f.permanent.len() as u64);
    for p in &f.permanent {
        h = mix_f64(mix(h, p.pe as u64), p.at_us);
    }
    for rules in [&f.transient, &f.hangs] {
        h = mix(h, rules.len() as u64);
        for r in rules {
            h = match &r.kernel {
                Some(k) => mix_str(mix(h, 1), k),
                None => mix(h, 0),
            };
            h = match r.pe {
                Some(pe) => mix(mix(h, 1), pe as u64),
                None => mix(h, 0),
            };
            h = mix_f64(h, r.probability);
        }
    }
    h = mix(h, f.retry.max_retries as u64);
    h = mix_f64(h, f.retry.backoff_us);
    h = mix(h, f.retry.quarantine_after as u64);
    h = mix_f64(h, f.watchdog_factor);
    mix_f64(h, f.watchdog_min_wall_ms)
}

// ---------------------------------------------------------------------------
// ScenarioSpec
// ---------------------------------------------------------------------------

/// The immutable description of one emulation scenario.
///
/// Every field that can be shared is behind an `Arc`, so cloning a spec
/// — or deriving a sweep cell from it — never deep-copies app or
/// platform models. Build one with [`ScenarioSpec::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Application library the workload draws from.
    pub library: Arc<AppLibrary>,
    /// Platform to emulate.
    pub platform: Arc<PlatformConfig>,
    /// Library scheduler name (resolved via [`by_name`]).
    pub scheduler: String,
    /// The workload (arrival schedule).
    pub workload: Arc<Workload>,
    /// Timing mode.
    pub timing: TimingMode,
    /// Overhead charging mode. The DES engine charges
    /// [`OverheadMode::Fixed`] per scheduler invocation and treats the
    /// other modes as free scheduling.
    pub overhead: OverheadMode,
    /// Cost specification (see [`CostSpec`]).
    pub cost: CostSpec,
    /// PE-level reservation-queue depth (threaded engine only).
    pub reservation_depth: usize,
    /// Optional deterministic fault-injection spec; its `seed` is the
    /// scenario's seed.
    pub faults: Option<Arc<FaultSpec>>,
}

impl ScenarioSpec {
    /// Starts building a scenario.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// The stable structural fingerprint of this scenario.
    ///
    /// Two specs fingerprint equal iff they describe the same scenario
    /// *by value*: the hash walks field contents in a fixed canonical
    /// order (apps sorted by name, table entries in key order), so it
    /// is independent of `Arc` identity, of how the spec was built, and
    /// of registration order in the library. Only workload-referenced
    /// applications contribute — registering unrelated apps does not
    /// disturb the fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = 0x5ce0_a9d1_57ab_1e00u64;
        h = hash_platform(mix(h, 1), &self.platform);
        // Referenced apps, by sorted name (a BTreeSet dedups + orders).
        let apps: BTreeSet<&str> =
            self.workload.entries.iter().map(|e| e.app_name.as_str()).collect();
        h = mix(h, apps.len() as u64);
        for name in apps {
            h = mix_str(h, name);
            if let Ok(spec) = self.library.get(name) {
                h = hash_app(h, &spec);
            }
        }
        h = mix(h, self.workload.entries.len() as u64);
        for e in &self.workload.entries {
            h = mix_dur(mix_str(h, &e.app_name), e.arrival);
        }
        h = mix_opt_dur(h, self.workload.time_frame);
        // Scheduler resolution is case-insensitive, so "FRFS" and
        // "frfs" are the same scenario.
        h = mix_str(h, &self.scheduler.to_ascii_lowercase());
        h = mix(h, matches!(self.timing, TimingMode::Modeled) as u64);
        h = match self.overhead {
            OverheadMode::Measured => mix(h, 1),
            OverheadMode::Fixed(d) => mix_dur(mix(h, 2), d),
            OverheadMode::None => mix(h, 3),
        };
        h = self.cost.hash_into(h);
        h = mix(h, self.reservation_depth as u64);
        h = match &self.faults {
            Some(f) => hash_faults(mix(h, 1), f),
            None => mix(h, 0),
        };
        Fingerprint(h)
    }

    /// True when a run of this scenario on `engine` with its named
    /// library scheduler is a pure function of the spec — the gate for
    /// result caching. The DES always is; the threaded engine is
    /// deterministic in [`TimingMode::Modeled`] with non-measured
    /// overhead and a [`CostSpec::Table`] cost (the differential-test
    /// configuration).
    pub fn deterministic(&self, engine: Engine) -> bool {
        match engine {
            Engine::Des => true,
            Engine::Threaded => {
                self.timing == TimingMode::Modeled
                    && !matches!(self.overhead, OverheadMode::Measured)
                    && self.cost.is_deterministic()
            }
        }
    }

    /// The sub-fingerprint of everything engine *construction* depends
    /// on (platform, timing, overhead, cost, reservation depth — not
    /// the workload or scheduler). [`JobRunner`] keys its warm engine
    /// pools on this, so scenarios differing only in workload or policy
    /// share one resource pool.
    fn engine_key(&self) -> u64 {
        let mut h = 0x0e9c_55b7_21d3_a400u64;
        h = hash_platform(h, &self.platform);
        h = mix(h, matches!(self.timing, TimingMode::Modeled) as u64);
        h = match self.overhead {
            OverheadMode::Measured => mix(h, 1),
            OverheadMode::Fixed(d) => mix_dur(mix(h, 2), d),
            OverheadMode::None => mix(h, 3),
        };
        h = self.cost.hash_into(h);
        mix(h, self.reservation_depth as u64)
    }
}

/// Builder for [`ScenarioSpec`] — the one place platform presets and
/// scheduler names are resolved and validated.
#[derive(Default)]
pub struct ScenarioBuilder {
    library: Option<Arc<AppLibrary>>,
    platform: Option<Arc<PlatformConfig>>,
    platform_name: Option<String>,
    scheduler: Option<String>,
    workload: Option<Arc<Workload>>,
    timing: Option<TimingMode>,
    overhead: Option<OverheadMode>,
    cost: Option<CostSpec>,
    reservation_depth: usize,
    faults: Option<Arc<FaultSpec>>,
}

impl ScenarioBuilder {
    /// Sets the application library (required).
    pub fn library(mut self, library: impl Into<Arc<AppLibrary>>) -> Self {
        self.library = Some(library.into());
        self
    }

    /// Sets the platform from a config (overrides
    /// [`Self::platform_named`]).
    pub fn platform(mut self, platform: impl Into<Arc<PlatformConfig>>) -> Self {
        self.platform = Some(platform.into());
        self
    }

    /// Sets the platform from a preset shorthand like `zcu102:2C+1F`
    /// (resolved at [`Self::build`] via [`platform_preset`]).
    pub fn platform_named(mut self, spec: impl Into<String>) -> Self {
        self.platform_name = Some(spec.into());
        self
    }

    /// Sets the scheduler name (default `"frfs"`).
    pub fn scheduler(mut self, name: impl Into<String>) -> Self {
        self.scheduler = Some(name.into());
        self
    }

    /// Sets the workload (required).
    pub fn workload(mut self, workload: impl Into<Arc<Workload>>) -> Self {
        self.workload = Some(workload.into());
        self
    }

    /// Sets the timing mode (default [`TimingMode::Modeled`]).
    pub fn timing(mut self, timing: TimingMode) -> Self {
        self.timing = Some(timing);
        self
    }

    /// Sets the overhead mode (default [`OverheadMode::Measured`]).
    pub fn overhead(mut self, overhead: OverheadMode) -> Self {
        self.overhead = Some(overhead);
        self
    }

    /// Sets the cost specification (default scaled-measured).
    pub fn cost(mut self, cost: CostSpec) -> Self {
        self.cost = Some(cost);
        self
    }

    /// Sets the reservation-queue depth (default 0).
    pub fn reservation_depth(mut self, depth: usize) -> Self {
        self.reservation_depth = depth;
        self
    }

    /// Attaches a fault-injection spec.
    pub fn faults(mut self, faults: Arc<FaultSpec>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Validates and assembles the spec. One error path covers the
    /// platform (preset bounds or config validation) and the scheduler
    /// name.
    pub fn build(self) -> Result<ScenarioSpec, EmuError> {
        let library =
            self.library.ok_or_else(|| EmuError::Config("scenario needs a library".into()))?;
        let workload =
            self.workload.ok_or_else(|| EmuError::Config("scenario needs a workload".into()))?;
        let platform = match (self.platform, self.platform_name) {
            (Some(p), _) => p,
            (None, Some(name)) => Arc::new(platform_preset(&name).map_err(EmuError::Config)?),
            (None, None) => {
                return Err(EmuError::Config("scenario needs a platform".into()));
            }
        };
        platform.validate().map_err(EmuError::Config)?;
        let scheduler = self.scheduler.unwrap_or_else(|| "frfs".to_string());
        if by_name(&scheduler).is_none() {
            return Err(EmuError::Config(format!("unknown scheduler '{scheduler}'")));
        }
        Ok(ScenarioSpec {
            library,
            platform,
            scheduler,
            workload,
            timing: self.timing.unwrap_or(TimingMode::Modeled),
            overhead: self.overhead.unwrap_or(OverheadMode::Measured),
            cost: self.cost.unwrap_or_default(),
            reservation_depth: self.reservation_depth,
            faults: self.faults,
        })
    }
}

// ---------------------------------------------------------------------------
// CompiledScenario
// ---------------------------------------------------------------------------

/// Duration charged for `node` on `pe`: cost model first, then the JSON
/// per-platform estimate, then a speed-scaled default — the same
/// priority the estimate book uses. Deterministic because the cost
/// model is always queried with a zero measured time.
pub(crate) fn dispatch_duration(
    cost: &dyn CostModel,
    node: &NodeSpec,
    pe: &PeDescriptor,
) -> Duration {
    let platform = node.platform(&pe.platform_key).expect("compat checked");
    if let Some(d) = cost.task_duration(&platform.runfunc, pe, Duration::ZERO) {
        return d;
    }
    if let Some(d) = platform.mean_exec {
        return d;
    }
    Duration::from_secs_f64(100e-6 / pe.speed())
}

/// Which engine executes a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The threaded emulation engine ([`Emulation`]): real kernels on
    /// real threads.
    Threaded,
    /// The discrete-event baseline ([`DesSimulator`]): pure virtual
    /// time, nothing executes.
    Des,
}

impl Engine {
    /// The wire name (`"threaded"` / `"des"`) used by the CLI's
    /// `--engine` flag and the serve API's `"engine"` field.
    pub fn as_str(&self) -> &'static str {
        match self {
            Engine::Threaded => "threaded",
            Engine::Des => "des",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threaded" => Ok(Engine::Threaded),
            "des" => Ok(Engine::Des),
            other => Err(format!("unknown engine '{other}' (use threaded or des)")),
        }
    }
}

/// A [`ScenarioSpec`] with everything a run reads but never changes
/// precompiled once: compatibility preflight, shared instance images,
/// interned name table, SoA dispatch-cost slabs, slot-assigned estimate
/// book, and the compiled fault plan. Compile once, run many — across
/// iterations, sweep workers, and engines.
pub struct CompiledScenario {
    pub(crate) spec: ScenarioSpec,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) engine_key: u64,
    /// The compiled fault plan, if the spec injects faults.
    pub(crate) plan: Option<Arc<FaultPlan>>,
    /// Read-only shared instance images ([`Workload::instantiate_shared`]).
    /// The DES runs directly on these; the threaded engine instantiates
    /// fresh private-memory instances per run (kernels write), but the
    /// ids and spec mapping are identical by construction, so the name
    /// table below serves both.
    pub(crate) instances: Vec<Arc<AppInstance>>,
    pub(crate) names: Arc<NameTable>,
    /// Dispatch costs and DAG topology as struct-of-arrays slabs — what
    /// the DES hot loop indexes (see [`ScenarioSoa`]).
    pub(crate) soa: Arc<ScenarioSoa>,
    /// Slot-assigned estimate-book prototype: slots match the slabs'
    /// estimate slots but carry no observations yet. Each DES run
    /// resets its book from it; the threaded engine keeps its own book
    /// (slot layout does not affect estimates).
    pub(crate) estimates: EstimateBook,
    /// True when built by [`Self::compile_custom`]: the scheduler name
    /// is a label for a user-supplied policy, so results are never
    /// cached (the fingerprint cannot capture the policy's behaviour).
    pub(crate) custom: bool,
}

impl std::fmt::Debug for CompiledScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledScenario")
            .field("fingerprint", &self.fingerprint.to_string())
            .field("platform", &self.spec.platform.name)
            .field("scheduler", &self.spec.scheduler)
            .field("instances", &self.instances.len())
            .field("custom", &self.custom)
            .finish()
    }
}

impl CompiledScenario {
    /// Compiles a spec, validating the platform, the scheduler name,
    /// and workload/platform compatibility.
    pub fn compile(spec: ScenarioSpec) -> Result<Arc<Self>, EmuError> {
        let fingerprint = spec.fingerprint();
        Self::compile_fingerprinted(spec, fingerprint)
    }

    /// [`Self::compile`] with the spec's fingerprint already computed
    /// (by a caller that looked the spec up in a [`ResultCache`] first),
    /// so a miss does not walk the spec twice. A wrong fingerprint can
    /// only cost cache misses: hits are confirmed by value.
    pub fn compile_fingerprinted(
        spec: ScenarioSpec,
        fingerprint: Fingerprint,
    ) -> Result<Arc<Self>, EmuError> {
        if by_name(&spec.scheduler).is_none() {
            return Err(EmuError::Config(format!("unknown scheduler '{}'", spec.scheduler)));
        }
        Self::build(spec, fingerprint, false)
    }

    /// Compiles a spec whose scheduler name labels a *custom* policy
    /// supplied at run time (see [`JobRunner::run_with`]). Skips the
    /// library-name check; results of custom scenarios are never
    /// cached.
    pub fn compile_custom(spec: ScenarioSpec) -> Result<Arc<Self>, EmuError> {
        let fingerprint = spec.fingerprint();
        Self::build(spec, fingerprint, true)
    }

    fn build(
        spec: ScenarioSpec,
        fingerprint: Fingerprint,
        custom: bool,
    ) -> Result<Arc<Self>, EmuError> {
        spec.platform.validate().map_err(EmuError::Config)?;
        preflight_compat(&spec.platform, &spec.workload, &spec.library)?;
        let instances: Vec<Arc<AppInstance>> =
            spec.workload.instantiate_shared(&spec.library)?.into_iter().map(Arc::new).collect();
        let mut interner = Interner::new();
        let names = NameTable::build(&instances, &spec.platform, &mut interner);
        let mut estimates = EstimateBook::new();
        let soa = ScenarioSoa::build(
            &instances,
            &names,
            &spec.platform,
            &*spec.cost.resolve(),
            &mut estimates,
        );
        let plan = match &spec.faults {
            Some(f) => Some(Arc::new(f.compile(&spec.platform).map_err(EmuError::Config)?)),
            None => None,
        };
        let engine_key = spec.engine_key();
        Ok(Arc::new(CompiledScenario {
            spec,
            fingerprint,
            engine_key,
            plan,
            instances,
            names: Arc::new(names),
            soa: Arc::new(soa),
            estimates,
            custom,
        }))
    }

    /// The spec this scenario was compiled from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The structural fingerprint (cached at compile time).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The compiled fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_deref()
    }

    /// The precompiled name table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The shared read-only instances.
    pub fn instances(&self) -> &[Arc<AppInstance>] {
        &self.instances
    }

    /// The dispatch costs and DAG topology in the struct-of-arrays form
    /// the DES hot loop indexes.
    pub fn soa(&self) -> &ScenarioSoa {
        &self.soa
    }

    /// Borrow of the slot-assigned estimate-book prototype (no clone) —
    /// warm engines reset their own book from it.
    pub fn estimates_ref(&self) -> &EstimateBook {
        &self.estimates
    }

    /// [`ScenarioSpec::deterministic`], except that custom-policy
    /// scenarios never are (the spec cannot see the policy).
    pub fn deterministic(&self, engine: Engine) -> bool {
        !self.custom && self.spec.deterministic(engine)
    }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

/// What a cached result is confirmed against on a hit: everything
/// [`ScenarioSpec::fingerprint`] reads, by value, in a compact form.
///
/// Shared parts stay behind their `Arc`s; applications compare by
/// identity first, so a lookup from the cached spec's library mostly
/// compares pointers. The workload, which dominates a spec's size, is
/// packed into varints instead of kept: an entry must not pin its
/// scenario's generated arrivals.
#[derive(PartialEq)]
struct ScenarioKey {
    /// The referenced applications, in order of first arrival.
    apps: Vec<KeyApp>,
    /// Per arrival, the index of its app in `apps` and its distance in
    /// nanoseconds from the previous arrival (wrapping), as LEB128
    /// varints.
    arrivals: Vec<u8>,
    time_frame: Option<Duration>,
    platform: Arc<PlatformConfig>,
    /// Lowercased, as scheduler names resolve case-insensitively.
    scheduler: String,
    timing: TimingMode,
    overhead: OverheadMode,
    cost: CostSpec,
    reservation_depth: usize,
    faults: Option<Arc<FaultSpec>>,
}

/// An application in a [`ScenarioKey`]: equal to itself, or by value
/// over what [`hash_app`] reads of it.
struct KeyApp(Arc<ApplicationSpec>);

impl PartialEq for KeyApp {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        let same_node = |x: &NodeSpec, y: &NodeSpec| {
            x.name == y.name
                && x.index == y.index
                && x.arguments == y.arguments
                && x.predecessors == y.predecessors
                && x.successors == y.successors
                && x.platforms.len() == y.platforms.len()
                && x.platforms.iter().zip(&y.platforms).all(|(p, q)| {
                    p.key == q.key
                        && p.runfunc == q.runfunc
                        && p.shared_object == q.shared_object
                        && p.mean_exec == q.mean_exec
                })
        };
        Arc::ptr_eq(&self.0, &other.0)
            || (a.name == b.name
                && a.variables == b.variables
                && a.nodes.len() == b.nodes.len()
                && a.nodes.iter().zip(&b.nodes).all(|(x, y)| same_node(x, y)))
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

impl ScenarioKey {
    /// The key of `spec`; `None` when its workload names an application
    /// the library lacks (such a spec never compiles, so it is never
    /// cached).
    fn of(spec: &ScenarioSpec) -> Option<ScenarioKey> {
        let mut apps: Vec<KeyApp> = Vec::new();
        let mut arrivals = Vec::with_capacity(2 * spec.workload.entries.len());
        let mut prev = 0u64;
        for e in &spec.workload.entries {
            let app = match apps.iter().position(|a| a.0.name == e.app_name) {
                Some(i) => i,
                None => {
                    apps.push(KeyApp(spec.library.get(&e.app_name).ok()?));
                    apps.len() - 1
                }
            };
            let at = e.arrival.as_nanos() as u64;
            put_varint(&mut arrivals, app as u64);
            put_varint(&mut arrivals, at.wrapping_sub(prev));
            prev = at;
        }
        Some(ScenarioKey {
            apps,
            arrivals,
            time_frame: spec.workload.time_frame,
            platform: Arc::clone(&spec.platform),
            scheduler: spec.scheduler.to_ascii_lowercase(),
            timing: spec.timing,
            overhead: spec.overhead,
            cost: spec.cost.clone(),
            reservation_depth: spec.reservation_depth,
            faults: spec.faults.clone(),
        })
    }
}

/// A bounded, thread-safe result cache keyed on `(fingerprint,
/// engine)`.
///
/// Deterministic scenario runs are pure functions of their spec, so the
/// stats of a previous run answer a repeat exactly. The fingerprint only
/// finds the slot: [`Self::lookup`] confirms a hit against the
/// [`ScenarioSpec`] by value, so two scenarios whose 64-bit fingerprints
/// collide cost a miss, never a wrong answer. Results are held as
/// `Arc<EmulationStats>`: under the lock a lookup only bumps refcounts,
/// and a caller that needs its own copy clones outside it. Sweep workers
/// share one cache by cloning the handle; hit/miss totals are published
/// through `dssoc-metrics` as `dssoc_result_cache_hits` /
/// `dssoc_result_cache_misses` once [`Self::attach_metrics`] is called.
#[derive(Clone)]
pub struct ResultCache {
    inner: Arc<Mutex<CacheInner>>,
}

/// One cached result and the key of the scenario that produced it
/// (`None` when stored by [`ResultCache::insert`]).
struct CacheEntry {
    stats: Arc<EmulationStats>,
    key: Option<Arc<ScenarioKey>>,
}

struct CacheInner {
    capacity: usize,
    map: HashMap<(Fingerprint, Engine), CacheEntry>,
    /// Insertion order, for bounded eviction.
    order: VecDeque<(Fingerprint, Engine)>,
    hits: u64,
    misses: u64,
    hit_cell: Option<CounterCell>,
    miss_cell: Option<CounterCell>,
}

impl CacheInner {
    fn count(&mut self, hit: bool) {
        let (total, cell) = if hit {
            (&mut self.hits, &self.hit_cell)
        } else {
            (&mut self.misses, &self.miss_cell)
        };
        *total += 1;
        if let Some(cell) = cell {
            cell.inc();
        }
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` results (at least 1).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Arc::new(Mutex::new(CacheInner {
                capacity: capacity.max(1),
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
                hit_cell: None,
                miss_cell: None,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("result cache")
    }

    /// Publishes hit/miss counters into `registry` (counter families
    /// `dssoc_result_cache_hits` and `dssoc_result_cache_misses`).
    /// Totals accumulated before attaching are carried over.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let mut inner = self.lock();
        let hit = registry.counter("dssoc_result_cache_hits", &[]).cell();
        let miss = registry.counter("dssoc_result_cache_misses", &[]).cell();
        hit.add(inner.hits);
        miss.add(inner.misses);
        inner.hit_cell = Some(hit);
        inner.miss_cell = Some(miss);
    }

    /// The cached result of `spec` on `engine`, confirmed by value.
    /// `fingerprint` is `spec`'s, which the caller already holds; the
    /// key is only built when its slot is occupied. Counts nothing: the
    /// caller records the outcome with [`Self::count`] once it knows
    /// whether the job is served.
    pub fn lookup(
        &self,
        spec: &ScenarioSpec,
        fingerprint: Fingerprint,
        engine: Engine,
    ) -> Option<Arc<EmulationStats>> {
        let (stats, key) = {
            let inner = self.lock();
            let entry = inner.map.get(&(fingerprint, engine))?;
            (Arc::clone(&entry.stats), Arc::clone(entry.key.as_ref()?))
        };
        (ScenarioKey::of(spec)? == *key).then_some(stats)
    }

    /// Counts one lookup of a served job as a hit or a miss.
    pub fn count(&self, hit: bool) {
        self.lock().count(hit);
    }

    /// Stores `spec`'s result on `engine` under `fingerprint` (`spec`'s)
    /// with its by-value key, evicting the oldest entry when full.
    pub fn store(
        &self,
        spec: &ScenarioSpec,
        fingerprint: Fingerprint,
        engine: Engine,
        stats: Arc<EmulationStats>,
    ) {
        if let Some(key) = ScenarioKey::of(spec) {
            self.put(fingerprint, engine, CacheEntry { stats, key: Some(Arc::new(key)) });
        }
    }

    /// Looks up a result stored by [`Self::insert`] under `fingerprint`
    /// alone, counting a hit or a miss. Results stored by value
    /// ([`Self::store`]) never answer it.
    pub fn get(&self, fingerprint: Fingerprint, engine: Engine) -> Option<EmulationStats> {
        let stats = {
            let mut inner = self.lock();
            let stats = inner
                .map
                .get(&(fingerprint, engine))
                .filter(|e| e.key.is_none())
                .map(|e| Arc::clone(&e.stats));
            inner.count(stats.is_some());
            stats
        };
        stats.map(|s| (*s).clone())
    }

    /// Stores a result under `fingerprint` alone, for [`Self::get`],
    /// evicting the oldest entry when full.
    pub fn insert(&self, fingerprint: Fingerprint, engine: Engine, stats: EmulationStats) {
        self.put(fingerprint, engine, CacheEntry { stats: Arc::new(stats), key: None });
    }

    fn put(&self, fingerprint: Fingerprint, engine: Engine, entry: CacheEntry) {
        let slot = (fingerprint, engine);
        // Returned from the locked block, so the last reference to a
        // displaced result is freed outside the lock.
        let _displaced = {
            let mut inner = self.lock();
            match inner.map.insert(slot, entry) {
                Some(old) => Some(old),
                None => {
                    inner.order.push_back(slot);
                    let full = inner.order.len() > inner.capacity;
                    let oldest = if full { inner.order.pop_front() } else { None };
                    oldest.and_then(|old| inner.map.remove(&old))
                }
            }
        };
    }

    /// Total lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Total lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::new(128)
    }
}

// ---------------------------------------------------------------------------
// JobRunner
// ---------------------------------------------------------------------------

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The run's statistics (a cache-returned clone on a hit).
    pub stats: EmulationStats,
    /// The scenario fingerprint the result is keyed under.
    pub fingerprint: Fingerprint,
    /// The engine that produced (or would have produced) the result.
    pub engine: Engine,
    /// True when the result came from the [`ResultCache`] without
    /// running.
    pub cached: bool,
}

/// The job-execution front door: runs [`CompiledScenario`]s on either
/// engine, reusing warm engine instances and consulting a bounded
/// [`ResultCache`].
///
/// Engines are keyed by what their construction actually depends on
/// (platform + timing + overhead + cost + reservation depth), so
/// scenarios differing only in workload, scheduler, or faults share one
/// resource pool — the compiled fault plan travels with the scenario,
/// not the engine.
pub struct JobRunner {
    pub(crate) emus: HashMap<u64, Emulation>,
    pub(crate) sims: HashMap<u64, DesSimulator>,
    cache: ResultCache,
    /// Persistent trace sink applied to every run (disables caching
    /// while set). Per-run tracing goes through [`Self::run_traced`].
    trace: Option<TraceSink>,
    metrics: Option<MetricsRegistry>,
    /// Cooperative-cancel flag passed to every DES run. A run argument,
    /// not engine state, so it never outlives the run on a warm engine.
    cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Correlation span id of the enclosing job (a flight-recorder
    /// span); stamped into the trace metadata of traced runs so the
    /// engine trace can be stitched into the job timeline.
    span: Option<u64>,
}

impl JobRunner {
    /// A runner with a default-capacity cache.
    pub fn new() -> Self {
        Self::with_cache(ResultCache::default())
    }

    /// A runner sharing an existing cache handle (how parallel sweep
    /// workers pool their results).
    pub fn with_cache(cache: ResultCache) -> Self {
        JobRunner {
            emus: HashMap::new(),
            sims: HashMap::new(),
            cache,
            trace: None,
            metrics: None,
            cancel: None,
            span: None,
        }
    }

    /// The runner's cache handle.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Replaces the cache handle.
    pub fn set_cache(&mut self, cache: ResultCache) {
        self.cache = cache;
    }

    /// Installs (or removes) a metrics registry on subsequently built
    /// engines. Warm engines are dropped so every engine publishes into
    /// the same registry.
    pub fn set_metrics(&mut self, metrics: Option<MetricsRegistry>) {
        self.metrics = metrics;
        self.emus.clear();
        self.sims.clear();
    }

    /// Installs (or removes) a persistent trace sink recording *every*
    /// run. While set, results are neither served from nor inserted
    /// into the cache. Warm engines are dropped.
    pub fn set_trace(&mut self, trace: Option<TraceSink>) {
        self.trace = trace;
        self.emus.clear();
        self.sims.clear();
    }

    /// Installs (or removes) a cooperative-cancel flag. Passed to every
    /// DES run (see
    /// [`DesSimulator::run_compiled`](crate::des::DesSimulator::run_compiled));
    /// a run that observes the flag set returns
    /// [`EmuError::Canceled`]. The threaded engine executes real
    /// kernels and is not interruptible. Warm engines are kept: the
    /// flag is a run argument, not part of engine construction.
    pub fn set_cancel(&mut self, cancel: Option<Arc<std::sync::atomic::AtomicBool>>) {
        self.cancel = cancel;
    }

    /// Installs (or removes) the enclosing job's correlation span id.
    /// A per-run setter like [`Self::set_cancel`] (warm engines are
    /// kept): traced runs stamp it into [`TraceMeta::span`] so the
    /// exported trace carries a `span_id` metadata record.
    ///
    /// [`TraceMeta::span`]: dssoc_trace::TraceMeta
    pub fn set_span(&mut self, span: Option<u64>) {
        self.span = span;
    }

    /// `(threaded, DES)` warm-engine counts — observability for tests
    /// and pool-reuse assertions.
    pub fn warm_engines(&self) -> (usize, usize) {
        (self.emus.len(), self.sims.len())
    }

    /// Compiles `spec` and runs it on `engine` with its named library
    /// scheduler — the one-call path for one-off jobs.
    pub fn run_spec(&mut self, spec: ScenarioSpec, engine: Engine) -> Result<JobResult, EmuError> {
        let scenario = CompiledScenario::compile(spec)?;
        self.run(&scenario, engine)
    }

    /// Runs a compiled scenario on `engine` with its named library
    /// scheduler (a fresh policy instance per call).
    pub fn run(
        &mut self,
        scenario: &Arc<CompiledScenario>,
        engine: Engine,
    ) -> Result<JobResult, EmuError> {
        let mut sched = by_name(&scenario.spec.scheduler).ok_or_else(|| {
            EmuError::Config(format!("unknown scheduler '{}'", scenario.spec.scheduler))
        })?;
        self.run_with(scenario, engine, sched.as_mut())
    }

    /// Runs a compiled scenario with an explicit scheduler instance
    /// (the path for custom policies and scheduler-reuse experiments).
    pub fn run_with(
        &mut self,
        scenario: &Arc<CompiledScenario>,
        engine: Engine,
        scheduler: &mut dyn Scheduler,
    ) -> Result<JobResult, EmuError> {
        let fingerprint = scenario.fingerprint;
        let cacheable = self.trace.is_none() && scenario.deterministic(engine);
        if cacheable {
            let hit = self.cache.lookup(&scenario.spec, fingerprint, engine);
            self.cache.count(hit.is_some());
            if let Some(stats) = hit {
                let stats = EmulationStats::clone(&stats);
                return Ok(JobResult { stats, fingerprint, engine, cached: true });
            }
        }
        let stats = self.execute(scenario, engine, scheduler, None)?;
        if cacheable {
            self.cache.store(&scenario.spec, fingerprint, engine, Arc::new(stats.clone()));
        }
        Ok(JobResult { stats, fingerprint, engine, cached: false })
    }

    /// Runs a compiled scenario once with `sink` tracing this run only.
    /// Traced runs bypass the cache in both directions.
    pub fn run_traced(
        &mut self,
        scenario: &Arc<CompiledScenario>,
        engine: Engine,
        scheduler: &mut dyn Scheduler,
        sink: TraceSink,
    ) -> Result<JobResult, EmuError> {
        let stats = self.execute(scenario, engine, scheduler, Some(sink))?;
        Ok(JobResult { stats, fingerprint: scenario.fingerprint, engine, cached: false })
    }

    fn execute(
        &mut self,
        scenario: &Arc<CompiledScenario>,
        engine: Engine,
        scheduler: &mut dyn Scheduler,
        trace: Option<TraceSink>,
    ) -> Result<EmulationStats, EmuError> {
        if let (Some(span), Some(sink)) = (self.span, trace.as_ref()) {
            sink.set_span(&format!("{span:016x}"));
        }
        match engine {
            Engine::Threaded => {
                self.emulation_for(scenario)?.run_compiled(scheduler, scenario, trace.as_ref())
            }
            Engine::Des => {
                let cancel = self.cancel.clone();
                self.simulator_for(scenario)?.run_compiled(
                    scheduler,
                    scenario,
                    trace.as_ref(),
                    cancel.as_deref(),
                )
            }
        }
    }

    fn emulation_for(&mut self, sc: &CompiledScenario) -> Result<&mut Emulation, EmuError> {
        match self.emus.entry(sc.engine_key) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let spec = &sc.spec;
                let config = EmulationConfig {
                    timing: spec.timing,
                    overhead: spec.overhead,
                    cost: spec.cost.clone(),
                    reservation_depth: spec.reservation_depth,
                    trace: self.trace.clone(),
                    // The compiled plan travels with the scenario.
                    faults: None,
                    metrics: self.metrics.clone(),
                };
                Ok(e.insert(Emulation::with_config(Arc::clone(&spec.platform), config)?))
            }
        }
    }

    fn simulator_for(&mut self, sc: &CompiledScenario) -> Result<&mut DesSimulator, EmuError> {
        match self.sims.entry(sc.engine_key) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let spec = &sc.spec;
                let config = DesConfig {
                    cost: spec.cost.clone(),
                    overhead_per_invocation: match spec.overhead {
                        OverheadMode::Fixed(d) => d,
                        OverheadMode::Measured | OverheadMode::None => Duration::ZERO,
                    },
                    trace: self.trace.clone(),
                    faults: None,
                    metrics: self.metrics.clone(),
                };
                Ok(e.insert(DesSimulator::new(Arc::clone(&spec.platform), config)?))
            }
        }
    }
}

impl Default for JobRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// An empty stats record for cache plumbing tests.
    fn empty_stats() -> EmulationStats {
        EmulationStats {
            platform: String::new(),
            scheduler: String::new(),
            makespan: Duration::ZERO,
            tasks: Default::default(),
            apps: Vec::new(),
            pe_busy: BTreeMap::new(),
            pe_names: BTreeMap::new(),
            sched_invocations: 0,
            overhead: Default::default(),
            reliability: Default::default(),
            instances: Vec::new(),
            app_agg: OnceLock::new(),
        }
    }

    // Compiled scenarios must be shareable across sweep workers.
    fn _assert_send_sync<T: Send + Sync>() {}
    #[allow(dead_code)]
    fn _compiled_scenario_is_shareable() {
        _assert_send_sync::<Arc<CompiledScenario>>();
        _assert_send_sync::<ResultCache>();
    }

    #[test]
    fn fingerprint_and_engine_wire_round_trips() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(fp.to_string(), "0123456789abcdef");
        assert_eq!(Fingerprint::parse(&fp.to_string()), Some(fp));
        assert_eq!(Fingerprint::parse("123"), None, "length-checked");
        assert_eq!(Fingerprint::parse("zzzzzzzzzzzzzzzz"), None);
        assert_eq!("threaded".parse::<Engine>(), Ok(Engine::Threaded));
        assert_eq!("des".parse::<Engine>(), Ok(Engine::Des));
        assert_eq!(Engine::Des.to_string(), "des");
        assert!("qemu".parse::<Engine>().unwrap_err().contains("qemu"));
    }

    #[test]
    fn platform_preset_matches_cli_grammar() {
        let p = platform_preset("zcu102:2C+1F").unwrap();
        assert_eq!(p.cpu_count(), 2);
        assert_eq!(p.accel_count(), 1);
        let p = platform_preset("odroid:3b+2l").unwrap();
        assert_eq!(p.cpu_count(), 5);
        assert!(platform_preset("zcu102").is_err());
        assert!(platform_preset("zcu102:4C+0F").is_err());
        assert!(platform_preset("riscv:1C+0F").is_err());
        assert!(platform_preset("odroid:5B+0L").is_err());
        assert!(platform_preset("zcu102:0C+0F").is_err());
    }

    #[test]
    fn cost_spec_resolves_and_debugs() {
        let mut table = CostTable::new();
        table.set("k", "cortex-a53", Duration::from_micros(5));
        let spec = CostSpec::table(table.clone());
        assert!(spec.is_deterministic());
        let plat = zcu102(1, 0);
        let model = spec.resolve();
        assert_eq!(
            model.task_duration("k", &plat.pes[0], Duration::ZERO),
            Some(Duration::from_micros(5))
        );
        assert_eq!(format!("{spec:?}"), "Table(1 entry(s))");
        let sm = CostSpec::ScaledMeasured(Arc::new(table));
        assert!(!sm.is_deterministic());
        // Scaled-measured still scales measurements; the table only
        // feeds estimates.
        let d = sm.resolve().task_duration("k", &plat.pes[0], Duration::from_millis(1)).unwrap();
        assert!(d > Duration::from_millis(1));
    }

    #[test]
    fn cost_spec_model_hashes_by_identity() {
        let a: Arc<dyn CostModel> = Arc::new(ScaledMeasuredCost::default());
        let one = CostSpec::Model(Arc::clone(&a));
        let two = CostSpec::Model(a);
        let three = CostSpec::Model(Arc::new(ScaledMeasuredCost::default()));
        assert_eq!(one.hash_into(0), two.hash_into(0), "same instance, same hash");
        assert_ne!(one.hash_into(0), three.hash_into(0), "distinct instances differ");
        assert!(!one.is_deterministic());
    }

    #[test]
    fn result_cache_bounds_and_counts() {
        let cache = ResultCache::new(2);
        assert!(cache.is_empty());
        let stats = empty_stats();
        cache.insert(Fingerprint(1), Engine::Des, stats.clone());
        cache.insert(Fingerprint(2), Engine::Des, stats.clone());
        assert!(cache.get(Fingerprint(1), Engine::Des).is_some());
        // Same fingerprint, other engine: distinct key.
        assert!(cache.get(Fingerprint(1), Engine::Threaded).is_none());
        cache.insert(Fingerprint(3), Engine::Des, stats);
        assert_eq!(cache.len(), 2, "bounded: oldest evicted");
        assert!(cache.get(Fingerprint(1), Engine::Des).is_none(), "1 was oldest");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn result_cache_publishes_counters() {
        let cache = ResultCache::new(4);
        cache.insert(Fingerprint(7), Engine::Des, empty_stats());
        let _ = cache.get(Fingerprint(7), Engine::Des); // pre-attach hit
        let registry = MetricsRegistry::new();
        cache.attach_metrics(&registry);
        let _ = cache.get(Fingerprint(7), Engine::Des);
        let _ = cache.get(Fingerprint(8), Engine::Des);
        let snap = registry.snapshot();
        assert_eq!(snap.value("dssoc_result_cache_hits", &[]), Some(2.0), "carried + live");
        assert_eq!(snap.value("dssoc_result_cache_misses", &[]), Some(1.0));
    }

    #[test]
    fn builder_validates_platform_and_scheduler() {
        let library = Arc::new(AppLibrary::new());
        let workload = Arc::new(Workload { entries: Vec::new(), time_frame: None });
        let err = ScenarioSpec::builder()
            .library(Arc::clone(&library))
            .workload(Arc::clone(&workload))
            .platform_named("zcu102:9C+0F")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at most 3"), "{err}");
        let err = ScenarioSpec::builder()
            .library(Arc::clone(&library))
            .workload(Arc::clone(&workload))
            .platform_named("zcu102:1C+0F")
            .scheduler("heft")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("unknown scheduler 'heft'"), "{err}");
        let spec = ScenarioSpec::builder()
            .library(library)
            .workload(workload)
            .platform_named("zcu102:1C+0F")
            .build()
            .unwrap();
        assert_eq!(spec.scheduler, "frfs");
        assert_eq!(spec.platform.name, "zcu102-1C+0F");
    }

    #[test]
    fn fingerprint_ignores_arc_identity_and_case() {
        let library = Arc::new(AppLibrary::new());
        let workload = Workload {
            entries: vec![dssoc_appmodel::workload::WorkloadEntry {
                app_name: "a".into(),
                arrival: Duration::ZERO,
            }],
            time_frame: None,
        };
        let build = |sched: &str| ScenarioSpec {
            library: Arc::new((*library).clone()),
            platform: Arc::new(zcu102(2, 1)),
            scheduler: sched.to_string(),
            workload: Arc::new(workload.clone()),
            timing: TimingMode::Modeled,
            overhead: OverheadMode::None,
            cost: CostSpec::table(CostTable::new()),
            reservation_depth: 0,
            faults: None,
        };
        assert_eq!(build("frfs").fingerprint(), build("FRFS").fingerprint());
        let mut other = build("frfs");
        other.reservation_depth = 1;
        assert_ne!(build("frfs").fingerprint(), other.fingerprint());
    }
}
