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
//! * [`ScenarioSpec::fingerprint`] — the hash of the spec's one
//!   canonical encoding ([`Canon`]): equal for structurally equal specs
//!   regardless of `Arc` identity or build order, different under any
//!   field mutation. Each encoder destructures its struct exhaustively,
//!   so a new field does not compile until it is encoded or ignored
//!   with a reason.
//! * [`CompiledScenario`] — everything a run needs that does not change
//!   between runs, precompiled once: the instance → app [`NameTable`],
//!   the dense `[node][PE]` dispatch-cost slabs ([`ScenarioSoa`]), the
//!   compiled [`FaultPlan`], a slot-assigned [`EstimateBook`]
//!   prototype, and the scenario's [`ScenarioKey`]. Per-application
//!   work — names, DAG topology — was done once when each app was
//!   loaded, so a compile resolves only the `(app, platform, cost)`
//!   cells. Shared across runs *and threads* via `Arc`. Both engines'
//!   one-off `run` compiles one too.
//! * [`ScenarioKey`] — the canonical encoding itself, built once per
//!   job: its bytes are the [`ResultCache`]'s key and its hash the
//!   fingerprint.
//! * [`JobRunner`] — the front door: give it a compiled scenario and an
//!   [`Engine`], get a [`JobResult`] back. It keeps a bounded set of
//!   warm engines, one per platform, and a bounded [`ResultCache`]
//!   whose slots are fingerprints and whose hits are confirmed against
//!   the compiled scenario's key, so repeated deterministic runs are
//!   answered without running at all.
//!
//! [`FaultPlan`]: crate::fault::FaultPlan

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec, NodeSpec};
use dssoc_appmodel::hash::{hash_bytes, Canon};
use dssoc_appmodel::workload::Workload;
use dssoc_metrics::{CounterCell, MetricsRegistry};
use dssoc_platform::cost::CostTable;
use dssoc_platform::dma::DmaModel;
use dssoc_platform::pe::{
    AccelModel, ContentionModel, CpuModel, OverlayConfig, PeDescriptor, PeKind, PlatformConfig,
};
use dssoc_platform::presets::{odroid_xu3, zcu102};
use dssoc_trace::TraceSink;

use crate::des::{DesConfig, DesSimulator};
use crate::engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
use crate::exec::preflight_compat;
use crate::fault::{FaultPlan, FaultSpec, PermanentFault, RateFault, RetryPolicy};
use crate::intern::NameTable;
use crate::sched::{by_name, EstimateBook, Scheduler};
use crate::soa::ScenarioSoa;
use crate::stats::EmulationStats;

// ---------------------------------------------------------------------------
// Cost specification
// ---------------------------------------------------------------------------

/// How task durations are derived.
///
/// The threaded engine hands each dispatched task its cost from the
/// compiled scenario (see [`ScenarioSoa`]); the DES charges the same
/// number. An accelerator's latency reports win over either.
#[derive(Clone, Default)]
pub enum CostSpec {
    /// Scale the host-measured kernel time by the PE's speed (the
    /// default — real execution, modeled platform). The DES measures
    /// nothing, so it refuses such scenarios
    /// ([`ScenarioSpec::check_engine`]).
    #[default]
    ScaledMeasured,
    /// Deterministic per-`(kernel, class)` durations: a task costs its
    /// table entry, else its JSON estimate, else 100 µs of host work
    /// scaled by the PE's speed — on both engines (what differential
    /// tests pin them to).
    Table(Arc<CostTable>),
}

impl CostSpec {
    /// A deterministic cost-table spec.
    pub fn table(table: CostTable) -> Self {
        CostSpec::Table(Arc::new(table))
    }

    /// The modeled duration of `node` on `pe` under this spec (see the
    /// variants), resolved once per `(node, PE)` cell at compile time.
    pub(crate) fn cell_cost(&self, node: &NodeSpec, pe: &PeDescriptor) -> Duration {
        let CostSpec::Table(table) = self else { return Duration::ZERO };
        let platform = node.platform(&pe.platform_key).expect("compat checked");
        table
            .estimate(&platform.runfunc, pe)
            .or(platform.mean_exec)
            .unwrap_or_else(|| Duration::from_secs_f64(100e-6 / pe.speed()))
    }

    /// True when every duration this spec yields is a pure function of
    /// the scenario (no host measurement involved).
    pub fn is_deterministic(&self) -> bool {
        matches!(self, CostSpec::Table(_))
    }
}

impl std::fmt::Debug for CostSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostSpec::ScaledMeasured => f.write_str("ScaledMeasured"),
            CostSpec::Table(t) => write!(f, "Table({} entry(s))", t.len()),
        }
    }
}

// ---------------------------------------------------------------------------
// Platform presets by name
// ---------------------------------------------------------------------------

/// Most FFT accelerators a `zcu102:` preset shorthand may ask for. Each
/// is a PE, with its own resource-manager thread in the threaded
/// engine, so an unchecked count in a served body would allocate (and
/// spawn) without bound.
const MAX_PRESET_FFTS: usize = 16;

/// Parses a platform-preset shorthand — `zcu102:<cores>C+<ffts>F` or
/// `odroid:<big>B+<little>L` — into a validated [`PlatformConfig`].
///
/// This is the single source of truth for preset resolution: the CLI's
/// `--platform` flag and the figure harnesses both route through it
/// (they used to duplicate the bounds checks and error strings). A
/// ZCU102 shape takes at most 16 FFT accelerators; larger platforms are
/// described inline.
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
            if f > MAX_PRESET_FFTS {
                return Err(format!("zcu102 presets take at most {MAX_PRESET_FFTS} FFTs"));
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

    /// The stable structural fingerprint of this scenario: the hash of
    /// the canonical encoding a [`ResultCache`] hit is confirmed against.
    /// It is independent of `Arc` identity, of how the spec was built,
    /// and of apps the workload does not name; each app it does name
    /// enters by its content hash. A caller that also looks the spec
    /// up builds its [`ScenarioKey`] once instead.
    pub fn fingerprint(&self) -> Fingerprint {
        ScenarioKey::of(self).fingerprint()
    }

    /// `Err` when `engine` cannot run this scenario. The one such rule:
    /// the DES measures no kernel, so it refuses
    /// [`CostSpec::ScaledMeasured`], under which every task would cost
    /// zero. The DES's run entry enforces it; the serve API checks it
    /// when parsing, to refuse such a job up front.
    pub fn check_engine(&self, engine: Engine) -> Result<(), EmuError> {
        match (engine, &self.cost) {
            (Engine::Des, CostSpec::ScaledMeasured) => Err(EmuError::Config(
                "cost 'measured' needs the threaded engine: the DES measures no kernel, so \
                 every task would cost zero (use \"cost\": \"table\")"
                    .into(),
            )),
            _ => Ok(()),
        }
    }

    /// True when a run of this scenario on `engine` with its named
    /// library scheduler is a pure function of the spec — the gate for
    /// result caching. The DES always is; the threaded engine is
    /// deterministic in [`TimingMode::Modeled`] with non-measured
    /// overhead and a [`CostSpec::Table`] cost (the differential-test
    /// configuration): every task then costs its compiled cell, as in
    /// the DES, whatever the table covers.
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

/// Most PEs a compiled scenario's platform may have: a run records each
/// completion's PE column in 16 bits.
pub const MAX_PES: usize = 1 << 16;

/// Most DAG nodes an application of a compiled scenario may have: a run
/// records each completion's node index in 16 bits.
pub const MAX_NODES: usize = 1 << 16;

/// A [`ScenarioSpec`] with everything a run reads but never changes
/// precompiled once: compatibility preflight, the instance → app name
/// table, SoA dispatch-cost slabs, slot-assigned estimate book, the
/// compiled fault plan and the scenario's key. Compile once, run many —
/// across iterations, sweep workers, and engines.
///
/// Runs read instance ids, arrival times and app indices straight from
/// the workload's arrivals. The DES needs nothing else per instance;
/// the threaded engine, whose kernels write, instantiates private
/// instances per run with the same ids.
pub struct CompiledScenario {
    pub(crate) spec: ScenarioSpec,
    /// The spec's identity: what a result cache confirms a hit by and
    /// stores a result under.
    pub(crate) key: Arc<ScenarioKey>,
    /// The compiled fault plan, if the spec injects faults.
    pub(crate) plan: Option<Arc<FaultPlan>>,
    pub(crate) names: Arc<NameTable>,
    /// Dispatch costs as struct-of-arrays slabs, beside each app's DAG
    /// topology — what the DES hot loop indexes (see [`ScenarioSoa`]).
    pub(crate) soa: Arc<ScenarioSoa>,
    /// Slot-assigned estimate-book prototype: slots match the slabs'
    /// estimate slots but carry no observations yet. Each run, on
    /// either engine, starts its warm book from these values.
    pub(crate) estimates: EstimateBook,
    /// True when built by [`Self::compile_custom`]: the scheduler name
    /// is a label for a user-supplied policy, so results are never
    /// cached (the fingerprint cannot capture the policy's behaviour).
    pub(crate) custom: bool,
}

impl std::fmt::Debug for CompiledScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledScenario")
            .field("fingerprint", &self.fingerprint().to_string())
            .field("platform", &self.spec.platform.name)
            .field("scheduler", &self.spec.scheduler)
            .field("instances", &self.spec.workload.len())
            .field("custom", &self.custom)
            .finish()
    }
}

impl CompiledScenario {
    /// Compiles a spec, validating the platform, the scheduler name,
    /// and workload/platform compatibility.
    pub fn compile(spec: ScenarioSpec) -> Result<Arc<Self>, EmuError> {
        let key = ScenarioKey::of(&spec);
        Self::compile_keyed(spec, key)
    }

    /// [`Self::compile`] with the spec's key already built (by a caller
    /// that looked the spec up in a [`ResultCache`] first), so a job
    /// encodes its spec once whether it hits or misses. `key` must be
    /// `spec`'s ([`ScenarioKey::of`]), possibly under another
    /// fingerprint ([`ScenarioKey::with_fingerprint`]).
    pub fn compile_keyed(spec: ScenarioSpec, key: ScenarioKey) -> Result<Arc<Self>, EmuError> {
        debug_assert!(key.matches(&ScenarioKey::of(&spec)), "the key is the spec's");
        if by_name(&spec.scheduler).is_none() {
            return Err(EmuError::Config(format!("unknown scheduler '{}'", spec.scheduler)));
        }
        Self::build(spec, key, false)
    }

    /// Compiles a spec whose scheduler name labels a *custom* policy
    /// supplied at run time (see [`JobRunner::run_with`]). Skips the
    /// library-name check; results of custom scenarios are never
    /// cached.
    pub fn compile_custom(spec: ScenarioSpec) -> Result<Arc<Self>, EmuError> {
        let key = ScenarioKey::of(&spec);
        Self::build(spec, key, true)
    }

    fn build(spec: ScenarioSpec, key: ScenarioKey, custom: bool) -> Result<Arc<Self>, EmuError> {
        spec.platform.validate().map_err(EmuError::Config)?;
        let specs = spec.workload.resolve(&spec.library)?;
        if spec.platform.pes.len() > MAX_PES || specs.iter().any(|s| s.nodes.len() > MAX_NODES) {
            return Err(EmuError::Config(format!(
                "a scenario may have at most {MAX_PES} PEs and {MAX_NODES} nodes per application"
            )));
        }
        preflight_compat(&spec.platform, &specs)?;
        let mut estimates = EstimateBook::new();
        let soa = ScenarioSoa::build(&specs, &spec.platform, &spec.cost, &mut estimates);
        let spec_of = spec.workload.arrivals().iter().map(|a| a.app).collect();
        let names = NameTable::new(specs, spec_of, &spec.platform);
        let plan = match &spec.faults {
            Some(f) => Some(Arc::new(f.compile(&spec.platform).map_err(EmuError::Config)?)),
            None => None,
        };
        Ok(Arc::new(CompiledScenario {
            spec,
            key: Arc::new(key),
            plan,
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

    /// The structural fingerprint: the hash of [`Self::key`].
    pub fn fingerprint(&self) -> Fingerprint {
        self.key.fingerprint
    }

    /// The scenario's key, built once at (or before) compile time.
    pub fn key(&self) -> &Arc<ScenarioKey> {
        &self.key
    }

    /// The compiled fault plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_deref()
    }

    /// The precompiled name table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    /// The dispatch costs in the struct-of-arrays form the DES hot loop
    /// indexes, beside each app's DAG topology.
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

/// A scenario's identity: the canonical encoding of every field a run
/// reads, which is the cache key and whose hash is the fingerprint, and
/// the apps whose content hashes it holds. It pins no generated
/// arrivals: the bytes hold them as varints. Build it once per job
/// ([`Self::of`]) and hand it to [`ResultCache::lookup`] and
/// [`CompiledScenario::compile_keyed`]; the compiled scenario keeps it
/// for [`ResultCache::store`].
pub struct ScenarioKey {
    /// The workload's apps the library has, in table (name) order.
    apps: Vec<Arc<ApplicationSpec>>,
    /// False when the library lacks one of the workload's apps.
    complete: bool,
    bytes: Vec<u8>,
    /// The cache slot: the bytes' hash, unless relabeled.
    fingerprint: Fingerprint,
}

impl ScenarioKey {
    /// The key of `spec`. An application the library lacks is encoded
    /// by its name, so such a spec still fingerprints, but it never
    /// compiles and is never stored.
    pub fn of(spec: &ScenarioSpec) -> ScenarioKey {
        let ScenarioSpec {
            library, // reached only through the workload's apps
            platform,
            scheduler,
            workload,
            timing,
            overhead,
            cost,
            reservation_depth,
            faults,
        } = spec;
        let mut apps = Vec::with_capacity(workload.apps().len());
        // Room for the usual few bytes per arrival and the rest.
        let mut w = Canon(Vec::with_capacity(4 * workload.len() + 256));
        workload.encode(&mut w, |w, name| match library.find(name) {
            Some(app) => {
                w.tag(1);
                w.uint(app.content_hash());
                apps.push(Arc::clone(app));
            }
            None => {
                w.tag(0);
                w.bytes(name);
            }
        });
        encode_platform(&mut w, platform);
        // Scheduler names resolve case-insensitively.
        w.bytes(scheduler.to_ascii_lowercase());
        w.tag(*timing as u8);
        match overhead {
            OverheadMode::Measured => w.tag(0),
            OverheadMode::Fixed(d) => {
                w.tag(1);
                w.dur(*d);
            }
            OverheadMode::None => w.tag(2),
        }
        match cost {
            CostSpec::ScaledMeasured => w.tag(0),
            CostSpec::Table(table) => {
                let CostTable { entries } = &**table;
                w.tag(1);
                w.list(entries, |w, (kernel, classes)| {
                    w.bytes(kernel);
                    w.list(classes, |w, (class, d)| {
                        w.bytes(class);
                        w.dur(*d);
                    });
                });
            }
        }
        w.uint(*reservation_depth as u64);
        w.opt(faults.as_deref(), encode_faults);
        let complete = apps.len() == workload.apps().len();
        let fingerprint = Fingerprint(hash_bytes(&w.0));
        ScenarioKey { apps, complete, bytes: w.0, fingerprint }
    }

    /// The scenario's fingerprint: the hash of the key's bytes.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The same key under `fingerprint`. A fingerprint only labels
    /// results and picks cache slots, and a hit is confirmed by the
    /// bytes, so a wrong one can only cost misses — which is how tests
    /// force a 64-bit collision.
    pub fn with_fingerprint(self, fingerprint: Fingerprint) -> ScenarioKey {
        ScenarioKey { fingerprint, ..self }
    }

    /// True when `other` is the same scenario: equal bytes, and each
    /// application the same `Arc` or of an equal encoding (the bytes
    /// hold only the apps' hashes).
    fn matches(&self, other: &ScenarioKey) -> bool {
        self.bytes == other.bytes
            && self.apps.iter().zip(&other.apps).all(|(a, b)| a.same_content(b))
    }
}

fn encode_platform(w: &mut Canon, platform: &PlatformConfig) {
    let PlatformConfig { name, pes, overlay, host_slots, contention } = platform;
    let OverlayConfig { name: overlay_name, speed: overlay_speed } = overlay;
    let ContentionModel { context_switch } = contention;
    w.bytes(name);
    w.list(pes, |w, pe| {
        let PeDescriptor { id, name, platform_key, kind } = pe;
        w.uint(id.0 as u64);
        w.bytes(name);
        w.bytes(platform_key);
        match kind {
            PeKind::Cpu(CpuModel { class, speed }) => {
                w.tag(0);
                w.bytes(class);
                w.f64(*speed);
            }
            PeKind::Accel(AccelModel {
                kind,
                dma,
                throughput_msps,
                pipeline_latency,
                max_points,
            }) => {
                let DmaModel { setup, bytes_per_sec } = dma;
                w.tag(1);
                w.bytes(kind);
                w.dur(*setup);
                w.f64(*bytes_per_sec);
                w.f64(*throughput_msps);
                w.dur(*pipeline_latency);
                w.uint(*max_points as u64);
            }
        }
    });
    w.bytes(overlay_name);
    w.f64(*overlay_speed);
    w.uint(*host_slots as u64);
    w.dur(*context_switch);
}

fn encode_faults(w: &mut Canon, faults: &FaultSpec) {
    let FaultSpec {
        seed,
        permanent,
        transient,
        hangs,
        retry,
        watchdog_factor,
        watchdog_min_wall_ms,
    } = faults;
    let RetryPolicy { max_retries, backoff_us, quarantine_after } = retry;
    w.uint(*seed);
    w.list(permanent, |w, PermanentFault { pe, at_us }| {
        w.uint(*pe as u64);
        w.f64(*at_us);
    });
    for rules in [transient, hangs] {
        w.list(rules, |w, RateFault { kernel, pe, probability }| {
            w.opt(kernel.as_deref(), Canon::bytes);
            w.opt(*pe, |w, pe| w.uint(pe as u64));
            w.f64(*probability);
        });
    }
    w.uint(*max_retries as u64);
    w.f64(*backoff_us);
    w.uint(*quarantine_after as u64);
    w.f64(*watchdog_factor);
    w.f64(*watchdog_min_wall_ms);
}

/// A bounded, thread-safe result cache keyed on `(fingerprint,
/// engine)`.
///
/// Deterministic scenario runs are pure functions of their spec, so the
/// stats of a previous run answer a repeat exactly. The fingerprint only
/// finds the slot: [`Self::lookup`] confirms a hit by the spec's
/// canonical encoding, byte for byte, so two scenarios whose 64-bit
/// fingerprints collide cost a miss, never a wrong answer. Results are
/// held as `Arc<EmulationStats>`: under the lock a lookup only bumps
/// refcounts, and a caller that needs its own copy clones outside it.
/// An entry is a run's compact summary — it holds no instance memory,
/// so a full cache of pulse-Doppler results stays a few tens of MB
/// (`tests/cache_bytes.rs` bounds it) — and a copy shares the entry's
/// task-log columns. Sweep workers share one cache by cloning the
/// handle; hit/miss totals are published through `dssoc-metrics` as
/// `dssoc_result_cache_hits` / `dssoc_result_cache_misses` once
/// [`Self::attach_metrics`] is called.
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

    /// The cached result of the scenario `key` identifies on `engine`,
    /// found by the key's fingerprint and confirmed by its bytes.
    /// Counts nothing: the caller records the outcome with
    /// [`Self::count`] once it knows whether the job is served.
    pub fn lookup(&self, key: &ScenarioKey, engine: Engine) -> Option<Arc<EmulationStats>> {
        let (stats, stored) = {
            let inner = self.lock();
            let entry = inner.map.get(&(key.fingerprint, engine))?;
            (Arc::clone(&entry.stats), Arc::clone(entry.key.as_ref()?))
        };
        stored.matches(key).then_some(stats)
    }

    /// Counts one lookup of a served job as a hit or a miss.
    pub fn count(&self, hit: bool) {
        self.lock().count(hit);
    }

    /// Stores the result on `engine` of the scenario `key` identifies,
    /// under its fingerprint and confirmed by its bytes, evicting the
    /// oldest entry when full. A key naming an app the library lacks is
    /// not stored.
    pub fn store(&self, key: &Arc<ScenarioKey>, engine: Engine, stats: Arc<EmulationStats>) {
        if key.complete {
            let entry = CacheEntry { stats, key: Some(Arc::clone(key)) };
            self.put(key.fingerprint, engine, entry);
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
    /// The run's summary (on a hit, a copy of the cached entry that
    /// shares its task-log columns).
    pub stats: EmulationStats,
    /// The scenario fingerprint the result is keyed under.
    pub fingerprint: Fingerprint,
    /// The engine that produced (or would have produced) the result.
    pub engine: Engine,
    /// True when the result came from the [`ResultCache`] without
    /// running.
    pub cached: bool,
}

/// Most PEs the warm engines of one kind may hold together. Enough for
/// every serve preset and every sweep shape at once; one engine larger
/// than this stays warm alone.
pub const WARM_PE_BUDGET: usize = 64;

/// The warm engines of one kind, least recently used first. An engine
/// depends only on its platform, so a lookup compares platforms: by
/// `Arc` identity, else by value — no hash, so no collision can hand a
/// run another platform's engine.
pub(crate) struct WarmSet<E> {
    engines: Vec<(Arc<PlatformConfig>, E)>,
}

impl<E> WarmSet<E> {
    fn new() -> Self {
        WarmSet { engines: Vec::new() }
    }

    /// The engine for `platform`, made the most recently used. On a
    /// miss the least recently used engines are dropped first (an
    /// `Emulation` joins its threads) until the set, with the new
    /// engine, holds at most [`WARM_PE_BUDGET`] PEs; then the engine is
    /// built. The engine returned is never dropped, however large.
    fn get_or_build(
        &mut self,
        platform: &Arc<PlatformConfig>,
        build: impl FnOnce() -> Result<E, EmuError>,
    ) -> Result<&mut E, EmuError> {
        let same = |p: &Arc<PlatformConfig>| Arc::ptr_eq(p, platform) || p == platform;
        if let Some(i) = self.engines.iter().position(|(p, _)| same(p)) {
            let hit = self.engines.remove(i);
            self.engines.push(hit);
        } else {
            let mut pes = platform.pes.len();
            pes += self.engines.iter().map(|(p, _)| p.pes.len()).sum::<usize>();
            while pes > WARM_PE_BUDGET && !self.engines.is_empty() {
                pes -= self.engines.remove(0).0.pes.len();
            }
            self.engines.push((Arc::clone(platform), build()?));
        }
        Ok(&mut self.engines.last_mut().expect("just pushed").1)
    }

    fn len(&self) -> usize {
        self.engines.len()
    }

    fn clear(&mut self) {
        self.engines.clear();
    }
}

/// The job-execution front door: runs [`CompiledScenario`]s on either
/// engine, reusing warm engine instances and consulting a bounded
/// [`ResultCache`].
///
/// A warm engine depends only on its platform (one resource-manager
/// thread per PE, as in the paper's §II-C): timing, overhead, cost,
/// reservation depth and the fault plan travel with the compiled
/// scenario, so every scenario on one platform shares one engine. The
/// warm engines of each kind hold at most [`WARM_PE_BUDGET`] PEs; the
/// least recently used go first.
pub struct JobRunner {
    pub(crate) emus: WarmSet<Emulation>,
    pub(crate) sims: WarmSet<DesSimulator>,
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
            emus: WarmSet::new(),
            sims: WarmSet::new(),
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
        let fingerprint = scenario.fingerprint();
        let cacheable = self.trace.is_none() && scenario.deterministic(engine);
        if cacheable {
            let hit = self.cache.lookup(&scenario.key, engine);
            self.cache.count(hit.is_some());
            if let Some(stats) = hit {
                let stats = EmulationStats::clone(&stats);
                return Ok(JobResult { stats, fingerprint, engine, cached: true });
            }
        }
        let stats = self.execute(scenario, engine, scheduler, None)?;
        if cacheable {
            self.cache.store(&scenario.key, engine, Arc::new(stats.clone()));
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
        Ok(JobResult { stats, fingerprint: scenario.fingerprint(), engine, cached: false })
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
        let platform = &sc.spec.platform;
        self.emus.get_or_build(platform, || {
            let (trace, metrics) = (self.trace.clone(), self.metrics.clone());
            let config = EmulationConfig { trace, metrics, ..EmulationConfig::default() };
            Emulation::with_config(Arc::clone(platform), config)
        })
    }

    fn simulator_for(&mut self, sc: &CompiledScenario) -> Result<&mut DesSimulator, EmuError> {
        let platform = &sc.spec.platform;
        self.sims.get_or_build(platform, || {
            let (trace, metrics) = (self.trace.clone(), self.metrics.clone());
            DesSimulator::new(
                Arc::clone(platform),
                DesConfig { trace, metrics, ..DesConfig::default() },
            )
        })
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
            apps: Default::default(),
            pe_busy: BTreeMap::new(),
            pe_names: BTreeMap::new(),
            sched_invocations: 0,
            overhead: Default::default(),
            reliability: Default::default(),
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
        assert!(platform_preset("zcu102:1C+16F").is_ok());
        assert!(platform_preset("zcu102:1C+17F").is_err());
        assert!(platform_preset("zcu102:1C+18446744073709551615F").is_err());
    }

    #[test]
    fn cost_spec_resolves_and_debugs() {
        // Node 0 of the fixture runs "kc" on a CPU (JSON estimate
        // 100 µs) and "ka" on the FFT (70 µs).
        let inst = crate::sched::testutil::fixture_instance(1, 70.0);
        let node = &inst.spec.nodes[0];
        let plat = zcu102(1, 1);
        let (cpu, fft) = (&plat.pes[0], &plat.pes[1]);
        let mut table = CostTable::new();
        table.set("kc", cpu.class_name(), Duration::from_micros(5));
        let spec = CostSpec::table(table);
        assert!(spec.is_deterministic());
        assert_eq!(spec.cell_cost(node, cpu), Duration::from_micros(5), "the entry wins");
        assert_eq!(spec.cell_cost(node, fft), Duration::from_micros(70), "then the JSON estimate");
        assert_eq!(format!("{spec:?}"), "Table(1 entry(s))");
        // Scaled-measured has nothing to charge before a measurement.
        let sm = CostSpec::ScaledMeasured;
        assert!(!sm.is_deterministic());
        assert_eq!(sm.cell_cost(node, cpu), Duration::ZERO);
        assert_eq!(format!("{sm:?}"), "ScaledMeasured");
        // The scenario encoding tags the variant, so even an empty table
        // is another scenario.
        let scenario = |cost| {
            let workload = Workload::new([("a", Duration::ZERO)], None);
            let builder = ScenarioSpec::builder().library(AppLibrary::new()).workload(workload);
            builder.platform(zcu102(1, 1)).cost(cost).build().expect("scenario")
        };
        let empty = CostSpec::table(CostTable::new());
        assert_ne!(scenario(sm).fingerprint(), scenario(empty).fingerprint());
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
        let workload = Arc::new(Workload::default());
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
        let workload = Workload::new([("a", Duration::ZERO)], None);
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
