//! # dssoc-core — the user-space DSSoC emulation runtime
//!
//! Rust reproduction of the runtime presented in *"User-Space Emulation
//! Framework for Domain-Specific SoC Design"* (Mack, Kumbhare, NK, Ogras,
//! Akoglu — IPDPS Workshops 2020, arXiv:2004.01636). The framework
//! emulates a Domain-Specific SoC on commodity hardware: applications are
//! DAGs of real kernels, a *workload manager* injects them over time and
//! schedules ready tasks, and per-PE *resource manager* threads execute
//! them — on emulated CPU cores or on simulated accelerators behind a DMA
//! latency model.
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`engine`] | §II-C, Fig. 3 | workload manager, timing modes, driver |
//! | [`exec`] | §II-C | engine-agnostic scheduling core (ready list, instance tracking, PE slots) |
//! | [`fault`] | — | seeded fault injection + retry/quarantine/degradation recovery |
//! | [`resource`] | §II-D, Fig. 4 | per-PE resource-manager threads, persistent [`resource::ResourcePool`] |
//! | [`handler`] | §II-C | idle/run/complete handler protocol, spin-then-park hand-off |
//! | [`sched`] | §II-C | FRFS, MET, EFT, RANDOM + `Scheduler` trait |
//! | [`stats`] | §III | run summary (task/app records, utilization, overhead); instance images |
//! | [`des`] | §III-D | discrete-event baseline (DS3-class) |
//! | [`calq`], [`arena`], [`soa`] | — | DES hot-loop core: calendar queue, warm scratch arena, SoA scenario state |
//! | [`job`] | — | Arc-shared scenario specs, compile-once scenarios, fingerprints, `JobRunner`, result cache |
//! | [`sweep`] | §III | one batch sweep runner over config × scheduler × workload grids, on either engine |
//! | [`task`], [`time`] | — | task and emulation-clock primitives |
//!
//! ## Quick start
//!
//! ```
//! use dssoc_core::prelude::*;
//! use dssoc_appmodel::{AppLibrary, KernelRegistry, WorkloadSpec};
//! use dssoc_appmodel::json::AppJson;
//! use dssoc_platform::presets::zcu102;
//!
//! // 1. Register kernels (the "shared object").
//! let mut registry = KernelRegistry::new();
//! registry.register_fn("hello.so", "work", |ctx| {
//!     let n = ctx.read_u32("n")?;
//!     ctx.write_u32("n", n + 1)
//! });
//!
//! // 2. Describe the application in the paper's JSON format.
//! let json = AppJson::from_str(r#"{
//!     "AppName": "hello",
//!     "SharedObject": "hello.so",
//!     "Variables": {"n": {"bytes": 4, "is_ptr": false, "ptr_alloc_bytes": 0, "val": [5,0,0,0]}},
//!     "DAG": {"only": {"arguments": ["n"],
//!                       "platforms": [{"name": "cpu", "runfunc": "work"}]}}
//! }"#).unwrap();
//! let mut library = AppLibrary::new();
//! library.register_json(&json, &registry).unwrap();
//!
//! // 3. Generate a validation-mode workload and emulate it on a
//! //    hypothetical 2-core + 1-FFT ZCU102 configuration.
//! let workload = WorkloadSpec::validation([("hello", 3usize)]).generate(&library).unwrap();
//! let mut emulation = Emulation::new(zcu102(2, 1)).unwrap();
//! let stats = emulation.run(&mut FrfsScheduler::new(), &workload, &library).unwrap();
//! assert_eq!(stats.completed_apps(), 3);
//! ```
//!
//! ## One path from scenario to result
//!
//! Every run goes through a [`job::CompiledScenario`]. `Emulation::run`
//! and `DesSimulator::run` lower their engine config to a
//! [`job::ScenarioSpec`], compile it, and call `run_compiled`.
//! [`job::JobRunner`] does the same with warm engines and a result
//! cache. [`sweep::SweepRunner`] does it for grids of cells, on whichever
//! engine its [`sweep::EngineConfig`] names. A per-run trace sink or
//! cancel flag is an argument of `run_compiled`, never engine state,
//! and so are timing, overhead, cost and reservation depth: a run reads
//! them from its compiled scenario, so an engine depends only on its
//! platform.
//! Every path returns the compact [`stats::EmulationStats`] summary; the
//! instances' final memory comes only from
//! [`Emulation::run_with_images`], which nothing caches.

pub mod arena;
pub mod calq;
pub mod des;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod handler;
pub mod intern;
pub mod job;
pub mod metrics;
pub mod resource;
pub mod sched;
pub mod soa;
pub mod stats;
pub mod sweep;
pub mod task;
pub mod time;

pub use calq::{CalendarQueue, Timed};
pub use soa::{ScenarioSoa, INCOMPATIBLE};

pub use des::{DesConfig, DesSimulator};
pub use engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
pub use exec::{pe_mask_bit, register_trace_meta, CompletionSink, ExecTracer, PeSlots, ReadyList};
pub use fault::{
    FaultAction, FaultDecision, FaultPlan, FaultSpec, FaultState, PermanentFault, RateFault,
    RetryPolicy,
};
pub use handler::{
    PeStatus, ResourceHandler, RunHold, RunInstances, TaskAssignment, TaskCompletion, TaskCost,
};
pub use intern::{Name, NameTable};
pub use job::{
    platform_preset, CompiledScenario, CostSpec, Engine, Fingerprint, JobResult, JobRunner,
    ResultCache, ScenarioBuilder, ScenarioKey, ScenarioSpec,
};
pub use metrics::OverheadPhase;
pub use resource::{threads_spawned_total, ResourcePool};
pub use sched::{
    Assignment, EftScheduler, EstimateBook, EstimateSlot, FrfsScheduler, MetScheduler, PeView,
    RandomScheduler, ReadyRow, ReadyView, SchedContext, Scheduler,
};
pub use stats::{
    AppAggregate, AppRecord, EmulationStats, InstanceImages, OverheadBreakdown,
    ReliabilityCounters, StatsPercentiles, TaskRecord,
};
pub use sweep::{
    default_workers, CellResult, DesSweepRunner, EngineConfig, ProgressWatcher, SweepCell,
    SweepProgress, SweepProgressSnapshot, SweepRunner,
};
pub use task::Task;
pub use time::SimTime;

/// The most commonly used items, re-exported for `use dssoc_core::prelude::*`.
pub mod prelude {
    pub use crate::des::{DesConfig, DesSimulator};
    pub use crate::engine::{EmuError, Emulation, EmulationConfig, OverheadMode, TimingMode};
    pub use crate::fault::{FaultSpec, RetryPolicy};
    pub use crate::job::{
        CompiledScenario, CostSpec, Engine, JobResult, JobRunner, ResultCache, ScenarioSpec,
    };
    pub use crate::sched::{EftScheduler, FrfsScheduler, MetScheduler, RandomScheduler, Scheduler};
    pub use crate::stats::EmulationStats;
    pub use crate::sweep::{
        default_workers, CellResult, DesSweepRunner, EngineConfig, SweepCell, SweepProgress,
        SweepRunner,
    };
    pub use crate::time::SimTime;
}
