//! # dssoc-appmodel — applications, variables, kernels, workloads
//!
//! Implements the application-side data model of the paper's emulation
//! framework (§II-B, Listing 1):
//!
//! * [`json`] — the JSON interchange format for DAG applications:
//!   `AppName` / `SharedObject` / `Variables` / `DAG`, byte-for-byte in
//!   the shape of the paper's Listing 1 (including `bytes`, `is_ptr`,
//!   `ptr_alloc_bytes`, `val` variable descriptors and per-node
//!   `platforms` with `runfunc` and optional `shared_object` overrides).
//! * [`registry`] — the kernel registry, our safe substitute for the
//!   paper's `dlopen`'d shared objects: kernels are named Rust callables
//!   grouped under shared-object names, looked up during graph parsing.
//! * [`memory`] — per-instance variable storage. Each application
//!   instance owns an arena of named variables (scalar bytes or
//!   heap-style pointer allocations) with typed, lock-guarded accessors
//!   that kernels use through a [`memory::TaskCtx`].
//! * [`app`] — parsed and validated application specifications (DAG
//!   topology checks, symbol resolution, argument checking), each
//!   content-hashed once when built ([`hash`] holds the mixers), with
//!   their [`name`]s and CSR topology derived once when loaded.
//! * [`instance`] — instantiated applications: a spec plus freshly
//!   initialized memory and an arrival timestamp.
//! * [`workload`] — workload generation in the paper's two operation
//!   modes: *validation* (all instances injected at t=0) and
//!   *performance* (periodic probabilistic injection over a time frame).

pub mod app;
pub mod error;
pub mod hash;
pub mod instance;
pub mod json;
pub mod memory;
pub mod name;
pub mod registry;
pub mod workload;

pub use app::{AppLibrary, ApplicationSpec, NodeSpec, ResolvedPlatform};
pub use error::ModelError;
pub use instance::{AppInstance, InstanceId};
pub use json::{AppJson, NodeJson, PlatformJson, VariableJson};
pub use memory::{AccelPort, AppMemory, TaskCtx, VarDecls};
pub use name::Name;
pub use registry::{Kernel, KernelFn, KernelRegistry};
pub use workload::{Arrival, InjectionParams, OperationMode, Workload, WorkloadSpec};
