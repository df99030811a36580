//! # dssoc-platform — emulated DSSoC hardware substrate
//!
//! Models the hardware side of the emulation: processing-element (PE)
//! descriptors, the software-simulated FFT accelerator with its DMA
//! transfer model (substituting for the paper's ZCU102 programmable-fabric
//! FFT behind AXI DMA / udmabuf), per-kernel cost tables, the
//! resource-manager *thread placement* rules of the paper (§II-D), and
//! ready-made platform presets for the two boards used in the case
//! studies: ZCU102 and Odroid XU3.
//!
//! Everything here is plain data + deterministic latency arithmetic; the
//! threads that animate these descriptors live in `dssoc-core`.

pub mod accel;
pub mod cost;
pub mod dma;
pub mod pe;
pub mod placement;
pub mod presets;

pub use accel::{AccelJobReport, FftAccelerator};
pub use cost::CostTable;
pub use dma::DmaModel;
pub use pe::{AccelModel, CpuModel, OverlayConfig, PeDescriptor, PeId, PeKind, PlatformConfig};
pub use placement::{Placement, SlotId};
pub use presets::{odroid_xu3, zcu102};
