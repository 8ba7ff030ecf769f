//! Analytical PPA model and hardware design space for the 2-D spatial
//! accelerator template (the paper's open-source platform, Fig. 1).
//!
//! This crate plays the role MAESTRO plays in the paper: a fast
//! (sub-second) power / performance / area oracle for a hardware
//! configuration ([`HwConfig`]) executing a tensor loop nest under a
//! software [`Mapping`](unico_mapping::Mapping). It models:
//!
//! * **compute** — a `PE_x × PE_y` array doing one MAC per PE per cycle,
//!   with two loop dimensions unrolled spatially;
//! * **memory** — two-level tiling with order-dependent reuse: each
//!   tensor is re-fetched once per iteration of every loop it depends on,
//!   and once more for every independent loop wrapped *outside* its
//!   innermost dependent loop (the classic loop-centric traffic model);
//! * **dataflow** — weight- or output-stationary PE register files that
//!   remove the stationary tensor's L1-level re-fetch and downgrade its
//!   per-MAC access energy to register energy;
//! * **power** — event energies (MAC, register, L1, NoC, L2, DRAM)
//!   divided by latency;
//! * **area** — PE, SRAM and NoC area as a function of the configuration.
//!
//! The crate also defines the [`Platform`] abstraction the co-optimizer
//! is generic over, so the cycle-accurate Ascend-like simulator
//! (`unico-camodel`) plugs into the identical search machinery.
//!
//! # Example
//!
//! ```
//! use unico_model::{AnalyticalModel, HwConfig, Dataflow, TechParams};
//! use unico_workloads::TensorOp;
//! use unico_mapping::Mapping;
//!
//! let model = AnalyticalModel::new(TechParams::default());
//! let hw = HwConfig::new(8, 8, 2048, 256 * 1024, 128, Dataflow::WeightStationary);
//! let nest = TensorOp::Gemm { m: 256, n: 256, k: 256 }.to_loop_nest();
//! let mapping = Mapping::identity(&nest);
//! match model.evaluate(&hw, &mapping, &nest) {
//!     Ok(ppa) => println!("latency {} s, power {} mW", ppa.latency_s, ppa.power_mw),
//!     Err(e) => println!("infeasible: {e}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analytical;
mod batch;
mod disktier;
mod evalcache;
mod fused;
mod hw;
mod loopcentric;
mod platform;
mod ppa;
mod relaxed;
mod tech;
mod traffic;

pub use analytical::{AnalyticalModel, BoundSpatialCost, EvalBreakdown, MappingObjective};
pub use batch::MappingBatch;
pub use disktier::{DiskTier, DiskTierStats};
pub use evalcache::{
    spatial_eval_key, spatial_key_prefix, BatchStats, CacheStats, EngineTag, EvalCache, EvalKey,
    EvalKeyBuilder, EvalResult, TraceError, SHARD_COUNT, TRACE_HEADER,
};
pub use fused::{
    fused_member_key, FusedCostOracle, FusedGroupEval, FusedMember, FusedMemberCost, FusionPricer,
};
pub use hw::{Dataflow, HwConfig, HwSpace};
pub use loopcentric::{BoundLoopCentricCost, LevelBreakdown, LevelStats, LoopCentricModel};
pub use platform::{MappingTool, Platform, PpaEngine, SpatialPlatform};
pub use ppa::{EvalError, Ppa};
pub use relaxed::{relaxed_eval, relaxed_eval_with, RelaxedDiag, Rounding};
pub use tech::TechParams;
pub use traffic::{tensor_loads, TensorKind};
