//! DNN workload definitions for HW-SW co-optimization.
//!
//! This crate provides the *workload* side of the UNICO stack: tensor
//! operators ([`TensorOp`]), their canonical 7-D loop-nest form
//! ([`LoopNest`]), named [`Layer`]s, and whole [`Network`] layer tables for
//! every model used in the paper's evaluation (BERT, MobileNet family,
//! ResNet, SRGAN, UNet, ViT, Xception, VGG, NASNetMobile, EfficientNetV2,
//! ConvNeXt, ResUNet, FSRCNN and a DLEU-like upscaler).
//!
//! All dimensions are static; a workload is just data. Cost models and
//! mapping searchers consume [`LoopNest`]s, so any operator that can be
//! lowered to the canonical `(N, K, C, Y, X, R, S)` nest is supported.
//!
//! The crate also hosts [`json`], the workspace's one JSON codec: it is
//! the dependency-free leaf that every crate reading or writing JSON
//! already depends on.
//!
//! # Example
//!
//! ```
//! use unico_workloads::zoo;
//!
//! let net = zoo::resnet50();
//! assert!(net.total_macs() > 1_000_000_000);
//! for layer in net.layers() {
//!     let nest = layer.op().to_loop_nest();
//!     assert!(nest.macs() > 0);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frontend;
pub mod json;
mod layer;
mod nest;
mod network;
mod ops;
pub mod zoo;

pub use frontend::{FrontendError, FusionEdge, ImportedGraph};
pub use layer::Layer;
pub use nest::{Dim, LoopNest, DIM_COUNT};
pub use network::Network;
pub use ops::TensorOp;
