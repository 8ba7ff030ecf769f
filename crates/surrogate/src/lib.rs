//! Multi-objective Bayesian-optimization machinery for UNICO.
//!
//! Everything here is model-agnostic: inputs are plain feature vectors in
//! `[0, 1]^d` and outputs are objective vectors to be *minimized*. The
//! crate provides, from scratch (no external linear-algebra dependency):
//!
//! * [`linalg`] — dense matrices, Cholesky factorization, triangular
//!   solves;
//! * [`GaussianProcess`] — a GP regressor with squared-exponential /
//!   Matérn-5/2 kernels and log-marginal-likelihood hyperparameter
//!   fitting;
//! * [`scalarize`] — ParEGO-style augmented-Tchebycheff scalarization of
//!   objective vectors (the paper's Eq. 1);
//! * acquisition functions (expected improvement, UCB) with
//!   kriging-believer batch selection;
//! * [`pareto`] — non-dominated sorting, Pareto-front maintenance and
//!   crowding distances;
//! * [`hypervolume`] — exact hypervolume in 2-D/3-D and a recursive
//!   WFG-style algorithm for higher dimensions, plus the hypervolume
//!   *difference* metric used by the paper's Fig. 7/10.
//!
//! # Example: one Bayesian-optimization step
//!
//! ```
//! use rand::SeedableRng;
//! use unico_surrogate::{GaussianProcess, KernelKind, expected_improvement};
//!
//! let xs = vec![vec![0.1], vec![0.5], vec![0.9]];
//! let ys = vec![1.0, 0.2, 0.8];
//! let mut gp = GaussianProcess::new(KernelKind::Matern52, 1);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! gp.fit(&xs, &ys, &mut rng).unwrap();
//! let (mean, var) = gp.predict(&[0.52]);
//! assert!(var >= 0.0);
//! let ei = expected_improvement(mean, var, 0.2);
//! assert!(ei >= 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod acquisition;
mod gp;
pub mod hypervolume;
mod kernel;
pub mod linalg;
pub mod pareto;
pub mod scalarize;

pub use acquisition::{expected_improvement, select_batch, ucb, AcquisitionKind};
pub use gp::{GaussianProcess, GpError, PoolPosterior};
pub use kernel::{Kernel, KernelKind};
