//! # wcs-stats — numerics substrate
//!
//! Everything numerical that the carrier-sense model and the wireless
//! simulator need, implemented from scratch on top of [`rand`]:
//!
//! * deterministic, stream-splittable RNG plumbing ([`rng`]),
//! * the special functions required by lognormal-shadowing analysis
//!   (`erf`, the normal CDF and its inverse) ([`special`]),
//! * samplers for the propagation distributions — normal, lognormal-in-dB,
//!   Rayleigh, Rician ([`dist`]),
//! * Monte Carlo integration with running standard error ([`montecarlo`]),
//! * deterministic Gauss–Legendre quadrature for the no-shadowing model
//!   ([`quadrature`]),
//! * bisection/Brent root finding ([`rootfind`]),
//! * Nelder–Mead optimisation ([`optimize`]),
//! * censored maximum-likelihood fitting of the path-loss + shadowing model
//!   (paper Figure 14) ([`fit`]),
//! * descriptive statistics and interpolation tables ([`summary`],
//!   [`interp`]),
//! * the one run-time lane dispatch, which runs an element-wise loop
//!   4 lanes wide under AVX2 and bit-identical to its baseline
//!   compilation ([`lanes`]).
//!
//! The paper evaluated its model "in Maple with Monte Carlo integration"
//! (§3.2.5); this crate is the Rust equivalent of that computational layer,
//! with deterministic seeding so that every figure in the reproduction is
//! bit-for-bit repeatable.

// `lanes::dispatch_on` holds the workspace's one `unsafe` block.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod fastmath;
pub mod fit;
pub mod interp;
pub mod lanes;
pub mod montecarlo;
pub mod optimize;
pub mod quadrature;
pub mod rng;
pub mod rootfind;
pub mod special;
pub mod summary;

pub use dist::{fill_standard_normal, standard_normal_v2, LogNormalDb, Rayleigh, Rician};
pub use fastmath::{fast_exp, fast_ln, fast_log2};
pub use fit::{fit_pathloss_shadowing, PathLossFit, RssiSample};
pub use interp::LinearInterp;
pub use montecarlo::{MonteCarlo, MonteCarloEstimate};
pub use optimize::nelder_mead_min;
pub use quadrature::{gauss_legendre, integrate_polar_disc};
pub use rng::{seeded_rng, split_rng, SeedStream};
pub use rootfind::{bisect, brent};
pub use special::{erf, erfc, norm_cdf};
pub use summary::Summary;
