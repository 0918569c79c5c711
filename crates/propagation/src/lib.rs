//! # wcs-propagation — radio propagation substrate
//!
//! Implements the paper's §2 "path loss – shadowing – fading" model and the
//! supporting material of its appendix (§9):
//!
//! * 2-D geometry for the two-pair scenario, including the paper's
//!   interferer-distance formula Δr = √[(r cosθ + D)² + (r sinθ)²]
//!   ([`geometry`]),
//! * power-law path loss with exponent α ∈ [2, 4] typical ([`pathloss`]),
//! * lognormal shadowing with a *frozen field* abstraction so a simulated
//!   testbed sees one consistent draw per link, as a real building does
//!   ([`shadowing`]),
//! * Rayleigh/Rician multipath fading with wideband averaging
//!   ([`fading`]),
//! * knife-edge diffraction (§3.4's "weak signal rounds the corner")
//!   ([`diffraction`]),
//! * a composite [`model::PropagationModel`] that the capacity layer and
//!   the simulator both consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod diffraction;
pub mod fading;
pub mod geometry;
pub mod model;
pub mod pathloss;
pub mod shadowing;

pub use barrier::BarrierScenario;
pub use diffraction::knife_edge_loss_db;
pub use fading::Fading;
pub use geometry::{interferer_distance, Point2};
pub use model::{LinkDraw, PropagationModel};
pub use pathloss::PathLoss;
pub use shadowing::{ShadowField, Shadowing};
