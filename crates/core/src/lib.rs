//! # wcs-core — the average-case analytical model of carrier sense
//!
//! This crate is the paper's primary contribution: a physically-motivated
//! model of two-sender carrier-sense behaviour, evaluated in expectation
//! over network configurations. On top of the per-configuration capacity
//! formulas of `wcs-capacity` it provides:
//!
//! * expected throughput ⟨Cᵢ⟩(Rmax, D) under every MAC policy, by
//!   Gauss–Legendre quadrature for σ = 0 and Monte Carlo with common
//!   random numbers for σ > 0 ([`average`]),
//! * the throughput-vs-D curves of Figures 4, 5 and 9 ([`curves`]),
//! * the capacity landscapes of Figure 2 ([`landscape`]),
//! * the receiver-preference/starvation maps of Figure 3 ([`preference`]),
//! * optimal-threshold solving, the Figure 7 threshold-vs-size study and
//!   the short/long-range regime machinery of §3.3.3 ([`threshold`],
//!   [`regimes`]),
//! * the hidden/exposed-terminal inefficiency decomposition of Figure 6
//!   ([`inefficiency`]),
//! * the §3.2.5 efficiency tables and their α/σ sensitivity sweeps
//!   ([`efficiency`], [`sensitivity`]),
//! * the §3.4 shadowing worked example ([`shadowing_example`]),
//! * fairness and starvation metrics ([`fairness`]),
//! * N-pair topology aggregates — per-policy mean, worst-pair and Jain
//!   fairness statistics over N mutually interfering pairs ([`npair`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod average;
pub mod curves;
pub mod distribution;
pub mod efficiency;
pub mod fairness;
pub mod fixed_bitrate;
pub mod inefficiency;
pub mod landscape;
pub mod npair;
pub mod params;
pub mod preference;
pub mod regimes;
pub mod sensitivity;
pub mod shadowing_example;
pub mod threshold;

pub use average::{
    mc_averages, mc_averages_v2, quad_concurrency, quad_multiplexing, PolicyAverages,
};
pub use curves::{throughput_curves, CurvePoint, ThroughputCurves};
pub use efficiency::{cs_efficiency, efficiency_table, EfficiencyCell, EfficiencyTable};
pub use npair::{mc_averages_npair, mc_averages_npair_v2, NPairAverages, NPairPolicyStats};
pub use params::{ModelParams, StreamLayout};
pub use regimes::{classify_regime, RangeRegime};
pub use threshold::{
    equivalent_distance_alpha3, optimal_threshold, optimal_threshold_sigma0,
    short_range_asymptotic_threshold,
};
