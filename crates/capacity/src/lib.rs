//! # wcs-capacity — link capacity models
//!
//! The paper's throughput abstraction (§2, §3.2.2): Shannon capacity
//! `log(1 + SNR)` as "a rough proportional estimate" of what an adaptive-
//! bitrate radio achieves, plus the per-configuration two-pair capacity
//! functions
//!
//! * `C_single(r, θ)`   — a lone sender,
//! * `C_multiplexing`   — ideal TDMA between the two senders (half each),
//! * `C_concurrent`     — both transmit; interference adds to the noise,
//! * `C_cs`             — the carrier-sense piecewise choice,
//! * `C_max` / `C_UBmax`— the optimal MAC and its single-pair upper bound,
//!
//! and the *discrete* 802.11a/g bitrate machinery (SNR thresholds,
//! rate-capped capacity) used by the simulator and by the "fixed bitrate
//! makes carrier sense look bad" arguments of §3.3.2.
//!
//! The two-pair model generalizes to N mutually interfering pairs in
//! [`npair`]: an N×N cross-gain matrix, per-pair SINR/rate computation,
//! and contention-degree carrier sense for more than two contenders,
//! with N = 2 reducing bitwise to [`TwoPairScenario`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod npair;
pub mod policy;
pub mod rates;
pub mod shannon;
pub mod twopair;

pub use npair::{
    sender_positions, NPairKernel, NPairKernelV2, NPairScenario, NPairTopology, Placement,
};
pub use policy::MacPolicy;
pub use rates::{Bitrate, RateTable};
pub use shannon::{shannon_capacity, shannon_capacity_v2, CapacityModel};
pub use twopair::{
    CsDecision, PairSample, ShadowDraws, TwoPairKernel, TwoPairKernelV2, TwoPairSampleScores,
    TwoPairScenario,
};
