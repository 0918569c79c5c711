//! Shannon capacity as a throughput proxy.
//!
//! The paper (§2): "we employ the Shannon capacity formula
//! Capacity/Bandwidth = log(1 + SNR), which represents a theoretical upper
//! bound but in practice can be used as a rough proportional estimate",
//! with the assumption (§3.2.1) that "nodes are able to achieve capacity
//! following the rough shape of Shannon capacity (less by some constant
//! fraction) through bitrate adaptation".

use serde::{Deserialize, Serialize};

/// Shannon spectral efficiency log₂(1 + SNR) in bits/s/Hz.
///
/// `snr` is linear (not dB) and must be ≥ 0.
#[inline]
pub fn shannon_capacity(snr: f64) -> f64 {
    debug_assert!(snr >= 0.0, "negative SNR {snr}");
    (1.0 + snr).log2()
}

/// Shannon capacity on the **v2 stream layout**: same formula as
/// [`shannon_capacity`] but through the deterministic
/// [`wcs_stats::fastmath::fast_log2`] kernel, so the v2 draw path never
/// enters libm. Only v2 kernels call this; v1 keeps `f64::log2`.
#[inline]
pub fn shannon_capacity_v2(snr: f64) -> f64 {
    debug_assert!(snr >= 0.0, "negative SNR {snr}");
    wcs_stats::fastmath::fast_log2(1.0 + snr)
}

/// A practical capacity model: Shannon shape scaled by a constant
/// implementation-efficiency fraction and optionally clipped at the
/// radio's top modulation (real radios cannot exploit unbounded SNR —
/// the §3.3.2 fixed-bitrate discussion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityModel {
    /// Fraction of Shannon achieved (0 < efficiency ≤ 1).
    pub efficiency: f64,
    /// Optional cap in bits/s/Hz (e.g. 802.11a 54 Mbps in 20 MHz ≈ 2.7).
    pub max_spectral_efficiency: Option<f64>,
}

impl CapacityModel {
    /// Pure Shannon (the paper's analytical setting).
    pub const SHANNON: CapacityModel = CapacityModel {
        efficiency: 1.0,
        max_spectral_efficiency: None,
    };

    /// Create a scaled model.
    pub fn with_efficiency(efficiency: f64) -> Self {
        assert!(efficiency > 0.0 && efficiency <= 1.0);
        CapacityModel {
            efficiency,
            max_spectral_efficiency: None,
        }
    }

    /// Add a top-rate cap in bits/s/Hz.
    pub fn capped(mut self, cap: f64) -> Self {
        assert!(cap > 0.0);
        self.max_spectral_efficiency = Some(cap);
        self
    }

    /// Capacity (bits/s/Hz) at linear SNR.
    #[inline]
    pub fn capacity(&self, snr: f64) -> f64 {
        let c = self.efficiency * shannon_capacity(snr);
        match self.max_spectral_efficiency {
            Some(cap) => c.min(cap),
            None => c,
        }
    }

    /// Capacity on the v2 stream layout (via [`shannon_capacity_v2`]).
    #[inline]
    pub fn capacity_v2(&self, snr: f64) -> f64 {
        let c = self.efficiency * shannon_capacity_v2(snr);
        match self.max_spectral_efficiency {
            Some(cap) => c.min(cap),
            None => c,
        }
    }

    /// Batched [`Self::capacity_v2`]: replaces every linear SNR in
    /// `snrs` with its capacity, in place.
    ///
    /// The log₂ pass runs through the vectorizable
    /// [`wcs_stats::fastmath::fast_log2_slice`] kernel; every element is
    /// bit-identical to the scalar `capacity_v2` (same `1 + snr`,
    /// `fast_log2`, efficiency-scale and cap-clip arithmetic in the same
    /// order). The v2 Monte Carlo kernels use this to score a whole
    /// configuration's per-pair policies in one sweep.
    #[inline(always)]
    pub fn capacity_v2_batch(&self, snrs: &mut [f64]) {
        for s in snrs.iter_mut() {
            debug_assert!(*s >= 0.0, "negative SNR {s}");
            *s += 1.0;
        }
        wcs_stats::fastmath::fast_log2_slice(snrs);
        match self.max_spectral_efficiency {
            Some(cap) => {
                for s in snrs.iter_mut() {
                    *s = (self.efficiency * *s).min(cap);
                }
            }
            None => {
                for s in snrs.iter_mut() {
                    *s *= self.efficiency;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_points() {
        assert_eq!(shannon_capacity(0.0), 0.0);
        assert!((shannon_capacity(1.0) - 1.0).abs() < 1e-12);
        assert!((shannon_capacity(3.0) - 2.0).abs() < 1e-12);
        // 20 dB SNR → log2(101) ≈ 6.658.
        assert!((shannon_capacity(100.0) - 6.658_211_482_751_795).abs() < 1e-10);
    }

    #[test]
    fn v2_capacity_tracks_v1_closely() {
        let models = [
            CapacityModel::SHANNON,
            CapacityModel::with_efficiency(0.5),
            CapacityModel::SHANNON.capped(2.7),
        ];
        for m in models {
            for &snr in &[0.0, 1e-9, 0.3, 1.0, 3.0, 100.0, 1e6] {
                let v1 = m.capacity(snr);
                let v2 = m.capacity_v2(snr);
                assert!(
                    (v1 - v2).abs() <= 1e-12 * v1.max(1.0),
                    "snr {snr}: {v1} vs {v2}"
                );
            }
        }
    }

    #[test]
    fn batched_capacity_matches_scalar_bitwise() {
        let models = [
            CapacityModel::SHANNON,
            CapacityModel::with_efficiency(0.5),
            CapacityModel::SHANNON.capped(2.7),
        ];
        let snrs: Vec<f64> = (0..500).map(|i| i as f64 * 0.37 + 1e-9).collect();
        for m in models {
            let mut batch = snrs.clone();
            m.capacity_v2_batch(&mut batch);
            for (snr, got) in snrs.iter().zip(&batch) {
                assert_eq!(got.to_bits(), m.capacity_v2(*snr).to_bits(), "snr {snr}");
            }
        }
    }

    #[test]
    fn efficiency_scales() {
        let m = CapacityModel::with_efficiency(0.5);
        assert!((m.capacity(3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cap_clips_high_snr_only() {
        let m = CapacityModel::SHANNON.capped(2.7);
        assert!((m.capacity(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(m.capacity(1e6), 2.7);
    }

    proptest! {
        #[test]
        fn monotone_in_snr(a in 0.0..1e4f64, delta in 1e-6..1e4f64) {
            prop_assert!(shannon_capacity(a + delta) > shannon_capacity(a));
        }

        #[test]
        fn concavity_doubling_snr_less_than_doubling_capacity(snr in 0.1..1e4f64) {
            // log(1+2s) < 2 log(1+s): concavity, the root of the paper's
            // "adaptive bitrate beats concurrency at high SNR" argument.
            prop_assert!(shannon_capacity(2.0 * snr) < 2.0 * shannon_capacity(snr));
        }

        #[test]
        fn low_snr_linear_regime(snr in 1e-9..1e-3f64) {
            // At low SNR capacity ≈ snr/ln2: halving power ≈ halving rate,
            // which is why concurrency wins in the extreme long range.
            let c = shannon_capacity(snr);
            let lin = snr / std::f64::consts::LN_2;
            prop_assert!((c - lin).abs() / lin < 1e-3);
        }
    }
}
