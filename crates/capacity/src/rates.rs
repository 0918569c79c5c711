//! Discrete 802.11a/g bitrates with SNR requirements.
//!
//! The paper's experiments sweep {6, 9, 12, 18, 24} Mbps in 11a mode
//! (§4: higher rates performed poorly under their carrier-sense-disabling
//! driver), and its theory leans on the qualitative difference between a
//! smooth Shannon curve and a *staircase* of fixed modulations (§3.3.2).
//! This module provides the staircase: each [`Bitrate`] carries its OFDM
//! parameters and a minimum SNR, and [`RateTable`] maps SNR → best rate.
//!
//! The SNR thresholds are the conventional AWGN figures for ≈1 % PER at
//! 1000-byte frames (Heiskala & Terry, *OFDM Wireless LANs*, table-level
//! accuracy); absolute values matter less than their ~3 dB spacing.

use serde::Serialize;

/// One 802.11a OFDM rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Bitrate {
    /// Nominal rate in Mbit/s.
    pub mbps: f64,
    /// Data bits carried per 4 µs OFDM symbol.
    pub bits_per_symbol: u32,
    /// Minimum SNR (dB) for reliable reception (≈1 % PER).
    pub min_snr_db: f64,
    /// Modulation/coding label.
    pub label: &'static str,
}

/// The full 802.11a rate set.
pub const RATES_11A: [Bitrate; 8] = [
    Bitrate {
        mbps: 6.0,
        bits_per_symbol: 24,
        min_snr_db: 5.0,
        label: "BPSK 1/2",
    },
    Bitrate {
        mbps: 9.0,
        bits_per_symbol: 36,
        min_snr_db: 6.0,
        label: "BPSK 3/4",
    },
    Bitrate {
        mbps: 12.0,
        bits_per_symbol: 48,
        min_snr_db: 8.0,
        label: "QPSK 1/2",
    },
    Bitrate {
        mbps: 18.0,
        bits_per_symbol: 72,
        min_snr_db: 11.0,
        label: "QPSK 3/4",
    },
    Bitrate {
        mbps: 24.0,
        bits_per_symbol: 96,
        min_snr_db: 14.0,
        label: "16QAM 1/2",
    },
    Bitrate {
        mbps: 36.0,
        bits_per_symbol: 144,
        min_snr_db: 18.0,
        label: "16QAM 3/4",
    },
    Bitrate {
        mbps: 48.0,
        bits_per_symbol: 192,
        min_snr_db: 22.0,
        label: "64QAM 2/3",
    },
    Bitrate {
        mbps: 54.0,
        bits_per_symbol: 216,
        min_snr_db: 24.0,
        label: "64QAM 3/4",
    },
];

/// The 802.11a rate of `mbps` Mbit/s, if there is one.
pub fn rate_11a(mbps: f64) -> Option<Bitrate> {
    RATES_11A
        .iter()
        .find(|r| (r.mbps - mbps).abs() < 1e-9)
        .copied()
}

/// A set of available bitrates, sorted ascending by rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RateTable {
    rates: Vec<Bitrate>,
}

impl RateTable {
    /// All eight 802.11a rates.
    pub fn full_11a() -> Self {
        RateTable {
            rates: RATES_11A.to_vec(),
        }
    }

    /// The paper's experimental subset: 6/9/12/18/24 Mbps (§4).
    pub fn paper_subset() -> Self {
        RateTable {
            rates: RATES_11A[..5].to_vec(),
        }
    }

    /// A single fixed rate (for fixed-bitrate baselines). Panics unless
    /// `mbps` is an 802.11a rate (see [`rate_11a`]).
    pub fn fixed(mbps: f64) -> Self {
        let r = rate_11a(mbps).unwrap_or_else(|| panic!("no 802.11a rate {mbps} Mbps"));
        RateTable { rates: vec![r] }
    }

    /// Build from an explicit rate list (must be non-empty, ascending).
    pub fn new(rates: Vec<Bitrate>) -> Self {
        assert!(!rates.is_empty());
        assert!(rates.windows(2).all(|w| w[0].mbps < w[1].mbps));
        RateTable { rates }
    }

    /// The available rates, ascending.
    pub fn rates(&self) -> &[Bitrate] {
        &self.rates
    }

    /// The lowest (base) rate.
    pub fn base_rate(&self) -> Bitrate {
        self.rates[0]
    }

    /// The fastest rate whose SNR requirement is met, or `None` if even
    /// the base rate can't decode at this SNR.
    pub fn best_rate_for_snr_db(&self, snr_db: f64) -> Option<Bitrate> {
        self.rates
            .iter()
            .rev()
            .find(|r| snr_db >= r.min_snr_db)
            .copied()
    }

    /// Index of a rate within this table.
    pub fn index_of(&self, rate: Bitrate) -> Option<usize> {
        self.rates
            .iter()
            .position(|r| (r.mbps - rate.mbps).abs() < 1e-9)
    }

    /// Ideal staircase throughput at `snr_db`, in Mbit/s — the fixed-rate
    /// analogue of Shannon capacity used in the §3.3.2 discussion of why
    /// fixed modulation turns smooth SNR gradients into throughput cliffs.
    pub fn staircase_throughput_mbps(&self, snr_db: f64) -> f64 {
        self.best_rate_for_snr_db(snr_db).map_or(0.0, |r| r.mbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rate_11a_finds_only_real_rates() {
        assert_eq!(rate_11a(24.0), Some(RATES_11A[4]));
        for bogus in [7.0, 0.0, -6.0, f64::NAN, f64::INFINITY] {
            assert_eq!(rate_11a(bogus), None, "{bogus}");
        }
    }

    #[test]
    fn tables_sorted_and_consistent() {
        let t = RateTable::full_11a();
        assert_eq!(t.rates().len(), 8);
        assert!(t.rates().windows(2).all(|w| w[0].mbps < w[1].mbps));
        assert!(t
            .rates()
            .windows(2)
            .all(|w| w[0].min_snr_db < w[1].min_snr_db));
        for r in t.rates() {
            // mbps = bits_per_symbol / 4 µs.
            assert!(
                (r.mbps - r.bits_per_symbol as f64 / 4.0).abs() < 1e-9,
                "{}",
                r.label
            );
        }
    }

    #[test]
    fn paper_subset_is_6_to_24() {
        let t = RateTable::paper_subset();
        assert_eq!(t.base_rate().mbps, 6.0);
        assert_eq!(t.rates().len(), 5);
    }

    #[test]
    fn best_rate_selection() {
        let t = RateTable::full_11a();
        assert_eq!(t.best_rate_for_snr_db(4.0), None);
        assert_eq!(t.best_rate_for_snr_db(5.0).unwrap().mbps, 6.0);
        assert_eq!(t.best_rate_for_snr_db(13.9).unwrap().mbps, 18.0);
        assert_eq!(t.best_rate_for_snr_db(26.0).unwrap().mbps, 54.0);
        assert_eq!(t.best_rate_for_snr_db(100.0).unwrap().mbps, 54.0);
    }

    #[test]
    fn staircase_throughput() {
        let t = RateTable::paper_subset();
        assert_eq!(t.staircase_throughput_mbps(0.0), 0.0);
        assert_eq!(t.staircase_throughput_mbps(9.0), 12.0);
        assert_eq!(t.staircase_throughput_mbps(30.0), 24.0);
    }

    #[test]
    fn fixed_table() {
        let t = RateTable::fixed(6.0);
        assert_eq!(t.rates().len(), 1);
        assert_eq!(t.staircase_throughput_mbps(40.0), 6.0);
    }

    #[test]
    #[should_panic]
    fn fixed_rejects_unknown_rate() {
        let _ = RateTable::fixed(7.0);
    }

    proptest! {
        #[test]
        fn staircase_monotone(a in -5.0..40.0f64, delta in 0.0..20.0f64) {
            let t = RateTable::full_11a();
            prop_assert!(
                t.staircase_throughput_mbps(a + delta) >= t.staircase_throughput_mbps(a)
            );
        }
    }
}
