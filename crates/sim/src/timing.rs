//! 802.11a MAC/PHY timing constants and frame-duration arithmetic.
//!
//! OFDM PHY parameters per IEEE 802.11-2007 clause 17: 9 µs slot, 16 µs
//! SIFS, DIFS = SIFS + 2·slot = 34 µs, 20 µs PLCP preamble + SIGNAL, 4 µs
//! data symbols. Frame airtime is
//! `20 µs + ⌈(16 + 8·MPDU + 6) / NDBPS⌉ · 4 µs`
//! (16 service bits, 6 tail bits, NDBPS data bits per symbol).

use crate::time::Duration;
use wcs_capacity::rates::Bitrate;

/// One slot time (µs).
pub const SLOT: Duration = Duration::from_micros(9);
/// Short interframe space (µs).
pub const SIFS: Duration = Duration::from_micros(16);
/// DCF interframe space = SIFS + 2 slots (µs).
pub const DIFS: Duration = Duration::from_micros(34);
/// PLCP preamble + SIGNAL field (µs).
pub const PLCP_PREAMBLE: Duration = Duration::from_micros(20);
/// OFDM symbol duration (µs).
pub const SYMBOL: Duration = Duration::from_micros(4);
/// Minimum contention window (slots) for 802.11a DCF.
pub const CW_MIN: u32 = 15;
/// Maximum contention window (slots).
pub const CW_MAX: u32 = 1023;
/// MAC header + FCS overhead added to the payload, bytes (24 + 4, plus
/// LLC/SNAP 8 to mirror a UDP-style test frame, matching the testbed's
/// 1400-byte payloads producing ≈1432-byte MPDUs).
pub const MAC_OVERHEAD_BYTES: usize = 32;
/// ACK frame MPDU size (bytes).
pub const ACK_BYTES: usize = 14;
/// RTS frame MPDU size (bytes).
pub const RTS_BYTES: usize = 20;
/// CTS frame MPDU size (bytes).
pub const CTS_BYTES: usize = 14;
/// The largest payload a data frame can carry: 802.11a's PLCP LENGTH
/// field is 12 bits, so an MPDU is at most 4095 bytes, less the MAC
/// overhead. A spec read from outside input is refused above it where it
/// is parsed, since frame sizes beyond it overflow the airtime arithmetic.
pub const MAX_PAYLOAD_BYTES: usize = 4095 - MAC_OVERHEAD_BYTES;

/// Airtime of an MPDU of `mpdu_bytes` at `rate`.
pub fn mpdu_airtime(mpdu_bytes: usize, rate: Bitrate) -> Duration {
    let bits = 16 + 8 * mpdu_bytes as u64 + 6;
    let symbols = bits.div_ceil(rate.bits_per_symbol as u64);
    PLCP_PREAMBLE + SYMBOL * symbols
}

/// Airtime of a data frame carrying `payload_bytes` at `rate`.
pub fn data_frame_airtime(payload_bytes: usize, rate: Bitrate) -> Duration {
    mpdu_airtime(payload_bytes + MAC_OVERHEAD_BYTES, rate)
}

/// Airtime of an ACK at `rate` (control frames use the base rate in
/// practice; callers pass the right one).
pub fn ack_airtime(rate: Bitrate) -> Duration {
    mpdu_airtime(ACK_BYTES, rate)
}

/// Airtime of an RTS at `rate`.
pub fn rts_airtime(rate: Bitrate) -> Duration {
    mpdu_airtime(RTS_BYTES, rate)
}

/// Airtime of a CTS at `rate`.
pub fn cts_airtime(rate: Bitrate) -> Duration {
    mpdu_airtime(CTS_BYTES, rate)
}

/// Ideal saturation throughput for a lone broadcast sender, frames/s:
/// one frame per (DIFS + E\[backoff\] + airtime) with E\[backoff\] =
/// CW_MIN/2 slots. Used as a sanity anchor in tests and docs.
pub fn ideal_broadcast_rate(payload_bytes: usize, rate: Bitrate) -> f64 {
    let air = data_frame_airtime(payload_bytes, rate);
    let cycle = DIFS.as_micros() as f64
        + (CW_MIN as f64 / 2.0) * SLOT.as_micros() as f64
        + air.as_micros() as f64;
    1e6 / cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_capacity::rates::RATES_11A;

    #[test]
    fn known_airtimes() {
        // 1400-byte payload → 1432-byte MPDU → 11478 bits.
        // At 6 Mbps (24 bits/symbol): ⌈11478/24⌉ = 479 symbols → 1936 µs.
        assert_eq!(
            data_frame_airtime(1400, RATES_11A[0]),
            Duration::from_micros(20 + 479 * 4)
        );
        // At 24 Mbps (96 bits/symbol): ⌈11478/96⌉ = 120 symbols → 500 µs.
        assert_eq!(
            data_frame_airtime(1400, RATES_11A[4]),
            Duration::from_micros(20 + 120 * 4)
        );
        // At 54 Mbps (216): ⌈11478/216⌉ = 54 symbols → 236 µs.
        assert_eq!(
            data_frame_airtime(1400, RATES_11A[7]),
            Duration::from_micros(20 + 54 * 4)
        );
    }

    #[test]
    fn ack_airtime_small() {
        // ACK at 6 Mbps: 14 bytes → 134 bits → ⌈134/24⌉ = 6 symbols → 44 µs.
        assert_eq!(ack_airtime(RATES_11A[0]), Duration::from_micros(44));
    }

    #[test]
    fn difs_is_sifs_plus_two_slots() {
        assert_eq!(DIFS, SIFS + SLOT + SLOT);
    }

    #[test]
    fn airtime_decreases_with_rate() {
        let mut prev = Duration::from_secs(100);
        for r in RATES_11A {
            let a = data_frame_airtime(1400, r);
            assert!(a < prev, "{}: {a}", r.label);
            prev = a;
        }
    }

    #[test]
    fn ideal_rates_match_paper_ballpark() {
        // §4.1's best observed carrier-sense totals are ~1700–3300 pkt/s
        // (two senders); a lone 24 Mbps broadcaster should manage ≈1600+.
        let r24 = ideal_broadcast_rate(1400, RATES_11A[4]);
        assert!((1_500.0..1_900.0).contains(&r24), "{r24}");
        let r6 = ideal_broadcast_rate(1400, RATES_11A[0]);
        assert!((450.0..550.0).contains(&r6), "{r6}");
    }
}
