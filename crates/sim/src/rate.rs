//! Bitrate control.
//!
//! The paper's experiments pick rates by exhaustive sweep ("we repeat
//! every run at each of 6, 9, 12, 18, and 24 Mbps, independently
//! identifying the maximum throughput bitrate for each transmitter") —
//! that is [`RatePolicy::Fixed`] driven by the experiment harness. The
//! paper also leans on SampleRate \[Bicket05\] as the canonical adaptive
//! algorithm; [`SampleRate`] implements its core idea: transmit at the
//! rate with the best measured expected throughput, and periodically
//! sample other rates that could plausibly beat it.

use rand::Rng;
use wcs_capacity::rates::{Bitrate, RateTable};

/// SampleRate-style adaptation \[Bicket05\], simplified:
///
/// * maintain an EWMA delivery probability per rate (optimistic start),
/// * normally transmit at the rate maximising `mbps × P(success)`,
/// * every `sample_every`-th frame, transmit at a randomly chosen other
///   rate whose *lossless* throughput would beat the current champion —
///   the mechanism that lets the algorithm discover improvements without
///   wasting airtime on hopeless rates.
#[derive(Debug, Clone)]
pub struct SampleRate {
    table: RateTable,
    ewma_success: Vec<f64>,
    attempts: Vec<u64>,
    frames: u64,
    /// Sample a speculative rate every this many frames.
    pub sample_every: u64,
    /// EWMA smoothing factor (weight of the newest observation).
    pub alpha: f64,
}

impl SampleRate {
    /// New controller over `table` with the canonical parameters.
    pub fn new(table: RateTable) -> Self {
        let n = table.rates().len();
        SampleRate {
            table,
            ewma_success: vec![1.0; n], // optimistic: try everything once
            attempts: vec![0; n],
            frames: 0,
            sample_every: 10,
            alpha: 0.1,
        }
    }

    /// The rate currently believed best (no sampling).
    pub fn current_best(&self) -> Bitrate {
        let mut best = 0;
        let mut best_tp = f64::NEG_INFINITY;
        for (i, r) in self.table.rates().iter().enumerate() {
            let tp = r.mbps * self.ewma_success[i];
            if tp > best_tp {
                best_tp = tp;
                best = i;
            }
        }
        self.table.rates()[best]
    }

    /// Estimated delivery probability at `rate`.
    pub fn estimated_success(&self, rate: Bitrate) -> f64 {
        self.table
            .index_of(rate)
            .map(|i| self.ewma_success[i])
            .unwrap_or(0.0)
    }

    /// Choose the rate for the next data frame.
    pub fn pick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Bitrate {
        self.frames += 1;
        let best = self.current_best();
        let best_tp = best.mbps * self.estimated_success(best);
        if self.frames.is_multiple_of(self.sample_every) {
            // Candidate rates whose lossless throughput beats the champion.
            let candidates: Vec<Bitrate> = self
                .table
                .rates()
                .iter()
                .filter(|r| (r.mbps - best.mbps).abs() > 1e-9 && r.mbps > best_tp)
                .copied()
                .collect();
            if !candidates.is_empty() {
                return candidates[rng.gen_range(0..candidates.len())];
            }
        }
        best
    }

    /// Report the outcome of a frame sent at `rate`.
    pub fn feedback(&mut self, rate: Bitrate, success: bool) {
        if let Some(i) = self.table.index_of(rate) {
            self.attempts[i] += 1;
            let obs = if success { 1.0 } else { 0.0 };
            self.ewma_success[i] = (1.0 - self.alpha) * self.ewma_success[i] + self.alpha * obs;
        }
    }
}

/// A flow's bitrate selection policy, with per-frame feedback.
#[derive(Debug, Clone)]
pub enum RatePolicy {
    /// Always the same rate (the experiment harness sweeps these).
    Fixed(Bitrate),
    /// SampleRate adaptation.
    Sample(SampleRate),
}

impl RatePolicy {
    /// Fixed-rate policy at `mbps`.
    pub fn fixed(mbps: f64) -> Self {
        RatePolicy::Fixed(RateTable::fixed(mbps).base_rate())
    }

    /// SampleRate over the paper's {6,9,12,18,24} subset.
    pub fn sample_paper_subset() -> Self {
        RatePolicy::Sample(SampleRate::new(RateTable::paper_subset()))
    }

    /// Choose the next rate.
    pub fn pick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Bitrate {
        match self {
            RatePolicy::Fixed(rate) => *rate,
            RatePolicy::Sample(s) => s.pick(rng),
        }
    }

    /// Report an outcome.
    pub fn feedback(&mut self, rate: Bitrate, success: bool) {
        if let RatePolicy::Sample(s) = self {
            s.feedback(rate, success);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcs_capacity::rates::RATES_11A;
    use wcs_stats::rng::seeded_rng;

    #[test]
    fn fixed_rate_never_changes() {
        let mut rng = seeded_rng(1);
        let mut f = RatePolicy::Fixed(RATES_11A[2]);
        for _ in 0..100 {
            assert_eq!(f.pick(&mut rng).mbps, 12.0);
        }
    }

    #[test]
    fn samplerate_converges_to_best_feasible() {
        // Channel truth: rates up to 12 Mbps always succeed, higher never.
        let mut rng = seeded_rng(2);
        let mut s = SampleRate::new(RateTable::paper_subset());
        for _ in 0..2_000 {
            let r = s.pick(&mut rng);
            let success = r.mbps <= 12.0;
            s.feedback(r, success);
        }
        assert_eq!(s.current_best().mbps, 12.0, "{s:?}");
    }

    #[test]
    fn samplerate_tracks_channel_improvement() {
        let mut rng = seeded_rng(3);
        let mut s = SampleRate::new(RateTable::paper_subset());
        // Phase 1: only 6 Mbps works.
        for _ in 0..1_000 {
            let r = s.pick(&mut rng);
            s.feedback(r, r.mbps <= 6.0);
        }
        assert_eq!(s.current_best().mbps, 6.0);
        // Phase 2: channel improves; 24 Mbps now works.
        for _ in 0..3_000 {
            let r = s.pick(&mut rng);
            s.feedback(r, true);
        }
        assert_eq!(s.current_best().mbps, 24.0);
    }

    #[test]
    fn samplerate_prefers_reliable_lower_rate() {
        // 24 Mbps succeeds 30 % of the time (7.2 Mbps effective),
        // 12 Mbps always (12 Mbps effective) → should settle on 12.
        let mut rng = seeded_rng(4);
        let mut s = SampleRate::new(RateTable::paper_subset());
        for i in 0..5_000u64 {
            let r = s.pick(&mut rng);
            let success = if r.mbps > 12.0 { i % 10 < 3 } else { true };
            s.feedback(r, success);
        }
        let best = s.current_best().mbps;
        assert!(best == 12.0 || best == 9.0, "settled on {best}");
    }

    #[test]
    fn policy_wrappers_dispatch() {
        let mut rng = seeded_rng(5);
        let mut p = RatePolicy::fixed(18.0);
        assert_eq!(p.pick(&mut rng).mbps, 18.0);
        let mut q = RatePolicy::sample_paper_subset();
        let r = q.pick(&mut rng);
        q.feedback(r, true);
    }
}
