//! Piecewise-linear interpolation tables.
//!
//! The threshold optimiser samples the concurrency − multiplexing curve
//! once on a grid and root-finds on its interpolant.

/// A piecewise-linear function defined by sorted knots.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterp {
    /// Build from knot vectors; `xs` must be strictly increasing and the
    /// same length as `ys` (≥ 2 points).
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert!(xs.len() >= 2, "need at least two knots");
        assert!(
            xs.windows(2).all(|w| w[0] < w[1]),
            "knot abscissae must be strictly increasing"
        );
        LinearInterp { xs, ys }
    }

    /// Evaluate with constant extrapolation beyond the knot range.
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= *self.xs.last().unwrap() {
            return *self.ys.last().unwrap();
        }
        // Binary search for the bracketing interval.
        let i = match self.xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
            Ok(i) => return self.ys[i],
            Err(i) => i - 1,
        };
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_at_knots_and_between() {
        let li = LinearInterp::new(vec![0.0, 1.0, 3.0], vec![0.0, 10.0, 30.0]);
        assert_eq!(li.eval(0.0), 0.0);
        assert_eq!(li.eval(1.0), 10.0);
        assert!((li.eval(2.0) - 20.0).abs() < 1e-12);
        assert!((li.eval(0.25) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn constant_extrapolation() {
        let li = LinearInterp::new(vec![1.0, 2.0], vec![5.0, 6.0]);
        assert_eq!(li.eval(0.0), 5.0);
        assert_eq!(li.eval(100.0), 6.0);
    }

    #[test]
    #[should_panic]
    fn rejects_unsorted_knots() {
        let _ = LinearInterp::new(vec![0.0, 0.0], vec![1.0, 2.0]);
    }
}
