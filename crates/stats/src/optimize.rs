//! Small-dimension optimisation: Nelder–Mead for the 3-parameter
//! censored ML fit of Figure 14.

/// Minimise `f` over ℝⁿ with the Nelder–Mead simplex method.
///
/// `x0` is the starting point, `scale` the initial simplex edge length.
/// Returns `(argmin, min)`. Standard coefficients (α=1, γ=2, ρ=½, σ=½).
pub fn nelder_mead_min<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    scale: f64,
    max_iter: usize,
    tol: f64,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert!(n >= 1);
    // Build initial simplex.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        v[i] += scale;
        simplex.push(v);
    }
    let mut fvals: Vec<f64> = simplex.iter().map(|v| f(v)).collect();

    for _ in 0..max_iter {
        // Order simplex by f value.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&i, &j| fvals[i].partial_cmp(&fvals[j]).unwrap());
        let reorder_s: Vec<Vec<f64>> = idx.iter().map(|&i| simplex[i].clone()).collect();
        let reorder_f: Vec<f64> = idx.iter().map(|&i| fvals[i]).collect();
        simplex = reorder_s;
        fvals = reorder_f;

        if (fvals[n] - fvals[0]).abs() <= tol * (1.0 + fvals[0].abs()) {
            break;
        }

        // Centroid of all but worst.
        let mut centroid = vec![0.0; n];
        for v in simplex.iter().take(n) {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / n as f64;
            }
        }
        let worst = simplex[n].clone();
        let combine = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };
        // Reflection.
        let xr = combine(&centroid, &worst, -1.0);
        let fr = f(&xr);
        if fr < fvals[0] {
            // Expansion.
            let xe = combine(&centroid, &worst, -2.0);
            let fe = f(&xe);
            if fe < fr {
                simplex[n] = xe;
                fvals[n] = fe;
            } else {
                simplex[n] = xr;
                fvals[n] = fr;
            }
        } else if fr < fvals[n - 1] {
            simplex[n] = xr;
            fvals[n] = fr;
        } else {
            // Contraction.
            let xc = combine(&centroid, &worst, 0.5);
            let fc = f(&xc);
            if fc < fvals[n] {
                simplex[n] = xc;
                fvals[n] = fc;
            } else {
                // Shrink toward best.
                let best = simplex[0].clone();
                for i in 1..=n {
                    simplex[i] = combine(&best, &simplex[i], 0.5);
                    fvals[i] = f(&simplex[i]);
                }
            }
        }
    }
    let mut best = 0;
    for i in 1..=n {
        if fvals[i] < fvals[best] {
            best = i;
        }
    }
    (simplex[best].clone(), fvals[best])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_rosenbrock() {
        let (x, v) = nelder_mead_min(
            |p| {
                let (a, b) = (p[0], p[1]);
                (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
            },
            &[-1.2, 1.0],
            0.5,
            5_000,
            1e-14,
        );
        assert!(
            (x[0] - 1.0).abs() < 1e-4 && (x[1] - 1.0).abs() < 1e-4,
            "{x:?}"
        );
        assert!(v < 1e-7);
    }

    #[test]
    fn nelder_mead_1d() {
        let (x, _) = nelder_mead_min(|p| (p[0] - 2.0).powi(2), &[10.0], 1.0, 1000, 1e-14);
        assert!((x[0] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn nelder_mead_3d_quadratic() {
        let (x, v) = nelder_mead_min(
            |p| (p[0] - 1.0).powi(2) + 2.0 * (p[1] + 2.0).powi(2) + 0.5 * (p[2] - 3.0).powi(2),
            &[0.0, 0.0, 0.0],
            1.0,
            5_000,
            1e-15,
        );
        assert!((x[0] - 1.0).abs() < 1e-4);
        assert!((x[1] + 2.0).abs() < 1e-4);
        assert!((x[2] - 3.0).abs() < 1e-4);
        assert!(v < 1e-6);
    }
}
