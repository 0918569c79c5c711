//! One body, two compilations: the workspace's one run-time lane
//! dispatch.
//!
//! The release build targets baseline x86-64, so an element-wise loop
//! compiles to SSE2, 2 `f64` lanes wide. A [`Body`] holds such a loop
//! (or several) in its [`Body::run`], marked `#[inline(always)]`;
//! [`dispatch`] runs it either through `run_avx2`, a
//! `#[target_feature(enable = "avx2")]` function into which the body is
//! inlined and compiled a second time 4 lanes wide, or as the plain
//! baseline compilation. The AVX2 copy is taken when
//! `is_x86_feature_detected!("avx2")` reports AVX2 (a cached check, one
//! relaxed load after the first call); other architectures have only
//! the baseline copy. That call is the workspace's one `unsafe` block.
//!
//! **Both copies give the same bits** when the body's arithmetic is
//! element-wise IEEE add, sub, mul, div, compare and select, with no
//! floating-point reduction (LLVM never reorders one without fast-math
//! flags, so a sum stays a scalar chain in both copies). Only `avx2` is
//! enabled: not `fma` (Rust never contracts `a * b + c` into one
//! rounding, and without the feature no fused instruction exists), not
//! AVX-512.
//!
//! A body gains the wide copy only for code that is inlined into it:
//! everything [`Body::run`] calls in its loops must be
//! `#[inline(always)]` too (as `fastmath`'s slice kernels and
//! `dist::fill_standard_normal` are), or it runs its own baseline
//! compilation. The vector code appears only after ThinLTO, so look for
//! it in the linked binary (`objdump -d`, the `run_avx2`
//! monomorphizations), not in `--emit asm` output.
//!
//! Users: the v2 N-pair kernel (`wcs_capacity::NPairKernelV2`) and the
//! simulator's per-node medium passes (`wcs_sim::phy::Medium`). Each
//! has a test that runs both copies on the same inputs and compares
//! every output bit, through [`dispatch_on`].

/// A loop to run through [`dispatch`]. Implement [`Body::run`] with
/// `#[inline(always)]`, or it is called, not compiled into the AVX2
/// copy.
pub trait Body {
    /// Run the loop. Mark the implementation `#[inline(always)]`.
    fn run(self);
}

/// Run `body`, 4 lanes wide when the CPU has AVX2.
#[inline(always)]
pub fn dispatch<B: Body>(body: B) {
    dispatch_on(body, true);
}

/// [`dispatch`], taking the AVX2 copy only when `allow_avx2` is set and
/// the CPU has AVX2. Tests pass `false` to run the baseline copy on an
/// AVX2 machine.
#[inline(always)]
#[allow(unsafe_code)]
pub fn dispatch_on<B: Body>(body: B, allow_avx2: bool) {
    #[cfg(target_arch = "x86_64")]
    if allow_avx2 && avx2() {
        // SAFETY: `run_avx2` only requires AVX2, and `avx2()` just
        // confirmed through `is_x86_feature_detected!("avx2")` that this
        // CPU executes AVX2 instructions.
        return unsafe { run_avx2(body) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = allow_avx2;
    body.run();
}

/// Whether [`dispatch`] takes the AVX2 copy on this CPU.
#[inline]
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The compilation [`dispatch`] runs on this CPU: `"avx2"` or
/// `"baseline"` (for run logs).
pub fn compilation() -> &'static str {
    if avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// The body compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<B: Body>(body: B) {
    body.run();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Element-wise passes of the kinds the users run: add, clamp at
    /// zero, divide, compare-and-select.
    struct Passes<'a> {
        a: &'a mut [f64],
        g: &'a [f64],
        state: &'a mut [u64],
    }

    impl Body for Passes<'_> {
        #[inline(always)]
        fn run(self) {
            for (a, &g) in self.a.iter_mut().zip(self.g) {
                let left = *a - g * 0.75;
                *a = if left < 0.0 { 0.0 } else { left } + g / 3.0;
            }
            for ((st, &a), &g) in self.state.iter_mut().zip(self.a.iter()).zip(self.g) {
                let lock = (*st == u64::MAX) & (g >= 2.5 * (1e-3 + (a - g).max(0.0)));
                *st = if lock { 7 } else { *st };
            }
        }
    }

    #[test]
    fn both_compilations_agree_bitwise_at_every_tail() {
        // Lengths 0..=67 cover every partial 4-lane (and 2-lane) tail.
        // Without AVX2 both runs take the baseline copy.
        let mut rng = crate::rng::seeded_rng(0x1A4E5);
        for n in 0..=67 {
            use rand::Rng;
            let g: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1e-3).collect();
            let a0: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2e-3).collect();
            let s0: Vec<u64> = (0..n).map(|i| [u64::MAX, 3][i % 3 / 2]).collect();
            let run = |allow_avx2: bool| {
                let (mut a, mut state) = (a0.clone(), s0.clone());
                let body = Passes {
                    a: &mut a,
                    g: &g,
                    state: &mut state,
                };
                dispatch_on(body, allow_avx2);
                (a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), state)
            };
            assert_eq!(run(false), run(true), "n = {n}");
        }
    }
}
