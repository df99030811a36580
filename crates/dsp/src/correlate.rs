//! Cross-correlation, both direct and FFT-based.
//!
//! Range detection computes `xcorr(rx, ref)` through the classic
//! `IFFT(FFT(rx) .* conj(FFT(ref)))` pipeline — exactly the DAG of Fig. 2
//! in the paper (FFT, FFT, complex conjugate, vector multiply, IFFT, find
//! maximum). The helpers here are the glue the application kernels reuse.

use crate::complex::Complex32;
use crate::fft::{
    fft_in_place, ifft_in_place, next_pow2, vector_conjugate, vector_multiply, zero_pad,
};
use crate::util::argmax_magnitude;

/// A correlation peak: `lag` is the shift of `b` relative to `a` that
/// maximizes the correlation magnitude, `value` is the peak sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample lag where the correlation peaks.
    pub lag: isize,
    /// Peak correlation value.
    pub value: Complex32,
}

/// Circular cross-correlation of two equal-length signals via FFT.
///
/// Returns `c[k] = sum_n a[n+k] * conj(b[n])` (indices mod N). The signals
/// are zero-padded to the next power of two >= `a.len() + b.len() - 1` so
/// circular wrap-around does not alias the linear correlation peak.
pub fn xcorr_fft(a: &[Complex32], b: &[Complex32]) -> Vec<Complex32> {
    assert!(!a.is_empty() && !b.is_empty(), "xcorr of empty signal");
    let n = next_pow2(a.len() + b.len() - 1);
    let mut fa = zero_pad(a, n);
    let mut fb = zero_pad(b, n);
    fft_in_place(&mut fa);
    fft_in_place(&mut fb);
    let mut conj_b = vec![Complex32::ZERO; n];
    vector_conjugate(&fb, &mut conj_b);
    let mut prod = vec![Complex32::ZERO; n];
    vector_multiply(&fa, &conj_b, &mut prod);
    ifft_in_place(&mut prod);
    prod
}

/// Direct `O(n*m)` linear cross-correlation over non-negative lags:
/// `c[k] = sum_n a[n+k] * conj(b[n])` for `k in 0..a.len()`, each lag's
/// taps summed in order of `n` over the samples of `a` they overlap.
///
/// All lags advance together, one tap at a time, over split re/im
/// slices: tap `n` reaches lags `0..a.len() - n`, a contiguous run the
/// compiler vectorizes. Each lag still adds the same products in the
/// same order, so every value is what a one-lag-at-a-time loop
/// computes, bit for bit. Also the reference used to validate
/// [`xcorr_fft`].
pub fn xcorr_direct(a: &[Complex32], b: &[Complex32]) -> Vec<Complex32> {
    let (re, im): (Vec<f32>, Vec<f32>) = a.iter().map(|x| (x.re, x.im)).unzip();
    let mut acc_re = vec![0.0f32; a.len()];
    let mut acc_im = vec![0.0f32; a.len()];
    // Taps at or past the end of `a` reach no lag.
    for (n, tap) in b.iter().enumerate().take(a.len()) {
        let (tr, ti) = (tap.re, -tap.im); // conj(b[n])
        let lags = acc_re.iter_mut().zip(&mut acc_im);
        for ((cr, ci), (&xr, &xi)) in lags.zip(re[n..].iter().zip(&im[n..])) {
            // The terms of `Complex32::mul`, in its order.
            *cr += xr * tr - xi * ti;
            *ci += xr * ti + xi * tr;
        }
    }
    acc_re.iter().zip(&acc_im).map(|(&r, &i)| Complex32::new(r, i)).collect()
}

/// Finds the peak of an FFT-based correlation, interpreting wrap-around
/// indices as negative lags. `n_pos` is the number of valid non-negative
/// lags (typically `a.len()`).
pub fn find_peak(corr: &[Complex32], n_pos: usize) -> Option<Peak> {
    let idx = argmax_magnitude(corr)?;
    let lag = if idx < n_pos { idx as isize } else { idx as isize - corr.len() as isize };
    Some(Peak { lag, value: corr[idx] })
}

/// One-shot range estimate: correlates `rx` against `reference` and returns
/// the lag (in samples) of the strongest echo.
pub fn estimate_delay(rx: &[Complex32], reference: &[Complex32]) -> Option<isize> {
    let corr = xcorr_fft(rx, reference);
    find_peak(&corr, rx.len()).map(|p| p.lag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::{delayed_echo, lfm_chirp};
    use proptest::prelude::*;

    /// One lag at a time, each summing the taps that overlap `a`: the
    /// bit-for-bit oracle of `xcorr_direct`.
    fn xcorr_direct_reference(a: &[Complex32], b: &[Complex32]) -> Vec<Complex32> {
        let mut out = vec![Complex32::ZERO; a.len()];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex32::ZERO;
            for (n, &bn) in b.iter().enumerate() {
                if let Some(&an) = a.get(n + k) {
                    acc += an * bn.conj();
                }
            }
            *o = acc;
        }
        out
    }

    fn bits_of(xs: &[Complex32]) -> Vec<(u32, u32)> {
        xs.iter().map(|x| (x.re.to_bits(), x.im.to_bits())).collect()
    }

    fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Complex32>> {
        proptest::collection::vec((-100.0f32..100.0, -100.0f32..100.0), len)
            .prop_map(|v| v.into_iter().map(|(re, im)| Complex32::new(re, im)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every lag equals the one-lag-at-a-time sum bit for bit, over
        /// lengths that are not multiples of a vector's width and taps
        /// longer than the signal.
        #[test]
        fn direct_matches_reference_bit_for_bit(a in signal(0..70), b in signal(0..40)) {
            prop_assert_eq!(bits_of(&xcorr_direct(&a, &b)), bits_of(&xcorr_direct_reference(&a, &b)));
        }
    }

    #[test]
    fn direct_matches_reference_on_the_matched_filter_shape() {
        let pulse = lfm_chirp(32, 0.0, 3.0e6, 8.0e6);
        for delay in [0usize, 23, 96, 224] {
            let rx = delayed_echo(&pulse, 256, delay, 0.7);
            let direct = xcorr_direct(&rx, &pulse);
            assert_eq!(bits_of(&direct), bits_of(&xcorr_direct_reference(&rx, &pulse)));
            assert_eq!(argmax_magnitude(&direct), Some(delay));
        }
    }

    #[test]
    fn direct_keeps_negative_zero_and_empty_inputs() {
        let neg = [Complex32::new(-0.0, -0.0); 9];
        let zero = [Complex32::new(0.0, 0.0); 3];
        assert_eq!(
            bits_of(&xcorr_direct(&neg, &zero)),
            bits_of(&xcorr_direct_reference(&neg, &zero))
        );
        assert!(xcorr_direct(&[], &zero).is_empty());
        assert_eq!(xcorr_direct(&zero, &[]), vec![Complex32::ZERO; 3]);
        assert_eq!(xcorr_direct(&neg[..7], &[]), vec![Complex32::ZERO; 7]);
    }

    #[test]
    fn fft_xcorr_matches_direct() {
        let a: Vec<Complex32> = (0..24)
            .map(|i| Complex32::new((i as f32 * 0.9).sin(), (i as f32 * 0.4).cos()))
            .collect();
        let b: Vec<Complex32> =
            (0..16).map(|i| Complex32::new(1.0 / (1.0 + i as f32), 0.2)).collect();
        let fast = xcorr_fft(&a, &b);
        let slow = xcorr_direct(&a, &b);
        for k in 0..a.len() {
            assert!((fast[k] - slow[k]).abs() < 1e-3, "lag {k}: {:?} vs {:?}", fast[k], slow[k]);
        }
    }

    #[test]
    fn detects_planted_delay() {
        let pulse = lfm_chirp(128, 0.0, 2000.0, 8000.0);
        for delay in [0usize, 7, 63, 200] {
            let rx = delayed_echo(&pulse, 512, delay, 0.8);
            assert_eq!(estimate_delay(&rx, &pulse), Some(delay as isize), "delay {delay}");
        }
    }

    #[test]
    fn detects_strongest_of_two_echoes() {
        let pulse = lfm_chirp(64, 0.0, 1000.0, 8000.0);
        let mut rx = delayed_echo(&pulse, 512, 40, 0.3);
        let strong = delayed_echo(&pulse, 512, 150, 1.0);
        for (r, s) in rx.iter_mut().zip(&strong) {
            *r += *s;
        }
        assert_eq!(estimate_delay(&rx, &pulse), Some(150));
    }

    #[test]
    fn autocorrelation_peaks_at_zero() {
        let pulse = lfm_chirp(64, 0.0, 500.0, 4000.0);
        assert_eq!(estimate_delay(&pulse, &pulse), Some(0));
    }

    #[test]
    fn negative_lag_reported() {
        // b delayed relative to a => peak at negative lag
        let pulse = lfm_chirp(32, 0.0, 400.0, 4000.0);
        let b = delayed_echo(&pulse, 128, 20, 1.0);
        let corr = xcorr_fft(&pulse, &b);
        let peak = find_peak(&corr, pulse.len()).unwrap();
        assert_eq!(peak.lag, -20);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_signal_panics() {
        xcorr_fft(&[], &[Complex32::ONE]);
    }
}
