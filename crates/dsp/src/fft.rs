//! Discrete Fourier transforms.
//!
//! Two families are provided on purpose:
//!
//! * [`fft_in_place`] / [`ifft_in_place`] — iterative radix-2 Cooley-Tukey,
//!   `O(n log n)`, the "FFTW-class" optimized implementation the compiler
//!   toolchain substitutes for recognized DFT kernels.
//! * [`dft`] / [`idft`] — the naive `O(n^2)` loop transform, standing in for
//!   the unoptimized for-loop DFT found in monolithic user code (paper case
//!   study 4).
//!
//! The FFT requires power-of-two lengths; [`next_pow2`] helps with padding.

use std::sync::OnceLock;

use crate::complex::Complex32;

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Returns true if `n` is a (nonzero) power of two.
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// What a transform of one power-of-two size and direction needs besides
/// its data: the bit-reversal permutation as swap pairs and every
/// butterfly stage's twiddles, built once and shared for the life of the
/// process.
struct Plan {
    /// `(i, j)` with `i < j`: the swaps that bit-reverse the input order.
    swaps: Box<[(u32, u32)]>,
    /// Each stage's `len / 2` twiddles, stages concatenated in order: the
    /// stage of length `len` starts at offset `len / 2 - 1`.
    twiddles: Box<[Complex32]>,
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Plan {
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2usize;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            // Twiddle computed in f64 then narrowed: keeps error ~1e-6 at
            // n=64k. The rest of the stage comes from the `w *= wlen`
            // recurrence, not a fresh sin/cos each, so outputs match the
            // inline-recurrence transform bit for bit (see the tests).
            let wlen = Complex32::new(ang.cos() as f32, ang.sin() as f32);
            let mut w = Complex32::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w *= wlen;
            }
            len <<= 1;
        }
        Plan { swaps: swaps.into(), twiddles: twiddles.into() }
    }
}

/// One plan slot per (log2 size, direction), filled on first use.
static PLANS: [[OnceLock<Plan>; 2]; usize::BITS as usize] =
    [const { [const { OnceLock::new() }; 2] }; usize::BITS as usize];

fn fft_core(data: &mut [Complex32], inverse: bool) {
    let n = data.len();
    assert!(is_pow2(n), "fft length must be a power of two, got {n}");
    let slot = &PLANS[n.trailing_zeros() as usize][usize::from(inverse)];
    let plan = slot.get_or_init(|| Plan::new(n, inverse));
    for &(i, j) in plan.swaps.iter() {
        data.swap(i as usize, j as usize);
    }
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let twiddles = &plan.twiddles[half - 1..len - 1];
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                let u = *a;
                let v = *b * w;
                *a = u + v;
                *b = u - v;
            }
        }
        len <<= 1;
    }
}

/// In-place forward FFT (radix-2, decimation in time).
///
/// Uses the engineering convention `X[k] = sum_n x[n] e^{-j 2 pi k n / N}`
/// with no normalization. Panics unless `data.len()` is a power of two.
pub fn fft_in_place(data: &mut [Complex32]) {
    fft_core(data, false);
}

/// In-place inverse FFT, normalized by `1/N` so `ifft(fft(x)) == x`.
pub fn ifft_in_place(data: &mut [Complex32]) {
    fft_core(data, true);
    let k = 1.0 / data.len() as f32;
    for x in data.iter_mut() {
        *x = x.scale(k);
    }
}

/// Out-of-place forward FFT convenience wrapper.
pub fn fft(input: &[Complex32]) -> Vec<Complex32> {
    let mut v = input.to_vec();
    fft_in_place(&mut v);
    v
}

/// Out-of-place inverse FFT convenience wrapper.
pub fn ifft(input: &[Complex32]) -> Vec<Complex32> {
    let mut v = input.to_vec();
    ifft_in_place(&mut v);
    v
}

/// Naive `O(n^2)` discrete Fourier transform (any length).
///
/// This mirrors the for-loop DFT in the paper's monolithic range-detection
/// C code; the compiler case study replaces it with [`fft`] or an
/// accelerator call and measures the ~100x speedup.
pub fn dft(input: &[Complex32]) -> Vec<Complex32> {
    let n = input.len();
    let mut out = vec![Complex32::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex32::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k as f64) * (t as f64) / n as f64;
            acc += x * Complex32::new(ang.cos() as f32, ang.sin() as f32);
        }
        *o = acc;
    }
    out
}

/// Naive `O(n^2)` inverse DFT, normalized by `1/N`.
pub fn idft(input: &[Complex32]) -> Vec<Complex32> {
    let n = input.len();
    let mut out = vec![Complex32::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex32::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let ang = 2.0 * std::f64::consts::PI * (k as f64) * (t as f64) / n as f64;
            acc += x * Complex32::new(ang.cos() as f32, ang.sin() as f32);
        }
        *o = acc.scale(1.0 / n as f32);
    }
    out
}

/// Swaps the low and high halves of a spectrum so DC ends up in the middle
/// (MATLAB `fftshift`). For odd lengths the extra element goes to the front
/// half after the shift, matching the common convention.
pub fn fftshift<T: Copy>(data: &[T]) -> Vec<T> {
    let n = data.len();
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&data[half..]);
    out.extend_from_slice(&data[..half]);
    out
}

/// Element-wise complex multiply: `out[i] = a[i] * b[i]`.
///
/// One of the reusable kernels in the signal-processing library (the
/// "Vector Multiplication" node of range detection and pulse Doppler).
pub fn vector_multiply(a: &[Complex32], b: &[Complex32], out: &mut [Complex32]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// Element-wise complex conjugate (the "Complex Conjugate" kernel).
pub fn vector_conjugate(a: &[Complex32], out: &mut [Complex32]) {
    assert_eq!(a.len(), out.len());
    for (o, &x) in out.iter_mut().zip(a) {
        *o = x.conj();
    }
}

/// Zero-pads `input` to length `n` (returns a copy if already long enough).
pub fn zero_pad(input: &[Complex32], n: usize) -> Vec<Complex32> {
    let mut v = input.to_vec();
    if v.len() < n {
        v.resize(n, Complex32::ZERO);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &[Complex32], b: &[Complex32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (*x - *y).abs() < tol)
    }

    /// The reference the plans must match bit for bit: bit reversal and
    /// the `w *= wlen` twiddle recurrence inline in the butterfly loop.
    fn reference_fft(data: &mut [Complex32], inverse: bool) {
        let n = data.len();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2usize;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex32::new(ang.cos() as f32, ang.sin() as f32);
            let mut i = 0;
            while i < n {
                let mut w = Complex32::ONE;
                for k in 0..len / 2 {
                    let u = data[i + k];
                    let v = data[i + k + len / 2] * w;
                    data[i + k] = u + v;
                    data[i + k + len / 2] = u - v;
                    w *= wlen;
                }
                i += len;
            }
            len <<= 1;
        }
        if inverse {
            let k = 1.0 / n as f32;
            for x in data.iter_mut() {
                *x = x.scale(k);
            }
        }
    }

    #[test]
    fn planned_transforms_are_bit_identical_to_the_inline_recurrence() {
        let bits = |v: &[Complex32]| v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect();
        for log2 in 0..=14 {
            let n = 1usize << log2;
            let x: Vec<Complex32> = (0..n)
                .map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.91).cos() - 0.2))
                .collect();
            for inverse in [false, true] {
                let (mut got, mut want) = (x.clone(), x.clone());
                if inverse {
                    ifft_in_place(&mut got);
                } else {
                    fft_in_place(&mut got);
                }
                reference_fft(&mut want, inverse);
                let (got, want): (Vec<(u32, u32)>, Vec<_>) = (bits(&got), bits(&want));
                assert!(got == want, "n = {n}, inverse = {inverse}");
            }
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex32::ZERO; 8];
        x[0] = Complex32::ONE;
        fft_in_place(&mut x);
        assert!(x.iter().all(|c| (*c - Complex32::ONE).abs() < 1e-6));
    }

    #[test]
    fn fft_of_dc_is_impulse() {
        let mut x = vec![Complex32::ONE; 16];
        fft_in_place(&mut x);
        assert!((x[0] - Complex32::from_re(16.0)).abs() < 1e-4);
        assert!(x[1..].iter().all(|c| c.abs() < 1e-4));
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<Complex32> = (0..n)
            .map(|t| {
                Complex32::from_angle(2.0 * std::f32::consts::PI * k0 as f32 * t as f32 / n as f32)
            })
            .collect();
        let spec = fft(&x);
        let peak = crate::util::argmax_magnitude(&spec).unwrap();
        assert_eq!(peak, k0);
        assert!((spec[k0].abs() - n as f32).abs() < 1e-2);
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x: Vec<Complex32> = (0..32)
            .map(|i| Complex32::new((i as f32 * 0.7).sin(), (i as f32 * 0.3).cos()))
            .collect();
        let a = fft(&x);
        let b = dft(&x);
        assert!(approx_eq(&a, &b, 1e-3));
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex32> =
            (0..128).map(|i| Complex32::new((i as f32).sin(), (i as f32 * 1.3).cos())).collect();
        let y = ifft(&fft(&x));
        assert!(approx_eq(&x, &y, 1e-4));
    }

    #[test]
    fn idft_inverts_dft_nonpow2() {
        let x: Vec<Complex32> =
            (0..12).map(|i| Complex32::new(i as f32, -(i as f32) * 0.5)).collect();
        let y = idft(&dft(&x));
        assert!(approx_eq(&x, &y, 1e-3));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_pow2() {
        let mut x = vec![Complex32::ZERO; 12];
        fft_in_place(&mut x);
    }

    #[test]
    fn fftshift_even_odd() {
        assert_eq!(fftshift(&[0, 1, 2, 3]), vec![2, 3, 0, 1]);
        assert_eq!(fftshift(&[0, 1, 2, 3, 4]), vec![3, 4, 0, 1, 2]);
        assert_eq!(fftshift::<i32>(&[]), Vec::<i32>::new());
    }

    #[test]
    fn double_fftshift_even_is_identity() {
        let v = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(fftshift(&fftshift(&v)), v);
    }

    #[test]
    fn pow2_helpers() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1024), 1024);
        assert!(is_pow2(1) && is_pow2(256));
        assert!(!is_pow2(0) && !is_pow2(48));
    }

    #[test]
    fn vector_ops() {
        let a = vec![Complex32::new(1.0, 1.0); 4];
        let b = vec![Complex32::new(0.0, 1.0); 4];
        let mut out = vec![Complex32::ZERO; 4];
        vector_multiply(&a, &b, &mut out);
        assert!(out.iter().all(|c| (*c - Complex32::new(-1.0, 1.0)).abs() < 1e-6));
        vector_conjugate(&a, &mut out);
        assert!(out.iter().all(|c| (*c - Complex32::new(1.0, -1.0)).abs() < 1e-6));
    }

    #[test]
    fn zero_pad_extends() {
        let x = vec![Complex32::ONE; 3];
        let p = zero_pad(&x, 8);
        assert_eq!(p.len(), 8);
        assert_eq!(p[2], Complex32::ONE);
        assert_eq!(p[3], Complex32::ZERO);
        // no truncation when already longer
        assert_eq!(zero_pad(&p, 4).len(), 8);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex32> = (0..256)
            .map(|i| Complex32::new((i as f32 * 0.11).sin(), (i as f32 * 0.07).cos()))
            .collect();
        let time_energy: f32 = x.iter().map(|c| c.norm_sqr()).sum();
        let spec = fft(&x);
        let freq_energy: f32 = spec.iter().map(|c| c.norm_sqr()).sum::<f32>() / x.len() as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }
}
