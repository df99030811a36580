//! Microbenchmarks of the DSP substrate kernels — the per-task costs
//! everything else in the emulation is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dssoc_dsp::chirp::lfm_chirp;
use dssoc_dsp::coding::{ConvolutionalEncoder, ViterbiDecoder};
use dssoc_dsp::complex::Complex32;
use dssoc_dsp::correlate::{xcorr_direct, xcorr_fft};
use dssoc_dsp::fft::{dft, fft_in_place};

fn signal(n: usize) -> Vec<Complex32> {
    (0..n).map(|i| Complex32::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos())).collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for n in [128usize, 512, 4096] {
        let input = signal(n);
        g.bench_with_input(BenchmarkId::new("radix2", n), &n, |b, _| {
            b.iter(|| {
                let mut data = input.clone();
                fft_in_place(&mut data);
                black_box(data)
            })
        });
    }
    g.finish();
}

fn bench_dft(c: &mut Criterion) {
    let mut g = c.benchmark_group("dft_naive");
    g.sample_size(20);
    for n in [128usize, 512] {
        let input = signal(n);
        g.bench_with_input(BenchmarkId::new("o_n2", n), &n, |b, _| {
            b.iter(|| black_box(dft(&input)))
        });
    }
    g.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let msg: Vec<u8> = (0..64).map(|i| ((i * 5 + 1) % 2) as u8).collect();
    let coded = ConvolutionalEncoder::new().encode_terminated(&msg);
    let dec = ViterbiDecoder::new();
    c.bench_function("viterbi_decode_64bit_frame", |b| {
        b.iter(|| black_box(dec.decode_terminated(&coded)))
    });
}

fn bench_xcorr(c: &mut Criterion) {
    let pulse = lfm_chirp(128, 0.0, 2e6, 8e6);
    let rx = signal(512);
    c.bench_function("xcorr_fft_512x128", |b| b.iter(|| black_box(xcorr_fft(&rx, &pulse))));
    // The WiFi RX matched filter's shape: a 256-sample recording against
    // the 32-sample preamble chirp.
    let preamble = lfm_chirp(32, 0.0, 3e6, 8e6);
    let recording = signal(256);
    c.bench_function("xcorr_direct_256x32", |b| {
        b.iter(|| black_box(xcorr_direct(&recording, &preamble)))
    });
}

fn bench_chirp(c: &mut Criterion) {
    c.bench_function("lfm_chirp_512", |b| b.iter(|| black_box(lfm_chirp(512, 0.0, 2e6, 8e6))));
}

criterion_group!(benches, bench_fft, bench_dft, bench_viterbi, bench_xcorr, bench_chirp);
criterion_main!(benches);
