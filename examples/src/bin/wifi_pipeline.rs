//! WiFi TX → AWGN channel → RX, end to end.
//!
//! First runs the transmit and receive applications through the emulator
//! (verifying the CRC), then demonstrates the full physical chain with a
//! noisy channel using the kernel library directly, sweeping SNR to show
//! where the rate-1/2 K=7 code stops saving the frame.
//!
//! ```sh
//! cargo run --release --bin wifi_pipeline
//! ```

use dssoc_appmodel::WorkloadSpec;
use dssoc_apps::{standard_library, wifi};
use dssoc_core::prelude::*;
use dssoc_dsp::channel::awgn;
use dssoc_dsp::coding::{ConvolutionalEncoder, ViterbiDecoder};
use dssoc_dsp::fft::fft_in_place;
use dssoc_dsp::interleave::BlockInterleaver;
use dssoc_dsp::modulation::{qpsk_demodulate, remove_pilots};
use dssoc_dsp::scramble::Scrambler;
use dssoc_dsp::util::pack_bits;
use dssoc_platform::presets::zcu102;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- Part 1: the TX and RX applications inside the emulator.
    let (library, _registry) = standard_library();
    let workload = WorkloadSpec::validation([("wifi_tx", 2usize), ("wifi_rx", 2usize)])
        .generate(&library)
        .expect("workload");
    let mut emulation = Emulation::new(zcu102(2, 1)).expect("platform");
    let (stats, images) = emulation
        .run_with_images(&mut MetScheduler::new(), &workload, &library)
        .expect("emulation");
    println!("== emulated wifi_tx + wifi_rx on {} ==", stats.platform);
    print!("{}", stats.summary());
    for app in stats.apps.iter().filter(|a| a.app == "wifi_rx") {
        let mem = images.memory(app.instance).unwrap();
        assert_eq!(mem.read_u32("crc_ok").unwrap(), 1);
        let payload = pack_bits(&mem.read_bytes("payload_out").unwrap());
        println!(
            "  {} decoded payload: {:?} (crc ok)",
            app.instance,
            String::from_utf8_lossy(&payload)
        );
    }

    // --- Part 2: the physical chain with a noisy channel.
    println!();
    println!("== SNR sweep over the AWGN channel (100 frames per point) ==");
    let payload = *b"DSSOCEMU";
    let frame = wifi::reference_tx(&payload);
    let mut rng = StdRng::seed_from_u64(2020);

    for snr_db in [20.0f32, 10.0, 8.0, 6.0, 4.0, 2.0, 0.0] {
        let mut ok = 0usize;
        let trials = 100;
        for _ in 0..trials {
            let rx_time = awgn(&frame, snr_db, &mut rng);
            // Receive chain (frame-aligned, so no matched filter needed).
            let mut freq = rx_time.clone();
            fft_in_place(&mut freq);
            let framed = &freq[..wifi::FRAME_SYMBOLS];
            let symbols = remove_pilots(framed, wifi::PILOT_PERIOD);
            let bits = qpsk_demodulate(&symbols);
            let deinterleaved =
                BlockInterleaver::new(wifi::INTERLEAVER_ROWS, wifi::INTERLEAVER_COLS)
                    .deinterleave(&bits);
            if let Some(decoded) = ViterbiDecoder::new().decode_terminated(&deinterleaved) {
                let descrambled = Scrambler::new(wifi::SCRAMBLE_SEED).scramble(&decoded);
                if pack_bits(&descrambled) == payload {
                    ok += 1;
                }
            }
        }
        let bar = "#".repeat(ok * 40 / trials);
        println!("  SNR {snr_db:>5.1} dB  frame success {ok:>3}/{trials} |{bar}");
    }

    // Sanity: encoding is really rate 1/2 with termination.
    let coded = ConvolutionalEncoder::new().encode_terminated(&[1u8; 64]);
    assert_eq!(coded.len(), wifi::CODED_BITS);
    println!();
    println!("frame geometry: 64 payload bits -> {} coded -> {} QPSK symbols -> {} with pilots -> {}-pt IFFT",
        wifi::CODED_BITS, wifi::DATA_SYMBOLS, wifi::FRAME_SYMBOLS, wifi::FFT_SIZE);
}
