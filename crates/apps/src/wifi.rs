//! WiFi transmitter and receiver applications (paper Fig. 7).
//!
//! One frame carries 64 payload bits (the paper: "the WiFi transmitter
//! and receiver applications process 64 bits of data in one frame").
//!
//! **TX (7 tasks, Table I):** scrambler → convolutional encoder →
//! interleaver → QPSK modulation → pilot insertion → inverse FFT → CRC.
//!
//! **RX (9 tasks, Table I):** matched filter → payload extraction (FFT
//! output binning) → FFT → pilot removal → QPSK demodulation →
//! deinterleaver → Viterbi decoder → descrambler → CRC check.
//!
//! Frame geometry: 64 bits scramble to 64, encode (rate 1/2, K=7,
//! terminated) to 140 coded bits, interleave in a 4x35 block, map to 70
//! QPSK symbols, insert a pilot every 7 data symbols (+10) for 80
//! symbols, and zero-pad to a 128-point IFFT — the 128-sample transform
//! the paper's accelerator study revolves around. The RX application's
//! input is a channel-impaired recording of a transmitted frame behind a
//! chirp preamble, synthesized by [`build_rx_app`]; the matched filter
//! locates the preamble, and after the chain runs, `payload_out` must
//! equal the transmitted payload with `crc_ok == 1`.

use dssoc_appmodel::json::{AppJson, VariableJson};
use dssoc_appmodel::{KernelRegistry, ModelError, TaskCtx};
use dssoc_dsp::chirp::lfm_chirp;
use dssoc_dsp::coding::{ConvolutionalEncoder, ViterbiDecoder, K};
use dssoc_dsp::complex::Complex32;
use dssoc_dsp::correlate::xcorr_direct;
use dssoc_dsp::crc::crc32;
use dssoc_dsp::fft::{fft_in_place, ifft_in_place};
use dssoc_dsp::interleave::BlockInterleaver;
use dssoc_dsp::modulation::{insert_pilots, qpsk_demodulate, qpsk_modulate, remove_pilots};
use dssoc_dsp::scramble::Scrambler;
use dssoc_dsp::util::argmax_magnitude;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::common::{complex_buffer, cpu, fft_accel, node};

/// Payload size in bits.
pub const PAYLOAD_BITS: usize = 64;
/// Coded bits after the terminated rate-1/2 encoder.
pub const CODED_BITS: usize = 2 * (PAYLOAD_BITS + K - 1); // 140
/// Interleaver geometry (rows x cols = CODED_BITS).
pub const INTERLEAVER_ROWS: usize = 4;
/// Interleaver columns.
pub const INTERLEAVER_COLS: usize = 35;
/// QPSK data symbols per frame.
pub const DATA_SYMBOLS: usize = CODED_BITS / 2; // 70
/// Pilot period (one pilot before every 7 data symbols).
pub const PILOT_PERIOD: usize = 7;
/// Symbols after pilot insertion.
pub const FRAME_SYMBOLS: usize = DATA_SYMBOLS + DATA_SYMBOLS / PILOT_PERIOD; // 80
/// IFFT/FFT size (zero-padded frame).
pub const FFT_SIZE: usize = 128;
/// Preamble (sync chirp) length in samples.
pub const PREAMBLE_LEN: usize = 32;
/// Scrambler seed shared by TX and RX.
pub const SCRAMBLE_SEED: u8 = 0x5D;

/// WiFi build parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// The 8 payload bytes (64 bits) carried by the frame.
    pub payload: [u8; 8],
    /// RX only: sample offset of the preamble inside the recording.
    pub rx_offset: usize,
    /// RX only: length of the synthesized recording.
    pub rx_len: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params { payload: *b"DSSOCEMU", rx_offset: 23, rx_len: 256 }
    }
}

/// TX shared object name.
pub const TX_SHARED_OBJECT: &str = "wifi_tx.so";
/// RX shared object name.
pub const RX_SHARED_OBJECT: &str = "wifi_rx.so";

fn bits_of(bytes: &[u8]) -> Vec<u8> {
    dssoc_dsp::util::unpack_bits(bytes)
}

/// The preamble every frame is preceded by (known to the receiver),
/// built on first use.
pub fn preamble() -> &'static [Complex32] {
    static PREAMBLE: OnceLock<Vec<Complex32>> = OnceLock::new();
    PREAMBLE.get_or_init(|| lfm_chirp(PREAMBLE_LEN, 0.0, 3.0e6, 8.0e6))
}

/// Runs the full transmit chain outside the emulator (used to synthesize
/// RX inputs and as the golden model in tests). Returns the 128 time
/// samples of the frame.
pub fn reference_tx(payload: &[u8; 8]) -> Vec<Complex32> {
    let bits = bits_of(payload);
    let scrambled = Scrambler::new(SCRAMBLE_SEED).scramble(&bits);
    let coded = ConvolutionalEncoder::new().encode_terminated(&scrambled);
    let interleaved = BlockInterleaver::new(INTERLEAVER_ROWS, INTERLEAVER_COLS).interleave(&coded);
    let symbols = qpsk_modulate(&interleaved);
    let framed = insert_pilots(&symbols, PILOT_PERIOD);
    let mut freq = framed;
    freq.resize(FFT_SIZE, Complex32::ZERO);
    ifft_in_place(&mut freq);
    freq
}

/// Registers the WiFi TX and RX kernels.
pub fn register_kernels(registry: &mut KernelRegistry) {
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_scramble", k_tx_scramble);
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_encode", k_tx_encode);
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_interleave", k_tx_interleave);
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_modulate", k_tx_modulate);
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_pilot_insert", k_tx_pilot);
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_ifft", k_tx_ifft);
    registry.register_fn("fft_accel.so", "wifi_tx_ifft_accel", k_tx_ifft_accel);
    registry.register_fn(TX_SHARED_OBJECT, "wifi_tx_crc", k_tx_crc);

    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_match_filter", k_rx_match);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_fft", k_rx_fft);
    registry.register_fn("fft_accel.so", "wifi_rx_fft_accel", k_rx_fft_accel);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_extract", k_rx_extract);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_pilot_remove", k_rx_pilot);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_demodulate", k_rx_demod);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_deinterleave", k_rx_deinterleave);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_decode", k_rx_decode);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_descramble", k_rx_descramble);
    registry.register_fn(RX_SHARED_OBJECT, "wifi_rx_crc_check", k_rx_crc);
}

/// Builds the WiFi transmitter application (7 tasks).
pub fn build_tx_app(p: &Params) -> AppJson {
    let bits = bits_of(&p.payload);
    let mut variables = BTreeMap::new();
    variables.insert("payload_bits".to_string(), byte_buffer(PAYLOAD_BITS, &bits));
    variables.insert("scrambled".to_string(), byte_buffer(PAYLOAD_BITS, &[]));
    variables.insert("coded".to_string(), byte_buffer(CODED_BITS, &[]));
    variables.insert("interleaved".to_string(), byte_buffer(CODED_BITS, &[]));
    variables.insert("symbols".to_string(), complex_buffer(DATA_SYMBOLS, &[]));
    variables.insert("framed".to_string(), complex_buffer(FFT_SIZE, &[]));
    variables.insert("tx_time".to_string(), complex_buffer(FFT_SIZE, &[]));
    variables.insert("tx_crc".to_string(), VariableJson::u32_scalar(0));

    let mut dag = BTreeMap::new();
    dag.insert(
        "SCRAMBLE".to_string(),
        node(&["payload_bits", "scrambled"], &[], &["ENCODE"], vec![cpu("wifi_tx_scramble", 6.0)]),
    );
    dag.insert(
        "ENCODE".to_string(),
        node(
            &["scrambled", "coded"],
            &["SCRAMBLE"],
            &["INTERLEAVE"],
            vec![cpu("wifi_tx_encode", 10.0)],
        ),
    );
    dag.insert(
        "INTERLEAVE".to_string(),
        node(
            &["coded", "interleaved"],
            &["ENCODE"],
            &["MOD"],
            vec![cpu("wifi_tx_interleave", 6.0)],
        ),
    );
    dag.insert(
        "MOD".to_string(),
        node(
            &["interleaved", "symbols"],
            &["INTERLEAVE"],
            &["PILOT"],
            vec![cpu("wifi_tx_modulate", 8.0)],
        ),
    );
    dag.insert(
        "PILOT".to_string(),
        node(&["symbols", "framed"], &["MOD"], &["IFFT"], vec![cpu("wifi_tx_pilot_insert", 6.0)]),
    );
    dag.insert(
        "IFFT".to_string(),
        node(
            &["framed", "tx_time"],
            &["PILOT"],
            &["CRC"],
            vec![cpu("wifi_tx_ifft", 25.0), fft_accel("wifi_tx_ifft_accel", 70.0)],
        ),
    );
    dag.insert(
        "CRC".to_string(),
        node(&["payload_bits", "tx_crc"], &["IFFT"], &[], vec![cpu("wifi_tx_crc", 5.0)]),
    );

    AppJson { app_name: "wifi_tx".into(), shared_object: TX_SHARED_OBJECT.into(), variables, dag }
}

/// Builds the WiFi receiver application (9 tasks). The `rx_stream`
/// variable is initialized with a synthesized recording: silence, the
/// known preamble, then the transmitted frame.
pub fn build_rx_app(p: &Params) -> AppJson {
    assert!(
        p.rx_offset + PREAMBLE_LEN + FFT_SIZE <= p.rx_len,
        "recording too short for offset + preamble + frame"
    );
    let frame = reference_tx(&p.payload);
    let pre = preamble();
    let mut stream = vec![Complex32::ZERO; p.rx_len];
    for (i, &s) in pre.iter().enumerate() {
        stream[p.rx_offset + i] = s;
    }
    for (i, &s) in frame.iter().enumerate() {
        stream[p.rx_offset + PREAMBLE_LEN + i] = s;
    }
    let expected_crc = crc32(&p.payload);

    let mut variables = BTreeMap::new();
    variables.insert("rx_stream".to_string(), complex_buffer(p.rx_len, &stream));
    variables.insert("rx_len".to_string(), VariableJson::u32_scalar(p.rx_len as u32));
    variables.insert("frame".to_string(), complex_buffer(FFT_SIZE, &[]));
    variables.insert("freq".to_string(), complex_buffer(FFT_SIZE, &[]));
    variables.insert("framed_syms".to_string(), complex_buffer(FRAME_SYMBOLS, &[]));
    variables.insert("symbols".to_string(), complex_buffer(DATA_SYMBOLS, &[]));
    variables.insert("demod_bits".to_string(), byte_buffer(CODED_BITS, &[]));
    variables.insert("deinterleaved".to_string(), byte_buffer(CODED_BITS, &[]));
    variables.insert("decoded".to_string(), byte_buffer(PAYLOAD_BITS, &[]));
    variables.insert("payload_out".to_string(), byte_buffer(PAYLOAD_BITS, &[]));
    variables.insert("expected_crc".to_string(), VariableJson::u32_scalar(expected_crc));
    variables.insert("crc_ok".to_string(), VariableJson::u32_scalar(0));

    let mut dag = BTreeMap::new();
    dag.insert(
        "MATCH_FILTER".to_string(),
        node(
            &["rx_len", "rx_stream", "frame"],
            &[],
            &["FFT"],
            vec![cpu("wifi_rx_match_filter", 40.0)],
        ),
    );
    dag.insert(
        "FFT".to_string(),
        node(
            &["frame", "freq"],
            &["MATCH_FILTER"],
            &["EXTRACT"],
            vec![cpu("wifi_rx_fft", 25.0), fft_accel("wifi_rx_fft_accel", 70.0)],
        ),
    );
    dag.insert(
        "EXTRACT".to_string(),
        node(&["freq", "framed_syms"], &["FFT"], &["PILOT_RM"], vec![cpu("wifi_rx_extract", 5.0)]),
    );
    dag.insert(
        "PILOT_RM".to_string(),
        node(
            &["framed_syms", "symbols"],
            &["EXTRACT"],
            &["DEMOD"],
            vec![cpu("wifi_rx_pilot_remove", 6.0)],
        ),
    );
    dag.insert(
        "DEMOD".to_string(),
        node(
            &["symbols", "demod_bits"],
            &["PILOT_RM"],
            &["DEINTERLEAVE"],
            vec![cpu("wifi_rx_demodulate", 8.0)],
        ),
    );
    dag.insert(
        "DEINTERLEAVE".to_string(),
        node(
            &["demod_bits", "deinterleaved"],
            &["DEMOD"],
            &["DECODE"],
            vec![cpu("wifi_rx_deinterleave", 6.0)],
        ),
    );
    dag.insert(
        "DECODE".to_string(),
        node(
            &["deinterleaved", "decoded"],
            &["DEINTERLEAVE"],
            &["DESCRAMBLE"],
            vec![cpu("wifi_rx_decode", 180.0)],
        ),
    );
    dag.insert(
        "DESCRAMBLE".to_string(),
        node(
            &["decoded", "payload_out"],
            &["DECODE"],
            &["CRC_CHECK"],
            vec![cpu("wifi_rx_descramble", 6.0)],
        ),
    );
    dag.insert(
        "CRC_CHECK".to_string(),
        node(
            &["payload_out", "expected_crc", "crc_ok"],
            &["DESCRAMBLE"],
            &[],
            vec![cpu("wifi_rx_crc_check", 5.0)],
        ),
    );

    AppJson { app_name: "wifi_rx".into(), shared_object: RX_SHARED_OBJECT.into(), variables, dag }
}

fn byte_buffer(n: usize, init: &[u8]) -> VariableJson {
    assert!(init.len() <= n);
    VariableJson { bytes: 8, is_ptr: true, ptr_alloc_bytes: n as u32, val: init.to_vec() }
}

// ---- TX kernels ------------------------------------------------------------

fn k_tx_scramble(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("payload_bits")?;
    let out = Scrambler::new(SCRAMBLE_SEED).scramble(&bits);
    ctx.write_bytes("scrambled", &out)
}

fn k_tx_encode(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("scrambled")?;
    let coded = ConvolutionalEncoder::new().encode_terminated(&bits);
    debug_assert_eq!(coded.len(), CODED_BITS);
    ctx.write_bytes("coded", &coded)
}

fn k_tx_interleave(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let coded = ctx.read_bytes("coded")?;
    let out = BlockInterleaver::new(INTERLEAVER_ROWS, INTERLEAVER_COLS).interleave(&coded);
    ctx.write_bytes("interleaved", &out)
}

fn k_tx_modulate(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("interleaved")?;
    let symbols = qpsk_modulate(&bits);
    ctx.write_complex("symbols", &symbols)
}

fn k_tx_pilot(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let symbols = ctx.read_complex("symbols", DATA_SYMBOLS)?;
    let mut framed = insert_pilots(&symbols, PILOT_PERIOD);
    framed.resize(FFT_SIZE, Complex32::ZERO);
    ctx.write_complex("framed", &framed)
}

fn k_tx_ifft(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let mut data = ctx.read_complex("framed", FFT_SIZE)?;
    ifft_in_place(&mut data);
    ctx.write_complex("tx_time", &data)
}

fn k_tx_ifft_accel(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    ctx.accel_fft("framed", "tx_time", FFT_SIZE, true)
}

fn k_tx_crc(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("payload_bits")?;
    let bytes = dssoc_dsp::util::pack_bits(&bits);
    ctx.write_u32("tx_crc", crc32(&bytes))
}

// ---- RX kernels ------------------------------------------------------------

fn k_rx_match(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let len = ctx.read_u32("rx_len")? as usize;
    let stream = ctx.read_complex("rx_stream", len)?;
    // The preamble start is the strongest correlation lag; the frame
    // begins right after it. A 32-tap direct correlation costs less than
    // the three FFTs of `xcorr_fft` and peaks at the same lag.
    let corr = xcorr_direct(&stream, preamble());
    let lag = argmax_magnitude(&corr).unwrap_or(0);
    let start = lag + PREAMBLE_LEN;
    if start + FFT_SIZE > len {
        return Err(ModelError::KernelFailed {
            kernel: "wifi_rx_match_filter".into(),
            reason: format!("frame at offset {start} overruns the {len}-sample recording"),
        });
    }
    ctx.write_complex("frame", &stream[start..start + FFT_SIZE])
}

fn k_rx_fft(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let mut data = ctx.read_complex("frame", FFT_SIZE)?;
    fft_in_place(&mut data);
    ctx.write_complex("freq", &data)
}

fn k_rx_fft_accel(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    ctx.accel_fft("frame", "freq", FFT_SIZE, false)
}

fn k_rx_extract(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let freq = ctx.read_complex("freq", FFT_SIZE)?;
    ctx.write_complex("framed_syms", &freq[..FRAME_SYMBOLS])
}

fn k_rx_pilot(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let framed = ctx.read_complex("framed_syms", FRAME_SYMBOLS)?;
    let symbols = remove_pilots(&framed, PILOT_PERIOD);
    debug_assert_eq!(symbols.len(), DATA_SYMBOLS);
    ctx.write_complex("symbols", &symbols)
}

fn k_rx_demod(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let symbols = ctx.read_complex("symbols", DATA_SYMBOLS)?;
    ctx.write_bytes("demod_bits", &qpsk_demodulate(&symbols))
}

fn k_rx_deinterleave(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("demod_bits")?;
    let out = BlockInterleaver::new(INTERLEAVER_ROWS, INTERLEAVER_COLS).deinterleave(&bits);
    ctx.write_bytes("deinterleaved", &out)
}

fn k_rx_decode(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let coded = ctx.read_bytes("deinterleaved")?;
    let decoded =
        ViterbiDecoder.decode_terminated(&coded).ok_or_else(|| ModelError::KernelFailed {
            kernel: "wifi_rx_decode".into(),
            reason: "stream too short".into(),
        })?;
    ctx.write_bytes("decoded", &decoded)
}

fn k_rx_descramble(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("decoded")?;
    let out = Scrambler::new(SCRAMBLE_SEED).scramble(&bits);
    ctx.write_bytes("payload_out", &out)
}

fn k_rx_crc(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
    let bits = ctx.read_bytes("payload_out")?;
    let bytes = dssoc_dsp::util::pack_bits(&bits);
    let expected = ctx.read_u32("expected_crc")?;
    ctx.write_u32("crc_ok", u32::from(crc32(&bytes) == expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_appmodel::app::ApplicationSpec;
    use dssoc_appmodel::instance::{AppInstance, InstanceId};
    use std::sync::Arc;
    use std::time::Duration;

    fn run_chain(json: &AppJson, order: &[&str]) -> Arc<dssoc_appmodel::memory::AppMemory> {
        let mut reg = KernelRegistry::new();
        register_kernels(&mut reg);
        let spec = ApplicationSpec::from_json(json, &reg).unwrap();
        let inst =
            AppInstance::instantiate(Arc::clone(&spec), InstanceId(0), Duration::ZERO).unwrap();
        for name in order {
            let nspec = spec.node_by_name(name).unwrap();
            let ctx = TaskCtx::new(&inst.memory, &nspec.name, &nspec.arguments, None);
            nspec.platform("cpu").unwrap().kernel.run(&ctx).unwrap();
        }
        inst.memory
    }

    const TX_ORDER: [&str; 7] = ["SCRAMBLE", "ENCODE", "INTERLEAVE", "MOD", "PILOT", "IFFT", "CRC"];
    const RX_ORDER: [&str; 9] = [
        "MATCH_FILTER",
        "FFT",
        "EXTRACT",
        "PILOT_RM",
        "DEMOD",
        "DEINTERLEAVE",
        "DECODE",
        "DESCRAMBLE",
        "CRC_CHECK",
    ];

    /// Reference matched filter: an FFT correlation and a peak search
    /// over the recording's lags.
    fn k_rx_match_fft(ctx: &TaskCtx<'_>) -> Result<(), ModelError> {
        let len = ctx.read_u32("rx_len")? as usize;
        let stream = ctx.read_complex("rx_stream", len)?;
        let corr = dssoc_dsp::correlate::xcorr_fft(&stream, preamble());
        let start = argmax_magnitude(&corr[..len]).unwrap_or(0) + PREAMBLE_LEN;
        ctx.write_complex("frame", &stream[start..start + FFT_SIZE])
    }

    fn snapshot(mem: &dssoc_appmodel::memory::AppMemory) -> Vec<(String, Vec<u8>)> {
        mem.names().into_iter().map(|n| (n.to_string(), mem.read_bytes(n).unwrap())).collect()
    }

    #[test]
    fn rx_kernels_write_what_the_fft_filter_and_reference_decoder_write() {
        let mut reg = KernelRegistry::new();
        register_kernels(&mut reg);
        let defaults = Params::default();
        let scrambled = Scrambler::new(SCRAMBLE_SEED).scramble(&bits_of(&defaults.payload));
        for rx_offset in 0..=defaults.rx_len - PREAMBLE_LEN - FFT_SIZE {
            let spec = ApplicationSpec::from_json(
                &build_rx_app(&Params { rx_offset, ..Params::default() }),
                &reg,
            )
            .unwrap();
            let inst = |id| {
                AppInstance::instantiate(Arc::clone(&spec), InstanceId(id), Duration::ZERO).unwrap()
            };
            let (fast, reference) = (inst(0), inst(1));
            for name in RX_ORDER {
                let nspec = spec.node_by_name(name).unwrap();
                let kernel = &nspec.platform("cpu").unwrap().kernel;
                let ctx = |mem| TaskCtx::new(mem, &nspec.name, &nspec.arguments, None);
                kernel.run(&ctx(&fast.memory)).unwrap();
                match name {
                    "MATCH_FILTER" => k_rx_match_fft(&ctx(&reference.memory)).unwrap(),
                    _ => kernel.run(&ctx(&reference.memory)).unwrap(),
                }
                assert_eq!(
                    snapshot(&fast.memory),
                    snapshot(&reference.memory),
                    "{name} at rx_offset {rx_offset}"
                );
            }
            // Both chains decode with the new decoder, so hold it to what
            // any maximum-likelihood decoder (the reference one included)
            // writes for an error-free codeword: the codeword's message.
            let deinterleaved = fast.memory.read_bytes("deinterleaved").unwrap();
            let decoded = fast.memory.read_bytes("decoded").unwrap();
            assert_eq!(decoded, scrambled, "rx_offset {rx_offset}");
            assert_eq!(ConvolutionalEncoder::new().encode_terminated(&decoded), deinterleaved);
            assert_eq!(fast.memory.read_u32("crc_ok").unwrap(), 1, "rx_offset {rx_offset}");
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the frame geometry
    fn frame_geometry_constants() {
        assert_eq!(CODED_BITS, 140);
        assert_eq!(INTERLEAVER_ROWS * INTERLEAVER_COLS, CODED_BITS);
        assert_eq!(DATA_SYMBOLS, 70);
        assert_eq!(FRAME_SYMBOLS, 80);
        assert!(FRAME_SYMBOLS <= FFT_SIZE);
    }

    #[test]
    fn tx_task_count_and_output_matches_reference() {
        let p = Params::default();
        let mem = run_chain(&build_tx_app(&p), &TX_ORDER);
        let golden = reference_tx(&p.payload);
        let tx = mem.read_complex_vec("tx_time", FFT_SIZE).unwrap();
        assert!(dssoc_dsp::util::signals_close(&tx, &golden, 1e-5));
        assert_eq!(mem.read_u32("tx_crc").unwrap(), crc32(&p.payload));
    }

    #[test]
    fn rx_recovers_payload_end_to_end() {
        let p = Params::default();
        let mem = run_chain(&build_rx_app(&p), &RX_ORDER);
        assert_eq!(mem.read_u32("crc_ok").unwrap(), 1, "CRC must validate");
        let bits = mem.read_bytes("payload_out").unwrap();
        let bytes = dssoc_dsp::util::pack_bits(&bits);
        assert_eq!(bytes, p.payload);
    }

    #[test]
    fn rx_works_at_various_offsets() {
        for offset in [0usize, 1, 50, 96] {
            let p = Params { rx_offset: offset, ..Params::default() };
            let mem = run_chain(&build_rx_app(&p), &RX_ORDER);
            assert_eq!(mem.read_u32("crc_ok").unwrap(), 1, "offset {offset}");
        }
    }

    #[test]
    fn rx_with_different_payloads() {
        for payload in [
            *b"\x00\x00\x00\x00\x00\x00\x00\x00",
            *b"\xFF\xFF\xFF\xFF\xFF\xFF\xFF\xFF",
            *b"radar!!!",
        ] {
            let p = Params { payload, ..Params::default() };
            let mem = run_chain(&build_rx_app(&p), &RX_ORDER);
            let bits = mem.read_bytes("payload_out").unwrap();
            assert_eq!(dssoc_dsp::util::pack_bits(&bits), payload);
        }
    }

    #[test]
    fn corrupted_payload_fails_crc() {
        // Corrupt the expected CRC so the check must fail.
        let p = Params::default();
        let mut json = build_rx_app(&p);
        json.variables.insert("expected_crc".to_string(), VariableJson::u32_scalar(0xBAD0_BAD0));
        let mem = run_chain(&json, &RX_ORDER);
        assert_eq!(mem.read_u32("crc_ok").unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "recording too short")]
    fn rx_overrun_rejected_at_build() {
        build_rx_app(&Params { rx_offset: 200, ..Params::default() });
    }

    #[test]
    fn dag_shapes_match_table1() {
        let mut reg = KernelRegistry::new();
        register_kernels(&mut reg);
        let tx = ApplicationSpec::from_json(&build_tx_app(&Params::default()), &reg).unwrap();
        let rx = ApplicationSpec::from_json(&build_rx_app(&Params::default()), &reg).unwrap();
        assert_eq!(tx.task_count(), 7);
        assert_eq!(rx.task_count(), 9);
        // Both chains are linear: one root each.
        assert_eq!(tx.roots.len(), 1);
        assert_eq!(rx.roots.len(), 1);
        // FFT nodes accelerator-capable.
        assert!(tx.node_by_name("IFFT").unwrap().supports("fft"));
        assert!(rx.node_by_name("FFT").unwrap().supports("fft"));
    }
}
