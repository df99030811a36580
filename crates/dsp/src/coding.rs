//! Forward error correction: the IEEE 802.11-style rate-1/2, constraint
//! length 7 convolutional code and a hard-decision Viterbi decoder.
//!
//! These are the "Encoder" and "Decoder" kernels of the WiFi TX/RX
//! applications (paper Fig. 7) — the Viterbi decoder is one of the
//! compute-heavy blocks the paper calls out.

/// Industry-standard generator polynomials (octal 171, 133) for K=7.
pub const G0: u8 = 0o171;
/// Second generator polynomial.
pub const G1: u8 = 0o133;
/// Constraint length.
pub const K: usize = 7;
const NSTATES: usize = 1 << (K - 1); // 64

/// Rate-1/2 convolutional encoder.
///
/// Each input bit produces two output bits (one per generator). Call
/// [`ConvolutionalEncoder::encode_terminated`] to append `K-1` zero tail
/// bits so the decoder trellis ends in state 0.
#[derive(Debug, Clone, Default)]
pub struct ConvolutionalEncoder {
    state: u8, // K-1 = 6 bits of history
}

impl ConvolutionalEncoder {
    /// New encoder starting in the all-zero state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one bit, returning the `(g0, g1)` output pair.
    pub fn push(&mut self, bit: u8) -> (u8, u8) {
        debug_assert!(bit <= 1);
        let reg = (bit << 6) | self.state; // 7-bit window, newest bit on top
        let o0 = (reg & G0).count_ones() as u8 & 1;
        let o1 = (reg & G1).count_ones() as u8 & 1;
        self.state = reg >> 1;
        (o0, o1)
    }

    /// Encodes a bit slice (no termination); output has `2 * bits.len()` bits.
    pub fn encode(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bits.len() * 2);
        for &b in bits {
            let (o0, o1) = self.push(b);
            out.push(o0);
            out.push(o1);
        }
        out
    }

    /// Encodes `bits` followed by `K-1` zero flush bits, returning the
    /// coded stream. The encoder is left in state 0.
    pub fn encode_terminated(&mut self, bits: &[u8]) -> Vec<u8> {
        let mut out = self.encode(bits);
        for _ in 0..K - 1 {
            let (o0, o1) = self.push(0);
            out.push(o0);
            out.push(o1);
        }
        out
    }
}

/// Predecessor pairs per input bit: state `ns` is reached from states
/// `2 * (ns & 31)` and `2 * (ns & 31) + 1` by input bit `ns >> 5`.
const HALF: usize = NSTATES / 2; // 32

/// Path metric of a state the trellis has not reached yet. Far above any
/// reached metric (at most 2 per step), and far enough below `u32::MAX`
/// that adding the first steps' branch metrics cannot wrap.
const UNREACHED: u32 = u32::MAX / 2;

/// Branch metrics of one trellis step, `BRANCH[r][p][bit][j]`: the
/// Hamming distance between the received pair `r = (r0 << 1) | r1` and
/// what state `2j + p` emits on input `bit`.
type BranchTable = [[[[u32; HALF]; 2]; 2]; 4];

static BRANCH: BranchTable = branch_table();

const fn branch_table() -> BranchTable {
    let mut table = [[[[0u32; HALF]; 2]; 2]; 4];
    let mut r = 0;
    while r < 4 {
        let (r0, r1) = ((r >> 1) as u32, (r & 1) as u32);
        let mut state = 0;
        while state < NSTATES {
            let mut bit = 0;
            while bit < 2 {
                let reg = (bit << 6) | state;
                let o0 = (reg as u8 & G0).count_ones() & 1;
                let o1 = (reg as u8 & G1).count_ones() & 1;
                table[r][state & 1][bit][state >> 1] = (o0 ^ r0) + (o1 ^ r1);
                bit += 1;
            }
            state += 1;
        }
        r += 1;
    }
    table
}

/// Hard-decision Viterbi decoder for the K=7 rate-1/2 code.
///
/// Decodes a stream produced by [`ConvolutionalEncoder::encode_terminated`]
/// back to the original message (the tail bits are stripped). The trellis
/// tables are built at compile time, so a decoder costs nothing to make.
#[derive(Debug, Clone, Copy, Default)]
pub struct ViterbiDecoder;

impl ViterbiDecoder {
    /// A decoder over the compile-time trellis tables.
    pub fn new() -> Self {
        ViterbiDecoder
    }

    /// Decodes a terminated coded stream. `coded.len()` must be even; the
    /// message length is `coded.len()/2 - (K-1)`. Only the low bit of each
    /// received byte is read.
    ///
    /// Add-compare-select runs as butterflies over metrics kept split by
    /// predecessor parity, and records one decision bit per state and
    /// step. A tie keeps the even predecessor.
    ///
    /// Returns `None` if the stream is too short to contain the tail.
    pub fn decode_terminated(&self, coded: &[u8]) -> Option<Vec<u8>> {
        assert!(coded.len().is_multiple_of(2), "coded stream must contain bit pairs");
        let nsteps = coded.len() / 2;
        if nsteps < K - 1 {
            return None;
        }
        // even[j] / odd[j]: path metric of state 2j / 2j + 1.
        let mut even = [UNREACHED; HALF];
        let mut odd = [UNREACHED; HALF];
        // The trellis starts in the all-zero state.
        even[0] = 0;
        // Bit ns of decisions[t]: state ns was entered from its odd predecessor.
        let mut decisions = Vec::with_capacity(nsteps);
        for pair in coded.chunks_exact(2) {
            let branch = &BRANCH[usize::from(((pair[0] & 1) << 1) | (pair[1] & 1))];
            let mut next = [0u32; NSTATES];
            let mut decided = 0u64;
            for bit in 0..2 {
                let (from_even, from_odd) = (&branch[0][bit], &branch[1][bit]);
                let mut word = 0u32;
                for j in 0..HALF {
                    let via_even = even[j] + from_even[j];
                    let via_odd = odd[j] + from_odd[j];
                    let odd_wins = via_odd < via_even;
                    next[bit * HALF + j] = if odd_wins { via_odd } else { via_even };
                    word |= u32::from(odd_wins) << j;
                }
                decided |= u64::from(word) << (bit * HALF);
            }
            for j in 0..HALF {
                even[j] = next[2 * j];
                odd[j] = next[2 * j + 1];
            }
            decisions.push(decided);
        }

        // Terminated stream ends in state 0.
        let mut state = 0usize;
        let mut bits = vec![0u8; nsteps];
        for (bit, d) in bits.iter_mut().zip(&decisions).rev() {
            *bit = (state >> 5) as u8;
            state = ((state & (HALF - 1)) << 1) | ((d >> state) & 1) as usize;
        }
        bits.truncate(nsteps - (K - 1)); // strip flush bits
        Some(bits)
    }
}

/// Reference decoder: a branchy add-compare-select over ascending
/// states that keeps the first strict minimum and skips unreached
/// states. The bit-for-bit oracle of [`ViterbiDecoder`].
#[cfg(test)]
fn decode_terminated_reference(coded: &[u8]) -> Option<Vec<u8>> {
    let mut outputs = vec![[(0u8, 0u8); 2]; NSTATES];
    for (state, out) in outputs.iter_mut().enumerate() {
        for bit in 0..2u8 {
            let reg = ((bit as usize) << 6) | state;
            let o0 = (reg & G0 as usize).count_ones() as u8 & 1;
            let o1 = (reg & G1 as usize).count_ones() as u8 & 1;
            out[bit as usize] = (o0, o1);
        }
    }
    assert!(coded.len().is_multiple_of(2), "coded stream must contain bit pairs");
    let nsteps = coded.len() / 2;
    if nsteps < K - 1 {
        return None;
    }
    const INF: u32 = u32::MAX / 2;
    let mut metric = vec![INF; NSTATES];
    metric[0] = 0;
    let mut next = vec![INF; NSTATES];
    let mut survivors: Vec<[u8; NSTATES]> = Vec::with_capacity(nsteps);
    let mut prev_state: Vec<[u8; NSTATES]> = Vec::with_capacity(nsteps);
    #[allow(clippy::needless_range_loop)] // trellis states are ids, not positions
    for t in 0..nsteps {
        let r0 = coded[2 * t];
        let r1 = coded[2 * t + 1];
        next.iter_mut().for_each(|m| *m = INF);
        let mut surv = [0u8; NSTATES];
        let mut prev = [0u8; NSTATES];
        for state in 0..NSTATES {
            let m = metric[state];
            if m >= INF {
                continue;
            }
            for bit in 0..2usize {
                let (o0, o1) = outputs[state][bit];
                let branch = (o0 ^ r0) as u32 + (o1 ^ r1) as u32;
                let ns = ((bit << 6) | state) >> 1;
                let cand = m + branch;
                if cand < next[ns] {
                    next[ns] = cand;
                    surv[ns] = bit as u8;
                    prev[ns] = state as u8;
                }
            }
        }
        std::mem::swap(&mut metric, &mut next);
        survivors.push(surv);
        prev_state.push(prev);
    }
    let mut state = 0usize;
    let mut bits = vec![0u8; nsteps];
    for t in (0..nsteps).rev() {
        bits[t] = survivors[t][state];
        state = prev_state[t][state] as usize;
    }
    bits.truncate(nsteps - (K - 1));
    Some(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &[u8]) -> Vec<u8> {
        let coded = ConvolutionalEncoder::new().encode_terminated(msg);
        ViterbiDecoder::new().decode_terminated(&coded).unwrap()
    }

    #[test]
    fn encode_doubles_length() {
        let coded = ConvolutionalEncoder::new().encode(&[1, 0, 1, 1]);
        assert_eq!(coded.len(), 8);
        assert!(coded.iter().all(|&b| b <= 1));
    }

    #[test]
    fn terminated_round_trip_various_lengths() {
        for len in [1usize, 2, 7, 8, 63, 64, 100] {
            let msg: Vec<u8> = (0..len).map(|i| ((i * 37 + 11) % 3 % 2) as u8).collect();
            assert_eq!(round_trip(&msg), msg, "len {len}");
        }
    }

    #[test]
    fn all_zero_and_all_one_messages() {
        assert_eq!(round_trip(&[0; 64]), vec![0; 64]);
        assert_eq!(round_trip(&[1; 64]), vec![1; 64]);
    }

    #[test]
    fn corrects_scattered_bit_errors() {
        let msg: Vec<u8> = (0..64).map(|i| ((i >> 2) % 2) as u8).collect();
        let mut coded = ConvolutionalEncoder::new().encode_terminated(&msg);
        // Flip well-separated bits — within the free-distance budget.
        for &pos in &[3usize, 40, 80, 120] {
            coded[pos] ^= 1;
        }
        let decoded = ViterbiDecoder::new().decode_terminated(&coded).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn encoder_state_terminates_to_zero() {
        let mut enc = ConvolutionalEncoder::new();
        enc.encode_terminated(&[1, 1, 0, 1, 0, 0, 1]);
        assert_eq!(enc.state, 0);
    }

    #[test]
    fn too_short_stream_is_none() {
        let dec = ViterbiDecoder::new();
        assert!(dec.decode_terminated(&[0, 0]).is_none());
    }

    /// Flips each bit of `coded` with probability `per_mille / 1000`.
    fn flip_bits(coded: &mut [u8], per_mille: u64, mut seed: u64) {
        for bit in coded {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (seed >> 33) % 1000 < per_mille {
                *bit ^= 1;
            }
        }
    }

    #[test]
    fn matches_reference_on_every_short_stream() {
        // Every stream of 7 bit pairs: the trellis is still filling for the
        // first 6 steps, so unreached states take part in each step.
        for word in 0u32..1 << 14 {
            let coded: Vec<u8> = (0..14).map(|i| (word >> i) as u8 & 1).collect();
            assert_eq!(
                ViterbiDecoder::new().decode_terminated(&coded),
                decode_terminated_reference(&coded),
                "{coded:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Terminated codewords with 0-25% of their bits flipped decode to
        /// the same bits as the reference decoder's.
        #[test]
        fn matches_reference_on_noisy_codewords(
            msg in proptest::collection::vec(0u8..2, 0..160),
            per_mille in 0u64..=250,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut coded = ConvolutionalEncoder::new().encode_terminated(&msg);
            flip_bits(&mut coded, per_mille, seed);
            let decoded = ViterbiDecoder::new().decode_terminated(&coded);
            proptest::prop_assert_eq!(decoded, decode_terminated_reference(&coded));
        }

        /// Arbitrary bit pairs, codewords or not, decode as the reference does.
        #[test]
        fn matches_reference_on_arbitrary_pairs(
            pairs in proptest::collection::vec((0u8..2, 0u8..2), 0..200),
        ) {
            let coded: Vec<u8> = pairs.iter().flat_map(|&(r0, r1)| [r0, r1]).collect();
            let decoded = ViterbiDecoder::new().decode_terminated(&coded);
            proptest::prop_assert_eq!(decoded, decode_terminated_reference(&coded));
        }

        /// Bytes other than 0 and 1 shift every path metric of a step by
        /// the same amount in the reference, so only their low bits decide.
        #[test]
        fn matches_reference_on_arbitrary_bytes(
            pairs in proptest::collection::vec(proptest::prelude::any::<(u8, u8)>(), 0..200),
        ) {
            let coded: Vec<u8> = pairs.iter().flat_map(|&(r0, r1)| [r0, r1]).collect();
            let decoded = ViterbiDecoder::new().decode_terminated(&coded);
            proptest::prop_assert_eq!(decoded, decode_terminated_reference(&coded));
        }
    }

    #[test]
    fn known_vector_first_outputs() {
        // Input 1 into zero state: register = 1000000b.
        // G0 = 1111001b -> parity of bit6 = 1; G1 = 1011011b -> bit6 = 1.
        let mut enc = ConvolutionalEncoder::new();
        assert_eq!(enc.push(1), (1, 1));
        // Next input 0: register = 0100000b. G0 bit5=1 -> 1; G1 bit5=0... compute:
        // G0 = 0o171 = 0b1111001 (bit5 set) => 1. G1 = 0o133 = 0b1011011 (bit5 = 0) => 0.
        assert_eq!(enc.push(0), (1, 0));
    }
}
