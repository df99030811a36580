//! The workspace's hash primitives and its one canonical encoding.
//!
//! [`Canon`] writes a value's identity as bytes: strings and lists are
//! length-prefixed, enums and `Option`s tagged, integers LEB128 varints
//! and floats their bits, so two values encode equal exactly when they
//! are equal. An application's encoding hashed by [`hash_bytes`] is its
//! [content hash]; a scenario's encoding is the result cache's key and,
//! hashed, its fingerprint. [`mix`] (the splitmix64 finalizer, stable
//! across builds and hosts) builds the fault plan's decision hash and
//! the serve daemon's span ids and retry jitter.
//!
//! [content hash]: crate::app::ApplicationSpec::content_hash

use std::time::Duration;

/// The splitmix64 finalizer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds one word into the running hash.
pub fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v)
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A 64-bit hash of `bytes`, read eight bytes at a time: word `i` folds
/// into lane `i % 4`, so the four chains' mixing overlaps instead of
/// queueing, and the lanes and the length fold together at the end.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut lanes = [0x5ce0_a9d1_57ab_1e00u64, 1, 2, 3].map(splitmix64);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *lane = mix(*lane, u64::from_le_bytes(word));
    }
    lanes.into_iter().fold(bytes.len() as u64, mix)
}

/// A canonical, injective byte encoding under construction (see the
/// module docs). Each encoder writes its fields in a fixed order.
#[derive(Debug, Default)]
pub struct Canon(pub Vec<u8>);

impl Canon {
    /// An unsigned integer, as a LEB128 varint.
    #[inline]
    pub fn uint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.0.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.0.push(v as u8);
    }

    /// An enum variant's or an `Option`'s tag.
    #[inline]
    pub fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    /// Length-prefixed bytes, or a string's UTF-8.
    pub fn bytes(&mut self, b: impl AsRef<[u8]>) {
        self.uint(b.as_ref().len() as u64);
        self.0.extend_from_slice(b.as_ref());
    }

    /// A float, by its bits.
    #[inline]
    pub fn f64(&mut self, x: f64) {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    /// A duration: whole seconds, then nanoseconds.
    #[inline]
    pub fn dur(&mut self, d: Duration) {
        self.uint(d.as_secs());
        self.uint(d.subsec_nanos() as u64);
    }

    /// An optional value, tagged so `None` and `Some` of anything differ.
    pub fn opt<T>(&mut self, v: Option<T>, some: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.tag(0),
            Some(v) => {
                self.tag(1);
                some(self, v);
            }
        }
    }

    /// A length-prefixed sequence, each item by `item`.
    pub fn list<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.uint(items.len() as u64);
        for x in items {
            item(self, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_hash_reads_every_byte_and_the_length() {
        let data: Vec<u8> = (0..100u8).collect();
        for i in [0, 31, 32, 63, 99] {
            let mut d = data.clone();
            d[i] ^= 1;
            assert_ne!(hash_bytes(&d), hash_bytes(&data), "byte {i}");
        }
        assert_ne!(hash_bytes(&[0]), hash_bytes(&[0, 0]));
    }
}
