//! The workspace's stateless hash primitives: an application's content
//! hash ([`ApplicationSpec::content_hash`]) and the scenario
//! fingerprint that folds it in are built from them, as are the fault
//! plan's decision hash and the serve daemon's span ids and retry
//! jitter.
//!
//! Each `mix*` function folds one value into a running 64-bit hash
//! with the splitmix64 finalizer: strong, dependency-free, and stable
//! across builds and hosts.
//!
//! [`ApplicationSpec::content_hash`]: crate::app::ApplicationSpec::content_hash

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

/// Folds a string (length, then content).
pub fn mix_str(h: u64, s: &str) -> u64 {
    mix(mix(h, s.len() as u64), fnv1a(s.as_bytes()))
}

/// Folds a float by its bits.
pub fn mix_f64(h: u64, x: f64) -> u64 {
    mix(h, x.to_bits())
}

/// Folds a duration in nanoseconds.
pub fn mix_dur(h: u64, d: Duration) -> u64 {
    mix(h, d.as_nanos() as u64)
}

/// Folds an optional duration, tagged so `None` and `Some(0)` differ.
pub fn mix_opt_dur(h: u64, d: Option<Duration>) -> u64 {
    match d {
        Some(d) => mix_dur(mix(h, 1), d),
        None => mix(h, 0),
    }
}
