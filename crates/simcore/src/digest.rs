//! The one fold behind every digest in the workspace: FNV-1a's offset
//! basis and its xor-then-multiply step, over words or over bytes.
//!
//! The two folds multiply by different constants. The byte fold uses
//! FNV-1a's 64-bit prime, 2⁴⁰ + 0x1b3. The word fold uses 2⁴⁸ + 0x1b3,
//! which is not FNV's prime; it is kept because every pinned digest
//! made of words (sessions, fault plans, audit trails, the benchmark's)
//! was made with it. Either is odd, so each step is a bijection.

/// FNV-1a's 64-bit offset basis: the digest of nothing.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a's 64-bit prime, the byte fold's multiplier.
const BYTE_PRIME: u64 = 0x100_0000_01b3;

/// The word fold's multiplier.
const WORD_PRIME: u64 = 0x1_0000_0000_01b3;

/// Folds one word into `hash`.
pub const fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(WORD_PRIME)
}

/// Folds `bytes` into `hash`, one byte at a time.
pub fn mix_bytes(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(BYTE_PRIME))
}
