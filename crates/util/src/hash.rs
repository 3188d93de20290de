//! The workspace's one non-cryptographic hasher, [`MixHasher`].
//!
//! FxHash's multiply-rotate step per 64-bit word, then MurmurHash3's
//! `fmix64` avalanche at [`Hasher::finish`]. Its algorithm is fixed
//! here, so a value it makes is the same on every toolchain — which
//! std's `DefaultHasher` (SipHash with keys and rounds Rust does not
//! promise) cannot say — and it costs a fraction of SipHash per word.
//! Every integer write is a little-endian word, so the value is the
//! same on every platform too. What a `#[derive(Hash)]` feeds a hasher
//! is still std's.
//!
//! Not collision-resistant against crafted input: it keys graph
//! digests, operator signatures and rule buckets, where a collision
//! costs at most one missed candidate or one mis-costed operator of
//! the graph that was crafted.

use std::hash::Hasher;

/// Multiply-rotate per word, `fmix64` at the end (module docs).
///
/// ```
/// use magis_util::hash::MixHasher;
/// use std::hash::{Hash, Hasher};
///
/// let mut h = MixHasher::default();
/// (7u64, "relu").hash(&mut h);
/// let a = h.finish();
/// let mut h = MixHasher::default();
/// (7u64, "relu").hash(&mut h);
/// assert_eq!(a, h.finish());
/// ```
#[derive(Debug, Default, Clone)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(x: &T) -> u64 {
        let mut h = MixHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn values_are_fixed() {
        // The algorithm is this file's, so its values are too: a change
        // that moves them moves every stored digest.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), 0x37e8_d294_6949_7cd2);
        assert_eq!(hash_of(&(1u64, 2u64)), hash_of(&(1u64, 2u64)));
        assert_ne!(hash_of(&(1u64, 2u64)), hash_of(&(2u64, 1u64)), "word order matters");
    }

    #[test]
    fn narrow_words_hash_as_their_u64() {
        for x in [0u64, 1, 255, 65_535, u64::from(u32::MAX)] {
            let mut wide = MixHasher::default();
            wide.write_u64(x);
            if let Ok(b) = u8::try_from(x) {
                let mut h = MixHasher::default();
                h.write_u8(b);
                assert_eq!(h.finish(), wide.finish());
            }
            if let Ok(w) = u32::try_from(x) {
                let mut h = MixHasher::default();
                h.write_u32(w);
                assert_eq!(h.finish(), wide.finish());
                let mut h = MixHasher::default();
                h.write(&w.to_le_bytes());
                assert_eq!(h.finish(), wide.finish(), "a short chunk pads with zeros");
            }
        }
    }
}
