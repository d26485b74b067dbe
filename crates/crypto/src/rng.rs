//! Entropy sources.
//!
//! Two sources exist: the operating system (for real key generation)
//! and a deterministic ChaCha20-based generator (for reproducible
//! experiments — every experiment binary in `crates/bench/src/bin/`
//! takes a seed, so its tables regenerate bit-for-bit).

use crate::chacha20;

/// A source of (pseudo)random bytes for key and nonce generation.
pub trait EntropySource {
    /// Fills `out` with random bytes.
    fn fill(&mut self, out: &mut [u8]);

    /// Convenience: returns a random array.
    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        self.fill(&mut out);
        out
    }

    /// Returns a uniformly random `u64`.
    fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.array::<8>())
    }

    /// Returns a uniformly random value in `0..bound` (rejection
    /// sampling, no modulo bias).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly random bit.
    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }
}

/// OS-backed entropy, read directly from `/dev/urandom` so the crate
/// needs no external dependency. Non-Unix targets are out of scope for
/// this workspace.
pub struct OsEntropy;

impl EntropySource for OsEntropy {
    fn fill(&mut self, out: &mut [u8]) {
        use std::io::Read;
        let mut f = std::fs::File::open("/dev/urandom")
            .expect("OS entropy unavailable: cannot open /dev/urandom");
        f.read_exact(out)
            .expect("OS entropy unavailable: short read from /dev/urandom");
    }
}

/// Deterministic generator: a ChaCha20 keystream over a seed-derived
/// key. Identical seeds produce identical byte streams on every
/// platform, which is what makes the experiment tables reproducible.
#[derive(Clone)]
pub struct DeterministicRng {
    key: [u8; chacha20::KEY_LEN],
    counter: u64,
    buf: [u8; chacha20::BLOCK_LEN],
    buf_used: usize,
}

impl DeterministicRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let key = crate::kdf::derive_array(&seed.to_le_bytes(), b"dbph/rng/v1");
        DeterministicRng {
            key,
            counter: 0,
            buf: [0u8; chacha20::BLOCK_LEN],
            buf_used: chacha20::BLOCK_LEN,
        }
    }

    /// Derives an independent child generator; children with different
    /// labels never share stream bytes with each other or the parent.
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        let mut seed_material = self.key.to_vec();
        seed_material.extend_from_slice(label.as_bytes());
        let key = crate::kdf::derive_array(&seed_material, b"dbph/rng/child/v1");
        DeterministicRng {
            key,
            counter: 0,
            buf: [0u8; chacha20::BLOCK_LEN],
            buf_used: chacha20::BLOCK_LEN,
        }
    }

    fn refill(&mut self) {
        let mut nonce = [0u8; chacha20::NONCE_LEN];
        nonce[..8].copy_from_slice(&self.counter.to_le_bytes());
        self.buf = chacha20::block(&self.key, &nonce, 0);
        self.counter += 1;
        self.buf_used = 0;
    }
}

impl EntropySource for DeterministicRng {
    fn fill(&mut self, out: &mut [u8]) {
        let mut offset = 0;
        while offset < out.len() {
            if self.buf_used == chacha20::BLOCK_LEN {
                self.refill();
            }
            let take = (out.len() - offset).min(chacha20::BLOCK_LEN - self.buf_used);
            out[offset..offset + take]
                .copy_from_slice(&self.buf[self.buf_used..self.buf_used + take]);
            self.buf_used += take;
            offset += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = DeterministicRng::from_seed(7);
        let mut b = DeterministicRng::from_seed(7);
        assert_eq!(a.array::<40>(), b.array::<40>());
    }

    #[test]
    fn seeds_differ() {
        let mut a = DeterministicRng::from_seed(1);
        let mut b = DeterministicRng::from_seed(2);
        assert_ne!(a.array::<32>(), b.array::<32>());
    }

    #[test]
    fn children_are_independent() {
        let parent = DeterministicRng::from_seed(3);
        let mut c1 = parent.child("keys");
        let mut c2 = parent.child("nonces");
        let mut c1_again = parent.child("keys");
        let a = c1.array::<32>();
        assert_ne!(a, c2.array::<32>());
        assert_eq!(a, c1_again.array::<32>());
    }

    #[test]
    fn fill_is_stream_consistent() {
        // Reading 100 bytes at once equals reading them in pieces.
        let mut a = DeterministicRng::from_seed(5);
        let mut whole = [0u8; 100];
        a.fill(&mut whole);

        let mut b = DeterministicRng::from_seed(5);
        let mut pieces = Vec::new();
        for chunk in [10usize, 1, 63, 26] {
            let mut buf = vec![0u8; chunk];
            b.fill(&mut buf);
            pieces.extend_from_slice(&buf);
        }
        assert_eq!(pieces, whole.to_vec());
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = DeterministicRng::from_seed(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    fn coin_is_roughly_fair() {
        let mut rng = DeterministicRng::from_seed(13);
        let heads = (0..10_000).filter(|_| rng.coin()).count();
        assert!((4500..5500).contains(&heads), "heads {heads}");
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        let mut rng = DeterministicRng::from_seed(1);
        let _ = rng.below(0);
    }

    #[test]
    fn os_entropy_produces_distinct_outputs() {
        let mut os = OsEntropy;
        let a = os.array::<32>();
        let b = os.array::<32>();
        assert_ne!(a, b);
    }
}
