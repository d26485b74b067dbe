//! Multi-lane instruction-level-parallel SHA-256.
//!
//! A single SHA-256 compression is a long dependency chain: each of the
//! 64 rounds needs the previous round's working variables, so a modern
//! out-of-order core spends most of its issue width waiting. `N`
//! *independent* compressions, interleaved instruction by instruction,
//! fill those idle slots — the classic multi-buffer technique (as in
//! OpenSSL's SHA multi-block and Intel's isa-l), here written as plain
//! portable Rust: every round operates on `[u32; N]` lane arrays and
//! the compiler schedules (and often vectorizes) the `N` independent
//! data flows.
//!
//! The consumer is the server-side trapdoor scan: one HMAC check-PRF
//! evaluation per `(trapdoor, cipher word)` pair, millions per query,
//! all under the *same* key and all over equal-length messages. That
//! shape is exactly what this type supports — `N` lanes advancing in
//! lockstep (equal-length updates), seeded either fresh or from one
//! shared block-aligned prefix state (the HMAC key schedule, run once).
//!
//! The lane count is a const generic, so there is one implementation
//! for every width; production instantiates the single width
//! [`LANES`], fixed at compile time per codegen target.
//!
//! This is a pure scheduling transform: each lane computes bit-for-bit
//! the digest [`Sha256`] computes (the module tests pin that for every
//! width), so callers funnel into identical accept/reject decisions
//! whichever path ran.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Lane count the scan kernel instantiates, chosen per codegen target
/// by a measured sweep (the table and host are in
/// `.cargo/config.toml`; rerun it with the `scan_kernel` bench). With
/// AVX2 or AVX-512 (which implies AVX2) sixteen lanes decide scan
/// words fastest: about 2.5× four lanes per compression under
/// AVX-512, about 1.2× per scanned word under AVX2, where thirty-two
/// compress faster still but lose it again to staging. Without AVX2
/// the vector rotate is missing, wider lanes scalarize, and four is
/// the fastest width measured.
pub const LANES: usize = if cfg!(target_feature = "avx2") { 16 } else { 4 };

/// SHA-256 round constants (FIPS 180-4 §4.2.2) — same table the scalar
/// implementation uses.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// `N` SHA-256 computations advancing in lockstep.
///
/// All lanes must absorb the same number of bytes per [`update`]
/// (enforced), so one shared buffer fill level and total length cover
/// all `N`. Finalization pads every lane identically and runs the
/// last compression `N`-wide.
///
/// [`update`]: Sha256Lanes::update
#[derive(Clone)]
pub struct Sha256Lanes<const N: usize> {
    /// Per-lane hash state.
    states: [[u32; 8]; N],
    /// Per-lane partial-block buffers (same fill level in every lane).
    buf: [[u8; BLOCK_LEN]; N],
    /// Valid bytes in each lane's buffer.
    buf_len: usize,
    /// Bytes absorbed per lane (equal by construction).
    total_len: u64,
}

impl<const N: usize> Default for Sha256Lanes<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> Sha256Lanes<N> {
    /// `N` fresh hashers.
    #[must_use]
    pub fn new() -> Self {
        Self::from_state(H0, 0)
    }

    /// `N` hashers that have all absorbed the same block-aligned
    /// prefix, given that prefix's `(state, length)` — the shape HMAC
    /// needs: the key schedule (one `ipad`/`opad` block) runs once and
    /// every lane continues from it.
    ///
    /// # Panics
    /// Debug-asserts that `prefix_len` is a whole number of blocks;
    /// a partial block cannot be replicated into lockstep lanes.
    #[must_use]
    pub fn from_state(state: [u32; 8], prefix_len: u64) -> Self {
        debug_assert_eq!(
            prefix_len % BLOCK_LEN as u64,
            0,
            "lane prefix must be block-aligned"
        );
        Sha256Lanes {
            states: [state; N],
            buf: [[0u8; BLOCK_LEN]; N],
            buf_len: 0,
            total_len: prefix_len,
        }
    }

    /// `N` hashers continuing a scalar hasher's block-aligned state
    /// (see [`Sha256`]); the seed for the HMAC inner/outer lanes.
    #[must_use]
    pub fn from_sha256(h: &Sha256) -> Self {
        let (state, len) = h.lane_seed();
        Self::from_state(state, len)
    }

    /// Absorbs `msgs[l]` into lane `l`. All `N` messages must have the
    /// same length — the lanes advance in lockstep.
    ///
    /// # Panics
    /// Panics if the message lengths differ.
    pub fn update(&mut self, msgs: [&[u8]; N]) {
        let len = msgs.first().map_or(0, |m| m.len());
        assert!(
            msgs.iter().all(|m| m.len() == len),
            "lanes must advance in lockstep (equal-length updates)"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);
        let mut pos = 0usize;

        // Top up the shared partial block.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(len);
            for (buf, msg) in self.buf.iter_mut().zip(&msgs) {
                buf[self.buf_len..self.buf_len + take].copy_from_slice(&msg[..take]);
            }
            self.buf_len += take;
            pos = take;
            if self.buf_len == BLOCK_LEN {
                compress_states(&mut self.states, &self.buf);
                self.buf_len = 0;
            }
        }

        // Whole blocks, `N` at a time across the lanes.
        while len - pos >= BLOCK_LEN {
            let blocks: [[u8; BLOCK_LEN]; N] = std::array::from_fn(|l| {
                msgs[l][pos..pos + BLOCK_LEN]
                    .try_into()
                    .expect("slice is one block long")
            });
            compress_states(&mut self.states, &blocks);
            pos += BLOCK_LEN;
        }

        // Stash the remainder.
        if pos < len {
            for (buf, msg) in self.buf.iter_mut().zip(&msgs) {
                buf[..len - pos].copy_from_slice(&msg[pos..]);
            }
            self.buf_len = len - pos;
        }
    }

    /// Finishes all `N` computations, writing lane `l`'s digest to
    /// `out[l]`. Padding is identical across lanes (equal lengths), so
    /// the final compressions run `N`-wide too.
    pub fn finalize_into(mut self, out: &mut [[u8; DIGEST_LEN]; N]) {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        for buf in &mut self.buf {
            buf[n] = 0x80;
        }
        if n + 1 > 56 {
            // No room for the length: pad this block out and compress.
            for buf in &mut self.buf {
                buf[n + 1..].fill(0);
            }
            compress_states(&mut self.states, &self.buf);
            for buf in &mut self.buf {
                buf[..56].fill(0);
            }
        } else {
            for buf in &mut self.buf {
                buf[n + 1..56].fill(0);
            }
        }
        for buf in &mut self.buf {
            buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        }
        compress_states(&mut self.states, &self.buf);
        write_digests(&self.states, out);
    }
}

/// Serializes `N` lane states into `N` big-endian digests.
pub(crate) fn write_digests<const N: usize>(
    states: &[[u32; 8]; N],
    out: &mut [[u8; DIGEST_LEN]; N],
) {
    for (digest, state) in out.iter_mut().zip(states) {
        for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
    }
}

/// FIPS 180-4 §6.2.2 over `N` independent blocks, interleaved: lane
/// `l` compresses `blocks[l]` into `states[l]`. Shared by the
/// incremental [`Sha256Lanes`] and the single-block HMAC fast path
/// ([`crate::prf::HmacPrf::eval_lanes_into`]), which pads its blocks
/// itself and skips the buffering machinery entirely.
///
/// Written in the multi-buffer idiom: every value is a `V`
/// (`[u32; N]` elementwise ops) and the 64 rounds are unrolled in
/// the classic 8-round register-rotation pattern, so the whole body is
/// straight-line SSA over vectors — LLVM keeps the working variables
/// in SIMD registers and the `N` dependency chains issue in parallel.
/// (The x86-64 SSE2 baseline has no vector rotate; build with a target
/// that does — see `.cargo/config.toml` — for the full effect.)
pub fn compress_states<const N: usize>(states: &mut [[u32; 8]; N], blocks: &[[u8; BLOCK_LEN]; N]) {
    // Message schedules, lane-minor: w[t] is one `[u32; N]`.
    let mut w = [V([0u32; N]); 64];
    for (t, wt) in w.iter_mut().take(16).enumerate() {
        for (l, block) in blocks.iter().enumerate() {
            let i = t * 4;
            wt.0[l] = u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        }
    }
    for t in 16..64 {
        let s0 = w[t - 15].sigma(7, 18, 3);
        let s1 = w[t - 2].sigma(17, 19, 10);
        w[t] = w[t - 16].add(s0).add(w[t - 7]).add(s1);
    }

    // Transpose the state: one vector per working variable.
    let load = |r: usize| V(std::array::from_fn(|l| states[l][r]));
    let mut a = load(0);
    let mut b = load(1);
    let mut c = load(2);
    let mut d = load(3);
    let mut e = load(4);
    let mut f = load(5);
    let mut g = load(6);
    let mut h = load(7);

    // One round; the caller permutes the variable roles instead of
    // shifting registers (exactly like optimized scalar SHA-256).
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            let t1 = $h
                .add($e.big_sigma(6, 11, 25))
                .add($e.ch($f, $g))
                .add(V::splat(K[$t]))
                .add(w[$t]);
            let t2 = $a.big_sigma(2, 13, 22).add($a.maj($b, $c));
            $d = $d.add(t1);
            $h = t1.add(t2);
        };
    }
    let mut t = 0usize;
    while t < 64 {
        round!(a, b, c, d, e, f, g, h, t);
        round!(h, a, b, c, d, e, f, g, t + 1);
        round!(g, h, a, b, c, d, e, f, t + 2);
        round!(f, g, h, a, b, c, d, e, t + 3);
        round!(e, f, g, h, a, b, c, d, t + 4);
        round!(d, e, f, g, h, a, b, c, t + 5);
        round!(c, d, e, f, g, h, a, b, t + 6);
        round!(b, c, d, e, f, g, h, a, t + 7);
        t += 8;
    }

    for (r, v) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
        for (l, state) in states.iter_mut().enumerate() {
            state[r] = state[r].wrapping_add(v.0[l]);
        }
    }
}

/// `[u32; N]` with elementwise SHA-256 operations — the vector the
/// interleaved compression is written in. Plain portable Rust; the
/// fixed-width elementwise loops map straight onto SIMD registers.
#[derive(Copy, Clone)]
struct V<const N: usize>([u32; N]);

impl<const N: usize> V<N> {
    #[inline(always)]
    fn splat(k: u32) -> Self {
        V([k; N])
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        V(std::array::from_fn(|l| self.0[l].wrapping_add(o.0[l])))
    }

    #[inline(always)]
    fn rotr(self, n: u32) -> Self {
        V(std::array::from_fn(|l| self.0[l].rotate_right(n)))
    }

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        V(std::array::from_fn(|l| self.0[l] >> n))
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        V(std::array::from_fn(|l| self.0[l] ^ o.0[l]))
    }

    /// `σ`: two rotations and a shift (message schedule).
    #[inline(always)]
    fn sigma(self, r1: u32, r2: u32, s: u32) -> Self {
        self.rotr(r1).xor(self.rotr(r2)).xor(self.shr(s))
    }

    /// `Σ`: three rotations (round function).
    #[inline(always)]
    fn big_sigma(self, r1: u32, r2: u32, r3: u32) -> Self {
        self.rotr(r1).xor(self.rotr(r2)).xor(self.rotr(r3))
    }

    /// `Ch(e, f, g) = (e ∧ f) ⊕ (¬e ∧ g)`.
    #[inline(always)]
    fn ch(self, f: Self, g: Self) -> Self {
        V(std::array::from_fn(|l| {
            (self.0[l] & f.0[l]) ^ (!self.0[l] & g.0[l])
        }))
    }

    /// `Maj(a, b, c) = (a ∧ b) ⊕ (a ∧ c) ⊕ (b ∧ c)`.
    #[inline(always)]
    fn maj(self, b: Self, c: Self) -> Self {
        V(std::array::from_fn(|l| {
            (self.0[l] & b.0[l]) ^ (self.0[l] & c.0[l]) ^ (b.0[l] & c.0[l])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes for equivalence sweeps.
    fn splatter(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn lanes_digest(msgs: [&[u8]; LANES]) -> [[u8; DIGEST_LEN]; LANES] {
        let mut h = Sha256Lanes::new();
        h.update(msgs);
        let mut out = [[0u8; DIGEST_LEN]; LANES];
        h.finalize_into(&mut out);
        out
    }

    #[test]
    fn lanes_match_scalar_across_padding_boundaries() {
        // Every padding path: short, 55/56/57, one block, crossing
        // blocks, several blocks.
        for len in [
            0usize, 1, 13, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 300,
        ] {
            let msgs: [Vec<u8>; LANES] = std::array::from_fn(|l| splatter(l as u64 * 7 + 1, len));
            let out = lanes_digest(std::array::from_fn(|l| &msgs[l][..]));
            for (l, msg) in msgs.iter().enumerate() {
                assert_eq!(
                    out[l],
                    Sha256::digest(msg),
                    "lane {l} diverged at len {len}"
                );
            }
        }
    }

    /// One compression `N`-wide equals `N` scalar single-block hashes,
    /// for every width the sweep considers (not only [`LANES`]).
    fn compress_states_matches_scalar<const N: usize>() {
        // Pad 55-byte messages by hand into one final block each.
        let msgs: [Vec<u8>; N] = std::array::from_fn(|l| splatter(l as u64 + 3, 55));
        let blocks: [[u8; BLOCK_LEN]; N] = std::array::from_fn(|l| {
            let mut block = [0u8; BLOCK_LEN];
            block[..55].copy_from_slice(&msgs[l]);
            block[55] = 0x80;
            block[56..].copy_from_slice(&(55u64 * 8).to_be_bytes());
            block
        });
        let mut states = [H0; N];
        compress_states(&mut states, &blocks);
        let mut out = [[0u8; DIGEST_LEN]; N];
        write_digests(&states, &mut out);
        for (l, msg) in msgs.iter().enumerate() {
            assert_eq!(out[l], Sha256::digest(msg), "lane {l} of {N} diverged");
        }
    }

    #[test]
    fn compress_states_matches_scalar_at_every_swept_width() {
        compress_states_matches_scalar::<4>();
        compress_states_matches_scalar::<8>();
        compress_states_matches_scalar::<16>();
        compress_states_matches_scalar::<32>();
    }

    #[test]
    fn incremental_updates_match_oneshot() {
        let msgs: [Vec<u8>; LANES] = std::array::from_fn(|l| splatter(l as u64 + 99, 200));
        for split in [0usize, 1, 63, 64, 65, 127, 199, 200] {
            let mut h = Sha256Lanes::new();
            h.update(std::array::from_fn(|l| &msgs[l][..split]));
            h.update(std::array::from_fn(|l| &msgs[l][split..]));
            let mut out = [[0u8; DIGEST_LEN]; LANES];
            h.finalize_into(&mut out);
            for (l, msg) in msgs.iter().enumerate() {
                assert_eq!(out[l], Sha256::digest(msg), "lane {l} split {split}");
            }
        }
    }

    #[test]
    fn from_state_continues_a_shared_prefix() {
        // The HMAC shape: one 64-byte prefix absorbed once, then
        // `LANES` different continuations.
        let prefix = splatter(5, BLOCK_LEN);
        let mut scalar_prefix = Sha256::new();
        scalar_prefix.update(&prefix);

        let tails: [Vec<u8>; LANES] = std::array::from_fn(|l| splatter(l as u64 + 40, 77));
        let mut lanes = Sha256Lanes::from_sha256(&scalar_prefix);
        lanes.update(std::array::from_fn(|l| &tails[l][..]));
        let mut out = [[0u8; DIGEST_LEN]; LANES];
        lanes.finalize_into(&mut out);

        for (l, tail) in tails.iter().enumerate() {
            let mut scalar = scalar_prefix.clone();
            scalar.update(tail);
            assert_eq!(out[l], scalar.finalize(), "lane {l} diverged after prefix");
        }
    }

    #[test]
    #[should_panic(expected = "lockstep")]
    fn unequal_lane_lengths_rejected() {
        let mut h = Sha256Lanes::<LANES>::new();
        // Every lane "aa" except the last, which is one byte short.
        h.update(std::array::from_fn(|l| {
            if l + 1 == LANES {
                &b"a"[..]
            } else {
                &b"aa"[..]
            }
        }));
    }

    #[test]
    fn known_vector_in_every_lane() {
        let out = lanes_digest([b"abc"; LANES]);
        let expected = Sha256::digest(b"abc");
        for lane in &out {
            assert_eq!(lane, &expected);
        }
        let hex: String = out[0].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
