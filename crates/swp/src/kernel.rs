//! The allocation-free multi-lane scan kernel.
//!
//! Every query in the paper's scheme is a full server-side scan: one
//! SWP check per `(trapdoor, cipher word)` pair, so scan throughput
//! *is* system throughput. The scalar path ([`crate::search::matches`]
//! and [`PreparedTrapdoor::matches`]) decides one word at a time; this
//! kernel stages up to [`LANES`] words (16 under AVX2/AVX-512, 4
//! otherwise; see [`sha256x4::LANES`]), XORs `C ⊕ X` into fixed stack
//! buffers, and evaluates the [`LANES`] check PRFs through one
//! interleaved SHA-256 pipeline ([`HmacPrf::eval_lanes_into`]) — per
//! check: zero heap allocations, zero key-schedule work, and the SIMD
//! width and instruction-level parallelism that the scalar dependency
//! chain leaves idle.
//!
//! **Equivalence is load-bearing.** The kernel funnels into the *same*
//! accept/reject decision as the scalar check: the lane PRF is proven
//! bit-identical to [`Prf::eval_into`] (crypto-crate tests), the final
//! comparison is the shared [`check_eq`], remainder lanes (trailing
//! words at a flush) run either one padded dispatch or the scalar
//! `check_match_bytes` path, and length mismatches reject exactly as
//! the scalar check does. Proptests (`tests/scan_kernel.rs`) and the
//! unit sweep below enforce decision equality over random parameters,
//! words, and every lane remainder. Lane batching therefore changes
//! *when* PRF work happens, never what any observer of decisions,
//! responses, or transcripts sees.

use dbph_crypto::prf::{HmacPrf, Prf};
use dbph_crypto::sha256x4;

use crate::params::{check_eq, SwpParams};
use crate::search::{xor_halves, PreparedTrapdoor, MAX_INLINE_WORD};

/// Words decided per interleaved PRF dispatch.
pub const LANES: usize = sha256x4::LANES;

/// Smallest flush remainder decided by one padded full-width dispatch
/// rather than word by word through the scalar check: the measured
/// break-even, where one dispatch costs about as much as this many
/// scalar checks (`scan_kernel/remainder/*` bench rows). AVX-512
/// dispatches 16 lanes for ~3 scalar checks, AVX2 for ~8; the 4-lane
/// baseline dispatch costs ~3, so only a 3-word remainder pads.
const PAD_FLUSH_MIN: usize = if cfg!(target_feature = "avx512f") {
    3
} else if cfg!(target_feature = "avx2") {
    8
} else {
    3
};

/// A batch scan engine for one prepared trapdoor.
///
/// Feed cipher words with [`push`] (each tagged with a caller-chosen
/// `u32`, e.g. a document index) and finish with [`flush`]; decisions
/// are emitted to the sink **in push order**, possibly deferred until a
/// full dispatch or the flush. [`matches_many`] is the convenience
/// entry point over a contiguous fixed-width slot buffer — the shape
/// the columnar `WordArena` storage provides.
///
/// [`push`]: ScanKernel::push
/// [`flush`]: ScanKernel::flush
/// [`matches_many`]: ScanKernel::matches_many
pub struct ScanKernel<'a> {
    params: SwpParams,
    target: &'a [u8],
    prf: &'a HmacPrf,
    /// Trapdoor length mismatch: no word can ever match, and nothing
    /// is ever staged (decisions emit immediately).
    dead: bool,
    /// Staged lanes awaiting a dispatch.
    pending: usize,
    tags: [u32; LANES],
    /// Whether the staged word had the right length; wrong-length lanes
    /// ride the pipeline zero-filled and decide `false` regardless.
    live: [bool; LANES],
    /// XORed stream parts `C_left ⊕ X_left` (first `stream_len` bytes
    /// of each lane valid).
    s: [[u8; MAX_INLINE_WORD]; LANES],
    /// XORed check parts `C_right ⊕ X_right`.
    t: [[u8; MAX_INLINE_WORD]; LANES],
    /// PRF output scratch.
    expected: [[u8; MAX_INLINE_WORD]; LANES],
}

impl<'a> ScanKernel<'a> {
    /// Whether `params` fit the kernel's fixed stack buffers. Callers
    /// with outsized wire-supplied parameters fall back to the scalar
    /// check (identical decisions, heap-spill buffers).
    #[must_use]
    pub fn supports(params: &SwpParams) -> bool {
        params.word_len <= MAX_INLINE_WORD
    }

    /// A kernel scanning for `term`. Keyless, like everything the
    /// server runs.
    ///
    /// # Panics
    /// Panics unless [`Self::supports`] the parameters.
    #[must_use]
    pub fn new(params: SwpParams, term: &'a PreparedTrapdoor) -> Self {
        assert!(
            Self::supports(&params),
            "word_len {} exceeds the kernel's stack buffers ({MAX_INLINE_WORD})",
            params.word_len
        );
        let target = term.target();
        ScanKernel {
            params,
            dead: target.len() != params.word_len,
            target,
            prf: term.prf(),
            pending: 0,
            tags: [0; LANES],
            live: [false; LANES],
            s: [[0u8; MAX_INLINE_WORD]; LANES],
            t: [[0u8; MAX_INLINE_WORD]; LANES],
            expected: [[0u8; MAX_INLINE_WORD]; LANES],
        }
    }

    /// Stages `cipher` (tagged `tag`) for a decision. The sink receives
    /// `(tag, decision)` pairs in push order; a push that fills the
    /// last lane dispatches the interleaved PRF and drains all lanes.
    /// Use one sink for a whole push/flush sequence — decisions for
    /// earlier pushes may be emitted during later ones.
    pub fn push(&mut self, tag: u32, cipher: &[u8], sink: &mut impl FnMut(u32, bool)) {
        if self.dead {
            // Nothing is ever staged, so immediate emission is in order.
            sink(tag, false);
            return;
        }
        let split = self.params.stream_len();
        let lane = self.pending;
        self.tags[lane] = tag;
        if cipher.len() == self.params.word_len {
            xor_halves(
                &mut self.s[lane][..split],
                &mut self.t[lane][..self.params.check_len],
                cipher,
                self.target,
                split,
            );
            self.live[lane] = true;
        } else {
            // Wrong stored length: the decision is `false`, exactly as
            // in the scalar check. Zero the lane so the PRF pipeline
            // stays in lockstep; its output is ignored.
            self.s[lane][..split].fill(0);
            self.live[lane] = false;
        }
        self.pending += 1;
        if self.pending == LANES {
            self.dispatch(sink);
        }
    }

    /// Decides any staged remainder (up to `LANES - 1` words) and
    /// emits it in order. Call once after the last [`Self::push`]. A
    /// remainder of at least `PAD_FLUSH_MIN` words runs as one padded
    /// dispatch with dead lanes; a shorter one goes through the scalar
    /// zero-alloc path. Both reach the same decisions.
    pub fn flush(&mut self, sink: &mut impl FnMut(u32, bool)) {
        if self.pending >= PAD_FLUSH_MIN {
            self.dispatch(sink);
            return;
        }
        let split = self.params.stream_len();
        let check = self.params.check_len;
        for lane in 0..self.pending {
            let ok = self.live[lane] && {
                self.prf
                    .eval_into(&self.s[lane][..split], &mut self.expected[lane][..check]);
                check_eq(
                    &self.params,
                    &self.expected[lane][..check],
                    &self.t[lane][..check],
                )
            };
            sink(self.tags[lane], ok);
        }
        self.pending = 0;
    }

    /// Batch entry point: decides every fixed-width slot of `slots`
    /// (`slots.len()` must be a multiple of `word_len`), invoking
    /// `sink(slot_index, decision)` in slot order. Exactly equivalent
    /// to the scalar [`PreparedTrapdoor::matches_bytes`] per slot.
    pub fn matches_many(&mut self, slots: &[u8], sink: &mut impl FnMut(u32, bool)) {
        let width = self.params.word_len;
        debug_assert_eq!(slots.len() % width, 0, "ragged slot buffer");
        for (i, slot) in slots.chunks_exact(width).enumerate() {
            self.push(i as u32, slot, sink);
        }
        self.flush(sink);
    }

    /// One full-width dispatch: interleaved PRF over all [`LANES`]
    /// lanes, then the same [`check_eq`] decision as the scalar path
    /// for the `pending` staged lanes, emitted in lane order. Lanes at
    /// or past `pending` (a padded flush) hold stale bytes of the right
    /// length; their PRF output is computed and ignored.
    fn dispatch(&mut self, sink: &mut impl FnMut(u32, bool)) {
        let split = self.params.stream_len();
        let check = self.params.check_len;
        {
            let ScanKernel {
                s, expected, prf, ..
            } = self;
            prf.eval_lanes_into(
                std::array::from_fn(|l| &s[l][..split]),
                &mut expected.each_mut().map(|e| &mut e[..check]),
            );
        }
        for lane in 0..self.pending {
            let ok = self.live[lane]
                && check_eq(
                    &self.params,
                    &self.expected[lane][..check],
                    &self.t[lane][..check],
                );
            sink(self.tags[lane], ok);
        }
        self.pending = 0;
    }
}

/// Reference check used by the equivalence tests: the scalar decision
/// for one word, via the exact entry point the kernel's remainder path
/// uses.
#[cfg(test)]
fn scalar_decision(params: &SwpParams, term: &PreparedTrapdoor, cipher: &[u8]) -> bool {
    crate::search::check_match_bytes(params, term.target(), term.prf(), cipher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TrapdoorData;

    #[derive(Clone)]
    struct RawTrapdoor {
        target: Vec<u8>,
        key: Vec<u8>,
    }

    impl TrapdoorData for RawTrapdoor {
        fn target(&self) -> &[u8] {
            &self.target
        }
        fn check_key(&self) -> &[u8] {
            &self.key
        }
    }

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

    /// A cipher word consistent with `(target, key)` at the given
    /// params — guaranteed to match.
    fn consistent_word(params: &SwpParams, target: &[u8], key: &[u8], seed: u64) -> Vec<u8> {
        let s = splatter(seed, params.stream_len());
        let f = HmacPrf::new(key).eval(&s, params.check_len);
        let mut c = Vec::new();
        c.extend(
            target[..params.stream_len()]
                .iter()
                .zip(&s)
                .map(|(a, b)| a ^ b),
        );
        c.extend(
            target[params.stream_len()..]
                .iter()
                .zip(&f)
                .map(|(a, b)| a ^ b),
        );
        c
    }

    #[test]
    fn kernel_agrees_with_scalar_over_params_and_remainders() {
        // Parameter shapes: tiny words, partial check bits, a check
        // block longer than one HMAC output (counter mode), and word
        // counts hitting every lane remainder (0 to LANES - 1 trailing
        // words: the scalar flush and the padded dispatch) after zero,
        // one and two full dispatches.
        for (word_len, check_len, check_bits) in [
            (8, 3, 24),
            (13, 4, 32),
            (16, 4, 7),
            (40, 36, 288),
            (2, 1, 5),
        ] {
            let params = SwpParams::new(word_len, check_len, check_bits).unwrap();
            let key = splatter(1, 32);
            let target = splatter(2, word_len);
            let td = RawTrapdoor {
                target: target.clone(),
                key: key.clone(),
            };
            let prepared = PreparedTrapdoor::new(&td);
            for count in 0..=2 * LANES + 1 {
                // A mix of matching, random, and wrong-length words.
                let words: Vec<Vec<u8>> = (0..count as u64)
                    .map(|i| match i % 4 {
                        0 => consistent_word(&params, &target, &key, i),
                        1 => splatter(i ^ 0xFF, word_len),
                        2 => splatter(i, word_len + 1),
                        _ => splatter(i, word_len.saturating_sub(1)),
                    })
                    .collect();

                let mut kernel = ScanKernel::new(params, &prepared);
                let mut got: Vec<(u32, bool)> = Vec::new();
                {
                    let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
                    for (i, w) in words.iter().enumerate() {
                        kernel.push(i as u32, w, &mut sink);
                    }
                    kernel.flush(&mut sink);
                }
                let want: Vec<(u32, bool)> = words
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i as u32, scalar_decision(&params, &prepared, w)))
                    .collect();
                assert_eq!(
                    got, want,
                    "kernel diverged at params {params:?}, {count} words"
                );
                // Every consistent word was accepted.
                for (i, w) in words.iter().enumerate() {
                    if i % 4 == 0 {
                        assert!(got[i].1, "consistent word {i} rejected ({w:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_many_equals_pushes() {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let key = splatter(9, 32);
        let target = splatter(10, 13);
        let prepared = PreparedTrapdoor::new(&RawTrapdoor {
            target: target.clone(),
            key: key.clone(),
        });
        // Two dispatches plus a 3-word remainder.
        let mut slots = Vec::new();
        for i in 0..(2 * LANES + 3) as u64 {
            if i % 3 == 0 {
                slots.extend(consistent_word(&params, &target, &key, i));
            } else {
                slots.extend(splatter(i, 13));
            }
        }
        let mut kernel = ScanKernel::new(params, &prepared);
        let mut got = Vec::new();
        kernel.matches_many(&slots, &mut |tag, ok| got.push((tag, ok)));
        let want: Vec<(u32, bool)> = slots
            .chunks_exact(13)
            .enumerate()
            .map(|(i, w)| (i as u32, scalar_decision(&params, &prepared, w)))
            .collect();
        assert_eq!(got, want);
        assert!(got.iter().filter(|(_, ok)| *ok).count() >= 4);
    }

    #[test]
    fn dead_trapdoor_rejects_everything_immediately() {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let prepared = PreparedTrapdoor::new(&RawTrapdoor {
            target: vec![1, 2, 3], // wrong length
            key: vec![0; 32],
        });
        let mut kernel = ScanKernel::new(params, &prepared);
        let mut got = Vec::new();
        {
            let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
            for i in 0..6u32 {
                kernel.push(i, &splatter(u64::from(i), 13), &mut sink);
            }
            kernel.flush(&mut sink);
        }
        assert_eq!(
            got,
            (0..6u32).map(|i| (i, false)).collect::<Vec<_>>(),
            "dead trapdoor must reject every word, in order"
        );
    }

    #[test]
    fn kernel_is_reusable_after_flush() {
        let params = SwpParams::new(8, 3, 24).unwrap();
        let key = splatter(3, 32);
        let target = splatter(4, 8);
        let prepared = PreparedTrapdoor::new(&RawTrapdoor {
            target: target.clone(),
            key: key.clone(),
        });
        let word = consistent_word(&params, &target, &key, 77);
        let mut kernel = ScanKernel::new(params, &prepared);
        for round in 0..3 {
            let mut got = Vec::new();
            {
                let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
                kernel.push(0, &word, &mut sink);
                kernel.push(1, &splatter(round, 8), &mut sink);
                kernel.flush(&mut sink);
            }
            assert_eq!(got.len(), 2);
            assert!(got[0].1, "round {round} lost the match");
        }
    }

    #[test]
    fn supports_gates_on_word_len() {
        assert!(ScanKernel::supports(
            &SwpParams::new(MAX_INLINE_WORD, 4, 32).unwrap()
        ));
        assert!(!ScanKernel::supports(
            &SwpParams::new(MAX_INLINE_WORD + 1, 4, 32).unwrap()
        ));
    }
}
