//! The exchange kernel's mover draw: `Rng::gen_range(0..n)` for an `n`
//! fixed for the whole run, with everything but the raw word precomputed.
//!
//! `gen_range` rejects raw words above a zone that it derives with a
//! 64-bit division, and reduces an accepted word with a 64-bit `%`.
//! [`IndexDraw`] computes the zone once, and takes the remainder by an
//! exact multiply-shift (Lemire, Kaser & Kurz, "Faster remainder by
//! direct computation", 2019): with `M = ⌊(2¹²⁸ − 1) / n⌋ + 1`,
//! `v mod n = ((M·v mod 2¹²⁸)·n) >> 128` for every 64-bit `v`. It
//! consumes the same raw words and returns the same values, so a run that
//! switches to it keeps its stream.

use rand::RngCore;

/// A uniform draw from `0..n`, equal to `rng.gen_range(0..n)` draw for
/// draw: the same values from the same raw words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IndexDraw {
    n: u64,
    /// The largest accepted raw word, `u64::MAX − (u64::MAX − n + 1) % n`.
    /// `gen_range` accepts `v ≤ u64::MAX − n` or `v ≤` this; the first
    /// test implies the second.
    zone: u64,
    /// `⌊(2¹²⁸ − 1) / n⌋ + 1`, the scaled reciprocal of `n`; 0 for
    /// `n = 1`, where every remainder is 0.
    reciprocal: u128,
}

impl IndexDraw {
    /// The draw from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0, as `gen_range(0..0)` does.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "empty sampling range");
        let n = n as u64;
        Self {
            n,
            zone: u64::MAX - (u64::MAX - n + 1) % n,
            reciprocal: if n == 1 {
                0
            } else {
                u128::MAX / u128::from(n) + 1
            },
        }
    }

    /// Draws one index.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut impl RngCore) -> usize {
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return self.remainder(v) as usize;
            }
        }
    }

    /// `v % n`: the fraction `v / n` held in 128 bits, times `n`, keeps
    /// the remainder in the top 64 bits of the 192-bit product.
    #[inline]
    fn remainder(&self, v: u64) -> u64 {
        let fraction = self.reciprocal.wrapping_mul(u128::from(v));
        let n = u128::from(self.n);
        let high = (fraction >> 64) * n;
        let low = ((fraction & u128::from(u64::MAX)) * n) >> 64;
        // `high ≤ (2⁶⁴ − 1)²` and `low < 2⁶⁴`, so the sum fits.
        ((high + low) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A generator that counts the raw words it hands out.
    struct Counted<R> {
        inner: R,
        words: u64,
    }

    impl<R: RngCore> RngCore for Counted<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.inner.next_u64()
        }
    }

    /// A generator that replays fixed raw words.
    struct Words<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for Words<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("enough words")
        }
    }

    fn counted(seed: u64) -> Counted<rand::rngs::StdRng> {
        Counted {
            inner: rand::rngs::StdRng::seed_from_u64(seed),
            words: 0,
        }
    }

    /// `draws` draws from `0..n` on two equal seeded streams, compared
    /// value by value and in the raw words consumed.
    fn assert_same_stream(n: usize, seed: u64, draws: usize) {
        let draw = IndexDraw::new(n);
        let (mut ours, mut theirs) = (counted(seed), counted(seed));
        for i in 0..draws {
            let want = theirs.gen_range(0..n);
            assert_eq!(draw.sample(&mut ours), want, "n {n}, seed {seed}, draw {i}");
            assert_eq!(ours.words, theirs.words, "n {n}, seed {seed}, draw {i}");
        }
    }

    /// The sizes the kernel can meet and the edges of the reciprocal:
    /// 1, small odd sizes, and `2ᵏ − 1`, `2ᵏ`, `2ᵏ + 1` for every `k`
    /// that fits a `usize`.
    fn sizes() -> Vec<usize> {
        let mut out = vec![1, 2, 3, 7, (1 << 32) - 1];
        for k in 1..usize::BITS {
            let p = 1usize << k;
            out.extend([p - 1, p, p + 1]);
        }
        out.push(usize::MAX);
        out
    }

    #[test]
    fn the_draw_is_gen_range_on_seeded_streams() {
        for n in sizes() {
            for seed in [0, 1, 2009] {
                assert_same_stream(n, seed, 2_000);
            }
        }
        let mut sizes = rand::rngs::StdRng::seed_from_u64(0x5EED);
        for i in 0..400u64 {
            // Sizes from every magnitude, a few of them huge.
            let bits = sizes.gen_range(1..=64u32);
            let n = (sizes.next_u64() >> (64 - bits)).max(1) as usize;
            assert_same_stream(n, i, 500);
        }
    }

    #[test]
    fn the_zone_edge_is_gen_range_s() {
        // Raw words at and around the zone's edge, and at both ends of
        // the word range: each is either accepted with `gen_range`'s
        // value or rejected by both, so the next word decides.
        for n in sizes().into_iter().chain([5, 6, 10, 1000, 1_000_003]) {
            let draw = IndexDraw::new(n);
            let zone = draw.zone;
            for v in [
                0,
                1,
                zone - 1,
                zone,
                zone.saturating_add(1),
                u64::MAX - 1,
                u64::MAX,
            ] {
                let words = [v, 12_345, 0];
                let got = draw.sample(&mut Words(words.iter()));
                let want = Words(words.iter()).gen_range(0..n);
                assert_eq!(got, want, "n {n}, word {v:#x}");
            }
        }
    }

    #[test]
    fn the_remainder_is_exact_at_word_and_multiple_edges() {
        for n in sizes().into_iter().chain([3, 5, 6, 10, 641, 6_700_417]) {
            let draw = IndexDraw::new(n);
            let n = n as u64;
            let mut words = vec![0, 1, u64::MAX, u64::MAX - 1, n - 1, n, n.wrapping_add(1)];
            // The multiples of n nearest the top of the word range.
            let top = u64::MAX - u64::MAX % n;
            words.extend([top, top.wrapping_sub(1), top.wrapping_sub(n)]);
            for v in words {
                assert_eq!(draw.remainder(v), v % n, "{v} mod {n}");
            }
        }
    }
}
