//! The ledger's own PRNG: splitmix64 seeding xoshiro256**.
//!
//! The benchmark owns its inputs, so it owns its generator too: a
//! `(workload, seed)` pair must fix the bytes the program receives no
//! matter what happens to `vendor/rand` or the solver's own generators.

/// One splitmix64 step: advances `state` and returns the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman & Vigna), seeded through splitmix64.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// An independent generator for sub-stream `stream` of `seed`, so
    /// that adding a session never shifts the bytes of another.
    pub fn for_stream(seed: u64, stream: u64) -> Rng {
        let mut sm = seed;
        let a = splitmix64(&mut sm);
        Rng::new(a ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; the bias of at most `n / 2^64`
    /// is far below anything a workload can observe).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs of splitmix64 from seed 0 (the published test
    /// vector), so a typo in a constant cannot silently change every
    /// committed stream digest.
    #[test]
    fn splitmix_matches_the_published_vector() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
        assert_ne!(
            Rng::for_stream(7, 0).next_u64(),
            Rng::for_stream(7, 1).next_u64()
        );
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert!(!r.chance(0, 4));
        assert!(r.chance(4, 4));
    }
}
