//! The benchmark's only source of randomness: a SplitMix64 stream seeded from
//! `--seed`. It drives the payload values and the disorder permutations; the
//! library receives only the generated inputs.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, statistically fine for
/// shuffles and payloads, and trivially reproducible from one `u64`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so the payload and the
    /// permutation sequences of one run do not share state.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`). The modulo bias is below 2^-50
    /// for the small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A small integer-valued `f32` in `-512 ..= 511`: sums of a handful of
    /// these are exact in `f32` under every association, so a reduction is
    /// bit-exact whatever order the algorithm reduces in.
    pub fn small_int_f32(&mut self) -> f32 {
        (self.below(1024) as i64 - 512) as f32
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_pinned_for_seed_1() {
        // The disorder workload's first three per-rank orders for `--seed 1`:
        // a change here changes what every recorded run measured.
        let mut rng = Rng::new(1, 2);
        let mut orders = Vec::new();
        for _ in 0..3 {
            let mut order = [0usize, 1, 2, 3, 4];
            rng.shuffle(&mut order);
            orders.push(order);
        }
        assert_eq!(
            orders,
            vec![[4, 2, 1, 3, 0], [1, 2, 3, 4, 0], [1, 2, 3, 0, 4]]
        );
    }

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 2);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_permutation_and_payloads_are_small_integers() {
        let mut r = Rng::new(3, 0);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted);
        for _ in 0..1000 {
            let x = r.small_int_f32();
            assert!((-512.0..=511.0).contains(&x) && x.fract() == 0.0);
        }
    }
}
