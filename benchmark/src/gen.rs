//! Seeded input generation.
//!
//! The workload seed never reaches the code under test: it only drives
//! the generators here, and the system receives what they produce —
//! class sequences, candidate orders, simulator seeds. The generator is
//! the benchmark's own (`splitmix64`), so a change to the vendored
//! `rand` cannot silently change the inputs of a committed baseline.

/// `splitmix64`: one 64-bit state word, full period, good enough to
/// derive independent sub-streams by label.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `(seed, label)`; different labels give unrelated
    /// streams of the same workload seed.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the label
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut s = SplitMix64(seed ^ h);
        s.next_u64(); // decorrelate from the raw xor
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias at these sizes is below 2^-40.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The paper's §5.1 requester class mix: classes 1–4 at 10/10/40/40 %.
pub const PAPER_CLASS_MIX: [f64; 4] = [0.1, 0.1, 0.4, 0.4];

/// `n` peer classes (1-based) drawn from `mix`.
pub fn class_sequence(seed: u64, label: &str, n: usize, mix: &[f64]) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed, label);
    let total: f64 = mix.iter().sum();
    (0..n)
        .map(|_| {
            let mut x = rng.next_f64() * total;
            for (k, w) in mix.iter().enumerate() {
                if x < *w {
                    return k as u8 + 1;
                }
                x -= w;
            }
            mix.len() as u8
        })
        .collect()
}

/// A seeded permutation of `0..n`: which seed each pinned requester slot
/// streams from.
pub fn permutation(seed: u64, label: &str, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed, label);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// An endless stream of simulator seeds derived from the workload seed.
pub fn seed_stream(seed: u64, label: &str) -> impl Iterator<Item = u64> {
    let mut rng = SplitMix64::new(seed, label);
    std::iter::repeat_with(move || rng.next_u64())
}

/// A base for peer ids, so two seeds never share node-internal session
/// id streams (those derive from the peer id).
pub fn peer_id_base(seed: u64) -> u64 {
    // Keep well below 2^63: ids are offset by up to a few hundred
    // thousand and some tables key on them.
    (SplitMix64::new(seed, "peer-ids").next_u64() >> 16) << 20
}

/// 64-bit FNV-1a fold, used to digest sequences of trace hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_labels_are_independent() {
        let a = class_sequence(7, "grow", 1_000, &PAPER_CLASS_MIX);
        assert_eq!(a, class_sequence(7, "grow", 1_000, &PAPER_CLASS_MIX));
        assert_ne!(a, class_sequence(8, "grow", 1_000, &PAPER_CLASS_MIX));
        assert_ne!(a, class_sequence(7, "other", 1_000, &PAPER_CLASS_MIX));
        assert_eq!(permutation(7, "pairs", 32), permutation(7, "pairs", 32));
        let s: Vec<u64> = seed_stream(7, "simnet").take(16).collect();
        assert_eq!(s, seed_stream(7, "simnet").take(16).collect::<Vec<_>>());
        assert_eq!(peer_id_base(7), peer_id_base(7));
        assert_ne!(peer_id_base(7), peer_id_base(8));
    }

    #[test]
    fn class_mix_is_respected() {
        let seq = class_sequence(1, "mix", 100_000, &PAPER_CLASS_MIX);
        let share = |k: u8| seq.iter().filter(|c| **c == k).count() as f64 / seq.len() as f64;
        assert!((share(1) - 0.1).abs() < 0.01);
        assert!((share(2) - 0.1).abs() < 0.01);
        assert!((share(3) - 0.4).abs() < 0.01);
        assert!((share(4) - 0.4).abs() < 0.01);
        assert!(seq.iter().all(|c| (1..=4).contains(c)));
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(3, "pairs", 512);
        p.sort_unstable();
        assert_eq!(p, (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn fnv_fold_is_order_sensitive() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
    }
}
