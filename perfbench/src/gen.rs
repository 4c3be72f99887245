//! Seeded input generation. Every request, batch line and injection the
//! benchmark sends comes from the generators here, so one `--seed` fixes
//! every input and the program under test receives only the results.

use debruijn_suite::core::Word;

/// SplitMix64: small, fast and well mixed; one stream per purpose.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under `seed`. Distinct streams of one
    /// seed are independent for the benchmark's purposes.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("Zipf over at least one rank");
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Word length of the service and batch workloads: one binary `DG(2,64)`
/// address is exactly one `u64`, so generated pairs cost 16 bytes.
pub const K64: usize = 64;

/// Writes the 64 binary digits of `bits`, most significant first.
pub fn push_word64(out: &mut Vec<u8>, bits: u64) {
    for i in (0..K64).rev() {
        out.push(b'0' + ((bits >> i) & 1) as u8);
    }
}

/// The `DG(2,64)` word whose digits are the bits of `bits`.
pub fn word64(bits: u64) -> Word {
    let digits = (0..K64).rev().map(|i| ((bits >> i) & 1) as u8).collect();
    Word::new(2, digits).expect("binary digits form a valid word")
}

/// The service workloads' traffic: request `i` of a client alternates
/// `/route` (even `i`) and `/distance` (odd `i`).
pub fn is_route(i: u64) -> bool {
    i.is_multiple_of(2)
}

/// Stream ids, one per generated input family.
pub mod stream {
    pub const HOT_SET: u64 = 1;
    pub const BATCH: u64 = 20;
    pub const SIM: u64 = 30;
    /// Fresh-pair streams, plus a stream index. The timed serve_cold
    /// clients use round × clients + client, below the indices below.
    pub const COLD: u64 = 1 << 20;
    /// serve_cold's set-up cache fill.
    pub const COLD_FILL: usize = 1000;
    /// The traced run's cold probe pairs, and the fill of its probe cache.
    pub const COLD_PROBE: usize = 1001;
    pub const COLD_PROBE_FILL: usize = 1002;
}

/// The serve_hot working set: `n` distinct `DG(2,64)` pairs.
pub fn hot_set(seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, stream::HOT_SET);
    let mut seen = std::collections::HashSet::with_capacity(n);
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let pair = (rng.next_u64(), rng.next_u64());
        if seen.insert(pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Cold stream `index`: an endless stream of fresh `DG(2,64)` pairs.
pub fn cold_pairs(seed: u64, index: usize) -> impl Iterator<Item = (u64, u64)> {
    let mut rng = Rng::new(seed, stream::COLD + index as u64);
    std::iter::repeat_with(move || (rng.next_u64(), rng.next_u64()))
}

/// batch_skewed lines and the share of destinations drawn from the hot
/// pool (the rest are uniform).
pub const BATCH_LINES: usize = 100_000;
pub const BATCH_HOT_POOL: usize = 64;
pub const BATCH_HOT_SHARE: f64 = 0.8;

/// The batch_skewed pairs, in file order: uniform sources; destinations
/// Zipf(1.0) over a pool of 64 hot words with probability 0.8, else
/// uniform.
pub fn batch_pairs(seed: u64) -> impl Iterator<Item = (u64, u64)> {
    let mut rng = Rng::new(seed, stream::BATCH);
    let pool: Vec<u64> = (0..BATCH_HOT_POOL).map(|_| rng.next_u64()).collect();
    let zipf = Zipf::new(BATCH_HOT_POOL, 1.0);
    (0..BATCH_LINES).map(move |_| {
        let x = rng.next_u64();
        let y = if rng.unit() < BATCH_HOT_SHARE {
            pool[zipf.sample(&mut rng)]
        } else {
            rng.next_u64()
        };
        (x, y)
    })
}

/// sim_zipf shape: `DG(2,12)`, one burst of 200 000 messages at tick 0,
/// uniform sources, Zipf(1.0) destinations over a seeded permutation of
/// all nodes.
pub const SIM_K: usize = 12;
pub const SIM_MESSAGES: usize = 200_000;

/// The sim_zipf burst as `(source rank, destination rank)` pairs.
pub fn sim_pairs(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = Rng::new(seed, stream::SIM);
    let n = 1u64 << SIM_K;
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let zipf = Zipf::new(order.len(), 1.0);
    (0..SIM_MESSAGES)
        .map(|_| (rng.below(n), order[zipf.sample(&mut rng)]))
        .collect()
}

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`: the digests the checks
/// compare instead of holding outputs.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(hot_set(7, 16), hot_set(7, 16));
        assert_ne!(hot_set(7, 16), hot_set(8, 16));
        let a: Vec<_> = batch_pairs(3).take(100).collect();
        let b: Vec<_> = batch_pairs(3).take(100).collect();
        assert_eq!(a, b);
        assert_eq!(sim_pairs(5)[..50], sim_pairs(5)[..50]);
    }

    #[test]
    fn word64_round_trips_through_text() {
        let mut text = Vec::new();
        push_word64(&mut text, 0x8000_0000_0000_0001);
        let parsed = Word::parse(2, std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(parsed, word64(0x8000_0000_0000_0001));
        assert_eq!(parsed.digits()[0], 1);
        assert_eq!(parsed.digits()[63], 1);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Rng::new(1, 2);
        let mut counts = [0usize; 64];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[63] > 0);
    }
}
