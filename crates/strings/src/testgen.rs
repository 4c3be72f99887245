//! Seeded inputs shared by the Theorem-2 kernels' differential tests.

/// SplitMix64: a dependency-free seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Every string of length `len` over `{0, …, alphabet − 1}`.
pub fn all_strings(alphabet: u8, len: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|s| {
                (0..alphabet).map(move |d| {
                    let mut t = s.clone();
                    t.push(d);
                    t
                })
            })
            .collect();
    }
    out
}

/// Radixes of the seeded cases: both ends of every lane width (1-bit
/// lanes for 2, nibbles for 3 to 16, bytes for 17 and beyond).
pub const RADIXES: [u8; 6] = [2, 3, 4, 16, 17, 255];

/// The `i`-th seeded pair over radix `d`, each word 1 to `max_k` digits
/// long (a quarter of the pairs rectangular). Every third pair gets a
/// block of `y` planted in `x` at random offsets, so long matches start
/// and end anywhere, across word boundaries too.
pub fn pair(rng: &mut Rng, d: u8, i: usize, max_k: usize) -> (Vec<u8>, Vec<u8>) {
    let kx = 1 + rng.below(max_k);
    let ky = if rng.below(4) == 0 {
        1 + rng.below(max_k)
    } else {
        kx
    };
    let mut x: Vec<u8> = (0..kx).map(|_| rng.below(d as usize) as u8).collect();
    let y: Vec<u8> = (0..ky).map(|_| rng.below(d as usize) as u8).collect();
    if i.is_multiple_of(3) {
        let n = 1 + rng.below(kx.min(ky));
        let a = rng.below(kx - n + 1);
        let b = rng.below(ky - n + 1);
        x[a..a + n].copy_from_slice(&y[b..b + n]);
    }
    (x, y)
}
