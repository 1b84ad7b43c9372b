//! Seeded workload inputs.
//!
//! The benchmark owns its random stream (splitmix64), so the inputs a seed
//! produces do not change when the engine's own samplers change. The
//! program under test only ever sees the generated inputs.

/// The splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `n` distinct indices into a pool of `pool` items, in draw order (a
/// partial Fisher–Yates shuffle).
///
/// # Panics
///
/// Panics if `n > pool`.
pub fn pool_draw(seed: u64, pool: usize, n: usize) -> Vec<usize> {
    assert!(n <= pool, "cannot draw {n} distinct items from {pool}");
    let mut rng = SplitMix64::new(seed ^ 0x6D63_5F63_616D_7061);
    let mut idx: Vec<usize> = (0..pool).collect();
    for i in 0..n {
        let j = i + rng.below(pool - i);
        idx.swap(i, j);
    }
    idx.truncate(n);
    idx
}

/// Request class of a served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// One short transient on seeded wire lengths.
    WireSizing,
    /// Bracket-and-bisect search for the fusing drive.
    Fusing,
    /// A seeded multi-sample campaign.
    Campaign,
}

/// One distinct served job: class, hot model (0 or 1) and request seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Job {
    /// Request class.
    pub class: Class,
    /// Index of the hot model.
    pub model: usize,
    /// Request seed sent to the engine.
    pub seed: u64,
}

/// Distinct request seeds per (class, model) pair.
pub const SEEDS_PER_KIND: usize = 8;

/// The served traffic of one run: the distinct jobs and a request
/// sequence of `n` indices into them, mixed 10:1:1 over
/// wire_sizing:fusing:campaign and split evenly over the two hot models.
/// Request seeds come from a small per-run set, so every reply can be
/// replayed alone and compared bit for bit.
pub fn serve_traffic(seed: u64, n: usize) -> (Vec<Job>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed ^ 0x7365_7276_655F_6D78);
    let mut jobs = Vec::new();
    for class in [Class::WireSizing, Class::Fusing, Class::Campaign] {
        for model in 0..2 {
            for _ in 0..SEEDS_PER_KIND {
                // Protocol integers must stay below 2^53.
                let seed = 1 + (rng.next_u64() >> 12);
                jobs.push(Job { class, model, seed });
            }
        }
    }
    let sequence = (0..n)
        .map(|_| {
            let class = match rng.below(12) {
                10 => 1,
                11 => 2,
                _ => 0,
            };
            let model = rng.below(2);
            let k = rng.below(SEEDS_PER_KIND);
            (class * 2 + model) * SEEDS_PER_KIND + k
        })
        .collect();
    (jobs, sequence)
}
