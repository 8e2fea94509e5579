//! The request stream: a pure function of `--seed`.
//!
//! The program under test only ever sees the generated requests; the seed
//! never reaches it. A request is a `(tenant, query, search seed)` key.
//!
//! Where the key recurrence comes from (see README, "Traffic"): this
//! repo's own callers send a search seed they have not sent before — the
//! shipping workflow `Smartpick::submit_with` draws a fresh `u64` from its
//! RNG per determine, `bench_determine` and the criterion benches count
//! seeds up — so [`Seeds::Fresh`] is the observed traffic and no key ever
//! recurs. [`Seeds::Pinned`] is the one assumed case: a client that pins
//! its seed per job family, so keys recur and a memo cache can hit. One
//! workload uses it, so a memoisation change has a workload with
//! recurrence and workloads without.

use std::collections::HashSet;

/// xoshiro256** seeded through splitmix64 — small, fast, and owned by the
/// harness so the stream cannot drift with the repo's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
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

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (the modulo bias at these `n` is below 2⁻⁵⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The one skew used wherever a workload draws from a skewed population:
/// YCSB's default zipfian constant (Cooper et al., SoCC 2010), the usual
/// stand-in for skewed key access in serving benchmarks. Nothing in this
/// repo records an observed skew; what the skew does to each workload
/// (repeat share, cold-hit share) is measured and printed.
pub const ZIPF_S: f64 = 0.99;

/// Zipf over ranks `0..n`: `P(rank k) ∝ 1 / (k + 1)^s`, sampled by binary
/// search over the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Which search seed a request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seeds {
    /// A seed never sent before: what every caller in this repo does.
    Fresh,
    /// One of `0..n`: a client that pins its seed per job family (assumed).
    Pinned(u64),
}

/// How a workload picks the `(tenant, query)` of its next request — and,
/// under [`Seeds::Pinned`], which of the pinned seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipf([`ZIPF_S`]) over the flattened key space (key 0 hottest).
    ZipfKeys,
    /// Zipf([`ZIPF_S`]) over tenants (tenant 0 hottest); the rest uniform.
    ZipfTenants,
}

/// Distinct queries (TPC-DS q82, q68).
pub const QUERIES: usize = 2;

/// One request key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    pub tenant: u32,
    pub query: u8,
    pub search_seed: u64,
}

/// The endless request stream of one workload run.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    tenants: usize,
    zipf: Option<Zipf>,
    dist: KeyDist,
    seeds: Seeds,
}

impl Stream {
    pub fn new(seed: u64, tenants: usize, dist: KeyDist, seeds: Seeds) -> Stream {
        let per_tenant = Stream::per_tenant(seeds);
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::ZipfKeys => Some(Zipf::new(tenants * per_tenant, ZIPF_S)),
            KeyDist::ZipfTenants => Some(Zipf::new(tenants, ZIPF_S)),
        };
        Stream {
            rng: Rng::new(seed),
            tenants,
            zipf,
            dist,
            seeds,
        }
    }

    /// Recurring keys per tenant: queries × pinned seeds.
    fn per_tenant(seeds: Seeds) -> usize {
        match seeds {
            Seeds::Fresh => QUERIES,
            Seeds::Pinned(n) => QUERIES * n as usize,
        }
    }

    pub fn next_key(&mut self) -> Key {
        let per_tenant = Stream::per_tenant(self.seeds);
        let flat = match (&self.zipf, self.dist) {
            (Some(z), KeyDist::ZipfKeys) => z.sample(&mut self.rng),
            (Some(z), _) => z.sample(&mut self.rng) * per_tenant + self.rng.below(per_tenant),
            (None, _) => self.rng.below(self.tenants * per_tenant),
        };
        Key {
            tenant: (flat / per_tenant) as u32,
            query: (flat % QUERIES) as u8,
            search_seed: match self.seeds {
                // 53 bits: the wire's number model is `f64` (`docs/WIRE.md`),
                // and the oracle must see the seed the server saw.
                Seeds::Fresh => self.rng.next_u64() >> 11,
                Seeds::Pinned(_) => (flat % per_tenant / QUERIES) as u64,
            },
        }
    }

    /// Share of the next `n` keys that an earlier one of them equals: the
    /// most a cache keyed by the whole request could hit.
    pub fn repeat_share(mut self, n: u64) -> f64 {
        let mut seen = HashSet::new();
        let repeats = (0..n).filter(|_| !seen.insert(self.next_key())).count();
        repeats as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [(KeyDist, Seeds); 4] = [
        (KeyDist::Uniform, Seeds::Fresh),
        (KeyDist::Uniform, Seeds::Pinned(4)),
        (KeyDist::ZipfKeys, Seeds::Pinned(4)),
        (KeyDist::ZipfTenants, Seeds::Fresh),
    ];

    fn take(seed: u64, (dist, seeds): (KeyDist, Seeds), n: usize) -> Vec<Key> {
        let mut s = Stream::new(seed, 50, dist, seeds);
        (0..n).map(|_| s.next_key()).collect()
    }

    #[test]
    fn stream_is_a_pure_function_of_the_seed() {
        for shape in SHAPES {
            assert_eq!(take(7, shape, 500), take(7, shape, 500));
            assert_ne!(take(7, shape, 500), take(8, shape, 500));
        }
    }

    #[test]
    fn keys_stay_in_range() {
        for shape in SHAPES {
            let keys = take(3, shape, 5_000);
            for k in &keys {
                assert!((k.tenant as usize) < 50);
                assert!((k.query as usize) < QUERIES);
                if let Seeds::Pinned(n) = shape.1 {
                    assert!(k.search_seed < n);
                }
            }
            // Every tenant-independent part of the key space is reached.
            for query in 0..QUERIES as u8 {
                assert!(keys.iter().any(|k| k.query == query));
            }
            if let Seeds::Pinned(n) = shape.1 {
                for seed in 0..n {
                    assert!(keys.iter().any(|k| k.search_seed == seed));
                }
            }
        }
    }

    #[test]
    fn fresh_seeds_never_recur_and_pinned_ones_do() {
        let fresh = Stream::new(5, 8, KeyDist::Uniform, Seeds::Fresh);
        assert_eq!(fresh.repeat_share(20_000), 0.0);
        // 8 tenants × 2 queries × 4 seeds = 64 keys: all but the first
        // sighting of each repeats.
        let pinned = Stream::new(5, 8, KeyDist::ZipfKeys, Seeds::Pinned(4));
        let share = pinned.repeat_share(20_000);
        assert!((share - (1.0 - 64.0 / 20_000.0)).abs() < 1e-9, "{share}");
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        let count = |k| a.iter().filter(|&&x| x == k).count() as f64;
        // P(0) / P(1) = 2 under s = 1; P(0) = 1 / H(64) ≈ 0.21.
        let ratio = count(0) / count(1);
        assert!((1.7..2.3).contains(&ratio), "rank0/rank1 = {ratio}");
        let p0 = count(0) / a.len() as f64;
        assert!((0.19..0.23).contains(&p0), "P(rank 0) = {p0}");
        assert!(a.iter().all(|&k| k < 64));
    }
}
