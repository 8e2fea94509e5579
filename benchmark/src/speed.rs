//! How fast the box is right now, measured beside the program.
//!
//! This box is a two-core guest on a shared host. What its neighbours do
//! to the memory system slows everything here by up to a third for minutes
//! at a time, longer than a run, so no statistic taken within a run removes
//! it. A fixed reference — a chain of dependent loads through a table far
//! larger than the core's own caches, owned by the harness and independent
//! of the program under test — slows with it: sampled between sub-windows
//! it follows the throughput of `determine_hot` and `determine_heavy` with
//! a correlation of 0.96, and dividing by it takes the spread between
//! half-minute blocks of identical runs from 6–7 % to 2–3 % (README,
//! "Noise"). Every timed metric is therefore reported **at the nominal
//! speed**: a duration is multiplied, and a rate divided, by the box's
//! speed as a share of [`NOMINAL_LOADS_PER_S`] around the time it was
//! measured.

use std::time::{Duration, Instant};

/// Dependent loads per second this box's calm periods read; the speed all
/// timed metrics are reported at.
pub const NOMINAL_LOADS_PER_S: f64 = 7.0e6;
/// 2²⁴ words, 64 MiB: misses every cache level a single core owns.
const TABLE_WORDS: usize = 1 << 24;
/// One sample walks for this long.
const SLICE: Duration = Duration::from_millis(50);
const STEPS_PER_CLOCK_READ: usize = 4096;

/// The reference walk and the samples taken so far.
pub struct Speed {
    /// `table[i]` is the index visited after `i`: one cycle through every
    /// word, in an order no prefetcher follows.
    table: Vec<u32>,
    at: u32,
    /// When each sample was taken (its middle) and the speed it read, as a
    /// share of nominal; in time order.
    samples: Vec<(Instant, f64)>,
}

impl Speed {
    pub fn new() -> Speed {
        // A full-period linear congruential map (Hull–Dobell: odd increment,
        // multiplier ≡ 1 mod 4, modulus a power of two) is one cycle through
        // all of `0..TABLE_WORDS`, and costs one sequential pass to lay out.
        let mask = TABLE_WORDS - 1;
        let table = (0..TABLE_WORDS)
            .map(|i| (i.wrapping_mul(0x9E37_79B5).wrapping_add(0x7F4A_7C15) & mask) as u32)
            .collect();
        Speed {
            table,
            at: 0,
            samples: Vec::new(),
        }
    }

    /// MiB the table adds to this process's resident set: every page of it
    /// is written once, so `rss_mb` can take exactly this much off.
    pub fn table_mb() -> f64 {
        (TABLE_WORDS * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Walks the reference for one slice and records what it read. Call it
    /// with nothing in flight, so that it measures the box and not the
    /// program's own threads.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut steps = 0usize;
        let mut at = self.at as usize;
        let elapsed = loop {
            for _ in 0..STEPS_PER_CLOCK_READ {
                at = self.table[at] as usize;
            }
            steps += STEPS_PER_CLOCK_READ;
            let elapsed = started.elapsed();
            if elapsed >= SLICE {
                break elapsed;
            }
        };
        self.at = at as u32;
        let loads_per_s = steps as f64 / elapsed.as_secs_f64();
        self.samples
            .push((started + elapsed / 2, loads_per_s / NOMINAL_LOADS_PER_S));
    }

    /// The box's speed over `from..to` as a share of nominal: the mean of
    /// the last sample taken before the interval and the first taken after
    /// it (whichever exist; 1 when there is none).
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let before = self.samples.iter().rev().find(|(at, _)| *at <= from);
        let after = self.samples.iter().find(|(at, _)| *at >= to);
        match (before, after) {
            (Some((_, a)), Some((_, b))) => (a + b) / 2.0,
            (Some((_, only)), None) | (None, Some((_, only))) => *only,
            (None, None) => 1.0,
        }
    }

    /// Every sample so far, as a share of nominal.
    pub fn factors(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, f)| *f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_word() {
        let speed = Speed::new();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = speed.table[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_WORDS);
    }

    #[test]
    fn an_interval_takes_the_samples_that_bracket_it() {
        let mut speed = Speed::new();
        let t0 = Instant::now();
        assert_eq!(speed.factor(t0, t0), 1.0);
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        speed.samples = vec![(at(0), 0.8), (at(100), 1.0), (at(200), 0.6)];
        assert_eq!(speed.factor(at(10), at(90)), 0.9);
        assert_eq!(speed.factor(at(110), at(190)), 0.8);
        // Open at one end: the sample on the other side alone.
        assert_eq!(speed.factor(at(210), at(300)), 0.6);
        // Spanning a sample: still the outer two.
        assert_eq!(speed.factor(at(10), at(190)), 0.7);
    }

    #[test]
    fn a_sample_reads_a_plausible_speed() {
        let mut speed = Speed::new();
        speed.sample();
        let factors = speed.factors();
        assert_eq!(factors.len(), 1);
        assert!(factors[0] > 0.01 && factors[0] < 100.0, "{factors:?}");
    }
}
