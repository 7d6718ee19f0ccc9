//! Host-speed calibration.
//!
//! A small shared VM does not run at one speed. On a 2-vCPU Xeon host the
//! same queues, run serially, took from 1.1x to 2.1x their fastest time in
//! stretches lasting from seconds to a minute, with no change of code and
//! no steal time reported, so whole runs differed by 35–45 %. A fixed unit
//! of work that belongs to the benchmark, not to the program under test,
//! is therefore timed between queues throughout a run, and host times are
//! reported scaled to the speed at which that unit takes [`REFERENCE_MS`].
//! A change to the program moves the scaled figures as it moves the
//! measured ones; a slow stretch of the host moves both the queues and the
//! unit, and mostly cancels: for `schedule_queue` queues the spread of
//! 20-s windows fell from ~35 % to ~8 % on that host. It does not cancel
//! everything: the exhaustive planner also slowed by up to 2x for a few
//! seconds at a time while the unit did not.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time the calibration unit takes on the reference host: a 2.1 GHz Xeon
/// vCPU, release build, at that host's faster speed.
pub const REFERENCE_MS: f64 = 1.0;
/// Minimum host time between two calibration samples.
const INTERVAL: Duration = Duration::from_millis(100);
/// Size of the table the calibration work reads (4 MiB: beyond L2).
const TABLE_WORDS: usize = 1 << 19;
/// Table reads and allocation rounds per calibration sample.
const TABLE_STEPS: usize = 16_000;
const ALLOC_STEPS: u64 = 2_000;
/// Vectors kept alive at once by the allocation rounds.
const LIVE: usize = 64;
/// Rounds over an L1-resident array of float lanes per sample.
const COMPUTE_ROUNDS: usize = 64;
const LANES: usize = 256;

/// Calibration samples of one run.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    evict: Vec<u64>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Calibration {
            table,
            evict: vec![1; TABLE_WORDS],
            samples: Vec::new(),
            last: None,
        }
    }

    /// Takes a sample unless one was taken less than [`INTERVAL`] ago.
    pub fn maybe_sample(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        self.sample();
    }

    /// Times one unit. A pass over a second table first leaves the caches
    /// in the same state whatever the program did before.
    pub fn sample(&mut self) {
        let mut sum = 0u64;
        for line in black_box(&self.evict).iter().step_by(8) {
            sum = sum.wrapping_add(*line);
        }
        black_box(sum);
        let ms = self.unit();
        self.samples.push(ms);
        self.last = Some(Instant::now());
    }

    /// One fixed unit of work that loads what the program loads: dependent
    /// reads from a table larger than L2 (memory latency), float arithmetic
    /// behind data-dependent branches over L1-resident data (execution
    /// ports and branch prediction, which a busy sibling hyperthread
    /// contends), and short-lived allocations, a hash map and small sorts.
    /// Returns its host time in ms.
    fn unit(&self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let (mut x, mut acc) = (0x2545_f491_4f6c_dd1du64, 0.0f64);
        for _ in 0..TABLE_STEPS {
            x = xorshift(x);
            let y = black_box(&self.table)[(x ^ acc.to_bits()) as usize & mask];
            if y & 3 == 0 {
                acc += (y as f64).sqrt();
            } else {
                acc = acc * 0.999 + (x >> 40) as f64 * 1e-6;
            }
        }
        let mut lanes = [0.0f64; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = i as f64 * 0.37;
        }
        for round in 0..COMPUTE_ROUNDS {
            for i in 0..LANES {
                x = xorshift(x);
                let a = lanes[i];
                lanes[i] = if x & 1 == 0 {
                    a * 0.999 + 0.001 * round as f64
                } else {
                    (a.abs() + 1.0).sqrt() - 0.5
                };
                acc += lanes[i] * lanes[(i + 7) % LANES];
            }
            if round % 16 == 0 {
                lanes.sort_unstable_by(f64::total_cmp);
            }
        }
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(LIVE + 1);
        let mut sizes = HashMap::new();
        for i in 0..ALLOC_STEPS {
            x = xorshift(x);
            let v: Vec<u64> = (0..=x % 64).map(|k| k ^ x).collect();
            sizes.insert(x % 512, v.len());
            if live.len() == LIVE {
                live.swap_remove((x % LIVE as u64) as usize);
            }
            live.push(v);
            if i % 97 == 0 {
                live.sort_by_key(Vec::len);
            }
        }
        black_box((acc, live.len(), sizes.len()));
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Takes `n` samples now and returns their median, in ms.
    pub fn burst(&mut self, n: usize) -> f64 {
        for _ in 0..n {
            self.sample();
        }
        crate::stats::median(&self.samples[self.samples.len() - n..])
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// How much slower than the reference this run went: the median
    /// sample over [`REFERENCE_MS`].
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.samples) / REFERENCE_MS
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
