//! The machine-speed probe. On a shared host, other tenants contend for
//! the caches and memory bandwidth, and over minutes the same job's time
//! moves by half or more while its CPU time stays equal to its wall time.
//! The probe is a fixed piece of the benchmark's own code, independent of
//! the program under test, that is slowed by the same contention: a
//! pointer chase through a 16 MiB random cycle (memory latency) and a hash
//! map built and read back (allocation, hashing, cache-resident random
//! access). A run samples it after every unit of work and divides its
//! timings by the run's slowdown, so that they read as seconds at a fixed
//! reference speed and a change in them is a change in the program.

use std::collections::HashMap;
use std::time::Instant;

/// Entries of the pointer-chase cycle (16 MiB of `u32`).
const CHASE_LEN: usize = 1 << 22;
/// Steps of one chase.
const CHASE_STEPS: usize = 150_000;
/// Keys of one hash-map probe.
const HASH_KEYS: u64 = 1 << 16;
/// Reference times of one chase and one hash-map probe: the reference
/// speed the normalized timings are stated at. They are round figures
/// near the probes' fastest times on a shared 2-vCPU Xeon VM, where the
/// medians of a run ranged over 21–35 ms and 5.5–12 ms.
const CHASE_REF_S: f64 = 0.020;
const HASH_REF_S: f64 = 0.006;
/// Weight of the chase in the slowdown (the hash map has the rest). Over
/// nineteen runs of the three workloads, the chase alone tracked the hit
/// latencies best and the hash map alone the BA^6 jobs; at three parts to
/// one, no timing metric's spread across runs exceeded 0.19.
const CHASE_WEIGHT: f64 = 0.75;

/// Xorshift64 step, for the probe's fixed pseudo-random inputs.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The probe and its samples: seconds per chase and per hash-map probe.
pub struct Probe {
    next: Vec<u32>,
    chase: Vec<f64>,
    hash: Vec<f64>,
}

impl Probe {
    /// Build the chase cycle (Sattolo's shuffle, so it is one cycle
    /// through every entry).
    pub fn new() -> Probe {
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_LEN).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        Probe { next, chase: Vec::new(), hash: Vec::new() }
    }

    /// Time one chase and one hash-map probe.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
        }
        std::hint::black_box(p);
        self.chase.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut m: HashMap<u64, u64> = HashMap::with_capacity(HASH_KEYS as usize);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..HASH_KEYS {
            x = xorshift(x);
            m.insert(x, i);
        }
        let mut sum = 0u64;
        x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..HASH_KEYS {
            x = xorshift(x);
            sum = sum.wrapping_add(m[&x]);
        }
        std::hint::black_box(sum);
        self.hash.push(t.elapsed().as_secs_f64());
    }

    /// Samples taken so far.
    pub fn samples(&self) -> usize {
        self.chase.len()
    }

    /// Median seconds of the chase and of the hash-map probe.
    pub fn medians(&self) -> Option<(f64, f64)> {
        crate::stats::median(&self.chase).zip(crate::stats::median(&self.hash))
    }

    /// The run's slowdown against the reference speed: the weighted
    /// geometric mean of the two probes' median times over their reference
    /// times.
    pub fn slowdown(&self) -> Option<f64> {
        self.medians().map(|(c, h)| {
            (c / CHASE_REF_S).powf(CHASE_WEIGHT) * (h / HASH_REF_S).powf(1.0 - CHASE_WEIGHT)
        })
    }
}
