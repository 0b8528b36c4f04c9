//! The workloads. Each runs the same three lanes — lazy CLI jobs,
//! cautious CLI jobs and an open-loop request stream against
//! `ftrepair serve` — on its own instance shapes and time split, so every
//! workload reports every end-to-end metric while stressing different
//! layers. METRICS.md gives the reason for each choice.

use ftbench::gen::Shape;

/// Request classes of the daemon stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A spec of the hot set, already in the result cache.
    Hit,
    /// A spec the daemon has never seen, with no stored neighbor.
    Miss,
    /// A one-action edit of a stored spec (the warm-start path).
    Warm,
}

/// Per-class latency limits, in milliseconds from when a request was due.
pub struct Slo {
    pub hit_ms: f64,
    pub miss_ms: f64,
    pub warm_ms: f64,
}

/// One workload. Each class of work uses one shape, so that its quantiles
/// fall inside one shape's samples rather than in the gap between two.
pub struct Plan {
    pub name: &'static str,
    /// Shape of the lazy CLI jobs.
    pub lazy: Shape,
    /// Shape of the cautious CLI jobs.
    pub cautious: Shape,
    /// Shares of the run's seconds given to the lazy lane, the cautious
    /// lane and the daemon stream.
    pub shares: [f64; 3],
    /// The daemon's hot set (prefilled, then only hit).
    pub hot: &'static [Shape],
    /// Shape of the cold misses; each request is a fresh renaming, so it
    /// has its own key and no stored neighbor.
    pub miss: Shape,
    /// Prefilled specs whose one-action edits form the warm requests.
    pub donors: &'static [Shape],
    /// Request classes in stream order, repeated.
    pub pattern: &'static [Class],
    /// Offered rate of the stream, requests per second.
    pub rate: f64,
    /// Requests the traced run replays in-process (whole pattern cycles,
    /// so its counts are deterministic).
    pub replay_requests: usize,
    pub slo: Slo,
}

use Class::{Hit as H, Miss as M, Warm as W};

const fn chain(n: usize, d: u64) -> Shape {
    Shape::Chain { n, d }
}

const fn byz(n: usize) -> Shape {
    Shape::Byzantine { n }
}

/// A pattern of `N` hits with a miss at each slot of `misses` and a warm
/// request at each slot of `warms`. At the plans' rates the non-hits are
/// 250 ms apart, wider than their service time even on a slowed machine,
/// so they do not overlap and hold both connections unless a repair slows
/// down a lot; a hit then waits behind them.
const fn spaced<const N: usize>(misses: &[usize], warms: &[usize]) -> [Class; N] {
    let mut p = [H; N];
    let mut i = 0;
    while i < misses.len() {
        p[misses[i]] = M;
        i += 1;
    }
    i = 0;
    while i < warms.len() {
        p[warms[i]] = W;
        i += 1;
    }
    p
}

/// One miss and one warm request per 60 requests, 30 apart.
const SPARSE: [Class; 60] = spaced(&[0], &[30]);
/// Two misses and two warm requests per 60 requests, 15 apart.
const MIXED: [Class; 60] = spaced(&[0, 30], &[15, 45]);

pub const PLANS: [Plan; 3] = [
    // Step 1 reachability and verification reachability over BDDs far
    // larger than CPU caches; Step 2, parsing and the daemon do little.
    Plan {
        name: "chain",
        lazy: chain(9, 8),
        cautious: chain(8, 8),
        shares: [0.45, 0.1, 0.45],
        hot: &[chain(6, 6), chain(6, 6), chain(6, 6)],
        miss: chain(7, 8),
        donors: &[chain(7, 8)],
        pattern: &SPARSE,
        rate: 120.0,
        replay_requests: 180,
        slo: Slo { hit_ms: 20.0, miss_ms: 300.0, warm_ms: 300.0 },
    },
    // Step 2, the deadlock outer loop, cautious group closure and
    // rendering over small, cache-resident BDDs; verification is light.
    Plan {
        name: "byzantine",
        lazy: byz(6),
        cautious: byz(6),
        shares: [0.25, 0.3, 0.45],
        hot: &[byz(3), byz(3), byz(3)],
        miss: byz(4),
        donors: &[byz(3)],
        pattern: &SPARSE,
        rate: 120.0,
        replay_requests: 180,
        slo: Slo { hit_ms: 20.0, miss_ms: 400.0, warm_ms: 150.0 },
    },
    // HTTP, prepare, the result cache, the store and warm import; the
    // repair kernel barely runs.
    Plan {
        name: "serve",
        lazy: chain(7, 8),
        cautious: byz(4),
        shares: [0.1, 0.1, 0.8],
        hot: &[chain(6, 6), chain(6, 6), chain(6, 6), chain(6, 6)],
        miss: chain(6, 6),
        donors: &[chain(7, 8)],
        pattern: &MIXED,
        rate: 60.0,
        replay_requests: 120,
        slo: Slo { hit_ms: 20.0, miss_ms: 250.0, warm_ms: 250.0 },
    },
];

pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}
