//! Library half of the benchmark: the seeded spec generators, the pinned
//! known answers and the in-process job replay, shared by the benchmark
//! binary and its tests.

pub mod expected;
pub mod gen;
pub mod replay;
pub mod trace;
