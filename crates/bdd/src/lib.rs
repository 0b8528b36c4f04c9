//! # ftrepair-bdd — a from-scratch ROBDD engine
//!
//! Reduced Ordered Binary Decision Diagrams are the symbolic substrate of the
//! lazy-repair tool: program transition relations, invariants, fault-spans and
//! read-restriction *groups* are all boolean functions over a few hundred
//! variables, and every fixpoint in the repair algorithms is a loop of BDD
//! operations.
//!
//! The engine is deliberately classical:
//!
//! * a flat node arena with a hash-consing *unique table* guaranteeing
//!   canonicity (structural equality ⇔ pointer equality),
//! * memoized `NOT`/`AND`/`OR`/`XOR`/`ITE`,
//! * set-quantification (`exists`/`forall`) over interned variable sets,
//! * fused relational products (`and_exists`) with early termination — the
//!   workhorse of image/preimage computation,
//! * order-preserving variable renaming (used to map next-state variables back
//!   to current-state variables),
//! * write-set components of a transition relation (which variables change
//!   in the same transition), found without creating nodes — what lets image
//!   computation drop frame equalities (`changes.rs`),
//! * sat-counting, deterministic minterm picking and cube iteration,
//! * mark-and-sweep garbage collection with stable node ids,
//! * dynamic variable reordering — in-place adjacent-level swaps with
//!   grouped Rudell sifting on top and an optional auto-reorder trigger
//!   (`reorder.rs`); node ids and functions survive a reorder, only the
//!   order (and the node count) changes,
//! * a portable serialized DAG form ([`SerializedBdd`]) used to ship BDDs
//!   between managers (e.g. to per-thread managers in the parallel Step 2 of
//!   the lazy-repair algorithm), recording the source variable order so
//!   managers with diverged orders can still exchange functions.
//!
//! There are **no complemented edges**: plain canonical nodes keep invariants
//! simple enough to property-test exhaustively against a truth-table oracle
//! (see `tests/`).
//!
//! ## Quick example
//!
//! ```
//! use ftrepair_bdd::Manager;
//!
//! let mut m = Manager::new(3);
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let f = m.and(a, b);
//! let g = m.or(f, c);
//! assert_eq!(m.sat_count(g), 5.0); // a∧b ∨ c has 5 satisfying assignments
//! ```

mod changes;
mod dump;
mod hash;
mod manager;
mod node;
mod ops;
mod quant;
mod rename;
mod reorder;
pub mod rng;
mod sat;

pub use dump::{DecodeError, ImportError, SerializedBdd};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use manager::{CacheCounter, CacheStats, Manager, ManagerStats};
pub use node::{NodeId, FALSE, TRUE};
pub use quant::VarSetId;
pub use rename::VarMapId;
pub use reorder::ReorderOutcome;
pub use rng::SplitMix64;
pub use sat::CubeIter;
