//! Deterministic work-counter guards. Node creation (`unique_misses`)
//! repeats exactly from run to run, so a bound on it catches a silent
//! return to a costlier algorithm without any wall-clock gate.

use ftrepair_casestudies::chain::stabilizing_chain;
use ftrepair_core::{lazy_repair, verify::verify_outcome, RepairOptions};

/// Building Sc^9 at d = 8, repairing it lazily and verifying the result
/// creates 121,268 BDD nodes with frame-free forward reachability;
/// the monolithic image over δ ∪ f created 360,525.
#[test]
fn chain_9x8_repair_and_verify_create_under_200k_nodes() {
    let (mut p, _) = stabilizing_chain(9, 8);
    let out = lazy_repair(&mut p, &RepairOptions::default()).unwrap();
    assert!(!out.failed);
    let (m, r) = verify_outcome(&mut p, &out);
    assert!(m.ok() && r.ok(), "{m:?} {r:?}");
    let created = p.cx.mgr_ref().stats().unique_misses;
    assert!(created < 200_000, "Sc^9 repair + verify created {created} nodes");
}
