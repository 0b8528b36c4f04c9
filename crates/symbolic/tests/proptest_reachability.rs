//! Property-based validation of the symbolic image/preimage/reachability
//! machinery against a brute-force explicit evaluator.
//!
//! Random transition systems come from the in-tree deterministic
//! [`SplitMix64`] PRNG with fixed per-test seeds, so every run checks the
//! same instances and failures reproduce exactly.

use ftrepair_bdd::SplitMix64;
use ftrepair_bdd::{NodeId, FALSE, TRUE};
use ftrepair_symbolic::{SymbolicContext, VarId};
use std::collections::HashSet;

const CASES: u64 = 96;

/// Blueprint: up to 3 variables with domains 2..=3 and a random edge list
/// given as concrete (from, to) value vectors.
#[derive(Clone, Debug)]
struct Blueprint {
    sizes: Vec<u64>,
    edges: Vec<(Vec<u64>, Vec<u64>)>,
    init: Vec<u64>,
}

fn gen_state(rng: &mut SplitMix64, sizes: &[u64]) -> Vec<u64> {
    sizes.iter().map(|&s| rng.gen_range(s)).collect()
}

fn gen_blueprint(rng: &mut SplitMix64) -> Blueprint {
    let nvars = 1 + rng.gen_range(3) as usize;
    let sizes: Vec<u64> = (0..nvars).map(|_| 2 + rng.gen_range(2)).collect();
    let nedges = rng.gen_range(12) as usize;
    let edges = (0..nedges).map(|_| (gen_state(rng, &sizes), gen_state(rng, &sizes))).collect();
    let init = gen_state(rng, &sizes);
    Blueprint { sizes, edges, init }
}

fn for_cases(test_tag: u64, mut case: impl FnMut(&Blueprint, u64)) {
    for i in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(test_tag.wrapping_mul(0x1000) + i);
        let bp = gen_blueprint(&mut rng);
        case(&bp, i);
    }
}

fn build(bp: &Blueprint) -> (SymbolicContext, Vec<VarId>, ftrepair_bdd::NodeId) {
    let mut cx = SymbolicContext::new();
    let vars: Vec<VarId> =
        bp.sizes.iter().enumerate().map(|(i, &s)| cx.add_var(format!("v{i}"), s)).collect();
    let mut trans = ftrepair_bdd::FALSE;
    for (from, to) in &bp.edges {
        let t = cx.transition_cube(from, to);
        trans = cx.mgr().or(trans, t);
    }
    (cx, vars, trans)
}

/// Brute-force reachability over the concrete edge list.
fn explicit_reach(bp: &Blueprint) -> HashSet<Vec<u64>> {
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    seen.insert(bp.init.clone());
    let mut frontier = vec![bp.init.clone()];
    while let Some(s) = frontier.pop() {
        for (from, to) in &bp.edges {
            if *from == s && seen.insert(to.clone()) {
                frontier.push(to.clone());
            }
        }
    }
    seen
}

#[test]
fn forward_reachability_matches_bruteforce() {
    for_cases(1, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let init = cx.state_cube(&bp.init);
        let reach = cx.forward_reachable(init, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(reach, 10_000).into_iter().collect();
        assert_eq!(symbolic, explicit_reach(bp), "case {i}: {bp:?}");
    });
}

#[test]
fn image_matches_bruteforce() {
    for_cases(2, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let init = cx.state_cube(&bp.init);
        let img = cx.image(init, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(img, 10_000).into_iter().collect();
        let expected: HashSet<Vec<u64>> =
            bp.edges.iter().filter(|(f, _)| *f == bp.init).map(|(_, t)| t.clone()).collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
    });
}

#[test]
fn preimage_matches_bruteforce() {
    for_cases(3, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let target = cx.state_cube(&bp.init);
        let pre = cx.preimage(target, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(pre, 10_000).into_iter().collect();
        let expected: HashSet<Vec<u64>> =
            bp.edges.iter().filter(|(_, t)| *t == bp.init).map(|(f, _)| f.clone()).collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
    });
}

#[test]
fn deadlocks_match_bruteforce() {
    for_cases(4, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let universe = cx.state_universe();
        let dl = cx.deadlocks(universe, trans);
        let symbolic: HashSet<Vec<u64>> = cx.enumerate_states(dl, 10_000).into_iter().collect();
        let sources: HashSet<&Vec<u64>> = bp.edges.iter().map(|(f, _)| f).collect();
        let all = cx.enumerate_states(universe, 10_000);
        let expected: HashSet<Vec<u64>> =
            all.into_iter().filter(|s| !sources.contains(s)).collect();
        assert_eq!(symbolic, expected, "case {i}: {bp:?}");
    });
}

#[test]
fn count_transitions_matches_edge_count() {
    for_cases(5, |bp, i| {
        let (mut cx, _, trans) = build(bp);
        let mut unique: Vec<(Vec<u64>, Vec<u64>)> = bp.edges.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(cx.count_transitions(trans), unique.len() as f64, "case {i}: {bp:?}");
    });
}

/// Reachability by iterating the monolithic one-step image — the loop the
/// frame-free fixpoint must match root for root.
fn monolithic_reach(cx: &mut SymbolicContext, init: NodeId, trans: NodeId) -> NodeId {
    let mut reach = init;
    loop {
        let step = cx.image(reach, trans);
        let next = cx.mgr().or(reach, step);
        if next == reach {
            return reach;
        }
        reach = next;
    }
}

/// A random guarded-command relation over up to 6 variables with domains
/// 2..=5 (so non-power-of-two encodings occur). Each action writes one
/// variable or several; it frames a random subset of the rest and leaves
/// the others unconstrained (their levels are skipped, so they may change
/// with the write). A few concrete multi-variable edges ride along. The
/// initial set mixes concrete states with raw bit cubes that may encode
/// values outside the domains, i.e. states outside the universe.
fn gen_relation(rng: &mut SplitMix64) -> (SymbolicContext, NodeId, NodeId) {
    let mut cx = SymbolicContext::new();
    let nvars = 1 + rng.gen_index(6);
    let vars: Vec<VarId> =
        (0..nvars).map(|i| cx.add_var(format!("v{i}"), 2 + rng.gen_range(4))).collect();
    let size = |cx: &SymbolicContext, v: VarId| cx.info(v).size;
    let mut trans = FALSE;
    for _ in 0..1 + rng.gen_index(6) {
        let written: Vec<VarId> = if rng.random_bool(0.6) {
            vec![vars[rng.gen_index(nvars)]]
        } else {
            vars.iter().copied().filter(|_| rng.coin()).collect()
        };
        let gv = vars[rng.gen_index(nvars)];
        let mut step =
            if rng.coin() { cx.assign_eq(gv, rng.gen_range(size(&cx, gv))) } else { TRUE };
        for &w in &written {
            let u = cx.assign_const(w, rng.gen_range(size(&cx, w)));
            step = cx.mgr().and(step, u);
        }
        for &v in &vars {
            if !written.contains(&v) && rng.random_bool(0.7) {
                let frame = cx.unchanged(v);
                step = cx.mgr().and(step, frame);
            }
        }
        trans = cx.mgr().or(trans, step);
    }
    for _ in 0..rng.gen_index(4) {
        let from: Vec<u64> = vars.iter().map(|&v| rng.gen_range(size(&cx, v))).collect();
        let to: Vec<u64> = vars.iter().map(|&v| rng.gen_range(size(&cx, v))).collect();
        let t = cx.transition_cube(&from, &to);
        trans = cx.mgr().or(trans, t);
    }
    let mut init = FALSE;
    for _ in 0..1 + rng.gen_index(3) {
        let cube = if rng.coin() {
            let state: Vec<u64> = vars.iter().map(|&v| rng.gen_range(size(&cx, v))).collect();
            cx.state_cube(&state)
        } else {
            let lits: Vec<(u32, bool)> = vars
                .iter()
                .flat_map(|&v| (0..cx.info(v).bits).map(move |k| (v, k)))
                .map(|(v, k)| (cx.cur_level(v, k), rng.coin()))
                .collect();
            cx.mgr().cube(&lits)
        };
        init = cx.mgr().or(init, cube);
    }
    (cx, init, trans)
}

/// Every transition changes variables of at most one component of
/// `change_components`: `trans` is covered by its steps that leave
/// everything outside one component unchanged.
fn assert_split_is_exact(cx: &mut SymbolicContext, trans: NodeId, what: &str) {
    let vars = cx.var_ids();
    let groups: Vec<Vec<(u32, u32)>> = vars
        .iter()
        .map(|&v| (0..cx.info(v).bits).map(|k| (cx.cur_level(v, k), cx.next_level(v, k))).collect())
        .collect();
    let components = cx.mgr_ref().change_components(trans, &groups);
    let mut covered = cx.unchanged_all(&vars);
    for component in &components {
        let framed: Vec<VarId> =
            vars.iter().copied().filter(|v| !component.contains(&(v.0 as usize))).collect();
        let frame = cx.unchanged_all(&framed);
        covered = cx.mgr().or(covered, frame);
    }
    assert!(cx.mgr().leq(trans, covered), "{what}: components {components:?}");
}

#[test]
fn frame_free_reachability_equals_monolithic_root_for_root() {
    for i in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x6000 + i);
        let (mut cx, init, trans) = gen_relation(&mut rng);
        assert_split_is_exact(&mut cx, trans, &format!("case {i}: as built"));
        let mono = monolithic_reach(&mut cx, init, trans);
        assert_eq!(cx.forward_reachable(init, trans), mono, "case {i}: as built");

        // Sifting moves the cur/next pairs; the split must read the new
        // levels and land on the same root.
        cx.configure_reorder(None);
        cx.reorder_sift(&[init, trans, mono]);
        cx.mgr_ref().check_integrity();
        assert_split_is_exact(&mut cx, trans, &format!("case {i}: after sift"));
        assert_eq!(cx.forward_reachable(init, trans), mono, "case {i}: after sift");
        assert_eq!(monolithic_reach(&mut cx, init, trans), mono, "case {i}: mono after sift");

        // With the automatic trigger armed low, sifts also fire between
        // rounds of the checkpointed fixpoint.
        cx.configure_reorder(Some(16));
        let kept = cx.forward_reachable_keep(init, trans, &[init, trans, mono]);
        assert_eq!(kept, mono, "case {i}: checkpointed");
        cx.mgr_ref().check_integrity();
    }
}
