//! Image, preimage and reachability fixpoints.

use crate::context::{SymbolicContext, VarId};
use ftrepair_bdd::{NodeId, VarMapId, VarSetId};

/// One frame-free part of a transition relation, with the current bits its
/// image quantifies and the map renaming its next bits back.
struct Part {
    rel: NodeId,
    cur: VarSetId,
    next_to_cur: VarMapId,
}

impl SymbolicContext {
    /// One-step image: the states reachable from `states` by one `trans`
    /// step. `∃ cur. states ∧ trans`, renamed back to current bits.
    pub fn image(&mut self, states: NodeId, trans: NodeId) -> NodeId {
        let cur = self.all_cur_varset();
        let next_states = self.mgr().and_exists(states, trans, cur);
        let map = self.map_next_to_cur();
        self.mgr().rename(next_states, map)
    }

    /// One-step preimage: the states from which one `trans` step can reach
    /// `states`. Renames the target to next bits, then `∃ next. trans ∧ …`.
    pub fn preimage(&mut self, states: NodeId, trans: NodeId) -> NodeId {
        let map = self.map_cur_to_next();
        let primed = self.mgr().rename(states, map);
        let next = self.all_next_varset();
        self.mgr().and_exists(primed, trans, next)
    }

    /// Least fixpoint of forward reachability from `init` under `trans`.
    pub fn forward_reachable(&mut self, init: NodeId, trans: NodeId) -> NodeId {
        self.chained_fixpoint(init, trans, None)
    }

    /// [`Self::forward_reachable`] with a reorder checkpoint per frontier
    /// iteration: long reachability runs are where the arena peaks, so the
    /// automatic trigger must get a chance to fire *between* image steps.
    /// `keep` is every NodeId the caller still holds across this call —
    /// the fixpoint's own state is rooted automatically. A no-op unless the
    /// manager's automatic trigger is armed.
    pub fn forward_reachable_keep(
        &mut self,
        init: NodeId,
        trans: NodeId,
        keep: &[NodeId],
    ) -> NodeId {
        self.chained_fixpoint(init, trans, Some(keep))
    }

    /// The one forward fixpoint. `trans` is split once into its frame-free
    /// parts ([`Self::frame_free_parts`]); each round applies them in turn,
    /// every step widening `reach` before the next part reads it (chained
    /// BFS), until a whole round adds nothing. Every part's steps are steps
    /// of `trans`, and a round that adds nothing leaves `reach` closed
    /// under every part, hence under `trans`: the result is the same least
    /// fixpoint, and so the same BDD root, as iterating [`Self::image`].
    /// With `keep`, each round starts at a reorder checkpoint rooting
    /// `keep`, `trans`, the parts and `reach`; without, nothing is collected
    /// and the caller's nodes need no rooting.
    fn chained_fixpoint(&mut self, init: NodeId, trans: NodeId, keep: Option<&[NodeId]>) -> NodeId {
        let parts = self.frame_free_parts(trans);
        let mut reach = init;
        loop {
            if let Some(keep) = keep {
                let mut roots = keep.to_vec();
                roots.extend([reach, trans]);
                roots.extend(parts.iter().map(|p| p.rel));
                self.maybe_reorder(&roots);
            }
            let before = reach;
            for p in &parts {
                let next = self.mgr().and_exists(reach, p.rel, p.cur);
                let step = self.mgr().rename(next, p.next_to_cur);
                reach = self.mgr().or(reach, step);
            }
            if reach == before {
                return reach;
            }
        }
    }

    /// Split `trans` into one frame-free part per component of the
    /// variables it changes together ([`ftrepair_bdd::Manager::change_components`]).
    /// The part of component `C` is `∃ next(V∖C). trans ∧ unchanged(V∖C)`:
    /// the steps of `trans` that change nothing outside `C`, with the frame
    /// equalities of `V∖C` gone. Every step of `trans` changes variables of
    /// at most one component, so it is a step of that component's part, or
    /// changes nothing and reaches a state already held. A part's image
    /// quantifies only `cur(C)` and renames only `next(C) → cur(C)`, since
    /// its source state carries `V∖C` across unchanged.
    fn frame_free_parts(&mut self, trans: NodeId) -> Vec<Part> {
        let vars = self.var_ids();
        let groups: Vec<Vec<(u32, u32)>> = vars
            .iter()
            .map(|&v| {
                (0..self.info(v).bits)
                    .map(|k| (self.cur_level(v, k), self.next_level(v, k)))
                    .collect()
            })
            .collect();
        let components = self.mgr_ref().change_components(trans, &groups);
        components
            .into_iter()
            .map(|component| {
                let written: Vec<VarId> = component.into_iter().map(|i| vars[i]).collect();
                let framed: Vec<VarId> =
                    vars.iter().copied().filter(|v| !written.contains(v)).collect();
                let frame = self.unchanged_all(&framed);
                let next_framed = self.next_varset(&framed);
                let rel = self.mgr().and_exists(trans, frame, next_framed);
                let cur = self.cur_varset(&written);
                let pairs: Vec<(u32, u32)> =
                    self.cur_levels(&written).into_iter().map(|l| (l + 1, l)).collect();
                let next_to_cur = self.mgr().varmap(&pairs);
                Part { rel, cur, next_to_cur }
            })
            .collect()
    }

    /// Least fixpoint of backward reachability: all states that can reach
    /// `target` (including `target` itself).
    pub fn backward_reachable(&mut self, target: NodeId, trans: NodeId) -> NodeId {
        let mut reach = target;
        loop {
            let step = self.preimage(reach, trans);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    /// [`Self::backward_reachable`] with a reorder checkpoint per frontier
    /// iteration; see [`Self::forward_reachable_keep`].
    pub fn backward_reachable_keep(
        &mut self,
        target: NodeId,
        trans: NodeId,
        keep: &[NodeId],
    ) -> NodeId {
        let mut reach = target;
        loop {
            let mut roots = keep.to_vec();
            roots.extend([reach, trans]);
            self.maybe_reorder(&roots);
            let step = self.preimage(reach, trans);
            let next = self.mgr().or(reach, step);
            if next == reach {
                return reach;
            }
            reach = next;
        }
    }

    /// Restrict a transition predicate to steps that start in `from`.
    pub fn trans_from(&mut self, trans: NodeId, from: NodeId) -> NodeId {
        self.mgr().and(trans, from)
    }

    /// Restrict a transition predicate to steps that end in `to`.
    pub fn trans_to(&mut self, trans: NodeId, to: NodeId) -> NodeId {
        let map = self.map_cur_to_next();
        let primed = self.mgr().rename(to, map);
        self.mgr().and(trans, primed)
    }

    /// A state predicate as a *target* constraint over next bits.
    pub fn as_next(&mut self, states: NodeId) -> NodeId {
        let map = self.map_cur_to_next();
        self.mgr().rename(states, map)
    }

    /// States in `states` with **no** outgoing `trans` step (deadlocks
    /// relative to that relation).
    pub fn deadlocks(&mut self, states: NodeId, trans: NodeId) -> NodeId {
        let has_succ = self.preimage_of_anything(trans);
        self.mgr().diff(states, has_succ)
    }

    /// States with at least one outgoing transition in `trans`
    /// (`∃ next. trans`).
    pub fn preimage_of_anything(&mut self, trans: NodeId) -> NodeId {
        let next = self.all_next_varset();
        self.mgr().exists(trans, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SymbolicContext;
    use ftrepair_bdd::{FALSE, TRUE};

    /// 1-variable mod-4 counter: x' = x + 1 mod 4.
    fn counter() -> (SymbolicContext, crate::VarId, NodeId) {
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 4);
        let mut trans = FALSE;
        for v in 0..4 {
            let g = cx.assign_eq(x, v);
            let u = cx.assign_const(x, (v + 1) % 4);
            let t = cx.mgr().and(g, u);
            trans = cx.mgr().or(trans, t);
        }
        (cx, x, trans)
    }

    #[test]
    fn image_of_counter() {
        let (mut cx, x, trans) = counter();
        let s0 = cx.state_cube(&[0]);
        let s1 = cx.image(s0, trans);
        let expected = cx.state_cube(&[1]);
        assert_eq!(s1, expected);
        let _ = x;
    }

    #[test]
    fn preimage_of_counter() {
        let (mut cx, _, trans) = counter();
        let s1 = cx.state_cube(&[1]);
        let pre = cx.preimage(s1, trans);
        let expected = cx.state_cube(&[0]);
        assert_eq!(pre, expected);
    }

    #[test]
    fn preimage_is_adjoint_of_image() {
        // For any S, T: image(S) ∩ X ≠ ∅ ⇔ S ∩ preimage(X) ≠ ∅; spot-check.
        let (mut cx, _, trans) = counter();
        let s = cx.state_cube(&[2]);
        let x = cx.state_cube(&[3]);
        let img = cx.image(s, trans);
        let pre = cx.preimage(x, trans);
        let lhs = !cx.mgr().disjoint(img, x);
        let rhs = !cx.mgr().disjoint(s, pre);
        assert_eq!(lhs, rhs);
        assert!(lhs); // 2 → 3 is a counter step
    }

    #[test]
    fn forward_reachability_saturates() {
        let (mut cx, _, trans) = counter();
        let s0 = cx.state_cube(&[0]);
        let reach = cx.forward_reachable(s0, trans);
        assert_eq!(cx.count_states(reach), 4.0); // full cycle
    }

    #[test]
    fn backward_reachability_on_a_line() {
        // x' = x+1 while x < 3, no wrap: only states ≤ 2 can reach 3.
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 4);
        let mut trans = FALSE;
        for v in 0..3 {
            let g = cx.assign_eq(x, v);
            let u = cx.assign_const(x, v + 1);
            let t = cx.mgr().and(g, u);
            trans = cx.mgr().or(trans, t);
        }
        let s3 = cx.state_cube(&[3]);
        let back = cx.backward_reachable(s3, trans);
        assert_eq!(cx.count_states(back), 4.0); // {0,1,2,3}
        let s0 = cx.state_cube(&[0]);
        assert!(cx.mgr().leq(s0, back));
    }

    /// Reachability by iterating the monolithic [`SymbolicContext::image`].
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

    #[test]
    fn frame_free_fixpoint_equals_monolithic() {
        // Two framed toggles and one joint write of (b, c).
        let mut cx = SymbolicContext::new();
        let a = cx.add_var("a", 2);
        let b = cx.add_var("b", 3);
        let c = cx.add_var("c", 2);
        let mut trans = FALSE;
        for val in 0..2u64 {
            let g = cx.assign_eq(a, val);
            let u = cx.assign_const(a, 1 - val);
            let frame = cx.unchanged_all(&[b, c]);
            let step = cx.and3(g, u, frame);
            trans = cx.mgr().or(trans, step);
        }
        for val in 0..2u64 {
            let g = cx.assign_eq(b, val);
            let ub = cx.assign_const(b, val + 1);
            let uc = cx.assign_const(c, val);
            let frame = cx.unchanged(a);
            let step = cx.and3(g, ub, uc);
            let step = cx.mgr().and(step, frame);
            trans = cx.mgr().or(trans, step);
        }
        let parts = cx.frame_free_parts(trans);
        assert_eq!(parts.len(), 2, "{{a}} and {{b, c}}");
        let s = cx.state_cube(&[0, 0, 1]);
        let r = cx.forward_reachable(s, trans);
        assert_eq!(r, monolithic_reach(&mut cx, s, trans));
        assert_eq!(cx.count_states(r), 6.0); // a ∈ {0,1} × (b,c) ∈ {(0,1),(1,0),(2,1)}
        assert_eq!(cx.forward_reachable_keep(s, trans, &[]), r);
    }

    #[test]
    fn deadlocks_found() {
        // x' = x+1 while x<3: state 3 is a deadlock.
        let mut cx = SymbolicContext::new();
        let x = cx.add_var("x", 4);
        let mut trans = FALSE;
        for v in 0..3 {
            let g = cx.assign_eq(x, v);
            let u = cx.assign_const(x, v + 1);
            let t = cx.mgr().and(g, u);
            trans = cx.mgr().or(trans, t);
        }
        let universe = cx.state_universe();
        let dl = cx.deadlocks(universe, trans);
        let expected = cx.state_cube(&[3]);
        assert_eq!(dl, expected);
    }

    #[test]
    fn trans_from_and_trans_to_slice_relation() {
        let (mut cx, _, trans) = counter();
        let s1 = cx.state_cube(&[1]);
        let from1 = cx.trans_from(trans, s1);
        assert_eq!(cx.count_transitions(from1), 1.0); // only 1→2
        let to1 = cx.trans_to(trans, s1);
        assert_eq!(cx.count_transitions(to1), 1.0); // only 0→1
        let pairs = cx.enumerate_transitions(to1, 4);
        assert_eq!(pairs, vec![(vec![0], vec![1])]);
    }

    #[test]
    fn empty_relation_has_empty_images() {
        let (mut cx, _, _) = counter();
        let s = cx.state_cube(&[0]);
        assert_eq!(cx.image(s, FALSE), FALSE);
        assert_eq!(cx.preimage(s, FALSE), FALSE);
        assert_eq!(cx.forward_reachable(s, FALSE), s);
        let _ = TRUE;
    }
}
