//! Which variables a transition relation changes together.
//!
//! A transition relation over `(current, next)` bit pairs usually carries a
//! frame equality `x = x'` for every variable an action does not write.
//! Image computation can drop those frames once it knows which variables
//! ever change in the *same* transition: [`Manager::change_components`]
//! finds them in one memoized traversal that creates no nodes.
//!
//! On one satisfying path of the relation, a pair is *changeable* unless
//! the path fixes both copies to the same value. Every transition on the
//! path changes only changeable pairs, and one of them changes all of
//! them. So linking the groups of consecutive changeable pairs along every
//! path yields exactly the connected components of "changed by one
//! transition". The traversal computes, per node, the set of groups that
//! can be the first changeable pair below it; each place where a pair is
//! found changeable is linked to the first changeable pairs after it.
//! Every node lies on some path from the root to `TRUE` (the BDD is
//! reduced), so each link is realized by a real transition.

use crate::hash::FxHashMap;
use crate::manager::Manager;
use crate::node::{NodeId, FALSE, TRUE};

impl Manager {
    /// Partition the variable groups that `f` can change into the connected
    /// components of "changed by the same transition".
    ///
    /// Each group lists the `(current, next)` variable-index pairs of one
    /// finite-domain variable. The result holds each component as its group
    /// indices in ascending order, components ordered by smallest member.
    /// Groups that no transition of `f` changes appear in none. Every
    /// transition of `f` therefore changes groups of at most one component,
    /// which makes `f = ∨_C (f ∧ unchanged(groups outside C))` exact.
    ///
    /// Levels are read through the current order. Each pair must sit on
    /// adjacent levels, as grouped sifting keeps the symbolic layer's
    /// pairs; if one does not, the answer is a single component holding
    /// every group, which is still exact but splits nothing.
    pub fn change_components(&self, f: NodeId, groups: &[Vec<(u32, u32)>]) -> Vec<Vec<usize>> {
        if f == FALSE {
            return Vec::new();
        }
        let mut at = vec![None; self.num_vars() as usize];
        for (g, pairs) in groups.iter().enumerate() {
            for &(a, b) in pairs {
                let (la, lb) = (self.var2level[a as usize], self.var2level[b as usize]);
                if la.abs_diff(lb) != 1 {
                    return vec![(0..groups.len()).collect()];
                }
                let top = la.min(lb) as usize;
                assert!(at[top].is_none() && at[top + 1].is_none(), "pair ({a}, {b}) overlaps");
                at[top] = Some((g, true));
                at[top + 1] = Some((g, false));
            }
        }
        let mut walk = Walk {
            m: self,
            at,
            words: groups.len().div_ceil(64),
            memo: FxHashMap::default(),
            parent: (0..groups.len()).collect(),
            changed: vec![false; groups.len()],
        };
        walk.first(0, f);

        let mut by_root: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
        for g in 0..groups.len() {
            if walk.changed[g] {
                let root = walk.find(g);
                by_root.entry(root).or_default().push(g);
            }
        }
        let mut components: Vec<Vec<usize>> = by_root.into_values().collect();
        components.sort_unstable();
        components
    }
}

/// Traversal state: the level layout, per-node "first changeable group"
/// sets (bitsets over group indices), and a union-find over groups.
struct Walk<'a> {
    m: &'a Manager,
    /// For each level, the group of the pair on it and whether it is the
    /// pair's upper level; `None` for levels in no pair.
    at: Vec<Option<(usize, bool)>>,
    words: usize,
    memo: FxHashMap<NodeId, Vec<u64>>,
    parent: Vec<usize>,
    changed: Vec<bool>,
}

impl Walk<'_> {
    /// The groups that can hold the first changeable pair at or below
    /// level `start` on paths entering `e` (not `FALSE`) with the levels in
    /// `start..level(e)` skipped. Skipped pairs are changeable, so they are
    /// linked to one another and to whatever follows them.
    fn first(&mut self, start: u32, e: NodeId) -> Vec<u64> {
        let end = self.m.level(e).min(self.m.num_vars());
        let (mut first, mut last) = (None, None);
        for l in start..end {
            if let Some((g, true)) = self.at[l as usize] {
                self.changed[g] = true;
                match last {
                    Some(prev) => self.union(prev, g),
                    None => first = Some(g),
                }
                last = Some(g);
            }
        }
        let rest = self.below(e);
        match (first, last) {
            (Some(first), Some(last)) => {
                self.link(last, &rest);
                let mut set = vec![0; self.words];
                insert(&mut set, first);
                set
            }
            _ => rest,
        }
    }

    /// [`Walk::first`] for paths entering `e` with nothing skipped above it
    /// in its own pair — or with the pair's upper level skipped, when `e`
    /// sits on the lower one (the pair is then already changeable).
    fn below(&mut self, e: NodeId) -> Vec<u64> {
        if e == TRUE {
            return vec![0; self.words];
        }
        if let Some(set) = self.memo.get(&e) {
            return set.clone();
        }
        let level = self.m.level(e);
        let mut out = vec![0; self.words];
        match self.at[level as usize] {
            Some((g, true)) => {
                for (b, d) in [(false, self.m.lo(e)), (true, self.m.hi(e))] {
                    if d == FALSE {
                        continue;
                    }
                    if self.m.level(d) == level + 1 {
                        // Both copies tested: changeable iff they differ.
                        for (b2, c) in [(false, self.m.lo(d)), (true, self.m.hi(d))] {
                            if c == FALSE {
                                continue;
                            }
                            let next = self.first(level + 2, c);
                            if b == b2 {
                                or_into(&mut out, &next);
                            } else {
                                self.link(g, &next);
                                insert(&mut out, g);
                            }
                        }
                    } else {
                        // The lower copy is skipped: changeable.
                        let next = self.first(level + 2, d);
                        self.link(g, &next);
                        insert(&mut out, g);
                    }
                }
            }
            _ => {
                for c in [self.m.lo(e), self.m.hi(e)] {
                    if c != FALSE {
                        let next = self.first(level + 1, c);
                        or_into(&mut out, &next);
                    }
                }
            }
        }
        self.memo.insert(e, out.clone());
        out
    }

    /// Group `g` is changeable here and each group in `next` can hold the
    /// next changeable pair on the same path.
    fn link(&mut self, g: usize, next: &[u64]) {
        self.changed[g] = true;
        for (w, &word) in next.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let x = w * 64 + bits.trailing_zeros() as usize;
                self.union(g, x);
                bits &= bits - 1;
            }
        }
    }

    fn find(&mut self, mut g: usize) -> usize {
        while self.parent[g] != g {
            self.parent[g] = self.parent[self.parent[g]];
            g = self.parent[g];
        }
        g
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

fn insert(set: &mut [u64], g: usize) {
    set[g / 64] |= 1 << (g % 64);
}

fn or_into(acc: &mut [u64], set: &[u64]) {
    for (a, s) in acc.iter_mut().zip(set) {
        *a |= s;
    }
}

#[cfg(test)]
mod tests {
    use crate::{Manager, NodeId, TRUE};

    /// `n` one-bit variables: bit `i` has current `2i` and next `2i + 1`.
    fn pairs(n: u32) -> Vec<Vec<(u32, u32)>> {
        (0..n).map(|i| vec![(2 * i, 2 * i + 1)]).collect()
    }

    fn same(m: &mut Manager, i: u32) -> NodeId {
        let (c, n) = (m.var(2 * i), m.var(2 * i + 1));
        m.iff(c, n)
    }

    fn flip(m: &mut Manager, i: u32) -> NodeId {
        let (c, n) = (m.var(2 * i), m.var(2 * i + 1));
        m.xor(c, n)
    }

    #[test]
    fn framed_single_writers_split_per_variable() {
        let mut m = Manager::new(6);
        // x0 flips (x1, x2 framed) ∨ x2 flips (x0, x1 framed): x1 never changes.
        let (s0, s1, s2) = (same(&mut m, 0), same(&mut m, 1), same(&mut m, 2));
        let (f0, f2) = (flip(&mut m, 0), flip(&mut m, 2));
        let a = m.and(f0, s1);
        let a = m.and(a, s2);
        let b = m.and(s0, s1);
        let b = m.and(b, f2);
        let t = m.or(a, b);
        assert_eq!(m.change_components(t, &pairs(3)), vec![vec![0], vec![2]]);
    }

    #[test]
    fn joint_writes_and_skipped_pairs_link_groups() {
        let mut m = Manager::new(6);
        // x0 and x1 flip together, x2 framed.
        let (f0, f1, s2) = (flip(&mut m, 0), flip(&mut m, 1), same(&mut m, 2));
        let t = m.and(f0, f1);
        let t = m.and(t, s2);
        assert_eq!(m.change_components(t, &pairs(3)), vec![vec![0, 1]]);
        // x1 flips and x2 is unconstrained: x2 may change with it.
        let (s0, f1) = (same(&mut m, 0), flip(&mut m, 1));
        let u = m.and(s0, f1);
        assert_eq!(m.change_components(u, &pairs(3)), vec![vec![1, 2]]);
        // x0 framed, x1 and x2 both unconstrained: skipped side by side.
        assert_eq!(m.change_components(s0, &pairs(3)), vec![vec![1, 2]]);
        // Constants: nothing changes in FALSE; everything together in TRUE.
        assert!(m.change_components(crate::FALSE, &pairs(3)).is_empty());
        assert_eq!(m.change_components(TRUE, &pairs(3)), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn identity_relation_changes_nothing() {
        let mut m = Manager::new(4);
        let (s0, s1) = (same(&mut m, 0), same(&mut m, 1));
        let t = m.and(s0, s1);
        assert!(m.change_components(t, &pairs(2)).is_empty());
    }

    #[test]
    fn a_fixed_prefix_does_not_link_alternative_suffixes() {
        let mut m = Manager::new(6);
        // x0 stays 0 on every transition; below it, either x1 or x2 flips.
        let c0 = m.nvar(0);
        let n0 = m.nvar(1);
        let prefix = m.and(c0, n0);
        let (s1, s2, f1, f2) = (same(&mut m, 1), same(&mut m, 2), flip(&mut m, 1), flip(&mut m, 2));
        let a = m.and(f1, s2);
        let b = m.and(s1, f2);
        let ab = m.or(a, b);
        let t = m.and(prefix, ab);
        assert_eq!(m.change_components(t, &pairs(3)), vec![vec![1], vec![2]]);
        // Once x0 may change too, it links both alternatives.
        let f0 = flip(&mut m, 0);
        let changed_prefix = m.or(prefix, f0);
        let t = m.and(changed_prefix, ab);
        assert_eq!(m.change_components(t, &pairs(3)), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn multi_bit_groups_and_reordered_levels() {
        let mut m = Manager::new(8);
        // Group 0 = bits (0,1),(2,3); group 1 = bits (4,5),(6,7).
        let groups = vec![vec![(0, 1), (2, 3)], vec![(4, 5), (6, 7)]];
        let (s0, s1, s2, s3) = (same(&mut m, 0), same(&mut m, 1), same(&mut m, 2), same(&mut m, 3));
        let f1 = flip(&mut m, 1);
        let f3 = flip(&mut m, 3);
        let a = m.and(s0, f1); // group 0 writes its second bit
        let a = m.and(a, s2);
        let a = m.and(a, s3);
        let b = m.and(s0, s1);
        let b = m.and(b, s2);
        let b = m.and(b, f3); // group 1 writes its second bit
        let t = m.or(a, b);
        assert_eq!(m.change_components(t, &groups), vec![vec![0], vec![1]]);
        // Sift with the pairs kept adjacent: the answer must not move.
        m.set_reorder_groups(&[vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        m.reorder_sift(&[t]);
        assert_eq!(m.change_components(t, &groups), vec![vec![0], vec![1]]);
    }

    #[test]
    fn split_pairs_fall_back_to_one_component() {
        let mut m = Manager::new(4);
        let t = flip(&mut m, 0);
        // Pair (0, 2) is not on adjacent levels.
        let groups = vec![vec![(0, 2)], vec![(1, 3)]];
        assert_eq!(m.change_components(t, &groups), vec![vec![0, 1]]);
    }
}
