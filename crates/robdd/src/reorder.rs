//! Dynamic variable ordering: the classic in-place adjacent swap, plus the
//! [`ddcore::dvo`] engine instantiated for the ROBDD manager (the `sift`
//! of CUDD used in Table I).
//!
//! The sifting algorithms live in [`ddcore::dvo`], generic over
//! [`ReorderBackend`]; this module supplies the backend contract (adjacent
//! swaps that keep the reorder's reference counts exact and free what
//! they kill, the live count, per-variable widths and a structural
//! pair-affinity analogue) and keeps the historical `sift*` entry points
//! as thin wrappers.

use crate::edge::Edge;
use crate::manager::{NodeSpace, Robdd};
use crate::node::Node;
use ddcore::dvo::{DvoStrategy, FullSift, ReorderBackend, ReorderStrategy};
use ddcore::govern::{OpAbort, OpBudget};

/// Tuning knobs for [`Robdd::sift_with`] (the shared engine's parameter
/// block; re-exported under its historical name).
pub use ddcore::dvo::SiftParams as SiftConfig;

impl ReorderBackend for Robdd {
    fn num_vars(&self) -> usize {
        Robdd::num_vars(self)
    }

    fn position_of(&self, var: usize) -> usize {
        Robdd::position_of(self, var)
    }

    fn var_at_position(&self, pos: usize) -> usize {
        self.var_at_pos[pos] as usize
    }

    fn swap_positions(&mut self, pos: usize) {
        self.swap_adjacent(pos);
    }

    /// One collection, then every stored child edge and every registry
    /// root counted.
    fn start_ref_counts(&mut self) {
        self.gc_keeping(&[]);
        let roots = self.root_set().snapshot();
        self.refs.start(
            self.nodes.len(),
            roots
                .iter()
                .map(|&bits| Edge::from_bits(bits as u32).node()),
        );
        let (nodes, refs) = (&self.nodes, &mut self.refs);
        for table in &self.subtables {
            table.for_each(|_, id| {
                let n = &nodes[id as usize];
                refs.inc(n.then_().node());
                refs.inc(n.else_().node());
            });
        }
    }

    /// The final collection frees nothing (the counts kept the forest
    /// exact) but clears the computed cache, whose entries may name ids
    /// the swaps freed and reused, and advances the GC generation.
    fn stop_ref_counts(&mut self) {
        self.refs.stop();
        self.gc_keeping(&[]);
    }

    /// Debug builds check the counts on every read while they are up: a
    /// full recount of the stored forest plus a mark from the registry
    /// roots ([`ddcore::roots::RefCounts::check_exact`]).
    fn live_nodes(&self) -> usize {
        let stored = || {
            self.subtables
                .iter()
                .flat_map(|t| t.values())
                .collect::<Vec<_>>()
        };
        debug_assert_eq!(
            self.refs.check_exact(&stored(), |id| {
                let n = self.node(id);
                [n.then_().node(), n.else_().node()]
            }),
            Ok(()),
            "reference counts"
        );
        Robdd::live_nodes(self)
    }

    fn var_width(&self, var: usize) -> usize {
        self.subtables[var].len()
    }

    /// Structural analogue of the BBDD chain affinity: the fraction of the
    /// upper variable's nodes with a cofactor testing the next variable in
    /// the order directly. Those are exactly the nodes an adjacent swap
    /// must rewrite, so a high fraction means the two levels are tightly
    /// coupled.
    fn pair_affinity(&self, pos: usize) -> f64 {
        let x = self.var_at_pos[pos] as usize;
        let y = self.var_at_pos[pos + 1] as u16;
        let table = &self.subtables[x];
        let total = table.len();
        if total == 0 {
            return 0.0;
        }
        let coupled = table
            .values()
            .into_iter()
            .filter(|&id| {
                let nd = self.node(id);
                let (t, e) = (nd.then_(), nd.else_());
                (!t.is_constant() && self.node(t.node()).var() == y)
                    || (!e.is_constant() && self.node(e.node()).var() == y)
            })
            .count();
        coupled as f64 / total as f64
    }
}

impl Robdd {
    /// Swap the variables at order positions `pos` and `pos + 1` in place.
    ///
    /// Nodes of the upper variable whose cofactors involve the lower
    /// variable are rewritten (keeping their pointers) to test the lower
    /// variable first; all other nodes are untouched. Every existing
    /// [`Edge`](crate::Edge) keeps denoting the same function.
    ///
    /// While a reorder runs, the swap keeps the reference counts exact:
    /// each rewritten node counts its new children (a child the swap
    /// creates starts at zero and counts its own), and after the loop the
    /// old children are released. Every node left unreferenced is freed
    /// on the spot, cascading down, so the swap costs work in the two
    /// levels it touches and what dies below them — never a collection.
    ///
    /// # Panics
    /// Panics if `pos + 1 >= num_vars()`.
    pub fn swap_adjacent(&mut self, pos: usize) {
        let timer = ddcore::obs::prof_timer();
        let n = self.num_vars();
        assert!(pos + 1 < n, "swap position out of range");
        let x = self.var_at_pos[pos] as u16;
        let y = self.var_at_pos[pos + 1] as u16;

        let counting = self.refs.is_active();
        // Old children of the rewritten nodes, released after the loop.
        let mut released: Vec<u32> = Vec::new();
        let ids = self.subtables[x as usize].values();
        for id in ids {
            let nd = *self.node(id);
            let (t, e) = (nd.then_(), nd.else_());
            let t_dep = !t.is_constant() && self.node(t.node()).var() == y;
            let e_dep = !e.is_constant() && self.node(e.node()).var() == y;
            if !t_dep && !e_dep {
                // Does not involve y: stays a valid x-node (now below y).
                continue;
            }
            // Grand-cofactors with respect to y. The then-edge is regular,
            // so t1 is regular and the rebuilt node keeps its polarity.
            let (t1, t0) = if t_dep {
                let tn = self.node(t.node());
                let c = t.is_complemented();
                (tn.then_().complement_if(c), tn.else_().complement_if(c))
            } else {
                (t, t)
            };
            let (e1, e0) = if e_dep {
                let en = self.node(e.node());
                let c = e.is_complemented();
                (en.then_().complement_if(c), en.else_().complement_if(c))
            } else {
                (e, e)
            };
            let new_t = self.swap_child(x, t1, e1); // f_{y=1}
            let new_e = self.swap_child(x, t0, e0); // f_{y=0}
            debug_assert_ne!(new_t, new_e, "swap produced a redundant node");
            debug_assert!(!new_t.is_complemented(), "polarity flip in swap");
            let old_key = nd.key();
            let removed = self.subtables[x as usize].remove(&old_key);
            debug_assert_eq!(removed, Some(id));
            self.nodes[id as usize] = Node::new(y, new_t, new_e);
            let new_key = self.node(id).key();
            debug_assert!(self.subtables[y as usize].get(&new_key).is_none());
            self.subtables[y as usize].insert(new_key, id);
            if counting {
                self.refs.inc(new_t.node());
                self.refs.inc(new_e.node());
                released.extend([t.node(), e.node()]);
            }
        }
        self.var_at_pos.swap(pos, pos + 1);
        self.pos_of_var[self.var_at_pos[pos] as usize] = pos as u32;
        self.pos_of_var[self.var_at_pos[pos + 1] as usize] = (pos + 1) as u32;
        let dead: Vec<u32> = released
            .into_iter()
            .filter(|&id| self.refs.dec(id))
            .collect();
        self.free_dead(dead);
        self.stats.swaps += 1;
        ddcore::obs::prof_record(ddcore::obs::Op::Swap, timer);
    }

    /// `make_node` for one of a swap's new `x`-level children. While the
    /// reference counts are up, a node it creates starts at zero and
    /// counts its own two children.
    fn swap_child(&mut self, x: u16, t: Edge, e: Edge) -> Edge {
        let created = self.stats.nodes_created;
        let r = self.make_node(x, t, e);
        if self.refs.is_active() && self.stats.nodes_created != created {
            self.refs.inc(t.node());
            self.refs.inc(e.node());
        }
        r
    }

    /// Sift all variables once with default settings; returns the live
    /// node count. Everything a live [`crate::RobddFn`] handle denotes
    /// survives — the handle registry is the root set.
    pub fn sift(&mut self) -> usize {
        self.sift_with(&SiftConfig::default())
    }

    /// Sift with an explicit [`SiftConfig`], tracing the handle registry.
    pub fn sift_with(&mut self, cfg: &SiftConfig) -> usize {
        FullSift { params: *cfg }
            .reorder(self, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::sift`] under a resource budget, polled before every
    /// adjacent swap. On abort, the variable currently being sifted is
    /// first parked back at the best position seen (a bounded amount of
    /// un-budgeted work), so the order, tables and every registered handle
    /// stay consistent — the result is simply a partially improved order.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn sift_bounded(&mut self, budget: &mut OpBudget) -> Result<usize, OpAbort> {
        self.sift_bounded_with(&SiftConfig::default(), budget)
    }

    /// [`Robdd::sift_bounded`] with explicit [`SiftConfig`].
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn sift_bounded_with(
        &mut self,
        cfg: &SiftConfig,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        FullSift { params: *cfg }.reorder(self, budget)
    }

    /// Run a specific [`DvoStrategy`] (full, window or pair-aware sift)
    /// under a resource budget, with the [`Robdd::sift_bounded`] abort
    /// contract.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn sift_strategy(
        &mut self,
        strategy: DvoStrategy,
        budget: &mut OpBudget,
    ) -> Result<usize, OpAbort> {
        strategy.run(self, budget)
    }

    /// Re-order to the given permutation (top first) by adjacent swaps.
    ///
    /// # Panics
    /// Panics if `target` is not a permutation of `0..num_vars()`.
    pub fn reorder_to(&mut self, target: &[usize]) {
        let n = self.num_vars();
        assert_eq!(target.len(), n, "order must mention every variable once");
        let mut seen = vec![false; n];
        for &v in target {
            assert!(v < n && !seen[v], "order must be a permutation");
            seen[v] = true;
        }
        for (goal_pos, &v) in target.iter().enumerate() {
            let mut pos = self.position_of(v);
            while pos > goal_pos {
                self.swap_adjacent(pos - 1);
                pos -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_of(mgr: &Robdd, f: Edge, n: usize) -> Vec<bool> {
        (0..1u32 << n)
            .map(|m| {
                let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                mgr.eval(f, &a)
            })
            .collect()
    }

    fn equality_bad_order(mgr: &mut Robdd, k: usize) -> Edge {
        let mut f = mgr.one();
        for i in 0..k {
            let (a, b) = (mgr.var(i), mgr.var(i + k));
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        f
    }

    #[test]
    fn swap_preserves_functions() {
        let n = 5;
        let mut mgr = Robdd::new(n);
        let f = equality_bad_order(&mut mgr, 2);
        let g = {
            let a = mgr.var(4);
            let b = mgr.var(0);
            mgr.xor(a, b)
        };
        let (tf, tg) = (truth_of(&mgr, f, n), truth_of(&mgr, g, n));
        for pos in 0..n - 1 {
            mgr.swap_adjacent(pos);
            assert_eq!(truth_of(&mgr, f, n), tf, "pos {pos}");
            assert_eq!(truth_of(&mgr, g, n), tg, "pos {pos}");
            mgr.validate().unwrap();
        }
    }

    #[test]
    fn random_swap_walks() {
        let n = 7;
        for seed in 0..6u64 {
            let mut mgr = Robdd::new(n);
            let vs: Vec<Edge> = (0..n).map(|v| mgr.var(v)).collect();
            let mut f = vs[0];
            let mut state = seed | 1;
            for _ in 0..2 * n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = vs[(state >> 33) as usize % n];
                f = match (state >> 20) % 4 {
                    0 => mgr.and(f, v),
                    1 => mgr.or(f, v),
                    2 => mgr.xor(f, v),
                    _ => mgr.nand(f, v),
                };
            }
            let tf = truth_of(&mgr, f, n);
            for step in 0..40 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pos = (state >> 33) as usize % (n - 1);
                mgr.swap_adjacent(pos);
                assert_eq!(truth_of(&mgr, f, n), tf, "seed {seed} step {step}");
                mgr.validate().unwrap();
            }
        }
    }

    #[test]
    fn sifting_shrinks_equality() {
        let k = 5;
        let mut mgr = Robdd::new(2 * k);
        let f = equality_bad_order(&mut mgr, k);
        let tf = truth_of(&mgr, f, 2 * k);
        let before = mgr.node_count(f);
        let _fh = mgr.pin(f);
        mgr.sift();
        let after = mgr.node_count(f);
        assert!(after < before, "sift must shrink: {before} -> {after}");
        assert!(after <= 3 * k + 1, "near-linear size expected, got {after}");
        assert_eq!(truth_of(&mgr, f, 2 * k), tf);
        mgr.validate().unwrap();
    }

    #[test]
    fn reorder_to_target() {
        let n = 5;
        let mut mgr = Robdd::new(n);
        let f = equality_bad_order(&mut mgr, 2);
        let tf = truth_of(&mgr, f, n);
        mgr.reorder_to(&[3, 1, 4, 0, 2]);
        assert_eq!(mgr.order(), vec![3, 1, 4, 0, 2]);
        assert_eq!(truth_of(&mgr, f, n), tf);
        mgr.validate().unwrap();
    }
}
