//! Recursive Boolean operations between BBDDs — Algorithm 1 of the paper.
//!
//! `apply(⊗, f, g)` follows the paper's structure exactly:
//!
//! * **(α)** terminal cases: `f == g`, `f == ¬g`, or a constant operand are
//!   resolved from the pre-defined trivial-operation list
//!   ([`BoolOp::on_equal_operands`] and friends);
//! * **(β)** the computed table is consulted;
//! * **(γ)** otherwise the operation recurses over the biconditional
//!   expansion (Eq. 3) at `i = maxlevel{f, g}`:
//!   `f ⊗ g = (v⊕w)(f_{v≠w} ⊗_D g_{v≠w}) + (v⊙w)(f_{v=w} ⊗ g_{v=w})`,
//!   where `⊗_D = updateop(⊗, attrs)` folds the complement attributes of the
//!   traversed edges into the operator table. Reduction rule R4 is enforced
//!   by `make_node` before the result is stored.
//!
//! Negation is free (complement attribute), and `ite` provides the ternary
//! operator used by `restrict` and the netlist builders.

use crate::edge::Edge;
use crate::manager::{Bbdd, Call, NodeSpace};
use ddcore::boolop::{BoolOp, Unary};
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::optag;

/// Computed-table tag for `ite` (the `apply` range uses the operator's own
/// truth table as its tag; see [`ddcore::optag`] for the full registry).
const TAG_ITE: u32 = optag::ITE;

impl Bbdd {
    /// Compute `f ⊗ g` for an arbitrary two-operand Boolean operator.
    ///
    /// ```
    /// use bbdd::{Bbdd, BoolOp};
    /// let mut mgr = Bbdd::new(2);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let f = mgr.apply(BoolOp::NAND, a, b);
    /// let g = mgr.apply(BoolOp::AND, a, b);
    /// assert_eq!(f, !g);
    /// ```
    pub fn apply(&mut self, op: BoolOp, f: Edge, g: Edge) -> Edge {
        self.try_apply(op, f, g, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::apply`] under a resource budget: polls `budget` at every
    /// cache-miss boundary (each poll precedes at most one `make_node`),
    /// so a node limit, deadline or raised [`ddcore::govern::CancelToken`]
    /// aborts the recursion within one poll stride. On `Err` the manager
    /// stays fully usable; partial results are unreachable and die at the
    /// next GC.
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_apply(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        apply_rec(self, op, f, g, budget)
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::AND, f, g)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::OR, f, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::XOR, f, g)
    }

    /// `f ⊙ g` (biconditional / equivalence).
    pub fn xnor(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::XNOR, f, g)
    }

    /// `¬(f ∧ g)`.
    pub fn nand(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::NAND, f, g)
    }

    /// `¬(f ∨ g)`.
    pub fn nor(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::NOR, f, g)
    }

    /// `f → g` (`¬f ∨ g`).
    pub fn implies(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::IMPLIES, f, g)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`, computed with its own recursion
    /// and computed-table entries.
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (s, a, b) = (mgr.var(0), mgr.var(1), mgr.var(2));
    /// let mux = mgr.ite(s, a, b);
    /// assert!(mgr.eval(mux, &[true, true, false]));
    /// assert!(!mgr.eval(mux, &[false, true, false]));
    /// ```
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Edge {
        self.try_ite(f, g, h, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Bbdd::ite`] under a resource budget (see [`Bbdd::try_apply`] for
    /// the checkpoint and abort-safety contract).
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_ite(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        ite_rec(self, f, g, h, budget)
    }
}

/// The edge a trivial-operation list entry denotes for operand `x`.
pub(crate) fn unary(u: Unary, x: Edge) -> Edge {
    match u {
        Unary::Zero => Edge::ZERO,
        Unary::One => Edge::ONE,
        Unary::Identity => x,
        Unary::Complement => !x,
    }
}

/// Algorithm 1 over any [`NodeSpace`]: the sequential manager and the
/// parallel workers run this same recursion.
pub(crate) fn apply_rec<S: NodeSpace>(
    s: &mut S,
    mut op: BoolOp,
    mut f: Edge,
    mut g: Edge,
    budget: &mut OpBudget,
) -> Result<Edge, OpAbort> {
    s.count(Call::Apply);
    // (α) terminal cases — the identical/trivial operation list.
    if f == g {
        return Ok(unary(op.on_equal_operands(), f));
    }
    if f == !g {
        return Ok(unary(op.on_complement_operands(), f));
    }
    if f.is_constant() {
        return Ok(unary(op.on_first_const(f == Edge::ONE), g));
    }
    if g.is_constant() {
        return Ok(unary(op.on_second_const(g == Edge::ONE), f));
    }
    // Strong canonical operand form: fold complement attributes and
    // operand order into the operator (the paper's `updateop`).
    if f.is_complemented() {
        f = !f;
        op = op.complement_first();
    }
    if g.is_complemented() {
        g = !g;
        op = op.complement_second();
    }
    if f.node() > g.node() {
        std::mem::swap(&mut f, &mut g);
        op = op.swap_operands();
    }
    let mut out_c = false;
    if op.eval(false, false) {
        op = op.complement_output();
        out_c = true;
    }
    // Operators that degenerated to projections under the rewrites.
    if op == BoolOp::FALSE {
        return Ok(Edge::ZERO.complement_if(out_c));
    }
    if op == BoolOp::FIRST {
        return Ok(f.complement_if(out_c));
    }
    if op == BoolOp::SECOND {
        return Ok(g.complement_if(out_c));
    }

    // (β) computed table.
    let (k1, k2, tag) = (f.bits() as u64, g.bits() as u64, op.table() as u32);
    if let Some(r) = s.cache_get(k1, k2, tag) {
        return Ok(r.complement_if(out_c));
    }

    // Budget checkpoint at the cache-miss boundary: this frame is
    // about to materialize at most one new node. Aborting here leaves
    // only fully-committed nodes behind (the cache insert below runs
    // strictly after a successful make_node), so the manager stays
    // consistent.
    budget.checkpoint()?;

    // (γ) recurse on the biconditional expansion at the top level.
    let lf = s.decode(f.node()).level();
    let lg = s.decode(g.node()).level();
    let i = lf.max(lg);
    let (fd, fe) = s.cofactors(f, i);
    let (gd, ge) = s.cofactors(g, i);
    let e = apply_rec(s, op, fe, ge, budget)?;
    let d = apply_rec(s, op, fd, gd, budget)?;
    let r = s.make_node(i, d, e);
    s.cache_insert(k1, k2, tag, r);
    Ok(r.complement_if(out_c))
}

/// If-then-else over any [`NodeSpace`].
pub(crate) fn ite_rec<S: NodeSpace>(
    s: &mut S,
    mut f: Edge,
    mut g: Edge,
    mut h: Edge,
    budget: &mut OpBudget,
) -> Result<Edge, OpAbort> {
    s.count(Call::Ite);
    // Terminal and two-operand degenerations.
    if f == Edge::ONE {
        return Ok(g);
    }
    if f == Edge::ZERO {
        return Ok(h);
    }
    if g == h {
        return Ok(g);
    }
    if g == Edge::ONE && h == Edge::ZERO {
        return Ok(f);
    }
    if g == Edge::ZERO && h == Edge::ONE {
        return Ok(!f);
    }
    if f == g || g == Edge::ONE {
        return apply_rec(s, BoolOp::OR, f, h, budget);
    }
    if f == !g || g == Edge::ZERO {
        return apply_rec(s, BoolOp::NOT_AND, f, h, budget);
    }
    if f == h || h == Edge::ZERO {
        return apply_rec(s, BoolOp::AND, f, g, budget);
    }
    if f == !h || h == Edge::ONE {
        return apply_rec(s, BoolOp::IMPLIES, f, g, budget);
    }
    // Canonical form: regular f (swap branches), regular g (complement
    // the output).
    if f.is_complemented() {
        f = !f;
        std::mem::swap(&mut g, &mut h);
    }
    let mut out_c = false;
    if g.is_complemented() {
        g = !g;
        h = !h;
        out_c = true;
    }
    let k1 = f.bits() as u64;
    let k2 = ((g.bits() as u64) << 32) | h.bits() as u64;
    if let Some(r) = s.cache_get(k1, k2, TAG_ITE) {
        return Ok(r.complement_if(out_c));
    }
    budget.checkpoint()?;
    let mut i = s.decode(f.node()).level();
    for e in [g, h] {
        if let Some(l) = s.edge_level(e) {
            i = i.max(l);
        }
    }
    let (fd, fe) = s.cofactors(f, i);
    let (gd, ge) = s.cofactors(g, i);
    let (hd, he) = s.cofactors(h, i);
    let e = ite_rec(s, fe, ge, he, budget)?;
    let d = ite_rec(s, fd, gd, hd, budget)?;
    let r = s.make_node(i, d, e);
    s.cache_insert(k1, k2, TAG_ITE, r);
    Ok(r.complement_if(out_c))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustively compare a BBDD against a reference function over all
    /// assignments of `n` variables.
    fn check(mgr: &Bbdd, f: Edge, n: usize, reference: impl Fn(&[bool]) -> bool) {
        for m in 0..(1u32 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(
                mgr.eval(f, &assignment),
                reference(&assignment),
                "assignment {assignment:?}"
            );
        }
    }

    #[test]
    fn all_sixteen_ops_on_two_literals() {
        for op in BoolOp::all() {
            let mut mgr = Bbdd::new(2);
            let (a, b) = (mgr.var(0), mgr.var(1));
            let f = mgr.apply(op, a, b);
            check(&mgr, f, 2, |v| op.eval(v[0], v[1]));
            assert!(mgr.validate().is_ok(), "op {op:?}");
        }
    }

    #[test]
    fn ops_between_composite_functions() {
        let mut mgr = Bbdd::new(4);
        let vs: Vec<Edge> = (0..4).map(|i| mgr.var(i)).collect();
        let ab = mgr.and(vs[0], vs[1]);
        let cd = mgr.xor(vs[2], vs[3]);
        for op in BoolOp::all() {
            let f = mgr.apply(op, ab, cd);
            check(&mgr, f, 4, |v| op.eval(v[0] && v[1], v[2] ^ v[3]));
        }
        assert!(mgr.validate().is_ok());
    }

    #[test]
    fn biconditional_expansion_identity() {
        // Fig. 1 semantics: f = (v⊕w)·f_{v≠w} + (v⊙w)·f_{v=w} for random f.
        let mut mgr = Bbdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let t0 = mgr.and(b, c);
        let f = mgr.xor(a, t0);
        let top = mgr.node(f.node()).level();
        let (fd, fe) = mgr.cofactors(f, top);
        let vw_neq = mgr.xor(a, b);
        let t1 = mgr.and(vw_neq, fd);
        let t2_pre = mgr.xnor(a, b);
        let t2 = mgr.and(t2_pre, fe);
        let rebuilt = mgr.or(t1, t2);
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn xor_chain_is_half_linear_size() {
        // BBDDs absorb one variable pair per node on parity: n-input XOR
        // takes n/2 nodes (a BDD needs n) — the headline expressive-power
        // advantage for XOR-rich logic.
        let n = 16;
        let mut mgr = Bbdd::new(n);
        let mut f = mgr.var(0);
        for i in 1..n {
            let v = mgr.var(i);
            f = mgr.xor(f, v);
        }
        assert_eq!(mgr.node_count(f), n / 2, "parity BBDD must have n/2 nodes");
        // Odd-width parity additionally keeps the dangling literal.
        let mut mgr = Bbdd::new(7);
        let mut g = mgr.var(0);
        for i in 1..7 {
            let v = mgr.var(i);
            g = mgr.xor(g, v);
        }
        assert_eq!(mgr.node_count(g), 4);
    }

    #[test]
    fn apply_is_canonical_across_build_orders() {
        let mut mgr = Bbdd::new(4);
        let vs: Vec<Edge> = (0..4).map(|i| mgr.var(i)).collect();
        // (a∧b) ∨ (c∧d), built two different ways.
        let ab = mgr.and(vs[0], vs[1]);
        let cd = mgr.and(vs[2], vs[3]);
        let f1 = mgr.or(ab, cd);
        let nab = mgr.nand(vs[0], vs[1]);
        let ncd = mgr.nand(vs[2], vs[3]);
        let f2 = mgr.nand(nab, ncd);
        assert_eq!(f1, f2, "canonicity: same function, same edge");
    }

    #[test]
    fn ite_matches_apply_composition() {
        let mut mgr = Bbdd::new(3);
        let (s, a, b) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let direct = mgr.ite(s, a, b);
        let t1 = mgr.and(s, a);
        let t2_pre = !s;
        let t2 = mgr.and(t2_pre, b);
        let composed = mgr.or(t1, t2);
        assert_eq!(direct, composed);
    }

    #[test]
    fn ite_terminal_cases() {
        let mut mgr = Bbdd::new(2);
        let (a, b) = (mgr.var(0), mgr.var(1));
        assert_eq!(mgr.ite(Edge::ONE, a, b), a);
        assert_eq!(mgr.ite(Edge::ZERO, a, b), b);
        assert_eq!(mgr.ite(a, b, b), b);
        assert_eq!(mgr.ite(a, Edge::ONE, Edge::ZERO), a);
        assert_eq!(mgr.ite(a, Edge::ZERO, Edge::ONE), !a);
        let and = mgr.and(a, b);
        assert_eq!(mgr.ite(a, b, Edge::ZERO), and);
        let or = mgr.or(a, b);
        assert_eq!(mgr.ite(a, Edge::ONE, b), or);
    }

    #[test]
    fn demorgan_via_complement_edges() {
        let mut mgr = Bbdd::new(2);
        let (a, b) = (mgr.var(0), mgr.var(1));
        let lhs = mgr.nand(a, b);
        let rhs_pre = (!a, !b);
        let rhs = mgr.or(rhs_pre.0, rhs_pre.1);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn cache_reuses_results() {
        let mut mgr = Bbdd::new(8);
        let vs: Vec<Edge> = (0..8).map(|i| mgr.var(i)).collect();
        let mut f = vs[0];
        for &v in &vs[1..] {
            f = mgr.xor(f, v);
        }
        let calls_before = mgr.stats().apply_calls;
        let mut g = vs[0];
        for &v in &vs[1..] {
            g = mgr.xor(g, v);
        }
        let second_pass = mgr.stats().apply_calls - calls_before;
        assert_eq!(f, g);
        // Rebuilt from cached subresults: far fewer recursive entries.
        assert!(second_pass < 60, "cache ineffective: {second_pass} calls");
    }
}
