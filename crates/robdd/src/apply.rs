//! Recursive Boolean operations between ROBDDs (Brace–Rudell–Bryant).
//!
//! The same strong canonical operand form as the BBDD package: operand
//! complement attributes and operand order are folded into the operator's
//! 4-bit truth table, maximizing computed-table reuse, then the operation
//! recurses over the Shannon expansion at the top variable.

use crate::edge::Edge;
use crate::manager::{Call, NodeSpace, Robdd};
use ddcore::boolop::{BoolOp, Unary};
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::optag;

const TAG_ITE: u32 = optag::ITE;

impl Robdd {
    /// Compute `f ⊗ g` for an arbitrary two-operand Boolean operator.
    pub fn apply(&mut self, op: BoolOp, f: Edge, g: Edge) -> Edge {
        self.try_apply(op, f, g, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::apply`] under a resource budget: the budget is polled at
    /// every computed-cache miss (i.e. once per node the operation may
    /// materialize). On `Err` the manager stays fully usable — tables are
    /// canonical, the cache holds only committed results, and any nodes
    /// built before the abort are reclaimed by the next GC.
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

    /// `f ⊙ g`.
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

    /// `f → g`.
    pub fn implies(&mut self, f: Edge, g: Edge) -> Edge {
        self.apply(BoolOp::IMPLIES, f, g)
    }

    /// If-then-else with the classic normalizations.
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Edge {
        self.try_ite(f, g, h, &mut OpBudget::unlimited())
            .expect("unlimited budget never aborts")
    }

    /// [`Robdd::ite`] under a resource budget; see [`Robdd::try_apply`]
    /// for the polling and abort-safety contract.
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

/// The Shannon-expansion apply over any [`NodeSpace`]: the sequential
/// manager and the parallel workers run this same recursion.
pub(crate) fn apply_rec<S: NodeSpace>(
    s: &mut S,
    mut op: BoolOp,
    mut f: Edge,
    mut g: Edge,
    budget: &mut OpBudget,
) -> Result<Edge, OpAbort> {
    s.count(Call::Apply);
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
    if op == BoolOp::FALSE {
        return Ok(Edge::ZERO.complement_if(out_c));
    }
    if op == BoolOp::FIRST {
        return Ok(f.complement_if(out_c));
    }
    if op == BoolOp::SECOND {
        return Ok(g.complement_if(out_c));
    }

    let (k1, k2, tag) = (f.bits() as u64, g.bits() as u64, op.table() as u32);
    if let Some(r) = s.cache_get(k1, k2, tag) {
        return Ok(r.complement_if(out_c));
    }
    // Abort-consistency: poll on the miss, *before* building anything.
    // The cache insert below runs strictly after a successful
    // make_node, so an abort can never leave the cache pointing at a
    // node that was never committed.
    budget.checkpoint()?;

    // Shannon expansion at the top variable (minimal order position).
    let (pf, pg) = (s.edge_pos(f), s.edge_pos(g));
    let var = if pf <= pg {
        s.decode(f.node()).var()
    } else {
        s.decode(g.node()).var()
    };
    let (f1, f0) = s.cofactors(f, var);
    let (g1, g0) = s.cofactors(g, var);
    let t = apply_rec(s, op, f1, g1, budget)?;
    let e = apply_rec(s, op, f0, g0, budget)?;
    let r = s.make_node(var, t, e);
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
    // Poll on the miss, before materializing (see apply_rec).
    budget.checkpoint()?;
    let mut best = s.edge_pos(f);
    for e in [g, h] {
        best = best.min(s.edge_pos(e));
    }
    let var = s.base().var_at_pos[best] as u16;
    let (f1, f0) = s.cofactors(f, var);
    let (g1, g0) = s.cofactors(g, var);
    let (h1, h0) = s.cofactors(h, var);
    let t = ite_rec(s, f1, g1, h1, budget)?;
    let e = ite_rec(s, f0, g0, h0, budget)?;
    let r = s.make_node(var, t, e);
    s.cache_insert(k1, k2, TAG_ITE, r);
    Ok(r.complement_if(out_c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(mgr: &Robdd, f: Edge, n: usize, reference: impl Fn(&[bool]) -> bool) {
        for m in 0..(1u32 << n) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(f, &a), reference(&a), "assignment {a:?}");
        }
    }

    #[test]
    fn all_sixteen_ops() {
        for op in BoolOp::all() {
            let mut mgr = Robdd::new(2);
            let (a, b) = (mgr.var(0), mgr.var(1));
            let f = mgr.apply(op, a, b);
            check(&mgr, f, 2, |v| op.eval(v[0], v[1]));
            assert!(mgr.validate().is_ok());
        }
    }

    #[test]
    fn composite_functions() {
        let mut mgr = Robdd::new(4);
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
    fn canonicity_across_build_paths() {
        let mut mgr = Robdd::new(4);
        let vs: Vec<Edge> = (0..4).map(|i| mgr.var(i)).collect();
        let ab = mgr.and(vs[0], vs[1]);
        let cd = mgr.and(vs[2], vs[3]);
        let f1 = mgr.or(ab, cd);
        let nab = mgr.nand(vs[0], vs[1]);
        let ncd = mgr.nand(vs[2], vs[3]);
        let f2 = mgr.nand(nab, ncd);
        assert_eq!(f1, f2);
    }

    #[test]
    fn ite_mux_semantics() {
        let mut mgr = Robdd::new(3);
        let (s, a, b) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let m = mgr.ite(s, a, b);
        check(&mgr, m, 3, |v| if v[0] { v[1] } else { v[2] });
    }

    #[test]
    fn xor_chain_is_linear() {
        let n = 16;
        let mut mgr = Robdd::new(n);
        let mut f = mgr.var(0);
        for i in 1..n {
            let v = mgr.var(i);
            f = mgr.xor(f, v);
        }
        // With complement edges, n-input parity takes n nodes (one per
        // variable) — twice the BBDD size.
        assert_eq!(mgr.node_count(f), n);
    }
}
