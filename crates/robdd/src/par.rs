//! [`ParRobdd`] — the multi-core front-end of the ROBDD baseline.
//!
//! The Shannon-expansion twin of `bbdd::ParBbdd`, sharing the same
//! three-phase protocol built on `ddcore::par` (see that module and the
//! BBDD `par` module for the full determinism argument):
//!
//! 1. **split** the recursion at the top k order positions (sequential),
//! 2. run the leaf subproblems **fork-join** over the frozen base manager:
//!    each task runs the package's own recursion (the `apply_rec`/
//!    `ite_rec`/`quant_rec`/`and_exists_rec` and `make_node` the
//!    sequential [`Robdd`] runs, generic over the crate's node-space
//!    trait) over the *overlay node space*, materializing result nodes in
//!    a canonical overlay (sharded unique table with base-consulting
//!    `peek`, append-only arena, lossy atomic computed cache),
//! 3. **commit** deterministically: import the leaf results through the
//!    ordinary `make_node` and resolve the recorded combine tree.
//!
//! Results — every returned edge and every node id in the wrapped
//! manager — are bit-identical regardless of the thread count.

use crate::apply::{apply_rec, ite_rec, unary};
use crate::edge::Edge;
use crate::manager::{Call, NodeSpace, Robdd, RobddStats};
use crate::node::{BddKey, Node};
use crate::quant::{and_exists_rec, quant_rec, QuantCtx};
use ddcore::boolop::BoolOp;
use ddcore::cantor::CantorHasher;
use ddcore::fxhash::{FxHashMap, FxHashSet};
use ddcore::govern::{OpAbort, OpBudget};
use ddcore::optag;
use ddcore::par::{
    fork_join, threads_from_env, try_fork_join_governed, AtomicCache, OverlayArena, ShardedTable,
};
pub use ddcore::par::{ParConfig, ParStats};
use ddcore::session::OverlayFrame;
use ddcore::table::TableKey;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sharded-overlay key: the per-variable [`BddKey`] plus the variable
/// itself (the base keeps one table per variable; the overlay is one key
/// space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct VarKey {
    var: u16,
    key: BddKey,
}

impl TableKey for VarKey {
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        h.hash3(
            u64::from(self.key.then_().bits()),
            u64::from(self.key.else_().bits()),
            u64::from(self.var),
        )
    }
}

/// A deduplicated leaf subproblem of the split phase.
#[derive(Debug, Clone, Copy)]
enum Task {
    Apply(BoolOp, Edge, Edge),
    Ite(Edge, Edge, Edge),
    Quant(Edge),
    AndExists(Edge, Edge),
}

/// How an inner node of the combine tree joins its children.
#[derive(Debug, Clone, Copy)]
enum Combine {
    /// `make_node(var, t, e)`.
    Node(u16),
    /// `apply(op, t, e)` — quantification's join.
    Op(BoolOp),
}

/// The combine tree recorded by the split phase (`t` = then-branch).
#[derive(Debug)]
enum Plan {
    Done(Edge),
    Leaf(usize),
    Join {
        how: Combine,
        t: Box<Plan>,
        e: Box<Plan>,
    },
}

/// The read-only worker context: frozen base + overlay storage.
struct PCtx<'a> {
    base: &'a Robdd,
    base_len: u32,
    table: &'a ShardedTable<VarKey>,
    arena: &'a OverlayArena,
    cache: &'a AtomicCache,
    quant: Option<&'a QuantCtx>,
}

impl PCtx<'_> {
    /// Run one leaf task through the package's own recursion, over this
    /// task's view of the overlay node space. Returns the result edge and
    /// the recursion entries it took. Workers stop only between tasks, so
    /// the recursion itself runs unbudgeted.
    fn run_task(&self, t: &Task) -> (Edge, u64) {
        let mut w = Worker {
            ctx: self,
            calls: 0,
        };
        let budget = &mut OpBudget::unlimited();
        let r = match *t {
            Task::Apply(op, f, g) => apply_rec(&mut w, op, f, g, budget),
            Task::Ite(f, g, h) => ite_rec(&mut w, f, g, h, budget),
            Task::Quant(f) => {
                let q = self.quant.expect("quant task without quant context");
                quant_rec(&mut w, f, q, budget)
            }
            Task::AndExists(f, g) => {
                let q = self.quant.expect("and-exists task without quant context");
                and_exists_rec(&mut w, f, g, q, budget)
            }
        };
        (r.expect("unlimited budget never aborts"), w.calls)
    }
}

/// One task's node space: the frozen base plus the shared overlay.
struct Worker<'c, 'a> {
    ctx: &'c PCtx<'a>,
    /// Recursion entries of this task (all kinds).
    calls: u64,
}

impl NodeSpace for Worker<'_, '_> {
    #[inline]
    fn base(&self) -> &Robdd {
        self.ctx.base
    }

    #[inline]
    fn decode(&self, id: u32) -> Node {
        let c = self.ctx;
        if id < c.base_len {
            *c.base.node(id)
        } else {
            let (a, b, meta) = c.arena.get(id - c.base_len);
            Node::from_words(a, b, meta)
        }
    }

    /// Find-or-create in the canonical frozen-base + overlay space (base
    /// `peek` first, then one shard lock).
    fn find_or_insert(&mut self, var: u16, key: BddKey) -> u32 {
        let c = self.ctx;
        if let Some(id) = c.base.subtables[var as usize].peek(&key) {
            return id;
        }
        c.table.get_or_insert_with(VarKey { var, key }, || {
            let (a, b, meta) = Node::new(var, key.then_(), key.else_()).words();
            c.base_len + c.arena.alloc(a, b, meta)
        })
    }

    #[inline]
    fn cache_get(&mut self, k1: u64, k2: u64, tag: u32) -> Option<Edge> {
        self.ctx.cache.get(k1, k2, tag).map(Edge::from_bits)
    }

    #[inline]
    fn cache_insert(&mut self, k1: u64, k2: u64, tag: u32, r: Edge) {
        self.ctx.cache.insert(k1, k2, tag, r.bits());
    }

    #[inline]
    fn count(&mut self, _call: Call) {
        self.calls += 1;
    }
}

/// A multi-core ROBDD manager: the same canonical diagrams and the same
/// results as [`Robdd`], with `apply`/`ite`/`exists`/`forall`/`and_exists`
/// executed across a fork-join worker pool when the operands are large
/// enough to pay for it. Results are bit-identical regardless of thread
/// count (see the module docs).
///
/// ```
/// use robdd::{ParRobdd, BoolOp};
/// let mut mgr = ParRobdd::new(4, 2);
/// let (a, b) = (mgr.var(0), mgr.var(1));
/// let f = mgr.apply(BoolOp::XOR, a, b);
/// assert!(mgr.eval(f, &[true, false, false, false]));
/// ```
#[derive(Debug)]
pub struct ParRobdd {
    inner: Robdd,
    cfg: ParConfig,
    /// The overlay scratch bundle (sharded table, append-only arena,
    /// atomic cache, GC-generation sync) — see
    /// [`ddcore::session::OverlayFrame`] for the shared lifecycle.
    frame: OverlayFrame<VarKey>,
    stats: ParStats,
    probe: FxHashSet<u32>,
}

impl ParRobdd {
    /// Create a manager for `num_vars` variables running on up to
    /// `threads` worker threads.
    ///
    /// # Panics
    /// Panics if `num_vars` is 0 or too large for 16-bit indices.
    #[must_use]
    pub fn new(num_vars: usize, threads: usize) -> Self {
        Self::with_config(
            num_vars,
            ParConfig {
                threads: threads.max(1),
                ..ParConfig::default()
            },
        )
    }

    /// Create a manager reading the thread count from `BBDD_THREADS`.
    ///
    /// # Panics
    /// Panics if `num_vars` is 0 or too large for 16-bit indices.
    #[must_use]
    pub fn from_env(num_vars: usize, default_threads: usize) -> Self {
        Self::new(num_vars, threads_from_env(default_threads))
    }

    /// Create a manager with explicit [`ParConfig`].
    ///
    /// # Panics
    /// Panics if `num_vars` is 0 or too large for 16-bit indices.
    #[must_use]
    pub fn with_config(num_vars: usize, cfg: ParConfig) -> Self {
        ParRobdd {
            inner: Robdd::new(num_vars),
            frame: OverlayFrame::new(cfg.shards, 64, cfg.cache_ways),
            stats: ParStats::default(),
            probe: FxHashSet::default(),
            cfg,
        }
    }

    /// A private copy for the session layer: the sequential manager's
    /// node store is forked, the overlay frame starts fresh (it is
    /// per-op scratch, recycled at every parallel phase anyway).
    pub(crate) fn fork_state(&self) -> Self {
        ParRobdd {
            inner: self.inner.fork_state(),
            frame: OverlayFrame::new(self.cfg.shards, 64, self.cfg.cache_ways),
            stats: ParStats::default(),
            probe: FxHashSet::default(),
            cfg: self.cfg,
        }
    }

    /// Worker threads the manager may use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Change the worker thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads.max(1);
    }

    /// The wrapped sequential manager (read access).
    #[must_use]
    pub fn inner(&self) -> &Robdd {
        &self.inner
    }

    /// The wrapped sequential manager (mutable access).
    pub fn inner_mut(&mut self) -> &mut Robdd {
        &mut self.inner
    }

    /// Unwrap into the sequential manager.
    #[must_use]
    pub fn into_inner(self) -> Robdd {
        self.inner
    }

    /// Parallel-execution counters.
    #[must_use]
    pub fn par_stats(&self) -> ParStats {
        let mut s = self.stats.clone();
        s.cache = self.frame.cache.stats();
        s.shard_contention = self
            .frame
            .table
            .shard_stats()
            .iter()
            .map(|x| x.contended)
            .sum();
        s
    }

    /// Counters of the wrapped sequential manager.
    #[must_use]
    pub fn stats(&self) -> RobddStats {
        self.inner.stats()
    }

    // ── thin delegates ────────────────────────────────────────────────

    /// Number of variables managed.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    /// Constant true.
    #[must_use]
    pub fn one(&self) -> Edge {
        self.inner.one()
    }

    /// Constant false.
    #[must_use]
    pub fn zero(&self) -> Edge {
        self.inner.zero()
    }

    /// The positive literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn var(&mut self, var: usize) -> Edge {
        self.inner.var(var)
    }

    /// The negative literal of `var`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn nvar(&mut self, var: usize) -> Edge {
        self.inner.nvar(var)
    }

    /// Evaluate `f` under an assignment.
    #[must_use]
    pub fn eval(&self, f: Edge, assignment: &[bool]) -> bool {
        self.inner.eval(f, assignment)
    }

    /// Nodes reachable from `f`.
    #[must_use]
    pub fn node_count(&self, f: Edge) -> usize {
        self.inner.node_count(f)
    }

    /// Live (stored) nodes.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.inner.live_nodes()
    }

    /// Exact satisfying-assignment count.
    ///
    /// # Panics
    /// Panics if the manager has more than 127 variables.
    #[must_use]
    pub fn sat_count(&self, f: Edge) -> u128 {
        self.inner.sat_count(f)
    }

    /// One satisfying assignment, or `None` for constant false.
    #[must_use]
    pub fn any_sat(&self, f: Edge) -> Option<Vec<bool>> {
        self.inner.any_sat(f)
    }

    /// Garbage-collect, tracing the handle registry, and invalidate the
    /// concurrent cache; returns nodes reclaimed. Everything a live
    /// [`crate::ParRobddFn`] handle denotes survives.
    pub fn collect(&mut self) -> usize {
        let freed = self.inner.gc();
        self.frame.invalidate(self.inner.gc_generation());
        freed
    }

    /// Arm the automatic GC latch (see [`Robdd::set_gc_threshold`]).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.inner.set_gc_threshold(threshold);
    }

    // The owned-handle front-end lives in `ddcore::api` (see `crate::api`):
    // the generic layer registers an operation's result *before* running
    // `RawManager::after_op` — the latched merge GC plus the cache-epoch
    // sync below (stale parallel-cache entries would otherwise resurrect
    // freed node ids).

    /// Invalidate the concurrent cache if the inner manager collected
    /// since we last looked (node ids may have been recycled). Checked
    /// before every parallel phase and at every operation boundary, so
    /// even collections triggered through `inner_mut()` cannot leave
    /// stale id-keyed entries behind.
    pub(crate) fn sync_cache_epoch(&mut self) {
        self.frame.sync_generation(self.inner.gc_generation());
    }

    // ── parallel operations ───────────────────────────────────────────

    /// `f ⊗ g` for an arbitrary binary operator, parallel above the
    /// cutoff.
    pub fn apply(&mut self, op: BoolOp, f: Edge, g: Edge) -> Edge {
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.apply(op, f, g);
        }
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_apply(op, f, g, depth, &mut tasks, &mut dedup);
        self.execute(&plan, &tasks, None)
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

    /// If-then-else, parallel above the cutoff.
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Edge {
        if !self.worth_splitting(&[f, g, h]) {
            self.stats.ops_sequential += 1;
            return self.inner.ite(f, g, h);
        }
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_ite(f, g, h, depth, &mut tasks, &mut dedup);
        self.execute(&plan, &tasks, None)
    }

    /// Existential cube quantification `∃ vars . f`.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn exists(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.quantify(f, vars, BoolOp::OR, optag::EXISTS)
    }

    /// Universal cube quantification `∀ vars . f`.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn forall(&mut self, f: Edge, vars: &[usize]) -> Edge {
        self.quantify(f, vars, BoolOp::AND, optag::FORALL)
    }

    /// Fused relational product `∃ vars . (f ∧ g)`.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn and_exists(&mut self, f: Edge, g: Edge, vars: &[usize]) -> Edge {
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.and_exists(f, g, vars);
        }
        let Some(q) = self.inner.quant_ctx(vars, BoolOp::OR, optag::EXISTS) else {
            return self.apply(BoolOp::AND, f, g);
        };
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_and_exists(f, g, &q, depth, &mut tasks, &mut dedup);
        self.execute(&plan, &tasks, Some(&q))
    }

    // ── governed operations ───────────────────────────────────────────
    //
    // Mirror of `bbdd::ParBbdd`'s governed suite: an unlimited budget
    // short-circuits to the ordinary path (the infallible ops pay
    // nothing), a limited one routes the sequential fallback through the
    // inner manager's governed recursion and the parallel phase through
    // the cooperative stop predicate (workers consult the budget's
    // [`StopView`](ddcore::govern::StopView) between tasks); the commit
    // charges every imported node. Aborts are structurally safe: workers
    // only write the overlay (recycled by the next op) and mid-commit
    // orphans are unreferenced, reclaimed by the next GC.

    /// [`ParRobdd::apply`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason; the manager stays fully usable.
    pub fn try_apply(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !budget.stop_view().is_limited() {
            return Ok(self.apply(op, f, g));
        }
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_apply(op, f, g, budget);
        }
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_apply(op, f, g, depth, &mut tasks, &mut dedup);
        self.try_execute(&plan, &tasks, None, budget)
    }

    /// [`ParRobdd::ite`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason; the manager stays fully usable.
    pub fn try_ite(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !budget.stop_view().is_limited() {
            return Ok(self.ite(f, g, h));
        }
        if !self.worth_splitting(&[f, g, h]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_ite(f, g, h, budget);
        }
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_ite(f, g, h, depth, &mut tasks, &mut dedup);
        self.try_execute(&plan, &tasks, None, budget)
    }

    /// [`ParRobdd::exists`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason; the manager stays fully usable.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn try_exists(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_quantify(f, vars, BoolOp::OR, optag::EXISTS, budget)
    }

    /// [`ParRobdd::forall`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason; the manager stays fully usable.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn try_forall(
        &mut self,
        f: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.try_quantify(f, vars, BoolOp::AND, optag::FORALL, budget)
    }

    /// [`ParRobdd::and_exists`] under a resource budget.
    ///
    /// # Errors
    /// The budget's abort reason; the manager stays fully usable.
    ///
    /// # Panics
    /// Panics if any variable index is out of range.
    pub fn try_and_exists(
        &mut self,
        f: Edge,
        g: Edge,
        vars: &[usize],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !budget.stop_view().is_limited() {
            return Ok(self.and_exists(f, g, vars));
        }
        if !self.worth_splitting(&[f, g]) {
            self.stats.ops_sequential += 1;
            return self.inner.try_and_exists(f, g, vars, budget);
        }
        let Some(q) = self.inner.quant_ctx(vars, BoolOp::OR, optag::EXISTS) else {
            return self.try_apply(BoolOp::AND, f, g, budget);
        };
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_and_exists(f, g, &q, depth, &mut tasks, &mut dedup);
        self.try_execute(&plan, &tasks, Some(&q), budget)
    }

    /// [`Robdd::try_compose`] on the wrapped sequential manager (no
    /// parallel phase).
    ///
    /// # Errors
    /// The budget's abort reason.
    pub fn try_compose(
        &mut self,
        f: Edge,
        var: usize,
        g: Edge,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.inner.try_compose(f, var, g, budget)
    }

    /// [`Robdd::sat_count_checked`] on the wrapped sequential manager.
    #[must_use]
    pub fn sat_count_checked(&self, f: Edge) -> Option<u128> {
        self.inner.sat_count_checked(f)
    }

    /// [`Robdd::try_sat_count`] on the wrapped sequential manager.
    ///
    /// # Errors
    /// The budget's abort reason.
    ///
    /// # Panics
    /// Panics if the manager has more than 127 variables.
    pub fn try_sat_count(&self, f: Edge, budget: &mut OpBudget) -> Result<u128, OpAbort> {
        self.inner.try_sat_count(f, budget)
    }

    fn try_quantify(
        &mut self,
        f: Edge,
        vars: &[usize],
        combine: BoolOp,
        tag: u32,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        if !budget.stop_view().is_limited() {
            return Ok(self.quantify(f, vars, combine, tag));
        }
        if !self.worth_splitting(&[f]) {
            self.stats.ops_sequential += 1;
            return if tag == optag::EXISTS {
                self.inner.try_exists(f, vars, budget)
            } else {
                self.inner.try_forall(f, vars, budget)
            };
        }
        let Some(q) = self.inner.quant_ctx(vars, combine, tag) else {
            return Ok(f);
        };
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_quant(f, &q, depth, &mut tasks, &mut dedup);
        self.try_execute(&plan, &tasks, Some(&q), budget)
    }

    fn quantify(&mut self, f: Edge, vars: &[usize], combine: BoolOp, tag: u32) -> Edge {
        if !self.worth_splitting(&[f]) {
            self.stats.ops_sequential += 1;
            return if tag == optag::EXISTS {
                self.inner.exists(f, vars)
            } else {
                self.inner.forall(f, vars)
            };
        }
        let Some(q) = self.inner.quant_ctx(vars, combine, tag) else {
            return f;
        };
        let depth = self.split_depth();
        let mut tasks = Vec::new();
        let mut dedup = FxHashMap::default();
        let plan = self.split_quant(f, &q, depth, &mut tasks, &mut dedup);
        self.execute(&plan, &tasks, Some(&q))
    }

    // ── pipeline internals ────────────────────────────────────────────

    /// The deterministic go/no-go: combined operand size against the
    /// cutoff (bounded walk, thread-count independent).
    fn worth_splitting(&mut self, roots: &[Edge]) -> bool {
        if self.cfg.cutoff == 0 {
            return true;
        }
        if self.inner.live_nodes() < self.cfg.cutoff {
            return false;
        }
        let probe = &mut self.probe;
        probe.clear();
        let mut stack: Vec<u32> = roots
            .iter()
            .filter(|e| !e.is_constant())
            .map(|e| e.node())
            .collect();
        while let Some(id) = stack.pop() {
            if !probe.insert(id) {
                continue;
            }
            if probe.len() >= self.cfg.cutoff {
                return true;
            }
            let n = self.inner.node(id);
            for child in [n.then_(), n.else_()] {
                if !child.is_constant() {
                    stack.push(child.node());
                }
            }
        }
        false
    }

    fn split_depth(&self) -> u16 {
        match self.cfg.split_depth {
            Some(d) => d.max(1),
            None => {
                let t = self.cfg.threads.max(1).next_power_of_two();
                (t.trailing_zeros() as u16 + 3).min(12)
            }
        }
    }

    fn intern_task(
        tasks: &mut Vec<Task>,
        dedup: &mut FxHashMap<(u32, u64, u64), usize>,
        key: (u32, u64, u64),
        task: Task,
    ) -> Plan {
        let idx = *dedup.entry(key).or_insert_with(|| {
            tasks.push(task);
            tasks.len() - 1
        });
        Plan::Leaf(idx)
    }

    fn split_apply(
        &mut self,
        op: BoolOp,
        f: Edge,
        g: Edge,
        depth: u16,
        tasks: &mut Vec<Task>,
        dedup: &mut FxHashMap<(u32, u64, u64), usize>,
    ) -> Plan {
        if f == g {
            return Plan::Done(unary(op.on_equal_operands(), f));
        }
        if f == !g {
            return Plan::Done(unary(op.on_complement_operands(), f));
        }
        if f.is_constant() {
            return Plan::Done(unary(op.on_first_const(f == Edge::ONE), g));
        }
        if g.is_constant() {
            return Plan::Done(unary(op.on_second_const(g == Edge::ONE), f));
        }
        if depth == 0 {
            let key = (
                u32::from(op.table()),
                u64::from(f.bits()),
                u64::from(g.bits()),
            );
            return Self::intern_task(tasks, dedup, key, Task::Apply(op, f, g));
        }
        let (pf, pg) = (self.inner.edge_pos(f), self.inner.edge_pos(g));
        let var = if pf <= pg {
            self.inner.node(f.node()).var()
        } else {
            self.inner.node(g.node()).var()
        };
        let (f1, f0) = self.inner.cofactors(f, var);
        let (g1, g0) = self.inner.cofactors(g, var);
        let t = self.split_apply(op, f1, g1, depth - 1, tasks, dedup);
        let e = self.split_apply(op, f0, g0, depth - 1, tasks, dedup);
        Plan::Join {
            how: Combine::Node(var),
            t: Box::new(t),
            e: Box::new(e),
        }
    }

    fn split_ite(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        depth: u16,
        tasks: &mut Vec<Task>,
        dedup: &mut FxHashMap<(u32, u64, u64), usize>,
    ) -> Plan {
        if f == Edge::ONE {
            return Plan::Done(g);
        }
        if f == Edge::ZERO {
            return Plan::Done(h);
        }
        if g == h {
            return Plan::Done(g);
        }
        if g == Edge::ONE && h == Edge::ZERO {
            return Plan::Done(f);
        }
        if g == Edge::ZERO && h == Edge::ONE {
            return Plan::Done(!f);
        }
        if f == g || g == Edge::ONE {
            return self.split_apply(BoolOp::OR, f, h, depth, tasks, dedup);
        }
        if f == !g || g == Edge::ZERO {
            return self.split_apply(BoolOp::NOT_AND, f, h, depth, tasks, dedup);
        }
        if f == h || h == Edge::ZERO {
            return self.split_apply(BoolOp::AND, f, g, depth, tasks, dedup);
        }
        if f == !h || h == Edge::ONE {
            return self.split_apply(BoolOp::IMPLIES, f, g, depth, tasks, dedup);
        }
        if depth == 0 {
            let key = (
                optag::ITE,
                u64::from(f.bits()),
                (u64::from(g.bits()) << 32) | u64::from(h.bits()),
            );
            return Self::intern_task(tasks, dedup, key, Task::Ite(f, g, h));
        }
        let mut best = self.inner.edge_pos(f);
        for e in [g, h] {
            best = best.min(self.inner.edge_pos(e));
        }
        let var = self.inner.var_at_pos[best] as u16;
        let (f1, f0) = self.inner.cofactors(f, var);
        let (g1, g0) = self.inner.cofactors(g, var);
        let (h1, h0) = self.inner.cofactors(h, var);
        let t = self.split_ite(f1, g1, h1, depth - 1, tasks, dedup);
        let e = self.split_ite(f0, g0, h0, depth - 1, tasks, dedup);
        Plan::Join {
            how: Combine::Node(var),
            t: Box::new(t),
            e: Box::new(e),
        }
    }

    fn split_quant(
        &mut self,
        f: Edge,
        q: &QuantCtx,
        depth: u16,
        tasks: &mut Vec<Task>,
        dedup: &mut FxHashMap<(u32, u64, u64), usize>,
    ) -> Plan {
        if f.is_constant() || self.inner.edge_pos(f) > q.max_pos {
            return Plan::Done(f);
        }
        if depth == 0 {
            let key = (q.tag, u64::from(f.bits()), q.cube_bits);
            return Self::intern_task(tasks, dedup, key, Task::Quant(f));
        }
        let var = self.inner.node(f.node()).var();
        let (f1, f0) = self.inner.cofactors(f, var);
        let t = self.split_quant(f1, q, depth - 1, tasks, dedup);
        let e = self.split_quant(f0, q, depth - 1, tasks, dedup);
        let how = if q.in_cube[var as usize] {
            Combine::Op(q.combine)
        } else {
            Combine::Node(var)
        };
        Plan::Join {
            how,
            t: Box::new(t),
            e: Box::new(e),
        }
    }

    fn split_and_exists(
        &mut self,
        f: Edge,
        g: Edge,
        q: &QuantCtx,
        depth: u16,
        tasks: &mut Vec<Task>,
        dedup: &mut FxHashMap<(u32, u64, u64), usize>,
    ) -> Plan {
        if f == Edge::ZERO || g == Edge::ZERO || f == !g {
            return Plan::Done(Edge::ZERO);
        }
        if f == Edge::ONE {
            return self.split_quant(g, q, depth, tasks, dedup);
        }
        if g == Edge::ONE || f == g {
            return self.split_quant(f, q, depth, tasks, dedup);
        }
        let (f, g) = if f.bits() <= g.bits() { (f, g) } else { (g, f) };
        let (pf, pg) = (self.inner.edge_pos(f), self.inner.edge_pos(g));
        let pos = pf.min(pg);
        if pos > q.max_pos {
            return self.split_apply(BoolOp::AND, f, g, depth, tasks, dedup);
        }
        if depth == 0 {
            let key = (
                optag::AND_EXISTS,
                u64::from(f.bits()),
                (u64::from(g.bits()) << 32) ^ q.cube_bits,
            );
            return Self::intern_task(tasks, dedup, key, Task::AndExists(f, g));
        }
        let var = self.inner.var_at_pos[pos] as u16;
        let (f1, f0) = self.inner.cofactors(f, var);
        let (g1, g0) = self.inner.cofactors(g, var);
        let t = self.split_and_exists(f1, g1, q, depth - 1, tasks, dedup);
        let e = self.split_and_exists(f0, g0, q, depth - 1, tasks, dedup);
        let how = if q.in_cube[var as usize] {
            Combine::Op(BoolOp::OR)
        } else {
            Combine::Node(var)
        };
        Plan::Join {
            how,
            t: Box::new(t),
            e: Box::new(e),
        }
    }

    /// Phases 2 + 3: fork-join the leaf tasks over the frozen base, then
    /// commit deterministically (import + combine).
    fn execute(&mut self, plan: &Plan, tasks: &[Task], quant: Option<&QuantCtx>) -> Edge {
        // Catch any inner-manager collection this wrapper did not perform
        // itself before trusting id-keyed cache entries.
        self.sync_cache_epoch();
        if tasks.is_empty() {
            return self.resolve(plan, &[]);
        }
        self.stats.ops_parallel += 1;
        self.frame.recycle();
        self.frame.cache.bump_epoch();
        let base_len = u32::try_from(self.inner.nodes.len()).expect("arena fits u32");
        let results: Vec<AtomicU64> = tasks.iter().map(|_| AtomicU64::new(0)).collect();
        let recursions = AtomicU64::new(0);
        let fj = {
            let mut phase = ddcore::obs::span(ddcore::obs::Op::ParPhase);
            phase.set_arg("tasks", tasks.len() as u64);
            let ctx = PCtx {
                base: &self.inner,
                base_len,
                table: &self.frame.table,
                arena: &self.frame.arena,
                cache: &self.frame.cache,
                quant,
            };
            fork_join(self.cfg.threads, tasks.len(), |i| {
                let (r, calls) = ctx.run_task(&tasks[i]);
                results[i].store(u64::from(r.bits()), Ordering::Release);
                recursions.fetch_add(calls, Ordering::Relaxed);
            })
        };
        self.stats.tasks_executed += tasks.len() as u64;
        self.stats.tasks_stolen += fj.stolen;
        if self.stats.tasks_by_worker.len() < fj.executed.len() {
            self.stats.tasks_by_worker.resize(fj.executed.len(), 0);
        }
        for (slot, n) in self.stats.tasks_by_worker.iter_mut().zip(&fj.executed) {
            *slot += n;
        }
        self.stats.par_recursions += recursions.load(Ordering::Relaxed);
        self.stats.overlay_nodes += u64::from(self.frame.arena.len());
        self.stats.last_shard_occupancy = self
            .frame
            .table
            .shard_stats()
            .iter()
            .map(|s| s.len)
            .collect();
        let mut commit = ddcore::obs::span(ddcore::obs::Op::ParCommit);
        let mut memo: FxHashMap<u32, Edge> = FxHashMap::default();
        let leaf_edges: Vec<Edge> = results
            .iter()
            .map(|slot| {
                let e = Edge::from_bits(slot.load(Ordering::Acquire) as u32);
                Self::import(&mut self.inner, &self.frame.arena, base_len, &mut memo, e)
            })
            .collect();
        self.stats.nodes_imported += memo.len() as u64;
        commit.set_arg("imported", memo.len() as u64);
        self.resolve(plan, &leaf_edges)
    }

    /// Commit one overlay edge into the base manager (memoized depth-first
    /// rebuild through the canonicalizing `make_node`).
    fn import(
        inner: &mut Robdd,
        arena: &OverlayArena,
        base_len: u32,
        memo: &mut FxHashMap<u32, Edge>,
        e: Edge,
    ) -> Edge {
        if e.is_constant() || e.node() < base_len {
            return e;
        }
        let id = e.node();
        if let Some(&r) = memo.get(&id) {
            return r.complement_if(e.is_complemented());
        }
        let (a, b, meta) = arena.get(id - base_len);
        let then_ = Self::import(inner, arena, base_len, memo, Edge::from_bits(a));
        let else_ = Self::import(inner, arena, base_len, memo, Edge::from_bits(b));
        let r = inner.make_node(meta as u16, then_, else_);
        debug_assert!(
            !r.is_complemented(),
            "regular overlay nodes import to regular edges"
        );
        memo.insert(id, r);
        r.complement_if(e.is_complemented())
    }

    /// Resolve the combine tree bottom-up (then-branch first, mirroring
    /// the sequential recursion's evaluation order).
    fn resolve(&mut self, plan: &Plan, leaf_edges: &[Edge]) -> Edge {
        match plan {
            Plan::Done(e) => *e,
            Plan::Leaf(i) => leaf_edges[*i],
            Plan::Join { how, t, e } => {
                let tt = self.resolve(t, leaf_edges);
                let ee = self.resolve(e, leaf_edges);
                match how {
                    Combine::Node(var) => self.inner.make_node(*var, tt, ee),
                    Combine::Op(op) => self.apply(*op, tt, ee),
                }
            }
        }
    }

    /// Governed phases 2 + 3 — [`ParRobdd::execute`] under an
    /// [`OpBudget`]. See `bbdd::ParBbdd::try_execute` for the abort-safety
    /// argument: workers only write the overlay, the commit charges every
    /// imported node per leaf, and mid-commit orphans are unreferenced.
    fn try_execute(
        &mut self,
        plan: &Plan,
        tasks: &[Task],
        quant: Option<&QuantCtx>,
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        self.sync_cache_epoch();
        let view = budget.stop_view();
        if let Some(reason) = view.should_stop(0) {
            return Err(reason);
        }
        if tasks.is_empty() {
            return self.try_resolve(plan, &[], budget);
        }
        self.stats.ops_parallel += 1;
        self.frame.recycle();
        self.frame.cache.bump_epoch();
        let base_len = u32::try_from(self.inner.nodes.len()).expect("arena fits u32");
        let results: Vec<AtomicU64> = tasks.iter().map(|_| AtomicU64::new(0)).collect();
        let recursions = AtomicU64::new(0);
        let (fj, stopped) = {
            let mut phase = ddcore::obs::span(ddcore::obs::Op::ParPhase);
            phase.set_arg("tasks", tasks.len() as u64);
            let ctx = PCtx {
                base: &self.inner,
                base_len,
                table: &self.frame.table,
                arena: &self.frame.arena,
                cache: &self.frame.cache,
                quant,
            };
            let arena = &self.frame.arena;
            match try_fork_join_governed(
                self.cfg.threads,
                tasks.len(),
                || view.should_stop(u64::from(arena.len())).is_some(),
                |i| {
                    let (r, calls) = ctx.run_task(&tasks[i]);
                    results[i].store(u64::from(r.bits()), Ordering::Release);
                    recursions.fetch_add(calls, Ordering::Relaxed);
                },
            ) {
                Ok(x) => x,
                Err(p) => panic!("{p}"),
            }
        };
        self.stats.tasks_executed += fj.executed.iter().sum::<u64>();
        self.stats.tasks_stolen += fj.stolen;
        if self.stats.tasks_by_worker.len() < fj.executed.len() {
            self.stats.tasks_by_worker.resize(fj.executed.len(), 0);
        }
        for (slot, n) in self.stats.tasks_by_worker.iter_mut().zip(&fj.executed) {
            *slot += n;
        }
        self.stats.par_recursions += recursions.load(Ordering::Relaxed);
        self.stats.overlay_nodes += u64::from(self.frame.arena.len());
        self.stats.last_shard_occupancy = self
            .frame
            .table
            .shard_stats()
            .iter()
            .map(|s| s.len)
            .collect();
        if stopped {
            // Unclaimed result slots hold garbage; nothing reads them.
            return Err(view
                .should_stop(u64::from(self.frame.arena.len()))
                .unwrap_or(OpAbort::Cancelled));
        }
        let mut commit = ddcore::obs::span(ddcore::obs::Op::ParCommit);
        let mut memo: FxHashMap<u32, Edge> = FxHashMap::default();
        let mut leaf_edges: Vec<Edge> = Vec::with_capacity(results.len());
        let mut abort: Option<OpAbort> = None;
        for slot in &results {
            let e = Edge::from_bits(slot.load(Ordering::Acquire) as u32);
            let before = memo.len();
            leaf_edges.push(Self::import(
                &mut self.inner,
                &self.frame.arena,
                base_len,
                &mut memo,
                e,
            ));
            if let Err(reason) = budget.charge((memo.len() - before) as u64) {
                abort = Some(reason);
                break;
            }
        }
        self.stats.nodes_imported += memo.len() as u64;
        if let Some(reason) = abort {
            return Err(reason);
        }
        commit.set_arg("imported", memo.len() as u64);
        self.try_resolve(plan, &leaf_edges, budget)
    }

    /// Governed combine-tree resolution: structural joins poll the budget
    /// before each `make_node`, operator joins recurse through the
    /// governed apply.
    fn try_resolve(
        &mut self,
        plan: &Plan,
        leaf_edges: &[Edge],
        budget: &mut OpBudget,
    ) -> Result<Edge, OpAbort> {
        match plan {
            Plan::Done(e) => Ok(*e),
            Plan::Leaf(i) => Ok(leaf_edges[*i]),
            Plan::Join { how, t, e } => {
                let tt = self.try_resolve(t, leaf_edges, budget)?;
                let ee = self.try_resolve(e, leaf_edges, budget)?;
                match how {
                    Combine::Node(var) => {
                        budget.checkpoint()?;
                        Ok(self.inner.make_node(*var, tt, ee))
                    }
                    Combine::Op(op) => self.try_apply(*op, tt, ee, budget),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forced() -> ParConfig {
        ParConfig {
            threads: 4,
            cutoff: 0,
            split_depth: Some(3),
            cache_ways: 1 << 10,
            shards: 8,
        }
    }

    fn build_mixed(
        n: usize,
        seed: u64,
        apply: &mut impl FnMut(BoolOp, Edge, Edge) -> Edge,
        vars: &[Edge],
    ) -> Edge {
        let ops = [
            BoolOp::XOR,
            BoolOp::AND,
            BoolOp::OR,
            BoolOp::XNOR,
            BoolOp::NAND,
        ];
        let mut state = seed | 1;
        let mut f = vars[0];
        for _ in 0..3 * n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let op = ops[(state >> 33) as usize % ops.len()];
            let v = vars[(state >> 18) as usize % n];
            f = apply(op, f, v);
        }
        f
    }

    #[test]
    fn parallel_ops_match_sequential_and_are_thread_count_invariant() {
        let n = 10;
        for seed in 0..4u64 {
            let mut reference: Option<(Edge, Edge, Edge, Edge, Edge)> = None;
            let mut seq = Robdd::new(n);
            let vs: Vec<Edge> = (0..n).map(|v| seq.var(v)).collect();
            let fs = build_mixed(n, seed, &mut |op, a, b| seq.apply(op, a, b), &vs);
            let gs = build_mixed(n, seed + 77, &mut |op, a, b| seq.apply(op, a, b), &vs);
            let seq_apply = seq.apply(BoolOp::AND, fs, gs);
            let seq_ite = seq.ite(fs, gs, seq_apply);
            let seq_ex = seq.exists(fs, &[1, 3, 4]);
            let seq_fa = seq.forall(fs, &[0, 2]);
            let seq_ae = seq.and_exists(fs, gs, &[2, 5, 6]);

            for threads in [1usize, 2, 4, 8] {
                let mut par = ParRobdd::with_config(
                    n,
                    ParConfig {
                        threads,
                        ..forced()
                    },
                );
                let vp: Vec<Edge> = (0..n).map(|v| par.var(v)).collect();
                let fp = build_mixed(n, seed, &mut |op, a, b| par.apply(op, a, b), &vp);
                let gp = build_mixed(n, seed + 77, &mut |op, a, b| par.apply(op, a, b), &vp);
                let p_apply = par.apply(BoolOp::AND, fp, gp);
                let p_ite = par.ite(fp, gp, p_apply);
                let p_ex = par.exists(fp, &[1, 3, 4]);
                let p_fa = par.forall(fp, &[0, 2]);
                let p_ae = par.and_exists(fp, gp, &[2, 5, 6]);
                let got = (p_apply, p_ite, p_ex, p_fa, p_ae);
                match reference {
                    None => reference = Some(got),
                    Some(expect) => assert_eq!(
                        got, expect,
                        "seed {seed}: thread count {threads} changed a root"
                    ),
                }
                par.inner().validate().unwrap();
                for (p, s, name) in [
                    (p_apply, seq_apply, "apply"),
                    (p_ite, seq_ite, "ite"),
                    (p_ex, seq_ex, "exists"),
                    (p_fa, seq_fa, "forall"),
                    (p_ae, seq_ae, "and_exists"),
                ] {
                    assert_eq!(
                        par.node_count(p),
                        seq.node_count(s),
                        "seed {seed} {name}: canonical sizes differ"
                    );
                    for m in 0..(1u32 << n) {
                        let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
                        assert_eq!(
                            par.eval(p, &a),
                            seq.eval(s, &a),
                            "seed {seed} {name} assignment {a:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sequential_fallback_below_cutoff() {
        let mut par = ParRobdd::new(6, 4);
        let (a, b) = (par.var(0), par.var(1));
        let f = par.apply(BoolOp::AND, a, b);
        assert!(!f.is_constant());
        let st = par.par_stats();
        assert_eq!(st.ops_parallel, 0);
        assert!(st.ops_sequential > 0);
    }

    #[test]
    fn collect_keeps_roots_and_recycles() {
        let mut par = ParRobdd::with_config(8, forced());
        let vs: Vec<Edge> = (0..8).map(|v| par.var(v)).collect();
        let f = build_mixed(8, 5, &mut |op, a, b| par.apply(op, a, b), &vs);
        let tf: Vec<bool> = (0..256u32)
            .map(|m| {
                let a: Vec<bool> = (0..8).map(|i| (m >> i) & 1 == 1).collect();
                par.eval(f, &a)
            })
            .collect();
        let _pins: Vec<_> = vs.iter().chain([&f]).map(|&e| par.pin(e)).collect();
        par.collect();
        par.inner().validate().unwrap();
        for (m, want) in tf.iter().enumerate() {
            let a: Vec<bool> = (0..8).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(par.eval(f, &a), *want);
        }
        let g = par.apply(BoolOp::XOR, f, vs[0]);
        let g2 = par.apply(BoolOp::XOR, f, vs[0]);
        assert_eq!(g, g2);
    }

    /// A worker context over `base` with the overlay storage of `frame`.
    fn worker_ctx<'a>(base: &'a Robdd, frame: &'a OverlayFrame<VarKey>) -> PCtx<'a> {
        PCtx {
            base,
            base_len: u32::try_from(base.nodes.len()).expect("arena fits u32"),
            table: &frame.table,
            arena: &frame.arena,
            cache: &frame.cache,
            quant: None,
        }
    }

    /// The worker runs the package's own recursion over the frozen base:
    /// re-running operations whose results the sequential manager already
    /// built must return those exact edges, found through the base `peek`,
    /// without a single overlay node.
    #[test]
    fn worker_reruns_base_results_without_overlay_nodes() {
        let n = 8;
        let mut seq = Robdd::new(n);
        let vs: Vec<Edge> = (0..n).map(|v| seq.var(v)).collect();
        let f = build_mixed(n, 5, &mut |op, a, b| seq.apply(op, a, b), &vs);
        let g = build_mixed(n, 6, &mut |op, a, b| seq.apply(op, a, b), &vs);
        let h = seq.apply(BoolOp::AND, f, g);
        let i = seq.ite(f, !g, h);
        let frame = OverlayFrame::new(8, 64, 1 << 10);
        let ctx = worker_ctx(&seq, &frame);
        let (r_apply, calls) = ctx.run_task(&Task::Apply(BoolOp::AND, f, g));
        let (r_ite, _) = ctx.run_task(&Task::Ite(f, !g, h));
        assert_eq!(r_apply, h);
        assert_eq!(r_ite, i);
        assert!(calls > 0, "the worker must count its recursion entries");
        assert_eq!(frame.arena.len(), 0, "no overlay node for a base function");
        assert_eq!(frame.table.len(), 0);
    }

    /// From the same base state, the worker creates in the overlay exactly
    /// the nodes the sequential manager creates in its arena, each once: a
    /// second run of the task allocates nothing and returns the same edge,
    /// and the commit imports every overlay node.
    #[test]
    fn worker_creates_each_new_node_once() {
        let n = 8;
        let build = || {
            let mut m = Robdd::new(n);
            let vs: Vec<Edge> = (0..n).map(|v| m.var(v)).collect();
            let f = build_mixed(n, 21, &mut |op, a, b| m.apply(op, a, b), &vs);
            let g = build_mixed(n, 34, &mut |op, a, b| m.apply(op, a, b), &vs);
            (m, f, g)
        };
        let (mut seq, f, g) = build();
        let created0 = seq.stats().nodes_created;
        let want = seq.apply(BoolOp::XOR, f, g);
        let created = seq.stats().nodes_created - created0;
        assert!(created > 0, "the script must need new nodes");

        let (mut base, bf, bg) = build();
        assert_eq!((bf, bg), (f, g), "identical scripts build identical bases");
        let frame = OverlayFrame::new(8, 64, 1 << 10);
        let ctx = worker_ctx(&base, &frame);
        let base_len = ctx.base_len;
        let (r, _) = ctx.run_task(&Task::Apply(BoolOp::XOR, f, g));
        assert_eq!(u64::from(frame.arena.len()), created);
        let (again, _) = ctx.run_task(&Task::Apply(BoolOp::XOR, f, g));
        assert_eq!(again, r);
        assert_eq!(u64::from(frame.arena.len()), created);

        let mut memo = FxHashMap::default();
        let got = ParRobdd::import(&mut base, &frame.arena, base_len, &mut memo, r);
        assert_eq!(memo.len() as u64, created);
        assert_eq!(base.sat_count(got), seq.sat_count(want));
        assert_eq!(base.node_count(got), seq.node_count(want));
        let a: Vec<bool> = (0..n).map(|k| k % 3 == 0).collect();
        assert_eq!(base.eval(got, &a), seq.eval(want, &a));
    }
}
