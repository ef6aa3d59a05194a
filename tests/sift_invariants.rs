//! Sifting results and the state a reorder leaves behind, on both
//! packages.
//!
//! * **Pinned results.** `FullSift` after `build_network` + `gc` on four
//!   Table-I netlists must reach exactly these live sizes. Every sift
//!   decision reads the exact live count after each move, so any change to
//!   how that count is obtained must leave these figures unchanged.
//! * **A clean forest afterwards.** After `Full`, `Window(2)` and `Pair`
//!   — and after a sift aborted by its budget — an immediate `gc()` frees
//!   nothing (no dead node is left stored), `validate()` passes, and the
//!   node accounting balances: `nodes.created − gc.nodes_freed ==
//!   nodes.live`.

use bbdd::prelude::*;
use ddcore::dvo::DvoStrategy;
use ddcore::govern::{OpAbort, OpBudget};
use logicnet::build::build_network;
use robdd::prelude::*;

trait Validate: FunctionManager {
    fn with_vars(n: usize) -> Self;
    fn validate_all(&self) -> Result<(), String>;
}

impl Validate for BbddManager {
    fn with_vars(n: usize) -> Self {
        BbddManager::with_vars(n)
    }
    fn validate_all(&self) -> Result<(), String> {
        self.backend().validate()
    }
}

impl Validate for RobddManager {
    fn with_vars(n: usize) -> Self {
        RobddManager::with_vars(n)
    }
    fn validate_all(&self) -> Result<(), String> {
        self.backend().validate()
    }
}

/// Build `name` and collect, so the sift starts from a dead-node-free
/// forest (the `bbdd-cli --sift` pipeline).
fn built<M: Validate>(name: &str) -> (M, Vec<M::Function>) {
    let net = benchgen::mcnc::generate(name).expect("Table-I netlist");
    let mgr = M::with_vars(net.num_inputs());
    let roots = build_network(&mgr, &net);
    mgr.gc();
    (mgr, roots)
}

/// The post-reorder invariants.
fn assert_clean<M: Validate>(label: &str, mgr: &M) {
    assert_eq!(mgr.gc(), 0, "{label}: a dead node survived the reorder");
    mgr.validate_all()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let m = mgr.metrics();
    let get = |name: &str| m.get(name).unwrap_or_else(|| panic!("{label}: no {name}"));
    assert_eq!(
        get("nodes.created") - get("gc.nodes_freed"),
        get("nodes.live"),
        "{label}: nodes.created - gc.nodes_freed != nodes.live"
    );
    assert_eq!(get("nodes.live"), mgr.live_nodes() as u64, "{label}");
}

fn full_sift_sizes<M: Validate>(pkg: &str, expected: [usize; 4]) {
    for (name, want) in ["misex3", "alu4", "count", "frg1"]
        .into_iter()
        .zip(expected)
    {
        let (mgr, roots) = built::<M>(name);
        let live = mgr.reorder_with(DvoStrategy::Full).expect("backend sifts");
        assert_eq!(live, want, "{pkg}/{name}: FullSift live size");
        assert_eq!(mgr.live_nodes(), want, "{pkg}/{name}");
        assert_clean(&format!("{pkg}/{name} full"), &mgr);
        drop(roots);
    }
}

#[test]
fn full_sift_sizes_are_pinned_bbdd() {
    full_sift_sizes::<BbddManager>("bbdd", [1353, 1057, 649, 455]);
}

#[test]
fn full_sift_sizes_are_pinned_robdd() {
    full_sift_sizes::<RobddManager>("robdd", [837, 738, 409, 277]);
}

fn every_strategy_leaves_a_clean_forest<M: Validate>(pkg: &str) {
    for strategy in [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair] {
        for name in ["misex1", "count"] {
            let (mgr, roots) = built::<M>(name);
            let sizes = mgr.shared_node_count(&roots);
            let live = mgr.reorder_with(strategy).expect("backend sifts");
            assert_eq!(live, mgr.live_nodes(), "{pkg}/{name} {strategy}");
            assert_clean(&format!("{pkg}/{name} {strategy}"), &mgr);
            // Sifting keeps only what the outputs need; here that is
            // everything stored.
            assert_eq!(live, mgr.shared_node_count(&roots), "{pkg}/{name}");
            assert!(live <= sizes, "{pkg}/{name} {strategy}: {sizes} -> {live}");
        }
    }
}

#[test]
fn every_strategy_leaves_a_clean_forest_bbdd() {
    every_strategy_leaves_a_clean_forest::<BbddManager>("bbdd");
}

#[test]
fn every_strategy_leaves_a_clean_forest_robdd() {
    every_strategy_leaves_a_clean_forest::<RobddManager>("robdd");
}

fn aborted_sift_leaves_a_clean_forest<M: Validate>(pkg: &str) {
    for strategy in [DvoStrategy::Full, DvoStrategy::Window(2), DvoStrategy::Pair] {
        // Meter the sift's checkpoints, then abort at the first, a middle
        // and the last one.
        let mut meter = OpBudget::unlimited();
        let (mgr, _roots) = built::<M>("misex1");
        mgr.try_reorder_with(strategy, &mut meter)
            .expect("backend sifts")
            .expect("unlimited budget");
        let n = meter.used();
        assert!(n > 2, "{pkg} {strategy}: sift must pass checkpoints");
        for k in [1, n / 2, n] {
            let (mgr, roots) = built::<M>("misex1");
            let mut budget = OpBudget::unlimited().inject_cancel_at(k);
            let res = mgr
                .try_reorder_with(strategy, &mut budget)
                .expect("backend sifts");
            assert_eq!(res, Err(OpAbort::Cancelled), "{pkg} {strategy} k={k}");
            let label = format!("{pkg} {strategy} aborted at k={k}");
            assert_clean(&label, &mgr);
            assert_eq!(mgr.live_nodes(), mgr.shared_node_count(&roots), "{label}");
        }
    }
}

#[test]
fn aborted_sift_leaves_a_clean_forest_bbdd() {
    aborted_sift_leaves_a_clean_forest::<BbddManager>("bbdd");
}

#[test]
fn aborted_sift_leaves_a_clean_forest_robdd() {
    aborted_sift_leaves_a_clean_forest::<RobddManager>("robdd");
}
