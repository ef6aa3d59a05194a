//! Pins the recursion and node counters on one fixed, deterministic
//! script. The benchmark's per-layer `core.apply_calls` and
//! `core.nodes_created` read these counters, so a refactor of the
//! recursions must leave every figure below exactly as it is.
//!
//! The parallel managers run with a forced split at one thread: tasks
//! execute in order, so their overlay counters are deterministic too.

const N: usize = 10;

/// The script: two LCG-driven mixed functions `f`, `g`, then one call of
/// each recursion (`apply`, `ite`, `exists`, `forall`, `and_exists`). The
/// four managers share these method names, so one macro drives them all.
macro_rules! run_script {
    ($mgr:expr) => {{
        let mgr = &mut $mgr;
        let vars: Vec<_> = (0..N).map(|v| mgr.var(v)).collect();
        let ops = [
            bbdd::BoolOp::XOR,
            bbdd::BoolOp::AND,
            bbdd::BoolOp::OR,
            bbdd::BoolOp::XNOR,
            bbdd::BoolOp::NAND,
        ];
        let mut mixed = |seed: u64| {
            let mut state = seed | 1;
            let mut f = vars[0];
            for _ in 0..3 * N {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let op = ops[(state >> 33) as usize % ops.len()];
                let v = vars[(state >> 18) as usize % N];
                f = mgr.apply(op, f, v);
            }
            f
        };
        let f = mixed(11);
        let g = mixed(88);
        let h = mgr.apply(bbdd::BoolOp::AND, f, g);
        let _ = mgr.ite(f, g, h);
        let _ = mgr.exists(f, &[1, 3, 4]);
        let _ = mgr.forall(f, &[0, 2]);
        let _ = mgr.and_exists(f, g, &[2, 5, 6]);
    }};
}

fn forced_bbdd() -> bbdd::ParConfig {
    bbdd::ParConfig {
        threads: 1,
        cutoff: 0,
        split_depth: Some(3),
        cache_ways: 1 << 10,
        shards: 8,
    }
}

fn forced_robdd() -> robdd::ParConfig {
    robdd::ParConfig {
        threads: 1,
        cutoff: 0,
        split_depth: Some(3),
        cache_ways: 1 << 10,
        shards: 8,
    }
}

#[test]
fn bbdd_call_counters_are_pinned() {
    let mut mgr = bbdd::Bbdd::new(N);
    run_script!(mgr);
    let s = mgr.stats();
    assert_eq!(
        (s.apply_calls, s.ite_calls, s.quant_calls, s.nodes_created),
        (2712, 149, 11, 868),
        "Bbdd (apply, ite, quant, nodes_created)"
    );
}

#[test]
fn robdd_call_counters_are_pinned() {
    let mut mgr = robdd::Robdd::new(N);
    run_script!(mgr);
    let s = mgr.stats();
    assert_eq!(
        (s.apply_calls, s.quant_calls, s.nodes_created),
        (838, 8, 315),
        "Robdd (apply incl. ite, quant, nodes_created)"
    );
}

#[test]
fn par_bbdd_overlay_counters_are_pinned() {
    let mut mgr = bbdd::ParBbdd::with_config(N, forced_bbdd());
    run_script!(mgr);
    let s = mgr.par_stats();
    assert_eq!(
        (s.par_recursions, s.nodes_imported),
        (2959, 559),
        "ParBbdd (par_recursions, nodes_imported)"
    );
}

#[test]
fn par_robdd_overlay_counters_are_pinned() {
    let mut mgr = robdd::ParRobdd::with_config(N, forced_robdd());
    run_script!(mgr);
    let s = mgr.par_stats();
    assert_eq!(
        (s.par_recursions, s.nodes_imported),
        (434, 117),
        "ParRobdd (par_recursions, nodes_imported)"
    );
}
