//! Stress tests for the multi-core execution subsystem: random netlists
//! built through the parallel managers must produce roots **bit-identical**
//! across every tested thread count, agree with the sequential managers
//! function-for-function (and canonical-size-for-size), and the pooled CEC
//! driver must return exactly the sequential driver's verdicts.
//!
//! Run in `--release` by CI (the same assertions hold in debug, just
//! slower).

use bbdd_suite::*;

use bbdd::prelude::*;
use logicnet::build::build_network;
use logicnet::cec::{
    check_equivalence, check_equivalence_bbdd, check_equivalence_parallel_bbdd,
    check_equivalence_parallel_robdd, check_equivalence_robdd,
};
use logicnet::sim::SplitMix64;
use logicnet::{GateOp, Network, Signal};
use robdd::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A random combinational netlist: `gates` gates over `inputs` inputs,
/// topological by construction, with the last few wires as outputs.
fn random_network(seed: u64, inputs: usize, gates: usize) -> Network {
    let mut net = Network::new(&format!("rand_{seed:x}"));
    let mut sigs: Vec<Signal> = (0..inputs)
        .map(|i| net.add_input(&format!("i{i}")))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for _ in 0..gates {
        let r = rng.next_u64();
        let pick = |r: u64| sigs[(r as usize) % sigs.len()];
        let (a, b, c) = (pick(r), pick(r >> 13), pick(r >> 26));
        let out = match r % 9 {
            0 => net.add_gate(GateOp::And, &[a, b]),
            1 => net.add_gate(GateOp::Or, &[a, b]),
            2 => net.add_gate(GateOp::Xor, &[a, b]),
            3 => net.add_gate(GateOp::Nand, &[a, b]),
            4 => net.add_gate(GateOp::Nor, &[a, b]),
            5 => net.add_gate(GateOp::Xnor, &[a, b]),
            6 => net.add_gate(GateOp::Not, &[a]),
            7 => net.add_gate(GateOp::Mux, &[a, b, c]),
            _ => net.add_gate(GateOp::Maj, &[a, b, c]),
        };
        sigs.push(out);
    }
    for (k, s) in sigs.iter().rev().take(4).enumerate() {
        net.set_output(&format!("o{k}"), *s);
    }
    net.check().expect("random network is structurally valid");
    net
}

fn forced_bbdd(threads: usize) -> bbdd::ParConfig {
    bbdd::ParConfig {
        threads,
        // Small but non-zero: netlist building exercises both the parallel
        // pipeline and the sequential fallback (the decision is
        // size-based, so it is identical for every thread count).
        cutoff: 48,
        split_depth: Some(3),
        cache_ways: 1 << 12,
        shards: 16,
    }
}

fn forced_robdd(threads: usize) -> robdd::ParConfig {
    robdd::ParConfig {
        threads,
        cutoff: 48,
        split_depth: Some(3),
        cache_ways: 1 << 12,
        shards: 16,
    }
}

/// Netlist construction through `ParBbdd`: bit-identical roots for every
/// thread count, semantics matching direct simulation and the sequential
/// manager, canonical sizes matching the sequential manager's.
#[test]
fn parbbdd_netlist_roots_bit_identical_across_thread_counts() {
    for seed in [3u64, 11, 42] {
        let net = random_network(seed, 12, 160);
        let seq = BbddManager::with_vars(net.num_inputs());
        let seq_roots = build_network(&seq, &net);
        let mut reference: Option<Vec<bbdd::Edge>> = None;
        for threads in THREAD_COUNTS {
            let par = ParBbddManager::new(bbdd::ParBbdd::with_config(
                net.num_inputs(),
                forced_bbdd(threads),
            ));
            let roots = build_network(&par, &net);
            let root_edges: Vec<bbdd::Edge> = roots.iter().map(bbdd::ParBbddFn::edge).collect();
            match &reference {
                None => reference = Some(root_edges.clone()),
                Some(expect) => assert_eq!(
                    &root_edges, expect,
                    "seed {seed}: thread count {threads} changed the roots"
                ),
            }
            par.backend().inner().validate().unwrap();
            assert!(
                par.backend().par_stats().ops_parallel > 0,
                "seed {seed}: the parallel pipeline must have run"
            );
            let mut rng = SplitMix64::new(seed ^ 0xA5A5);
            for _ in 0..200 {
                let v: Vec<bool> = (0..net.num_inputs())
                    .map(|_| rng.next_u64() & 1 == 1)
                    .collect();
                let sim = net.simulate(&v);
                for (o, expect) in sim.iter().enumerate() {
                    assert_eq!(roots[o].eval(&v), *expect, "seed {seed} output {o}");
                    assert_eq!(seq_roots[o].eval(&v), *expect, "seed {seed} output {o}");
                }
            }
            for (o, (p, s)) in roots.iter().zip(&seq_roots).enumerate() {
                assert_eq!(
                    p.node_count(),
                    s.node_count(),
                    "seed {seed} output {o}: canonical sizes differ"
                );
            }
        }
    }
}

/// The same stress for the ROBDD twin.
#[test]
fn parrobdd_netlist_roots_bit_identical_across_thread_counts() {
    for seed in [7u64, 19] {
        let net = random_network(seed, 12, 160);
        let seq = RobddManager::with_vars(net.num_inputs());
        let seq_roots = build_network(&seq, &net);
        let mut reference: Option<Vec<robdd::Edge>> = None;
        for threads in THREAD_COUNTS {
            let par = ParRobddManager::new(robdd::ParRobdd::with_config(
                net.num_inputs(),
                forced_robdd(threads),
            ));
            let roots = build_network(&par, &net);
            let root_edges: Vec<robdd::Edge> = roots.iter().map(robdd::ParRobddFn::edge).collect();
            match &reference {
                None => reference = Some(root_edges.clone()),
                Some(expect) => assert_eq!(
                    &root_edges, expect,
                    "seed {seed}: thread count {threads} changed the roots"
                ),
            }
            par.backend().inner().validate().unwrap();
            let mut rng = SplitMix64::new(seed ^ 0x5A5A);
            for _ in 0..200 {
                let v: Vec<bool> = (0..net.num_inputs())
                    .map(|_| rng.next_u64() & 1 == 1)
                    .collect();
                let sim = net.simulate(&v);
                for (o, expect) in sim.iter().enumerate() {
                    assert_eq!(roots[o].eval(&v), *expect, "seed {seed} output {o}");
                }
            }
            for (o, (p, s)) in roots.iter().zip(&seq_roots).enumerate() {
                assert_eq!(
                    p.node_count(),
                    s.node_count(),
                    "seed {seed} output {o}: canonical sizes differ"
                );
            }
        }
    }
}

/// Each output's `∃ vars`, `∀ vars`, and the fused `∃ vars . (o ∧ o')`
/// with the next output `o'`.
fn quantify_outputs<F: BooleanFunction>(roots: &[F], vars: &[usize]) -> Vec<F> {
    let mut out = Vec::new();
    for (k, r) in roots.iter().enumerate() {
        out.push(r.exists(vars));
        out.push(r.forall(vars));
        out.push(r.and_exists(&roots[(k + 1) % roots.len()], vars));
    }
    out
}

/// Parallel quantification on one package: roots bit-identical across
/// thread counts, canonical sizes and model counts equal to the
/// sequential manager's.
fn check_parallel_quantification<S, P, E>(
    what: &str,
    net: &Network,
    vars: &[usize],
    seq: &S,
    par: impl Fn(usize) -> P,
    edge: impl Fn(&P::Function) -> E,
) where
    S: FunctionManager,
    P: FunctionManager,
    E: PartialEq + std::fmt::Debug,
{
    let seq_q = quantify_outputs(&build_network(seq, net), vars);
    let mut reference: Option<Vec<E>> = None;
    for threads in THREAD_COUNTS {
        let mgr = par(threads);
        let q = quantify_outputs(&build_network(&mgr, net), vars);
        let edges: Vec<E> = q.iter().map(&edge).collect();
        match &reference {
            None => reference = Some(edges),
            Some(expect) => assert_eq!(
                &edges, expect,
                "{what}: threads {threads} changed quantified roots"
            ),
        }
        for (k, (p, s)) in q.iter().zip(&seq_q).enumerate() {
            assert_eq!(
                p.node_count(),
                s.node_count(),
                "{what} result {k}: quantified canonical sizes differ"
            );
            assert_eq!(
                p.sat_count(),
                s.sat_count(),
                "{what} result {k}: quantified functions differ"
            );
        }
    }
}

/// Parallel quantification over netlist outputs (`exists`, `forall`,
/// `and_exists`) on both packages: thread-count invariant and equal to the
/// sequential managers' results.
#[test]
fn parallel_quantification_matches_sequential_on_netlists() {
    let net = random_network(23, 10, 120);
    let vars: Vec<usize> = (0..net.num_inputs()).filter(|v| v % 2 == 0).collect();
    let n = net.num_inputs();
    check_parallel_quantification(
        "bbdd",
        &net,
        &vars,
        &BbddManager::with_vars(n),
        |threads| ParBbddManager::new(bbdd::ParBbdd::with_config(n, forced_bbdd(threads))),
        bbdd::ParBbddFn::edge,
    );
    check_parallel_quantification(
        "robdd",
        &net,
        &vars,
        &RobddManager::with_vars(n),
        |threads| ParRobddManager::new(robdd::ParRobdd::with_config(n, forced_robdd(threads))),
        robdd::ParRobddFn::edge,
    );
}

/// The pooled CEC driver agrees with the sequential driver — equivalent
/// pairs, and the refuted-output evidence on mutated pairs — for every
/// thread count and both backends.
#[test]
fn parallel_cec_verdicts_match_sequential() {
    let ripple = benchgen::datapath::adder(10);
    let cla = benchgen::datapath::adder_cla(10);
    let seq_bbdd = check_equivalence_bbdd(&ripple, &cla);
    let seq_robdd = check_equivalence_robdd(&ripple, &cla);
    assert!(seq_bbdd.is_equivalent() && seq_robdd.is_equivalent());

    // A seeded mutation: adder vs magnitude comparator-sized mismatch is
    // too blunt; flip one output wire instead.
    let mut mutated = benchgen::datapath::adder(10);
    let outs: Vec<(String, Signal)> = mutated
        .outputs()
        .iter()
        .map(|(n, s)| (n.clone(), *s))
        .collect();
    let (name, sig) = outs[3].clone();
    let flipped = mutated.add_gate(GateOp::Not, &[sig]);
    mutated.set_output(&name, flipped);
    let seq_neg = check_equivalence_bbdd(&ripple, &mutated);
    assert!(!seq_neg.is_equivalent());

    for threads in THREAD_COUNTS {
        assert_eq!(
            check_equivalence_parallel_bbdd(&ripple, &cla, threads),
            seq_bbdd,
            "threads {threads} (bbdd, positive)"
        );
        assert_eq!(
            check_equivalence_parallel_robdd(&ripple, &cla, threads),
            seq_robdd,
            "threads {threads} (robdd, positive)"
        );
        assert_eq!(
            check_equivalence_parallel_bbdd(&ripple, &mutated, threads),
            seq_neg,
            "threads {threads} (bbdd, negative): evidence must be deterministic"
        );
    }
}

/// The generic CEC driver running *on* a parallel manager (every miter and
/// quantification internally fork-join) proves the adder pair equivalent.
#[test]
fn parallel_manager_backs_the_generic_cec_driver() {
    let ripple = benchgen::datapath::adder(8);
    let cla = benchgen::datapath::adder_cla(8);
    let mgr = ParBbddManager::new(bbdd::ParBbdd::with_config(
        ripple.num_inputs(),
        forced_bbdd(4),
    ));
    assert!(check_equivalence(&mgr, &ripple, &cla).is_equivalent());
    let ps = mgr.backend().par_stats();
    assert!(ps.ops_parallel > 0 || ps.ops_sequential > 0);
    let mgr = ParRobddManager::new(robdd::ParRobdd::with_config(
        ripple.num_inputs(),
        forced_robdd(4),
    ));
    assert!(check_equivalence(&mgr, &ripple, &cla).is_equivalent());
}
