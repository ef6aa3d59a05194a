//! `circuit_sift`: the `bbdd-cli` main pipeline on both packages.
//!
//! Each netlist goes Verilog text → `parse_verilog` → `build_network` +
//! GC → sift → `dump_network` → `write_verilog`, exactly as the CLI runs
//! `bbdd-cli --sift`, once on the BBDD package and once on the ROBDD
//! package per pass.
//!
//! *Why this workload:* on these Table-I netlists sift is over 95 % of the
//! pipeline time and BBDD sift runs 2–4× slower than ROBDD sift, so any
//! change to `ddcore::dvo`, level swap or reorder shows here. `cnf`,
//! `par`, `session` and `serve` do no work in it.
//!
//! *Why these inputs:* misex3, alu4, count, frg1 and C1908 are the Table-I
//! rows whose sift is not trivial. `seq` is left out: its BBDD sift alone
//! takes ≈2.7 s, which would leave only a handful of passes per run and
//! make the medians unsteady. The netlists are fixed; the seed only
//! shuffles the order they are processed in within a pass.

use crate::trace::{self, span};
use crate::{Args, Counters, Report};
use bbdd_suite::bbdd::BbddManager;
use bbdd_suite::logicnet::build::build_network;
use bbdd_suite::logicnet::cec::check_equivalence_bbdd;
use bbdd_suite::logicnet::sim::SplitMix64;
use bbdd_suite::logicnet::verilog;
use bbdd_suite::robdd::RobddManager;
use bbdd_suite::synthkit::rewrite::DiagramRewrite;

const NETLISTS: &[&str] = &["misex3", "alu4", "count", "frg1", "C1908"];
const TINY_NETLISTS: &[&str] = &["misex3", "count"];
/// Set-up repetitions; the reported set-up time is their median.
const SETUP_REPS: usize = 11;

/// One generated input: the Verilog text the program receives, plus the
/// port names the rewrite step needs.
struct Input {
    name: &'static str,
    text: String,
    in_names: Vec<String>,
    out_names: Vec<String>,
}

fn generate(names: &[&'static str]) -> Vec<Input> {
    names
        .iter()
        .map(|&name| {
            let net = bbdd_suite::benchgen::mcnc::generate(name).expect("Table-I netlist");
            Input {
                name,
                text: verilog::write_verilog(&net),
                in_names: net
                    .inputs()
                    .iter()
                    .map(|&s| net.signal_name(s).to_string())
                    .collect(),
                out_names: net.outputs().iter().map(|(n, _)| n.clone()).collect(),
            }
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pkg {
    Bbdd,
    Robdd,
}

/// Span and counter names per package.
struct Names {
    parse: &'static str,
    build: &'static str,
    sift: &'static str,
    rewrite: &'static str,
}

const BBDD: Names = Names {
    parse: "logicnet.parse_bbdd",
    build: "logicnet.build_bbdd",
    sift: "dvo.sift_bbdd",
    rewrite: "synthkit.rewrite_bbdd",
};
const ROBDD: Names = Names {
    parse: "logicnet.parse_robdd",
    build: "logicnet.build_robdd",
    sift: "dvo.sift_robdd",
    rewrite: "synthkit.rewrite_robdd",
};

/// One netlist through the whole pipeline; returns the rewritten Verilog
/// and the sifted node count.
fn pipeline<M: DiagramRewrite>(
    mgr_for: impl FnOnce(usize) -> M,
    names: &Names,
    input: &Input,
    sift: bool,
    c: &mut Counters,
) -> Result<(String, usize), String> {
    let net = span(names.parse, || verilog::parse_verilog(&input.text))
        .map_err(|e| format!("{}: {e}", input.name))?;
    let mgr = mgr_for(net.num_inputs());
    let roots = c.call(names.build, &mgr, || {
        let roots = build_network(&mgr, &net);
        mgr.gc();
        roots
    });
    if sift {
        c.call(names.sift, &mgr, || mgr.reorder())
            .ok_or_else(|| format!("{}: backend does not reorder", input.name))?;
    }
    let nodes = mgr.shared_node_count(&roots);
    let text = c.call(names.rewrite, &mgr, || {
        verilog::write_verilog(&mgr.dump_network(&roots, &input.in_names, &input.out_names))
    });
    Ok((text, nodes))
}

fn run_one(
    pkg: Pkg,
    input: &Input,
    sift: bool,
    c: &mut Counters,
) -> Result<(String, usize), String> {
    match pkg {
        Pkg::Bbdd => pipeline(BbddManager::with_vars, &BBDD, input, sift, c),
        Pkg::Robdd => pipeline(RobddManager::with_vars, &ROBDD, input, sift, c),
    }
}

/// One pass over every netlist on one package, in `order`.
fn pass(
    pkg: Pkg,
    inputs: &[Input],
    order: &[usize],
    c: &mut Counters,
) -> Vec<Result<(String, usize), String>> {
    let root = if pkg == Pkg::Bbdd {
        "bench.pass_bbdd"
    } else {
        "bench.pass_robdd"
    };
    let mut out: Vec<Option<Result<(String, usize), String>>> = vec![None; inputs.len()];
    span(root, || {
        for &i in order {
            out[i] = Some(run_one(pkg, &inputs[i], true, c));
        }
    });
    out.into_iter()
        .map(|o| o.expect("every netlist ran"))
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let names = if args.tiny { TINY_NETLISTS } else { NETLISTS };

    // Set-up: generate the texts and warm the parse/build path (no sift),
    // several times; the median is the set-up time.
    let mut setup = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (gen, secs) = trace::timed(|| {
            let gen = generate(names);
            for input in &gen {
                for pkg in [Pkg::Bbdd, Pkg::Robdd] {
                    let _ = run_one(pkg, input, false, &mut Counters::default());
                }
            }
            gen
        });
        setup.push(secs);
        inputs = gen;
    }
    r.e2e("setup_s", trace::median(&setup));

    // Warm-up pass on each package; its outputs are the reference every
    // measured pass must reproduce exactly.
    let all: Vec<usize> = (0..inputs.len()).collect();
    let mut reference = Vec::new();
    for pkg in [Pkg::Bbdd, Pkg::Robdd] {
        match pass(pkg, &inputs, &all, &mut Counters::default())
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(outs) => reference.push(outs),
            Err(e) => {
                r.fail(1, format!("warm-up: {e}"));
                return r;
            }
        }
    }

    // Measure: alternate a BBDD pass and a ROBDD pass, netlists in a
    // seeded order. In a traced run every other pass pair is traced and
    // the rest give the untraced comparison for the overhead figure.
    let mut rng = SplitMix64::new(args.seed);
    let mut counters = Counters::default();
    let (mut bbdd_ms, mut robdd_ms) = (Vec::new(), Vec::new());
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut traced_passes = 0usize;
    let mut window = trace::Window::new(args.seconds);
    while window.more() {
        let mut order = all.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let traced = args.trace && bbdd_ms.len() % 2 == 0;
        trace::set_enabled(traced);
        let mut pair = 0.0;
        for (k, pkg) in [Pkg::Bbdd, Pkg::Robdd].into_iter().enumerate() {
            let (outs, secs) = trace::timed(|| pass(pkg, &inputs, &order, &mut counters));
            pair += secs;
            if k == 0 {
                bbdd_ms.push(secs * 1e3);
            } else {
                robdd_ms.push(secs * 1e3);
            }
            r.attempted += outs.len() as u64;
            for ((input, got), want) in inputs.iter().zip(outs).zip(&reference[k]) {
                match got {
                    Ok(v) if v == *want => {}
                    Ok((_, nodes)) => r.fail(
                        1,
                        format!(
                            "{}: output or node count ({nodes}) differs from the first pass",
                            input.name
                        ),
                    ),
                    Err(e) => r.fail(1, e),
                }
            }
        }
        trace::set_enabled(false);
        window.done(pair);
        if traced {
            traced_s.push(pair);
            traced_passes += 1;
        } else {
            untraced_s.push(pair);
        }
    }

    // Output checks: each rewritten netlist re-parses and is
    // CEC-equivalent to its input. Every measured pass reproduced the
    // reference text, so checking the reference covers them all.
    let passes = bbdd_ms.len() as u64;
    for (k, pkg_name) in ["bbdd", "robdd"].into_iter().enumerate() {
        for (input, (text, _)) in inputs.iter().zip(&reference[k]) {
            let original = verilog::parse_verilog(&input.text).expect("generated text parses");
            let verdict = verilog::parse_verilog(text)
                .map_err(|e| e.to_string())
                .map(|rewritten| check_equivalence_bbdd(&original, &rewritten));
            match verdict {
                Ok(v) if v.is_equivalent() => {}
                Ok(_) => r.fail(
                    passes,
                    format!("{} ({pkg_name}): rewrite is not equivalent", input.name),
                ),
                Err(e) => r.fail(
                    passes,
                    format!(
                        "{} ({pkg_name}): rewrite does not re-parse: {e}",
                        input.name
                    ),
                ),
            }
        }
    }

    let total_nodes = |k: usize| reference[k].iter().map(|(_, n)| *n as f64).sum::<f64>();
    r.e2e("heavy_ms", trace::median(&bbdd_ms));
    r.e2e("light_ms", trace::median(&robdd_ms));
    // Throughput of the typical pass pair: pipelines over its duration.
    let pipelines = 2.0 * inputs.len() as f64;
    let pair_rates: Vec<f64> = bbdd_ms
        .iter()
        .zip(&robdd_ms)
        .map(|(b, r)| pipelines / ((b + r) / 1e3))
        .collect();
    r.e2e("nodes", total_nodes(0));
    r.detail("circuit.pipelines_per_s", trace::median(&pair_rates), "1/s");
    r.detail_timing(
        "circuit.bbdd_s",
        &bbdd_ms.iter().map(|ms| ms / 1e3).collect::<Vec<_>>(),
        "s",
    );
    r.detail_timing(
        "circuit.robdd_s",
        &robdd_ms.iter().map(|ms| ms / 1e3).collect::<Vec<_>>(),
        "s",
    );
    r.detail("circuit.bbdd_nodes", total_nodes(0), "count");
    r.detail("circuit.robdd_nodes", total_nodes(1), "count");
    for (input, (_, n)) in inputs.iter().zip(&reference[0]) {
        r.detail(
            format!("circuit.bbdd_nodes.{}", input.name),
            *n as f64,
            "count",
        );
    }
    r.detail("setup.samples", SETUP_REPS as f64, "count");

    if args.trace {
        let spans = trace::take();
        let per = traced_passes.max(1) as f64;
        let by_name = trace::durations(&spans);
        let t = |n: &str| by_name.get(n).copied().unwrap_or(0.0) / per;
        r.layer("logicnet.parse_s", t(BBDD.parse) + t(ROBDD.parse));
        r.layer("logicnet.build_s", t(BBDD.build) + t(ROBDD.build));
        r.layer("synthkit.rewrite_s", t(BBDD.rewrite) + t(ROBDD.rewrite));
        r.layer("dvo.bbdd_sift_s", t(BBDD.sift));
        r.layer("dvo.robdd_sift_s", t(ROBDD.sift));
        let swaps = counters.get(BBDD.sift, "ops.swaps") as f64;
        r.layer("dvo.bbdd_swaps", swaps / per);
        r.layer(
            "dvo.robdd_swaps",
            counters.get(ROBDD.sift, "ops.swaps") as f64 / per,
        );
        r.layer(
            "dvo.bbdd_swaps_per_s",
            if t(BBDD.sift) > 0.0 {
                swaps / per / t(BBDD.sift)
            } else {
                0.0
            },
        );
        r.layer(
            "dvo.bbdd_sift_gc_runs",
            counters.get(BBDD.sift, "gc.runs") as f64 / per,
        );
        // How far a sift lifted the manager's peak above the build's
        // peak (the gauge never resets, so the sift's own peak is only
        // visible where it exceeds the build's); largest over circuits.
        r.layer(
            "dvo.bbdd_sift_peak_rise",
            counters.get(BBDD.sift, "nodes.peak") as f64,
        );
        counters.fill_storage_layers(&mut r, per);
        r.fill_self_times(&spans, per);
        r.fill_overhead(&traced_s, &untraced_s);
    }
    r
}
