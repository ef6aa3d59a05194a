//! `cnf_count`: exact model counting from DIMACS text, the `bbdd-cli
//! count` front door.
//!
//! Every instance goes DIMACS text → `parse_dimacs` → bucket schedule plan
//! → build → `sat_count_over` on the sequential BBDD package. The large
//! instance is also counted with `par-bbdd` at 2 threads and sliced k = 2
//! on the fork-join pool at 2 workers. Every round ends with a short
//! served-session phase (`serve_mixed`): one client querying a published
//! circuit library through `serve_tcp`, one connection per script.
//!
//! *Why this workload:* the apply recursion, unique table, computed
//! cache, GC, fine-grained `par` and share-nothing slicing do the work
//! and no sift runs, so a `dvo` change must not move it, while a table or
//! cache change should move the large instance more than the small
//! stream.
//!
//! *Why these inputs:*
//! * the Tseitin parity chain over 20 data variables peaks at 917 502
//!   nodes, far beyond the 2 MiB per-core L2, and takes over a second to
//!   count — long enough to time steadily (n = 18 was too short and
//!   noisy). Its count is known in closed form, 2^(n-1). It is fixed, not
//!   seeded: the same instance on every commit and seed. Rounds alternate
//!   the parallel variant (`par-bbdd` t2, then sliced k = 2), so the
//!   sequential count gets a sample every round while a round stays near
//!   four seconds;
//! * the small stream — seeded random 3-CNF and product-configuration
//!   instances of 12–18 variables — stays cache-resident and is dominated
//!   by per-instance set-up, parsing and building. The seed picks every
//!   small instance's content; the sizes cycle in a fixed order, so the
//!   stream's cost mix is the same for every seed;
//! * the served phase is here because its own timings proved too
//!   host-dependent to gate (see `serve_mixed.rs`); it adds about a
//!   twentieth to a round, none of it inside a gated timing, and gives the traced run the
//!   `session` and `serve` layers. Like the counts, it runs no sift.

use crate::serve_mixed::{self, Conn, Phase};
use crate::trace::{self, span};
use crate::{Args, Counters, Report};
use bbdd_suite::bbdd::{BbddManager, ParBbdd, ParBbddManager};
use bbdd_suite::benchgen::cnf::{parity_chain, product_config, random3};
use bbdd_suite::cnf::{
    build_cnf, cofactor_cnf, count_cnf, count_sliced_par, parse_dimacs, splitting_set,
    ClauseSchedule, Cnf, Schedule,
};
use bbdd_suite::ddcore::api::{BooleanFunction, FunctionManager};
use bbdd_suite::ddcore::govern::OpBudget;
use bbdd_suite::logicnet::sim::SplitMix64;
use bbdd_suite::robdd::RobddManager;
use std::time::Instant;

const PARITY_N: usize = 20;
const TINY_PARITY_N: usize = 10;
/// Small instances per round (half random 3-CNF, half product config).
const SMALL: usize = 256;
const TINY_SMALL: usize = 8;
const THREADS: usize = 2;
const SLICE_K: usize = 2;
const SETUP_REPS: usize = 7;

/// The seeded small stream: DIMACS texts, alternating families. The
/// sizes cycle in a fixed order (random 3-CNF over 36–51 clauses, product
/// configurations over 12–18 features) so every seed gets the same size
/// mix and the stream's cost does not ride on the draw of sizes; the seed
/// picks each instance's content.
fn small_stream(seed: u64, count: usize) -> Vec<String> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|i| {
            let (s, k) = (rng.next_u64(), i / 2);
            let inst = if i % 2 == 0 {
                random3(12, 36 + k % 16, s)
            } else {
                product_config(12 + k % 7, s)
            };
            inst.to_dimacs("perfbench small stream")
        })
        .collect()
}

/// DIMACS text → exact count on a sequential manager, each layer call in
/// its own span. Returns the count and the build's peak conjunction size.
fn count_seq<M: FunctionManager>(
    text: &str,
    mgr_for: impl FnOnce(usize) -> M,
    c: &mut Counters,
) -> Result<(u128, u64), String> {
    let inst = span("cnf.parse", || parse_dimacs(text)).map_err(|e| e.to_string())?;
    let mgr = span("cnf.manager_new", || mgr_for(inst.num_vars.max(1)));
    count_built(&mgr, &inst, ("cnf.build", "cnf.count"), c)
}

/// Plan, build and count an already-parsed instance in `mgr`.
fn count_built<M: FunctionManager>(
    mgr: &M,
    inst: &Cnf,
    spans: (&'static str, &'static str),
    c: &mut Counters,
) -> Result<(u128, u64), String> {
    let plan = span("cnf.plan", || Schedule::Bucket.plan(inst));
    let (f, stats) = c.call(spans.0, mgr, || build_cnf(mgr, inst, &plan));
    let count = c
        .call(spans.1, mgr, || f.sat_count_over(inst.num_vars))
        .ok_or("count not representable")?;
    Ok((count, stats.conj_peak_nodes))
}

/// The large instance with `par-bbdd` at [`THREADS`] threads.
fn count_par2(text: &str, c: &mut Counters) -> Result<u128, String> {
    let inst = span("cnf.parse", || parse_dimacs(text)).map_err(|e| e.to_string())?;
    let mgr = span("cnf.manager_new", || {
        ParBbddManager::new(ParBbdd::new(inst.num_vars.max(1), THREADS))
    });
    count_built(&mgr, &inst, ("par.build", "par.count"), c).map(|(n, _)| n)
}

/// The large instance sliced `k = 2` on the fork-join pool.
fn count_sliced2(text: &str) -> Result<u128, String> {
    let inst = span("cnf.parse", || parse_dimacs(text)).map_err(|e| e.to_string())?;
    let n = inst.num_vars.max(1);
    let sliced = span("par.sliced", || {
        count_sliced_par(
            THREADS,
            || BbddManager::with_vars(n),
            OpBudget::unlimited,
            &inst,
            &Schedule::Bucket,
            SLICE_K,
        )
    });
    if sliced.partial {
        return Err("sliced count is partial".into());
    }
    Ok(sliced.total)
}

/// Per-slice times of the large instance, counted one slice at a time
/// through the public `cofactor_cnf` + `count_cnf` (traced runs only).
fn slice_times(text: &str) -> Vec<f64> {
    let inst = parse_dimacs(text).expect("large instance parses");
    let split = splitting_set(&inst, SLICE_K);
    (0..1usize << split.len())
        .map(|i| {
            let fixed: Vec<(usize, bool)> = split
                .iter()
                .enumerate()
                .map(|(bit, &v)| (v, (i >> bit) & 1 == 1))
                .collect();
            trace::timed(|| {
                let slice = cofactor_cnf(&inst, &fixed);
                let mgr = BbddManager::with_vars(inst.num_vars.max(1));
                count_cnf(&mgr, &slice, &Schedule::Bucket, &mut OpBudget::unlimited())
            })
            .1
        })
        .collect()
}

/// The parallel variant a round runs beside the sequential count; rounds
/// alternate between the two.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Par {
    Threads2,
    Sliced2,
}

/// The generated inputs and their expected answers.
struct Inputs {
    large: String,
    want: u128,
    small: Vec<String>,
    small_want: Vec<u128>,
    served: Phase,
}

/// Samples of one measured round.
struct Round {
    whole_s: f64,
    par: Par,
    par_s: f64,
    small_ms: Vec<f64>,
    small_s: f64,
    traced: bool,
    conns: Vec<Conn>,
}

fn check(r: &mut Report, what: &str, got: Result<u128, String>, want: u128) {
    r.attempted += 1;
    match got {
        Ok(n) if n == want => {}
        Ok(n) => r.fail(1, format!("{what}: count {n}, expected {want}")),
        Err(e) => r.fail(1, format!("{what}: {e}")),
    }
}

/// One round: the large instance sequentially and with one parallel
/// variant, the small stream, then the served phase. Every answer is
/// checked.
fn round(inp: &Inputs, par: Par, c: &mut Counters, r: &mut Report) -> Round {
    span("bench.round", || {
        let (got, whole_s) = trace::timed(|| count_seq(&inp.large, BbddManager::with_vars, c));
        check(r, "large whole", got.map(|(n, _)| n), inp.want);
        let (got, par_s) = trace::timed(|| match par {
            Par::Threads2 => count_par2(&inp.large, c),
            Par::Sliced2 => count_sliced2(&inp.large),
        });
        check(r, "large parallel", got, inp.want);
        let t = Instant::now();
        let mut small_ms = Vec::with_capacity(inp.small.len());
        for (i, (text, &want)) in inp.small.iter().zip(&inp.small_want).enumerate() {
            let (got, secs) = trace::timed(|| count_seq(text, BbddManager::with_vars, c));
            small_ms.push(secs * 1e3);
            check(r, &format!("small #{i}"), got.map(|(n, _)| n), want);
        }
        let small_s = t.elapsed().as_secs_f64();
        Round {
            whole_s,
            par,
            par_s,
            small_ms,
            small_s,
            traced: trace::enabled(),
            conns: inp.served.round(r),
        }
    })
}

pub fn run(args: &Args) -> Report {
    let mut r = Report::default();
    let (n, small_count) = if args.tiny {
        (TINY_PARITY_N, TINY_SMALL)
    } else {
        (PARITY_N, SMALL)
    };

    // Set-up, several times: generate every input, and warm the small
    // path by counting each small instance once on the ROBDD package — an
    // independent implementation whose counts are the small stream's
    // reference answers; publish the served library and replay its
    // scripts on one session for their reference responses.
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (gen, secs) = trace::timed(|| {
            let large = parity_chain(n).to_dimacs("perfbench parity chain");
            let small = small_stream(args.seed, small_count);
            let small_want = small
                .iter()
                .map(|text| {
                    count_seq(text, RobddManager::with_vars, &mut Counters::default())
                        .map(|(count, _)| count)
                })
                .collect::<Result<Vec<u128>, String>>();
            let served = serve_mixed::setup(args.tiny, args.seed);
            (large, small, small_want, served)
        });
        setup.push(secs);
        inputs = Some(gen);
    }
    let (large, small, small_want, served) = inputs.expect("set-up ran");
    let small_want = match small_want {
        Ok(w) => w,
        Err(e) => {
            r.fail(1, format!("small instance rejected: {e}"));
            return r;
        }
    };
    r.e2e("setup_s", trace::median(&setup));
    let served = match Phase::new(served) {
        Ok(p) => p,
        Err(e) => {
            r.fail(1, format!("served phase: {e}"));
            return r;
        }
    };
    // The parity count is 2^(n-1) in closed form.
    let inp = Inputs {
        large,
        want: 1u128 << (n - 1),
        small,
        small_want,
        served,
    };

    // Warm-up (discarded): every path once. The sequential count also
    // gives the large build's deterministic peak size.
    let peak = count_seq(&inp.large, BbddManager::with_vars, &mut Counters::default())
        .map_or(0, |(_, peak)| peak);
    let _ = count_par2(&inp.large, &mut Counters::default());
    let _ = count_sliced2(&inp.large);
    for text in &inp.small {
        let _ = count_seq(text, BbddManager::with_vars, &mut Counters::default());
    }
    let _ = inp.served.round(&mut Report::default());

    let mut counters = Counters::default();
    let mut rounds: Vec<Round> = Vec::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut slices = Vec::new();
    let mut window = trace::Window::new(args.seconds);
    while window.more() {
        let par = if rounds.len().is_multiple_of(2) {
            Par::Threads2
        } else {
            Par::Sliced2
        };
        // Traced runs trace one pair of rounds in two, so both variants
        // are traced and untraced alike.
        let traced = args.trace && rounds.len() % 4 < 2;
        trace::set_enabled(traced);
        let (rd, secs) = trace::timed(|| round(&inp, par, &mut counters, &mut r));
        trace::set_enabled(false);
        window.done(secs);
        if traced {
            traced_s.push(secs);
            if par == Par::Sliced2 {
                slices.push(slice_times(&inp.large));
            }
        } else {
            untraced_s.push(secs);
        }
        rounds.push(rd);
    }

    let whole: Vec<f64> = rounds.iter().map(|x| x.whole_s).collect();
    let par_of = |p: Par| -> Vec<f64> {
        rounds
            .iter()
            .filter(|x| x.par == p)
            .map(|x| x.par_s)
            .collect()
    };
    let small_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|x| x.small_ms.iter().copied())
        .collect();
    // Throughput of the typical round's small stream.
    let small_per_s = trace::median(
        &rounds
            .iter()
            .map(|x| x.small_ms.len() as f64 / x.small_s)
            .collect::<Vec<_>>(),
    );
    r.e2e("heavy_ms", trace::median(&whole) * 1e3);
    r.e2e("light_ms", trace::median(&small_ms));
    r.e2e("nodes", peak as f64);
    r.detail_timing("cnf.large_s", &whole, "s");
    r.detail_timing("cnf.large_par2_s", &par_of(Par::Threads2), "s");
    r.detail_timing("cnf.large_sliced2_s", &par_of(Par::Sliced2), "s");
    r.detail_timing("cnf.small_ms", &small_ms, "ms");
    r.detail("cnf.small_per_s", small_per_s, "1/s");
    r.detail("cnf.large_peak_nodes", peak as f64, "count");
    r.detail("cnf.parity_n", n as f64, "count");
    r.detail("cnf.small_instances", inp.small.len() as f64, "count");
    r.detail("setup.samples", SETUP_REPS as f64, "count");
    let conns = |traced_only: bool| -> Vec<&Conn> {
        rounds
            .iter()
            .filter(|x| x.traced || !traced_only)
            .flat_map(|x| &x.conns)
            .collect()
    };
    inp.served.detail(&mut r, &conns(false));

    if args.trace {
        let spans = trace::take();
        let per = traced_s.len().max(1) as f64;
        let by_name = trace::durations(&spans);
        let t = |n: &str| by_name.get(n).copied().unwrap_or(0.0) / per;
        r.layer("cnf.parse_s", t("cnf.parse"));
        r.layer("cnf.plan_s", t("cnf.plan"));
        r.layer("cnf.build_s", t("cnf.build"));
        r.layer("cnf.count_s", t("cnf.count"));
        r.layer("cnf.manager_new_s", t("cnf.manager_new"));
        r.layer("cnf.conj_peak_nodes", peak as f64);
        // Per traced sliced round: the slowest slice, the mean slice, and
        // their ratio; medians over the rounds.
        let max = |s: &[f64]| s.iter().copied().fold(0.0, f64::max);
        let over = |f: &dyn Fn(&[f64]) -> f64| {
            trace::median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        r.layer("slice.max_s", over(&max));
        r.layer("slice.mean_s", over(&trace::mean));
        r.layer(
            "slice.imbalance",
            over(&|s| max(s) / trace::mean(s).max(f64::MIN_POSITIVE)),
        );
        counters.fill_storage_layers(&mut r, per);
        r.fill_self_times(&spans, per);
        // The traced `serve.request` spans cover the server's session work
        // too; the direct replays say how much of a round that is.
        match inp.served.replay() {
            Ok(replays) => {
                let session_s = serve_mixed::fill_layers(&mut r, &replays, &conns(true));
                *r.layers.entry("self.serve_s").or_insert(0.0) -= session_s;
                *r.layers.entry("self.session_s").or_insert(0.0) += session_s;
            }
            Err(e) => r.fail(1, format!("direct replay failed: {e}")),
        }
        r.fill_overhead(&traced_s, &untraced_s);
    }
    r
}
