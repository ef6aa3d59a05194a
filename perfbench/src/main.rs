//! `perfbench` — one steady benchmark over the suite's real front doors.
//!
//! ```text
//! perfbench --workload <circuit_sift|cnf_count> --seed N
//!           --seconds S --trace <0|1> [--size full|tiny]
//! ```
//!
//! Each workload generates its inputs from the seed, sets up, warms up,
//! measures for `S` seconds, checks every output it produced (outside the
//! timed region), and prints two lines on stdout: a detail line (the
//! provenance, the workload's own named metrics with units and sample
//! counts) and, last, the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end set [`E2E`]; with
//! `--trace 1` they are the per-layer set [`LAYERS`], taken from the
//! benchmark's own spans around each layer call and from deltas of the
//! managers' `metrics()` registry. A run whose checks fail prints
//! `"correct":false` with no numbers and exits 1.
//!
//! `perfbench/README.md` defines every metric per workload and records
//! why each workload and input was chosen.

mod circuit;
mod cnf_count;
mod serve_mixed;
mod trace;

use bbdd_suite::ddcore::api::FunctionManager;
use bbdd_suite::ddcore::obs::MetricKind;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports every one (units as in
/// `BENCHMARK.json`). `heavy_ms`/`light_ms` are the medians of the
/// workload's heavier and lighter operation class; see the README table.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("heavy_ms", "ms"),
    ("light_ms", "ms"),
    ("nodes", "count"),
];

/// Per-layer metrics, emitted by every traced run (0 where the workload
/// does not reach the layer). Times and counts are per pass of the
/// workload unless the name says otherwise.
pub const LAYERS: &[(&str, &str)] = &[
    ("logicnet.parse_s", "s"),
    ("logicnet.build_s", "s"),
    ("synthkit.rewrite_s", "s"),
    ("dvo.bbdd_sift_s", "s"),
    ("dvo.robdd_sift_s", "s"),
    ("dvo.bbdd_swaps", "count"),
    ("dvo.robdd_swaps", "count"),
    ("dvo.bbdd_swaps_per_s", "1/s"),
    ("dvo.bbdd_sift_gc_runs", "count"),
    ("dvo.bbdd_sift_peak_rise", "count"),
    ("cnf.parse_s", "s"),
    ("cnf.plan_s", "s"),
    ("cnf.build_s", "s"),
    ("cnf.count_s", "s"),
    ("cnf.conj_peak_nodes", "count"),
    ("cnf.manager_new_s", "s"),
    ("core.apply_calls", "count"),
    ("core.nodes_created", "count"),
    ("table.lookups", "count"),
    ("table.probes_per_lookup", "ratio"),
    ("table.resizes", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("gc.runs", "count"),
    ("gc.nodes_freed", "count"),
    ("par.ops_parallel", "count"),
    ("par.tasks_stolen", "count"),
    ("par.shard_contention", "count"),
    ("par.nodes_imported", "count"),
    ("slice.max_s", "s"),
    ("slice.mean_s", "s"),
    ("slice.imbalance", "ratio"),
    ("session.fork_ms", "ms"),
    ("session.overlay_nodes", "count"),
    ("session.eval_us", "us"),
    ("session.sat_count_us", "us"),
    ("session.apply_us", "us"),
    ("session.quantify_us", "us"),
    ("session.compose_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.transport_us", "us"),
    ("self.logicnet_s", "s"),
    ("self.synthkit_s", "s"),
    ("self.dvo_s", "s"),
    ("self.cnf_s", "s"),
    ("self.par_s", "s"),
    ("self.session_s", "s"),
    ("self.serve_s", "s"),
    ("self.unattributed_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test size: every workload at a few milliseconds per pass.
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--size" => match value()?.as_str() {
                "full" => args.tiny = false,
                "tiny" => args.tiny = true,
                s => return Err(format!("--size: unknown size '{s}'")),
            },
            f => return Err(format!("unknown flag '{f}'")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Changes in the managers' `metrics()` registry, read before and after
/// each layer call and accumulated per call name: a counter adds its
/// change, a gauge keeps its largest rise across one call (so a peak
/// gauge measures what the call itself added above the peak before it).
/// Inert unless tracing is on.
#[derive(Default)]
pub struct Counters {
    by_call: BTreeMap<&'static str, BTreeMap<&'static str, u64>>,
}

impl Counters {
    /// Run `f` in a span named `name` and, when tracing, add the change in
    /// `mgr`'s registry across the call to `name`'s counters.
    pub fn call<M: FunctionManager, R>(
        &mut self,
        name: &'static str,
        mgr: &M,
        f: impl FnOnce() -> R,
    ) -> R {
        if !trace::enabled() {
            return f();
        }
        let before = mgr.metrics();
        let out = trace::span(name, f);
        let slot = self.by_call.entry(name).or_default();
        for m in mgr.metrics().entries() {
            let change = m.value.saturating_sub(before.get(m.name).unwrap_or(0));
            let e = slot.entry(m.name).or_insert(0);
            match m.kind {
                MetricKind::Counter => *e += change,
                MetricKind::Gauge => *e = (*e).max(change),
            }
        }
        out
    }

    /// The accumulated value of metric `name` across calls named `call`.
    pub fn get(&self, call: &str, name: &str) -> u64 {
        self.by_call
            .get(call)
            .and_then(|s| s.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// Metric `name` summed over every call.
    pub fn total(&self, name: &str) -> u64 {
        self.by_call.values().filter_map(|s| s.get(name)).sum()
    }

    /// The storage-layer metrics every diagram workload shares (`core`,
    /// `table`, `cache`, `gc`, `par`), per pass.
    pub fn fill_storage_layers(&self, r: &mut Report, passes: f64) {
        let per = |x: u64| x as f64 / passes;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.layer("core.apply_calls", per(self.total("ops.apply")));
        r.layer("core.nodes_created", per(self.total("nodes.created")));
        r.layer("table.lookups", per(self.total("table.lookups")));
        r.layer(
            "table.probes_per_lookup",
            ratio(self.total("table.probes"), self.total("table.lookups")),
        );
        r.layer("table.resizes", per(self.total("table.resizes")));
        r.layer("cache.lookups", per(self.total("cache.lookups")));
        r.layer(
            "cache.hit_rate",
            ratio(self.total("cache.hits"), self.total("cache.lookups")),
        );
        r.layer("cache.evictions", per(self.total("cache.evictions")));
        r.layer("gc.runs", per(self.total("gc.runs")));
        r.layer("gc.nodes_freed", per(self.total("gc.nodes_freed")));
        r.layer("par.ops_parallel", per(self.total("par.ops_parallel")));
        r.layer("par.tasks_stolen", per(self.total("par.tasks_stolen")));
        r.layer(
            "par.shard_contention",
            per(self.total("par.shard_contention")),
        );
        r.layer("par.nodes_imported", per(self.total("par.nodes_imported")));
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations with a wrong answer, an error, a reject or an abort.
    pub failed: u64,
    /// Check failures, one line each (printed to stderr).
    pub problems: Vec<String>,
    /// End-to-end values by name (see [`E2E`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (see [`LAYERS`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own named metrics: `(name, value, unit)`.
    pub detail: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.problems.push(what);
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(E2E.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "unknown layer {name}"
        );
        self.layers.insert(name, value);
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push((name.into(), value, unit));
    }

    /// Detail entries for a timing sample: its median, its highest
    /// well-sampled percentile and its sample count.
    pub fn detail_timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.detail(name, trace::median(samples), unit);
        let (label, tail) = trace::well_sampled_tail(samples);
        self.detail(format!("{name}.{label}"), tail, unit);
        self.detail(format!("{name}.samples"), samples.len() as f64, "count");
    }

    /// Self times per pass by layer, from the recorded spans: span names
    /// are `<layer>.<call>`; `bench.*` spans are the benchmark's own loop
    /// and count as unattributed.
    pub fn fill_self_times(&mut self, spans: &[trace::Span], passes: f64) {
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, secs) in trace::self_times(spans) {
            let layer = match name.split('.').next().unwrap_or("") {
                "logicnet" => "self.logicnet_s",
                "synthkit" => "self.synthkit_s",
                "dvo" => "self.dvo_s",
                "cnf" => "self.cnf_s",
                "par" => "self.par_s",
                "session" => "self.session_s",
                "serve" => "self.serve_s",
                _ => "self.unattributed_s",
            };
            *by_layer.entry(layer).or_insert(0.0) += secs;
        }
        for (layer, secs) in by_layer {
            self.layer(layer, secs / passes);
        }
        self.layer("trace.pass_s", trace::root_time(spans) / passes);
    }

    /// Traced-vs-untraced pass time, from passes interleaved in one run.
    pub fn fill_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        let (t, u) = (trace::mean(traced), trace::mean(untraced));
        self.layer("trace.untraced_pass_s", u);
        self.layer(
            "trace.overhead_pct",
            if u > 0.0 { (t - u) / u * 100.0 } else { 0.0 },
        );
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn json_metrics<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = items
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Provenance of a run: what produced the numbers. The wrapper script
/// passes the source revision and compiler version in the environment.
fn provenance(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":\"{}\",\
         \"host_threads\":{threads},\"git_rev\":\"{}\",\"git_dirty\":\"{}\",\
         \"rustc\":\"{}\",\"table_variant\":\"open-addressed (default features)\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { "tiny" } else { "full" },
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_GIT_DIRTY"),
        env("PERFBENCH_RUSTC").replace('"', "'"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(false);
    let mut report = match args.workload.as_str() {
        "circuit_sift" => circuit::run(&args),
        "cnf_count" => cnf_count::run(&args),
        w => {
            eprintln!("perfbench: unknown workload '{w}'");
            return ExitCode::from(2);
        }
    };
    report.e2e("peak_rss_mb", trace::peak_rss_mb());
    let attempted = report.attempted.max(1);
    report.e2e(
        "ok_ratio",
        (attempted - report.failed.min(attempted)) as f64 / attempted as f64,
    );
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    println!(
        "{{\"provenance\":{},\"detail\":{}}}",
        provenance(&args),
        json_metrics(report.detail.iter().map(|(n, v, u)| (n.as_str(), *v, *u)))
    );
    let metrics = if !correct {
        "{}".to_string()
    } else if args.trace {
        json_metrics(
            LAYERS
                .iter()
                .map(|&(n, u)| (n, report.layers.get(n).copied().unwrap_or(0.0), u)),
        )
    } else {
        json_metrics(
            E2E.iter()
                .map(|&(n, u)| (n, report.e2e.get(n).copied().unwrap_or(0.0), u)),
        )
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{metrics}}}",
        report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
