//! Where sift time goes, per package and netlist: each netlist is built
//! and collected (the `bbdd-cli --sift` pipeline), then sifted once with
//! the `ddcore::obs` profiler on. The profiler's `Reorder` histogram gives
//! the sift time, its `Swap` and `Gc` histograms the time in level swaps
//! and in collections inside that sift; the rest is the engine itself
//! (live-count reads, group bookkeeping). No other timer is used.
//!
//! Usage:
//!   cargo run --release -p bbdd-bench --bin sift_anatomy -- <bbdd|robdd> [netlist...]
//!   cargo run --release -p bbdd-bench --bin sift_anatomy --features chained_tables -- ...
//!
//! Without netlist names it runs the five `circuit_sift` benchmark
//! netlists: misex3, alu4, count, frg1 and C1908.

use ddcore::api::FunctionManager;
use ddcore::obs;
use logicnet::build::build_network;

const DEFAULT_NETLISTS: &[&str] = &["misex3", "alu4", "count", "frg1", "C1908"];

/// One sift, split by the profiler.
#[derive(Default)]
struct Row {
    live: u64,
    sift_ns: u64,
    swaps: u64,
    swap_ns: u64,
    gc_runs: u64,
    gc_ns: u64,
}

impl Row {
    fn add(&mut self, o: &Row) {
        self.live += o.live;
        self.sift_ns += o.sift_ns;
        self.swaps += o.swaps;
        self.swap_ns += o.swap_ns;
        self.gc_runs += o.gc_runs;
        self.gc_ns += o.gc_ns;
    }

    fn print(&self, name: &str, vars: &str) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let other = self.sift_ns.saturating_sub(self.swap_ns + self.gc_ns);
        println!(
            "{name:<8} {vars:>5} {:>7} {:>9.2} {:>7} {:>9.2} {:>8.1} {:>7} {:>8.2} {:>8.2}",
            self.live,
            ms(self.sift_ns),
            self.swaps,
            ms(self.swap_ns),
            self.swap_ns as f64 / 1e3 / self.swaps.max(1) as f64,
            self.gc_runs,
            ms(self.gc_ns),
            ms(other),
        );
    }
}

/// `(count, total ns)` of `op` in the snapshot.
fn total(s: &obs::ProfileSnapshot, op: obs::Op) -> (u64, u64) {
    s.ops
        .iter()
        .find(|r| r.op == op)
        .map_or((0, 0), |r| (r.count, r.total_ns))
}

fn sift_one<M: FunctionManager>(mgr: M, net: &logicnet::Network) -> Row {
    let _roots = build_network(&mgr, net); // handles: registry roots
    mgr.gc();
    obs::profile_reset();
    let live = mgr.reorder().expect("backend sifts");
    let s = obs::profile_snapshot();
    let (swaps, swap_ns) = total(&s, obs::Op::Swap);
    let (gc_runs, gc_ns) = total(&s, obs::Op::Gc);
    Row {
        live: live as u64,
        sift_ns: total(&s, obs::Op::Reorder).1,
        swaps,
        swap_ns,
        gc_runs,
        gc_ns,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: sift_anatomy <bbdd|robdd> [netlist...]";
    let pkg = args.first().map(String::as_str).unwrap_or_else(|| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    if pkg != "bbdd" && pkg != "robdd" {
        eprintln!("unknown package {pkg:?}; {usage}");
        std::process::exit(2);
    }
    let names: Vec<&str> = if args.len() > 1 {
        args[1..].iter().map(String::as_str).collect()
    } else {
        DEFAULT_NETLISTS.to_vec()
    };
    let variant = if cfg!(feature = "chained_tables") {
        "chained"
    } else {
        "open"
    };
    obs::set_profile_enabled(true);
    println!("sift anatomy: {pkg} [{variant} tables], one FullSift per netlist after build + gc");
    println!(
        "{:<8} {:>5} {:>7} {:>9} {:>7} {:>9} {:>8} {:>7} {:>8} {:>8}",
        "netlist",
        "vars",
        "live",
        "sift_ms",
        "swaps",
        "swap_ms",
        "us/swap",
        "gc_runs",
        "gc_ms",
        "other_ms"
    );
    let mut sum = Row::default();
    for name in names {
        let Some(net) = benchgen::mcnc::generate(name) else {
            eprintln!("unknown netlist {name:?}");
            std::process::exit(1);
        };
        let n = net.num_inputs();
        let row = match pkg {
            "bbdd" => sift_one(bbdd::BbddManager::with_vars(n), &net),
            _ => sift_one(robdd::RobddManager::with_vars(n), &net),
        };
        row.print(name, &n.to_string());
        sum.add(&row);
    }
    sum.print("total", "");
}
