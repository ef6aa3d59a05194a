//! The served-session phase of `cnf_count`: the NDJSON serving front door
//! over loopback TCP.
//!
//! A library of Table-I circuits is published once (`publish_networks`)
//! and served by `serve_tcp`, which forks one session per connection. One
//! client drives it in a closed loop — it sends the next request only
//! after the previous response arrived — and opens a new connection for
//! every script, so every connection pays a session fork.
//!
//! *Why this phase:* session fork, the JSON protocol and the session
//! overlay tables do the work and no sift runs. Reads (`eval`,
//! `sat_count`, `node_count`) create no nodes; writes (`apply`,
//! `quantify`, `compose` with `store`) grow the session overlay.
//!
//! *Why it is a phase, not a workload with end-to-end metrics:* its
//! timings follow the host's load more than the code. Two threads hand
//! every request over loopback, and in two of three ten-seed proofs on a
//! shared 2-vCPU host its request rate spread by 0.28 and 0.26 of the
//! median, beyond the largest bound a regression gate may use (0.25). So
//! it runs inside every `cnf_count` round. Its responses are checked like every
//! count, its timings go to the detail line, and the traced run measures
//! the `session` and `serve` layers from it.
//!
//! *Why these inputs:* C1908, count, alu4, misex3 and frg1 publish a base
//! of about 20 k nodes, on which a fork takes about a millisecond — the
//! size at which fork cost is visible beside request cost. Adding `seq`
//! grows the base to 5.7 M nodes and a fork to 0.8 s, which would make
//! the phase a fork benchmark only. No recorded serving traffic exists
//! for this protocol, so the mix guesses no weights: every connection
//! sends each of the six session operations once on each circuit of the
//! library ([`OPS`] × circuits, 30 requests), in a seeded order. The seed
//! drives every script: the order, operands, eval assignments and
//! quantified variables.

use crate::trace::span;
use crate::Report;
use bbdd_suite::bbdd::{Bbdd, BoolOp};
use bbdd_suite::ddcore::govern::OpBudget;
use bbdd_suite::ddcore::session::{Session, SharedBase};
use bbdd_suite::logicnet::publish::publish_networks;
use bbdd_suite::logicnet::sim::SplitMix64;
use bbdd_suite::logicnet::Network;
use bbdd_suite::serve::{parse_json, run_batch, serve_tcp, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const LIBRARY: &[&str] = &["C1908", "count", "alu4", "misex3", "frg1"];
const TINY_LIBRARY: &[&str] = &["alu4", "misex3"];
/// Connections per round, each with its own seeded script.
const SCRIPTS: usize = 16;
const TINY_SCRIPTS: usize = 2;
/// Direct replays of every script in a traced run; per-call times are
/// their medians.
const REPLAYS: usize = 3;

/// The session operations of the protocol, reads first.
const OPS: &[&str] = &[
    "eval",
    "sat_count",
    "node_count",
    "apply",
    "quantify",
    "compose",
];

/// One request, kept structured so the traced run can also call the
/// session API directly with the same arguments.
#[derive(Clone)]
enum Req {
    Eval {
        f: String,
        assignment: Vec<(usize, bool)>,
    },
    SatCount {
        f: String,
    },
    NodeCount {
        f: String,
    },
    Apply {
        how: (&'static str, BoolOp),
        f: String,
        g: String,
        store: String,
    },
    Quantify {
        f: String,
        vars: Vec<usize>,
        store: String,
    },
    Compose {
        f: String,
        var: usize,
        g: String,
        store: String,
    },
}

impl Req {
    fn is_write(&self) -> bool {
        matches!(
            self,
            Req::Apply { .. } | Req::Quantify { .. } | Req::Compose { .. }
        )
    }

    fn op(&self) -> &'static str {
        match self {
            Req::Eval { .. } => "eval",
            Req::SatCount { .. } => "sat_count",
            Req::NodeCount { .. } => "node_count",
            Req::Apply { .. } => "apply",
            Req::Quantify { .. } => "quantify",
            Req::Compose { .. } => "compose",
        }
    }

    /// The NDJSON request line.
    fn line(&self, id: usize, inputs: &[String]) -> String {
        let q = |s: &str| format!("\"{s}\"");
        match self {
            Req::Eval { f, assignment } => {
                let fields: Vec<String> = assignment
                    .iter()
                    .map(|&(v, b)| format!("{}:{b}", q(&inputs[v])))
                    .collect();
                format!(
                    "{{\"id\":{id},\"op\":\"eval\",\"f\":{},\"assignment\":{{{}}}}}",
                    q(f),
                    fields.join(",")
                )
            }
            Req::SatCount { f } => format!("{{\"id\":{id},\"op\":\"sat_count\",\"f\":{}}}", q(f)),
            Req::NodeCount { f } => format!("{{\"id\":{id},\"op\":\"node_count\",\"f\":{}}}", q(f)),
            Req::Apply { how, f, g, store } => format!(
                "{{\"id\":{id},\"op\":\"apply\",\"how\":\"{}\",\"f\":{},\"g\":{},\"store\":{}}}",
                how.0,
                q(f),
                q(g),
                q(store)
            ),
            Req::Quantify { f, vars, store } => {
                let names: Vec<String> = vars.iter().map(|&v| q(&inputs[v])).collect();
                format!(
                    "{{\"id\":{id},\"op\":\"quantify\",\"kind\":\"exists\",\"f\":{},\"vars\":[{}],\"store\":{}}}",
                    q(f),
                    names.join(","),
                    q(store)
                )
            }
            Req::Compose { f, var, g, store } => format!(
                "{{\"id\":{id},\"op\":\"compose\",\"f\":{},\"var\":{},\"g\":{},\"store\":{}}}",
                q(f),
                q(&inputs[*var]),
                q(g),
                q(store)
            ),
        }
    }

    /// The same request through the session API; `Err` on any failure.
    fn call(&self, s: &mut Session<Bbdd>, width: usize) -> Result<(), String> {
        let mut b = OpBudget::unlimited();
        let r = match self {
            Req::Eval { f, assignment } => {
                let mut full = vec![false; width];
                for &(v, val) in assignment {
                    full[v] = val;
                }
                s.eval(f, &full).map(drop)
            }
            Req::SatCount { f } => s.sat_count(f, &mut b).map(drop),
            Req::NodeCount { f } => s.node_count(f).map(drop),
            Req::Apply { how, f, g, store } => s.apply(how.1, f, g, Some(store), &mut b).map(drop),
            Req::Quantify { f, vars, store } => {
                s.quantify(true, f, vars, Some(store), &mut b).map(drop)
            }
            Req::Compose { f, var, g, store } => {
                s.compose(f, *var, g, Some(store), &mut b).map(drop)
            }
        };
        r.map_err(|e| e.to_string())
    }
}

/// One circuit of the library as the script generator sees it.
struct Circuit {
    outputs: Vec<String>,
    inputs: Vec<usize>,
}

/// One connection's requests, their lines, and the responses a single
/// session gives them (from `run_batch`).
pub struct Script {
    reqs: Vec<Req>,
    lines: Vec<String>,
    expected: Vec<String>,
}

/// One seeded script: every operation of [`OPS`] once on every circuit,
/// in a seeded order, with seeded operands, eval assignments and
/// quantified variables. A write combines published outputs of one
/// circuit and stores the result on the connection; a read targets a
/// published output or a value stored earlier. Writes never build on
/// stored values, so each costs one operation on circuit-sized operands.
fn script(rng: &mut SplitMix64, circuits: &[Circuit]) -> Vec<Req> {
    let below = |rng: &mut SplitMix64, n: usize| (rng.next_u64() % n as u64) as usize;
    let mut slots: Vec<(&str, usize)> = OPS
        .iter()
        .flat_map(|&op| (0..circuits.len()).map(move |c| (op, c)))
        .collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, below(rng, i + 1));
    }
    let mut stored: Vec<Vec<String>> = circuits.iter().map(|_| Vec::new()).collect();
    let mut reqs = Vec::with_capacity(slots.len());
    for (k, (op, c)) in slots.into_iter().enumerate() {
        let circuit = &circuits[c];
        let outs = &circuit.outputs;
        let out = |rng: &mut SplitMix64| outs[below(rng, outs.len())].clone();
        let visible = |rng: &mut SplitMix64| {
            let i = below(rng, outs.len() + stored[c].len());
            outs.get(i)
                .unwrap_or_else(|| &stored[c][i - outs.len()])
                .clone()
        };
        let input = |rng: &mut SplitMix64| circuit.inputs[below(rng, circuit.inputs.len())];
        let store = format!("w{k}");
        let req = match op {
            "eval" => Req::Eval {
                f: visible(rng),
                assignment: circuit
                    .inputs
                    .iter()
                    .map(|&v| (v, rng.next_u64() & 1 == 1))
                    .collect(),
            },
            "sat_count" => Req::SatCount { f: visible(rng) },
            "node_count" => Req::NodeCount { f: visible(rng) },
            "apply" => Req::Apply {
                how: [
                    ("and", BoolOp::AND),
                    ("or", BoolOp::OR),
                    ("xor", BoolOp::XOR),
                ][below(rng, 3)],
                f: out(rng),
                g: out(rng),
                store: store.clone(),
            },
            "quantify" => {
                let mut vars = vec![input(rng), input(rng)];
                vars.sort_unstable();
                vars.dedup();
                Req::Quantify {
                    f: out(rng),
                    vars,
                    store: store.clone(),
                }
            }
            _ => Req::Compose {
                f: out(rng),
                var: input(rng),
                g: out(rng),
                store: store.clone(),
            },
        };
        if req.is_write() {
            stored[c].push(store);
        }
        reqs.push(req);
    }
    reqs
}

fn config() -> ServeConfig {
    ServeConfig {
        sessions: 1,
        ..ServeConfig::default()
    }
}

/// The published library and the seeded scripts with their
/// single-session reference responses.
pub struct Inputs {
    base: Arc<SharedBase<Bbdd>>,
    scripts: Vec<Script>,
}

/// Generate the library, publish it, and build the seeded scripts with
/// their single-session reference responses.
pub fn setup(tiny: bool, seed: u64) -> Inputs {
    let (names, scripts) = if tiny {
        (TINY_LIBRARY, TINY_SCRIPTS)
    } else {
        (LIBRARY, SCRIPTS)
    };
    let nets: Vec<Network> = names
        .iter()
        .map(|n| bbdd_suite::benchgen::mcnc::generate(n).expect("Table-I netlist"))
        .collect();
    let refs: Vec<&Network> = nets.iter().collect();
    let base = publish_networks::<Bbdd>(&refs).expect("library publishes");
    let lib = base.library();
    let inputs: Vec<String> = lib.inputs().to_vec();
    let circuits: Vec<Circuit> = nets
        .iter()
        .map(|net| Circuit {
            outputs: net
                .outputs()
                .iter()
                .map(|(port, _)| format!("{}.{port}", net.name()))
                .collect(),
            inputs: net
                .inputs()
                .iter()
                .map(|&s| lib.input_index(net.signal_name(s)).expect("input in union"))
                .collect(),
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    let scripts = (0..scripts)
        .map(|_| {
            let reqs = script(&mut rng, &circuits);
            let lines: Vec<String> = reqs
                .iter()
                .enumerate()
                .map(|(i, q)| q.line(i, &inputs))
                .collect();
            let expected = run_batch(&base, &config(), &lines).responses;
            Script {
                reqs,
                lines,
                expected,
            }
        })
        .collect();
    Inputs { base, scripts }
}

/// What one client connection observed.
pub struct Conn {
    total_s: f64,
    first_reply_s: f64,
    /// Per request, in script order: (latency seconds, is write).
    latencies: Vec<(f64, bool)>,
}

/// Run one script over a fresh connection (closed loop); returns what the
/// client observed and the responses.
fn connection(addr: std::net::SocketAddr, s: &Script) -> std::io::Result<(Conn, Vec<String>)> {
    span("bench.connection", || {
        let t0 = Instant::now();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut conn = Conn {
            total_s: 0.0,
            first_reply_s: 0.0,
            latencies: Vec::with_capacity(s.lines.len()),
        };
        let mut responses = Vec::with_capacity(s.lines.len());
        for (line, req) in s.lines.iter().zip(&s.reqs) {
            let t = Instant::now();
            let resp = span("serve.request", || -> std::io::Result<String> {
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                let mut resp = String::new();
                reader.read_line(&mut resp)?;
                Ok(resp)
            })?;
            if responses.is_empty() {
                conn.first_reply_s = t0.elapsed().as_secs_f64();
            }
            conn.latencies
                .push((t.elapsed().as_secs_f64(), req.is_write()));
            responses.push(resp.trim_end().to_string());
        }
        writer.shutdown(std::net::Shutdown::Both)?;
        conn.total_s = t0.elapsed().as_secs_f64();
        Ok((conn, responses))
    })
}

/// The phase, ready to run: its inputs and a bound loopback listener.
pub struct Phase {
    inputs: Inputs,
    listener: TcpListener,
}

impl Phase {
    /// Check that every reference response is ok and bind the listener.
    pub fn new(inputs: Inputs) -> Result<Phase, String> {
        for (k, s) in inputs.scripts.iter().enumerate() {
            if let Some(bad) = s.expected.iter().find(|l| !l.contains("\"status\":\"ok\"")) {
                return Err(format!("script {k}: reference response not ok: {bad}"));
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        Ok(Phase { inputs, listener })
    }

    /// One round: every script once, each over its own connection, served
    /// by `serve_tcp` on a scoped server thread that stops after the
    /// round. Every response is checked byte for byte against the
    /// single-session replay; one connection per script, in script order.
    pub fn round(&self, r: &mut Report) -> Vec<Conn> {
        let Phase { inputs, listener } = self;
        let addr = listener.local_addr().expect("bound address");
        let (served, conns) = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                serve_tcp(
                    &inputs.base,
                    &config(),
                    listener,
                    Some(inputs.scripts.len()),
                )
            });
            let conns: Vec<_> = inputs.scripts.iter().map(|s| connection(addr, s)).collect();
            (server.join().expect("server thread"), conns)
        });
        if let Err(e) = served {
            r.fail(0, format!("serve_tcp: {e}"));
        }
        let mut out = Vec::with_capacity(conns.len());
        for (c, s) in conns.into_iter().zip(&inputs.scripts) {
            r.attempted += s.lines.len() as u64;
            match c {
                Ok((conn, responses)) => {
                    let bad = responses
                        .iter()
                        .zip(&s.expected)
                        .filter(|(a, b)| a != b)
                        .count()
                        + s.expected.len().saturating_sub(responses.len());
                    if bad > 0 {
                        r.fail(
                            bad as u64,
                            format!("{bad} served responses differ from the single-session replay"),
                        );
                    }
                    out.push(conn);
                }
                Err(e) => r.fail(s.lines.len() as u64, format!("connection failed: {e}")),
            }
        }
        out
    }

    /// The served timings on the detail line: read and write latency,
    /// request latency, requests per second of the typical connection
    /// (fork included), and time from connect to the first response.
    pub fn detail(&self, r: &mut Report, conns: &[&Conn]) {
        let lat = |keep: &dyn Fn(bool) -> bool| -> Vec<f64> {
            conns
                .iter()
                .flat_map(|c| c.latencies.iter().filter(|l| keep(l.1)).map(|l| l.0 * 1e6))
                .collect()
        };
        r.detail_timing("serve.read_us", &lat(&|w| !w), "us");
        r.detail_timing("serve.write_us", &lat(&|w| w), "us");
        r.detail_timing("serve.request_us", &lat(&|_| true), "us");
        let rps: Vec<f64> = conns
            .iter()
            .map(|c| c.latencies.len() as f64 / c.total_s)
            .collect();
        r.detail("serve.rps", crate::trace::median(&rps), "1/s");
        let first: Vec<f64> = conns.iter().map(|c| c.first_reply_s * 1e3).collect();
        r.detail_timing("serve.first_reply_ms", &first, "ms");
        r.detail("serve.connections", conns.len() as f64, "count");
        r.detail(
            "serve.base_nodes",
            self.inputs.base.backend().live_nodes() as f64,
            "count",
        );
    }

    /// Replay every script [`REPLAYS`] times on fresh sessions through the
    /// public API, timing the fork and, per request, the JSON parse and
    /// the session op. Returns the medians per script, or the first
    /// failure.
    pub fn replay(&self) -> Result<Vec<Replay>, String> {
        let width = self.inputs.base.library().inputs().len();
        let med = |xs: Vec<f64>| crate::trace::median(&xs);
        self.inputs
            .scripts
            .iter()
            .map(|s| {
                let mut runs = Vec::with_capacity(REPLAYS);
                for _ in 0..REPLAYS {
                    let t = Instant::now();
                    let mut session = self.inputs.base.session();
                    let fork_s = t.elapsed().as_secs_f64();
                    let mut calls = Vec::with_capacity(s.lines.len());
                    for (line, req) in s.lines.iter().zip(&s.reqs) {
                        let t = Instant::now();
                        parse_json(line)?;
                        let parse_s = t.elapsed().as_secs_f64();
                        let t = Instant::now();
                        req.call(&mut session, width)?;
                        calls.push((parse_s, t.elapsed().as_secs_f64()));
                    }
                    runs.push((fork_s, calls, session.overlay_nodes()));
                }
                Ok(Replay {
                    fork_s: med(runs.iter().map(|x| x.0).collect()),
                    calls: (0..s.lines.len())
                        .map(|i| {
                            (
                                s.reqs[i].op(),
                                med(runs.iter().map(|x| x.1[i].0).collect()),
                                med(runs.iter().map(|x| x.1[i].1).collect()),
                            )
                        })
                        .collect(),
                    overlay_nodes: runs[0].2,
                })
            })
            .collect()
    }
}

/// One script replayed directly: median fork time, and per request its
/// operation, median JSON-parse time and median session-op time.
pub struct Replay {
    fork_s: f64,
    calls: Vec<(&'static str, f64, f64)>,
    overlay_nodes: usize,
}

/// Per-layer metrics of the served phase, from the direct replays and the
/// client-observed requests of the traced rounds (`traced[i]` is the
/// connection of script `i % scripts` in one traced round). Returns the
/// session time of one round, fork and ops: the part of the traced
/// `serve.request` spans the server spent inside the session layer.
pub fn fill_layers(r: &mut Report, replays: &[Replay], traced: &[&Conn]) -> f64 {
    let us = |xs: Vec<f64>| crate::trace::median(&xs) * 1e6;
    let ops = |op: &str| {
        us(replays
            .iter()
            .flat_map(|p| p.calls.iter().filter(|c| c.0 == op).map(|c| c.2))
            .collect())
    };
    r.layer(
        "session.fork_ms",
        crate::trace::median(&replays.iter().map(|p| p.fork_s).collect::<Vec<_>>()) * 1e3,
    );
    r.layer(
        "session.overlay_nodes",
        crate::trace::median(
            &replays
                .iter()
                .map(|p| p.overlay_nodes as f64)
                .collect::<Vec<_>>(),
        ),
    );
    r.layer("session.eval_us", ops("eval"));
    r.layer("session.sat_count_us", ops("sat_count"));
    r.layer("session.apply_us", ops("apply"));
    r.layer("session.quantify_us", ops("quantify"));
    r.layer("session.compose_us", ops("compose"));
    r.layer(
        "serve.json_parse_us",
        us(replays
            .iter()
            .flat_map(|p| p.calls.iter().map(|c| c.1))
            .collect()),
    );
    // Request latency minus the JSON parse and the session op of the same
    // request: the protocol's formatting and the loopback transport.
    let transport: Vec<f64> = traced
        .iter()
        .zip(replays.iter().cycle())
        .flat_map(|(c, p)| {
            c.latencies
                .iter()
                .zip(&p.calls)
                .map(|(l, call)| l.0 - call.1 - call.2)
        })
        .collect();
    r.layer("serve.transport_us", us(transport));
    replays
        .iter()
        .map(|p| p.fork_s + p.calls.iter().map(|c| c.2).sum::<f64>())
        .sum()
}
