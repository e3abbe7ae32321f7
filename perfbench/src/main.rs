//! Serving benchmark for the DjiNN/Tonic workspace.
//!
//! `perfbench run --workload NAME --seed N --seconds S --trace 0|1`
//! starts a fresh server child for the run, drives it open loop over one
//! connection from two threads, checks every output against a local
//! forward pass, and prints the end-to-end metrics (`--trace 0`), or the
//! goodput ladder, the tails and the per-layer metrics of a traced
//! in-process replay (`--trace 1`). The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `perfbench serve` is the server child itself. The workloads are the
//! [`WORKLOADS`] table.

mod check;
mod drive;
mod gen;
mod serve;
mod stats;
mod traced;

use std::collections::HashSet;
use std::time::Duration;

use djinn::workload::ZipfSampler;
use djinn::DjinnClient;

use check::Checker;
use drive::{run_phase, Conn, PhaseCtx, Record};
use gen::{one_shot_input, Model, Op, Rng, Traffic, TOKENS};
use serve::ServerProcess;
use stats::Metrics;

/// One workload: its arrival process at the nominal rate, the rates of
/// its goodput ladder, and the SLA a ladder rung must meet.
pub struct Workload {
    pub name: &'static str,
    /// Nominal arrival rate, operations per second.
    pub rate: f64,
    /// `(model, weight)`; `textgen` means generative streams.
    pub mix: &'static [(Model, f64)],
    /// One-shot inputs drawn Zipf(`s`) from a pool of this many inputs
    /// per model, as `(pool, s)`; without it every input is fresh.
    pub zipf: Option<(usize, f64)>,
    /// Goodput ladder rates, increasing.
    pub ladder: &'static [f64],
    /// p99 limit on one-shot latency, or on a stream's TTFT.
    pub sla_ms: f64,
    /// p99 limit on the gap between a stream's tokens.
    pub itl_sla_ms: f64,
}

impl Workload {
    /// Whether the workload sends streams rather than one-shot queries.
    pub fn streams(&self) -> bool {
        self.mix.iter().any(|(m, _)| *m == Model::Textgen)
    }
}

/// The benchmark's workloads. Rates are fixed numbers, never derived from
/// the code under test; `README.md` gives the reasons for each.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tonic-open",
        rate: 100.0,
        mix: &[
            (Model::Pos, 3.0),
            (Model::Chk, 3.0),
            (Model::Ner, 3.0),
            (Model::Dig, 1.0),
        ],
        zipf: None,
        ladder: &[200.0, 260.0, 330.0, 420.0, 530.0, 670.0],
        sla_ms: 150.0,
        itl_sla_ms: 0.0,
    },
    Workload {
        name: "tonic-zipf",
        rate: 400.0,
        mix: &[(Model::Pos, 1.0), (Model::Chk, 1.0), (Model::Ner, 1.0)],
        zipf: Some((1024, 1.1)),
        ladder: &[3200.0, 4000.0, 5000.0, 6300.0, 8000.0, 10000.0],
        sla_ms: 50.0,
        itl_sla_ms: 0.0,
    },
    Workload {
        name: "textgen-stream",
        rate: 12.0,
        mix: &[(Model::Textgen, 1.0)],
        zipf: None,
        ladder: &[20.0, 25.0, 31.0, 39.0, 48.0, 60.0],
        sla_ms: 50.0,
        itl_sla_ms: 40.0,
    },
];

/// Set-ups per run; `setup_s` and `rss_mb` are their medians.
const SETUPS: usize = 15;
/// A run whose generator falls further behind than this is invalid.
pub const LATENESS_LIMIT_MS: f64 = 10.0;
/// Share of `--seconds` a traced run spends at the nominal rate; the
/// rest goes to the goodput ladder. A measured run spends all of it there.
const TRACED_NOMINAL_SHARE: f64 = 0.6;
/// Ladder rungs that fit the ladder's share of `--seconds`.
const LADDER_SLOTS: f64 = 5.0;
/// Unmeasured warm-up before the nominal phase.
const WARMUP: Duration = Duration::from_secs(2);
/// Keys at and above this are warm-up and set-up inputs, never measured.
const WARM_KEYS: u64 = 1 << 62;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| "--seed must be a non-negative integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(1.0..=3600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unexpected argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => serve::serve_main(),
        Some("run") => parse_args(&argv[1..]).and_then(|a| run(&a)),
        _ => Err(
            "usage: perfbench serve | perfbench run --workload NAME --seed N --seconds S \
             --trace 0|1"
                .into(),
        ),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Spawns the server, times spawn → first answered request, and reads
/// its resident memory then.
fn set_up(seed: u64, i: u64) -> Result<(ServerProcess, f64, f64), String> {
    let server = ServerProcess::spawn()?;
    let mut client = DjinnClient::connect(server.addr).map_err(|e| e.to_string())?;
    let input = one_shot_input(seed, Model::Pos, WARM_KEYS + (1 << 40) + i);
    client.infer("pos", &input).map_err(|e| e.to_string())?;
    let setup_s = server.started.elapsed().as_secs_f64();
    let rss_mb = server.memory_mb("VmRSS:").unwrap_or(0.0);
    Ok((server, setup_s, rss_mb))
}

struct Phase {
    name: String,
    rate: f64,
    span: Duration,
    records: Vec<Record>,
}

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload;
    let traffic = Traffic {
        mix: w.mix,
        zipf: w.zipf.map(|(pool, s)| ZipfSampler::new(pool, s)),
    };
    let mut rng = Rng::derive(a.seed, 0xA11);
    let mut next_key = 0u64;
    let mut warm_key = WARM_KEYS;
    let nominal_share = if a.trace { TRACED_NOMINAL_SHARE } else { 1.0 };
    let nominal_span = Duration::from_secs_f64(a.seconds * nominal_share);
    let step_span = Duration::from_secs_f64(a.seconds * (1.0 - nominal_share) / LADDER_SLOTS);

    // Set-up, several times; the last server serves the run.
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut server = None;
    for i in 0..SETUPS {
        let (mut s, t, mb) = set_up(a.seed, i as u64)?;
        setups.push(t);
        rss.push(mb);
        if i + 1 == SETUPS {
            server = Some(s);
        } else {
            s.stop();
        }
    }
    let mut server = server.expect("at least one set-up");
    let mut conn = Conn::connect(server.addr)?;
    let mut first_id = 1u64;
    let mut phase = |conn: &mut Conn, ops: &[Op]| -> Vec<Record> {
        let ctx = PhaseCtx {
            seed: a.seed,
            first_id,
            drain_limit: Duration::from_secs(5),
        };
        first_id += ops.len() as u64 + 1;
        run_phase(conn, ops, &ctx)
    };

    // Warm-up at twice the nominal rate, so the caches reach their steady
    // hit rate before timing starts. Unique keys come from a space the
    // measured phases never use; pooled keys are the workload's own.
    let warm_ops = traffic.schedule(a.seed, &mut rng, 2.0 * w.rate, WARMUP, &mut warm_key);
    let warm = phase(&mut conn, &warm_ops);
    if let Some(r) = warm.iter().find(|r| !r.ok()) {
        return Err(format!("warm-up request failed: {:?}", r.failure));
    }

    let nominal = traffic.schedule(a.seed, &mut rng, w.rate, nominal_span, &mut next_key);
    let mut phases = vec![Phase {
        name: "nominal".into(),
        rate: w.rate,
        span: nominal_span,
        records: phase(&mut conn, &nominal),
    }];
    // Peak memory through the nominal phase, before the ladder, whose
    // length depends on the knee.
    let peak_rss_mb = server.memory_mb("VmHWM:").unwrap_or(0.0);
    let mut steps: Vec<stats::Step> = Vec::new();
    if a.trace {
        for &rate in w.ladder {
            let ops = traffic.schedule(a.seed, &mut rng, rate, step_span, &mut next_key);
            let records = phase(&mut conn, &ops);
            let step = stats::judge_step(rate, step_span, &records, w);
            let passed = step.passed;
            steps.push(step);
            phases.push(Phase {
                name: format!("ladder@{rate}"),
                rate,
                span: step_span,
                records,
            });
            if !passed {
                break;
            }
        }
    }
    drop(conn);
    server.stop();

    // Output check, after the server has gone.
    let all: Vec<&Record> = phases.iter().flat_map(|p| p.records.iter()).collect();
    let matched = Checker::new().check(a.seed, &all);
    let attempted = all.len();
    let n_matched = matched.iter().filter(|m| **m).count();
    let mut correct = n_matched == attempted;
    if let Some((r, _)) = all.iter().zip(&matched).find(|(_, m)| !**m) {
        eprintln!(
            "mismatch: op {:?} id {} failure {:?} frames {}",
            r.op.kind,
            r.id,
            r.failure,
            r.frames.len()
        );
    }

    println!(
        "# provenance {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"profile\": \"release\", \
         \"seconds\": {}, \"trace\": {}, \"nominal_rate\": {}, \"mix\": \"{}\", \"zipf\": {}, \
         \"tokens\": {TOKENS}, \"ladder\": {:?}, \"connections\": 1, \"client_threads\": 2}}",
        w.name,
        a.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        a.seconds,
        u8::from(a.trace),
        w.rate,
        w.mix
            .iter()
            .map(|(m, x)| format!("{}={x}", m.name()))
            .collect::<Vec<_>>()
            .join(","),
        w.zipf.map_or("null".into(), |(pool, s)| format!(
            "{{\"pool\": {pool}, \"s\": {s}}}"
        )),
        w.ladder,
    );
    // Workload shape, per phase.
    let mut seen: HashSet<(Model, u64)> = HashSet::new();
    let mut duplicates = 0usize;
    for p in &phases {
        let records: Vec<&Record> = p.records.iter().collect();
        let shape = stats::shape(&records, p.span, &mut seen);
        duplicates += shape.duplicates;
        println!(
            "# phase {} rate {}/s span {:.2}s: {}",
            p.name,
            p.rate,
            p.span.as_secs_f64(),
            shape.line
        );
    }
    for s in &steps {
        println!("# {}", s.line);
    }
    if w.zipf.is_none() && duplicates > 0 {
        eprintln!("unique-key workload sent {duplicates} duplicate inputs");
        correct = false;
    }
    let measured: Vec<&Record> = phases[0].records.iter().collect();
    let behind = stats::behind_ms(&measured);
    if behind > LATENESS_LIMIT_MS {
        return Err(format!(
            "run invalid: the generator fell {behind:.2} ms behind (limit {LATENESS_LIMIT_MS} ms) \
             at the nominal rate"
        ));
    }

    let mut m = Metrics::default();
    let samples = stats::samples(&measured);
    if a.trace {
        let replay = traced::replay(&nominal, a.seed);
        correct &= stats::per_layer(&mut m, w, a.seed, &measured, &samples, &replay);
        let good = stats::goodput(&steps);
        let (rps, tok_s) = if w.streams() {
            (0.0, good * f64::from(TOKENS))
        } else {
            (good, 0.0)
        };
        m.put("goodput_rps", rps, "1/s");
        m.put("goodput_tok_s", tok_s, "tok/s");
        m.put("server.peak_rss_mb", peak_rss_mb, "MB");
    } else {
        stats::end_to_end(&mut m, &setups, &rss, &samples);
        m.put(
            "output_match_frac",
            n_matched as f64 / attempted.max(1) as f64,
            "frac",
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        attempted,
        attempted - n_matched,
        m.json()
    );
    Ok(())
}
