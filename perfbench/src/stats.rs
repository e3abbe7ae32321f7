//! Metric computation: the end-to-end numbers of a measured run, the
//! per-layer numbers of a traced run, and the per-phase workload shape.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Duration;

use djinn::trace::percentile;

use crate::drive::{ms, Failure, Record};
use crate::gen::{Model, OpKind};
use crate::traced::{cache_costs, codec_costs, is_compute, Replay, Shapes};
use crate::{Workload, LATENESS_LIMIT_MS};

/// Nearest-rank percentile (`q` in [0, 1]) — the workspace's one
/// definition, from `djinn::trace`; 0 for an empty sample.
pub fn p(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q).unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    p(values, 0.5)
}

/// Most windows a ladder rung's sample is cut into...
const RUNG_WINDOWS: usize = 5;
/// ...each of at least this many values.
const RUNG_WINDOW: usize = 100;

/// How far the generator has fallen behind: the median lateness of the
/// second half of the sends. Jitter moves a percentile; only a generator
/// that cannot keep up moves this.
pub fn behind_ms(records: &[&Record]) -> f64 {
    let late: Vec<f64> = records.iter().filter_map(|r| r.lateness_ms()).collect();
    median(&late[late.len() / 2..])
}

/// A rung's percentile: the median of the percentiles of its sample's
/// windows in send order, so that a pass or fail does not turn on one
/// stall.
fn wp(values: &[f64], q: f64) -> f64 {
    let windows = (values.len() / RUNG_WINDOW).clamp(1, RUNG_WINDOWS);
    let per = values.len().div_ceil(windows).max(1);
    median(&values.chunks(per).map(|w| p(w, q)).collect::<Vec<_>>())
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.items.push((name.into(), value, unit));
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Gaps between consecutive chunks of every stream, in ms.
fn itl_gaps(records: &[&Record]) -> Vec<f64> {
    records
        .iter()
        .flat_map(|r| r.frames.windows(2).map(|w| ms(w[1].at - w[0].at)))
        .collect()
}

/// Share of a rung's operations that must be finished one median latency
/// after its last due time; fewer means a growing backlog.
pub const KEPT_UP_MIN: f64 = 0.9;

/// One rung of the goodput ladder, judged against the SLA.
pub struct Step {
    /// The rate actually sent: operations sent over the rung's span.
    pub rate: f64,
    pub passed: bool,
    pub line: String,
}

pub fn judge_step(offered: f64, span: Duration, records: &[Record], w: &Workload) -> Step {
    let sent = records.iter().filter(|r| r.sent_at.is_some()).count();
    let rate = sent as f64 / span.as_secs_f64();
    let failed = records.iter().filter(|r| !r.ok()).count();
    let behind = behind_ms(&records.iter().collect::<Vec<_>>());
    let ok: Vec<&Record> = records.iter().filter(|r| r.ok()).collect();
    let (within, detail) = if w.streams() {
        let ttft: Vec<f64> = ok.iter().filter_map(|r| r.first_ms()).collect();
        let (t99, i99) = (wp(&ttft, 0.99), wp(&itl_gaps(&ok), 0.99));
        (
            t99 <= w.sla_ms && i99 <= w.itl_sla_ms,
            format!("ttft p99 {t99:.2} ms, itl p99 {i99:.2} ms"),
        )
    } else {
        let lat: Vec<f64> = ok.iter().filter_map(|r| r.last_ms()).collect();
        let l99 = wp(&lat, 0.99);
        (
            l99 <= w.sla_ms,
            format!(
                "latency p50 {:.2} p90 {:.2} p95 {:.2} p99 {l99:.2} ms",
                p(&lat, 0.5),
                p(&lat, 0.9),
                p(&lat, 0.95)
            ),
        )
    };
    // Backlog: a server that keeps up has finished all but the last few
    // operations one typical latency after the last one was due; one that
    // falls behind still holds a queue then.
    let last_due = records.iter().map(|r| r.due_at).max();
    let mut took: Vec<f64> = records.iter().filter_map(Record::last_ms).collect();
    took.truncate(took.len() / 2);
    let typical = Duration::from_secs_f64(median(&took) / 1e3);
    let finished = last_due.map_or(0, |t| {
        records
            .iter()
            .filter(|r| r.frames.last().is_some_and(|f| f.at <= t + typical))
            .count()
    });
    let kept_up = finished as f64 / sent.max(1) as f64;
    let passed = failed == 0 && within && behind <= LATENESS_LIMIT_MS && kept_up >= KEPT_UP_MIN;
    let line = format!(
        "ladder {offered}/s: sent {sent} ({rate:.1}/s) failed {failed}, {detail}, generator \
         behind {behind:.2} ms, finished {kept_up:.3} one median latency after the last due \
         time -> {}",
        if passed { "pass" } else { "fail" }
    );
    Step { rate, passed, line }
}

/// The rate sent at the highest rung that meets the SLA; 0 when none
/// does.
pub fn goodput(steps: &[Step]) -> f64 {
    match steps.iter().rev().find(|s| s.passed) {
        Some(s) => s.rate,
        None => {
            eprintln!("goodput: no rung of the ladder meets the SLA");
            0.0
        }
    }
}

fn streams<'a>(records: &[&'a Record]) -> Vec<&'a Record> {
    records
        .iter()
        .copied()
        .filter(|r| matches!(r.op.kind, OpKind::Stream { .. }))
        .collect()
}

/// Client-side samples of the nominal phase: time to the complete
/// answer (a one-shot reply, a stream's last chunk), time to a stream's
/// first token, and gaps between tokens, all from the due time.
pub struct Samples {
    done: Vec<f64>,
    ttft: Vec<f64>,
    itl: Vec<f64>,
}

pub fn samples(records: &[&Record]) -> Samples {
    let ok: Vec<&Record> = records.iter().copied().filter(|r| r.ok()).collect();
    let st = streams(&ok);
    Samples {
        done: ok.iter().filter_map(|r| r.last_ms()).collect(),
        ttft: st.iter().filter_map(|r| r.first_ms()).collect(),
        itl: itl_gaps(&st),
    }
}

pub fn end_to_end(m: &mut Metrics, setups: &[f64], rss: &[f64], s: &Samples) {
    println!(
        "# samples: {} operations, latency p25 {:.3} p50 {:.3} p99 {:.3} ms; set-ups {}",
        s.done.len(),
        p(&s.done, 0.25),
        p(&s.done, 0.5),
        p(&s.done, 0.99),
        setups.len()
    );
    m.put("setup_s", median(setups), "s");
    m.put("rss_mb", median(rss), "MB");
    // The first quartile, not the median: other tenants of a shared host
    // only ever add time, and they disturb the upper half of the sample
    // from run to run far more than the lower quarter.
    m.put("latency_p25_ms", p(&s.done, 0.25), "ms");
}

/// The shape of one phase as sent and answered.
pub struct Shape {
    pub line: String,
    pub duplicates: usize,
}

pub fn shape(records: &[&Record], span: Duration, seen: &mut HashSet<(Model, u64)>) -> Shape {
    let sent = records.iter().filter(|r| r.sent_at.is_some()).count();
    let ok = records.iter().filter(|r| r.ok()).count();
    let shed = records
        .iter()
        .filter(|r| matches!(r.failure, Some(Failure::Shed)))
        .count();
    let failed = records.len() - ok - shed;
    let mut duplicates = 0;
    let mut one_shots = 0;
    let mut per_model: BTreeMap<&str, usize> = BTreeMap::new();
    let mut stream_ms = 0.0;
    for r in records.iter().copied() {
        match r.op.kind {
            OpKind::Infer { model, .. } => {
                one_shots += 1;
                *per_model.entry(model.name()).or_default() += 1;
                if r.sent_at.is_some() && !seen.insert((model, r.input_digest)) {
                    duplicates += 1;
                }
            }
            OpKind::Stream { .. } => {
                *per_model.entry("textgen").or_default() += 1;
                if let (Some(s), Some(f)) = (r.sent_at, r.frames.last()) {
                    stream_ms += ms(f.at.saturating_duration_since(s));
                }
            }
        }
    }
    let late: Vec<f64> = records.iter().filter_map(|r| r.lateness_ms()).collect();
    let behind = behind_ms(records);
    let mut line = format!(
        "sent {sent} ok {ok} shed {shed} failed {failed}; duplicate share {:.4}; \
         generator lateness p50 {:.3} ms p99 {:.3} ms, behind {behind:.3} ms; mean streams in \
         flight {:.2}; shares",
        duplicates as f64 / one_shots.max(1) as f64,
        p(&late, 0.5),
        p(&late, 0.99),
        stream_ms / ms(span),
    );
    for (name, n) in &per_model {
        let _ = write!(
            line,
            " {name} {:.3}",
            *n as f64 / records.len().max(1) as f64
        );
    }
    if let Some(Failure::Error(why)) = records.iter().find_map(|r| r.failure.as_ref()) {
        let _ = write!(line, "; first failure: {why}");
    }
    Shape { line, duplicates }
}

/// Per-layer metrics of a traced run. Returns whether the trace
/// reconciles: each dispatch's summed layer times fall within
/// [`RECONCILE_FRAC`] (plus [`RECONCILE_SLACK_MS`]) of its service span.
pub fn per_layer(
    m: &mut Metrics,
    w: &Workload,
    seed: u64,
    nominal: &[&Record],
    tails: &Samples,
    replay: &Replay,
) -> bool {
    // The client-side numbers a regression bound would not hold to on a
    // shared two-vCPU host: the median, the tail, and the stream-only
    // latencies.
    m.put("latency_p50_ms", p(&tails.done, 0.5), "ms");
    m.put("latency_p99_ms", p(&tails.done, 0.99), "ms");
    m.put("ttft_p50_ms", p(&tails.ttft, 0.5), "ms");
    m.put("ttft_p99_ms", p(&tails.ttft, 0.99), "ms");
    m.put("itl_p50_ms", p(&tails.itl, 0.5), "ms");
    m.put("itl_p99_ms", p(&tails.itl, 0.99), "ms");
    println!(
        "# workload {}: metrics of a kind of traffic it does not send read 0",
        w.name
    );

    let ones: Vec<&Record> = nominal
        .iter()
        .copied()
        .filter(|r| r.ok() && matches!(r.op.kind, OpKind::Infer { .. }))
        .collect();
    let st: Vec<&Record> = nominal
        .iter()
        .copied()
        .filter(|r| r.ok() && matches!(r.op.kind, OpKind::Stream { .. }))
        .collect();
    let computed: Vec<&&Record> = ones
        .iter()
        .filter(|r| !r.frames[0].trace.cache_hit)
        .collect();

    // engine: echoed spans of the measured run.
    let q: Vec<f64> = computed
        .iter()
        .map(|r| r.frames[0].trace.queue_us as f64 / 1e3)
        .collect();
    let b: Vec<f64> = computed
        .iter()
        .map(|r| r.frames[0].trace.batch_us as f64 / 1e3)
        .collect();
    m.put("engine.queue_p50_ms", p(&q, 0.5), "ms");
    m.put("engine.queue_p99_ms", p(&q, 0.99), "ms");
    m.put("engine.batch_wait_p50_ms", p(&b, 0.5), "ms");
    let net_of: BTreeMap<Model, String> = Model::ALL
        .into_iter()
        .map(|md| (md, md.network().def().name().to_string()))
        .collect();
    for md in [Model::Pos, Model::Chk, Model::Ner, Model::Dig] {
        let per: Vec<f64> = replay
            .calls
            .iter()
            .filter(|c| c.net == net_of[&md])
            .map(|c| c.rows as f64 / md.rows_per_request() as f64)
            .collect();
        let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
        m.put(
            format!("engine.queries_per_dispatch.{}", md.name()),
            mean,
            "count",
        );
    }

    // executor: echoed service spans of the measured run.
    for md in Model::ALL {
        let svc: Vec<f64> = if md == Model::Textgen {
            st.iter()
                .flat_map(|r| r.frames.iter().map(|f| f.trace.service_us as f64 / 1e3))
                .collect()
        } else {
            computed
                .iter()
                .filter(|r| matches!(r.op.kind, OpKind::Infer { model, .. } if model == md))
                .map(|r| r.frames[0].trace.service_us as f64 / 1e3)
                .collect()
        };
        m.put(
            format!("executor.{}.service_p50_ms", md.name()),
            p(&svc, 0.5),
            "ms",
        );
        m.put(
            format!("executor.{}.service_p99_ms", md.name()),
            p(&svc, 0.99),
            "ms",
        );
    }

    // dnn and tensor: the traced executor's layer times against the
    // FLOPs `dnn::profile` computes from tensor shapes.
    let mut shapes = Shapes::new();
    let (mut skinny, mut wide, mut conv) = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0));
    let (mut all_flops, mut all_bytes) = (0.0, 0.0);
    for md in Model::ALL {
        let name = &net_of[&md];
        let net = &replay.nets[name];
        let layers = net.def().layers();
        let mut sum_ns = vec![0.0f64; layers.len()];
        let mut sum_flops = vec![0.0f64; layers.len()];
        let mut totals = Vec::new();
        for c in replay.calls.iter().filter(|c| &c.net == name) {
            totals.push(c.total_ns as f64 / 1e6);
            let costs = shapes.layers(net, c.rows).to_vec();
            for (i, (l, cost)) in layers.iter().zip(costs).enumerate() {
                let (flops, gemm) = (cost.flops, cost.gemm_flops);
                let ns = c.layer_ns[i] as f64;
                sum_ns[i] += ns;
                sum_flops[i] += flops;
                all_flops += flops;
                all_bytes += cost.bytes;
                match l.spec {
                    dnn::LayerSpec::InnerProduct { .. } if c.rows <= 8 => {
                        skinny = (skinny.0 + gemm, skinny.1 + ns)
                    }
                    dnn::LayerSpec::InnerProduct { .. } => wide = (wide.0 + gemm, wide.1 + ns),
                    dnn::LayerSpec::Conv(_) => conv = (conv.0 + gemm, conv.1 + ns),
                    _ => {}
                }
            }
        }
        let calls = totals.len().max(1) as f64;
        for (i, l) in layers
            .iter()
            .enumerate()
            .filter(|(_, l)| is_compute(&l.spec))
        {
            m.put(
                format!("dnn.{name}.{}.ms", l.name),
                sum_ns[i] / 1e6 / calls,
                "ms",
            );
            m.put(
                format!("dnn.{name}.{}.gflops", l.name),
                gflops(sum_flops[i], sum_ns[i]),
                "GFLOP/s",
            );
        }
        m.put(
            format!("dnn.{name}.forward_ms"),
            totals.iter().sum::<f64>() / calls,
            "ms",
        );
    }
    m.put(
        "tensor.gemm_skinny.gflops",
        gflops(skinny.0, skinny.1),
        "GFLOP/s",
    );
    m.put("tensor.gemm_wide.gflops", gflops(wide.0, wide.1), "GFLOP/s");
    m.put("tensor.conv.gflops", gflops(conv.0, conv.1), "GFLOP/s");
    let ops = replay.ops.len().max(1) as f64;
    m.put("tensor.gflop_per_req", all_flops / 1e9 / ops, "GFLOP");
    m.put("tensor.gbytes_per_req", all_bytes / 1e9 / ops, "GB");
    println!("# tensor.gflop_per_req and tensor.gbytes_per_req are computed from tensor shapes (dnn::profile), not measured");

    // cache and protocol: public calls replayed over the phase's inputs
    // and frames.
    let cc = cache_costs(nominal, seed);
    m.put("cache.hit_frac", cc.hit_frac, "frac");
    m.put("cache.lookup_us", cc.lookup_us, "us");
    m.put("cache.insert_us", cc.insert_us, "us");
    m.put("cache.evict_per_req", cc.evict_per_req, "count");
    let pc = codec_costs(nominal, seed);
    m.put("protocol.req_encode_us", pc.req_encode_us, "us");
    m.put("protocol.req_decode_us", pc.req_decode_us, "us");
    m.put("protocol.rsp_encode_us", pc.rsp_encode_us, "us");
    m.put("protocol.rsp_decode_us", pc.rsp_decode_us, "us");
    m.put("protocol.bytes_per_req", pc.bytes_per_req, "B");

    // wire and server: client round trip (from the actual send) minus the
    // server's own span, and the server span the stages do not cover.
    let mut wire = Vec::new();
    let mut other = Vec::new();
    for r in &ones {
        let (f, sent) = (&r.frames[0], r.sent_at.expect("answered ops were sent"));
        let t = &f.trace;
        let server_ms = t.server_total_us as f64 / 1e3;
        wire.push(ms(f.at.saturating_duration_since(sent)) - server_ms);
        let stages = (t.queue_us + t.batch_us + t.lease_us + t.service_us) as f64 / 1e3;
        other.push(server_ms - stages);
    }
    m.put("wire.p50_ms", p(&wire, 0.5), "ms");
    m.put("wire.p99_ms", p(&wire, 0.99), "ms");
    m.put("server.other_p50_ms", p(&other, 0.5), "ms");

    // stream: echoed per-chunk spans.
    let step: Vec<f64> = st
        .iter()
        .flat_map(|r| r.frames.iter().map(|f| f.trace.service_us as f64 / 1e3))
        .collect();
    let first: Vec<f64> = st
        .iter()
        .map(|r| r.frames[0].trace.first_token_us as f64 / 1e3)
        .collect();
    let tokens: u64 = st
        .iter()
        .map(|r| r.frames.last().map_or(0, |f| f.trace.tokens))
        .sum();
    let chunks: usize = st.iter().map(|r| r.frames.len()).sum();
    m.put("stream.step_ms_p50", p(&step, 0.5), "ms");
    m.put("stream.first_token_server_ms_p50", p(&first, 0.5), "ms");
    m.put(
        "stream.tokens_per_step",
        tokens as f64 / chunks.max(1) as f64,
        "count",
    );

    reconcile(m, replay, &computed, &net_of)
}

/// A dispatch reconciles when its summed layer times are within this
/// share of its engine service span...
pub const RECONCILE_FRAC: f64 = 0.10;
/// ...plus this much, for the fixed cost of a call around its layers.
pub const RECONCILE_SLACK_MS: f64 = 0.05;
/// Share of dispatches that must reconcile; the rest absorb preemption
/// between a layer's end and the engine's clock on a shared host.
pub const RECONCILE_MIN_SHARE: f64 = 0.99;

fn gflops(flops: f64, ns: f64) -> f64 {
    if ns > 0.0 {
        flops / ns
    } else {
        0.0
    }
}

fn reconcile(
    m: &mut Metrics,
    replay: &Replay,
    untraced: &[&&Record],
    net_of: &BTreeMap<Model, String>,
) -> bool {
    let mut checked = 0usize;
    let mut within = 0usize;
    let mut worst: f64 = 0.0;
    let mut judge = |layer_ms: f64, service_ms: f64| {
        let dev = (service_ms - layer_ms).abs();
        checked += 1;
        if dev <= RECONCILE_FRAC * service_ms + RECONCILE_SLACK_MS {
            within += 1;
        }
        worst = worst.max(dev / service_ms.max(1e-9));
    };
    // Batched one-shot engines: one dispatch worker per model, so the
    // model's executor calls and its computed replies arrive in the same
    // order; a call's replies are the next ones whose rows add up to it.
    for md in [Model::Pos, Model::Chk, Model::Ner, Model::Dig] {
        let mut replies = replay.arrivals.iter().filter(|(i, sp)| {
            !sp.cache_hit
                && matches!(replay.ops[*i].kind, OpKind::Infer { model, .. } if model == md)
        });
        for c in replay.calls.iter().filter(|c| c.net == net_of[&md]) {
            let mut rows = 0;
            let mut service_us = None;
            while rows < c.rows {
                let Some((_, sp)) = replies.next() else { break };
                rows += md.rows_per_request();
                service_us = Some(sp.service_us);
            }
            if let Some(s) = service_us {
                judge(c.layer_ns.iter().sum::<u64>() as f64 / 1e6, s as f64 / 1e3);
            }
        }
    }
    // Stream steps run on per-stream threads, so they reconcile in
    // aggregate: all decode steps' layer times against all their spans.
    let tg = &net_of[&Model::Textgen];
    let layer_ms: f64 = replay
        .calls
        .iter()
        .filter(|c| &c.net == tg)
        .map(|c| c.layer_ns.iter().sum::<u64>() as f64 / 1e6)
        .sum();
    let service_ms: f64 = replay
        .arrivals
        .iter()
        .filter(|(i, _)| matches!(replay.ops[*i].kind, OpKind::Stream { .. }))
        .map(|(_, sp)| sp.service_us as f64 / 1e3)
        .sum();
    if service_ms > 0.0 {
        judge(layer_ms, service_ms);
    }
    let share = within as f64 / checked.max(1) as f64;
    println!(
        "# reconciliation: {within}/{checked} dispatches within {RECONCILE_FRAC} x service + \
         {RECONCILE_SLACK_MS} ms (need {RECONCILE_MIN_SHARE}); worst deviation {worst:.3} of service"
    );
    m.put("trace.reconciled_frac", share, "frac");

    // Tracing overhead: engine-side time per computed one-shot request,
    // traced replay minus the measured run's echoed spans.
    let engine_ms = |sp: &djinn::EngineSpans| {
        (sp.queue_us + sp.batch_us + sp.lease_us + sp.service_us) as f64 / 1e3
    };
    let traced: Vec<f64> = replay
        .arrivals
        .iter()
        .filter(|(i, sp)| !sp.cache_hit && matches!(replay.ops[*i].kind, OpKind::Infer { .. }))
        .map(|(_, sp)| engine_ms(sp))
        .collect();
    let measured: Vec<f64> = untraced
        .iter()
        .map(|r| {
            let t = &r.frames[0].trace;
            (t.queue_us + t.batch_us + t.lease_us + t.service_us) as f64 / 1e3
        })
        .collect();
    m.put(
        "trace.overhead_p50_ms",
        p(&traced, 0.5) - p(&measured, 0.5),
        "ms",
    );
    checked > 0 && share >= RECONCILE_MIN_SHARE
}
