//! The traced run: per-layer numbers, taken apart from the measured run.
//!
//! The nominal phase's schedule is replayed in-process through
//! `InferenceEngine`, configured as the server configures it, but on an
//! executor owned by the benchmark. That executor runs each network layer
//! by layer through the public `LayerSpec::forward_with` — the loop
//! `Network::forward_with` runs — and times every call. The protocol
//! codec and the exact cache are timed by replaying the phase's own
//! frames and input sequence through their public calls.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use djinn::protocol::{encode_infer_framed_into, Request, Response, StreamMode};
use djinn::{
    DeviceScheduler, DispatchPolicy, EngineConfig, EngineSpans, Executor, InferenceEngine,
    InferenceOutcome, RoutedReply,
};
use dnn::cache::{ExactCache, InferenceCache};
use dnn::profile::WorkloadProfile;
use dnn::LayerSpec;
use dnn::Network;
use tensor::{Tensor, Threading};

use crate::drive::Record;
use crate::gen::{one_shot_input, prompt, Model, Op, OpKind};
use crate::serve::deployment;

/// One executor call: a dispatch, or one decode step of a stream.
pub struct Call {
    pub net: String,
    pub rows: usize,
    /// Wall time of each layer, in network order.
    pub layer_ns: Vec<u64>,
    pub total_ns: u64,
}

/// Runs networks layer by layer and records every call.
#[derive(Default)]
pub struct TimingExecutor {
    calls: Mutex<Vec<Call>>,
}

impl Executor for TimingExecutor {
    fn infer(&self, network: &Arc<Network>, input: &Tensor) -> djinn::Result<InferenceOutcome> {
        let start = Instant::now();
        let mut cur = input.clone();
        let mut layer_ns = Vec::with_capacity(network.def().layers().len());
        for (layer, weights) in network.def().layers().iter().zip(network.weights()) {
            let t = Instant::now();
            cur = layer.spec.forward_with(&cur, weights, Threading::SINGLE)?;
            layer_ns.push(t.elapsed().as_nanos() as u64);
        }
        let total = start.elapsed();
        self.calls
            .lock()
            .expect("call log lock poisoned by a panicking engine thread")
            .push(Call {
                net: network.def().name().to_string(),
                rows: input.shape().batch(),
                layer_ns,
                total_ns: total.as_nanos() as u64,
            });
        Ok(InferenceOutcome {
            output: cur,
            device_latency: total,
        })
    }

    fn backend_name(&self) -> &'static str {
        "cpu-traced"
    }
}

pub struct Replay {
    pub ops: Vec<Op>,
    /// Every successful reply as `(op index, spans)`, in arrival order.
    pub arrivals: Vec<(usize, EngineSpans)>,
    pub calls: Vec<Call>,
    pub nets: BTreeMap<String, Network>,
}

/// Replays `ops` on their schedule through engines built as the server
/// builds them.
pub fn replay(ops: &[Op], seed: u64) -> Replay {
    let config = deployment();
    let exec = Arc::new(TimingExecutor::default());
    let scheduler = Arc::new(DeviceScheduler::dedicated());
    let per_model_cache = (config.cache_bytes / Model::ALL.len()).max(1);
    let mut engines = BTreeMap::new();
    let mut nets = BTreeMap::new();
    for model in Model::ALL {
        let net = model.network();
        let mut bc = config.batching.expect("the deployment batches");
        if let Some(&b) = config.batch_overrides.get(model.name()) {
            bc.max_batch = b;
        }
        let engine = InferenceEngine::start_cached(
            model.name(),
            Arc::new(net.clone()),
            Arc::clone(&exec) as Arc<dyn Executor>,
            EngineConfig {
                policy: DispatchPolicy::Batched(bc),
                queue_capacity: config.queue_capacity,
                workers: config.engine_workers,
                colocation: config.colocation,
            },
            Arc::clone(&scheduler),
            InferenceCache::new(config.cache_mode, per_model_cache).map(Arc::new),
        );
        engines.insert(model, engine);
        nets.insert(net.def().name().to_string(), net);
    }
    let (tx, rx) = sync_channel::<RoutedReply>(4096);
    let mut arrivals = Vec::new();
    std::thread::scope(|s| {
        let arrivals = &mut arrivals;
        let collector = s.spawn(move || {
            let mut left = ops.len();
            while left > 0 {
                let Ok(reply) = rx.recv() else { break };
                if let Ok((_, sp)) = reply.result {
                    arrivals.push((reply.token as usize, sp));
                }
                if reply.last {
                    left -= 1;
                }
            }
        });
        let start = Instant::now() + Duration::from_millis(2);
        for (i, op) in ops.iter().enumerate() {
            let due = start + op.due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let admitted = match op.kind {
                OpKind::Infer { model, key } => engines[&model].submit_routed(
                    one_shot_input(seed, model, key),
                    i as u64,
                    tx.clone(),
                ),
                OpKind::Stream { token, tokens } => engines[&Model::Textgen].submit_stream_routed(
                    prompt(token),
                    i as u64,
                    StreamMode::Generative { max_tokens: tokens },
                    tx.clone(),
                ),
            };
            if let Err(e) = admitted {
                // A refused op gets no reply; stop waiting for it.
                let _ = tx.send(RoutedReply {
                    token: i as u64,
                    seq: 0,
                    last: true,
                    result: Err(e),
                });
            }
        }
        collector.join().expect("replay collector panicked");
    });
    for (_, engine) in engines {
        engine.shutdown();
    }
    let calls = std::mem::take(&mut *exec.calls.lock().expect("call log lock"));
    Replay {
        ops: ops.to_vec(),
        arrivals,
        calls,
        nets,
    }
}

/// Layer kinds whose time is compute, not data movement.
pub fn is_compute(spec: &LayerSpec) -> bool {
    matches!(
        spec,
        LayerSpec::Conv(_) | LayerSpec::Local(_) | LayerSpec::InnerProduct { .. }
    )
}

/// One layer's work at a batch, from `dnn::profile`: computed from
/// tensor shapes, not measured.
#[derive(Clone, Copy)]
pub struct LayerCost {
    /// All FLOPs of the layer's kernels.
    pub flops: f64,
    /// FLOPs of its GEMM kernel alone.
    pub gemm_flops: f64,
    /// DRAM bytes its kernels move.
    pub bytes: f64,
}

/// Per-layer costs by (network, batch), computed once each.
pub struct Shapes {
    cache: HashMap<(String, usize), Vec<LayerCost>>,
}

impl Shapes {
    pub fn new() -> Self {
        Shapes {
            cache: HashMap::new(),
        }
    }

    /// The cost of each layer of `net` at `rows`.
    pub fn layers(&mut self, net: &Network, rows: usize) -> &[LayerCost] {
        let key = (net.def().name().to_string(), rows);
        self.cache.entry(key).or_insert_with(|| {
            let p = WorkloadProfile::of(net.def(), rows).expect("validated network");
            net.def()
                .layers()
                .iter()
                .map(|l| {
                    let prefix = format!("{}.", l.name);
                    let mine = p.kernels.iter().filter(|k| k.name.starts_with(&prefix));
                    mine.fold(
                        LayerCost {
                            flops: 0.0,
                            gemm_flops: 0.0,
                            bytes: 0.0,
                        },
                        |c, k| LayerCost {
                            flops: c.flops + k.flops,
                            gemm_flops: c.gemm_flops
                                + if k.name.ends_with(".gemm") {
                                    k.flops
                                } else {
                                    0.0
                                },
                            bytes: c.bytes + k.bytes,
                        },
                    )
                })
                .collect()
        })
    }
}

/// Mean per-op codec costs over the phase's own frames.
pub struct CodecCosts {
    pub req_encode_us: f64,
    pub req_decode_us: f64,
    pub rsp_encode_us: f64,
    pub rsp_decode_us: f64,
    pub bytes_per_req: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn codec_costs(records: &[&Record], seed: u64) -> CodecCosts {
    let mut buf = BytesMut::new();
    let (mut req_e, mut req_d, mut rsp_e, mut rsp_d) = (0.0, 0.0, 0.0, 0.0);
    let mut bytes = 0usize;
    let mut n = 0usize;
    for r in records.iter().filter(|r| r.ok()) {
        n += 1;
        match r.op.kind {
            OpKind::Infer { model, key } => {
                let input = one_shot_input(seed, model, key);
                let t = Instant::now();
                encode_infer_framed_into(&mut buf, model.name(), &input, r.id)
                    .expect("encodable request");
                req_e += us(t.elapsed());
            }
            OpKind::Stream { token, tokens } => {
                let req = Request::StreamInfer {
                    model: "textgen".into(),
                    input: prompt(token),
                    request_id: r.id,
                    mode: StreamMode::Generative { max_tokens: tokens },
                };
                let t = Instant::now();
                req.encode_framed_into(&mut buf).expect("encodable request");
                req_e += us(t.elapsed());
            }
        }
        bytes += buf.len();
        let t = Instant::now();
        black_box(Request::decode(&buf[4..]).expect("decodable request"));
        req_d += us(t.elapsed());
        for (seq, f) in r.frames.iter().enumerate() {
            let rsp = match r.op.kind {
                OpKind::Infer { .. } => Response::Output {
                    tensor: f.tensor.clone(),
                    trace: f.trace,
                },
                OpKind::Stream { .. } => Response::Chunk {
                    tensor: f.tensor.clone(),
                    trace: f.trace,
                    seq: seq as u32,
                    last: seq + 1 == r.frames.len(),
                },
            };
            let t = Instant::now();
            rsp.encode_framed_into(&mut buf)
                .expect("encodable response");
            rsp_e += us(t.elapsed());
            bytes += buf.len();
            let t = Instant::now();
            black_box(Response::decode(&buf[4..]).expect("decodable response"));
            rsp_d += us(t.elapsed());
        }
    }
    let n = n.max(1) as f64;
    CodecCosts {
        req_encode_us: req_e / n,
        req_decode_us: req_d / n,
        rsp_encode_us: rsp_e / n,
        rsp_decode_us: rsp_d / n,
        bytes_per_req: bytes as f64 / n,
    }
}

/// Exact-cache costs replayed over the phase's one-shot input sequence.
pub struct CacheCosts {
    pub hit_frac: f64,
    pub lookup_us: f64,
    pub insert_us: f64,
    pub evict_per_req: f64,
}

pub fn cache_costs(records: &[&Record], seed: u64) -> CacheCosts {
    let budget = (deployment().cache_bytes / Model::ALL.len()).max(1);
    let mut caches: BTreeMap<Model, ExactCache> = BTreeMap::new();
    let (mut lookup, mut insert) = (0.0, 0.0);
    let (mut lookups, mut inserts, mut hits) = (0usize, 0usize, 0usize);
    for r in records.iter().filter(|r| r.ok()) {
        let OpKind::Infer { model, key } = r.op.kind else {
            continue;
        };
        let cache = caches
            .entry(model)
            .or_insert_with(|| ExactCache::new(budget));
        let input = one_shot_input(seed, model, key);
        let t = Instant::now();
        let got = black_box(cache.get(&input));
        lookup += us(t.elapsed());
        lookups += 1;
        if got.is_some() {
            hits += 1;
            continue;
        }
        let t = Instant::now();
        cache.insert(&input, &r.frames[0].tensor);
        insert += us(t.elapsed());
        inserts += 1;
    }
    let evictions: u64 = caches.values().map(|c| c.stats().evictions).sum();
    let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
    CacheCosts {
        hit_frac: per(hits as f64, lookups),
        lookup_us: per(lookup, lookups),
        insert_us: per(insert, inserts),
        evict_per_req: per(evictions as f64, lookups),
    }
}
