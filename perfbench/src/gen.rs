//! Seeded traffic: arrival schedules, model mixes and input tensors.
//!
//! Everything here is a pure function of the run's seed, so the same
//! seed sends byte-identical inputs on the same schedule, and the output
//! check can regenerate any input from its key instead of keeping it.

use std::time::Duration;

use djinn::workload::{xorshift64, ZipfSampler};
use tensor::{Shape, Tensor};

/// A seeded stream of `djinn::workload::xorshift64` draws, the PRNG the
/// load generator uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named sub-stream of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Self {
        // xorshift never leaves a zero state, so never start in it.
        Rng(mix(seed, stream) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        xorshift64(&mut self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A Zipf rank drawn from this stream.
    pub fn rank(&mut self, zipf: &ZipfSampler) -> usize {
        zipf.sample(&mut self.0)
    }
}

/// Hashes two words into one well-mixed seed (the SplitMix64 finalizer).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b.rotate_left(32).wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The models the benchmark's server deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Model {
    Pos,
    Chk,
    Ner,
    Dig,
    Textgen,
}

impl Model {
    pub const ALL: [Model; 5] = [
        Model::Pos,
        Model::Chk,
        Model::Ner,
        Model::Dig,
        Model::Textgen,
    ];

    /// The name the server registers the model under.
    pub fn name(self) -> &'static str {
        match self {
            Model::Pos => "pos",
            Model::Chk => "chk",
            Model::Ner => "ner",
            Model::Dig => "dig",
            Model::Textgen => "textgen",
        }
    }

    /// Batch rows one request carries: a 28-word sentence, 100 digit
    /// images (paper Table 3), or one token.
    pub fn rows_per_request(self) -> usize {
        match self {
            Model::Pos | Model::Chk | Model::Ner => 28,
            Model::Dig => 100,
            Model::Textgen => 1,
        }
    }

    /// The served network, built exactly as the server builds it.
    pub fn network(self) -> dnn::Network {
        let built = match self {
            Model::Pos => dnn::zoo::network(dnn::zoo::App::Pos),
            Model::Chk => dnn::zoo::network(dnn::zoo::App::Chk),
            Model::Ner => dnn::zoo::network(dnn::zoo::App::Ner),
            Model::Dig => dnn::zoo::network(dnn::zoo::App::Dig),
            // The same fixed seed `djinn-server --lm` uses.
            Model::Textgen => dnn::Network::with_random_weights(dnn::zoo::textgen(), 0x7E47),
        };
        built.expect("zoo networks are statically valid")
    }
}

/// The vocabulary of the `textgen` model (its input row width).
pub const VOCAB: usize = 256;

/// Tokens every stream generates.
pub const TOKENS: u32 = 64;

/// The one-shot input with `key` for `model`: SENNA window features in
/// [-1, 1) or digit pixels in [0, 1).
pub fn one_shot_input(seed: u64, model: Model, key: u64) -> Tensor {
    let mut rng = Rng::derive(mix(seed, model as u64 + 1), key);
    let rows = model.rows_per_request();
    let (shape, lo, span) = match model {
        Model::Dig => (Shape::nchw(rows, 1, 28, 28), 0.0, 1.0),
        Model::Textgen => panic!("textgen takes streams, not one-shot inputs"),
        _ => (Shape::mat(rows, 350), -1.0, 2.0),
    };
    let data = (0..shape.volume())
        .map(|_| (lo + span * rng.unit()) as f32)
        .collect();
    Tensor::from_vec(shape, data).expect("volume matches shape")
}

/// The prompt token of the stream with `key`.
pub fn token_for(seed: u64, key: u64) -> usize {
    (Rng::derive(mix(seed, 0x5EED), key).next_u64() % VOCAB as u64) as usize
}

/// A one-hot `1 x VOCAB` prompt row.
pub fn prompt(token: usize) -> Tensor {
    let mut row = vec![0.0f32; VOCAB];
    row[token] = 1.0;
    Tensor::from_vec(Shape::mat(1, VOCAB), row).expect("one row")
}

/// What one scheduled operation sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A one-shot `Infer` of `model` on input `key`.
    Infer { model: Model, key: u64 },
    /// A generative `textgen` stream of `tokens` tokens from the prompt
    /// `token`.
    Stream { token: usize, tokens: u32 },
}

/// One scheduled operation of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it is due, from the phase start.
    pub due: Duration,
    pub kind: OpKind,
}

/// One arrival process: Poisson arrivals over a weighted model mix.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// `(model, weight)`; a `Textgen` entry means streams.
    pub mix: &'static [(Model, f64)],
    /// Draws one-shot keys Zipf-distributed from a pool per model; without
    /// it, every request gets a key never used before in the run.
    pub zipf: Option<ZipfSampler>,
}

impl Traffic {
    /// Arrivals at `rate`/s over `span`, drawn from `rng`: a Poisson
    /// process conditioned on its count, so exactly `rate x span`
    /// operations arrive at independent uniform times, and the mix
    /// splits them in exact proportion (largest remainder) in shuffled
    /// order. Only where and what arrive is random, not how much, which
    /// keeps a run's load from drifting with the seed. `next_key`
    /// numbers unique keys across the whole run.
    pub fn schedule(
        &self,
        seed: u64,
        rng: &mut Rng,
        rate: f64,
        span: Duration,
        next_key: &mut u64,
    ) -> Vec<Op> {
        let n = (rate * span.as_secs_f64()).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * span.as_secs_f64()).collect();
        times.sort_by(f64::total_cmp);
        let mut models = exact_mix(self.mix, n);
        for i in (1..models.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            models.swap(i, j);
        }
        times
            .into_iter()
            .zip(models)
            .map(|(t, model)| {
                let key = match &self.zipf {
                    Some(zipf) => rng.rank(zipf) as u64,
                    None => {
                        *next_key += 1;
                        *next_key
                    }
                };
                let kind = match model {
                    Model::Textgen => OpKind::Stream {
                        token: token_for(seed, key),
                        tokens: TOKENS,
                    },
                    _ => OpKind::Infer { model, key },
                };
                Op {
                    due: Duration::from_secs_f64(t),
                    kind,
                }
            })
            .collect()
    }
}

/// `n` models in the mix's proportions, by largest remainder.
fn exact_mix(mix: &[(Model, f64)], n: usize) -> Vec<Model> {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let quotas: Vec<f64> = mix.iter().map(|(_, w)| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..mix.len()).collect();
    order.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    for &i in order.iter().cycle().take(n - counts.iter().sum::<usize>()) {
        counts[i] += 1;
    }
    mix.iter()
        .zip(counts)
        .flat_map(|((m, _), c)| std::iter::repeat_n(*m, c))
        .collect()
}
