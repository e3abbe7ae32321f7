//! Output check: every reply against a local forward pass.
//!
//! One-shot replies are compared with `Network::forward` of the
//! regenerated input, and every stream's chunks with a local greedy
//! decode of its prompt. A row matches when its argmax equals the
//! reference's (or the reference's top two scores are within the
//! tolerance, so either pick is correct) and no element differs by more
//! than the tolerance, [`TOL`]. The reference runs batched, after the
//! server has stopped, so it costs no measured time.

use std::collections::{BTreeMap, BTreeSet};

use dnn::Network;
use tensor::{Tensor, Threading};

use crate::drive::Record;
use crate::gen::{one_shot_input, prompt, Model, OpKind, VOCAB};

/// Rows per reference forward pass.
const REF_ROWS: usize = 2048;

/// Threads the reference spends; the server has exited by then.
const REF_THREADS: usize = 2;

/// Largest difference allowed between a served and a reference score.
pub const TOL: f32 = 1e-4;

pub struct Checker {
    nets: BTreeMap<Model, Network>,
}

impl Checker {
    pub fn new() -> Self {
        let nets = Model::ALL.into_iter().map(|m| (m, m.network())).collect();
        Checker { nets }
    }

    /// Per record: completed without failure and every output row
    /// matches the reference.
    pub fn check(&self, seed: u64, records: &[&Record]) -> Vec<bool> {
        let mut wanted: BTreeMap<Model, BTreeSet<u64>> = BTreeMap::new();
        let mut prompts: BTreeSet<usize> = BTreeSet::new();
        let mut tokens = 0;
        for r in records.iter().filter(|r| r.ok()) {
            match r.op.kind {
                OpKind::Infer { model, key } => {
                    wanted.entry(model).or_default().insert(key);
                }
                OpKind::Stream { token, tokens: n } => {
                    prompts.insert(token);
                    tokens = tokens.max(n as usize);
                }
            }
        }
        let mut refs: BTreeMap<(Model, u64), Tensor> = BTreeMap::new();
        for (model, keys) in wanted {
            let keys: Vec<u64> = keys.into_iter().collect();
            let per_batch = (REF_ROWS / model.rows_per_request()).max(1);
            for chunk in keys.chunks(per_batch) {
                let inputs: Vec<Tensor> = chunk
                    .iter()
                    .map(|&k| one_shot_input(seed, model, k))
                    .collect();
                let stacked = Tensor::stack_batch_owned(inputs).expect("same-shape inputs");
                let out = self.nets[&model]
                    .forward_sharded(&stacked, Threading::new(REF_THREADS))
                    .expect("reference forward pass");
                let counts = vec![model.rows_per_request(); chunk.len()];
                let parts = out.split_batch(&counts).expect("rows split evenly");
                for (&k, part) in chunk.iter().zip(parts) {
                    refs.insert((model, k), part);
                }
            }
        }
        let decodes = self.greedy_decodes(&prompts, tokens);
        records
            .iter()
            .map(|r| {
                if !r.ok() {
                    return false;
                }
                match r.op.kind {
                    OpKind::Infer { model, key } => {
                        r.frames.len() == 1
                            && self.rows_match(&r.frames[0].tensor, &refs[&(model, key)])
                    }
                    OpKind::Stream { token, tokens } => {
                        let want = &decodes[&token];
                        r.frames.len() == tokens as usize
                            && r.frames
                                .iter()
                                .zip(want)
                                .all(|(f, w)| self.rows_match(&f.tensor, w))
                    }
                }
            })
            .collect()
    }

    /// The greedy decode of each prompt, one `1 x VOCAB` score row per
    /// step, all prompts stepped together as one batch.
    fn greedy_decodes(
        &self,
        prompts: &BTreeSet<usize>,
        tokens: usize,
    ) -> BTreeMap<usize, Vec<Tensor>> {
        let order: Vec<usize> = prompts.iter().copied().collect();
        let mut out: BTreeMap<usize, Vec<Tensor>> = order
            .iter()
            .map(|&t| (t, Vec::with_capacity(tokens)))
            .collect();
        if order.is_empty() {
            return out;
        }
        let net = &self.nets[&Model::Textgen];
        let mut cur: Vec<Tensor> = order.iter().map(|&t| prompt(t)).collect();
        for _ in 0..tokens {
            let stacked = Tensor::stack_batch_owned(cur).expect("one-hot rows");
            let scores = net
                .forward_sharded(&stacked, Threading::new(REF_THREADS))
                .expect("reference decode step");
            let rows = scores
                .split_batch(&vec![1; order.len()])
                .expect("one row per prompt");
            cur = rows.iter().map(|row| prompt(argmax(row.data()))).collect();
            for (&t, row) in order.iter().zip(rows) {
                out.get_mut(&t).expect("prompt registered").push(row);
            }
        }
        debug_assert!(out
            .values()
            .all(|v| v.iter().all(|r| r.data().len() == VOCAB)));
        out
    }

    fn rows_match(&self, got: &Tensor, want: &Tensor) -> bool {
        if got.shape() != want.shape() {
            return false;
        }
        let (rows, cols) = want.shape().as_matrix();
        (0..rows).all(|i| {
            let g = &got.data()[i * cols..(i + 1) * cols];
            let w = &want.data()[i * cols..(i + 1) * cols];
            let close = g.iter().zip(w).all(|(a, b)| (a - b).abs() <= TOL);
            let (gi, wi) = (argmax(g), argmax(w));
            close && (gi == wi || w[wi] - w[gi] <= TOL)
        })
    }
}

/// Index of the first maximum — the serving engine's greedy pick.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}
