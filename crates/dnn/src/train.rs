//! Training support: manual backpropagation and SGD for the layer types
//! the Tonic MLP/CNN architectures use.
//!
//! DjiNN serves *pretrained* models; this module is how such models come
//! to exist in a self-contained workspace. Supported layers: inner
//! product, convolution, max/avg pooling, the four activations, dropout
//! (inverted, train-time masks) and a fused softmax + cross-entropy
//! loss. Locally-connected and LRN layers are inference-only and are
//! rejected with a clear error (DeepFace/AlexNet fine-tuning is out of
//! scope; the MNIST-, SENNA- and Kaldi-class networks train end to end).
//!
//! ```
//! use dnn::{train::{SgdConfig, Trainer}, NetDef, LayerDef, LayerSpec, Network};
//! use tensor::{Shape, Tensor};
//!
//! let def = dnn::parser::parse_netdef("
//!     name: tiny
//!     input: 4
//!     layer fc1 fc out=8
//!     layer act relu
//!     layer fc2 fc out=2
//!     layer prob softmax
//! ")?;
//! let net = Network::with_random_weights(def, 1)?;
//! let mut trainer = Trainer::new(net, SgdConfig::default());
//! let x = Tensor::random_uniform(Shape::mat(4, 4), 1.0, 2);
//! let loss = trainer.step(&x, &[0, 1, 0, 1])?;
//! assert!(loss > 0.0);
//! # Ok::<(), dnn::DnnError>(())
//! ```

use tensor::{col2im, im2col, sgemm, Conv2dParams, GemmOptions, Shape, Tensor};

use crate::{ActivationKind, DnnError, LayerSpec, LayerWeights, Network, PoolKind, Result};

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Classical momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Dropout keep-probability complement (fraction dropped) applied by
    /// `Dropout` layers at train time.
    pub dropout_p: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            dropout_p: 0.5,
        }
    }
}

/// A network under training: weights, momentum buffers and the SGD
/// configuration.
#[derive(Debug, Clone)]
pub struct Trainer {
    network: Network,
    velocity: Vec<LayerWeights>,
    config: SgdConfig,
    step_count: u64,
}

impl Trainer {
    /// Wraps a network for training.
    pub fn new(network: Network, config: SgdConfig) -> Self {
        let velocity = network
            .weights()
            .iter()
            .map(LayerWeights::zeros_like)
            .collect();
        Trainer {
            network,
            velocity,
            config,
            step_count: 0,
        }
    }

    /// The network in its current state (use for evaluation between
    /// steps).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Consumes the trainer, returning the trained network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// Runs one SGD step on a minibatch: forward, fused softmax +
    /// cross-entropy against `labels`, backward, parameter update.
    /// Returns the mean cross-entropy loss.
    ///
    /// A trailing `Softmax` layer is folded into the loss (standard
    /// practice); any other final layer is treated as logits.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadInput`] if `labels.len()` differs from the
    /// batch size or a label exceeds the class count, and
    /// [`DnnError::BadLayer`] for inference-only layers (LRN,
    /// locally-connected).
    pub fn step(&mut self, input: &Tensor, labels: &[usize]) -> Result<f32> {
        let (grads, loss) = self.gradients(input, labels)?;
        self.apply(&grads);
        self.step_count += 1;
        Ok(loss)
    }

    /// Computes per-layer gradients and the minibatch loss without
    /// updating parameters (exposed for gradient-checking tests).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Trainer::step`].
    pub fn gradients(&self, input: &Tensor, labels: &[usize]) -> Result<(Vec<LayerWeights>, f32)> {
        let layers = self.network.def().layers();
        // Forward, caching every layer input (and dropout masks).
        let mut caches: Vec<Tensor> = Vec::with_capacity(layers.len());
        let mut masks: Vec<Option<Tensor>> = Vec::with_capacity(layers.len());
        let mut cur = input.clone();
        let train_softmax_last = matches!(layers.last().map(|l| &l.spec), Some(LayerSpec::Softmax));
        let active_layers = if train_softmax_last {
            &layers[..layers.len() - 1]
        } else {
            layers
        };
        for (i, l) in active_layers.iter().enumerate() {
            caches.push(cur.clone());
            match &l.spec {
                LayerSpec::Lrn(_) | LayerSpec::Local(_) => {
                    return Err(DnnError::BadLayer {
                        layer: l.name.clone(),
                        reason: "layer is inference-only; training is not supported".into(),
                    })
                }
                LayerSpec::Dropout => {
                    // Inverted dropout with a deterministic per-step mask.
                    let keep = 1.0 - self.config.dropout_p;
                    let mask = Tensor::random_uniform(
                        cur.shape().clone(),
                        1.0,
                        0xD409 ^ self.step_count.wrapping_mul(31) ^ i as u64,
                    )
                    .map(|v| {
                        if (v + 1.0) / 2.0 < keep {
                            1.0 / keep
                        } else {
                            0.0
                        }
                    });
                    let mut dropped = cur.clone();
                    for (v, m) in dropped.data_mut().iter_mut().zip(mask.data()) {
                        *v *= m;
                    }
                    masks.push(Some(mask));
                    cur = dropped;
                    continue;
                }
                spec => {
                    cur = spec.forward(&cur, &self.network.weights()[i])?;
                }
            }
            masks.push(None);
        }

        // Fused softmax + cross-entropy on the logits.
        let (batch, classes) = cur.shape().as_matrix();
        if labels.len() != batch {
            return Err(DnnError::BadInput {
                expected: vec![batch],
                actual: vec![labels.len()],
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(DnnError::BadInput {
                expected: vec![classes],
                actual: vec![bad],
            });
        }
        let mut probs = cur.clone();
        tensor::softmax_rows(&mut probs);
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        for (b, &label) in labels.iter().enumerate() {
            let p = probs.at2(b, label).max(1e-12);
            loss -= p.ln();
            grad.data_mut()[b * classes + label] -= 1.0;
        }
        loss /= batch as f32;
        grad.map_inplace(|v| v / batch as f32);

        // Backward.
        let mut grads: Vec<LayerWeights> = self
            .network
            .weights()
            .iter()
            .map(LayerWeights::zeros_like)
            .collect();
        let mut dy = grad;
        for (i, l) in active_layers.iter().enumerate().rev() {
            let x = &caches[i];
            dy = match &l.spec {
                LayerSpec::InnerProduct { .. } => {
                    backward_inner_product(x, &dy, &self.network.weights()[i], &mut grads[i])?
                }
                LayerSpec::Conv(p) => {
                    backward_conv(x, &dy, p, &self.network.weights()[i], &mut grads[i])?
                }
                LayerSpec::Activation(a) => backward_activation(*a, x, &dy),
                LayerSpec::Pool(kind, p) => backward_pool(*kind, x, &dy, p)?,
                LayerSpec::Dropout => {
                    let mask = masks[i].as_ref().expect("dropout cached its mask");
                    let mut dx = dy;
                    for (v, m) in dx.data_mut().iter_mut().zip(mask.data()) {
                        *v *= m;
                    }
                    dx
                }
                LayerSpec::Softmax => dy, // only reachable mid-network; identity-ish
                LayerSpec::Lrn(_) | LayerSpec::Local(_) => unreachable!("rejected in forward"),
            };
        }
        Ok((grads, loss))
    }

    fn apply(&mut self, grads: &[LayerWeights]) {
        let cfg = self.config;
        for ((w, v), g) in self
            .network
            .weights_mut()
            .iter_mut()
            .zip(&mut self.velocity)
            .zip(grads)
        {
            if w.is_none() {
                continue;
            }
            let decay = cfg.weight_decay;
            let mut wvals = w.weights_row_major().into_owned();
            let mut vvals = v.weights_row_major().into_owned();
            for ((wv, vv), gv) in wvals
                .iter_mut()
                .zip(&mut vvals)
                .zip(g.weights_row_major().iter())
            {
                *vv = cfg.momentum * *vv - cfg.lr * (gv + decay * *wv);
                *wv += *vv;
            }
            w.set_weights(&wvals);
            v.set_weights(&vvals);
            for ((wb, vb), gb) in w.bias_mut().iter_mut().zip(v.bias_mut()).zip(g.bias()) {
                *vb = cfg.momentum * *vb - cfg.lr * gb;
                *wb += *vb;
            }
        }
    }
}

/// dX, and accumulates dW/db, for `y = x W + b` with `x: (B, in)`,
/// `W: (in, out)`.
fn backward_inner_product(
    x: &Tensor,
    dy: &Tensor,
    w: &LayerWeights,
    grad: &mut LayerWeights,
) -> Result<Tensor> {
    let (b, in_dim) = x.shape().as_matrix();
    let (_, out_dim) = dy.shape().as_matrix();
    let x_flat = x.data();
    // dW = x^T dy  (in x out)
    let mut dw = vec![0.0f32; in_dim * out_dim];
    sgemm(
        in_dim,
        out_dim,
        b,
        1.0,
        x_flat,
        dy.data(),
        0.0,
        &mut dw,
        GemmOptions {
            trans_a: true,
            ..GemmOptions::default()
        },
    )?;
    grad.set_weights(&dw);
    // db = column sums of dy
    for row in 0..b {
        for (gb, v) in grad
            .bias_mut()
            .iter_mut()
            .zip(&dy.data()[row * out_dim..(row + 1) * out_dim])
        {
            *gb += v;
        }
    }
    // dX = dy W^T  (B x in)
    let mut dx = Tensor::zeros(Shape::mat(b, in_dim));
    sgemm(
        b,
        in_dim,
        out_dim,
        1.0,
        dy.data(),
        &w.weights_row_major(),
        0.0,
        dx.data_mut(),
        GemmOptions {
            trans_b: true,
            ..GemmOptions::default()
        },
    )?;
    dx.reshape(x.shape().clone()).map_err(DnnError::from)
}

/// dX, and accumulates dW/db, for a (possibly grouped) convolution.
fn backward_conv(
    x: &Tensor,
    dy: &Tensor,
    p: &Conv2dParams,
    _w: &LayerWeights,
    grad: &mut LayerWeights,
) -> Result<Tensor> {
    let d = x.shape().dims();
    let (n, c, h, w_dim) = (d[0], d[1], d[2], d[3]);
    let od = dy.shape().dims();
    let (oh, ow) = (od[2], od[3]);
    let cg = c / p.groups;
    let og = p.out_channels / p.groups;
    let kk = p.kernel * p.kernel;
    let wk = cg * kk;
    let group_params = Conv2dParams {
        out_channels: og,
        groups: 1,
        ..*p
    };
    let mut dx = Tensor::zeros(x.shape().clone());
    let per_in = c * h * w_dim;
    let per_out = p.out_channels * oh * ow;
    let weights = _w.weights_row_major();
    let mut dw = vec![0.0f32; grad.weight_count()];
    for img in 0..n {
        for g in 0..p.groups {
            let img_slice = &x.data()[img * per_in + g * cg * h * w_dim..][..cg * h * w_dim];
            let img_t = Tensor::from_vec(Shape::nchw(1, cg, h, w_dim), img_slice.to_vec())?;
            let cols = im2col(&img_t, cg, h, w_dim, &group_params)?;
            let dy_slice = &dy.data()[img * per_out + g * og * oh * ow..][..og * oh * ow];
            // dW += dY (og x ohw) . cols^T (ohw x wk)
            let gw = &mut dw[g * og * wk..(g + 1) * og * wk];
            sgemm(
                og,
                wk,
                oh * ow,
                1.0,
                dy_slice,
                cols.data(),
                1.0,
                gw,
                GemmOptions {
                    trans_b: true,
                    ..GemmOptions::default()
                },
            )?;
            // db += row sums of dY
            for oc in 0..og {
                let sum: f32 = dy_slice[oc * oh * ow..(oc + 1) * oh * ow].iter().sum();
                grad.bias_mut()[g * og + oc] += sum;
            }
            // dcols = W^T (wk x og) . dY (og x ohw)
            let w_slice = &weights[g * og * wk..(g + 1) * og * wk];
            let mut dcols = Tensor::zeros(Shape::mat(wk, oh * ow));
            sgemm(
                wk,
                oh * ow,
                og,
                1.0,
                w_slice,
                dy_slice,
                0.0,
                dcols.data_mut(),
                GemmOptions {
                    trans_a: true,
                    ..GemmOptions::default()
                },
            )?;
            let dimg = col2im(&dcols, cg, h, w_dim, &group_params)?;
            let out_slice =
                &mut dx.data_mut()[img * per_in + g * cg * h * w_dim..][..cg * h * w_dim];
            for (o, v) in out_slice.iter_mut().zip(dimg.data()) {
                *o += v;
            }
        }
    }
    grad.set_weights(&dw);
    Ok(dx)
}

fn backward_activation(kind: ActivationKind, x: &Tensor, dy: &Tensor) -> Tensor {
    let mut dx = dy.clone();
    match kind {
        ActivationKind::Relu => {
            for (g, &xi) in dx.data_mut().iter_mut().zip(x.data()) {
                if xi <= 0.0 {
                    *g = 0.0;
                }
            }
        }
        ActivationKind::Tanh => {
            for (g, &xi) in dx.data_mut().iter_mut().zip(x.data()) {
                let y = xi.tanh();
                *g *= 1.0 - y * y;
            }
        }
        ActivationKind::Sigmoid => {
            for (g, &xi) in dx.data_mut().iter_mut().zip(x.data()) {
                let y = 1.0 / (1.0 + (-xi).exp());
                *g *= y * (1.0 - y);
            }
        }
        ActivationKind::HardTanh => {
            for (g, &xi) in dx.data_mut().iter_mut().zip(x.data()) {
                if !(-1.0..=1.0).contains(&xi) {
                    *g = 0.0;
                }
            }
        }
    }
    dx
}

fn backward_pool(
    kind: PoolKind,
    x: &Tensor,
    dy: &Tensor,
    p: &tensor::Pool2dParams,
) -> Result<Tensor> {
    let d = x.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let od = dy.shape().dims();
    let (oh, ow) = (od[2], od[3]);
    let mut dx = Tensor::zeros(x.shape().clone());
    let xd = x.data();
    let dyd = dy.data();
    for img in 0..n {
        for ch in 0..c {
            let base = (img * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dyd[((img * c + ch) * oh + oy) * ow + ox];
                    // Collect valid window positions.
                    let mut best: Option<(usize, f32)> = None;
                    let mut count = 0usize;
                    let mut valid: [usize; 16] = [0; 16];
                    for ky in 0..p.kernel {
                        let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..p.kernel {
                            let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let idx = base + iy as usize * w + ix as usize;
                            if count < valid.len() {
                                valid[count] = idx;
                            }
                            count += 1;
                            let v = xd[idx];
                            if best.map(|(_, b)| v > b).unwrap_or(true) {
                                best = Some((idx, v));
                            }
                        }
                    }
                    match kind {
                        PoolKind::Max => {
                            if let Some((idx, _)) = best {
                                dx.data_mut()[idx] += g;
                            }
                        }
                        PoolKind::Avg => {
                            if count > 0 && count <= valid.len() {
                                let share = g / count as f32;
                                for &idx in &valid[..count] {
                                    dx.data_mut()[idx] += share;
                                }
                            } else if count > 0 {
                                // Window larger than the small-window fast
                                // path: recompute positions.
                                let share = g / count as f32;
                                for ky in 0..p.kernel {
                                    let iy = (oy * p.stride + ky) as isize - p.pad as isize;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    for kx in 0..p.kernel {
                                        let ix = (ox * p.stride + kx) as isize - p.pad as isize;
                                        if ix < 0 || ix >= w as isize {
                                            continue;
                                        }
                                        dx.data_mut()[base + iy as usize * w + ix as usize] +=
                                            share;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(dx)
}

/// Classification accuracy of `network` over labeled items: the
/// evaluation half of a train/eval loop.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn evaluate(network: &Network, items: &[(Tensor, usize)]) -> Result<f64> {
    if items.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for (input, label) in items {
        let out = network.forward(input)?;
        if out.row_argmax(0) == *label {
            correct += 1;
        }
    }
    Ok(correct as f64 / items.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LayerDef, NetDef};

    fn mlp(seed: u64) -> Network {
        let def = NetDef::new(
            "mlp",
            Shape::mat(1, 6),
            vec![
                LayerDef {
                    name: "fc1".into(),
                    spec: LayerSpec::InnerProduct { out: 12 },
                },
                LayerDef {
                    name: "act".into(),
                    spec: LayerSpec::Activation(ActivationKind::Tanh),
                },
                LayerDef {
                    name: "fc2".into(),
                    spec: LayerSpec::InnerProduct { out: 3 },
                },
                LayerDef {
                    name: "prob".into(),
                    spec: LayerSpec::Softmax,
                },
            ],
        )
        .unwrap();
        Network::with_random_weights(def, seed).unwrap()
    }

    fn convnet(seed: u64) -> Network {
        let def = NetDef::new(
            "convnet",
            Shape::nchw(1, 1, 8, 8),
            vec![
                LayerDef {
                    name: "conv1".into(),
                    spec: LayerSpec::Conv(Conv2dParams::new(4, 3, 1, 1)),
                },
                LayerDef {
                    name: "relu1".into(),
                    spec: LayerSpec::Activation(ActivationKind::Relu),
                },
                LayerDef {
                    name: "pool1".into(),
                    spec: LayerSpec::Pool(PoolKind::Max, tensor::Pool2dParams::new(2, 2, 0)),
                },
                LayerDef {
                    name: "fc".into(),
                    spec: LayerSpec::InnerProduct { out: 4 },
                },
                LayerDef {
                    name: "prob".into(),
                    spec: LayerSpec::Softmax,
                },
            ],
        )
        .unwrap();
        Network::with_random_weights(def, seed).unwrap()
    }

    /// Numerical gradient check: analytic dL/dw vs central differences.
    fn grad_check(net: Network, input: Tensor, labels: Vec<usize>) {
        let trainer = Trainer::new(net, SgdConfig::default());
        let (grads, _) = trainer.gradients(&input, &labels).unwrap();
        let eps = 1e-2f32;
        let mut checked = 0usize;
        #[allow(clippy::needless_range_loop)] // li indexes two parallel structures
        for li in 0..trainer.network().weights().len() {
            if trainer.network().weights()[li].is_none() {
                continue;
            }
            let count = trainer.network().weights()[li].weight_count();
            // Probe a handful of parameters per layer.
            for pi in (0..count).step_by((count / 5).max(1)) {
                let loss_at = |delta: f32| -> f32 {
                    let mut n = trainer.network().clone();
                    let lw = &mut n.weights_mut()[li];
                    let mut values = lw.weights_row_major().into_owned();
                    values[pi] += delta;
                    lw.set_weights(&values);
                    let t = Trainer::new(n, SgdConfig::default());
                    t.gradients(&input, &labels).unwrap().1
                };
                let numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
                let analytic = grads[li].weights_row_major()[pi];
                let denom = numeric.abs().max(analytic.abs()).max(1e-3);
                assert!(
                    (numeric - analytic).abs() / denom < 0.15,
                    "layer {li} param {pi}: numeric {numeric} vs analytic {analytic}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 5, "gradient check probed too few parameters");
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let input = Tensor::random_uniform(Shape::mat(3, 6), 1.0, 7);
        grad_check(mlp(3), input, vec![0, 1, 2]);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let input = Tensor::random_uniform(Shape::nchw(2, 1, 8, 8), 1.0, 9);
        grad_check(convnet(4), input, vec![1, 3]);
    }

    #[test]
    fn training_reduces_loss_on_a_separable_task() {
        // Two Gaussian-ish blobs: class = sign of the first feature.
        let net = mlp(11);
        let mut trainer = Trainer::new(net, SgdConfig::default());
        let make_batch = |seed: u64| {
            let x = Tensor::random_uniform(Shape::mat(16, 6), 1.0, seed);
            let labels: Vec<usize> = (0..16)
                .map(|r| if x.at2(r, 0) > 0.0 { 0 } else { 1 })
                .collect();
            (x, labels)
        };
        let (x0, y0) = make_batch(100);
        let first = trainer.gradients(&x0, &y0).unwrap().1;
        for step in 0..200 {
            let (x, y) = make_batch(100 + step % 20);
            trainer.step(&x, &y).unwrap();
        }
        let last = trainer.gradients(&x0, &y0).unwrap().1;
        assert!(last < first * 0.5, "loss did not halve: {first} -> {last}");
    }

    #[test]
    fn trained_network_classifies_held_out_data() {
        let net = convnet(13);
        let mut trainer = Trainer::new(
            net,
            SgdConfig {
                lr: 0.1,
                dropout_p: 0.0,
                ..SgdConfig::default()
            },
        );
        // Task: which quadrant of the 8x8 image holds the bright blob.
        let sample = |seed: u64| -> (Tensor, usize) {
            let q = (seed % 4) as usize;
            let (cy, cx) = [(2i64, 2i64), (2, 6), (6, 2), (6, 6)][q];
            let img = Tensor::from_fn(Shape::nchw(1, 1, 8, 8), |i| {
                let y = (i / 8) as i64;
                let x = (i % 8) as i64;
                if (x - cx).abs() <= 1 && (y - cy).abs() <= 1 {
                    1.0
                } else {
                    0.0
                }
            });
            (img, q)
        };
        for epoch in 0..60 {
            let items: Vec<(Tensor, usize)> = (0..8).map(|i| sample(epoch * 8 + i)).collect();
            let tensors: Vec<Tensor> = items.iter().map(|(t, _)| t.clone()).collect();
            let labels: Vec<usize> = items.iter().map(|(_, l)| *l).collect();
            let batch = Tensor::stack_batch(&tensors).unwrap();
            trainer.step(&batch, &labels).unwrap();
        }
        let net = trainer.into_network();
        let mut correct = 0;
        for seed in 1000..1040 {
            let (img, label) = sample(seed);
            let out = net.forward(&img).unwrap();
            if out.row_argmax(0) == label {
                correct += 1;
            }
        }
        assert!(correct >= 36, "only {correct}/40 correct");
    }

    #[test]
    fn evaluate_scores_a_perfect_and_empty_set() {
        let net = mlp(2);
        let x = Tensor::random_uniform(Shape::mat(1, 6), 1.0, 4);
        let label = net.forward(&x).unwrap().row_argmax(0);
        let acc = evaluate(&net, &[(x, label)]).unwrap();
        assert_eq!(acc, 1.0);
        assert_eq!(evaluate(&net, &[]).unwrap(), 0.0);
    }

    #[test]
    fn inference_only_layers_are_rejected() {
        let net = crate::zoo::network(crate::zoo::App::Face).unwrap();
        let mut trainer = Trainer::new(net, SgdConfig::default());
        let input = Tensor::zeros(Shape::nchw(1, 3, 152, 152));
        let err = trainer.step(&input, &[0]).unwrap_err();
        assert!(matches!(err, DnnError::BadLayer { .. }), "{err}");
    }

    #[test]
    fn bad_labels_are_rejected() {
        let mut trainer = Trainer::new(mlp(1), SgdConfig::default());
        let input = Tensor::zeros(Shape::mat(2, 6));
        assert!(trainer.step(&input, &[0]).is_err()); // wrong count
        assert!(trainer.step(&input, &[0, 99]).is_err()); // class out of range
    }

    #[test]
    fn senna_class_network_trains() {
        // The actual SENNA architecture (fc-hardtanh-fc) must be trainable.
        let def = crate::zoo::senna("senna-train", 9);
        let net = Network::with_random_weights(def, 5).unwrap();
        let mut trainer = Trainer::new(
            net,
            SgdConfig {
                lr: 0.02,
                ..SgdConfig::default()
            },
        );
        let x = Tensor::random_uniform(Shape::mat(8, 350), 0.5, 6);
        let labels = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let first = trainer.gradients(&x, &labels).unwrap().1;
        for _ in 0..100 {
            trainer.step(&x, &labels).unwrap();
        }
        let last = trainer.gradients(&x, &labels).unwrap().1;
        assert!(last < first * 0.3, "{first} -> {last}");
    }
}
