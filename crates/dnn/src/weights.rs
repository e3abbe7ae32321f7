//! Weight storage and initialization.

use std::borrow::Cow;

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tensor::{PackedMatrix, Shape, Tensor};

use crate::{DnnError, LayerSpec, Result};

/// How a layer's weight matrix is held in memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Weights {
    /// Parameter-free layer.
    None,
    /// Row-major tensor: convolution and locally-connected kernels.
    Dense(Tensor),
    /// Inner-product weights, packed once as the GEMM B operand so no
    /// forward pass repacks them.
    Packed(PackedMatrix),
}

/// The learned parameters of one layer: a weight matrix and a bias vector.
///
/// Inner-product layers hold their `(in, out)` weights only as a
/// [`PackedMatrix`]; convolution and locally-connected layers hold a
/// row-major [`Tensor`]. Parameter-free layers use [`LayerWeights::none`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerWeights {
    weights: Weights,
    bias: Vec<f32>,
}

impl LayerWeights {
    /// Placeholder for parameter-free layers.
    pub fn none() -> Self {
        LayerWeights {
            weights: Weights::None,
            bias: Vec::new(),
        }
    }

    /// Initializes weights for `layer` given its input shape, drawing from a
    /// deterministic uniform distribution scaled by fan-in (a simplified
    /// Xavier init — sufficient because only the architecture, not the
    /// values, matters for the paper's performance results). Biases start
    /// at zero.
    pub fn init(layer: &LayerSpec, input: &Shape, seed: u64) -> Self {
        let Some((shape, bias_len)) = param_shapes(layer, input) else {
            return LayerWeights::none();
        };
        // Fan-in is the kernel volume, i.e. the weight matrix's row count
        // for an inner product and its column count otherwise.
        let fan_in = match layer {
            LayerSpec::InnerProduct { .. } => shape.as_matrix().0,
            _ => shape.volume() / shape.dims()[0],
        };
        let scale = (1.0 / fan_in as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new_inclusive(-scale, scale);
        let mut draws = std::iter::repeat_with(|| dist.sample(&mut rng));
        LayerWeights {
            weights: fill(layer, shape, &mut draws).expect("the draws never run out"),
            bias: vec![0.0; bias_len],
        }
    }

    /// Builds the parameters of `layer` from `values`: first its weights
    /// in row-major order (the shapes [`LayerWeights::weights_row_major`]
    /// documents), then its bias. Inner-product weights go straight into
    /// the packed layout. Takes exactly [`LayerSpec::param_count`] values
    /// and leaves any further ones in the iterator.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::BadNetwork`] if `values` runs out first.
    pub(crate) fn from_values(
        layer: &LayerSpec,
        input: &Shape,
        values: impl IntoIterator<Item = f32>,
    ) -> Result<Self> {
        let Some((shape, bias_len)) = param_shapes(layer, input) else {
            return Ok(LayerWeights::none());
        };
        let short = || DnnError::BadNetwork {
            reason: format!(
                "`{}` layer needs {} parameter values",
                layer.kind_name(),
                layer.param_count(input)
            ),
        };
        let mut values = values.into_iter();
        let weights = fill(layer, shape, &mut values).ok_or_else(short)?;
        let bias: Vec<f32> = values.take(bias_len).collect();
        if bias.len() != bias_len {
            return Err(short());
        }
        Ok(LayerWeights { weights, bias })
    }

    /// The row-major weight tensor of a convolution `(out, in/groups, k, k)`
    /// or locally-connected `(locations*out, in*k*k)` layer; `None` for
    /// inner-product layers (see [`LayerWeights::packed`]) and
    /// parameter-free ones.
    pub fn dense(&self) -> Option<&Tensor> {
        match &self.weights {
            Weights::Dense(t) => Some(t),
            _ => None,
        }
    }

    /// The packed `(in, out)` weight matrix of an inner-product layer.
    pub fn packed(&self) -> Option<&PackedMatrix> {
        match &self.weights {
            Weights::Packed(p) => Some(p),
            _ => None,
        }
    }

    /// The weights in row-major order — `(in, out)` for an inner product,
    /// the [`LayerWeights::dense`] shapes otherwise. Borrowed for dense
    /// layers, a fresh copy for packed ones; off the serving path.
    pub fn weights_row_major(&self) -> Cow<'_, [f32]> {
        match &self.weights {
            Weights::None => Cow::Borrowed(&[]),
            Weights::Dense(t) => Cow::Borrowed(t.data()),
            Weights::Packed(p) => Cow::Owned(p.to_row_major()),
        }
    }

    /// Overwrites the weights with `values` in row-major order, repacking
    /// packed weights (used by the trainer's update step).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from [`LayerWeights::weight_count`].
    pub fn set_weights(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.weight_count(), "set_weights: bad length");
        match &mut self.weights {
            Weights::None => {}
            Weights::Dense(t) => t.data_mut().copy_from_slice(values),
            Weights::Packed(p) => *p = PackedMatrix::pack(p.rows(), p.cols(), values),
        }
    }

    /// Number of weight values (excluding the bias).
    pub fn weight_count(&self) -> usize {
        match &self.weights {
            Weights::None => 0,
            Weights::Dense(t) => t.len(),
            Weights::Packed(p) => p.rows() * p.cols(),
        }
    }

    /// The bias vector (empty for parameter-free layers).
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// A zero-valued gradient/velocity buffer with this entry's shapes
    /// and layout.
    pub fn zeros_like(&self) -> Self {
        let mut zeros = self.clone();
        zeros.fill_for_test(0.0, 0.0);
        zeros
    }

    /// Whether this is the parameter-free placeholder.
    pub fn is_none(&self) -> bool {
        matches!(self.weights, Weights::None)
    }

    /// Total number of stored parameters.
    pub fn param_count(&self) -> usize {
        self.weight_count() + self.bias.len()
    }

    /// Bytes occupied by the stored parameters (4 per value).
    pub fn byte_len(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Overwrites weights and biases with constants; test helper.
    pub fn fill_for_test(&mut self, weight: f32, bias: f32) {
        let values = vec![weight; self.weight_count()];
        self.set_weights(&values);
        self.bias.fill(bias);
    }
}

/// `layer`'s weight storage of `shape`, filled from row-major `values`:
/// packed for an inner product, a dense tensor otherwise. `None` if
/// `values` runs out first.
fn fill(
    layer: &LayerSpec,
    shape: Shape,
    values: &mut impl Iterator<Item = f32>,
) -> Option<Weights> {
    match layer {
        LayerSpec::InnerProduct { .. } => {
            let (k, n) = shape.as_matrix();
            PackedMatrix::from_row_major(k, n, values)
                .ok()
                .map(Weights::Packed)
        }
        _ => {
            let data = values.take(shape.volume()).collect();
            Tensor::from_vec(shape, data).ok().map(Weights::Dense)
        }
    }
}

/// The weight-matrix shape and bias length of a parameterised layer.
/// Inner-product weights are `(in, out)`.
fn param_shapes(layer: &LayerSpec, input: &Shape) -> Option<(Shape, usize)> {
    match layer {
        LayerSpec::Conv(p) => {
            let cg = input.dims()[1] / p.groups;
            Some((
                Shape::nchw(p.out_channels, cg, p.kernel, p.kernel),
                p.out_channels,
            ))
        }
        LayerSpec::Local(p) => {
            let d = input.dims();
            let oh = p.out_dim(d[2]).expect("validated by shape inference");
            let ow = p.out_dim(d[3]).expect("validated by shape inference");
            let count = oh * ow * p.out_channels;
            Some((Shape::mat(count, d[1] * p.kernel * p.kernel), count))
        }
        LayerSpec::InnerProduct { out } => Some((Shape::mat(input.as_matrix().1, *out), *out)),
        _ => None,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Conv2dParams;

    #[test]
    fn init_matches_layer_param_count() {
        let input = Shape::nchw(1, 3, 16, 16);
        let layers = [
            LayerSpec::Conv(Conv2dParams::new(8, 3, 1, 1)),
            LayerSpec::InnerProduct { out: 10 },
            LayerSpec::Local(crate::LocalParams {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                pad: 0,
            }),
        ];
        for layer in layers {
            let w = LayerWeights::init(&layer, &input, 1);
            assert_eq!(w.param_count(), layer.param_count(&input), "{layer:?}");
        }
    }

    #[test]
    fn none_has_zero_params() {
        let w = LayerWeights::none();
        assert!(w.is_none());
        assert_eq!(w.param_count(), 0);
        assert_eq!(w.byte_len(), 0);
    }

    #[test]
    fn inner_product_weights_are_packed_from_the_same_draws() {
        let layer = LayerSpec::InnerProduct { out: 37 };
        let w = LayerWeights::init(&layer, &Shape::mat(1, 300), 42);
        assert!(
            w.dense().is_none(),
            "no row-major copy beside the packed one"
        );
        let packed = w.packed().expect("inner products hold packed weights");
        assert_eq!((packed.rows(), packed.cols()), (300, 37));
        let draws = Tensor::random_uniform(Shape::mat(300, 37), (1.0f32 / 300.0).sqrt(), 42);
        assert_eq!(&*w.weights_row_major(), draws.data());
    }

    #[test]
    fn from_values_rejects_short_input_and_set_weights_round_trips() {
        let layer = LayerSpec::InnerProduct { out: 3 };
        let input = Shape::mat(1, 2);
        assert!(LayerWeights::from_values(&layer, &input, (0..8).map(|v| v as f32)).is_err());
        let mut w = LayerWeights::from_values(&layer, &input, (0..9).map(|v| v as f32)).unwrap();
        assert_eq!(&*w.weights_row_major(), &[0., 1., 2., 3., 4., 5.]);
        assert_eq!(w.bias(), &[6., 7., 8.]);
        w.set_weights(&[5., 4., 3., 2., 1., 0.]);
        assert_eq!(&*w.weights_row_major(), &[5., 4., 3., 2., 1., 0.]);
        assert_eq!(w.zeros_like().weights_row_major().iter().sum::<f32>(), 0.0);
    }

    #[test]
    fn init_is_deterministic() {
        let input = Shape::mat(1, 64);
        let layer = LayerSpec::InnerProduct { out: 16 };
        let a = LayerWeights::init(&layer, &input, 42);
        let b = LayerWeights::init(&layer, &input, 42);
        assert_eq!(a, b);
    }
}
