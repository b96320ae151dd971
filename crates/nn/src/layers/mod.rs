//! Network layers: dense, convolution, pooling, and activation.

pub mod conv;
pub mod dense;

pub use conv::{Conv2d, MaxPool2d, Shape3};
pub use dense::Dense;

/// Rectified linear unit over a fixed-length activation vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relu {
    len: usize,
}

impl Relu {
    /// Creates a ReLU over activations of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "relu length must be positive");
        Self { len }
    }

    /// Activation length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// ReLU is never zero-length; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forward pass.
    #[must_use]
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        x.iter().map(|&v| v.max(0.0)).collect()
    }

    /// Backward pass: gradient passes where the *input* was positive.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[must_use]
    pub fn backward(&self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), dy.len(), "relu gradient length mismatch");
        x.iter()
            .zip(dy)
            .map(|(&xi, &g)| if xi > 0.0 { g } else { 0.0 })
            .collect()
    }
}

/// Per-layer data cached by the training forward pass.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerCache {
    /// No extra state beyond the layer input.
    None,
    /// Max-pool winner indices.
    PoolIndices(Vec<u32>),
}

/// Parameter gradients of one layer (empty for parameter-free layers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamGrads {
    /// Weight gradient, flattened in the layer's own layout.
    pub weights: Vec<f32>,
    /// Bias gradient.
    pub bias: Vec<f32>,
}

/// A network layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// Fully-connected layer.
    Dense(Dense),
    /// Element-wise ReLU.
    Relu(Relu),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// 2x2 max pooling.
    MaxPool2d(MaxPool2d),
}

impl Layer {
    /// Input activation length per sample.
    #[must_use]
    pub fn in_len(&self) -> usize {
        match self {
            Self::Dense(d) => d.in_features(),
            Self::Relu(r) => r.len(),
            Self::Conv2d(c) => c.in_shape().len(),
            Self::MaxPool2d(p) => p.in_shape().len(),
        }
    }

    /// Output activation length per sample.
    #[must_use]
    pub fn out_len(&self) -> usize {
        match self {
            Self::Dense(d) => d.out_features(),
            Self::Relu(r) => r.len(),
            Self::Conv2d(c) => c.out_shape().len(),
            Self::MaxPool2d(p) => p.out_shape().len(),
        }
    }

    /// Whether the layer carries trainable parameters.
    #[must_use]
    pub fn has_parameters(&self) -> bool {
        matches!(self, Self::Dense(_) | Self::Conv2d(_))
    }

    /// Number of weight parameters (0 for parameter-free layers).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        match self {
            Self::Dense(d) => d.in_features() * d.out_features(),
            Self::Conv2d(c) => c.weights().len(),
            _ => 0,
        }
    }

    /// Multiply-accumulate operations per sample (0 for non-compute layers).
    #[must_use]
    pub fn macs_per_sample(&self) -> u64 {
        match self {
            Self::Dense(d) => (d.in_features() * d.out_features()) as u64,
            Self::Conv2d(c) => c.macs_per_sample(),
            _ => 0,
        }
    }

    /// Inference-only forward pass.
    #[must_use]
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        match self {
            Self::Dense(d) => d.forward(x, batch),
            Self::Relu(r) => r.forward(x),
            Self::Conv2d(c) => c.forward(x, batch),
            Self::MaxPool2d(p) => p.forward(x, batch),
        }
    }

    /// Training forward pass, returning the output and any cache the
    /// backward pass needs.
    #[must_use]
    pub fn forward_train(&self, x: &[f32], batch: usize) -> (Vec<f32>, LayerCache) {
        match self {
            Self::MaxPool2d(p) => {
                let (y, idx) = p.forward_with_indices(x, batch);
                (y, LayerCache::PoolIndices(idx))
            }
            other => (other.forward(x, batch), LayerCache::None),
        }
    }

    /// Backward pass: returns the input gradient and, for parameterized
    /// layers, the parameter gradients. The input gradient is left empty
    /// unless `input_grad` asks for it — the first layer's has no consumer,
    /// so training skips it.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not match the layer kind.
    #[must_use]
    pub fn backward(
        &self,
        x: &[f32],
        cache: &LayerCache,
        dy: &[f32],
        batch: usize,
        input_grad: bool,
    ) -> (Vec<f32>, Option<ParamGrads>) {
        match self {
            Self::Dense(d) => {
                let (dx, dw, db) = d.backward(x, dy, batch, input_grad);
                (
                    dx,
                    Some(ParamGrads {
                        weights: dw.into_vec(),
                        bias: db,
                    }),
                )
            }
            Self::Conv2d(c) => {
                let (dx, dw, db) = c.backward(x, dy, batch, input_grad);
                (
                    dx,
                    Some(ParamGrads {
                        weights: dw,
                        bias: db,
                    }),
                )
            }
            _ if !input_grad => (Vec::new(), None),
            Self::Relu(r) => (r.backward(x, dy), None),
            Self::MaxPool2d(p) => {
                let LayerCache::PoolIndices(idx) = cache else {
                    panic!("max-pool backward requires pool indices in the cache");
                };
                (p.backward(idx, dy, batch), None)
            }
        }
    }

    /// Zeroed parameter gradients shaped like this layer's parameters
    /// (empty for parameter-free layers) — e.g. SGD momentum buffers.
    #[must_use]
    pub(crate) fn zero_grads(&self) -> ParamGrads {
        let bias = match self {
            Self::Dense(d) => d.out_features(),
            Self::Conv2d(c) => c.bias().len(),
            _ => 0,
        };
        ParamGrads {
            weights: vec![0.0; self.weight_count()],
            bias: vec![0.0; bias],
        }
    }

    /// Applies a parameter update (no-op for parameter-free layers).
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes mismatch the layer.
    pub fn apply_update(&mut self, grads: &ParamGrads, lr: f32) {
        match self {
            Self::Dense(d) => d.apply_update(&grads.weights, &grads.bias, lr),
            Self::Conv2d(c) => c.apply_update(&grads.weights, &grads.bias, lr),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_clamps_negatives_and_routes_gradient() {
        let r = Relu::new(4);
        let x = [-1.0, 0.0, 2.0, -0.5];
        assert_eq!(r.forward(&x), vec![0.0, 0.0, 2.0, 0.0]);
        let dx = r.backward(&x, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(dx, vec![0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn layer_lengths_chain_consistently() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Layer::Conv2d(Conv2d::new(Shape3::new(1, 8, 8), 4, 3, 1, &mut rng));
        let pool = Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8)));
        let dense = Layer::Dense(Dense::new(4 * 16, 10, &mut rng));
        assert_eq!(conv.out_len(), pool.in_len());
        assert_eq!(pool.out_len(), dense.in_len());
        assert_eq!(dense.out_len(), 10);
    }

    #[test]
    fn parameter_introspection() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Layer::Dense(Dense::new(5, 3, &mut rng));
        assert!(d.has_parameters());
        assert_eq!(d.weight_count(), 15);
        assert_eq!(d.macs_per_sample(), 15);
        let r = Layer::Relu(Relu::new(8));
        assert!(!r.has_parameters());
        assert_eq!(r.weight_count(), 0);
    }

    #[test]
    fn forward_train_matches_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Layer::Dense(Dense::new(4, 2, &mut rng));
        let x = [0.5, -0.5, 1.0, 0.0];
        let (y_train, cache) = layer.forward_train(&x, 1);
        assert_eq!(y_train, layer.forward(&x, 1));
        assert_eq!(cache, LayerCache::None);
    }

    #[test]
    #[should_panic(expected = "requires pool indices")]
    fn pool_backward_requires_cache() {
        let pool = Layer::MaxPool2d(MaxPool2d::new(Shape3::new(1, 2, 2)));
        let _ = pool.backward(&[0.0; 4], &LayerCache::None, &[0.0], 1, true);
    }
}
