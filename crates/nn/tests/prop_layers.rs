//! Property-based tests on the layer substrate: gradient-shape discipline,
//! serialization round trips and loss-function invariants hold for arbitrary
//! layer configurations and inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sesr_nn::serialize::{tensors_from_bytes, tensors_to_bytes};
use sesr_nn::{
    cross_entropy_loss, softmax, BatchNorm2d, Conv2d, DepthwiseConv2d, Layer, Linear, PRelu, ReLU,
    Sequential,
};
use sesr_tensor::{init, Shape, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every layer returns an input gradient with exactly the input's shape,
    /// and parameter gradients with exactly the parameters' shapes.
    #[test]
    fn backward_shapes_match_forward_shapes(
        seed in 0u64..500,
        channels in 1usize..5,
        size in 4usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::normal(Shape::new(&[2, channels, size, size]), 0.0, 1.0, &mut rng);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::same(channels, channels + 1, 3, &mut rng)),
            Box::new(DepthwiseConv2d::new(channels, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new(channels)),
            Box::new(PRelu::new(channels)),
            Box::new(ReLU::new()),
        ];
        for mut layer in layers {
            let y = layer.forward(&x, true).unwrap();
            let grad_in = layer.backward(&Tensor::ones(y.shape().clone())).unwrap();
            prop_assert_eq!(grad_in.shape(), x.shape());
            for p in layer.params() {
                prop_assert_eq!(p.grad.shape(), p.value.shape());
            }
        }
    }

    /// A Sequential of layers computes the same function as applying the
    /// layers one by one.
    #[test]
    fn sequential_equals_manual_composition(seed in 0u64..500, size in 4usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = init::normal(Shape::new(&[1, 3, size, size]), 0.0, 1.0, &mut rng);

        let mut conv_a = Conv2d::same(3, 4, 3, &mut StdRng::seed_from_u64(seed + 1));
        let mut relu = ReLU::new();
        let mut conv_b = Conv2d::same(4, 2, 3, &mut StdRng::seed_from_u64(seed + 2));
        let manual = {
            let h = conv_a.forward(&x, false).unwrap();
            let h = relu.forward(&h, false).unwrap();
            conv_b.forward(&h, false).unwrap()
        };

        let mut seq = Sequential::new("prop");
        seq.push(Conv2d::same(3, 4, 3, &mut StdRng::seed_from_u64(seed + 1)));
        seq.push(ReLU::new());
        seq.push(Conv2d::same(4, 2, 3, &mut StdRng::seed_from_u64(seed + 2)));
        let composed = seq.forward(&x, false).unwrap();
        prop_assert!(manual.max_abs_diff(&composed).unwrap() < 1e-5);
    }

    /// Weight serialization round-trips bit-for-bit for arbitrary tensors.
    #[test]
    fn serialization_roundtrip(values in prop::collection::vec(-1e3f32..1e3, 1..60)) {
        let tensor = Tensor::from_slice(&values);
        let parsed = tensors_from_bytes(&tensors_to_bytes(&[&tensor])).unwrap();
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(parsed[0].shape(), tensor.shape());
        for (a, b) in parsed[0].data().iter().zip(tensor.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Softmax rows are a probability distribution and cross-entropy of the
    /// true label is non-negative, for arbitrary logits.
    #[test]
    fn softmax_and_cross_entropy_invariants(
        logits in prop::collection::vec(-20.0f32..20.0, 8),
        label in 0usize..4,
    ) {
        let logits = Tensor::from_vec(Shape::new(&[2, 4]), logits).unwrap();
        let probs = softmax(&logits).unwrap();
        for row in 0..2 {
            let sum: f32 = probs.data()[row * 4..(row + 1) * 4].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
        prop_assert!(probs.min() >= 0.0);
        let loss = cross_entropy_loss(&logits, &[label, label]).unwrap();
        prop_assert!(loss.loss >= -1e-6);
        prop_assert!(loss.grad.shape() == logits.shape());
        // The gradient over each row sums to ~0 (softmax minus one-hot).
        for row in 0..2 {
            let sum: f32 = loss.grad.data()[row * 4..(row + 1) * 4].iter().sum();
            prop_assert!(sum.abs() < 1e-4);
        }
    }

    /// A linear layer is, in fact, linear: f(a*x) == a*f(x) when the bias is zero.
    #[test]
    fn linear_layer_is_linear_with_zero_bias(seed in 0u64..500, alpha in -4.0f32..4.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Linear::new(5, 3, &mut rng);
        layer.params_mut()[1].value = Tensor::zeros(Shape::new(&[3]));
        let x = init::normal(Shape::new(&[2, 5]), 0.0, 1.0, &mut rng);
        let lhs = layer.forward(&x.scale(alpha), false).unwrap();
        let rhs = layer.forward(&x, false).unwrap().scale(alpha);
        prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
    }
}
