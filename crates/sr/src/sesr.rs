//! Super-Efficient Super Resolution (SESR) with Collapsible Linear Blocks.
//!
//! SESR trains an over-parameterised network in which every convolution is a
//! *Collapsible Linear Block*: a `k×k` expansion to `p` channels followed by a
//! `1×1` projection back down, with **no non-linearity in between** and an
//! optional short residual when the input and output channel counts match.
//! Because the block is linear, it collapses analytically into a single
//! `k×k` convolution for inference — the over-parameterisation helps
//! optimisation (Arora et al.) at zero inference cost.
//!
//! The network layout follows Fig. 2 of the paper:
//!
//! ```text
//! x ──5×5 CLB── f0 ──PReLU── [m × (3×3 CLB + short residual, PReLU)] ──(+ f0)──
//!   ──5×5 CLB──(+ replicate(x))── depth-to-space ── output
//! ```
//!
//! with two long residuals: one from the first feature map to the input of
//! the final convolution, and one from the input image to the sub-pixel
//! output (equivalent to adding the nearest-upsampled input after
//! depth-to-space).

use crate::Result;
use rand::Rng;
use sesr_nn::spec::{NetworkSpec, OpDesc};
use sesr_nn::{Conv2d, Layer, PRelu, Param, PixelShuffle, ScratchSpace};
use sesr_tensor::{init, Shape, Tensor, TensorError};

/// A Collapsible Linear Block: `k×k` expansion, `1×1` projection, optional
/// short residual, no internal non-linearity.
pub struct CollapsibleLinearBlock {
    in_channels: usize,
    out_channels: usize,
    expanded_channels: usize,
    kernel: usize,
    short_residual: bool,
    expand: Conv2d,
    project: Conv2d,
    /// Set by `forward`, consumed by `backward` (the inner convolutions
    /// cache the activations; the block only enforces the call order).
    forwarded: bool,
}

impl CollapsibleLinearBlock {
    /// Create a block mapping `in_channels` to `out_channels` with a `kernel`
    /// × `kernel` expansion to `expanded_channels`. A short residual is added
    /// automatically when the channel counts match (the SESR convention).
    ///
    /// Weights are Xavier-initialised because the block is linear.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        expanded_channels: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let expand_w = init::xavier_uniform(
            Shape::new(&[expanded_channels, in_channels, kernel, kernel]),
            rng,
        );
        let project_w =
            init::xavier_uniform(Shape::new(&[out_channels, expanded_channels, 1, 1]), rng);
        let expand = Conv2d::from_weights(
            expand_w,
            Some(Tensor::zeros(Shape::new(&[expanded_channels]))),
            1,
            kernel / 2,
        )
        .expect("expand conv construction");
        let project = Conv2d::from_weights(
            project_w,
            Some(Tensor::zeros(Shape::new(&[out_channels]))),
            1,
            0,
        )
        .expect("project conv construction");
        CollapsibleLinearBlock {
            in_channels,
            out_channels,
            expanded_channels,
            kernel,
            short_residual: in_channels == out_channels,
            expand,
            project,
            forwarded: false,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The over-parameterised (training-time) channel count.
    pub fn expanded_channels(&self) -> usize {
        self.expanded_channels
    }

    /// Whether the block adds a short residual connection.
    pub fn has_short_residual(&self) -> bool {
        self.short_residual
    }

    /// Analytically collapse the block into a single `k×k` convolution,
    /// returning `(weight, bias)` with weight shape
    /// `[out_channels, in_channels, k, k]`.
    ///
    /// The short residual (if present) is folded into the kernel centre.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (cannot occur for a well-formed block).
    pub fn collapse(&self) -> Result<(Tensor, Tensor)> {
        let k = self.kernel;
        let fi = self.in_channels;
        let fo = self.out_channels;
        let p = self.expanded_channels;
        let w1 = self.expand.weight().data(); // [p, fi, k, k]
        let b1 = self
            .expand
            .bias()
            .map(|b| b.data().to_vec())
            .unwrap_or_else(|| vec![0.0; p]);
        let w2 = self.project.weight().data(); // [fo, p, 1, 1]
        let b2 = self
            .project
            .bias()
            .map(|b| b.data().to_vec())
            .unwrap_or_else(|| vec![0.0; fo]);

        let mut weight = vec![0.0f32; fo * fi * k * k];
        let mut bias = vec![0.0f32; fo];
        for o in 0..fo {
            for pi in 0..p {
                let w2_op = w2[o * p + pi];
                if w2_op == 0.0 {
                    continue;
                }
                for i in 0..fi {
                    for kk in 0..k * k {
                        weight[(o * fi + i) * k * k + kk] += w2_op * w1[(pi * fi + i) * k * k + kk];
                    }
                }
                bias[o] += w2_op * b1[pi];
            }
            bias[o] += b2[o];
        }
        if self.short_residual {
            // Identity contribution at the kernel centre.
            let centre = (k / 2) * k + (k / 2);
            for o in 0..fo {
                weight[(o * fi + o) * k * k + centre] += 1.0;
            }
        }
        Ok((
            Tensor::from_vec(Shape::new(&[fo, fi, k, k]), weight)?,
            Tensor::from_vec(Shape::new(&[fo]), bias)?,
        ))
    }
}

impl Layer for CollapsibleLinearBlock {
    fn name(&self) -> &str {
        "collapsible_linear_block"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.forwarded = true;
        let expanded = self.expand.forward(input, train)?;
        let projected = self.project.forward(&expanded, train)?;
        if self.short_residual {
            projected.add(input)
        } else {
            Ok(projected)
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if !std::mem::take(&mut self.forwarded) {
            return Err(TensorError::invalid_argument(
                "backward before forward in CollapsibleLinearBlock",
            ));
        }
        let grad_projected = self.project.backward(grad_output)?;
        let grad_input_main = self.expand.backward(&grad_projected)?;
        if self.short_residual {
            grad_input_main.add(grad_output)
        } else {
            Ok(grad_input_main)
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.expand.params_mut();
        out.extend(self.project.params_mut());
        out
    }

    fn params(&self) -> Vec<&Param> {
        let mut out = self.expand.params();
        out.extend(self.project.params());
        out
    }
}

/// Configuration of a SESR network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SesrConfig {
    /// Number of 3×3 blocks in the body (`m` in the paper; 2/3/5 for M2/M3/M5,
    /// 11 for XL).
    pub num_blocks: usize,
    /// Feature channels at intermediate layers (16 for M variants, 32 for XL).
    pub features: usize,
    /// Training-time expansion width of the collapsible blocks (the paper
    /// uses 256; smaller values train faster locally with the same collapsed
    /// architecture).
    pub expansion: usize,
    /// Upscaling factor.
    pub scale: usize,
    /// Image channels (3 for the RGB pipeline used throughout the paper).
    pub channels: usize,
}

impl SesrConfig {
    /// SESR-M{m} configuration (16 intermediate channels).
    pub fn m(num_blocks: usize) -> Self {
        SesrConfig {
            num_blocks,
            features: 16,
            expansion: 64,
            scale: 2,
            channels: 3,
        }
    }

    /// SESR-M2 (2 blocks, 16 channels).
    pub fn m2() -> Self {
        SesrConfig::m(2)
    }

    /// SESR-M3 (3 blocks, 16 channels).
    pub fn m3() -> Self {
        SesrConfig::m(3)
    }

    /// SESR-M5 (5 blocks, 16 channels).
    pub fn m5() -> Self {
        SesrConfig::m(5)
    }

    /// SESR-XL (11 blocks, 32 channels).
    pub fn xl() -> Self {
        SesrConfig {
            num_blocks: 11,
            features: 32,
            expansion: 64,
            scale: 2,
            channels: 3,
        }
    }

    /// Override the training-time expansion width.
    pub fn with_expansion(mut self, expansion: usize) -> Self {
        self.expansion = expansion;
        self
    }

    /// The analytic (collapsed, inference-time) network spec for this
    /// configuration, used for Table I / Table IV cost accounting.
    pub fn inference_spec(&self) -> NetworkSpec {
        let mut spec = NetworkSpec::new(format!("sesr_m{}_f{}", self.num_blocks, self.features));
        spec.push(
            "conv5x5_first",
            OpDesc::Conv2d {
                in_channels: self.channels,
                out_channels: self.features,
                kernel: 5,
                stride: 1,
                bias: true,
            },
        );
        spec.push(
            "prelu_first",
            OpDesc::Elementwise {
                channels: self.features,
            },
        );
        for i in 0..self.num_blocks {
            spec.push(
                format!("conv3x3_body_{i}"),
                OpDesc::Conv2d {
                    in_channels: self.features,
                    out_channels: self.features,
                    kernel: 3,
                    stride: 1,
                    bias: true,
                },
            );
            spec.push(
                format!("prelu_body_{i}"),
                OpDesc::Elementwise {
                    channels: self.features,
                },
            );
        }
        spec.push(
            "conv5x5_last",
            OpDesc::Conv2d {
                in_channels: self.features,
                out_channels: self.channels * self.scale * self.scale,
                kernel: 5,
                stride: 1,
                bias: true,
            },
        );
        spec.push(
            "depth_to_space",
            OpDesc::DepthToSpace {
                in_channels: self.channels * self.scale * self.scale,
                r: self.scale,
            },
        );
        spec
    }
}

/// The SESR network. Holds the training-time (over-parameterised) form: this
/// is what trainers optimise and what store artifacts hold. It is never
/// served — [`Layer::inference_form`] lowers it to [`Sesr::collapse`]'s
/// [`CollapsedSesr`] wherever an upscaler is built.
pub struct Sesr {
    config: SesrConfig,
    first: CollapsibleLinearBlock,
    act_first: PRelu,
    body: Vec<(CollapsibleLinearBlock, PRelu)>,
    last: CollapsibleLinearBlock,
    shuffle: PixelShuffle,
    cache: Option<SesrCache>,
}

struct SesrCache {
    input_shape: Shape,
}

impl Sesr {
    /// Build a SESR network from a configuration.
    pub fn new(config: SesrConfig, rng: &mut impl Rng) -> Self {
        let first =
            CollapsibleLinearBlock::new(config.channels, config.features, 5, config.expansion, rng);
        let act_first = PRelu::new(config.features);
        let body = (0..config.num_blocks)
            .map(|_| {
                (
                    CollapsibleLinearBlock::new(
                        config.features,
                        config.features,
                        3,
                        config.expansion,
                        rng,
                    ),
                    PRelu::new(config.features),
                )
            })
            .collect();
        let last = CollapsibleLinearBlock::new(
            config.features,
            config.channels * config.scale * config.scale,
            5,
            config.expansion,
            rng,
        );
        Sesr {
            config,
            first,
            act_first,
            body,
            last,
            shuffle: PixelShuffle::new(config.scale),
            cache: None,
        }
    }

    /// The configuration used to build this network.
    pub fn config(&self) -> SesrConfig {
        self.config
    }

    /// Analytically collapse the training network into the efficient
    /// inference-time network ([`CollapsedSesr`]). The collapsed network
    /// computes exactly the same function.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (cannot occur for a well-formed network).
    pub fn collapse(&self) -> Result<CollapsedSesr> {
        let (w_first, b_first) = self.first.collapse()?;
        let first = Conv2d::from_weights(w_first, Some(b_first), 1, 2)?;
        let mut body = Vec::with_capacity(self.body.len());
        for (block, act) in &self.body {
            let (w, b) = block.collapse()?;
            let conv = Conv2d::from_weights(w, Some(b), 1, 1)?;
            let mut prelu = PRelu::new(self.config.features);
            prelu.params_mut()[0].value = act.alpha().clone();
            body.push((conv, prelu));
        }
        let (w_last, b_last) = self.last.collapse()?;
        let last = Conv2d::from_weights(w_last, Some(b_last), 1, 2)?;
        let mut act_first = PRelu::new(self.config.features);
        act_first.params_mut()[0].value = self.act_first.alpha().clone();
        Ok(CollapsedSesr {
            config: self.config,
            first,
            act_first,
            body,
            last,
            shuffle: PixelShuffle::new(self.config.scale),
        })
    }

    /// Add the input image to every sub-pixel group of `z` (the second long
    /// residual), i.e. `z[:, g*C + c] += x[:, c]` for every group `g`.
    fn add_input_residual(z: &Tensor, x: &Tensor, scale: usize, channels: usize) -> Result<Tensor> {
        let mut out = z.clone();
        Sesr::add_input_residual_inplace(&mut out, x, scale, channels)?;
        Ok(out)
    }

    /// In-place core of [`Self::add_input_residual`], used by the arena path
    /// (which owns `z` and needs no copy).
    fn add_input_residual_inplace(
        z: &mut Tensor,
        x: &Tensor,
        scale: usize,
        channels: usize,
    ) -> Result<()> {
        let (n, zc, h, w) = z.shape().as_nchw()?;
        let groups = scale * scale;
        if zc != groups * channels {
            return Err(TensorError::invalid_argument(
                "sub-pixel channel count mismatch in SESR input residual",
            ));
        }
        let out = z.data_mut();
        let x_data = x.data();
        let plane = h * w;
        for b in 0..n {
            for g in 0..groups {
                for c in 0..channels {
                    let z_base = ((b * zc) + g * channels + c) * plane;
                    let x_base = ((b * channels) + c) * plane;
                    for i in 0..plane {
                        out[z_base + i] += x_data[x_base + i];
                    }
                }
            }
        }
        Ok(())
    }

    /// Gradient of [`Self::add_input_residual`] with respect to the input
    /// image: sum the gradient over the sub-pixel groups.
    fn input_residual_grad(
        grad_z: &Tensor,
        input_shape: &Shape,
        scale: usize,
        channels: usize,
    ) -> Result<Tensor> {
        let (n, zc, h, w) = grad_z.shape().as_nchw()?;
        let groups = scale * scale;
        let mut out = vec![0.0f32; input_shape.num_elements()];
        let gz = grad_z.data();
        let plane = h * w;
        for b in 0..n {
            for g in 0..groups {
                for c in 0..channels {
                    let z_base = ((b * zc) + g * channels + c) * plane;
                    let x_base = ((b * channels) + c) * plane;
                    for i in 0..plane {
                        out[x_base + i] += gz[z_base + i];
                    }
                }
            }
        }
        Tensor::from_vec(input_shape.clone(), out)
    }
}

impl Layer for Sesr {
    fn name(&self) -> &str {
        "sesr"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        self.cache = Some(SesrCache {
            input_shape: input.shape().clone(),
        });
        let f0 = self.first.forward(input, train)?;
        let mut x = self.act_first.forward(&f0, train)?;
        for (block, act) in &mut self.body {
            x = block.forward(&x, train)?;
            x = act.forward(&x, train)?;
        }
        // Long residual 1: add the pre-activation first feature map.
        let y = x.add(&f0)?;
        let z = self.last.forward(&y, train)?;
        // Long residual 2: add the input image to every sub-pixel group.
        let z = Sesr::add_input_residual(&z, input, self.config.scale, self.config.channels)?;
        self.shuffle.forward(&z, train)
    }

    /// SESR deploys collapsed: every served or evaluated SESR upscaler runs
    /// [`CollapsedSesr`], built here from the current weights.
    fn inference_form(&self) -> Result<Option<Box<dyn Layer>>> {
        Ok(Some(Box::new(self.collapse()?)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid_argument("backward before forward in Sesr"))?;
        let grad_z = self.shuffle.backward(grad_output)?;
        // Input-residual branch gradient.
        let grad_input_residual = Sesr::input_residual_grad(
            &grad_z,
            &cache.input_shape,
            self.config.scale,
            self.config.channels,
        )?;
        let grad_y = self.last.backward(&grad_z)?;
        // grad_y splits into the body path and the long-residual-1 path to f0.
        let mut grad = grad_y.clone();
        for (block, act) in self.body.iter_mut().rev() {
            grad = act.backward(&grad)?;
            grad = block.backward(&grad)?;
        }
        let grad_f0_from_body = self.act_first.backward(&grad)?;
        let grad_f0 = grad_f0_from_body.add(&grad_y)?;
        let grad_input_main = self.first.backward(&grad_f0)?;
        grad_input_main.add(&grad_input_residual)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.first.params_mut();
        out.extend(self.act_first.params_mut());
        for (block, act) in &mut self.body {
            out.extend(block.params_mut());
            out.extend(act.params_mut());
        }
        out.extend(self.last.params_mut());
        out
    }

    fn params(&self) -> Vec<&Param> {
        let mut out = self.first.params();
        out.extend(self.act_first.params());
        for (block, act) in &self.body {
            out.extend(block.params());
            out.extend(act.params());
        }
        out.extend(self.last.params());
        out
    }
}

/// The collapsed, inference-time SESR network (plain convolutions, PReLUs,
/// the two long residuals and the depth-to-space tail). Produced by
/// [`Sesr::collapse`]; this is the network every SESR upscaler serves.
///
/// Inference-only: [`Layer::backward`] is a typed error, never a panic.
/// Nothing differentiates through an `Upscaler` today (the attacks take
/// gradients of the classifier alone); an adaptive attack that needs the
/// SR gradient must run it through the expanded [`Sesr`] holding the same
/// weights.
pub struct CollapsedSesr {
    config: SesrConfig,
    first: Conv2d,
    act_first: PRelu,
    body: Vec<(Conv2d, PRelu)>,
    last: Conv2d,
    shuffle: PixelShuffle,
}

impl CollapsedSesr {
    /// The configuration of the network this was collapsed from.
    pub fn config(&self) -> SesrConfig {
        self.config
    }

    /// Total learnable parameters of the collapsed network.
    pub fn num_parameters(&self) -> usize {
        let body: usize = self
            .body
            .iter()
            .map(|(c, a)| c.num_parameters() + a.num_parameters())
            .sum();
        self.first.num_parameters()
            + self.act_first.num_parameters()
            + body
            + self.last.num_parameters()
    }
}

impl Layer for CollapsedSesr {
    fn name(&self) -> &str {
        "sesr_collapsed"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let f0 = self.first.forward(input, train)?;
        let mut x = self.act_first.forward(&f0, train)?;
        for (conv, act) in &mut self.body {
            x = conv.forward(&x, train)?;
            x = act.forward(&x, train)?;
        }
        let y = x.add(&f0)?;
        let z = self.last.forward(&y, train)?;
        let z = Sesr::add_input_residual(&z, input, self.config.scale, self.config.channels)?;
        self.shuffle.forward(&z, train)
    }

    fn forward_scratch(
        &mut self,
        input: &Tensor,
        train: bool,
        scratch: &mut ScratchSpace,
    ) -> Result<Tensor> {
        let f0 = self.first.forward_scratch(input, train, scratch)?;
        let mut x = self.act_first.forward_scratch(&f0, train, scratch)?;
        for (conv, act) in &mut self.body {
            let y = conv.forward_scratch(&x, train, scratch)?;
            scratch.recycle(x);
            x = act.forward_scratch(&y, train, scratch)?;
            scratch.recycle(y);
        }
        let y = x.add_arena(&f0, scratch.arena())?;
        scratch.recycle(x);
        scratch.recycle(f0);
        let mut z = self.last.forward_scratch(&y, train, scratch)?;
        scratch.recycle(y);
        Sesr::add_input_residual_inplace(&mut z, input, self.config.scale, self.config.channels)?;
        let out = self.shuffle.forward_scratch(&z, train, scratch)?;
        scratch.recycle(z);
        Ok(out)
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor> {
        Err(TensorError::invalid_argument(
            "the collapsed SESR network is inference-only; train the expanded form instead",
        ))
    }

    fn params(&self) -> Vec<&Param> {
        let mut out = self.first.params();
        out.extend(self.act_first.params());
        for (conv, act) in &self.body {
            out.extend(conv.params());
            out.extend(act.params());
        }
        out.extend(self.last.params());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn collapsible_block_collapse_matches_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut block = CollapsibleLinearBlock::new(4, 4, 3, 16, &mut rng);
        assert!(block.has_short_residual());
        let x = init::normal(Shape::new(&[1, 4, 6, 6]), 0.0, 1.0, &mut rng);
        let expanded_out = block.forward(&x, false).unwrap();

        let (w, b) = block.collapse().unwrap();
        let mut collapsed = Conv2d::from_weights(w, Some(b), 1, 1).unwrap();
        let collapsed_out = collapsed.forward(&x, false).unwrap();
        assert!(
            expanded_out.max_abs_diff(&collapsed_out).unwrap() < 1e-4,
            "collapse must be exact"
        );
    }

    #[test]
    fn collapsible_block_without_residual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut block = CollapsibleLinearBlock::new(3, 12, 5, 8, &mut rng);
        assert!(!block.has_short_residual());
        let x = init::normal(Shape::new(&[1, 3, 8, 8]), 0.0, 1.0, &mut rng);
        let out = block.forward(&x, false).unwrap();
        assert_eq!(out.shape().dims(), &[1, 12, 8, 8]);
        let (w, b) = block.collapse().unwrap();
        let mut collapsed = Conv2d::from_weights(w, Some(b), 1, 2).unwrap();
        let cout = collapsed.forward(&x, false).unwrap();
        assert!(out.max_abs_diff(&cout).unwrap() < 1e-4);
    }

    #[test]
    fn sesr_forward_shape_is_upscaled() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = SesrConfig::m2().with_expansion(8);
        let mut net = Sesr::new(cfg, &mut rng);
        let x = init::uniform(Shape::new(&[1, 3, 8, 8]), 0.0, 1.0, &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape().dims(), &[1, 3, 16, 16]);
    }

    #[test]
    fn sesr_collapse_preserves_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SesrConfig::m2().with_expansion(8);
        let mut net = Sesr::new(cfg, &mut rng);
        let x = init::uniform(Shape::new(&[1, 3, 6, 6]), 0.0, 1.0, &mut rng);
        let full = net.forward(&x, false).unwrap();
        let mut collapsed = net.collapse().unwrap();
        let fast = collapsed.forward(&x, false).unwrap();
        assert!(
            full.max_abs_diff(&fast).unwrap() < 1e-4,
            "collapsed SESR must compute the same function"
        );
    }

    #[test]
    fn collapsed_parameter_count_matches_spec() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SesrConfig::m2().with_expansion(8);
        let net = Sesr::new(cfg, &mut rng);
        let collapsed = net.collapse().unwrap();
        let spec = cfg.inference_spec();
        // PReLU alphas are not in the spec (negligible), so allow that delta.
        let prelu_params = 16 + cfg.num_blocks * 16;
        assert_eq!(
            collapsed.num_parameters(),
            spec.total_params() as usize + prelu_params
        );
        // With a genuinely over-parameterised expansion (the paper uses 256)
        // the training network has strictly more parameters than the
        // collapsed inference network.
        let wide = Sesr::new(SesrConfig::m2().with_expansion(64), &mut rng);
        let wide_collapsed = wide.collapse().unwrap();
        assert!(wide.num_parameters() > wide_collapsed.num_parameters());
    }

    #[test]
    fn sesr_backward_produces_input_gradient() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = SesrConfig::m2().with_expansion(8);
        let mut net = Sesr::new(cfg, &mut rng);
        let x = init::uniform(Shape::new(&[1, 3, 6, 6]), 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        let g = net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert!(g.norm() > 0.0);
        // Parameters received gradients too.
        assert!(net.params().iter().any(|p| p.grad.norm() > 0.0));
    }

    #[test]
    fn collapsed_network_rejects_backward() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = Sesr::new(SesrConfig::m2().with_expansion(8), &mut rng);
        let mut collapsed = net.collapse().unwrap();
        let x = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        let y = collapsed.forward(&x, false).unwrap();
        assert!(collapsed.backward(&y).is_err());
    }

    #[test]
    fn scratch_forward_is_bitwise_identical_and_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = SesrConfig::m2().with_expansion(8);
        let mut net = Sesr::new(cfg, &mut rng);
        let mut collapsed = net.collapse().unwrap();
        let x = init::uniform(Shape::new(&[2, 3, 8, 8]), 0.0, 1.0, &mut rng);

        let expected_full = net.forward(&x, false).unwrap();
        let expected_fast = collapsed.forward(&x, false).unwrap();

        let mut scratch = ScratchSpace::new();
        for _ in 0..3 {
            let full = net.forward_scratch(&x, false, &mut scratch).unwrap();
            assert_eq!(full, expected_full, "expanded scratch forward must match");
            scratch.recycle(full);
            let fast = collapsed.forward_scratch(&x, false, &mut scratch).unwrap();
            assert_eq!(fast, expected_fast, "collapsed scratch forward must match");
            scratch.recycle(fast);
        }
        let warm_misses = scratch.stats().misses;
        let out = collapsed.forward_scratch(&x, false, &mut scratch).unwrap();
        scratch.recycle(out);
        assert_eq!(
            scratch.stats().misses,
            warm_misses,
            "a warmed-up scratch space must serve the whole forward from its pools"
        );
    }

    #[test]
    fn block_backward_before_forward_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut block = CollapsibleLinearBlock::new(4, 4, 3, 8, &mut rng);
        let x = init::uniform(Shape::new(&[1, 4, 5, 5]), 0.0, 1.0, &mut rng);
        let err = block.backward(&x).unwrap_err();
        assert!(err.to_string().contains("backward before forward"), "{err}");
        // One forward buys exactly one backward.
        let y = block.forward(&x, true).unwrap();
        assert!(block.backward(&y).is_ok());
        assert!(block.backward(&y).is_err());
    }

    #[test]
    fn inference_form_is_the_collapsed_network_even_behind_a_box() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = Sesr::new(SesrConfig::m2().with_expansion(8), &mut rng);
        let mut expected = net.collapse().unwrap();
        let x = init::uniform(Shape::new(&[1, 3, 6, 6]), 0.0, 1.0, &mut rng);
        let want = expected.forward(&x, false).unwrap();

        // `Box<dyn Layer>` is itself a `Layer`; if it did not forward the
        // hook, the call below would hit the trait default and say `None`.
        let boxed: Box<dyn Layer> = Box::new(net);
        let mut lowered = boxed
            .inference_form()
            .unwrap()
            .expect("a boxed Sesr must lower to its collapsed form");
        assert_eq!(lowered.name(), "sesr_collapsed");
        assert_eq!(lowered.forward(&x, false).unwrap(), want);
        // The collapsed form is already its own inference form.
        assert!(lowered.inference_form().unwrap().is_none());
    }

    #[test]
    fn paper_configurations_have_expected_shape_parameters() {
        assert_eq!(SesrConfig::m2().num_blocks, 2);
        assert_eq!(SesrConfig::m3().num_blocks, 3);
        assert_eq!(SesrConfig::m5().num_blocks, 5);
        assert_eq!(SesrConfig::xl().num_blocks, 11);
        assert_eq!(SesrConfig::xl().features, 32);
        assert_eq!(SesrConfig::m5().features, 16);
    }
}
