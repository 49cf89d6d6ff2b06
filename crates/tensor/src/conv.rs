//! Convolution kernels: im2col/col2im, dense 2-D convolution and depthwise
//! convolution, each with the backward passes required for training and for
//! gradient-based adversarial attacks.

use crate::ops::matmul_slices;
use crate::{Result, Shape, Tensor, TensorArena, TensorError};

/// Configuration of a 2-D convolution (shared by dense and depthwise paths).
///
/// Stride and padding are symmetric in height and width, matching every
/// network used in the paper (SESR, FSRCNN, EDSR, MobileNet-V2, ResNet,
/// Inception all use square kernels with symmetric padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dConfig {
    /// Kernel height and width.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub padding: usize,
}

impl Conv2dConfig {
    /// Create a configuration with explicit kernel, stride and padding.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dConfig {
            kernel,
            stride,
            padding,
        }
    }

    /// "Same" convolution for odd kernels at stride 1 (output size == input size).
    pub fn same(kernel: usize) -> Self {
        Conv2dConfig {
            kernel,
            stride: 1,
            padding: kernel / 2,
        }
    }

    /// Spatial output size for an input of size `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvConfig`] if the kernel does not fit
    /// in the padded input or the stride is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.stride == 0 {
            return Err(TensorError::invalid_conv("stride must be non-zero"));
        }
        if self.kernel == 0 {
            return Err(TensorError::invalid_conv("kernel must be non-zero"));
        }
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if self.kernel > ph || self.kernel > pw {
            return Err(TensorError::invalid_conv(format!(
                "kernel {} larger than padded input {}x{}",
                self.kernel, ph, pw
            )));
        }
        Ok((
            (ph - self.kernel) / self.stride + 1,
            (pw - self.kernel) / self.stride + 1,
        ))
    }
}

impl Default for Conv2dConfig {
    fn default() -> Self {
        Conv2dConfig::same(3)
    }
}

/// Lower an NCHW input into column form for convolution-as-matmul.
///
/// The result has shape `[C * K * K, N * OH * OW]`: every column holds one
/// receptive field, every row one (channel, ky, kx) weight position.
///
/// # Errors
///
/// Returns an error if `input` is not rank 4 or the configuration does not
/// fit the input.
pub fn im2col(input: &Tensor, cfg: Conv2dConfig) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let k = cfg.kernel;
    let rows = c * k * k;
    let cols = n * oh * ow;
    let mut out = vec![0.0f32; rows * cols];
    let in_data = input.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = oy * cfg.stride + ky;
                        let iy = iy as isize - cfg.padding as isize;
                        for ox in 0..ow {
                            let ix = ox * cfg.stride + kx;
                            let ix = ix as isize - cfg.padding as isize;
                            let col = (b * oh + oy) * ow + ox;
                            let value = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize
                            {
                                in_data[in_base + iy as usize * w + ix as usize]
                            } else {
                                0.0
                            };
                            out[row * cols + col] = value;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::new(&[rows, cols]), out)
}

/// Scatter a column-form gradient back onto an NCHW input gradient
/// (the adjoint of [`im2col`]).
///
/// # Errors
///
/// Returns an error if shapes are inconsistent with the configuration.
pub fn col2im(cols: &Tensor, input_shape: &Shape, cfg: Conv2dConfig) -> Result<Tensor> {
    let (n, c, h, w) = input_shape.as_nchw()?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let k = cfg.kernel;
    let rows = c * k * k;
    let ncols = n * oh * ow;
    let (got_rows, got_cols) = cols.shape().as_matrix()?;
    if got_rows != rows || got_cols != ncols {
        return Err(TensorError::ShapeMismatch {
            left: vec![rows, ncols],
            right: vec![got_rows, got_cols],
        });
    }
    let mut out = vec![0.0f32; n * c * h * w];
    let col_data = cols.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k + ky) * k + kx;
                    for oy in 0..oh {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let col = (b * oh + oy) * ow + ox;
                            out[in_base + iy as usize * w + ix as usize] +=
                                col_data[row * ncols + col];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(input_shape.clone(), out)
}

/// Dense 2-D convolution forward pass.
///
/// * `input`: `[N, C_in, H, W]`
/// * `weight`: `[C_out, C_in, K, K]`
/// * `bias`: optional `[C_out]`
///
/// Returns `[N, C_out, OH, OW]`.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, or a bias whose length
/// is not `C_out`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
) -> Result<Tensor> {
    conv2d_arena(input, weight, bias, cfg, &mut TensorArena::exact())
}

/// Arena-backed [`conv2d`]: every scratch buffer is drawn from (and
/// recycled back into) `arena`, and the returned output tensor's buffer
/// comes from the arena too, so the caller may recycle it after use. With a
/// warmed-up arena this performs zero heap allocations.
///
/// There are two paths, and neither builds an im2col matrix:
///
/// * A 1×1 convolution at stride 1 without padding: each `[C_in, H·W]`
///   image already is its column matrix, so it goes to the GEMM as it is,
///   which writes straight into the image's slice of the output.
/// * Every other convolution runs a register-tiled direct kernel. Each image
///   is copied once into a pooled buffer with a zero border of `padding`
///   pixels, its rows split by column phase at stride > 1 so that every
///   tap reads contiguous inputs. Each tile of 4 output channels × 8 output
///   columns is summed in `[f32; 8]` lane arrays over the taps, then stored
///   with its bias.
///
/// Both compute what im2col followed by the GEMM computes, bit for bit.
/// Each output element starts at `+0.0`, adds `w[co, p] · x[p]` for
/// `p = (ci, ky, kx)` in ascending order, skipping the taps whose weight is
/// zero as the GEMM does, and adds the bias last. A padding tap reads a
/// materialised `0.0` just as im2col's column does, so it still adds
/// `w · 0.0` (which matters for an infinite or NaN weight). There is no
/// fused multiply-add and no split of the sum.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, and
/// [`TensorError::LengthMismatch`] if `bias` does not hold one value per
/// output channel.
pub fn conv2d_arena(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
    arena: &mut TensorArena,
) -> Result<Tensor> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let wd = weight.shape().dims();
    if wd.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: wd.len(),
        });
    }
    let (c_out, wc_in, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    if wc_in != c_in || kh != cfg.kernel || kw != cfg.kernel {
        return Err(TensorError::invalid_conv(format!(
            "weight shape {wd:?} incompatible with input channels {c_in} and kernel {}",
            cfg.kernel
        )));
    }
    let (oh, ow) = cfg.output_size(h, w)?;
    let bias = bias_values(bias, c_out)?;
    let spatial = oh * ow;
    let mut out = arena.alloc(n * c_out * spatial);
    if cfg.kernel == 1 && cfg.stride == 1 && cfg.padding == 0 {
        for b in 0..n {
            let image = &input.data()[b * c_in * spatial..(b + 1) * c_in * spatial];
            let out_image = &mut out[b * c_out * spatial..(b + 1) * c_out * spatial];
            matmul_slices(weight.data(), c_out, c_in, image, spatial, out_image);
            for co in 0..c_out {
                let b_val = bias.map_or(0.0, |b| b[co]);
                for v in &mut out_image[co * spatial..(co + 1) * spatial] {
                    *v += b_val;
                }
            }
        }
    } else {
        conv2d_direct(input, weight, bias, cfg, (oh, ow), &mut out, arena);
    }
    Tensor::from_vec(Shape::new(&[n, c_out, oh, ow]), out)
}

/// A convolution's bias values, checked to hold one per output channel.
fn bias_values(bias: Option<&Tensor>, c_out: usize) -> Result<Option<&[f32]>> {
    match bias {
        Some(b) if b.len() != c_out => Err(TensorError::LengthMismatch {
            expected: c_out,
            actual: b.len(),
        }),
        _ => Ok(bias.map(Tensor::data)),
    }
}

/// Output channels per register tile of the direct convolution.
const TILE_CO: usize = 4;
/// Output columns per register tile: one `[f32; TILE_W]` lane array per
/// channel.
const TILE_W: usize = 8;

/// Layout of the direct convolution's zero-bordered image copy and of its
/// output planes.
///
/// Each padded row is split by column phase: padded column `x` sits at
/// `(x % stride) * phase_len + x / stride` of its row. Output column `ox`
/// reads padded column `ox * stride + kx`, so the inputs a tap `kx` needs
/// for consecutive output columns are contiguous at every stride.
#[derive(Clone, Copy)]
struct Geometry {
    c_in: usize,
    k: usize,
    stride: usize,
    /// Floats per column phase of a padded row.
    phase_len: usize,
    /// Floats per padded row (`stride` phases).
    row_len: usize,
    /// Floats per padded channel plane.
    plane: usize,
    oh: usize,
    ow: usize,
}

/// The direct path of [`conv2d_arena`]: writes every element of `out`, the
/// `[N, C_out, OH, OW]` result.
fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    cfg: Conv2dConfig,
    (oh, ow): (usize, usize),
    out: &mut [f32],
    arena: &mut TensorArena,
) {
    let (n, c_in, h, w) = input
        .shape()
        .as_nchw()
        .expect("conv2d_arena validated the input rank");
    let (k, stride, pad) = (cfg.kernel, cfg.stride, cfg.padding);
    let c_out = weight.shape().dims()[0];
    let taps = c_in * k * k;
    let spatial = oh * ow;
    let ph = h + 2 * pad;
    // Each phase holds its share of the padded columns and is long enough
    // for the last tile's lanes. Those extra columns are zero like the
    // border, and the lanes that read them are never stored.
    let phase_len = (w + 2 * pad)
        .div_ceil(stride)
        .max(ow.div_ceil(TILE_W) * TILE_W + (k - 1) / stride);
    let g = Geometry {
        c_in,
        k,
        stride,
        phase_len,
        row_len: stride * phase_len,
        plane: ph * stride * phase_len,
        oh,
        ow,
    };
    // One scratch buffer: the padded image, then every block's weights
    // packed tap-major, `TILE_CO` per tap. The spare lanes of a short last
    // block keep their zeros; they are summed but never stored.
    let blocks = c_out.div_ceil(TILE_CO);
    let mut scratch = arena.alloc(c_in * g.plane + blocks * taps * TILE_CO);
    let (padded, packed) = scratch.split_at_mut(c_in * g.plane);
    for co in 0..c_out {
        let (block, lane) = (co / TILE_CO, co % TILE_CO);
        let dst = &mut packed[block * TILE_CO * taps..][..TILE_CO * taps];
        let src = &weight.data()[co * taps..][..taps];
        for (d, &v) in dst.iter_mut().skip(lane).step_by(TILE_CO).zip(src) {
            *d = v;
        }
    }
    for b in 0..n {
        let image = &input.data()[b * c_in * h * w..][..c_in * h * w];
        let out_image = &mut out[b * c_out * spatial..][..c_out * spatial];
        // Only the interior is written, so the border stays zero for every
        // image of the batch.
        for r in 0..c_in * h {
            let src = &image[r * w..][..w];
            let row = &mut padded[((r / h) * ph + r % h + pad) * g.row_len..][..g.row_len];
            for (q, dst) in row.chunks_exact_mut(phase_len).enumerate() {
                // Padded column `q + j * stride` holds input column
                // `q + j * stride - pad`, for the `j` that land inside.
                let j0 = pad.saturating_sub(q).div_ceil(stride);
                let first = q + j0 * stride - pad;
                if first < w {
                    for (d, &v) in dst[j0..]
                        .iter_mut()
                        .zip(src[first..].iter().step_by(stride))
                    {
                        *d = v;
                    }
                }
            }
        }
        for co0 in (0..c_out).step_by(TILE_CO) {
            let rows = TILE_CO.min(c_out - co0);
            let lanes = &packed[co0 * taps..][..TILE_CO * taps];
            let out_block = &mut out_image[co0 * spatial..][..rows * spatial];
            let bias = bias.map(|all| &all[co0..co0 + rows]);
            conv_block(padded, g, lanes, bias, out_block);
        }
    }
    arena.recycle_vec(scratch);
}

/// Sums and stores one block of output channels (`out` holds their
/// `oh × ow` planes, `lanes` their packed weights) over every row and tile
/// of the output.
fn conv_block(padded: &[f32], g: Geometry, lanes: &[f32], bias: Option<&[f32]>, out: &mut [f32]) {
    let spatial = g.oh * g.ow;
    for oy in 0..g.oh {
        for x0 in (0..g.ow).step_by(TILE_W) {
            let acc = tile_sum(padded, g, lanes, oy * g.stride * g.row_len + x0);
            let width = TILE_W.min(g.ow - x0);
            for (r, (acc_r, out_plane)) in acc.iter().zip(out.chunks_exact_mut(spatial)).enumerate()
            {
                let b_val = bias.map_or(0.0, |b| b[r]);
                let dst = &mut out_plane[oy * g.ow + x0..][..width];
                for (o, &a) in dst.iter_mut().zip(acc_r) {
                    *o = a + b_val;
                }
            }
        }
    }
}

/// One register tile: `TILE_CO` channels × `TILE_W` output columns, the
/// first of which reads padded row `origin` (plus `ky` rows) at phase 0,
/// summed from `+0.0` over every tap in `(ci, ky, kx)` order. A tap whose
/// weight is zero is skipped, as the GEMM skips it.
#[inline(always)]
fn tile_sum(padded: &[f32], g: Geometry, lanes: &[f32], origin: usize) -> [[f32; TILE_W]; TILE_CO] {
    let mut acc = [[0.0f32; TILE_W]; TILE_CO];
    let mut taps = lanes.chunks_exact(TILE_CO);
    for ci in 0..g.c_in {
        for ky in 0..g.k {
            let row = &padded[origin + ci * g.plane + ky * g.row_len..];
            let (mut phase, mut shift) = (0, 0);
            for tap in taps.by_ref().take(g.k) {
                let at = phase * g.phase_len + shift;
                let x = &row[at..at + TILE_W];
                for (acc_r, &wv) in acc.iter_mut().zip(tap) {
                    if wv == 0.0 {
                        continue;
                    }
                    for (a, &xv) in acc_r.iter_mut().zip(x) {
                        *a += wv * xv;
                    }
                }
                phase += 1;
                if phase == g.stride {
                    phase = 0;
                    shift += 1;
                }
            }
        }
    }
    acc
}

/// Gradients of a dense 2-D convolution.
///
/// Given `grad_output = dL/dY` of shape `[N, C_out, OH, OW]`, returns
/// `(grad_input, grad_weight, grad_bias)` with the same shapes as the
/// corresponding forward operands.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    cfg: Conv2dConfig,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let wd = weight.shape().dims();
    let (c_out, _, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    let (oh, ow) = cfg.output_size(h, w)?;
    let god = grad_output.shape().dims();
    if god != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c_out, oh, ow],
            right: god.to_vec(),
        });
    }
    let spatial = oh * ow;

    // Rearrange grad_output into [C_out, N*OH*OW] to mirror the forward matmul.
    let mut go_mat = vec![0.0f32; c_out * n * spatial];
    let go_data = grad_output.data();
    for b in 0..n {
        for co in 0..c_out {
            for s in 0..spatial {
                go_mat[co * (n * spatial) + b * spatial + s] =
                    go_data[(b * c_out + co) * spatial + s];
            }
        }
    }
    let go_mat = Tensor::from_vec(Shape::new(&[c_out, n * spatial]), go_mat)?;

    // grad_weight = dL/dY (as matrix) x cols^T
    let cols = im2col(input, cfg)?;
    let cols_t = cols.transpose()?;
    let grad_w_mat = go_mat.matmul(&cols_t)?;
    let grad_weight = grad_w_mat.reshape(Shape::new(&[c_out, c_in, kh, kw]))?;

    // grad_bias = sum over batch and spatial of dL/dY
    let mut grad_bias = vec![0.0f32; c_out];
    for co in 0..c_out {
        let mut acc = 0.0f32;
        for b in 0..n {
            for s in 0..spatial {
                acc += go_data[(b * c_out + co) * spatial + s];
            }
        }
        grad_bias[co] = acc;
    }
    let grad_bias = Tensor::from_vec(Shape::new(&[c_out]), grad_bias)?;

    // grad_input = col2im(W^T x dL/dY)
    let w_mat = weight.reshape(Shape::new(&[c_out, c_in * kh * kw]))?;
    let w_t = w_mat.transpose()?;
    let grad_cols = w_t.matmul(&go_mat)?;
    let grad_input = col2im(&grad_cols, input.shape(), cfg)?;

    Ok((grad_input, grad_weight, grad_bias))
}

/// Depthwise 2-D convolution forward pass (one filter per input channel).
///
/// * `input`: `[N, C, H, W]`
/// * `weight`: `[C, 1, K, K]`
/// * `bias`: optional `[C]`
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, or a bias whose length
/// is not `C`.
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
) -> Result<Tensor> {
    depthwise_conv2d_arena(input, weight, bias, cfg, &mut TensorArena::exact())
}

/// Arena-backed [`depthwise_conv2d`]: the output buffer comes from `arena`,
/// so a warmed-up arena serves repeated calls without heap allocations.
///
/// The loop is tap-major over output rows: each row starts as the bias,
/// then every in-bounds `(ky, kx)` tap adds `input · weight` over the span
/// of output columns it reaches, as one contiguous slice pass at stride 1
/// (which vectorises) or a strided gather otherwise. No tap tests bounds
/// per pixel. Each output element still receives the bias first and then
/// its in-bounds taps in ascending `(ky, kx)` order, the same sum in the
/// same order as a per-pixel loop, so results are bitwise unchanged.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches, and
/// [`TensorError::LengthMismatch`] if `bias` does not hold one value per
/// channel.
pub fn depthwise_conv2d_arena(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    cfg: Conv2dConfig,
    arena: &mut TensorArena,
) -> Result<Tensor> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let wd = weight.shape().dims();
    if wd.len() != 4 || wd[0] != c || wd[1] != 1 || wd[2] != cfg.kernel || wd[3] != cfg.kernel {
        return Err(TensorError::invalid_conv(format!(
            "depthwise weight shape {wd:?} incompatible with {c} channels and kernel {}",
            cfg.kernel
        )));
    }
    let (oh, ow) = cfg.output_size(h, w)?;
    let bias = bias_values(bias, c)?;
    let (k, stride, pad) = (cfg.kernel, cfg.stride, cfg.padding);
    // Output columns `lo..hi` of tap column `kx`: those whose input column
    // `ox * stride + kx - pad` lies in `0..w`.
    let columns = |kx: usize| -> (usize, usize) {
        if kx >= w + pad {
            return (0, 0);
        }
        let lo = if kx < pad {
            (pad - kx).div_ceil(stride)
        } else {
            0
        };
        (lo, ow.min((w + pad - kx - 1) / stride + 1))
    };
    let mut out = arena.alloc(n * c * oh * ow);
    for (plane, out_plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let ci = plane % c;
        let in_plane = &input.data()[plane * h * w..(plane + 1) * h * w];
        let taps = &weight.data()[ci * k * k..(ci + 1) * k * k];
        let b_val = bias.map_or(0.0, |b| b[ci]);
        for (oy, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            out_row.fill(b_val);
            for ky in 0..k {
                let iy = match (oy * stride + ky).checked_sub(pad) {
                    Some(iy) if iy < h => iy,
                    _ => continue,
                };
                let in_row = &in_plane[iy * w..(iy + 1) * w];
                for kx in 0..k {
                    let (lo, hi) = columns(kx);
                    if lo >= hi {
                        continue;
                    }
                    let tap = taps[ky * k + kx];
                    let dst = &mut out_row[lo..hi];
                    let src = &in_row[lo * stride + kx - pad..];
                    if stride == 1 {
                        for (o, &x) in dst.iter_mut().zip(src) {
                            *o += x * tap;
                        }
                    } else {
                        for (o, &x) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *o += x * tap;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::new(&[n, c, oh, ow]), out)
}

/// Gradients of a depthwise convolution.
///
/// Returns `(grad_input, grad_weight, grad_bias)`.
///
/// # Errors
///
/// Returns an error on rank or dimension mismatches.
pub fn depthwise_conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_output: &Tensor,
    cfg: Conv2dConfig,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let (oh, ow) = cfg.output_size(h, w)?;
    let god = grad_output.shape().dims();
    if god != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c, oh, ow],
            right: god.to_vec(),
        });
    }
    let k = cfg.kernel;
    let mut grad_input = vec![0.0f32; n * c * h * w];
    let mut grad_weight = vec![0.0f32; c * k * k];
    let mut grad_bias = vec![0.0f32; c];
    let in_data = input.data();
    let w_data = weight.data();
    let go_data = grad_output.data();
    for b in 0..n {
        for ci in 0..c {
            let in_base = (b * c + ci) * h * w;
            let w_base = ci * k * k;
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = go_data[(b * c + ci) * oh * ow + oy * ow + ox];
                    grad_bias[ci] += go;
                    for ky in 0..k {
                        let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let in_idx = in_base + iy as usize * w + ix as usize;
                            grad_weight[w_base + ky * k + kx] += go * in_data[in_idx];
                            grad_input[in_idx] += go * w_data[w_base + ky * k + kx];
                        }
                    }
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(input.shape().clone(), grad_input)?,
        Tensor::from_vec(weight.shape().clone(), grad_weight)?,
        Tensor::from_vec(Shape::new(&[c]), grad_bias)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data.to_vec()).unwrap()
    }

    #[test]
    fn output_size_same_and_strided() {
        assert_eq!(Conv2dConfig::same(3).output_size(8, 8).unwrap(), (8, 8));
        assert_eq!(
            Conv2dConfig::new(3, 2, 1).output_size(8, 8).unwrap(),
            (4, 4)
        );
        assert_eq!(
            Conv2dConfig::new(1, 1, 0).output_size(5, 7).unwrap(),
            (5, 7)
        );
        assert!(Conv2dConfig::new(9, 1, 0).output_size(4, 4).is_err());
        assert!(Conv2dConfig::new(3, 0, 1).output_size(4, 4).is_err());
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let input = t(&[1, 1, 2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let weight = t(&[1, 1, 1, 1], &[1.0]);
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_known_3x3() {
        // A 3x3 averaging-like kernel over a 3x3 input with no padding gives a
        // single output equal to the weighted sum.
        let input = t(
            &[1, 1, 3, 3],
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        let weight = t(&[1, 1, 3, 3], &[1.0; 9]);
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(3, 1, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(out.data()[0], 45.0);
    }

    #[test]
    fn conv2d_bias_applied_per_output_channel() {
        let input = t(&[1, 1, 2, 2], &[0.0; 4]);
        let weight = t(&[2, 1, 1, 1], &[1.0, 1.0]);
        let bias = t(&[2], &[0.5, -1.5]);
        let out = conv2d(&input, &weight, Some(&bias), Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out.get(&[0, 0, 1, 1]), 0.5);
        assert_eq!(out.get(&[0, 1, 0, 0]), -1.5);
    }

    #[test]
    fn conv2d_multi_channel_sums_over_input_channels() {
        let input = t(&[1, 2, 1, 1], &[2.0, 3.0]);
        let weight = t(&[1, 2, 1, 1], &[10.0, 100.0]);
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out.data()[0], 2.0 * 10.0 + 3.0 * 100.0);
    }

    #[test]
    fn conv2d_rejects_bad_weight_shape() {
        let input = Tensor::zeros(Shape::new(&[1, 3, 4, 4]));
        let weight = Tensor::zeros(Shape::new(&[8, 2, 3, 3]));
        assert!(conv2d(&input, &weight, None, Conv2dConfig::same(3)).is_err());
    }

    #[test]
    fn im2col_col2im_adjoint_property() {
        // <im2col(x), y> == <x, col2im(y)> for the adjoint pair.
        let cfg = Conv2dConfig::new(3, 2, 1);
        let x = t(
            &[1, 2, 4, 4],
            &(0..32).map(|i| i as f32 * 0.37 - 3.0).collect::<Vec<_>>(),
        );
        let cols = im2col(&x, cfg).unwrap();
        let y = cols.map(|v| (v * 1.7).sin());
        let lhs: f32 = cols.mul(&y).unwrap().sum();
        let back = col2im(&y, x.shape(), cfg).unwrap();
        let rhs: f32 = x.mul(&back).unwrap().sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    /// Finite-difference check of conv2d_backward for a small case.
    #[test]
    fn conv2d_backward_matches_finite_difference() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 1, 4, 4],
            &(0..16).map(|i| (i as f32 * 0.31).sin()).collect::<Vec<_>>(),
        );
        let weight = t(
            &[2, 1, 3, 3],
            &(0..18)
                .map(|i| (i as f32 * 0.17).cos() * 0.5)
                .collect::<Vec<_>>(),
        );
        let bias = t(&[2], &[0.1, -0.2]);
        // Loss = sum(conv(x)), so dL/dY is all ones.
        let out = conv2d(&input, &weight, Some(&bias), cfg).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &grad_out, cfg).unwrap();

        let eps = 1e-3;
        let loss = |inp: &Tensor, wt: &Tensor, bs: &Tensor| -> f32 {
            conv2d(inp, wt, Some(bs), cfg).unwrap().sum()
        };
        // Check a few input positions.
        for &idx in &[0usize, 5, 10, 15] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus, &weight, &bias) - loss(&minus, &weight, &bias)) / (2.0 * eps);
            assert!(
                (num - gi.data()[idx]).abs() < 1e-2,
                "input grad mismatch at {idx}: fd={num} got={}",
                gi.data()[idx]
            );
        }
        // Check a few weight positions.
        for &idx in &[0usize, 4, 9, 17] {
            let mut plus = weight.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = weight.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&input, &plus, &bias) - loss(&input, &minus, &bias)) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 1e-1,
                "weight grad mismatch at {idx}: fd={num} got={}",
                gw.data()[idx]
            );
        }
        // Bias gradient is the number of output positions per channel.
        assert!((gb.data()[0] - 16.0).abs() < 1e-4);
        assert!((gb.data()[1] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn depthwise_identity_and_independence() {
        // Each channel is convolved with its own kernel only.
        let input = t(&[1, 2, 2, 2], &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
        let weight = t(&[2, 1, 1, 1], &[1.0, 0.5]);
        let out = depthwise_conv2d(&input, &weight, None, Conv2dConfig::new(1, 1, 0)).unwrap();
        assert_eq!(out.get(&[0, 0, 1, 1]), 4.0);
        assert_eq!(out.get(&[0, 1, 1, 1]), 20.0);
    }

    #[test]
    fn depthwise_matches_dense_with_block_diagonal_weight() {
        // A depthwise conv equals a dense conv whose cross-channel weights are zero.
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 2, 4, 4],
            &(0..32).map(|i| (i as f32 * 0.21).sin()).collect::<Vec<_>>(),
        );
        let dw_weight = t(
            &[2, 1, 3, 3],
            &(0..18).map(|i| (i as f32 * 0.13).cos()).collect::<Vec<_>>(),
        );
        let mut dense = vec![0.0f32; 2 * 2 * 9];
        for c in 0..2 {
            for kk in 0..9 {
                dense[(c * 2 + c) * 9 + kk] = dw_weight.data()[c * 9 + kk];
            }
        }
        let dense_weight = t(&[2, 2, 3, 3], &dense);
        let a = depthwise_conv2d(&input, &dw_weight, None, cfg).unwrap();
        let b = conv2d(&input, &dense_weight, None, cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-5);
    }

    #[test]
    fn depthwise_backward_matches_finite_difference() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 2, 3, 3],
            &(0..18).map(|i| (i as f32 * 0.41).sin()).collect::<Vec<_>>(),
        );
        let weight = t(
            &[2, 1, 3, 3],
            &(0..18)
                .map(|i| (i as f32 * 0.23).cos() * 0.3)
                .collect::<Vec<_>>(),
        );
        let out = depthwise_conv2d(&input, &weight, None, cfg).unwrap();
        let grad_out = Tensor::ones(out.shape().clone());
        let (gi, gw, _gb) = depthwise_conv2d_backward(&input, &weight, &grad_out, cfg).unwrap();
        let eps = 1e-3;
        let loss = |inp: &Tensor, wt: &Tensor| depthwise_conv2d(inp, wt, None, cfg).unwrap().sum();
        for &idx in &[0usize, 7, 12, 17] {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&plus, &weight) - loss(&minus, &weight)) / (2.0 * eps);
            assert!((num - gi.data()[idx]).abs() < 1e-2);
        }
        for &idx in &[0usize, 8, 9, 17] {
            let mut plus = weight.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = weight.clone();
            minus.data_mut()[idx] -= eps;
            let num = (loss(&input, &plus) - loss(&input, &minus)) / (2.0 * eps);
            assert!((num - gw.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn arena_conv_matches_allocating_and_reuses_buffers() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[2, 3, 5, 5],
            &(0..150)
                .map(|i| (i as f32 * 0.17).sin())
                .collect::<Vec<_>>(),
        );
        let weight = t(
            &[4, 3, 3, 3],
            &(0..108)
                .map(|i| (i as f32 * 0.29).cos() * 0.4)
                .collect::<Vec<_>>(),
        );
        let bias = t(&[4], &[0.1, -0.2, 0.3, 0.0]);
        let expected = conv2d(&input, &weight, Some(&bias), cfg).unwrap();

        let mut arena = TensorArena::new();
        for round in 0..3 {
            let out = conv2d_arena(&input, &weight, Some(&bias), cfg, &mut arena).unwrap();
            assert_eq!(out, expected, "arena path must be bitwise identical");
            arena.recycle(out);
            if round > 0 {
                // After warm-up every buffer comes from the pool.
                assert_eq!(arena.stats().misses, 2, "padded input and out buffers");
            }
        }
        assert_eq!(
            arena.stats().hits,
            4,
            "both buffers hit in both warm rounds"
        );
    }

    #[test]
    fn allocating_wrapper_outputs_have_exact_capacity() {
        // The allocating API wraps the arena path with an exact-capacity
        // arena, so long-lived results don't pin rounded-up buffers.
        let input = Tensor::zeros(Shape::new(&[1, 3, 5, 5]));
        let weight = Tensor::zeros(Shape::new(&[2, 3, 3, 3]));
        let out = conv2d(&input, &weight, None, Conv2dConfig::same(3)).unwrap();
        let len = out.len();
        assert_eq!(out.into_vec().capacity(), len);
    }

    #[test]
    fn arena_depthwise_matches_allocating() {
        let cfg = Conv2dConfig::same(3);
        let input = t(
            &[1, 2, 4, 4],
            &(0..32).map(|i| (i as f32 * 0.11).sin()).collect::<Vec<_>>(),
        );
        let weight = t(
            &[2, 1, 3, 3],
            &(0..18).map(|i| (i as f32 * 0.07).cos()).collect::<Vec<_>>(),
        );
        let expected = depthwise_conv2d(&input, &weight, None, cfg).unwrap();
        let mut arena = TensorArena::new();
        let out = depthwise_conv2d_arena(&input, &weight, None, cfg, &mut arena).unwrap();
        assert_eq!(out, expected);
    }

    /// The per-pixel depthwise loop the row-wise kernel replaced: bias, then
    /// every in-bounds tap in `(ky, kx)` order. Kept as the bit-identity
    /// oracle.
    fn depthwise_reference(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        cfg: Conv2dConfig,
    ) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw().unwrap();
        let (oh, ow) = cfg.output_size(h, w).unwrap();
        let k = cfg.kernel;
        let mut out = vec![0.0f32; n * c * oh * ow];
        let in_data = input.data();
        let w_data = weight.data();
        for b in 0..n {
            for ci in 0..c {
                let in_base = (b * c + ci) * h * w;
                let w_base = ci * k * k;
                let b_val = bias.map(|bt| bt.data()[ci]).unwrap_or(0.0);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = b_val;
                        for ky in 0..k {
                            let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += in_data[in_base + iy as usize * w + ix as usize]
                                    * w_data[w_base + ky * k + kx];
                            }
                        }
                        out[(b * c + ci) * oh * ow + oy * ow + ox] = acc;
                    }
                }
            }
        }
        t(&[n, c, oh, ow], &out)
    }

    /// Deterministic values of mixed sign and magnitude, so a reordered sum
    /// would round differently somewhere.
    fn wavy(shape: &[usize], phase: f32) -> Tensor {
        let len = shape.iter().product::<usize>();
        let data: Vec<f32> = (0..len)
            .map(|i| ((i as f32 * 0.731 + phase).sin() * 3.7).powi(3) / 7.0)
            .collect();
        t(shape, &data)
    }

    #[test]
    fn row_wise_depthwise_is_bitwise_the_per_pixel_loop() {
        let mut configs = 0;
        for k in [1usize, 2, 3, 5] {
            for stride in 1..=3 {
                for padding in 0..=k {
                    for &(h, w) in &[(1usize, 1usize), (5, 7), (8, 8), (9, 4)] {
                        let cfg = Conv2dConfig::new(k, stride, padding);
                        if cfg.output_size(h, w).is_err() {
                            continue;
                        }
                        let input = wavy(&[2, 3, h, w], k as f32);
                        let weight = wavy(&[3, 1, k, k], stride as f32 + 0.5);
                        let bias = t(&[3], &[0.25, -1.5, 3.0e-3]);
                        for bias in [None, Some(&bias)] {
                            let expected = depthwise_reference(&input, &weight, bias, cfg);
                            let got = depthwise_conv2d(&input, &weight, bias, cfg).unwrap();
                            assert_eq!(got.shape(), expected.shape(), "{cfg:?} {h}x{w}");
                            let same = got
                                .data()
                                .iter()
                                .zip(expected.data())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                            assert!(same, "{cfg:?} on {h}x{w} (bias {})", bias.is_some());
                            configs += 1;
                        }
                    }
                }
            }
        }
        assert!(configs > 300, "grid shrank to {configs} configurations");
    }

    #[test]
    fn one_by_one_conv_is_bitwise_im2col_and_matmul() {
        let cfg = Conv2dConfig::new(1, 1, 0);
        for &(n, c_in, c_out, h, w) in &[(1, 3, 4, 5, 5), (3, 4, 2, 3, 7), (2, 6, 6, 1, 1)] {
            // Zeros in the weight exercise the GEMM's zero-skip branch, zeros
            // in the input the `0 · w` products it does not skip.
            let mut input = wavy(&[n, c_in, h, w], 0.3);
            for v in input.data_mut().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let mut weight = wavy(&[c_out, c_in, 1, 1], 1.1);
            weight.data_mut()[1] = 0.0;
            let bias = wavy(&[c_out], 2.0);
            for bias in [None, Some(&bias)] {
                let expected = conv_reference(&input, &weight, bias, cfg);
                let got = conv2d(&input, &weight, bias, cfg).unwrap();
                assert!(
                    same_bits(&got, &expected),
                    "{n}x{c_in}->{c_out} {h}x{w} bias {}",
                    bias.is_some()
                );
            }
        }
    }

    /// The im2col + GEMM forward the direct kernel replaced: one GEMM over
    /// the columns of the whole batch, then the bias. Kept as the
    /// bit-identity oracle.
    fn conv_reference(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        cfg: Conv2dConfig,
    ) -> Tensor {
        let (n, _, h, w) = input.shape().as_nchw().unwrap();
        let (oh, ow) = cfg.output_size(h, w).unwrap();
        let c_out = weight.shape().dims()[0];
        let cols = im2col(input, cfg).unwrap();
        let (rows, ncols) = cols.shape().as_matrix().unwrap();
        let mut prod = vec![0.0f32; c_out * ncols];
        matmul_slices(weight.data(), c_out, rows, cols.data(), ncols, &mut prod);
        let spatial = oh * ow;
        let mut out = vec![0.0f32; n * c_out * spatial];
        for co in 0..c_out {
            let b_val = bias.map(|bt| bt.data()[co]).unwrap_or(0.0);
            for b in 0..n {
                for s in 0..spatial {
                    out[(b * c_out + co) * spatial + s] =
                        prod[co * ncols + b * spatial + s] + b_val;
                }
            }
        }
        t(&[n, c_out, oh, ow], &out)
    }

    /// Bitwise equality, except that any NaN equals any NaN.
    fn same_bits(got: &Tensor, expected: &Tensor) -> bool {
        got.shape() == expected.shape()
            && got
                .data()
                .iter()
                .zip(expected.data())
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    #[test]
    fn direct_conv_is_bitwise_im2col_and_matmul() {
        let mut configs = 0;
        for k in [1usize, 2, 3, 5] {
            for stride in 1..=3 {
                // A 1×1 kernel takes the direct path only when padded.
                for padding in usize::from(k == 1)..=k {
                    for &(h, w) in &[(1usize, 1usize), (5, 7), (9, 4), (4, 17), (2, 19)] {
                        let cfg = Conv2dConfig::new(k, stride, padding);
                        if cfg.output_size(h, w).is_err() {
                            continue;
                        }
                        for c_out in [1usize, 3, 4, 5, 12] {
                            // Each case runs twice (without and with bias).
                            let case = configs / 2;
                            let variant = case % 4;
                            let n = 1 + (case / 4) % 3;
                            let c_in = 1 + case % 3;
                            let mut input = wavy(&[n, c_in, h, w], 0.4 + k as f32);
                            let mut weight =
                                wavy(&[c_out, c_in, k, k], 0.2 + stride as f32 + c_out as f32);
                            let taps = c_in * k * k;
                            match variant {
                                // No zero weight.
                                0 => {}
                                // Scattered zeros, and an infinite input the
                                // skipped taps must not turn into NaN.
                                1 => {
                                    for v in weight.data_mut().iter_mut().step_by(5) {
                                        *v = 0.0;
                                    }
                                    input.data_mut()[0] = f32::INFINITY;
                                }
                                // One output channel's whole weight row is zero.
                                2 => weight.data_mut()[(c_out / 2) * taps..][..taps].fill(0.0),
                                // NaN and ±inf in the input and the weights.
                                _ => {
                                    let len = input.len();
                                    input.data_mut()[len / 2] = f32::NAN;
                                    input.data_mut()[len - 1] = f32::NEG_INFINITY;
                                    let wl = weight.len();
                                    weight.data_mut()[wl / 3] = f32::NAN;
                                    weight.data_mut()[wl - 1] = f32::INFINITY;
                                    weight.data_mut()[0] = f32::NEG_INFINITY;
                                }
                            }
                            let bias = wavy(&[c_out], 1.3);
                            for bias in [None, Some(&bias)] {
                                let expected = conv_reference(&input, &weight, bias, cfg);
                                let got = conv2d(&input, &weight, bias, cfg).unwrap();
                                assert!(
                                    same_bits(&got, &expected),
                                    "{cfg:?} {n}x{c_in}x{h}x{w} -> {c_out} (variant {variant}, bias {})",
                                    bias.is_some()
                                );
                                configs += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(configs > 300, "grid shrank to {configs} configurations");
    }

    #[test]
    fn empty_dimensions_match_the_reference() {
        // An empty batch, no input or no output channels on both paths, and
        // an input with no rows that only its padding makes convolvable.
        let padded3 = Conv2dConfig::new(3, 1, 2);
        let pointwise = Conv2dConfig::new(1, 1, 0);
        for &(n, c_in, c_out, h, w, cfg) in &[
            (0, 2, 3, 4, 4, padded3),
            (1, 0, 3, 4, 4, padded3),
            (2, 2, 0, 4, 4, padded3),
            (1, 2, 3, 0, 4, padded3),
            (1, 0, 3, 4, 4, pointwise),
            (2, 2, 0, 4, 4, pointwise),
        ] {
            let input = wavy(&[n, c_in, h, w], 0.5);
            let weight = wavy(&[c_out, c_in, cfg.kernel, cfg.kernel], 1.5);
            let bias = wavy(&[c_out], 2.5);
            let expected = conv_reference(&input, &weight, Some(&bias), cfg);
            let got = conv2d(&input, &weight, Some(&bias), cfg).unwrap();
            assert!(
                same_bits(&got, &expected),
                "{n}x{c_in}x{h}x{w} -> {c_out} {cfg:?}"
            );
        }
    }

    #[test]
    fn kernels_reject_a_bias_of_the_wrong_length() {
        let input = wavy(&[1, 3, 5, 5], 0.5);
        let dense = wavy(&[4, 3, 3, 3], 1.5);
        let pointwise = wavy(&[4, 3, 1, 1], 2.5);
        let depthwise = wavy(&[3, 1, 3, 3], 3.5);
        for len in [2usize, 6] {
            let bias = wavy(&[len], 0.0);
            let mut arena = TensorArena::new();
            let cases = [
                (
                    conv2d_arena(
                        &input,
                        &pointwise,
                        Some(&bias),
                        Conv2dConfig::new(1, 1, 0),
                        &mut arena,
                    ),
                    4,
                ),
                (
                    conv2d_arena(
                        &input,
                        &dense,
                        Some(&bias),
                        Conv2dConfig::same(3),
                        &mut arena,
                    ),
                    4,
                ),
                (
                    depthwise_conv2d_arena(
                        &input,
                        &depthwise,
                        Some(&bias),
                        Conv2dConfig::same(3),
                        &mut arena,
                    ),
                    3,
                ),
            ];
            for (got, expected) in cases {
                assert_eq!(
                    got.unwrap_err(),
                    TensorError::LengthMismatch {
                        expected,
                        actual: len,
                    }
                );
            }
            // The check comes before any work: nothing was drawn from the arena.
            assert_eq!(arena.stats().misses, 0, "bias of length {len}");
        }
    }

    #[test]
    fn strided_conv_shapes() {
        let input = Tensor::zeros(Shape::new(&[2, 3, 8, 8]));
        let weight = Tensor::zeros(Shape::new(&[4, 3, 3, 3]));
        let out = conv2d(&input, &weight, None, Conv2dConfig::new(3, 2, 1)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 4, 4]);
    }
}
