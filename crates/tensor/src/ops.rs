//! Elementwise operations, reductions and matrix multiplication.

use crate::{Result, Shape, Tensor, TensorArena, TensorError};

/// Core matrix-multiply kernel shared by [`Tensor::matmul`] and the
/// arena-backed convolution path: `out += a (m×k) · b (k×n)`, all operands
/// contiguous row-major slices. `out` must be zero-initialised by the caller.
///
/// Loop order (i, p, j) keeps the innermost accesses contiguous in both the
/// output row and the B row, which matters for the 1×1 convolutions built on
/// top of this. A zero in `a` skips its whole row of `b`; the direct
/// convolution skips the same terms so that it matches this kernel bit for
/// bit.
pub(crate) fn matmul_slices(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
}

impl Tensor {
    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().dims().to_vec(),
                right: other.shape().dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(self.shape().clone(), data)
    }

    /// Elementwise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a - b)
            .collect();
        Tensor::from_vec(self.shape().clone(), data)
    }

    /// Elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a * b)
            .collect();
        Tensor::from_vec(self.shape().clone(), data)
    }

    /// Elementwise division (`self / other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let data = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| a / b)
            .collect();
        Tensor::from_vec(self.shape().clone(), data)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|v| v + value)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, value: f32) -> Tensor {
        self.map(|v| v * value)
    }

    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data().iter().map(|&v| f(v)).collect();
        Tensor::from_vec(self.shape().clone(), data).expect("map preserves length")
    }

    /// Arena-backed [`Tensor::map`]: the output buffer comes from (and can be
    /// recycled into) `arena`.
    pub fn map_arena(&self, f: impl Fn(f32) -> f32, arena: &mut TensorArena) -> Tensor {
        let mut data = arena.alloc(self.len());
        for (dst, &src) in data.iter_mut().zip(self.data()) {
            *dst = f(src);
        }
        Tensor::from_vec(self.shape().clone(), data).expect("map preserves length")
    }

    /// Arena-backed [`Tensor::add`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_arena(&self, other: &Tensor, arena: &mut TensorArena) -> Result<Tensor> {
        self.check_same_shape(other)?;
        let mut data = arena.alloc(self.len());
        for ((dst, &a), &b) in data.iter_mut().zip(self.data()).zip(other.data()) {
            *dst = a + b;
        }
        Tensor::from_vec(self.shape().clone(), data)
    }

    /// Arena-backed [`Tensor::clamp`].
    pub fn clamp_arena(&self, lo: f32, hi: f32, arena: &mut TensorArena) -> Tensor {
        self.map_arena(|v| v.clamp(lo, hi), arena)
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Accumulate `other * alpha` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, alpha: f32) -> Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Clamp every element into the inclusive range `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Elementwise sign (`-1.0`, `0.0` or `1.0`).
    pub fn signum(&self) -> Tensor {
        self.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (ties resolved to the first occurrence).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor is empty.
    pub fn argmax(&self) -> Result<usize> {
        if self.is_empty() {
            return Err(TensorError::invalid_argument("argmax of empty tensor"));
        }
        let mut best = 0usize;
        let mut best_val = self.data()[0];
        for (i, &v) in self.data().iter().enumerate() {
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        Ok(best)
    }

    /// Squared L2 norm of all elements.
    pub fn squared_norm(&self) -> f32 {
        self.data().iter().map(|v| v * v).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.squared_norm().sqrt()
    }

    /// Mean squared error against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mse(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other)?;
        if self.is_empty() {
            return Ok(0.0);
        }
        let sum: f32 = self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        Ok(sum / self.len() as f32)
    }

    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other)?;
        Ok(self
            .data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not rank 2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (m, k) = self.shape().as_matrix()?;
        let (k2, n) = other.shape().as_matrix()?;
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            });
        }
        let mut out = vec![0.0f32; m * n];
        matmul_slices(self.data(), m, k, other.data(), n, &mut out);
        Tensor::from_vec(Shape::new(&[m, n]), out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor> {
        let (m, n) = self.shape().as_matrix()?;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data()[i * n + j];
            }
        }
        Tensor::from_vec(Shape::new(&[n, m]), out)
    }
}

/// Concatenate NCHW batches along the channel dimension.
///
/// # Errors
///
/// Returns an error if the list is empty or the items disagree in batch size
/// or spatial dimensions.
pub fn concat_channels(items: &[&Tensor]) -> Result<Tensor> {
    let first = items
        .first()
        .ok_or_else(|| TensorError::invalid_argument("concat_channels on empty list"))?;
    let (n, _, h, w) = first.shape().as_nchw()?;
    let mut total_c = 0usize;
    for item in items {
        let (ni, ci, hi, wi) = item.shape().as_nchw()?;
        if ni != n || hi != h || wi != w {
            return Err(TensorError::ShapeMismatch {
                left: first.shape().dims().to_vec(),
                right: item.shape().dims().to_vec(),
            });
        }
        total_c += ci;
    }
    let mut out = vec![0.0f32; n * total_c * h * w];
    let plane = h * w;
    for b in 0..n {
        let mut c_offset = 0usize;
        for item in items {
            let ci = item.shape().dim(1);
            let src = &item.data()[b * ci * plane..(b + 1) * ci * plane];
            let dst_start = (b * total_c + c_offset) * plane;
            out[dst_start..dst_start + ci * plane].copy_from_slice(src);
            c_offset += ci;
        }
    }
    Tensor::from_vec(Shape::new(&[n, total_c, h, w]), out)
}

/// Split an NCHW batch along the channel dimension into chunks of the given
/// sizes (the adjoint of [`concat_channels`]).
///
/// # Errors
///
/// Returns an error if the chunk sizes do not sum to the channel count.
pub fn split_channels(input: &Tensor, sizes: &[usize]) -> Result<Vec<Tensor>> {
    let (n, c, h, w) = input.shape().as_nchw()?;
    let total: usize = sizes.iter().sum();
    if total != c {
        return Err(TensorError::invalid_argument(format!(
            "split sizes sum to {total} but the tensor has {c} channels"
        )));
    }
    let plane = h * w;
    let mut out = Vec::with_capacity(sizes.len());
    let mut c_offset = 0usize;
    for &ci in sizes {
        let mut data = vec![0.0f32; n * ci * plane];
        for b in 0..n {
            let src_start = (b * c + c_offset) * plane;
            let dst_start = b * ci * plane;
            data[dst_start..dst_start + ci * plane]
                .copy_from_slice(&input.data()[src_start..src_start + ci * plane]);
        }
        out.push(Tensor::from_vec(Shape::new(&[n, ci, h, w]), data)?);
        c_offset += ci;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec2(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data.to_vec()).unwrap()
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = vec2(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = vec2(&[2, 2], &[4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.div(&b).unwrap().data(), &[0.25, 2.0 / 3.0, 1.5, 4.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros(Shape::new(&[2, 2]));
        let b = Tensor::zeros(Shape::new(&[4]));
        assert!(a.add(&b).is_err());
        assert!(a.mse(&b).is_err());
    }

    #[test]
    fn scalar_ops_and_map() {
        let a = vec2(&[3], &[1.0, -2.0, 3.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, -1.0, 4.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.signum().data(), &[1.0, -1.0, 1.0]);
        assert_eq!(a.clamp(-1.0, 2.0).data(), &[1.0, -1.0, 2.0]);
        let mut m = a.clone();
        m.map_inplace(|v| v * v);
        assert_eq!(m.data(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn add_scaled_inplace_accumulates() {
        let mut a = vec2(&[2], &[1.0, 2.0]);
        let b = vec2(&[2], &[10.0, 20.0]);
        a.add_scaled_inplace(&b, 0.5).unwrap();
        assert_eq!(a.data(), &[6.0, 12.0]);
        let c = Tensor::zeros(Shape::new(&[3]));
        assert!(a.add_scaled_inplace(&c, 1.0).is_err());
    }

    #[test]
    fn reductions() {
        let a = vec2(&[4], &[1.0, -2.0, 3.0, 0.5]);
        assert_eq!(a.sum(), 2.5);
        assert_eq!(a.mean(), 0.625);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax().unwrap(), 2);
        assert!((a.squared_norm() - (1.0 + 4.0 + 9.0 + 0.25)).abs() < 1e-6);
    }

    #[test]
    fn mse_and_max_abs_diff() {
        let a = vec2(&[2], &[1.0, 2.0]);
        let b = vec2(&[2], &[2.0, 4.0]);
        assert!((a.mse(&b).unwrap() - 2.5).abs() < 1e-6);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 2.0);
    }

    #[test]
    fn matmul_known_result() {
        let a = vec2(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = vec2(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_dimension_errors() {
        let a = Tensor::zeros(Shape::new(&[2, 3]));
        let b = Tensor::zeros(Shape::new(&[4, 2]));
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let c = Tensor::zeros(Shape::new(&[3]));
        assert!(a.matmul(&c).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = vec2(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose().unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), 6.0);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn argmax_of_empty_is_error() {
        let t = Tensor::from_vec(Shape::new(&[0]), vec![]).unwrap();
        assert!(t.argmax().is_err());
    }

    #[test]
    fn concat_and_split_channels_roundtrip() {
        let a = vec2(&[2, 1, 2, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = vec2(
            &[2, 2, 2, 2],
            &(10..26).map(|v| v as f32).collect::<Vec<_>>(),
        );
        let merged = concat_channels(&[&a, &b]).unwrap();
        assert_eq!(merged.shape().dims(), &[2, 3, 2, 2]);
        // Batch 0 keeps a's channel first, then b's two channels.
        assert_eq!(merged.get(&[0, 0, 0, 0]), 1.0);
        assert_eq!(merged.get(&[0, 1, 0, 0]), 10.0);
        assert_eq!(merged.get(&[1, 0, 0, 0]), 5.0);
        let parts = split_channels(&merged, &[1, 2]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_rejects_mismatched_spatial_dims() {
        let a = Tensor::zeros(Shape::new(&[1, 1, 2, 2]));
        let b = Tensor::zeros(Shape::new(&[1, 1, 3, 3]));
        assert!(concat_channels(&[&a, &b]).is_err());
        assert!(concat_channels(&[]).is_err());
    }

    #[test]
    fn arena_elementwise_variants_match_allocating() {
        let mut arena = TensorArena::new();
        let a = vec2(&[2, 2], &[1.0, -2.0, 3.0, 4.0]);
        let b = vec2(&[2, 2], &[0.5, 0.5, 0.5, 0.5]);
        assert_eq!(a.map_arena(|v| v * 2.0, &mut arena), a.map(|v| v * 2.0));
        assert_eq!(a.add_arena(&b, &mut arena).unwrap(), a.add(&b).unwrap());
        assert_eq!(a.clamp_arena(0.0, 2.0, &mut arena), a.clamp(0.0, 2.0));
        let wrong = Tensor::zeros(Shape::new(&[3]));
        assert!(a.add_arena(&wrong, &mut arena).is_err());
    }

    #[test]
    fn split_rejects_bad_sizes() {
        let a = Tensor::zeros(Shape::new(&[1, 4, 2, 2]));
        assert!(split_channels(&a, &[1, 2]).is_err());
        assert!(split_channels(&a, &[2, 2]).is_ok());
    }
}
