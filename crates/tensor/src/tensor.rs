//! The core 2-D `f32` tensor type.

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// A row-major 2-D matrix of `f32`.
///
/// All TGAT computations are batched matrix operations of shape
/// `[batch, features]`, so a dedicated 2-D type keeps the kernels simple and
/// fast. Row vectors are represented as `1 x n`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { data, rows, cols }
    }

    /// Creates a `rows x cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: vec![0.0; rows * cols], rows, cols }
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { data: vec![value; rows * cols], rows, cols }
    }

    /// Creates a `1 x n` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    ///
    /// # Panics
    /// Panics if `rows * cols != self.len()`.
    pub fn reshape(mut self, rows: usize, cols: usize) -> Self {
        assert_eq!(rows * cols, self.data.len(), "reshape must preserve element count");
        self.rows = rows;
        self.cols = cols;
        self
    }

    /// Largest absolute difference against another tensor of the same shape.
    ///
    /// Used by the equivalence tests that validate TGOpt against the
    /// baseline within floating-point tolerance (paper §5.1.3).
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True if every element is finite (no NaN / infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Serialize for Tensor {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (self.rows, self.cols, &self.data).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Tensor {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (rows, cols, data): (usize, usize, Vec<f32>) = Deserialize::deserialize(deserializer)?;
        if data.len() != rows * cols {
            return Err(D::Error::custom(format!(
                "tensor payload length {} does not match shape {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Tensor { data, rows, cols })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            writeln!(f)?;
            for r in 0..self.rows {
                writeln!(f, "  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn zeros_full_and_set() {
        let mut t = Tensor::zeros(3, 2);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        t.set(2, 1, 7.5);
        assert_eq!(t.get(2, 1), 7.5);
        let f = Tensor::full(2, 2, 3.0);
        assert!(f.as_slice().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.reshape(3, 2);
        assert_eq!(r.shape(), (3, 2));
        assert_eq!(r.row(2), &[5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "preserve element count")]
    fn reshape_bad_count_panics() {
        let _ = Tensor::zeros(2, 3).reshape(2, 2);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![1.5, 2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(1, 2);
        assert!(t.all_finite());
        t.set(0, 1, f32::NAN);
        assert!(!t.all_finite());
    }

    #[test]
    fn row_vector_shape() {
        let v = Tensor::row_vector(&[1.0, 2.0]);
        assert_eq!(v.shape(), (1, 2));
    }
}
