use crate::{Init, Rng64, ShapeError};
use muffin_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Number of `f32` lanes in one 32-byte SIMD register; rows are padded to a
/// multiple of this so every row starts on a 32-byte boundary.
pub const LANE_WIDTH: usize = 8;

/// One 32-byte-aligned group of [`LANE_WIDTH`] floats. Backing the matrix
/// store with a `Vec<Lane>` (instead of `Vec<f32>`) is what guarantees the
/// allocation itself is 32-byte aligned without a custom allocator.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
struct Lane([f32; LANE_WIDTH]);

const ZERO_LANE: Lane = Lane([0.0; LANE_WIDTH]);

/// Row stride (in `f32`s) for a logical column count: `cols` rounded up to
/// the SIMD lane width. Zero iff `cols` is zero.
#[inline]
fn padded_stride(cols: usize) -> usize {
    (cols + LANE_WIDTH - 1) / LANE_WIDTH * LANE_WIDTH
}

/// Row-block size for the matmul kernels (outer-loop tiling only).
const I_BLOCK: usize = 64;
/// Shared-dimension block size for the matmul kernels.
const K_BLOCK: usize = 64;
/// Column-block size for `matmul_nt_into`'s dot-product tiling.
const J_BLOCK: usize = 64;
/// Widest padded output row (four lanes) the matmul kernels accumulate in
/// registers instead of running the blocked loops; see [`small_width_row`].
const SMALL_WIDTH: usize = 4 * LANE_WIDTH;

/// A dense, row-major `f32` matrix over an aligned, padded backing store.
///
/// This is the single tensor type used throughout the Muffin workspace.
/// Logically the matrix is row-major: element `(r, c)` lives at
/// `r * stride + c` where `stride` is `cols` rounded up to [`LANE_WIDTH`]
/// (so every row begins on a 32-byte boundary and whole rows autovectorize
/// cleanly). The padding lanes between `cols` and `stride` are storage
/// only: no accessor, kernel, or serializer ever reads them, and the JSON
/// format carries the logical shape alone.
///
/// Hot-path operations (`matmul`, element-wise arithmetic) panic on shape
/// mismatch — they sit inside training loops where a mismatch is a
/// programming error, and the panic message names the offending shapes.
/// Construction from external data is fallible ([`Matrix::from_vec`]).
///
/// # Example
///
/// ```
/// use muffin_tensor::Matrix;
///
/// # fn main() -> Result<(), muffin_tensor::ShapeError> {
/// let x = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.])?;
/// let y = x.transpose();
/// assert_eq!(y.shape(), (3, 2));
/// assert_eq!(y.get(2, 1), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Distance in `f32`s between consecutive row starts; `cols` rounded up
    /// to [`LANE_WIDTH`]. Zero iff `cols` is zero.
    stride: usize,
    data: Vec<Lane>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let stride = padded_stride(cols);
        Self {
            rows,
            cols,
            stride,
            data: vec![ZERO_LANE; rows * stride / LANE_WIDTH],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for row in m.iter_rows_mut() {
            row.fill(value);
        }
        m
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new("from_vec", (rows, cols), (data.len(), 1)));
        }
        let mut m = Self::zeros(rows, cols);
        for (dst, src) in m.iter_rows_mut().zip(data.chunks_exact(cols.max(1))) {
            dst.copy_from_slice(src);
        }
        Ok(m)
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, ShapeError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, |r| r.len());
        for row in rows {
            if row.len() != n_cols {
                return Err(ShapeError::new(
                    "from_rows",
                    (n_rows, n_cols),
                    (n_rows, row.len()),
                ));
            }
        }
        let mut m = Self::zeros(n_rows, n_cols);
        for (dst, src) in m.iter_rows_mut().zip(rows.iter()) {
            dst.copy_from_slice(src);
        }
        Ok(m)
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            let row = m.row_mut(r);
            for (c, x) in row.iter_mut().enumerate() {
                *x = f(r, c);
            }
        }
        m
    }

    /// Creates a randomly initialised matrix using scheme `init`.
    ///
    /// Fan-in is taken as the row count and fan-out as the column count,
    /// matching the `x · W` convention used by [`muffin-nn`]'s linear layer.
    ///
    /// [`muffin-nn`]: crate
    pub fn random(rows: usize, cols: usize, init: Init, rng: &mut Rng64) -> Self {
        Self::from_fn(rows, cols, |_, _| init.sample(rows, cols, rng))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row stride of the backing store in `f32`s: [`Matrix::cols`] rounded
    /// up to [`LANE_WIDTH`]. Equal to `cols` when the column count is
    /// already a lane multiple.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total number of **logical** elements (`rows * cols`; padding lanes
    /// are storage, not elements).
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix has zero logical elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full backing store including padding lanes, row-major with
    /// stride [`Matrix::stride`].
    ///
    /// The padding lanes (`cols..stride` of each row) carry no meaning:
    /// kernels and serializers never read them. This accessor exists for
    /// whole-buffer consumers that tolerate them — optimizer parameter
    /// visits (padding stays zero under every update rule that maps zero
    /// gradient and zero value to zero delta) and tests that deliberately
    /// poison padding to prove nothing reads it.
    pub fn padded_data(&self) -> &[f32] {
        self.buf()
    }

    /// Mutable view of the full backing store including padding lanes.
    ///
    /// See [`Matrix::padded_data`] for the contract on padding lanes.
    pub fn padded_data_mut(&mut self) -> &mut [f32] {
        self.buf_mut()
    }

    /// Copies the logical elements into a compact row-major vector of
    /// length `rows * cols` (padding lanes are dropped).
    pub fn to_vec(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len());
        for row in self.iter_rows() {
            out.extend_from_slice(row);
        }
        out
    }

    /// Consumes the matrix and returns its logical elements as a compact
    /// row-major vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.to_vec()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.buf()[r * self.stride + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        let idx = r * self.stride + c;
        self.buf_mut()[idx] = v;
    }

    /// Borrow of row `r` as a slice (logical columns only, no padding).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        let start = r * self.stride;
        &self.buf()[start..start + self.cols]
    }

    /// Mutable borrow of row `r` (logical columns only, no padding).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        let start = r * self.stride;
        let end = start + self.cols;
        &mut self.buf_mut()[start..end]
    }

    /// Iterator over logical rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        let cols = self.cols;
        self.buf()
            .chunks_exact(self.stride.max(1))
            .map(move |chunk| &chunk[..cols])
    }

    /// Iterator over logical rows as mutable slices.
    pub fn iter_rows_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        let cols = self.cols;
        let stride = self.stride.max(1);
        self.buf_mut()
            .chunks_exact_mut(stride)
            .map(move |chunk| &mut chunk[..cols])
    }

    /// Reshapes to `rows`×`cols` and sets every element (and every padding
    /// lane) to zero, reusing the existing allocation whenever its capacity
    /// suffices.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.stride = padded_stride(cols);
        let lanes = rows * self.stride / LANE_WIDTH;
        self.data.clear();
        self.data.resize(lanes, ZERO_LANE);
    }

    /// Overwrites `self` with the shape and contents of `src`, reusing the
    /// existing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.stride = src.stride;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// View of the backing store as a flat `f32` slice (including padding).
    #[inline]
    fn buf(&self) -> &[f32] {
        // SAFETY: `Lane` is `repr(C)` over `[f32; LANE_WIDTH]`, so a
        // `Vec<Lane>` is layout-compatible with a contiguous run of
        // `len * LANE_WIDTH` floats at alignment 32 >= 4.
        unsafe {
            std::slice::from_raw_parts(
                self.data.as_ptr().cast::<f32>(),
                self.data.len() * LANE_WIDTH,
            )
        }
    }

    /// Mutable view of the backing store as a flat `f32` slice.
    #[inline]
    fn buf_mut(&mut self) -> &mut [f32] {
        // SAFETY: see `buf`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.data.as_mut_ptr().cast::<f32>(),
                self.data.len() * LANE_WIDTH,
            )
        }
    }

    /// Finiteness pre-scan of the logical elements, run **once per operand
    /// per kernel call** (counted by [`crate::instrument::finiteness_scans`]).
    fn all_finite_logical(&self) -> bool {
        crate::instrument::record_finiteness_scan();
        self.iter_rows()
            .all(|row| row.iter().all(|x| x.is_finite()))
    }

    /// Matrix product `self · other`.
    ///
    /// The kernel is cache-blocked over the two outer loops (64×64 row and
    /// shared-dimension tiles) while the inner
    /// accumulation runs over each output row in ascending `k` order — the
    /// same per-element operation sequence as the naive `i-k-j` triple
    /// loop, so results are byte-for-byte identical to it. Outputs at most
    /// 32 floats wide (padded) keep each row in registers for the whole
    /// shared dimension instead, with the same per-element sequence.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing the product into `out`, reusing its
    /// allocation. Accumulation order is identical to `matmul`, so the
    /// result is byte-for-byte the same.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.resize_zeroed(m, n);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        // Skipping `a == 0` terms of the inner product is only sound when
        // `other` is all-finite: `0 · NaN` and `0 · ∞` are NaN and must
        // propagate, exactly as they do in `matmul_nt`. The scan is hoisted
        // out of the loops and runs exactly once per call (the instrument
        // counter pins this); it touches logical elements only.
        let skip_zeros = other.all_finite_logical();
        match out.stride {
            8 => matmul_small::<8>(self, other, out, skip_zeros),
            16 => matmul_small::<16>(self, other, out, skip_zeros),
            24 => matmul_small::<24>(self, other, out, skip_zeros),
            32 => matmul_small::<32>(self, other, out, skip_zeros),
            _ => matmul_blocked(self, other, out, skip_zeros),
        }
    }

    /// Matrix product `selfᵀ · other` without materialising the transpose.
    ///
    /// Cache-blocked like [`Matrix::matmul`] (shared-dimension and column
    /// tiles on the two outer loops), with the same register path for
    /// small outputs; per output element the shared dimension is
    /// accumulated in ascending order, byte-identical to the naive loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] writing the product into `out`, reusing its
    /// allocation. Accumulation order is identical to `matmul_tn`, so the
    /// result is byte-for-byte the same.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})^T . {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (r_dim, c_dim, n) = (self.rows, self.cols, other.cols);
        out.resize_zeroed(c_dim, n);
        if r_dim == 0 || c_dim == 0 || n == 0 {
            return;
        }
        // Same hoisted pre-scan as `matmul_into`: one scan of `other` per
        // call guards the zero-skip path against swallowing NaN/∞.
        let skip_zeros = other.all_finite_logical();
        match out.stride {
            8 => matmul_tn_small::<8>(self, other, out, skip_zeros),
            16 => matmul_tn_small::<16>(self, other, out, skip_zeros),
            24 => matmul_tn_small::<24>(self, other, out, skip_zeros),
            32 => matmul_tn_small::<32>(self, other, out, skip_zeros),
            _ => matmul_tn_blocked(self, other, out, skip_zeros),
        }
    }

    /// Matrix product `self · otherᵀ` without materialising the transpose.
    ///
    /// Cache-blocked over row and column tiles, with the register path of
    /// [`Matrix::matmul`] when the output and the shared dimension are both
    /// at most 32 wide; each dot product folds the shared dimension
    /// sequentially from zero, byte-identical to the naive
    /// `iter().zip().map().sum()` formulation.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing the product into `out`, reusing its
    /// allocation. Accumulation order is identical to `matmul_nt`, so the
    /// result is byte-for-byte the same.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} . ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, p) = (self.rows, self.cols, other.rows);
        out.resize_zeroed(m, p);
        if m == 0 || k == 0 || p == 0 {
            return;
        }
        // The small path holds the transposed right operand on the stack.
        match (out.stride, k <= SMALL_WIDTH) {
            (8, true) => matmul_nt_small::<8>(self, other, out),
            (16, true) => matmul_nt_small::<16>(self, other, out),
            (24, true) => matmul_nt_small::<24>(self, other, out),
            (32, true) => matmul_nt_small::<32>(self, other, out),
            _ => matmul_nt_blocked(self, other, out),
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        let so = out.stride;
        let obuf = out.buf_mut();
        for (r, row) in self.iter_rows().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                obuf[c * so + r] = v;
            }
        }
        out
    }

    /// Applies `f` to every logical element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for (dst, src) in out.iter_rows_mut().zip(self.iter_rows()) {
            for (o, &x) in dst.iter_mut().zip(src.iter()) {
                *o = f(x);
            }
        }
        out
    }

    /// Applies `f` to every logical element in place (padding untouched).
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for row in self.iter_rows_mut() {
            for x in row.iter_mut() {
                *x = f(*x);
            }
        }
    }

    /// Combines two same-shape matrices element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        for ((dst, a_row), b_row) in out
            .iter_rows_mut()
            .zip(self.iter_rows())
            .zip(other.iter_rows())
        {
            for ((o, &a), &b) in dst.iter_mut().zip(a_row.iter()).zip(b_row.iter()) {
                *o = f(a, b);
            }
        }
        out
    }

    /// In-place variant of [`Matrix::zip_map`]: `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_apply(&mut self, other: &Matrix, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip_apply shape mismatch");
        for (dst, src) in self.iter_rows_mut().zip(other.iter_rows()) {
            for (a, &b) in dst.iter_mut().zip(src.iter()) {
                *a = f(*a, b);
            }
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scaled(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `s * other` into `self` in place (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (dst, src) in self.iter_rows_mut().zip(other.iter_rows()) {
            for (a, &b) in dst.iter_mut().zip(src.iter()) {
                *a += s * b;
            }
        }
    }

    /// Adds `bias` to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_in_place(&mut self, bias: &[f32]) {
        assert_eq!(
            bias.len(),
            self.cols,
            "bias length {} != cols {}",
            bias.len(),
            self.cols
        );
        for row in self.iter_rows_mut() {
            for (x, &b) in row.iter_mut().zip(bias.iter()) {
                *x += b;
            }
        }
    }

    /// Sum of every logical element (row-major fold, padding excluded).
    pub fn sum(&self) -> f32 {
        let mut s = 0.0f32;
        for row in self.iter_rows() {
            for &x in row {
                s += x;
            }
        }
        s
    }

    /// Mean of every element, or `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Column-wise sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = Vec::new();
        self.col_sums_into(&mut sums);
        sums
    }

    /// [`Matrix::col_sums`] writing into `out`, reusing its allocation.
    /// Accumulation order is identical to `col_sums`.
    pub fn col_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for row in self.iter_rows() {
            for (s, &x) in out.iter_mut().zip(row.iter()) {
                *s += x;
            }
        }
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows().map(crate::ops::argmax).collect()
    }

    /// Applies a numerically stable softmax to each row, returning a new matrix.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for row in out.iter_rows_mut() {
            crate::ops::softmax_in_place(row);
        }
        out
    }

    /// Row-wise log-softmax, numerically stable.
    pub fn log_softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for row in out.iter_rows_mut() {
            let lse = crate::ops::logsumexp(row);
            for x in row.iter_mut() {
                *x -= lse;
            }
        }
        out
    }

    /// Returns a matrix consisting of the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::select_rows`] writing into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize_zeroed(indices.len(), self.cols);
        for (dst, &i) in (0..indices.len()).zip(indices.iter()) {
            let src = self.row(i);
            out.row_mut(dst).copy_from_slice(src);
        }
    }

    /// Returns a copy of the contiguous row range `range.start..range.end`.
    ///
    /// Equivalent to [`Matrix::select_rows`] on the collected range, but
    /// without materializing an index vector: contiguous rows copy as one
    /// block. Chunked prediction uses this on its hot path.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > rows` or `range.start > range.end`.
    pub fn row_range(&self, range: std::ops::Range<usize>) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.row_range_into(range, &mut out);
        out
    }

    /// [`Matrix::row_range`] writing into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > rows` or `range.start > range.end`.
    pub fn row_range_into(&self, range: std::ops::Range<usize>, out: &mut Matrix) {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {}..{} out of bounds for {} rows",
            range.start,
            range.end,
            self.rows
        );
        let n = range.end - range.start;
        out.resize_zeroed(n, self.cols);
        if n == 0 || self.cols == 0 {
            return;
        }
        // Equal column counts mean equal strides, so the range is one
        // contiguous block in both backing stores.
        let stride = self.stride;
        let src = &self.buf()[range.start * stride..range.end * stride];
        let dst = out.buf_mut();
        dst[..n * stride].copy_from_slice(src);
        // The block copy brought the source's padding lanes along; restore
        // the all-zero padding `resize_zeroed` guarantees so the result is
        // byte-identical to a row-by-row copy.
        if self.cols < stride {
            for r in 0..n {
                dst[r * stride + self.cols..(r + 1) * stride].fill(0.0);
            }
        }
    }

    /// Horizontally concatenates matrices with equal row counts.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the row counts differ or `parts` is empty.
    pub fn hcat(parts: &[&Matrix]) -> Result<Matrix, ShapeError> {
        let first = parts
            .first()
            .ok_or_else(|| ShapeError::new("hcat", (1, 1), (0, 0)))?;
        let rows = first.rows;
        // Validate every part once up front so a mismatch can't cost a
        // full-size allocation plus a partial copy.
        for m in parts {
            if m.rows != rows {
                return Err(ShapeError::new("hcat", (rows, m.cols), m.shape()));
            }
        }
        let total_cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, total_cols);
        for r in 0..rows {
            let dst = out.row_mut(r);
            let mut off = 0;
            for m in parts {
                dst[off..off + m.cols].copy_from_slice(m.row(r));
                off += m.cols;
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        let mut sq = 0.0f32;
        for row in self.iter_rows() {
            for &x in row {
                sq += x * x;
            }
        }
        sq.sqrt()
    }
}

// Every matmul kernel below is `#[inline(never)]`: out of line, each one
// starts on its own 64-byte boundary (see `.cargo/config.toml`), so its loop
// layout does not depend on the dispatch in front of it. With the small
// kernels inlined into `matmul_into`, the unchanged blocked loops ran
// 10–15% slower on 64×64 and 128×128 products.

/// The cache-blocked [`Matrix::matmul_into`] for outputs wider than
/// [`SMALL_WIDTH`].
#[inline(never)]
fn matmul_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix, skip_zeros: bool) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let (sa, sb, so) = (a.stride, b.stride, out.stride);
    let (abuf, bbuf) = (a.buf(), b.buf());
    let obuf = out.buf_mut();
    for ii in (0..m).step_by(I_BLOCK) {
        let i_end = (ii + I_BLOCK).min(m);
        for kk in (0..k).step_by(K_BLOCK) {
            let k_end = (kk + K_BLOCK).min(k);
            for i in ii..i_end {
                let a_row = &abuf[i * sa + kk..i * sa + k_end];
                let out_row = &mut obuf[i * so..i * so + n];
                let mut dk = 0;
                while dk + 4 <= a_row.len() {
                    let kb = kk + dk;
                    let a4 = [a_row[dk], a_row[dk + 1], a_row[dk + 2], a_row[dk + 3]];
                    let b4 = [
                        &bbuf[kb * sb..kb * sb + n],
                        &bbuf[(kb + 1) * sb..(kb + 1) * sb + n],
                        &bbuf[(kb + 2) * sb..(kb + 2) * sb + n],
                        &bbuf[(kb + 3) * sb..(kb + 3) * sb + n],
                    ];
                    rank4_update(out_row, a4, b4, skip_zeros);
                    dk += 4;
                }
                while dk < a_row.len() {
                    let a = a_row[dk];
                    let kb = kk + dk;
                    if !(a == 0.0 && skip_zeros) {
                        rank1_update(out_row, a, &bbuf[kb * sb..kb * sb + n]);
                    }
                    dk += 1;
                }
            }
        }
    }
}

/// The cache-blocked [`Matrix::matmul_tn_into`] for outputs wider than
/// [`SMALL_WIDTH`].
#[inline(never)]
fn matmul_tn_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix, skip_zeros: bool) {
    let (r_dim, c_dim, n) = (a.rows, a.cols, b.cols);
    let (sa, sb, so) = (a.stride, b.stride, out.stride);
    let (abuf, bbuf) = (a.buf(), b.buf());
    let obuf = out.buf_mut();
    for rr in (0..r_dim).step_by(K_BLOCK) {
        let r_end = (rr + K_BLOCK).min(r_dim);
        for ii in (0..c_dim).step_by(I_BLOCK) {
            let i_end = (ii + I_BLOCK).min(c_dim);
            for i in ii..i_end {
                let out_row = &mut obuf[i * so..i * so + n];
                let mut r = rr;
                while r + 4 <= r_end {
                    let a4 = [
                        abuf[r * sa + i],
                        abuf[(r + 1) * sa + i],
                        abuf[(r + 2) * sa + i],
                        abuf[(r + 3) * sa + i],
                    ];
                    let b4 = [
                        &bbuf[r * sb..r * sb + n],
                        &bbuf[(r + 1) * sb..(r + 1) * sb + n],
                        &bbuf[(r + 2) * sb..(r + 2) * sb + n],
                        &bbuf[(r + 3) * sb..(r + 3) * sb + n],
                    ];
                    rank4_update(out_row, a4, b4, skip_zeros);
                    r += 4;
                }
                while r < r_end {
                    let a = abuf[r * sa + i];
                    if !(a == 0.0 && skip_zeros) {
                        rank1_update(out_row, a, &bbuf[r * sb..r * sb + n]);
                    }
                    r += 1;
                }
            }
        }
    }
}

/// The cache-blocked [`Matrix::matmul_nt_into`] for outputs wider than
/// [`SMALL_WIDTH`] or shared dimensions longer than it.
#[inline(never)]
fn matmul_nt_blocked(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, k, p) = (a.rows, a.cols, b.rows);
    let (sa, sb, so) = (a.stride, b.stride, out.stride);
    let (abuf, bbuf) = (a.buf(), b.buf());
    let obuf = out.buf_mut();
    for ii in (0..m).step_by(I_BLOCK) {
        let i_end = (ii + I_BLOCK).min(m);
        for jj in (0..p).step_by(J_BLOCK) {
            let j_end = (jj + J_BLOCK).min(p);
            for i in ii..i_end {
                let a_row = &abuf[i * sa..i * sa + k];
                let out_row = &mut obuf[i * so..i * so + p];
                let mut j = jj;
                // Four independent dot products share each `a` load.
                // Accumulators start at -0.0 — the IEEE additive
                // identity `Iterator::sum` folds from (`x + -0.0 == x`
                // bitwise for every x, which +0.0 is not: `-0.0 + 0.0`
                // flips to +0.0) — so each dot is bitwise `.sum()`.
                while j + 4 <= j_end {
                    let b0 = &bbuf[j * sb..j * sb + k];
                    let b1 = &bbuf[(j + 1) * sb..(j + 1) * sb + k];
                    let b2 = &bbuf[(j + 2) * sb..(j + 2) * sb + k];
                    let b3 = &bbuf[(j + 3) * sb..(j + 3) * sb + k];
                    let (mut d0, mut d1, mut d2, mut d3) = (-0.0f32, -0.0f32, -0.0f32, -0.0f32);
                    for (&a, (((&v0, &v1), &v2), &v3)) in a_row
                        .iter()
                        .zip(b0.iter().zip(b1.iter()).zip(b2.iter()).zip(b3.iter()))
                    {
                        d0 += a * v0;
                        d1 += a * v1;
                        d2 += a * v2;
                        d3 += a * v3;
                    }
                    out_row[j] = d0;
                    out_row[j + 1] = d1;
                    out_row[j + 2] = d2;
                    out_row[j + 3] = d3;
                    j += 4;
                }
                while j < j_end {
                    let b_row = &bbuf[j * sb..j * sb + k];
                    let mut dot = -0.0f32;
                    for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                        dot += a * b;
                    }
                    out_row[j] = dot;
                    j += 1;
                }
            }
        }
    }
}

/// One output row of the small-width path: `W` accumulators seeded with
/// `init`, then `acc[j] += a_t * rows[t][j]` for each step `t` in ascending
/// order, skipping `a_t == 0.0` when `skip_zeros` is set. Per output element
/// that is the operation sequence of the blocked kernels, with the row held
/// in registers across the whole shared dimension and stored once. Lanes
/// past the output's logical width may pick up the right operand's padding;
/// callers store only the logical prefix.
#[inline(always)]
fn small_width_row<const W: usize>(
    init: f32,
    coefs: impl Iterator<Item = f32>,
    rows: &[[f32; W]],
    skip_zeros: bool,
) -> [f32; W] {
    let mut acc = [init; W];
    for (a, row) in coefs.zip(rows) {
        if a == 0.0 && skip_zeros {
            continue;
        }
        for (o, &b) in acc.iter_mut().zip(row) {
            *o += a * b;
        }
    }
    acc
}

/// [`Matrix::matmul_into`] for an output whose padded width `W` is at most
/// [`SMALL_WIDTH`]: `+0.0` seeds and the caller's zero-skip guard, as in
/// the blocked kernel. `b`'s rows share the output's stride `W`.
#[inline(never)]
fn matmul_small<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix, skip_zeros: bool) {
    let (k, n) = (a.cols, b.cols);
    let (b_rows, _) = b.buf().as_chunks::<W>();
    let (out_rows, _) = out.buf_mut().as_chunks_mut::<W>();
    for (a_row, out_row) in a.iter_rows().zip(out_rows) {
        let acc = small_width_row(0.0, a_row.iter().copied(), &b_rows[..k], skip_zeros);
        out_row[..n].copy_from_slice(&acc[..n]);
    }
}

/// [`Matrix::matmul_tn_into`] for an output whose padded width `W` is at
/// most [`SMALL_WIDTH`]: output row `i` folds column `i` of `a` against the
/// rows of `b`, which share the output's stride `W`.
#[inline(never)]
fn matmul_tn_small<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix, skip_zeros: bool) {
    let (sa, n) = (a.stride, b.cols);
    let (b_rows, _) = b.buf().as_chunks::<W>();
    let (out_rows, _) = out.buf_mut().as_chunks_mut::<W>();
    for (i, out_row) in out_rows.iter_mut().enumerate() {
        let column = a.buf().chunks_exact(sa).map(|row| row[i]);
        let acc = small_width_row(0.0, column, b_rows, skip_zeros);
        out_row[..n].copy_from_slice(&acc[..n]);
    }
}

/// [`Matrix::matmul_nt_into`] for an output whose padded width `W` is at
/// most [`SMALL_WIDTH`] and a shared dimension of at most [`SMALL_WIDTH`]:
/// `b` is copied, transposed, into a stack buffer, and each dot product
/// folds from `-0.0` with no zero skip, bitwise the blocked kernel's
/// `Iterator::sum`-style fold.
#[inline(never)]
fn matmul_nt_small<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (k, p) = (a.cols, b.rows);
    let mut bt = [[0.0f32; W]; SMALL_WIDTH];
    for (j, b_row) in b.iter_rows().enumerate() {
        for (t, &v) in b_row.iter().enumerate() {
            bt[t][j] = v;
        }
    }
    let (out_rows, _) = out.buf_mut().as_chunks_mut::<W>();
    for (a_row, out_row) in a.iter_rows().zip(out_rows) {
        let acc = small_width_row(-0.0, a_row.iter().copied(), &bt[..k], false);
        out_row[..p].copy_from_slice(&acc[..p]);
    }
}

/// `out_row[j] += a * b_row[j]` over one logical row.
#[inline]
fn rank1_update(out_row: &mut [f32], a: f32, b_row: &[f32]) {
    for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
        *o += a * b;
    }
}

/// Applies four consecutive shared-dimension steps to `out_row`, each as
/// `o += a[t] * b[t][j]` in ascending `t` — the exact operation sequence of
/// four [`rank1_update`] passes, with 4× fewer loads/stores of `out_row`.
///
/// When `skip_zeros` is set and any coefficient is exactly zero, the group
/// falls back to per-step updates so zero terms are skipped under the same
/// condition the naive kernel used (preserving `-0.0` accumulator bits).
#[inline]
fn rank4_update(out_row: &mut [f32], a: [f32; 4], b: [&[f32]; 4], skip_zeros: bool) {
    if skip_zeros && (a[0] == 0.0 || a[1] == 0.0 || a[2] == 0.0 || a[3] == 0.0) {
        for t in 0..4 {
            if a[t] != 0.0 {
                rank1_update(out_row, a[t], b[t]);
            }
        }
        return;
    }
    let [b0, b1, b2, b3] = b;
    for (o, (((&v0, &v1), &v2), &v3)) in out_row
        .iter_mut()
        .zip(b0.iter().zip(b1.iter()).zip(b2.iter()).zip(b3.iter()))
    {
        let mut acc = *o;
        acc += a[0] * v0;
        acc += a[1] * v1;
        acc += a[2] * v2;
        acc += a[3] * v3;
        *o = acc;
    }
}

impl PartialEq for Matrix {
    /// Logical equality: shapes match and every logical element compares
    /// equal (`NaN != NaN`, as for raw `f32`). Padding lanes never
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.iter_rows().zip(other.iter_rows()).all(|(a, b)| a == b)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("data", &self.to_vec())
            .finish()
    }
}

impl ToJson for Matrix {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.insert("rows", self.rows.to_json());
        obj.insert("cols", self.cols.to_json());
        obj.insert("data", self.to_vec().to_json());
        obj
    }
}

impl FromJson for Matrix {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let rows: usize = json.field("rows")?;
        let cols: usize = json.field("cols")?;
        let data: Vec<f32> = json.field("data")?;
        Matrix::from_vec(rows, cols, data).map_err(|e| JsonError::decode(format!("Matrix: {e}")))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows().take(8) {
            write!(f, "  [")?;
            for (i, x) in row.iter().take(10).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{x:.4}")?;
            }
            if row.len() > 10 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, data: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, data.to_vec()).expect("valid shape")
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert_eq!(err.op(), "from_rows");
    }

    #[test]
    fn storage_is_aligned_and_padded() {
        let a = Matrix::zeros(3, 5);
        assert_eq!(a.stride(), LANE_WIDTH);
        assert_eq!(a.padded_data().len(), 3 * LANE_WIDTH);
        assert_eq!(a.padded_data().as_ptr() as usize % 32, 0);
        // Lane-multiple widths stay unpadded.
        let b = Matrix::zeros(2, 16);
        assert_eq!(b.stride(), 16);
        assert_eq!(b.len(), 32);
    }

    #[test]
    fn len_counts_logical_elements_only() {
        let a = Matrix::zeros(4, 3);
        assert_eq!(a.len(), 12);
        assert!(a.padded_data().len() > a.len());
        assert!(!a.is_empty());
        assert!(Matrix::zeros(0, 7).is_empty());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, m(2, 2, &[58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(4, 3, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_propagates_nan_through_zero_rows() {
        // Regression: the a == 0 fast path used to turn 0 · NaN into 0.
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 2, &[f32::NAN, 2.0, 3.0, 4.0]);
        let out = a.matmul(&b);
        assert!(out.get(0, 0).is_nan(), "0 · NaN must stay NaN");
        assert_eq!(out.get(0, 1), 4.0);
    }

    #[test]
    fn matmul_propagates_infinity_through_zero_rows() {
        let a = m(1, 2, &[0.0, 0.0]);
        let b = m(2, 1, &[f32::INFINITY, 1.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "0 · ∞ must stay NaN");
    }

    #[test]
    fn matmul_tn_propagates_nan_like_nt() {
        let a = m(2, 1, &[0.0, 1.0]);
        let b = m(2, 2, &[f32::NAN, 1.0, 2.0, 3.0]);
        let tn = a.matmul_tn(&b);
        let reference = a.transpose().matmul_nt(&b.transpose());
        assert!(tn.get(0, 0).is_nan());
        assert_eq!(tn.get(0, 0).is_nan(), reference.get(0, 0).is_nan());
        assert_eq!(tn.get(0, 1), reference.get(0, 1));
    }

    #[test]
    fn matmul_zero_skip_still_exact_for_finite_inputs() {
        // The fast path must not change results where it applies: a sparse
        // operand against a finite matrix multiplies exactly.
        let a = m(2, 3, &[0.0, 2.0, 0.0, 1.0, 0.0, 3.0]);
        let b = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul(&b), a.matmul(&b.transpose().transpose()));
        assert_eq!(a.matmul(&b), m(2, 2, &[6., 8., 16., 20.]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_panics_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 2, &[5., 6., 7., 8.]);
        let sum = &a + &b;
        assert_eq!(&sum - &b, a);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[4., 5., 6.]);
        assert_eq!(a.hadamard(&b), m(1, 3, &[4., 10., 18.]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 2, &[1., 1.]);
        let b = m(1, 2, &[2., 4.]);
        a.axpy(0.5, &b);
        assert_eq!(a, m(1, 2, &[2., 3.]));
    }

    #[test]
    fn add_row_in_place_broadcasts_bias() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_in_place(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = m(2, 3, &[1., 2., 3., -1., 0., 1.]);
        let s = a.softmax_rows();
        for row in s.iter_rows() {
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = m(1, 3, &[1000.0, 1000.0, 1000.0]);
        let s = a.softmax_rows();
        for &x in s.row(0) {
            assert!((x - 1.0 / 3.0).abs() < 1e-5);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let a = m(1, 4, &[0.1, -0.3, 2.0, 0.7]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows();
        for (l, p) in ls.row(0).iter().zip(s.row(0)) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_finds_maxima() {
        let a = m(2, 3, &[0.1, 0.9, 0.0, 0.5, 0.2, 0.8]);
        assert_eq!(a.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn select_rows_reorders() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let sel = a.select_rows(&[2, 0]);
        assert_eq!(sel, m(2, 2, &[5., 6., 1., 2.]));
    }

    #[test]
    fn hcat_concatenates_columns() {
        let a = m(2, 1, &[1., 2.]);
        let b = m(2, 2, &[3., 4., 5., 6.]);
        let c = Matrix::hcat(&[&a, &b]).expect("same rows");
        assert_eq!(c, m(2, 3, &[1., 3., 4., 2., 5., 6.]));
    }

    #[test]
    fn hcat_rejects_row_mismatch() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        assert!(Matrix::hcat(&[&a, &b]).is_err());
        // The mismatch is caught even when it sits in the last part.
        let c = Matrix::zeros(2, 4);
        assert!(Matrix::hcat(&[&a, &c, &b]).is_err());
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_matmul() {
        let a = m(2, 3, &[0.0, 2.0, f32::NAN, 1.0, 0.0, 3.0]);
        let b = m(3, 2, &[1., 2., 0., 4., 5., 6.]);
        let mut out = Matrix::zeros(7, 7); // wrong shape on purpose
        a.matmul_into(&b, &mut out);
        let expect = a.matmul(&b);
        assert_eq!(out.shape(), expect.shape());
        for (x, y) in out.to_vec().iter().zip(expect.to_vec().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_tn_into_and_nt_into_match_allocating_variants() {
        let a = m(3, 2, &[1., 0., -2., 4., 0., 6.]);
        let b = m(3, 2, &[0.5, 2., 3., f32::INFINITY, 5., 6.]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_tn_into(&b, &mut out);
        assert_eq!(out, a.matmul_tn(&b));
        let c = m(2, 2, &[1., 2., 3., 4.]);
        c.matmul_nt_into(&c, &mut out);
        assert_eq!(out, c.matmul_nt(&c));
    }

    #[test]
    fn select_rows_into_matches_select_rows() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let mut out = Matrix::zeros(9, 9);
        a.select_rows_into(&[2, 0, 2], &mut out);
        assert_eq!(out, a.select_rows(&[2, 0, 2]));
    }

    #[test]
    fn zip_apply_matches_zip_map() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 2, &[5., 6., 7., 8.]);
        let mut c = a.clone();
        c.zip_apply(&b, |x, y| x * y - 1.0);
        assert_eq!(c, a.zip_map(&b, |x, y| x * y - 1.0));
    }

    #[test]
    fn resize_zeroed_and_copy_from_reshape() {
        let mut a = m(2, 2, &[1., 2., 3., 4.]);
        a.resize_zeroed(1, 3);
        assert_eq!(a, Matrix::zeros(1, 3));
        let src = m(3, 1, &[7., 8., 9.]);
        a.copy_from(&src);
        assert_eq!(a, src);
    }

    #[test]
    fn col_sums_into_matches_col_sums() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let mut out = vec![9.0; 7];
        a.col_sums_into(&mut out);
        assert_eq!(out, a.col_sums());
    }

    #[test]
    fn col_sums_accumulate_columns() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.col_sums(), vec![5., 7., 9.]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Matrix::zeros(0, 0).mean(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
    }

    #[test]
    fn to_vec_round_trips_through_from_vec() {
        let a = m(3, 5, &(0..15).map(|x| x as f32).collect::<Vec<_>>());
        let v = a.to_vec();
        assert_eq!(v.len(), 15);
        assert_eq!(Matrix::from_vec(3, 5, v).unwrap(), a);
    }

    #[test]
    fn random_respects_shape_and_determinism() {
        let mut rng1 = Rng64::seed(5);
        let mut rng2 = Rng64::seed(5);
        let a = Matrix::random(3, 4, Init::HeNormal, &mut rng1);
        let b = Matrix::random(3, 4, Init::HeNormal, &mut rng2);
        assert_eq!(a, b);
        assert_eq!(a.shape(), (3, 4));
    }
}
