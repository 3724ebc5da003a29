use crate::{Init, Rng64, ShapeError};
use muffin_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Number of `f32` lanes in one 32-byte SIMD register; rows are padded to a
/// multiple of this so every row starts on a 32-byte boundary.
pub const LANE_WIDTH: usize = 8;

/// Row stride (in `f32`s) for a logical column count: `cols` rounded up to
/// the SIMD lane width. Zero iff `cols` is zero.
#[inline]
fn padded_stride(cols: usize) -> usize {
    (cols + LANE_WIDTH - 1) / LANE_WIDTH * LANE_WIDTH
}

/// Index of the first 32-byte boundary in `data`'s allocation, from its
/// address (`align_offset` may answer `usize::MAX`). An `f32` allocation
/// is 4-byte aligned, so the index is at most `LANE_WIDTH - 1`.
fn first_boundary(data: &[f32]) -> usize {
    let lane_bytes = LANE_WIDTH * size_of::<f32>();
    (lane_bytes - data.as_ptr().addr() % lane_bytes) % lane_bytes / size_of::<f32>()
}

/// Widest register panel (four lanes): the matmul kernels hold up to this
/// many floats of one output row in registers across the shared dimension;
/// see [`panel_row`]. Also the step count of one shared-dimension chunk.
const PANEL: usize = 4 * LANE_WIDTH;

/// One register-panel kernel: writes output columns `j0..j0 + W` of a
/// product of `a` and `b` into `out`, where `W` is fixed by the instance.
type PanelKernel = fn(&Matrix, &Matrix, &mut Matrix, usize);

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
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Distance in `f32`s between consecutive row starts; `cols` rounded up
    /// to [`LANE_WIDTH`]. Zero iff `cols` is zero.
    stride: usize,
    /// Index in `data` of the store's first float: the allocation's first
    /// 32-byte boundary (zero for an empty store).
    offset: usize,
    /// The allocation: `offset` floats of slack, then the store's
    /// `rows * stride` floats, which end the vector. Only `lay_out_store`
    /// allocates it.
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let mut m = Self {
            rows: 0,
            cols: 0,
            stride: 0,
            offset: 0,
            data: Vec::new(),
        };
        m.resize_zeroed(rows, cols);
        m
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
        self.lay_out_store(None);
    }

    /// Overwrites `self` with the shape and contents of `src`, reusing the
    /// existing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.stride = src.stride;
        self.lay_out_store(Some(src.buf()));
    }

    /// Gives back the backing store's spare capacity when it spans more
    /// than a page (4 KiB), as when a buffer sized for a larger shape was
    /// reused for this one. Less stays: giving it back would cost a
    /// reallocation and free no page. The `LANE_WIDTH - 1` floats of
    /// alignment slack every allocation carries are not spare.
    pub fn release_spare_pages(&mut self) {
        let used = self.rows * self.stride + LANE_WIDTH - 1;
        if self.data.capacity().saturating_sub(used) * size_of::<f32>() > 4096 {
            let old = std::mem::take(&mut self.data);
            self.lay_out_store(Some(&old[self.offset..]));
        }
    }

    /// Lays out the store for the current shape: `rows * stride` floats
    /// from the first 32-byte boundary in `data`, copied from `src` (which
    /// holds exactly that many) or else zero. The one place `data` is
    /// allocated: the allocation is kept when the store fits in it from
    /// that boundary, and otherwise replaced by one with `LANE_WIDTH - 1`
    /// floats of slack, enough to reach a boundary from any `f32` address.
    /// A plain `Vec<f32>` is allocated by `malloc`, which glibc serves from
    /// a per-thread cache; an over-aligned element type would take
    /// `posix_memalign`, which it does not (DESIGN.md §11).
    fn lay_out_store(&mut self, src: Option<&[f32]>) {
        let len = self.rows * self.stride;
        self.data.clear();
        if len > 0 && first_boundary(&self.data) + len > self.data.capacity() {
            self.data = Vec::new();
            self.data.reserve_exact(len + LANE_WIDTH - 1);
        }
        self.offset = match len {
            0 => 0,
            _ => first_boundary(&self.data),
        };
        match src {
            None => self.data.resize(self.offset + len, 0.0),
            Some(src) => {
                self.data.resize(self.offset, 0.0);
                self.data.extend_from_slice(src);
            }
        }
    }

    /// View of the backing store as a flat `f32` slice (including padding).
    #[inline]
    fn buf(&self) -> &[f32] {
        &self.data[self.offset..]
    }

    /// Mutable view of the backing store as a flat `f32` slice.
    #[inline]
    fn buf_mut(&mut self) -> &mut [f32] {
        &mut self.data[self.offset..]
    }

    /// Matrix product `self · other`.
    ///
    /// Each output row is computed in register panels of at most 32
    /// floats: the accumulators start at `+0.0` and add `a·b` over the
    /// whole shared dimension in ascending `k` order, then the row's
    /// logical columns are stored once. That is the per-element operation
    /// sequence of the naive `i-k-j` triple loop, so results are
    /// byte-for-byte identical to it (NaN and `0·∞` included).
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
        for_each_panel(
            self,
            other,
            out,
            [
                matmul_panel::<8>,
                matmul_panel::<16>,
                matmul_panel::<24>,
                matmul_panel::<32>,
            ],
        );
    }

    /// Matrix product `selfᵀ · other` without materialising the transpose.
    ///
    /// Register panels as in [`Matrix::matmul`]: output row `i` folds
    /// column `i` of `self` against the rows of `other`, 32 rows at a time,
    /// from `+0.0` in ascending shared-dimension order, byte-identical to
    /// the naive loop.
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
        for_each_panel(
            self,
            other,
            out,
            [
                matmul_tn_panel::<8>,
                matmul_tn_panel::<16>,
                matmul_tn_panel::<24>,
                matmul_tn_panel::<32>,
            ],
        );
    }

    /// Matrix product `self · otherᵀ` without materialising the transpose.
    ///
    /// Register panels as in [`Matrix::matmul`], over a stack copy of
    /// `other` transposed 32 shared-dimension steps at a time. Each dot
    /// product folds the shared dimension sequentially from `-0.0`,
    /// byte-identical to the naive `iter().zip().map().sum()` formulation.
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
        for_each_panel(
            self,
            other,
            out,
            [
                matmul_nt_panel::<8>,
                matmul_nt_panel::<16>,
                matmul_nt_panel::<24>,
                matmul_nt_panel::<32>,
            ],
        );
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

// The matmul kernels below accumulate one output row at a time in register
// panels: columns `j0..j0 + W` of the row, `W` at most [`PANEL`], held in
// registers across the shared dimension. `matmul` folds it in one pass;
// `matmul_tn` and `matmul_nt` fold it [`PANEL`] steps at a time, passing
// the partial sums through the output row. The kernels run panel-outer and
// row-inner, so the right operand's panel stays in L1 while every row
// folds against it. A panel spans padded lanes, so lanes past the output's
// logical width may pick up the right operand's padding; they are stored
// as `+0.0`, so output padding stays zero.
//
// Every kernel is `#[inline(never)]`: out of line, each one starts on its
// own 64-byte boundary (see `.cargo/config.toml`), so its loop layout does
// not depend on the dispatch in front of it.

/// Runs the kernel for each register panel of `out`'s padded rows: full
/// [`PANEL`]-wide panels, then a tail of 8, 16 or 24 floats. `kernels[w]`
/// is the instance for panels `8 * (w + 1)` floats wide.
fn for_each_panel(a: &Matrix, b: &Matrix, out: &mut Matrix, kernels: [PanelKernel; 4]) {
    for j0 in (0..out.stride).step_by(PANEL) {
        let width = (out.stride - j0).min(PANEL);
        kernels[width / LANE_WIDTH - 1](a, b, out, j0);
    }
}

/// One output row's panel: `acc[j] += a_t * rows[t][j]` for each step `t`
/// in ascending order, with no zero skip. Seeded with `+0.0` (`matmul`,
/// `matmul_tn`), an accumulator is never `-0.0` (an IEEE sum is `-0.0`
/// only when both addends are), so adding a `±0` term leaves it unchanged:
/// skipping `a_t == 0` against a finite right operand, as the naive loop
/// once did, gives the same floats.
#[inline(always)]
fn panel_row<'a, const W: usize>(
    mut acc: [f32; W],
    coefs: impl Iterator<Item = f32>,
    rows: impl Iterator<Item = &'a [f32; W]>,
) -> [f32; W] {
    for (a, row) in coefs.zip(rows) {
        for (o, &b) in acc.iter_mut().zip(row) {
            *o += a * b;
        }
    }
    acc
}

/// Columns `j0..j0 + W` of every row of a padded store `rows`.
#[inline(always)]
fn panel_of<const W: usize>(
    rows: &[f32],
    stride: usize,
    j0: usize,
) -> impl Iterator<Item = &[f32; W]> {
    rows.chunks_exact(stride).map(move |row| panel_at(row, j0))
}

/// Columns `j0..j0 + W` of one padded row.
#[inline(always)]
fn panel_at<const W: usize>(row: &[f32], j0: usize) -> &[f32; W] {
    row[j0..]
        .first_chunk()
        .expect("panel within the padded row")
}

/// Stores a panel into output row `out_row`: its logical columns, and
/// `+0.0` in the padding lanes past them, so output padding stays zero. A
/// whole-panel store needs no copy whose length depends on the row.
#[inline(always)]
fn store_panel<const W: usize>(out_row: &mut [f32], j0: usize, cols: usize, mut acc: [f32; W]) {
    for (j, x) in acc.iter_mut().enumerate() {
        if j0 + j >= cols {
            *x = 0.0;
        }
    }
    *out_row[j0..]
        .first_chunk_mut()
        .expect("panel within the padded row") = acc;
}

/// [`Matrix::matmul_into`], one panel: each row of `a` folds against the
/// same `k × W` panel of `b`, whose rows share the output's stride.
#[inline(never)]
fn matmul_panel<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix, j0: usize) {
    let (cols, so) = (out.cols, out.stride);
    for (a_row, out_row) in a.iter_rows().zip(out.buf_mut().chunks_exact_mut(so)) {
        let acc = panel_row(
            [0.0; W],
            a_row.iter().copied(),
            panel_of(b.buf(), b.stride, j0),
        );
        store_panel(out_row, j0, cols, acc);
    }
}

/// [`Matrix::matmul_tn_into`], one panel: output row `i` folds column `i`
/// of `a` against the matching panel of `b`, [`PANEL`] rows of both at a
/// time. Between chunks the partial sums pass through the output row, which
/// `resize_zeroed` seeded with `+0.0`.
#[inline(never)]
fn matmul_tn_panel<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix, j0: usize) {
    let (sa, sb, cols, so) = (a.stride, b.stride, out.cols, out.stride);
    for r0 in (0..a.rows).step_by(PANEL) {
        let r1 = (r0 + PANEL).min(a.rows);
        let a_chunk = &a.buf()[r0 * sa..r1 * sa];
        let b_chunk = &b.buf()[r0 * sb..r1 * sb];
        for (i, out_row) in out.buf_mut().chunks_exact_mut(so).enumerate() {
            let column = a_chunk.chunks_exact(sa).map(|row| row[i]);
            let seed: [f32; W] = *panel_at(out_row, j0);
            let acc = panel_row(seed, column, panel_of(b_chunk, sb, j0));
            store_panel(out_row, j0, cols, acc);
        }
    }
}

/// [`Matrix::matmul_nt_into`], one panel: rows `j0..j0 + W` of `b` are
/// copied, transposed, into a stack buffer [`PANEL`] shared-dimension steps
/// at a time, and every row of `a` folds against each chunk. Accumulators
/// start at `-0.0`, the additive identity `Iterator::sum` folds from, and
/// never skip; between chunks the partial sums pass through the output row
/// (an `f32` stored and reloaded is unchanged), so each dot product is
/// bitwise the sequential `.sum()`.
#[inline(never)]
fn matmul_nt_panel<const W: usize>(a: &Matrix, b: &Matrix, out: &mut Matrix, j0: usize) {
    let (k, cols, so) = (a.cols, out.cols, out.stride);
    let mut bt = [[0.0f32; W]; PANEL];
    for t0 in (0..k).step_by(PANEL) {
        let steps = (k - t0).min(PANEL);
        for (j, b_row) in b.iter_rows().skip(j0).take(W).enumerate() {
            for (t, &v) in b_row[t0..t0 + steps].iter().enumerate() {
                bt[t][j] = v;
            }
        }
        for (a_row, out_row) in a.iter_rows().zip(out.buf_mut().chunks_exact_mut(so)) {
            let seed = match t0 {
                0 => [-0.0; W],
                _ => *panel_at(out_row, j0),
            };
            let coefs = a_row[t0..t0 + steps].iter().copied();
            let acc = panel_row(seed, coefs, bt[..steps].iter());
            store_panel(out_row, j0, cols, acc);
        }
    }
}

impl Clone for Matrix {
    /// Copies the store to the new allocation's own first 32-byte
    /// boundary: a derived clone would keep `offset`, which in the new
    /// block need not point at one.
    fn clone(&self) -> Self {
        let mut m = Matrix::zeros(0, 0);
        m.copy_from(self);
        m
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
        // The zero terms the naive kernel skipped against a finite operand
        // are added as `±0` and must not change the exact product.
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
    fn release_spare_pages_frees_more_than_a_page_and_keeps_less() {
        // 64 rows of 32 columns hold 2,048 floats. Reused for 64 rows of
        // 16 they leave 1,024 floats (a page) spare, of 24 (three lanes a
        // row) 512 floats, and for 2 rows of 8, 2,032 floats. The
        // `LANE_WIDTH - 1` floats of alignment slack are never spare.
        for (rows, cols, spare_floats) in [(64, 16, 1024), (64, 24, 512), (2, 8, 2032)] {
            let mut a = Matrix::filled(64, 32, 1.5);
            a.resize_zeroed(rows, cols);
            a.set(rows - 1, cols - 1, 2.5);
            let before = a.clone();
            a.release_spare_pages();
            assert_eq!(a, before);
            assert_eq!(a.padded_data().as_ptr() as usize % 32, 0);
            let spare = a.data.capacity() - (LANE_WIDTH - 1) - a.padded_data().len();
            let want = if spare_floats * 4 > 4096 {
                0
            } else {
                spare_floats
            };
            assert_eq!(spare, want, "{rows}x{cols}");
        }
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
