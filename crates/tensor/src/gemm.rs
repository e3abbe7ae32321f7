//! Single-precision general matrix multiply.
//!
//! Structured like a tuned BLAS, in three tiers: a naive triple loop
//! (correctness oracle), a cache-blocked kernel for small problems, and a
//! BLIS-style packed kernel for everything else — A is packed into
//! `MR`-row column-major micro-panels and B into `NR`-column row-major
//! micro-panels so the register-blocked `MR x NR` micro-kernel streams
//! both operands at unit stride. The parallel driver shares the packed B
//! read-only and splits C's rows into `MR`-aligned strips across
//! `std::thread::scope` workers; each worker packs its own A panels.
//! Because every C row is computed in the same order regardless of the
//! split, parallel results are bitwise identical to sequential.
//!
//! [`sgemm`] packs its B operand on every call. When B is a model's
//! weight matrix, weights are packed once at model load instead: a
//! [`PackedMatrix`] holds B in the packed layout and [`sgemm_packed`]
//! multiplies by it with no per-call copy. Below `MR` rows (a batch-1
//! decode step) `sgemm_packed` runs a skinny kernel that reads the
//! panels directly, without packing A or padding it to `MR` rows. Every
//! branch of `sgemm_packed` keeps the per-element summation order of the
//! `sgemm` branch it replaces, so `sgemm_packed(m, a, &PackedMatrix::pack(k,
//! n, b), ..)` is bitwise equal to `sgemm(m, n, k, 1.0, a, b, 0.0, ..)`
//! for every shape and thread count.

use serde::{Deserialize, Serialize};

use crate::{Result, Shape, Tensor, TensorError};

/// Micro-kernel rows: each micro-tile updates `MR` rows of C.
const MR: usize = 4;
/// Micro-kernel columns: each micro-tile updates `NR` columns of C.
const NR: usize = 8;
/// Row-dimension block size; an `MC x KC` packed A block stays in L2.
const MC: usize = 64;
/// Depth block size; a `KC x NR` packed B micro-panel stays in L1.
const KC: usize = 256;
/// Column-dimension block size (must be a multiple of `NR`).
const NC: usize = 256;
/// Problems below this `m * n * k` volume skip packing: the O(mk + kn)
/// copy costs more than it saves on matrices this small.
const PACK_MIN_VOLUME: usize = 32 * 32 * 32;

/// Tuning options for [`sgemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmOptions {
    /// Interpret `a` as transposed (`a` is stored `k x m`).
    pub trans_a: bool,
    /// Interpret `b` as transposed (`b` is stored `n x k`).
    pub trans_b: bool,
    /// Number of worker threads; 1 = sequential. Thread count is capped at
    /// the number of `MR` row panels, so oversubscription is harmless.
    pub threads: usize,
}

impl Default for GemmOptions {
    fn default() -> Self {
        GemmOptions {
            trans_a: false,
            trans_b: false,
            threads: 1,
        }
    }
}

impl GemmOptions {
    /// Options running `threads` workers with untransposed operands.
    pub fn with_threads(threads: usize) -> Self {
        GemmOptions {
            threads: threads.max(1),
            ..GemmOptions::default()
        }
    }
}

/// Computes `C = A * B` for 2-D tensors (flattening higher ranks as
/// matrices), using the sequential kernel.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
///
/// ```
/// use tensor::{Tensor, Shape};
/// let a = Tensor::filled(Shape::mat(4, 8), 1.0);
/// let b = Tensor::filled(Shape::mat(8, 2), 0.5);
/// let c = tensor::matmul(&a, &b)?;
/// assert_eq!(c.data()[0], 4.0);
/// # Ok::<(), tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = a.shape().as_matrix();
    let (kb, n) = b.shape().as_matrix();
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(Shape::mat(m, n));
    sgemm(
        m,
        n,
        ka,
        1.0,
        a.data(),
        b.data(),
        0.0,
        c.data_mut(),
        GemmOptions::default(),
    )?;
    Ok(c)
}

/// `C = alpha * op(A) * op(B) + beta * C` over raw row-major slices.
///
/// `a` is `m x k` (or `k x m` when `opts.trans_a`), `b` is `k x n` (or
/// `n x k`), `c` is `m x n`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParams`] when slice lengths do not match
/// the stated dimensions or a dimension is zero.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
    opts: GemmOptions,
) -> Result<()> {
    if m == 0 || n == 0 || k == 0 {
        return Err(TensorError::InvalidParams {
            op: "sgemm",
            reason: format!("zero dimension m={m} n={n} k={k}"),
        });
    }
    if a.len() != m * k || b.len() != k * n || c.len() != m * n {
        return Err(TensorError::InvalidParams {
            op: "sgemm",
            reason: format!(
                "slice lengths a={} b={} c={} inconsistent with m={m} n={n} k={k}",
                a.len(),
                b.len(),
                c.len()
            ),
        });
    }

    // Normalize transposes up front: materializing the transposed operand
    // costs O(mk)/O(kn) but lets the hot loop always stream unit-stride.
    let a_owned;
    let a_rm: &[f32] = if opts.trans_a {
        a_owned = transpose(a, k, m);
        &a_owned
    } else {
        a
    };
    let b_owned;
    let b_rm: &[f32] = if opts.trans_b {
        b_owned = transpose(b, n, k);
        &b_owned
    } else {
        b
    };

    if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }

    if m * n * k < PACK_MIN_VOLUME {
        gemm_blocked(m, n, k, alpha, a_rm, b_rm, c);
        return Ok(());
    }
    let threads = opts.threads.max(1).min(m.div_ceil(MR));
    gemm_rows(m, alpha, a_rm, &PackedMatrix::pack(k, n, b_rm), c, threads);
    Ok(())
}

/// `C = A * B` where B was packed ahead of time (typically once, at model
/// load). `a` is row-major `m x k` and `c` row-major `m x n`, with `k x n`
/// taken from `b`; `c` is overwritten.
///
/// Bitwise equal to [`sgemm`] with `alpha = 1`, `beta = 0` on the
/// unpacked B, for every shape and `threads`: tiny products run the
/// blocked kernel's order off the panels, fewer than `MR` rows run a
/// skinny kernel with the packed kernel's order, and the rest run the
/// packed row-strip driver itself.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParams`] when slice lengths do not match
/// the dimensions or a dimension is zero.
pub fn sgemm_packed(
    m: usize,
    a: &[f32],
    b: &PackedMatrix,
    c: &mut [f32],
    threads: usize,
) -> Result<()> {
    let (k, n) = (b.rows, b.cols);
    if m == 0 || n == 0 || k == 0 {
        return Err(TensorError::InvalidParams {
            op: "sgemm_packed",
            reason: format!("zero dimension m={m} n={n} k={k}"),
        });
    }
    if a.len() != m * k || c.len() != m * n {
        return Err(TensorError::InvalidParams {
            op: "sgemm_packed",
            reason: format!(
                "slice lengths a={} c={} inconsistent with m={m} n={n} k={k}",
                a.len(),
                c.len()
            ),
        });
    }
    c.fill(0.0);
    if m * n * k < PACK_MIN_VOLUME {
        gemm_blocked_panels(m, a, b, c);
    } else if m < MR {
        gemm_skinny(m, a, b, c);
    } else {
        gemm_rows(m, 1.0, a, b, c, threads.max(1).min(m.div_ceil(MR)));
    }
    Ok(())
}

/// Reference implementation: naive triple loop. Used as a correctness
/// oracle in tests and benchmarks.
///
/// Every `a[i][p] * b[p][j]` product is accumulated unconditionally —
/// skipping zero A entries would be faster but silently drops NaN and
/// infinity propagation from B (`0.0 * NaN` is NaN, not zero), and an
/// oracle must match IEEE semantics exactly.
///
/// # Panics
///
/// Panics (via slice indexing) if the slice lengths are inconsistent with
/// the dimensions; use [`sgemm`] for validated input.
pub fn gemm_naive(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for p in 0..k {
            let av = alpha * a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Cache-blocked kernel for small problems: loops over `NC`/`KC`/`MC`
/// panels with a 2-row micro-kernel, no packing. Below
/// `PACK_MIN_VOLUME` the packing copies would dominate, so this is the
/// fast path for tiny matrices. Public (like [`gemm_naive`]) as an
/// ablation tier for the GEMM benchmarks; `C += alpha * A B` with no
/// transposes or beta scaling — use [`sgemm`] for real work.
pub fn gemm_blocked(m: usize, n: usize, k: usize, alpha: f32, a: &[f32], b: &[f32], c: &mut [f32]) {
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            for ic in (0..m).step_by(MC) {
                let mb = MC.min(m - ic);
                inner_block(ic, jc, pc, mb, nb, kb, n, k, alpha, a, b, c);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn inner_block(
    ic: usize,
    jc: usize,
    pc: usize,
    mb: usize,
    nb: usize,
    kb: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let mut i = ic;
    // 2-row micro-kernel: amortizes each streamed B row over two C rows.
    while i + 1 < ic + mb {
        for p in pc..pc + kb {
            let a0 = alpha * a[i * k + p];
            let a1 = alpha * a[(i + 1) * k + p];
            let brow = &b[p * n + jc..p * n + jc + nb];
            // Split borrows of the two C rows.
            let (c_head, c_tail) = c.split_at_mut((i + 1) * n);
            let c0 = &mut c_head[i * n + jc..i * n + jc + nb];
            let c1 = &mut c_tail[jc..jc + nb];
            for ((cv0, cv1), bv) in c0.iter_mut().zip(c1.iter_mut()).zip(brow) {
                *cv0 += a0 * bv;
                *cv1 += a1 * bv;
            }
        }
        i += 2;
    }
    if i < ic + mb {
        for p in pc..pc + kb {
            let av = alpha * a[i * k + p];
            let brow = &b[p * n + jc..p * n + jc + nb];
            let crow = &mut c[i * n + jc..i * n + jc + nb];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed kernel
// ---------------------------------------------------------------------------

/// A `k x n` matrix in the packed layout of the GEMM B operand: row-major
/// `NR`-column micro-panels, KC-blocked along the depth dimension,
/// zero-padded to full panels. An inner-product layer keeps its weights
/// in this form so [`sgemm_packed`] never repacks them.
///
/// Layout: the depth block starting at row `pc` (of height `kb`) occupies
/// `kb * padded_n` floats starting at `pc * padded_n`; within it, column
/// panel `jp` is `kb * NR` contiguous floats, depth-major (`NR` values of
/// row `pc`, then row `pc + 1`, ...).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedMatrix {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
    padded_n: usize,
}

impl PackedMatrix {
    fn zeros(k: usize, n: usize) -> PackedMatrix {
        let padded_n = n.div_ceil(NR) * NR;
        PackedMatrix {
            data: vec![0.0f32; k * padded_n],
            rows: k,
            cols: n,
            padded_n,
        }
    }

    /// Packs the row-major `k x n` slice `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(k: usize, n: usize, b: &[f32]) -> PackedMatrix {
        assert_eq!(b.len(), k * n, "PackedMatrix::pack: bad slice length");
        let mut packed = PackedMatrix::zeros(k, n);
        let (data, padded_n) = (&mut packed.data, packed.padded_n);
        let panels = n.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            for jp in 0..panels {
                let j0 = jp * NR;
                let nb = NR.min(n - j0);
                let base = pc * padded_n + jp * NR * kb;
                for pp in 0..kb {
                    let src = &b[(pc + pp) * n + j0..(pc + pp) * n + j0 + nb];
                    data[base + pp * NR..base + pp * NR + nb].copy_from_slice(src);
                }
            }
        }
        packed
    }

    /// Fills a `k x n` packed matrix straight from `values` given in
    /// row-major order, with no row-major copy in between. Takes exactly
    /// `k * n` values; any further values are left in the iterator.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParams`] if `values` runs out first.
    pub fn from_row_major(
        k: usize,
        n: usize,
        values: impl IntoIterator<Item = f32>,
    ) -> Result<PackedMatrix> {
        let mut packed = PackedMatrix::zeros(k, n);
        let padded_n = packed.padded_n;
        let mut values = values.into_iter();
        // One row at a time: gather it, then copy it into its panels.
        let mut row = vec![0.0f32; n];
        for p in 0..k {
            for slot in row.iter_mut() {
                *slot = values.next().ok_or_else(|| TensorError::InvalidParams {
                    op: "PackedMatrix::from_row_major",
                    reason: format!("ran out of values in row {p} of {k} x {n}"),
                })?;
            }
            let pc = p - p % KC;
            let kb = KC.min(k - pc);
            let base = pc * padded_n + (p - pc) * NR;
            for (jp, src) in row.chunks(NR).enumerate() {
                packed.data[base + jp * NR * kb..][..src.len()].copy_from_slice(src);
            }
        }
        Ok(packed)
    }

    /// A row-major copy of the matrix.
    pub fn to_row_major(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for p in 0..self.rows {
            out.extend((0..self.cols).map(|j| self.data[self.index(p, j)]));
        }
        out
    }

    /// Number of rows (the GEMM depth `k`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the GEMM width `n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Offset of element `(p, j)` in `data`.
    #[inline]
    fn index(&self, p: usize, j: usize) -> usize {
        let pc = p - p % KC;
        let kb = KC.min(self.rows - pc);
        pc * self.padded_n + (j / NR) * NR * kb + (p - pc) * NR + j % NR
    }

    /// The `kb * NR` micro-panel for depth block `pc` and column panel `jp`.
    #[inline]
    fn panel(&self, pc: usize, kb: usize, jp: usize) -> &[f32] {
        let base = pc * self.padded_n + jp * NR * kb;
        &self.data[base..base + NR * kb]
    }
}

impl std::fmt::Debug for PackedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedMatrix[{}x{}]", self.rows, self.cols)
    }
}

/// [`gemm_blocked`]'s summation order read from packed panels: each C
/// element accumulates its `k` products straight into C, depth in order.
fn gemm_blocked_panels(m: usize, a: &[f32], b: &PackedMatrix, c: &mut [f32]) {
    let (k, n) = (b.rows, b.cols);
    for pc in (0..k).step_by(KC) {
        let kb = KC.min(k - pc);
        for jp in 0..n.div_ceil(NR) {
            let j0 = jp * NR;
            let nb = NR.min(n - j0);
            let pb = b.panel(pc, kb, jp);
            for i in 0..m {
                let arow = &a[i * k + pc..i * k + pc + kb];
                let crow = &mut c[i * n + j0..i * n + j0 + nb];
                for (&av, brow) in arow.iter().zip(pb.chunks_exact(NR)) {
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
            }
        }
    }
}

/// Skinny kernel for fewer than `MR` rows of A: reads A in place and the
/// packed panels directly, with no A packing and no padding to `MR` rows.
/// Per element it keeps the packed kernel's order — one accumulator per
/// depth block, started at zero, then added into C.
fn gemm_skinny(m: usize, a: &[f32], b: &PackedMatrix, c: &mut [f32]) {
    match m {
        1 => skinny_rows::<1>(a, b, c),
        2 => skinny_rows::<2>(a, b, c),
        3 => skinny_rows::<3>(a, b, c),
        _ => unreachable!("the skinny kernel takes fewer than MR = {MR} rows"),
    }
}

fn skinny_rows<const R: usize>(a: &[f32], b: &PackedMatrix, c: &mut [f32]) {
    let (k, n) = (b.rows, b.cols);
    for pc in (0..k).step_by(KC) {
        let kb = KC.min(k - pc);
        let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k + pc..r * k + pc + kb]);
        for jp in 0..n.div_ceil(NR) {
            let j0 = jp * NR;
            let nb = NR.min(n - j0);
            let mut acc = [[0.0f32; NR]; R];
            for (pp, bv) in b.panel(pc, kb, jp).chunks_exact(NR).enumerate() {
                let bv: &[f32; NR] = bv.try_into().expect("chunks_exact yields NR values");
                for r in 0..R {
                    let ar = arows[r][pp];
                    for j in 0..NR {
                        acc[r][j] += ar * bv[j];
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                let crow = &mut c[r * n + j0..r * n + j0 + nb];
                for (cv, &av) in crow.iter_mut().zip(acc) {
                    *cv += av;
                }
            }
        }
    }
}

/// Packs an `mb x kb` block of A (rows `ic..ic+mb`, depth `pc..pc+kb`)
/// into `MR`-row micro-panels: depth-major within each panel (`MR` values
/// of depth `pc`, then depth `pc + 1`, ...), zero-padded to full panels.
fn pack_a_block(
    a: &[f32],
    k: usize,
    ic: usize,
    mb: usize,
    pc: usize,
    kb: usize,
    buf: &mut Vec<f32>,
) {
    let panels = mb.div_ceil(MR);
    buf.clear();
    buf.resize(panels * MR * kb, 0.0);
    for rp in 0..panels {
        let base = rp * MR * kb;
        let rows = MR.min(mb - rp * MR);
        for r in 0..rows {
            let row = ic + rp * MR + r;
            let src = &a[row * k + pc..row * k + pc + kb];
            for (pp, &v) in src.iter().enumerate() {
                buf[base + pp * MR + r] = v;
            }
        }
    }
}

/// Register-blocked `MR x NR` micro-kernel: accumulates `kb` rank-1
/// updates from packed panels into `acc` (row-major `MR x NR`). Both
/// operands stream at unit stride; the 32 accumulators fit the SIMD
/// register file so the inner loop is pure FMA work.
#[inline]
fn microkernel(kb: usize, pa: &[f32], pb: &[f32], acc: &mut [f32; MR * NR]) {
    // `chunks_exact` + fixed-size array views give the compiler exact
    // extents, so the fully unrolled `MR x NR` update runs without bounds
    // checks and vectorizes across each accumulator row.
    for (av, bv) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kb) {
        let av: &[f32; MR] = av.try_into().unwrap();
        let bv: &[f32; NR] = bv.try_into().unwrap();
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                acc[r * NR + j] += ar * bv[j];
            }
        }
    }
}

/// Runs the packed kernel over the row strip `r0..r1`, writing into
/// `c_strip` (the `(r1 - r0) * n` slice of C starting at row `r0`).
fn gemm_strip(
    r0: usize,
    r1: usize,
    alpha: f32,
    a: &[f32],
    packed_b: &PackedMatrix,
    c_strip: &mut [f32],
) {
    let (k, n) = (packed_b.rows, packed_b.cols);
    let mut packed_a = Vec::new();
    for jc in (0..n).step_by(NC) {
        let ncb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            for ic in (r0..r1).step_by(MC) {
                let mb = MC.min(r1 - ic);
                pack_a_block(a, k, ic, mb, pc, kb, &mut packed_a);
                let row_panels = mb.div_ceil(MR);
                for jp in jc / NR..(jc + ncb).div_ceil(NR) {
                    let j0 = jp * NR;
                    let nb = NR.min(n - j0);
                    let pb = packed_b.panel(pc, kb, jp);
                    for rp in 0..row_panels {
                        let pa = &packed_a[rp * MR * kb..(rp + 1) * MR * kb];
                        let mut acc = [0.0f32; MR * NR];
                        microkernel(kb, pa, pb, &mut acc);
                        let i0 = ic + rp * MR;
                        let rows = MR.min(r1 - i0);
                        for r in 0..rows {
                            let co = (i0 - r0 + r) * n + j0;
                            let crow = &mut c_strip[co..co + nb];
                            for (cv, &av) in crow.iter_mut().zip(&acc[r * NR..r * NR + nb]) {
                                *cv += alpha * av;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Packed driver: runs row strips of C against the packed B (shared
/// read-only) sequentially or across scoped threads. Strips are
/// `MR`-panel aligned, so each C row is produced by exactly the same
/// instruction sequence in both modes — thread count never changes the
/// result.
fn gemm_rows(
    m: usize,
    alpha: f32,
    a: &[f32],
    packed_b: &PackedMatrix,
    c: &mut [f32],
    threads: usize,
) {
    let n = packed_b.cols;
    if threads <= 1 {
        gemm_strip(0, m, alpha, a, packed_b, c);
        return;
    }

    let panels_per = m.div_ceil(MR).div_ceil(threads);
    let rows_per = panels_per * MR;
    std::thread::scope(|scope| {
        let mut rest = c;
        let mut r0 = 0usize;
        while r0 < m {
            let rows = rows_per.min(m - r0);
            let (strip, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            scope.spawn(move || {
                gemm_strip(r0, r0 + rows, alpha, a, packed_b, strip);
            });
            r0 += rows;
        }
    });
}

/// Cache-blocked out-of-place transpose of a row-major `rows x cols`
/// matrix. Works in `TB x TB` tiles so both the gather and the scatter
/// side touch whole cache lines instead of striding a full row apart.
pub fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    /// Tile edge: a 32x32 f32 tile is 4 KiB, comfortably in L1 twice over.
    const TB: usize = 32;
    assert_eq!(src.len(), rows * cols, "transpose: bad slice length");
    let mut dst = vec![0.0f32; src.len()];
    for rt in (0..rows).step_by(TB) {
        let rb = TB.min(rows - rt);
        for ct in (0..cols).step_by(TB) {
            let cb = TB.min(cols - ct);
            for r in rt..rt + rb {
                let srow = &src[r * cols + ct..r * cols + ct + cb];
                for (c, &v) in srow.iter().enumerate() {
                    dst[(ct + c) * rows + r] = v;
                }
            }
        }
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// Element-wise relative comparison: `|x - y| <= tol * max(1, |x|)`.
    fn rel_eq(want: &[f32], got: &[f32], tol: f32) -> bool {
        want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0))
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = Tensor::from_vec(Shape::mat(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(Shape::mat(3, 2), vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Tensor::zeros(Shape::mat(2, 3));
        let b = Tensor::zeros(Shape::mat(4, 2));
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn sgemm_validates_slice_lengths() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        let err = sgemm(2, 2, 3, 1.0, &a, &b, 0.0, &mut c, GemmOptions::default()).unwrap_err();
        assert!(matches!(err, TensorError::InvalidParams { .. }));
    }

    #[test]
    fn beta_scales_existing_c() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // 2x2 identity
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0, 10.0, 10.0, 10.0];
        sgemm(2, 2, 2, 1.0, &a, &b, 0.5, &mut c, GemmOptions::default()).unwrap();
        assert_eq!(c, vec![6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn naive_propagates_nan_through_zero_weights() {
        // a row of zeros times a NaN column must stay NaN (0 * NaN = NaN);
        // the oracle must not shortcut zero multipliers.
        let a = vec![0.0, 0.0];
        let b = vec![f32::NAN, 1.0, 2.0, 3.0];
        let mut c = vec![0.0; 2];
        gemm_naive(1, 2, 2, 1.0, &a, &b, &mut c);
        assert!(c[0].is_nan());
        assert_eq!(c[1], 0.0);
    }

    #[test]
    fn packed_propagates_infinities() {
        let m = 40; // above PACK_MIN_VOLUME with n=k=40
        let a = vec![1.0f32; m * m];
        let mut b = vec![1.0f32; m * m];
        b[0] = f32::INFINITY;
        let mut c = vec![0.0f32; m * m];
        sgemm(m, m, m, 1.0, &a, &b, 0.0, &mut c, GemmOptions::default()).unwrap();
        assert!(c[0].is_infinite());
    }

    #[test]
    fn transposed_operands_match_naive() {
        let m = 5;
        let n = 7;
        let k = 3;
        let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 1).into_vec();
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 2).into_vec();
        let at = transpose(&a, m, k); // stored k x m
        let bt = transpose(&b, k, n); // stored n x k
        let mut want = vec![0.0; m * n];
        gemm_naive(m, n, k, 1.0, &a, &b, &mut want);

        let mut got = vec![0.0; m * n];
        sgemm(
            m,
            n,
            k,
            1.0,
            &at,
            &bt,
            0.0,
            &mut got,
            GemmOptions {
                trans_a: true,
                trans_b: true,
                threads: 1,
            },
        )
        .unwrap();
        assert!(approx_eq(&want, &got, 1e-4));
    }

    #[test]
    fn transpose_round_trips_on_awkward_shapes() {
        for &(r, c) in &[(1usize, 1usize), (3, 5), (32, 32), (33, 65), (100, 7)] {
            let src: Vec<f32> = (0..r * c).map(|i| i as f32).collect();
            let t = transpose(&src, r, c);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], src[i * c + j]);
                }
            }
            assert_eq!(transpose(&t, c, r), src);
        }
    }

    #[test]
    fn parallel_is_bitwise_equal_to_sequential() {
        let m = 130; // crosses multiple MC blocks and uneven split
        let n = 70;
        let k = 300; // crosses KC
        let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, 3).into_vec();
        let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 4).into_vec();
        let mut seq = vec![0.0; m * n];
        sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut seq, GemmOptions::default()).unwrap();
        for threads in [2usize, 4, 7] {
            let mut par = vec![0.0; m * n];
            sgemm(
                m,
                n,
                k,
                1.0,
                &a,
                &b,
                0.0,
                &mut par,
                GemmOptions::with_threads(threads),
            )
            .unwrap();
            assert_eq!(seq, par, "threads={threads} diverged from sequential");
        }
    }

    /// The issue's acceptance grid: every thread count in {1, 2, 4, 7}
    /// against every shape with m, n, k drawn from {1, 3, 64, 257} must
    /// match the naive oracle within 1e-5 relative error. Covers both the
    /// small-matrix blocked path and the packed path (257 crosses KC/NC
    /// panel boundaries; 1 and 3 exercise ragged MR/NR edges).
    #[test]
    fn parallel_packed_matches_naive_across_thread_and_shape_grid() {
        const DIMS: [usize; 4] = [1, 3, 64, 257];
        const THREADS: [usize; 4] = [1, 2, 4, 7];
        let mut seed = 10u64;
        for &m in &DIMS {
            for &n in &DIMS {
                for &k in &DIMS {
                    seed += 1;
                    let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
                    let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 7000).into_vec();
                    let mut want = vec![0.0; m * n];
                    gemm_naive(m, n, k, 1.0, &a, &b, &mut want);
                    for &threads in &THREADS {
                        let mut got = vec![0.0; m * n];
                        sgemm(
                            m,
                            n,
                            k,
                            1.0,
                            &a,
                            &b,
                            0.0,
                            &mut got,
                            GemmOptions::with_threads(threads),
                        )
                        .unwrap();
                        assert!(
                            rel_eq(&want, &got, 1e-5),
                            "mismatch at m={m} n={n} k={k} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    /// `(k, n)` shapes for the packed-operand tests: with the row counts
    /// below they fall on both sides of `PACK_MIN_VOLUME`, and they cover
    /// ragged `NR` column panels (n % 8 != 0) and ragged `KC` depth blocks
    /// (k > 256, k % 256 != 0).
    const PACKED_SHAPES: [(usize, usize); 10] = [
        (1, 1),
        (3, 5),
        (7, 9),
        (31, 33),
        (64, 64),
        (256, 8),
        (257, 17),
        (300, 70),
        (513, 40),
        (40, 513),
    ];

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sgemm_packed_is_bitwise_equal_to_sgemm() {
        let mut seed = 500u64;
        for m in [1usize, 2, 3, 4, 5, 28, 64, 130] {
            for (k, n) in PACKED_SHAPES {
                seed += 2;
                let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
                let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
                let packed = PackedMatrix::pack(k, n, &b);
                for threads in [1usize, 2, 4, 7] {
                    let mut want = vec![0.0; m * n];
                    let opts = GemmOptions::with_threads(threads);
                    sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut want, opts).unwrap();
                    // Stale C contents must not leak: the call overwrites C.
                    let mut got = vec![f32::NAN; m * n];
                    sgemm_packed(m, &a, &packed, &mut got, threads).unwrap();
                    assert_eq!(
                        bits(&want),
                        bits(&got),
                        "m={m} k={k} n={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_matrix_constructors_agree_and_round_trip() {
        for (i, (k, n)) in PACKED_SHAPES.into_iter().enumerate() {
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, 900 + i as u64).into_vec();
            let packed = PackedMatrix::pack(k, n, &b);
            let streamed = PackedMatrix::from_row_major(k, n, b.iter().copied()).unwrap();
            assert_eq!(packed, streamed, "k={k} n={n}");
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            assert_eq!(bits(&packed.to_row_major()), bits(&b), "k={k} n={n}");
        }
    }

    #[test]
    fn packed_matrix_from_row_major_takes_exactly_k_times_n() {
        let mut values = (0..10).map(|v| v as f32);
        let packed = PackedMatrix::from_row_major(2, 3, values.by_ref()).unwrap();
        assert_eq!(packed.to_row_major(), vec![0., 1., 2., 3., 4., 5.]);
        assert_eq!(values.next(), Some(6.0), "values past k * n stay unread");
        let short = PackedMatrix::from_row_major(3, 3, (0..8).map(|v| v as f32));
        assert!(matches!(short, Err(TensorError::InvalidParams { .. })));
    }

    #[test]
    fn sgemm_packed_validates_slice_lengths() {
        let packed = PackedMatrix::pack(3, 2, &[0.0; 6]);
        let mut c = vec![0.0; 4];
        assert!(sgemm_packed(2, &[0.0; 5], &packed, &mut c, 1).is_err());
        assert!(sgemm_packed(2, &[0.0; 6], &packed, &mut c[..3], 1).is_err());
        assert!(sgemm_packed(0, &[], &packed, &mut [], 1).is_err());
    }

    proptest! {
        #[test]
        fn sgemm_packed_matches_sgemm_bitwise_any_shape(
            m in 1usize..70,
            n in 1usize..70,
            k in 1usize..300,
            threads in 1usize..9,
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let mut want = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut want, GemmOptions::with_threads(threads))
                .unwrap();
            let mut got = vec![0.0; m * n];
            sgemm_packed(m, &a, &PackedMatrix::pack(k, n, &b), &mut got, threads).unwrap();
            prop_assert!(bits(&want) == bits(&got), "m={m} n={n} k={k} threads={threads}");
        }

        #[test]
        fn blocked_matches_naive(
            m in 1usize..24,
            n in 1usize..24,
            k in 1usize..40,
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let mut want = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut got, GemmOptions::default()).unwrap();
            prop_assert!(approx_eq(&want, &got, 1e-3));
        }

        #[test]
        fn packed_matches_naive_any_threads(
            m in 1usize..80,
            n in 1usize..80,
            k in 1usize..80,
            threads in 1usize..9,
            seed in 0u64..1000,
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 1).into_vec();
            let mut want = vec![0.0; m * n];
            gemm_naive(m, n, k, 1.0, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut got, GemmOptions::with_threads(threads))
                .unwrap();
            prop_assert!(rel_eq(&want, &got, 1e-5), "m={m} n={n} k={k} threads={threads}");
        }

        #[test]
        fn identity_is_neutral(mn in 1usize..20, seed in 0u64..100) {
            let a = Tensor::random_uniform(Shape::mat(mn, mn), 1.0, seed);
            let eye = Tensor::from_fn(Shape::mat(mn, mn), |i| {
                if i / mn == i % mn { 1.0 } else { 0.0 }
            });
            let c = matmul(&a, &eye).unwrap();
            prop_assert!(approx_eq(a.data(), c.data(), 1e-5));
        }

        #[test]
        fn matmul_is_linear_in_alpha(
            m in 1usize..10, n in 1usize..10, k in 1usize..10, seed in 0u64..50
        ) {
            let a = Tensor::random_uniform(Shape::mat(m, k), 1.0, seed).into_vec();
            let b = Tensor::random_uniform(Shape::mat(k, n), 1.0, seed + 9).into_vec();
            let mut c1 = vec![0.0; m * n];
            sgemm(m, n, k, 2.0, &a, &b, 0.0, &mut c1, GemmOptions::default()).unwrap();
            let mut c2 = vec![0.0; m * n];
            sgemm(m, n, k, 1.0, &a, &b, 0.0, &mut c2, GemmOptions::default()).unwrap();
            for v in c2.iter_mut() { *v *= 2.0; }
            prop_assert!(approx_eq(&c1, &c2, 1e-3));
        }
    }
}
