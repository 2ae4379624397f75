//! Batched, cache-blocked math kernels for the training hot path.
//!
//! Every experiment in this reproduction bottoms out in the same few dense
//! operations: matrix products against the model weights, bias adds, the
//! softmax/cross-entropy backward pass, and scaled accumulations. This module
//! provides those operations as explicit kernels over flat row-major slices,
//! written so that the auto-vectorizer can do its job (contiguous inner
//! loops, no data-dependent branches, register-resident accumulator tiles
//! that expose independent addition chains) while keeping a **documented,
//! deterministic accumulation order** per kernel.
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so "the" result of a reduction
//! depends on the order of its additions. Each kernel in this module commits
//! to exactly one summation order, stated in its doc comment, and never
//! changes it based on block sizes, thread counts, or input values.
//!
//! Every product term is folded in with [`f64::mul_add`] — one IEEE 754
//! correctly-rounded fused multiply-add per term, a *defined operation* that
//! produces the same bits on every platform (hardware FMA where available, a
//! correctly-rounded software sequence otherwise). Compared to separate
//! multiply-then-add this removes one rounding per term, halves the
//! instruction count on FMA hardware, and stays fully deterministic; the
//! per-example model code mirrors the same `mul_add` calls so batched and
//! per-example paths still agree bitwise. The committed orders:
//!
//! - [`gemm`] and [`gemm_tn`] accumulate every output element strictly in
//!   ascending `k` order (a single addition chain per element), inside one
//!   shared `MR×NR` register tile. Row × column tiles only reorder *which
//!   elements* are computed when, never a chain, and ragged edges are the
//!   same routine at a narrower width rather than a scalar loop — so the
//!   result is bit-identical to the naive triple loop.
//! - [`dot`] (and everything built on it: [`matvec_into`], [`gemm_nt`],
//!   [`gemm_nt_fused`]) uses a fixed 4-lane split: element `i` joins lane
//!   `i mod 4`, lanes combine as `(l0 + l1) + (l2 + l3)`, and the
//!   length-dependent tail is added in ascending order afterwards. This
//!   reorders sums relative to a naive sequential fold (that is what buys
//!   instruction-level parallelism), but
//!   the order is a pure function of the slice length — the same inputs give
//!   the same bits on every call, policy, and thread count.
//!   [`gemm_nt_fused`]'s [`Epilogue`] then stores each finished sum as
//!   `C += acc` or as `(0.0 + acc) + bias` (optionally through ReLU): the
//!   elementwise sequence of accumulating into zeros, adding the bias row
//!   and applying ReLU, sign of zero included, without those passes.
//! - [`softmax_xent_backward`] performs, per row, the exact operation
//!   sequence of [`crate::ops::softmax_inplace`] followed by the label
//!   subtraction, so fusing is bit-identical to the unfused per-example path.
//!   Both exponentiate through [`crate::ops::exp`], which is plain IEEE 754
//!   arithmetic (`mul_add`, multiplies, exponent bits) and calls no libm
//!   `exp`, so the softmax's bits do not depend on the C library either.
//! - [`argmax_errors`] reduces nothing in floating point: each row's
//!   prediction is [`crate::stats::argmax`]'s, first maximum and `NaN`
//!   handling included.
//!
//! Kernels validate shapes with assertions (they sit below the error-typed
//! [`crate::Matrix`] API, which has already checked shapes) and are wired
//! into [`crate::Matrix::matmul`] / [`crate::Matrix::matvec`] so the whole
//! stack shares one accumulation order per operation.
//!
//! # Buffer pool
//!
//! [`BufferPool`] recycles `Vec<f64>` scratch buffers so steady-state
//! training performs no per-example or per-round heap allocations: the first
//! round warms the pool, subsequent rounds reuse its buffers. Pooling is
//! accounting, never semantics — buffers are zeroed on [`BufferPool::take`],
//! and [`BufferPool::take_unzeroed`] is for buffers whose every element is
//! assigned before it is read.

use std::sync::OnceLock;

/// FLOP and pool accounting on the global [`fedtrace`] registry. Counters
/// are write-only from the kernels' point of view — nothing here ever reads
/// them back, so instrumentation cannot move a result bit (the
/// accounting-never-semantics contract). Handles are registered once and
/// cached for the process; each update is one relaxed atomic add.
struct KernelMetrics {
    flops: fedtrace::Counter,
    eval_flops: fedtrace::Counter,
    pool_reuses: fedtrace::Counter,
    pool_fresh: fedtrace::Counter,
}

fn metrics() -> &'static KernelMetrics {
    static METRICS: OnceLock<KernelMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        KernelMetrics {
            flops: registry.counter("kernel.flops"),
            eval_flops: registry.counter("kernel.eval_flops"),
            pool_reuses: registry.counter("kernel.pool_reuses"),
            pool_fresh: registry.counter("kernel.pool_fresh_allocations"),
        }
    })
}

/// Columns of `b`/`c` processed per cache tile in [`gemm`] and [`gemm_tn`].
///
/// 128 columns × 8 bytes = 1 KiB per row tile: small enough that a `b` row
/// tile and a `c` row tile stay resident in L1 across the unrolled `k` loop.
/// Tiling never changes results (see the module-level determinism contract).
const BLOCK_J: usize = 128;

/// Output columns of the widest register tile in [`gemm`] and [`gemm_tn`]:
/// each element's full ascending-`k` chain runs in a register, with one `c`
/// load before the chain and one store after, instead of a load/store round
/// trip per `k` step.
const REG_J: usize = 16;

/// Output rows per register tile in [`gemm`] and [`gemm_tn`]: each `B` step
/// loaded for a tile feeds four rows' chains, so a 4×16 tile issues 16 vector
/// FMAs per 4 `B` loads + 4 `A` broadcasts, and its 64 accumulators are
/// enough independent chains to hide the FMA latency.
const REG_I: usize = 4;

/// Output columns per packed `Bᵀ` panel in [`gemm_nt`]: one panel step is 8
/// contiguous `f64`s (one AVX-512 register, which the build's
/// `-prefer-256-bit` lets LLVM use, or two AVX2 ones), so each of the four
/// [`dot`] lanes is a vector accumulator spanning 8 output columns.
const NT_COLS: usize = 8;

/// Rows of `A` sharing each packed-panel load in [`gemm_nt`]. Two rows × four
/// lanes × 8 columns is 8 AVX-512 or 16 AVX2 accumulators; four rows spill
/// the 16-register AVX2 file.
const NT_ROWS: usize = 2;

/// Logit rows per block of [`softmax_xent_backward`]: their `v - max`
/// values are exponentiated as one flat slice, 320 elements at FEMNIST's 20
/// classes, instead of one 20-element row (2.5 AVX-512 vectors) at a time.
const XENT_ROWS: usize = 16;

thread_local! {
    /// Per-thread packing scratch of [`gemm_nt`]: grows to the largest
    /// `⌈n/8⌉·8 × (k + 1)` weight matrix (plus bias row) the thread has
    /// multiplied by and is then reused, so steady-state calls allocate
    /// nothing. Each growth counts as one `kernel.pool_fresh_allocations`.
    static NT_PACK: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Dot product of two equal-length slices.
///
/// # Accumulation order
///
/// Element `i` is accumulated into lane `i mod 4` via one fused multiply-add
/// (4 independent chains, which is what lets the CPU overlap the FMAs); the
/// final value is `(l0 + l1) + (l2 + l3)` plus the `len % 4` tail elements
/// folded in ascending order. The order depends only on `len`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let split = a.len() - a.len() % 4;
    let (a4, a_tail) = a.split_at(split);
    let (b4, b_tail) = b.split_at(split);
    let mut l0 = 0.0;
    let mut l1 = 0.0;
    let mut l2 = 0.0;
    let mut l3 = 0.0;
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        l0 = ca[0].mul_add(cb[0], l0);
        l1 = ca[1].mul_add(cb[1], l1);
        l2 = ca[2].mul_add(cb[2], l2);
        l3 = ca[3].mul_add(cb[3], l3);
    }
    let mut acc = (l0 + l1) + (l2 + l3);
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// In-place scaled addition `y[i] = fma(alpha, x[i], y[i])` (BLAS `axpy`,
/// one fused multiply-add per element).
///
/// Elementwise — no reduction, so there is no order to document.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha.mul_add(xi, *yi);
    }
}

/// In-place scaling `y[i] *= alpha`.
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// What a [`tile`] reads: row-major `k×n` `B`, and `A` through two strides —
/// element `(i, kk)` of the logical `m×k` operand is
/// `a[i * a_row_stride + kk * a_k_stride]`, the one thing [`gemm`] and
/// [`gemm_tn`] differ in.
#[derive(Clone, Copy)]
struct TileOperands<'a> {
    a: &'a [f64],
    a_row_stride: usize,
    a_k_stride: usize,
    b: &'a [f64],
    k: usize,
    n: usize,
}

/// One `MR×NR` register tile of `C += A · B` at row `i`, column `j`: loads
/// its `c` values once, runs every element's ascending-`kk` `mul_add` chain
/// to completion in registers (each `B` step is loaded once and feeds all
/// `MR` rows), and stores once. Edge tiles are this routine at a narrower
/// `MR`/`NR`, so no element ever sees a different operation sequence.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    ops: TileOperands<'_>,
    c: &mut [f64],
    i: usize,
    j: usize,
) {
    let TileOperands { a, b, k, n, .. } = ops;
    let mut acc = [[0.0f64; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i + r) * n + j..][..NR]);
    }
    for kk in 0..k {
        let step: &[f64; NR] = b[kk * n + j..][..NR].try_into().expect("NR-wide B step");
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[(i + r) * ops.a_row_stride + kk * ops.a_k_stride];
            for (v, &bv) in row.iter_mut().zip(step) {
                *v = av.mul_add(bv, *v);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i + r) * n + j..][..NR].copy_from_slice(row);
    }
}

/// Columns `jb..je` of the `MR` rows at `i`, widest tiles first.
fn tile_row<const MR: usize>(ops: TileOperands<'_>, c: &mut [f64], i: usize, jb: usize, je: usize) {
    let mut j = jb;
    while j + REG_J <= je {
        tile::<MR, REG_J>(ops, c, i, j);
        j += REG_J;
    }
    if j + 8 <= je {
        tile::<MR, 8>(ops, c, i, j);
        j += 8;
    }
    if j + 4 <= je {
        tile::<MR, 4>(ops, c, i, j);
        j += 4;
    }
    while j < je {
        tile::<MR, 1>(ops, c, i, j);
        j += 1;
    }
}

/// `C += A · B` for either `A` layout (`a_strides` are [`TileOperands`]' row
/// and `k` strides): `BLOCK_J`-column cache tiles, inside them `REG_I`-row
/// tiles (single rows for the last `m % REG_I`).
fn gemm_tiled(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    (a_row_stride, a_k_stride): (usize, usize),
    b: &[f64],
    c: &mut [f64],
) {
    metrics().flops.add(2 * (m * k * n) as u64);
    let ops = TileOperands {
        a,
        a_row_stride,
        a_k_stride,
        b,
        k,
        n,
    };
    for jb in (0..n).step_by(BLOCK_J) {
        let je = (jb + BLOCK_J).min(n);
        let mut i = 0;
        while i + REG_I <= m {
            tile_row::<REG_I>(ops, c, i, jb, je);
            i += REG_I;
        }
        while i < m {
            tile_row::<1>(ops, c, i, jb, je);
            i += 1;
        }
    }
}

/// Matrix product accumulation `C += A · B` over flat row-major storage:
/// `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
///
/// # Accumulation order
///
/// `C[i][j]` accumulates products strictly in ascending `k` order, one fused
/// multiply-add per product term, one chain per element — the same order as
/// a naive `i/k/j` triple loop over `mul_add`, so tiling (`BLOCK_J`-column
/// cache tiles, `REG_I×REG_J` register tiles narrowing to 8, 4 and 1 columns
/// and to single rows at the edges) is bit-transparent: it reorders which
/// elements are computed when, never a chain.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` shape.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm: C shape mismatch");
    gemm_tiled(m, k, n, a, (k, 1), b, c);
}

/// Transposed-A matrix product accumulation `C += Aᵀ · B`:
/// `A` is `k×m`, `B` is `k×n`, `C` is `m×n`.
///
/// This is the gradient-accumulation shape: `A` and `B` are both
/// `[batch × features]` activations and `k` is the batch dimension, so the
/// per-element order below is exactly "fold examples in batch order" — the
/// same order as a per-example gradient loop.
///
/// # Accumulation order
///
/// `C[i][j]` accumulates strictly in ascending `k` order, one fused
/// multiply-add per product term, one chain per element, run to completion
/// inside [`gemm`]'s register tiles (the two kernels share one tile routine
/// and differ only in how `A` is strided). Every element's chain is the
/// `k → i → j` fold order, so the bits match the untiled loop.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` shape.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), k * m, "gemm_tn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_tn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_tn: C shape mismatch");
    gemm_tiled(m, k, n, a, (1, m), b, c);
}

/// What [`gemm_nt_fused`] does with each finished dot product `acc` as its
/// tile is stored.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `C[i][j] += acc`.
    Accumulate,
    /// `C[i][j] = (0.0 + acc) + bias[j]`: the bits of accumulating into a
    /// zero-filled `C` and then adding the bias row (the leading `0.0 +`
    /// keeps that sequence's sign of zero), without either pass over `C`.
    Bias(&'a [f64]),
    /// [`Bias`](Self::Bias) followed by [`crate::ops::relu`].
    BiasRelu(&'a [f64]),
}

/// Which FLOP counter a [`gemm_nt_fused`] call reports to, so the training
/// FLOP count stays a function of the training schedule alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `kernel.flops`.
    Training,
    /// `kernel.eval_flops`.
    Evaluation,
}

/// Transposed-B matrix product accumulation `C += A · Bᵀ`:
/// `A` is `m×k`, `B` is `n×k` (row-major, so `Bᵀ` is `k×n`), `C` is `m×n`.
/// [`gemm_nt_fused`] with [`Epilogue::Accumulate`], counted as training
/// FLOPs.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` shape.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    gemm_nt_fused(m, k, n, a, b, Epilogue::Accumulate, Pass::Training, c);
}

/// Transposed-B matrix product `A · Bᵀ` stored into `C` through `epilogue`:
/// `A` is `m×k`, `B` is `n×k` (row-major, so `Bᵀ` is `k×n`), `C` is `m×n`.
///
/// This is the natural layout for the model forward passes: weights are
/// stored `[outputs × inputs]`, activations `[batch × inputs]`, and every
/// output element is a dot product of two contiguous rows. The bias and ReLU
/// epilogues assign every element of `C`, whose previous contents are never
/// read.
///
/// # Accumulation order
///
/// Each output's `acc` is `dot(A.row(i), B.row(j))` in [`dot`]'s 4-lane
/// order. The kernel is vectorised across *output columns*: `Bᵀ` is packed
/// once per call into `NT_COLS`-column panels (per-thread scratch), and each
/// of the four lanes is a vector accumulator over a panel's columns, fed by
/// broadcast-FMAs of `A[i][t]` against the panel's step `t`; `NT_ROWS` rows
/// of `A` share each panel load. Lanes combine elementwise as
/// `(l0 + l1) + (l2 + l3)` and the `k % 4` tail folds in ascending order, so
/// no output needs a horizontal reduction while each element's lane
/// assignment, combine order and tail are exactly [`dot`]'s — the bits match
/// a per-row `dot` loop followed by the epilogue's elementwise passes.
///
/// # Panics
///
/// Panics if a slice length does not match its `m`/`k`/`n` shape, or a bias
/// is not `n` long.
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_fused(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    epilogue: Epilogue<'_>,
    pass: Pass,
    c: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    let bias = match epilogue {
        Epilogue::Accumulate => None,
        Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) => Some(bias),
    };
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "gemm_nt: bias length mismatch");
    }
    let flops = match pass {
        Pass::Training => &metrics().flops,
        Pass::Evaluation => &metrics().eval_flops,
    };
    flops.add(2 * (m * k * n) as u64);
    NT_PACK.with_borrow_mut(|pack| {
        // Panel `p`, step `t`, column `r` holds `B[p·8 + r][t]`; one more
        // step after the `k` holds `bias[p·8 + r]` (zeros when accumulating),
        // so a tile reads its bias as one fixed-width step. Packing
        // overwrites every slot except the last panel's missing columns,
        // which are zeroed here and whose sums are discarded.
        let panel_len = (k + 1) * NT_COLS;
        let packed_len = n.div_ceil(NT_COLS) * panel_len;
        if pack.len() < packed_len {
            if pack.capacity() < packed_len {
                metrics().pool_fresh.incr();
            }
            pack.resize(packed_len, 0.0);
        }
        let pack = &mut pack[..packed_len];
        if !n.is_multiple_of(NT_COLS) {
            pack[packed_len - panel_len..].fill(0.0);
        }
        for j in 0..n {
            let panel = &mut pack[j / NT_COLS * panel_len..][..panel_len];
            for (t, &v) in b[j * k..][..k].iter().enumerate() {
                panel[t * NT_COLS + j % NT_COLS] = v;
            }
            panel[k * NT_COLS + j % NT_COLS] = bias.map_or(0.0, |bias| bias[j]);
        }
        // `finish(acc, old, bias)` is the value stored over `old`. One
        // instantiation of the row loop per epilogue: the choice is made
        // here, once per call, not once per tile.
        match epilogue {
            Epilogue::Accumulate => nt_product(m, k, n, a, pack, c, |acc, old, _| old + acc),
            Epilogue::Bias(_) => nt_product(m, k, n, a, pack, c, |acc, _, bias| (0.0 + acc) + bias),
            Epilogue::BiasRelu(_) => nt_product(m, k, n, a, pack, c, |acc, _, bias| {
                crate::ops::relu((0.0 + acc) + bias)
            }),
        }
    });
}

/// Every row of [`gemm_nt_fused`]: `NT_ROWS` at a time, single rows for the
/// last `m % NT_ROWS`.
#[inline(always)]
fn nt_product(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    pack: &[f64],
    c: &mut [f64],
    finish: impl Fn(f64, f64, f64) -> f64 + Copy,
) {
    let mut i = 0;
    while i + NT_ROWS <= m {
        nt_rows::<NT_ROWS>(k, n, &a[i * k..], pack, &mut c[i * n..], finish);
        i += NT_ROWS;
    }
    while i < m {
        nt_rows::<1>(k, n, &a[i * k..], pack, &mut c[i * n..], finish);
        i += 1;
    }
}

/// `MR` consecutive rows of [`gemm_nt_fused`] against every packed panel:
/// `a` starts at the first of the rows, `c` at its output row. Each panel
/// step is loaded once for all `MR` rows; the four [`dot`] lanes are four
/// separate accumulator arrays so each stays a plain set of vector registers.
#[inline(always)]
fn nt_rows<const MR: usize>(
    k: usize,
    n: usize,
    a: &[f64],
    pack: &[f64],
    c: &mut [f64],
    finish: impl Fn(f64, f64, f64) -> f64,
) {
    let quads_of_rows: [(&[[f64; 4]], &[f64]); MR] =
        std::array::from_fn(|r| a[r * k..][..k].as_chunks());
    let panel_len = (k + 1) * NT_COLS;
    for p in 0..n.div_ceil(NT_COLS) {
        let (steps, _) = pack[p * panel_len..][..panel_len].as_chunks::<NT_COLS>();
        let (bias, steps) = steps.split_last().expect("a panel ends in its bias step");
        // By value, before the FMA loop, so that nothing but the next tile's
        // loads follows a tile's stores: with the bias loaded between the
        // stores the two-row tile ran at half speed (203×24×32: 22 µs against
        // 12 µs) on the development CPU.
        let bias = *bias;
        let (step_quads, step_tail) = steps.as_chunks::<4>();
        let mut l0 = [[0.0f64; NT_COLS]; MR];
        let mut l1 = [[0.0f64; NT_COLS]; MR];
        let mut l2 = [[0.0f64; NT_COLS]; MR];
        let mut l3 = [[0.0f64; NT_COLS]; MR];
        for (q, [s0, s1, s2, s3]) in step_quads.iter().enumerate() {
            for (r, (quads, _)) in quads_of_rows.iter().enumerate() {
                let [a0, a1, a2, a3] = quads[q];
                for (l, &bv) in l0[r].iter_mut().zip(s0) {
                    *l = a0.mul_add(bv, *l);
                }
                for (l, &bv) in l1[r].iter_mut().zip(s1) {
                    *l = a1.mul_add(bv, *l);
                }
                for (l, &bv) in l2[r].iter_mut().zip(s2) {
                    *l = a2.mul_add(bv, *l);
                }
                for (l, &bv) in l3[r].iter_mut().zip(s3) {
                    *l = a3.mul_add(bv, *l);
                }
            }
        }
        let j0 = p * NT_COLS;
        for (r, (_, a_tail)) in quads_of_rows.iter().enumerate() {
            let mut acc = [0.0f64; NT_COLS];
            for (j, v) in acc.iter_mut().enumerate() {
                *v = (l0[r][j] + l1[r][j]) + (l2[r][j] + l3[r][j]);
            }
            for (&av, step) in a_tail.iter().zip(step_tail) {
                for (v, &bv) in acc.iter_mut().zip(step) {
                    *v = av.mul_add(bv, *v);
                }
            }
            let store = |out: &mut [f64]| {
                for ((cv, &v), &bv) in out.iter_mut().zip(&acc).zip(&bias) {
                    *cv = finish(v, *cv, bv);
                }
            };
            let out = &mut c[r * n + j0..][..NT_COLS.min(n - j0)];
            // A full panel's store is compiled with its width known; the
            // ragged last panel runs the same routine on a shorter slice.
            match <&mut [f64; NT_COLS]>::try_from(&mut *out) {
                Ok(full) => store(full),
                Err(_) => store(out),
            }
        }
    }
}

/// Matrix-vector product `out[i] = dot(A.row(i), x)` for a row-major
/// `rows×cols` matrix (assignment, not accumulation).
///
/// # Accumulation order
///
/// Each output element uses [`dot`]'s 4-lane order.
///
/// # Panics
///
/// Panics if a slice length does not match the `rows`/`cols` shape.
pub fn matvec_into(rows: usize, cols: usize, a: &[f64], x: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "matvec_into: A shape mismatch");
    assert_eq!(x.len(), cols, "matvec_into: x length mismatch");
    assert_eq!(out.len(), rows, "matvec_into: out length mismatch");
    for (o, row) in out.iter_mut().zip(a.chunks_exact(cols.max(1))) {
        *o = dot(row, x);
    }
}

/// Applies ReLU elementwise in place, exactly as [`crate::ops::relu`] does.
pub fn relu_rows(c: &mut [f64]) {
    for v in c.iter_mut() {
        *v = crate::ops::relu(*v);
    }
}

/// Backward ReLU mask: `dh[i] *= relu'(pre[i])`, i.e. multiplication by
/// `1.0` or `0.0` exactly as the per-example path multiplies by
/// [`crate::ops::relu_grad`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_backward_rows(dh: &mut [f64], pre: &[f64]) {
    assert_eq!(dh.len(), pre.len(), "relu_backward_rows: length mismatch");
    for (d, &p) in dh.iter_mut().zip(pre.iter()) {
        *d *= crate::ops::relu_grad(p);
    }
}

/// Adds the column sums of the row-major `rows×cols` matrix `a` into `out`:
/// `out[j] += Σ_r a[r][j]`.
///
/// # Accumulation order
///
/// Rows are folded in ascending order (one addition chain per column) — the
/// per-example bias-gradient order.
///
/// # Panics
///
/// Panics if a slice length does not match the `rows`/`cols` shape.
pub fn col_sum_add(rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "col_sum_add: shape mismatch");
    assert_eq!(out.len(), cols, "col_sum_add: out length mismatch");
    for row in a.chunks_exact(cols.max(1)) {
        for (o, &v) in out.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
}

/// Fused softmax + cross-entropy backward over a batch of logit rows.
///
/// Transforms each row of the row-major `rows×cols` matrix `logits` in
/// place from logits to `softmax(row) - onehot(label)` — the cross-entropy
/// gradient with respect to the logits — and returns the **total** (not
/// mean) cross-entropy loss `Σ_r (logsumexp(row_r) - row_r[label_r])`.
///
/// `label_of(r)` supplies the target class of row `r`; it is called once
/// per row in ascending order.
///
/// # Accumulation order
///
/// Per row, the operation sequence is exactly
/// [`crate::ops::softmax_inplace`] (max by sequential fold, exponentiate
/// through [`crate::ops::exp`] and sum in ascending order, divide) followed
/// by `row[label] -= 1.0`, so the fused kernel is bit-identical to the
/// unfused per-example path. The loss terms are summed over rows in
/// ascending order, each as `(max + ln(total)) - label_logit` — the
/// [`crate::ops::cross_entropy_from_logits`] of the row.
///
/// Rows go `XENT_ROWS` at a time: each row's max is subtracted first, then
/// the whole block is exponentiated as one flat slice, so the exponential
/// runs at full vector width whatever the row width. `exp` is elementwise,
/// so blocking moves no bit.
///
/// # Panics
///
/// Panics if `logits.len() != rows * cols` or a label is `>= cols`.
pub fn softmax_xent_backward(
    logits: &mut [f64],
    rows: usize,
    cols: usize,
    label_of: impl Fn(usize) -> usize,
) -> f64 {
    assert_eq!(
        logits.len(),
        rows * cols,
        "softmax_xent_backward: shape mismatch"
    );
    let mut total_loss = 0.0;
    for (b, block) in logits.chunks_mut(XENT_ROWS * cols.max(1)).enumerate() {
        // Per row: `(label, label logit, max)`, then `v - max` in place.
        let mut stats = [(0usize, 0.0f64, 0.0f64); XENT_ROWS];
        for (i, (row, stat)) in block.chunks_exact_mut(cols).zip(&mut stats).enumerate() {
            let label = label_of(b * XENT_ROWS + i);
            assert!(label < cols, "softmax_xent_backward: label out of range");
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            *stat = (label, row[label], max);
            for v in row.iter_mut() {
                *v -= max;
            }
        }
        for v in block.iter_mut() {
            *v = crate::ops::exp(*v);
        }
        for (row, &(label, label_logit, max)) in block.chunks_exact_mut(cols).zip(&stats) {
            let mut total = 0.0;
            for &v in row.iter() {
                total += v;
            }
            for v in row.iter_mut() {
                *v /= total;
            }
            row[label] -= 1.0;
            // Stable cross-entropy from the quantities already on hand:
            // logsumexp = max + ln(Σ exp(v - max)).
            total_loss += max + total.ln() - label_logit;
        }
    }
    total_loss
}

/// Number of rows of the row-major `[rows × cols]` matrix `logits` whose
/// prediction — the index [`crate::stats::argmax`] returns for the row — is
/// not `label_of(row)`. The error count of a batch of logit rows in one sweep.
///
/// # Prediction contract
///
/// Exactly [`crate::stats::argmax`]: the running best starts at column 0 and
/// moves only on a strict `>`, so ties (and `0.0` against `-0.0`) keep the
/// first maximum, a `NaN` never displaces the running best, and a `NaN` in
/// column 0 is never displaced. The comparison feeds two selects instead of
/// a branch: a branch on fresh logits mispredicts about once a row, the
/// selects cost the same whatever the data, and with no branch between rows
/// the CPU overlaps the compare chains of consecutive rows by itself (at 20
/// columns, 45 → 13 ns a row on the development CPU; interleaving 2, 4 or 8
/// rows by hand measured no faster, so the loop stays one row at a time).
///
/// `label_of` is called once per row in ascending order.
///
/// # Panics
///
/// Panics if `cols` is zero or does not divide `logits.len()`.
pub fn argmax_errors(logits: &[f64], cols: usize, label_of: impl Fn(usize) -> usize) -> usize {
    assert!(cols > 0, "argmax_errors: rows need at least one column");
    assert!(
        logits.len().is_multiple_of(cols),
        "argmax_errors: shape mismatch"
    );
    let mut errors = 0;
    for (r, row) in logits.chunks_exact(cols).enumerate() {
        // Column 0 meets itself first and loses, as in `stats::argmax`.
        let mut best = row[0];
        let mut best_col = 0;
        for (col, &v) in row.iter().enumerate() {
            let wins = v > best;
            best = if wins { v } else { best };
            best_col = if wins { col } else { best_col };
        }
        errors += usize::from(best_col != label_of(r));
    }
    errors
}

/// Upper bound on buffers retained by a [`BufferPool`]; beyond it, a released
/// buffer replaces the smallest pooled one or is dropped (a safety valve, not
/// a tuning knob — the training loop holds at most a handful of live buffers).
const POOL_CAP: usize = 32;

/// A recycling pool of `Vec<f64>` scratch buffers.
///
/// The training hot path acquires all of its temporaries — minibatch
/// matrices, activations, logit/gradient buffers — from a pool instead of
/// the global allocator. After a warm-up pass the pool's buffers cover every
/// request and steady-state training performs **zero** per-example and
/// per-round heap allocations (asserted by [`BufferPool::fresh_allocations`]
/// in tests and tracked by the `kernel_throughput` bench).
///
/// Buffers handed out by [`take`](Self::take) are zero-filled and those from
/// [`take_unzeroed`](Self::take_unzeroed) are fully assigned by their caller
/// before any read, so pooling is invisible to the numerics.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f64>>,
    fresh_allocations: usize,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Returns a zero-filled buffer of exactly `len` elements, reusing the
    /// best-fitting (smallest sufficient capacity) free buffer if one exists.
    /// For accumulators: the `C` of a `+=` kernel.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.best_fit(len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// [`take`](Self::take) without the zero fill, for callers that assign
    /// every element before reading any: the contents are unspecified
    /// (whatever the buffer's last user left, zeros where it had to grow).
    pub fn take_unzeroed(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.best_fit(len);
        buf.resize(len, 0.0);
        buf
    }

    /// Removes the smallest free buffer whose capacity covers `len`, or
    /// allocates one.
    fn best_fit(&mut self, len: usize) -> Vec<f64> {
        let best = (0..self.free.len())
            .filter(|&i| self.free[i].capacity() >= len)
            .min_by_key(|&i| self.free[i].capacity());
        match best {
            Some(i) => {
                metrics().pool_reuses.incr();
                self.free.swap_remove(i)
            }
            None => {
                self.fresh_allocations += 1;
                metrics().pool_fresh.incr();
                Vec::with_capacity(len)
            }
        }
    }

    /// Returns a buffer to the pool for reuse. Zero-capacity buffers are
    /// dropped; a full pool (`POOL_CAP`) keeps the larger of `buf` and its
    /// smallest buffer, so a warm pool never loses the capacity that covers
    /// its largest request.
    pub fn put(&mut self, mut buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() < POOL_CAP {
            self.free.push(buf);
            return;
        }
        let smallest = self
            .free
            .iter_mut()
            .min_by_key(|b| b.capacity())
            .expect("POOL_CAP > 0");
        if smallest.capacity() < buf.capacity() {
            std::mem::swap(smallest, &mut buf);
        }
    }

    /// Number of times [`take`](Self::take) had to allocate a fresh buffer
    /// instead of recycling one. Stops growing once the pool is warm — the
    /// zero-steady-state-allocation contract.
    pub fn fresh_allocations(&self) -> usize {
        self.fresh_allocations
    }

    /// Number of buffers currently available for reuse.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: sequential-fold dot product.
    fn naive_dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
    }

    /// Naive reference: unblocked i/k/j matmul (ascending-k accumulation,
    /// one fused multiply-add per term, matching the kernel contract).
    pub(super) fn naive_gemm(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] = av.mul_add(b[kk * n + j], c[i * n + j]);
                }
            }
        }
    }

    fn seq(len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * 0.37 - 1.1) * scale)
            .collect()
    }

    #[test]
    fn dot_matches_naive_within_epsilon() {
        for len in [0, 1, 3, 4, 7, 8, 64, 129] {
            let a = seq(len, 0.5);
            let b = seq(len, -0.25);
            let got = dot(&a, &b);
            let want = naive_dot(&a, &b);
            let tol = 1e-12 * want.abs().max(1.0);
            assert!((got - want).abs() <= tol, "len {len}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_order_is_a_pure_function_of_length() {
        let a = seq(37, 1.0);
        let b = seq(37, 2.0);
        assert_eq!(dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
        // Commutativity holds bitwise: products are commutative per element
        // and the lane structure depends only on the length.
        assert_eq!(dot(&a, &b).to_bits(), dot(&b, &a).to_bits());
    }

    /// Naive reference for [`gemm_tn`]: the per-example `k → i → j` fold.
    pub(super) fn naive_gemm_tn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        for kk in 0..k {
            for i in 0..m {
                for j in 0..n {
                    c[i * n + j] = a[kk * m + i].mul_add(b[kk * n + j], c[i * n + j]);
                }
            }
        }
    }

    pub(super) fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, element {i}");
        }
    }

    /// Shapes reaching every row tile (4, 1) × column tile (16, 8, 4, 1),
    /// `BLOCK_J` crossings, an empty `k`, and the training shapes:
    /// `gemm(B, 20, 32)` is the hidden backprop, `gemm_tn(20, B, 32)` and
    /// `gemm_tn(32, B, 24)` the two weight gradients.
    fn tile_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1, 1, 1),
            (3, 5, 2),
            (3, 6, 4),
            (8, 4, 8),
            (5, 9, 131),
            (2, 130, 140),
            (9, 3, 29),
            (4, 0, 16),
        ];
        for batch in [32, 64, 128, 203] {
            shapes.extend([(batch, 20, 32), (20, batch, 32), (32, batch, 24)]);
        }
        shapes
    }

    #[test]
    fn gemm_is_bit_identical_to_naive_triple_loop() {
        for (m, k, n) in tile_shapes() {
            let a = seq(m * k, 0.3);
            let b = seq(k * n, -0.2);
            let mut c = seq(m * n, 0.01);
            let mut c_ref = c.clone();
            gemm(m, k, n, &a, &b, &mut c);
            naive_gemm(m, k, n, &a, &b, &mut c_ref);
            assert_same_bits(&c, &c_ref, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_tn_is_bit_identical_to_per_example_fold() {
        // gemm_tn's contract: ascending-k accumulation == folding examples
        // in batch order, the per-example gradient order.
        for (m, k, n) in tile_shapes() {
            let a = seq(k * m, 0.7);
            let b = seq(k * n, -0.3);
            let mut c = seq(m * n, 0.01);
            let mut c_ref = c.clone();
            gemm_tn(m, k, n, &a, &b, &mut c);
            naive_gemm_tn(m, k, n, &a, &b, &mut c_ref);
            assert_same_bits(&c, &c_ref, &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let (m, k, n) = (4, 7, 5);
        let a = seq(m * k, 0.4);
        let b = seq(n * k, -0.6);
        // Transpose b into k×n and multiply with plain gemm.
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for kk in 0..k {
                bt[kk * n + j] = b[j * k + kk];
            }
        }
        let mut c_nt = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &b, &mut c_nt);
        gemm(m, k, n, &a, &bt, &mut c_ref);
        for (x, y) in c_nt.iter().zip(c_ref.iter()) {
            let tol = 1e-12 * y.abs().max(1.0);
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    /// Asserts the three epilogues against row-wise `dot` followed by the
    /// separate passes they replace: accumulate into `c0`; or accumulate into
    /// zeros, add the bias row, apply `ops::relu`.
    pub(super) fn assert_gemm_nt_matches_dot(
        (m, k, n): (usize, usize, usize),
        a: &[f64],
        b: &[f64],
        bias: &[f64],
        c0: &[f64],
    ) {
        let what = format!("{m}x{k}x{n}");
        let dots: Vec<f64> = (0..m * n)
            .map(|e| dot(&a[e / n * k..][..k], &b[e % n * k..][..k]))
            .collect();
        let mut want: Vec<f64> = c0.iter().zip(&dots).map(|(c, d)| c + d).collect();
        let mut got = c0.to_vec();
        gemm_nt(m, k, n, a, b, &mut got);
        assert_same_bits(&got, &want, &format!("accumulate {what}"));

        want = dots.iter().map(|d| 0.0 + d).collect();
        for (v, bv) in want.iter_mut().zip(bias.iter().cycle()) {
            *v += bv;
        }
        for pass in [Pass::Training, Pass::Evaluation] {
            // The assigning epilogues never read `C`: poison it.
            got.fill(f64::NAN);
            gemm_nt_fused(m, k, n, a, b, Epilogue::Bias(bias), pass, &mut got);
            assert_same_bits(&got, &want, &format!("bias {what}"));
        }
        for v in want.iter_mut() {
            *v = crate::ops::relu(*v);
        }
        got.fill(f64::NAN);
        let relu = Epilogue::BiasRelu(bias);
        gemm_nt_fused(m, k, n, a, b, relu, Pass::Evaluation, &mut got);
        assert_same_bits(&got, &want, &format!("bias + relu {what}"));
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_row_wise_dot() {
        // Single and odd row counts, ragged panels (n % 8 != 0), ragged lanes
        // (k % 4 != 0), empty dimensions, a shrinking then regrowing pack, and
        // the training / evaluation forwards' own shapes.
        let mut shapes = vec![
            (1, 7, 5),
            (3, 8, 16),
            (4, 1, 1),
            (5, 0, 3),
            (5, 3, 0),
            (7, 13, 19),
            (32, 64, 64),
        ];
        for batch in [32, 64, 128, 203] {
            shapes.extend([(batch, 24, 32), (batch, 32, 20)]);
        }
        for (m, k, n) in shapes {
            let a = seq(m * k, 0.3);
            let b = seq(n * k, -0.2);
            let bias = seq(n, 0.7);
            let c0 = seq(m * n, 0.01);
            assert_gemm_nt_matches_dot((m, k, n), &a, &b, &bias, &c0);
        }
    }

    #[test]
    fn gemm_nt_epilogue_keeps_the_unfused_sign_of_zero() {
        // A product that underflows to -0.0 is the one way `dot` returns a
        // negative zero. Accumulating it into a zero-filled C gives +0.0, and
        // +0.0 + -0.0 stays +0.0, where a bare `acc + bias` would be -0.0.
        let (a, b, bias) = ([-1e-200], [1e-200], [-0.0]);
        assert!(dot(&a, &b).is_sign_negative());
        let mut c = [f64::NAN];
        for epilogue in [Epilogue::Bias(&bias), Epilogue::BiasRelu(&bias)] {
            gemm_nt_fused(1, 1, 1, &a, &b, epilogue, Pass::Evaluation, &mut c);
            assert_eq!(c[0].to_bits(), 0.0f64.to_bits());
        }
        assert_gemm_nt_matches_dot((1, 1, 1), &a, &b, &bias, &[0.0]);
    }

    #[test]
    fn matvec_into_matches_dot_per_row() {
        let (rows, cols) = (5, 11);
        let a = seq(rows * cols, 0.9);
        let x = seq(cols, -1.3);
        let mut out = vec![f64::NAN; rows];
        matvec_into(rows, cols, &a, &x, &mut out);
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o.to_bits(), dot(&a[r * cols..(r + 1) * cols], &x).to_bits());
        }
    }

    #[test]
    fn axpy_scale_colsum() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, vec![10.5, 21.0, 31.5]);
        scale(2.0, &mut y);
        assert_eq!(y, vec![21.0, 42.0, 63.0]);

        let c = vec![10.0, 21.0, 12.0, 23.0];

        let mut sums = vec![0.0, 100.0];
        col_sum_add(2, 2, &c, &mut sums);
        assert_eq!(sums, vec![22.0, 144.0]);
    }

    #[test]
    fn relu_kernels_match_scalar_ops() {
        let mut h = vec![-1.0, 0.0, 2.5];
        relu_rows(&mut h);
        assert_eq!(h, vec![0.0, 0.0, 2.5]);
        let mut dh = vec![3.0, -4.0, 5.0];
        relu_backward_rows(&mut dh, &[-1.0, 2.0, 0.0]);
        assert_eq!(dh, vec![0.0, -4.0, 0.0]);
    }

    #[test]
    fn fused_xent_backward_matches_unfused_sequence() {
        let rows = 3;
        let cols = 4;
        let logits = seq(rows * cols, 1.7);
        let labels = [2usize, 0, 3];
        let mut fused = logits.clone();
        let loss = softmax_xent_backward(&mut fused, rows, cols, |r| labels[r]);

        let mut expected_loss = 0.0;
        for r in 0..rows {
            let mut row = logits[r * cols..(r + 1) * cols].to_vec();
            expected_loss += crate::ops::cross_entropy_from_logits(&row, labels[r]).unwrap();
            crate::ops::softmax_inplace(&mut row);
            row[labels[r]] -= 1.0;
            for (j, v) in row.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    fused[r * cols + j].to_bits(),
                    "row {r} col {j}"
                );
            }
        }
        assert!((loss - expected_loss).abs() <= 1e-12 * expected_loss.abs().max(1.0));
    }

    #[test]
    fn fused_xent_backward_is_bitwise_unfused_at_block_boundaries() {
        for rows in [
            1,
            XENT_ROWS - 1,
            XENT_ROWS,
            XENT_ROWS + 1,
            2 * XENT_ROWS + 1,
        ] {
            for cols in [1, 7, 20, 64] {
                let logits = seq(rows * cols, 3.1);
                let labels: Vec<usize> = (0..rows).map(|r| (3 * r + 1) % cols).collect();
                let mut fused = logits.clone();
                let loss = softmax_xent_backward(&mut fused, rows, cols, |r| labels[r]);
                let mut want = Vec::with_capacity(rows * cols);
                let mut want_loss = 0.0;
                for (row, &label) in logits.chunks(cols).zip(&labels) {
                    want_loss += crate::ops::cross_entropy_from_logits(row, label).unwrap();
                    let mut row = row.to_vec();
                    crate::ops::softmax_inplace(&mut row);
                    row[label] -= 1.0;
                    want.extend(row);
                }
                let what = format!("{rows}x{cols}");
                assert_same_bits(&fused, &want, &what);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what} loss");
            }
        }
    }

    #[test]
    fn fused_xent_backward_rows_sum_to_zero_gradient() {
        let mut logits = seq(8, 0.8);
        let total = softmax_xent_backward(&mut logits, 2, 4, |_| 1);
        assert!(total > 0.0);
        for row in logits.chunks(4) {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12, "gradient rows sum to ~0, got {s}");
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn fused_xent_backward_rejects_bad_label() {
        let mut logits = vec![0.0; 4];
        softmax_xent_backward(&mut logits, 1, 4, |_| 4);
    }

    #[test]
    fn argmax_errors_keeps_the_first_maximum_and_ignores_nan() {
        // `stats::argmax` says 0 for all three hand cases: -0.0 ties 0.0, a
        // NaN in column 0 is never displaced, a NaN elsewhere never wins and
        // the tie keeps the first 1.0.
        for row in [&[-0.0, 0.0][..], &[f64::NAN, 1.0], &[1.0, f64::NAN, 1.0]] {
            assert_eq!(crate::stats::argmax(row).unwrap(), 0);
            assert_eq!(argmax_errors(row, row.len(), |_| 0), 0);
            assert_eq!(argmax_errors(row, row.len(), |_| 1), 1);
        }
        let logits = [0.1, 0.9, 0.3, 0.7, 0.2, 0.2, -1.0, -2.0, -0.5];
        assert_eq!(argmax_errors(&logits, 3, |r| [1, 0, 1][r]), 1);
        assert_eq!(argmax_errors(&[], 3, |_| unreachable!()), 0);
        // A single column predicts class 0, whatever it holds.
        assert_eq!(argmax_errors(&[f64::NAN, 2.0], 1, |r| r), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn argmax_errors_rejects_a_ragged_matrix() {
        argmax_errors(&[0.0; 5], 2, |_| 0);
    }

    #[test]
    fn buffer_pool_reuses_capacity() {
        let mut pool = BufferPool::new();
        let a = pool.take(64);
        assert_eq!(a.len(), 64);
        assert_eq!(pool.fresh_allocations(), 1);
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        // Steady state: repeated take/put cycles of mixed sizes allocate
        // nothing new once the pool is warm.
        let b = pool.take(32);
        assert_eq!(b.len(), 32);
        assert!(b.iter().all(|&v| v == 0.0));
        pool.put(b);
        for _ in 0..100 {
            let x = pool.take(64);
            let y = pool.take(32);
            pool.put(x);
            pool.put(y);
        }
        assert_eq!(pool.fresh_allocations(), 2);
    }

    #[test]
    fn buffer_pool_prefers_best_fit() {
        let mut pool = BufferPool::new();
        let small = pool.take(8);
        let large = pool.take(1024);
        pool.put(large);
        pool.put(small);
        // A request for 8 must take the 8-capacity buffer, leaving the large
        // one free for a large request (no churn).
        let got = pool.take(8);
        assert!(got.capacity() < 1024);
        let big = pool.take(1024);
        assert!(big.capacity() >= 1024);
        assert_eq!(pool.fresh_allocations(), 2);
    }

    #[test]
    fn buffer_pool_zero_len_and_cap() {
        let mut pool = BufferPool::new();
        let empty = pool.take(0);
        assert!(empty.is_empty());
        pool.put(empty);
        // Zero-capacity buffers are not pooled.
        assert_eq!(pool.pooled(), 0);
        for _ in 0..(POOL_CAP + 10) {
            pool.put(vec![0.0; 4]);
        }
        assert_eq!(pool.pooled(), POOL_CAP);
        // A full pool trades its smallest buffer for a larger incoming one
        // and drops a smaller one.
        pool.put(Vec::with_capacity(64));
        pool.put(Vec::with_capacity(2));
        assert_eq!(pool.pooled(), POOL_CAP);
        assert!(pool.take(64).capacity() >= 64);
        assert_eq!(pool.fresh_allocations(), 1);
    }

    #[test]
    fn buffer_pool_unzeroed_take_is_sized_and_initialised() {
        let mut pool = BufferPool::new();
        pool.put(vec![7.0; 8]);
        // Shrinking keeps the previous contents, growing fills with zeros;
        // neither allocates once the capacity is there.
        assert_eq!(pool.take_unzeroed(3), vec![7.0; 3]);
        let mut grown = Vec::with_capacity(8);
        grown.extend([1.0, 2.0]);
        pool.put(grown);
        assert_eq!(pool.take_unzeroed(4), vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(pool.fresh_allocations(), 0);
        assert_eq!(pool.take_unzeroed(5), vec![0.0; 5]);
        assert_eq!(pool.fresh_allocations(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{assert_gemm_nt_matches_dot, assert_same_bits, naive_gemm, naive_gemm_tn};
    use super::*;
    use proptest::prelude::*;

    fn wave(seed: u64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((seed as f64 + i as f64) * 0.61).sin())
            .collect()
    }

    fn vec_of(len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-10.0f64..10.0, len..len + 1)
    }

    proptest! {
        // m up to 10 and n up to 44: two 4-row tiles plus single rows, and
        // every 16/8/4/1 column-tile combination, for both `A` layouts.
        #[test]
        fn prop_gemm_and_gemm_tn_bitwise_match_naive(
            m in 1usize..11, k in 0usize..20, n in 1usize..45,
            seed in 0u64..1000,
        ) {
            let a = wave(seed + 1, m * k);
            let b = wave(seed + 2, k * n);
            let c0 = wave(seed + 3, m * n);
            let (mut c, mut c_ref) = (c0.clone(), c0.clone());
            gemm(m, k, n, &a, &b, &mut c);
            naive_gemm(m, k, n, &a, &b, &mut c_ref);
            assert_same_bits(&c, &c_ref, "gemm");
            let (mut c, mut c_ref) = (c0.clone(), c0);
            gemm_tn(m, k, n, &a, &b, &mut c);
            naive_gemm_tn(m, k, n, &a, &b, &mut c_ref);
            assert_same_bits(&c, &c_ref, "gemm_tn");
        }

        #[test]
        fn prop_gemm_nt_bitwise_matches_row_wise_dot(
            m in 1usize..40, kq in 0usize..8, kr in 1usize..4,
            nq in 0usize..4, nr in 1usize..8, seed in 0u64..1000,
        ) {
            // k % 4 != 0 and n % 8 != 0: every call has a lane tail and a
            // partly filled last panel.
            let (k, n) = (4 * kq + kr, 8 * nq + nr);
            let mut a = wave(seed + 1, m * k);
            let mut b = wave(seed + 2, n * k);
            // Output (0, 0) is a dot product of exactly -0.0: every term is
            // zero except a last one that underflows.
            a[..k].fill(0.0);
            b[..k].fill(0.0);
            (a[k - 1], b[k - 1]) = (-1e-200, 1e-200);
            prop_assert!(dot(&a[..k], &b[..k]).is_sign_negative());
            let mut bias = wave(seed + 4, n);
            bias[0] = -0.0;
            assert_gemm_nt_matches_dot((m, k, n), &a, &b, &bias, &wave(seed + 3, m * n));
        }

        #[test]
        fn prop_dot_within_relative_epsilon_of_naive(
            len in 0usize..64, seed in 0u64..1000,
        ) {
            let a: Vec<f64> = (0..len).map(|i| ((seed as f64 + i as f64) * 0.3).cos()).collect();
            let b: Vec<f64> = (0..len).map(|i| ((seed as f64 - i as f64) * 0.7).sin()).collect();
            let got = dot(&a, &b);
            let want: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
            let tol = 1e-12 * want.abs().max(1.0);
            prop_assert!((got - want).abs() <= tol, "{} vs {}", got, want);
        }

        #[test]
        fn prop_matvec_within_epsilon_of_naive(
            rows in 1usize..8, cols in 1usize..24, seed in 0u64..500,
        ) {
            let a: Vec<f64> = (0..rows * cols)
                .map(|i| ((seed as f64 + i as f64) * 0.17).sin())
                .collect();
            let x: Vec<f64> = (0..cols).map(|i| ((seed as f64 + i as f64) * 0.5).cos()).collect();
            let mut out = vec![0.0; rows];
            matvec_into(rows, cols, &a, &x, &mut out);
            for (r, o) in out.iter().enumerate() {
                let want: f64 = a[r * cols..(r + 1) * cols]
                    .iter()
                    .zip(x.iter())
                    .map(|(p, q)| p * q)
                    .sum();
                let tol = 1e-12 * want.abs().max(1.0);
                prop_assert!((o - want).abs() <= tol);
            }
        }

        // 1..=70 columns and 0..=40 rows cover the models' 10 / 20-class
        // rows, the bigram's 48 / 64-wide ones and the empty batch; the
        // palette makes ties, signed zeros, infinities, NaNs and all-NaN rows
        // (a diverged model) common.
        #[test]
        fn prop_argmax_errors_matches_row_wise_argmax(
            cols in 1usize..=70, rows in 0usize..=40,
            codes in proptest::collection::vec(any::<u64>(), 2800..2801),
            row_codes in proptest::collection::vec(any::<u64>(), 40..41),
        ) {
            let logit = |r: usize, c: usize| {
                let code = codes[r * cols + c];
                if row_codes[r] % 8 == 0 {
                    return f64::NAN;
                }
                match code % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    3 => f64::NEG_INFINITY,
                    4 | 5 => f64::NAN,
                    6..=11 => ((code >> 8) % 5) as f64 - 2.0,
                    _ => Some(f64::from_bits(code)).filter(|v| v.is_finite()).unwrap_or(0.5),
                }
            };
            let logits: Vec<f64> = (0..rows * cols).map(|i| logit(i / cols, i % cols)).collect();
            // Half the labels are the reference prediction, half arbitrary.
            let predictions: Vec<usize> = logits
                .chunks_exact(cols)
                .map(|row| crate::stats::argmax(row).unwrap())
                .collect();
            let labels: Vec<usize> = (0..rows)
                .map(|r| match row_codes[r] >> 8 & 1 {
                    0 => predictions[r],
                    _ => (row_codes[r] >> 16) as usize % cols,
                })
                .collect();
            let want = predictions.iter().zip(&labels).filter(|(p, l)| p != l).count();
            prop_assert_eq!(argmax_errors(&logits, cols, |r| labels[r]), want);
        }

        #[test]
        fn prop_fused_xent_bitwise_matches_unfused(
            logits in vec_of(12), label_raw in any::<usize>(),
        ) {
            let (rows, cols) = (3, 4);
            let labels: Vec<usize> = (0..rows).map(|r| (label_raw + r) % cols).collect();
            let mut fused = logits.clone();
            let loss = softmax_xent_backward(&mut fused, rows, cols, |r| labels[r]);
            let mut expected_loss = 0.0;
            for r in 0..rows {
                let mut row = logits[r * cols..(r + 1) * cols].to_vec();
                expected_loss +=
                    crate::ops::cross_entropy_from_logits(&row, labels[r]).unwrap();
                crate::ops::softmax_inplace(&mut row);
                row[labels[r]] -= 1.0;
                for (j, v) in row.iter().enumerate() {
                    prop_assert_eq!(v.to_bits(), fused[r * cols + j].to_bits());
                }
            }
            let tol = 1e-12 * expected_loss.abs().max(1.0);
            prop_assert!((loss - expected_loss).abs() <= tol);
        }
    }
}
