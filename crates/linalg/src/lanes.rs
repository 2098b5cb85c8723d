//! The lane layout shared by every multi-RHS kernel in this crate.
//!
//! A kernel generic over a const width `W` processes `W` right-hand sides
//! at once, stored lane-interleaved (`tile[i * W + l]` is element `i` of
//! lane `l`), so its innermost loops are fixed-width independent f64
//! operations that LLVM autovectorizes and that break the loop-carried FP
//! addition chains of a one-column loop. Each kernel is instantiated
//! twice, with no knob: [`LANES`] serves full tiles, and `W = 1` serves
//! single vectors and ragged tails. Per lane, both instances run the same
//! floating-point sequence, so a column's result does not depend on which
//! instance computed it.
//!
//! The tile is the kernels' public primitive
//! ([`crate::StrategyOperator::pinv_apply_tile`],
//! [`crate::CsrMatrix::matvec_tile_with_plan`]): a caller that produces
//! its right-hand sides lane-interleaved — the Monte-Carlo sampler, from
//! its noise draw to its maxima — never transposes. The column-major
//! panel methods are [`panel_by_tiles`] over the same kernels.

use crate::{LinalgError, Result};

/// Lane width of a full tile. Eight lanes cover one AVX-512 vector, two
/// AVX2 vectors, or four SSE2 vectors.
pub const LANES: usize = 8;

/// Rows per chunk of the lane transposes below: the interleaved slab a
/// chunk touches is `1024 × LANES × 8 B = 64 KiB`, small enough to stay
/// cached across the per-lane passes. Without chunking, every one of the
/// `W` passes walks the full tile and touches every cache line of it,
/// multiplying the transpose traffic by `W` on tiles past cache size.
const XPOSE_CHUNK: usize = 1024;

/// Validates one tile: `width` is 1 or [`LANES`], and the input and the
/// output each hold `width` lanes of their `(len, rows)` pair's rows.
pub(crate) fn check_tile(
    (input, in_rows): (usize, usize),
    (output, out_rows): (usize, usize),
    width: usize,
    op: &'static str,
) -> Result<()> {
    if width != 1 && width != LANES {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: (LANES, 1),
            rhs: (width, 1),
        });
    }
    for (len, rows) in [(input, in_rows), (output, out_rows)] {
        if len != rows.saturating_mul(width) {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: (rows, width),
                rhs: (len, 1),
            });
        }
    }
    Ok(())
}

/// A column-major panel through a tile kernel: `src` holds `k` columns of
/// `in_len` elements and `out` receives `k` columns of `out_len`. Full tiles of
/// [`LANES`] columns are packed lane-interleaved into the first staging
/// buffer, run, and unpacked through the second; the ragged tail runs one column at a time
/// at width 1, where a column is its own interleaving and nothing is
/// copied. `tile(input, width, output)` is the kernel.
pub(crate) fn panel_by_tiles(
    src: &[f64],
    in_len: usize,
    k: usize,
    out: &mut [f64],
    out_len: usize,
    (packed, unpacked): (&mut Vec<f64>, &mut Vec<f64>),
    mut tile: impl FnMut(&[f64], usize, &mut [f64]) -> Result<()>,
) -> Result<()> {
    let full = k / LANES * LANES;
    for j in (0..full).step_by(LANES) {
        let cols = &src[j * in_len..(j + LANES) * in_len];
        let dst = &mut out[j * out_len..(j + LANES) * out_len];
        let t = pack_lanes(cols, in_len, packed);
        unpack_lanes(dst, out_len, unpacked, |o| tile(t, LANES, o))?;
    }
    for j in full..k {
        let col = &src[j * in_len..(j + 1) * in_len];
        tile(col, 1, &mut out[j * out_len..(j + 1) * out_len])?;
    }
    Ok(())
}

/// The lane-interleaved view of [`LANES`] column-major columns of length
/// `len` (`tile[i * LANES + l] = cols[l * len + i]`), packed into `tile`.
fn pack_lanes<'a>(cols: &[f64], len: usize, tile: &'a mut Vec<f64>) -> &'a [f64] {
    tile.resize(len * LANES, 0.0);
    let mut i0 = 0;
    while i0 < len {
        let i1 = (i0 + XPOSE_CHUNK).min(len);
        for (l, col) in cols.chunks_exact(len).enumerate() {
            for i in i0..i1 {
                tile[i * LANES + l] = col[i];
            }
        }
        i0 = i1;
    }
    tile
}

/// The inverse of [`pack_lanes`]: `kernel` fills a lane-interleaved tile
/// of `len` rows, which is then spread into [`LANES`] column-major
/// columns.
fn unpack_lanes<R>(
    cols: &mut [f64],
    len: usize,
    tile: &mut Vec<f64>,
    kernel: impl FnOnce(&mut [f64]) -> R,
) -> R {
    tile.resize(len * LANES, 0.0);
    let r = kernel(tile);
    let mut i0 = 0;
    while i0 < len {
        let i1 = (i0 + XPOSE_CHUNK).min(len);
        for (l, col) in cols.chunks_exact_mut(len).enumerate() {
            for i in i0..i1 {
                col[i] = tile[i * LANES + l];
            }
        }
        i0 = i1;
    }
    r
}
