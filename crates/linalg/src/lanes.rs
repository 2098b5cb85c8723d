//! The lane layout shared by every multi-RHS kernel in this crate.
//!
//! A kernel generic over a const width `W` processes `W` right-hand sides
//! at once, stored lane-interleaved (`tile[i * W + l]` is element `i` of
//! lane `l`), so its innermost loops are fixed-width independent f64
//! operations that LLVM autovectorizes and that break the loop-carried FP
//! addition chains of a one-column loop. Each kernel is instantiated
//! twice, with no knob: [`LANES`] serves the full tiles of a panel, and
//! `W = 1` serves single vectors and a panel's ragged tail. Per lane, both
//! instances run the same floating-point sequence, so a column's result
//! does not depend on which instance computed it.

/// Lane width of a full tile. Eight lanes cover one AVX-512 vector, two
/// AVX2 vectors, or four SSE2 vectors.
pub(crate) const LANES: usize = 8;

/// Rows per chunk of the lane transposes below: the interleaved slab a
/// chunk touches is `1024 × LANES × 8 B = 64 KiB`, small enough to stay
/// cached across the per-lane passes. Without chunking, every one of the
/// `W` passes walks the full tile and touches every cache line of it,
/// multiplying the transpose traffic by `W` on tiles past cache size.
const XPOSE_CHUNK: usize = 1024;

/// The lane-interleaved view of `W` column-major columns of length `len`
/// (`tile[i * W + l] = cols[l * len + i]`). One column is already its own
/// interleaving, so `W = 1` borrows `cols` as is; wider tiles are packed
/// into `tile`.
pub(crate) fn pack_lanes<'a, const W: usize>(
    cols: &'a [f64],
    len: usize,
    tile: &'a mut Vec<f64>,
) -> &'a [f64] {
    if W == 1 {
        return cols;
    }
    tile.resize(len * W, 0.0);
    let mut i0 = 0;
    while i0 < len {
        let i1 = (i0 + XPOSE_CHUNK).min(len);
        for (l, col) in cols.chunks_exact(len).enumerate() {
            for i in i0..i1 {
                tile[i * W + l] = col[i];
            }
        }
        i0 = i1;
    }
    tile
}

/// The inverse of [`pack_lanes`]: `kernel` fills a lane-interleaved tile of
/// `len` rows, which is then spread into `W` column-major columns. `W = 1`
/// hands `kernel` the column itself.
pub(crate) fn unpack_lanes<const W: usize>(
    cols: &mut [f64],
    len: usize,
    tile: &mut Vec<f64>,
    kernel: impl FnOnce(&mut [f64]),
) {
    if W == 1 {
        return kernel(cols);
    }
    tile.resize(len * W, 0.0);
    kernel(tile);
    let mut i0 = 0;
    while i0 < len {
        let i1 = (i0 + XPOSE_CHUNK).min(len);
        for (l, col) in cols.chunks_exact_mut(len).enumerate() {
            for i in i0..i1 {
                col[i] = tile[i * W + l];
            }
        }
        i0 = i1;
    }
}
