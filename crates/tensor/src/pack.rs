//! Panel packing for the BLIS-style blocked GEMM engine.
//!
//! The engine never walks strided operand memory inside the micro-kernel.
//! Instead, each `MC × KC` block of A and `KC × NC` block of B is copied
//! once into a contiguous, micro-kernel-aligned layout:
//!
//! * A panels: micro-panels of [`MR`] rows, stored k-major — group `kk`
//!   holds the `MR` values `A[i..i+MR][kk]`, zero-padded past the block's
//!   last row.
//! * B panels: micro-panels of [`NR`] columns, stored k-major — group `kk`
//!   holds the `NR` values `B[kk][j..j+NR]`, zero-padded past the block's
//!   last column.
//!
//! Transposed operands are handled here, at pack time: a [`MatRef`] carries
//! a logical-transpose flag, so `matmul_transa` / `matmul_transb` reuse the
//! same kernel and blocking as plain `matmul` instead of bespoke loops.

use crate::dtype::{encode_u16, KernelDtype};
use crate::kernel::{MR, NR};

/// A borrowed, row-major matrix operand with an optional logical transpose.
///
/// `rows × cols` are the *logical* GEMM dimensions; when `trans` is set the
/// backing data is laid out as `cols × rows` and element `(i, j)` lives at
/// `data[j * rows + i]`.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    trans: bool,
}

impl<'a> MatRef<'a> {
    /// Wraps row-major `rows × cols` data.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert!(data.len() >= rows * cols);
        MatRef {
            data,
            rows,
            cols,
            trans: false,
        }
    }

    /// Wraps data stored as `cols × rows` that should act as `rows × cols`.
    pub fn transposed(data: &'a [f32], rows: usize, cols: usize) -> Self {
        debug_assert!(data.len() >= rows * cols);
        MatRef {
            data,
            rows,
            cols,
            trans: true,
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing row-major data, unless the operand is transposed.
    pub fn row_major(&self) -> Option<&'a [f32]> {
        (!self.trans).then_some(self.data)
    }

    /// Element at logical position `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        if self.trans {
            self.data[j * self.rows + i]
        } else {
            self.data[i * self.cols + j]
        }
    }
}

/// Bytes-free helper: number of `f32`s a packed A block needs.
pub fn packed_a_len(mc: usize, kc: usize) -> usize {
    mc.div_ceil(MR) * MR * kc
}

/// Number of `f32`s a packed B block needs.
pub fn packed_b_len(kc: usize, nc: usize) -> usize {
    nc.div_ceil(NR) * NR * kc
}

/// Packs the `mc × kc` block of `a` starting at `(i0, p0)` into `buf` as
/// zero-padded `MR`-row micro-panels.
pub fn pack_a(buf: &mut [f32], a: &MatRef, i0: usize, mc: usize, p0: usize, kc: usize) {
    debug_assert!(buf.len() >= packed_a_len(mc, kc));
    let mut dst = 0usize;
    let mut ip = 0usize;
    while ip < mc {
        let mr = MR.min(mc - ip);
        if !a.trans && mr == MR {
            // Full micro-panel from row-major storage: copy six strided rows
            // column-step by column-step.
            let base = (i0 + ip) * a.cols + p0;
            let stride = a.cols;
            for kk in 0..kc {
                let col = base + kk;
                let out = &mut buf[dst + kk * MR..dst + kk * MR + MR];
                for (r, o) in out.iter_mut().enumerate() {
                    *o = a.data[col + r * stride];
                }
            }
        } else if a.trans && mr == MR {
            // Transposed storage keeps a logical column contiguous: group
            // `kk` is a straight copy of `MR` consecutive values.
            for kk in 0..kc {
                let src = (p0 + kk) * a.rows + i0 + ip;
                buf[dst + kk * MR..dst + kk * MR + MR].copy_from_slice(&a.data[src..src + MR]);
            }
        } else {
            for kk in 0..kc {
                for r in 0..MR {
                    buf[dst + kk * MR + r] = if r < mr {
                        a.at(i0 + ip + r, p0 + kk)
                    } else {
                        0.0
                    };
                }
            }
        }
        dst += MR * kc;
        ip += MR;
    }
}

/// Packs the `kc × nc` block of `b` starting at `(p0, j0)` into `buf` as
/// zero-padded `NR`-column micro-panels.
pub fn pack_b(buf: &mut [f32], b: &MatRef, p0: usize, kc: usize, j0: usize, nc: usize) {
    debug_assert!(buf.len() >= packed_b_len(kc, nc));
    let mut dst = 0usize;
    let mut jp = 0usize;
    while jp < nc {
        let nr = NR.min(nc - jp);
        if !b.trans && nr == NR {
            // A logical B row is contiguous in row-major storage.
            for kk in 0..kc {
                let src = (p0 + kk) * b.cols + j0 + jp;
                buf[dst + kk * NR..dst + kk * NR + NR].copy_from_slice(&b.data[src..src + NR]);
            }
        } else if b.trans && nr == NR {
            // Transposed storage: column `j` of the logical matrix is row `j`
            // of the backing data; gather NR strided values per k-step.
            let stride = b.rows;
            for kk in 0..kc {
                let base = (j0 + jp) * stride + p0 + kk;
                let out = &mut buf[dst + kk * NR..dst + kk * NR + NR];
                for (c, o) in out.iter_mut().enumerate() {
                    *o = b.data[base + c * stride];
                }
            }
        } else {
            for kk in 0..kc {
                for c in 0..NR {
                    buf[dst + kk * NR + c] = if c < nr {
                        b.at(p0 + kk, j0 + jp + c)
                    } else {
                        0.0
                    };
                }
            }
        }
        dst += NR * kc;
        jp += NR;
    }
}

/// Packs the `kc × nc` block of `b` starting at `(p0, j0)` into `buf` as
/// zero-padded `NR`-column micro-panels of reduced-precision (`bf16` or
/// `f16`) bit patterns — the layout of [`pack_b`] with each value encoded
/// through `dtype`'s storage codec. Padding encodes `0.0`, which is exact
/// in both formats, so padded lanes contribute nothing just as in the
/// `f32` panels.
pub fn pack_b_u16(
    buf: &mut [u16],
    dtype: KernelDtype,
    b: &MatRef,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
) {
    debug_assert!(buf.len() >= packed_b_len(kc, nc));
    debug_assert!(dtype != KernelDtype::F32, "f32 panels use pack_b");
    let mut dst = 0usize;
    let mut jp = 0usize;
    while jp < nc {
        let nr = NR.min(nc - jp);
        if !b.trans && nr == NR {
            // A logical B row is contiguous in row-major storage.
            for kk in 0..kc {
                let src = (p0 + kk) * b.cols + j0 + jp;
                let out = &mut buf[dst + kk * NR..dst + kk * NR + NR];
                for (o, &v) in out.iter_mut().zip(&b.data[src..src + NR]) {
                    *o = encode_u16(dtype, v);
                }
            }
        } else if b.trans && nr == NR {
            // Transposed storage: gather NR strided values per k-step.
            let stride = b.rows;
            for kk in 0..kc {
                let base = (j0 + jp) * stride + p0 + kk;
                let out = &mut buf[dst + kk * NR..dst + kk * NR + NR];
                for (c, o) in out.iter_mut().enumerate() {
                    *o = encode_u16(dtype, b.data[base + c * stride]);
                }
            }
        } else {
            for kk in 0..kc {
                for c in 0..NR {
                    buf[dst + kk * NR + c] = if c < nr {
                        encode_u16(dtype, b.at(p0 + kk, j0 + jp + c))
                    } else {
                        encode_u16(dtype, 0.0)
                    };
                }
            }
        }
        dst += NR * kc;
        jp += NR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|i| i as f32).collect()
    }

    #[test]
    fn matref_indexing_matches_layouts() {
        let data = grid(3, 4); // 3×4 row-major
        let m = MatRef::new(&data, 3, 4);
        assert_eq!(m.at(1, 2), 6.0);
        // Same data viewed as the transpose: logical 4×3.
        let t = MatRef::transposed(&data, 4, 3);
        assert_eq!(t.at(2, 1), m.at(1, 2));
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
    }

    #[test]
    fn pack_a_layout_and_padding() {
        let data = grid(7, 5);
        let a = MatRef::new(&data, 7, 5);
        let (mc, kc) = (7usize, 5usize);
        let mut buf = vec![f32::NAN; packed_a_len(mc, kc)];
        pack_a(&mut buf, &a, 0, mc, 0, kc);
        // First micro-panel, group kk: rows 0..6 of column kk.
        for kk in 0..kc {
            for r in 0..MR {
                assert_eq!(buf[kk * MR + r], a.at(r, kk));
            }
        }
        // Second micro-panel holds row 6 then zero padding.
        let base = MR * kc;
        for kk in 0..kc {
            assert_eq!(buf[base + kk * MR], a.at(6, kk));
            for r in 1..MR {
                assert_eq!(buf[base + kk * MR + r], 0.0, "padding must be zero");
            }
        }
    }

    #[test]
    fn pack_b_layout_and_padding() {
        let data = grid(4, 19);
        let b = MatRef::new(&data, 4, 19);
        let (kc, nc) = (4usize, 19usize);
        let mut buf = vec![f32::NAN; packed_b_len(kc, nc)];
        pack_b(&mut buf, &b, 0, kc, 0, nc);
        for kk in 0..kc {
            for c in 0..NR {
                assert_eq!(buf[kk * NR + c], b.at(kk, c));
            }
        }
        let base = NR * kc;
        for kk in 0..kc {
            for c in 0..NR {
                let want = if NR + c < nc { b.at(kk, NR + c) } else { 0.0 };
                assert_eq!(buf[base + kk * NR + c], want);
            }
        }
    }

    #[test]
    fn packing_transposed_equals_packing_materialized_transpose() {
        let (m, k) = (11usize, 9usize);
        let stored = grid(k, m); // k×m storage for a logical m×k operand
        let a_t = MatRef::transposed(&stored, m, k);
        let mut materialized = vec![0.0f32; m * k];
        for i in 0..m {
            for j in 0..k {
                materialized[i * k + j] = stored[j * m + i];
            }
        }
        let a_plain = MatRef::new(&materialized, m, k);
        let mut buf_t = vec![0.0f32; packed_a_len(m, k)];
        let mut buf_p = vec![0.0f32; packed_a_len(m, k)];
        pack_a(&mut buf_t, &a_t, 0, m, 0, k);
        pack_a(&mut buf_p, &a_plain, 0, m, 0, k);
        assert_eq!(buf_t, buf_p);

        let (kk, n) = (9usize, 21usize);
        let stored_b = grid(n, kk); // n×k storage for a logical k×n operand
        let b_t = MatRef::transposed(&stored_b, kk, n);
        let mut mat_b = vec![0.0f32; kk * n];
        for i in 0..kk {
            for j in 0..n {
                mat_b[i * n + j] = stored_b[j * kk + i];
            }
        }
        let b_plain = MatRef::new(&mat_b, kk, n);
        let mut bt = vec![0.0f32; packed_b_len(kk, n)];
        let mut bp = vec![0.0f32; packed_b_len(kk, n)];
        pack_b(&mut bt, &b_t, 0, kk, 0, n);
        pack_b(&mut bp, &b_plain, 0, kk, 0, n);
        assert_eq!(bt, bp);
    }

    #[test]
    fn pack_b_u16_matches_elementwise_encode_of_pack_b() {
        use crate::dtype::encode_u16;
        let data = grid(9, 21);
        let b = MatRef::new(&data, 9, 21);
        let bt_store = grid(21, 9);
        let bt = MatRef::transposed(&bt_store, 9, 21);
        for dtype in [KernelDtype::Bf16, KernelDtype::F16] {
            for m in [&b, &bt] {
                let (kc, nc) = (9usize, 21usize);
                let mut f32buf = vec![0.0f32; packed_b_len(kc, nc)];
                let mut u16buf = vec![1u16; packed_b_len(kc, nc)];
                pack_b(&mut f32buf, m, 0, kc, 0, nc);
                pack_b_u16(&mut u16buf, dtype, m, 0, kc, 0, nc);
                for (got, &want) in u16buf.iter().zip(&f32buf) {
                    assert_eq!(*got, encode_u16(dtype, want));
                }
            }
        }
    }

    #[test]
    fn pack_offsets_select_the_right_block() {
        let data = grid(10, 12);
        let a = MatRef::new(&data, 10, 12);
        let mut buf = vec![0.0f32; packed_a_len(4, 3)];
        pack_a(&mut buf, &a, 6, 4, 9, 3);
        for kk in 0..3 {
            for r in 0..4 {
                assert_eq!(buf[kk * MR + r], a.at(6 + r, 9 + kk));
            }
        }
    }
}
