//! # lrd-tensor
//!
//! Dense tensor and linear-algebra substrate for the low-rank-decomposition
//! characterization workspace.
//!
//! This crate provides everything the upper layers need to *actually perform*
//! the Tucker decomposition studied in the paper:
//!
//! * [`Tensor`] — a row-major dense `f32` n-dimensional array with mode-`n`
//!   unfolding/folding (matricization), the core primitive of tensor
//!   decomposition.
//! * [`matmul`] — packed, multi-threaded GEMM behind one entry point
//!   (`gemm(backend, dtype, trans, a, b)`) plus the fused factored product;
//!   both run through one BLIS-style blocked engine ([`pack`]) with an
//!   explicit runtime-dispatched SIMD micro-kernel ([`kernel`]), and
//!   single-block products skip the packing.
//! * [`qr`] — Householder QR (thin form), used by the randomized SVD.
//! * [`svd`] — truncated singular value decomposition (one-sided Jacobi for
//!   small problems, randomized subspace iteration for large ones).
//! * [`tucker`] — Tucker decomposition via Higher-Order Orthogonal Iteration
//!   (Algorithm 1 of the paper), with the 2-D fast path
//!   `T(n1, n2) ≈ U1(n1, pr) · Γ(pr, pr) · U2(pr, n2)` used to factor
//!   transformer weight matrices.
//! * [`attention`] — decode attention of one session over a KV cache whose
//!   keys sit in 8-position tiles, SIMD across keys and heads.
//! * [`exp`] — a slice `exp` whose AVX2 path is bit-identical to glibc's
//!   `expf`, for softmax and SiLU.
//! * [`rng`] — a small deterministic PRNG (xoshiro256++) so every experiment
//!   in the workspace is reproducible bit-for-bit.
//!
//! # Example
//!
//! Decompose a matrix with a pruned rank of 4 and measure the relative
//! reconstruction error:
//!
//! ```
//! use lrd_tensor::{rng::Rng64, Tensor};
//! use lrd_tensor::tucker::{tucker2, Tucker2};
//!
//! # fn main() -> Result<(), lrd_tensor::TensorError> {
//! let mut rng = Rng64::new(7);
//! let w = Tensor::randn(&[32, 24], &mut rng);
//! let fac: Tucker2 = tucker2(&w, 4)?;
//! let err = fac.relative_error(&w);
//! assert!(err < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod attention;
pub mod cp;
pub mod dtype;
pub mod error;
pub mod exp;
pub mod kernel;
pub mod matmul;
pub mod pack;
pub mod qr;
pub mod rng;
pub mod shape;
pub mod svd;
pub mod tensor;
pub mod tucker;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
