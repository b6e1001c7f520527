//! Dense f32 tensor kernels and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the TGOpt reproduction. The
//! paper's implementation sits on top of PyTorch; since the Rust GNN
//! ecosystem is thin, we provide the pieces TGAT actually needs:
//!
//! * [`Tensor`] — a row-major 2-D matrix of `f32` (vectors are `1 x n`).
//! * Parallel kernels — blocked matrix multiplication, masked row softmax,
//!   elementwise maps, column concatenation and row gathering, all
//!   parallelized with rayon above a size threshold.
//! * [`fanout`] — the one real fan-out (scoped threads over row-independent
//!   output chunks); the rayon above is a sequential stub.
//! * [`autograd`] — a tape-based reverse-mode autodiff engine covering the
//!   operations used by TGAT (including fused batched attention primitives),
//!   plus an [`adam`] optimizer for training.
//!
//! The inference engines in `tgat` and `tgopt` call the raw kernels directly
//! (no tape) for speed; the training path in `tgat::train` records the same
//! computation on a [`autograd::Tape`].

pub mod adam;
pub mod autograd;
pub mod fanout;
pub mod init;
pub mod matmul;
pub mod ops;
pub mod scratch;
pub mod tensor;

pub use scratch::Scratch;
pub use tensor::Tensor;

/// Number of `f32` elements below which kernels stay sequential.
///
/// Parallelizing tiny operations costs more in rayon scheduling than the
/// arithmetic saves; this threshold was picked with `benches/matmul.rs`.
pub const PAR_THRESHOLD: usize = 16 * 1024;
