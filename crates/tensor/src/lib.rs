//! Dense f32 tensor kernels and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the TGOpt reproduction. The
//! paper's implementation sits on top of PyTorch; since the Rust GNN
//! ecosystem is thin, we provide the pieces TGAT actually needs:
//!
//! * [`Tensor`] — a row-major 2-D matrix of `f32` (vectors are `1 x n`).
//! * Kernels — register-tiled matrix multiplication, masked row softmax,
//!   elementwise maps, column concatenation and row gathering, each one
//!   sequential loop over its output.
//! * [`fanout`] — the one fan-out (scoped threads over row-independent
//!   output chunks), used by the attention layer and the time encoder.
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
