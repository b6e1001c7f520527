//! Temporal Graph Attention Network (TGAT, Xu et al. ICLR'20) — the model
//! the paper's optimizations target, built from scratch on `tg-tensor`.
//!
//! Components:
//!
//! * [`config::TgatConfig`] — layer/head/neighbor/dimension settings (paper
//!   defaults: 2 layers, 2 heads, 20 most-recent neighbors, 100-dim).
//! * [`time_encode::TimeEncoder`] — the learnable functional time encoding
//!   `Phi(dt) = cos(dt * omega + phi)` of Eq. (8).
//! * [`params::TgatParams`] — all learnable weights, with JSON checkpoints.
//! * [`attention`] — the multi-head temporal attention operator `M`
//!   implementing Eqs. (4)–(7).
//! * [`engine::GraphContext`] — the graph and feature tables an engine
//!   reads. The batched inference recursion is `tgopt::TgoptEngine`; with
//!   every optimization off it is the paper's baseline, timed per operation
//!   by [`stats`] so Table 3 can be reproduced.
//! * [`predictor`] / [`train`] — link-prediction decoder and training loop
//!   (negative sampling + BCE + Adam) used to obtain trained weights. Its
//!   tape forward ([`train::forward_embeddings`]) is a recursion built from
//!   autograd ops alone — no scratch pool, no attention blocks, no fan-out —
//!   and is the independent oracle every inference configuration is tested
//!   against.

pub mod attention;
pub mod config;
pub mod engine;
pub mod params;
pub mod predictor;
pub mod time_encode;
pub mod train;

pub use config::TgatConfig;
pub use params::TgatParams;
pub use time_encode::TimeEncoder;
