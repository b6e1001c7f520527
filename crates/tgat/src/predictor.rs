//! Link-prediction decoder and evaluation metrics.

use crate::params::PredictorParams;
use tg_tensor::matmul::matmul;
use tg_tensor::{ops, Tensor};

/// Scores node pairs: returns `[N, 1]` logits for edges `(src_i, dst_i)`
/// given their `[N, dim]` temporal embeddings.
pub fn score(pred: &PredictorParams, src: &Tensor, dst: &Tensor) -> Tensor {
    assert_eq!(src.shape(), dst.shape(), "src/dst embedding shape mismatch");
    let x = ops::concat_cols(&[src, dst]);
    let hidden = ops::relu(&ops::add_bias(&matmul(&x, &pred.fc1_w), &pred.fc1_b));
    ops::add_bias(&matmul(&hidden, &pred.fc2_w), &pred.fc2_b)
}

/// Area under the ROC curve from positive/negative scores, computed via the
/// Mann–Whitney U statistic (ties count half).
#[expect(clippy::cast_precision_loss, reason = "a ratio of pair counts; f64 is exact below 2^53")]
pub fn auc(pos: &[f32], neg: &[f32]) -> f64 {
    if pos.is_empty() || neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0f64;
    for &p in pos {
        for &n in neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (pos.len() as f64 * neg.len() as f64)
}

/// Average-precision-style accuracy: fraction of correct classifications at
/// threshold 0 (logits).
#[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
pub fn accuracy_at_zero(pos: &[f32], neg: &[f32]) -> f64 {
    let total = pos.len() + neg.len();
    if total == 0 {
        return 0.0;
    }
    let correct =
        pos.iter().filter(|&&v| v > 0.0).count() + neg.iter().filter(|&&v| v <= 0.0).count();
    correct as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TgatConfig;
    use crate::params::TgatParams;
    use tg_tensor::init;

    #[test]
    fn score_shape() {
        let cfg = TgatConfig::tiny();
        let p = TgatParams::init(cfg, 1).unwrap();
        let mut rng = init::seeded_rng(2);
        let src = init::normal(&mut rng, 4, cfg.dim, 1.0);
        let dst = init::normal(&mut rng, 4, cfg.dim, 1.0);
        let s = score(&p.predictor, &src, &dst);
        assert_eq!(s.shape(), (4, 1));
        assert!(s.all_finite());
    }

    #[test]
    fn auc_perfect_separation() {
        assert_eq!(auc(&[2.0, 3.0], &[0.0, 1.0]), 1.0);
        assert_eq!(auc(&[0.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn auc_random_overlap_is_half() {
        assert_eq!(auc(&[1.0], &[1.0]), 0.5);
        assert_eq!(auc(&[], &[1.0]), 0.5);
        let sym = auc(&[0.0, 1.0], &[0.0, 1.0]);
        assert!((sym - 0.5).abs() < 1e-9);
    }

    #[test]
    fn accuracy_counts_threshold_zero() {
        assert_eq!(accuracy_at_zero(&[1.0, -1.0], &[-2.0, 0.5]), 0.5);
        assert_eq!(accuracy_at_zero(&[], &[]), 0.0);
    }
}
