//! Adam optimizer over a flat list of parameter tensors.

use crate::Tensor;

/// Adam hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self { lr: 1e-3, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0 }
    }
}

/// Adam state: first/second moment estimates per parameter tensor.
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state for parameters with the given element counts.
    pub fn new(cfg: AdamConfig, param_sizes: &[usize]) -> Self {
        Self {
            cfg,
            m: param_sizes.iter().map(|&n| vec![0.0; n]).collect(),
            v: param_sizes.iter().map(|&n| vec![0.0; n]).collect(),
            t: 0,
        }
    }

    /// Applies one update step. `params[i]` and `grads[i]` must correspond to
    /// the i-th parameter registered at construction. A `None` gradient (the
    /// parameter did not influence this batch's loss) is skipped.
    pub fn step(&mut self, params: &mut [&mut Tensor], grads: &[Option<&Tensor>]) {
        assert_eq!(params.len(), self.m.len(), "parameter count changed");
        assert_eq!(params.len(), grads.len(), "gradient count mismatch");
        self.t += 1;
        #[expect(clippy::cast_possible_truncation, reason = "optimizer steps stay far below 2^31")]
        let b1t = 1.0 - self.cfg.beta1.powi(self.t as i32);
        #[expect(clippy::cast_possible_truncation, reason = "optimizer steps stay far below 2^31")]
        let b2t = 1.0 - self.cfg.beta2.powi(self.t as i32);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let Some(g) = g else { continue };
            assert_eq!(g.len(), m.len(), "gradient shape changed");
            for (((pv, &gv), mv), vv) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                let gv = gv + self.cfg.weight_decay * *pv;
                *mv = self.cfg.beta1 * *mv + (1.0 - self.cfg.beta1) * gv;
                *vv = self.cfg.beta2 * *vv + (1.0 - self.cfg.beta2) * gv * gv;
                let mhat = *mv / b1t;
                let vhat = *vv / b2t;
                *pv -= self.cfg.lr * mhat / (vhat.sqrt() + self.cfg.eps);
            }
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // minimize f(x) = (x - 3)^2 elementwise
        let mut x = Tensor::from_vec(1, 2, vec![0.0, 10.0]);
        let mut opt = Adam::new(AdamConfig { lr: 0.1, ..Default::default() }, &[2]);
        for _ in 0..500 {
            let grad = Tensor::from_vec(
                1,
                2,
                x.as_slice().iter().map(|v| 2.0 * (v - 3.0)).collect(),
            );
            opt.step(&mut [&mut x], &[Some(&grad)]);
        }
        assert!((x.get(0, 0) - 3.0).abs() < 1e-2);
        assert!((x.get(0, 1) - 3.0).abs() < 1e-2);
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn none_gradient_leaves_param_unchanged() {
        let mut x = Tensor::from_vec(1, 1, vec![5.0]);
        let mut opt = Adam::new(AdamConfig::default(), &[1]);
        opt.step(&mut [&mut x], &[None]);
        assert_eq!(x.get(0, 0), 5.0);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut x = Tensor::from_vec(1, 1, vec![1.0]);
        let cfg = AdamConfig { lr: 0.05, weight_decay: 1.0, ..Default::default() };
        let mut opt = Adam::new(cfg, &[1]);
        let zero_grad = Tensor::zeros(1, 1);
        for _ in 0..200 {
            opt.step(&mut [&mut x], &[Some(&zero_grad)]);
        }
        assert!(x.get(0, 0).abs() < 0.5, "weight decay should shrink the parameter");
    }
}
