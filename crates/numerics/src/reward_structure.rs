//! Reward-class indexing for path characterization (Section 4.6.2).
//!
//! A trajectory of length `n` is characterized by two count vectors:
//!
//! * `k = ⟨k_1, …, k_{K+1}⟩` — `k_i` residences in states with the `i`-th
//!   largest distinct state reward (`Σ k_i = n + 1`);
//! * `j = ⟨j_1, …, j_J⟩` — `j_i` occurrences of transitions carrying the
//!   `i`-th largest distinct impulse reward (`Σ j_i = n`, the zero impulse
//!   included as the last class).
//!
//! [`RewardClasses`] precomputes, for a (typically absorbed) model, the
//! class index of every state, a lookup from impulse value to class, and
//! the `(k, j)` class pair of every transition, so path generation never
//! searches for a class.

use mrmc_mrm::UniformizedMrm;

/// Precomputed reward-class structure of a uniformized MRM.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardClasses {
    /// Distinct state rewards `r_1 > … > r_{K+1}`.
    state_rewards: Vec<f64>,
    /// Per-state index into `state_rewards`.
    class_of_state: Vec<usize>,
    /// Distinct impulse rewards `i_1 > … > i_J` (the final entry is always
    /// `0`).
    impulse_rewards: Vec<f64>,
    /// `(state class of the target, impulse class)` of every transition,
    /// in [`UniformizedMrm::transitions`] order, row after row.
    edge_classes: Vec<(u32, u32)>,
    /// Prefix offsets into `edge_classes`, one per state (plus a sentinel).
    edge_offsets: Vec<usize>,
}

impl RewardClasses {
    /// Analyse the reward structure of a uniformized MRM.
    pub fn new(uni: &UniformizedMrm) -> Self {
        let mut state_rewards: Vec<f64> = uni.state_rewards().to_vec();
        state_rewards.sort_by(|a, b| b.partial_cmp(a).expect("rewards are finite"));
        state_rewards.dedup();

        let class_of_state = uni
            .state_rewards()
            .iter()
            .map(|r| {
                state_rewards
                    .iter()
                    .position(|x| x == r)
                    .expect("every reward is listed")
            })
            .collect();

        let mut impulse_rewards: Vec<f64> = Vec::new();
        for s in 0..uni.num_states() {
            for (_, _, imp) in uni.transitions(s) {
                impulse_rewards.push(imp);
            }
        }
        impulse_rewards.push(0.0);
        impulse_rewards.sort_by(|a, b| b.partial_cmp(a).expect("impulses are finite"));
        impulse_rewards.dedup();

        let mut rc = RewardClasses {
            state_rewards,
            class_of_state,
            impulse_rewards,
            edge_classes: Vec::new(),
            edge_offsets: Vec::with_capacity(uni.num_states() + 1),
        };
        let class_index = |c: usize| u32::try_from(c).expect("class count fits in u32");
        rc.edge_offsets.push(0);
        for s in 0..uni.num_states() {
            for (target, _, imp) in uni.transitions(s) {
                let classes = (
                    class_index(rc.state_class(target)),
                    class_index(rc.impulse_class(imp)),
                );
                rc.edge_classes.push(classes);
            }
            rc.edge_offsets.push(rc.edge_classes.len());
        }
        rc
    }

    /// `K + 1`: number of distinct state rewards.
    pub fn num_state_classes(&self) -> usize {
        self.state_rewards.len()
    }

    /// `J`: number of distinct impulse rewards (including zero).
    pub fn num_impulse_classes(&self) -> usize {
        self.impulse_rewards.len()
    }

    /// Distinct state rewards, strictly decreasing.
    pub fn state_rewards(&self) -> &[f64] {
        &self.state_rewards
    }

    /// Distinct impulse rewards, strictly decreasing (last entry `0`).
    pub fn impulse_rewards(&self) -> &[f64] {
        &self.impulse_rewards
    }

    /// Class index of `state`'s reward.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn state_class(&self, state: usize) -> usize {
        self.class_of_state[state]
    }

    /// Class index of an impulse value.
    ///
    /// # Panics
    ///
    /// Panics if `impulse` is not one of the model's impulse values (the
    /// lookup is exact: impulses come from the model itself).
    pub fn impulse_class(&self, impulse: f64) -> usize {
        self.impulse_rewards
            .iter()
            .position(|&x| x == impulse)
            .expect("impulse value stems from the model")
    }

    /// `(state_class(target), impulse_class(impulse))` of every transition
    /// of `state`, aligned with [`UniformizedMrm::transitions`].
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub(crate) fn edge_classes(&self, state: usize) -> &[(u32, u32)] {
        &self.edge_classes[self.edge_offsets[state]..self.edge_offsets[state + 1]]
    }

    /// The smallest distinct state reward `r_{K+1}`.
    pub fn min_state_reward(&self) -> f64 {
        *self
            .state_rewards
            .last()
            .expect("non-empty by construction")
    }

    /// The Omega coefficients `c_l = r_l − r_{K+1}` (strictly decreasing,
    /// ending in `0`), per the order-statistics construction of
    /// Section 4.6.3.
    pub fn omega_coefficients(&self) -> Vec<f64> {
        let min = self.min_state_reward();
        self.state_rewards.iter().map(|r| r - min).collect()
    }

    /// `Σ_i i_i · j_i` for an impulse-count vector `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j.len()` differs from the number of impulse classes.
    pub fn impulse_total(&self, j: &[u32]) -> f64 {
        assert_eq!(j.len(), self.impulse_rewards.len(), "impulse vector length");
        self.impulse_rewards
            .iter()
            .zip(j)
            .map(|(&i, &count)| i * f64::from(count))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::{ImpulseRewards, Mrm, StateRewards};

    fn model() -> UniformizedMrm {
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0)
            .transition(1, 2, 2.0)
            .transition(2, 3, 3.0)
            .transition(3, 0, 1.0);
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![5.0, 1.0, 5.0, 0.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 2.0).unwrap();
        iota.set(1, 2, 0.5).unwrap();
        iota.set(2, 3, 2.0).unwrap();
        let mrm = Mrm::new(ctmc, rho, iota).unwrap();
        UniformizedMrm::new(&mrm, None).unwrap()
    }

    #[test]
    fn state_classes_are_descending_and_complete() {
        let rc = RewardClasses::new(&model());
        assert_eq!(rc.state_rewards(), &[5.0, 1.0, 0.0]);
        assert_eq!(rc.num_state_classes(), 3);
        assert_eq!(rc.state_class(0), 0);
        assert_eq!(rc.state_class(1), 1);
        assert_eq!(rc.state_class(2), 0);
        assert_eq!(rc.state_class(3), 2);
    }

    #[test]
    fn impulse_classes_include_zero() {
        let rc = RewardClasses::new(&model());
        assert_eq!(rc.impulse_rewards(), &[2.0, 0.5, 0.0]);
        assert_eq!(rc.impulse_class(2.0), 0);
        assert_eq!(rc.impulse_class(0.5), 1);
        assert_eq!(rc.impulse_class(0.0), 2);
    }

    #[test]
    fn edge_classes_align_with_transitions() {
        let uni = model();
        let rc = RewardClasses::new(&uni);
        for s in 0..uni.num_states() {
            let expected: Vec<(u32, u32)> = uni
                .transitions(s)
                .map(|(t, _, imp)| (rc.state_class(t) as u32, rc.impulse_class(imp) as u32))
                .collect();
            assert_eq!(rc.edge_classes(s), &expected[..], "state {s}");
        }
        // 0 → 1 carries impulse 2.0 into the reward-1 state: classes (1, 0).
        let jump = uni.transitions(0).position(|(t, _, _)| t == 1).unwrap();
        assert_eq!(rc.edge_classes(0)[jump], (1, 0));
    }

    #[test]
    fn omega_coefficients_shift_by_minimum() {
        let rc = RewardClasses::new(&model());
        assert_eq!(rc.omega_coefficients(), vec![5.0, 1.0, 0.0]);
        assert_eq!(rc.min_state_reward(), 0.0);
    }

    #[test]
    fn omega_coefficients_with_positive_minimum() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![7.0, 3.0]).unwrap();
        let mrm = Mrm::new(ctmc, rho, ImpulseRewards::new()).unwrap();
        let rc = RewardClasses::new(&UniformizedMrm::new(&mrm, None).unwrap());
        assert_eq!(rc.state_rewards(), &[7.0, 3.0]);
        assert_eq!(rc.omega_coefficients(), vec![4.0, 0.0]);
        assert_eq!(rc.min_state_reward(), 3.0);
    }

    #[test]
    fn impulse_total_weights_counts() {
        let rc = RewardClasses::new(&model());
        // j = ⟨4, 2, 0⟩ over impulses ⟨2.0, 0.5, 0.0⟩: total = 9.
        assert_eq!(rc.impulse_total(&[4, 2, 0]), 9.0);
        assert_eq!(rc.impulse_total(&[0, 0, 5]), 0.0);
    }

    #[test]
    fn constant_reward_model_has_single_class() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![2.0, 2.0]).unwrap();
        let mrm = Mrm::new(ctmc, rho, ImpulseRewards::new()).unwrap();
        let rc = RewardClasses::new(&UniformizedMrm::new(&mrm, None).unwrap());
        assert_eq!(rc.num_state_classes(), 1);
        assert_eq!(rc.omega_coefficients(), vec![0.0]);
        assert_eq!(rc.num_impulse_classes(), 1);
    }
}
