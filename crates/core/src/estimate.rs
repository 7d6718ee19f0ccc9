//! Analytic group estimator.
//!
//! The planner needs to rank many candidate groupings without running the
//! simulator for each. This estimator predicts a collocation group's
//! makespan and energy from profiles alone:
//!
//! * **makespan** — the longest workflow, stretched by the predicted
//!   contention factor `max(1, ΣSM/100, ΣBW/100)` and the per-co-runner
//!   sharing overhead;
//! * **energy** — idle power over the makespan plus each workflow's
//!   dynamic energy, which is invariant under contention stretching
//!   (dynamic power scales with progress rate while time scales
//!   inversely).
//!
//! The estimator is deliberately first-order: the executor measures the
//! real thing. Its only job is to order candidates the same way the
//! simulator would, which the planner tests verify.

use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Energy, Power, Seconds};
use serde::{Deserialize, Serialize};

/// Predicted outcome of running one collocation group under MPS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupEstimate {
    pub makespan: Seconds,
    pub energy: Energy,
    pub tasks: usize,
}

/// Estimates a group's makespan and energy under MPS collocation.
///
/// `sharing_overhead` is the same per-co-runner coefficient the engine's
/// contention model uses. The estimate is the [`GroupFold`] of the members
/// in list order, finished once: float sums depend on member order, so two
/// orderings of one set may differ in the last bits.
pub fn estimate_group(
    device: &DeviceSpec,
    group: &[&WorkflowProfile],
    sharing_overhead: f64,
) -> GroupEstimate {
    group
        .iter()
        .fold(GroupFold::EMPTY, |fold, p| fold.push(p, device.idle_power))
        .finish(device.idle_power, sharing_overhead)
}

/// The left-to-right accumulator behind [`estimate_group`]: the sums a
/// group estimate needs, extended one member at a time.
///
/// Extending the fold of a list by one member is exactly the next step of
/// folding the longer list, so a subset table built by
/// `fold[mask] = fold[mask − highest member].push(highest member)` holds,
/// for every mask, the bits `estimate_group` returns for the mask's
/// ascending member list (the exhaustive planner relies on this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupFold {
    members: usize,
    sm_sum: f64,
    bw_sum: f64,
    /// Running `max(0, durations…)`, stretched once in
    /// [`GroupFold::finish`].
    max_duration: f64,
    dynamic: f64,
    tasks: usize,
}

impl GroupFold {
    /// The empty group. Sums start at -0.0, the neutral element
    /// `Iterator::sum` folds from, so a group of -0.0 utilizations sums
    /// to -0.0 exactly as the iterator sum does.
    pub const EMPTY: GroupFold = GroupFold {
        members: 0,
        sm_sum: -0.0,
        bw_sum: -0.0,
        max_duration: 0.0,
        dynamic: -0.0,
        tasks: 0,
    };

    /// The fold extended by one member (appended last).
    pub fn push(self, p: &WorkflowProfile, idle_power: Power) -> GroupFold {
        GroupFold {
            members: self.members + 1,
            sm_sum: self.sm_sum + p.avg_sm_util.value(),
            bw_sum: self.bw_sum + p.avg_bw_util.value(),
            max_duration: self.max_duration.max(p.duration.value()),
            dynamic: self.dynamic + p.dynamic_energy(idle_power).joules(),
            tasks: self.tasks + p.task_count,
        }
    }

    /// Members folded so far.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The group estimate of the folded members:
    ///
    /// * makespan — the longest duration times the stretch
    ///   `max(1, ΣSM/100, ΣBW/100) · (1 + sharing_overhead · (n − 1))`.
    ///   Multiplying by a positive stretch is monotone, so stretching the
    ///   longest duration equals taking the longest stretched duration —
    ///   bit for bit whenever the stretch is ≥ 1, which every
    ///   non-negative overhead gives. An undefined product (zero times an
    ///   infinite stretch) and a non-positive or NaN stretch give 0.
    /// * energy — idle power over the makespan plus the members' dynamic
    ///   energy, which contention stretching leaves unchanged (dynamic
    ///   power scales with progress rate while time scales inversely).
    pub fn finish(&self, idle_power: Power, sharing_overhead: f64) -> GroupEstimate {
        if self.members == 0 {
            return GroupEstimate {
                makespan: Seconds::ZERO,
                energy: Energy::ZERO,
                tasks: 0,
            };
        }
        let contention = (self.sm_sum / 100.0).max(self.bw_sum / 100.0).max(1.0);
        let overhead = 1.0 + sharing_overhead * (self.members as f64 - 1.0);
        let stretch = contention * overhead;
        let makespan = if stretch > 0.0 {
            let stretched = self.max_duration * stretch;
            if stretched.is_nan() {
                0.0
            } else {
                stretched
            }
        } else {
            0.0
        };
        let energy = idle_power.watts() * makespan + self.dynamic;
        GroupEstimate {
            makespan: Seconds::new(makespan),
            energy: Energy::from_joules(energy),
            tasks: self.tasks,
        }
    }
}

/// Estimates the sequential baseline for the same workflows: durations and
/// energies simply add.
pub fn estimate_sequential(group: &[&WorkflowProfile]) -> GroupEstimate {
    GroupEstimate {
        makespan: Seconds::new(group.iter().map(|p| p.duration.value()).sum()),
        energy: Energy::from_joules(group.iter().map(|p| p.energy.joules()).sum()),
        tasks: group.iter().map(|p| p.task_count).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{MemBytes, Percent, Power};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn profile(sm: f64, duration: f64, power: f64) -> WorkflowProfile {
        WorkflowProfile {
            label: "w".into(),
            task_count: 2,
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(2.0),
            max_memory: MemBytes::from_gib(1),
            duration: Seconds::new(duration),
            energy: Energy::from_joules(power * duration),
            avg_power: Power::from_watts(power),
            busy_fraction: 0.8,
            saturation_partition: mpshare_types::Fraction::new(0.9),
        }
    }

    #[test]
    fn empty_group_estimates_zero() {
        let e = estimate_group(&dev(), &[], 0.0);
        assert_eq!(e.makespan, Seconds::ZERO);
        assert_eq!(e.tasks, 0);
    }

    #[test]
    fn non_interfering_group_runs_at_longest_workflow() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(40.0, 6.0, 160.0));
        let e = estimate_group(&dev(), &[&a, &b], 0.0);
        assert!((e.makespan.value() - 10.0).abs() < 1e-9);
        assert_eq!(e.tasks, 4);
    }

    #[test]
    fn oversubscribed_group_stretches() {
        let (a, b) = (profile(80.0, 10.0, 200.0), profile(80.0, 10.0, 200.0));
        let e = estimate_group(&dev(), &[&a, &b], 0.0);
        assert!((e.makespan.value() - 16.0).abs() < 1e-9); // ×1.6
    }

    #[test]
    fn sharing_overhead_adds_per_corunner_cost() {
        let profiles: Vec<WorkflowProfile> = (0..4).map(|_| profile(10.0, 10.0, 100.0)).collect();
        let refs: Vec<&WorkflowProfile> = profiles.iter().collect();
        let e = estimate_group(&dev(), &refs, 0.01);
        assert!((e.makespan.value() - 10.0 * 1.03).abs() < 1e-9);
    }

    #[test]
    fn collocation_saves_idle_energy_vs_sequential() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(30.0, 10.0, 150.0));
        let shared = estimate_group(&dev(), &[&a, &b], 0.0);
        let seq = estimate_sequential(&[&a, &b]);
        assert!(shared.energy < seq.energy);
        // Savings equal one makespan's worth of idle power.
        let expected_saving = 75.0 * 10.0;
        assert!(((seq.energy.joules() - shared.energy.joules()) - expected_saving).abs() < 1e-6);
    }

    /// The estimate as a closed form over the member list: iterator sums
    /// and the longest stretched duration.
    fn closed_form(group: &[&WorkflowProfile], sharing_overhead: f64) -> (f64, f64) {
        let idle = dev().idle_power;
        let n = group.len() as f64;
        let sm_sum: f64 = group.iter().map(|p| p.avg_sm_util.value()).sum();
        let bw_sum: f64 = group.iter().map(|p| p.avg_bw_util.value()).sum();
        let stretch =
            (sm_sum / 100.0).max(bw_sum / 100.0).max(1.0) * (1.0 + sharing_overhead * (n - 1.0));
        let makespan = group
            .iter()
            .map(|p| p.duration.value() * stretch)
            .fold(0.0, f64::max);
        let dynamic: f64 = group.iter().map(|p| p.dynamic_energy(idle).joules()).sum();
        (makespan, idle.watts() * makespan + dynamic)
    }

    #[test]
    fn fold_matches_the_closed_form_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        // Signed zeros and zero durations are the cases where a fold can
        // differ from the closed form in its last bit.
        let pick = |rng: &mut StdRng, hi: f64| match rng.random_range(0..4usize) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.random_range(0.0..hi),
        };
        for case in 0..400 {
            let len = 1 + case % 9;
            let profiles: Vec<WorkflowProfile> = (0..len)
                .map(|_| {
                    let mut p = profile(pick(&mut rng, 100.0), pick(&mut rng, 50.0), 150.0);
                    p.avg_bw_util = Percent::new(pick(&mut rng, 100.0));
                    p.energy = Energy::from_joules(pick(&mut rng, 9000.0));
                    p
                })
                .collect();
            let refs: Vec<&WorkflowProfile> = profiles.iter().collect();
            for overhead in [0.0, 0.002, 0.05] {
                let e = estimate_group(&dev(), &refs, overhead);
                let (makespan, energy) = closed_form(&refs, overhead);
                assert_eq!(
                    e.makespan.value().to_bits(),
                    makespan.to_bits(),
                    "case {case}"
                );
                assert_eq!(e.energy.joules().to_bits(), energy.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn sequential_estimate_adds_everything() {
        let (a, b) = (profile(30.0, 10.0, 150.0), profile(40.0, 5.0, 160.0));
        let e = estimate_sequential(&[&a, &b]);
        assert_eq!(e.makespan.value(), 15.0);
        assert_eq!(e.energy.joules(), 150.0 * 10.0 + 160.0 * 5.0);
    }
}
