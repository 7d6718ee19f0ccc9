//! Bitwise-equivalence properties for the planner fast path.
//!
//! Branch-and-bound exhaustive plan search is pure optimization: it must
//! return the *same plan* as the unpruned enumeration it replaces. These
//! properties drive randomized profile pools through both paths and
//! compare the full outputs.

use mpshare::core::{MetricPriority, Planner, PlannerStrategy, WorkflowProfile};
use mpshare::gpusim::DeviceSpec;
use mpshare::types::{Energy, MemBytes, Percent, Power, Seconds};
use proptest::prelude::*;

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

/// Random profile pool for the plan-search property: utilizations and
/// footprints wide enough that both saturated (SM/BW > 100%) and
/// memory-infeasible groupings occur.
fn profile_strategy() -> impl Strategy<Value = WorkflowProfile> {
    (
        1.0f64..=95.0, // avg sm %
        0.0f64..=70.0, // avg bw %
        1u64..=20,     // max memory GiB
        1.0f64..=30.0, // duration s
        1usize..=6,    // task count
    )
        .prop_map(|(sm, bw, mem_gib, duration, tasks)| {
            let power = 75.0 + 1.75 * sm + bw;
            WorkflowProfile {
                label: format!("prop-{sm:.0}-{bw:.0}"),
                task_count: tasks,
                avg_sm_util: Percent::new(sm),
                avg_bw_util: Percent::new(bw),
                max_memory: MemBytes::from_gib(mem_gib),
                duration: Seconds::new(duration),
                energy: Energy::from_joules(power * duration),
                avg_power: Power::from_watts(power),
                busy_fraction: 0.8,
                saturation_partition: mpshare::types::Fraction::new(0.9),
            }
        })
}

fn priority_strategy() -> impl Strategy<Value = MetricPriority> {
    (0usize..3).prop_map(|i| match i {
        0 => MetricPriority::Throughput,
        1 => MetricPriority::Energy,
        _ => MetricPriority::balanced_product(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Branch-and-bound exhaustive planning must return the *same plan* as
    /// the unpruned enumeration — not just an equally-scored one — on
    /// random workloads up to n = 10, across every metric priority.
    #[test]
    fn pruned_exhaustive_matches_brute_force(
        profiles in prop::collection::vec(profile_strategy(), 2..8),
        priority in priority_strategy(),
    ) {
        let pruned = Planner::new(device(), priority);
        let brute = pruned.clone().with_exhaustive_pruning(false);
        let fast = pruned.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        let slow = brute.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        prop_assert_eq!(fast, slow);
    }
}

/// One deterministic full-width case at the n = 10 support boundary
/// (Bell(10) = 115 975 partitions), kept out of the randomized loop so the
/// suite's runtime stays bounded.
#[test]
fn pruned_exhaustive_matches_brute_force_n10() {
    let mk = |i: u64| {
        let sm = 10.0 + (i as f64 * 13.7) % 85.0;
        let bw = (i as f64 * 7.3) % 60.0;
        let duration = 2.0 + (i as f64 * 3.1) % 20.0;
        let power = 75.0 + 1.75 * sm + bw;
        WorkflowProfile {
            label: format!("n10-{i}"),
            task_count: 1 + (i as usize % 4),
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(bw),
            max_memory: MemBytes::from_gib(1 + i % 16),
            duration: Seconds::new(duration),
            energy: Energy::from_joules(power * duration),
            avg_power: Power::from_watts(power),
            busy_fraction: 0.8,
            saturation_partition: mpshare::types::Fraction::new(0.9),
        }
    };
    let profiles: Vec<WorkflowProfile> = (0..10).map(mk).collect();
    for priority in [
        MetricPriority::Throughput,
        MetricPriority::Energy,
        MetricPriority::balanced_product(),
    ] {
        let pruned = Planner::new(device(), priority);
        let brute = pruned.clone().with_exhaustive_pruning(false);
        let fast = pruned.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        let slow = brute.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        assert_eq!(fast, slow, "priority {priority:?}");
    }
}
