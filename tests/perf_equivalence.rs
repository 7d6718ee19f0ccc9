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

/// Profile `i` of the deterministic cases below: utilizations,
/// bandwidths and durations spread by co-prime strides, with the given
/// memory footprint.
fn fixed_profile(i: u64, mem_gib: u64) -> WorkflowProfile {
    let sm = 10.0 + (i as f64 * 13.7) % 85.0;
    let bw = (i as f64 * 7.3) % 60.0;
    let duration = 2.0 + (i as f64 * 3.1) % 20.0;
    let power = 75.0 + 1.75 * sm + bw;
    WorkflowProfile {
        label: format!("fixed-{i}"),
        task_count: 1 + (i as usize % 4),
        avg_sm_util: Percent::new(sm),
        avg_bw_util: Percent::new(bw),
        max_memory: MemBytes::from_gib(mem_gib),
        duration: Seconds::new(duration),
        energy: Energy::from_joules(power * duration),
        avg_power: Power::from_watts(power),
        busy_fraction: 0.8,
        saturation_partition: mpshare::types::Fraction::new(0.9),
    }
}

/// Plans `profiles` with pruning on and off under every metric priority,
/// each planner shaped by `configure`, and requires the identical plan.
fn assert_pruned_matches_brute(
    profiles: &[WorkflowProfile],
    configure: impl Fn(Planner) -> Planner,
) {
    for priority in [
        MetricPriority::Throughput,
        MetricPriority::Energy,
        MetricPriority::balanced_product(),
    ] {
        let pruned = configure(Planner::new(device(), priority));
        let brute = pruned.clone().with_exhaustive_pruning(false);
        let fast = pruned.plan(profiles, PlannerStrategy::Exhaustive).unwrap();
        let slow = brute.plan(profiles, PlannerStrategy::Exhaustive).unwrap();
        assert_eq!(fast, slow, "priority {priority:?}");
    }
}

/// One deterministic full-width case at the n = 10 support boundary
/// (Bell(10) = 115 975 partitions), kept out of the randomized loop so the
/// suite's runtime stays bounded.
#[test]
fn pruned_exhaustive_matches_brute_force_n10() {
    let profiles: Vec<WorkflowProfile> = (0..10).map(|i| fixed_profile(i, 1 + i % 16)).collect();
    assert_pruned_matches_brute(&profiles, |p| p);
}

/// The n = 12 support boundary (Bell(12) ≈ 4.2M partitions), where the
/// subset table is full width.
#[test]
fn pruned_exhaustive_matches_brute_force_n12() {
    let profiles: Vec<WorkflowProfile> = (0..12).map(|i| fixed_profile(i, 1 + i % 16)).collect();
    assert_pruned_matches_brute(&profiles, |p| p);
}

/// A positive sharing overhead stretches every group by its co-runner
/// count, so subset estimates grow with cardinality as well as demand.
#[test]
fn pruned_exhaustive_matches_brute_force_with_sharing_overhead() {
    let profiles: Vec<WorkflowProfile> = (0..10).map(|i| fixed_profile(i, 1 + i % 16)).collect();
    assert_pruned_matches_brute(&profiles, |p| p.with_sharing_overhead(0.05));
}

/// 22–40 GiB footprints on an 80 GiB device: no group holds more than
/// three workflows, so most subsets are infeasible and the search lives on
/// the feasibility skips.
#[test]
fn pruned_exhaustive_matches_brute_force_tight_memory() {
    let profiles: Vec<WorkflowProfile> = (0..10)
        .map(|i| fixed_profile(i, 22 + (i * 7) % 19))
        .collect();
    let capacity = device().memory_capacity;
    let infeasible = (1u32..1 << 10)
        .filter(|mask| {
            let mem: MemBytes = (0..10)
                .filter(|i| mask & 1 << i != 0)
                .map(|i| profiles[i].max_memory)
                .sum();
            mem > capacity
        })
        .count();
    assert!(
        infeasible > 1 << 9,
        "only {infeasible} of 1023 subsets infeasible"
    );
    assert_pruned_matches_brute(&profiles, |p| p);
}
