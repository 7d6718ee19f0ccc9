//! Online per-layer split: replays a recorded online run through the
//! planner and executor, timing each call from outside.
//!
//! `OnlineScheduler::run_with_recovery` is one opaque call. To see how its
//! time splits between planning and simulation, the replay rebuilds every
//! pending set from the arrivals, the replayed member failures and the
//! public `RecoveryPolicy`, plans it with `Planner::plan_warm`, and runs the
//! chosen group with `Executor::run_group_raw_with_faults` under the same
//! seeded per-(workflow, attempt) fault draws. Each replayed dispatch must
//! equal the recorded one bit for bit, so the replay also catches any drift
//! between the scheduler and its documented behaviour.

use crate::trace::Tracer;
use crate::workload::Bench;
use mpshare_core::{
    workflow_profile, ArrivingWorkflow, OnlineFaultModel, OnlineOutcome, PlanGroup, PlanWarmState,
    PlannerStrategy, WorkflowProfile,
};
use mpshare_gpusim::{unit_hash, FaultPlan};
use mpshare_types::{Energy, Fraction, IdAllocator, Seconds};
use mpshare_workloads::WorkflowSpec;

/// Counts gathered while replaying one stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    pub plan_calls: u64,
    pub warm_hits: u64,
    pub planned_groups: u64,
    pub dispatches: u64,
    /// Dispatches whose members all completed.
    pub useful_dispatches: u64,
    pub retries: u64,
    pub faults: u64,
    pub abandoned: u64,
    /// Simulated seconds and tasks completed over every replayed dispatch.
    pub sim_s: f64,
    pub sim_tasks: u64,
}

/// Replays `recorded` and returns its counts, or the first divergence.
pub fn replay(
    bench: &Bench,
    arrivals: &[ArrivingWorkflow],
    faults: &OnlineFaultModel,
    recorded: &OnlineOutcome,
    req: u64,
    t: &mut Tracer,
) -> Result<ReplayStats, String> {
    let policy = &bench.policy;
    let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
    let profiles: Vec<WorkflowProfile> = t.span("profiler.lookup", req, |_| {
        let store = bench.store_for(&specs)?;
        specs
            .iter()
            .map(|w| workflow_profile(&store, w).map_err(|e| format!("workflow_profile: {e}")))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let solo_walls = t
        .span("executor.solo_wall_times", req, |_| {
            bench.executor.solo_wall_times(&specs)
        })
        .map_err(|e| format!("Executor::solo_wall_times: {e}"))?;

    let n = arrivals.len();
    let mut done = vec![false; n];
    let mut abandoned = vec![false; n];
    let mut attempts = vec![0usize; n];
    let mut own_faults = vec![0usize; n];
    let mut ready_at: Vec<Seconds> = arrivals.iter().map(|a| a.arrival).collect();
    let mut ids = IdAllocator::new();
    let mut warm = PlanWarmState::new();
    let mut now = Seconds::ZERO;
    let mut energy = Energy::ZERO;
    let mut stats = ReplayStats::default();

    loop {
        let pending: Vec<usize> = (0..n)
            .filter(|&i| !done[i] && !abandoned[i] && ready_at[i] <= now)
            .collect();
        if pending.is_empty() {
            let next = (0..n)
                .filter(|&i| !done[i] && !abandoned[i])
                .map(|i| ready_at[i])
                .fold(Seconds::INFINITY, Seconds::min);
            if !next.is_finite() {
                break;
            }
            energy += bench.device.idle_power * next.saturating_sub(now);
            now = next;
            continue;
        }

        // Repeat offenders run alone; everyone else is planned.
        let offender = pending
            .iter()
            .copied()
            .find(|&i| own_faults[i] >= policy.exclusive_after);
        let group = match offender {
            Some(w) => PlanGroup {
                workflow_indices: vec![w],
                partitions: vec![Fraction::ONE],
            },
            None => {
                let pending_profiles: Vec<WorkflowProfile> =
                    pending.iter().map(|&i| profiles[i].clone()).collect();
                let pending_ids: Vec<u64> = pending.iter().map(|&i| i as u64).collect();
                let plan = t
                    .span("planner.plan_warm", req, |_| {
                        bench.planner.plan_warm(
                            &pending_profiles,
                            &pending_ids,
                            PlannerStrategy::Auto,
                            &mut warm,
                        )
                    })
                    .map_err(|e| format!("Planner::plan_warm: {e}"))?;
                plan.validate(&bench.device, &pending_profiles)
                    .map_err(|e| format!("SchedulePlan::validate: {e}"))?;
                stats.plan_calls += 1;
                stats.planned_groups += plan.groups.len() as u64;
                let first = plan
                    .groups
                    .first()
                    .ok_or("planner returned an empty plan")?;
                PlanGroup {
                    workflow_indices: first.workflow_indices.iter().map(|&l| pending[l]).collect(),
                    partitions: first.partitions.clone(),
                }
            }
        };
        let members = group.workflow_indices.clone();

        let mut dispatch_faults = FaultPlan::default();
        for (local, &w) in members.iter().enumerate() {
            let attempt = attempts[w] as u64;
            if unit_hash(faults.seed, &[w as u64, attempt, 0]) < faults.rate {
                let frac = unit_hash(faults.seed, &[w as u64, attempt, 1]);
                dispatch_faults
                    .push_client_fault(Seconds::new(frac * solo_walls[w].value()), local);
            }
        }
        let result = t
            .span("executor.run_group", req, |_| {
                bench
                    .executor
                    .run_group_raw_with_faults(&specs, &group, &mut ids, &dispatch_faults)
            })
            .map_err(|e| format!("Executor::run_group_raw_with_faults: {e}"))?;

        let k = stats.dispatches as usize;
        let expected = recorded
            .decisions
            .get(k)
            .ok_or_else(|| format!("replay dispatched more than the {} recorded groups", k))?;
        if expected.workflows != members
            || expected.at.value().to_bits() != now.value().to_bits()
            || expected.duration.value().to_bits() != result.makespan.value().to_bits()
        {
            return Err(format!(
                "dispatch {k} diverged: recorded {:?} at {} for {}, replayed {members:?} at {} for {}",
                expected.workflows,
                expected.at.value(),
                expected.duration.value(),
                now.value(),
                result.makespan.value()
            ));
        }
        stats.dispatches += 1;
        stats.sim_s += result.makespan.value();
        stats.sim_tasks += result.tasks_completed as u64;

        for record in &result.failures {
            own_faults[members[record.origin]] += 1;
            stats.faults += 1;
        }
        let end = now + result.makespan;
        let mut all_completed = true;
        for (local, &w) in members.iter().enumerate() {
            attempts[w] += 1;
            if result.clients[local].failed {
                all_completed = false;
                if attempts[w] >= policy.max_attempts {
                    abandoned[w] = true;
                    stats.abandoned += 1;
                } else {
                    stats.retries += 1;
                    let backoff = policy.backoff_base.value() * 2f64.powi(attempts[w] as i32 - 1);
                    ready_at[w] = end + Seconds::new(backoff);
                }
            } else {
                done[w] = true;
            }
        }
        stats.useful_dispatches += u64::from(all_completed);
        energy += result.total_energy;
        now = end;
    }
    stats.warm_hits = warm.warm_hits();

    let totals_match = stats.dispatches as usize == recorded.decisions.len()
        && now.value().to_bits() == recorded.makespan.value().to_bits()
        && energy.joules().to_bits() == recorded.energy.joules().to_bits()
        && stats.retries as usize == recorded.retries
        && stats.faults as usize == recorded.faults
        && (0..n)
            .filter(|&i| abandoned[i])
            .eq(recorded.failed_workflows.iter().copied());
    if !totals_match {
        return Err(format!(
            "replay totals diverged: {} dispatches, makespan {}, energy {}, {} retries, {} faults \
             vs recorded {}, {}, {}, {}, {}",
            stats.dispatches,
            now.value(),
            energy.joules(),
            stats.retries,
            stats.faults,
            recorded.decisions.len(),
            recorded.makespan.value(),
            recorded.energy.joules(),
            recorded.retries,
            recorded.faults
        ));
    }
    Ok(stats)
}
