//! The collocation planner (paper §IV-B).
//!
//! Given a queue of workflows with profiles, produces a [`SchedulePlan`]:
//! an ordered list of collocation groups, each executed on the GPU under
//! MPS with right-sized partitions, one group after another.
//!
//! Planning strategies:
//!
//! * [`PlannerStrategy::Greedy`] — the paper's algorithm: workflows with
//!   the lowest compute utilization are prioritized; a group accepts the
//!   next lowest-utilization workflow while combined SM ≤ 100 %, combined
//!   BW ≤ 100 %, combined memory ≤ capacity, and the group is under the
//!   metric-priority cardinality cap (2 for throughput, 48 for energy; the
//!   product priority sweeps caps and keeps the best estimated score).
//! * [`PlannerStrategy::Exhaustive`] — finds the best-scoring set
//!   partition of the queue (n ≤ 12) under the analytic estimator, by
//!   branch-and-bound over one table of every member subset's estimate.
//!   Ground truth for small queues; the planner tests check greedy stays
//!   close to it.

use crate::estimate::{estimate_group, estimate_sequential, GroupEstimate, GroupFold};
use crate::interference::predict;
use crate::memo::{EstimateMemo, GroupKey};
use crate::policy::MetricPriority;
use crate::rightsize::PartitionStrategy;
use crate::wprofile::WorkflowProfile;
use mpshare_gpusim::DeviceSpec;
use mpshare_types::{Error, Fraction, Result};
use serde::{Deserialize, Serialize};

/// One collocation group: workflow queue indices plus their partitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanGroup {
    /// Indices into the planner's workflow queue.
    pub workflow_indices: Vec<usize>,
    /// MPS partitions, parallel to `workflow_indices`.
    pub partitions: Vec<Fraction>,
}

/// A complete schedule: groups run one after another on the GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulePlan {
    pub groups: Vec<PlanGroup>,
}

impl SchedulePlan {
    /// Total workflows covered.
    pub fn workflow_count(&self) -> usize {
        self.groups.iter().map(|g| g.workflow_indices.len()).sum()
    }

    /// Largest group size (the plan's cardinality).
    pub fn max_cardinality(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.workflow_indices.len())
            .max()
            .unwrap_or(0)
    }

    /// Checks structural validity against a queue of `n` workflows:
    /// every index covered exactly once, group sizes within the client
    /// limit, and no group violating the hard memory constraint.
    pub fn validate(&self, device: &DeviceSpec, profiles: &[WorkflowProfile]) -> Result<()> {
        let n = profiles.len();
        let mut seen = vec![false; n];
        for g in &self.groups {
            if g.workflow_indices.is_empty() {
                return Err(Error::PlanViolation("empty group".into()));
            }
            if g.workflow_indices.len() != g.partitions.len() {
                return Err(Error::PlanViolation(
                    "partition vector length mismatch".into(),
                ));
            }
            if g.workflow_indices.len() > device.max_mps_clients {
                return Err(Error::PlanViolation(format!(
                    "group of {} exceeds the {}-client limit",
                    g.workflow_indices.len(),
                    device.max_mps_clients
                )));
            }
            let mut mem = mpshare_types::MemBytes::ZERO;
            for &i in &g.workflow_indices {
                if i >= n {
                    return Err(Error::PlanViolation(format!("index {i} out of range")));
                }
                if seen[i] {
                    return Err(Error::PlanViolation(format!(
                        "workflow {i} scheduled twice"
                    )));
                }
                seen[i] = true;
                mem += profiles[i].max_memory;
            }
            if mem > device.memory_capacity {
                return Err(Error::PlanViolation(format!(
                    "group memory {mem} exceeds capacity {}",
                    device.memory_capacity
                )));
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(Error::PlanViolation(format!(
                "workflow {missing} not scheduled"
            )));
        }
        Ok(())
    }
}

/// Which search strategy the planner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerStrategy {
    /// The paper's greedy lowest-utilization-first packing under the hard
    /// 100 %-sum interference rule (§IV-B).
    Greedy,
    /// Estimator-guided best-fit packing: groups are grown by the
    /// candidate with the largest predicted makespan saving, subject only
    /// to the *hard* constraints (memory capacity, client limit). This
    /// implements the paper's future-work direction — an interference
    /// *model* recommending combinations — and can profitably accept mild
    /// oversubscription the 100 %-sum rule forbids.
    BestFit,
    /// Runs both [`PlannerStrategy::Greedy`] and
    /// [`PlannerStrategy::BestFit`] and keeps the better-scoring plan.
    Auto,
    /// Full set-partition enumeration scored by the estimator (n ≤ 12).
    Exhaustive,
}

/// Carried planner state between successive [`Planner::plan_warm`] calls
/// over an evolving workflow queue: the previous queue's stable ids, the
/// estimate memo keyed against its positions, and the previous plan's
/// groups. One value per online-scheduling run; [`PlanWarmState::reset`]
/// (or any non-incremental queue change) drops everything and the next
/// call plans cold.
#[derive(Debug, Default)]
pub struct PlanWarmState {
    /// Stable workflow ids of the previous call's queue, in queue order.
    prev_ids: Vec<u64>,
    /// Estimate memo keyed by the previous queue's positions; translated
    /// to the new positions on each warm hit that plans with a memo.
    memo: EstimateMemo,
    /// The previous plan's groups as member masks over the previous
    /// queue's positions; empty when there is none or a member sat at
    /// position 64 or later.
    prev_masks: Vec<u64>,
    /// Warm-start hits taken so far (mirrors the obs counter, for tests).
    warm_hits: u64,
}

impl PlanWarmState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all carried state: the next [`Planner::plan_warm`] call
    /// plans cold.
    pub fn reset(&mut self) {
        self.prev_ids.clear();
        self.memo = EstimateMemo::new();
        self.prev_masks.clear();
    }

    /// Number of calls that warm-started (diffed as ≤ 1 leave + ≤ 1 join).
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }
}

/// Diffs two id queues as `new = old − (≤ 1 departure) + (≤ 1 arrival)`
/// with the survivors' relative order preserved. Returns
/// `Some((leave, join))` — the departed id's position in `old` and the
/// arrival's position in `new` — or `None` when the queues differ by more
/// than that (bulk change or reordering → plan cold).
fn warm_diff(old: &[u64], new: &[u64]) -> Option<(Option<usize>, Option<usize>)> {
    /// Position whose removal from `longer` yields the sequence `shorter`
    /// of length `longer.len() − 1`, preferring the earliest. `shorter` is
    /// read through an accessor so a one-removed view needs no copy: warm
    /// planning must not allocate more than the cold call it replaces.
    fn one_removed(longer: &[u64], shorter: impl Fn(usize) -> u64) -> Option<usize> {
        let len = longer.len() - 1;
        let p = (0..len)
            .position(|i| longer[i] != shorter(i))
            .unwrap_or(len);
        (p + 1..longer.len())
            .all(|i| longer[i] == shorter(i - 1))
            .then_some(p)
    }
    /// `s` with position `p` removed, as an accessor.
    fn without(s: &[u64], p: usize) -> impl Fn(usize) -> u64 + '_ {
        move |i| s[if i < p { i } else { i + 1 }]
    }
    match (old.len() as i64) - (new.len() as i64) {
        0 => match old.iter().zip(new.iter()).position(|(a, b)| a != b) {
            None => Some((None, None)),
            // One out, one in, same length: the first mismatch is either
            // the departure's old position or the arrival's new position —
            // try it as the departure first (the leave-then-join reading),
            // then as the arrival.
            Some(p) => one_removed(new, without(old, p))
                .map(|j| (Some(p), Some(j)))
                .or_else(|| one_removed(old, without(new, p)).map(|k| (Some(k), Some(p)))),
        },
        1 => one_removed(old, |i| new[i]).map(|k| (Some(k), None)),
        -1 => one_removed(new, |i| old[i]).map(|j| (None, Some(j))),
        _ => None,
    }
}

/// The collocation planner.
#[derive(Debug, Clone)]
pub struct Planner {
    device: DeviceSpec,
    priority: MetricPriority,
    partition_strategy: PartitionStrategy,
    sharing_overhead: f64,
    exhaustive_pruning: bool,
    force_cold_start: bool,
}

impl Planner {
    pub fn new(device: DeviceSpec, priority: MetricPriority) -> Self {
        Planner {
            device,
            priority,
            partition_strategy: PartitionStrategy::default_saturation_aware(),
            sharing_overhead: 0.0,
            exhaustive_pruning: true,
            force_cold_start: false,
        }
    }

    pub fn with_partition_strategy(mut self, s: PartitionStrategy) -> Self {
        self.partition_strategy = s;
        self
    }

    pub fn with_sharing_overhead(mut self, o: f64) -> Self {
        self.sharing_overhead = o;
        self
    }

    /// Enables/disables branch-and-bound pruning in
    /// [`PlannerStrategy::Exhaustive`]. Pruning is on by default and
    /// returns the identical plan (the bounds are admissible and the
    /// incumbent-selection order is preserved); disabling it falls back to
    /// the plain brute-force enumeration — the reference the equivalence
    /// property test compares against.
    pub fn with_exhaustive_pruning(mut self, enabled: bool) -> Self {
        self.exhaustive_pruning = enabled;
        self
    }

    /// Forces [`Planner::plan_warm`] to ignore (and reset) any carried
    /// warm-start state, planning every call cold. The escape hatch for
    /// proving warm == cold: the fuzz oracle and the equivalence property
    /// tests run both ways and require bit-identical plans.
    pub fn with_forced_cold_start(mut self, enabled: bool) -> Self {
        self.force_cold_start = enabled;
        self
    }

    pub fn priority(&self) -> MetricPriority {
        self.priority
    }

    pub fn partition_strategy(&self) -> PartitionStrategy {
        self.partition_strategy
    }

    /// Convenience: plan with `Auto`, then refine by simulated annealing
    /// (see [`mod@crate::anneal`]). Never scores worse than the `Auto` plan.
    pub fn plan_annealed(
        &self,
        profiles: &[WorkflowProfile],
        config: crate::anneal::AnnealConfig,
    ) -> Result<SchedulePlan> {
        let seed = self.plan(profiles, PlannerStrategy::Auto)?;
        let refined = crate::anneal::anneal(self, &self.device, profiles, &seed, config);
        refined.validate(&self.device, profiles)?;
        Ok(refined)
    }

    /// Plans with the configured strategy.
    pub fn plan(
        &self,
        profiles: &[WorkflowProfile],
        strategy: PlannerStrategy,
    ) -> Result<SchedulePlan> {
        if profiles.is_empty() {
            return Err(Error::InvalidConfig("empty workflow queue".into()));
        }
        Self::validate_profiles(profiles)?;
        mpshare_obs::counter_add(mpshare_obs::names::PLAN_CALLS, 1);
        let plan = self.plan_with_memo(profiles, strategy, &EstimateMemo::new(), None)?;
        plan.validate(&self.device, profiles)?;
        self.emit_plan_obs(strategy, &plan, profiles);
        Ok(plan)
    }

    /// Plans like [`Planner::plan`], warm-starting from the previous
    /// call's carried state when the queue changed by at most one
    /// departure and one arrival.
    ///
    /// `ids` gives a stable identity per queue position (parallel to
    /// `profiles`): a workflow keeps its id as the queue evolves, letting
    /// the planner diff consecutive queues. When the diff is a single
    /// join/leave with relative order preserved, the previous plan's
    /// groups are translated to the new positions and, for the memo-backed
    /// strategies, so is the estimate memo — so the search re-derives
    /// nothing it already knows. [`PlannerStrategy::Exhaustive`] reads no
    /// memo (it scores from its own subset table, which it rebuilds each
    /// call), so there the memo is dropped and the previous plan re-enters
    /// only as the branch-and-bound's incumbent floor. Anything else
    /// (first call, bulk change, reordering, or
    /// [`Planner::with_forced_cold_start`]) resets the state and plans
    /// cold.
    ///
    /// The returned plan is bit-identical to [`Planner::plan`] on the same
    /// queue: a translated memo hit returns exactly the value the
    /// identical estimate call computes (estimates depend only on the
    /// member profiles in order, which the id diff preserves), and the
    /// incumbent floor is the largest float strictly below the score of an
    /// enumerable leaf, so the branch-and-bound still returns the first
    /// leaf attaining the maximal score (see DESIGN.md §11; pinned by the
    /// `warm_equivalence` property tests and the fuzz oracle).
    pub fn plan_warm(
        &self,
        profiles: &[WorkflowProfile],
        ids: &[u64],
        strategy: PlannerStrategy,
        state: &mut PlanWarmState,
    ) -> Result<SchedulePlan> {
        if profiles.len() != ids.len() {
            return Err(Error::InvalidConfig(format!(
                "{} ids for {} profiles",
                ids.len(),
                profiles.len()
            )));
        }
        if profiles.is_empty() {
            return Err(Error::InvalidConfig("empty workflow queue".into()));
        }
        Self::validate_profiles(profiles)?;
        mpshare_obs::counter_add(mpshare_obs::names::PLAN_CALLS, 1);

        let diff = if self.force_cold_start || state.prev_ids.is_empty() {
            None
        } else {
            warm_diff(&state.prev_ids, ids)
        };
        let prev_masks = match diff {
            Some((leave, join)) => {
                let remap = move |p: usize| -> Option<usize> {
                    let shrunk = match leave {
                        Some(k) if p == k => return None,
                        Some(k) if p > k => p - 1,
                        _ => p,
                    };
                    Some(match join {
                        Some(j) if shrunk >= j => shrunk + 1,
                        _ => shrunk,
                    })
                };
                if strategy == PlannerStrategy::Exhaustive {
                    // Nothing on this path reads the memo: dropping it is
                    // cheaper than translating it, and keeps a later
                    // memo-backed call from seeing stale positions.
                    state.memo = EstimateMemo::new();
                } else if leave.is_some() || join.is_some() {
                    state.memo = state.memo.translated(remap);
                }
                state.warm_hits += 1;
                mpshare_obs::counter_add(mpshare_obs::names::PLAN_WARM_START_HITS, 1);
                translate_masks(&mut state.prev_masks, remap, join);
                (!state.prev_masks.is_empty()).then_some(state.prev_masks.as_slice())
            }
            None => {
                state.reset();
                None
            }
        };

        let plan = self.plan_with_memo(profiles, strategy, &state.memo, prev_masks)?;
        plan.validate(&self.device, profiles)?;
        self.emit_plan_obs(strategy, &plan, profiles);
        state.prev_ids.clear();
        state.prev_ids.extend_from_slice(ids);
        state.prev_masks.clear();
        // A slot per position plus one: the next warm call's arrival joins
        // as a singleton without reallocating.
        state.prev_masks.reserve(profiles.len() + 1);
        if profiles.len() <= 64 {
            state.prev_masks.extend(
                plan.groups
                    .iter()
                    .map(|g| g.workflow_indices.iter().fold(0u64, |m, &i| m | 1 << i)),
            );
        }
        Ok(plan)
    }

    /// Strategy dispatch over an explicit memo (empty for cold calls,
    /// translated for warm ones) and, for the exhaustive search, the
    /// previous plan's translated groups (member masks in enumeration
    /// order) to seed the incumbent.
    fn plan_with_memo(
        &self,
        profiles: &[WorkflowProfile],
        strategy: PlannerStrategy,
        memo: &EstimateMemo,
        prev_masks: Option<&[u64]>,
    ) -> Result<SchedulePlan> {
        match strategy {
            PlannerStrategy::Greedy => self.plan_greedy(profiles, memo),
            PlannerStrategy::BestFit => self.plan_bestfit(profiles, memo),
            PlannerStrategy::Auto => {
                // One memo spans both legs: the cap sweeps re-try many of
                // the same groups, and the final comparison scores are all
                // hits.
                let (greedy, bestfit) = mpshare_par::join(
                    || self.plan_greedy(profiles, memo),
                    || self.plan_bestfit(profiles, memo),
                );
                let (greedy, bestfit) = (greedy?, bestfit?);
                Ok(
                    if self.score_plan_memo(&bestfit, profiles, memo)
                        > self.score_plan_memo(&greedy, profiles, memo)
                    {
                        bestfit
                    } else {
                        greedy
                    },
                )
            }
            PlannerStrategy::Exhaustive => self.plan_exhaustive(profiles, memo, prev_masks),
        }
    }

    fn emit_plan_obs(
        &self,
        strategy: PlannerStrategy,
        plan: &SchedulePlan,
        profiles: &[WorkflowProfile],
    ) {
        if mpshare_obs::enabled() {
            let (workflows, groups, cardinality) =
                (profiles.len(), plan.groups.len(), plan.max_cardinality());
            let score = self.score_plan(plan, profiles);
            mpshare_obs::emit(mpshare_obs::Track::Planner, "plan", None, None, || {
                serde_json::json!({
                    "strategy": format!("{strategy:?}"),
                    "workflows": workflows,
                    "groups": groups,
                    "max_cardinality": cardinality,
                    "score": score,
                })
            });
        }
    }

    /// Rejects profiles the packing heuristics cannot order: non-finite or
    /// negative durations, utilizations, energies, or powers. Degenerate
    /// values would otherwise poison the sort comparators and the
    /// estimator, so the planner refuses them up front with an error
    /// naming the offending profile and field.
    fn validate_profiles(profiles: &[WorkflowProfile]) -> Result<()> {
        for (i, p) in profiles.iter().enumerate() {
            let checks = [
                ("duration", p.duration.value()),
                ("avg_sm_util", p.avg_sm_util.value()),
                ("avg_bw_util", p.avg_bw_util.value()),
                ("energy", p.energy.joules()),
                ("avg_power", p.avg_power.watts()),
                ("busy_fraction", p.busy_fraction),
                ("saturation_partition", p.saturation_partition.value()),
            ];
            for (field, value) in checks {
                if !value.is_finite() || value < 0.0 {
                    return Err(Error::InvalidConfig(format!(
                        "profile {i} ({}): {field} must be finite and non-negative, got {value}",
                        p.label
                    )));
                }
            }
        }
        Ok(())
    }

    /// The paper's greedy algorithm, sweeping cardinality caps when the
    /// priority calls for it. Caps are independent candidates, so they are
    /// built and scored on worker threads; the in-order strictly-greater
    /// reduction keeps the earliest maximum, matching the serial sweep
    /// bit for bit.
    fn plan_greedy(
        &self,
        profiles: &[WorkflowProfile],
        memo: &EstimateMemo,
    ) -> Result<SchedulePlan> {
        let seq = Self::sequential_baseline(profiles);
        let caps = self.priority.candidate_caps(&self.device);
        let scored = mpshare_par::par_map(&caps, |&cap| {
            let plan = self.greedy_with_cap(profiles, cap);
            let score = self.score_groups(&plan, profiles, &seq, memo);
            (score, plan)
        });
        Self::first_best(scored).ok_or_else(|| {
            Error::PlanViolation(format!(
                "priority {:?} produced no cardinality-cap candidates",
                self.priority
            ))
        })
    }

    /// Estimator-guided best-fit packing, sweeping the priority's caps in
    /// parallel like [`Planner::plan_greedy`].
    fn plan_bestfit(
        &self,
        profiles: &[WorkflowProfile],
        memo: &EstimateMemo,
    ) -> Result<SchedulePlan> {
        let seq = Self::sequential_baseline(profiles);
        let caps = self.priority.candidate_caps(&self.device);
        let scored = mpshare_par::par_map(&caps, |&cap| {
            let plan = self.bestfit_with_cap_memo(profiles, cap, memo);
            let score = self.score_groups(&plan, profiles, &seq, memo);
            (score, plan)
        });
        Self::first_best(scored).ok_or_else(|| {
            Error::PlanViolation(format!(
                "priority {:?} produced no cardinality-cap candidates",
                self.priority
            ))
        })
    }

    /// In-order reduction keeping the first candidate with the maximal
    /// score — the same winner a serial strictly-greater sweep selects.
    fn first_best<P>(scored: impl IntoIterator<Item = (f64, P)>) -> Option<P> {
        let mut best: Option<(f64, P)> = None;
        for (score, plan) in scored {
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, plan));
            }
        }
        best.map(|(_, plan)| plan)
    }

    /// Best-fit packing with an explicit cardinality cap: seeds each group
    /// with the longest unassigned workflow (the makespan driver), then
    /// repeatedly adds the candidate whose predicted *time saving* —
    /// its solo duration minus the predicted growth of the group's
    /// makespan — is largest and positive. Only the hard constraints
    /// (memory, client cap) gate admission.
    fn bestfit_with_cap_memo(
        &self,
        profiles: &[WorkflowProfile],
        cap: usize,
        memo: &EstimateMemo,
    ) -> SchedulePlan {
        let cap = cap.clamp(1, self.device.max_mps_clients.max(1));
        let mut order: Vec<usize> = (0..profiles.len()).collect();
        // NaN durations are rejected by `validate_profiles` before any
        // planning entry point that reaches this sort; treating an
        // unexpected incomparable pair as equal keeps index order instead
        // of panicking, and is identical to `partial_cmp` for finite data.
        order.sort_by(|&a, &b| {
            profiles[b]
                .duration
                .partial_cmp(&profiles[a].duration)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // A candidate's saving never exceeds its solo duration: the
        // estimator's makespan is append-monotone (float included) when
        // demands, durations, and the sharing overhead are non-negative,
        // so the growth term subtracted from the duration is ≥ 0. Under
        // that precondition the duration-descending candidate order admits
        // an early break once the incumbent saving reaches the next
        // candidate's duration.
        let saving_bound_ok = self.sharing_overhead >= 0.0
            && profiles.iter().all(|p| {
                p.duration.value() >= 0.0
                    && p.avg_sm_util.value() >= 0.0
                    && p.avg_bw_util.value() >= 0.0
            });

        let mut assigned = vec![false; profiles.len()];
        let mut groups = Vec::new();
        for &seed in &order {
            if assigned[seed] {
                continue;
            }
            assigned[seed] = true;
            let mut members = vec![seed];
            let mut trial_members = Vec::new();
            loop {
                if members.len() >= cap {
                    break;
                }
                let current = self.estimate_members(&members, profiles, memo);
                let group_memory: mpshare_types::MemBytes =
                    members.iter().map(|&i| profiles[i].max_memory).sum();

                let mut best_candidate: Option<(f64, usize)> = None;
                for &cand in &order {
                    if assigned[cand] {
                        continue;
                    }
                    // Duration bound: later candidates are shorter still, so
                    // none can *strictly* beat the incumbent saving — the
                    // selection is unchanged. Only taken with observability
                    // off: the audit stream must see every candidate.
                    if saving_bound_ok && !mpshare_obs::enabled() {
                        if let Some((best, _)) = best_candidate {
                            if profiles[cand].duration.value() <= best {
                                break;
                            }
                        }
                    }
                    if group_memory + profiles[cand].max_memory > self.device.memory_capacity {
                        if mpshare_obs::enabled() {
                            mpshare_obs::counter_add(mpshare_obs::names::PLAN_CANDIDATES, 1);
                            mpshare_obs::counter_add(mpshare_obs::names::PLAN_REJECTS, 1);
                            let group = members.clone();
                            mpshare_obs::emit(
                                mpshare_obs::Track::Planner,
                                "plan.candidate",
                                None,
                                None,
                                || {
                                    serde_json::json!({
                                        "strategy": "bestfit",
                                        "cap": cap,
                                        "group": group,
                                        "candidate": cand,
                                        "accepted": false,
                                        "reason": "group memory would exceed capacity",
                                    })
                                },
                            );
                        }
                        continue;
                    }
                    trial_members.clear();
                    trial_members.extend_from_slice(&members);
                    trial_members.push(cand);
                    let with = self.estimate_members(&trial_members, profiles, memo);
                    // Saving = sequential cost of the candidate minus the
                    // growth it causes in the group's makespan.
                    let saving = profiles[cand].duration.value()
                        - (with.makespan.value() - current.makespan.value());
                    if mpshare_obs::enabled() {
                        mpshare_obs::counter_add(mpshare_obs::names::PLAN_CANDIDATES, 1);
                        if saving <= 0.0 {
                            mpshare_obs::counter_add(mpshare_obs::names::PLAN_REJECTS, 1);
                        }
                        let group = members.clone();
                        mpshare_obs::emit(
                            mpshare_obs::Track::Planner,
                            "plan.candidate",
                            None,
                            None,
                            || {
                                serde_json::json!({
                                    "strategy": "bestfit",
                                    "cap": cap,
                                    "group": group,
                                    "candidate": cand,
                                    "accepted": saving > 0.0,
                                    "reason": if saving > 0.0 {
                                        "positive predicted time saving"
                                    } else {
                                        "predicted makespan growth outweighs saving"
                                    },
                                    "predicted_saving_s": saving,
                                    "predicted_makespan_s": with.makespan.value(),
                                })
                            },
                        );
                    }
                    if saving > 0.0 && best_candidate.is_none_or(|(best, _)| saving > best) {
                        best_candidate = Some((saving, cand));
                    }
                }
                match best_candidate {
                    Some((_, cand)) => {
                        assigned[cand] = true;
                        members.push(cand);
                    }
                    None => break,
                }
            }
            let member_profiles: Vec<&WorkflowProfile> =
                members.iter().map(|&i| &profiles[i]).collect();
            let partitions = self.partition_strategy.partitions(&member_profiles);
            groups.push(PlanGroup {
                workflow_indices: members,
                partitions,
            });
        }
        SchedulePlan { groups }
    }

    /// Greedy packing with an explicit cardinality cap (public so the
    /// harness can sweep cardinality for the paper's Figures 4/5).
    pub fn greedy_with_cap(&self, profiles: &[WorkflowProfile], cap: usize) -> SchedulePlan {
        // Criterion 1: lowest compute utilization first.
        let mut order: Vec<usize> = (0..profiles.len()).collect();
        // See the duration sort in `bestfit_with_cap_memo`: NaN is
        // rejected upstream, and incomparable pairs fall back to index
        // order rather than panicking.
        order.sort_by(|&a, &b| {
            profiles[a]
                .avg_sm_util
                .value()
                .partial_cmp(&profiles[b].avg_sm_util.value())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });

        let cap = cap.clamp(1, self.device.max_mps_clients.max(1));
        let mut assigned = vec![false; profiles.len()];
        let mut groups = Vec::new();
        for &seed in &order {
            if assigned[seed] {
                continue;
            }
            assigned[seed] = true;
            let mut members = vec![seed];
            for &cand in &order {
                if assigned[cand] || members.len() >= cap {
                    continue;
                }
                let mut trial: Vec<&WorkflowProfile> =
                    members.iter().map(|&i| &profiles[i]).collect();
                trial.push(&profiles[cand]);
                // Criteria 2 & 3: stay under 100 % combined compute/BW and
                // under memory capacity.
                let prediction = predict(&self.device, &trial);
                let accepted = prediction.is_compatible();
                if mpshare_obs::enabled() {
                    mpshare_obs::counter_add(mpshare_obs::names::PLAN_CANDIDATES, 1);
                    if !accepted {
                        mpshare_obs::counter_add(mpshare_obs::names::PLAN_REJECTS, 1);
                    }
                    let group = members.clone();
                    mpshare_obs::emit(
                        mpshare_obs::Track::Planner,
                        "plan.candidate",
                        None,
                        None,
                        || {
                            serde_json::json!({
                                "strategy": "greedy",
                                "cap": cap,
                                "group": group,
                                "candidate": cand,
                                "accepted": accepted,
                                "reason": if accepted {
                                    "within combined SM/BW/memory limits"
                                } else {
                                    "interference rule: combined demand over 100%"
                                },
                                "combined_sm": prediction.sm_sum,
                                "combined_bw": prediction.bw_sum,
                            })
                        },
                    );
                }
                if accepted {
                    assigned[cand] = true;
                    members.push(cand);
                }
            }
            let member_profiles: Vec<&WorkflowProfile> =
                members.iter().map(|&i| &profiles[i]).collect();
            let partitions = self.partition_strategy.partitions(&member_profiles);
            groups.push(PlanGroup {
                workflow_indices: members,
                partitions,
            });
        }
        SchedulePlan { groups }
    }

    /// Exhaustive set-partition search, scored by the analytic estimator.
    ///
    /// The restricted-growth-string enumeration is split by fixed-length
    /// prefixes: every prefix roots an independent sub-enumeration, and the
    /// sub-trees are searched on worker threads. Prefixes are generated in
    /// the serial recursion's visit order and reduced in that order with a
    /// strictly-greater comparison, so the winning partition is exactly the
    /// one the serial search returns.
    ///
    /// By default each sub-tree is searched branch-and-bound
    /// ([`MaskSearch`]) over one [`SubsetTable`] shared by every worker:
    /// partial groupings carry an admissible score upper bound, and
    /// sub-trees that cannot *strictly* beat the worker's incumbent are
    /// pruned — the surviving leaf visit order and the strictly-greater
    /// incumbent rule are those of the brute force, so the returned plan
    /// is identical ([`Planner::with_exhaustive_pruning`] switches back to
    /// the plain enumeration). `prev_masks`, the previous plan's groups
    /// translated to this queue, seeds every worker's incumbent floor
    /// ([`Planner::exhaustive_floor`]).
    fn plan_exhaustive(
        &self,
        profiles: &[WorkflowProfile],
        memo: &EstimateMemo,
        prev_masks: Option<&[u64]>,
    ) -> Result<SchedulePlan> {
        // 4 fixed positions → 15 independent sub-enumerations (Bell(4)).
        const PREFIX_LEN: usize = 4;
        let n = profiles.len();
        if n > EXHAUSTIVE_MAX_N {
            return Err(Error::InvalidConfig(format!(
                "exhaustive planning supports ≤ {EXHAUSTIVE_MAX_N} workflows, got {n}"
            )));
        }

        let prefix_len = PREFIX_LEN.min(n);
        let mut prefixes: Vec<(Vec<usize>, usize)> = Vec::new();
        let mut prefix = vec![0usize; prefix_len];
        enumerate_prefixes(&mut prefix, 0, 0, &mut |assign, max_used| {
            prefixes.push((assign.to_vec(), max_used));
        });

        let seq = Self::sequential_baseline(profiles);
        let local_bests = if self.exhaustive_pruning {
            let table = SubsetTable::build(self, profiles);
            let bound = self.exhaustive_bound(profiles, &seq, &table);
            let floor = prev_masks.and_then(|masks| self.exhaustive_floor(&table, masks, &seq));
            mpshare_par::par_map(&prefixes, |(prefix, max_used)| {
                MaskSearch::run(self, &table, &seq, bound.as_ref(), floor, prefix, *max_used)
            })
        } else {
            mpshare_par::par_map(&prefixes, |(prefix, max_used)| {
                self.exhaustive_worker_brute(profiles, &seq, memo, prefix, *max_used)
            })
        };

        // Drop sentinel incumbents (a warm floor that no leaf in that
        // worker's sub-tree beat): the floor is strictly below an
        // enumerable leaf's score, so such workers cannot hold the
        // overall winner and the first-best reduction is unchanged.
        let best = Self::first_best(
            local_bests
                .into_iter()
                .flatten()
                .filter(|(_, partition)| partition.len > 0),
        )
        .ok_or_else(|| Error::PlanViolation("no feasible partition exists".into()))?;
        Ok(self.materialize(&best, profiles))
    }

    /// One worker's plain brute-force sub-enumeration: every leaf's groups
    /// are checked and scored through [`Planner::estimate_members`], the
    /// independent reference the branch-and-bound path is property-tested
    /// against.
    fn exhaustive_worker_brute(
        &self,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
        memo: &EstimateMemo,
        prefix: &[usize],
        prefix_max: usize,
    ) -> Option<(f64, MaskPartition)> {
        let n = profiles.len();
        let prefix_len = prefix.len();
        let mut assignment = vec![0usize; n];
        assignment[..prefix_len].copy_from_slice(prefix);
        let mut best: Option<(f64, MaskPartition)> = None;
        let mut groups: Vec<Vec<usize>> = Vec::new();
        // Dense front of the shared memo: with n ≤ 12 every group is
        // an ascending index list below 64, i.e. a subset mask that
        // fits a direct-indexed table. A dense hit is an array load;
        // only the first touch per worker goes through the hashed
        // shard (which dedups the actual estimate across workers).
        let mut dense: Vec<Option<GroupEstimate>> = vec![None; 1usize << n];
        enumerate_partitions(&mut assignment, prefix_len, prefix_max, &mut |assign, k| {
            for g in groups.iter_mut() {
                g.clear();
            }
            if groups.len() < k {
                groups.resize_with(k, Vec::new);
            }
            for (i, &g) in assign.iter().enumerate() {
                groups[g].push(i);
            }
            // Hard constraints: memory and client limit.
            for g in &groups[..k] {
                if g.len() > self.device.max_mps_clients {
                    return;
                }
                let mem: mpshare_types::MemBytes = g.iter().map(|&i| profiles[i].max_memory).sum();
                if mem > self.device.memory_capacity {
                    return;
                }
            }
            // Score the raw member lists: the score is partition-free,
            // so only the overall winner is materialized. The sums run
            // left to right in group-index order, exactly as
            // `score_member_lists` would.
            let mut makespan = 0.0;
            let mut energy = 0.0;
            let mut leaf = MaskPartition::EMPTY;
            for g in &groups[..k] {
                let mask: usize = g.iter().fold(0, |m, &i| m | (1 << i));
                leaf.push(mask);
                let e = dense[mask].get_or_insert_with(|| self.estimate_members(g, profiles, memo));
                makespan += e.makespan.value();
                energy += e.energy.joules();
            }
            let score = self.score_totals(seq, makespan, energy);
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, leaf));
            }
        });
        best
    }

    /// Precomputes the admissible-bound ingredients for one exhaustive
    /// call, or `None` when the preconditions for bound validity do not
    /// hold (negative/non-finite inputs or estimates, non-positive
    /// baseline) — the search then runs without score pruning.
    fn exhaustive_bound(
        &self,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
        table: &SubsetTable,
    ) -> Option<ExhaustiveBound> {
        let seq_makespan = seq.makespan.value();
        let seq_energy = seq.energy.joules();
        let idle = self.device.idle_power.watts();
        // Every comparison is written positively so NaN anywhere fails it.
        // Estimates are monotone under supersets, so a finite whole-queue
        // estimate makes every subset's finite too.
        let whole = table.entries[table.entries.len() - 1];
        let preconditions_ok = self.sharing_overhead >= 0.0
            && seq_makespan > 0.0
            && seq_makespan.is_finite()
            && seq_energy > 0.0
            && seq_energy.is_finite()
            && idle >= 0.0
            && idle.is_finite()
            && whole.makespan.is_finite()
            && whole.energy.is_finite();
        if !preconditions_ok {
            return None;
        }
        let n = profiles.len();
        let mut r_total = 0.0;
        for p in profiles {
            let dur = p.duration.value();
            let sm = p.avg_sm_util.value();
            let bw = p.avg_bw_util.value();
            let dyn_e = p.dynamic_energy(self.device.idle_power).joules();
            let ok = dur >= 0.0
                && dur.is_finite()
                && sm >= 0.0
                && sm.is_finite()
                && bw >= 0.0
                && bw.is_finite()
                && dyn_e >= 0.0
                && dyn_e.is_finite();
            if !ok {
                return None;
            }
            // Any group's makespan ≥ max_dur · (Σsm/100) ≥ Σ dur_i·sm_i/100,
            // so the whole-queue sum floors every partition's total.
            r_total += dur * (sm / 100.0);
        }
        let mut dyn_suffix = [0.0; EXHAUSTIVE_MAX_N + 1];
        for i in (0..n).rev() {
            dyn_suffix[i] =
                profiles[i].dynamic_energy(self.device.idle_power).joules() + dyn_suffix[i + 1];
        }
        Some(ExhaustiveBound {
            // The bounds combine float sums folded in a different order
            // than the leaf scores; the (1 − 1e-9) deflation swamps the
            // ~1e-15 relative rounding drift, keeping them admissible
            // bit for bit.
            r_total: r_total * (1.0 - 1e-9),
            dyn_suffix,
            idle,
            seq_makespan,
            seq_energy,
        })
    }

    /// Builds the plan of an exhaustive winner: each mask's members in
    /// ascending order, right-sized.
    fn materialize(&self, partition: &MaskPartition, profiles: &[WorkflowProfile]) -> SchedulePlan {
        SchedulePlan {
            groups: partition
                .masks()
                .iter()
                .map(|&mask| {
                    let members: Vec<usize> = (0..profiles.len())
                        .filter(|&i| mask & 1 << i != 0)
                        .collect();
                    let member_profiles: Vec<&WorkflowProfile> =
                        members.iter().map(|&i| &profiles[i]).collect();
                    PlanGroup {
                        partitions: self.partition_strategy.partitions(&member_profiles),
                        workflow_indices: members,
                    }
                })
                .collect(),
        }
    }

    /// Scores a plan with the analytic estimator under the priority.
    pub fn score_plan(&self, plan: &SchedulePlan, profiles: &[WorkflowProfile]) -> f64 {
        let seq = Self::sequential_baseline(profiles);
        let mut makespan = 0.0;
        let mut energy = 0.0;
        for g in &plan.groups {
            let members: Vec<&WorkflowProfile> =
                g.workflow_indices.iter().map(|&i| &profiles[i]).collect();
            let e = estimate_group(&self.device, &members, self.sharing_overhead);
            makespan += e.makespan.value();
            energy += e.energy.joules();
        }
        self.score_totals(&seq, makespan, energy)
    }

    /// Memoized form of [`Planner::score_plan`]: bit-identical result,
    /// with per-group estimates fetched through (and cached in) `memo`.
    pub fn score_plan_memo(
        &self,
        plan: &SchedulePlan,
        profiles: &[WorkflowProfile],
        memo: &EstimateMemo,
    ) -> f64 {
        let seq = Self::sequential_baseline(profiles);
        self.score_groups(plan, profiles, &seq, memo)
    }

    /// The score's reference point: everything run sequentially.
    pub(crate) fn sequential_baseline(profiles: &[WorkflowProfile]) -> GroupEstimate {
        let all: Vec<&WorkflowProfile> = profiles.iter().collect();
        estimate_sequential(&all)
    }

    /// Memoized estimate of one ordered member list. A hit returns the
    /// value computed by the identical `estimate_group` call, so this is
    /// interchangeable bit for bit with computing from scratch.
    pub(crate) fn estimate_members(
        &self,
        members: &[usize],
        profiles: &[WorkflowProfile],
        memo: &EstimateMemo,
    ) -> GroupEstimate {
        memo.get_or_compute(GroupKey::new(members), || {
            let refs: Vec<&WorkflowProfile> = members.iter().map(|&i| &profiles[i]).collect();
            estimate_group(&self.device, &refs, self.sharing_overhead)
        })
    }

    /// Final score from summed per-group totals against the sequential
    /// baseline (the tail of [`Planner::score_plan`]).
    pub(crate) fn score_totals(&self, seq: &GroupEstimate, makespan: f64, energy: f64) -> f64 {
        if makespan <= 0.0 || energy <= 0.0 {
            return 0.0;
        }
        let throughput = seq.makespan.value() / makespan;
        let efficiency = seq.energy.joules() / energy;
        self.priority.score(throughput, efficiency)
    }

    fn score_groups(
        &self,
        plan: &SchedulePlan,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
        memo: &EstimateMemo,
    ) -> f64 {
        self.score_member_lists(
            plan.groups.iter().map(|g| g.workflow_indices.as_slice()),
            profiles,
            seq,
            memo,
        )
    }

    /// Scores raw member lists, summing group totals left to right in
    /// list order — the same order [`Planner::score_plan`] uses.
    fn score_member_lists<'m>(
        &self,
        groups: impl IntoIterator<Item = &'m [usize]>,
        profiles: &[WorkflowProfile],
        seq: &GroupEstimate,
        memo: &EstimateMemo,
    ) -> f64 {
        let mut makespan = 0.0;
        let mut energy = 0.0;
        for members in groups {
            let e = self.estimate_members(members, profiles, memo);
            makespan += e.makespan.value();
            energy += e.energy.joules();
        }
        self.score_totals(seq, makespan, energy)
    }

    /// Computes the warm incumbent floor for the exhaustive search: the
    /// largest float strictly below the score of the previous plan's
    /// translated partition, or `None` when those masks are not a feasible
    /// enumerable leaf of the new queue (so no floor can be proven).
    ///
    /// A leaf's groups come out of the restricted-growth enumeration
    /// ordered by minimal member, each an ascending member list, so masks
    /// in that order fold the table's estimates exactly as the search folds
    /// that leaf: `s0` is the leaf's bit-exact score. Why the floor then
    /// preserves bit-identity: the seeded partition is itself an
    /// enumerable leaf scoring `s0 > floor`, so the true maximum is
    /// `≥ s0 > floor`. A worker whose local best never strictly exceeds
    /// the floor therefore cannot contain the overall winner; dropping its
    /// sentinel leaves the first-best reduction's result unchanged, and a
    /// worker that does beat the floor records the same first strictly
    /// greatest leaf it would have found cold.
    fn exhaustive_floor(
        &self,
        table: &SubsetTable,
        masks: &[u64],
        seq: &GroupEstimate,
    ) -> Option<f64> {
        let full = table.entries.len() - 1;
        let mut covered = 0usize;
        let mut prev_low = None;
        let (mut makespan, mut energy) = (0.0, 0.0);
        for &mask in masks {
            let mask = usize::try_from(mask)
                .ok()
                .filter(|&m| m != 0 && m <= full)?;
            let low = mask.trailing_zeros();
            let entry = table.entries[mask];
            if covered & mask != 0 || prev_low >= Some(low) || !entry.feasible {
                return None;
            }
            covered |= mask;
            prev_low = Some(low);
            makespan += entry.makespan;
            energy += entry.energy;
        }
        if covered != full {
            return None;
        }
        let s0 = self.score_totals(seq, makespan, energy);
        if s0 > 0.0 && s0.is_finite() {
            // Largest float strictly below a positive finite s0
            // (`f64::next_down`, spelled out for the pinned toolchain).
            Some(f64::from_bits(s0.to_bits() - 1))
        } else {
            None
        }
    }
}

/// Enumerates restricted-growth-string prefixes: like
/// [`enumerate_partitions`] but visits every *partial* assignment of the
/// buffer's length together with its `max_used` watermark, letting the
/// exhaustive search split the full enumeration into independent sub-trees.
fn enumerate_prefixes(
    prefix: &mut Vec<usize>,
    pos: usize,
    max_used: usize,
    visit: &mut impl FnMut(&[usize], usize),
) {
    if pos == prefix.len() {
        visit(prefix, max_used);
        return;
    }
    for g in 0..=max_used {
        prefix[pos] = g;
        let next_max = max_used.max(g + 1);
        enumerate_prefixes(prefix, pos + 1, next_max, visit);
    }
}

/// Enumerates set partitions via restricted-growth strings: position `i`
/// may use any group id `0..=max_used+1`.
fn enumerate_partitions(
    assignment: &mut Vec<usize>,
    pos: usize,
    max_used: usize,
    visit: &mut impl FnMut(&[usize], usize),
) {
    if pos == assignment.len() {
        visit(assignment, max_used);
        return;
    }
    for g in 0..=max_used {
        assignment[pos] = g;
        let next_max = max_used.max(g + 1);
        enumerate_partitions(assignment, pos + 1, next_max, visit);
    }
}

/// Largest queue [`PlannerStrategy::Exhaustive`] accepts: Bell(12) ≈ 4.2M
/// set partitions, over a subset table of 2^12 entries.
const EXHAUSTIVE_MAX_N: usize = 12;

/// Re-keys the previous plan's member masks to the new queue positions
/// after a warm diff: the departed workflow's bit is dropped (and its
/// group with it when it was alone), every other member moves to its
/// `remap`ped position, and an arrival joins as its own singleton, so the
/// masks partition the new queue again. The result is ordered by minimal
/// member — the order the exhaustive enumeration emits a leaf's groups
/// in. Clears the masks when a position no longer fits in 64 bits.
/// Allocation-free while the vector has a spare slot for the arrival.
fn translate_masks(
    masks: &mut Vec<u64>,
    remap: impl Fn(usize) -> Option<usize>,
    join: Option<usize>,
) {
    let mut fits = true;
    for mask in masks.iter_mut() {
        let (mut old, mut new) = (*mask, 0u64);
        while old != 0 {
            let pos = old.trailing_zeros() as usize;
            old &= old - 1;
            match remap(pos) {
                Some(p) if p < 64 => new |= 1 << p,
                Some(_) => fits = false,
                None => {}
            }
        }
        *mask = new;
    }
    masks.retain(|&m| m != 0);
    match join {
        Some(j) if j < 64 => masks.push(1 << j),
        Some(_) => fits = false,
        None => {}
    }
    if !fits {
        masks.clear();
    }
    masks.sort_unstable_by_key(|m| m.trailing_zeros());
}

/// Estimate and hard-constraint feasibility of one member subset.
#[derive(Debug, Clone, Copy)]
struct SubsetEntry {
    makespan: f64,
    energy: f64,
    /// Within the client limit and the device memory. Both only grow with
    /// the subset, so an infeasible subset has no feasible superset.
    feasible: bool,
}

/// Every member subset of one exhaustive call's queue (n ≤ 12, so at most
/// 4096 entries), indexed by member mask and shared read-only by every
/// prefix worker.
///
/// Built by subset DP: `fold[mask]` is `fold[mask − top]` extended by
/// member `top`, the mask's highest position. That is the next step of
/// [`estimate_group`]'s left-to-right fold over the mask's ascending member
/// list, so every entry carries exactly the bits `estimate_group` returns
/// for that list — the list the enumeration scores the group as.
struct SubsetTable {
    entries: Vec<SubsetEntry>,
}

impl SubsetTable {
    fn build(planner: &Planner, profiles: &[WorkflowProfile]) -> SubsetTable {
        let size = 1usize << profiles.len();
        let idle = planner.device.idle_power;
        let mut folds: Vec<(GroupFold, mpshare_types::MemBytes)> = Vec::with_capacity(size);
        let mut entries = Vec::with_capacity(size);
        folds.push((GroupFold::EMPTY, mpshare_types::MemBytes::ZERO));
        entries.push(SubsetEntry {
            makespan: 0.0,
            energy: 0.0,
            feasible: true,
        });
        for mask in 1..size {
            let top = (usize::BITS - 1 - mask.leading_zeros()) as usize;
            let (fold, mem) = folds[mask ^ 1 << top];
            let (fold, mem) = (
                fold.push(&profiles[top], idle),
                mem + profiles[top].max_memory,
            );
            let estimate = fold.finish(idle, planner.sharing_overhead);
            folds.push((fold, mem));
            entries.push(SubsetEntry {
                makespan: estimate.makespan.value(),
                energy: estimate.energy.joules(),
                feasible: fold.members() <= planner.device.max_mps_clients
                    && mem <= planner.device.memory_capacity,
            });
        }
        SubsetTable { entries }
    }
}

/// A set partition as member masks, groups in restricted-growth order (by
/// minimal member). Length 0 is the sentinel of a warm floor no leaf beat.
#[derive(Debug, Clone, Copy)]
struct MaskPartition {
    masks: [usize; EXHAUSTIVE_MAX_N],
    len: usize,
}

impl MaskPartition {
    const EMPTY: MaskPartition = MaskPartition {
        masks: [0; EXHAUSTIVE_MAX_N],
        len: 0,
    };

    fn push(&mut self, mask: usize) {
        self.masks[self.len] = mask;
        self.len += 1;
    }

    fn masks(&self) -> &[usize] {
        &self.masks[..self.len]
    }
}

/// Ingredients of the exhaustive search's admissible score bound, computed
/// once per [`Planner::plan_exhaustive`] call.
///
/// All bounds are *lower* bounds on a completed partition's totals; because
/// every supported [`MetricPriority`] score is monotone non-decreasing in
/// `seq/total` for positive inputs, dividing the (positive) sequential
/// baseline by them yields an upper bound on any descendant leaf's score.
///
/// * `r_total` — `Σᵢ durᵢ·smᵢ/100` over the whole queue, deflated by
///   `1 − 1e-9`. Any group's makespan is at least `max_dur · Σ_g sm/100 ≥
///   Σ_{i∈g} durᵢ·smᵢ/100` (contention floors at `Σsm/100`, overhead at 1),
///   so the queue-wide sum floors every partition's makespan total. The
///   deflation swamps the ≤ ~1e-14 relative drift from re-associating the
///   float sums, keeping the floor admissible bit for bit.
/// * `dyn_suffix[i]` — `Σ_{j ≥ i} dynamic_energy(j)`: dynamic energies are
///   conserved under grouping (each appears in exactly one group's energy),
///   so unassigned positions contribute at least this much energy, and
///   every partition's energy is at least `idle · makespan + dyn_suffix[0]`.
struct ExhaustiveBound {
    r_total: f64,
    dyn_suffix: [f64; EXHAUSTIVE_MAX_N + 1],
    idle: f64,
    seq_makespan: f64,
    seq_energy: f64,
}

/// Depth-first branch-and-bound over one restricted-growth-string
/// sub-tree, reading every group's estimate and feasibility from the
/// shared [`SubsetTable`].
///
/// The DFS visits leaves in exactly [`enumerate_partitions`]'s order and
/// applies the same strictly-greater incumbent rule, so with pruning that
/// only removes leaves scoring ≤ the incumbent (which can never *replace*
/// it), the surviving incumbent sequence — and hence the final best — is
/// identical to the brute force's.
///
/// Hard constraints (client count, memory) are checked as members are
/// assigned: both only grow as a group gains members, so a violation at
/// assignment time implies every leaf below would have failed the brute
/// force's leaf check, making the skip exact even without a score bound.
struct MaskSearch<'a> {
    planner: &'a Planner,
    table: &'a SubsetTable,
    seq: &'a GroupEstimate,
    bound: Option<&'a ExhaustiveBound>,
    n: usize,
    /// Member masks of the current partial grouping's groups `0..used`;
    /// later slots are stale.
    groups: [usize; EXHAUSTIVE_MAX_N],
    best: Option<(f64, MaskPartition)>,
}

impl<'a> MaskSearch<'a> {
    /// Searches the sub-tree under one prefix. A warm `floor` enters as a
    /// sentinel incumbent (an empty partition): leaves must *strictly*
    /// beat it to be recorded, which prunes exactly the sub-trees that
    /// cannot contain the winner.
    fn run(
        planner: &'a Planner,
        table: &'a SubsetTable,
        seq: &'a GroupEstimate,
        bound: Option<&'a ExhaustiveBound>,
        floor: Option<f64>,
        prefix: &[usize],
        prefix_max: usize,
    ) -> Option<(f64, MaskPartition)> {
        let mut search = MaskSearch {
            planner,
            table,
            seq,
            bound,
            n: table.entries.len().trailing_zeros() as usize,
            groups: [0; EXHAUSTIVE_MAX_N],
            best: floor.map(|f| (f, MaskPartition::EMPTY)),
        };
        // Seed the fixed prefix positions. A hard-constraint violation
        // here voids the whole sub-tree — exactly as every leaf below it
        // would have early-returned in the brute force.
        for (pos, &g) in prefix.iter().enumerate() {
            let mask = search.groups[g] | 1 << pos;
            if !table.entries[mask].feasible {
                return None;
            }
            search.groups[g] = mask;
        }
        search.dfs(prefix.len(), prefix_max);
        search.best
    }

    /// Recursive search over positions `pos..n`, mirroring
    /// [`enumerate_partitions`]'s `for g in 0..=used` order.
    fn dfs(&mut self, pos: usize, used: usize) {
        if pos == self.n {
            // Leaf: same left-to-right group-order fold and strictly-greater
            // incumbent rule as the brute-force visit.
            let mut makespan = 0.0;
            let mut energy = 0.0;
            for &mask in &self.groups[..used] {
                makespan += self.table.entries[mask].makespan;
                energy += self.table.entries[mask].energy;
            }
            let score = self.planner.score_totals(self.seq, makespan, energy);
            if self.best.as_ref().is_none_or(|(s, _)| score > *s) {
                let mut leaf = MaskPartition::EMPTY;
                for &mask in &self.groups[..used] {
                    leaf.push(mask);
                }
                self.best = Some((score, leaf));
            }
            return;
        }
        for g in 0..=used {
            let old = if g < used { self.groups[g] } else { 0 };
            let mask = old | 1 << pos;
            if !self.table.entries[mask].feasible {
                continue;
            }
            self.groups[g] = mask;
            let next_used = used.max(g + 1);
            if !self.pruned(pos, next_used) {
                self.dfs(pos + 1, next_used);
            }
            self.groups[g] = old;
        }
    }

    /// Whether the sub-tree below the current partial grouping (positions
    /// `0..=pos` assigned, groups `0..used` in use) can be discarded: its
    /// admissible score upper bound fails to *strictly* beat the incumbent.
    fn pruned(&self, pos: usize, used: usize) -> bool {
        let (Some(b), Some((incumbent, _))) = (self.bound, self.best.as_ref()) else {
            return false;
        };
        let entries = &self.table.entries;
        let groups = &self.groups[..used];
        // Exact float lower bound on any descendant leaf's totals: table
        // estimates are monotone under supersets (all inputs non-negative —
        // checked by `exhaustive_bound`), float folds of non-negative terms
        // are monotone in each term, and the leaf folds groups in this same
        // index order, so the partial fold is a true prefix bound.
        let mut ms_part = 0.0;
        let mut en_part = 0.0;
        for &mask in groups {
            ms_part += entries[mask].makespan;
            en_part += entries[mask].energy;
        }
        // One-step lookahead: every unassigned workflow j lands in some
        // final group, either a new one (makespan ≥ ms[{j}]) or a feasible
        // superset of an existing group's members plus j (its makespan
        // grows by ≥ ms[M ∪ {j}] − ms[M]). So the total grows past
        // `ms_part` by at least the cheapest of those for every j, hence by
        // the largest such minimum. The differences re-associate the sum,
        // so the step enters deflated like the other re-associated floors.
        let mut step = 0.0f64;
        for j in pos + 1..self.n {
            let bit = 1 << j;
            let mut cheapest = entries[bit].makespan;
            for &mask in groups {
                let grown = entries[mask | bit];
                if grown.feasible {
                    cheapest = cheapest.min(grown.makespan - entries[mask].makespan);
                }
            }
            step = step.max(cheapest);
        }
        let ms_lb = ((ms_part + step) * (1.0 - 1e-9))
            .max(ms_part)
            .max(b.r_total);
        // Unassigned dynamic energies land in some group eventually, and
        // every group pays idle power over its makespan; the deflation
        // covers the fold-reordering drift (see ExhaustiveBound).
        let en_lb = ((en_part + b.dyn_suffix[pos + 1]) * (1.0 - 1e-9))
            .max((b.idle * ms_lb + b.dyn_suffix[0]) * (1.0 - 1e-9));
        if !(ms_lb > 0.0 && en_lb > 0.0) {
            return false;
        }
        // Upper-bound the leaf score directly through the priority (NOT
        // `score_totals`: its degenerate 0.0 return is not an upper bound,
        // but degenerate leaves score 0.0 ≤ any ub, so they prune safely).
        let ub = self
            .planner
            .priority
            .score(b.seq_makespan / ms_lb, b.seq_energy / en_lb);
        ub <= *incumbent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpshare_types::{Energy, MemBytes, Percent, Power, Seconds};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn profile(label: &str, sm: f64, bw: f64, mem_gib: u64, duration: f64) -> WorkflowProfile {
        let power = 75.0 + 1.75 * sm + bw;
        WorkflowProfile {
            label: label.into(),
            task_count: 3,
            avg_sm_util: Percent::new(sm),
            avg_bw_util: Percent::new(bw),
            max_memory: MemBytes::from_gib(mem_gib),
            duration: Seconds::new(duration),
            energy: Energy::from_joules(power * duration),
            avg_power: Power::from_watts(power),
            busy_fraction: 0.8,
            saturation_partition: mpshare_types::Fraction::new(0.9),
        }
    }

    fn planner(priority: MetricPriority) -> Planner {
        Planner::new(dev(), priority)
    }

    #[test]
    fn warm_diff_detects_single_changes() {
        // Unchanged queue.
        assert_eq!(warm_diff(&[1, 2, 3], &[1, 2, 3]), Some((None, None)));
        // Single departures: front, middle, back.
        assert_eq!(warm_diff(&[1, 2, 3], &[2, 3]), Some((Some(0), None)));
        assert_eq!(warm_diff(&[1, 2, 3], &[1, 3]), Some((Some(1), None)));
        assert_eq!(warm_diff(&[1, 2, 3], &[1, 2]), Some((Some(2), None)));
        // Single arrivals: front, middle, back.
        assert_eq!(warm_diff(&[2, 3], &[1, 2, 3]), Some((None, Some(0))));
        assert_eq!(warm_diff(&[1, 3], &[1, 2, 3]), Some((None, Some(1))));
        assert_eq!(warm_diff(&[1, 2], &[1, 2, 3]), Some((None, Some(2))));
        // Leave + join at the same length.
        assert_eq!(warm_diff(&[1, 2, 3], &[2, 3, 4]), Some((Some(0), Some(2))));
        assert_eq!(warm_diff(&[1, 2, 3], &[4, 1, 2]), Some((Some(2), Some(0))));
        assert_eq!(warm_diff(&[1, 2, 3], &[1, 4, 3]), Some((Some(1), Some(1))));
        // Singleton handoff is still one out, one in.
        assert_eq!(warm_diff(&[7], &[9]), Some((Some(0), Some(0))));
    }

    #[test]
    fn warm_diff_rejects_bulk_changes() {
        // Two departures, two arrivals, or a reorder → cold.
        assert_eq!(warm_diff(&[1, 2, 3, 4], &[1, 4]), None);
        assert_eq!(warm_diff(&[1, 2], &[1, 2, 3, 4]), None);
        assert_eq!(warm_diff(&[1, 2, 3], &[3, 2, 1]), None);
        assert_eq!(warm_diff(&[1, 2, 3], &[2, 1, 4]), None);
        assert_eq!(warm_diff(&[1, 2], &[3, 4]), None);
    }

    /// The subset DP must hold, for every mask, exactly the bits
    /// `estimate_group` returns for the mask's ascending member list — and
    /// the client-cap and memory verdicts the brute force checks per leaf.
    #[test]
    fn subset_table_matches_estimate_group_on_every_mask() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(16);
        // Signed zeros and zero durations are where a reordered float fold
        // would show in the last bit.
        let pick = |rng: &mut StdRng, hi: f64| match rng.random_range(0..4usize) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.random_range(0.0..hi),
        };
        for case in 0..24usize {
            let n = 1 + case % EXHAUSTIVE_MAX_N;
            let profiles: Vec<WorkflowProfile> = (0..n)
                .map(|i| {
                    let mut p = profile(
                        &format!("w{i}"),
                        pick(&mut rng, 100.0),
                        pick(&mut rng, 100.0),
                        rng.random_range(1..40u64),
                        pick(&mut rng, 120.0),
                    );
                    p.energy = Energy::from_joules(pick(&mut rng, 20_000.0));
                    p
                })
                .collect();
            let mut device = dev();
            // Every other pool hits the client cap as well as memory.
            if case % 2 == 1 {
                device.max_mps_clients = 3;
            }
            let overhead = [0.0, 0.002, 0.05][case % 3];
            let planner = Planner::new(device.clone(), MetricPriority::balanced_product())
                .with_sharing_overhead(overhead);
            let table = SubsetTable::build(&planner, &profiles);
            assert_eq!(table.entries.len(), 1 << n);
            let (mut capped, mut over_memory) = (0, 0);
            for (mask, entry) in table.entries.iter().enumerate().skip(1) {
                let members: Vec<&WorkflowProfile> = (0..n)
                    .filter(|&i| mask & 1 << i != 0)
                    .map(|i| &profiles[i])
                    .collect();
                let e = estimate_group(&device, &members, overhead);
                assert_eq!(
                    entry.makespan.to_bits(),
                    e.makespan.value().to_bits(),
                    "case {case} mask {mask:#b}"
                );
                assert_eq!(
                    entry.energy.to_bits(),
                    e.energy.joules().to_bits(),
                    "case {case} mask {mask:#b}"
                );
                let mem: mpshare_types::MemBytes = members.iter().map(|p| p.max_memory).sum();
                let within_cap = members.len() <= device.max_mps_clients;
                let within_memory = mem <= device.memory_capacity;
                assert_eq!(
                    entry.feasible,
                    within_cap && within_memory,
                    "mask {mask:#b}"
                );
                capped += usize::from(!within_cap);
                over_memory += usize::from(!within_memory);
            }
            if n == EXHAUSTIVE_MAX_N {
                assert!(capped > 0 || case % 2 == 0, "case {case} never hit the cap");
                assert!(over_memory > 0, "case {case} never exceeded memory");
            }
        }
    }

    #[test]
    fn translated_masks_partition_the_new_queue_in_enumeration_order() {
        // Previous queue of 5: groups {0,3}, {1}, {2,4}. Position 1 leaves
        // and an arrival joins at new position 2.
        let mut masks = vec![0b01001, 0b00010, 0b10100];
        masks.reserve(1);
        let remap = |p: usize| match p {
            1 => None,
            2 => Some(1),
            p => Some(p),
        };
        translate_masks(&mut masks, remap, Some(2));
        // {0,3} → {0,3}; {1} gone; {2,4} → {1,4}; arrival {2}.
        assert_eq!(masks, vec![0b01001, 0b10010, 0b00100]);
        // A position beyond 64 bits drops the carried grouping.
        let mut masks = vec![1 << 63];
        translate_masks(&mut masks, |p| Some(p + 1), None);
        assert!(masks.is_empty());
    }

    #[test]
    fn partition_enumeration_counts_bell_numbers() {
        // Bell(4) = 15 set partitions.
        let mut count = 0;
        let mut a = vec![0usize; 4];
        enumerate_partitions(&mut a, 0, 0, &mut |_, _| count += 1);
        assert_eq!(count, 15);
    }

    #[test]
    fn greedy_pairs_low_utilization_first() {
        // Two light, two heavy. Throughput priority (cap 2): the two light
        // ones pair up, the heavies are kept apart (SM sums > 100).
        let profiles = vec![
            profile("light-a", 10.0, 1.0, 2, 10.0),
            profile("heavy-a", 90.0, 10.0, 5, 10.0),
            profile("light-b", 15.0, 1.0, 2, 10.0),
            profile("heavy-b", 85.0, 10.0, 5, 10.0),
        ];
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        // Find the group containing light-a (index 0): must also hold 2.
        let g = plan
            .groups
            .iter()
            .find(|g| g.workflow_indices.contains(&0))
            .unwrap();
        assert!(g.workflow_indices.contains(&2), "groups: {:?}", plan.groups);
        // Heavies never share a group.
        for g in &plan.groups {
            assert!(!(g.workflow_indices.contains(&1) && g.workflow_indices.contains(&3)));
        }
    }

    #[test]
    fn throughput_priority_respects_cardinality_two() {
        let profiles: Vec<WorkflowProfile> = (0..6)
            .map(|i| profile(&format!("w{i}"), 5.0, 0.5, 1, 10.0))
            .collect();
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        assert_eq!(plan.max_cardinality(), 2);
        assert_eq!(plan.groups.len(), 3);
    }

    #[test]
    fn energy_priority_packs_wide() {
        let profiles: Vec<WorkflowProfile> = (0..6)
            .map(|i| profile(&format!("w{i}"), 5.0, 0.5, 1, 10.0))
            .collect();
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        // 6 × 5 % = 30 % SM: all six fit in one group.
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.max_cardinality(), 6);
    }

    #[test]
    fn interference_rule_limits_group_growth() {
        // 40 % each: only two fit under the 100 % rule (3×40 = 120).
        let profiles: Vec<WorkflowProfile> = (0..4)
            .map(|i| profile(&format!("w{i}"), 40.0, 2.0, 1, 10.0))
            .collect();
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        assert_eq!(plan.max_cardinality(), 2);
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn memory_constraint_is_hard() {
        // Two 60 GiB workflows cannot share an 80 GiB device.
        let profiles = vec![
            profile("big-a", 10.0, 1.0, 60, 10.0),
            profile("big-b", 10.0, 1.0, 60, 10.0),
        ];
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        assert_eq!(plan.groups.len(), 2);
        plan.validate(&dev(), &profiles).unwrap();
    }

    #[test]
    fn exhaustive_matches_or_beats_greedy_score() {
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 30.0, 5.0, 4, 8.0),
            profile("c", 55.0, 10.0, 8, 12.0),
            profile("d", 70.0, 20.0, 8, 6.0),
            profile("e", 20.0, 2.0, 2, 9.0),
        ];
        let p = planner(MetricPriority::balanced_product());
        let greedy = p.plan(&profiles, PlannerStrategy::Greedy).unwrap();
        let exhaustive = p.plan(&profiles, PlannerStrategy::Exhaustive).unwrap();
        let gs = p.score_plan(&greedy, &profiles);
        let es = p.score_plan(&exhaustive, &profiles);
        assert!(es >= gs - 1e-9, "exhaustive {es} < greedy {gs}");
        // Greedy honours the paper's soft interference rule (never groups
        // past 100 % combined SM), which the unconstrained exhaustive
        // search may profitably violate on energy-weighted scores — so
        // greedy is bounded away from optimal but must stay in its
        // neighbourhood.
        assert!(gs >= 0.55 * es, "greedy {gs} far from optimal {es}");
    }

    #[test]
    fn exhaustive_rejects_oversized_queues() {
        let profiles: Vec<WorkflowProfile> = (0..13)
            .map(|i| profile(&format!("w{i}"), 5.0, 0.5, 1, 10.0))
            .collect();
        let err = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::Exhaustive)
            .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
    }

    #[test]
    fn plans_validate_against_their_queue() {
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 20.0, 1.0, 2, 10.0),
        ];
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        plan.validate(&dev(), &profiles).unwrap();

        // Tampered plan: duplicate index.
        let mut bad = plan.clone();
        bad.groups[0].workflow_indices = vec![0, 0];
        bad.groups[0].partitions = vec![Fraction::ONE, Fraction::ONE];
        assert!(bad.validate(&dev(), &profiles).is_err());

        // Tampered plan: missing workflow.
        let bad = SchedulePlan {
            groups: vec![PlanGroup {
                workflow_indices: vec![0],
                partitions: vec![Fraction::ONE],
            }],
        };
        assert!(bad.validate(&dev(), &profiles).is_err());
    }

    #[test]
    fn bestfit_accepts_profitable_mild_oversubscription() {
        // Two long mid-utilization workflows whose SM sum (125 %) violates
        // the paper's soft interference rule. The rule leaves them solo;
        // the estimator sees that a 25 % stretch on 100 s of overlap still
        // saves 75 s and pairs them.
        let profiles = vec![
            profile("light-a", 10.0, 1.0, 2, 10.0),
            profile("light-b", 12.0, 1.0, 2, 10.0),
            profile("mid-a", 60.0, 5.0, 8, 100.0),
            profile("mid-b", 65.0, 5.0, 8, 100.0),
        ];
        let p = planner(MetricPriority::balanced_product());
        let greedy = p.plan(&profiles, PlannerStrategy::Greedy).unwrap();
        let bestfit = p.plan(&profiles, PlannerStrategy::BestFit).unwrap();
        bestfit.validate(&dev(), &profiles).unwrap();
        // Greedy keeps the mids apart (60 + 65 > 100).
        for g in &greedy.groups {
            assert!(!(g.workflow_indices.contains(&2) && g.workflow_indices.contains(&3)));
        }
        // Best-fit pairs them and scores strictly higher.
        assert!(bestfit
            .groups
            .iter()
            .any(|g| g.workflow_indices.contains(&2) && g.workflow_indices.contains(&3)));
        let gs = p.score_plan(&greedy, &profiles);
        let bs = p.score_plan(&bestfit, &profiles);
        assert!(bs > gs, "bestfit {bs} !> greedy {gs}");
    }

    #[test]
    fn auto_takes_the_better_of_both() {
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 30.0, 5.0, 4, 8.0),
            profile("c", 55.0, 10.0, 8, 12.0),
            profile("d", 70.0, 20.0, 8, 6.0),
        ];
        let p = planner(MetricPriority::balanced_product());
        let auto = p.plan(&profiles, PlannerStrategy::Auto).unwrap();
        let gs = p.score_plan(
            &p.plan(&profiles, PlannerStrategy::Greedy).unwrap(),
            &profiles,
        );
        let bs = p.score_plan(
            &p.plan(&profiles, PlannerStrategy::BestFit).unwrap(),
            &profiles,
        );
        let auto_score = p.score_plan(&auto, &profiles);
        assert!(auto_score >= gs - 1e-12);
        assert!(auto_score >= bs - 1e-12);
    }

    #[test]
    fn bestfit_respects_hard_memory_constraint() {
        let profiles = vec![
            profile("big-a", 10.0, 1.0, 60, 10.0),
            profile("big-b", 10.0, 1.0, 60, 10.0),
        ];
        let plan = planner(MetricPriority::Energy)
            .plan(&profiles, PlannerStrategy::BestFit)
            .unwrap();
        assert_eq!(plan.groups.len(), 2);
    }

    #[test]
    fn empty_queue_is_an_error() {
        assert!(planner(MetricPriority::Energy)
            .plan(&[], PlannerStrategy::Greedy)
            .is_err());
    }

    /// Non-finite profile metrics used to reach the cap-candidate sort and
    /// panic on `partial_cmp().expect("finite durations")`; they must now
    /// come back as a typed error naming the profile and field.
    #[test]
    fn non_finite_profiles_are_typed_errors_not_panics() {
        // The unit types reject NaN at construction, but infinite
        // durations and NaN plain-f64 fields are constructible and used
        // to reach the sort comparators and panic there.
        for (field, mutate) in [
            (
                "duration",
                Box::new(|p: &mut WorkflowProfile| p.duration = Seconds::new(f64::INFINITY))
                    as Box<dyn Fn(&mut WorkflowProfile)>,
            ),
            (
                "busy_fraction",
                Box::new(|p: &mut WorkflowProfile| p.busy_fraction = f64::NAN),
            ),
        ] {
            let mut profiles = vec![
                profile("a", 10.0, 1.0, 2, 10.0),
                profile("b", 30.0, 5.0, 4, 8.0),
            ];
            mutate(&mut profiles[1]);
            for strategy in [
                PlannerStrategy::Greedy,
                PlannerStrategy::BestFit,
                PlannerStrategy::Auto,
            ] {
                let err = planner(MetricPriority::balanced_product())
                    .plan(&profiles, strategy)
                    .unwrap_err();
                let msg = err.to_string();
                assert!(
                    matches!(err, Error::InvalidConfig(_)),
                    "{strategy:?}: {msg}"
                );
                assert!(
                    msg.contains("profile 1") && msg.contains("b") && msg.contains(field),
                    "{strategy:?}: error must name the profile and field: {msg}"
                );
            }
        }
    }

    /// A device reporting zero MPS client capacity used to panic inside
    /// `cap.clamp(1, 0)`; it must plan (solo groups) or error, never panic.
    #[test]
    fn zero_client_capacity_device_does_not_panic() {
        let mut device = dev();
        device.max_mps_clients = 0;
        let profiles = vec![
            profile("a", 10.0, 1.0, 2, 10.0),
            profile("b", 30.0, 5.0, 4, 8.0),
        ];
        let p = Planner::new(device, MetricPriority::Energy);
        for strategy in [PlannerStrategy::Greedy, PlannerStrategy::BestFit] {
            if let Ok(plan) = p.plan(&profiles, strategy) {
                for g in &plan.groups {
                    assert_eq!(g.workflow_indices.len(), 1, "{strategy:?} grouped anyway");
                }
            }
        }
    }

    #[test]
    fn rightsized_partitions_accompany_groups() {
        let profiles = vec![
            profile("light", 10.0, 1.0, 2, 10.0),
            profile("heavy", 80.0, 5.0, 4, 10.0),
        ];
        let plan = planner(MetricPriority::Throughput)
            .plan(&profiles, PlannerStrategy::Greedy)
            .unwrap();
        for g in &plan.groups {
            assert_eq!(g.partitions.len(), g.workflow_indices.len());
            for p in &g.partitions {
                assert!(p.value() > 0.0 && p.value() <= 1.0);
            }
        }
    }
}
