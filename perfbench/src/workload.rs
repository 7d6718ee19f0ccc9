//! The four workloads: seeded inputs, and one queue through the program's
//! public API with every output checked.

use crate::stats::{mix, Fnv};
use crate::trace::Tracer;
use mpshare_core::{
    workflow_profile, ArrivingWorkflow, EvaluationReport, Executor, ExecutorConfig, MetricPriority,
    OnlineFaultModel, OnlineOutcome, OnlineScheduler, Planner, PlannerStrategy, RecoveryPolicy,
    SchedulePlan, WorkflowProfile,
};
use mpshare_gpusim::DeviceSpec;
use mpshare_profiler::ProfileStore;
use mpshare_types::Seconds;
use mpshare_workloads::{QueueGenerator, WorkflowSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanExhaustive,
    ScheduleQueue,
    OnlineFaults,
    OnlineObserved,
}

/// Workflows per batch queue in `plan_exhaustive` (the planner's
/// exhaustive limit) and `schedule_queue`.
const EXHAUSTIVE_WORKFLOWS: usize = 12;
const SCHEDULE_WORKFLOWS: usize = 32;
/// Solo-duration band of the `plan_exhaustive` generator, seconds. Short
/// workflows keep evaluation cheap, so the planner dominates; below ~20 s
/// per-queue planning times spread so widely around their median that it
/// moved ~20 % between seeds.
const EXHAUSTIVE_BAND: (f64, f64) = (20.0, 120.0);
/// Workflows per arrival stream (fewer when every stream is recorded and
/// exported), the inter-arrival range (simulated s) and the per-member
/// fault probability of the online workloads.
const STREAM_WORKFLOWS: usize = 48;
const OBSERVED_STREAM_WORKFLOWS: usize = 12;
const INTER_ARRIVAL_S: f64 = 60.0;
const FAULT_RATE: f64 = 0.05;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PlanExhaustive,
        Workload::ScheduleQueue,
        Workload::OnlineFaults,
        Workload::OnlineObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanExhaustive => "plan_exhaustive",
            Workload::ScheduleQueue => "schedule_queue",
            Workload::OnlineFaults => "online_faults",
            Workload::OnlineObserved => "online_observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct queues generated per seed. The timed loop walks them in
    /// order and wraps around only if a run outlasts them, so a run
    /// measures as many different queues as it has time for.
    pub fn pool_size(self) -> usize {
        match self {
            Workload::PlanExhaustive => 1024,
            Workload::ScheduleQueue => 1536,
            Workload::OnlineFaults => 512,
            Workload::OnlineObserved => 64,
        }
    }

    /// The first queues of the pool, over which the `sim_*` metrics and
    /// the digest are taken. Each is run whether or not the timed loop
    /// reached it, so these do not depend on how fast the host is.
    pub fn checked_queues(self) -> usize {
        match self {
            Workload::PlanExhaustive => 64,
            Workload::ScheduleQueue => 48,
            Workload::OnlineFaults | Workload::OnlineObserved => 32,
        }
    }

    /// The tail percentile reported as `queue_ms_tail`. It leaves at
    /// least ten queues beyond it in a 20-s run on a 2-vCPU host, but sits
    /// below the highest such percentile where that one was not steady
    /// across seeds and runs (see README.md, "End-to-end metrics").
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ScheduleQueue | Workload::OnlineFaults => 90.0,
            Workload::PlanExhaustive | Workload::OnlineObserved => 75.0,
        }
    }

    pub fn is_online(self) -> bool {
        matches!(self, Workload::OnlineFaults | Workload::OnlineObserved)
    }

    /// The generator parameters, printed with every result.
    pub fn params(self) -> String {
        match self {
            Workload::PlanExhaustive => format!(
                "QueueGenerator default mix, {EXHAUSTIVE_WORKFLOWS} workflows, band {EXHAUSTIVE_BAND:?} s; \
                 Planner::plan(Exhaustive, balanced_product) + Executor::evaluate_plan"
            ),
            Workload::ScheduleQueue => format!(
                "QueueGenerator default mix and band, {SCHEDULE_WORKFLOWS} workflows; \
                 store pass + workflow_profile + Planner::plan(Auto, balanced_product) + Executor::evaluate_plan"
            ),
            Workload::OnlineFaults | Workload::OnlineObserved => format!(
                "QueueGenerator default band, Epsilon and WarpX weight 0, {} workflows, \
                 inter-arrival U(0,{INTER_ARRIVAL_S}) sim s; OnlineScheduler::run_with_recovery(Auto), \
                 fault rate {FAULT_RATE}, default RecoveryPolicy{}",
                if self == Workload::OnlineObserved {
                    OBSERVED_STREAM_WORKFLOWS
                } else {
                    STREAM_WORKFLOWS
                },
                if self == Workload::OnlineObserved {
                    "; obs on, full export and reset per stream"
                } else {
                    ""
                }
            ),
        }
    }

    /// Queue `index` of the pool drawn from `seed`.
    pub fn generate(self, seed: u64, index: usize) -> Queue {
        let queue_seed = mix(seed, index as u64);
        let mut generator = QueueGenerator::new(queue_seed);
        match self {
            Workload::PlanExhaustive => {
                generator.duration_band = EXHAUSTIVE_BAND;
                Queue::Batch(generator.sample_queue(EXHAUSTIVE_WORKFLOWS))
            }
            Workload::ScheduleQueue => Queue::Batch(generator.sample_queue(SCHEDULE_WORKFLOWS)),
            Workload::OnlineFaults | Workload::OnlineObserved => {
                // As in the ext_online experiment: Epsilon's hour-long
                // tasks and WarpX's 60 GiB footprints would dominate.
                generator.weights[1] = 0.0;
                generator.weights[6] = 0.0;
                let mut rng = StdRng::seed_from_u64(mix(queue_seed, 1));
                let mut now = 0.0;
                let workflows = match self {
                    Workload::OnlineObserved => OBSERVED_STREAM_WORKFLOWS,
                    _ => STREAM_WORKFLOWS,
                };
                let arrivals = (0..workflows)
                    .map(|_| {
                        let arrival = ArrivingWorkflow {
                            spec: generator.sample_workflow(),
                            arrival: Seconds::new(now),
                        };
                        now += rng.random_range(0.0..INTER_ARRIVAL_S);
                        arrival
                    })
                    .collect();
                let faults = OnlineFaultModel::new(mix(queue_seed, 2), FAULT_RATE)
                    .expect("the fault rate is a valid probability");
                Queue::Stream { arrivals, faults }
            }
        }
    }
}

/// One seeded input: a batch queue or an arrival stream.
#[derive(Debug, Clone)]
pub enum Queue {
    Batch(Vec<WorkflowSpec>),
    Stream {
        arrivals: Vec<ArrivingWorkflow>,
        faults: OnlineFaultModel,
    },
}

impl Queue {
    pub fn specs(&self) -> Vec<WorkflowSpec> {
        match self {
            Queue::Batch(specs) => specs.clone(),
            Queue::Stream { arrivals, .. } => arrivals.iter().map(|a| a.spec.clone()).collect(),
        }
    }
}

/// What a queue produced, reduced to what the metrics and checks need.
#[derive(Debug, Clone, Default)]
pub struct QueueOut {
    /// Digest of every simulated output (plans, times, energies as bits).
    pub digest: u64,
    /// Digest of the exported observability documents (`online_observed`).
    pub obs_digest: u64,
    /// Simulated GPU seconds of every schedule simulated for this queue.
    pub sim_s: f64,
    /// Tasks completed across every schedule simulated for this queue.
    pub sim_tasks: usize,
    /// Makespan and energy of the shared schedule or the online run.
    pub makespan: f64,
    pub energy: f64,
    /// The sequential baseline's `(makespan, energy)`: the sequential leg
    /// of a batch evaluation, or the FIFO dispatcher on a stream.
    pub baseline: (f64, f64),
    /// Groups in the batch plan.
    pub groups: usize,
    /// The online outcome, kept for the traced replay and the baseline.
    pub online: Option<OnlineOutcome>,
    pub export: ExportStats,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ExportStats {
    pub bytes: usize,
    pub records: usize,
    pub dropped: u64,
}

/// The program under test, configured once per process.
pub struct Bench {
    pub workload: Workload,
    pub device: DeviceSpec,
    pub planner: Planner,
    pub executor: Executor,
    pub scheduler: OnlineScheduler,
    pub policy: RecoveryPolicy,
}

impl Bench {
    pub fn new(workload: Workload) -> Self {
        let device = DeviceSpec::a100x();
        let planner = Planner::new(device.clone(), MetricPriority::balanced_product());
        let config = ExecutorConfig::new(device.clone());
        Bench {
            workload,
            executor: Executor::new(config.clone()),
            scheduler: OnlineScheduler::new(config, planner.clone(), PlannerStrategy::Auto),
            planner,
            device,
            policy: RecoveryPolicy::default(),
        }
    }

    fn strategy(&self) -> PlannerStrategy {
        match self.workload {
            Workload::PlanExhaustive => PlannerStrategy::Exhaustive,
            _ => PlannerStrategy::Auto,
        }
    }

    /// The offline profiling pass over every queue of the pool; it fills
    /// the process-wide profile cache.
    pub fn profile_pool(&self, pool: &[Queue]) -> Result<(), String> {
        let mut store = ProfileStore::new();
        for queue in pool {
            store
                .profile_workflows(&self.device, &queue.specs())
                .map_err(|e| format!("profile_workflows: {e}"))?;
        }
        Ok(())
    }

    /// Runs one queue end to end and checks its outputs.
    pub fn run_queue(
        &self,
        queue: &Queue,
        req: u64,
        tracer: &mut Tracer,
    ) -> Result<QueueOut, String> {
        tracer.span("queue", req, |t| match queue {
            Queue::Batch(specs) => self.run_batch(specs, req, t),
            Queue::Stream { arrivals, faults } => self.run_stream(arrivals, faults, req, t),
        })
    }

    /// A profile store for `specs`, as each caller of the scheduler builds
    /// one; its entries come from the warm process-wide cache.
    pub fn store_for(&self, specs: &[WorkflowSpec]) -> Result<ProfileStore, String> {
        let mut store = ProfileStore::new();
        store
            .profile_workflows(&self.device, specs)
            .map_err(|e| format!("profile_workflows: {e}"))?;
        Ok(store)
    }

    fn run_batch(
        &self,
        specs: &[WorkflowSpec],
        req: u64,
        t: &mut Tracer,
    ) -> Result<QueueOut, String> {
        let profiles: Vec<WorkflowProfile> = t.span("profiler.lookup", req, |_| {
            let store = self.store_for(specs)?;
            specs
                .iter()
                .map(|w| workflow_profile(&store, w).map_err(|e| format!("workflow_profile: {e}")))
                .collect::<Result<_, String>>()
        })?;
        let plan = t
            .span("planner.plan", req, |_| {
                self.planner.plan(&profiles, self.strategy())
            })
            .map_err(|e| format!("Planner::plan: {e}"))?;
        let report = t
            .span("executor.evaluate_plan", req, |_| {
                self.executor.evaluate_plan(specs, &plan)
            })
            .map_err(|e| format!("Executor::evaluate_plan: {e}"))?;
        t.span("check", req, |_| {
            check_batch(&self.device, specs, &profiles, &plan, &report)
        })
    }

    fn run_stream(
        &self,
        arrivals: &[ArrivingWorkflow],
        faults: &OnlineFaultModel,
        req: u64,
        t: &mut Tracer,
    ) -> Result<QueueOut, String> {
        let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
        let store = t.span("profiler.lookup", req, |_| self.store_for(&specs))?;
        let observed = self.workload == Workload::OnlineObserved;
        if observed {
            mpshare_obs::set_enabled(true);
        }
        let outcome = t.span("online.run_with_recovery", req, |_| {
            self.scheduler
                .run_with_recovery(arrivals, &store, Some(faults), &self.policy)
        });
        let export = if observed {
            let export = t.span("obs.export", req, |t| export_obs(req, t));
            t.span("obs.reset", req, |_| {
                mpshare_obs::recorder().reset();
                mpshare_obs::set_enabled(false);
            });
            Some(export)
        } else {
            None
        };
        let outcome = outcome.map_err(|e| format!("OnlineScheduler::run_with_recovery: {e}"))?;
        t.span("check", req, |_| {
            let mut out = check_stream(&self.device, arrivals, &outcome)?;
            if let Some((stats, docs)) = export {
                out.export = stats;
                out.obs_digest = obs_digest(&docs);
            }
            out.online = Some(outcome.clone());
            Ok(out)
        })
    }

    /// Runs a stream with recording off and returns the host time of the
    /// `run_with_recovery` call in ms: what the observed call costs
    /// without the recorder.
    pub fn run_unobserved(&self, queue: &Queue) -> Result<f64, String> {
        let Queue::Stream { arrivals, faults } = queue else {
            return Err("only streams run through the online scheduler".into());
        };
        let store = self.store_for(&queue.specs())?;
        let start = std::time::Instant::now();
        self.scheduler
            .run_with_recovery(arrivals, &store, Some(faults), &self.policy)
            .map_err(|e| format!("OnlineScheduler::run_with_recovery: {e}"))?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    /// The online workloads' sequential baseline: the FIFO dispatcher on
    /// the same stream, as the ext_online experiment compares against.
    /// Returns `(makespan, energy)` in simulated seconds and joules.
    pub fn fifo_baseline(&self, queue: &Queue) -> Result<(f64, f64), String> {
        let Queue::Stream { arrivals, .. } = queue else {
            return Err("the FIFO baseline applies to arrival streams".into());
        };
        let store = self.store_for(&queue.specs())?;
        let fifo = self
            .scheduler
            .run_fifo(arrivals, &store)
            .map_err(|e| format!("OnlineScheduler::run_fifo: {e}"))?;
        let tasks: usize = arrivals.iter().map(|a| a.spec.task_count()).sum();
        if fifo.tasks != tasks {
            return Err(format!(
                "FIFO baseline completed {} of {tasks} tasks",
                fifo.tasks
            ));
        }
        Ok((fifo.makespan.value(), fifo.energy.joules()))
    }
}

/// Exports metrics (JSON and Prometheus), the timeline and the merged
/// Perfetto trace to memory, as a recording run ends.
fn export_obs(req: u64, t: &mut Tracer) -> (ExportStats, [String; 4]) {
    let records = t.span("obs.drain", req, |_| mpshare_obs::recorder().drain());
    let timelines = mpshare_obs::timelines();
    let docs = [
        t.span("obs.metrics_json", req, |_| {
            serde_json::to_string(&mpshare_obs::metrics().to_json())
                .expect("metrics export is JSON")
        }),
        t.span("obs.prometheus", req, |_| {
            mpshare_obs::metrics().to_prometheus()
        }),
        t.span("obs.timeline_json", req, |_| {
            serde_json::to_string(&timelines.to_json()).expect("timeline export is JSON")
        }),
        t.span("obs.merged_trace", req, |_| {
            mpshare_obs::perfetto::merged_chrome_trace_with_timelines(None, &records, timelines)
        }),
    ];
    let series_drops: u64 = timelines
        .series_names()
        .iter()
        .filter_map(|name| timelines.with_series(name, |s| s.dropped()))
        .sum();
    let quantile_drops: u64 = timelines
        .quantile_names()
        .iter()
        .filter_map(|name| timelines.with_quantiles(name, |q| q.dropped()))
        .sum();
    let stats = ExportStats {
        bytes: docs.iter().map(String::len).sum(),
        records: records.len(),
        dropped: mpshare_obs::recorder().dropped()
            + series_drops
            + quantile_drops
            + timelines.dropped_names(),
    };
    (stats, docs)
}

/// Digest of the exported documents. The merged trace orders control
/// records by recorder sequence number, which the planner's parallel cap
/// sweep makes depend on thread timing; it is byte-stable only under
/// serial fan-out, so it enters the digest by length.
fn obs_digest(docs: &[String; 4]) -> u64 {
    let mut digest = Fnv::default();
    for doc in &docs[..3] {
        digest.bytes(doc.as_bytes());
    }
    digest.u64(docs[3].len() as u64);
    digest.finish()
}

fn digest_plan(digest: &mut Fnv, plan: &SchedulePlan) {
    digest.u64(plan.groups.len() as u64);
    for group in &plan.groups {
        digest.u64(group.workflow_indices.len() as u64);
        for (&w, p) in group.workflow_indices.iter().zip(&group.partitions) {
            digest.u64(w as u64);
            digest.f64(p.value());
        }
    }
}

fn check_batch(
    device: &DeviceSpec,
    specs: &[WorkflowSpec],
    profiles: &[WorkflowProfile],
    plan: &SchedulePlan,
    report: &EvaluationReport,
) -> Result<QueueOut, String> {
    plan.validate(device, profiles)
        .map_err(|e| format!("SchedulePlan::validate: {e}"))?;
    let tasks: usize = specs.iter().map(WorkflowSpec::task_count).sum();
    if report.shared.tasks != tasks || report.sequential.tasks != tasks {
        return Err(format!(
            "tasks not conserved: queue {tasks}, shared {}, sequential {}",
            report.shared.tasks, report.sequential.tasks
        ));
    }
    if report.latencies.len() != specs.len() {
        return Err(format!(
            "{} latencies for {} workflows",
            report.latencies.len(),
            specs.len()
        ));
    }
    let (shared, seq) = (&report.shared, &report.sequential);
    let finite = [
        shared.makespan.value(),
        seq.makespan.value(),
        shared.energy.joules(),
        seq.energy.joules(),
    ];
    if finite.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return Err(format!("non-positive makespan or energy: {finite:?}"));
    }
    let mut digest = Fnv::default();
    digest_plan(&mut digest, plan);
    for v in finite {
        digest.f64(v);
    }
    digest.f64(report.metrics.throughput_gain);
    digest.f64(report.metrics.energy_efficiency_gain);
    for l in &report.latencies {
        digest.u64(l.workflow as u64);
        digest.f64(l.turnaround.value());
    }
    Ok(QueueOut {
        digest: digest.finish(),
        sim_s: shared.makespan.value() + seq.makespan.value(),
        sim_tasks: shared.tasks + seq.tasks,
        makespan: shared.makespan.value(),
        energy: shared.energy.joules(),
        baseline: (seq.makespan.value(), seq.energy.joules()),
        groups: plan.groups.len(),
        ..QueueOut::default()
    })
}

fn check_stream(
    device: &DeviceSpec,
    arrivals: &[ArrivingWorkflow],
    outcome: &OnlineOutcome,
) -> Result<QueueOut, String> {
    let n = arrivals.len();
    let abandoned = &outcome.failed_workflows;
    if abandoned.iter().any(|&w| w >= n) || abandoned.windows(2).any(|p| p[0] >= p[1]) {
        return Err(format!("malformed abandoned list {abandoned:?}"));
    }
    let expected: usize = (0..n)
        .filter(|w| abandoned.binary_search(w).is_err())
        .map(|w| arrivals[w].spec.task_count())
        .sum();
    if outcome.tasks != expected {
        return Err(format!(
            "tasks not conserved: {} completed, {expected} expected with {} abandoned",
            outcome.tasks,
            abandoned.len()
        ));
    }
    // Every dispatch is a valid MPS group, dispatches never overlap, no
    // workflow starts before it arrives, and every workflow is dispatched.
    let mut dispatched = vec![false; n];
    let mut free_at = 0.0f64;
    for d in &outcome.decisions {
        let (at, dur) = (d.at.value(), d.duration.value());
        if d.workflows.is_empty()
            || d.workflows.len() > device.max_mps_clients
            || d.workflows.iter().any(|&w| w >= n)
            || !(at >= free_at && dur > 0.0 && dur.is_finite())
        {
            return Err(format!("invalid dispatch {d:?} (GPU free at {free_at})"));
        }
        for &w in &d.workflows {
            if arrivals[w].arrival.value() > at {
                return Err(format!("workflow {w} dispatched before it arrived"));
            }
            dispatched[w] = true;
        }
        free_at = at + dur;
    }
    if let Some(w) = dispatched.iter().position(|&d| !d) {
        return Err(format!("workflow {w} never dispatched"));
    }
    let makespan = outcome.makespan.value();
    if makespan != free_at || !outcome.energy.joules().is_finite() || outcome.energy.joules() <= 0.0
    {
        return Err(format!(
            "makespan {makespan} != last dispatch end {free_at}"
        ));
    }
    let mut digest = Fnv::default();
    for d in &outcome.decisions {
        digest.f64(d.at.value());
        digest.f64(d.duration.value());
        digest.u64(d.workflows.len() as u64);
        for &w in &d.workflows {
            digest.u64(w as u64);
        }
    }
    for v in [
        makespan,
        outcome.energy.joules(),
        outcome.mean_wait.value(),
        outcome.wasted_energy.joules(),
        outcome.goodput,
    ] {
        digest.f64(v);
    }
    for v in [outcome.tasks, outcome.retries, outcome.faults] {
        digest.u64(v as u64);
    }
    for &w in abandoned {
        digest.u64(w as u64);
    }
    Ok(QueueOut {
        digest: digest.finish(),
        sim_s: outcome.decisions.iter().map(|d| d.duration.value()).sum(),
        sim_tasks: outcome.tasks,
        makespan,
        energy: outcome.energy.joules(),
        ..QueueOut::default()
    })
}
