//! Cross-crate observability integration through the facade crate: the
//! recorder must be invisible to simulation results, and — when enabled —
//! must cover every control-plane track and the required metric series.

use mpshare::core::{
    ArrivingWorkflow, ExecutorConfig, MetricPriority, OnlineScheduler, Planner, PlannerStrategy,
};
use mpshare::gpusim::{DeviceSpec, Engine, EngineConfig, SharingMode};
use mpshare::obs;
use mpshare::profiler::ProfileStore;
use mpshare::types::{IdAllocator, Seconds};
use mpshare::workloads::{BenchmarkKind, ProblemSize, WorkflowSpec};

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

fn queue() -> Vec<WorkflowSpec> {
    vec![
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 20),
    ]
}

fn evaluate() -> String {
    let d = device();
    let specs = queue();
    let mut store = ProfileStore::new();
    store.profile_workflows(&d, &specs).unwrap();
    let profiles: Vec<_> = specs
        .iter()
        .map(|w| mpshare::core::workflow_profile(&store, w).unwrap())
        .collect();
    let plan = Planner::new(d.clone(), MetricPriority::Throughput)
        .plan(&profiles, PlannerStrategy::Greedy)
        .unwrap();
    let executor = mpshare::core::Executor::new(ExecutorConfig::new(d));
    let report = executor.evaluate_plan(&specs, &plan).unwrap();
    serde_json::to_string(&report).unwrap()
}

/// The whole enabled-recorder story lives in one test: the global
/// recorder is process-wide, so splitting this into several #[test]
/// functions would race on the enabled flag.
#[test]
fn recording_is_invisible_to_results_and_covers_all_tracks() {
    // 1. Bit-identity: the exact same pipeline, recorded vs. not,
    //    serializes to the same bytes. Recording must observe, never
    //    perturb.
    let silent = evaluate();
    obs::set_enabled(true);
    obs::recorder().drain();
    let recorded = evaluate();
    assert_eq!(
        silent, recorded,
        "enabling the recorder changed simulation results"
    );

    // 2. Exercise the online scheduler so the Scheduler track and
    //    goodput gauge fill in too.
    let run_online = || {
        let d = device();
        let arrivals: Vec<ArrivingWorkflow> = queue()
            .into_iter()
            .map(|spec| ArrivingWorkflow {
                spec,
                arrival: Seconds::ZERO,
            })
            .collect();
        let mut store = ProfileStore::new();
        let specs: Vec<WorkflowSpec> = arrivals.iter().map(|a| a.spec.clone()).collect();
        store.profile_workflows(&d, &specs).unwrap();
        let scheduler = OnlineScheduler::new(
            ExecutorConfig::new(d.clone()),
            Planner::new(d, MetricPriority::balanced_product()),
            PlannerStrategy::Auto,
        );
        scheduler.run(&arrivals, &store).unwrap()
    };
    let outcome = run_online();
    assert!(outcome.goodput > 0.0);

    // 3. Every control-plane track recorded something.
    let records = obs::recorder().drain();
    obs::set_enabled(false);
    for track in [
        obs::Track::Planner,
        obs::Track::Scheduler,
        obs::Track::Daemon,
        obs::Track::Executor,
    ] {
        assert!(
            records.iter().any(|r| r.track == track),
            "no records on the {track:?} track"
        );
    }
    // Plan-search spans carry decision audits.
    assert!(records
        .iter()
        .any(|r| r.name == "plan.candidate" && r.payload.get("accepted").is_some()));
    // The merged trace renders the control tracks under their pids.
    let trace = obs::merged_chrome_trace(None, &records);
    let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    for pid in [3u64, 4, 5, 6] {
        assert!(
            events
                .iter()
                .any(|e| e.get("pid").and_then(|p| p.as_u64()) == Some(pid)),
            "merged trace is missing pid {pid}"
        );
    }

    // 4. The metric families the paper's evaluation needs are populated.
    let metrics = obs::metrics();
    for counter in [
        obs::names::PROFILE_CACHE_HITS,
        obs::names::ENGINE_RUNS,
        obs::names::ENGINE_RATE_SOLVES,
        obs::names::PLAN_CALLS,
        obs::names::PLAN_CANDIDATES,
        obs::names::SCHED_DISPATCHES,
        obs::names::TASKS_COMPLETED,
    ] {
        assert!(
            metrics.counter_get(counter) > 0,
            "counter {counter} never incremented"
        );
    }
    assert!(metrics.gauge_get(obs::names::GOODPUT) > 0.0);
    assert!(metrics.gauge_get(obs::names::ENGINE_SIM_SECONDS) > 0.0);
    // Fault counters exist (zero here: nothing faulted) so dashboards
    // never see a missing series.
    let prom = metrics.to_prometheus();
    assert!(prom.contains(obs::names::FAULTS_INJECTED));
    assert!(prom.contains(obs::names::CLIENTS_FAILED));
    assert!(prom.contains(obs::names::GROUP_MAKESPAN_SECONDS));

    // 5. Timelines: the export is a pure function of the observation
    //    multiset, so the same pipeline run serially and with the
    //    worker pool serializes to byte-identical JSON.
    let timeline_json = |serial: bool| {
        mpshare::par::set_serial(serial);
        obs::set_enabled(true);
        obs::recorder().reset();
        let _ = evaluate();
        let _ = run_online();
        let json = serde_json::to_string(&obs::timelines().to_json()).unwrap();
        obs::set_enabled(false);
        mpshare::par::set_serial(false);
        json
    };
    let parallel = timeline_json(false);
    let serial = timeline_json(true);
    assert_eq!(
        serial, parallel,
        "timeline export depends on the worker schedule"
    );

    // The tracks the report and validate-obs consume are present, with
    // exact quantiles in percentile order.
    let parsed: serde_json::Value = serde_json::from_str(&serial).unwrap();
    let series = parsed.get("series").unwrap();
    for name in [
        obs::series::DEVICE_SM_UTIL,
        obs::series::DEVICE_BW_UTIL,
        obs::series::DEVICE_POWER_W,
        obs::series::SCHED_QUEUE_DEPTH,
    ] {
        assert!(series.get(name).is_some(), "missing timeline series {name}");
    }
    let quantiles = parsed.get("quantiles").unwrap();
    for name in [
        obs::series::SCHED_QUEUE_WAIT,
        obs::series::SCHED_TURNAROUND,
        obs::series::CLIENT_TURNAROUND,
    ] {
        let q = quantiles
            .get(name)
            .unwrap_or_else(|| panic!("missing quantile track {name}"));
        let p = |key: &str| q.get(key).and_then(|v| v.as_f64()).unwrap();
        assert!(
            p("p50") <= p("p90") && p("p90") <= p("p99") && p("p99") <= p("p999"),
            "quantile ordering violated for {name}"
        );
    }
}

#[test]
fn attribution_components_close_the_slowdown_identity() {
    // attribute() needs no recorder: it is a pure function of the run.
    let d = device();
    let mut ids = IdAllocator::new();
    let programs: Vec<_> = queue()
        .iter()
        .map(|w| w.to_client_program(&d, &mut ids).unwrap())
        .collect();
    let config = EngineConfig::new(d, SharingMode::mps_uniform(2)).with_event_log(true);
    let result = Engine::new(config.clone(), programs.clone())
        .unwrap()
        .run()
        .unwrap();
    let report = obs::attribute(&config, &programs, &result).unwrap();
    assert_eq!(report.clients.len(), 2);
    for c in &report.clients {
        assert!(c.exact);
        let total = c.sm_partition + c.bandwidth_contention + c.power_throttle + c.memory_wait;
        assert!(
            (c.excess - total).abs() < 1e-9,
            "client {}: residual {}",
            c.client,
            c.excess - total
        );
    }
}

/// FNV-1a 64 over an export's bytes: the golden pin below compares
/// `(digest, length)` pairs so a rewrite of any exporter must reproduce
/// the exact bytes, not just an equivalent document.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seeded MPS run with an event log, one contained client fault and a
/// later server crash, with labels that need JSON escaping.
fn golden_run() -> mpshare::gpusim::RunResult {
    use mpshare::gpusim::FaultPlan;
    let d = device();
    let mut ids = IdAllocator::new();
    let mut programs: Vec<_> = [
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 6),
        WorkflowSpec::uniform(BenchmarkKind::AthenaPk, ProblemSize::X4, 2),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 6),
        WorkflowSpec::uniform(BenchmarkKind::Kripke, ProblemSize::X1, 6),
    ]
    .iter()
    .map(|w| w.to_client_program(&d, &mut ids).unwrap())
    .collect();
    programs[0].label = "kripke \"x1\"\\\n\ttab\u{1}\u{1f}é→".to_string();
    programs[2].tasks[0].label = "athena\r\u{8}\u{c}/pk".to_string();
    let mut faults = FaultPlan::new();
    faults.push_client_fault(Seconds::new(0.5), 3);
    faults.push_domain_fault(Seconds::new(6.0), 0);
    let config = EngineConfig::new(d, SharingMode::mps_uniform(4))
        .with_event_log(true)
        .with_fault_plan(faults);
    let result = Engine::new(config, programs).unwrap().run().unwrap();
    assert!(result.clients.iter().filter(|c| c.failed).count() >= 2);
    assert!(result
        .events
        .events()
        .iter()
        .any(|e| matches!(e.kind, mpshare::gpusim::EventKind::ServerCrash { .. })));
    result
}

/// Control records covering every shape the merged export renders:
/// simulated-time spans and instants, offline (sequence-timestamped)
/// records, nested and null payloads, and names that need escaping.
fn golden_records() -> Vec<obs::ObsRecord> {
    let record = |seq, track, name: &str, sim_start, sim_dur, payload| obs::ObsRecord {
        seq,
        track,
        name: name.to_string(),
        sim_start,
        sim_dur,
        payload,
    };
    vec![
        record(
            0,
            obs::Track::Planner,
            "plan.candidate",
            None,
            None,
            serde_json::json!({
                "accepted": true,
                "groups": [[0, 2], [1]],
                "score": {"throughput": 1.25, "energy": -0.5, "bound": null},
                "note": "quote \" back\\slash\nnewline",
            }),
        ),
        record(
            1,
            obs::Track::Scheduler,
            "sched.dispatch",
            Some(1.5),
            Some(2.25),
            serde_json::json!({"queue_depth": 3u64, "wait_s": 0.1, "empty": {}, "none": []}),
        ),
        record(
            2,
            obs::Track::Daemon,
            "daemon \"spawn\"\t",
            Some(0.5),
            None,
            serde_json::Value::Null,
        ),
        record(
            3,
            obs::Track::Executor,
            "exec.leg",
            Some(1e-7),
            Some(0.0),
            serde_json::json!([1, -2, 3.5e20, 1e-9, f64::NAN]),
        ),
        record(
            17,
            obs::Track::Planner,
            "plan.offline",
            None,
            Some(0.75),
            serde_json::json!({"nested": {"deeper": {"k": "v"}}}),
        ),
    ]
}

/// A private timeline store fed from the golden run: device and
/// per-client spans, a point series, an all-dropped (empty) series, an
/// escaped series name and exact quantile tracks.
fn golden_timelines(result: &mpshare::gpusim::RunResult) -> obs::TimelineStore {
    let store = obs::TimelineStore::new();
    for s in result.telemetry.segments() {
        let (t, dur) = (s.start.value(), s.duration().value());
        store.series_push_span(obs::series::DEVICE_SM_UTIL, t, dur, s.sm_util);
        store.series_push_span(obs::series::DEVICE_POWER_W, t, dur, s.power.watts());
    }
    for (i, c) in result.clients.iter().enumerate() {
        let start = c.started.value();
        let dur = (c.finished.value() - start).max(0.0);
        store.series_push_span(&obs::series::client(&c.label, "resident"), start, dur, 1.0);
        store.series_push(obs::series::SCHED_QUEUE_DEPTH, start, i as f64);
        if !c.failed {
            store.quantile_observe(obs::series::CLIENT_TURNAROUND, c.finished.value());
        }
        store.quantile_observe("lat \"q\"", c.finished.value() / 3.0);
    }
    store.series_push("nan.only", f64::NAN, 1.0);
    store.quantile_observe("empty.track", f64::INFINITY);
    store
}

fn golden_metrics(result: &mpshare::gpusim::RunResult) -> obs::MetricsRegistry {
    let m = obs::MetricsRegistry::new();
    m.register_defaults();
    m.counter_add(obs::names::ENGINE_RUNS, 1);
    m.counter_add(obs::names::TASKS_COMPLETED, result.tasks_completed as u64);
    m.counter_add(obs::names::TASKS_FAILED, result.tasks_failed as u64);
    m.gauge_add(obs::names::ENGINE_SIM_SECONDS, result.makespan.value());
    m.gauge_set(obs::names::GOODPUT, 1.0 / 3.0);
    m.gauge_set("mpshare_negative_gauge", -2.5e-12);
    for c in &result.clients {
        m.histogram_observe(
            obs::names::GROUP_MAKESPAN_SECONDS,
            &obs::SIM_SECONDS_BUCKETS,
            c.finished.value(),
        );
    }
    m.histogram_observe(obs::names::QUEUE_DEPTH, &obs::DEPTH_BUCKETS, f64::NAN);
    m
}

/// Golden-bytes pin for every export: the merged trace (engine pids 0–2,
/// control tracks, timeline counters), the engine-only trace, the
/// timeline store (compact and pretty), and the metrics registry (JSON
/// and Prometheus). `make trace-smoke` compares two runs of the same
/// build; this pins the bytes across builds, so an exporter rewrite must
/// reproduce them exactly. Uses only private recorders, stores and
/// registries, so it cannot race the global-recorder test above.
#[test]
fn exports_match_golden_bytes() {
    let result = golden_run();
    let records = golden_records();
    let timelines = golden_timelines(&result);
    let metrics = golden_metrics(&result);
    let exports = [
        (
            "merged_chrome_trace_with_timelines",
            obs::perfetto::merged_chrome_trace_with_timelines(Some(&result), &records, &timelines),
        ),
        ("chrome_trace", obs::chrome_trace(&result)),
        (
            "timeline to_string",
            serde_json::to_string(&timelines.to_json()).unwrap(),
        ),
        (
            "timeline to_string_pretty",
            serde_json::to_string_pretty(&timelines.to_json()).unwrap(),
        ),
        (
            "metrics to_string_pretty",
            serde_json::to_string_pretty(&metrics.to_json()).unwrap(),
        ),
        ("metrics to_prometheus", metrics.to_prometheus()),
    ];
    let got: Vec<(&str, u64, usize)> = exports
        .iter()
        .map(|(name, doc)| (*name, fnv1a(doc.as_bytes()), doc.len()))
        .collect();
    let pinned: [(&str, u64, usize); 6] = [
        (
            "merged_chrome_trace_with_timelines",
            0xd068467fe534efe4,
            31209,
        ),
        ("chrome_trace", 0x0ca16a51fd9f723f, 20937),
        ("timeline to_string", 0x893f6d474b0b267f, 5929),
        ("timeline to_string_pretty", 0xc49c22557e441b83, 12088),
        ("metrics to_string_pretty", 0x0dad7fa86791a39d, 3479),
        ("metrics to_prometheus", 0x375cb62ff75d8137, 4864),
    ];
    assert_eq!(got, pinned);
}
