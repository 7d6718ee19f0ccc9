//! Command-line contract of the two binaries: exit statuses for help and
//! malformed flags, and `validate-obs`'s counter/record agreement check.

use mpshare_obs::{names, MetricsRegistry, ObsRecord, TimelineStore, Track};
use std::path::PathBuf;
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_mpshare-repro");
const SCHED: &str = env!("CARGO_BIN_EXE_mpshare-sched");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for bin in [REPRO, SCHED] {
        for flag in ["-h", "--help"] {
            let out = run(bin, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage: "), "{bin} {flag}: {stdout}");
            assert!(out.stderr.is_empty(), "{bin} {flag} wrote to stderr");
        }
    }
}

#[test]
fn malformed_flags_print_usage_to_stderr_and_exit_two() {
    for (bin, args) in [
        (REPRO, &["--out"][..]),
        (REPRO, &["table1", "table2"][..]),
        (SCHED, &["--gpus", "many"][..]),
        (SCHED, &["queue.json", "--strategy", "best"][..]),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: "), "{bin} {args:?}: {stderr}");
    }
}

/// Writes a hand-built trace with two `engine.run` records and a metrics
/// export whose engine-run counter reads `engine_runs`, then runs
/// `validate-obs` on the pair.
fn validate_obs_with_engine_runs(engine_runs: u64) -> Output {
    let record = |seq, track, name: &str, sim_start, sim_dur| ObsRecord {
        seq,
        track,
        name: name.to_string(),
        sim_start,
        sim_dur,
        payload: serde_json::Value::Null,
    };
    let records = [
        record(0, Track::Planner, "plan", None, None),
        record(1, Track::Scheduler, "sched.dispatch", Some(0.0), None),
        record(2, Track::Daemon, "engine.run", Some(0.0), Some(1.0)),
        record(3, Track::Daemon, "engine.run", Some(0.0), Some(2.0)),
    ];
    let trace = mpshare_obs::perfetto::merged_chrome_trace_with_timelines(
        None,
        &records,
        &TimelineStore::new(),
    );
    let metrics = MetricsRegistry::new();
    metrics.register_defaults();
    metrics.counter_add(names::ENGINE_RUNS, engine_runs);
    metrics.counter_add(names::PLAN_CALLS, 1);

    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("validate-obs-{engine_runs}"));
    std::fs::create_dir_all(&dir).unwrap();
    let (trace_path, metrics_path) = (dir.join("trace.json"), dir.join("metrics.json"));
    std::fs::write(&trace_path, trace).unwrap();
    std::fs::write(
        &metrics_path,
        serde_json::to_string_pretty(&metrics.to_json()).unwrap(),
    )
    .unwrap();
    run(
        REPRO,
        &[
            "validate-obs",
            "--trace-out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ],
    )
}

#[test]
fn validate_obs_accepts_counters_that_match_their_records() {
    let out = validate_obs_with_engine_runs(2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn validate_obs_rejects_a_counter_that_disagrees_with_its_records() {
    let out = validate_obs_with_engine_runs(1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "counter {} = 1, but the trace has 2 engine.run records",
            names::ENGINE_RUNS
        )),
        "{stderr}"
    );
}
