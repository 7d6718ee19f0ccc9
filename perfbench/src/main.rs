//! `mpshare-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --check --workload NAME
//! ```
//!
//! One process, one caller thread, closed loop: the next queue is
//! submitted only when the previous one was planned, simulated and
//! checked. Timed work runs with serial fan-out and host times are scaled
//! by a calibrated host slowdown (see `calib.rs`). With `--trace 0` the
//! last line of stdout holds the end-to-end metrics; with `--trace 1` it
//! holds the per-layer metrics of a separate traced run. `--check` runs
//! the held-out seed and compares parallel, serial and repeated runs
//! without timing anything. See `perfbench/README.md`.

mod calib;
mod replay;
mod stats;
mod trace;
mod workload;

use calib::{Calibration, REFERENCE_MS};
use stats::{geomean, mean, median, percentile, Fnv};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Bench, Queue, QueueOut, Workload};

/// The seed kept out of tuning and used only by `--check`.
const HELD_OUT_SEED: u64 = 0x5eed_0ff5_e7c0_ffee;
/// The warm-up queue comes from its own fixed seed, so set-up does the
/// same work whatever `--seed` is.
const WARMUP_SEED: u64 = 0x0057_a27e;
/// Set-up is repeated in this many fresh processes, besides the run's own.
const SETUP_PROBES: usize = 9;
/// Calibration samples taken right after each set-up to scale it.
const SETUP_CALIBRATION: usize = 5;
/// Leading queues re-run with parallel fan-out after the timed loop; their
/// digests must equal the serial ones.
const PARALLEL_CHECK_QUEUES: usize = 4;

/// Deliberately left out of the benchmark, printed with every result.
const NOTES: [&str; 3] = [
    "time-slicing is out: run_timesliced takes ~390 ms against ~3 ms for MPS on the same \
     8-workflow queue, so any workload with it is bound by time-slicing; its only targeted \
     optimisation (macro-stepping) is parked",
    "`mpshare-repro all` and the fuzz campaign are out: harness paths that mostly run the \
     same layers",
    "Exhaustive returns InvalidConfig above 12 pending workflows, so both online workloads \
     plan with Auto",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_probe: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10, false);
    let (mut setup_probe, mut check) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            "--check" => check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = match (seed, check) {
        (_, true) => HELD_OUT_SEED,
        (Some(seed), false) => seed,
        (None, false) => return Err("--seed is required".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_probe,
        check,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!(
                "usage: mpshare-perfbench --workload {} --seed N [--seconds S] [--trace 0|1] | --check --workload NAME",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Timed work runs with serial fan-out (see README.md, "Host speed").
    mpshare_par::set_serial(!args.check);
    let result = if args.setup_probe {
        prepare(args.workload, args.seed, process_start).map(|p| {
            let unit_ms = Calibration::new().burst(SETUP_CALIBRATION);
            println!("setup_s {}", p.setup_s * REFERENCE_MS / unit_ms);
        })
    } else if args.check {
        check(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The program configured, the inputs generated and profiled, and one
/// warm-up queue run.
struct Prepared {
    bench: Bench,
    pool: Vec<Queue>,
    gen_ms: f64,
    profile_ms: f64,
    setup_s: f64,
}

fn prepare(workload: Workload, seed: u64, start: Instant) -> Result<Prepared, String> {
    let bench = Bench::new(workload);
    let t = Instant::now();
    let pool: Vec<Queue> = (0..workload.pool_size())
        .map(|i| workload.generate(seed, i))
        .collect();
    let gen_ms = ms_since(t);
    let t = Instant::now();
    bench.profile_pool(&pool)?;
    let profile_ms = ms_since(t);
    let warmup = workload.generate(WARMUP_SEED, 0);
    bench.run_queue(&warmup, 0, &mut Tracer::new(start))?;
    Ok(Prepared {
        bench,
        pool,
        gen_ms,
        profile_ms,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up time of `SETUP_PROBES` fresh processes of this binary, each
/// scaled by its own calibration.
fn probe_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("running the set-up probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), stdout.trim().strip_prefix("setup_s ")) {
                (true, Some(v)) => v
                    .parse()
                    .map_err(|e| format!("set-up probe output {v}: {e}")),
                _ => Err(format!("set-up probe failed ({}): {stdout}", out.status)),
            }
        })
        .collect()
}

/// Per-pool-queue state: the first output seen, which every later run of
/// the same queue must reproduce.
struct Ledger {
    first: Vec<Option<QueueOut>>,
    checked: usize,
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    fn new(pool: usize, checked: usize) -> Self {
        Ledger {
            first: vec![None; pool],
            checked,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Outputs of the checked queues that passed.
    fn checked_outputs(&self) -> impl Iterator<Item = &QueueOut> {
        self.first[..self.checked].iter().flatten()
    }

    /// Records one run of queue `q`; returns its output when it passed.
    fn record(
        &mut self,
        q: usize,
        what: &str,
        result: Result<QueueOut, String>,
    ) -> Option<QueueOut> {
        self.attempted += 1;
        let out = match result {
            Ok(out) => out,
            Err(err) => {
                self.failures.push(format!("queue {q} ({what}): {err}"));
                return None;
            }
        };
        match &self.first[q] {
            None => self.first[q] = Some(out.clone()),
            Some(first) if first.digest != out.digest || first.obs_digest != out.obs_digest => {
                self.failures.push(format!(
                    "queue {q} ({what}): digest {:016x}/{:016x} differs from first run {:016x}/{:016x}",
                    out.digest, out.obs_digest, first.digest, first.obs_digest
                ));
                return None;
            }
            Some(_) => {}
        }
        Some(out)
    }

    fn pool_digest(&self) -> u64 {
        let mut digest = Fnv::default();
        for out in self.checked_outputs() {
            digest.u64(out.digest);
        }
        digest.finish()
    }
}

/// Host timings of the timed loop.
#[derive(Default)]
struct Timed {
    queue_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// Simulated seconds per host second of each untraced queue.
    sim_rates: Vec<f64>,
    loop_s: f64,
    /// `online_observed` traced visits: the same stream run unobserved.
    unobserved_ms: Vec<f64>,
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let mut setups = probe_setups(args)?;
    let own_start = Instant::now();
    let prepared = prepare(workload, args.seed, own_start)?;
    let mut calib = Calibration::new();
    setups.push(prepared.setup_s * REFERENCE_MS / calib.burst(SETUP_CALIBRATION));
    let Prepared { bench, pool, .. } = &prepared;

    let mut tracer = Tracer::new(own_start);
    let mut ledger = Ledger::new(pool.len(), workload.checked_queues());
    let mut timed = Timed::default();
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs(args.seconds);
    let mut visit = 0usize;
    while visit == 0 || Instant::now() < deadline {
        calib.maybe_sample();
        // A traced run visits each queue twice, once traced, so the
        // tracing overhead is measured on the same queues; which visit is
        // traced alternates between queues.
        let q = if args.trace { visit / 2 } else { visit } % pool.len();
        let traced = args.trace && visit.is_multiple_of(2) != (q % 2 == 1);
        tracer.set_enabled(traced);
        let t = Instant::now();
        let result = bench.run_queue(&pool[q], q as u64, &mut tracer);
        let elapsed = t.elapsed().as_secs_f64();
        if let Some(out) = ledger.record(q, "timed", result) {
            if !traced {
                timed.sim_rates.push(out.sim_s / elapsed);
            }
        }
        if traced {
            timed.traced_ms.push(elapsed * 1e3);
            if workload == Workload::OnlineObserved {
                // The same stream with recording off: the difference is
                // what recording costs the scheduler.
                match bench.run_unobserved(&pool[q]) {
                    Ok(ms) => timed.unobserved_ms.push(ms),
                    Err(err) => ledger
                        .failures
                        .push(format!("queue {q} (unobserved): {err}")),
                }
            }
        } else {
            timed.queue_ms.push(elapsed * 1e3);
        }
        visit += 1;
    }
    timed.loop_s = loop_start.elapsed().as_secs_f64();
    tracer.set_enabled(false);
    let peak_rss = stats::peak_rss_mib();

    let replays = finish_pool(bench, pool, &mut ledger, &mut tracer, args.trace);
    parallel_check(bench, pool, &mut ledger);
    let digest = ledger.pool_digest();
    let correct = ledger.failures.is_empty();

    print_context(args, &prepared, &ledger, &setups, &calib, digest);
    for failure in &ledger.failures {
        eprintln!("FAILED {failure}");
    }
    let metrics = if args.trace {
        per_layer(
            args,
            &prepared,
            &ledger,
            &timed,
            &tracer,
            &replays,
            calib.slowdown(),
        )
    } else {
        end_to_end(args, &ledger, &timed, &setups, peak_rss, calib.slowdown())
    };
    for m in &metrics {
        println!("metric {} = {} {}{}", m.name, m.value, m.unit, m.note);
    }
    write_spans(args, &tracer)?;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ledger.attempted,
        ledger.failures.len(),
        body.join(",")
    );
    if correct {
        Ok(())
    } else {
        Err(format!("{} output check(s) failed", ledger.failures.len()))
    }
}

/// After the timed loop: runs any checked queue the loop did not reach,
/// adds the FIFO baseline to each checked stream, and (traced) replays
/// each checked stream.
fn finish_pool(
    bench: &Bench,
    pool: &[Queue],
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    trace: bool,
) -> Vec<replay::ReplayStats> {
    let mut replays = Vec::new();
    for (q, queue) in pool.iter().enumerate().take(ledger.checked) {
        if ledger.first[q].is_none() {
            let result = bench.run_queue(queue, q as u64, tracer);
            ledger.record(q, "pool", result);
        }
        let Queue::Stream { arrivals, faults } = queue else {
            continue;
        };
        ledger.attempted += 1;
        match bench.fifo_baseline(queue) {
            Ok(base) => {
                if let Some(out) = ledger.first[q].as_mut() {
                    out.baseline = base;
                }
            }
            Err(err) => ledger.failures.push(format!("queue {q} (baseline): {err}")),
        }
        let recorded = ledger.first[q].as_ref().and_then(|o| o.online.clone());
        if let (true, Some(recorded)) = (trace, recorded) {
            ledger.attempted += 1;
            tracer.set_enabled(true);
            let result = tracer.span("replay", q as u64, |t| {
                replay::replay(bench, arrivals, faults, &recorded, q as u64, t)
            });
            tracer.set_enabled(false);
            match result {
                Ok(stats) => replays.push(stats),
                Err(err) => ledger.failures.push(format!("queue {q} (replay): {err}")),
            }
        }
    }
    replays
}

/// Re-runs the first queues with parallel fan-out; a digest that differs
/// from the serial run's is recorded as a failure.
fn parallel_check(bench: &Bench, pool: &[Queue], ledger: &mut Ledger) {
    mpshare_par::set_serial(false);
    let mut off = Tracer::new(Instant::now());
    for (q, queue) in pool.iter().enumerate().take(PARALLEL_CHECK_QUEUES) {
        let result = bench.run_queue(queue, q as u64, &mut off);
        ledger.record(q, "parallel", result);
    }
    mpshare_par::set_serial(true);
}

/// `--check`: the held-out seed, the checked queues run in parallel,
/// then serially, then in parallel again, with every digest compared and
/// each online stream replayed. Nothing is timed.
fn check(args: &Args) -> Result<(), String> {
    let prepared = prepare(args.workload, args.seed, Instant::now())?;
    let Prepared { bench, pool, .. } = &prepared;
    let mut ledger = Ledger::new(pool.len(), args.workload.checked_queues());
    let mut tracer = Tracer::new(Instant::now());
    for serial in [false, true, false] {
        mpshare_par::set_serial(serial);
        for (q, queue) in pool.iter().enumerate().take(ledger.checked) {
            let result = bench.run_queue(queue, q as u64, &mut tracer);
            ledger.record(q, if serial { "serial" } else { "parallel" }, result);
        }
    }
    mpshare_par::set_serial(false);
    finish_pool(bench, pool, &mut ledger, &mut tracer, true);
    for failure in &ledger.failures {
        eprintln!("FAILED {failure}");
    }
    println!(
        "digest {} seed={} {:016x}",
        args.workload.name(),
        args.seed,
        ledger.pool_digest()
    );
    if ledger.failures.is_empty() {
        println!("check ok: {} queue runs agree", ledger.attempted);
        Ok(())
    } else {
        Err(format!("{} check(s) failed", ledger.failures.len()))
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// JSON has no NaN or infinity; a metric that is not finite reads 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// End-to-end metrics. Host times are scaled by the run's calibrated
/// `slowdown`; the measured values are printed beside them. The queue
/// tail is printed but not returned: on this host it was not steady
/// enough across runs to gate on (see README.md).
fn end_to_end(
    args: &Args,
    ledger: &Ledger,
    timed: &Timed,
    setups: &[f64],
    peak_rss: f64,
    slowdown: f64,
) -> Vec<Metric> {
    let p = args.workload.tail_percentile();
    let n = timed.queue_ms.len();
    let beyond = n - (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    if beyond < 10 {
        eprintln!("warning: only {beyond} queues beyond p{p} of {n}");
    }
    let host = |name, measured: f64, unit, scaled: f64| Metric {
        name,
        value: scaled,
        unit,
        note: format!("  (measured {measured:.6} at host slowdown {slowdown:.4})"),
    };
    let (qps, p50, tail) = (
        n as f64 / timed.loop_s,
        median(&timed.queue_ms),
        percentile(&timed.queue_ms, p),
    );
    println!(
        "queue_ms_tail = {} ms  (p{p} of {n} queues, {beyond} beyond; measured {tail:.6} at host slowdown {slowdown:.4}; not gated)",
        tail / slowdown
    );
    let sim_rate = median(&timed.sim_rates);
    let geo = |f: &dyn Fn(&QueueOut) -> f64| {
        geomean(&ledger.checked_outputs().map(f).collect::<Vec<_>>())
    };
    vec![
        metric("setup_s", median(setups), "s"),
        host("queues_per_s", qps, "1/s", qps * slowdown),
        host("queue_ms_p50", p50, "ms", p50 / slowdown),
        host("sim_s_per_host_s", sim_rate, "ratio", sim_rate * slowdown),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric(
            "sim_throughput_gain",
            geo(&|o| o.baseline.0 / o.makespan),
            "ratio",
        ),
        metric(
            "sim_energy_gain",
            geo(&|o| o.baseline.1 / o.energy),
            "ratio",
        ),
    ]
}

/// Per-layer metrics of a traced run, from the benchmark's own spans.
fn per_layer(
    args: &Args,
    prepared: &Prepared,
    ledger: &Ledger,
    timed: &Timed,
    tracer: &Tracer,
    replays: &[replay::ReplayStats],
    slowdown: f64,
) -> Vec<Metric> {
    let online = args.workload.is_online();
    let queues = tracer.durations("queue").len().max(1) as f64;
    // The planner and executor are called directly by the batch
    // workloads and inside the opaque online call otherwise; there the
    // replay supplies the split.
    let (planner_ms, executor_ms, basis_ms, basis_n) = if online {
        let replay_ms: f64 = tracer.durations("replay").iter().sum();
        let planner = tracer.durations("planner.plan_warm");
        let mut executor = tracer.durations("executor.run_group");
        executor.extend(tracer.durations("executor.solo_wall_times"));
        (planner, executor, replay_ms, replays.len().max(1) as f64)
    } else {
        let queue_ms: f64 = tracer.durations("queue").iter().sum();
        (
            tracer.durations("planner.plan"),
            tracer.durations("executor.evaluate_plan"),
            queue_ms,
            queues,
        )
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let (cache_hits, cache_misses) = mpshare_profiler::cache::global().stats();
    let pool: Vec<&QueueOut> = ledger.checked_outputs().collect();
    let pool_sum = |f: &dyn Fn(&QueueOut) -> f64| pool.iter().map(|o| f(o)).sum::<f64>();
    let replay_sum =
        |f: &dyn Fn(&replay::ReplayStats) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let (sim_s, sim_tasks) = if online {
        (
            replays.iter().map(|r| r.sim_s).sum::<f64>(),
            replay_sum(&|r| r.sim_tasks),
        )
    } else {
        (pool_sum(&|o| o.sim_s), pool_sum(&|o| o.sim_tasks as f64))
    };
    let sim_n = if online { replays.len() } else { pool.len() }.max(1) as f64;

    let online_ms = tracer.durations("online.run_with_recovery");
    let dispatches = pool_sum(&|o| o.online.as_ref().map_or(0.0, |x| x.decisions.len() as f64));
    let energy = pool_sum(&|o| o.online.as_ref().map_or(0.0, |x| x.energy.joules()));
    let wasted = pool_sum(&|o| o.online.as_ref().map_or(0.0, |x| x.wasted_energy.joules()));
    let online_mean = |f: &dyn Fn(&mpshare_core::OnlineOutcome) -> f64| {
        mean(
            &pool
                .iter()
                .filter_map(|o| o.online.as_ref().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let export_ms = tracer.durations("obs.export");
    let observed = args.workload == Workload::OnlineObserved;
    let record_ms = if observed {
        mean(&online_ms) - mean(&timed.unobserved_ms)
    } else {
        0.0
    };
    let exported: Vec<&QueueOut> = pool
        .iter()
        .copied()
        .filter(|o| o.export.bytes > 0)
        .collect();
    let export_mean =
        |f: &dyn Fn(&QueueOut) -> f64| mean(&exported.iter().map(|o| f(o)).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = vec![
        metric(
            "queue.ms_tail",
            percentile(&timed.queue_ms, args.workload.tail_percentile()),
            "ms",
        ),
        metric("profiler.profile_ms", prepared.profile_ms, "ms"),
        metric("profiler.cache_hits", cache_hits as f64, "count"),
        metric("profiler.cache_misses", cache_misses as f64, "count"),
        metric(
            "profiler.hit_ratio",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
            "ratio",
        ),
        metric(
            "profiler.lookup_ms",
            mean(&tracer.durations("profiler.lookup")),
            "ms",
        ),
        metric("planner.calls", planner_ms.len() as f64, "count"),
        metric("planner.busy_ms", sum(&planner_ms) / basis_n, "ms"),
        metric("planner.ms_p50", median(&planner_ms), "ms"),
        tail_metric("planner.ms_tail", &planner_ms),
        metric("planner.share", ratio(sum(&planner_ms), basis_ms), "ratio"),
        metric(
            "planner.groups_per_plan",
            if online {
                ratio(
                    replay_sum(&|r| r.planned_groups),
                    replay_sum(&|r| r.plan_calls),
                )
            } else {
                mean(&pool.iter().map(|o| o.groups as f64).collect::<Vec<_>>())
            },
            "count",
        ),
        metric(
            "planner.warm_hit_ratio",
            ratio(replay_sum(&|r| r.warm_hits), replay_sum(&|r| r.plan_calls)),
            "ratio",
        ),
        metric("executor.calls", executor_ms.len() as f64, "count"),
        metric("executor.busy_ms", sum(&executor_ms) / basis_n, "ms"),
        metric("executor.ms_p50", median(&executor_ms), "ms"),
        tail_metric("executor.ms_tail", &executor_ms),
        metric(
            "executor.share",
            ratio(sum(&executor_ms), basis_ms),
            "ratio",
        ),
        metric("executor.sim_s", sim_s / sim_n, "sim_s"),
        metric("executor.tasks", sim_tasks / sim_n, "count"),
        metric("online.calls", online_ms.len() as f64, "count"),
        metric("online.busy_ms", mean(&online_ms), "ms"),
        metric(
            "online.dispatches",
            ratio(dispatches, pool.len() as f64),
            "count",
        ),
        metric(
            "online.ms_per_dispatch",
            ratio(mean(&online_ms) * pool.len() as f64, dispatches),
            "ms",
        ),
        metric(
            "online.retries",
            pool_sum(&|o| o.online.as_ref().map_or(0.0, |x| x.retries as f64)),
            "count",
        ),
        metric(
            "online.faults",
            pool_sum(&|o| o.online.as_ref().map_or(0.0, |x| x.faults as f64)),
            "count",
        ),
        metric(
            "online.abandoned",
            pool_sum(&|o| {
                o.online
                    .as_ref()
                    .map_or(0.0, |x| x.failed_workflows.len() as f64)
            }),
            "count",
        ),
        metric(
            "online.useful_dispatch_ratio",
            ratio(
                replay_sum(&|r| r.useful_dispatches),
                replay_sum(&|r| r.dispatches),
            ),
            "ratio",
        ),
        metric("online.wasted_energy_frac", ratio(wasted, energy), "ratio"),
        metric(
            "online.goodput_tps",
            online_mean(&|x| x.goodput),
            "tasks/sim_s",
        ),
        metric(
            "online.wait_s_mean",
            online_mean(&|x| x.mean_wait.value()),
            "sim_s",
        ),
        metric("obs.record_ms", record_ms, "ms"),
        metric("obs.export_ms", mean(&export_ms), "ms"),
        metric(
            "obs.export_bytes",
            export_mean(&|o| o.export.bytes as f64),
            "bytes",
        ),
        metric(
            "obs.records",
            export_mean(&|o| o.export.records as f64),
            "count",
        ),
        metric(
            "obs.dropped",
            pool_sum(&|o| o.export.dropped as f64),
            "count",
        ),
        metric(
            "obs.share",
            if observed {
                ratio(record_ms + mean(&export_ms), mean(&timed.traced_ms))
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "par.workers",
            mpshare_par::worker_count(usize::MAX) as f64,
            "count",
        ),
        metric("bench.gen_ms", prepared.gen_ms, "ms"),
        metric(
            "bench.check_ms",
            sum(&tracer.durations("check")) / queues,
            "ms",
        ),
        metric(
            "bench.trace_overhead_ms",
            median(&timed.traced_ms) - median(&timed.queue_ms),
            "ms",
        ),
    ];
    for x in &mut m {
        if x.unit == "ms" {
            x.value /= slowdown;
        }
        if !x.value.is_finite() {
            x.value = 0.0;
        }
    }
    m.push(metric("bench.host_slowdown", slowdown, "ratio"));
    m
}

/// The highest of p99/p95/p90/p50 with at least ten samples beyond it.
fn tail_metric(name: &'static str, values: &[f64]) -> Metric {
    let n = values.len();
    let p = [99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let mut m = metric(name, percentile(values, p), "ms");
    m.note = format!("  (p{p} of {n} calls)");
    m
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// The commit when the checkout is a git repository, else `unknown`.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Digest of the measured source: every Cargo.toml and .rs file under
/// `crates/`, plus the root manifest, in path order.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs") || path.ends_with("Cargo.toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut digest = Fnv::default();
    for file in files {
        digest.bytes(
            file.strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .as_bytes(),
        );
        digest.bytes(&std::fs::read(&file).unwrap_or_default());
    }
    digest.finish()
}

fn print_context(
    args: &Args,
    prepared: &Prepared,
    ledger: &Ledger,
    setups: &[f64],
    calib: &Calibration,
    digest: u64,
) {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let notes: Vec<String> = NOTES.iter().map(|n| quote(n)).collect();
    let setups: Vec<String> = setups.iter().map(|s| format!("{s}")).collect();
    println!(
        "context {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"par_workers\":{},\"build_profile\":{},\"commit\":{},\"source_digest\":\"{:016x}\",\
         \"pool\":{},\"params\":{},\"setup_s_samples\":[{}],\"host_slowdown\":{},\"calibration_samples\":{},\
         \"held_out_seed\":{HELD_OUT_SEED},\
         \"notes\":[{}]}}",
        quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        mpshare_par::worker_count(usize::MAX),
        quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
        quote(&commit(&root)),
        source_digest(&root),
        prepared.pool.len(),
        quote(&args.workload.params()),
        setups.join(","),
        calib.slowdown(),
        calib.len(),
        notes.join(",")
    );
    println!(
        "digest {} seed={} {digest:016x} ({} queues, {} runs)",
        args.workload.name(),
        args.seed,
        ledger.checked_outputs().count(),
        ledger.attempted
    );
}

/// Writes the traced run's spans under `.bench_out/` in the checkout.
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    if !args.trace {
        return Ok(());
    }
    let dir = repo_root().join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.to_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display());
    Ok(())
}
