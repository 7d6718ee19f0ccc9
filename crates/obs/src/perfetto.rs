//! Unified Chrome-tracing / Perfetto export.
//!
//! This module owns the full timeline story: the engine-side export that
//! `mpshare_profiler::trace::chrome_trace` delegates to (pids 0–2: device
//! counters, task spans, kernel spans), and the merged export that adds
//! one process track per control-plane [`Track`] (pids 3–6) so a single
//! trace shows *why* a group was formed (planner decision audits), *how*
//! it was dispatched (scheduler/daemon spans), and *what* it did to the
//! GPU (kernel timeline + counters).
//!
//! Open either artifact at <https://ui.perfetto.dev> (drag-and-drop) or
//! `chrome://tracing`.
//!
//! Faulted work is rendered rather than dropped: a client aborted
//! mid-task gets a span for the in-flight work colored `terrible` (the
//! Chrome tracing red), each `ClientFault` becomes a thread-scoped
//! instant marker, and `ServerCrash` a global-scoped one.

use crate::recorder::{ObsRecord, Track};
use crate::timeline::TimelineStore;
use mpshare_gpusim::{EventKind, RunResult};
use mpshare_types::TaskId;
use serde_json::{write_f64, write_str, write_u64, write_value, Value};

/// The pid of the timeline-store counter tracks in the merged export
/// (pids 0–2 are the engine timeline, 3–6 the control-plane tracks).
pub const TIMELINE_PID: u64 = 7;

const SECONDS_TO_US: f64 = 1e6;

/// Capacity estimates per event, so the one output `String` rarely grows.
const ENGINE_EVENT_BYTES: usize = 128;
const CONTROL_EVENT_BYTES: usize = 192;
const COUNTER_EVENT_BYTES: usize = 96;

/// Streams Chrome-tracing events into one `{"traceEvents":[…]}` string.
///
/// Each event is written in place with the Chrome tracing field names and
/// order: `name, ph, ts[, dur], pid, tid[, args][, cname][, s]` (`cname`
/// is the Chrome color name, `s` the instant scope). Numbers and strings
/// go through `serde_json`'s own formatting, so the bytes equal what
/// serializing the same events as a `Value` tree would give.
struct TraceWriter {
    out: String,
    events: usize,
}

impl TraceWriter {
    fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push_str("{\"traceEvents\":[");
        TraceWriter { out, events: 0 }
    }

    /// Opens an event and writes its fields through `tid`, returning the
    /// buffer so the caller can append `,"args":{…}` before
    /// [`TraceWriter::close`]. `quoted_name` must already be a quoted JSON
    /// string.
    fn open(
        &mut self,
        quoted_name: &str,
        ph: &str,
        ts: f64,
        dur: Option<f64>,
        pid: u64,
        tid: u64,
    ) -> &mut String {
        if self.events > 0 {
            self.out.push(',');
        }
        self.events += 1;
        let out = &mut self.out;
        out.push_str("{\"name\":");
        out.push_str(quoted_name);
        out.push_str(",\"ph\":\"");
        out.push_str(ph);
        out.push_str("\",\"ts\":");
        write_f64(out, ts);
        if let Some(dur) = dur {
            out.push_str(",\"dur\":");
            write_f64(out, dur);
        }
        out.push_str(",\"pid\":");
        write_u64(out, pid);
        out.push_str(",\"tid\":");
        write_u64(out, tid);
        out
    }

    fn close(&mut self, cname: Option<&str>, scope: Option<&str>) {
        if let Some(cname) = cname {
            self.out.push_str(",\"cname\":\"");
            self.out.push_str(cname);
            self.out.push('"');
        }
        if let Some(scope) = scope {
            self.out.push_str(",\"s\":\"");
            self.out.push_str(scope);
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// A metadata event naming a process or thread track.
    fn meta(&mut self, name: &str, pid: u64, tid: u64, value: &str) {
        let out = self.open(&quoted(name), "M", 0.0, None, pid, tid);
        out.push_str(",\"args\":{\"name\":");
        write_str(out, value);
        out.push('}');
        self.close(None, None);
    }

    /// A complete (`ph: "X"`) span; negative durations clamp to zero.
    fn span(&mut self, quoted_name: &str, ts: f64, dur: f64, pid: u64, tid: u64) -> &mut String {
        self.open(quoted_name, "X", ts, Some(dur.max(0.0)), pid, tid)
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }

    /// The engine timeline: device counters (pid 0), per-client task spans
    /// (pid 1), kernel spans (pid 2), failed in-flight work, and
    /// fault/crash instant markers.
    fn engine(&mut self, result: &RunResult) {
        // Thread/track names.
        for (i, client) in result.clients.iter().enumerate() {
            self.meta("thread_name", 1, i as u64, &client.label);
        }

        // Task spans, reconstructed from completion times: a task occupies
        // the client from its predecessor's completion (or the client's
        // start).
        for (i, client) in result.clients.iter().enumerate() {
            let mut cursor = client.started;
            for completion in &client.completions {
                let (start, end) = (cursor.value(), completion.at.value());
                let out = self.span(
                    &quoted(&completion.label),
                    start * SECONDS_TO_US,
                    (end - start) * SECONDS_TO_US,
                    1,
                    i as u64,
                );
                write_task_args(out, completion.task);
                self.close(None, None);
                cursor = completion.at;
            }
            // An aborted client's in-flight task produced no completion
            // but did occupy the GPU until the abort: render the lost work
            // as a red span instead of leaving a timeline hole.
            if client.failed && client.finished > cursor {
                let start = cursor.value();
                let out = self.span(
                    "\"aborted task\"",
                    start * SECONDS_TO_US,
                    (client.finished.value() - start) * SECONDS_TO_US,
                    1,
                    i as u64,
                );
                out.push_str(",\"args\":{\"failed\":true,\"wasted_progress_s\":");
                write_f64(out, client.wasted_progress.value());
                out.push('}');
                self.close(Some("terrible"), None);
            }
        }

        // Kernel-level spans (pid 2) when the run carried an event log.
        let mut name = String::new();
        for (client, task, kernel_index, start, end) in result.events.kernel_spans() {
            name.clear();
            name.push_str("\"kernel ");
            write_u64(&mut name, kernel_index as u64);
            name.push('"');
            let out = self.span(
                &name,
                start.value() * SECONDS_TO_US,
                (end.value() - start.value()) * SECONDS_TO_US,
                2,
                client as u64,
            );
            write_task_args(out, task);
            self.close(None, None);
        }

        // Fault instants from the event log: per-client faults are
        // thread-scoped markers on the client's track, server crashes are
        // global-scoped markers on the device track.
        for event in result.events.events() {
            let (name, pid, tid, origin, scope) = match event.kind {
                EventKind::ClientFault { origin } => {
                    ("\"client fault\"", 1, event.client as u64, origin, "t")
                }
                EventKind::ServerCrash { origin } => ("\"server crash\"", 0, 0, origin, "g"),
                _ => continue,
            };
            let out = self.open(name, "i", event.at.value() * SECONDS_TO_US, None, pid, tid);
            out.push_str(",\"args\":{\"origin\":");
            write_u64(out, origin as u64);
            out.push('}');
            self.close(Some("terrible"), Some(scope));
        }

        // Device counters from the exact segments.
        for segment in result.telemetry.segments() {
            let ts = segment.start.value() * SECONDS_TO_US;
            let counters = [
                ("\"sm_util\"", segment.sm_util * 100.0),
                ("\"bw_util\"", segment.bw_util * 100.0),
                ("\"power_w\"", segment.power.watts()),
                ("\"clock\"", segment.clock_factor * 100.0),
            ];
            for (name, value) in counters {
                let out = self.open(name, "C", ts, None, 0, 0);
                out.push_str(",\"args\":{");
                out.push_str(name);
                out.push(':');
                write_f64(out, value);
                out.push('}');
                self.close(None, None);
            }
        }
    }

    /// Control-plane records as events on their track's pid. Records with
    /// a simulated time land at that time; offline records (plan search
    /// has no simulation clock) land at their sequence number in
    /// microseconds, which keeps them ordered and near the origin. Each
    /// payload is written in place; null payloads get no `args`.
    fn control(&mut self, records: &[ObsRecord]) {
        let mut seen: Vec<Track> = Vec::new();
        let mut name = String::new();
        for record in records {
            if !seen.contains(&record.track) {
                seen.push(record.track);
                self.meta("process_name", record.track.pid(), 0, record.track.name());
            }
            let ts = match record.sim_start {
                Some(at) => at * SECONDS_TO_US,
                None => record.seq as f64,
            };
            name.clear();
            write_str(&mut name, &record.name);
            let pid = record.track.pid();
            let out = match record.sim_dur {
                Some(dur) => self.span(&name, ts, dur * SECONDS_TO_US, pid, 0),
                None => self.open(&name, "i", ts, None, pid, 0),
            };
            if record.payload != Value::Null {
                out.push_str(",\"args\":");
                write_value(out, &record.payload);
            }
            let scope = if record.sim_dur.is_some() {
                None
            } else {
                Some("t")
            };
            self.close(None, scope);
        }
    }

    /// Timeline-store series as Perfetto counter tracks (ph `"C"`) on
    /// [`TIMELINE_PID`]: one counter track per series, one sample per span
    /// start, values in the series' native unit. Written from the store's
    /// canonically sorted samples under its lock: series in name order,
    /// samples in `(t, dur, v)` order.
    fn timelines(&mut self, store: &TimelineStore) {
        let mut tid = 0u64;
        store.visit_series(|name, samples| {
            if tid == 0 {
                self.meta("process_name", TIMELINE_PID, 0, "timeline");
            }
            self.out.reserve(samples.len() * COUNTER_EVENT_BYTES);
            let name = quoted(name);
            for s in samples {
                let out = self.open(&name, "C", s.t * SECONDS_TO_US, None, TIMELINE_PID, tid);
                out.push_str(",\"args\":{\"value\":");
                write_f64(out, s.v);
                out.push('}');
                self.close(None, None);
            }
            tid += 1;
        });
    }
}

/// `,"args":{"task":"task<n>"}`: the task id in its `Display` form
/// (`TaskId`'s `task` prefix), which needs no escaping.
fn write_task_args(out: &mut String, task: TaskId) {
    out.push_str(",\"args\":{\"task\":\"task");
    write_u64(out, task.raw());
    out.push_str("\"}");
}

/// `s` as a quoted, escaped JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

/// Events the engine half writes for `result`, for presizing.
fn engine_event_count(result: &RunResult) -> usize {
    let completions: usize = result.clients.iter().map(|c| c.completions.len()).sum();
    2 * result.clients.len()
        + completions
        + result.events.events().len()
        + 4 * result.telemetry.segments().len()
}

/// Engine-only Chrome-tracing JSON (the `mpshare_profiler::trace`
/// delegation target).
pub fn chrome_trace(result: &RunResult) -> String {
    let mut w = TraceWriter::with_capacity(engine_event_count(result) * ENGINE_EVENT_BYTES);
    w.engine(result);
    w.finish()
}

/// The unified export: engine timeline (when a run is given) merged with
/// the control-plane tracks. Engine process tracks get process names here
/// (the engine-only export leaves them implicit for compatibility).
pub fn merged_chrome_trace(result: Option<&RunResult>, records: &[ObsRecord]) -> String {
    merged(result, records).finish()
}

/// [`merged_chrome_trace`] plus the timeline store's counter tracks on
/// [`TIMELINE_PID`] — the full picture in one artifact: engine timeline,
/// control-plane decisions, and the aggregated simulated-time series.
pub fn merged_chrome_trace_with_timelines(
    result: Option<&RunResult>,
    records: &[ObsRecord],
    timelines: &TimelineStore,
) -> String {
    let mut w = merged(result, records);
    w.timelines(timelines);
    w.finish()
}

fn merged(result: Option<&RunResult>, records: &[ObsRecord]) -> TraceWriter {
    let engine_events = result.map_or(0, engine_event_count);
    let mut w = TraceWriter::with_capacity(
        engine_events * ENGINE_EVENT_BYTES + records.len() * CONTROL_EVENT_BYTES,
    );
    if let Some(result) = result {
        w.meta("process_name", 0, 0, "device");
        w.meta("process_name", 1, 0, "clients");
        w.meta("process_name", 2, 0, "kernels");
        w.engine(result);
    }
    w.control(records);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use serde_json::json;

    fn sample_records() -> Vec<ObsRecord> {
        let r = Recorder::new();
        r.set_enabled(true);
        r.emit(
            Track::Planner,
            "plan.candidate",
            None,
            None,
            || json!({"accepted": true}),
        );
        r.emit(
            Track::Scheduler,
            "sched.dispatch",
            Some(1.0),
            Some(2.5),
            || json!({"queue_depth": 3}),
        );
        r.emit(Track::Daemon, "daemon.spawn", Some(0.5), None, || {
            Value::Null
        });
        r.drain()
    }

    /// The parsed `traceEvents` array of an export.
    fn events(trace: &str) -> Vec<Value> {
        let parsed: Value = serde_json::from_str(trace).unwrap();
        parsed
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .clone()
    }

    fn field<'a>(event: &'a Value, key: &str) -> &'a Value {
        event.get(key).unwrap_or(&Value::Null)
    }

    #[test]
    fn control_records_cover_all_tracks_with_names() {
        let events = events(&merged_chrome_trace(None, &sample_records()));
        let metas: Vec<&Value> = events.iter().filter(|e| field(e, "ph") == "M").collect();
        assert_eq!(metas.len(), 3, "one process_name per distinct track");
        for track in [Track::Planner, Track::Scheduler, Track::Daemon] {
            assert!(metas
                .iter()
                .any(|m| field(m, "pid").as_u64() == Some(track.pid())
                    && field(m, "args")["name"] == track.name()));
        }
    }

    #[test]
    fn spans_use_sim_time_and_instants_mark_points() {
        let events = events(&merged_chrome_trace(None, &sample_records()));
        let span = events
            .iter()
            .find(|e| field(e, "ph") == "X")
            .expect("one span");
        assert_eq!(field(span, "ts").as_f64(), Some(1.0 * SECONDS_TO_US));
        assert_eq!(field(span, "dur").as_f64(), Some(2.5 * SECONDS_TO_US));
        assert_eq!(field(span, "pid").as_u64(), Some(Track::Scheduler.pid()));
        assert_eq!(field(span, "args")["queue_depth"], 3);
        let instants: Vec<&Value> = events.iter().filter(|e| field(e, "ph") == "i").collect();
        assert_eq!(
            instants.len(),
            2,
            "offline planner record + daemon point event"
        );
        assert!(instants.iter().all(|e| field(e, "s") == "t"));
    }

    #[test]
    fn offline_records_fall_back_to_sequence_timestamps() {
        let events = events(&merged_chrome_trace(None, &sample_records()));
        let planner = events
            .iter()
            .find(|e| {
                field(e, "pid").as_u64() == Some(Track::Planner.pid()) && field(e, "ph") == "i"
            })
            .unwrap();
        assert_eq!(
            field(planner, "ts").as_f64(),
            Some(0.0),
            "seq 0 lands at the origin"
        );
    }

    #[test]
    fn timeline_counter_tracks_render_on_their_own_pid() {
        let store = TimelineStore::new();
        store.series_push_span("device.sm_util", 2.0, 1.0, 1.0);
        store.series_push_span("device.sm_util", 0.0, 2.0, 0.5);
        store.quantile_observe("lat", 3.0); // quantiles are JSON-only
        let trace = merged_chrome_trace_with_timelines(None, &[], &store);
        let events = events(&trace);
        assert_eq!(field(&events[0], "ph"), "M");
        assert_eq!(field(&events[0], "pid").as_u64(), Some(TIMELINE_PID));
        let counters: Vec<&Value> = events.iter().filter(|e| field(e, "ph") == "C").collect();
        assert_eq!(counters.len(), 2);
        assert!(counters
            .iter()
            .all(|c| field(c, "name") == "device.sm_util"));
        // Canonical sample order, whatever the insertion order.
        assert_eq!(field(counters[0], "ts").as_f64(), Some(0.0));
        assert_eq!(field(counters[0], "args")["value"], 0.5);
        assert_eq!(field(counters[1], "ts").as_f64(), Some(2.0 * SECONDS_TO_US));
        // An empty store adds nothing over the plain merged export.
        let empty = TimelineStore::new();
        assert_eq!(
            merged_chrome_trace_with_timelines(None, &sample_records(), &empty),
            merged_chrome_trace(None, &sample_records())
        );
    }

    #[test]
    fn merged_trace_is_valid_json() {
        let trace = merged_chrome_trace(None, &sample_records());
        assert!(!events(&trace).is_empty());
        // Null payloads are omitted entirely rather than serialized.
        assert!(!trace.contains("\"args\":null"));
        assert_eq!(merged_chrome_trace(None, &[]), "{\"traceEvents\":[]}");
    }
}
