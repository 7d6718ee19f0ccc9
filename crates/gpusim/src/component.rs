//! Component/event-heap simulation core.
//!
//! A lone engine runs its own `while step()` loop ([`Engine::run`]):
//! nothing else — interconnects, CPU-side stages, fleet actors — has a
//! place to plug in there. This module is the drive loop for
//! compositions of several actors, in the shape discrete-event simulators
//! converge on: a set of [`Component`]s scheduled by a global min-heap
//! ([`crate::heap::TickHeap`]) keyed by `(time, component_id)`. Only
//! [`Composition`] builds a [`SimCore`].
//!
//! ## The protocol
//!
//! A component alternates two calls:
//!
//! 1. [`Component::next_tick`] — drain internal zero-cost work at the
//!    current time and **plan** the absolute time of the component's next
//!    internal event (`None` = finished, stay off the heap).
//! 2. [`Component::tick`] — **apply** the planned step once the heap
//!    dispatches it.
//!
//! After each tick the core drains the component's [`Message`] outbox and
//! delivers to the addressees, re-arming any receiver whose horizon may
//! have moved. Ties at the same time are dispatched in component-id
//! order — dispatch order is a pure function of the armed set (pinned by
//! the heap's permutation property test), never of arm order.
//!
//! ## Component-local fast paths
//!
//! The global heap holds **one entry per component**, not one per event.
//! Everything a component can resolve internally stays internal: the
//! engine keeps its [`crate::equeue::MonotoneEventQueue`] arrivals, dense
//! `timer_rem` countdowns and indexed kernel horizons exactly as before,
//! and surfaces only the min over all of them as its `next_tick`. The
//! contract is: a component may bypass the heap for any event that cannot
//! affect another component before its own next tick. That keeps the
//! steady-state hot loop allocation-free (`tests/alloc_gate.rs` drives a
//! [`GpuComponent`] through a [`SimCore`] directly) and the heap depth
//! O(components), not O(events).
//!
//! ## Bit-identity
//!
//! A [`GpuComponent`] issues exactly the `next_tick`/`tick_to` sequence
//! [`Engine::step`] inlines, and the planned `dt` is stored engine-side
//! rather than recomputed from the heap's absolute time (a `now + dt` →
//! `t - now` float round-trip is not bit-identical). So each GPU of a
//! composition produces the `RunResult` of the same engine run alone;
//! `solo_gpu_component_through_simcore_matches_step_loop` and the
//! composition-vs-solo tests pin it.

use crate::engine::{Engine, EngineStats, RunResult};
use crate::heap::TickHeap;
use mpshare_types::{Error, Result, Seconds};
use std::collections::VecDeque;

/// A payload routed between components by the [`SimCore`] after a tick.
/// Deliberately minimal for the first compositions: a byte count (an
/// interconnect transfer, a completion notification).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Sending component id.
    pub from: usize,
    /// Destination component id.
    pub to: usize,
    /// Payload size in bytes.
    pub bytes: f64,
}

/// One simulated actor driven by the global tick heap.
pub trait Component {
    /// Human-readable name for reports and traces.
    fn label(&self) -> &str;

    /// Drains internal zero-cost work at the current time and returns the
    /// absolute time of this component's next internal event, or `None`
    /// when it has nothing left to do. Called once at arm time and again
    /// after every one of the component's own ticks (and after a
    /// horizon-changing [`Component::deliver`]).
    fn next_tick(&mut self) -> Result<Option<f64>>;

    /// Applies the step planned by the preceding [`Component::next_tick`];
    /// `now` is exactly the time that call returned.
    fn tick(&mut self, now: f64) -> Result<()>;

    /// Emits any messages produced since the last drain. Called by the
    /// core after the component's `next_tick` (arm or re-arm), so
    /// completions surfaced during internal transition processing are
    /// routed in the same dispatch round.
    fn drain_outbox(&mut self, _out: &mut Vec<Message>) {}

    /// Receives a message at time `now`. Returns `true` when the
    /// component's next-tick horizon may have changed (the core will call
    /// [`Component::next_tick`] again and re-arm it).
    fn deliver(&mut self, _msg: &Message, _now: f64) -> bool {
        false
    }
}

/// Counters from one [`SimCore`] drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Heap pops dispatched as component ticks.
    pub ticks: u64,
    /// Maximum live heap depth observed (≤ component count by design —
    /// one entry per component).
    pub max_heap_depth: u64,
    /// Messages routed between components.
    pub messages: u64,
}

/// The component driver: arms every component on the [`TickHeap`], then
/// repeatedly pops the earliest `(time, component)` entry, ticks it,
/// re-arms it, and routes its outbox.
#[derive(Debug)]
pub struct SimCore {
    heap: TickHeap,
    outbox: Vec<Message>,
    stats: SimStats,
}

impl SimCore {
    pub fn new(components: usize) -> Self {
        SimCore {
            heap: TickHeap::new(components),
            outbox: Vec::new(),
            stats: SimStats::default(),
        }
    }

    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Current live heap depth.
    pub fn depth(&self) -> usize {
        self.heap.depth()
    }

    /// Asks `id` for its next horizon and arms (or disarms) it.
    fn rearm(&mut self, comps: &mut [&mut dyn Component], id: usize) -> Result<()> {
        match comps[id].next_tick()? {
            Some(t) => self.heap.arm(id, t),
            None => self.heap.disarm(id),
        }
        Ok(())
    }

    /// Drains `id`'s outbox and delivers each message, re-arming receivers
    /// that report a horizon change. Messages a component emits from
    /// `deliver` itself are collected at its next drain, not recursively.
    fn dispatch_outbox(
        &mut self,
        comps: &mut [&mut dyn Component],
        id: usize,
        now: f64,
    ) -> Result<()> {
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        comps[id].drain_outbox(&mut outbox);
        for msg in &outbox {
            debug_assert!(
                msg.to < comps.len(),
                "message to unknown component {}",
                msg.to
            );
            self.stats.messages += 1;
            if comps[msg.to].deliver(msg, now) {
                self.rearm(comps, msg.to)?;
            }
        }
        self.outbox = outbox;
        Ok(())
    }

    fn note_depth(&mut self) {
        self.stats.max_heap_depth = self.stats.max_heap_depth.max(self.heap.depth() as u64);
    }

    /// Initial arm pass: every component plans its first horizon (work due
    /// at time zero, e.g. immediate arrivals, is drained and routed here).
    pub fn arm_all(&mut self, comps: &mut [&mut dyn Component]) -> Result<()> {
        for id in 0..comps.len() {
            self.rearm(comps, id)?;
            self.dispatch_outbox(comps, id, 0.0)?;
        }
        self.note_depth();
        Ok(())
    }

    /// Dispatches one heap entry: tick, re-arm, route. Returns `false`
    /// when the heap is empty (every component finished or idle).
    pub fn step(&mut self, comps: &mut [&mut dyn Component]) -> Result<bool> {
        let Some((t, id)) = self.heap.pop() else {
            return Ok(false);
        };
        comps[id].tick(t)?;
        self.stats.ticks += 1;
        self.rearm(comps, id)?;
        self.dispatch_outbox(comps, id, t)?;
        self.note_depth();
        Ok(true)
    }

    /// [`SimCore::arm_all`] then [`SimCore::step`] until the heap drains.
    pub fn run(&mut self, comps: &mut [&mut dyn Component]) -> Result<()> {
        self.arm_all(comps)?;
        while self.step(comps)? {}
        Ok(())
    }
}

/// One queued transfer on a [`SharedLink`].
#[derive(Debug, Clone, Copy)]
struct Transfer {
    to: usize,
    bytes: f64,
}

/// Remaining-time threshold below which a transfer head counts as done
/// (absorbs the float residue of `(rem / bw) * bw`).
const LINK_EPS_SECONDS: f64 = 1e-12;

/// Proof-of-concept shared-bandwidth interconnect: a store-and-forward
/// FIFO link with a fixed bandwidth. Every completed GPU task ships one
/// transfer across it; when a transfer's bytes finish draining, a
/// notification message is forwarded to the routed destination component.
/// Transfers share the link serially (FIFO), so two GPUs completing
/// bursts at once queue behind each other — the first cross-component
/// contention the simulator can express.
#[derive(Debug)]
pub struct SharedLink {
    id: usize,
    label: String,
    /// Bytes per second.
    bandwidth: f64,
    /// Destination component per sending component id
    /// (`usize::MAX` = drop the completed transfer silently).
    dest: Vec<usize>,
    queue: VecDeque<Transfer>,
    /// Bytes left on the queue head.
    head_rem: f64,
    /// Time up to which `head_rem` is accurate.
    clock: f64,
    outbox: Vec<Message>,
    bytes_moved: f64,
    transfers_done: u64,
    busy_seconds: f64,
    last_completion: f64,
    max_queue: usize,
}

impl SharedLink {
    /// A link with component id `id` in a composition of `components`
    /// total components. `bandwidth` is bytes per second.
    pub fn new(id: usize, bandwidth: f64, components: usize) -> Result<Self> {
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "link bandwidth must be positive and finite, got {bandwidth}"
            )));
        }
        Ok(SharedLink {
            id,
            label: "shared-link".to_string(),
            bandwidth,
            dest: vec![usize::MAX; components],
            queue: VecDeque::new(),
            head_rem: 0.0,
            clock: 0.0,
            outbox: Vec::new(),
            bytes_moved: 0.0,
            transfers_done: 0,
            busy_seconds: 0.0,
            last_completion: 0.0,
            max_queue: 0,
        })
    }

    /// Completed transfers received from `from` are forwarded to `to`.
    pub fn set_route(&mut self, from: usize, to: usize) {
        self.dest[from] = to;
    }

    /// Advances partial progress on the queue head up to `now`.
    fn advance_to(&mut self, now: f64) {
        if now <= self.clock {
            return;
        }
        if !self.queue.is_empty() {
            let elapsed = now - self.clock;
            let moved = (elapsed * self.bandwidth).min(self.head_rem);
            self.head_rem -= moved;
            self.bytes_moved += moved;
            self.busy_seconds += moved / self.bandwidth;
        }
        self.clock = now;
    }

    /// Accounting snapshot for reports.
    pub fn report(&self) -> LinkReport {
        LinkReport {
            label: self.label.clone(),
            bytes_moved: self.bytes_moved,
            transfers: self.transfers_done,
            busy_seconds: self.busy_seconds,
            last_completion: Seconds::new(self.last_completion),
            max_queue: self.max_queue,
        }
    }
}

impl Component for SharedLink {
    fn label(&self) -> &str {
        &self.label
    }

    fn next_tick(&mut self) -> Result<Option<f64>> {
        if self.queue.is_empty() {
            Ok(None)
        } else {
            Ok(Some(self.clock + self.head_rem / self.bandwidth))
        }
    }

    fn tick(&mut self, now: f64) -> Result<()> {
        self.advance_to(now);
        while let Some(&head) = self.queue.front() {
            if self.head_rem / self.bandwidth > LINK_EPS_SECONDS {
                break;
            }
            self.queue.pop_front();
            self.transfers_done += 1;
            self.last_completion = now;
            if head.to != usize::MAX {
                self.outbox.push(Message {
                    from: self.id,
                    to: head.to,
                    bytes: head.bytes,
                });
            }
            if let Some(next) = self.queue.front() {
                self.head_rem = next.bytes;
            } else {
                self.head_rem = 0.0;
            }
        }
        Ok(())
    }

    fn drain_outbox(&mut self, out: &mut Vec<Message>) {
        out.append(&mut self.outbox);
    }

    fn deliver(&mut self, msg: &Message, now: f64) -> bool {
        self.advance_to(now);
        let was_empty = self.queue.is_empty();
        self.queue.push_back(Transfer {
            to: self.dest[msg.from],
            bytes: msg.bytes,
        });
        if was_empty {
            self.head_rem = msg.bytes;
        }
        self.max_queue = self.max_queue.max(self.queue.len());
        // An idle link just became busy; a busy link's head (and hence its
        // horizon) is unchanged, but re-arming recomputes the same time.
        was_empty
    }
}

/// Link accounting from one composition run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    pub label: String,
    /// Bytes drained across the link.
    pub bytes_moved: f64,
    /// Transfers fully completed.
    pub transfers: u64,
    /// Seconds the link spent draining bytes.
    pub busy_seconds: f64,
    /// Time the last transfer completed.
    pub last_completion: Seconds,
    /// Deepest FIFO backlog observed.
    pub max_queue: usize,
}

/// A GPU in a composition: wraps an [`Engine`] and ships one transfer of
/// `bytes_per_task` over the link per completed task.
#[derive(Debug)]
pub struct GpuComponent {
    id: usize,
    label: String,
    engine: Engine,
    link: usize,
    bytes_per_task: f64,
    /// Heap ticks dispatched to this GPU.
    ticks: u64,
    sent: usize,
    received_transfers: u64,
    received_bytes: f64,
}

impl GpuComponent {
    pub fn new(id: usize, label: String, engine: Engine, link: usize, bytes_per_task: f64) -> Self {
        GpuComponent {
            id,
            label,
            engine,
            link,
            bytes_per_task,
            ticks: 0,
            sent: 0,
            received_transfers: 0,
            received_bytes: 0.0,
        }
    }

    /// Finalizes the wrapped engine into a per-GPU outcome. Errors if the
    /// engine has not finished.
    pub fn finish(self) -> Result<GpuOutcome> {
        let (result, stats) = self.engine.into_result()?;
        Ok(GpuOutcome {
            label: self.label,
            result,
            stats,
            ticks: self.ticks,
            sent_transfers: self.sent as u64,
            received_transfers: self.received_transfers,
            received_bytes: self.received_bytes,
        })
    }
}

impl Component for GpuComponent {
    fn label(&self) -> &str {
        &self.label
    }

    fn next_tick(&mut self) -> Result<Option<f64>> {
        self.engine.next_tick()
    }

    fn tick(&mut self, now: f64) -> Result<()> {
        self.ticks += 1;
        self.engine.tick_to(now)
    }

    fn drain_outbox(&mut self, out: &mut Vec<Message>) {
        let done = self.engine.tasks_completed_so_far();
        while self.sent < done {
            self.sent += 1;
            if self.bytes_per_task > 0.0 {
                out.push(Message {
                    from: self.id,
                    to: self.link,
                    bytes: self.bytes_per_task,
                });
            }
        }
    }

    fn deliver(&mut self, msg: &Message, _now: f64) -> bool {
        // Completion notifications from the link are counted, not acted
        // on: receiving them never moves the engine's horizon.
        self.received_transfers += 1;
        self.received_bytes += msg.bytes;
        false
    }
}

/// Per-GPU results from a composition run.
#[derive(Debug)]
pub struct GpuOutcome {
    pub label: String,
    pub result: RunResult,
    pub stats: EngineStats,
    /// Heap ticks dispatched to this GPU (one per engine event).
    pub ticks: u64,
    /// Transfers this GPU shipped onto the link.
    pub sent_transfers: u64,
    /// Completion notifications forwarded to this GPU by the link.
    pub received_transfers: u64,
    pub received_bytes: f64,
}

/// Results from a [`Composition`] run.
#[derive(Debug)]
pub struct CompositionOutcome {
    pub gpus: Vec<GpuOutcome>,
    pub link: LinkReport,
    /// Max over GPU makespans and the link's last transfer completion.
    pub makespan: Seconds,
    pub sim: SimStats,
}

/// The first multi-component scenario: N GPU engines sharing one
/// fixed-bandwidth interconnect, each shipping a transfer per completed
/// task to its ring successor. Proof that the component seam is real —
/// two engines and a link advance interleaved through one global heap in
/// a single run.
#[derive(Debug)]
pub struct Composition {
    gpus: Vec<GpuComponent>,
    link: SharedLink,
}

impl Composition {
    /// Builds a composition of `engines` (label, engine) around one shared
    /// link of `link_bandwidth` bytes/s; every completed task ships
    /// `bytes_per_task` bytes to the next GPU in ring order.
    pub fn new(
        engines: Vec<(String, Engine)>,
        link_bandwidth: f64,
        bytes_per_task: f64,
    ) -> Result<Self> {
        if engines.is_empty() {
            return Err(Error::InvalidConfig(
                "a composition needs at least one GPU".into(),
            ));
        }
        if !(bytes_per_task.is_finite() && bytes_per_task >= 0.0) {
            return Err(Error::InvalidConfig(format!(
                "bytes_per_task must be finite and non-negative, got {bytes_per_task}"
            )));
        }
        let n = engines.len();
        let link_id = n;
        let mut link = SharedLink::new(link_id, link_bandwidth, n + 1)?;
        for g in 0..n {
            link.set_route(g, (g + 1) % n);
        }
        let gpus = engines
            .into_iter()
            .enumerate()
            .map(|(id, (label, engine))| {
                GpuComponent::new(id, label, engine, link_id, bytes_per_task)
            })
            .collect();
        Ok(Composition { gpus, link })
    }

    /// Runs every component to completion through one shared tick heap.
    pub fn run(mut self) -> Result<CompositionOutcome> {
        let n = self.gpus.len();
        let mut core = SimCore::new(n + 1);
        {
            let mut comps: Vec<&mut dyn Component> = Vec::with_capacity(n + 1);
            for g in &mut self.gpus {
                comps.push(g);
            }
            comps.push(&mut self.link);
            core.run(&mut comps)?;
        }
        let sim = core.stats();
        let link = self.link.report();
        let mut makespan = link.last_completion.value();
        let mut gpus = Vec::with_capacity(n);
        for g in self.gpus {
            let outcome = g.finish()?;
            makespan = makespan.max(outcome.result.makespan.value());
            gpus.push(outcome);
        }
        Ok(CompositionOutcome {
            gpus,
            link,
            makespan: Seconds::new(makespan),
            sim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::engine::{EngineConfig, SharingMode};
    use crate::fault::FaultPlan;
    use crate::kernel::{KernelSpec, LaunchConfig};
    use crate::program::{ClientProgram, TaskProgram};
    use mpshare_types::{Fraction, MemBytes, TaskId};

    fn dev() -> DeviceSpec {
        DeviceSpec::a100x()
    }

    fn kernel(dur: f64, sm: f64, bw: f64, gap: f64) -> KernelSpec {
        KernelSpec::from_launch(
            &dev(),
            LaunchConfig::dense(216 * 64, 1024),
            Seconds::new(dur),
        )
        .with_sm_demand(Fraction::new(sm))
        .with_bw_demand(Fraction::new(bw))
        .with_host_gap(Seconds::new(gap))
    }

    fn client(label: &str, id: u64, tasks: usize) -> ClientProgram {
        let mut c = ClientProgram::new(label);
        for k in 0..tasks {
            let mut t = TaskProgram::new(
                TaskId::new(id * 10 + k as u64),
                label,
                MemBytes::from_mib(512),
            );
            t.push_kernel(kernel(1.0 + 0.25 * k as f64, 0.5, 0.2, 0.1));
            c.push_task(t);
        }
        c
    }

    fn engine(clients: usize) -> Engine {
        let programs: Vec<ClientProgram> = (0..clients)
            .map(|i| client(&format!("c{i}"), i as u64, 2))
            .collect();
        Engine::new(
            EngineConfig::new(dev(), SharingMode::mps_uniform(clients)),
            programs,
        )
        .unwrap()
    }

    /// Drives `engine` as the only component of a [`SimCore`], shipping
    /// nothing (`bytes_per_task` 0, so the link id is never addressed).
    fn run_through_simcore(engine: Engine) -> RunResult {
        let mut gpu = GpuComponent::new(0, "gpu0".to_string(), engine, 1, 0.0);
        let mut core = SimCore::new(1);
        {
            let mut comps: [&mut dyn Component; 1] = [&mut gpu];
            core.run(&mut comps).unwrap();
        }
        assert_eq!(core.stats().max_heap_depth, 1, "one component, one entry");
        let outcome = gpu.finish().unwrap();
        assert_eq!(
            outcome.ticks, outcome.stats.events,
            "a lone GPU gets exactly one heap tick per engine event"
        );
        assert_eq!(outcome.ticks, core.stats().ticks);
        outcome.result
    }

    #[test]
    fn solo_gpu_component_through_simcore_matches_step_loop() {
        let programs = || -> Vec<ClientProgram> {
            (0..3)
                .map(|i| client(&format!("c{i}"), i as u64, 2))
                .collect()
        };
        let horizons: Vec<Seconds> = programs().iter().map(|p| p.solo_wall_time()).collect();
        let faults = FaultPlan::seeded(5, &horizons, 0.5).unwrap();
        let cases = [
            (
                "mps with a seeded client fault",
                EngineConfig::new(dev(), SharingMode::mps_uniform(3)).with_fault_plan(faults),
            ),
            (
                "time-sliced",
                EngineConfig::new(dev(), SharingMode::timesliced_default()),
            ),
            ("streams", EngineConfig::new(dev(), SharingMode::Streams)),
        ];
        for (name, config) in cases {
            let stepped = Engine::new(config.clone(), programs())
                .unwrap()
                .run()
                .unwrap();
            let composed = run_through_simcore(Engine::new(config, programs()).unwrap());
            assert_eq!(
                serde_json::to_string(&composed).unwrap(),
                serde_json::to_string(&stepped).unwrap(),
                "{name}: the composition driver must be bit-identical to the step loop"
            );
            if name.starts_with("mps") {
                assert!(!stepped.failures.is_empty(), "the seeded fault must fire");
            }
        }
    }

    #[test]
    fn two_gpus_and_a_link_compose_end_to_end() {
        let bytes_per_task = 64.0 * 1024.0 * 1024.0;
        let bandwidth = 512.0 * 1024.0 * 1024.0; // slow enough to queue
        let composition = Composition::new(
            vec![
                ("gpu0".to_string(), engine(2)),
                ("gpu1".to_string(), engine(3)),
            ],
            bandwidth,
            bytes_per_task,
        )
        .unwrap();
        let outcome = composition.run().unwrap();

        let total_tasks: usize = outcome.gpus.iter().map(|g| g.result.tasks_completed).sum();
        assert!(total_tasks > 0);
        assert_eq!(
            outcome.link.transfers, total_tasks as u64,
            "every completed task ships exactly one transfer"
        );
        let expected_bytes = bytes_per_task * total_tasks as f64;
        assert!(
            (outcome.link.bytes_moved - expected_bytes).abs() <= 1.0,
            "link moved {} bytes, expected {expected_bytes}",
            outcome.link.bytes_moved
        );
        // Ring routing: gpu0's completions land on gpu1 and vice versa.
        let sent: u64 = outcome.gpus.iter().map(|g| g.sent_transfers).sum();
        let received: u64 = outcome.gpus.iter().map(|g| g.received_transfers).sum();
        assert_eq!(sent, total_tasks as u64);
        assert_eq!(received, total_tasks as u64);
        assert_eq!(
            outcome.gpus[0].received_transfers,
            outcome.gpus[1].sent_transfers
        );

        // The last notification cannot land before the last task finishes.
        assert!(outcome.makespan.value() >= outcome.link.last_completion.value());
        assert!(
            outcome.link.last_completion.value()
                > outcome
                    .gpus
                    .iter()
                    .map(|g| g.result.makespan.value())
                    .fold(0.0, f64::max)
                    - 1e-9,
            "transfers drain at or after the engine makespans"
        );

        // Heap/tick metrics prove the interleave: all three components
        // ticked, and the heap held more than one live entry at once.
        assert!(outcome.sim.ticks > 0);
        assert!(outcome.sim.max_heap_depth >= 2);
        assert!(outcome.sim.max_heap_depth <= 3);
        assert!(outcome.gpus.iter().all(|g| g.ticks > 0));
        assert_eq!(
            outcome.sim.messages,
            2 * total_tasks as u64,
            "one GPU→link and one link→GPU message per task"
        );
    }

    #[test]
    fn composition_gpu_results_match_solo_runs() {
        // The link is a pure observer (messages never stall an engine), so
        // each GPU's RunResult must be bit-identical to running it alone.
        let solo0 = engine(2).run().unwrap();
        let solo1 = engine(3).run().unwrap();
        let outcome = Composition::new(
            vec![
                ("gpu0".to_string(), engine(2)),
                ("gpu1".to_string(), engine(3)),
            ],
            1e9,
            1e6,
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(
            serde_json::to_string(&outcome.gpus[0].result).unwrap(),
            serde_json::to_string(&solo0).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&outcome.gpus[1].result).unwrap(),
            serde_json::to_string(&solo1).unwrap()
        );
    }

    #[test]
    fn fifo_link_serializes_contending_bursts() {
        // Two instant transfers delivered back to back at t=0 drain
        // serially: 2 × (bytes / bw).
        let mut link = SharedLink::new(2, 100.0, 3).unwrap();
        link.set_route(0, usize::MAX);
        link.set_route(1, usize::MAX);
        assert!(link.deliver(
            &Message {
                from: 0,
                to: 2,
                bytes: 100.0
            },
            0.0
        ));
        assert!(!link.deliver(
            &Message {
                from: 1,
                to: 2,
                bytes: 100.0
            },
            0.0
        ));
        let t1 = Component::next_tick(&mut link).unwrap().unwrap();
        assert!((t1 - 1.0).abs() < 1e-9);
        Component::tick(&mut link, t1).unwrap();
        let t2 = Component::next_tick(&mut link).unwrap().unwrap();
        assert!((t2 - 2.0).abs() < 1e-9);
        Component::tick(&mut link, t2).unwrap();
        assert!(Component::next_tick(&mut link).unwrap().is_none());
        let report = link.report();
        assert_eq!(report.transfers, 2);
        assert_eq!(report.max_queue, 2);
        assert!((report.busy_seconds - 2.0).abs() < 1e-9);
        assert!((report.bytes_moved - 200.0).abs() < 1e-9);
    }
}
