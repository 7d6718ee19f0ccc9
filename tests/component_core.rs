//! End-to-end integration of the component/tick-heap core through the
//! facade crate: a two-GPU + shared-interconnect composition advances
//! interleaved through one global heap, and each GPU's result stays
//! bit-identical to the same engine run solo.

use mpshare::gpusim::{ClientProgram, Composition, DeviceSpec, Engine, EngineConfig, SharingMode};
use mpshare::workloads::SyntheticSpec;

fn device() -> DeviceSpec {
    DeviceSpec::a100x()
}

/// Two clients, two tasks each (4 tasks per GPU); distinct salts keep the
/// task-id spaces of the two GPUs disjoint.
fn programs(salt: u64) -> Vec<ClientProgram> {
    let d = device();
    (0..2)
        .map(|i| {
            SyntheticSpec {
                sm_demand: 0.25 + 0.1 * i as f64,
                bw_demand: 0.1,
                duty_cycle: 0.8,
                duration: 1.0 + 0.5 * i as f64,
                memory_mib: 256,
                kernels: 4,
                cache_sensitivity: 0.2,
                client_sensitivity: 0.05,
            }
            .to_client_program(&d, 2, salt + i as u64 * 100)
            .unwrap()
        })
        .collect()
}

fn engine(salt: u64) -> Engine {
    Engine::new(
        EngineConfig::new(device(), SharingMode::mps_uniform(2)),
        programs(salt),
    )
    .unwrap()
}

#[test]
fn two_gpu_composition_matches_solo_runs_and_accounts_the_link() {
    // Solo references: the same engines run alone through their own
    // `while step()` loop.
    let (solo0, _) = engine(0).run_with_stats().unwrap();
    let (solo1, _) = engine(1000).run_with_stats().unwrap();

    let outcome = Composition::new(
        vec![
            ("gpu0".to_string(), engine(0)),
            ("gpu1".to_string(), engine(1000)),
        ],
        1e9, // 1 GB/s link
        1e6, // 1 MB shipped per completed task
    )
    .unwrap()
    .run()
    .unwrap();

    // Composing with an interconnect must not perturb either engine: the
    // link only observes completions, it never back-pressures the GPUs.
    assert_eq!(
        serde_json::to_string(&outcome.gpus[0].result).unwrap(),
        serde_json::to_string(&solo0).unwrap(),
        "gpu0 diverged from its solo run"
    );
    assert_eq!(
        serde_json::to_string(&outcome.gpus[1].result).unwrap(),
        serde_json::to_string(&solo1).unwrap(),
        "gpu1 diverged from its solo run"
    );

    // Link accounting: one transfer per completed task, ring-routed, all
    // drained by the end of the run.
    let total_tasks = (solo0.tasks_completed + solo1.tasks_completed) as u64;
    assert_eq!(total_tasks, 8);
    assert_eq!(outcome.link.transfers, total_tasks);
    assert!((outcome.link.bytes_moved - total_tasks as f64 * 1e6).abs() < 1e-3);
    assert!(outcome.link.busy_seconds > 0.0);
    assert!(outcome.link.last_completion.value() > 0.0);
    for (g, solo) in outcome.gpus.iter().zip([&solo0, &solo1]) {
        assert_eq!(g.sent_transfers, solo.tasks_completed as u64);
        assert_eq!(
            g.received_transfers,
            total_tasks - solo.tasks_completed as u64
        );
    }

    // Heap/tick accounting: three components share the heap, the link is
    // armed only while transfers are queued, and every task crosses the
    // core twice (GPU → link, link → successor GPU).
    assert!(outcome.sim.ticks > 0);
    for g in &outcome.gpus {
        assert_eq!(g.ticks, g.stats.events, "one heap tick per engine event");
    }
    assert!(
        (2..=3).contains(&outcome.sim.max_heap_depth),
        "heap depth {} out of range",
        outcome.sim.max_heap_depth
    );
    assert_eq!(outcome.sim.messages, 2 * total_tasks);

    // The composition makespan covers both GPUs and the link's tail.
    assert!(outcome.makespan >= solo0.makespan);
    assert!(outcome.makespan >= solo1.makespan);
    assert!(outcome.makespan.value() >= outcome.link.last_completion.value());
}
