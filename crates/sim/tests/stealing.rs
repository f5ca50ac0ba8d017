//! Differential suite for the work-stealing chunk scheduler.
//!
//! The contract under test: `ChunkScheduler::Stealing` — fine-grained
//! chunk descriptors on per-shard deques, shard-to-worker pinning,
//! steal-from-the-longest-victim when dry — produces outcomes
//! **bit-identical per seed** to both the static schedule and the serial
//! engine, under both round modes, both merge strategies, churn, message
//! faults, and snapshot resume. The uniform families keep the matrix
//! honest; the skewed families (`power_law`, `hub_and_spoke`) are the
//! graphs the scheduler exists for, where hub chunks actually migrate.
//! Compiled only with the `parallel` feature.

#![cfg(feature = "parallel")]

use proptest::prelude::*;
use stoneage_core::{AsMulti, TableProtocol};
use stoneage_graph::{generators, Graph, TopologyEvent};
use stoneage_sim::parbuf::ShardPlan;
use stoneage_sim::{
    ChurnPlan, FaultPlan, MergeStrategy, Observer, Outcome, ParallelPolicy, RoundMode, Simulation,
    Snapshot,
};
use stoneage_testkit::{
    adversarial_worker_counts as worker_counts, chunk_schedulers, churn_fingerprint,
    count_neighbors, fault_fingerprint, random_beeper, round_modes, scoped_fingerprint,
    skewed_graph_family, sync_fingerprint, Poke,
};

type SyncP = AsMulti<TableProtocol>;

/// Uniform oracle families plus the skewed families the scheduler
/// targets.
fn graph_family() -> Vec<(&'static str, Graph)> {
    let mut family = vec![
        ("gnp", generators::gnp(120, 0.06, 3)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
    ];
    family.extend(skewed_graph_family());
    family
}

/// A stealing policy cell of the matrix.
fn stealing(workers: usize, merge: MergeStrategy, round: RoundMode) -> ParallelPolicy {
    ParallelPolicy::forced(workers, merge)
        .with_round(round)
        .with_stealing()
}

fn run_sync(p: &SyncP, g: &Graph, seed: u64, policy: Option<&ParallelPolicy>) -> Outcome<SyncP> {
    let mut b = Simulation::sync(p, g).seed(seed);
    if let Some(policy) = policy {
        b = b.parallel(*policy);
    }
    b.run().expect("sync runs terminate")
}

fn run_scoped(g: &Graph, seed: u64, policy: Option<&ParallelPolicy>) -> Outcome<Poke> {
    let poke = Poke::new();
    let mut b = Simulation::scoped(&poke, g).seed(seed).budget(100);
    if let Some(policy) = policy {
        b = b.parallel(*policy);
    }
    b.run().expect("scoped runs terminate")
}

/// Sync backend: `stealing ≡ static ≡ serial` across every family ×
/// adversarial worker count × merge strategy × round mode. Fingerprints
/// cover outputs, rounds, and message counts; the steal counters are
/// deliberately *not* compared (they are timing-dependent).
#[test]
fn sync_stealing_matrix_matches_serial() {
    let p = AsMulti(count_neighbors(3));
    for (name, g) in graph_family() {
        for seed in 1..3u64 {
            let serial = run_sync(&p, &g, seed, None)
                .into_sync_outcome()
                .expect("sync backend");
            for workers in worker_counts() {
                for merge in [
                    MergeStrategy::DestinationSharded,
                    MergeStrategy::BufferReplay,
                ] {
                    for round in round_modes() {
                        let policy = stealing(workers, merge, round);
                        let par = run_sync(&p, &g, seed, Some(&policy))
                            .into_sync_outcome()
                            .expect("sync backend");
                        let ctx = format!("{name}/seed{seed}/w{workers}/{merge:?}/{round:?}");
                        assert_eq!(par.outputs, serial.outputs, "{ctx}: outputs diverge");
                        assert_eq!(
                            sync_fingerprint(&par),
                            sync_fingerprint(&serial),
                            "{ctx}: fingerprints diverge"
                        );
                    }
                }
            }
        }
    }
}

/// Scoped backend: the full delivery-witness transcript (order and all)
/// must survive chunk migration — per-chunk witnesses are re-absorbed in
/// ascending chunk order, which this matrix pins against the serial
/// sender order. The randomized `random_beeper`-style draws inside
/// `Poke` also pin the per-node RNG streams across schedules.
#[test]
fn scoped_stealing_matrix_matches_serial() {
    for (name, g) in graph_family() {
        for seed in 10..12u64 {
            let serial = run_scoped(&g, seed, None)
                .into_scoped_outcome()
                .expect("scoped backend");
            for workers in worker_counts() {
                for merge in [
                    MergeStrategy::DestinationSharded,
                    MergeStrategy::BufferReplay,
                ] {
                    for round in round_modes() {
                        let policy = stealing(workers, merge, round);
                        let par = run_scoped(&g, seed, Some(&policy))
                            .into_scoped_outcome()
                            .expect("scoped backend");
                        let ctx = format!("{name}/seed{seed}/w{workers}/{merge:?}/{round:?}");
                        assert_eq!(par.outputs, serial.outputs, "{ctx}: outputs diverge");
                        assert_eq!(
                            par.scoped_deliveries, serial.scoped_deliveries,
                            "{ctx}: delivery transcripts diverge"
                        );
                        assert_eq!(
                            scoped_fingerprint(&par),
                            scoped_fingerprint(&serial),
                            "{ctx}: fingerprints diverge"
                        );
                    }
                }
            }
        }
    }
}

/// Stealing composes with churn: crash/restart/edge events on a skewed
/// graph, parallel-stealing vs serial, hashed down to outputs, applied
/// event tallies, and the final live set.
#[test]
fn stealing_composes_with_churn() {
    let p = AsMulti(random_beeper(5, 2));
    for (name, g) in graph_family() {
        let plan = ChurnPlan::random(&g, 31, 10, 8)
            .at(1, TopologyEvent::Crash(0))
            .at(3, TopologyEvent::Restart(0));
        for seed in 3..5u64 {
            let serial = Simulation::sync(&p, &g)
                .seed(seed)
                .with_churn(&plan)
                .run()
                .expect("serial churn terminates");
            let serial_sum = serial.churn().expect("churn plan was set").clone();
            let serial_out = serial.into_sync_outcome().expect("sync backend");
            for workers in [2, 7] {
                for round in round_modes() {
                    let policy = stealing(workers, MergeStrategy::DestinationSharded, round);
                    let par = Simulation::sync(&p, &g)
                        .seed(seed)
                        .with_churn(&plan)
                        .parallel(policy)
                        .run()
                        .expect("stealing churn terminates");
                    let par_sum = par.churn().expect("churn plan was set").clone();
                    let par_out = par.into_sync_outcome().expect("sync backend");
                    assert_eq!(
                        churn_fingerprint(&par_out, &par_sum),
                        churn_fingerprint(&serial_out, &serial_sum),
                        "{name}/seed{seed}/w{workers}/{round:?}: churn fingerprints diverge"
                    );
                }
            }
        }
    }
}

/// Stealing composes with message faults: the per-channel fault
/// decisions (drop/duplicate/corrupt draws) must not move when chunks
/// migrate between workers.
#[test]
fn stealing_composes_with_faults() {
    let p = AsMulti(count_neighbors(3));
    let plan = FaultPlan::new(101)
        .drop_rate(0.08)
        .duplicate_rate(0.04, 2)
        .corrupt_rate(0.03, stoneage_core::Letter(0));
    for (name, g) in graph_family() {
        for seed in 6..8u64 {
            let serial = Simulation::sync(&p, &g)
                .seed(seed)
                .with_faults(&plan)
                .run()
                .expect("serial faulted run terminates");
            let serial_sum = *serial.faults().expect("fault plan was set");
            let serial_out = serial.into_sync_outcome().expect("sync backend");
            for workers in [2, 7] {
                for round in round_modes() {
                    let policy = stealing(workers, MergeStrategy::DestinationSharded, round);
                    let par = Simulation::sync(&p, &g)
                        .seed(seed)
                        .with_faults(&plan)
                        .parallel(policy)
                        .run()
                        .expect("stealing faulted run terminates");
                    let par_sum = *par.faults().expect("fault plan was set");
                    let par_out = par.into_sync_outcome().expect("sync backend");
                    assert_eq!(
                        fault_fingerprint(&par_out, &par_sum),
                        fault_fingerprint(&serial_out, &serial_sum),
                        "{name}/seed{seed}/w{workers}/{round:?}: fault fingerprints diverge"
                    );
                }
            }
        }
    }
}

/// Collects every checkpoint frame the run hands out.
#[derive(Default)]
struct Collect {
    snaps: Vec<Snapshot>,
}

impl<S> Observer<S> for Collect {
    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.snaps.push(snapshot.clone());
    }
}

/// Frames captured on the serial and static-parallel paths resume under
/// the stealing schedule (and vice versa) onto the uninterrupted
/// outcome — the scheduler is a perf knob, excluded from the config
/// digest exactly like worker count and round mode.
#[test]
fn snapshots_resume_across_schedulers() {
    let p = AsMulti(count_neighbors(3));
    let (_, g) = skewed_graph_family().remove(0);
    let want = {
        let full = run_sync(&p, &g, 7, None);
        format!("{:?} | {:?} | {:?}", full.outputs, full.states, full.cost)
    };

    // Capture frames under each scheduler...
    for capture in chunk_schedulers() {
        let mut obs = Collect::default();
        let policy =
            ParallelPolicy::forced(2, MergeStrategy::DestinationSharded).with_scheduler(capture);
        Simulation::sync(&p, &g)
            .seed(7)
            .parallel(policy)
            .checkpoint_every(1)
            .observe(&mut obs)
            .run()
            .expect("checkpointed run terminates");
        assert!(!obs.snaps.is_empty(), "no frames captured");
        // ...and resume every frame under the *other* scheduler and both
        // round modes.
        for snap in &obs.snaps {
            for resume in chunk_schedulers() {
                for round in round_modes() {
                    let policy = ParallelPolicy::forced(3, MergeStrategy::DestinationSharded)
                        .with_round(round)
                        .with_scheduler(resume);
                    let resumed = Simulation::sync(&p, &g)
                        .seed(7)
                        .parallel(policy)
                        .resume_from(snap)
                        .run()
                        .expect("resume terminates");
                    let got = format!(
                        "{:?} | {:?} | {:?}",
                        resumed.outputs, resumed.states, resumed.cost
                    );
                    assert_eq!(
                        got,
                        want,
                        "capture={capture:?} resume={resume:?}/{round:?} at boundary {} diverged",
                        snap.boundary()
                    );
                }
            }
        }
    }
}

/// The steal counters surface on `Outcome`: the static schedule reports
/// all-zero, the stealing schedule reports the (deterministic) chunk
/// count, and on a hub-and-spoke graph with more than one worker chunks
/// genuinely execute. `steals` itself is timing-dependent, so the test
/// only pins its zero-on-static contract.
#[test]
fn steal_counters_surface_on_outcome() {
    let p = AsMulti(count_neighbors(3));
    let (_, g) = skewed_graph_family().remove(1); // hub-and-spoke
    let static_policy = ParallelPolicy::forced(4, MergeStrategy::DestinationSharded);
    let out = run_sync(&p, &g, 1, Some(&static_policy));
    // CI's stealing leg (`STONEAGE_SCHEDULER=stealing`) overrides every
    // policy, including this one — the zero-on-static contract only
    // holds when the policy actually resolves to the static schedule.
    if static_policy.resolve_scheduler() == stoneage_sim::ChunkScheduler::Static {
        assert_eq!(out.steals.steals, 0, "static schedule cannot steal");
        assert_eq!(out.steals.chunks, 0, "static schedule has no descriptors");
    } else {
        assert!(out.steals.chunks > 0, "overridden run executed no chunks");
    }

    let stealing_policy = static_policy.with_stealing();
    let a = run_sync(&p, &g, 1, Some(&stealing_policy));
    assert!(a.steals.chunks > 0, "stealing run executed no chunks");
    assert!(
        a.steals.steals <= a.steals.chunks,
        "stolen chunks are a subset of executed chunks"
    );
    // The chunk count is a pure function of graph, workers, and rounds —
    // only the steal tally may move between runs.
    let b = run_sync(&p, &g, 1, Some(&stealing_policy));
    assert_eq!(
        a.steals.chunks, b.steals.chunks,
        "chunk count must be deterministic"
    );
    assert_eq!(a.outputs, b.outputs, "outputs must be deterministic");

    // Serial runs report the zero default.
    let serial = run_sync(&p, &g, 1, None);
    assert_eq!(serial.steals, stoneage_sim::StealStats::default());
}

/// The documented churn contract of the planner (see
/// `pipeline::run_parallel`): the shard plan is built **once** over
/// the closed universe CSR and stays valid for the whole run — churn
/// patches toggle letters and tombstones inside the fixed layout, never
/// the slot counts the planner balances on. Pinned here as (a) full
/// coverage of the universe including crashed/extra-edge nodes and (b)
/// rebuild determinism: re-planning at any later boundary would
/// reproduce the identical bounds, so skipping the re-plan is free.
#[test]
fn churn_patches_leave_shard_plan_valid() {
    let g = generators::power_law(200, 2, 0.85, 11);
    let plan = ChurnPlan::random(&g, 31, 10, 8)
        .at(1, TopologyEvent::Crash(0))
        .at(3, TopologyEvent::Restart(0));
    let universe = plan.universe(&g).expect("universe closes");
    for workers in [1, 2, 4, 7] {
        let bounds = ShardPlan::new(&universe, workers);
        assert_eq!(*bounds.bounds().first().unwrap(), 0);
        assert_eq!(
            *bounds.bounds().last().unwrap(),
            universe.node_count(),
            "w{workers}: plan must cover every universe node, live or not"
        );
        assert!(
            bounds.bounds().windows(2).all(|w| w[0] <= w[1]),
            "w{workers}: bounds must ascend"
        );
        assert_eq!(
            bounds.bounds(),
            ShardPlan::new(&universe, workers).bounds(),
            "w{workers}: re-planning over the immutable universe CSR must be a no-op"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential property over random instances with the scheduler as
    /// an explicit dimension: every (graph, seed, workers, merge, round,
    /// scheduler) cell reproduces the serial scoped outcome bit-for-bit,
    /// witness transcript included.
    #[test]
    fn stealing_matches_serial_on_random_instances(
        n in 2usize..60,
        pr in 0.0f64..0.4,
        gseed in 0u64..300,
        seed in 0u64..300,
        widx in 0usize..4,
        fused in 0usize..2,
        steal in 0usize..2,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let workers = worker_counts()[widx % worker_counts().len()];
        let round = if fused == 1 { RoundMode::Fused } else { RoundMode::Joined };
        let scheduler = chunk_schedulers()[steal];
        let policy = ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded)
            .with_round(round)
            .with_scheduler(scheduler);
        let par = run_scoped(&g, seed, Some(&policy))
            .into_scoped_outcome()
            .expect("scoped backend");
        let serial = run_scoped(&g, seed, None)
            .into_scoped_outcome()
            .expect("scoped backend");
        prop_assert_eq!(scoped_fingerprint(&par), scoped_fingerprint(&serial));
        prop_assert_eq!(par.outputs, serial.outputs);
        prop_assert_eq!(par.scoped_deliveries, serial.scoped_deliveries);
    }

    /// Same property on the skewed power-law family — small hubs, random
    /// attachment counts — where chunk migration actually happens.
    #[test]
    fn stealing_matches_serial_on_random_skewed_instances(
        n in 10usize..80,
        m in 1usize..4,
        gseed in 0u64..300,
        seed in 0u64..300,
        widx in 0usize..4,
        fused in 0usize..2,
    ) {
        let g = generators::power_law(n, m.min(n - 1), 0.9, gseed);
        let workers = worker_counts()[widx % worker_counts().len()];
        let round = if fused == 1 { RoundMode::Fused } else { RoundMode::Joined };
        let policy = ParallelPolicy::forced(workers, MergeStrategy::BufferReplay)
            .with_round(round)
            .with_stealing();
        let par = run_scoped(&g, seed, Some(&policy))
            .into_scoped_outcome()
            .expect("scoped backend");
        let serial = run_scoped(&g, seed, None)
            .into_scoped_outcome()
            .expect("scoped backend");
        prop_assert_eq!(scoped_fingerprint(&par), scoped_fingerprint(&serial));
        prop_assert_eq!(par.outputs, serial.outputs);
        prop_assert_eq!(par.scoped_deliveries, serial.scoped_deliveries);
    }
}
