//! Checkpoint/resume determinism suite for `stoneage_sim::snapshot`.
//!
//! The contract under test, from strongest to weakest:
//!
//! 1. **Resume ≡ uninterrupted.** Run to boundary `k`, capture a
//!    [`Snapshot`], resume from it — the final outcome (outputs, states,
//!    cost, backend detail) is bit-identical to the run that never
//!    stopped, for every backend × worker count × round mode × churn
//!    combination, *including* when the frame round-trips through
//!    [`Snapshot::to_bytes`] / [`Snapshot::from_bytes`] first.
//! 2. **Checkpointing is free.** Attaching a cadence must not perturb
//!    the run it observes, and the observer hook never fires without
//!    one.
//! 3. **Frames are queue-independent.** The two async event queues
//!    capture byte-equal frames, and a frame taken on one resumes on
//!    the other.
//! 4. **Rejection is typed.** A snapshot from the wrong graph,
//!    protocol, backend, or configuration is a typed
//!    [`ExecError::Snapshot`]; corrupted or truncated bytes are a typed
//!    [`SnapshotError`]. Never a panic, never a silently divergent run.

use proptest::prelude::*;
use stoneage_core::{AsMulti, Protocol, Synchronized, TableProtocol};
use stoneage_graph::{generators, Graph, TopologyEvent};
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{
    AsyncOptions, Backend, ChurnPlan, ExecError, FaultPlan, Observer, Outcome, SchedulerKind,
    Simulation, Snapshot, SnapshotError,
};
#[cfg(feature = "parallel")]
use stoneage_sim::{MergeStrategy, ParallelPolicy, RoundMode};
use stoneage_testkit::{count_neighbors, count_neighbors_quiet, Poke};

type SyncP = AsMulti<TableProtocol>;
type AsyncP = Synchronized<TableProtocol>;

#[cfg(feature = "parallel")]
type PolicyOpt = Option<ParallelPolicy>;
#[cfg(not(feature = "parallel"))]
type PolicyOpt = Option<()>;

/// A canonical rendering of everything an [`Outcome`] carries except
/// the worker count — resuming under a different parallel policy is a
/// supported configuration change, and must not move anything else.
fn transcript<P: Protocol>(out: &Outcome<P>) -> String {
    format!(
        "{:?} | {:?} | {:?} | {:?}",
        out.outputs, out.states, out.cost, out.detail
    )
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

/// A seeded random plan plus a deliberate crash → restart pair so every
/// churn run exercises both lifecycle events.
fn plan_for(g: &Graph, seed: u64) -> ChurnPlan {
    ChurnPlan::random(g, seed, 8, 6)
        .at(1, TopologyEvent::Crash(0))
        .at(3, TopologyEvent::Restart(0))
}

/// The execution-policy axis of the acceptance matrix: the serial path
/// always, plus workers {1, 2, hw} × {Joined, Fused} under the
/// `parallel` feature.
#[cfg(feature = "parallel")]
fn policies() -> Vec<(String, PolicyOpt)> {
    let hw = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let mut out = vec![("serial".to_string(), None)];
    for workers in [1, 2, hw] {
        for mode in [RoundMode::Joined, RoundMode::Fused] {
            let policy =
                ParallelPolicy::forced(workers, MergeStrategy::DestinationSharded).with_round(mode);
            out.push((format!("w{workers}-{mode:?}"), Some(policy)));
        }
    }
    out
}

#[cfg(not(feature = "parallel"))]
fn policies() -> Vec<(String, PolicyOpt)> {
    vec![("serial".to_string(), None)]
}

/// One sync-backend builder cell. A free function (not a closure) so
/// every call picks fresh borrow lifetimes.
fn mk_sync<'a>(
    p: &'a SyncP,
    g: &'a Graph,
    seed: u64,
    churn: Option<&'a ChurnPlan>,
    policy: &PolicyOpt,
) -> Simulation<'a, SyncP> {
    let mut b = Simulation::sync(p, g).seed(seed);
    if let Some(plan) = churn {
        b = b.with_churn(plan);
    }
    #[cfg(feature = "parallel")]
    if let Some(pol) = policy {
        b = b.parallel(*pol);
    }
    #[cfg(not(feature = "parallel"))]
    let _ = policy;
    b
}

/// One scoped-backend builder cell.
fn mk_scoped<'a>(
    p: &'a Poke,
    g: &'a Graph,
    seed: u64,
    churn: Option<&'a ChurnPlan>,
    policy: &PolicyOpt,
) -> Simulation<'a, Poke> {
    let mut b = Simulation::scoped(p, g).seed(seed).budget(100);
    if let Some(plan) = churn {
        b = b.with_churn(plan);
    }
    #[cfg(feature = "parallel")]
    if let Some(pol) = policy {
        b = b.parallel(*pol);
    }
    #[cfg(not(feature = "parallel"))]
    let _ = policy;
    b
}

/// One async-backend builder cell.
fn mk_async<'a>(
    p: &'a AsyncP,
    g: &'a Graph,
    adv: &'a UniformRandom,
    seed: u64,
    scheduler: SchedulerKind,
    churn: Option<&'a ChurnPlan>,
) -> Simulation<'a, AsyncP> {
    let mut b = Simulation::asynchronous(p, g, adv)
        .seed(seed)
        .backend(Backend::Async(
            AsyncOptions::new(adv).with_scheduler(scheduler),
        ));
    if let Some(plan) = churn {
        b = b.with_churn(plan);
    }
    b
}

/// Drives one cell of the matrix: uninterrupted run, checkpointed run
/// (must be unperturbed), then a resume from **every** captured frame —
/// both the in-memory `Snapshot` and its byte round-trip — each of
/// which must land on the uninterrupted transcript. `$mk` is
/// re-evaluated per run so each builder borrows afresh.
macro_rules! check_cell {
    ($name:expr, $mk:expr, $every:expr) => {{
        let full = $mk.run().expect("uninterrupted run terminates");
        let want = transcript(&full);

        let every = $every(&full);
        let snaps = {
            let mut obs = Collect::default();
            let out = $mk
                .checkpoint_every(every)
                .observe(&mut obs)
                .run()
                .expect("checkpointed run terminates");
            assert_eq!(
                transcript(&out),
                want,
                "{}: attaching a checkpoint cadence perturbed the run",
                $name
            );
            obs.snaps
        };
        assert!(
            !snaps.is_empty(),
            "{}: cadence {every} produced no frames",
            $name
        );

        for snap in &snaps {
            let resumed = $mk.resume_from(snap).run().expect("resume terminates");
            assert_eq!(
                transcript(&resumed),
                want,
                "{}: resume at boundary {} diverged",
                $name,
                snap.boundary()
            );

            let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
            assert_eq!(
                &decoded, snap,
                "{}: byte round-trip must be lossless",
                $name
            );
            let resumed = $mk
                .resume_from(&decoded)
                .run()
                .expect("resume from bytes terminates");
            assert_eq!(
                transcript(&resumed),
                want,
                "{}: resume from deserialized bytes at boundary {} diverged",
                $name,
                snap.boundary()
            );
        }
        snaps
    }};
}

#[test]
fn sync_resume_matrix_is_bit_identical() {
    let p = AsMulti(count_neighbors(3));
    let g = generators::gnp(60, 0.08, 5);
    let plan = plan_for(&g, 9);
    for churn in [None, Some(&plan)] {
        for (pname, policy) in policies() {
            let name = format!("sync/{pname}/churn={}", churn.is_some());
            check_cell!(
                &name,
                mk_sync(&p, &g, 7, churn, &policy),
                |full: &Outcome<SyncP>| (full.rounds().unwrap() / 3).max(1)
            );
        }
    }
}

#[test]
fn scoped_resume_matrix_is_bit_identical() {
    let p = Poke::new();
    let g = generators::gnp(60, 0.08, 5);
    let plan = plan_for(&g, 4);
    for churn in [None, Some(&plan)] {
        for (pname, policy) in policies() {
            let name = format!("scoped/{pname}/churn={}", churn.is_some());
            check_cell!(
                &name,
                mk_scoped(&p, &g, 7, churn, &policy),
                |_full: &Outcome<Poke>| 1u64
            );
        }
    }
}

#[test]
fn async_resume_is_bit_identical_on_both_schedulers() {
    let p = Synchronized::new(count_neighbors_quiet(2));
    let g = generators::gnp(40, 0.1, 3);
    let adv = UniformRandom { seed: 11 };
    let plan = plan_for(&g, 2);
    for churn in [None, Some(&plan)] {
        for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
            let name = format!("async/{scheduler:?}/churn={}", churn.is_some());
            check_cell!(
                &name,
                mk_async(&p, &g, &adv, 5, scheduler, churn),
                |full: &Outcome<AsyncP>| {
                    let steps = full
                        .clone()
                        .into_async_outcome()
                        .expect("async backend")
                        .total_steps;
                    (steps / 3).max(1)
                }
            );
        }
    }
}

/// Under churn and faults, the two event queues capture byte-equal
/// frames at every boundary, and a frame captured on either queue
/// resumes on the other to the uninterrupted transcript.
#[test]
fn async_frames_cross_schedulers_under_churn_and_faults() {
    use SchedulerKind::{BinaryHeap, CalendarWheel};
    let p = Synchronized::new(count_neighbors_quiet(2));
    let g = generators::gnp(40, 0.1, 3);
    let adv = UniformRandom { seed: 11 };
    let plan = plan_for(&g, 2);
    let faults = FaultPlan::new(6).duplicate_rate(0.2, 2);
    let full = mk_async(&p, &g, &adv, 5, BinaryHeap, Some(&plan))
        .with_faults(&faults)
        .run()
        .expect("terminates");
    let want = transcript(&full);
    let steps = full.into_async_outcome().expect("async").total_steps;
    let frames = |scheduler: SchedulerKind| {
        let mut obs = Collect::default();
        let out = mk_async(&p, &g, &adv, 5, scheduler, Some(&plan))
            .with_faults(&faults)
            .checkpoint_every((steps / 4).max(1))
            .observe(&mut obs)
            .run()
            .expect("terminates");
        assert_eq!(transcript(&out), want, "{scheduler:?}: checkpointing");
        obs.snaps
    };
    let (wheel, heap) = (frames(CalendarWheel), frames(BinaryHeap));
    assert!(!wheel.is_empty(), "the cadence captured frames");
    let bytes = |snaps: &[Snapshot]| snaps.iter().map(Snapshot::to_bytes).collect::<Vec<_>>();
    assert_eq!(bytes(&wheel), bytes(&heap), "frames differ across queues");
    for (snap, scheduler) in wheel
        .iter()
        .map(|s| (s, BinaryHeap))
        .chain(heap.iter().map(|s| (s, CalendarWheel)))
    {
        let resumed = mk_async(&p, &g, &adv, 5, scheduler, Some(&plan))
            .with_faults(&faults)
            .resume_from(snap)
            .run()
            .expect("resume terminates");
        assert_eq!(
            transcript(&resumed),
            want,
            "resume on {scheduler:?} at boundary {} diverged",
            snap.boundary()
        );
    }
}

/// The config digest deliberately excludes performance-only knobs, so a
/// frame captured on one execution policy resumes under any other —
/// serial → parallel, across worker counts, across round modes — and
/// still lands on the same transcript.
#[cfg(feature = "parallel")]
#[test]
fn snapshots_resume_across_worker_counts_and_round_modes() {
    let p = AsMulti(count_neighbors(3));
    let g = generators::gnp(60, 0.08, 5);
    let full = Simulation::sync(&p, &g).seed(7).run().unwrap();
    let want = transcript(&full);

    let mut obs = Collect::default();
    Simulation::sync(&p, &g)
        .seed(7)
        .checkpoint_every(1)
        .observe(&mut obs)
        .run()
        .unwrap();
    let snaps = obs.snaps;
    assert!(!snaps.is_empty(), "cadence 1 must hit a non-terminal round");
    let snap = &snaps[snaps.len() / 2];

    for (pname, policy) in policies() {
        let resumed = mk_sync(&p, &g, 7, None, &policy)
            .resume_from(snap)
            .run()
            .unwrap();
        assert_eq!(
            transcript(&resumed),
            want,
            "serial frame resumed under {pname} diverged"
        );
    }
}

#[test]
fn observer_hook_never_fires_without_a_cadence() {
    let p = AsMulti(count_neighbors(2));
    let g = generators::gnp(30, 0.15, 1);
    let mut obs = Collect::default();
    Simulation::sync(&p, &g)
        .seed(3)
        .observe(&mut obs)
        .run()
        .unwrap();
    assert!(obs.snaps.is_empty());
}

/// One committed sync frame to corrupt and mis-route in the rejection
/// tests below.
fn captured_sync_snapshot() -> (SyncP, Graph, Snapshot) {
    let p = AsMulti(count_neighbors(3));
    let g = generators::gnp(30, 0.12, 5);
    let mut obs = Collect::default();
    Simulation::sync(&p, &g)
        .seed(7)
        .checkpoint_every(1)
        .observe(&mut obs)
        .run()
        .unwrap();
    let snap = obs.snaps.first().expect("at least one frame").clone();
    (p, g, snap)
}

#[test]
fn resume_header_mismatches_are_typed_errors() {
    let (p, g, snap) = captured_sync_snapshot();

    let expect = |err: ExecError, field: &'static str| {
        assert_eq!(
            err,
            ExecError::Snapshot(SnapshotError::DigestMismatch { field })
        );
    };

    // Same shape, different graph.
    let g2 = generators::gnp(30, 0.12, 6);
    expect(
        Simulation::sync(&p, &g2)
            .seed(7)
            .resume_from(&snap)
            .run()
            .unwrap_err(),
        "graph fingerprint",
    );

    // Different protocol (bound 2 instead of 3).
    let p2 = AsMulti(count_neighbors(2));
    expect(
        Simulation::sync(&p2, &g)
            .seed(7)
            .resume_from(&snap)
            .run()
            .unwrap_err(),
        "protocol id",
    );

    // Different backend entirely.
    expect(
        Simulation::scoped(&Poke::new(), &g)
            .seed(7)
            .resume_from(&snap)
            .run()
            .unwrap_err(),
        "backend",
    );

    // Same everything, different seed.
    expect(
        Simulation::sync(&p, &g)
            .seed(8)
            .resume_from(&snap)
            .run()
            .unwrap_err(),
        "config digest",
    );

    // Same everything, different churn plan.
    let plan = plan_for(&g, 1);
    expect(
        Simulation::sync(&p, &g)
            .seed(7)
            .with_churn(&plan)
            .resume_from(&snap)
            .run()
            .unwrap_err(),
        "config digest",
    );
}

#[test]
fn corrupted_bytes_are_rejected_never_panicking() {
    let (_, _, snap) = captured_sync_snapshot();
    let bytes = snap.to_bytes();

    // Every strict prefix is a typed error (the trailing checksum can
    // never survive truncation).
    for cut in 0..bytes.len() {
        assert!(
            Snapshot::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }

    // Every single-bit flip is a typed error: the FNV checksum covers
    // the full frame, and header corruption is caught field-by-field.
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "bit {bit} of byte {i} flipped, frame must be rejected"
            );
        }
    }

    // A future format version is specifically a VersionMismatch (the
    // version field is validated before the checksum so old readers
    // give the right diagnosis for new frames).
    let mut future = bytes.clone();
    future[4] = future[4].wrapping_add(1);
    assert!(matches!(
        Snapshot::from_bytes(&future),
        Err(SnapshotError::VersionMismatch { supported, .. })
            if supported == stoneage_sim::SNAPSHOT_VERSION
    ));

    // Appending trailing garbage breaks the length accounting.
    let mut long = bytes.clone();
    long.extend_from_slice(b"junk");
    assert!(matches!(
        Snapshot::from_bytes(&long),
        Err(SnapshotError::Truncated { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Resume ≡ uninterrupted at a *random* boundary, on random graphs
    /// and seeds, with and without churn, for both lockstep backends —
    /// including through the byte round-trip.
    #[test]
    fn lockstep_resume_at_random_boundary_matches_uninterrupted(
        n in 8usize..40,
        pr in 0.05f64..0.25,
        gseed in 0u64..100,
        seed in 0u64..100,
        churn_sel in 0u8..2,
        pick in 0usize..1000,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let plan = plan_for(&g, seed ^ 0x55);
        let churn = (churn_sel == 1).then_some(&plan);
        let none: PolicyOpt = None;

        // Sync backend.
        let p = AsMulti(count_neighbors(2));
        let full = mk_sync(&p, &g, seed, churn, &none).run().expect("terminates");
        let want = transcript(&full);
        let snaps = {
            let mut obs = Collect::default();
            mk_sync(&p, &g, seed, churn, &none)
                .checkpoint_every(1)
                .observe(&mut obs)
                .run()
                .expect("terminates");
            obs.snaps
        };
        if !snaps.is_empty() {
            let snap = &snaps[pick % snaps.len()];
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
            prop_assert_eq!(&decoded, snap);
            let resumed = mk_sync(&p, &g, seed, churn, &none)
                .resume_from(&decoded)
                .run()
                .expect("terminates");
            prop_assert_eq!(transcript(&resumed), want);
        }

        // Scoped backend.
        let p = Poke::new();
        let full = mk_scoped(&p, &g, seed, churn, &none).run().expect("terminates");
        let want = transcript(&full);
        let snaps = {
            let mut obs = Collect::default();
            mk_scoped(&p, &g, seed, churn, &none)
                .checkpoint_every(1)
                .observe(&mut obs)
                .run()
                .expect("terminates");
            obs.snaps
        };
        if !snaps.is_empty() {
            let snap = &snaps[pick % snaps.len()];
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
            let resumed = mk_scoped(&p, &g, seed, churn, &none)
                .resume_from(&decoded)
                .run()
                .expect("terminates");
            prop_assert_eq!(transcript(&resumed), want);
        }
    }

    /// The async twin: resume at a random step boundary under a random
    /// adversary seed, with and without churn.
    #[test]
    fn async_resume_at_random_boundary_matches_uninterrupted(
        n in 8usize..30,
        pr in 0.08f64..0.3,
        gseed in 0u64..100,
        seed in 0u64..100,
        adv_seed in 0u64..100,
        churn_sel in 0u8..2,
        pick in 0usize..1000,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let p = Synchronized::new(count_neighbors_quiet(2));
        let adv = UniformRandom { seed: adv_seed };
        let plan = plan_for(&g, seed ^ 0xA5);
        let churn = (churn_sel == 1).then_some(&plan);
        let scheduler = SchedulerKind::CalendarWheel;

        let full = mk_async(&p, &g, &adv, seed, scheduler, churn)
            .run()
            .expect("terminates");
        let want = transcript(&full);
        let steps = full.clone().into_async_outcome().expect("async").total_steps;
        let every = (steps / 5).max(1);
        let snaps = {
            let mut obs = Collect::default();
            mk_async(&p, &g, &adv, seed, scheduler, churn)
                .checkpoint_every(every)
                .observe(&mut obs)
                .run()
                .expect("terminates");
            obs.snaps
        };
        if !snaps.is_empty() {
            let snap = &snaps[pick % snaps.len()];
            let decoded = Snapshot::from_bytes(&snap.to_bytes()).expect("round-trip");
            let resumed = mk_async(&p, &g, &adv, seed, scheduler, churn)
                .resume_from(&decoded)
                .run()
                .expect("terminates");
            prop_assert_eq!(transcript(&resumed), want);
        }
    }
}
