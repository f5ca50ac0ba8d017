//! Pinned outcome fingerprints of the paper's own protocols.
//!
//! The engine suites pin their panels on table protocols, which draw
//! through the generic `Transitions` path only. The hashes here pin the
//! hand-written paper protocols end to end, so a change in how MIS,
//! its self-stabilizing variant, the tree coloring or the matching draw
//! their coins — or in how `SingleLetter` gathers and `Synchronized`
//! schedules — shows up as a changed number, not merely as "still a
//! valid output". Every case also checks its output against the
//! independent graph validator.
//!
//! The constants were recorded once and must not change: a change that
//! moves one of them changes the protocols' RNG consumption.

use stoneage::core::{AsMulti, SingleLetter, Synchronized};
use stoneage::graph::{generators, validate, Graph, TopologyEvent};
use stoneage::protocols::{
    decode_coloring, decode_mis, run_matching, ColoringProtocol, MisProtocol, SelfStabMis,
};
use stoneage::sim::adversary::UniformRandom;
use stoneage::sim::{
    AsyncOptions, Backend, ChurnPlan, FaultPlan, Observer, SchedulerKind, Simulation, Snapshot,
};
use stoneage_testkit::{
    async_fingerprint, churn_fingerprint, fault_fingerprint, fnv1a, sync_fingerprint,
};

/// `gnp(n)` with expected degree 8.
fn gnp_deg8(n: usize, seed: u64) -> Graph {
    generators::gnp(n, 8.0 / (n - 1) as f64, seed)
}

#[test]
fn serial_sync_mis_on_gnp_2000() {
    const PINNED: [(u64, u64); 2] = [(1, 300455469022597503), (2, 7687897168434345273)];
    let g = gnp_deg8(2000, 11);
    let p = MisProtocol::new();
    for (seed, want) in PINNED {
        let out = Simulation::sync(&p, &g)
            .seed(seed)
            .run()
            .expect("MIS terminates")
            .into_sync_outcome()
            .expect("sync backend");
        assert!(validate::is_maximal_independent_set(
            &g,
            &decode_mis(&out.outputs)
        ));
        assert_eq!(sync_fingerprint(&out), want, "seed {seed}");
    }
}

#[test]
fn selfstab_mis_under_churn_and_duplicates() {
    const PINNED: [(u64, u64, u64); 2] = [
        (3, 8975114353224749615, 1694389530048684294),
        (4, 5531328605050635158, 16181561982267043845),
    ];
    let g = gnp_deg8(1000, 12);
    let (u, v) = (1..1000)
        .map(|k| (0, k))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("a sparse graph has non-edges");
    let churn = ChurnPlan::new()
        .at(4, TopologyEvent::Crash(7))
        .at(6, TopologyEvent::EdgeInsert(u, v))
        .at(10, TopologyEvent::Restart(7))
        .at(14, TopologyEvent::EdgeDelete(u, v))
        .with_extra_edge(u, v);
    let faults = FaultPlan::new(99).duplicate_rate(0.02, 1);
    let p = SelfStabMis::new();
    for (seed, want_churn, want_faults) in PINNED {
        let outcome = Simulation::sync(&p, &g)
            .seed(seed)
            .budget(300)
            .with_churn(&churn)
            .with_faults(&faults)
            .run()
            .expect("selfstab MIS terminates under the plan");
        let summary = outcome.churn().expect("churn plan was set").clone();
        let fault_summary = *outcome.faults().expect("fault plan was set");
        let out = outcome.into_sync_outcome().expect("sync backend");
        assert!(summary.live_nodes.iter().all(|&l| l), "node 7 restarted");
        assert!(validate::is_maximal_independent_set(
            &g,
            &decode_mis(&out.outputs)
        ));
        assert_eq!(churn_fingerprint(&out, &summary), want_churn, "seed {seed}");
        assert_eq!(
            fault_fingerprint(&out, &fault_summary),
            want_faults,
            "seed {seed}"
        );
    }
}

#[test]
fn synchronized_single_letter_mis_on_both_schedulers() {
    const PINNED: [(u64, u64); 2] = [(5, 3713859308147101377), (6, 1601524651355524801)];
    let g = gnp_deg8(16, 13);
    let p = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    let adv = UniformRandom { seed: 21 };
    for (seed, want) in PINNED {
        for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
            let out = Simulation::asynchronous(&p, &g, &adv)
                .seed(seed)
                .backend(Backend::Async(
                    AsyncOptions::new(&adv).with_scheduler(scheduler),
                ))
                .run()
                .expect("synchronized MIS terminates")
                .into_async_outcome()
                .expect("async backend");
            assert!(validate::is_maximal_independent_set(
                &g,
                &decode_mis(&out.outputs)
            ));
            assert_eq!(async_fingerprint(&out), want, "seed {seed} {scheduler:?}");
        }
    }
}

/// Keeps the bytes of every checkpoint frame a run hands out.
#[derive(Default)]
struct Frames(Vec<Vec<u8>>);

impl<S> Observer<S> for Frames {
    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.0.push(snapshot.to_bytes());
    }
}

/// The async pipeline under everything the event loop hooks at once:
/// crash/restart and edge churn, 2% duplicated deliveries, and a
/// checkpoint cadence whose frame bytes are folded into the hash. Both
/// schedulers must reproduce the same number, frames included.
#[test]
fn synchronized_selfstab_mis_under_churn_duplicates_and_checkpoints() {
    const PINNED: [(u64, u64); 2] = [(7, 7188770370047263531), (8, 7594030931081421125)];
    let g = gnp_deg8(24, 17);
    let (u, v) = (1..24)
        .map(|k| (0, k))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("a sparse graph has non-edges");
    let churn = ChurnPlan::new()
        .at(2, TopologyEvent::Crash(5))
        .at(3, TopologyEvent::EdgeInsert(u, v))
        .at(6, TopologyEvent::Restart(5))
        .at(9, TopologyEvent::EdgeDelete(u, v))
        .with_extra_edge(u, v);
    let faults = FaultPlan::new(31).duplicate_rate(0.02, 1);
    let p = Synchronized::new(SingleLetter::new(SelfStabMis::new()));
    let adv = UniformRandom { seed: 23 };
    for (seed, want) in PINNED {
        for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
            let mut frames = Frames::default();
            let outcome = Simulation::asynchronous(&p, &g, &adv)
                .seed(seed)
                .backend(Backend::Async(
                    AsyncOptions::new(&adv).with_scheduler(scheduler),
                ))
                .with_churn(&churn)
                .with_faults(&faults)
                .checkpoint_every(40)
                .observe(&mut frames)
                .run()
                .expect("synchronized selfstab MIS terminates under the plan");
            let summary = outcome.churn().expect("churn plan was set").clone();
            let fs = *outcome.faults().expect("fault plan was set");
            let out = outcome.into_async_outcome().expect("async backend");
            assert!(summary.live_nodes.iter().all(|&l| l), "node 5 restarted");
            assert!(validate::is_maximal_independent_set(
                &g,
                &decode_mis(&out.outputs)
            ));
            assert!(fs.duplicated > 0, "seed {seed}: the fault plan fired");
            assert!(!frames.0.is_empty(), "seed {seed}: the cadence captured");
            let got = fnv1a(
                async_fingerprint(&out),
                [
                    summary.crashes,
                    summary.restarts,
                    summary.edge_inserts,
                    summary.edge_deletes,
                    fs.evaluated,
                    fs.duplicated,
                    frames.0.len() as u64,
                ]
                .into_iter()
                .chain(frames.0.iter().flatten().map(|&b| b as u64)),
            );
            assert_eq!(got, want, "seed {seed} {scheduler:?}");
        }
    }
}

#[test]
fn single_letter_mis_in_lockstep() {
    const PINNED: [(u64, u64); 1] = [(8, 5458972314073121957)];
    let g = gnp_deg8(300, 14);
    let p = AsMulti(SingleLetter::new(MisProtocol::new()));
    for (seed, want) in PINNED {
        let out = Simulation::sync(&p, &g)
            .seed(seed)
            .run()
            .expect("compiled MIS terminates")
            .into_sync_outcome()
            .expect("sync backend");
        assert!(validate::is_maximal_independent_set(
            &g,
            &decode_mis(&out.outputs)
        ));
        assert_eq!(sync_fingerprint(&out), want, "seed {seed}");
    }
}

#[test]
fn tree_coloring_on_a_random_tree() {
    const PINNED: [(u64, u64); 2] = [(1, 6497835636429459562), (2, 12760817567263395402)];
    let g = generators::random_tree(1500, 15);
    let p = ColoringProtocol::new();
    for (seed, want) in PINNED {
        let out = Simulation::sync(&p, &g)
            .seed(seed)
            .run()
            .expect("coloring terminates")
            .into_sync_outcome()
            .expect("sync backend");
        assert!(validate::is_proper_k_coloring(
            &g,
            &decode_coloring(&out.outputs),
            3
        ));
        assert_eq!(sync_fingerprint(&out), want, "seed {seed}");
    }
}

#[test]
fn scoped_matching_on_gnp() {
    const PINNED: [(u64, u64); 2] = [(1, 14510733689506974876), (2, 9290772028657548062)];
    let g = gnp_deg8(800, 16);
    for (seed, want) in PINNED {
        let out = run_matching(&g, seed, 100_000).expect("matching terminates");
        assert!(validate::is_maximal_matching(&g, &out.matched));
        let words = out.outputs.iter().copied().chain(
            out.matched
                .iter()
                .map(|&(a, b)| ((a as u64) << 32) | b as u64),
        );
        assert_eq!(fnv1a(out.rounds, words), want, "seed {seed}");
    }
}
