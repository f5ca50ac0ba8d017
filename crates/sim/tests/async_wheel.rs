//! Differential and determinism tests for the calendar-wheel async
//! scheduler.
//!
//! The contract under test: the async backend of
//! [`stoneage_sim::Simulation`] on
//! [`SchedulerKind::CalendarWheel`] (hierarchical timing wheel, per-edge
//! batched delivery) produces outcomes **bit-identical per seed** to the
//! preserved [`SchedulerKind::BinaryHeap`] path — across graph families,
//! adversary policies (including latency schedules that collide many
//! arrivals into one bucket), protocols, event budgets, and bucket
//! widths, and under churn and fault plans. Pinned fingerprints on
//! gnp/tree/grid additionally guard both paths against silent drift.
//!
//! The protocol builders, fnv1a hash, and pinned case instances live in
//! `stoneage-testkit` (shared with `tests/flat_engine.rs` and the
//! `stoneage-bench` fingerprint bin); the pinned hash *constants* stay
//! here so this suite fails on its own recorded numbers. These tests
//! also pin the wheel drain's per-receiver coalescing: the quantized and
//! constant adversaries collide many different senders' arrivals onto
//! one instant at shared receivers, which is exactly the grouped-write
//! path.

use proptest::prelude::*;
use stoneage_core::Synchronized;
use stoneage_graph::{generators, Graph, NodeId};
use stoneage_sim::{
    Adversary, AsyncConfig, AsyncOptions, AsyncOutcome, Backend, ChurnPlan, ExecError, FaultPlan,
    SchedulerKind, Simulation,
};
use stoneage_testkit::harness::run_async;
use stoneage_testkit::{
    async_fingerprint, count_neighbors_quiet as count_neighbors, random_beeper, run_async_pinned,
    ASYNC_PINNED_CASES,
};

/// An adversary whose parameters are all multiples of one quantum: whole
/// neighborhoods of arrivals collide onto identical instants, so the
/// wheel files them into shared buckets and batched per-edge runs — the
/// stress case for the batching path (and, historically, for calendar
/// queue implementations).
#[derive(Clone, Copy)]
struct Quantized {
    seed: u64,
    quantum: f64,
}

fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed ^ 0x9E3779B97F4A7C15 ^ a.rotate_left(17) ^ b.rotate_left(31) ^ c;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl Adversary for Quantized {
    fn step_length(&self, v: NodeId, t: u64) -> f64 {
        self.quantum * (1 + mix(self.seed, 1, v as u64, t) % 8) as f64
    }

    fn delay(&self, v: NodeId, t: u64, u: NodeId) -> f64 {
        self.quantum * (1 + mix(self.seed, 2, (v as u64) << 32 | u as u64, t) % 4) as f64
    }

    fn name(&self) -> &'static str {
        "quantized"
    }
}

/// A constant-parameter adversary: *every* arrival of a broadcast lands
/// on the same instant, so each broadcast drains as a single batched run.
#[derive(Clone, Copy)]
struct Constant {
    step: f64,
    delay: f64,
}

impl Adversary for Constant {
    fn step_length(&self, _v: NodeId, _t: u64) -> f64 {
        self.step
    }

    fn delay(&self, _v: NodeId, _t: u64, _u: NodeId) -> f64 {
        self.delay
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

fn heap_cfg(seed: u64) -> AsyncConfig {
    AsyncConfig::seeded(seed).with_scheduler(SchedulerKind::BinaryHeap)
}

fn wheel_cfg(seed: u64) -> AsyncConfig {
    AsyncConfig::seeded(seed).with_scheduler(SchedulerKind::CalendarWheel)
}

/// Bit-exact equality over every outcome field.
fn assert_same(ctx: &str, wheel: &AsyncOutcome, heap: &AsyncOutcome) {
    assert_eq!(wheel.outputs, heap.outputs, "{ctx}: outputs");
    assert_eq!(
        wheel.completion_time.to_bits(),
        heap.completion_time.to_bits(),
        "{ctx}: completion_time {} vs {}",
        wheel.completion_time,
        heap.completion_time
    );
    assert_eq!(
        wheel.time_unit.to_bits(),
        heap.time_unit.to_bits(),
        "{ctx}: time_unit"
    );
    assert_eq!(wheel.total_steps, heap.total_steps, "{ctx}: total_steps");
    assert_eq!(
        wheel.messages_sent, heap.messages_sent,
        "{ctx}: messages_sent"
    );
    assert_eq!(wheel.deliveries, heap.deliveries, "{ctx}: deliveries");
    assert_eq!(
        wheel.lost_overwrites, heap.lost_overwrites,
        "{ctx}: lost_overwrites"
    );
}

fn graph_family() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp", generators::gnp(120, 0.05, 3)),
        ("gnp-dense", generators::gnp(50, 0.3, 17)),
        ("tree", generators::random_tree(150, 11)),
        ("grid", generators::grid(10, 12)),
        ("star", generators::star(40)),
        ("empty", Graph::empty(20)),
    ]
}

#[test]
fn wheel_matches_heap_across_families_and_adversaries() {
    let p = Synchronized::new(count_neighbors(2));
    for (name, g) in graph_family() {
        for (i, adv) in stoneage_sim::adversary::standard_panel(13)
            .iter()
            .enumerate()
        {
            let seed = 900 + i as u64;
            let heap = run_async(&p, &g, adv, &heap_cfg(seed)).unwrap();
            let wheel = run_async(&p, &g, adv, &wheel_cfg(seed)).unwrap();
            assert_same(&format!("{name}/{}", adv.name()), &wheel, &heap);
        }
    }
}

#[test]
fn wheel_matches_heap_on_randomized_protocol() {
    let p = Synchronized::new(random_beeper(4, 2));
    for (name, g) in graph_family() {
        for seed in 70..73 {
            let adv = stoneage_sim::adversary::Exponential { seed, mean: 0.4 };
            let heap = run_async(&p, &g, &adv, &heap_cfg(seed)).unwrap();
            let wheel = run_async(&p, &g, &adv, &wheel_cfg(seed)).unwrap();
            assert_same(&format!("{name}/seed{seed}"), &wheel, &heap);
        }
    }
}

#[test]
fn colliding_arrivals_agree_and_do_collide() {
    // Quantized and constant schedules funnel many arrivals onto shared
    // instants — shared buckets and batched runs in the wheel. Outcomes
    // must not move by a bit.
    let p = Synchronized::new(count_neighbors(3));
    for (name, g) in [
        ("star", generators::star(40)),
        ("grid", generators::grid(8, 9)),
        ("gnp", generators::gnp(80, 0.08, 5)),
    ] {
        for quantum in [0.25, 1.0] {
            let adv = Quantized { seed: 31, quantum };
            let heap = run_async(&p, &g, &adv, &heap_cfg(6)).unwrap();
            let wheel = run_async(&p, &g, &adv, &wheel_cfg(6)).unwrap();
            assert_same(&format!("{name}/q{quantum}"), &wheel, &heap);
        }
        let adv = Constant {
            step: 1.0,
            delay: 0.5,
        };
        let heap = run_async(&p, &g, &adv, &heap_cfg(6)).unwrap();
        let wheel = run_async(&p, &g, &adv, &wheel_cfg(6)).unwrap();
        assert_same(&format!("{name}/constant"), &wheel, &heap);
        // Sanity: the collision workload actually delivers in bulk.
        assert!(wheel.deliveries > 0, "{name}");
    }
}

#[test]
fn event_limit_is_identical_under_the_wheel() {
    // Sweep budgets so the limit lands on step events, single deliveries,
    // and mid-batch under the wheel; the reported error (budget and
    // unfinished count) must equal the heap path's exactly.
    let p = Synchronized::new(count_neighbors(2));
    let star = generators::star(40); // center broadcast = 40-wide batch
    let grid = generators::grid(7, 8);
    let adv = Constant {
        step: 1.0,
        delay: 0.5,
    };
    for g in [&star, &grid] {
        for budget in [1u64, 7, 40, 41, 97, 150, 400, 1000] {
            let mk = |scheduler| AsyncConfig {
                max_events: budget,
                ..AsyncConfig::seeded(2).with_scheduler(scheduler)
            };
            let heap = run_async(&p, g, &adv, &mk(SchedulerKind::BinaryHeap));
            let wheel = run_async(&p, g, &adv, &mk(SchedulerKind::CalendarWheel));
            match (wheel, heap) {
                (Ok(w), Ok(h)) => assert_same(&format!("budget {budget}"), &w, &h),
                (Err(w), Err(h)) => {
                    assert_eq!(w, h, "budget {budget}");
                    assert!(matches!(w, ExecError::EventLimit { limit, .. } if limit == budget));
                }
                (w, h) => panic!("budget {budget}: outcome kinds diverge: {w:?} vs {h:?}"),
            }
        }
    }
}

/// Pinned end-to-end async snapshots, recorded from the binary-heap path
/// when the wheel scheduler landed. Both schedulers must reproduce them
/// for every future engine change — they pin the "wheel is bit-identical
/// to the heap" acceptance criterion (the case instances live in
/// `stoneage-testkit`; the hashes stay here). If a deliberate
/// semantics-affecting change ever invalidates them, re-derive with
/// `cargo run -p stoneage-bench --bin fingerprint` and justify it in the
/// commit message.
const PINNED_ASYNC: [(&str, u64, u64); 3] = [
    ("gnp-async", 4242, 0x60e34de0e0452e83),
    ("tree-async", 77, 0x9029fac0b9986de3),
    ("grid-async", 9000, 0x03f42295c27060d3),
];

#[test]
fn pinned_async_fingerprints_on_both_schedulers() {
    // The hash constants pin the same (name, seed) pairs the shared case
    // table enumerates — a drifted table would fail here immediately.
    assert_eq!(
        ASYNC_PINNED_CASES.map(|(name, seed)| (name, seed)),
        PINNED_ASYNC.map(|(name, seed, _)| (name, seed)),
    );
    let mut drift = Vec::new();
    for (name, seed, want) in PINNED_ASYNC {
        for scheduler in [SchedulerKind::BinaryHeap, SchedulerKind::CalendarWheel] {
            let got = async_fingerprint(&run_async_pinned(name, seed, scheduler));
            if got != want {
                drift.push(format!(
                    "(\"{name}\", {seed}, {got:#018x}) != {want:#018x} [{scheduler:?}]"
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "pinned async fingerprints changed:\n{}",
        drift.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential property: on arbitrary gnp instances, adversaries,
    /// and seeds, the wheel and heap schedulers agree bit-exactly.
    #[test]
    fn wheel_matches_heap_on_random_instances(
        n in 1usize..50,
        pr in 0.0f64..0.35,
        gseed in 0u64..300,
        seed in 0u64..300,
        mean in 0.05f64..2.0,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let p = Synchronized::new(random_beeper(3, 2));
        let adv = stoneage_sim::adversary::Exponential { seed, mean };
        let heap = run_async(&p, &g, &adv, &heap_cfg(seed)).unwrap();
        let wheel = run_async(&p, &g, &adv, &wheel_cfg(seed)).unwrap();
        prop_assert_eq!(wheel.outputs, heap.outputs);
        prop_assert_eq!(wheel.completion_time.to_bits(), heap.completion_time.to_bits());
        prop_assert_eq!(wheel.total_steps, heap.total_steps);
        prop_assert_eq!(wheel.deliveries, heap.deliveries);
        prop_assert_eq!(wheel.lost_overwrites, heap.lost_overwrites);
    }

    /// The same differential property with a random churn plan, a
    /// duplicating fault plan, or both: the schedulers agree bit-exactly,
    /// down to the churn and fault summaries. A random churn plan is
    /// adversarial input, so the same typed error on both queues is
    /// accepted on churned runs; fault-only runs must complete.
    #[test]
    fn wheel_matches_heap_under_churn_and_faults(
        n in 1usize..50,
        pr in 0.0f64..0.35,
        gseed in 0u64..300,
        seed in 0u64..300,
        mean in 0.05f64..2.0,
        churn_events in 0usize..8,
        dup_rate in 0.0f64..0.4,
        faulted in 0u8..2,
    ) {
        let g = generators::gnp(n, pr, gseed);
        let p = Synchronized::new(random_beeper(3, 2));
        let adv = stoneage_sim::adversary::Exponential { seed, mean };
        let churn = (churn_events > 0).then(|| ChurnPlan::random(&g, seed ^ 0xC4, churn_events, 6));
        // Every case carries at least one plan: the plan-free cell is the
        // property above.
        let faults = (faulted == 1 || churn.is_none())
            .then(|| FaultPlan::new(seed).duplicate_rate(dup_rate, 1));
        let run = |scheduler| {
            let mut b = Simulation::asynchronous(&p, &g, &adv)
                .seed(seed)
                .budget(2_000_000)
                .backend(Backend::Async(AsyncOptions::new(&adv).with_scheduler(scheduler)));
            if let Some(plan) = &churn {
                b = b.with_churn(plan);
            }
            if let Some(plan) = &faults {
                b = b.with_faults(plan);
            }
            b.run().map(|o| format!("{:?} | {:?} | {:?}", o.outputs, o.cost, o.detail))
        };
        let wheel = run(SchedulerKind::CalendarWheel);
        let heap = run(SchedulerKind::BinaryHeap);
        if churn.is_none() {
            prop_assert!(heap.is_ok(), "fault-only run failed: {:?}", heap);
        }
        prop_assert_eq!(wheel, heap);
    }
}
