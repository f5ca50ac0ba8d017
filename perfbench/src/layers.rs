//! Per-layer instruments, all from outside the program: delegating
//! wrappers around the protocol and adversary, a round observer, and
//! direct timed calls into the engine, parbuf and schedule layers.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use stoneage_core::{Alphabet, BoundedCount, Fsm, Letter, MultiFsm, ObsVec, Protocol, Transitions};
use stoneage_graph::{Graph, NodeId};
use stoneage_sim::parbuf::{self, DeliveryBuffer, MergeStrategy, ShardPlan};
use stoneage_sim::{Adversary, CalendarQueue, FlatPorts, Observer, PortPlanes};

use crate::{median, mix, time_median};

/// Every `SAMPLE`-th wrapped call is timed; the rest are only counted,
/// so the clock does not dominate the traced run.
const SAMPLE: u64 = 64;

/// Nanoseconds one `Instant::now` pair costs on this host (median),
/// subtracted from each timed sample.
pub fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2001)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Call counter with sampled timing, shareable across worker threads.
/// The counters are statistics that publish no other data, so `Relaxed`.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl CallStats {
    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self
            .calls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(SAMPLE)
        {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.timed.fetch_add(1, Ordering::Relaxed);
        self.timed_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call over the timed sample, clock cost removed.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        let timed = self.timed.load(Ordering::Relaxed);
        if timed == 0 {
            return 0.0;
        }
        (self.timed_ns.load(Ordering::Relaxed) as f64 / timed as f64 - clock_ns).max(0.0)
    }
}

/// Forwards every `Protocol` method of `$inner`.
macro_rules! forward_protocol {
    ($t:ident, $bound:path) => {
        impl<P: $bound> Protocol for $t<P> {
            type State = P::State;
            fn alphabet(&self) -> &Alphabet {
                self.inner.alphabet()
            }
            fn bound(&self) -> u8 {
                self.inner.bound()
            }
            fn initial_letter(&self) -> Letter {
                self.inner.initial_letter()
            }
            fn initial_state(&self, input: usize) -> P::State {
                self.inner.initial_state(input)
            }
            fn output(&self, q: &P::State) -> Option<u64> {
                self.inner.output(q)
            }
            fn restart_state(&self, input: usize) -> P::State {
                self.inner.restart_state(input)
            }
        }
    };
}

/// A delegating `MultiFsm` that counts and samples `delta` calls.
#[derive(Debug)]
pub struct CountingMulti<P> {
    inner: P,
    /// The `delta` statistics.
    pub stats: CallStats,
}

impl<P> CountingMulti<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        CountingMulti {
            inner,
            stats: CallStats::default(),
        }
    }
}

forward_protocol!(CountingMulti, MultiFsm);

impl<P: MultiFsm> MultiFsm for CountingMulti<P> {
    fn delta(&self, q: &P::State, obs: &ObsVec) -> Transitions<P::State> {
        self.stats.call(|| self.inner.delta(q, obs))
    }
}

/// A delegating single-letter `Fsm` that counts and samples `delta` calls.
#[derive(Debug)]
pub struct CountingFsm<P> {
    inner: P,
    /// The `delta` statistics.
    pub stats: CallStats,
}

impl<P> CountingFsm<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        CountingFsm {
            inner,
            stats: CallStats::default(),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

forward_protocol!(CountingFsm, Fsm);

impl<P: Fsm> Fsm for CountingFsm<P> {
    fn query(&self, q: &P::State) -> Letter {
        self.inner.query(q)
    }

    fn delta(&self, q: &P::State, observed: BoundedCount) -> Transitions<P::State> {
        self.stats.call(|| self.inner.delta(q, observed))
    }
}

/// A delegating adversary counting every step-length and delay draw.
#[derive(Debug)]
pub struct CountingAdversary<A> {
    inner: A,
    draws: Cell<u64>,
}

impl<A> CountingAdversary<A> {
    /// Wraps `inner`.
    pub fn new(inner: A) -> Self {
        CountingAdversary {
            inner,
            draws: Cell::new(0),
        }
    }

    /// Draws made.
    pub fn draws(&self) -> u64 {
        self.draws.get()
    }
}

impl<A: Adversary> Adversary for CountingAdversary<A> {
    fn step_length(&self, v: NodeId, t: u64) -> f64 {
        self.draws.set(self.draws.get() + 1);
        self.inner.step_length(v, t)
    }

    fn delay(&self, v: NodeId, t: u64, u: NodeId) -> f64 {
        self.draws.set(self.draws.get() + 1);
        self.inner.delay(v, t, u)
    }

    fn fill_delays(&self, v: NodeId, t: u64, neighbors: &[NodeId], out: &mut [f64]) {
        self.draws.set(self.draws.get() + neighbors.len() as u64);
        self.inner.fill_delays(v, t, neighbors, out);
    }

    fn time_scale_hint(&self) -> Option<f64> {
        self.inner.time_scale_hint()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times the gaps between `on_round_end` calls and counts the nodes
/// still undecided before each round. The callback's own counting is
/// excluded from the gaps.
pub struct RoundObserver<'p, P: Protocol> {
    protocol: &'p P,
    /// When `run()` was entered (set by the caller just before the call).
    pub start: Instant,
    /// Entry time of the first `on_round_end`.
    pub first: Option<Instant>,
    /// Exit time of the latest `on_round_end`.
    pub last_exit: Instant,
    /// `(round, gap_ns, undecided_before)` for rounds after the first.
    pub rounds: Vec<(u64, u64, u64)>,
    undecided: u64,
}

impl<'p, P: Protocol> RoundObserver<'p, P> {
    /// An observer for a run on `nodes` nodes.
    pub fn new(protocol: &'p P, nodes: usize) -> Self {
        let now = Instant::now();
        RoundObserver {
            protocol,
            start: now,
            first: None,
            last_exit: now,
            rounds: Vec::new(),
            undecided: nodes as u64,
        }
    }

    /// Marks the entry into `run()`.
    pub fn arm(&mut self) {
        self.start = Instant::now();
        self.last_exit = self.start;
    }
}

impl<P: Protocol> Observer<P::State> for RoundObserver<'_, P> {
    fn on_round_end(&mut self, round: u64, states: &[P::State]) {
        let now = Instant::now();
        if self.first.is_none() {
            self.first = Some(now);
        } else {
            let gap = now.duration_since(self.last_exit).as_nanos() as u64;
            self.rounds.push((round, gap, self.undecided));
        }
        self.undecided = states
            .iter()
            .filter(|s| self.protocol.output(s).is_none())
            .count() as u64;
        self.last_exit = Instant::now();
    }
}

/// `engine` layer: `PortPlanes::new`, `FlatPorts::broadcast` over every
/// node and `FlatPorts::refill_obs` over every node, on `graph`.
/// Returns `(init_ms, broadcast_ns_per_slot, observe_ns_per_node)`.
pub fn engine_probe(graph: &Graph, sigma: usize, sigma0: Letter, b: u8) -> (f64, f64, f64) {
    let n = graph.node_count();
    let slots = graph.port_slot_count().max(1) as f64;
    let init = time_median(5, || {
        black_box(PortPlanes::new(graph, sigma, sigma0));
    });
    let mut ports = FlatPorts::new(graph, sigma, sigma0);
    let mut rep = 0usize;
    let broadcast = time_median(7, || {
        rep += 1;
        for v in 0..n {
            ports.broadcast(graph, v as NodeId, Letter(((v + rep) % sigma) as u16));
        }
    });
    let mut obs = ObsVec::zeroed(sigma);
    let observe = time_median(7, || {
        for v in 0..n {
            ports.refill_obs(v, &mut obs, b);
            black_box(&obs);
        }
    });
    (
        init * 1e3,
        broadcast * 1e9 / slots,
        observe * 1e9 / n.max(1) as f64,
    )
}

/// `parbuf` layer at `workers` shards on `graph`. Returns
/// `(shardplan_ms, slot_imbalance, bucket_ns_per_slot, merge_ns_per_slot)`.
pub fn parbuf_probe(
    graph: &Graph,
    workers: usize,
    sigma: usize,
    sigma0: Letter,
) -> (f64, f64, f64, f64) {
    let slots = graph.port_slot_count().max(1) as f64;
    let plan_s = time_median(7, || {
        black_box(ShardPlan::new(graph, workers));
    });
    let plan = ShardPlan::new(graph, workers);
    let bounds = plan.bounds().to_vec();
    let offset = |v: usize| {
        if v == graph.node_count() {
            graph.port_slot_count()
        } else {
            graph.csr_offset(v as NodeId)
        }
    };
    let shard_slots: Vec<f64> = bounds
        .windows(2)
        .map(|w| (offset(w[1]) - offset(w[0])) as f64)
        .collect();
    let mean = shard_slots.iter().sum::<f64>() / shard_slots.len().max(1) as f64;
    let max = shard_slots.iter().copied().fold(0.0, f64::max);
    let imbalance = if mean > 0.0 { max / mean } else { 1.0 };

    let mut buffers: Vec<DeliveryBuffer> = (0..plan.workers())
        .map(|_| DeliveryBuffer::new(plan.workers()))
        .collect();
    let mut rep = 0usize;
    let bucket = time_median(7, || {
        rep += 1;
        for (s, buffer) in buffers.iter_mut().enumerate() {
            buffer.clear();
            for v in bounds[s]..bounds[s + 1] {
                let letter = Letter(((v + rep) % sigma) as u16);
                buffer.broadcast(graph, &plan, v as NodeId, letter);
            }
        }
    });
    let mut ports = FlatPorts::new(graph, sigma, sigma0);
    let merge = time_median(7, || {
        parbuf::merge(
            MergeStrategy::DestinationSharded,
            &mut ports,
            graph,
            &plan,
            &buffers,
        );
    });
    (
        plan_s * 1e3,
        imbalance,
        bucket * 1e9 / slots,
        merge * 1e9 / slots,
    )
}

/// A uniform draw in (0, 1] from a counter-based hash.
fn unit(seed: u64, i: u64) -> f64 {
    let h = mix(seed, i);
    1.0 - (h >> 11) as f64 / (1u64 << 53) as f64
}

/// `schedule` layer: `CalendarQueue` push + pop in a hold model (pop
/// the earliest entry, push it back one step length later) at the
/// async run's estimated occupancy `|V| + Σdeg` and its bucket width.
/// The width mirrors the executor's own choice: 4 events per tick at
/// rate `(|V| + Σdeg) / mean step length`. Returns ns per push + pop.
pub fn schedule_probe(graph: &Graph, adversary: &dyn Adversary, ops: usize) -> f64 {
    let n = graph.node_count().max(1);
    let probes = n.min(16);
    let stride = (n / probes).max(1);
    let mut sum = 0.0;
    for i in 0..probes {
        for t in 1..=2u64 {
            sum += adversary.step_length((i * stride) as NodeId, t);
        }
    }
    let scale = adversary
        .time_scale_hint()
        .unwrap_or(sum / (2 * probes) as f64);
    let occupancy = n + graph.degree_sum();
    let width = 4.0 * scale / occupancy as f64;
    let mut queue: CalendarQueue<u32> = CalendarQueue::new(width);
    let mut seq = 0u64;
    for i in 0..occupancy {
        queue.push(unit(7, seq) * scale, seq, i as u32);
        seq += 1;
    }
    let t = Instant::now();
    for _ in 0..ops {
        let (time, _, item) = queue.pop().expect("the hold model keeps the queue full");
        queue.push(time + unit(11, seq) * scale, seq, item);
        seq += 1;
    }
    black_box(&queue);
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// `adversary` layer: ns per step-length or delay draw, called directly.
pub fn adversary_probe(graph: &Graph, adversary: &dyn Adversary) -> f64 {
    let n = graph.node_count();
    let mut out = vec![0.0; graph.degree_sum().max(1)];
    let mut draws = 0u64;
    let t = Instant::now();
    for step in 1..=64u64 {
        for v in 0..n as NodeId {
            let nbrs = graph.neighbors(v);
            black_box(adversary.step_length(v, step));
            adversary.fill_delays(v, step, nbrs, &mut out[..nbrs.len()]);
            black_box(&out);
            draws += 1 + nbrs.len() as u64;
        }
    }
    t.elapsed().as_nanos() as f64 / draws.max(1) as f64
}
