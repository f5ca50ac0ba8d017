//! The fully asynchronous event-driven executor.
//!
//! Implements the execution semantics of the paper's Section 2 faithfully:
//!
//! * node `v`'s step `t` lasts `L_{v,t}` time (adversary-chosen); the
//!   transition function is applied instantaneously at the end of the step;
//! * a transmitted letter is delivered to the port `ψ_u(v)` of each
//!   neighbor `u` after a delay `D_{v,t,u}` (adversary-chosen), subject to
//!   per-edge FIFO order;
//! * a port stores **only the last delivered letter** — there is no buffer,
//!   so a message can be overwritten before the receiver ever observes it
//!   (the executor counts these losses);
//! * at its step, a node observes `f_b(#λ(q))`, the truncated count of its
//!   query letter over its ports.
//!
//! The run-time is reported both as raw completion time and normalized by
//! the largest `L`/`D` parameter consumed — the paper's **time unit**.
//!
//! # One event loop, two queues
//!
//! Every async run — churned or not, faulted or not, fresh or resumed —
//! executes the same event loop. The loop is generic over its event
//! queue, chosen by [`AsyncConfig::scheduler`]:
//!
//! * [`SchedulerKind::CalendarWheel`] (the default) — the hierarchical
//!   timing wheel of [`crate::schedule`]. Pushes and pops are O(1)
//!   amortized, and the loop **batches** on it. On a churn-free run, a
//!   broadcast from a sender no fault rule covers is pushed as maximal
//!   runs of equal arrival time, one `DeliverRun` event per run (under
//!   quantized or lockstep-like latency schedules this collapses a
//!   `deg(v)`-way fan-out into one event). And the drain **coalesces per
//!   receiver**: consecutive same-instant deliveries to one node, from
//!   different senders, merge their pending-flag and count updates into
//!   one grouped write pass ([`FlatPorts::deliver_run`]).
//! * [`SchedulerKind::BinaryHeap`] — one global
//!   `BinaryHeap<Reverse<Event>>` that never batches: one entry and one
//!   port write per letter. It is the differential oracle and benchmark
//!   baseline; its push/pop costs the `O(log m)` factor the wheel
//!   removes.
//!
//! Both queues pop events in the **exact same `(time, seq)` order**. The
//! wheel orders the events of its current bucket by exact time and
//! tie-breaking sequence number, and a run occupies the contiguous `seq`
//! range its per-letter events would have had, so no other event can
//! interleave it. Grouping per receiver is exact because same-instant
//! deliveries always hit distinct slots: each delivery on a directed
//! edge, fault duplicates included, arrives strictly after the one
//! before it (the per-edge FIFO watermark). Outcomes and checkpoint
//! frames are therefore bit-identical across the two queues per seed,
//! pinned by the differential and fingerprint tests in
//! `tests/async_wheel.rs`.
//!
//! # Churn and faults
//!
//! A churn boundary stamped with round `r` applies at time `r`, before
//! any queued event at time `r` or later (the boundary wins ties). The
//! loop compares each boundary with the *peeked* queue head, so a
//! restarted node's first step, which may fall before that head, is
//! still popped in time order. Crashes and restarts bump the node's
//! **incarnation**, and every event carries the incarnation it was
//! enqueued under: a crashed node's pending step and every letter in
//! flight toward it go stale and are dropped when popped (still counted
//! as events), without purging the queue. Letters crossing an
//! edge-delete boundary bounce off the tombstoned slot; letters in
//! flight across a delete + re-insert window land. Churn runs and
//! faulted senders ([`crate::faults`] decides every channel at the
//! emission site) push one delivery event per letter; the wheel still
//! coalesces them per receiver.
//!
//! Delivery runs on the flat engine ([`crate::engine`]): each transmission
//! resolves its receiver-side port slot through the graph's precomputed
//! reverse-port map at *enqueue* time, and a step's observation reads the
//! incrementally maintained letter count in O(1) instead of scanning the
//! node's ports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use stoneage_core::{BoundedCount, Fsm, Letter};
use stoneage_graph::{Graph, NodeId, TopologyEvent};

use crate::churn::{plan_config, ChurnCtl, ChurnPlan, DEAD_OUTPUT};
use crate::engine::{FlatPorts, TOMBSTONE};
use crate::faults::{faulted_sends, FaultLayer, FaultSummary, FaultsArg};
use crate::schedule::CalendarQueue;
use crate::sim::{ObsArg, Observer, Quiet, RowResult};
use crate::snapshot::{self, AsyncCapture, BacklogEvent, BacklogKind, SnapArgs, SnapshotError};
use crate::sync_exec::compile_faults;
use crate::{splitmix64, Adversary, ExecError};

/// Which event queue drives the asynchronous executor's event loop. See
/// the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The calendar-queue / hierarchical timing wheel of
    /// [`crate::schedule`], with batched delivery.
    #[default]
    CalendarWheel,
    /// A global binary heap with one entry per letter: the differential
    /// oracle and benchmark baseline.
    BinaryHeap,
}

/// Configuration of an asynchronous execution.
#[derive(Clone, Copy, Debug)]
pub struct AsyncConfig {
    /// Master seed for the per-node protocol RNGs (the adversary carries
    /// its own seed — obliviousness demands the streams be independent).
    pub seed: u64,
    /// Event budget: exceeding it aborts with [`ExecError::EventLimit`].
    pub max_events: u64,
    /// Event queue driving the run, on every run: churn plans, fault
    /// plans and resumed snapshots run on the queue chosen here.
    /// Outcomes and checkpoint frames are bit-identical across kinds;
    /// only throughput differs.
    pub scheduler: SchedulerKind,
    /// Explicit calendar bucket width in simulated time units, overriding
    /// the executor's estimate (see [`crate::schedule`] for the
    /// trade-off). Ignored by the heap scheduler. Performance-only: it
    /// cannot affect outcomes.
    pub bucket_width: Option<f64>,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            seed: 0,
            max_events: 200_000_000,
            scheduler: SchedulerKind::CalendarWheel,
            bucket_width: None,
        }
    }
}

impl AsyncConfig {
    /// A config with the given seed and the default event budget.
    pub fn seeded(seed: u64) -> Self {
        AsyncConfig {
            seed,
            ..Default::default()
        }
    }

    /// This config with the given scheduler kind.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Result of an asynchronous execution that reached an output
/// configuration.
#[derive(Clone, Debug)]
pub struct AsyncOutcome {
    /// Per-node outputs, decoded from the output states.
    pub outputs: Vec<u64>,
    /// Raw time at which the first output configuration was reached.
    pub completion_time: f64,
    /// The paper's **time unit**: the largest step-length or delay
    /// parameter consumed before completion.
    pub time_unit: f64,
    /// `completion_time / time_unit` — the paper's run-time measure
    /// `T_Π(I, A, R)`.
    pub normalized_time: f64,
    /// Total node steps executed.
    pub total_steps: u64,
    /// Total non-`ε` transmissions (each fans out to all neighbors).
    pub messages_sent: u64,
    /// Total port writes.
    pub deliveries: u64,
    /// Deliveries that overwrote a letter the receiving node had not yet
    /// had a step to observe — messages *lost* to the no-buffer semantics.
    pub lost_overwrites: u64,
}

/// One queued event. `inc` is the incarnation of the stepping or
/// receiving node when the event was enqueued: a crash or restart makes
/// it stale.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Node applies its next transition.
    Step(NodeId, u32),
    /// A letter lands in the flat port store at `slot`, a CSR slot of
    /// `node` resolved through the reverse-port map at send time.
    Deliver {
        node: NodeId,
        slot: u32,
        letter: Letter,
        inc: u32,
    },
    /// Deliveries to neighbors `from..from + len` of `v` (sender-side
    /// port indices), all arriving at the same instant. Consumes `len`
    /// consecutive `seq` values starting at the event's own. Only the
    /// wheel holds these, and only on churn-free runs.
    DeliverRun {
        v: NodeId,
        from: u32,
        len: u32,
        letter: Letter,
    },
}

// `Letter` is a `u16`, so every variant packs into 16 bytes.
const _: () = assert!(std::mem::size_of::<Ev>() == 16);

impl From<BacklogKind> for Ev {
    fn from(kind: BacklogKind) -> Self {
        match kind {
            BacklogKind::Step { node, inc } => Ev::Step(node, inc),
            BacklogKind::Deliver {
                node,
                slot,
                letter,
                inc,
            } => Ev::Deliver {
                node,
                slot,
                letter,
                inc,
            },
        }
    }
}

/// The event queue under the event loop. Both implementations pop in
/// the exact `(time, seq)` order.
trait EventQueue {
    /// Whether the loop batches on this queue: pushes [`Ev::DeliverRun`]
    /// events and applies same-instant deliveries grouped per receiver.
    const BATCHES: bool;
    fn push(&mut self, time: f64, seq: u64, ev: Ev);
    fn pop(&mut self) -> Option<(f64, Ev)>;
    /// The earliest event, left in the queue.
    fn peek(&mut self) -> Option<(f64, Ev)>;
    /// Every queued event as `(time, seq, event)`, in no particular order.
    fn entries(&self) -> impl Iterator<Item = (f64, u64, Ev)> + '_;
}

impl EventQueue for CalendarQueue<Ev> {
    const BATCHES: bool = true;

    #[inline]
    fn push(&mut self, time: f64, seq: u64, ev: Ev) {
        CalendarQueue::push(self, time, seq, ev);
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, Ev)> {
        CalendarQueue::pop(self).map(|(time, _, ev)| (time, ev))
    }

    #[inline]
    fn peek(&mut self) -> Option<(f64, Ev)> {
        CalendarQueue::peek(self).map(|(time, &ev)| (time, ev))
    }

    fn entries(&self) -> impl Iterator<Item = (f64, u64, Ev)> + '_ {
        CalendarQueue::entries(self).map(|(time, seq, &ev)| (time, seq, ev))
    }
}

/// An entry of the binary-heap queue, ordered by `(time, seq)`.
#[derive(Clone, Copy, Debug)]
struct Event {
    time: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The binary-heap queue: one entry per letter, never batched.
#[derive(Default)]
struct Heap(BinaryHeap<Reverse<Event>>);

impl EventQueue for Heap {
    const BATCHES: bool = false;

    fn push(&mut self, time: f64, seq: u64, ev: Ev) {
        self.0.push(Reverse(Event { time, seq, ev }));
    }

    fn pop(&mut self) -> Option<(f64, Ev)> {
        self.0.pop().map(|Reverse(e)| (e.time, e.ev))
    }

    fn peek(&mut self) -> Option<(f64, Ev)> {
        self.0.peek().map(|Reverse(e)| (e.time, e.ev))
    }

    fn entries(&self) -> impl Iterator<Item = (f64, u64, Ev)> + '_ {
        self.0.iter().map(|Reverse(e)| (e.time, e.seq, e.ev))
    }
}

/// The execution state of a run: everything except the event queue.
struct Exec<'a, P: Fsm> {
    protocol: &'a P,
    graph: &'a Graph,
    b: u8,
    states: Vec<P::State>,
    /// Flat CSR-indexed port store with incremental per-letter counts:
    /// a step's observation is an O(1) count lookup, not a port scan.
    ports: FlatPorts,
    /// `pending[slot]`: a letter arrived at this port after the owner's
    /// last step. Flat, same CSR layout as the port store.
    pending: Vec<bool>,
    /// FIFO watermark per directed edge, indexed by the *sender's* CSR
    /// slot for `v → neighbors(v)[k]`.
    last_arrival: Vec<f64>,
    /// Per-node incarnation, bumped by every crash and restart. All zero
    /// on churn-free runs.
    inc: Vec<u32>,
    rngs: Vec<SmallRng>,
    step_counts: Vec<u64>,
    unfinished: usize,
    max_param: f64,
    total_steps: u64,
    messages_sent: u64,
    deliveries: u64,
    lost_overwrites: u64,
}

impl<'a, P: Fsm> Exec<'a, P> {
    fn new(protocol: &'a P, graph: &'a Graph, inputs: &[usize], seed: u64) -> Self {
        let n = graph.node_count();
        let sigma = protocol.alphabet().len();
        let sigma0 = protocol.initial_letter();
        let states: Vec<P::State> = inputs.iter().map(|&i| protocol.initial_state(i)).collect();
        let unfinished = states
            .iter()
            .filter(|q| protocol.output(q).is_none())
            .count();
        Exec {
            protocol,
            graph,
            b: protocol.bound(),
            states,
            ports: FlatPorts::new(graph, sigma, sigma0),
            pending: vec![false; graph.port_slot_count()],
            last_arrival: vec![0.0; graph.port_slot_count()],
            inc: vec![0; n],
            rngs: (0..n as u64)
                .map(|v| SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(v ^ 0xABCD))))
                .collect(),
            step_counts: vec![1; n],
            unfinished,
            max_param: 0.0,
            total_steps: 0,
            messages_sent: 0,
            deliveries: 0,
            lost_overwrites: 0,
        }
    }

    /// Splices a decoded snapshot into a fresh engine: every field the
    /// capture serialized, with the port counts recomputed canonically
    /// from the letter array.
    fn from_resume(
        protocol: &'a P,
        graph: &'a Graph,
        res: snapshot::AsyncResume<P::State>,
    ) -> Self {
        Exec {
            protocol,
            graph,
            b: protocol.bound(),
            inc: res
                .churn
                .map_or_else(|| vec![0; res.states.len()], |(inc, _)| inc),
            states: res.states,
            ports: FlatPorts::from_letters(graph, protocol.alphabet().len(), res.letters),
            pending: res.pending,
            last_arrival: res.last_arrival,
            rngs: res.rngs,
            step_counts: res.step_counts,
            unfinished: res.unfinished as usize,
            max_param: res.max_param,
            total_steps: res.total_steps,
            messages_sent: res.messages_sent,
            deliveries: res.deliveries,
            lost_overwrites: res.lost_overwrites,
        }
    }

    /// Serializes a step boundary into a snapshot and hands it to the
    /// observer: the execution state, the loop counters, the churn
    /// cursor, and the queue's backlog with every run expanded into its
    /// per-letter deliveries at their exact consecutive seqs — so the
    /// frame bytes are the same whichever queue holds the events.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint<Q: EventQueue, O: Observer<P::State> + ?Sized>(
        &self,
        snap: &SnapArgs<'_, P::State>,
        events: u64,
        seq: u64,
        queue: &Q,
        cursor: Option<u64>,
        faults: Option<FaultSummary>,
        observer: &mut O,
    ) {
        let mut backlog = Vec::new();
        for (time, seq, ev) in queue.entries() {
            let kind = match ev {
                Ev::Step(node, inc) => BacklogKind::Step { node, inc },
                Ev::Deliver {
                    node,
                    slot,
                    letter,
                    inc,
                } => BacklogKind::Deliver {
                    node,
                    slot,
                    letter,
                    inc,
                },
                Ev::DeliverRun {
                    v,
                    from,
                    len,
                    letter,
                } => {
                    let targets = self.run_targets(v, from, len).zip(seq..);
                    backlog.extend(targets.map(|((node, slot), seq)| {
                        let kind = BacklogKind::Deliver {
                            node,
                            slot,
                            letter,
                            inc: 0,
                        };
                        BacklogEvent { time, seq, kind }
                    }));
                    continue;
                }
            };
            backlog.push(BacklogEvent { time, seq, kind });
        }
        let s = snapshot::encode_async(
            snap.meta,
            &snap.codec(),
            AsyncCapture {
                total_steps: self.total_steps,
                events,
                seq,
                messages_sent: self.messages_sent,
                deliveries: self.deliveries,
                lost_overwrites: self.lost_overwrites,
                max_param: self.max_param,
                unfinished: self.unfinished as u64,
                states: &self.states,
                letters: self.ports.letters(),
                pending: &self.pending,
                last_arrival: &self.last_arrival,
                step_counts: &self.step_counts,
                rngs: &self.rngs,
                churn: cursor.map(|c| (&self.inc[..], c)),
                faults,
                backlog,
            },
        );
        observer.on_checkpoint(&s);
    }

    /// The receivers of `v`'s ports `from..from + len`, each with its
    /// receiver-side flat slot (via the precomputed reverse-port map).
    #[inline]
    fn run_targets(
        &self,
        v: NodeId,
        from: u32,
        len: u32,
    ) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let nbrs = self.graph.neighbors(v);
        let rev = self.graph.reverse_ports(v);
        (from as usize..(from + len) as usize).map(move |k| {
            (
                nbrs[k],
                (self.graph.csr_offset(nbrs[k]) + rev[k] as usize) as u32,
            )
        })
    }

    /// Whether a delivery stamped with incarnation `inc` still lands:
    /// the receiver has not crashed since it was sent, and the slot's
    /// edge is up.
    #[inline]
    fn admits(&self, node: NodeId, slot: u32, inc: u32) -> bool {
        inc == self.inc[node as usize] && self.ports.letter_at(slot as usize) != TOMBSTONE
    }

    /// One port write with overwrite-loss accounting.
    #[inline]
    fn deliver(&mut self, node: NodeId, slot: usize, letter: Letter) {
        if self.pending[slot] {
            self.lost_overwrites += 1;
        }
        self.pending[slot] = true;
        self.ports.deliver(node as usize, slot, letter);
        self.deliveries += 1;
    }

    /// Appends the deliveries of `ev` that still land to a same-instant
    /// `batch`, and returns how many events `ev` counts for.
    #[inline]
    fn gather(&self, ev: Ev, batch: &mut Vec<(NodeId, u32, Letter)>) -> u64 {
        match ev {
            Ev::Deliver {
                node,
                slot,
                letter,
                inc,
            } => {
                if self.admits(node, slot, inc) {
                    batch.push((node, slot, letter));
                }
                1
            }
            Ev::DeliverRun {
                v,
                from,
                len,
                letter,
            } => {
                batch.extend(
                    self.run_targets(v, from, len)
                        .map(|(node, slot)| (node, slot, letter)),
                );
                len as u64
            }
            Ev::Step(..) => unreachable!("steps never enter a delivery batch"),
        }
    }

    /// Applies a gathered batch of same-instant deliveries, grouped by
    /// receiver: one count-update pass per receiver. The slots are
    /// pairwise distinct (per-edge FIFO forbids two same-instant arrivals
    /// on one directed edge), so the pending flags, overwrite-loss
    /// accounting, letter swaps, and net count deltas are all
    /// order-independent: the result is bit-identical to per-letter
    /// [`Exec::deliver`] calls in `(time, seq)` order.
    fn deliver_batch(
        &mut self,
        batch: &mut [(NodeId, u32, Letter)],
        group: &mut Vec<(u32, Letter)>,
        deltas: &mut Vec<(u16, i64)>,
    ) {
        if let [(node, slot, letter)] = *batch {
            self.deliver(node, slot as usize, letter);
            return;
        }
        batch.sort_unstable_by_key(|&(node, slot, _)| (node, slot));
        for run in batch.chunk_by(|a, b| a.0 == b.0) {
            if let [(node, slot, letter)] = *run {
                self.deliver(node, slot as usize, letter);
                continue;
            }
            group.clear();
            group.extend(run.iter().map(|&(_, slot, letter)| (slot, letter)));
            for &(slot, _) in group.iter() {
                let slot = slot as usize;
                if self.pending[slot] {
                    self.lost_overwrites += 1;
                }
                self.pending[slot] = true;
            }
            self.ports.deliver_run(run[0].0 as usize, group, deltas);
            self.deliveries += group.len() as u64;
        }
    }

    /// Applies node `v`'s pending transition: clears its pending marks,
    /// observes the query-letter count, steps the node in place
    /// ([`Fsm::step`]: a uniform draw from δ), and maintains the
    /// undecided counter. Returns the step index and the emission.
    #[inline]
    fn apply_step(&mut self, v: NodeId) -> (u64, Option<Letter>) {
        let vi = v as usize;
        let t = self.step_counts[vi];
        self.total_steps += 1;
        let base = self.graph.csr_offset(v);
        self.pending[base..base + self.graph.degree(v)]
            .iter_mut()
            .for_each(|p| *p = false);

        let query = self.protocol.query(&self.states[vi]);
        let count = self.ports.count(vi, query) as usize;
        let was_output = self.protocol.output(&self.states[vi]).is_some();
        let emission = self.protocol.step(
            &mut self.states[vi],
            BoundedCount::from_count(count, self.b),
            &mut self.rngs[vi],
        );
        let is_output = self.protocol.output(&self.states[vi]).is_some();
        match (was_output, is_output) {
            (false, true) => self.unfinished -= 1,
            (true, false) => self.unfinished += 1,
            _ => {}
        }
        (t, emission)
    }

    /// Computes the FIFO-bumped arrival time of `v`'s step-`t` broadcast
    /// at every neighbor, in port order, into `arrivals`: the delay
    /// draws, `max_param` folding, and the per-edge watermark update.
    fn compute_arrivals(
        &mut self,
        adversary: &dyn Adversary,
        v: NodeId,
        t: u64,
        now: f64,
        arrivals: &mut Vec<f64>,
    ) {
        let nbrs = self.graph.neighbors(v);
        let base = self.graph.csr_offset(v);
        arrivals.clear();
        arrivals.resize(nbrs.len(), 0.0);
        adversary.fill_delays(v, t, nbrs, arrivals);
        for (k, a) in arrivals.iter_mut().enumerate() {
            let d = *a;
            debug_assert!(
                d.is_finite() && d >= 0.0,
                "adversary delay must be finite and non-negative, got {d} for \
                 step {t} of node {v} toward port {k}"
            );
            self.max_param = self.max_param.max(d);
            // FIFO: never deliver before an earlier transmission on the
            // same directed edge.
            let mut arrival = now + d;
            if arrival <= self.last_arrival[base + k] {
                arrival = self.last_arrival[base + k] * (1.0 + 1e-12) + 1e-12;
            }
            self.last_arrival[base + k] = arrival;
            *a = arrival;
        }
    }

    /// The next step length for `(v, t)`, folded into the time unit.
    #[inline]
    fn step_length(&mut self, adversary: &dyn Adversary, v: NodeId, t: u64) -> f64 {
        let l = adversary.step_length(v, t);
        debug_assert!(
            l.is_finite() && l > 0.0,
            "adversary step length must be finite and positive, got {l} for \
             step {t} of node {v}"
        );
        self.max_param = self.max_param.max(l);
        l
    }

    /// Applies every churn boundary due at or before the queue's head
    /// event, or every remaining one once the queue has drained. The
    /// head is peeked afresh before each boundary: a restart schedules
    /// the reborn node's first step, which may precede the old head.
    /// Returns the completion time if the run completes at a boundary.
    fn apply_boundaries<Q: EventQueue>(
        &mut self,
        ctl: &mut ChurnCtl<'_>,
        queue: &mut Q,
        seq: &mut u64,
        adversary: &dyn Adversary,
        inputs: &[usize],
    ) -> Option<f64> {
        while let Some(round) = ctl.peek_round() {
            let tb = round as f64;
            if queue.peek().is_some_and(|(head, _)| head < tb) {
                return None;
            }
            let (ev, effective) = ctl.apply_next(self.graph);
            if effective {
                match ev {
                    TopologyEvent::Crash(v) => {
                        let vi = v as usize;
                        self.inc[vi] += 1;
                        if self.protocol.output(&self.states[vi]).is_none() {
                            self.unfinished -= 1;
                        }
                    }
                    TopologyEvent::Restart(v) => {
                        let vi = v as usize;
                        self.inc[vi] += 1;
                        self.states[vi] = self.protocol.restart_state(inputs[vi]);
                        if self.protocol.output(&self.states[vi]).is_none() {
                            self.unfinished += 1;
                        }
                        let l = self.step_length(adversary, v, self.step_counts[vi]);
                        queue.push(tb + l, *seq, Ev::Step(v, self.inc[vi]));
                        *seq += 1;
                    }
                    TopologyEvent::EdgeInsert(..) | TopologyEvent::EdgeDelete(..) => {}
                }
                // A patched slot never carries a stale pending mark:
                // retired slots have no observable letter, revived ones
                // hold σ₀ as a fresh registration would.
                for p in ctl.patches() {
                    self.pending[p.slot as usize] = false;
                }
                ctl.patch_ports(self.graph, &mut self.ports);
            }
            if self.unfinished == 0 && ctl.exhausted() {
                return Some(tb);
            }
        }
        None
    }

    /// The outcome at `completion_time`. Nodes dead at termination
    /// (`live[v]` false) decode to [`DEAD_OUTPUT`] unless they decided
    /// before crashing.
    fn outcome(self, completion_time: f64, live: Option<&[bool]>) -> (AsyncOutcome, Vec<P::State>) {
        let outputs = self
            .states
            .iter()
            .enumerate()
            .map(|(v, q)| match self.protocol.output(q) {
                Some(out) => out,
                None if live.is_some_and(|live| !live[v]) => DEAD_OUTPUT,
                None => panic!("live nodes are decided at termination"),
            })
            .collect();
        // A run that completes before its first step drew no parameter.
        let time_unit = if self.max_param > 0.0 {
            self.max_param
        } else {
            1.0
        };
        (
            AsyncOutcome {
                outputs,
                completion_time,
                time_unit,
                normalized_time: completion_time / time_unit,
                total_steps: self.total_steps,
                messages_sent: self.messages_sent,
                deliveries: self.deliveries,
                lost_overwrites: self.lost_overwrites,
            },
            self.states,
        )
    }
}

/// Target mean events per calendar bucket; see [`crate::schedule`] for
/// why a small handful is the sweet spot.
const TARGET_EVENTS_PER_TICK: f64 = 4.0;

/// Picks the calendar bucket width for `adversary` on `graph`:
/// `target / rate` with `rate ≈ (|V| + Σ deg) / mean_step` — every step
/// reschedules itself and fans out at most `deg(v)` deliveries per unit
/// of simulated time. The step scale comes from the policy's
/// [`Adversary::time_scale_hint`] or a small deterministic sample.
/// Performance-only: any positive width yields identical outcomes.
fn choose_bucket_width<A: Adversary + ?Sized>(
    adversary: &A,
    graph: &Graph,
    override_width: Option<f64>,
) -> f64 {
    if let Some(w) = override_width {
        if w.is_finite() && w > 0.0 {
            return w;
        }
    }
    let n = graph.node_count().max(1);
    let scale = adversary.time_scale_hint().unwrap_or_else(|| {
        // Deterministic probe of the oblivious parameter sequences: a
        // handful of early step lengths across a node stride.
        let probes = n.min(16);
        let stride = (n / probes).max(1);
        let mut sum = 0.0;
        let mut count = 0u32;
        for i in 0..probes {
            let v = (i * stride) as NodeId;
            for t in 1..=2u64 {
                sum += adversary.step_length(v, t);
                count += 1;
            }
        }
        sum / count as f64
    });
    let rate = (n + graph.degree_sum()) as f64 / scale.max(f64::MIN_POSITIVE);
    TARGET_EVENTS_PER_TICK / rate
}

/// The asynchronous engine: runs `protocol` under `adversary`, invoking
/// `observer` after every node step, and returns the final per-node
/// state vector next to the outcome (and the [`crate::ChurnSummary`] of
/// a churn `plan`). The [`crate::Simulation`] builder's Async row points
/// here.
///
/// Inputs are validated by the builder; this function assumes
/// `inputs.len() == graph.node_count()`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_async<P: Fsm>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    adversary: &dyn Adversary,
    config: &AsyncConfig,
    plan: Option<&ChurnPlan>,
    observer: ObsArg<'_, P::State>,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> RowResult<AsyncOutcome, P::State> {
    // The event loop calls `on_step` once per node step: a run without an
    // observer is monomorphized over the no-op observer, because even an
    // untaken branch per step costs measurable throughput.
    match observer {
        Some(o) => run_async(
            protocol, graph, inputs, adversary, config, plan, o, snap, faults,
        ),
        None => run_async(
            protocol, graph, inputs, adversary, config, plan, &mut Quiet, snap, faults,
        ),
    }
}

/// The queue-side remainder of a decoded async snapshot: the serialized
/// event backlog and the loop-owned global counters. The loop seeds its
/// queue from the backlog *instead of* the per-node initial step events.
struct AsyncSeed {
    backlog: Vec<BacklogEvent>,
    events: u64,
    seq: u64,
}

/// Sets a run up — the churn universe and controller, the compiled
/// fault plan, a fresh or resumed engine — runs the event loop on the
/// configured queue, and decodes the outcome.
#[allow(clippy::too_many_arguments)]
fn run_async<P: Fsm, O: Observer<P::State> + ?Sized>(
    protocol: &P,
    base: &Graph,
    inputs: &[usize],
    adversary: &dyn Adversary,
    config: &AsyncConfig,
    plan: Option<&ChurnPlan>,
    observer: &mut O,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
) -> RowResult<AsyncOutcome, P::State> {
    let universe;
    let graph = match plan {
        Some(plan) => {
            universe = plan.universe(base).map_err(plan_config)?;
            &universe
        }
        None => base,
    };
    let n = graph.node_count();
    debug_assert_eq!(inputs.len(), n, "the builder validates input length");
    // Deliver events carry the receiver's flat CSR slot as u32; fail fast
    // rather than silently wrapping on graphs beyond that addressing limit
    // (~2.1B directed port slots).
    assert!(
        u32::try_from(graph.port_slot_count()).is_ok(),
        "graph has {} directed port slots, exceeding the async engine's u32 slot addressing",
        graph.port_slot_count()
    );

    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    let mut churn = plan
        .map(|plan| ChurnCtl::new(plan, base, graph, protocol.initial_letter()))
        .transpose()?;
    let (mut ex, resume, tally) = match snap.resume {
        Some(s) => {
            let mut res = snapshot::decode_async(s, &snap.codec(), n, graph.port_slot_count())?;
            if res.churn.is_some() != churn.is_some() || res.faults.is_some() != fctx.is_some() {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch {
                    field: "snapshot body kind",
                }));
            }
            // The restored store already reflects the setup patches and
            // every boundary up to the cursor; only the overlay replica,
            // effectiveness counters, and cursor need rebuilding.
            if let (Some(ctl), Some((_, cursor))) = (&mut churn, &res.churn) {
                ctl.fast_forward(graph, *cursor)?;
            }
            let seed = AsyncSeed {
                backlog: std::mem::take(&mut res.backlog),
                events: res.events,
                seq: res.seq,
            };
            let tally = res.faults.unwrap_or_default();
            (Exec::from_resume(protocol, graph, res), Some(seed), tally)
        }
        None => {
            let mut ex = Exec::new(protocol, graph, inputs, config.seed);
            if let Some(ctl) = &mut churn {
                ctl.setup(&mut ex.ports);
            }
            (ex, None, FaultSummary::default())
        }
    };

    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let done =
        resume.is_none() && ex.unfinished == 0 && churn.as_ref().is_none_or(|c| c.exhausted());
    let result = if done {
        Ok(0.0)
    } else {
        let mut hooks = Hooks {
            adversary,
            inputs,
            max_events: config.max_events,
            churn: churn.as_mut(),
            faults: &mut layer,
            observer,
            snap,
        };
        match config.scheduler {
            SchedulerKind::BinaryHeap => event_loop(&mut ex, Heap::default(), &mut hooks, resume),
            SchedulerKind::CalendarWheel => {
                let width = choose_bucket_width(adversary, graph, config.bucket_width);
                event_loop(&mut ex, CalendarQueue::new(width), &mut hooks, resume)
            }
        }
    };
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    let completion_time = result?;
    let summary = churn.map(|ctl| ctl.finish());
    let live = summary.as_ref().map(|s| &s.live_nodes[..]);
    let (outcome, states) = ex.outcome(completion_time, live);
    Ok((outcome, states, summary))
}

/// What the event loop consults besides the engine and its queue: the
/// adversary, the event budget, and the churn, fault, observer and
/// checkpoint hooks.
struct Hooks<'h, 'p, 'f, O: ?Sized, S> {
    adversary: &'h dyn Adversary,
    inputs: &'h [usize],
    max_events: u64,
    churn: Option<&'h mut ChurnCtl<'p>>,
    faults: &'h mut FaultLayer<'f>,
    observer: &'h mut O,
    snap: &'h SnapArgs<'h, S>,
}

/// The event loop, on either queue. Returns the completion time: the
/// step or churn boundary after which every live node is decided and
/// no churn event is left.
fn event_loop<P: Fsm, Q: EventQueue, O: Observer<P::State> + ?Sized>(
    ex: &mut Exec<'_, P>,
    mut queue: Q,
    h: &mut Hooks<'_, '_, '_, O, P::State>,
    resume: Option<AsyncSeed>,
) -> Result<f64, ExecError> {
    let n = ex.graph.node_count();
    let (mut events, mut seq) = match resume {
        Some(seed) => {
            // The backlog carries each delivery individually with its
            // exact `(time, seq)`, so it drains in the captured order —
            // a run's grouped drain and its per-letter events gather into
            // the identical batch.
            for e in seed.backlog {
                queue.push(e.time, e.seq, e.kind.into());
            }
            (seed.events, seed.seq)
        }
        None => {
            for v in 0..n as NodeId {
                let l = ex.step_length(h.adversary, v, 1);
                queue.push(l, v as u64, Ev::Step(v, 0));
            }
            (0, n as u64)
        }
    };
    let budget = |events: u64, ex: &Exec<'_, P>| {
        if events > h.max_events {
            Err(ExecError::EventLimit {
                limit: h.max_events,
                unfinished: ex.unfinished,
            })
        } else {
            Ok(())
        }
    };
    // Per-edge runs resolve their receiver slots at drain time, which
    // needs a static port map: no churn. (Faulted senders never push
    // runs; see the emission below.)
    let runs = Q::BATCHES && h.churn.is_none();
    let mut arrivals: Vec<f64> = Vec::new();
    let mut fan: Vec<(NodeId, u32, f64, Letter)> = Vec::new();
    // Per-receiver coalescing scratch: `batch` gathers the consecutive
    // same-instant deliveries, `group` one receiver's writes, `deltas`
    // the count-merge scratch of `FlatPorts::deliver_run`.
    let mut batch: Vec<(NodeId, u32, Letter)> = Vec::new();
    let mut group: Vec<(u32, Letter)> = Vec::new();
    let mut deltas: Vec<(u16, i64)> = Vec::new();
    loop {
        if let Some(ctl) = h.churn.as_deref_mut() {
            if let Some(done) =
                ex.apply_boundaries(ctl, &mut queue, &mut seq, h.adversary, h.inputs)
            {
                return Ok(done);
            }
        }
        let (time, ev) = queue.pop().expect(
            "the queue cannot drain while the run is incomplete: every live \
             undecided node always has a pending step event",
        );
        let Ev::Step(v, inc) = ev else {
            batch.clear();
            events += ex.gather(ev, &mut batch);
            if Q::BATCHES {
                // Gather every consecutive delivery event at exactly this
                // instant, to apply them grouped by receiver. No churn
                // boundary can fall inside the batch: those due at this
                // instant were applied before its first event.
                while let Some((t2, next)) = queue.peek() {
                    if t2 != time || matches!(next, Ev::Step(..)) {
                        break;
                    }
                    queue.pop();
                    events += ex.gather(next, &mut batch);
                }
            }
            budget(events, ex)?;
            ex.deliver_batch(&mut batch, &mut group, &mut deltas);
            continue;
        };
        events += 1;
        budget(events, ex)?;
        let vi = v as usize;
        if inc != ex.inc[vi] {
            // A pre-crash step of a crashed (possibly since restarted)
            // node: dropped, not rescheduled — the restart boundary
            // scheduled the fresh incarnation's first step.
            continue;
        }
        let (t, emission) = ex.apply_step(v);

        if let Some(letter) = emission {
            ex.messages_sent += 1;
            ex.compute_arrivals(h.adversary, v, t, time, &mut arrivals);
            fan.clear();
            match h.faults.ctx {
                Some(ctx) if ctx.affects_sender(v) => faulted_sends(
                    ctx,
                    &mut h.faults.tally,
                    ex.graph,
                    &mut ex.last_arrival,
                    v,
                    t,
                    &arrivals,
                    letter,
                    &mut fan,
                ),
                _ if runs => {
                    // Partition the broadcast into maximal runs of equal
                    // arrival time (bitwise-equal f64s — the adversary's
                    // latency schedule lands directly in shared buckets).
                    // A run of length `r` occupies `r` contiguous seqs,
                    // so its single event sorts exactly where the heap's
                    // `r` per-letter events would.
                    let mut k = 0;
                    while k < arrivals.len() {
                        let arrival = arrivals[k];
                        let len = arrivals[k..].iter().take_while(|&&a| a == arrival).count();
                        let ev = if len == 1 {
                            let (node, slot) =
                                ex.run_targets(v, k as u32, 1).next().expect("one port");
                            Ev::Deliver {
                                node,
                                slot,
                                letter,
                                inc: 0,
                            }
                        } else {
                            Ev::DeliverRun {
                                v,
                                from: k as u32,
                                len: len as u32,
                                letter,
                            }
                        };
                        queue.push(arrival, seq, ev);
                        seq += len as u64;
                        k += len;
                    }
                }
                _ => fan.extend(
                    ex.run_targets(v, 0, arrivals.len() as u32)
                        .zip(&arrivals)
                        .map(|((node, slot), &arrival)| (node, slot, arrival, letter)),
                ),
            }
            for &(node, slot, arrival, letter) in &fan {
                let inc = ex.inc[node as usize];
                let ev = Ev::Deliver {
                    node,
                    slot,
                    letter,
                    inc,
                };
                queue.push(arrival, seq, ev);
                seq += 1;
            }
        }

        h.observer.on_step(time, v, t, &ex.states[vi]);

        if ex.unfinished == 0 && h.churn.as_ref().is_none_or(|c| c.exhausted()) {
            return Ok(time);
        }

        ex.step_counts[vi] = t + 1;
        let l = ex.step_length(h.adversary, v, t + 1);
        queue.push(time + l, seq, Ev::Step(v, inc));
        seq += 1;

        if h.snap.every > 0 && ex.total_steps.is_multiple_of(h.snap.every) {
            let cursor = h.churn.as_ref().map(|c| c.cursor());
            ex.checkpoint(
                h.snap,
                events,
                seq,
                &queue,
                cursor,
                h.faults.capture(),
                h.observer,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Exponential, Lockstep, SlowEdges, SlowNodes, UniformRandom};
    use crate::sim::Simulation;
    use crate::SyncConfig;
    use stoneage_core::MultiFsm;
    use stoneage_core::{
        Alphabet, AsMulti, Synchronized, TableProtocol, TableProtocolBuilder, Transitions,
    };
    use stoneage_graph::generators;

    // In-crate builder twins (testkit's harness links the other build of
    // this crate; see the note in `sync_exec`'s tests).

    /// Builder twin of the legacy `run_async`.
    fn run_async<P: Fsm, A: Adversary + ?Sized>(
        protocol: &P,
        graph: &Graph,
        adversary: &A,
        config: &AsyncConfig,
    ) -> Result<AsyncOutcome, ExecError> {
        let mut options = crate::AsyncOptions::new(&adversary).with_scheduler(config.scheduler);
        options.bucket_width = config.bucket_width;
        Simulation::asynchronous(protocol, graph, &adversary)
            .seed(config.seed)
            .budget(config.max_events)
            .backend(crate::Backend::Async(options))
            .run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    }

    /// Builder twin of the legacy `run_async_with_inputs`.
    fn run_async_with_inputs<P: Fsm, A: Adversary + ?Sized>(
        protocol: &P,
        graph: &Graph,
        inputs: &[usize],
        adversary: &A,
        config: &AsyncConfig,
    ) -> Result<AsyncOutcome, ExecError> {
        Simulation::asynchronous(protocol, graph, &adversary)
            .seed(config.seed)
            .budget(config.max_events)
            .inputs(inputs)
            .run()
            .map(|o| o.into_async_outcome().expect("async backend"))
    }

    /// Builder twin of the legacy `run_sync`.
    fn run_sync<P>(
        protocol: &P,
        graph: &Graph,
        config: &SyncConfig,
    ) -> Result<crate::SyncOutcome, ExecError>
    where
        P: MultiFsm + Sync,
        P::State: Send + Sync,
    {
        Simulation::sync(protocol, graph)
            .seed(config.seed)
            .budget(config.max_rounds)
            .run()
            .map(|o| o.into_sync_outcome().expect("sync backend"))
    }

    /// Deterministic protocol: beep at step 1, then output 1 + f_b(#beeps).
    /// σ₀ is a distinct "quiet" letter, so the count genuinely reflects
    /// *delivered* beeps — which makes the protocol synchrony-dependent.
    fn count_neighbors(b: u8) -> TableProtocol {
        let alphabet = Alphabet::new(["beep", "quiet"]);
        let mut builder = TableProtocolBuilder::new("count", alphabet, b, Letter(1));
        let start = builder.add_state("start", Letter(0));
        let listen = builder.add_state("listen", Letter(0));
        builder.add_input_state(start);
        builder.set_transition_all(start, Transitions::det(listen, Some(Letter(0))));
        for o in 0..=b {
            let out = builder.add_output_state(format!("out{o}"), Letter(0), 1 + o as u64);
            builder.set_transition(listen, o, Transitions::det(out, None));
            builder.set_transition_all(out, Transitions::det(out, None));
        }
        builder.build().unwrap()
    }

    #[test]
    fn lockstep_async_matches_sync_for_unsynchronized_protocol() {
        let g = generators::star(6);
        let p = count_neighbors(3);
        let sync_out = run_sync(&AsMulti(p.clone()), &g, &SyncConfig::seeded(1)).unwrap();
        let async_out = run_async(&p, &g, &Lockstep, &AsyncConfig::seeded(1)).unwrap();
        assert_eq!(async_out.outputs, sync_out.outputs);
    }

    #[test]
    fn unsynchronized_protocol_breaks_under_asynchrony() {
        // The raw counting protocol relies on synchrony; an adversarial
        // schedule derails it (this is exactly why Theorem 3.1 exists): a
        // node whose two steps both fire before any beep is delivered
        // observes 0 neighbors.
        let g = generators::star(8);
        let p = count_neighbors(3);
        let reference = run_async(&p, &g, &Lockstep, &AsyncConfig::seeded(0))
            .unwrap()
            .outputs;
        let mut any_diff = false;
        for seed in 0..20 {
            let adv = Exponential { seed, mean: 0.5 };
            let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(seed)).unwrap();
            if out.outputs != reference {
                any_diff = true;
                break;
            }
        }
        assert!(
            any_diff,
            "expected at least one adversarial schedule to break the \
             unsynchronized protocol"
        );
    }

    #[test]
    fn synchronized_protocol_is_correct_under_every_adversary() {
        // The synchronizer makes the deterministic counting protocol yield
        // its unique correct outputs under arbitrary schedules.
        let g = generators::star(5);
        let p = Synchronized::new(count_neighbors(3));
        let mut expected = vec![1 + 3u64]; // center, degree 4 truncated to ≥3
        expected.extend(std::iter::repeat_n(1 + 1, 4));
        for (i, adv) in crate::adversary::standard_panel(7).iter().enumerate() {
            let out = run_async(&p, &g, adv, &AsyncConfig::seeded(100 + i as u64)).unwrap();
            assert_eq!(out.outputs, expected, "adversary {}", adv.name());
            assert!(out.normalized_time > 0.0);
            assert!(out.time_unit > 0.0);
        }
    }

    #[test]
    fn async_execution_is_deterministic_per_seeds() {
        let g = generators::gnp(20, 0.2, 3);
        let p = Synchronized::new(count_neighbors(2));
        let adv = UniformRandom { seed: 5 };
        let a = run_async(&p, &g, &adv, &AsyncConfig::seeded(9)).unwrap();
        let b = run_async(&p, &g, &adv, &AsyncConfig::seeded(9)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.total_steps, b.total_steps);
    }

    #[test]
    fn schedulers_agree_regardless_of_bucket_width() {
        // Pathological explicit widths (one giant bucket; every event past
        // the wheel horizon) must not change a single outcome field.
        let g = generators::gnp(18, 0.25, 2);
        let p = Synchronized::new(count_neighbors(2));
        let adv = UniformRandom { seed: 8 };
        let heap = run_async(
            &p,
            &g,
            &adv,
            &AsyncConfig::seeded(3).with_scheduler(SchedulerKind::BinaryHeap),
        )
        .unwrap();
        for width in [None, Some(1e9), Some(1e-9), Some(0.37)] {
            let cfg = AsyncConfig {
                bucket_width: width,
                ..AsyncConfig::seeded(3)
            };
            let wheel = run_async(&p, &g, &adv, &cfg).unwrap();
            assert_eq!(wheel.outputs, heap.outputs, "width {width:?}");
            assert_eq!(
                wheel.completion_time, heap.completion_time,
                "width {width:?}"
            );
            assert_eq!(wheel.total_steps, heap.total_steps, "width {width:?}");
            assert_eq!(wheel.deliveries, heap.deliveries, "width {width:?}");
            assert_eq!(
                wheel.lost_overwrites, heap.lost_overwrites,
                "width {width:?}"
            );
        }
    }

    #[test]
    fn event_limit_is_reported() {
        let g = generators::path(4);
        let p = Synchronized::new(count_neighbors(1));
        let adv = UniformRandom { seed: 1 };
        for scheduler in [SchedulerKind::CalendarWheel, SchedulerKind::BinaryHeap] {
            let err = run_async(
                &p,
                &g,
                &adv,
                &AsyncConfig {
                    max_events: 50,
                    ..AsyncConfig::seeded(0).with_scheduler(scheduler)
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ExecError::EventLimit { limit: 50, .. }),
                "{scheduler:?}"
            );
        }
    }

    #[test]
    fn normalized_time_is_scale_invariant() {
        // Scaling all adversary parameters by a constant must not change
        // the normalized run-time (the paper's measure).
        #[derive(Clone, Copy)]
        struct Scaled<A>(A, f64);
        impl<A: Adversary> Adversary for Scaled<A> {
            fn step_length(&self, v: NodeId, t: u64) -> f64 {
                self.1 * self.0.step_length(v, t)
            }
            fn delay(&self, v: NodeId, t: u64, u: NodeId) -> f64 {
                self.1 * self.0.delay(v, t, u)
            }
            fn name(&self) -> &'static str {
                "scaled"
            }
        }
        let g = generators::cycle(6);
        let p = Synchronized::new(count_neighbors(1));
        let base = UniformRandom { seed: 2 };
        let a = run_async(&p, &g, &base, &AsyncConfig::seeded(4)).unwrap();
        let b = run_async(&p, &g, &Scaled(base, 100.0), &AsyncConfig::seeded(4)).unwrap();
        assert!((a.normalized_time - b.normalized_time).abs() < 1e-6);
        assert!((b.completion_time / a.completion_time - 100.0).abs() < 1e-3);
    }

    #[test]
    fn lost_overwrites_occur_on_slow_receivers() {
        // A very slow receiver cannot observe every message of a fast
        // sender; the no-buffer semantics must register losses.
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let adv = SlowNodes {
            seed: 3,
            fraction: 0.5,
            factor: 50.0,
        };
        let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(8)).unwrap();
        // Not asserting a specific count — just exercising the path; with
        // factor 50 some loss is overwhelmingly likely but not certain.
        assert!(out.deliveries > 0);
    }

    #[test]
    fn isolated_nodes_complete_alone() {
        let g = stoneage_graph::Graph::empty(4);
        let p = Synchronized::new(count_neighbors(2));
        let adv = Exponential { seed: 1, mean: 0.3 };
        let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(0)).unwrap();
        assert_eq!(out.outputs, vec![1, 1, 1, 1]);
    }

    #[test]
    fn slow_edges_still_converge() {
        let g = generators::complete(5);
        let p = Synchronized::new(count_neighbors(3));
        let adv = SlowEdges {
            seed: 6,
            fraction: 0.3,
            factor: 20.0,
        };
        let out = run_async(&p, &g, &adv, &AsyncConfig::seeded(2)).unwrap();
        assert_eq!(out.outputs, vec![4, 4, 4, 4, 4]);
    }

    #[test]
    fn input_mismatch_is_reported() {
        let g = generators::path(3);
        let p = count_neighbors(1);
        let err =
            run_async_with_inputs(&p, &g, &[0], &Lockstep, &AsyncConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::InputLengthMismatch { .. }));
    }

    /// An adversary that violates the model contract with a NaN delay.
    #[derive(Clone, Copy)]
    struct NanDelay;
    impl Adversary for NanDelay {
        fn step_length(&self, _v: NodeId, _t: u64) -> f64 {
            1.0
        }
        fn delay(&self, _v: NodeId, _t: u64, _u: NodeId) -> f64 {
            f64::NAN
        }
        fn name(&self) -> &'static str {
            "nan-delay"
        }
    }

    /// An adversary that violates the model contract with a zero step
    /// length (which would wedge simulated time).
    #[derive(Clone, Copy)]
    struct ZeroStep;
    impl Adversary for ZeroStep {
        fn step_length(&self, _v: NodeId, _t: u64) -> f64 {
            0.0
        }
        fn delay(&self, _v: NodeId, _t: u64, _u: NodeId) -> f64 {
            1.0
        }
        fn name(&self) -> &'static str {
            "zero-step"
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn misbehaving_adversary_delay_is_caught_on_heap() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let _ = run_async(
            &p,
            &g,
            &NanDelay,
            &AsyncConfig::seeded(0).with_scheduler(SchedulerKind::BinaryHeap),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn misbehaving_adversary_delay_is_caught_on_wheel() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let _ = run_async(
            &p,
            &g,
            &NanDelay,
            &AsyncConfig::seeded(0).with_scheduler(SchedulerKind::CalendarWheel),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and positive")]
    fn misbehaving_adversary_step_length_is_caught() {
        let g = generators::path(2);
        let p = Synchronized::new(count_neighbors(1));
        let _ = run_async(&p, &g, &ZeroStep, &AsyncConfig::seeded(0));
    }

    #[test]
    fn chosen_bucket_width_is_positive_and_scales_with_rate() {
        let small = generators::gnp(20, 0.2, 1);
        let large = generators::gnp(2000, 4.0 / 2000.0, 1);
        let adv = UniformRandom { seed: 4 };
        let ws = choose_bucket_width(&adv, &small, None);
        let wl = choose_bucket_width(&adv, &large, None);
        assert!(ws > 0.0 && ws.is_finite());
        assert!(wl > 0.0 && wl.is_finite());
        // More nodes and edges → denser event stream → narrower buckets.
        assert!(wl < ws);
        // Explicit override wins.
        assert_eq!(choose_bucket_width(&adv, &small, Some(0.125)), 0.125);
    }
}
