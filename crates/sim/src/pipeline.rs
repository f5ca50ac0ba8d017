//! The shared **round pipeline** of the lockstep executors.
//!
//! Before this module, the synchronous and scoped executors each carried
//! two hand-rolled transcriptions of the same round loop (serial and
//! parallel — four loops total), and every scheduling improvement had to
//! be made four times. The pipeline extracts the loop once, parameterized
//! over the two things that actually differ:
//!
//! * **the per-node step** — how a node transitions and how its emission
//!   resolves into deliveries (a broadcast for `MultiFsm`, the
//!   port-select draw plus witness record for
//!   [`crate::scoped::ScopedMultiFsm`]); and
//! * **the delivery strategy** — where resolved writes land: a serial
//!   replay buffer, or the per-worker destination-sharded
//!   [`crate::parbuf::DeliveryBuffer`]s merged under the policy's
//!   [`crate::parbuf::MergeStrategy`].
//!
//! Every path executes on the epoch-split [`PortPlanes`] store: phase 1
//! of round *r* observes the frozen read plane, phase-2 deliveries land
//! on the write plane, and the plane swap at the round boundary is a
//! pure epoch flip (see the [`crate::engine`] docs for the no-copy
//! argument).
//!
//! # One join per round: the fused schedule
//!
//! The parallel pipeline runs in one of two modes
//! ([`crate::parbuf::RoundMode`]):
//!
//! * **Joined** — the historical schedule: one worker scope for
//!   phase 1 + 2a, a join, then the phase-2b merge (itself a second
//!   scope under the destination-sharded strategy). Two joins per round.
//! * **Fused** — phase 2b of round *r* is deferred into the worker scope
//!   of round *r + 1*: each worker takes the
//!   [`crate::engine::PlaneShard`] for its own node range, first lands
//!   every buffer's bucket destined to that shard (the write plane of
//!   the previous epoch), freezes the shard into the read plane, and
//!   runs phase 1 + 2a of the new round against it. **Exactly one scope
//!   join per round.**
//!
//! Fused is bit-identical to Joined (and hence to the serial engines)
//! because nothing observable moves:
//!
//! * a node's observation reads only its own count row and CSR slots,
//!   both inside the worker's own shard — which that worker brought up
//!   to date before its first read, so every phase-1 observation of
//!   round *r* sees exactly the end-of-round-*r − 1* store;
//! * scoped target draws read only the sender's own ports (same shard)
//!   and consume the sender's private RNG stream in the same
//!   transition-then-target order;
//! * the deferred buckets replay in fixed worker order per shard, the
//!   same order the joined merge uses, and per-round slot uniqueness +
//!   commutative counts make the landed bytes order-independent anyway
//!   (the [`crate::parbuf`] argument);
//! * rounds end on the same undecided-counter zero crossing, and a
//!   terminal round's unlanded buffers are discarded in both modes
//!   (the store is dead once outputs are collected).
//!
//! The differential matrices in `tests/flat_engine.rs` and
//! `tests/scoped_parallel.rs` pin `Fused ≡ Joined ≡ serial` across
//! worker counts, merge strategies, and graph families, and the pinned
//! fingerprint constants are unchanged from their pre-pipeline values.
//!
//! # Who runs a chunk: the work-stealing schedule
//!
//! Orthogonal to the round mode, [`crate::parbuf::ChunkScheduler`]
//! picks how phase 1 + 2a is dealt to workers. `Static` hands each
//! worker its own [`crate::parbuf::ShardPlan`] chunk — zero scheduling
//! cost, but a hub-heavy chunk serializes the round. `Stealing` cuts
//! each shard into [`crate::parbuf::ChunkPlan`] descriptors seeded onto
//! the owning worker's deque (shard-to-worker pinning: a worker starts
//! on exactly the senders whose phase-2b shard it lands under the fused
//! schedule), pops its own deque front-first, and when dry steals from
//! the back of the longest other deque.
//!
//! Stealing is bit-identical to the static schedule because the round's
//! data flow is schedule-free (the [`crate::parbuf`] module docs give
//! the full argument): every node reads only the frozen plane and its
//! private RNG, every write is bucketed by *destination* shard in
//! whichever worker's buffer resolved it, and both merges replay
//! buckets in an order independent of who filled them. The one
//! schedule-dependent artifact — the order scoped witnesses are
//! recorded in — is repaired after the join: each chunk records into
//! its own witness, and the chunk witnesses are absorbed in ascending
//! chunk index (= ascending sender order, the serial transcript).
//! Under [`crate::parbuf::RoundMode::Fused`] the per-worker plane
//! shards live behind `RwLock`s: each worker write-locks its own shard
//! to land + freeze it, a barrier separates landing from observation,
//! and tasks then read-lock the (frozen) shard their senders live in —
//! a task only ever reads its own shard, so the locks never contend
//! with writers.
//!
//! # Boundary hooks
//!
//! Everything that happens *between* two rounds is a hook of this one
//! loop, run in a fixed order after the round's deliveries have landed
//! and the epoch has flipped:
//!
//! * **churn** — with a churn controller attached, the topology events
//!   due at this boundary patch the store and the live-node set; the
//!   next round skips dead nodes without touching their RNG streams.
//!   Round-0 events apply before the first round of a fresh run. A
//!   churn-free run attaches nothing, and an empty plan is the no-op
//!   hook (see [`crate::churn`]).
//! * **observer** — `on_round_end` sees the post-boundary states.
//! * **termination** — the run ends once no node is undecided and no
//!   churn event is left.
//! * **checkpoint** — on the snapshot cadence the complete store, the
//!   churn cursor, and the fault tally are captured (never on a terminal
//!   round).
//!
//! Message faults act on the delivery path *inside* a round (the
//! [`crate::faults`] sink wraps every schedule's delivery sink); the
//! boundary only captures their tally. Under the fused schedule a
//! round's phase 2b is still deferred when the hooks run, so the churn
//! patch and the checkpoint capture first flush it onto the store.
//!
//! # Scratch reuse
//!
//! All per-round scratch lives for the whole run and is cleared, not
//! reallocated: the serial write buffer, the per-worker
//! [`crate::parbuf::DeliveryBuffer`]s, the per-worker [`ObsVec`]s
//! (previously rebuilt every round inside the worker closures), and the
//! per-worker witness vectors (drained into the run-level witness each
//! round).

use rand::rngs::SmallRng;
use stoneage_core::{Letter, ObsVec, Protocol};
use stoneage_graph::{Graph, NodeId};

use crate::churn::{plan_config, ChurnCtl, ChurnPlan, ChurnSummary, DEAD_OUTPUT};
use crate::engine::{FlatPorts, PlaneShard, PortPlanes};
#[cfg(feature = "parallel")]
use crate::faults::FaultSink;
use crate::faults::{FaultLayer, FaultSummary, FaultsArg};
#[cfg(feature = "parallel")]
use crate::parbuf::{self, ChunkPlan, ChunkScheduler, DeliveryBuffer, RoundMode, ShardPlan};
use crate::parbuf::{ParallelPolicy, StealStats};
use crate::scoped::ScopedDelivery;
use crate::sim::{Bridge, ObsArg};
use crate::snapshot::{self, encode_lockstep, LockstepCapture, SnapArgs, SnapPlumb, SnapshotError};
use crate::sync_exec::{compile_faults, SyncConfig, SyncObserver};
use crate::ExecError;

/// Read access to a frozen plane: the observation surface phase 1 and
/// the scoped target draws run against. Implemented by the whole-store
/// read plane ([`FlatPorts`]) and by a worker's own frozen
/// [`PlaneShard`].
pub(crate) trait PortRead {
    /// Refills `obs` with `f_b` of node `v`'s exact per-letter counts.
    fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8);
    /// The exact count of `letter` over `v`'s ports.
    fn count(&self, v: usize, letter: Letter) -> u32;
    /// Node `v`'s ports as a slice.
    fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter];
}

impl PortRead for FlatPorts {
    #[inline]
    fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8) {
        FlatPorts::refill_obs(self, v, obs, b)
    }
    #[inline]
    fn count(&self, v: usize, letter: Letter) -> u32 {
        FlatPorts::count(self, v, letter)
    }
    #[inline]
    fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter] {
        FlatPorts::ports_of(self, graph, v)
    }
}

impl PortRead for PlaneShard<'_> {
    #[inline]
    fn refill_obs(&self, v: usize, obs: &mut ObsVec, b: u8) {
        PlaneShard::refill_obs(self, v, obs, b)
    }
    #[inline]
    fn count(&self, v: usize, letter: Letter) -> u32 {
        PlaneShard::count(self, v, letter)
    }
    #[inline]
    fn ports_of(&self, graph: &Graph, v: NodeId) -> &[Letter] {
        PlaneShard::ports_of(self, graph, v)
    }
}

/// Where phase-2a resolution lands its writes. Deliveries must never
/// touch the port store directly — they are applied (or merged) only
/// after every node of the round has observed and resolved against the
/// frozen read plane.
pub(crate) trait DeliverySink {
    /// Buffers the full broadcast of `letter` from `v` through the
    /// reverse-port map, counting one non-`ε` transmission.
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter);
    /// Buffers a single delivery to `u` at absolute flat `slot`.
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter);
    /// Counts one non-`ε` transmission without buffering any delivery —
    /// the fault layer decomposes a covered broadcast into per-port
    /// [`DeliverySink::send_one`] decisions but the transmission itself
    /// still happened (the fault is on the channel, not the sender).
    fn note_sent(&mut self);
}

/// The serial delivery strategy: one flat `(receiver, slot, letter)`
/// buffer replayed onto the write plane at the end of the round
/// ([`PortPlanes::land_serial`]). Cleared and reused across rounds.
#[derive(Default)]
struct SerialWrites {
    writes: Vec<(u32, u32, Letter)>,
    sent: u64,
}

impl SerialWrites {
    fn begin_round(&mut self) {
        self.writes.clear();
        self.sent = 0;
    }
}

impl DeliverySink for SerialWrites {
    #[inline]
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter) {
        self.sent += 1;
        let nbrs = graph.neighbors(v);
        let rev = graph.reverse_ports(v);
        for (&u, &rp) in nbrs.iter().zip(rev) {
            self.writes
                .push((u, (graph.csr_offset(u) + rp as usize) as u32, letter));
        }
    }
    #[inline]
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter) {
        self.writes.push((u, slot as u32, letter));
    }
    #[inline]
    fn note_sent(&mut self) {
        self.sent += 1;
    }
}

/// The parallel delivery strategy: a worker-private [`DeliveryBuffer`]
/// bucketed by destination shard.
#[cfg(feature = "parallel")]
struct ShardedSink<'a> {
    buffer: &'a mut DeliveryBuffer,
    plan: &'a ShardPlan,
}

#[cfg(feature = "parallel")]
impl DeliverySink for ShardedSink<'_> {
    #[inline]
    fn broadcast(&mut self, graph: &Graph, v: NodeId, letter: Letter) {
        self.buffer.broadcast(graph, self.plan, v, letter);
    }
    #[inline]
    fn send_one(&mut self, u: NodeId, slot: usize, letter: Letter) {
        self.buffer.push(self.plan, u, slot, letter);
    }
    #[inline]
    fn note_sent(&mut self) {
        self.buffer.sent += 1;
    }
}

/// The per-protocol half of the pipeline: how one node transitions and
/// how its emission resolves into deliveries. One implementation per
/// lockstep transition flavor (`MultiFsm` in `sync_exec`,
/// `ScopedMultiFsm` in `scoped`); the pipeline supplies the loop, the
/// scheduling, and the undecided-counter bookkeeping around it.
pub(crate) trait RoundStep {
    /// Per-node protocol state.
    type State: Clone;
    /// What phase 1 records for phase-2a resolution.
    type Emission: Copy;
    /// Run-level extra output accumulated in sender order (the scoped
    /// delivery transcript; `()` for plain sync).
    type Witness: Default;

    /// The observation bound `b` of the protocol.
    fn bound(&self) -> u8;
    /// Whether `q` is an output state (drives the undecided counter).
    fn decided(&self, q: &Self::State) -> bool;
    /// The state a crashed node is reborn into when a churn plan
    /// restarts it (delegates to `Protocol::restart_state`; only the
    /// churn boundary hook, [`ChurnCtl::boundary`], calls this).
    fn restart_state(&self, input: usize) -> Self::State;
    /// Phase 1 of one node: transition from the frozen observation,
    /// consuming the node's RNG stream exactly as the legacy engines
    /// did.
    fn transition(
        &self,
        q: &Self::State,
        obs: &ObsVec,
        rng: &mut SmallRng,
    ) -> (Self::State, Self::Emission);
    /// Phase 2a of one node: resolve the emission against the frozen
    /// plane into `sink` (and `witness`), consuming any target draws
    /// from the node's own RNG stream.
    #[allow(clippy::too_many_arguments)]
    fn resolve<Pr: PortRead, Sk: DeliverySink>(
        &self,
        round: u64,
        v: NodeId,
        emission: Self::Emission,
        graph: &Graph,
        ports: &Pr,
        rng: &mut SmallRng,
        sink: &mut Sk,
        witness: &mut Self::Witness,
    );
    /// Drains `from` (one worker's per-round witness) into `into` — the
    /// round-major, worker-order concatenation that reproduces the
    /// serial witness order. (Only the parallel schedules split the
    /// witness per worker; the serial pipeline writes into the run-level
    /// witness directly.)
    #[cfg_attr(not(feature = "parallel"), allow(dead_code))]
    fn absorb(into: &mut Self::Witness, from: &mut Self::Witness);
    /// The scoped-delivery transcript inside `witness`, if this flavor
    /// records one — serialized into boundary snapshots and restored on
    /// resume (`None` for plain sync, whose witness is `()`).
    fn witness_slice(witness: &Self::Witness) -> Option<&[ScopedDelivery]>;
    /// The inverse of [`RoundStep::witness_slice`] on resume: the
    /// witness rebuilt from a snapshot's transcript, or `None` when the
    /// snapshot's witness kind does not match this flavor.
    fn restore_witness(restored: Option<Vec<ScopedDelivery>>) -> Option<Self::Witness>;
}

/// Why a pipeline run ended.
enum RoundEnd {
    /// Every node reached an output state after `rounds` rounds.
    Done {
        /// Rounds until the first output configuration.
        rounds: u64,
        /// Total non-`ε` transmissions.
        sent: u64,
    },
    /// The round budget ran out with `unfinished` nodes undecided.
    Limit {
        /// The configured budget.
        limit: u64,
        /// Nodes not yet in an output state.
        unfinished: usize,
    },
}

/// The churn boundary hook of one run: the run's [`ChurnCtl`] and the
/// per-node inputs restarted nodes reboot from. `None` is a churn-free
/// run.
type ChurnHook<'a, 'p> = Option<(&'a mut ChurnCtl<'p>, &'a [usize])>;

/// Where a run's round loop starts: the resume point's counters, or, on
/// a fresh start, round 0 after the round-0 churn boundary (a resumed
/// store already holds every boundary up to its round). `None` when a
/// fresh run has nothing to do: every node is decided and no churn event
/// is left.
fn begin<St: RoundStep>(
    step: &St,
    graph: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    plumb: &SnapPlumb<St::State>,
    churn: &mut ChurnHook<'_, '_>,
) -> Option<(u64, u64, isize)> {
    if let Some(r) = &plumb.resume {
        return Some((r.round, r.sent, r.undecided as isize));
    }
    let mut undecided = states.iter().filter(|q| !step.decided(q)).count() as isize;
    if let Some((ctl, inputs)) = churn {
        ctl.boundary(
            graph,
            0,
            step,
            inputs,
            states,
            &mut undecided,
            planes.write(),
        );
    }
    let done = undecided == 0 && churn.as_ref().is_none_or(|(ctl, _)| ctl.exhausted());
    (!done).then_some((0, 0, undecided))
}

/// Closes round `round` through the boundary hooks, in the order every
/// schedule shares: the churn patch, `on_round_end`, the termination
/// test, then a due checkpoint. `flush` lands the writes a fused
/// schedule still defers (a no-op elsewhere); it runs before the churn
/// patch and before the capture, which both need the complete
/// end-of-round store (flush-before-patch is load-bearing: see the
/// [`crate::churn`] docs). Returns `true` once the run is over: a
/// terminal round is never checkpointed (there is nothing to resume).
#[allow(clippy::too_many_arguments)]
fn close_round<St, O>(
    step: &St,
    graph: &Graph,
    round: u64,
    sent: u64,
    undecided: &mut isize,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &[SmallRng],
    witness: &St::Witness,
    plumb: &SnapPlumb<St::State>,
    faults: &FaultLayer<'_>,
    churn: &mut ChurnHook<'_, '_>,
    observer: &mut O,
    mut flush: impl FnMut(&mut FlatPorts),
) -> bool
where
    St: RoundStep,
    O: SyncObserver<St::State>,
{
    if let Some((ctl, inputs)) = churn {
        if ctl.has_pending(round) {
            flush(planes.write());
            ctl.boundary(
                graph,
                round,
                step,
                inputs,
                states,
                undecided,
                planes.write(),
            );
        }
    }
    observer.on_round_end(round, states);
    if *undecided == 0 && churn.as_ref().is_none_or(|(ctl, _)| ctl.exhausted()) {
        return true;
    }
    if plumb.every > 0 && round.is_multiple_of(plumb.every) {
        flush(planes.write());
        let codec = plumb
            .codec
            .expect("active snapshot plumbing always carries a codec");
        let snap = encode_lockstep(
            plumb.meta,
            &codec,
            &LockstepCapture {
                round,
                sent,
                undecided: *undecided as u64,
                planes,
                states,
                rngs,
                witness: St::witness_slice(witness),
                churn_next: churn.as_ref().map(|(ctl, _)| ctl.cursor()),
                faults: faults.capture(),
            },
        );
        observer.on_checkpoint(&snap);
    }
    false
}

/// Runs `$body` for every index `$i` in `0..$len` whose node
/// `$base + $i` takes this round: all of them on a churn-free run
/// (`$live` is `None`), only the live ones under churn — a dead node
/// takes no round and draws nothing from its RNG stream. Expands to two
/// plain loops rather than one loop with a per-node test: the test
/// measurably slows the churn-free serial engine.
macro_rules! for_each_live {
    ($i:ident in $base:expr, $len:expr, $live:expr, $body:block) => {
        match $live {
            None => {
                for $i in 0..$len $body
            }
            Some(live) => {
                for $i in 0..$len {
                    if live[$base + $i] $body
                }
            }
        }
    };
}

/// Phase 1 + 2a of one node against a frozen plane; returns the
/// undecided-counter delta. The single transcription of the per-node
/// round semantics — every schedule (serial, joined, fused) runs this.
#[allow(clippy::too_many_arguments)]
#[inline]
fn node_round<St: RoundStep, Pr: PortRead, Sk: DeliverySink>(
    step: &St,
    graph: &Graph,
    ports: &Pr,
    round: u64,
    v: usize,
    state: &mut St::State,
    rng: &mut SmallRng,
    obs: &mut ObsVec,
    sink: &mut Sk,
    witness: &mut St::Witness,
) -> isize {
    ports.refill_obs(v, obs, step.bound());
    let (next, emission) = step.transition(state, obs, rng);
    let delta = match (step.decided(state), step.decided(&next)) {
        (false, true) => -1,
        (true, false) => 1,
        _ => 0,
    };
    *state = next;
    step.resolve(
        round,
        v as NodeId,
        emission,
        graph,
        ports,
        rng,
        sink,
        witness,
    );
    delta
}

/// The serial round pipeline: one pass per round over all nodes
/// (phase 1 + 2a fused per node — bit-identical to the legacy two-pass
/// loops because every port read hits the frozen read plane and each
/// node's RNG stream is private), then the buffered writes land on the
/// write plane, the epoch flips, and [`close_round`] runs the boundary
/// hooks.
#[allow(clippy::too_many_arguments)]
fn run_serial<St, O>(
    step: &St,
    graph: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    max_rounds: u64,
    observer: &mut O,
    witness: &mut St::Witness,
    plumb: &SnapPlumb<St::State>,
    faults: &mut FaultLayer<'_>,
    mut churn: ChurnHook<'_, '_>,
) -> RoundEnd
where
    St: RoundStep,
    O: SyncObserver<St::State>,
{
    let n = states.len();
    let Some((start, mut sent, mut undecided)) =
        begin(step, graph, planes, states, plumb, &mut churn)
    else {
        return RoundEnd::Done { rounds: 0, sent: 0 };
    };
    let mut obs = ObsVec::zeroed(planes.sigma());
    let mut sink = SerialWrites::default();
    for round in start + 1..=max_rounds {
        sink.begin_round();
        {
            let ports = planes.read();
            let live = churn.as_ref().map(|(ctl, _)| ctl.live());
            let mut fsink = faults.sink(&mut sink, round);
            for_each_live!(v in 0, n, live, {
                undecided += node_round(
                    step,
                    graph,
                    ports,
                    round,
                    v,
                    &mut states[v],
                    &mut rngs[v],
                    &mut obs,
                    &mut fsink,
                    witness,
                );
            });
        }
        sent += sink.sent;
        planes.land_serial(&sink.writes);
        if close_round(
            step,
            graph,
            round,
            sent,
            &mut undecided,
            planes,
            states,
            rngs,
            witness,
            plumb,
            faults,
            &mut churn,
            observer,
            |_| {},
        ) {
            return RoundEnd::Done {
                rounds: round,
                sent,
            };
        }
    }
    RoundEnd::Limit {
        limit: max_rounds,
        unfinished: undecided as usize,
    }
}

/// One unit of stealable phase-1+2a work: a [`ChunkPlan`] descriptor
/// bundled with the disjoint `&mut` windows of the state and RNG arrays
/// it owns. Built fresh each round (the borrows last one scope) and
/// moved between deques; the *data* never moves.
#[cfg(feature = "parallel")]
struct StealTask<'a, S> {
    /// Position in the [`ChunkPlan`] — ascending node order, the key
    /// per-chunk witnesses are re-sorted by after the join.
    index: usize,
    /// First node of the chunk.
    base: usize,
    /// The shard whose deque the task was seeded onto (under the fused
    /// schedule, also the plane shard its senders read).
    shard: usize,
    states: &'a mut [S],
    rngs: &'a mut [SmallRng],
}

/// Deals one [`StealTask`] per chunk onto the owning worker's deque, in
/// ascending node order (so a worker drains its own shard front-to-back
/// — the cache-friendly direction — while thieves take from the back).
#[cfg(feature = "parallel")]
fn seed_deques<'a, S>(
    chunks: &ChunkPlan,
    workers: usize,
    mut states: &'a mut [S],
    mut rngs: &'a mut [SmallRng],
) -> Vec<std::sync::Mutex<std::collections::VecDeque<StealTask<'a, S>>>> {
    let mut deques: Vec<std::collections::VecDeque<StealTask<'a, S>>> = (0..workers)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    for (index, c) in chunks.chunks().iter().enumerate() {
        let (state_c, state_rest) = states.split_at_mut(c.end - c.start);
        let (rng_c, rng_rest) = rngs.split_at_mut(c.end - c.start);
        states = state_rest;
        rngs = rng_rest;
        deques[c.shard].push_back(StealTask {
            index,
            base: c.start,
            shard: c.shard,
            states: state_c,
            rngs: rng_c,
        });
    }
    deques.into_iter().map(std::sync::Mutex::new).collect()
}

/// Worker `w`'s next task: the front of its own deque, or — when dry —
/// the back of the currently longest other deque (`true` marks a
/// steal). Returns `None` once every deque is empty; a lost race with
/// another thief just rescans.
#[cfg(feature = "parallel")]
fn next_task<'a, S>(
    w: usize,
    deques: &[std::sync::Mutex<std::collections::VecDeque<StealTask<'a, S>>>],
) -> Option<(StealTask<'a, S>, bool)> {
    if let Some(t) = deques[w].lock().unwrap().pop_front() {
        return Some((t, false));
    }
    loop {
        let mut best: Option<(usize, usize)> = None;
        for (i, d) in deques.iter().enumerate() {
            if i == w {
                continue;
            }
            let len = d.lock().unwrap().len();
            if len > 0 && best.is_none_or(|(blen, _)| len > blen) {
                best = Some((len, i));
            }
        }
        let (_, victim) = best?;
        if let Some(t) = deques[victim].lock().unwrap().pop_back() {
            return Some((t, true));
        }
    }
}

/// What one stealing worker hands back at the join: its undecided
/// delta, fault tally, per-chunk witnesses (keyed by chunk index for
/// the post-join re-sort), and its steal/chunk counters.
#[cfg(feature = "parallel")]
type StealYield<W> = (isize, FaultSummary, Vec<(usize, W)>, u64, u64);

/// Folds the per-worker [`StealYield`]s into the run accumulators:
/// undecided delta, fault summaries, steal counters, and — the one
/// schedule-dependent artifact stealing creates — the per-chunk
/// witnesses, re-sorted to ascending chunk index (= ascending sender
/// order, the serial transcript) before absorption.
#[cfg(feature = "parallel")]
fn absorb_steal_yields<St: RoundStep>(
    results: Vec<StealYield<St::Witness>>,
    undecided: &mut isize,
    faults: &mut FaultLayer<'_>,
    witness: &mut St::Witness,
    steals: &mut StealStats,
) {
    let mut pairs = Vec::new();
    for (delta, tally, wits, nsteals, nchunks) in results {
        *undecided += delta;
        faults.absorb(&tally);
        steals.steals += nsteals;
        steals.chunks += nchunks;
        pairs.extend(wits);
    }
    pairs.sort_unstable_by_key(|&(i, _)| i);
    for (_, mut w) in pairs {
        St::absorb(witness, &mut w);
    }
}

/// Lands a fused round's deferred phase 2b on the write plane, in the
/// fixed shard-major worker order the next round's scope would have
/// used, and clears the buffers so that scope lands nothing. Per-round
/// slot uniqueness and commutative counts make the store bytes identical
/// either way. Runs before a churn patch and before a checkpoint
/// capture.
#[cfg(feature = "parallel")]
fn flush_deferred(ports: &mut FlatPorts, landing: &mut [DeliveryBuffer]) {
    for shard in 0..landing.len() {
        for buffer in landing.iter() {
            for w in buffer.bucket(shard) {
                ports.deliver(w.node as usize, w.slot as usize, w.letter);
            }
        }
    }
    for buffer in landing.iter_mut() {
        buffer.clear();
    }
}

/// The parallel round pipeline, scheduled per the policy's resolved
/// [`RoundMode`]: `Joined` (phase 1 + 2a scope, join, phase-2b merge —
/// two joins per round) or `Fused` (previous round's phase 2b landed on
/// per-worker plane shards inside the next round's scope — one join per
/// round) — each crossed with the resolved [`ChunkScheduler`] (static
/// shard chunks or work-stealing deques). Bit-identical to
/// [`run_serial`] for every seed, worker count, merge strategy, round
/// mode, and scheduler; only the [`StealStats`] out-param is
/// timing-dependent.
///
/// The shard plan is made once per run, over the run's graph (the churn
/// universe on churn runs): churn patches rewrite letters and tombstones
/// inside the fixed CSR layout, never the slot map, so the
/// slot-balanced bounds stay valid across every boundary
/// (`tests/stealing.rs` pins this).
#[cfg(feature = "parallel")]
#[allow(clippy::too_many_arguments)]
fn run_parallel<St, O>(
    step: &St,
    graph: &Graph,
    planes: &mut PortPlanes,
    states: &mut [St::State],
    rngs: &mut [SmallRng],
    policy: &ParallelPolicy,
    max_rounds: u64,
    observer: &mut O,
    witness: &mut St::Witness,
    plumb: &SnapPlumb<St::State>,
    faults: &mut FaultLayer<'_>,
    mut churn: ChurnHook<'_, '_>,
    steals: &mut StealStats,
) -> RoundEnd
where
    St: RoundStep + Sync,
    St::State: Send + Sync,
    St::Witness: Send,
    O: SyncObserver<St::State>,
{
    let Some((start, mut sent, mut undecided)) =
        begin(step, graph, planes, states, plumb, &mut churn)
    else {
        return RoundEnd::Done { rounds: 0, sent: 0 };
    };
    let sigma = planes.sigma();
    let plan = ShardPlan::new(graph, policy.resolve_workers());
    let workers = plan.workers();
    // Per-worker scratch, hoisted out of the round loop: cleared and
    // reused across rounds instead of reallocated.
    let mut buffers: Vec<DeliveryBuffer> =
        (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
    let mut obs: Vec<ObsVec> = (0..workers).map(|_| ObsVec::zeroed(sigma)).collect();
    let mut witnesses: Vec<St::Witness> = (0..workers).map(|_| St::Witness::default()).collect();

    match (policy.resolve_round(), policy.resolve_scheduler()) {
        (RoundMode::Joined, ChunkScheduler::Stealing) => {
            let chunks = ChunkPlan::new(graph, &plan);
            for round in start + 1..=max_rounds {
                let ports = planes.read();
                let live = churn.as_ref().map(|(ctl, _)| ctl.live());
                let fctx = faults.ctx;
                let results: Vec<StealYield<St::Witness>> = {
                    let deques = seed_deques(&chunks, workers, &mut *states, &mut *rngs);
                    let deques = &deques;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = buffers
                            .iter_mut()
                            .zip(obs.iter_mut())
                            .enumerate()
                            .map(|(w, (buffer, obs))| {
                                let plan = &plan;
                                scope.spawn(move || {
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    let mut wits = Vec::new();
                                    let (mut nsteals, mut nchunks) = (0u64, 0u64);
                                    while let Some((task, stolen)) = next_task(w, deques) {
                                        nchunks += 1;
                                        nsteals += stolen as u64;
                                        let StealTask {
                                            index,
                                            base,
                                            states: state_c,
                                            rngs: rng_c,
                                            ..
                                        } = task;
                                        let mut wit = St::Witness::default();
                                        for_each_live!(i in base, state_c.len(), live, {
                                            delta += node_round(
                                                step,
                                                graph,
                                                ports,
                                                round,
                                                base + i,
                                                &mut state_c[i],
                                                &mut rng_c[i],
                                                obs,
                                                &mut fsink,
                                                &mut wit,
                                            );
                                        });
                                        wits.push((index, wit));
                                    }
                                    (delta, ftally, wits, nsteals, nchunks)
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).collect()
                    })
                };
                absorb_steal_yields::<St>(results, &mut undecided, faults, witness, steals);
                sent += buffers.iter().map(|b| b.sent).sum::<u64>();
                parbuf::merge(policy.merge, planes.write(), graph, &plan, &buffers);
                planes.advance();
                if close_round(
                    step,
                    graph,
                    round,
                    sent,
                    &mut undecided,
                    planes,
                    states,
                    rngs,
                    witness,
                    plumb,
                    faults,
                    &mut churn,
                    observer,
                    |_| {},
                ) {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
            }
        }
        (RoundMode::Fused, ChunkScheduler::Stealing) => {
            let chunks = ChunkPlan::new(graph, &plan);
            let mut landing = buffers;
            let mut filling: Vec<DeliveryBuffer> =
                (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
            for round in start + 1..=max_rounds {
                // The plane shards go behind RwLocks so tasks can read
                // whichever (frozen) shard their senders live in; the
                // barrier separates the exclusive land+freeze writes
                // from the shared reads.
                let shard_cells: Vec<std::sync::RwLock<PlaneShard>> = planes
                    .epoch_shards(graph, plan.bounds())
                    .into_iter()
                    .map(std::sync::RwLock::new)
                    .collect();
                let shard_cells = &shard_cells;
                let barrier = std::sync::Barrier::new(workers);
                let barrier = &barrier;
                let landing_ref = &landing;
                let live = churn.as_ref().map(|(ctl, _)| ctl.live());
                let fctx = faults.ctx;
                let results: Vec<StealYield<St::Witness>> = {
                    let deques = seed_deques(&chunks, workers, &mut *states, &mut *rngs);
                    let deques = &deques;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = filling
                            .iter_mut()
                            .zip(obs.iter_mut())
                            .enumerate()
                            .map(|(w, (buffer, obs))| {
                                let plan = &plan;
                                scope.spawn(move || {
                                    // Deferred phase 2b of the previous
                                    // round, exactly as the static fused
                                    // schedule: this worker owns shard w.
                                    {
                                        let mut shard = shard_cells[w].write().unwrap();
                                        for prev in landing_ref {
                                            for wr in prev.bucket(w) {
                                                shard.land(
                                                    wr.node as usize,
                                                    wr.slot as usize,
                                                    wr.letter,
                                                );
                                            }
                                        }
                                        shard.freeze();
                                    }
                                    barrier.wait();
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    let mut wits = Vec::new();
                                    let (mut nsteals, mut nchunks) = (0u64, 0u64);
                                    while let Some((task, stolen)) = next_task(w, deques) {
                                        nchunks += 1;
                                        nsteals += stolen as u64;
                                        let StealTask {
                                            index,
                                            base,
                                            shard: task_shard,
                                            states: state_c,
                                            rngs: rng_c,
                                        } = task;
                                        // A task reads only the shard its
                                        // senders live in (observation =
                                        // own count row + slots; scoped
                                        // draws = own ports), all frozen
                                        // behind the barrier.
                                        let shard = shard_cells[task_shard].read().unwrap();
                                        let mut wit = St::Witness::default();
                                        for_each_live!(i in base, state_c.len(), live, {
                                            delta += node_round(
                                                step,
                                                graph,
                                                &*shard,
                                                round,
                                                base + i,
                                                &mut state_c[i],
                                                &mut rng_c[i],
                                                obs,
                                                &mut fsink,
                                                &mut wit,
                                            );
                                        });
                                        wits.push((index, wit));
                                    }
                                    (delta, ftally, wits, nsteals, nchunks)
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().unwrap()).collect()
                    })
                };
                planes.advance();
                std::mem::swap(&mut landing, &mut filling);
                absorb_steal_yields::<St>(results, &mut undecided, faults, witness, steals);
                sent += landing.iter().map(|b| b.sent).sum::<u64>();
                if close_round(
                    step,
                    graph,
                    round,
                    sent,
                    &mut undecided,
                    planes,
                    states,
                    rngs,
                    witness,
                    plumb,
                    faults,
                    &mut churn,
                    observer,
                    |ports| flush_deferred(ports, &mut landing),
                ) {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
            }
        }
        (RoundMode::Joined, ChunkScheduler::Static) => {
            for round in start + 1..=max_rounds {
                // Phase 1 + 2a, one scope: disjoint &mut chunks over
                // states, RNGs, buffers, and scratch; shared reads of
                // the frozen read plane, the graph, the live set, and
                // the fault plan (whose decisions are pure hashes — no
                // shared state).
                let ports = planes.read();
                let live = churn.as_ref().map(|(ctl, _)| ctl.live());
                let fctx = faults.ctx;
                let results: Vec<(isize, FaultSummary)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = plan
                        .chunks_mut(&mut *states)
                        .into_iter()
                        .zip(plan.chunks_mut(&mut *rngs))
                        .zip(buffers.iter_mut())
                        .zip(obs.iter_mut())
                        .zip(witnesses.iter_mut())
                        .enumerate()
                        .map(|(ci, ((((state_c, rng_c), buffer), obs), wit))| {
                            let base = plan.bounds()[ci];
                            let plan = &plan;
                            scope.spawn(move || {
                                buffer.clear();
                                let mut sink = ShardedSink { buffer, plan };
                                let mut ftally = FaultSummary::default();
                                let mut fsink =
                                    FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                let mut delta = 0isize;
                                for_each_live!(i in base, state_c.len(), live, {
                                    delta += node_round(
                                        step,
                                        graph,
                                        ports,
                                        round,
                                        base + i,
                                        &mut state_c[i],
                                        &mut rng_c[i],
                                        obs,
                                        &mut fsink,
                                        wit,
                                    );
                                });
                                (delta, ftally)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                undecided += results.iter().map(|&(d, _)| d).sum::<isize>();
                for (_, t) in &results {
                    faults.absorb(t);
                }
                sent += buffers.iter().map(|b| b.sent).sum::<u64>();
                for w in witnesses.iter_mut() {
                    St::absorb(witness, w);
                }
                // Phase 2b: merge the buffers into the write plane (the
                // second join of the round under the sharded strategy).
                parbuf::merge(policy.merge, planes.write(), graph, &plan, &buffers);
                planes.advance();
                if close_round(
                    step,
                    graph,
                    round,
                    sent,
                    &mut undecided,
                    planes,
                    states,
                    rngs,
                    witness,
                    plumb,
                    faults,
                    &mut churn,
                    observer,
                    |_| {},
                ) {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
            }
        }
        (RoundMode::Fused, ChunkScheduler::Static) => {
            // Double-buffered delivery generations: `landing` holds the
            // previous round's buffers (read by every worker during the
            // deferred phase 2b), `filling` receives this round's.
            let mut landing = buffers;
            let mut filling: Vec<DeliveryBuffer> =
                (0..workers).map(|_| DeliveryBuffer::new(workers)).collect();
            for round in start + 1..=max_rounds {
                let shards = planes.epoch_shards(graph, plan.bounds());
                let landing_ref = &landing;
                let live = churn.as_ref().map(|(ctl, _)| ctl.live());
                let fctx = faults.ctx;
                let results: Vec<(isize, FaultSummary)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = shards
                        .into_iter()
                        .zip(plan.chunks_mut(&mut *states))
                        .zip(plan.chunks_mut(&mut *rngs))
                        .zip(filling.iter_mut())
                        .zip(obs.iter_mut())
                        .zip(witnesses.iter_mut())
                        .enumerate()
                        .map(
                            |(ci, (((((mut shard, state_c), rng_c), buffer), obs), wit))| {
                                let base = plan.bounds()[ci];
                                let plan = &plan;
                                scope.spawn(move || {
                                    // Deferred phase 2b of the previous
                                    // round: land every buffer's bucket for
                                    // this worker's shard on the write
                                    // plane, in fixed worker order.
                                    for prev in landing_ref {
                                        for w in prev.bucket(ci) {
                                            shard.land(w.node as usize, w.slot as usize, w.letter);
                                        }
                                    }
                                    // The shard is now this round's frozen
                                    // read plane.
                                    shard.freeze();
                                    buffer.clear();
                                    let mut sink = ShardedSink { buffer, plan };
                                    let mut ftally = FaultSummary::default();
                                    let mut fsink =
                                        FaultSink::wrap(&mut sink, fctx, round, &mut ftally);
                                    let mut delta = 0isize;
                                    for_each_live!(i in base, state_c.len(), live, {
                                        delta += node_round(
                                            step,
                                            graph,
                                            &shard,
                                            round,
                                            base + i,
                                            &mut state_c[i],
                                            &mut rng_c[i],
                                            obs,
                                            &mut fsink,
                                            wit,
                                        );
                                    });
                                    (delta, ftally)
                                })
                            },
                        )
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                // The single join of the round is behind us; flip the
                // epoch and swap the buffer generations.
                planes.advance();
                std::mem::swap(&mut landing, &mut filling);
                undecided += results.iter().map(|&(d, _)| d).sum::<isize>();
                for (_, t) in &results {
                    faults.absorb(t);
                }
                sent += landing.iter().map(|b| b.sent).sum::<u64>();
                for w in witnesses.iter_mut() {
                    St::absorb(witness, w);
                }
                // A terminal round's buffers are never landed: the store
                // is dead once outputs are collected, so the bytes the
                // joined schedule's terminal merge writes are
                // unobservable.
                if close_round(
                    step,
                    graph,
                    round,
                    sent,
                    &mut undecided,
                    planes,
                    states,
                    rngs,
                    witness,
                    plumb,
                    faults,
                    &mut churn,
                    observer,
                    |ports| flush_deferred(ports, &mut landing),
                ) {
                    return RoundEnd::Done {
                        rounds: round,
                        sent,
                    };
                }
            }
        }
    }
    RoundEnd::Limit {
        limit: max_rounds,
        unfinished: undecided as usize,
    }
}

/// The engine state a lockstep run starts from: fresh initial states,
/// store, and RNG streams (with a churn plan's disabled extra edges
/// retired), or the splice of a resume snapshot. On resume the churn
/// controller fast-forwards to the snapshot's cursor instead: the
/// restored store already reflects the setup and every boundary up to
/// the snapshot round, and the restored transcript holds every scoped
/// delivery so far. The snapshot body must match the run — a churn
/// cursor exactly when a plan is set, a witness transcript exactly on
/// the scoped backend, a fault tally exactly when a fault plan is
/// wired; a mismatch means it belongs to another backend or
/// configuration.
type Start<S, W> = (
    Vec<S>,
    PortPlanes,
    Vec<SmallRng>,
    W,
    SnapPlumb<S>,
    FaultSummary,
);

#[allow(clippy::too_many_arguments)]
fn start<P: Protocol, St: RoundStep<State = P::State>>(
    protocol: &P,
    graph: &Graph,
    inputs: &[usize],
    seed: u64,
    seed_rngs: fn(usize, u64) -> Vec<SmallRng>,
    ctl: Option<&mut ChurnCtl<'_>>,
    snap: &SnapArgs<'_, P::State>,
    faulted: bool,
) -> Result<Start<P::State, St::Witness>, ExecError> {
    let sigma = protocol.alphabet().len();
    let Some(s) = snap.resume else {
        let mut planes = PortPlanes::new(graph, sigma, protocol.initial_letter());
        if let Some(ctl) = ctl {
            ctl.setup(planes.write());
        }
        return Ok((
            inputs.iter().map(|&i| protocol.initial_state(i)).collect(),
            planes,
            seed_rngs(graph.node_count(), seed),
            St::Witness::default(),
            SnapPlumb::from_args(snap, None),
            FaultSummary::default(),
        ));
    };
    let splice = snapshot::resume_lockstep(s, &snap.codec(), graph, sigma)?;
    let kind = || {
        ExecError::Snapshot(SnapshotError::DigestMismatch {
            field: "snapshot body kind",
        })
    };
    if splice.churn_next.is_some() != ctl.is_some() || splice.faults.is_some() != faulted {
        return Err(kind());
    }
    let witness = St::restore_witness(splice.witness).ok_or_else(kind)?;
    if let (Some(ctl), Some(cursor)) = (ctl, splice.churn_next) {
        ctl.fast_forward(graph, cursor)?;
    }
    Ok((
        splice.states,
        splice.planes,
        splice.rngs,
        witness,
        SnapPlumb::from_args(snap, Some(splice.point)),
        splice.faults.unwrap_or_default(),
    ))
}

/// A finished lockstep run, decoded for the entry points.
pub(crate) struct LockstepRun<S, W> {
    pub(crate) outputs: Vec<u64>,
    pub(crate) rounds: u64,
    pub(crate) sent: u64,
    pub(crate) states: Vec<S>,
    pub(crate) witness: W,
    pub(crate) churn: Option<ChurnSummary>,
}

/// The shared body of the lockstep entry points
/// ([`crate::sync_exec::exec_sync`], [`crate::scoped::exec_scoped`]).
/// A churn run builds the plan's universe graph and its [`ChurnCtl`]; a
/// churn-free run keeps the base graph and copies nothing. Then the
/// fault plan is compiled, the engine state started or resumed, and the
/// serial pipeline run, or the parallel one when the builder passes a
/// policy (it passes none when the policy delegates to the serial
/// engine). Nodes dead at termination decode to [`DEAD_OUTPUT`] unless
/// they decided before crashing.
///
/// Inputs are validated by the builder; this function assumes
/// `inputs.len() == base.node_count()`.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(feature = "parallel"), allow(unused_variables))]
pub(crate) fn exec_lockstep<P, St>(
    protocol: &P,
    step: &St,
    base: &Graph,
    inputs: &[usize],
    config: &SyncConfig,
    seed_rngs: fn(usize, u64) -> Vec<SmallRng>,
    plan: Option<&ChurnPlan>,
    policy: Option<&ParallelPolicy>,
    observer: ObsArg<'_, P::State>,
    snap: &SnapArgs<'_, P::State>,
    faults: FaultsArg<'_>,
    steals: &mut StealStats,
) -> Result<LockstepRun<P::State, St::Witness>, ExecError>
where
    P: Protocol,
    P::State: Send + Sync,
    St: RoundStep<State = P::State> + Sync,
    St::Witness: Send,
{
    let universe;
    let graph = match plan {
        Some(plan) => {
            universe = plan.universe(base).map_err(plan_config)?;
            &universe
        }
        None => base,
    };
    debug_assert_eq!(
        inputs.len(),
        graph.node_count(),
        "the builder validates input length"
    );
    let (fctx, fout) = compile_faults(faults, graph, protocol.alphabet().len())?;
    let mut ctl = plan
        .map(|plan| ChurnCtl::new(plan, base, graph, protocol.initial_letter()))
        .transpose()?;
    let (mut states, mut planes, mut rngs, mut witness, plumb, tally) = start::<P, St>(
        protocol,
        graph,
        inputs,
        config.seed,
        seed_rngs,
        ctl.as_mut(),
        snap,
        fctx.is_some(),
    )?;
    let mut layer = FaultLayer::new(fctx.as_ref(), tally);
    let churn = ctl.as_mut().map(|ctl| (ctl, inputs));
    let mut observer = Bridge(observer);
    let end = match policy {
        #[cfg(feature = "parallel")]
        Some(policy) => run_parallel(
            step,
            graph,
            &mut planes,
            &mut states,
            &mut rngs,
            policy,
            config.max_rounds,
            &mut observer,
            &mut witness,
            &plumb,
            &mut layer,
            churn,
            steals,
        ),
        _ => run_serial(
            step,
            graph,
            &mut planes,
            &mut states,
            &mut rngs,
            config.max_rounds,
            &mut observer,
            &mut witness,
            &plumb,
            &mut layer,
            churn,
        ),
    };
    if let Some(out) = fout {
        *out = Some(layer.tally);
    }
    let (rounds, sent) = match end {
        RoundEnd::Done { rounds, sent } => (rounds, sent),
        RoundEnd::Limit { limit, unfinished } => {
            return Err(ExecError::RoundLimit { limit, unfinished })
        }
    };
    let churn = ctl.map(|ctl| ctl.finish());
    let live = churn.as_ref().map(|summary| &summary.live_nodes[..]);
    let outputs = states
        .iter()
        .enumerate()
        .map(|(v, q)| match protocol.output(q) {
            Some(out) => out,
            None if live.is_some_and(|live| !live[v]) => DEAD_OUTPUT,
            None => panic!("live nodes are decided at termination"),
        })
        .collect();
    Ok(LockstepRun {
        outputs,
        rounds,
        sent,
        states,
        witness,
        churn,
    })
}
