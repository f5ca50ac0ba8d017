//! The unified **`Simulation` builder**: one entry point over the
//! synchronous, scoped, and asynchronous executors.
//!
//! Three PRs of engine work had fragmented the crate's surface into a
//! dozen `run_*` free functions — one per (backend × inputs × observer ×
//! parallelism) combination — three config structs, three outcome types,
//! and two observer traits. Every new capability multiplied the function
//! count instead of composing. This module replaces that combinatorial
//! layer with a single builder:
//!
//! * **One entry point.** [`Simulation`] owns the graph, protocol, seed,
//!   inputs, budget, observer, parallel policy, and backend selection;
//!   [`Simulation::run`] executes whichever [`Backend`] is selected.
//! * **One outcome.** [`Outcome`] carries the per-node outputs, the final
//!   per-node *states* (which the legacy outcome types discarded), a
//!   normalized [`Cost`], the worker count the run actually used, and the
//!   backend-specific extras in [`Detail`].
//! * **One observer.** [`Observer`] subsumes the legacy
//!   [`SyncObserver`] / [`AsyncObserver`] pair with default no-op
//!   hooks; existing observers keep working through the [`AdaptSync`] and
//!   [`AdaptAsync`] adapters.
//!
//! The builder is a *veneer*: it dispatches to the exact engines the
//! retired `run_*` functions ran, so outcomes are **bit-identical per
//! seed** to every legacy entry point it replaced (pinned by the
//! fingerprint suite in `tests/builder_parity.rs` and by the unchanged
//! fingerprint constants). The `run_*` shims themselves are gone — the
//! builder is the *only* entry point; see the README migration table.
//! Cross-cutting capabilities land here once and serve every backend:
//! [`Simulation::checkpoint_every`] / [`Simulation::resume_from`] wire
//! the [`crate::snapshot`] layer through all three executors, and future
//! backends become new [`Backend`] variants or [`AsyncOptions`] fields
//! instead of four more free functions each.
//!
//! # Example
//!
//! ```
//! use stoneage_core::{AsMulti, Synchronized};
//! use stoneage_graph::generators;
//! use stoneage_sim::adversary::UniformRandom;
//! use stoneage_sim::{AsyncOptions, Backend, Cost, Simulation};
//! use stoneage_testkit::count_neighbors_quiet;
//!
//! let graph = generators::gnp(40, 0.15, 7);
//! let protocol = Synchronized::new(count_neighbors_quiet(2));
//!
//! // Asynchronous execution under an oblivious adversary.
//! let adversary = UniformRandom { seed: 3 };
//! let outcome = Simulation::asynchronous(&protocol, &graph, &adversary)
//!     .seed(1)
//!     .run()
//!     .expect("the synchronized protocol terminates");
//! assert_eq!(outcome.outputs.len(), graph.node_count());
//! assert!(matches!(outcome.cost, Cost::TimeUnits(t) if t > 0.0));
//!
//! // The same protocol, lockstep synchronous (an Fsm runs the sync
//! // backend through the AsMulti view), with explicit inputs.
//! let sync_protocol = AsMulti(protocol.clone());
//! let inputs = vec![0usize; graph.node_count()];
//! let outcome = Simulation::sync(&sync_protocol, &graph)
//!     .seed(1)
//!     .inputs(&inputs)
//!     .budget(10_000)
//!     .run()
//!     .unwrap();
//! assert!(matches!(outcome.cost, Cost::Rounds(r) if r > 0));
//! assert_eq!(outcome.states.len(), graph.node_count());
//! ```

use std::fmt;

use stoneage_core::{Fsm, MultiFsm, Protocol};
use stoneage_graph::{Graph, NodeId, TopologyEvent};

use crate::churn::{ChurnPlan, ChurnSummary};
use crate::faults::{FaultPlan, FaultScope, FaultSummary, FaultWire, FaultsArg, LinkFault};
use crate::parbuf::{ParallelPolicy, StealStats};
use crate::scoped::{self, ScopedDelivery, ScopedMultiFsm, ScopedOutcome};
use crate::snapshot::{self, SnapArgs, SnapMeta, SnapState, Snapshot, SnapshotError, StateCodec};
use crate::sync_exec::{self, SyncConfig, SyncObserver, SyncOutcome};
use crate::{
    async_exec, Adversary, AsyncConfig, AsyncObserver, AsyncOutcome, ExecError, SchedulerKind,
};

/// The normalized run-time of a completed simulation, in the unit native
/// to the backend that produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cost {
    /// Lockstep rounds until the first output configuration — the paper's
    /// run-time measure in the synchronous setting (Sync and Scoped
    /// backends).
    Rounds(u64),
    /// Completion time normalized by the largest step-length/delay
    /// parameter consumed — the paper's *time unit* measure
    /// `T_Π(I, A, R)` (Async backend).
    TimeUnits(f64),
    /// Discrete engine events. Reserved for event-budgeted backends
    /// (no current backend reports its cost this way).
    Events(u64),
}

impl Cost {
    /// The cost as a plain `f64`, for cross-backend tables and plots.
    pub fn value(&self) -> f64 {
        match *self {
            Cost::Rounds(r) => r as f64,
            Cost::TimeUnits(t) => t,
            Cost::Events(e) => e as f64,
        }
    }
}

/// Backend-specific extras of an [`Outcome`] — everything the legacy
/// outcome types carried beyond outputs and cost.
#[derive(Clone, Debug)]
pub enum Detail {
    /// Extras of a [`Backend::Sync`] run.
    Sync {
        /// Total non-`ε` transmissions.
        messages_sent: u64,
        /// What a [`Simulation::with_churn`] plan did to the topology:
        /// effective crash/restart/edge-event counts and the final
        /// live-node set. `None` on churn-free runs.
        churn: Option<ChurnSummary>,
        /// What a [`Simulation::with_faults`] plan did to the message
        /// channels. `None` on fault-free runs.
        faults: Option<FaultSummary>,
    },
    /// Extras of a [`Backend::Async`] run.
    Async {
        /// Raw (unnormalized) completion time.
        completion_time: f64,
        /// The largest step-length or delay parameter consumed — the
        /// paper's **time unit**.
        time_unit: f64,
        /// Total node steps executed.
        total_steps: u64,
        /// Total non-`ε` transmissions (each fans out to all neighbors).
        messages_sent: u64,
        /// Total port writes.
        deliveries: u64,
        /// Deliveries overwritten before the receiver could observe them
        /// — messages lost to the no-buffer port semantics.
        lost_overwrites: u64,
        /// What a [`Simulation::with_churn`] plan did to the topology.
        /// `None` on churn-free runs.
        churn: Option<ChurnSummary>,
        /// What a [`Simulation::with_faults`] plan did to the message
        /// channels. `None` on fault-free runs.
        faults: Option<FaultSummary>,
    },
    /// Extras of a [`Backend::Scoped`] run.
    Scoped {
        /// Every port-selected delivery, in round order — the engine-level
        /// witness the matching runner extracts matched edges from.
        scoped_deliveries: Vec<ScopedDelivery>,
        /// What a [`Simulation::with_churn`] plan did to the topology.
        /// `None` on churn-free runs.
        churn: Option<ChurnSummary>,
        /// What a [`Simulation::with_faults`] plan did to the message
        /// channels. `None` on fault-free runs.
        faults: Option<FaultSummary>,
    },
}

impl Detail {
    /// The churn summary of this run, if it ran under a
    /// [`Simulation::with_churn`] plan.
    pub fn churn(&self) -> Option<&ChurnSummary> {
        match self {
            Detail::Sync { churn, .. }
            | Detail::Async { churn, .. }
            | Detail::Scoped { churn, .. } => churn.as_ref(),
        }
    }

    /// The fault summary of this run, if it ran under a
    /// [`Simulation::with_faults`] plan.
    pub fn faults(&self) -> Option<&FaultSummary> {
        match self {
            Detail::Sync { faults, .. }
            | Detail::Async { faults, .. }
            | Detail::Scoped { faults, .. } => faults.as_ref(),
        }
    }
}

/// Result of a [`Simulation`] that reached an output configuration.
#[derive(Clone, Debug)]
pub struct Outcome<P: Protocol> {
    /// Per-node outputs, decoded from the output states.
    pub outputs: Vec<u64>,
    /// The final per-node states (every node is in an output state).
    pub states: Vec<P::State>,
    /// The backend's normalized run-time.
    pub cost: Cost,
    /// Worker threads the run actually used: 1 on the serial path
    /// (either because no `ParallelPolicy` was set or because the
    /// policy's own small-instance threshold delegated to the serial
    /// engine), otherwise the policy's resolved count clamped to the
    /// node count (the shard plan never spawns more workers than
    /// nodes). Bench snapshots should record this instead of guessing
    /// from host CPUs.
    pub workers: usize,
    /// Work-stealing counters: chunks executed and chunks stolen by a
    /// non-owner worker. All-zero unless the run used a
    /// [`ParallelPolicy`] with [`crate::ChunkScheduler::Stealing`]
    /// (`chunks` counts descriptors, so it is zero on the static
    /// schedule too). `chunks` is deterministic; **`steals` is
    /// timing-dependent** — report it, never fingerprint it.
    pub steals: StealStats,
    /// Backend-specific extras.
    pub detail: Detail,
}

impl<P: Protocol> Outcome<P> {
    /// Rounds until the first output configuration, when the backend
    /// measures cost in rounds.
    pub fn rounds(&self) -> Option<u64> {
        match self.cost {
            Cost::Rounds(r) => Some(r),
            _ => None,
        }
    }

    /// Total non-`ε` transmissions, for the backends that count them.
    pub fn messages_sent(&self) -> Option<u64> {
        match self.detail {
            Detail::Sync { messages_sent, .. } | Detail::Async { messages_sent, .. } => {
                Some(messages_sent)
            }
            Detail::Scoped { .. } => None,
        }
    }

    /// The churn summary, if this run executed under a
    /// [`Simulation::with_churn`] plan.
    pub fn churn(&self) -> Option<&ChurnSummary> {
        self.detail.churn()
    }

    /// The fault summary, if this run executed under a
    /// [`Simulation::with_faults`] plan.
    pub fn faults(&self) -> Option<&FaultSummary> {
        self.detail.faults()
    }

    /// The scoped-delivery witness list of a [`Backend::Scoped`] run.
    pub fn scoped_deliveries(&self) -> Option<&[ScopedDelivery]> {
        match &self.detail {
            Detail::Scoped {
                scoped_deliveries, ..
            } => Some(scoped_deliveries),
            _ => None,
        }
    }

    /// This outcome as the legacy [`SyncOutcome`], if it came from
    /// [`Backend::Sync`].
    pub fn into_sync_outcome(self) -> Option<SyncOutcome> {
        match (self.cost, self.detail) {
            (Cost::Rounds(rounds), Detail::Sync { messages_sent, .. }) => Some(SyncOutcome {
                outputs: self.outputs,
                rounds,
                messages_sent,
            }),
            _ => None,
        }
    }

    /// This outcome as the legacy [`AsyncOutcome`], if it came from
    /// [`Backend::Async`].
    pub fn into_async_outcome(self) -> Option<AsyncOutcome> {
        match (self.cost, self.detail) {
            (
                Cost::TimeUnits(normalized_time),
                Detail::Async {
                    completion_time,
                    time_unit,
                    total_steps,
                    messages_sent,
                    deliveries,
                    lost_overwrites,
                    ..
                },
            ) => Some(AsyncOutcome {
                outputs: self.outputs,
                completion_time,
                time_unit,
                normalized_time,
                total_steps,
                messages_sent,
                deliveries,
                lost_overwrites,
            }),
            _ => None,
        }
    }

    /// This outcome as the legacy [`ScopedOutcome`], if it came from
    /// [`Backend::Scoped`].
    pub fn into_scoped_outcome(self) -> Option<ScopedOutcome> {
        match (self.cost, self.detail) {
            (
                Cost::Rounds(rounds),
                Detail::Scoped {
                    scoped_deliveries, ..
                },
            ) => Some(ScopedOutcome {
                outputs: self.outputs,
                rounds,
                scoped_deliveries,
            }),
            _ => None,
        }
    }
}

/// The unified execution observer: one trait over every backend, with
/// default no-op hooks so an observer implements only what it watches.
///
/// Existing [`SyncObserver`] / [`AsyncObserver`] implementations plug in
/// unchanged through [`AdaptSync`] / [`AdaptAsync`].
pub trait Observer<S> {
    /// Called by the round-based backends (Sync, Scoped) after round
    /// `round` (1-based) has been applied to all nodes.
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        let _ = (round, states);
    }

    /// Called by the Async backend after node `v` applied its step `t`
    /// at time `time`.
    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        let _ = (time, v, t, state);
    }

    /// Called at every checkpoint boundary a [`Simulation::checkpoint_every`]
    /// cadence hits, with the freshly captured [`Snapshot`]. The observer
    /// owns persistence: call [`Snapshot::to_bytes`] and write the frame
    /// wherever resumption will find it. Never called on runs without a
    /// checkpoint cadence.
    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        let _ = snapshot;
    }
}

// Forwarding impls so callers holding an observer indirectly — a
// `&mut O` reborrow, or a `Box<dyn Observer<S>>` composed at runtime
// (the simulation server builds its event-streaming observers this
// way) — can hand it to `Simulation::observe` without unwrapping.
impl<S, O: Observer<S> + ?Sized> Observer<S> for &mut O {
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        (**self).on_round_end(round, states);
    }

    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        (**self).on_step(time, v, t, state);
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        (**self).on_checkpoint(snapshot);
    }
}

impl<S, O: Observer<S> + ?Sized> Observer<S> for Box<O> {
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        (**self).on_round_end(round, states);
    }

    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        (**self).on_step(time, v, t, state);
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        (**self).on_checkpoint(snapshot);
    }
}

/// Adapts any legacy [`SyncObserver`] into the
/// unified [`Observer`] (its `on_step` hook stays a no-op).
pub struct AdaptSync<O>(pub O);

impl<S, O: SyncObserver<S>> Observer<S> for AdaptSync<O> {
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        self.0.on_round_end(round, states);
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.0.on_checkpoint(snapshot);
    }
}

/// Adapts any legacy [`AsyncObserver`] into the
/// unified [`Observer`] (its `on_round_end` hook stays a no-op).
pub struct AdaptAsync<O>(pub O);

impl<S, O: AsyncObserver<S>> Observer<S> for AdaptAsync<O> {
    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        self.0.on_step(time, v, t, state);
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        self.0.on_checkpoint(snapshot);
    }
}

/// Bridges the unified observer back onto the engines' legacy hook
/// traits, so the engines stay monomorphized over one observer shape.
/// Without an attached observer every hook is a no-op.
pub(crate) struct Bridge<'a, S>(pub(crate) ObsArg<'a, S>);

impl<S> SyncObserver<S> for Bridge<'_, S> {
    fn on_round_end(&mut self, round: u64, states: &[S]) {
        if let Some(o) = &mut self.0 {
            o.on_round_end(round, states);
        }
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        if let Some(o) = &mut self.0 {
            o.on_checkpoint(snapshot);
        }
    }
}

impl<S> AsyncObserver<S> for Bridge<'_, S> {
    fn on_step(&mut self, time: f64, v: NodeId, t: u64, state: &S) {
        if let Some(o) = &mut self.0 {
            o.on_step(time, v, t, state);
        }
    }

    fn on_checkpoint(&mut self, snapshot: &Snapshot) {
        if let Some(o) = &mut self.0 {
            o.on_checkpoint(snapshot);
        }
    }
}

/// Options of the asynchronous backend: the oblivious adversary plus the
/// scheduler knobs of the legacy [`AsyncConfig`].
#[derive(Clone, Copy)]
pub struct AsyncOptions<'a> {
    /// The oblivious scheduling policy choosing every step length
    /// `L_{v,t}` and delivery delay `D_{v,t,u}`.
    pub adversary: &'a dyn Adversary,
    /// Event queue driving the run. Outcomes are bit-identical across
    /// kinds; only throughput differs.
    pub scheduler: SchedulerKind,
    /// Explicit calendar bucket width overriding the executor's estimate
    /// (see [`crate::schedule`]). Performance-only: cannot affect
    /// outcomes. Ignored by the heap scheduler.
    pub bucket_width: Option<f64>,
}

impl<'a> AsyncOptions<'a> {
    /// Options running `adversary` under the default scheduler
    /// (calendar wheel, auto-chosen bucket width).
    pub fn new(adversary: &'a dyn Adversary) -> Self {
        AsyncOptions {
            adversary,
            scheduler: SchedulerKind::default(),
            bucket_width: None,
        }
    }

    /// These options with the given scheduler kind.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// These options with an explicit calendar bucket width.
    pub fn with_bucket_width(mut self, width: f64) -> Self {
        self.bucket_width = Some(width);
        self
    }
}

impl fmt::Debug for AsyncOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncOptions")
            .field("adversary", &self.adversary.name())
            .field("scheduler", &self.scheduler)
            .field("bucket_width", &self.bucket_width)
            .finish()
    }
}

/// Which executor a [`Simulation`] runs on.
///
/// The constructor that matches the protocol's transition flavor presets
/// this ([`Simulation::sync`] → `Sync`, [`Simulation::scoped`] →
/// `Scoped`, [`Simulation::asynchronous`] → `Async`); selecting a
/// backend the protocol cannot drive is reported as
/// [`ExecError::Config`] at [`Simulation::run`] time. Future executors
/// (adaptive-resize wheel, NUMA-sharded schedules) slot in as new
/// variants or [`AsyncOptions`] fields.
#[derive(Clone, Copy, Debug, Default)]
pub enum Backend<'a> {
    /// The lockstep synchronous round executor for
    /// [`MultiFsm`] protocols (Theorems 3.1/3.4 make this the
    /// environment protocol *descriptions* assume).
    #[default]
    Sync,
    /// The lockstep executor for the port-select extension
    /// ([`ScopedMultiFsm`] protocols).
    Scoped,
    /// The fully asynchronous adversarial executor for single-letter
    /// [`Fsm`] protocols.
    Async(AsyncOptions<'a>),
}

impl Backend<'_> {
    /// Diagnostic name used in [`ExecError::Config`] messages.
    fn name(&self) -> &'static str {
        match self {
            Backend::Sync => "Sync",
            Backend::Scoped => "Scoped",
            Backend::Async(_) => "Async",
        }
    }
}

/// The observer an engine entry point receives: the attached unified
/// observer, if any.
pub(crate) type ObsArg<'a, S> = Option<&'a mut dyn Observer<S>>;

/// What a capability row returns: the backend's legacy outcome, the
/// final per-node states, and the churn summary (`None` on churn-free
/// runs).
pub(crate) type RowResult<Out, S> = Result<(Out, Vec<S>, Option<ChurnSummary>), ExecError>;

/// The snapshot plumbing every capability row threads to its engine:
/// cadence, resume frame, state codec, and the binding header metadata.
type SnapRef<'a, P> = &'a SnapArgs<'a, <P as Protocol>::State>;

/// A lockstep capability row (Sync or Scoped): one engine entry point
/// serving every combination of churn plan and parallel policy (`None`
/// when unset).
type LockstepFn<P, Out> = fn(
    &P,
    &Graph,
    &[usize],
    &SyncConfig,
    Option<&ChurnPlan>,
    Option<&ParallelPolicy>,
    ObsArg<'_, <P as Protocol>::State>,
    SnapRef<'_, P>,
    FaultsArg<'_>,
    &mut StealStats,
) -> RowResult<Out, <P as Protocol>::State>;

/// The Async capability row; it runs the churn event loop when a plan is
/// set.
type AsyncFn<P> = fn(
    &P,
    &Graph,
    &[usize],
    &dyn Adversary,
    &AsyncConfig,
    Option<&ChurnPlan>,
    ObsArg<'_, <P as Protocol>::State>,
    SnapRef<'_, P>,
    FaultsArg<'_>,
) -> RowResult<AsyncOutcome, <P as Protocol>::State>;

/// One capability row per transition flavor, captured (monomorphized) by
/// the constructor matching the protocol's flavor; `run` dispatches
/// through whichever row the selected backend needs and reports a
/// missing row as [`ExecError::Config`].
struct Caps<P: Protocol> {
    sync: Option<LockstepFn<P, SyncOutcome>>,
    scoped: Option<LockstepFn<P, ScopedOutcome>>,
    async_run: Option<AsyncFn<P>>,
}

/// The unified simulation builder. See the [module docs](self) for the
/// design and an end-to-end example.
///
/// Construct with the method matching the protocol's transition flavor —
/// [`Simulation::sync`] ([`MultiFsm`]), [`Simulation::asynchronous`]
/// ([`Fsm`] under an [`Adversary`]), or [`Simulation::scoped`]
/// ([`ScopedMultiFsm`]) — then chain configuration and [`run`](Self::run).
/// Setters are independent: the order they are chained in never affects
/// the outcome.
///
/// The `sync` and `scoped` constructors require the protocol and its
/// states to be thread-shareable (`Sync`/`Send`) so one construction
/// serves both the serial and the `parallel`-feature schedules; every
/// protocol in the workspace qualifies (they are plain data shared by
/// reference across all nodes, per model requirement (M2)).
pub struct Simulation<'g, P: Protocol> {
    protocol: &'g P,
    graph: &'g Graph,
    seed: u64,
    inputs: Option<&'g [usize]>,
    budget: Option<u64>,
    backend: Backend<'g>,
    observer: Option<&'g mut (dyn Observer<P::State> + 'g)>,
    churn: Option<&'g ChurnPlan>,
    faults: Option<&'g FaultPlan>,
    #[cfg(feature = "parallel")]
    policy: Option<ParallelPolicy>,
    checkpoint: Option<u64>,
    resume: Option<&'g Snapshot>,
    codec: Option<StateCodec<P::State>>,
    caps: Caps<P>,
}

impl<'g, P> Simulation<'g, P>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
{
    /// A simulation of a multi-letter protocol on the lockstep
    /// synchronous backend ([`Backend::Sync`] preset). Run single-letter
    /// [`Fsm`] protocols here through [`stoneage_core::AsMulti`].
    pub fn sync(protocol: &'g P, graph: &'g Graph) -> Self {
        let caps = Caps {
            sync: Some(sync_exec::exec_sync::<P>),
            scoped: None,
            async_run: None,
        };
        Simulation::with_caps(protocol, graph, Backend::Sync, caps)
    }
}

impl<'g, P: Fsm> Simulation<'g, P> {
    /// A simulation of a single-letter protocol on the fully
    /// asynchronous backend, scheduled by `adversary`
    /// ([`Backend::Async`] preset with default [`AsyncOptions`]; replace
    /// via [`backend`](Self::backend) to pick a scheduler or bucket
    /// width).
    pub fn asynchronous(protocol: &'g P, graph: &'g Graph, adversary: &'g dyn Adversary) -> Self {
        let caps = Caps {
            sync: None,
            scoped: None,
            async_run: Some(async_exec::exec_async::<P>),
        };
        Simulation::with_caps(
            protocol,
            graph,
            Backend::Async(AsyncOptions::new(adversary)),
            caps,
        )
    }
}

impl<'g, P> Simulation<'g, P>
where
    P: ScopedMultiFsm + Sync,
    P::State: Send + Sync,
{
    /// A simulation of a port-select-extension protocol on the scoped
    /// lockstep backend ([`Backend::Scoped`] preset).
    pub fn scoped(protocol: &'g P, graph: &'g Graph) -> Self {
        let caps = Caps {
            sync: None,
            scoped: Some(scoped::exec_scoped::<P>),
            async_run: None,
        };
        Simulation::with_caps(protocol, graph, Backend::Scoped, caps)
    }
}

impl<'g, P: Protocol> Simulation<'g, P> {
    fn with_caps(protocol: &'g P, graph: &'g Graph, backend: Backend<'g>, caps: Caps<P>) -> Self {
        Simulation {
            protocol,
            graph,
            seed: 0,
            inputs: None,
            budget: None,
            backend,
            observer: None,
            churn: None,
            faults: None,
            #[cfg(feature = "parallel")]
            policy: None,
            checkpoint: None,
            resume: None,
            codec: None,
            caps,
        }
    }

    /// Master seed of the per-node protocol RNG streams (default 0). The
    /// streams are pure functions of `(seed, node id)`, identical across
    /// backends' serial and parallel schedules.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-node input symbols (default: all zeros). Length must equal the
    /// node count — the builder is the single place this is validated,
    /// for every backend ([`ExecError::InputLengthMismatch`]).
    pub fn inputs(mut self, inputs: &'g [usize]) -> Self {
        self.inputs = Some(inputs);
        self
    }

    /// Execution budget: rounds for the Sync/Scoped backends, events for
    /// Async. Exceeding it aborts with [`ExecError::RoundLimit`] /
    /// [`ExecError::EventLimit`]; zero is rejected as
    /// [`ExecError::Config`]. Defaults: 1 000 000 rounds / 200 000 000
    /// events (the legacy config defaults).
    pub fn budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Selects the backend explicitly, overriding the constructor's
    /// preset — e.g. to pick the binary-heap scheduler through
    /// [`AsyncOptions`]. Selecting a backend the protocol's transition
    /// flavor cannot drive is reported as [`ExecError::Config`] by
    /// [`run`](Self::run).
    pub fn backend(mut self, backend: Backend<'g>) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches the unified [`Observer`]. Round-based backends fire
    /// `on_round_end`; the Async backend fires `on_step`. Wrap legacy
    /// observers in [`AdaptSync`] / [`AdaptAsync`].
    pub fn observe(mut self, observer: &'g mut (dyn Observer<P::State> + 'g)) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Runs the simulation under a deterministic topology fault-injection
    /// schedule (see [`crate::churn`]). The plan's events — crashes,
    /// restarts, edge insertions and deletions — are applied only at
    /// round/epoch boundaries, so lockstep outcomes stay bit-identical
    /// across the serial and parallel schedules, every worker count, and
    /// both round modes; the empty plan is bit-identical to the churn-free
    /// engine. The effective event counts and final live-node set are
    /// reported through [`Outcome::churn`]. Nodes dead at termination
    /// report the output they had decided before crashing, or
    /// [`crate::churn::DEAD_OUTPUT`] if they never decided.
    pub fn with_churn(mut self, plan: &'g ChurnPlan) -> Self {
        self.churn = Some(plan);
        self
    }

    /// Runs the simulation under a seeded deterministic message-fault
    /// schedule (see [`crate::faults`]). Every transmission is evaluated
    /// against the plan's rules at the single delivery boundary of each
    /// backend; a firing rule drops, duplicates, or corrupts the letter
    /// on that channel. Fault decisions are pure functions of the plan
    /// seed, the receiving channel slot, and the transmission's time
    /// index — never a shared sequential RNG — so faulted lockstep
    /// outcomes stay bit-identical across the serial and parallel
    /// schedules, every worker count, and both round modes, and the
    /// empty plan is bit-identical to the fault-free engine. Composes
    /// with [`with_churn`](Self::with_churn): faults apply to whatever
    /// channels the churned topology has live. The per-class injection
    /// counts are reported through [`Outcome::faults`]. An invalid plan
    /// (bad rate, out-of-range node or letter, rule on a non-edge) is a
    /// typed [`ExecError::Config`] from [`run`](Self::run).
    ///
    /// On the Async backend a fault plan forces the binary-heap
    /// scheduler: duplicate copies break the calendar wheel's
    /// one-letter-per-run batching invariant, and outcomes must not
    /// depend on the scheduler knob.
    pub fn with_faults(mut self, plan: &'g FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Runs the Sync or Scoped backend on the parallel schedule under
    /// `policy` (chunked phase 1 + sharded-write-buffer phase 2 — see
    /// [`crate::parbuf`]). The policy's [`crate::parbuf::RoundMode`]
    /// picks the round schedule: the two-join `Joined` oracle (default)
    /// or the one-join `Fused` pipeline that defers phase 2b of each
    /// round into the next round's worker scope (see
    /// [`crate::pipeline`]). Bit-identical to the serial schedule for
    /// every seed, worker count, merge strategy, and round mode; the
    /// policy's small-instance threshold may still delegate to the
    /// serial engine (reported via [`Outcome::workers`]). Only exists on
    /// `parallel` builds, so a policy can never be configured on a build
    /// that cannot honor it; combining it with [`Backend::Async`] is an
    /// [`ExecError::Config`].
    #[cfg(feature = "parallel")]
    pub fn parallel(mut self, policy: ParallelPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Captures a [`Snapshot`] of the complete mid-run simulation state
    /// every `every` committed boundaries — rounds on the lockstep
    /// backends (Sync, Scoped), applied node steps on the Async backend —
    /// and hands each frame to [`Observer::on_checkpoint`]. A run resumed
    /// from any such frame via [`resume_from`](Self::resume_from) replays
    /// the remainder **bit-identically** to the uninterrupted run, for
    /// every backend, worker count, and round mode. `every == 0` is
    /// rejected as [`ExecError::Config`] by [`run`](Self::run).
    ///
    /// Requires the protocol's state type to implement [`SnapState`]
    /// (every fixed-width plain-data state qualifies; see the
    /// [`crate::snapshot`] docs for implementing it on custom states).
    pub fn checkpoint_every(mut self, every: u64) -> Self
    where
        P::State: SnapState,
    {
        self.checkpoint = Some(every);
        self.codec = Some(StateCodec::auto());
        self
    }

    /// Resumes this simulation from a mid-run [`Snapshot`] instead of
    /// round/step 0. The snapshot's header must match this builder's
    /// graph, protocol, backend, and configuration (seed, inputs, churn
    /// plan, adversary) — any mismatch is a typed
    /// [`ExecError::Snapshot`] from [`run`](Self::run), never a panic or
    /// a silently divergent run. The resumed remainder is bit-identical
    /// to the uninterrupted run per seed, including when the snapshot
    /// round-tripped through [`Snapshot::to_bytes`] /
    /// [`Snapshot::from_bytes`] on disk.
    pub fn resume_from(mut self, snapshot: &'g Snapshot) -> Self
    where
        P::State: SnapState,
    {
        self.resume = Some(snapshot);
        self.codec = Some(StateCodec::auto());
        self
    }

    /// The snapshot plumbing of this run: the header metadata binding
    /// frames to this exact configuration, plus validation of any
    /// [`resume_from`](Self::resume_from) snapshot against it.
    fn snap_args(
        &self,
        backend: u8,
        inputs: &[usize],
        adversary: Option<&str>,
    ) -> Result<SnapArgs<'g, P::State>, ExecError> {
        if self.checkpoint.is_none() && self.resume.is_none() {
            return Ok(SnapArgs::none());
        }
        let meta = SnapMeta {
            backend,
            graph_fp: snapshot::graph_fingerprint(self.graph),
            protocol_id: snapshot::protocol_digest(self.protocol),
            config_digest: config_digest(self.seed, inputs, self.churn, self.faults, adversary),
        };
        if let Some(s) = self.resume {
            let field = if s.backend() != meta.backend {
                Some("backend")
            } else if s.graph_fingerprint() != meta.graph_fp {
                Some("graph fingerprint")
            } else if s.protocol_id() != meta.protocol_id {
                Some("protocol id")
            } else if s.config_digest() != meta.config_digest {
                Some("config digest")
            } else {
                None
            };
            if let Some(field) = field {
                return Err(ExecError::Snapshot(SnapshotError::DigestMismatch { field }));
            }
        }
        Ok(SnapArgs {
            every: self.checkpoint.unwrap_or(0),
            resume: self.resume,
            codec: self.codec,
            meta,
        })
    }

    /// Executes the selected backend and returns the unified outcome.
    ///
    /// Dispatches to the exact engine the corresponding retired `run_*`
    /// function ran — outcomes are bit-identical per seed to every
    /// legacy entry point this builder replaced.
    pub fn run(mut self) -> Result<Outcome<P>, ExecError> {
        let n = self.graph.node_count();
        if self.budget == Some(0) {
            return Err(ExecError::Config {
                reason: "budget must be positive: a zero budget can never reach an output \
                         configuration"
                    .into(),
            });
        }
        if self.checkpoint == Some(0) {
            return Err(ExecError::Config {
                reason: "checkpoint_every(0) never reaches a boundary: the checkpoint cadence \
                         must be a positive number of rounds (lockstep backends) or node steps \
                         (Async)"
                    .into(),
            });
        }
        if let Some(inputs) = self.inputs {
            if inputs.len() != n {
                return Err(ExecError::InputLengthMismatch {
                    nodes: n,
                    inputs: inputs.len(),
                });
            }
        }
        let zeros;
        let inputs: &[usize] = match self.inputs {
            Some(inputs) => inputs,
            None => {
                zeros = vec![0usize; n];
                &zeros
            }
        };
        let observer = self.observer.take();
        // Every engine call threads an optional FaultWire pointing at
        // this slot; whichever engine runs writes its final tally here.
        let mut fault_summary: Option<FaultSummary> = None;
        let faults = self.faults.map(|plan| FaultWire {
            plan,
            out: &mut fault_summary,
        });

        fn mismatch(backend: &Backend<'_>, constructor: &str) -> ExecError {
            ExecError::Config {
                reason: format!(
                    "the {} backend needs a protocol with the matching transition flavor: \
                     construct the builder with Simulation::{}",
                    backend.name(),
                    constructor
                ),
            }
        }

        let config = SyncConfig {
            seed: self.seed,
            max_rounds: self.budget.unwrap_or(SyncConfig::default().max_rounds),
        };
        let policy = self.lockstep_policy();
        // The shard plan clamps to the node count — report what actually
        // runs, not the raw policy value.
        let workers = policy.map_or(1, |p| p.resolve_workers().min(n.max(1)));
        let mut steals = StealStats::default();
        match self.backend {
            Backend::Sync => {
                let snap = self.snap_args(snapshot::BACKEND_SYNC, inputs, None)?;
                let run = self
                    .caps
                    .sync
                    .ok_or_else(|| mismatch(&self.backend, "sync"))?;
                let (out, states, churn) = run(
                    self.protocol,
                    self.graph,
                    inputs,
                    &config,
                    self.churn,
                    policy.as_ref(),
                    observer,
                    &snap,
                    faults,
                    &mut steals,
                )?;
                Ok(Outcome {
                    outputs: out.outputs,
                    states,
                    cost: Cost::Rounds(out.rounds),
                    workers,
                    steals,
                    detail: Detail::Sync {
                        messages_sent: out.messages_sent,
                        churn,
                        faults: fault_summary,
                    },
                })
            }
            Backend::Scoped => {
                let snap = self.snap_args(snapshot::BACKEND_SCOPED, inputs, None)?;
                let run = self
                    .caps
                    .scoped
                    .ok_or_else(|| mismatch(&self.backend, "scoped"))?;
                let (out, states, churn) = run(
                    self.protocol,
                    self.graph,
                    inputs,
                    &config,
                    self.churn,
                    policy.as_ref(),
                    observer,
                    &snap,
                    faults,
                    &mut steals,
                )?;
                Ok(Outcome {
                    outputs: out.outputs,
                    states,
                    cost: Cost::Rounds(out.rounds),
                    workers,
                    steals,
                    detail: Detail::Scoped {
                        scoped_deliveries: out.scoped_deliveries,
                        churn,
                        faults: fault_summary,
                    },
                })
            }
            Backend::Async(options) => {
                #[cfg(feature = "parallel")]
                if self.policy.is_some() {
                    return Err(ExecError::Config {
                        reason: "the Async backend has no parallel schedule: remove the \
                                 ParallelPolicy or select a lockstep backend"
                            .into(),
                    });
                }
                let config = AsyncConfig {
                    seed: self.seed,
                    max_events: self.budget.unwrap_or(AsyncConfig::default().max_events),
                    scheduler: options.scheduler,
                    bucket_width: options.bucket_width,
                };
                let snap = self.snap_args(
                    snapshot::BACKEND_ASYNC,
                    inputs,
                    Some(options.adversary.name()),
                )?;
                let run = self
                    .caps
                    .async_run
                    .ok_or_else(|| mismatch(&self.backend, "asynchronous"))?;
                let (out, states, churn) = run(
                    self.protocol,
                    self.graph,
                    inputs,
                    options.adversary,
                    &config,
                    self.churn,
                    observer,
                    &snap,
                    faults,
                )?;
                Ok(Outcome {
                    outputs: out.outputs,
                    states,
                    cost: Cost::TimeUnits(out.normalized_time),
                    workers: 1,
                    steals,
                    detail: Detail::Async {
                        completion_time: out.completion_time,
                        time_unit: out.time_unit,
                        total_steps: out.total_steps,
                        messages_sent: out.messages_sent,
                        deliveries: out.deliveries,
                        lost_overwrites: out.lost_overwrites,
                        churn,
                        faults: fault_summary,
                    },
                })
            }
        }
    }

    /// The parallel policy a lockstep run executes under: `None` runs the
    /// serial loop — no policy set, a build without the `parallel`
    /// feature, or a policy whose small-instance threshold delegates to
    /// the serial engine.
    fn lockstep_policy(&self) -> Option<ParallelPolicy> {
        #[cfg(feature = "parallel")]
        {
            self.policy
                .filter(|p| !p.use_serial(self.graph.node_count()))
        }
        #[cfg(not(feature = "parallel"))]
        {
            None
        }
    }
}

/// FNV-1a over everything that steers a run besides the graph and
/// protocol (which get their own header fields): master seed, per-node
/// inputs, the churn plan's events and extra edges, the fault plan's
/// seed and rules, and the adversary's diagnostic name on the Async
/// backend. Resuming under a different value of any of these would
/// silently diverge from the uninterrupted run, so a mismatch is
/// rejected up front. Knobs that provably cannot affect outcomes —
/// worker count, round mode, merge strategy, chunk scheduler
/// (static/stealing), event-scheduler kind, bucket width, patch mode,
/// budget — are deliberately *excluded*: resuming a serial run on the
/// parallel schedule (or heap → wheel, or static → stealing) is a
/// supported feature, not a configuration error.
fn config_digest(
    seed: u64,
    inputs: &[usize],
    churn: Option<&ChurnPlan>,
    faults: Option<&FaultPlan>,
    adversary: Option<&str>,
) -> u64 {
    let mut d = snapshot::Digest::new();
    d.u64(seed);
    d.u64(inputs.len() as u64);
    for &input in inputs {
        d.u64(input as u64);
    }
    match churn {
        Some(plan) => {
            d.u64(1);
            d.u64(plan.events().len() as u64);
            for (round, event) in plan.events() {
                d.u64(*round);
                let (tag, a, b) = match event {
                    TopologyEvent::Crash(v) => (0u64, *v, 0),
                    TopologyEvent::Restart(v) => (1, *v, 0),
                    TopologyEvent::EdgeInsert(u, v) => (2, *u, *v),
                    TopologyEvent::EdgeDelete(u, v) => (3, *u, *v),
                };
                d.u64(tag);
                d.u64(a as u64);
                d.u64(b as u64);
            }
            d.u64(plan.extra_edges().len() as u64);
            for &(u, v) in plan.extra_edges() {
                d.u64(u as u64);
                d.u64(v as u64);
            }
        }
        None => d.u64(0),
    }
    match faults {
        Some(plan) => {
            d.u64(1);
            d.u64(plan.seed());
            d.u64(plan.rules().len() as u64);
            for rule in plan.rules() {
                let (scope_tag, from, to) = match rule.scope {
                    FaultScope::AllEdges => (0u64, 0, 0),
                    FaultScope::Edge { from, to } => (1, from, to),
                };
                d.u64(scope_tag);
                d.u64(from as u64);
                d.u64(to as u64);
                let (fault_tag, arg) = match rule.fault {
                    LinkFault::Drop => (0u64, 0u64),
                    LinkFault::Duplicate(k) => (1, k as u64),
                    LinkFault::Corrupt(l) => (2, l.0 as u64),
                };
                d.u64(fault_tag);
                d.u64(arg);
                d.u64(rule.rate.to_bits());
            }
        }
        None => d.u64(0),
    }
    if let Some(name) = adversary {
        d.u64(name.len() as u64);
        d.bytes(name.as_bytes());
    }
    d.finish()
}
