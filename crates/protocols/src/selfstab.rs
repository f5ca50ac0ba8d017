//! Self-stabilizing wake-up-broadcast variants of the paper's protocols,
//! for executions with crash/restart churn.
//!
//! The paper's protocols decide into **silent sinks**: a `WIN`/`LOSE`
//! MIS node or a `COLORED` tree node never transmits again, and its
//! neighbors' ports retain the last announced letter forever. That
//! invariant is exactly what breaks under a
//! [`stoneage_sim::ChurnPlan`] restart: the reborn node re-enters the
//! initial state with every incident port reset to the pristine letter
//! `σ₀`, and its halted neighborhood never speaks again. Two distinct
//! failures follow:
//!
//! * **MIS wedges.** The restarted node reads `σ₀ = DOWN1` on every
//!   port, climbs `DOWN1 → UP₀`, and then the phantom `DOWN1`s pin it
//!   there forever (`DOWN1 ∈ D(UP₀)`): the run never reaches an output
//!   configuration and aborts with
//!   [`stoneage_sim::ExecError::RoundLimit`].
//! * **Coloring silently mis-colors.** The restarted node sees no
//!   `COLc` letters at all, treats every color as free, and may decide
//!   a color its silent neighbor already holds — a safety violation the
//!   engine cannot detect.
//!
//! The wrappers here fix both with a **wake-up broadcast**: a decided
//! node that observes evidence of a rebooted neighbor re-announces its
//! own decision letter, repopulating the reborn node's ports so the
//! paper's own transition rules resume from a truthful neighborhood
//! view. Concretely:
//!
//! * [`SelfStabMis`] — a decided `WIN`/`LOSE` node seeing `σ₀ = DOWN1`
//!   on a port re-announces its state letter, and any *active* node
//!   that hears `WIN` decides `LOSE` immediately (WIN absorption). The
//!   restarted node therefore either loses to a re-announced `WIN`
//!   within a constant number of rounds or runs a fresh tournament
//!   against a fully-`LOSE` neighborhood and wins it.
//! * [`SelfStabColoring`] — a `COLORED` node seeing an `ACTIVE`
//!   announcement re-announces `my color is c`. A restarted node's own
//!   phase machinery then reads the true occupied palette in its
//!   RandColor round: its `I am ACTIVE` announcement lands on the
//!   colored neighbors one round before their re-announced colors land
//!   back, exactly in time for the round-3 `C(v)` query.
//!
//! The coloring wrapper repairs *staleness*, and its recovery guarantee
//! has a precondition: **the crashed node must have held a color when
//! it crashed**. Properness then reserves that color — every neighbor
//! chose a different one, so the re-announced palette spans ≤ 2 colors
//! and `C(v) ≠ ∅` at the revived node's RandColor round. A node that
//! crashes *before* coloring (e.g. a star center crashed mid-phase)
//! leaves its neighborhood free to color independently and consume all
//! three colors; no 3-coloring of the revived configuration need exist
//! at all, and the engine surfaces the palette violation as the
//! `|C(v)|` invariant panic rather than a silent improper output.
//!
//! Both wrappers change behavior only on observations the original
//! protocols treat as silence, decide outputs through the inherited
//! rules, and keep the original state and letter sets — so the
//! stabilization predicates of [`crate::stabilization`] apply
//! unchanged, and
//! [`stoneage_sim::StabilizationObserver::wedged`] distinguishes the
//! paper protocol (wedges, record never restabilizes) from these
//! variants (restabilize and terminate).
//!
//! ```
//! use stoneage_graph::{generators, TopologyEvent};
//! use stoneage_protocols::selfstab::SelfStabMis;
//! use stoneage_protocols::stabilization;
//! use stoneage_sim::{ChurnPlan, Simulation, StabilizationObserver};
//!
//! let graph = generators::star(5);
//! let protocol = SelfStabMis::new();
//! // Crash the hub early, revive it long after the leaves decided.
//! let plan = ChurnPlan::new()
//!     .at(2, TopologyEvent::Crash(0))
//!     .at(60, TopologyEvent::Restart(0));
//! let mut obs = StabilizationObserver::new(&graph, &plan, stabilization::mis_stabilized)
//!     .expect("plan is valid for this graph");
//! let outcome = Simulation::sync(&protocol, &graph)
//!     .seed(7)
//!     .with_churn(&plan)
//!     .observe(&mut obs)
//!     .run()
//!     .expect("the self-stabilizing variant terminates after the restart");
//! assert!(!obs.wedged(), "every churn event restabilized");
//! ```

use stoneage_core::{Alphabet, Letter, MultiFsm, ObsVec, Protocol, Transitions};

use crate::coloring::{ColoringProtocol, ColoringState, L};
use crate::mis::{MisProtocol, MisState};

/// The self-stabilizing MIS variant: the paper's Section 4 protocol plus
/// the wake-up re-announcement of decided nodes and WIN absorption for
/// active nodes. See the [module docs](self) for the failure mode this
/// repairs and the recovery argument.
#[derive(Clone, Debug, Default)]
pub struct SelfStabMis {
    inner: MisProtocol,
}

impl SelfStabMis {
    /// Builds the protocol.
    pub fn new() -> Self {
        SelfStabMis {
            inner: MisProtocol::new(),
        }
    }
}

impl Protocol for SelfStabMis {
    type State = MisState;

    fn alphabet(&self) -> &Alphabet {
        self.inner.alphabet()
    }

    fn bound(&self) -> u8 {
        self.inner.bound()
    }

    fn initial_letter(&self) -> Letter {
        self.inner.initial_letter()
    }

    fn initial_state(&self, input: usize) -> MisState {
        self.inner.initial_state(input)
    }

    fn output(&self, q: &MisState) -> Option<u64> {
        self.inner.output(q)
    }

    /// A restarted node re-enters `DOWN1` exactly like a fresh one — the
    /// recovery burden lies with the surviving neighborhood's wake-up
    /// broadcast, not with the reborn node, which cannot know what it
    /// missed.
    fn restart_state(&self, input: usize) -> MisState {
        self.inner.initial_state(input)
    }
}

impl MultiFsm for SelfStabMis {
    fn delta(&self, q: &MisState, obs: &ObsVec) -> Transitions<MisState> {
        let q = *q;
        match q {
            MisState::Win | MisState::Lose => {
                // A port holding σ₀ = DOWN1 is either a genuinely active
                // neighbor starting a tournament (it will lose to us or
                // was losing anyway) or a rebooted one reading phantom
                // DOWN1s. Re-announce our decision either way: it is
                // idempotent on ports that already hold it and is the
                // only way a rebooted neighbor ever learns this
                // neighborhood has decided.
                let wake = !obs.get(MisState::Down1.letter()).is_zero();
                Transitions::det(q, wake.then(|| q.letter()))
            }
            _ if !obs.get(MisState::Win.letter()).is_zero() => {
                // WIN absorption: a WIN port is truthful (WIN is only
                // ever announced by a node entering the absorbing WIN
                // state, and restarts reset stale ports to σ₀), so any
                // active node hearing it is dominated and can decide
                // immediately. This is what stops a restarted node from
                // winning a tournament against an already-decided WIN
                // neighbor it cannot otherwise hear.
                Transitions::det(MisState::Lose, Some(MisState::Lose.letter()))
            }
            _ => self.inner.delta(&q, obs),
        }
    }
}

/// The self-stabilizing tree-coloring variant: the paper's Section 5
/// protocol plus the wake-up re-announcement of colored nodes. See the
/// [module docs](self) for the silent mis-coloring this repairs.
#[derive(Clone, Debug, Default)]
pub struct SelfStabColoring {
    inner: ColoringProtocol,
}

impl SelfStabColoring {
    /// Builds the protocol.
    pub fn new() -> Self {
        SelfStabColoring {
            inner: ColoringProtocol::new(),
        }
    }
}

impl Protocol for SelfStabColoring {
    type State = ColoringState;

    fn alphabet(&self) -> &Alphabet {
        self.inner.alphabet()
    }

    fn bound(&self) -> u8 {
        self.inner.bound()
    }

    fn initial_letter(&self) -> Letter {
        self.inner.initial_letter()
    }

    fn initial_state(&self, input: usize) -> ColoringState {
        self.inner.initial_state(input)
    }

    fn output(&self, q: &ColoringState) -> Option<u64> {
        self.inner.output(q)
    }

    /// A restarted node re-enters `A1` and runs an ordinary phase; by
    /// its RandColor round the wake-up broadcast has repopulated its
    /// ports with every neighbor's color.
    fn restart_state(&self, input: usize) -> ColoringState {
        self.inner.initial_state(input)
    }
}

impl MultiFsm for SelfStabColoring {
    fn delta(&self, q: &ColoringState, obs: &ObsVec) -> Transitions<ColoringState> {
        if let ColoringState::Colored { color } = *q {
            // An ACTIVE announcement next door means someone is running
            // a phase — possibly a rebooted node whose port for us was
            // reset to INIT and who would otherwise treat our color as
            // free. Re-announce it; on ports that already hold it this
            // changes nothing.
            if !obs.get(L::Active.letter()).is_zero() {
                return Transitions::det(*q, Some(L::col(color).letter()));
            }
        }
        self.inner.delta(q, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_graph::{generators, validate, TopologyEvent};
    use stoneage_sim::{ChurnPlan, ExecError, Simulation, StabilizationObserver};

    fn mis_obs(counts: [usize; 7]) -> ObsVec {
        ObsVec::from_counts(&counts, 1)
    }

    #[test]
    fn decided_nodes_reannounce_on_wake_letter() {
        let p = SelfStabMis::new();
        for q in [MisState::Win, MisState::Lose] {
            // σ₀ = DOWN1 visible: re-announce own letter.
            let t = p.delta(&q, &mis_obs([1, 0, 0, 0, 0, 0, 0]));
            assert_eq!(t.choices(), vec![(q, Some(q.letter()))]);
            // Quiet decided neighborhood: stay silent like the paper.
            let t = p.delta(&q, &mis_obs([0, 0, 0, 0, 0, 1, 1]));
            assert_eq!(t.choices(), vec![(q, None)]);
        }
    }

    #[test]
    fn active_nodes_absorb_win_immediately() {
        let p = SelfStabMis::new();
        for q in [
            MisState::Down1,
            MisState::Down2,
            MisState::Up0,
            MisState::Up1,
            MisState::Up2,
        ] {
            let t = p.delta(&q, &mis_obs([0, 0, 0, 0, 0, 1, 0]));
            assert_eq!(
                t.choices(),
                vec![(MisState::Lose, Some(MisState::Lose.letter()))],
                "{q:?} must lose on hearing WIN"
            );
        }
    }

    #[test]
    fn delegates_to_paper_rules_otherwise() {
        let p = SelfStabMis::new();
        let paper = MisProtocol::new();
        // No WIN audible, no wake for sinks: identical transitions.
        let samples = [
            [0usize; 7],
            [1, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 1],
        ];
        for q in [
            MisState::Down1,
            MisState::Down2,
            MisState::Up0,
            MisState::Up1,
            MisState::Up2,
        ] {
            for c in samples {
                assert_eq!(
                    p.delta(&q, &mis_obs(c)).choices(),
                    paper.delta(&q, &mis_obs(c)).choices(),
                    "{q:?} {c:?}"
                );
            }
        }
    }

    #[test]
    fn selfstab_mis_is_valid_without_churn() {
        // The wrapper must remain a correct MIS protocol on its own.
        let graphs = [
            ("path", generators::path(30)),
            ("gnp", generators::gnp(50, 0.1, 4)),
            ("complete", generators::complete(8)),
            ("star", generators::star(12)),
        ];
        for (name, g) in &graphs {
            for seed in 0..5 {
                let out = Simulation::sync(&SelfStabMis::new(), g)
                    .seed(seed)
                    .run()
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let mis = crate::decode_mis(&out.outputs);
                assert!(
                    validate::is_maximal_independent_set(g, &mis),
                    "{name} seed {seed}"
                );
            }
        }
    }

    /// The PR's core scenario: crash a node early, revive it long after
    /// its whole neighborhood decided. The paper protocol wedges (the
    /// revived node is pinned in UP₀ by phantom σ₀ = DOWN1 ports and the
    /// run exhausts its budget); the self-stabilizing variant
    /// re-stabilizes and terminates with a valid MIS.
    #[test]
    fn restart_amid_halted_neighbors_wedges_paper_mis_but_not_selfstab() {
        let g = generators::star(6);
        let plan = ChurnPlan::new()
            .at(2, TopologyEvent::Crash(0))
            .at(80, TopologyEvent::Restart(0));

        // Paper protocol: wedged. The run never reaches an output
        // configuration and the stabilization record never closes.
        let paper = MisProtocol::new();
        let mut obs =
            StabilizationObserver::new(&g, &plan, crate::stabilization::mis_stabilized).unwrap();
        let err = Simulation::sync(&paper, &g)
            .seed(11)
            .budget(2_000)
            .with_churn(&plan)
            .observe(&mut obs)
            .run()
            .expect_err("the revived hub wedges in UP0 forever");
        assert!(matches!(err, ExecError::RoundLimit { .. }), "{err}");
        assert!(obs.wedged(), "the restart record must never restabilize");

        // Self-stabilizing variant, same seed and plan: terminates, every
        // churn record restabilizes, and the output is a valid MIS.
        let stab = SelfStabMis::new();
        let mut obs =
            StabilizationObserver::new(&g, &plan, crate::stabilization::mis_stabilized).unwrap();
        let out = Simulation::sync(&stab, &g)
            .seed(11)
            .budget(2_000)
            .with_churn(&plan)
            .observe(&mut obs)
            .run()
            .expect("the wake-up broadcast un-wedges the revived hub");
        assert!(!obs.wedged());
        let mis = crate::decode_mis(&out.outputs);
        assert!(validate::is_maximal_independent_set(&g, &mis));
    }

    #[test]
    fn selfstab_mis_restart_recovers_on_many_graphs() {
        for (name, g, victim) in [
            ("path", generators::path(12), 5u32),
            ("gnp", generators::gnp(20, 0.25, 3), 7),
            ("complete", generators::complete(6), 0),
        ] {
            for seed in 0..4 {
                let plan = ChurnPlan::new()
                    .at(3, TopologyEvent::Crash(victim))
                    .at(120, TopologyEvent::Restart(victim));
                let out = Simulation::sync(&SelfStabMis::new(), &g)
                    .seed(seed)
                    .budget(5_000)
                    .with_churn(&plan)
                    .run()
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let mis = crate::decode_mis(&out.outputs);
                assert!(
                    validate::is_maximal_independent_set(&g, &mis),
                    "{name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn colored_nodes_reannounce_on_active() {
        let p = SelfStabColoring::new();
        let mut counts = [0usize; 13];
        counts[L::Active as usize] = 1;
        let obs = ObsVec::from_counts(&counts, 3);
        for color in 1..=3u8 {
            let q = ColoringState::Colored { color };
            let t = p.delta(&q, &obs);
            assert_eq!(t.choices(), vec![(q, Some(L::col(color).letter()))]);
            // Quiet neighborhood: silent sink, like the paper.
            let t = p.delta(&q, &ObsVec::from_counts(&[0usize; 13], 3));
            assert_eq!(t.choices(), vec![(q, None)]);
        }
    }

    #[test]
    fn selfstab_coloring_is_valid_without_churn() {
        let trees = [
            ("path", generators::path(40)),
            ("star", generators::star(25)),
            ("binary", generators::kary_tree(31, 2)),
            ("random", generators::random_tree(50, 2)),
        ];
        for (name, g) in &trees {
            for seed in 0..4 {
                let out = Simulation::sync(&SelfStabColoring::new(), g)
                    .seed(seed)
                    .run()
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let colors = crate::decode_coloring(&out.outputs);
                assert!(
                    validate::is_proper_k_coloring(g, &colors, 3),
                    "{name} seed {seed}"
                );
            }
        }
    }

    /// Crash a node long after the whole tree colored, revive it later
    /// still: the revived node must rejoin with a color its silent
    /// neighborhood does not hold. The crash comes *after* stabilization
    /// on purpose — properness at crash time reserves the victim's color
    /// (see the module docs for why a pre-coloring crash voids the
    /// guarantee).
    #[test]
    fn selfstab_coloring_restart_recovers_properly() {
        for (name, g, victim) in [
            ("star-center", generators::star(8), 0u32),
            ("star-leaf", generators::star(8), 3),
            ("path-mid", generators::path(10), 4),
            ("binary-root", generators::kary_tree(15, 2), 0),
        ] {
            for seed in 0..4 {
                let plan = ChurnPlan::new()
                    .at(60, TopologyEvent::Crash(victim))
                    .at(120, TopologyEvent::Restart(victim));
                let mut obs = StabilizationObserver::new(
                    &g,
                    &plan,
                    crate::stabilization::coloring_stabilized,
                )
                .unwrap();
                let out = Simulation::sync(&SelfStabColoring::new(), &g)
                    .seed(seed)
                    .budget(5_000)
                    .with_churn(&plan)
                    .observe(&mut obs)
                    .run()
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                assert!(!obs.wedged(), "{name} seed {seed}");
                let colors = crate::decode_coloring(&out.outputs);
                assert!(
                    validate::is_proper_k_coloring(&g, &colors, 3),
                    "{name} seed {seed}: {colors:?}"
                );
            }
        }
    }
}
