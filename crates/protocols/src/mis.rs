//! The maximal-independent-set protocol of Section 4 — the paper's
//! Figure 1.
//!
//! Seven states (`DOWN1`, `DOWN2`, `UP0`, `UP1`, `UP2`, `WIN`, `LOSE`),
//! an alphabet identical to the state set, and bounding parameter `b = 1`
//! (the "beeping" bound: a node only distinguishes *zero* from *at least
//! one*). A node transmits the letter `q` exactly when it *moves* to state
//! `q` from a different state, so each port always mirrors the sender's
//! current state (one round stale).
//!
//! The protocol organizes execution into **tournaments** — one pass of
//! `DOWN1 → UP₀ → UP₁ → … → (WIN | DOWN2)` — whose lengths are
//! `Geom(1/2) + 2` distributed. Neighbors' tournaments are only *softly*
//! aligned, via per-state *delaying sets*: a node stays in state `q` while
//! any neighbor is in a state of `D(q)`. A node wins its tournament (joins
//! the MIS) when its tournament outlasted all its neighbors'; losers
//! observe a `WIN` next door and exit. Theorem 4.5: every output
//! configuration is an MIS, and the run-time is `O(log² n)` in expectation
//! and w.h.p.
//!
//! The [`analysis`] submodule instruments executions (tournament lengths,
//! per-tournament survivor graphs) for experiments E3 and E4.

pub mod analysis;

use stoneage_core::{Alphabet, Letter, MultiFsm, ObsVec, Transitions};

/// A state of the MIS protocol. The discriminant doubles as the letter
/// index of the letter announcing the state.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
#[repr(u16)]
pub enum MisState {
    /// First state of a tournament; delayed by neighbors in `DOWN2`.
    Down1 = 0,
    /// Last state of a (lost) tournament; delayed by all `UP` states.
    Down2 = 1,
    /// `UP₀`; delayed by `DOWN1` and `UP₂`.
    Up0 = 2,
    /// `UP₁`; delayed by `UP₀`.
    Up1 = 3,
    /// `UP₂`; delayed by `UP₁`.
    Up2 = 4,
    /// Output: member of the MIS.
    Win = 5,
    /// Output: not a member (a neighbor won).
    Lose = 6,
}

impl MisState {
    /// All seven states, in letter order.
    pub const ALL: [MisState; 7] = [
        MisState::Down1,
        MisState::Down2,
        MisState::Up0,
        MisState::Up1,
        MisState::Up2,
        MisState::Win,
        MisState::Lose,
    ];

    /// The letter announcing this state.
    pub fn letter(self) -> Letter {
        Letter(self as u16)
    }

    /// Whether this is one of the three `UP` states.
    pub fn is_up(self) -> bool {
        matches!(self, MisState::Up0 | MisState::Up1 | MisState::Up2)
    }

    /// Whether this is an active (non-output) state.
    pub fn is_active(self) -> bool {
        !matches!(self, MisState::Win | MisState::Lose)
    }

    /// The `UP_j` state for `j ∈ {0, 1, 2}`.
    pub fn up(j: u8) -> MisState {
        match j % 3 {
            0 => MisState::Up0,
            1 => MisState::Up1,
            _ => MisState::Up2,
        }
    }

    /// For an `UP_j` state, its index `j`.
    pub fn up_index(self) -> Option<u8> {
        match self {
            MisState::Up0 => Some(0),
            MisState::Up1 => Some(1),
            MisState::Up2 => Some(2),
            _ => None,
        }
    }

    /// The state encoded by [`MisState::letter`]'s index, used by the
    /// snapshot codec.
    pub fn from_index(i: u16) -> Option<MisState> {
        MisState::ALL.get(i as usize).copied()
    }

    /// The paper's delaying set `D(q)`: the node stays in `q` while any
    /// neighbor announces a state in `D(q)`.
    pub fn delaying_set(self) -> &'static [MisState] {
        match self {
            // DOWN1 is delayed by DOWN2.
            MisState::Down1 => &[MisState::Down2],
            // DOWN2 is delayed by all three UP states.
            MisState::Down2 => &[MisState::Up0, MisState::Up1, MisState::Up2],
            // UP_j is delayed by UP_{j-1 mod 3}; UP0 also by DOWN1.
            MisState::Up0 => &[MisState::Up2, MisState::Down1],
            MisState::Up1 => &[MisState::Up0],
            MisState::Up2 => &[MisState::Up1],
            MisState::Win | MisState::Lose => &[],
        }
    }
}

// Checkpoint/resume support: one byte per node, validated on decode so
// a corrupt frame surfaces as a typed error instead of a bogus state.
impl stoneage_sim::SnapState for MisState {
    fn encode(&self, w: &mut stoneage_sim::SnapWriter) {
        w.u8(*self as u8);
    }

    fn decode(r: &mut stoneage_sim::SnapReader<'_>) -> Result<Self, stoneage_sim::SnapshotError> {
        MisState::from_index(u16::from(r.u8()?)).ok_or(
            stoneage_sim::SnapshotError::DigestMismatch {
                field: "mis state tag",
            },
        )
    }
}

/// The MIS protocol of Section 4, as a [`MultiFsm`] with `b = 1`.
///
/// Compile through [`stoneage_core::SingleLetter`] and
/// [`stoneage_core::Synchronized`] for asynchronous execution; run directly
/// on the synchronous engine otherwise.
#[derive(Clone, Debug)]
pub struct MisProtocol {
    alphabet: Alphabet,
}

impl Default for MisProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl MisProtocol {
    /// Builds the protocol.
    pub fn new() -> Self {
        MisProtocol {
            alphabet: Alphabet::new(["DOWN1", "DOWN2", "UP0", "UP1", "UP2", "WIN", "LOSE"]),
        }
    }

    /// Whether a neighbor in a delaying state pins `q` in place.
    fn is_delayed(&self, q: MisState, obs: &ObsVec) -> bool {
        q.delaying_set()
            .iter()
            .any(|d| !obs.get(d.letter()).is_zero())
    }

    /// The emission rule: transmit the target state's letter exactly on a
    /// state *change*.
    fn moving(from: MisState, to: MisState) -> (MisState, Option<Letter>) {
        if from == to {
            (to, None)
        } else {
            (to, Some(to.letter()))
        }
    }
}

impl stoneage_core::Protocol for MisProtocol {
    type State = MisState;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        1
    }

    fn initial_letter(&self) -> Letter {
        MisState::Down1.letter()
    }

    fn initial_state(&self, _input: usize) -> MisState {
        MisState::Down1
    }

    fn output(&self, q: &MisState) -> Option<u64> {
        match q {
            MisState::Win => Some(1),
            MisState::Lose => Some(0),
            _ => None,
        }
    }
}

impl MultiFsm for MisProtocol {
    fn delta(&self, q: &MisState, obs: &ObsVec) -> Transitions<MisState> {
        let q = *q;
        // Sinks first.
        if let MisState::Win | MisState::Lose = q {
            return Transitions::det(q, None);
        }
        // Delaying sets: stay (silently) while a neighbor delays us.
        if self.is_delayed(q, obs) {
            return Transitions::det(q, None);
        }
        match q {
            MisState::Down1 => {
                // Start the tournament's UP climb.
                Transitions::det(MisState::Up0, Some(MisState::Up0.letter()))
            }
            MisState::Down2 => {
                // A WIN next door ⇒ LOSE; otherwise start a new tournament.
                let heard_win = !obs.get(MisState::Win.letter()).is_zero();
                let to = if heard_win {
                    MisState::Lose
                } else {
                    MisState::Down1
                };
                Transitions::det(to, Some(to.letter()))
            }
            up => {
                let j = up.up_index().expect("remaining states are UP states");
                let next_up = MisState::up(j + 1);
                // Fair coin: heads climbs to UP_{j+1}; tails ends the
                // tournament — WIN if no neighbor is in UP_j or UP_{j+1}
                // (our tournament outlasted theirs), DOWN2 otherwise.
                let heads = Self::moving(up, next_up);
                let rivals =
                    !obs.get(up.letter()).is_zero() || !obs.get(next_up.letter()).is_zero();
                let tails = if rivals {
                    Self::moving(up, MisState::Down2)
                } else {
                    Self::moving(up, MisState::Win)
                };
                Transitions::uniform([heads, tails])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoneage_core::Protocol as _;
    use stoneage_core::{fb, BoundedCount};
    use stoneage_graph::{generators, validate};
    use stoneage_sim::SyncConfig;

    #[test]
    fn snap_state_round_trips_and_rejects_bad_tags() {
        use stoneage_sim::{SnapReader, SnapState, SnapWriter, SnapshotError};
        let mut w = SnapWriter::new();
        for s in MisState::ALL {
            s.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, "test");
        for s in MisState::ALL {
            assert_eq!(MisState::decode(&mut r).unwrap(), s);
        }
        let mut r = SnapReader::new(&[0xFF], "test");
        assert_eq!(
            MisState::decode(&mut r),
            Err(SnapshotError::DigestMismatch {
                field: "mis state tag"
            })
        );
    }
    use stoneage_testkit::harness::run_sync;

    fn obs(counts: [usize; 7]) -> ObsVec {
        ObsVec::from_counts(&counts, 1)
    }

    #[test]
    fn alphabet_mirrors_states() {
        let p = MisProtocol::new();
        assert_eq!(p.alphabet().len(), 7);
        for s in MisState::ALL {
            assert_eq!(
                p.alphabet().name(s.letter()),
                format!("{s:?}").to_uppercase()
            );
        }
        assert_eq!(p.bound(), 1);
        assert_eq!(p.initial_letter(), MisState::Down1.letter());
    }

    #[test]
    fn outputs_are_win_lose_only() {
        let p = MisProtocol::new();
        assert_eq!(p.output(&MisState::Win), Some(1));
        assert_eq!(p.output(&MisState::Lose), Some(0));
        for s in [
            MisState::Down1,
            MisState::Down2,
            MisState::Up0,
            MisState::Up1,
            MisState::Up2,
        ] {
            assert_eq!(p.output(&s), None);
        }
    }

    #[test]
    fn down1_is_delayed_by_down2() {
        let p = MisProtocol::new();
        let t = p.delta(&MisState::Down1, &obs([0, 1, 0, 0, 0, 0, 0]));
        assert_eq!(t.choices(), vec![(MisState::Down1, None)]);
        // Not delayed: moves up, announcing UP0.
        let t = p.delta(&MisState::Down1, &obs([5, 0, 3, 0, 0, 2, 0]));
        assert_eq!(
            t.choices(),
            vec![(MisState::Up0, Some(MisState::Up0.letter()))]
        );
    }

    #[test]
    fn down2_loses_on_win_and_restarts_otherwise() {
        let p = MisProtocol::new();
        // Delayed by any UP neighbor.
        for up in [2usize, 3, 4] {
            let mut c = [0usize; 7];
            c[up] = 1;
            let t = p.delta(&MisState::Down2, &obs(c));
            assert_eq!(t.choices(), vec![(MisState::Down2, None)]);
        }
        // WIN next door → LOSE.
        let t = p.delta(&MisState::Down2, &obs([0, 0, 0, 0, 0, 2, 0]));
        assert_eq!(
            t.choices(),
            vec![(MisState::Lose, Some(MisState::Lose.letter()))]
        );
        // Quiet neighborhood → new tournament.
        let t = p.delta(&MisState::Down2, &obs([1, 1, 0, 0, 0, 0, 3]));
        assert_eq!(
            t.choices(),
            vec![(MisState::Down1, Some(MisState::Down1.letter()))]
        );
    }

    #[test]
    fn up_states_flip_fair_coins() {
        let p = MisProtocol::new();
        // UP0 with no rivals: heads → UP1, tails → WIN.
        let t = p.delta(&MisState::Up0, &obs([0, 1, 0, 0, 0, 0, 1]));
        assert_eq!(t.choices().len(), 2);
        assert_eq!(
            t.choices()[0],
            (MisState::Up1, Some(MisState::Up1.letter()))
        );
        assert_eq!(
            t.choices()[1],
            (MisState::Win, Some(MisState::Win.letter()))
        );
        // UP0 with a rival in UP0 or UP1: tails → DOWN2.
        for rival in [2usize, 3] {
            let mut c = [0usize; 7];
            c[rival] = 1;
            let t = p.delta(&MisState::Up0, &obs(c));
            assert_eq!(
                t.choices()[1],
                (MisState::Down2, Some(MisState::Down2.letter()))
            );
        }
        // UP0 is delayed by UP2 and DOWN1.
        for delayer in [4usize, 0] {
            let mut c = [0usize; 7];
            c[delayer] = 1;
            let t = p.delta(&MisState::Up0, &obs(c));
            assert_eq!(t.choices(), vec![(MisState::Up0, None)]);
        }
    }

    #[test]
    fn up2_wraps_to_up0() {
        let p = MisProtocol::new();
        let t = p.delta(&MisState::Up2, &obs([0; 7]));
        assert_eq!(
            t.choices()[0],
            (MisState::Up0, Some(MisState::Up0.letter()))
        );
        // Rivals for UP2 are UP2 and UP0.
        let t = p.delta(&MisState::Up2, &obs([0, 0, 1, 0, 0, 0, 0]));
        assert_eq!(
            t.choices()[1],
            (MisState::Down2, Some(MisState::Down2.letter()))
        );
    }

    #[test]
    fn sinks_are_absorbing_and_silent() {
        let p = MisProtocol::new();
        for s in [MisState::Win, MisState::Lose] {
            let t = p.delta(&s, &obs([1, 1, 1, 1, 1, 1, 1]));
            assert_eq!(t.choices(), vec![(s, None)]);
        }
    }

    #[test]
    fn staying_never_transmits_moving_always_does() {
        // Exhaustive over states × a sample of observations: emissions
        // occur exactly on state changes, and announce the target state.
        let p = MisProtocol::new();
        let samples = [
            [0usize; 7],
            [1, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0],
            [1, 1, 1, 1, 1, 1, 1],
        ];
        for s in MisState::ALL {
            for c in samples {
                for &(to, emission) in p.delta(&s, &obs(c)).choices() {
                    if to == s {
                        assert_eq!(emission, None, "{s:?} stayed but transmitted");
                    } else {
                        assert_eq!(
                            emission,
                            Some(to.letter()),
                            "{s:?} → {to:?} must announce the target"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_wins_quickly() {
        let g = stoneage_graph::Graph::empty(1);
        let out = run_sync(&MisProtocol::new(), &g, &SyncConfig::seeded(3)).unwrap();
        assert_eq!(out.outputs, vec![1]);
    }

    #[test]
    fn two_cliques_bridge_produces_valid_mis() {
        let g = generators::ring_of_cliques(3, 4);
        for seed in 0..10 {
            let out = run_sync(&MisProtocol::new(), &g, &SyncConfig::seeded(seed)).unwrap();
            let mis = crate::decode_mis(&out.outputs);
            assert!(
                validate::is_maximal_independent_set(&g, &mis),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn mis_on_many_graph_families() {
        let graphs: Vec<(&str, stoneage_graph::Graph)> = vec![
            ("path", generators::path(40)),
            ("cycle", generators::cycle(41)),
            ("complete", generators::complete(12)),
            ("star", generators::star(30)),
            ("grid", generators::grid(6, 7)),
            ("tree", generators::random_tree(60, 5)),
            ("gnp", generators::gnp(80, 0.08, 6)),
            ("regular", generators::random_regular(30, 4, 7)),
            ("hypercube", generators::hypercube(5)),
            ("empty", stoneage_graph::Graph::empty(10)),
        ];
        for (name, g) in &graphs {
            for seed in 0..3 {
                let out = run_sync(&MisProtocol::new(), g, &SyncConfig::seeded(seed))
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                let mis = crate::decode_mis(&out.outputs);
                assert!(
                    validate::is_maximal_independent_set(g, &mis),
                    "{name} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_everyone_wins() {
        let g = stoneage_graph::Graph::empty(5);
        let out = run_sync(&MisProtocol::new(), &g, &SyncConfig::seeded(0)).unwrap();
        assert_eq!(out.outputs, vec![1; 5]);
    }

    #[test]
    fn complete_graph_exactly_one_winner() {
        let g = generators::complete(9);
        for seed in 0..5 {
            let out = run_sync(&MisProtocol::new(), &g, &SyncConfig::seeded(seed)).unwrap();
            let winners = out.outputs.iter().filter(|&&o| o == 1).count();
            assert_eq!(winners, 1, "seed {seed}");
        }
    }

    #[test]
    fn bounded_count_is_beeping_level() {
        // The protocol never needs to distinguish counts above 1.
        let p = MisProtocol::new();
        let saturated: BoundedCount = fb(100, 1);
        assert_eq!(saturated, fb(1, 1));
        assert_eq!(p.bound(), 1);
    }
}
