//! The **synchronizer** of Theorem 3.1: a black-box compiler turning a
//! protocol `Π` designed for a *locally synchronous* environment into a
//! protocol `Π̂` that is correct in the fully asynchronous environment of
//! Section 2, at a constant multiplicative run-time overhead.
//!
//! # The construction (Section 3.1 of the paper)
//!
//! Round `t` of `Π` is simulated by a *simulation phase* of `Π̂` consisting
//! of a **pausing feature** followed by a **simulating feature**. The
//! compiled alphabet is
//!
//! ```text
//! Σ̂ = (Σ ∪ {ε}) × (Σ ∪ {ε}) × {0, 1, 2}
//! ```
//!
//! and the message `M_v(t) = (σ, σ′, j)` transmitted at the end of `v`'s
//! phase `t` encodes `v`'s **retained letter** after round `t-1` (`σ`),
//! after round `t` (`σ′`), and the *trit* `j = t mod 3`. The retained
//! letter is the last non-`ε` letter transmitted so far (starting at
//! `σ₀`): this is what synchronization property (S2) makes ports store —
//! an `ε` emission leaves a port untouched — so it, and not the literal
//! per-round emission, is what the simulated transition must count. (A
//! protocol like the paper's MIS machine transmits only on state changes;
//! carrying literal emissions would make silent neighbors invisible.)
//!
//! * The **pausing feature** holds `v` until no port contains a *dirty*
//!   letter (trit `t - 2 mod 3`), which establishes synchronization
//!   property (S1): neighbors are never more than one round apart
//!   (Lemma 3.2).
//! * The **simulating feature** computes `f_b` of the number of neighbors
//!   that transmitted the query letter `σ = λ(q)` at round `t-1`. Such a
//!   transmission is visible either as the *second* component of a
//!   neighbor's `M_u(t-1)` (letter set `Γ_{t-1}`) or as the *first*
//!   component of `M_u(t)` (letter set `Γ_t`), depending on how far the
//!   neighbor has progressed. The feature scans `φ₁ ← f_b(Σ_{Γ_{t-1}})`,
//!   `φ₂ ← f_b(Σ_{Γ_t})`, then re-scans `φ₃ ← f_b(Σ_{Γ_{t-1}})` and
//!   restarts unless `φ₁ = φ₃` (the `Γ_{t-1}` count can only decrease, so
//!   at most `b + 1` attempts occur). On success it applies
//!   `δ(q, min(φ₁ + φ₂, b))` — exact by the homomorphism
//!   `f_b(x + y) = min(f_b(x) + f_b(y), b)`.
//!
//! Because every neighbor's `σ`-at-round-`t-1` information appears
//! consistently in *both* `M_u(t-1)` and `M_u(t)`, the simulated protocol
//! observes **exactly** the counts it would observe in a lockstep
//! synchronous execution — the guarantee the [`crate::SingleLetter`]
//! construction (Theorem 3.4) relies on when the two compilers are stacked
//! as `Synchronized<SingleLetter<P>>`.
//!
//! # Stepping in place
//!
//! All but one of every `(|Σ|+1)² + 3(|Σ|+1)` compiled steps of a quiet
//! phase (88 for the paper's MIS after [`crate::SingleLetter`]) are
//! bookkeeping: a pause check or a scan step that bumps a counter. The
//! compiled δ is written once, as an in-place helper that both
//! [`Fsm::delta`] (on a clone of the state) and the engines' hot-path
//! [`Fsm::step`] (on the node's own state) run. A step therefore clones
//! the inner state only when a feature hands over to the next — pausing
//! to simulating, and simulating to the next round's pausing — and the
//! simulated round itself is applied with the inner protocol's own
//! in-place `step`, drawing exactly as sampling δ does.

use crate::{Alphabet, BoundedCount, Fsm, Letter, Transitions};

/// Which of the three scans of the simulating feature is in progress.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Scan {
    /// First scan of `Γ_{t-1}` (computing `φ₁`).
    Phi1,
    /// Scan of `Γ_t` (computing `φ₂`).
    Phi2,
    /// Re-scan of `Γ_{t-1}` (computing `φ₃`, compared against `φ₁`).
    Phi3,
}

/// A state of the compiled protocol `Π̂`: the paper's pausing feature
/// `P_q × {j}` or simulating feature `S_q × {j}`, enriched with the
/// node's current retained letter (needed to assemble `M_v(t)`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SyncState<S> {
    /// Pausing feature: waiting until no dirty letter remains in any port.
    Pause {
        /// The simulated protocol's state `q` for the current round.
        inner: S,
        /// `v`'s retained letter after the previous simulated round.
        retained: Option<Letter>,
        /// `t mod 3` for the round being simulated.
        trit: u8,
        /// Index of the next dirty letter to check, in `0..(|Σ|+1)²`.
        check: u16,
    },
    /// Simulating feature: the three-scan count of the query letter.
    Sim {
        /// The simulated protocol's state `q` for the current round.
        inner: S,
        /// `v`'s retained letter after the previous simulated round.
        retained: Option<Letter>,
        /// `t mod 3` for the round being simulated.
        trit: u8,
        /// Which scan is running.
        scan: Scan,
        /// Index of the next `Σ ∪ {ε}` component to query, in `0..=|Σ|`.
        idx: u16,
        /// Running saturated sum of the current scan.
        acc: u8,
        /// Result of the `φ₁` scan (valid from `Phi2` on).
        phi1: u8,
        /// Result of the `φ₂` scan (valid during `Phi3`).
        phi2: u8,
    },
}

impl<S> SyncState<S> {
    /// The simulated protocol's state embedded in this compiled state.
    pub fn inner(&self) -> &S {
        match self {
            SyncState::Pause { inner, .. } | SyncState::Sim { inner, .. } => inner,
        }
    }

    /// The trit `t mod 3` of the round currently being simulated.
    pub fn trit(&self) -> u8 {
        match self {
            SyncState::Pause { trit, .. } | SyncState::Sim { trit, .. } => *trit,
        }
    }

    /// Whether the node is in the pausing feature.
    pub fn is_pausing(&self) -> bool {
        matches!(self, SyncState::Pause { .. })
    }
}

/// The synchronizer `Π ↦ Π̂` of Theorem 3.1, as an [`Fsm`] combinator.
///
/// The wrapped protocol must be a *single-letter-query* protocol designed
/// for a locally synchronous environment (compile multi-letter protocols
/// through [`crate::SingleLetter`] first). The result is correct under the
/// fully asynchronous semantics implemented by `stoneage-sim`'s
/// asynchronous executor, for every adversarial policy.
#[derive(Clone, Debug)]
pub struct Synchronized<P: Fsm> {
    inner: P,
    alphabet: Alphabet,
}

impl<P: Fsm> Synchronized<P> {
    /// Compiles `inner` through the synchronizer.
    pub fn new(inner: P) -> Self {
        let s = inner.alphabet().len();
        let mut names = Vec::with_capacity(3 * (s + 1) * (s + 1));
        for p in 0..=s {
            for c in 0..=s {
                for j in 0..3u8 {
                    let pn = if p == s {
                        "ε".to_owned()
                    } else {
                        inner.alphabet().name(Letter(p as u16)).to_owned()
                    };
                    let cn = if c == s {
                        "ε".to_owned()
                    } else {
                        inner.alphabet().name(Letter(c as u16)).to_owned()
                    };
                    names.push(format!("({pn},{cn},{j})"));
                }
            }
        }
        Synchronized {
            alphabet: Alphabet::new(names),
            inner,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn sigma(&self) -> usize {
        self.inner.alphabet().len()
    }

    /// Index of an emission in `Σ ∪ {ε}` (`ε` gets index `|Σ|`).
    fn emit_idx(&self, e: Option<Letter>) -> usize {
        e.map_or(self.sigma(), Letter::index)
    }

    /// Encodes the compiled letter `(p, c, j)` with `p, c ∈ 0..=|Σ|`
    /// (index `|Σ|` standing for `ε`) and `j ∈ {0, 1, 2}`.
    pub fn encode_indices(&self, p: usize, c: usize, j: u8) -> Letter {
        let s1 = self.sigma() + 1;
        debug_assert!(p < s1 && c < s1 && j < 3);
        Letter(((p * s1 + c) * 3 + j as usize) as u16)
    }

    /// Encodes the message `M_v(t) = (prev, cur, t mod 3)`.
    pub fn encode_message(&self, prev: Option<Letter>, cur: Option<Letter>, trit: u8) -> Letter {
        self.encode_indices(self.emit_idx(prev), self.emit_idx(cur), trit)
    }

    /// Decodes a compiled letter back into `(prev, cur, trit)` where `None`
    /// stands for `ε`.
    pub fn decode_message(&self, letter: Letter) -> (Option<Letter>, Option<Letter>, u8) {
        let s1 = (self.sigma() + 1) as u16;
        let j = (letter.0 % 3) as u8;
        let pc = letter.0 / 3;
        let c = pc % s1;
        let p = pc / s1;
        let to_emit = |x: u16| {
            if x as usize == self.sigma() {
                None
            } else {
                Some(Letter(x))
            }
        };
        (to_emit(p), to_emit(c), j)
    }

    /// `|Σ̂| = 3(|Σ| + 1)²` — the paper's `O(|Σ|²)` accounting.
    pub fn alphabet_size(&self) -> usize {
        3 * (self.sigma() + 1) * (self.sigma() + 1)
    }

    /// An upper bound on the number of *reachable* compiled states per
    /// inner state: `3` trits × `(|Σ|+1)` previous emissions ×
    /// `((|Σ|+1)² + 3(|Σ|+1)(b+1)²)` feature positions — constant in the
    /// network, polynomial in `|Σ|` and `b`, matching the paper's
    /// `|Q̂| = O(|Q|·(|Σ|² + |Σ|·b))` up to the bookkeeping factors.
    pub fn states_per_inner_state(&self) -> usize {
        let s1 = self.sigma() + 1;
        let b1 = self.inner.bound() as usize + 1;
        3 * s1 * (s1 * s1 + 3 * s1 * b1 * b1)
    }

    fn pause_checks(&self) -> u16 {
        let s1 = (self.sigma() + 1) as u16;
        s1 * s1
    }

    /// The bookkeeping half of one compiled step, applied to `q` in
    /// place: a pause check or a scan step. Returns `None` when the step
    /// was bookkeeping only (its emission is `ε`), and
    /// `Some(f_b(φ₁ + φ₂))` — leaving `q` untouched — when the `Φ₃` scan
    /// just confirmed `φ₁`, i.e. when the simulated round must now apply
    /// the inner δ to that count (see [`Synchronized::end_round`]).
    ///
    /// Both [`Fsm::delta`] and [`Fsm::step`] run this one transcription
    /// of the pausing and simulating features. The inner state is cloned
    /// only when the pausing feature hands over to the simulating one.
    fn advance(&self, q: &mut SyncState<P::State>, observed: BoundedCount) -> Option<BoundedCount> {
        let b = self.inner.bound();
        match q {
            SyncState::Pause {
                inner,
                retained,
                trit,
                check,
            } => {
                // A dirty letter holds the node in place; a clean check
                // moves on to the next one.
                if observed.is_zero() {
                    *check += 1;
                    if *check == self.pause_checks() {
                        *q = SyncState::Sim {
                            inner: inner.clone(),
                            retained: *retained,
                            trit: *trit,
                            scan: Scan::Phi1,
                            idx: 0,
                            acc: 0,
                            phi1: 0,
                            phi2: 0,
                        };
                    }
                }
                None
            }
            SyncState::Sim {
                scan,
                idx,
                acc,
                phi1,
                phi2,
                ..
            } => {
                let new_acc = (*acc + observed.raw()).min(b);
                if (*idx as usize) < self.sigma() {
                    *idx += 1;
                    *acc = new_acc;
                    return None;
                }
                match scan {
                    Scan::Phi1 => (*scan, *phi1, *phi2) = (Scan::Phi2, new_acc, 0),
                    Scan::Phi2 => (*scan, *phi2) = (Scan::Phi3, new_acc),
                    Scan::Phi3 if new_acc == *phi1 => {
                        return Some(BoundedCount::from_raw((*phi1 + *phi2).min(b), b));
                    }
                    // The Γ_{t-1} count moved underneath us: restart the
                    // simulating feature from scratch.
                    Scan::Phi3 => (*scan, *phi1, *phi2) = (Scan::Phi1, 0, 0),
                }
                (*idx, *acc) = (0, 0);
                None
            }
        }
    }

    /// The end of a simulated round: the node enters the next round's
    /// pausing feature in inner state `next` and transmits
    /// `M_v(t) = (retained after t-1, retained after t, t mod 3)` — an
    /// `ε` inner emission leaves the retained letter unchanged, exactly
    /// like a port under (S2).
    fn end_round(
        &self,
        next: P::State,
        emission: Option<Letter>,
        retained: Option<Letter>,
        trit: u8,
    ) -> (SyncState<P::State>, Option<Letter>) {
        let new_retained = emission.or(retained);
        let message = self.encode_message(retained, new_retained, trit);
        let state = SyncState::Pause {
            inner: next,
            retained: new_retained,
            trit: (trit + 1) % 3,
            check: 0,
        };
        (state, Some(message))
    }
}

impl<P: Fsm> crate::Protocol for Synchronized<P> {
    type State = SyncState<P::State>;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        self.inner.bound()
    }

    fn initial_letter(&self) -> Letter {
        // M_v(0) = (ε, σ₀, 0): the virtual round 0 "transmitted" σ₀.
        self.encode_message(None, Some(self.inner.initial_letter()), 0)
    }

    fn initial_state(&self, input: usize) -> Self::State {
        SyncState::Pause {
            inner: self.inner.initial_state(input),
            retained: Some(self.inner.initial_letter()),
            trit: 1,
            check: 0,
        }
    }

    fn output(&self, q: &Self::State) -> Option<u64> {
        self.inner.output(q.inner())
    }
}

impl<P: Fsm> Fsm for Synchronized<P> {
    fn query(&self, q: &Self::State) -> Letter {
        match q {
            SyncState::Pause { trit, check, .. } => {
                // Dirty letters carry trit t-2 ≡ t+1 (mod 3).
                let s1 = (self.sigma() + 1) as u16;
                let p = (check / s1) as usize;
                let c = (check % s1) as usize;
                self.encode_indices(p, c, (trit + 1) % 3)
            }
            SyncState::Sim {
                inner,
                trit,
                scan,
                idx,
                ..
            } => {
                let qi = self.inner.query(inner).index();
                match scan {
                    // Γ_{t-1}: σ appears as the *second* component, trit t-1.
                    Scan::Phi1 | Scan::Phi3 => {
                        self.encode_indices(*idx as usize, qi, (trit + 2) % 3)
                    }
                    // Γ_t: σ appears as the *first* component, trit t.
                    Scan::Phi2 => self.encode_indices(qi, *idx as usize, *trit),
                }
            }
        }
    }

    fn delta(&self, q: &Self::State, observed: BoundedCount) -> Transitions<Self::State> {
        let mut next = q.clone();
        let Some(count) = self.advance(&mut next, observed) else {
            return Transitions::det(next, None);
        };
        // Stable: simulate δ(q, f_b(φ₁ + φ₂)).
        let SyncState::Sim {
            inner,
            retained,
            trit,
            ..
        } = q
        else {
            unreachable!("a simulated round ends in the simulating feature")
        };
        Transitions::uniform(
            self.inner
                .delta(inner, count)
                .choices()
                .iter()
                .map(|(q_next, emission)| {
                    self.end_round(q_next.clone(), *emission, *retained, *trit)
                }),
        )
    }

    fn step<R: rand::Rng + ?Sized>(
        &self,
        q: &mut Self::State,
        observed: BoundedCount,
        rng: &mut R,
    ) -> Option<Letter> {
        let count = self.advance(q, observed)?;
        let SyncState::Sim {
            inner,
            retained,
            trit,
            ..
        } = q
        else {
            unreachable!("a simulated round ends in the simulating feature")
        };
        let emission = self.inner.step(inner, count, rng);
        let (next, message) = self.end_round(inner.clone(), emission, *retained, *trit);
        *q = next;
        message
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableProtocolBuilder;
    use crate::Protocol as _;
    use crate::{fb, TableProtocol};

    /// A toy 1-letter protocol: emit `a` once, then forever count `a`s and
    /// stay in a sink recording whether any neighbor beeped.
    fn beep_once() -> TableProtocol {
        let alphabet = Alphabet::new(["a"]);
        let mut b = TableProtocolBuilder::new("beep-once", alphabet, 1, Letter(0));
        let start = b.add_state("start", Letter(0));
        let wait = b.add_state("wait", Letter(0));
        let heard = b.add_output_state("heard", Letter(0), 1);
        b.add_input_state(start);
        b.set_transition_all(start, Transitions::det(wait, Some(Letter(0))));
        b.set_transition(wait, 0, Transitions::det(wait, None));
        b.set_transition(wait, 1, Transitions::det(heard, None));
        b.set_transition_all(heard, Transitions::det(heard, None));
        b.build().unwrap()
    }

    #[test]
    fn alphabet_size_is_3_sigma_plus_1_squared() {
        let p = Synchronized::new(beep_once());
        assert_eq!(p.alphabet_size(), 3 * 2 * 2);
        assert_eq!(p.alphabet().len(), 12);
    }

    #[test]
    fn message_encoding_round_trips() {
        let p = Synchronized::new(beep_once());
        for prev in [None, Some(Letter(0))] {
            for cur in [None, Some(Letter(0))] {
                for trit in 0..3u8 {
                    let l = p.encode_message(prev, cur, trit);
                    assert!(p.alphabet().contains(l));
                    assert_eq!(p.decode_message(l), (prev, cur, trit));
                }
            }
        }
    }

    #[test]
    fn initial_letter_is_virtual_round_zero() {
        let p = Synchronized::new(beep_once());
        let (prev, cur, trit) = p.decode_message(p.initial_letter());
        assert_eq!(prev, None);
        assert_eq!(cur, Some(Letter(0)));
        assert_eq!(trit, 0);
    }

    #[test]
    fn initial_state_starts_phase_one_pausing() {
        let p = Synchronized::new(beep_once());
        match p.initial_state(0) {
            SyncState::Pause {
                inner,
                retained,
                trit,
                check,
            } => {
                assert_eq!(inner, 0);
                assert_eq!(retained, Some(Letter(0)));
                assert_eq!(trit, 1);
                assert_eq!(check, 0);
            }
            other => panic!("expected Pause, got {other:?}"),
        }
    }

    #[test]
    fn pause_stays_on_dirty_letter() {
        let p = Synchronized::new(beep_once());
        let q = p.initial_state(0);
        // Observing a dirty letter (count ≥ 1) keeps the node in place.
        let t = p.delta(&q, fb(1, 1));
        assert_eq!(t.choices().len(), 1);
        assert_eq!(t.choices()[0].0, q);
        assert_eq!(t.choices()[0].1, None);
    }

    #[test]
    fn pause_advances_through_all_checks_then_sims() {
        let p = Synchronized::new(beep_once());
        let mut q = p.initial_state(0);
        // (|Σ|+1)² = 4 checks, all observing zero.
        for _ in 0..4 {
            assert!(q.is_pausing());
            let t = p.delta(&q, fb(0, 1));
            q = t.choices()[0].0.clone();
        }
        assert!(!q.is_pausing());
        match &q {
            SyncState::Sim { scan, idx, .. } => {
                assert_eq!(*scan, Scan::Phi1);
                assert_eq!(*idx, 0);
            }
            other => panic!("expected Sim, got {other:?}"),
        }
    }

    #[test]
    fn pause_query_letters_are_dirty_trit() {
        let p = Synchronized::new(beep_once());
        let q = p.initial_state(0);
        // Phase trit 1 ⇒ dirty trit 2.
        let (_, _, trit) = p.decode_message(p.query(&q));
        assert_eq!(trit, 2);
    }

    #[test]
    fn sim_completes_and_emits_compiled_message() {
        let p = Synchronized::new(beep_once());
        let mut q = p.initial_state(0);
        // Walk pause (4 checks) + Φ₁ (2) + Φ₂ (2) + Φ₃ (2) with all-zero
        // observations: the inner `start` state then transitions to `wait`
        // emitting letter a; the compiled emission is (σ₀, a, 1).
        let mut emitted = None;
        for _ in 0..10 {
            let t = p.delta(&q, fb(0, 1));
            assert_eq!(t.choices().len(), 1);
            emitted = t.choices()[0].1;
            q = t.choices()[0].0.clone();
            if emitted.is_some() {
                break;
            }
        }
        let msg = emitted.expect("phase should complete in 10 steps");
        let (prev, cur, trit) = p.decode_message(msg);
        assert_eq!(prev, Some(Letter(0))); // σ₀ from virtual round 0
        assert_eq!(cur, Some(Letter(0))); // `start` emits a
        assert_eq!(trit, 1);
        // And the node is now pausing for round 2 with inner = wait (1).
        match &q {
            SyncState::Pause {
                inner,
                retained,
                trit,
                check,
            } => {
                assert_eq!(*inner, 1);
                assert_eq!(*retained, Some(Letter(0)));
                assert_eq!(*trit, 2);
                assert_eq!(*check, 0);
            }
            other => panic!("expected Pause, got {other:?}"),
        }
    }

    #[test]
    fn phi3_mismatch_restarts_the_scan() {
        let p = Synchronized::new(beep_once());
        // Construct a Sim state at the last step of Φ₃ with phi1 = 1 and a
        // current observation that makes φ₃ = 0 ≠ φ₁.
        let q = SyncState::Sim {
            inner: 0u16,
            retained: Some(Letter(0)),
            trit: 1,
            scan: Scan::Phi3,
            idx: 1, // last index (|Σ| = 1)
            acc: 0,
            phi1: 1,
            phi2: 0,
        };
        let t = p.delta(&q, fb(0, 1));
        match &t.choices()[0].0 {
            SyncState::Sim { scan, idx, acc, .. } => {
                assert_eq!(*scan, Scan::Phi1);
                assert_eq!(*idx, 0);
                assert_eq!(*acc, 0);
            }
            other => panic!("expected restarted Sim, got {other:?}"),
        }
        assert_eq!(t.choices()[0].1, None);
    }

    #[test]
    fn output_tracks_inner_state() {
        let p = Synchronized::new(beep_once());
        let q = p.initial_state(0);
        assert_eq!(p.output(&q), None);
        let done = SyncState::Pause {
            inner: 2u16, // `heard`, output 1
            retained: None,
            trit: 0,
            check: 0,
        };
        assert_eq!(p.output(&done), Some(1));
    }

    #[test]
    fn accounting_is_constant_in_the_network() {
        let p = Synchronized::new(beep_once());
        // |Q̂| per inner state depends only on |Σ| and b.
        assert_eq!(p.states_per_inner_state(), 3 * 2 * (2 * 2 + 3 * 2 * 2 * 2));
    }
}
