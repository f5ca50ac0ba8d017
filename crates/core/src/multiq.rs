//! Elimination of **multiple-letter queries** (Theorem 3.4): compiling a
//! [`MultiFsm`] down to a single-letter-query [`Fsm`] by subdividing each
//! round into `|Σ|` subrounds, one per letter.
//!
//! During the subrounds the node accumulates `f_b(#σ)` for each `σ ∈ Σ` into
//! its state; at the last subround it applies the wrapped protocol's
//! transition on the completed observation vector and performs the wrapped
//! protocol's emission. All earlier subrounds transmit `ε`, so ports are
//! only overwritten at (simulated) round boundaries — exactly the paper's
//! timing.
//!
//! The compiled protocol advances its subround index *unconditionally*, so
//! under a lockstep synchronous execution (or under the exact-count
//! semantics provided by [`crate::Synchronized`] — see that module's
//! documentation) all nodes stay on the same subround schedule and every
//! gather observes the counts as of the previous simulated round.
//!
//! The in-place [`Fsm::step`] pushes each subround's count onto the
//! node's own gather buffer and clears it when the round completes, so
//! the buffer keeps its capacity from round to round; [`Fsm::delta`]
//! builds the same successor on a copy.

use crate::{Alphabet, BoundedCount, Fsm, Letter, MultiFsm, ObsVec, Transitions};

/// A state of the compiled protocol: the wrapped state plus the truncated
/// counts gathered so far this round (`counts.len()` is the subround
/// index, i.e. the next letter to query).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct GatherState<S> {
    /// The wrapped protocol's state for the round being simulated.
    pub inner: S,
    /// Truncated counts for letters `0..counts.len()`.
    pub counts: Vec<u8>,
}

/// The multiple-letter-query eliminator of Theorem 3.4, as an [`Fsm`]
/// combinator over any [`MultiFsm`].
///
/// State count multiplies by at most `Σ_{k<|Σ|} (b+1)^k` (constant in the
/// network); round count multiplies by exactly `|Σ|`.
#[derive(Clone, Debug)]
pub struct SingleLetter<P: MultiFsm> {
    inner: P,
}

impl<P: MultiFsm> SingleLetter<P> {
    /// Compiles `inner` down to single-letter queries.
    pub fn new(inner: P) -> Self {
        SingleLetter { inner }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The subround multiplier: each simulated round takes exactly `|Σ|`
    /// compiled rounds.
    pub fn rounds_per_round(&self) -> usize {
        self.inner.alphabet().len()
    }

    /// The wrapped round's observation vector from a complete gather.
    fn observation(&self, counts: &[u8]) -> ObsVec {
        let b = self.inner.bound();
        ObsVec::new(
            counts
                .iter()
                .map(|&raw| BoundedCount::from_raw(raw, b))
                .collect(),
        )
    }
}

impl<P: MultiFsm> crate::Protocol for SingleLetter<P> {
    type State = GatherState<P::State>;

    fn alphabet(&self) -> &Alphabet {
        self.inner.alphabet()
    }

    fn bound(&self) -> u8 {
        self.inner.bound()
    }

    fn initial_letter(&self) -> Letter {
        self.inner.initial_letter()
    }

    fn initial_state(&self, input: usize) -> Self::State {
        GatherState {
            inner: self.inner.initial_state(input),
            counts: Vec::new(),
        }
    }

    fn output(&self, q: &Self::State) -> Option<u64> {
        self.inner.output(&q.inner)
    }
}

impl<P: MultiFsm> Fsm for SingleLetter<P> {
    fn query(&self, q: &Self::State) -> Letter {
        debug_assert!(q.counts.len() < self.inner.alphabet().len());
        Letter(q.counts.len() as u16)
    }

    fn delta(&self, q: &Self::State, observed: BoundedCount) -> Transitions<Self::State> {
        let sigma = self.inner.alphabet().len();
        let mut counts = q.counts.clone();
        counts.push(observed.raw());
        if counts.len() < sigma {
            // More letters to gather; stay silent.
            return Transitions::det(
                GatherState {
                    inner: q.inner.clone(),
                    counts,
                },
                None,
            );
        }
        // Observation vector complete: simulate the wrapped round.
        self.inner
            .delta(&q.inner, &self.observation(&counts))
            .map_states(|inner| GatherState {
                inner,
                counts: Vec::new(),
            })
    }

    fn step<R: rand::Rng + ?Sized>(
        &self,
        q: &mut Self::State,
        observed: BoundedCount,
        rng: &mut R,
    ) -> Option<Letter> {
        q.counts.push(observed.raw());
        if q.counts.len() < self.inner.alphabet().len() {
            return None;
        }
        let obs = self.observation(&q.counts);
        q.counts.clear();
        self.inner.step(&mut q.inner, &obs, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb;
    use crate::Protocol as _;

    /// A toy multi-letter protocol over Σ = {x, y}: from `start`, move to
    /// output 10 + #x + 10·#y (b = 2) and emit `y` iff #x > 0.
    #[derive(Clone, Debug)]
    struct Toy {
        alphabet: Alphabet,
    }

    impl Toy {
        fn new() -> Self {
            Toy {
                alphabet: Alphabet::new(["x", "y"]),
            }
        }
    }

    #[derive(Clone, PartialEq, Eq, Debug)]
    enum ToyState {
        Start,
        Done(u64),
    }

    impl crate::Protocol for Toy {
        type State = ToyState;

        fn alphabet(&self) -> &Alphabet {
            &self.alphabet
        }

        fn bound(&self) -> u8 {
            2
        }

        fn initial_letter(&self) -> Letter {
            Letter(0)
        }

        fn initial_state(&self, _input: usize) -> ToyState {
            ToyState::Start
        }

        fn output(&self, q: &ToyState) -> Option<u64> {
            match q {
                ToyState::Start => None,
                ToyState::Done(v) => Some(*v),
            }
        }
    }

    impl MultiFsm for Toy {
        fn delta(&self, q: &ToyState, obs: &ObsVec) -> Transitions<ToyState> {
            match q {
                ToyState::Start => {
                    let x = obs.get(Letter(0)).raw() as u64;
                    let y = obs.get(Letter(1)).raw() as u64;
                    let emit = if x > 0 { Some(Letter(1)) } else { None };
                    Transitions::det(ToyState::Done(10 + x + 10 * y), emit)
                }
                done => Transitions::det(done.clone(), None),
            }
        }
    }

    #[test]
    fn gather_walks_all_letters_then_applies_inner() {
        let p = SingleLetter::new(Toy::new());
        let q0 = p.initial_state(0);
        assert_eq!(q0.counts.len(), 0);
        assert_eq!(p.query(&q0), Letter(0));
        assert_eq!(p.output(&q0), None);

        // Subround 1: observe #x = 1 (truncated at b = 2).
        let t = p.delta(&q0, fb(1, 2));
        assert_eq!(t.choices().len(), 1);
        let (q1, e1) = &t.choices()[0];
        assert_eq!(e1, &None);
        assert_eq!(q1.counts, vec![1]);
        assert_eq!(p.query(q1), Letter(1));

        // Subround 2: observe #y = 5 → truncated to 2; round completes.
        let t = p.delta(q1, fb(5, 2));
        let (q2, e2) = &t.choices()[0];
        assert_eq!(e2, &Some(Letter(1))); // inner emitted y because #x > 0
        assert_eq!(q2.inner, ToyState::Done(10 + 1 + 20));
        assert_eq!(q2.counts.len(), 0);
        assert_eq!(p.output(q2), Some(31));
    }

    #[test]
    fn rounds_multiplier_is_alphabet_size() {
        let p = SingleLetter::new(Toy::new());
        assert_eq!(p.rounds_per_round(), 2);
    }

    #[test]
    fn alphabet_and_bound_pass_through() {
        let p = SingleLetter::new(Toy::new());
        assert_eq!(p.alphabet().len(), 2);
        assert_eq!(p.bound(), 2);
        assert_eq!(p.initial_letter(), Letter(0));
    }

    #[test]
    fn zero_observations_emit_epsilon() {
        let p = SingleLetter::new(Toy::new());
        let q0 = p.initial_state(0);
        let t = p.delta(&q0, fb(0, 2));
        let (q1, _) = &t.choices()[0];
        let t = p.delta(q1, fb(0, 2));
        let (q2, e) = &t.choices()[0];
        assert_eq!(e, &None);
        assert_eq!(p.output(q2), Some(10));
    }
}
