//! Property-based tests for the protocol combinators: letter encoding
//! round-trips, pause/scan structure, and size accounting under randomly
//! sized inner protocols — and the equivalence of the in-place
//! `step` with sampling `delta`, the contract that lets the engines use
//! `step` on their hot paths.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use stoneage_core::sync::{Scan, SyncState};
use stoneage_core::{
    fb, Alphabet, AsMulti, BoundedCount, Fsm, Letter, MultiFsm, ObsVec, Protocol, SingleLetter,
    Synchronized, TableProtocol, TableProtocolBuilder, Transitions,
};
use stoneage_protocols::MisProtocol;

/// A degenerate but well-formed single-letter protocol with `sigma`
/// letters, `b = bound`, that spins in its initial state.
fn spinner(sigma: usize, bound: u8) -> TableProtocol {
    let alphabet = Alphabet::anonymous(sigma);
    let mut b = TableProtocolBuilder::new("spinner", alphabet, bound, Letter(0));
    let s = b.add_state("s", Letter(0));
    b.add_input_state(s);
    b.set_transition_all(s, Transitions::det(s, None));
    b.build().unwrap()
}

proptest! {
    /// Compiled-message encoding is a bijection over
    /// (Σ∪{ε}) × (Σ∪{ε}) × {0,1,2} for every alphabet size.
    #[test]
    fn sync_message_codec_round_trips(sigma in 1usize..12, bound in 1u8..4) {
        let p = Synchronized::new(spinner(sigma, bound));
        let mut seen = std::collections::HashSet::new();
        let emissions: Vec<Option<Letter>> = (0..sigma as u16)
            .map(|i| Some(Letter(i)))
            .chain(std::iter::once(None))
            .collect();
        for &prev in &emissions {
            for &cur in &emissions {
                for trit in 0..3u8 {
                    let l = p.encode_message(prev, cur, trit);
                    prop_assert!(p.alphabet().contains(l));
                    prop_assert!(seen.insert(l), "duplicate letter {l:?}");
                    prop_assert_eq!(p.decode_message(l), (prev, cur, trit));
                }
            }
        }
        prop_assert_eq!(seen.len(), p.alphabet_size());
        prop_assert_eq!(p.alphabet_size(), 3 * (sigma + 1) * (sigma + 1));
    }

    /// The pausing feature walks exactly (|Σ|+1)² zero-observations before
    /// entering the simulating feature, regardless of alphabet size.
    #[test]
    fn pause_walk_length(sigma in 1usize..8, bound in 1u8..4) {
        let p = Synchronized::new(spinner(sigma, bound));
        let mut q = p.initial_state(0);
        let mut steps = 0usize;
        while q.is_pausing() {
            let t = p.delta(&q, fb(0, bound));
            prop_assert_eq!(t.choices().len(), 1);
            prop_assert_eq!(t.choices()[0].1, None, "pausing never transmits");
            q = t.choices()[0].0.clone();
            steps += 1;
            prop_assert!(steps <= (sigma + 1) * (sigma + 1) + 1);
        }
        prop_assert_eq!(steps, (sigma + 1) * (sigma + 1));
        let at_sim_start = matches!(
            q,
            SyncState::Sim { scan: Scan::Phi1, idx: 0, .. }
        );
        prop_assert!(at_sim_start);
    }

    /// A full quiet phase (all observations zero) takes exactly
    /// (|Σ|+1)² + 3(|Σ|+1) steps and ends with a compiled transmission.
    #[test]
    fn quiet_phase_length(sigma in 1usize..8, bound in 1u8..4) {
        let p = Synchronized::new(spinner(sigma, bound));
        let mut q = p.initial_state(0);
        let mut steps = 0usize;
        let emitted = loop {
            let t = p.delta(&q, fb(0, bound));
            q = t.choices()[0].0.clone();
            steps += 1;
            if let Some(l) = t.choices()[0].1 {
                break l;
            }
            prop_assert!(steps < 10_000);
        };
        prop_assert_eq!(steps, (sigma + 1) * (sigma + 1) + 3 * (sigma + 1));
        // The spinner emits ε, so the message is (σ₀, σ₀, 1): the retained
        // letter is carried through silent rounds.
        prop_assert_eq!(
            p.decode_message(emitted),
            (Some(Letter(0)), Some(Letter(0)), 1)
        );
        // And the node is pausing for round 2.
        let pausing_round_two = matches!(q, SyncState::Pause { trit: 2, check: 0, .. });
        prop_assert!(pausing_round_two);
    }

    /// SingleLetter gathers letters in index order and queries every
    /// letter exactly once per simulated round.
    #[test]
    fn single_letter_gather_order(sigma in 1usize..10, bound in 1u8..4) {
        use stoneage_core::{MultiFsm, ObsVec};

        /// Trivial multi protocol that outputs the sum of all counts.
        #[derive(Clone, Debug)]
        struct Summer(Alphabet, u8);
        impl stoneage_core::Protocol for Summer {
            type State = Option<u64>;
            fn alphabet(&self) -> &Alphabet { &self.0 }
            fn bound(&self) -> u8 { self.1 }
            fn initial_letter(&self) -> Letter { Letter(0) }
            fn initial_state(&self, _input: usize) -> Option<u64> { None }
            fn output(&self, q: &Option<u64>) -> Option<u64> { *q }
        }
        impl MultiFsm for Summer {
            fn delta(&self, q: &Option<u64>, obs: &ObsVec) -> Transitions<Option<u64>> {
                match q {
                    None => {
                        let sum: u64 =
                            obs.as_slice().iter().map(|c| c.raw() as u64).sum();
                        Transitions::det(Some(sum), None)
                    }
                    done => Transitions::det(*done, None),
                }
            }
        }

        let p = SingleLetter::new(Summer(Alphabet::anonymous(sigma), bound));
        let mut q = p.initial_state(0);
        for k in 0..sigma {
            prop_assert_eq!(p.query(&q), Letter(k as u16), "subround {}", k);
            // Feed count k (truncated by b) for letter k.
            let t = p.delta(&q, fb(k, bound));
            q = t.choices()[0].0.clone();
        }
        let expected: u64 = (0..sigma).map(|k| k.min(bound as usize) as u64).sum();
        prop_assert_eq!(p.output(&q), Some(expected));
    }
}

/// A random well-formed single-letter table protocol: `states` states
/// over `sigma` letters with bound `bound`, every cell a uniform set of
/// one to four random `(state, emission)` pairs, every third state an
/// output state. A pure function of `seed`.
fn random_table(seed: u64, sigma: usize, bound: u8, states: usize) -> TableProtocol {
    let mut rng = SmallRng::seed_from_u64(seed);
    let alphabet = Alphabet::anonymous(sigma);
    let mut b = TableProtocolBuilder::new("random", alphabet, bound, Letter(0));
    let ids: Vec<_> = (0..states)
        .map(|i| {
            let query = Letter(rng.gen_range(0..sigma) as u16);
            if i % 3 == 2 {
                b.add_output_state(format!("o{i}"), query, i as u64)
            } else {
                b.add_state(format!("s{i}"), query)
            }
        })
        .collect();
    b.add_input_state(ids[0]);
    for &q in &ids {
        for o in 0..=bound {
            let size = rng.gen_range(1..5usize);
            let choices: Vec<_> = (0..size)
                .map(|_| {
                    let to = ids[rng.gen_range(0..states)];
                    let emission = rng
                        .gen_bool(0.5)
                        .then(|| Letter(rng.gen_range(0..sigma) as u16));
                    (to, emission)
                })
                .collect();
            b.set_transition(q, o, Transitions::uniform(choices));
        }
    }
    b.build().expect("random tables are well-formed")
}

/// A random observation `f_b(x)`: uniform in `1..=b` with probability
/// `busy`, zero otherwise (zeros let pause checks pass and scans
/// complete).
fn random_count(rng: &mut SmallRng, bound: u8, busy: f64) -> BoundedCount {
    let raw = if rng.gen_bool(busy) {
        rng.gen_range(1..=bound as usize)
    } else {
        0
    };
    fb(raw, bound)
}

/// Checks one step against `delta(..).into_sample`: equal next state,
/// equal emission, and RNGs left in the same position. Returns whether
/// the step drew from the RNG.
fn assert_same_step<S: PartialEq + std::fmt::Debug>(
    from: &S,
    (stepped, emission, mut step_rng): (S, Option<Letter>, SmallRng),
    (next, delta_emission, mut delta_rng): (S, Option<Letter>, SmallRng),
    rng: &SmallRng,
) -> bool {
    assert_eq!(stepped, next, "next state from {from:?}");
    assert_eq!(emission, delta_emission, "emission from {from:?}");
    let next_draw = step_rng.next_u64();
    assert_eq!(next_draw, delta_rng.next_u64(), "RNG use from {from:?}");
    next_draw != rng.clone().next_u64()
}

/// [`assert_same_step`] for a single-letter protocol.
fn check_step<P: Fsm>(p: &P, q: &P::State, observed: BoundedCount, rng: &SmallRng) -> bool {
    let (mut stepped, mut step_rng) = (q.clone(), rng.clone());
    let emission = p.step(&mut stepped, observed, &mut step_rng);
    let mut delta_rng = rng.clone();
    let (next, delta_emission) = p.delta(q, observed).into_sample(&mut delta_rng);
    assert_same_step(
        q,
        (stepped, emission, step_rng),
        (next, delta_emission, delta_rng),
        rng,
    )
}

/// [`assert_same_step`] for a multi-letter protocol.
fn check_multi_step<P: MultiFsm>(p: &P, q: &P::State, obs: &ObsVec, rng: &SmallRng) -> bool {
    let (mut stepped, mut step_rng) = (q.clone(), rng.clone());
    let emission = p.step(&mut stepped, obs, &mut step_rng);
    let mut delta_rng = rng.clone();
    let (next, delta_emission) = p.delta(q, obs).into_sample(&mut delta_rng);
    assert_same_step(
        q,
        (stepped, emission, step_rng),
        (next, delta_emission, delta_rng),
        rng,
    )
}

/// What a walk saw: non-`ε` emissions and steps that drew from the RNG
/// (so callers can assert the walk got past bookkeeping into simulated
/// rounds and coin flips).
#[derive(Debug, Default)]
struct Walk {
    emissions: usize,
    draws: usize,
}

/// Walks `steps` random observations (each busy with probability `busy`)
/// from `p`'s input state, checking `step` ≡ δ at every reachable state
/// on the way.
fn walk_fsm<P: Fsm>(p: &P, seed: u64, steps: usize, busy: f64) -> Walk {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q = p.initial_state(0);
    let mut walk = Walk::default();
    for _ in 0..steps {
        let observed = random_count(&mut rng, p.bound(), busy);
        let node_rng = SmallRng::seed_from_u64(rng.next_u64());
        walk.draws += check_step(p, &q, observed, &node_rng) as usize;
        let (next, emission) = p.delta(&q, observed).into_sample(&mut rng);
        walk.emissions += emission.is_some() as usize;
        q = next;
    }
    walk
}

/// The multi-letter twin of [`walk_fsm`].
fn walk_multi<P: MultiFsm>(p: &P, seed: u64, steps: usize, busy: f64) -> Walk {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q = p.initial_state(0);
    let sigma = p.alphabet().len();
    let mut walk = Walk::default();
    for _ in 0..steps {
        let counts = (0..sigma)
            .map(|_| random_count(&mut rng, p.bound(), busy))
            .collect();
        let obs = ObsVec::new(counts);
        let node_rng = SmallRng::seed_from_u64(rng.next_u64());
        walk.draws += check_multi_step(p, &q, &obs, &node_rng) as usize;
        let (next, emission) = p.delta(&q, &obs).into_sample(&mut rng);
        walk.emissions += emission.is_some() as usize;
        q = next;
    }
    walk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `step` ≡ δ on every combinator stack over random table protocols.
    #[test]
    fn step_matches_delta_on_random_tables(
        seed in 0u64..1 << 48,
        sigma in 1usize..4,
        bound in 1u8..4,
        states in 1usize..6,
    ) {
        let table = random_table(seed, sigma, bound, states);
        walk_fsm(&table, seed, 200, 0.5);
        walk_multi(&AsMulti(table.clone()), seed, 200, 0.5);
        walk_fsm(&SingleLetter::new(AsMulti(table.clone())), seed, 400, 0.5);
        let synchronized = Synchronized::new(table.clone());
        let walk = walk_fsm(&synchronized, seed, 3_000, 0.5);
        prop_assert!(walk.emissions > 0, "no simulated round ended: {:?}", walk);
        walk_multi(&AsMulti(synchronized), seed, 1_000, 0.5);
        let stacked = Synchronized::new(SingleLetter::new(AsMulti(table)));
        let walk = walk_fsm(&stacked, seed, 3_000, 0.5);
        prop_assert!(walk.emissions > 0, "no simulated round ended: {:?}", walk);
    }

    /// `step` ≡ δ on the paper's MIS protocol and its compilations. The
    /// neighborhoods are mostly quiet, so UP nodes are not pinned by
    /// their delaying sets and actually flip coins.
    #[test]
    fn step_matches_delta_on_mis(seed in 0u64..1 << 48) {
        let walk = walk_multi(&MisProtocol::new(), seed, 300, 0.05);
        prop_assert!(walk.draws > 0, "no coin flipped: {:?}", walk);
        let walk = walk_fsm(&SingleLetter::new(MisProtocol::new()), seed, 2_000, 0.05);
        prop_assert!(walk.draws > 0, "no coin flipped: {:?}", walk);
        let stacked = Synchronized::new(SingleLetter::new(MisProtocol::new()));
        let walk = walk_fsm(&stacked, seed, 30_000, 0.01);
        prop_assert!(walk.draws > 0, "no coin flipped: {:?}", walk);
    }

    /// `into_sample` moves out exactly the pair `sample` picks, with the
    /// same draws, for inline and spilled choice sets alike.
    #[test]
    fn into_sample_picks_what_sample_picks(seed in 0u64..1 << 48) {
        for size in [1usize, 2, 3, 7] {
            let t = Transitions::uniform((0..size).map(|i| (i, Some(Letter(i as u16)))));
            prop_assert_eq!(t.len(), size);
            let mut by_ref = SmallRng::seed_from_u64(seed);
            let mut by_move = SmallRng::seed_from_u64(seed);
            for _ in 0..16 {
                let picked = *t.sample(&mut by_ref);
                prop_assert_eq!(t.clone().into_sample(&mut by_move), picked, "size {}", size);
            }
            prop_assert_eq!(by_ref.next_u64(), by_move.next_u64(), "size {}", size);
        }
    }
}
