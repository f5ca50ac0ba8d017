//! Table-driven protocols: the 8-tuple `Π = ⟨Q, Q_I, Q_O, Σ, σ₀, b, λ, δ⟩`
//! as explicit data, with well-formedness validation and Graphviz export.
//!
//! Small protocols (like the paper's MIS machine, Figure 1, after
//! single-letterization) fit comfortably in a table; large compiled state
//! spaces use the lazy combinators in [`crate::sync`] and [`crate::multiq`]
//! instead.

use std::fmt::Write as _;

use crate::{Alphabet, BoundedCount, Fsm, Letter, Transitions};

/// Index of a state within a [`TableProtocol`].
pub type StateId = u16;

/// Errors detected by [`TableProtocol`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// `Q_I` is empty — nodes would have no initial state.
    NoInputStates,
    /// A referenced state id is out of range.
    BadStateId(StateId),
    /// A referenced letter is outside the alphabet.
    BadLetter(Letter),
    /// `δ(q, o)` has an empty choice set for a state/observation pair.
    EmptyTransition {
        /// The state whose transition set is empty.
        state: StateId,
        /// The raw observation value (`0..=b`).
        observation: u8,
    },
    /// The transition table rows don't match the state count, or a row
    /// doesn't have `b + 1` observation columns.
    MalformedTable,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NoInputStates => write!(f, "protocol has no input states"),
            ProtocolError::BadStateId(s) => write!(f, "state id {s} out of range"),
            ProtocolError::BadLetter(l) => write!(f, "letter {l:?} outside alphabet"),
            ProtocolError::EmptyTransition { state, observation } => {
                write!(f, "δ(q{state}, {observation}) is empty")
            }
            ProtocolError::MalformedTable => write!(f, "malformed transition table"),
        }
    }
}

impl std::error::Error for ProtocolError {}

#[derive(Clone, Debug)]
struct StateInfo {
    name: String,
    query: Letter,
    output: Option<u64>,
}

/// An explicit, data-driven nFSM protocol implementing [`Fsm`].
///
/// Build one with [`TableProtocolBuilder`]; construction validates
/// well-formedness (every `(q, o)` cell non-empty, all ids in range,
/// `Q_I ≠ ∅`), so a constructed value is always executable.
#[derive(Clone, Debug)]
pub struct TableProtocol {
    name: String,
    alphabet: Alphabet,
    bound: u8,
    initial_letter: Letter,
    states: Vec<StateInfo>,
    input_states: Vec<StateId>,
    /// `transitions[q][o]` for raw observation `o ∈ 0..=b`.
    transitions: Vec<Vec<Transitions<StateId>>>,
}

impl TableProtocol {
    /// The protocol's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states `|Q|`.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The display name of a state.
    pub fn state_name(&self, q: StateId) -> &str {
        &self.states[q as usize].name
    }

    /// The state with the given name, if any.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.states
            .iter()
            .position(|s| s.name == name)
            .map(|i| i as StateId)
    }

    /// The input states `Q_I` in declaration order.
    pub fn input_states(&self) -> &[StateId] {
        &self.input_states
    }

    /// The output states `Q_O`.
    pub fn output_states(&self) -> Vec<StateId> {
        (0..self.states.len() as StateId)
            .filter(|&q| self.states[q as usize].output.is_some())
            .collect()
    }

    /// Renders the transition diagram in Graphviz DOT format.
    ///
    /// Used to regenerate the paper's Figure 1 from our implementation:
    /// nodes are states (output states doubly circled), an edge `q → q'`
    /// labelled `o / σ` means `δ(q, o)` can move to `q'` emitting `σ`.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        writeln!(out, "digraph \"{}\" {{", self.name).unwrap();
        writeln!(out, "  rankdir=LR;").unwrap();
        for (i, s) in self.states.iter().enumerate() {
            let shape = if s.output.is_some() {
                "doublecircle"
            } else {
                "circle"
            };
            let style = if self.input_states.contains(&(i as StateId)) {
                ", style=bold"
            } else {
                ""
            };
            writeln!(out, "  q{i} [label=\"{}\", shape={shape}{style}];", s.name).unwrap();
        }
        for (q, rows) in self.transitions.iter().enumerate() {
            for (obs, t) in rows.iter().enumerate() {
                let obs_label = if obs as u8 == self.bound {
                    format!("≥{}", self.bound)
                } else {
                    obs.to_string()
                };
                for (q2, emission) in t.choices() {
                    // Skip pure self-loops that emit nothing: they are the
                    // default "stay" behavior and only clutter the figure.
                    if *q2 as usize == q && emission.is_none() && t.choices().len() == 1 {
                        continue;
                    }
                    writeln!(
                        out,
                        "  q{q} -> q{} [label=\"#{}={} / {}\"];",
                        q2,
                        self.alphabet.name(self.states[q].query),
                        obs_label,
                        self.alphabet.emission_name(*emission),
                    )
                    .unwrap();
                }
            }
        }
        writeln!(out, "}}").unwrap();
        out
    }
}

impl crate::Protocol for TableProtocol {
    type State = StateId;

    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn bound(&self) -> u8 {
        self.bound
    }

    fn initial_letter(&self) -> Letter {
        self.initial_letter
    }

    fn initial_state(&self, input: usize) -> StateId {
        self.input_states[input]
    }

    fn output(&self, q: &StateId) -> Option<u64> {
        self.states[*q as usize].output
    }
}

impl Fsm for TableProtocol {
    fn query(&self, q: &StateId) -> Letter {
        self.states[*q as usize].query
    }

    fn delta(&self, q: &StateId, observed: BoundedCount) -> Transitions<StateId> {
        self.transitions[*q as usize][observed.raw() as usize].clone()
    }
}

/// Builder for [`TableProtocol`].
///
/// # Example
///
/// ```
/// use stoneage_core::{Alphabet, Letter, TableProtocolBuilder, Transitions};
///
/// // A two-state "fire once" machine: emit `go` then sit in an output state.
/// let alphabet = Alphabet::new(["go"]);
/// let mut b = TableProtocolBuilder::new("fire-once", alphabet, 1, Letter(0));
/// let start = b.add_state("start", Letter(0));
/// let done = b.add_output_state("done", Letter(0), 1);
/// b.set_transition(start, 0, Transitions::det(done, Some(Letter(0))));
/// b.set_transition(start, 1, Transitions::det(done, Some(Letter(0))));
/// b.set_transition(done, 0, Transitions::det(done, None));
/// b.set_transition(done, 1, Transitions::det(done, None));
/// b.add_input_state(start);
/// let protocol = b.build().unwrap();
/// assert_eq!(protocol.state_count(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TableProtocolBuilder {
    name: String,
    alphabet: Alphabet,
    bound: u8,
    initial_letter: Letter,
    states: Vec<StateInfo>,
    input_states: Vec<StateId>,
    transitions: Vec<Vec<Option<Transitions<StateId>>>>,
}

impl TableProtocolBuilder {
    /// Starts a protocol with the given alphabet, bounding parameter and
    /// initial letter.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn new(
        name: impl Into<String>,
        alphabet: Alphabet,
        bound: u8,
        initial_letter: Letter,
    ) -> Self {
        assert!(bound > 0, "bounding parameter must be positive");
        TableProtocolBuilder {
            name: name.into(),
            alphabet,
            bound,
            initial_letter,
            states: Vec::new(),
            input_states: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds a non-output state with query letter `query`; returns its id.
    pub fn add_state(&mut self, name: impl Into<String>, query: Letter) -> StateId {
        self.push_state(name.into(), query, None)
    }

    /// Adds an output state carrying `output`; returns its id.
    pub fn add_output_state(
        &mut self,
        name: impl Into<String>,
        query: Letter,
        output: u64,
    ) -> StateId {
        self.push_state(name.into(), query, Some(output))
    }

    fn push_state(&mut self, name: String, query: Letter, output: Option<u64>) -> StateId {
        let id = self.states.len();
        assert!(id < StateId::MAX as usize, "too many states");
        self.states.push(StateInfo {
            name,
            query,
            output,
        });
        self.transitions.push(vec![None; self.bound as usize + 1]);
        id as StateId
    }

    /// Declares `q ∈ Q_I`; the `i`-th declared input state serves input
    /// symbol `i`.
    pub fn add_input_state(&mut self, q: StateId) {
        self.input_states.push(q);
    }

    /// Sets `δ(q, o)` for raw observation `o ∈ 0..=b`.
    pub fn set_transition(&mut self, q: StateId, observation: u8, t: Transitions<StateId>) {
        assert!(observation <= self.bound, "observation beyond ≥b symbol");
        self.transitions[q as usize][observation as usize] = Some(t);
    }

    /// Sets `δ(q, o)` to the same transition for every `o ∈ 0..=b`
    /// (observation-independent moves).
    pub fn set_transition_all(&mut self, q: StateId, t: Transitions<StateId>) {
        for o in 0..=self.bound {
            self.set_transition(q, o, t.clone());
        }
    }

    /// Validates and builds the protocol.
    pub fn build(self) -> Result<TableProtocol, ProtocolError> {
        if self.input_states.is_empty() {
            return Err(ProtocolError::NoInputStates);
        }
        let n = self.states.len();
        if !self.alphabet.contains(self.initial_letter) {
            return Err(ProtocolError::BadLetter(self.initial_letter));
        }
        for &q in &self.input_states {
            if q as usize >= n {
                return Err(ProtocolError::BadStateId(q));
            }
        }
        for s in &self.states {
            if !self.alphabet.contains(s.query) {
                return Err(ProtocolError::BadLetter(s.query));
            }
        }
        if self.transitions.len() != n {
            return Err(ProtocolError::MalformedTable);
        }
        let mut transitions = Vec::with_capacity(n);
        for (q, rows) in self.transitions.into_iter().enumerate() {
            if rows.len() != self.bound as usize + 1 {
                return Err(ProtocolError::MalformedTable);
            }
            let mut filled = Vec::with_capacity(rows.len());
            for (o, cell) in rows.into_iter().enumerate() {
                let t = cell.ok_or(ProtocolError::EmptyTransition {
                    state: q as StateId,
                    observation: o as u8,
                })?;
                if t.is_empty() {
                    return Err(ProtocolError::EmptyTransition {
                        state: q as StateId,
                        observation: o as u8,
                    });
                }
                for (q2, emission) in t.choices() {
                    if *q2 as usize >= n {
                        return Err(ProtocolError::BadStateId(*q2));
                    }
                    if let Some(l) = emission {
                        if !self.alphabet.contains(*l) {
                            return Err(ProtocolError::BadLetter(*l));
                        }
                    }
                }
                filled.push(t);
            }
            transitions.push(filled);
        }
        Ok(TableProtocol {
            name: self.name,
            alphabet: self.alphabet,
            bound: self.bound,
            initial_letter: self.initial_letter,
            states: self.states,
            input_states: self.input_states,
            transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol as _;

    fn two_state() -> TableProtocolBuilder {
        let alphabet = Alphabet::new(["a", "b"]);
        let mut b = TableProtocolBuilder::new("two", alphabet, 1, Letter(0));
        let s0 = b.add_state("s0", Letter(0));
        let s1 = b.add_output_state("s1", Letter(1), 7);
        b.set_transition_all(s0, Transitions::det(s1, Some(Letter(1))));
        b.set_transition_all(s1, Transitions::det(s1, None));
        b
    }

    #[test]
    fn builds_and_implements_fsm() {
        let mut b = two_state();
        b.add_input_state(0);
        let p = b.build().unwrap();
        assert_eq!(p.state_count(), 2);
        assert_eq!(p.initial_state(0), 0);
        assert_eq!(p.output(&0), None);
        assert_eq!(p.output(&1), Some(7));
        assert_eq!(p.query(&0), Letter(0));
        let t = p.delta(&0, crate::fb(0, 1));
        assert_eq!(t.choices(), vec![(1, Some(Letter(1)))]);
        assert_eq!(p.state_by_name("s1"), Some(1));
        assert_eq!(p.state_name(1), "s1");
        assert_eq!(p.output_states(), vec![1]);
    }

    #[test]
    fn missing_input_state_is_error() {
        let b = two_state();
        assert_eq!(b.build().unwrap_err(), ProtocolError::NoInputStates);
    }

    #[test]
    fn missing_transition_cell_is_error() {
        let alphabet = Alphabet::new(["a"]);
        let mut b = TableProtocolBuilder::new("bad", alphabet, 2, Letter(0));
        let s0 = b.add_state("s0", Letter(0));
        b.add_input_state(s0);
        b.set_transition(s0, 0, Transitions::det(s0, None));
        // observations 1 and 2 left unset
        assert!(matches!(
            b.build().unwrap_err(),
            ProtocolError::EmptyTransition {
                state: 0,
                observation: 1
            }
        ));
    }

    #[test]
    fn bad_target_state_is_error() {
        let alphabet = Alphabet::new(["a"]);
        let mut b = TableProtocolBuilder::new("bad", alphabet, 1, Letter(0));
        let s0 = b.add_state("s0", Letter(0));
        b.add_input_state(s0);
        b.set_transition_all(s0, Transitions::det(9, None));
        assert_eq!(b.build().unwrap_err(), ProtocolError::BadStateId(9));
    }

    #[test]
    fn bad_emission_letter_is_error() {
        let alphabet = Alphabet::new(["a"]);
        let mut b = TableProtocolBuilder::new("bad", alphabet, 1, Letter(0));
        let s0 = b.add_state("s0", Letter(0));
        b.add_input_state(s0);
        b.set_transition_all(s0, Transitions::det(s0, Some(Letter(5))));
        assert_eq!(b.build().unwrap_err(), ProtocolError::BadLetter(Letter(5)));
    }

    #[test]
    fn bad_initial_letter_is_error() {
        let alphabet = Alphabet::new(["a"]);
        let mut b = TableProtocolBuilder::new("bad", alphabet, 1, Letter(3));
        let s0 = b.add_state("s0", Letter(0));
        b.add_input_state(s0);
        b.set_transition_all(s0, Transitions::det(s0, None));
        assert_eq!(b.build().unwrap_err(), ProtocolError::BadLetter(Letter(3)));
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn observation_beyond_bound_panics() {
        let alphabet = Alphabet::new(["a"]);
        let mut b = TableProtocolBuilder::new("bad", alphabet, 1, Letter(0));
        let s0 = b.add_state("s0", Letter(0));
        b.set_transition(s0, 2, Transitions::det(s0, None));
    }

    #[test]
    fn dot_export_mentions_all_states() {
        let mut b = two_state();
        b.add_input_state(0);
        let p = b.build().unwrap();
        let dot = p.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("s0"));
        assert!(dot.contains("s1"));
        assert!(dot.contains("doublecircle"));
    }
}
