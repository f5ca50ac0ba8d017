//! Smoke tests for the experiment harness: every experiment must run at
//! quick scale and produce a well-formed table (the experiments contain
//! their own internal assertions — validity of every protocol output,
//! bit-exactness of the simulations — so running them *is* a test).

use stoneage_bench::experiments::{self, Scale};

#[test]
fn figure1_and_fast_experiments() {
    for name in ["fig1", "multiq", "lba-sim", "lba-to-nfsm"] {
        let t = experiments::by_name(name, Scale::Quick)
            .unwrap_or_else(|| panic!("unknown experiment {name}"));
        assert!(!t.rows.is_empty(), "{name} produced no rows");
        assert!(!t.render().is_empty());
        assert!(t.to_json()["rows"].is_array());
    }
}

#[test]
fn scaling_experiments_quick() {
    for name in ["edge-decay", "tournaments", "good-nodes"] {
        let t = experiments::by_name(name, Scale::Quick).unwrap();
        assert!(!t.rows.is_empty(), "{name}");
    }
}

#[test]
fn synchronizer_and_adversary_experiments_quick() {
    for name in ["synchronizer", "adversary"] {
        let t = experiments::by_name(name, Scale::Quick).unwrap();
        assert!(!t.rows.is_empty(), "{name}");
    }
}

/// The paper-protocol scaling tables and the message-passing baselines:
/// each asserts that every run's output validated, so these also run the
/// engines' per-step paths at scale.
#[test]
fn protocol_and_baseline_experiments_quick() {
    for name in [
        "mis-scaling",
        "tree-coloring",
        "matching",
        "baseline-mis",
        "baseline-coloring",
    ] {
        let t = experiments::by_name(name, Scale::Quick).unwrap();
        assert!(!t.rows.is_empty(), "{name}");
    }
}

#[test]
fn unknown_experiment_is_none() {
    assert!(experiments::by_name("not-an-experiment", Scale::Quick).is_none());
}
