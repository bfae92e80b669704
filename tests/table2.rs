//! Integration test: the implemented classification matrix matches the
//! survey's **Table 2** row by row.

use reachability::graph::fixtures;
use reachability::labeled::pipeline::build_lcr;
use reachability::labeled::rlc::RlcIndex;
use reachability::labeled::RlcIndexApi;
use reachability::plain::BuildOpts;
use reachability::prelude::*;
use std::sync::Arc;

/// One expected row: (technique, framework, constraint, type, input, dynamic).
fn expected_rows() -> Vec<(
    &'static str,
    LcrFramework,
    ConstraintClass,
    Completeness,
    InputClass,
    Dynamism,
)> {
    use Completeness::*;
    use ConstraintClass::*;
    use Dynamism::*;
    use InputClass::General;
    use LcrFramework::*;
    vec![
        (
            "Jin et al.",
            TreeCover,
            Alternation,
            Complete,
            General,
            Static,
        ),
        (
            "Chen et al.",
            TreeCover,
            Alternation,
            Complete,
            General,
            Static,
        ),
        (
            "Zou et al.",
            Gtc,
            Alternation,
            Complete,
            General,
            InsertDelete,
        ),
        ("Landmark index", Gtc, Alternation, Partial, General, Static),
        ("P2H+", TwoHop, Alternation, Complete, General, Static),
        ("DLCR", TwoHop, Alternation, Complete, General, InsertDelete),
        (
            "RLC index",
            TwoHop,
            Concatenation,
            Complete,
            General,
            Static,
        ),
    ]
}

#[test]
fn matrix_matches_the_papers_table_2() {
    let g = Arc::new(fixtures::figure1b());
    for (name, framework, constraint, completeness, input, dynamism) in expected_rows() {
        let m = if name == "RLC index" {
            RlcIndex::build(&g, 2).unwrap().meta()
        } else {
            build_lcr(name, &g, &BuildOpts::default()).unwrap().meta()
        };
        assert_eq!(m.name, name);
        assert_eq!(m.framework, framework, "{name}: framework column");
        assert_eq!(m.constraint, constraint, "{name}: constraint column");
        assert_eq!(m.completeness, completeness, "{name}: index-type column");
        assert_eq!(m.input, input, "{name}: input column");
        assert_eq!(m.dynamism, dynamism, "{name}: dynamic column");
    }
}

#[test]
fn no_index_supports_both_constraint_classes() {
    // §4: "there is currently no index that can support both query
    // classes" — encoded in the type system: LcrIndex vs RlcIndexApi
    // are distinct traits, and every meta claims exactly one class.
    let g = Arc::new(fixtures::figure1b());
    let mut alternation = 0;
    let mut concatenation = 0;
    for (name, ..) in expected_rows() {
        let m = if name == "RLC index" {
            RlcIndex::build(&g, 2).unwrap().meta()
        } else {
            build_lcr(name, &g, &BuildOpts::default()).unwrap().meta()
        };
        match m.constraint {
            ConstraintClass::Alternation => alternation += 1,
            ConstraintClass::Concatenation => concatenation += 1,
        }
    }
    assert_eq!(alternation, 6);
    assert_eq!(concatenation, 1);
}

#[test]
fn landmark_is_the_only_partial_lcr_index() {
    // §5: "the only partial index for path-constrained reachability
    // queries is the landmark index"
    let partials: Vec<&str> = expected_rows()
        .iter()
        .filter(|r| r.3 == Completeness::Partial)
        .map(|r| r.0)
        .collect();
    assert_eq!(partials, vec!["Landmark index"]);
}
