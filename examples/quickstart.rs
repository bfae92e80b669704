//! Quickstart: the survey's Figure 1 worked end-to-end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds one index from each family over the paper's example graphs
//! and replays the queries the paper discusses.

use reachability::graph::fixtures::{self, label_name, vertex_name};
use reachability::prelude::*;

fn main() {
    // ---- the plain graph of Figure 1(a) -----------------------------
    let graph = fixtures::figure1a();
    println!(
        "Figure 1(a): {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let dag = Dag::new(graph).expect("Figure 1 is acyclic");

    // A complete tree-cover index: answers by lookup only.
    let tree_cover = reachability::plain::tree_cover::TreeCover::build(&dag);
    // A partial index: GRAIL's no-false-negative filter + guided DFS.
    let grail = reachability::plain::grail::build_grail(&dag, 2, 42, 1);
    // A 2-hop labeling on the general graph.
    let pll = reachability::plain::pll::Pll::build(dag.graph());

    println!("\nQr(A, G) — the paper's example, witness path (A, D, H, G):");
    for (name, answer) in [
        ("tree cover", tree_cover.query(fixtures::A, fixtures::G)),
        ("GRAIL", grail.query(fixtures::A, fixtures::G)),
        ("PLL", pll.query(fixtures::A, fixtures::G)),
    ] {
        println!("  {name:<12} => {answer}");
        assert!(answer);
    }

    println!("\nFull reachability matrix (tree cover):");
    print!("     ");
    for t in dag.vertices() {
        print!("{} ", vertex_name(t));
    }
    println!();
    for s in dag.vertices() {
        print!("  {}: ", vertex_name(s));
        for t in dag.vertices() {
            print!("{} ", if tree_cover.query(s, t) { "1" } else { "." });
        }
        println!();
    }

    // ---- the edge-labeled graph of Figure 1(b) ----------------------
    let lg = fixtures::figure1b();
    println!(
        "\nFigure 1(b): {} labeled edges over {{friendOf, follows, worksFor}}",
        lg.num_edges()
    );

    let p2h = reachability::labeled::p2h::P2hPlus::build(&lg);

    // constraints can be parsed from the paper's syntax
    let alphabet = ["friendOf", "follows", "worksFor"];
    let ast = reachability::labeled::parse("(friendOf ∪ follows)*", &alphabet).unwrap();
    let ConstraintKind::Alternation(allowed) = ast.classify() else {
        unreachable!("this constraint is an alternation");
    };
    println!(
        "\nQr(A, G, (friendOf ∪ follows)*) = {}   (every A→G path uses worksFor)",
        p2h.query(fixtures::A, fixtures::G, allowed)
    );
    assert!(!p2h.query(fixtures::A, fixtures::G, allowed));

    // a concatenation constraint needs the RLC index
    let rlc = reachability::labeled::rlc::RlcIndex::build(&lg, 2).expect("a small alphabet");
    let unit = [fixtures::WORKS_FOR, fixtures::FRIEND_OF];
    let answer = rlc.try_query(fixtures::L, fixtures::B, &unit).unwrap();
    println!(
        "Qr(L, B, ({} · {})*) = {answer}",
        label_name(unit[0]),
        label_name(unit[1])
    );
    assert!(answer);

    println!("\nEvery claim from the paper's Figure 1 reproduced. Next steps:");
    println!("  cargo run -p reach-bench --bin table1 -- --empirical");
    println!("  cargo run -p reach-bench --bin table2 -- --empirical");
    println!("  cargo run -p reach-bench --bin claims");
}
