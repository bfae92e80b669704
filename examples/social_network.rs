//! Social-network analysis with label-constrained reachability — the
//! survey's motivating LCR use case ("social relationships analysis in
//! social networks", §2.2).
//!
//! ```text
//! cargo run --release --example social_network
//! ```
//!
//! Generates a hub-dominated social graph with three relationship
//! types, then answers questions like "is `b` in `a`'s extended social
//! circle *without* going through employment edges?" with three
//! different LCR indexes, cross-checking them against each other and
//! the online baseline.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::graph::generators::{label_edges, power_law_dag, LabelDistribution};
use reachability::labeled::landmark::LandmarkIndex;
use reachability::labeled::online::lcr_bfs;
use reachability::labeled::p2h::P2hPlus;
use reachability::labeled::zou::single_source_gtc;
use reachability::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const FRIEND_OF: Label = Label(0);
const FOLLOWS: Label = Label(1);

fn main() {
    let mut rng = SmallRng::seed_from_u64(2023);
    let n = 3_000;
    // hub-dominated connection structure, Zipf-skewed relationship types
    let topology = power_law_dag(n, 3, &mut rng);
    let network = Arc::new(label_edges(
        topology.graph(),
        3,
        LabelDistribution::Zipf,
        &mut rng,
    ));
    println!(
        "social network: {} members, {} relationships",
        network.num_vertices(),
        network.num_edges()
    );

    let social_only = LabelSet::from_labels([FRIEND_OF, FOLLOWS]);
    let friends_only = LabelSet::singleton(FRIEND_OF);

    let t = Instant::now();
    let p2h = P2hPlus::build(&network);
    println!(
        "P2H+ built in {:?} ({} label entries)",
        t.elapsed(),
        p2h.size_entries()
    );

    let t = Instant::now();
    let landmark = LandmarkIndex::build(network.clone(), 16);
    println!(
        "landmark index built in {:?} ({} landmarks, {} SPLS entries)",
        t.elapsed(),
        landmark.num_landmarks(),
        landmark.size_entries()
    );

    // Q1: extended social circle, employment edges excluded
    let mut agree = 0;
    let mut social_pairs = 0;
    let queries: Vec<(VertexId, VertexId)> = (0..2_000)
        .map(|_| {
            (
                VertexId(rng.random_range(0..n as u32)),
                VertexId(rng.random_range(0..n as u32)),
            )
        })
        .collect();
    let t = Instant::now();
    for &(a, b) in &queries {
        let via_p2h = p2h.query(a, b, social_only);
        let via_landmark = landmark.query(a, b, social_only);
        let oracle = lcr_bfs(&network, a, b, social_only);
        assert_eq!(via_p2h, oracle, "P2H+ disagrees with BFS at {a}->{b}");
        assert_eq!(
            via_landmark, oracle,
            "landmark disagrees with BFS at {a}->{b}"
        );
        agree += 1;
        if oracle {
            social_pairs += 1;
        }
    }
    println!(
        "\nQ1 “can a reach b through friendOf/follows only?”: {agree} queries, \
         {social_pairs} connected, all 3 evaluators agree ({:?})",
        t.elapsed()
    );

    // Q2: influence set of the top hub under each constraint
    let hub = network
        .vertices()
        .max_by_key(|&v| network.out_degree(v))
        .unwrap();
    let rows = single_source_gtc(&network, hub, true);
    let reach = |allowed: LabelSet| {
        rows.iter().filter(|s| s.satisfies(allowed)).count() - 1 // minus the hub itself
    };
    println!("\nQ2 influence of the most-connected member (vertex {hub}):");
    println!(
        "   friendOf only          : {:>5} members",
        reach(friends_only)
    );
    println!(
        "   friendOf ∪ follows     : {:>5} members",
        reach(social_only)
    );
    println!(
        "   any relationship       : {:>5} members",
        reach(LabelSet::full(3))
    );

    // Q3: parse a constraint the way a query engine would receive it
    let alphabet = ["friendOf", "follows", "worksFor"];
    let ast = reachability::labeled::parse("(friendOf ∪ worksFor)*", &alphabet).unwrap();
    let ConstraintKind::Alternation(no_follows) = ast.classify() else {
        unreachable!()
    };
    let sample = queries
        .iter()
        .filter(|&&(a, b)| p2h.query(a, b, no_follows))
        .take(3);
    println!("\nQ3 pairs connected by “(friendOf ∪ worksFor)*”:");
    for &(a, b) in sample {
        println!("   member {a} ⇝ member {b}");
    }
}
