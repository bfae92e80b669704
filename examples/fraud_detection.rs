//! Money-laundering detection with concatenation-constrained
//! reachability — the survey's motivating RLC use case ("money
//! laundering detection in financial transaction networks", §2.2).
//!
//! ```text
//! cargo run --release --example fraud_detection
//! ```
//!
//! A laundering chain alternates *placement* (cash into a mule
//! account) and *integration* (value back out into assets); the
//! repeated unit `(deposit · withdraw)*` over the transaction graph is
//! exactly a recursive label-concatenated reachability query. The
//! example plants laundering chains inside a benign transaction
//! network and recovers precisely the planted source→sink pairs with
//! the RLC index, cross-checked against the online product-automaton
//! traversal.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reachability::labeled::online::{rlc_bfs, rpq_bfs};
use reachability::labeled::rlc::RlcIndex;
use reachability::labeled::{parse, Nfa};
use reachability::prelude::*;
use std::time::Instant;

const DEPOSIT: Label = Label(0);
const WITHDRAW: Label = Label(1);
const TRANSFER: Label = Label(2);

fn main() {
    let mut rng = SmallRng::seed_from_u64(777);
    let accounts = 400;
    let mut builder = LabeledGraphBuilder::new(accounts, 3);

    // benign background traffic: ordinary transfers
    for _ in 0..1_200 {
        let a = rng.random_range(0..accounts as u32);
        let mut b = rng.random_range(0..accounts as u32 - 1);
        if b >= a {
            b += 1;
        }
        builder.add_edge(VertexId(a), TRANSFER, VertexId(b));
    }
    // occasional legitimate deposits/withdrawals (not forming chains)
    for _ in 0..150 {
        let a = rng.random_range(0..accounts as u32);
        let mut b = rng.random_range(0..accounts as u32 - 1);
        if b >= a {
            b += 1;
        }
        let l = if rng.random_bool(0.5) {
            DEPOSIT
        } else {
            WITHDRAW
        };
        builder.add_edge(VertexId(a), l, VertexId(b));
    }

    // planted laundering chains: deposit → withdraw repeated 2–4 times
    let mut planted: Vec<(VertexId, VertexId)> = Vec::new();
    for chain in 0..5 {
        let hops = 2 + chain % 3;
        let mut cur = VertexId(rng.random_range(0..accounts as u32));
        let src = cur;
        for _ in 0..hops {
            let mule = VertexId(rng.random_range(0..accounts as u32));
            let out = VertexId(rng.random_range(0..accounts as u32));
            builder.add_edge(cur, DEPOSIT, mule);
            builder.add_edge(mule, WITHDRAW, out);
            cur = out;
        }
        planted.push((src, cur));
    }
    let network = builder.build();
    println!(
        "transaction network: {} accounts, {} transactions, {} planted chains",
        network.num_vertices(),
        network.num_edges(),
        planted.len()
    );

    // build the RLC index for units up to length 2
    let t = Instant::now();
    let rlc = RlcIndex::build(&network, 2).expect("3 labels, kmax 2: 12 units");
    println!(
        "RLC index built in {:?} ({} entries, kmax = {})",
        t.elapsed(),
        rlc.size_entries(),
        rlc.kmax()
    );

    // sweep all ordered account pairs for the laundering pattern
    let unit = [DEPOSIT, WITHDRAW];
    let t = Instant::now();
    let mut flagged: Vec<(VertexId, VertexId)> = Vec::new();
    for s in network.vertices() {
        for d in network.vertices() {
            if s != d && rlc.try_query(s, d, &unit).unwrap() {
                flagged.push((s, d));
            }
        }
    }
    println!(
        "\nQr(s, d, (deposit · withdraw)*) swept over {} pairs in {:?}: {} flagged",
        accounts * (accounts - 1),
        t.elapsed(),
        flagged.len()
    );

    // every planted chain must be among the flagged pairs — and for an
    // investigator, the witness path explains each alert
    let nfa = Nfa::compile(
        &parse(
            "(deposit · withdraw)*",
            &["deposit", "withdraw", "transfer"],
        )
        .unwrap(),
    );
    for &(src, dst) in &planted {
        assert!(
            flagged.contains(&(src, dst)),
            "planted chain {src}->{dst} missed"
        );
        let w = reachability::labeled::witness::rpq_witness(&network, src, dst, &nfa)
            .expect("flagged pairs have witnesses");
        let hops: Vec<String> = w.vertices.iter().map(|v| v.to_string()).collect();
        println!(
            "  planted chain {src} ⇝ {dst}: flagged ✓  ({} repetitions via {})",
            w.len() / unit.len(),
            hops.join(" → ")
        );
    }

    // cross-check a sample against the online evaluators, including
    // the general automaton route for the same constraint
    let mut checked = 0;
    for s in network.vertices().step_by(17) {
        for d in network.vertices().step_by(13) {
            if s == d {
                continue;
            }
            let by_index = rlc.try_query(s, d, &unit).unwrap();
            assert_eq!(by_index, rlc_bfs(&network, s, d, &unit));
            assert_eq!(by_index, rpq_bfs(&network, s, d, &nfa));
            checked += 1;
        }
    }
    println!("\ncross-checked {checked} pairs against product-BFS and the NFA evaluator ✓");

    // show why plain reachability is NOT enough: transfers connect far
    // more pairs than the laundering pattern does
    let plain = network.to_digraph();
    let tc = TransitiveClosure::build(&plain);
    let plain_pairs = tc.num_pairs() - accounts;
    println!(
        "\nplain reachability connects {plain_pairs} pairs — the path constraint \
         narrows that to {} ({}x fewer false leads)",
        flagged.len(),
        plain_pairs / flagged.len().max(1)
    );
}
