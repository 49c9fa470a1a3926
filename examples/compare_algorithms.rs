//! Side-by-side comparison of all four algorithms (plus the
//! relational baseline) on one dataset, printing a work/time table.
//!
//! ```sh
//! cargo run --release --example compare_algorithms [collaboration|citation|intrusion]
//! ```

use std::time::Instant;

use lona::prelude::*;
use lona::relational::{topk_aggregation, EdgeTable, ScoreColumn};

fn main() {
    let kind: DatasetKind = std::env::args()
        .nth(1)
        .map(|s| {
            s.parse()
                .expect("dataset must be collaboration|citation|intrusion")
        })
        .unwrap_or(DatasetKind::Collaboration);

    let profile = DatasetProfile::smoke(kind, 5);
    let g = profile.generate().unwrap();
    println!("{}\n", profile.describe(&g));

    let scores = MixtureBuilder::new(0.01).lambda(5.0).build(&g, 5);
    let mut engine = LonaEngine::new(&g, 2);

    // Pay index builds up front so the table shows pure query cost.
    let size_t = engine.prepare_size_index();
    let diff_t = engine.prepare_diff_index();
    println!("index build: size {size_t:.2?}, differential {diff_t:.2?}\n");

    let query = TopKQuery::new(50, Aggregate::Sum);
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "algorithm", "evaluated", "pruned", "edges", "distributed", "time"
    );

    let mut reference: Option<QueryResult> = None;
    // (algorithm, workers): Base runs twice, on one worker and on one
    // worker per core (0).
    for (algorithm, threads) in [
        (Algorithm::Base, 1),
        (Algorithm::Base, 0),
        (Algorithm::forward(), 1),
        (Algorithm::BackwardNaive, 1),
        (Algorithm::backward(), 1),
    ] {
        let result = engine.run_threads(&algorithm, threads, &query, &scores);
        let label = match threads {
            1 => algorithm.name().to_string(),
            _ => format!("{} (cores)", algorithm.name()),
        };
        println!(
            "{:<14} {:>10} {:>10} {:>12} {:>12} {:>10.2?}",
            label,
            result.stats.nodes_evaluated,
            result.stats.nodes_pruned,
            result.stats.edges_traversed,
            result.stats.nodes_distributed,
            result.stats.runtime,
        );
        if let Some(r) = &reference {
            assert!(
                result.same_values(r, 1e-9),
                "{algorithm} diverged from Base"
            );
        } else {
            reference = Some(result);
        }
    }

    // The relational self-join plan, for scale (§II of the paper).
    let table = EdgeTable::from_graph(&g);
    let col = ScoreColumn::new(scores.as_slice().to_vec());
    let t = Instant::now();
    let (rows, plan) = topk_aggregation(&table, &col, g.num_nodes(), 2, query.k, false, true);
    let took = t.elapsed();
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>10.2?}   (join rows {}, distinct {} -> {})",
        "Relational",
        "-",
        "-",
        "-",
        "-",
        took,
        plan.join_output_rows,
        plan.rows_before_distinct,
        plan.rows_after_distinct,
    );
    let reference = reference.unwrap();
    for (a, b) in rows.iter().zip(&reference.entries) {
        assert!((a.1 - b.1).abs() < 1e-9, "relational plan diverged");
    }
    println!(
        "\nall six executions returned identical top-{} values ✓",
        query.k
    );
}
