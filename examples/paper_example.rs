//! The paper's running example (Table 1 / Figures 1 and 4): four small
//! tables joined by three CROWDJOIN predicates, with three true answers.
//! Demonstrates the headline claim — the graph model's tuple-level
//! optimization asks far fewer tasks than any table-level join order.
//!
//! ```sh
//! cargo run --example paper_example
//! ```

use cdb::baselines::{opt_tree_order, run_tree};
use cdb::core::executor::{true_answers, Executor, ExecutorConfig};
use cdb::core::{plan_select, GraphBuildConfig, SimCrowd};
use cdb::crowd::{Market, SimulatedPlatform, WorkerPool};
use cdb::datagen::paper_example_dataset;

fn main() {
    let (db, truth) = paper_example_dataset();
    let sql = "SELECT * FROM Paper, Researcher, Citation, University \
               WHERE Paper.author CROWDJOIN Researcher.name AND \
               Paper.title CROWDJOIN Citation.title AND \
               Researcher.affiliation CROWDJOIN University.name";
    println!("CQL> {sql}\n");

    // Build the graph query model (Definition 1).
    let (_, g) = plan_select(&db, sql, &GraphBuildConfig::default()).expect("plans");
    let edge_truth = truth.edge_truth(&g);
    println!(
        "graph model: {} tuple vertices, {} candidate edges across {} predicates",
        g.node_count(),
        g.edge_count(),
        g.predicate_count()
    );
    let reference = true_answers(&g, &edge_truth);
    println!("ground truth: {} complete BLUE chains (the paper's 3 answers)\n", reference.len());

    // CDB: expectation-based tuple-level selection.
    let pool = WorkerPool::with_accuracies(&[1.0; 10]); // error-free crowd isolates cost
    let mut platform = SimulatedPlatform::new(Market::Amt, pool.clone(), 1);
    let stats = Executor::new(
        g.clone(),
        &mut SimCrowd::new(&mut platform, &edge_truth),
        ExecutorConfig::default(),
    )
    .run();
    println!(
        "CDB   (graph model):       {:>3} tasks, {} rounds, {} answers",
        stats.tasks_asked,
        stats.rounds,
        stats.answers.len()
    );

    // The best possible tree model: enumerate all join orders with oracle
    // colors, take the cheapest and run it on the same error-free crowd.
    let order = opt_tree_order(&g, &edge_truth);
    let mut platform = SimulatedPlatform::new(Market::Amt, pool, 1);
    let tree = run_tree(&g, &mut SimCrowd::new(&mut platform, &edge_truth), 1, &order);
    println!(
        "OptTree (best tree order): {:>3} tasks, {} rounds, {} answers",
        tree.tasks_asked,
        tree.rounds,
        tree.answers.len()
    );
    println!(
        "\ntuple-level optimization saves {} tasks ({}%) over the best table-level order",
        tree.tasks_asked.saturating_sub(stats.tasks_asked),
        (100 * tree.tasks_asked.saturating_sub(stats.tasks_asked)) / tree.tasks_asked.max(1)
    );

    // Show the answers.
    println!("\nanswers found:");
    for cand in &stats.answers {
        let chain: Vec<String> = cand
            .binding
            .iter()
            .filter_map(|&n| g.node_tuple(n).cloned())
            .map(|t| format!("{}[{}]", t.table, t.row))
            .collect();
        println!("  {}", chain.join(" — "));
    }
}
