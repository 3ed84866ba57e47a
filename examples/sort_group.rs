//! Crowd-powered ORDER BY and GROUP BY (the §4.2 Remark): after the
//! crowd-based join resolves, the result set is ranked by pairwise
//! comparison tasks and grouped by crowdsourced key equality — plus a
//! cross-market deployment of the comparison HITs.
//!
//! ```sh
//! cargo run --example sort_group
//! ```

use cdb::core::{Cdb, CdbConfig, QueryTruth};
use cdb::crowd::{
    CrossMarketDeployer, Market, MarketSlot, Question, SimulatedPlatform, Task, TaskId, WorkerPool,
};
use cdb::storage::{TupleId, Value};

fn main() {
    // Papers joined to their citation counts, then ranked by the crowd.
    let mut cdb = Cdb::new();
    cdb.execute_ddl("CREATE TABLE Paper (title varchar(64), venue varchar(32))").unwrap();
    cdb.execute_ddl("CREATE TABLE Citation (title varchar(64), number int)").unwrap();
    let papers = [
        ("Crowdsourced Joins At Scale", "SIGMOD", 40),
        ("Learned Index Structures", "SIGMOD", 95),
        ("Quantum Query Planning", "VLDB", 12),
        ("Adaptive Stream Sampling", "VLDB", 63),
        ("Holistic Truth Discovery", "KDD", 27),
    ];
    let mut truth = QueryTruth::default();
    {
        let db = cdb.database_mut();
        for (i, (title, venue, number)) in papers.iter().enumerate() {
            db.table_mut("Paper")
                .unwrap()
                .push(vec![Value::from(*title), Value::from(*venue)])
                .unwrap();
            db.table_mut("Citation")
                .unwrap()
                .push(vec![Value::from(format!("{title} [cited]")), Value::Int(*number)])
                .unwrap();
            truth.add_join(TupleId::new("Paper", i), TupleId::new("Citation", i));
        }
    }

    let sql = "SELECT * FROM Paper, Citation \
               WHERE Paper.title CROWDJOIN Citation.title \
               GROUP BY CROWD Paper.venue \
               ORDER BY CROWD Citation.number DESC";
    println!("CQL> {sql}\n");

    let mut platform =
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&[0.95; 20]), 11);
    let out = cdb.run_select(sql, &truth, &mut platform, &CdbConfig::default()).unwrap();
    println!(
        "join: {} answers with {} tasks; post-ops cost {} extra tasks\n",
        out.stats.answers.len(),
        out.stats.tasks_asked,
        out.post_tasks
    );

    let g = cdb
        .plan_select(
            "SELECT * FROM Paper, Citation WHERE Paper.title CROWDJOIN Citation.title",
            &CdbConfig::default().build,
        )
        .unwrap();
    let title_of = |answer_idx: usize| -> String {
        out.stats.answers[answer_idx]
            .binding
            .iter()
            .filter_map(|&n| g.node_tuple(n))
            .find(|t| t.table == "Paper")
            .map(|t| {
                cdb.database().table("Paper").unwrap().cell(t.row, "title").unwrap().to_string()
            })
            .unwrap_or_default()
    };

    println!("crowd-ranked by citations (descending):");
    for (rank, &i) in out.order.as_ref().unwrap().iter().enumerate() {
        println!("  {}. {}", rank + 1, title_of(i));
    }

    println!("\ncrowd-grouped by venue:");
    for (k, group) in out.groups.as_ref().unwrap().iter().enumerate() {
        let titles: Vec<String> = group.iter().map(|&i| title_of(i)).collect();
        println!("  group {}: {}", k + 1, titles.join(" | "));
    }

    // Bonus: the same comparison HITs deployed across three markets at
    // once (§2.2 — cross-market deployment).
    let mut deployer = CrossMarketDeployer::new(vec![
        MarketSlot {
            platform: SimulatedPlatform::new(
                Market::Amt,
                WorkerPool::with_accuracies(&[0.95; 10]),
                1,
            ),
            share: 2.0,
        },
        MarketSlot {
            platform: SimulatedPlatform::new(
                Market::CrowdFlower,
                WorkerPool::with_accuracies(&[0.9; 10]),
                2,
            ),
            share: 1.0,
        },
        MarketSlot {
            platform: SimulatedPlatform::new(
                Market::ChinaCrowd,
                WorkerPool::with_accuracies(&[0.9; 10]),
                3,
            ),
            share: 1.0,
        },
    ]);
    let tasks: Vec<Task> = (0..8)
        .map(|i| Task::join_check(Question { id: TaskId(i), difficulty: 1.0 }, i % 2 == 0))
        .collect();
    let assignments = deployer.ask_round(&tasks, 3);
    println!(
        "\ncross-market deployment: {} tasks -> {} assignments across {} markets \
         in {} logical round",
        tasks.len(),
        assignments.len(),
        deployer.market_count(),
        deployer.rounds(),
    );
}
