//! Simulated crowdsourcing platform substrate for CDB.
//!
//! The paper deploys CDB on AMT, CrowdFlower and ChinaCrowd; this crate is
//! the faithful simulation substitute (see DESIGN.md). It models:
//!
//! * the task UIs CQL statements publish through CDB's *Crowd UI
//!   Designer* — single-choice checks and fill-in-the-blank tasks, each
//!   carrying its latent truth;
//! * workers with latent accuracies drawn from a Gaussian `N(q, 0.01)`
//!   (exactly the worker model of the paper's simulated experiments, §6.2);
//! * a per-assignment price on each market (the paper's experiments pay
//!   \$0.05 per AMT task, §6.1);
//! * cross-market deployment (AMT's developer model supports server-side
//!   online task assignment; CrowdFlower does not — §2.1);
//! * the metadata kept by CDB: tasks, workers, and per-assignment
//!   `(task, worker, answer)` records;
//! * the autocompletion store used by COLLECT to control duplicates.
//!
//! Determinism: every stochastic component takes a seeded RNG, so
//! experiments are reproducible.

mod autocomplete;
mod history;
mod latency;
mod log;
mod market_deploy;
mod pending;
mod platform;
mod stream;
mod task;
mod worker;

pub use autocomplete::AutocompleteStore;
pub use history::{WorkerHistory, WorkerRecord};
pub use latency::{LatencyModel, SimTime};
pub use log::Assignment;
pub use market_deploy::{CrossMarketDeployer, MarketSlot};
pub use pending::{OpenRound, PendingAssignment};
pub use platform::{simulate_answer_with, CrowdPlatform, Market, SimulatedPlatform, TaskAssigner};
pub use stream::{stream_key, stream_rng};
pub use task::{join_difficulty, Answer, Question, Task, TaskId, TaskKind};
pub use worker::{Worker, WorkerId, WorkerPool};
