//! Crowd task model: the task UIs CDB publishes, with their latent truth.

/// Opaque task identifier, unique within one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The task UIs a CQL statement publishes (§2.1): a single-choice check
/// (joins, selections, `ORDER BY CROWD` comparisons) and a fill-in-blank
/// (`FILL`). Each kind carries the simulation-only latent ground truth the
/// worker model answers from; real deployments would not know it. Keeping
/// it on the task (rather than in a side table) mirrors how the benchmark
/// driver scores F-measure.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Select exactly one of `choices` options; `truth` is the correct one.
    SingleChoice {
        /// Number of options.
        choices: usize,
        /// Index of the correct option.
        truth: usize,
    },
    /// Type a free-form value (e.g. the affiliation of a professor).
    FillInBlank {
        /// The correct value.
        truth: String,
    },
}

/// A worker's answer to one task.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Index into the options of a single-choice task.
    Choice(usize),
    /// Free text for a fill-in-blank task.
    Text(String),
}

/// A published crowd task.
///
/// `difficulty ∈ [0, 1]` controls the simulated error model: at 1.0 a
/// worker answers correctly with exactly their latent accuracy `q` (the
/// paper's flat simulation model); at lower difficulty the task is easier
/// and the correctness probability rises toward `q + 0.9·(1 − q)`. Join
/// checks derive difficulty from the pair's similarity — "University of
/// California" vs "University of Wisconsin" is obvious to a human even
/// when the 2-gram similarity clears the graph threshold (see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// UI type and latent truth.
    pub kind: TaskKind,
    /// Simulated difficulty in `[0, 1]`; 1.0 = the flat error model.
    pub difficulty: f64,
}

/// A join check as the requester publishes it. It carries no answer: only
/// the crowd that answers it knows that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Question {
    /// The task the answers will name.
    pub id: TaskId,
    /// Simulated difficulty in `[0, 1]` (see [`Task::difficulty`]).
    pub difficulty: f64,
}

/// Difficulty of a join check on a value pair with similarity `w`:
/// maximal (1.0) for genuinely confusable pairs around `w ≈ 0.65`,
/// decaying linearly to 0 for obvious non-matches (`w ≤ 0.35`) and obvious
/// matches (`w ≥ 0.95`).
pub fn join_difficulty(w: f64) -> f64 {
    let d = if w < 0.65 { (w - 0.35) / 0.30 } else { (0.95 - w) / 0.30 };
    d.clamp(0.0, 1.0)
}

impl Task {
    /// The yes/no single-choice task that answers `q` — the edge-checking
    /// task of the graph model ("can these two values be joined?"). Choice
    /// 0 = yes, 1 = no.
    pub fn join_check(q: Question, truth_yes: bool) -> Self {
        let kind = TaskKind::SingleChoice { choices: 2, truth: usize::from(!truth_yes) };
        Task { id: q.id, kind, difficulty: q.difficulty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_check_encodes_truth_in_choice_zero() {
        let t = Task::join_check(Question { id: TaskId(1), difficulty: 1.0 }, true);
        assert_eq!(t.kind, TaskKind::SingleChoice { choices: 2, truth: 0 });
        let f = Task::join_check(Question { id: TaskId(2), difficulty: 1.0 }, false);
        assert_eq!(f.kind, TaskKind::SingleChoice { choices: 2, truth: 1 });
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "t7");
    }
}
