//! Crowd task model: the four UI types of CDB.

/// Opaque task identifier, unique within one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The four task UIs supported by CDB's Crowd UI Designer (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Select exactly one of `choices`.
    SingleChoice {
        /// Question shown to the worker.
        question: String,
        /// The candidate answers.
        choices: Vec<String>,
    },
    /// Select any subset of `choices`.
    MultiChoice {
        /// Question shown to the worker.
        question: String,
        /// The candidate answers.
        choices: Vec<String>,
    },
    /// Type a free-form value (e.g. the affiliation of a professor).
    FillInBlank {
        /// Question shown to the worker.
        question: String,
    },
    /// Contribute a new tuple (e.g. one of the top-100 universities).
    Collection {
        /// Prompt shown to the worker.
        prompt: String,
    },
}

/// A worker's answer to one task.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Index into the choices of a single-choice task.
    Choice(usize),
    /// Indices into the choices of a multi-choice task (sorted, unique).
    Choices(Vec<usize>),
    /// Free text for fill-in-blank and collection tasks.
    Text(String),
}

impl Answer {
    /// Build a normalized multi-choice answer (sorted, deduplicated).
    pub fn choices(mut idx: Vec<usize>) -> Self {
        idx.sort_unstable();
        idx.dedup();
        Answer::Choices(idx)
    }
}

/// A published crowd task.
///
/// `truth` is the simulation-only latent ground truth used to generate
/// worker answers; real deployments would not know it. Keeping it on the
/// task (rather than in a side table) mirrors how the benchmark driver
/// scores F-measure.
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
    /// UI type and payload.
    pub kind: TaskKind,
    /// Latent ground truth (simulation only).
    pub truth: Option<Answer>,
    /// Simulated difficulty in `[0, 1]`; 1.0 = the flat error model.
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
    /// A yes/no single-choice task — the edge-checking task of the graph
    /// model ("can these two values be joined?"). Choice 0 = yes, 1 = no.
    pub fn join_check(id: TaskId, left: &str, right: &str, truth_yes: bool) -> Self {
        Task {
            id,
            kind: TaskKind::SingleChoice {
                question: format!("Do \"{left}\" and \"{right}\" refer to the same entity?"),
                choices: vec!["yes".to_string(), "no".to_string()],
            },
            truth: Some(Answer::Choice(usize::from(!truth_yes))),
            difficulty: 1.0,
        }
    }

    /// Set the simulated difficulty (builder style).
    pub fn with_difficulty(mut self, difficulty: f64) -> Self {
        self.difficulty = difficulty.clamp(0.0, 1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_check_encodes_truth_in_choice_zero() {
        let t = Task::join_check(TaskId(1), "MIT", "M.I.T.", true);
        assert_eq!(t.truth, Some(Answer::Choice(0)));
        let f = Task::join_check(TaskId(2), "MIT", "Stanford", false);
        assert_eq!(f.truth, Some(Answer::Choice(1)));
    }

    #[test]
    fn multi_choice_answers_normalize() {
        assert_eq!(Answer::choices(vec![2, 0, 2, 1]), Answer::Choices(vec![0, 1, 2]));
    }

    #[test]
    fn task_id_display() {
        assert_eq!(TaskId(7).to_string(), "t7");
    }
}
