//! Crowd-powered collection semantics: FILL and COLLECT execution (§3,
//! §5.3, evaluated in Figure 17).
//!
//! * **FILL** asks the crowd for missing attribute values. CDB asks 3
//!   workers first and only asks the remaining `redundancy − 3` when the
//!   first three disagree (the early-stop policy of §6.3.2, which saves
//!   ~30% of the cost); the final value is the *pivot* answer.
//! * **COLLECT** gathers new tuples under the open-world assumption. With
//!   the autocompletion interface a worker sees what is already collected
//!   and contributes something new whenever they can; without it (the
//!   Deco baseline) contributions are independent draws and duplicates
//!   burn budget like a coupon collector.

use cdb_crowd::{Answer, AutocompleteStore, SimulatedPlatform, Task, TaskId, TaskKind};
use cdb_quality::pivot_answer;
use cdb_similarity::{SimilarityFn, SimilarityMeasure};
use rand::Rng;

/// FILL configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillConfig {
    /// Total workers per value when no early stop triggers (paper: 5).
    pub redundancy: usize,
    /// Workers asked in the first phase (paper: 3).
    pub first_phase: usize,
    /// Pairwise similarity that counts as agreement.
    pub agree_threshold: f64,
    /// Enable the early stop (CDB) or always ask `redundancy` (Deco).
    pub early_stop: bool,
    /// Similarity measure for agreement and pivot inference.
    pub similarity: SimilarityFn,
}

impl Default for FillConfig {
    fn default() -> Self {
        FillConfig {
            redundancy: 5,
            first_phase: 3,
            agree_threshold: 0.8,
            early_stop: true,
            similarity: SimilarityFn::default(),
        }
    }
}

/// FILL execution result.
#[derive(Debug, Clone)]
pub struct FillOutcome {
    /// Total questions asked (the Figure 17(b) cost metric).
    pub questions: usize,
    /// Inferred value per input slot, in input order.
    pub values: Vec<String>,
    /// How many inferred values exactly equal the ground truth.
    pub correct: usize,
}

/// Run FILL over a list of slots with known ground truth (simulation): for
/// each slot, workers answer a fill-in-blank task; the pivot of their
/// answers becomes the value.
pub fn execute_fill(
    truths: &[String],
    platform: &mut SimulatedPlatform,
    cfg: &FillConfig,
) -> FillOutcome {
    assert!(cfg.first_phase >= 1 && cfg.first_phase <= cfg.redundancy);
    let mut questions = 0usize;
    let mut values = Vec::with_capacity(truths.len());
    let mut correct = 0usize;
    for (i, truth) in truths.iter().enumerate() {
        let task = Task {
            id: TaskId(i as u64),
            kind: TaskKind::FillInBlank { truth: truth.clone() },
            difficulty: 1.0,
        };
        let first = if cfg.early_stop { cfg.first_phase } else { cfg.redundancy };
        let mut answers: Vec<String> = platform
            .ask_round(std::slice::from_ref(&task), first)
            .into_iter()
            .filter_map(|a| match a.answer {
                Answer::Text(s) => Some(s),
                _ => None,
            })
            .collect();
        questions += answers.len();
        let agreed = cfg.early_stop && has_agreeing_group(&answers, cfg);
        if cfg.early_stop && !agreed && cfg.redundancy > cfg.first_phase {
            let more = platform.ask_round(&[task], cfg.redundancy - cfg.first_phase);
            questions += more.len();
            answers.extend(more.into_iter().filter_map(|a| match a.answer {
                Answer::Text(s) => Some(s),
                _ => None,
            }));
        }
        let value =
            pivot_answer(&answers, cfg.similarity).map(|p| answers[p].clone()).unwrap_or_default();
        if value == *truth {
            correct += 1;
        }
        values.push(value);
    }
    FillOutcome { questions, values, correct }
}

/// True when at least `first_phase` answers are pairwise similar above the
/// agreement threshold.
fn has_agreeing_group(answers: &[String], cfg: &FillConfig) -> bool {
    let need = cfg.first_phase;
    if answers.len() < need {
        return false;
    }
    // Greedy: count answers similar to each anchor.
    for (i, a) in answers.iter().enumerate() {
        let group = answers
            .iter()
            .enumerate()
            .filter(|(j, b)| *j == i || cfg.similarity.similarity(a, b) >= cfg.agree_threshold)
            .count();
        if group >= need {
            return true;
        }
    }
    false
}

/// COLLECT configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectConfig {
    /// Distinct tuples wanted.
    pub target: usize,
    /// Use CDB's autocompletion duplicate control; `false` = Deco baseline.
    pub autocomplete: bool,
    /// Hard cap on questions (BUDGET); `usize::MAX` when absent.
    pub max_questions: usize,
    /// How many suggestions a worker effectively scans before giving up and
    /// submitting a duplicate anyway (models imperfect duplicate
    /// avoidance).
    pub retry_attempts: usize,
    /// Probability a worker garbles the canonical spelling (creating a
    /// representation variant the ER step must fold).
    pub dirty_prob: f64,
    /// Similarity threshold for folding variants into canonical values.
    pub dedup_threshold: f64,
    /// Similarity measure for the ER step.
    pub similarity: SimilarityFn,
}

impl Default for CollectConfig {
    fn default() -> Self {
        CollectConfig {
            target: 100,
            autocomplete: true,
            max_questions: usize::MAX,
            retry_attempts: 10,
            dirty_prob: 0.2,
            dedup_threshold: 0.75,
            similarity: SimilarityFn::default(),
        }
    }
}

/// COLLECT execution result.
#[derive(Debug, Clone)]
pub struct CollectOutcome {
    /// Questions asked.
    pub questions: usize,
    /// Distinct canonical tuples collected.
    pub distinct: usize,
    /// `(questions, distinct)` curve, one point per question — the data
    /// behind Figure 17(a).
    pub curve: Vec<(usize, usize)>,
}

/// Run COLLECT against a closed universe of true values (the simulation
/// stand-in for "the top-100 universities"): each question is one worker
/// contribution drawn uniformly from the universe.
pub fn execute_collect(
    universe: &[String],
    rng: &mut impl Rng,
    cfg: &CollectConfig,
) -> CollectOutcome {
    assert!(!universe.is_empty(), "collect needs a non-empty universe");
    let mut store = AutocompleteStore::new();
    let mut questions = 0usize;
    let mut curve = Vec::new();
    // Termination guard: if the ER step keeps folding contributions into
    // existing canonical values (a universe less distinct than the
    // target), stop once progress stalls for long enough.
    let stall_limit = 1000 + 20 * universe.len();
    let mut since_progress = 0usize;
    while store.distinct_count() < cfg.target.min(universe.len())
        && questions < cfg.max_questions
        && since_progress < stall_limit
    {
        // The worker picks an item they know.
        let mut pick = &universe[rng.gen_range(0..universe.len())];
        if cfg.autocomplete {
            // The autocompletion UI shows existing entries; the worker
            // retries a few times to contribute something new.
            let mut attempts = 0;
            while attempts < cfg.retry_attempts
                && store.suggest(pick, 1).first().is_some_and(|s| *s == pick.as_str())
            {
                pick = &universe[rng.gen_range(0..universe.len())];
                attempts += 1;
            }
        }
        // Without autocomplete the worker types freely and may introduce a
        // spelling variant; with it they select the canonical suggestion.
        let contribution = if !cfg.autocomplete && rng.gen::<f64>() < cfg.dirty_prob {
            dirty_variant(pick, rng)
        } else {
            pick.clone()
        };
        let is_new = store.contribute(&contribution, cfg.similarity, cfg.dedup_threshold);
        questions += 1;
        since_progress = if is_new { 0 } else { since_progress + 1 };
        curve.push((questions, store.distinct_count()));
    }
    CollectOutcome { questions, distinct: store.distinct_count(), curve }
}

/// A worker's spelling variant: drop/duplicate/swap one character.
fn dirty_variant(s: &str, rng: &mut impl Rng) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 3 {
        return s.to_string();
    }
    let mut out = chars;
    let i = rng.gen_range(1..out.len() - 1);
    match rng.gen_range(0..3u8) {
        0 => {
            out.remove(i);
        }
        1 => {
            let c = out[i];
            out.insert(i, c);
        }
        _ => out.swap(i, i + 1),
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_crowd::{Market, WorkerPool};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn platform(acc: f64, seed: u64) -> SimulatedPlatform {
        SimulatedPlatform::new(Market::Amt, WorkerPool::with_accuracies(&vec![acc; 30]), seed)
    }

    /// Realistically distinct value universe: combinations of dissimilar
    /// word pairs, so the ER step does not fold distinct items (two values
    /// sharing only a pattern word stay below the dedup threshold).
    fn truths(n: usize) -> Vec<String> {
        const W1: [&str; 16] = [
            "Quantum", "Marine", "Alpine", "Desert", "Velvet", "Urban", "Rustic", "Ember", "Lunar",
            "Arctic", "Tropic", "Harbor", "Island", "Valley", "Summit", "Prairie",
        ];
        const W2: [&str; 16] = [
            "Physics", "Biology", "History", "Letters", "Commerce", "Medicine", "Forestry",
            "Geology", "Robotics", "Music", "Drama", "Law", "Design", "Nursing", "Aviation",
            "Mining",
        ];
        assert!(n <= 256);
        (0..n).map(|i| format!("{} {} Institute", W1[i % 16], W2[(i / 16) % 16])).collect()
    }

    #[test]
    fn fill_early_stop_saves_questions_with_good_workers() {
        let t = truths(50);
        let mut p1 = platform(0.97, 1);
        let cdb = execute_fill(&t, &mut p1, &FillConfig::default());
        let mut p2 = platform(0.97, 1);
        let deco =
            execute_fill(&t, &mut p2, &FillConfig { early_stop: false, ..FillConfig::default() });
        assert_eq!(deco.questions, 250);
        assert!(cdb.questions < deco.questions, "{} !< {}", cdb.questions, deco.questions);
        // Around 3 per slot with high-quality workers.
        assert!(cdb.questions < 200, "{}", cdb.questions);
    }

    #[test]
    fn fill_accuracy_stays_high_with_early_stop() {
        let t = truths(50);
        let mut p = platform(0.95, 2);
        let out = execute_fill(&t, &mut p, &FillConfig::default());
        assert!(out.correct as f64 / 50.0 > 0.9, "{}/50", out.correct);
        assert_eq!(out.values.len(), 50);
    }

    #[test]
    fn fill_disagreement_triggers_second_phase() {
        let t = truths(30);
        let mut p = platform(0.4, 3); // unreliable workers rarely agree
        let out = execute_fill(&t, &mut p, &FillConfig::default());
        assert!(out.questions > 3 * 30, "{}", out.questions);
    }

    #[test]
    fn collect_with_autocomplete_needs_fewer_questions() {
        // Pure duplicate-control comparison: no spelling noise, dedup only
        // folds near-identical strings, and the target sits close to the
        // universe size (the paper collects the top-100 of a similar-sized
        // universe) so the no-autocomplete baseline pays the full coupon-
        // collector tail.
        let universe: Vec<String> = truths(100);
        let base = CollectConfig {
            target: 95,
            dirty_prob: 0.0,
            dedup_threshold: 0.9,
            ..CollectConfig::default()
        };
        let cfg_cdb = base;
        let cfg_deco = CollectConfig { autocomplete: false, ..base };
        let cdb = execute_collect(&universe, &mut StdRng::seed_from_u64(1), &cfg_cdb);
        let deco = execute_collect(&universe, &mut StdRng::seed_from_u64(1), &cfg_deco);
        assert_eq!(cdb.distinct, 95);
        assert!(
            deco.questions as f64 / cdb.questions as f64 > 2.0,
            "Deco {} vs CDB {}",
            deco.questions,
            cdb.questions
        );
    }

    #[test]
    fn collect_respects_budget() {
        let universe = truths(200);
        let cfg = CollectConfig { target: 200, max_questions: 50, ..CollectConfig::default() };
        let out = execute_collect(&universe, &mut StdRng::seed_from_u64(2), &cfg);
        assert_eq!(out.questions, 50);
        assert!(out.distinct <= 50);
    }

    #[test]
    fn collect_curve_is_monotone() {
        let universe = truths(80);
        let cfg = CollectConfig { target: 60, ..CollectConfig::default() };
        let out = execute_collect(&universe, &mut StdRng::seed_from_u64(3), &cfg);
        for w in out.curve.windows(2) {
            assert!(w[1].0 == w[0].0 + 1);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(out.curve.last().unwrap().1, out.distinct);
    }

    #[test]
    #[should_panic(expected = "non-empty universe")]
    fn collect_empty_universe_panics() {
        execute_collect(&[], &mut StdRng::seed_from_u64(0), &CollectConfig::default());
    }
}
