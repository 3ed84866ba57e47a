//! Scenario model: everything one simulated run depends on, as plain
//! data. A [`ScenarioSpec`] is derived from a single `u64` seed
//! ([`ScenarioSpec::from_seed`]) but is *self-describing*: the workload
//! and environment are built from the spec's fields alone, so a shrinker
//! can mutate it and a repro file can replay it byte-for-byte.

use cdb_crowd::stream_rng;
use rand::Rng;

/// One query's workload shape.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryShape {
    /// A crowd join over two item lists drawn from the scenario's shared
    /// entity clusters: item `i` joins item `j` iff they denote the same
    /// entity (`i % clusters == j % clusters`). Labels come from
    /// [`cdb_datagen::cluster_labels`] — dirty spellings, aliasing-free.
    Cluster {
        /// Items on the left side.
        left: usize,
        /// Items on the right side.
        right: usize,
    },
    /// A full CQL query (joins + selections) over a generated dataset:
    /// one of the five representative queries of the paper's Table 4.
    Dataset {
        /// `true` = the paper (ACM/DBLP) dataset, `false` = award.
        paper: bool,
        /// Divisor of the paper-scale cardinalities (bigger = smaller).
        scale: usize,
        /// Index into [`cdb_datagen::queries_for`] (mod its length).
        query: usize,
    },
}

/// A complete scenario: randomized workload + randomized environment,
/// every field reproducible from the generating seed and serializable to
/// a repro file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Root seed: keys every stream (labels, platform, faults, fill,
    /// collect) via [`cdb_crowd::stream_key`].
    pub seed: u64,
    /// Thread count for the real (concurrent) run.
    pub threads: usize,
    /// Cross-query answer reuse on/off.
    pub reuse: bool,
    /// All workers answer truthfully (enables the strong invariants:
    /// ground-truth bindings, reuse/no-reuse equality, zero conflicts).
    pub perfect: bool,
    /// Simulated worker-pool size.
    pub workers: usize,
    /// Mean worker accuracy when not perfect.
    pub quality: f64,
    /// Entity clusters shared by every `Cluster` query in the scenario.
    pub clusters: usize,
    /// Uniform fault rate (split across dropout/abandon/slow).
    pub fault_rate: f64,
    /// Scripted `(worker, at_virtual_ms)` dropouts.
    pub forced_drops: Vec<(u32, u64)>,
    /// Per-assignment answer deadline (virtual ms).
    pub deadline_ms: u64,
    /// Reassignments a task may consume before its query fails.
    pub max_retries: u32,
    /// Task budget per query (`None` = unlimited).
    pub budget: Option<usize>,
    /// Workers per task.
    pub redundancy: usize,
    /// Kill-and-recover point: run the first `kill_after` queries, drop
    /// all process state (as a crash would), reopen the durable store
    /// and run the rest. `0` disables the crash (the recovery check is
    /// skipped); values ≥ the query count leave nothing to resume.
    pub kill_after: usize,
    /// Worker shards for the component-sharded execution checks. `1`
    /// compares trivially; larger counts arm the sharded-vs-oracle
    /// differential and the cross-shard conservation invariant.
    pub shard_count: usize,
    /// The query mix, in query-id order.
    pub queries: Vec<QueryShape>,
    /// FILL slots to run as an auxiliary workload (0 = none).
    pub fill_slots: usize,
    /// COLLECT `(universe, target)` auxiliary workload.
    pub collect: Option<(usize, usize)>,
}

/// Thread counts a scenario may draw — the acceptance matrix.
pub const THREAD_CHOICES: [usize; 5] = [1, 2, 4, 8, 16];

/// Shard counts a scenario may draw for the sharded-execution checks.
pub const SHARD_CHOICES: [usize; 4] = [1, 2, 4, 8];

impl ScenarioSpec {
    /// Derive a full scenario from one seed. Every draw comes from the
    /// seed's own stream, so equal seeds give byte-equal specs.
    pub fn from_seed(seed: u64) -> ScenarioSpec {
        let mut r = stream_rng(seed, &[0x5CE2]);
        let threads = THREAD_CHOICES[r.gen_range(0..THREAD_CHOICES.len())];
        let reuse = r.gen::<f64>() < 0.5;
        let perfect = r.gen::<f64>() < 0.5;
        let workers = r.gen_range(10..=30);
        let quality = 0.75 + 0.2 * r.gen::<f64>();
        let clusters = r.gen_range(2..=4);
        let fault_rate = if r.gen::<f64>() < 0.4 { 0.0 } else { 0.25 * r.gen::<f64>() };
        let mut forced_drops = Vec::new();
        if r.gen::<f64>() < 0.25 {
            for _ in 0..r.gen_range(1..=2) {
                forced_drops.push((r.gen_range(0..workers as u32), r.gen_range(0..120_000u64)));
            }
        }
        // Mostly generous budgets (failures stay a deliberate minority);
        // occasionally tight so retry exhaustion is exercised too.
        let (deadline_ms, max_retries) =
            if r.gen::<f64>() < 0.2 { (60_000, 2) } else { (300_000, 8) };
        // Once the early-termination coin, now always on; still drawn so
        // every later field keeps its value for every seed.
        let _ = r.gen::<f64>();
        let budget = if r.gen::<f64>() < 0.15 { Some(r.gen_range(5..40)) } else { None };
        let redundancy = if r.gen::<f64>() < 0.5 { 3 } else { 5 };
        let n_queries = r.gen_range(1..=5);
        let queries = (0..n_queries)
            .map(|_| {
                if r.gen::<f64>() < 1.0 / 8.0 {
                    QueryShape::Dataset {
                        paper: r.gen::<f64>() < 0.5,
                        scale: r.gen_range(100..=160),
                        query: r.gen_range(0..5),
                    }
                } else {
                    QueryShape::Cluster { left: r.gen_range(2..=6), right: r.gen_range(2..=5) }
                }
            })
            .collect();
        let fill_slots = if r.gen::<f64>() < 0.4 { r.gen_range(1..=3) } else { 0 };
        let collect = if r.gen::<f64>() < 0.4 {
            Some((r.gen_range(8..=25), r.gen_range(5..=15)))
        } else {
            None
        };
        // Drawn last so older seeds keep generating byte-identical specs
        // for every field above (`shard_count` newest, after `kill_after`).
        // Once the multi-query scheduler's quantum; still drawn so every
        // later field keeps its value for every seed.
        let _ = r.gen_range(2..=16);
        let kill_after =
            if n_queries >= 2 && r.gen::<f64>() < 0.35 { r.gen_range(1..n_queries) } else { 0 };
        let shard_count = SHARD_CHOICES[r.gen_range(0..SHARD_CHOICES.len())];
        ScenarioSpec {
            seed,
            threads,
            reuse,
            perfect,
            workers,
            quality,
            clusters,
            fault_rate,
            forced_drops,
            deadline_ms,
            max_retries,
            budget,
            redundancy,
            kill_after,
            shard_count,
            queries,
            fill_slots,
            collect,
        }
    }

    /// Serialize to the repro-file format (`key=value` lines; see
    /// DESIGN.md "Simulation testing"). Round-trips through
    /// [`ScenarioSpec::parse`].
    pub fn to_text(&self) -> String {
        let mut s = String::from("# cdb-sim repro v1\n");
        s.push_str(&format!("seed={}\n", self.seed));
        s.push_str(&format!("threads={}\n", self.threads));
        s.push_str(&format!("reuse={}\n", self.reuse));
        s.push_str(&format!("perfect={}\n", self.perfect));
        s.push_str(&format!("workers={}\n", self.workers));
        s.push_str(&format!("quality={}\n", self.quality));
        s.push_str(&format!("clusters={}\n", self.clusters));
        s.push_str(&format!("fault_rate={}\n", self.fault_rate));
        for &(w, at) in &self.forced_drops {
            s.push_str(&format!("forced_drop={w}@{at}\n"));
        }
        s.push_str(&format!("deadline_ms={}\n", self.deadline_ms));
        s.push_str(&format!("max_retries={}\n", self.max_retries));
        match self.budget {
            Some(b) => s.push_str(&format!("budget={b}\n")),
            None => s.push_str("budget=none\n"),
        }
        s.push_str(&format!("redundancy={}\n", self.redundancy));
        s.push_str(&format!("kill_after={}\n", self.kill_after));
        s.push_str(&format!("shard_count={}\n", self.shard_count));
        for q in &self.queries {
            match q {
                QueryShape::Cluster { left, right } => {
                    s.push_str(&format!("query=cluster:{left}x{right}\n"));
                }
                QueryShape::Dataset { paper, scale, query } => {
                    let which = if *paper { "paper" } else { "award" };
                    s.push_str(&format!("query=dataset:{which}:{scale}:{query}\n"));
                }
            }
        }
        s.push_str(&format!("fill_slots={}\n", self.fill_slots));
        match self.collect {
            Some((u, t)) => s.push_str(&format!("collect={u}:{t}\n")),
            None => s.push_str("collect=none\n"),
        }
        s
    }

    /// Parse the repro-file format. Lines starting with `#` and keys this
    /// version does not know (e.g. the informational `violation=`) are
    /// ignored, so repro files can carry annotations.
    pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec {
            seed: 0,
            threads: 1,
            reuse: false,
            perfect: true,
            workers: 10,
            quality: 0.85,
            clusters: 2,
            fault_rate: 0.0,
            forced_drops: Vec::new(),
            deadline_ms: 300_000,
            max_retries: 8,
            budget: None,
            redundancy: 5,
            kill_after: 0,
            shard_count: 1,
            queries: Vec::new(),
            fill_slots: 0,
            collect: None,
        };
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected key=value, got `{line}`", ln + 1))?;
            let bad = |what: &str| format!("line {}: bad {what} `{val}`", ln + 1);
            match key {
                "seed" => spec.seed = val.parse().map_err(|_| bad("u64"))?,
                "threads" => spec.threads = val.parse().map_err(|_| bad("usize"))?,
                "reuse" => spec.reuse = val.parse().map_err(|_| bad("bool"))?,
                "perfect" => spec.perfect = val.parse().map_err(|_| bad("bool"))?,
                "workers" => spec.workers = val.parse().map_err(|_| bad("usize"))?,
                "quality" => spec.quality = val.parse().map_err(|_| bad("f64"))?,
                "clusters" => spec.clusters = val.parse().map_err(|_| bad("usize"))?,
                "fault_rate" => spec.fault_rate = val.parse().map_err(|_| bad("f64"))?,
                "forced_drop" => {
                    let (w, at) = val.split_once('@').ok_or_else(|| bad("worker@at"))?;
                    spec.forced_drops.push((
                        w.parse().map_err(|_| bad("worker id"))?,
                        at.parse().map_err(|_| bad("instant"))?,
                    ));
                }
                "deadline_ms" => spec.deadline_ms = val.parse().map_err(|_| bad("u64"))?,
                "max_retries" => spec.max_retries = val.parse().map_err(|_| bad("u32"))?,
                "budget" => {
                    spec.budget = if val == "none" {
                        None
                    } else {
                        Some(val.parse().map_err(|_| bad("usize"))?)
                    };
                }
                "redundancy" => spec.redundancy = val.parse().map_err(|_| bad("usize"))?,
                "kill_after" => spec.kill_after = val.parse().map_err(|_| bad("usize"))?,
                "shard_count" => spec.shard_count = val.parse().map_err(|_| bad("usize"))?,
                "query" => {
                    if let Some(rest) = val.strip_prefix("cluster:") {
                        let (l, r) = rest.split_once('x').ok_or_else(|| bad("LxR"))?;
                        spec.queries.push(QueryShape::Cluster {
                            left: l.parse().map_err(|_| bad("left"))?,
                            right: r.parse().map_err(|_| bad("right"))?,
                        });
                    } else if let Some(rest) = val.strip_prefix("dataset:") {
                        let mut it = rest.split(':');
                        let which = it.next().ok_or_else(|| bad("dataset"))?;
                        let scale = it.next().ok_or_else(|| bad("scale"))?;
                        let query = it.next().ok_or_else(|| bad("query index"))?;
                        spec.queries.push(QueryShape::Dataset {
                            paper: which == "paper",
                            scale: scale.parse().map_err(|_| bad("scale"))?,
                            query: query.parse().map_err(|_| bad("query index"))?,
                        });
                    } else {
                        return Err(bad("query shape"));
                    }
                }
                "fill_slots" => spec.fill_slots = val.parse().map_err(|_| bad("usize"))?,
                "collect" => {
                    spec.collect = if val == "none" {
                        None
                    } else {
                        let (u, t) = val.split_once(':').ok_or_else(|| bad("universe:target"))?;
                        Some((
                            u.parse().map_err(|_| bad("universe"))?,
                            t.parse().map_err(|_| bad("target"))?,
                        ))
                    };
                }
                // Unknown keys (annotations like `violation=`, `sabotage=`
                // handled by the repro module) are skipped.
                _ => {}
            }
        }
        if spec.queries.is_empty() && spec.fill_slots == 0 && spec.collect.is_none() {
            return Err("repro describes no workload".into());
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_seed_sensitive() {
        assert_eq!(ScenarioSpec::from_seed(7), ScenarioSpec::from_seed(7));
        let differs = (1..=20).any(|s| ScenarioSpec::from_seed(s) != ScenarioSpec::from_seed(0));
        assert!(differs, "20 consecutive seeds generated identical scenarios");
    }

    #[test]
    fn repro_text_round_trips() {
        for seed in 0..50 {
            let spec = ScenarioSpec::from_seed(seed);
            let text = spec.to_text();
            let back = ScenarioSpec::parse(&text).expect("parses");
            assert_eq!(spec, back, "round-trip diverged for seed {seed}:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ScenarioSpec::parse("not a repro").is_err());
        assert!(ScenarioSpec::parse("seed=1\nquery=cluster:2z3\n").is_err());
        assert!(ScenarioSpec::parse("seed=1\n").is_err(), "no workload");
    }
}
