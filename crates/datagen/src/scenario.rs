//! The `paper` and `award` dataset generators (Tables 2 and 3), plus the
//! extension `movie` dataset used by the profiled Table 5 sweep.

use cdb_core::QueryTruth;
use cdb_storage::{ColumnDef, ColumnType, Database, Schema, Table, TupleId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dirty::{variant, DirtConfig};
use crate::names::{
    movie_title, paper_title, person_name, pick, studio_name, university_name, AWARD_STEMS,
    CONFERENCES, COUNTRIES, GENRES, PLACE_STEMS,
};

/// Table cardinalities. `paper_full()` and `award_full()` match Tables 2
/// and 3 of the paper; `scaled(f)` shrinks everything by a factor for fast
/// simulation sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetScale {
    /// Rows of Paper / Celebrity.
    pub t1: usize,
    /// Rows of Citation / City.
    pub t2: usize,
    /// Rows of Researcher / Winner.
    pub t3: usize,
    /// Rows of University / Award.
    pub t4: usize,
}

impl DatasetScale {
    /// The `paper` dataset sizes of Table 2.
    pub fn paper_full() -> Self {
        DatasetScale { t1: 676, t2: 1239, t3: 911, t4: 830 }
    }

    /// The `award` dataset sizes of Table 3.
    pub fn award_full() -> Self {
        DatasetScale { t1: 1498, t2: 3220, t3: 2669, t4: 1192 }
    }

    /// The `movie` dataset sizes. Not from the paper — an extension
    /// workload with the same 4-table chain shape, sized between `paper`
    /// and `award` so the profiled sweep exercises a third matching structure.
    pub fn movie_full() -> Self {
        DatasetScale { t1: 980, t2: 2150, t3: 640, t4: 310 }
    }

    /// Shrink all cardinalities by `1/f` (at least 4 rows each).
    pub fn scaled(self, f: usize) -> Self {
        assert!(f >= 1);
        DatasetScale {
            t1: (self.t1 / f).max(4),
            t2: (self.t2 / f).max(4),
            t3: (self.t3 / f).max(4),
            t4: (self.t4 / f).max(4),
        }
    }

    /// Grow all cardinalities by `m` (the scale-out sweeps: 10x-100x the
    /// paper cardinalities). Checked so a runaway multiplier fails loudly
    /// instead of wrapping into a tiny dataset.
    pub fn times(self, m: usize) -> Self {
        assert!(m >= 1);
        let mul = |v: usize| v.checked_mul(m).expect("dataset scale multiplier overflows usize");
        DatasetScale { t1: mul(self.t1), t2: mul(self.t2), t3: mul(self.t3), t4: mul(self.t4) }
    }

    /// Total rows across the four tables.
    pub fn rows(self) -> usize {
        self.t1 + self.t2 + self.t3 + self.t4
    }
}

/// A generated dataset: the catalog, the data-level ground truth, and the
/// value universe used by COLLECT experiments.
#[derive(Debug)]
pub struct Dataset {
    /// `"paper"`, `"award"`, or `"movie"`.
    pub name: &'static str,
    /// The four generated tables.
    pub db: Database,
    /// Exact ground truth for joins and selections.
    pub truth: QueryTruth,
    /// A closed universe of collectible values (university names / award
    /// names) for the COLLECT experiments.
    pub universe: Vec<String>,
}

/// Generate the `paper` dataset: Paper(author, title, conference),
/// Citation(title, number), Researcher(affiliation, name, gender),
/// University(name, city, country).
///
/// Matching structure: every researcher's affiliation is a dirty variant
/// of some university name (recorded in the truth), every paper's author
/// is a dirty variant of some researcher's name, and roughly 60% of
/// citations reference a real paper with a dirty variant of its title.
pub fn paper_dataset(scale: DatasetScale, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dirt = DirtConfig::default();
    let mut db = Database::new();
    let mut truth = QueryTruth::default();

    // University.
    let mut university = Table::new(
        "University",
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("city", ColumnType::Text),
            ColumnDef::new("country", ColumnType::Text),
        ]),
    );
    let mut uni_names = Vec::with_capacity(scale.t4);
    for i in 0..scale.t4 {
        let name = university_name(i, &mut rng);
        let true_usa = rng.gen::<f64>() < 0.5;
        let country = if true_usa {
            if rng.gen::<f64>() < 0.5 {
                "USA"
            } else {
                "US"
            }
        } else {
            pick(&COUNTRIES[1..], &mut rng)
        };
        let city = PLACE_STEMS[i % PLACE_STEMS.len()];
        let row = university
            .push(vec![Value::from(name.as_str()), Value::from(city), Value::from(country)])
            .expect("schema matches");
        if true_usa {
            truth.add_selection(TupleId::new("University", row), "USA");
        }
        uni_names.push(name);
    }

    // Researcher: affiliation is a dirty variant of a university name.
    let mut researcher = Table::new(
        "Researcher",
        Schema::new(vec![
            ColumnDef::new("affiliation", ColumnType::Text),
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("gender", ColumnType::Text),
        ]),
    );
    let mut res_names = Vec::with_capacity(scale.t3);
    for i in 0..scale.t3 {
        // ~70% of researchers truly belong to a listed university; ~20%
        // have a *decoy* affiliation (similar to a university name but a
        // different institution — a truly RED edge); ~10% are outside the
        // table entirely (e.g. "Department of Nutrition" in Table 1).
        let roll: f64 = rng.gen();
        let (affiliation, matched_uni) = if roll < 0.1 {
            (format!("Department of Research {i}"), None)
        } else if roll < 0.3 {
            let j = rng.gen_range(0..uni_names.len());
            (decoy(&uni_names[j], PLACE_STEMS, &mut rng), None)
        } else {
            let j = rng.gen_range(0..uni_names.len());
            (variant(&uni_names[j], &dirt, &mut rng), Some(j))
        };
        // Unique-ify names with an index so name joins are unambiguous.
        let name = format!("{} {}", person_name(&mut rng), to_suffix(i));
        let gender = if rng.gen::<bool>() { "female" } else { "male" };
        let row = researcher
            .push(vec![
                Value::from(affiliation.as_str()),
                Value::from(name.as_str()),
                Value::from(gender),
            ])
            .expect("schema matches");
        if let Some(j) = matched_uni {
            truth.add_join(TupleId::new("Researcher", row), TupleId::new("University", j));
        }
        res_names.push(name);
    }

    // Paper: author is a dirty variant of a researcher's name.
    let mut paper = Table::new(
        "Paper",
        Schema::new(vec![
            ColumnDef::new("author", ColumnType::Text),
            ColumnDef::new("title", ColumnType::Text),
            ColumnDef::new("conference", ColumnType::Text),
        ]),
    );
    let mut paper_titles = Vec::with_capacity(scale.t1);
    for i in 0..scale.t1 {
        // ~65% of papers are authored by a listed researcher; the rest
        // carry a decoy author — a name similar to some researcher's but a
        // different person.
        let j = rng.gen_range(0..res_names.len());
        let (author, matched_res) = if rng.gen::<f64>() < 0.65 {
            (variant(&res_names[j], &dirt, &mut rng), Some(j))
        } else {
            (decoy(&res_names[j], crate::names::LAST_NAMES, &mut rng), None)
        };
        let title = format!("{} ({})", paper_title(&mut rng), to_suffix(i));
        let conference = pick(CONFERENCES, &mut rng);
        let row = paper
            .push(vec![
                Value::from(author.as_str()),
                Value::from(title.as_str()),
                Value::from(conference),
            ])
            .expect("schema matches");
        if let Some(j) = matched_res {
            truth.add_join(TupleId::new("Paper", row), TupleId::new("Researcher", j));
        }
        if conference.starts_with("sigmod") {
            truth.add_selection(TupleId::new("Paper", row), "sigmod");
        }
        paper_titles.push(title);
    }

    // Citation: ~60% reference real papers.
    let mut citation = Table::new(
        "Citation",
        Schema::new(vec![
            ColumnDef::new("title", ColumnType::Text),
            ColumnDef::new("number", ColumnType::Int),
        ]),
    );
    for i in 0..scale.t2 {
        // ~55% of citations reference a listed paper; ~25% are decoys
        // (similar title, different paper); the rest are unrelated.
        let roll: f64 = rng.gen();
        let (title, matched) = if roll < 0.55 {
            let j = rng.gen_range(0..paper_titles.len());
            (variant(&paper_titles[j], &dirt, &mut rng), Some(j))
        } else if roll < 0.8 {
            let j = rng.gen_range(0..paper_titles.len());
            (decoy(&paper_titles[j], crate::names::TITLE_SUBJECTS, &mut rng), None)
        } else {
            (format!("{} [ext {i}]", paper_title(&mut rng)), None)
        };
        let number = rng.gen_range(0..100i64);
        let row = citation
            .push(vec![Value::from(title.as_str()), Value::Int(number)])
            .expect("schema matches");
        if let Some(j) = matched {
            truth.add_join(TupleId::new("Citation", row), TupleId::new("Paper", j));
        }
    }

    db.add_table(paper).expect("fresh catalog");
    db.add_table(citation).expect("fresh catalog");
    db.add_table(researcher).expect("fresh catalog");
    db.add_table(university).expect("fresh catalog");
    Dataset { name: "paper", db, truth, universe: uni_names }
}

/// Generate the `award` dataset: Celebrity(name, birthplace, birthday),
/// City(birthplace, country), Winner(name, award), Award(name, place).
pub fn award_dataset(scale: DatasetScale, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dirt = DirtConfig::default();
    let mut db = Database::new();
    let mut truth = QueryTruth::default();

    // City.
    let mut city = Table::new(
        "City",
        Schema::new(vec![
            ColumnDef::new("birthplace", ColumnType::Text),
            ColumnDef::new("country", ColumnType::Text),
        ]),
    );
    let mut city_names = Vec::with_capacity(scale.t2);
    for i in 0..scale.t2 {
        let name = format!("{} {}", PLACE_STEMS[i % PLACE_STEMS.len()], to_suffix(i));
        let true_usa = rng.gen::<f64>() < 0.4;
        let country = if true_usa {
            if rng.gen::<bool>() {
                "USA"
            } else {
                "US"
            }
        } else {
            pick(&COUNTRIES[1..], &mut rng)
        };
        let row = city
            .push(vec![Value::from(name.as_str()), Value::from(country)])
            .expect("schema matches");
        if true_usa {
            truth.add_selection(TupleId::new("City", row), "USA");
        }
        city_names.push(name);
    }

    // Celebrity.
    let mut celebrity = Table::new(
        "Celebrity",
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("birthplace", ColumnType::Text),
            ColumnDef::new("birthday", ColumnType::Text),
        ]),
    );
    let mut celeb_names = Vec::with_capacity(scale.t1);
    for i in 0..scale.t1 {
        let name = format!("{} {}", person_name(&mut rng), to_suffix(i));
        let j = rng.gen_range(0..city_names.len());
        // ~75% of birthplaces truly match a listed city; the rest are
        // decoys (similar spelling, different city).
        let (birthplace, matched_city) = if rng.gen::<f64>() < 0.75 {
            (variant(&city_names[j], &dirt, &mut rng), Some(j))
        } else {
            (decoy(&city_names[j], PLACE_STEMS, &mut rng), None)
        };
        let birthday = format!(
            "19{:02}-{:02}-{:02}",
            rng.gen_range(30..99),
            rng.gen_range(1..13),
            rng.gen_range(1..29)
        );
        let row = celebrity
            .push(vec![
                Value::from(name.as_str()),
                Value::from(birthplace.as_str()),
                Value::from(birthday.as_str()),
            ])
            .expect("schema matches");
        if let Some(j) = matched_city {
            truth.add_join(TupleId::new("Celebrity", row), TupleId::new("City", j));
        }
        celeb_names.push(name);
    }

    // Award.
    let mut award = Table::new(
        "Award",
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("place", ColumnType::Text),
        ]),
    );
    let mut award_names = Vec::with_capacity(scale.t4);
    for i in 0..scale.t4 {
        let name = award_name(i);
        let place = pick(PLACE_STEMS, &mut rng);
        let row = award
            .push(vec![Value::from(name.as_str()), Value::from(place)])
            .expect("schema matches");
        if place == "Boston" {
            truth.add_selection(TupleId::new("Award", row), "Boston");
        }
        award_names.push(name);
    }

    // Winner: name matches a celebrity (~70%), award matches an award.
    let mut winner = Table::new(
        "Winner",
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("award", ColumnType::Text),
        ]),
    );
    for i in 0..scale.t3 {
        // ~55% true celebrity matches, ~25% decoy names (similar but a
        // different person), ~20% entirely outside the table.
        let roll: f64 = rng.gen();
        let (name, matched_celeb) = if roll < 0.55 {
            let j = rng.gen_range(0..celeb_names.len());
            (variant(&celeb_names[j], &dirt, &mut rng), Some(j))
        } else if roll < 0.8 {
            let j = rng.gen_range(0..celeb_names.len());
            (decoy(&celeb_names[j], crate::names::LAST_NAMES, &mut rng), None)
        } else {
            (format!("{} {}", person_name(&mut rng), to_suffix(i + 7000)), None)
        };
        let k = rng.gen_range(0..award_names.len());
        let (award_ref, matched_award) = if rng.gen::<f64>() < 0.75 {
            (variant(&award_names[k], &dirt, &mut rng), Some(k))
        } else {
            (decoy(&award_names[k], crate::names::AWARD_STEMS, &mut rng), None)
        };
        let row = winner
            .push(vec![Value::from(name.as_str()), Value::from(award_ref.as_str())])
            .expect("schema matches");
        if let Some(j) = matched_celeb {
            truth.add_join(TupleId::new("Winner", row), TupleId::new("Celebrity", j));
        }
        if let Some(k) = matched_award {
            truth.add_join(TupleId::new("Winner", row), TupleId::new("Award", k));
        }
    }

    db.add_table(celebrity).expect("fresh catalog");
    db.add_table(city).expect("fresh catalog");
    db.add_table(winner).expect("fresh catalog");
    db.add_table(award).expect("fresh catalog");
    Dataset { name: "award", db, truth, universe: award_names }
}

/// Generate the `movie` dataset: Movie(title, director, genre),
/// Review(title, stars), Director(name, studio), Studio(name, country).
///
/// Same chain shape as the other two datasets — Review ~ Movie ~ Director
/// ~ Studio with selections on Movie.genre (`"drama"`) and Studio.country
/// (`"USA"`) — but a different matching structure: director names are
/// reused across movies (one director authors several movies), so the
/// Movie~Director predicate is denser than the paper dataset's
/// Paper~Researcher one.
pub fn movie_dataset(scale: DatasetScale, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let dirt = DirtConfig::default();
    let mut db = Database::new();
    let mut truth = QueryTruth::default();

    // Studio.
    let mut studio = Table::new(
        "Studio",
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("country", ColumnType::Text),
        ]),
    );
    let mut studio_names = Vec::with_capacity(scale.t4);
    for i in 0..scale.t4 {
        let name = studio_name(i, &mut rng);
        let true_usa = rng.gen::<f64>() < 0.45;
        let country = if true_usa {
            if rng.gen::<bool>() {
                "USA"
            } else {
                "US"
            }
        } else {
            pick(&COUNTRIES[1..], &mut rng)
        };
        let row = studio
            .push(vec![Value::from(name.as_str()), Value::from(country)])
            .expect("schema matches");
        if true_usa {
            truth.add_selection(TupleId::new("Studio", row), "USA");
        }
        studio_names.push(name);
    }

    // Director: studio is a dirty variant of a studio name.
    let mut director = Table::new(
        "Director",
        Schema::new(vec![
            ColumnDef::new("name", ColumnType::Text),
            ColumnDef::new("studio", ColumnType::Text),
        ]),
    );
    let mut director_names = Vec::with_capacity(scale.t3);
    for i in 0..scale.t3 {
        let name = format!("{} {}", person_name(&mut rng), to_suffix(i));
        let j = rng.gen_range(0..studio_names.len());
        // ~70% of directors truly work for a listed studio; the rest carry
        // a decoy studio (similar name, different company).
        let (studio_ref, matched_studio) = if rng.gen::<f64>() < 0.7 {
            (variant(&studio_names[j], &dirt, &mut rng), Some(j))
        } else {
            (decoy(&studio_names[j], PLACE_STEMS, &mut rng), None)
        };
        let row = director
            .push(vec![Value::from(name.as_str()), Value::from(studio_ref.as_str())])
            .expect("schema matches");
        if let Some(j) = matched_studio {
            truth.add_join(TupleId::new("Director", row), TupleId::new("Studio", j));
        }
        director_names.push(name);
    }

    // Movie: director is a dirty variant of a listed director's name.
    let mut movie = Table::new(
        "Movie",
        Schema::new(vec![
            ColumnDef::new("title", ColumnType::Text),
            ColumnDef::new("director", ColumnType::Text),
            ColumnDef::new("genre", ColumnType::Text),
        ]),
    );
    let mut movie_titles = Vec::with_capacity(scale.t1);
    for i in 0..scale.t1 {
        let j = rng.gen_range(0..director_names.len());
        // ~65% of movies have a listed director; the rest a decoy name.
        let (director_ref, matched_dir) = if rng.gen::<f64>() < 0.65 {
            (variant(&director_names[j], &dirt, &mut rng), Some(j))
        } else {
            (decoy(&director_names[j], crate::names::LAST_NAMES, &mut rng), None)
        };
        let true_drama = rng.gen::<f64>() < 0.35;
        // "dramatic comedy" and friends stay similar enough to "drama" to
        // form CROWDEQUAL edges that are truly RED.
        let genre = if true_drama { "drama" } else { pick(&GENRES[1..], &mut rng) };
        let title = format!("{} ({})", movie_title(&mut rng), to_suffix(i));
        let row = movie
            .push(vec![
                Value::from(title.as_str()),
                Value::from(director_ref.as_str()),
                Value::from(genre),
            ])
            .expect("schema matches");
        if let Some(j) = matched_dir {
            truth.add_join(TupleId::new("Movie", row), TupleId::new("Director", j));
        }
        if true_drama {
            truth.add_selection(TupleId::new("Movie", row), "drama");
        }
        movie_titles.push(title);
    }

    // Review: ~55% reference a listed movie, ~25% decoys, rest unrelated.
    let mut review = Table::new(
        "Review",
        Schema::new(vec![
            ColumnDef::new("title", ColumnType::Text),
            ColumnDef::new("stars", ColumnType::Int),
        ]),
    );
    for i in 0..scale.t2 {
        let roll: f64 = rng.gen();
        let (title, matched) = if roll < 0.55 {
            let j = rng.gen_range(0..movie_titles.len());
            (variant(&movie_titles[j], &dirt, &mut rng), Some(j))
        } else if roll < 0.8 {
            let j = rng.gen_range(0..movie_titles.len());
            (decoy(&movie_titles[j], crate::names::TITLE_SUBJECTS, &mut rng), None)
        } else {
            (format!("{} [ext {i}]", movie_title(&mut rng)), None)
        };
        let stars = rng.gen_range(0..11i64);
        let row = review
            .push(vec![Value::from(title.as_str()), Value::Int(stars)])
            .expect("schema matches");
        if let Some(j) = matched {
            truth.add_join(TupleId::new("Review", row), TupleId::new("Movie", j));
        }
    }

    db.add_table(movie).expect("fresh catalog");
    db.add_table(review).expect("fresh catalog");
    db.add_table(director).expect("fresh catalog");
    db.add_table(studio).expect("fresh catalog");
    Dataset { name: "movie", db, truth, universe: studio_names }
}

/// Award name for row `i`. The `(stem, year)` pair has period 40, so rows
/// past the first period carry a short suffix — without it, every award
/// name repeats every 40 rows, and at 10x-100x paper scale the Winner ~
/// Award join degenerates: hundreds of byte-identical award tuples each
/// match every winner variant, blowing the similarity graph up
/// quadratically in the scale multiplier. Rows 0..40 keep the historical
/// spelling so small-scale (simulation) datasets are unchanged.
fn award_name(i: usize) -> String {
    let base = format!("{} {}", AWARD_STEMS[i % AWARD_STEMS.len()], 1980 + (i % 40));
    if i < 40 {
        base
    } else {
        format!("{base} {}", to_suffix(i))
    }
}

/// A *decoy* of a reference string: one interior token replaced by a pool
/// word. The result stays similar enough to the original to form a graph
/// edge (the shared tokens dominate), but the ground truth is *no match* —
/// exactly the "Michael Franklin" vs "Michael I. Jordan" confusions of
/// Table 1 that make crowdsourcing necessary. These decoys are what gives
/// tuple-level pruning its leverage: their edges are truly RED and refute
/// whole families of candidate chains.
fn decoy(reference: &str, pool: &[&str], rng: &mut impl Rng) -> String {
    let tokens: Vec<&str> = reference.split_whitespace().collect();
    if tokens.is_empty() {
        return pool[rng.gen_range(0..pool.len())].to_string();
    }
    let i = rng.gen_range(0..tokens.len());
    let replacement = pool[rng.gen_range(0..pool.len())];
    tokens
        .iter()
        .enumerate()
        .map(|(j, t)| if j == i { replacement } else { *t })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Readable, similarity-inert row disambiguator ("aa", "ab", ...): short
/// suffixes keep tuples distinct without dominating q-gram similarity.
fn to_suffix(i: usize) -> String {
    let a = (b'a' + (i / 26 % 26) as u8) as char;
    let b = (b'a' + (i % 26) as u8) as char;
    let c = i / 676;
    if c == 0 {
        format!("{a}{b}")
    } else {
        format!("{a}{b}{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_matches_requested_scale() {
        let d = paper_dataset(DatasetScale::paper_full().scaled(10), 1);
        assert_eq!(d.db.table("Paper").unwrap().row_count(), 67);
        assert_eq!(d.db.table("Citation").unwrap().row_count(), 123);
        assert_eq!(d.db.table("Researcher").unwrap().row_count(), 91);
        assert_eq!(d.db.table("University").unwrap().row_count(), 83);
    }

    #[test]
    fn paper_full_matches_table2() {
        let s = DatasetScale::paper_full();
        assert_eq!((s.t1, s.t2, s.t3, s.t4), (676, 1239, 911, 830));
        let s = DatasetScale::award_full();
        assert_eq!((s.t1, s.t2, s.t3, s.t4), (1498, 3220, 2669, 1192));
    }

    #[test]
    fn ground_truth_is_populated() {
        let d = paper_dataset(DatasetScale::paper_full().scaled(10), 2);
        assert!(!d.truth.joins.is_empty());
        assert!(!d.truth.selections.is_empty());
        // Roughly 65% of papers have a true researcher and 55% of
        // citations a true paper; well over a third of Paper tuples join.
        let paper_joins =
            d.truth.joins.iter().filter(|(a, b)| a.table == "Paper" || b.table == "Paper").count();
        assert!(paper_joins >= d.db.table("Paper").unwrap().row_count() / 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = paper_dataset(DatasetScale::paper_full().scaled(20), 42);
        let b = paper_dataset(DatasetScale::paper_full().scaled(20), 42);
        assert_eq!(
            a.db.table("Paper").unwrap().column_strings("title").unwrap(),
            b.db.table("Paper").unwrap().column_strings("title").unwrap()
        );
        assert_eq!(a.truth.joins, b.truth.joins);
    }

    #[test]
    fn different_seeds_differ() {
        let a = paper_dataset(DatasetScale::paper_full().scaled(20), 1);
        let b = paper_dataset(DatasetScale::paper_full().scaled(20), 2);
        assert_ne!(
            a.db.table("Paper").unwrap().column_strings("author").unwrap(),
            b.db.table("Paper").unwrap().column_strings("author").unwrap()
        );
    }

    #[test]
    fn award_dataset_tables_and_truth() {
        let d = award_dataset(DatasetScale::award_full().scaled(20), 3);
        for t in ["Celebrity", "City", "Winner", "Award"] {
            assert!(d.db.contains_table(t), "{t}");
        }
        assert!(!d.truth.joins.is_empty());
        assert!(!d.universe.is_empty());
    }

    #[test]
    fn movie_dataset_tables_and_truth() {
        let d = movie_dataset(DatasetScale::movie_full().scaled(20), 5);
        for t in ["Movie", "Review", "Director", "Studio"] {
            assert!(d.db.contains_table(t), "{t}");
        }
        assert!(!d.truth.joins.is_empty());
        assert!(!d.truth.selections.is_empty());
        assert!(!d.universe.is_empty());
        // Both selection targets exist: drama movies and USA studios.
        assert!(d.truth.selections.iter().any(|(t, v)| t.table == "Movie" && v == "drama"));
        assert!(d.truth.selections.iter().any(|(t, v)| t.table == "Studio" && v == "USA"));
    }

    #[test]
    fn movie_generation_is_deterministic() {
        let a = movie_dataset(DatasetScale::movie_full().scaled(20), 42);
        let b = movie_dataset(DatasetScale::movie_full().scaled(20), 42);
        assert_eq!(
            a.db.table("Movie").unwrap().column_strings("title").unwrap(),
            b.db.table("Movie").unwrap().column_strings("title").unwrap()
        );
        assert_eq!(a.truth.joins, b.truth.joins);
    }

    #[test]
    fn universe_holds_university_names() {
        let d = paper_dataset(DatasetScale::paper_full().scaled(10), 4);
        assert_eq!(d.universe.len(), 83);
        assert!(d.universe.iter().all(|u| !u.is_empty()));
    }

    #[test]
    fn suffixes_are_short_and_unique() {
        let set: std::collections::HashSet<String> = (0..2000).map(to_suffix).collect();
        assert_eq!(set.len(), 2000);
    }
}
