//! Prometheus text-format exposition (and a line-format validator).
//!
//! Writes the [text-based exposition format]: `# HELP` / `# TYPE`
//! comments, `name{label="value"} number` samples, histogram `_bucket` /
//! `_sum` / `_count` triples with a trailing `+Inf` bucket. The validator
//! re-checks the grammar and the histogram semantics line by line; every
//! exposition the workspace writes is validated in-process, so a
//! regression in the writer fails fast and close to the bug.
//!
//! [text-based exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write;

/// Builder for a Prometheus text exposition.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

fn render_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl PromText {
    /// Start an empty exposition.
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let _ = writeln!(self.buf, "{name}{} {}", render_labels(labels), render_value(value));
    }

    /// Emit a counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// Emit a labelled counter family (one HELP/TYPE, one sample per
    /// label set).
    pub fn counter_family(&mut self, name: &str, help: &str, samples: &[(Vec<(&str, &str)>, u64)]) {
        self.header(name, help, "counter");
        for (labels, value) in samples {
            self.sample(name, labels, *value as f64);
        }
    }

    /// Emit a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// Emit a histogram from raw bucket counts. `uppers[i]` is the
    /// inclusive upper bound of `counts[i]`; counts are per-bucket (not
    /// cumulative — this fn accumulates). A `+Inf` bucket equal to the
    /// total is appended unless the caller's last bound is already
    /// `f64::INFINITY` (an open-ended final bucket), plus `_sum` and
    /// `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, uppers: &[f64], counts: &[u64], sum: f64) {
        assert_eq!(uppers.len(), counts.len(), "bucket bound/count mismatch");
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        let bucket = format!("{name}_bucket");
        for (u, c) in uppers.iter().zip(counts) {
            cumulative += c;
            let upper = render_value(*u);
            self.sample(&bucket, &[("le", &upper)], cumulative as f64);
        }
        if uppers.last().copied() != Some(f64::INFINITY) {
            self.sample(&bucket, &[("le", "+Inf")], cumulative as f64);
        }
        self.sample(&format!("{name}_sum"), &[], sum);
        self.sample(&format!("{name}_count"), &[], cumulative as f64);
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Validate Prometheus text-format exposition line by line. Checks:
/// comment grammar, metric-name and label syntax, parseable sample
/// values, that every sample's base name was declared by a preceding
/// `# HELP` and `# TYPE`, and histogram semantics: each family's
/// `_bucket` counts are monotone in document order, end in an
/// `le="+Inf"` bucket, and that bucket equals the family's `_count`.
/// Returns the first offending line on error.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// A histogram family's last bucket, `+Inf` bucket and `_count` so far.
    #[derive(Default)]
    struct Buckets {
        last: Option<f64>,
        inf: Option<f64>,
        count: Option<f64>,
    }

    let mut helped: Vec<String> = Vec::new();
    let mut typed: Vec<String> = Vec::new();
    let mut histograms: Vec<(String, Buckets)> = Vec::new();
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let (keyword, name) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let declared = match keyword {
                "HELP" => &mut helped,
                "TYPE" => &mut typed,
                _ => return Err(format!("line {ln}: unknown comment keyword '{keyword}'")),
            };
            if !valid_name(name) {
                return Err(format!("line {ln}: bad {keyword} metric name '{name}'"));
            }
            declared.push(name.to_string());
            if keyword == "TYPE" {
                let kind = parts.next().unwrap_or("");
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                    return Err(format!("line {ln}: unknown metric type '{kind}'"));
                }
                if kind == "histogram" {
                    histograms.push((name.to_string(), Buckets::default()));
                }
            }
            continue;
        }
        if line.starts_with('#') {
            // Bare comment without space: tolerated by Prometheus, but our
            // writer never produces it — flag it.
            return Err(format!("line {ln}: comment must start with '# '"));
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {ln}: sample has no value"))?;
        let mut le = None;
        let name = match name_part.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
                // label="value",label="value"
                let mut rem = labels;
                while !rem.is_empty() {
                    let (lname, value) = rem
                        .split_once("=\"")
                        .ok_or_else(|| format!("line {ln}: malformed label in '{labels}'"))?;
                    if !valid_name(lname) {
                        return Err(format!("line {ln}: bad label name '{lname}'"));
                    }
                    // The closing quote is the first one not escaped.
                    let mut esc = false;
                    let close = value
                        .find(|c| {
                            let end = !esc && c == '"';
                            esc = !esc && c == '\\';
                            end
                        })
                        .ok_or_else(|| format!("line {ln}: unterminated label value"))?;
                    if lname == "le" {
                        le = Some(&value[..close]);
                    }
                    rem = &value[close + 1..];
                    rem = rem.strip_prefix(',').unwrap_or(rem);
                }
                n
            }
            None => name_part,
        };
        if !valid_name(name) {
            return Err(format!("line {ln}: bad metric name '{name}'"));
        }
        let v = value_part.trim();
        // `f64` parses `+Inf`, `-Inf` and `NaN` as written.
        let value: f64 = v.parse().map_err(|_| format!("line {ln}: unparseable value '{v}'"))?;
        // A histogram sample's base name strips _bucket/_sum/_count.
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !typed.iter().any(|t| t == name || t == base) {
            return Err(format!("line {ln}: sample '{name}' has no preceding # TYPE"));
        }
        if !helped.iter().any(|t| t == name || t == base) {
            return Err(format!("line {ln}: sample '{name}' has no preceding # HELP"));
        }
        if let Some((_, b)) = histograms.iter_mut().find(|(h, _)| h == base && h != name) {
            if name.ends_with("_count") {
                b.count = Some(value);
            } else if name.ends_with("_bucket") {
                let Some(le) = le else {
                    return Err(format!("line {ln}: histogram bucket without an le label"));
                };
                if let Some(last) = b.last.filter(|&last| value < last) {
                    return Err(format!("line {ln}: bucket {v} below the previous {last}"));
                }
                b.last = Some(value);
                if le == "+Inf" {
                    b.inf = Some(value);
                }
            }
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    for (name, b) in histograms.iter().filter(|(_, b)| b.last.is_some()) {
        let Some(inf) = b.inf else {
            return Err(format!("histogram {name} has no le=\"+Inf\" bucket"));
        };
        if b.count != Some(inf) {
            return Err(format!("histogram {name} le=\"+Inf\" bucket {inf} != {name}_count"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let mut p = PromText::new();
        p.counter("cdb_tasks_dispatched_total", "Assignments dispatched.", 42);
        p.gauge("cdb_drop_ratio", "Ring drop ratio.", 0.25);
        let text = p.finish();
        assert!(text.contains("# TYPE cdb_tasks_dispatched_total counter"));
        assert!(text.contains("cdb_tasks_dispatched_total 42"));
        assert!(text.contains("cdb_drop_ratio 0.25"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn histogram_is_cumulative_with_inf_bucket() {
        let mut p = PromText::new();
        p.histogram("cdb_round_ms", "Round latency.", &[1.0, 2.0, 4.0], &[3, 0, 2], 11.0);
        let text = p.finish();
        validate_exposition(&text).unwrap();
        assert!(text.contains("cdb_round_ms_bucket{le=\"1\"} 3"));
        assert!(text.contains("cdb_round_ms_bucket{le=\"2\"} 3"));
        assert!(text.contains("cdb_round_ms_bucket{le=\"4\"} 5"));
        assert!(text.contains("cdb_round_ms_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("cdb_round_ms_sum 11"));
        assert!(text.contains("cdb_round_ms_count 5"));
    }

    #[test]
    fn open_ended_final_bucket_is_the_inf_bucket() {
        let mut p = PromText::new();
        p.histogram("m", "open-ended.", &[1.0, f64::INFINITY], &[2, 3], 9.0);
        let text = p.finish();
        validate_exposition(&text).unwrap();
        assert_eq!(text.matches("le=\"+Inf\"").count(), 1);
        assert!(text.contains("m_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("m_count 5"));
    }

    #[test]
    fn counter_family_shares_one_header() {
        let mut p = PromText::new();
        p.counter_family(
            "cdb_faults_total",
            "Faults by kind.",
            &[(vec![("kind", "dropout")], 3), (vec![("kind", "abandoned")], 1)],
        );
        let text = p.finish();
        validate_exposition(&text).unwrap();
        assert_eq!(text.matches("# TYPE cdb_faults_total").count(), 1);
        assert!(text.contains("cdb_faults_total{kind=\"dropout\"} 3"));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("").is_err());
        assert!(validate_exposition("just words\n").is_err());
        assert!(validate_exposition("# BOGUS x y\n").is_err());
        // Sample without a TYPE declaration.
        assert!(validate_exposition("orphan_metric 1\n").is_err());
        // Unterminated label set.
        let bad = "# HELP m h\n# TYPE m counter\nm{kind=\"x 1\n";
        assert!(validate_exposition(bad).is_err());
        // Unparseable value.
        let bad2 = "# HELP m h\n# TYPE m counter\nm forty-two\n";
        assert!(validate_exposition(bad2).is_err());
    }

    /// A one-family histogram exposition with the given sample lines.
    fn histogram(samples: &str) -> String {
        format!("# HELP m h\n# TYPE m histogram\n{samples}")
    }

    #[test]
    fn validator_accepts_a_well_formed_histogram() {
        let ok = histogram("m_bucket{le=\"1\"} 2\nm_bucket{le=\"+Inf\"} 3\nm_sum 4\nm_count 3\n");
        validate_exposition(&ok).unwrap();
    }

    #[test]
    fn validator_rejects_non_monotone_buckets() {
        let bad = histogram("m_bucket{le=\"1\"} 3\nm_bucket{le=\"+Inf\"} 2\nm_sum 4\nm_count 2\n");
        assert!(validate_exposition(&bad).unwrap_err().contains("below"));
    }

    #[test]
    fn validator_rejects_a_histogram_without_an_inf_bucket() {
        let bad = histogram("m_bucket{le=\"1\"} 3\nm_sum 4\nm_count 3\n");
        assert!(validate_exposition(&bad).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn validator_rejects_an_inf_bucket_that_is_not_the_count() {
        let bad = histogram("m_bucket{le=\"1\"} 3\nm_bucket{le=\"+Inf\"} 3\nm_sum 4\nm_count 5\n");
        assert!(validate_exposition(&bad).unwrap_err().contains("_count"));
    }

    #[test]
    fn validator_rejects_a_sample_before_its_help() {
        let bad = "# TYPE m counter\nm 1\n";
        assert!(validate_exposition(bad).unwrap_err().contains("# HELP"));
    }

    #[test]
    fn label_escaping_validates() {
        let mut p = PromText::new();
        p.counter_family("m", "has \"quotes\".", &[(vec![("k", "a\"b\\c")], 1)]);
        validate_exposition(&p.finish()).unwrap();
    }
}
