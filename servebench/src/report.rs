//! The result line and its self-check against `BENCHMARK.json`.
//!
//! The last stdout line is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; `metrics` holds
//! exactly the metrics `BENCHMARK.json` declares for the mode
//! (`end_to_end` untraced, `per_layer` traced), each once, finite, with
//! its declared unit. Before printing, the benchmark renders the line,
//! parses it back with the vendored `serde_json`, and checks it.

use serde::{Content, Deserialize, Deserializer, Serialize};
use std::collections::BTreeMap;

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as declared.
    pub name: String,
    /// Unit, as declared.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

#[derive(Serialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct Line {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

/// Renders the result line.
pub fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let line = Line {
        correct,
        attempted,
        failed,
        metrics: metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value {
                        value: m.value,
                        unit: m.unit.to_string(),
                    },
                )
            })
            .collect(),
    };
    serde_json::to_string(&line).expect("plain structs always encode")
}

/// Any JSON value, kept as the vendored serde's content tree so key
/// sets can be checked exactly.
struct Raw(Content);

impl<'de> Deserialize<'de> for Raw {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_content().map(Raw)
    }
}

fn parse(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Raw>(text)
        .map(|r| r.0)
        .map_err(|e| format!("not JSON: {e}"))
}

/// The entries of a JSON object, refusing duplicate keys.
fn object(content: Content, what: &str) -> Result<BTreeMap<String, Content>, String> {
    let Content::Map(entries) = content else {
        return Err(format!("{what} is not an object"));
    };
    let mut out = BTreeMap::new();
    for (key, value) in entries {
        if out.insert(key.clone(), value).is_some() {
            return Err(format!("{what} repeats key {key:?}"));
        }
    }
    Ok(out)
}

fn exact_keys(map: &BTreeMap<String, Content>, keys: &[&str], what: &str) -> Result<(), String> {
    let have: Vec<&str> = map.keys().map(String::as_str).collect();
    let mut want = keys.to_vec();
    want.sort_unstable();
    if have != want {
        return Err(format!("{what} has keys {have:?}, want {want:?}"));
    }
    Ok(())
}

fn string(content: &Content, what: &str) -> Result<String, String> {
    match content {
        Content::Str(s) => Ok(s.clone()),
        _ => Err(format!("{what} is not a string")),
    }
}

fn whole(content: &Content, what: &str) -> Result<u64, String> {
    match content {
        Content::U64(v) => Ok(*v),
        _ => Err(format!("{what} is not a whole number")),
    }
}

fn number(content: &Content, what: &str) -> Result<f64, String> {
    match content {
        Content::F64(v) => Ok(*v),
        Content::U64(v) => Ok(*v as f64),
        Content::I64(v) => Ok(*v as f64),
        _ => Err(format!("{what} is not a number")),
    }
}

/// A metric `BENCHMARK.json` declares.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// What `BENCHMARK.json` says the benchmark reports.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// Untraced metrics.
    pub end_to_end: Vec<Declared>,
    /// Traced metrics.
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    /// Parses `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let top = object(parse(text)?, "BENCHMARK.json")?;
        let list = |key: &str| -> Result<Vec<BTreeMap<String, Content>>, String> {
            match top.get(key) {
                Some(Content::Seq(items)) => items
                    .iter()
                    .map(|i| object(i.clone(), key))
                    .collect::<Result<_, _>>(),
                _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
            }
        };
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: string(m.get("name").unwrap_or(&Content::Null), "name")?,
                        unit: string(m.get("unit").unwrap_or(&Content::Null), "unit")?,
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                Ok((
                    string(w.get("name").unwrap_or(&Content::Null), "workload name")?,
                    string(w.get("why").unwrap_or(&Content::Null), "workload why")?,
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            workloads,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    /// The declared metrics for a mode.
    pub fn metrics(&self, trace: bool) -> &[Declared] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Checks a rendered result line against the declared metrics: one
/// line, exactly the four top-level keys, whole `attempted ≥ 1` and
/// `failed ≤ attempted`, and exactly the declared metrics, each once,
/// finite, with its unit.
pub fn self_check(line: &str, declared: &[Declared]) -> Result<(), String> {
    if line.contains('\n') {
        return Err("result spans more than one line".into());
    }
    let top = object(parse(line)?, "result")?;
    exact_keys(
        &top,
        &["correct", "attempted", "failed", "metrics"],
        "result",
    )?;
    if !matches!(top["correct"], Content::Bool(_)) {
        return Err("`correct` is not a boolean".into());
    }
    let attempted = whole(&top["attempted"], "`attempted`")?;
    let failed = whole(&top["failed"], "`failed`")?;
    if attempted == 0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let metrics = object(top["metrics"].clone(), "`metrics`")?;
    let names: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
    exact_keys(&metrics, &names, "`metrics`")?;
    for d in declared {
        let entry = object(metrics[&d.name].clone(), &d.name)?;
        exact_keys(&entry, &["value", "unit"], &d.name)?;
        let value = number(&entry["value"], &d.name)?;
        if !value.is_finite() {
            return Err(format!("{} = {value} is not finite", d.name));
        }
        let unit = string(&entry["unit"], &d.name)?;
        if unit != d.unit {
            return Err(format!("{} has unit {unit:?}, want {:?}", d.name, d.unit));
        }
    }
    Ok(())
}

/// Checks that a list of detail metrics names each expected metric
/// exactly once, finite and with a unit.
pub fn check_details(details: &[Metric], expected: &[&str]) -> Result<(), String> {
    for name in expected {
        let found: Vec<&Metric> = details.iter().filter(|m| m.name == *name).collect();
        match found[..] {
            [m] if m.value.is_finite() && !m.unit.is_empty() => {}
            [m] => return Err(format!("{name} = {} {:?}", m.value, m.unit)),
            _ => return Err(format!("{name} reported {} times", found.len())),
        }
    }
    if details.len() != expected.len() {
        return Err(format!(
            "{} details reported, {} expected",
            details.len(),
            expected.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Vec<Declared> {
        [("latency_ms", "ms"), ("setup_s", "s")]
            .iter()
            .map(|(n, u)| Declared {
                name: n.to_string(),
                unit: u.to_string(),
            })
            .collect()
    }

    fn good() -> String {
        render(
            true,
            1000,
            0,
            &[
                metric("latency_ms", "ms", 1.2034),
                metric("setup_s", "s", 0.8127),
            ],
        )
    }

    #[test]
    fn a_rendered_line_passes_and_parses_back() {
        let line = good();
        self_check(&line, &declared()).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\"latency_ms\":\
             {\"value\":1.2034,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn malformed_samples_are_refused() {
        let d = declared();
        let bad = [
            // A metric missing.
            render(true, 10, 0, &[metric("latency_ms", "ms", 1.0)]),
            // A metric nobody declared.
            render(
                true,
                10,
                0,
                &[
                    metric("latency_ms", "ms", 1.0),
                    metric("setup_s", "s", 1.0),
                    metric("extra", "s", 1.0),
                ],
            ),
            // Wrong unit.
            render(
                true,
                10,
                0,
                &[metric("latency_ms", "us", 1.0), metric("setup_s", "s", 1.0)],
            ),
            // Not finite (encoded as null).
            render(
                true,
                10,
                0,
                &[
                    metric("latency_ms", "ms", f64::NAN),
                    metric("setup_s", "s", 1.0),
                ],
            ),
            // Nothing attempted; more failed than attempted.
            render(
                true,
                0,
                0,
                &[metric("latency_ms", "ms", 1.0), metric("setup_s", "s", 1.0)],
            ),
            render(
                true,
                1,
                2,
                &[metric("latency_ms", "ms", 1.0), metric("setup_s", "s", 1.0)],
            ),
            // Hand-broken lines.
            good().replace("\"failed\":0,", ""),
            good().replace("\"correct\":true", "\"correct\":1"),
            good().replace("\"attempted\":1000", "\"attempted\":1000.5"),
            good().replace("{\"value\":1.2034,", "{\"value\":1.2034,\"value\":2.0,"),
            good().replace("\"ms\"}", "\"ms\",\"note\":\"x\"}"),
            format!("{}\n{}", good(), good()),
            format!("{} trailing", good()),
            good()[..good().len() - 1].to_string(),
            String::from("[]"),
        ];
        for (i, line) in bad.iter().enumerate() {
            assert!(self_check(line, &d).is_err(), "sample {i} passed: {line}");
        }
    }

    #[test]
    fn the_committed_manifest_parses() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let m = Manifest::parse(&text).unwrap();
        assert!(m.workloads.len() >= 2);
        assert!(m
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(!m.per_layer.is_empty());
    }

    #[test]
    fn details_must_each_appear_once() {
        let details = [metric("a", "s", 1.0), metric("b", "ms", 2.0)];
        check_details(&details, &["a", "b"]).unwrap();
        assert!(check_details(&details, &["a"]).is_err());
        assert!(check_details(&details, &["a", "b", "c"]).is_err());
        assert!(check_details(&[metric("a", "s", f64::INFINITY)], &["a"]).is_err());
        assert!(check_details(&[metric("a", "s", 1.0), metric("a", "s", 1.0)], &["a"]).is_err());
    }
}
