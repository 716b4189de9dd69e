//! The result line, checked against the metric catalogue in
//! `BENCHMARK.json` (compiled in, so the names cannot drift).

use std::collections::HashMap;
use std::fmt::Write as _;
use weakset_obs::json::Json;

/// The repository's benchmark definition.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The metrics `BENCHMARK.json` declares under `section`
/// (`end_to_end` or `per_layer`), in order.
pub fn declared(section: &str) -> Result<Vec<Declared>, String> {
    let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Json::Arr(items)) = doc.get(section) else {
        return Err(format!("BENCHMARK.json has no `{section}` list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{section}` entry lacks `{k}`"))
            };
            Ok(Declared {
                name: field("name")?,
                unit: field("unit")?,
            })
        })
        .collect()
}

/// Formats the result line. Every declared metric must be measured and
/// finite, and nothing undeclared may be reported.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Declared],
    measured: &[(String, f64)],
) -> Result<String, String> {
    let mut values: HashMap<&str, f64> = HashMap::new();
    for (name, v) in measured {
        if values.insert(name, *v).is_some() {
            return Err(format!("metric {name} measured twice"));
        }
    }
    if let Some((name, _)) = measured
        .iter()
        .find(|(n, _)| !declared.iter().any(|d| d.name == *n))
    {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, d) in declared.iter().enumerate() {
        let v = *values
            .get(d.name.as_str())
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} has no finite value ({v})", d.name));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            d.name, d.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_parses_and_setup_time_is_declared() {
        let e2e = declared("end_to_end").expect("end_to_end list");
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(!declared("per_layer").expect("per_layer list").is_empty());
    }

    #[test]
    fn result_line_requires_exactly_the_declared_metrics() {
        let decl = vec![Declared {
            name: "a".into(),
            unit: "ms".into(),
        }];
        let m = |name: &str, v: f64| (name.to_string(), v);
        let line = result_line(true, 3, 1, &decl, &[m("a", 1.5)]).expect("complete line");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"}}}"
        );
        assert!(result_line(true, 1, 0, &decl, &[]).is_err());
        assert!(result_line(true, 1, 0, &decl, &[m("a", 1.0), m("b", 2.0)]).is_err());
        assert!(result_line(true, 1, 0, &decl, &[m("a", f64::NAN)]).is_err());
    }
}
