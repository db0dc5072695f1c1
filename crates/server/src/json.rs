//! `/run` request bodies: the cell-spec grammar, checked on top of the
//! workspace's one JSON reader ([`tdo_obs::json`]).
//!
//! A cell spec is one flat object whose values are strings, non-negative
//! integers or booleans — no nesting, no arrays, no floats, no negatives.
//! The batch form is exactly `{"cells":[<cell spec>, …]}`: one key whose
//! value is an array of cell specs. Anything else is a parse error (and
//! therefore an HTTP 400), never a panic.

use tdo_obs::json::{self, Value};

/// A parsed `/run` body: its cell specs in request order, each as
/// `(key, value)` pairs in document order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunBody {
    /// The cell specs: exactly one for the single-cell form.
    pub cells: Vec<Vec<(String, Value)>>,
    /// Whether the body was the `{"cells":[…]}` batch form, which answers
    /// `{"results":[…]}` instead of one result object.
    pub batch: bool,
}

/// Parses a `/run` body: a flat cell-spec object, or the batch form
/// `{"cells":[<flat object>, …]}` (detected by its single `cells` key
/// holding an array).
///
/// # Errors
///
/// Returns a human-readable message on any deviation from either grammar.
pub fn parse_run_body(text: &str) -> Result<RunBody, String> {
    let mut pairs = json::parse(text)?;
    if let [(key, Value::Array(cells))] = pairs.as_mut_slice() {
        if key == "cells" {
            let cells = std::mem::take(cells)
                .into_iter()
                .map(|cell| match cell {
                    Value::Object(pairs) => cell_spec(pairs),
                    _ => Err("`cells` elements must be objects".into()),
                })
                .collect::<Result<_, _>>()?;
            return Ok(RunBody { cells, batch: true });
        }
    }
    Ok(RunBody { cells: vec![cell_spec(pairs)?], batch: false })
}

/// Checks that every value of a parsed object is a cell-spec scalar.
fn cell_spec(pairs: Vec<(String, Value)>) -> Result<Vec<(String, Value)>, String> {
    for (key, value) in &pairs {
        match value {
            Value::Str(_) | Value::Bool(_) => {}
            Value::Int(_) if value.as_u64().is_some() => {}
            _ => return Err(format!("`{key}` must be a string, non-negative integer or boolean")),
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pairs of a single-cell body.
    fn single(text: &str) -> Vec<(String, Value)> {
        let RunBody { mut cells, batch } = parse_run_body(text).unwrap();
        assert!(!batch && cells.len() == 1, "single-cell form: {text}");
        cells.remove(0)
    }

    #[test]
    fn parses_a_cell_spec() {
        let pairs = single(
            r#"{ "workload": "mcf", "arm": "sr", "scale": "full", "insts": 5000, "store": true }"#,
        );
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0], ("workload".into(), Value::Str("mcf".into())));
        assert_eq!(pairs[3], ("insts".into(), Value::Int(5000)));
        assert_eq!(pairs[4], ("store".into(), Value::Bool(true)));
    }

    #[test]
    fn empty_object_and_escapes() {
        assert!(single("{}").is_empty());
        assert_eq!(single(r#"{"a":"x\"y\\z\n"}"#)[0].1, Value::Str("x\"y\\z\n".into()));
    }

    #[test]
    fn rejects_what_the_grammar_excludes() {
        for bad in [
            "",
            "[]",
            "{",
            r#"{"a"}"#,
            r#"{"a":1.5}"#,
            r#"{"a":-1}"#,
            r#"{"a":{}}"#,
            r#"{"a":[1]}"#,
            r#"{"a":null}"#,
            r#"{"a":1}x"#,
            r#"{"a":"\q"}"#,
            r#"{"a":99999999999999999999999}"#,
        ] {
            assert!(parse_run_body(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn utf8_survives() {
        assert_eq!(single(r#"{"a":"héllo ⚙"}"#)[0].1, Value::Str("héllo ⚙".into()));
    }

    #[test]
    fn run_body_single_falls_through_to_flat_object() {
        let pairs = single(r#"{"workload":"mcf","insts":5000}"#);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], ("workload".into(), Value::Str("mcf".into())));
    }

    #[test]
    fn run_body_batch_parses_cells_array() {
        let body = parse_run_body(
            r#"{ "cells": [ {"workload":"mcf"}, {"workload":"art","arm":"sr","insts":9} ] }"#,
        )
        .unwrap();
        assert!(body.batch);
        assert_eq!(body.cells.len(), 2);
        assert_eq!(body.cells[0], vec![("workload".into(), Value::Str("mcf".into()))]);
        assert_eq!(body.cells[1][2], ("insts".into(), Value::Int(9)));
        let empty = parse_run_body(r#"{"cells":[]}"#).unwrap();
        assert_eq!(empty, RunBody { cells: vec![], batch: true });
    }

    #[test]
    fn run_body_rejects_malformed_batches() {
        for bad in [
            r#"{"cells":[}"#,
            r#"{"cells":[{"a":1},]}"#,
            r#"{"cells":[{"a":1}]"#,
            r#"{"cells":[{"a":1}],"extra":1}"#,
            r#"{"cells":[[]]}"#,
            r#"{"cells":[{"a":{}}]}"#,
            r#"{"cells":[{"a":1}]}x"#,
        ] {
            assert!(parse_run_body(bad).is_err(), "should reject: {bad}");
        }
        // A non-array `cells` value is an ordinary flat object.
        assert_eq!(single(r#"{"cells":3}"#), vec![("cells".into(), Value::Int(3))]);
    }
}
