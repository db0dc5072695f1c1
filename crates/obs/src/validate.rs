//! Schema validation for emitted logs — used by tests and by CI through
//! `tdo trace-validate`.
//!
//! The JSONL validator checks exactly what the serializer produces: one
//! compact flat object per line (no whitespace between tokens, no string
//! escapes), string keys, integer or string values. It checks the schema,
//! not just well-formedness:
//!
//! * `"cycle"` is the first key and an integer, non-decreasing across lines;
//! * `"event"` is the second key and one of [`crate::event::EVENT_NAMES`];
//! * every other value is an integer or a plain string.

use crate::event::EVENT_NAMES;
use crate::json::{self, Value};

/// Parses one serializer-shaped line — a compact, escape-free flat object
/// of integer and string values — through the shared [`json`] reader.
pub(crate) fn parse_schema_line(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '\\' => return Err(format!("escape at column {} is not part of the schema", i + 1)),
            c if c.is_ascii_whitespace() && !in_string => {
                return Err(format!("whitespace at column {} is not part of the schema", i + 1));
            }
            _ => {}
        }
    }
    let fields = json::parse(line)?;
    for (key, value) in &fields {
        if !matches!(value, Value::Int(_) | Value::Str(_)) {
            return Err(format!("`{key}` must be an integer or a string"));
        }
    }
    Ok(fields)
}

/// Validates a JSONL event log against the schema.
///
/// Returns the number of events on success.
///
/// # Errors
///
/// Returns a message naming the first offending line and what is wrong with
/// it.
pub fn validate_jsonl(log: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_cycle = 0;
    for (no, line) in log.lines().enumerate() {
        let at = |m: String| format!("line {}: {m}", no + 1);
        let fields = parse_schema_line(line).map_err(&at)?;
        match fields.first() {
            Some((k, Value::Int(cycle))) if k == "cycle" => {
                if *cycle < last_cycle {
                    return Err(at(format!(
                        "cycle {cycle} goes backwards (previous {last_cycle})"
                    )));
                }
                last_cycle = *cycle;
            }
            _ => return Err(at("first field must be an integer `cycle`".into())),
        }
        match fields.get(1) {
            Some((k, Value::Str(name))) if k == "event" => {
                if !EVENT_NAMES.contains(&name.as_str()) {
                    return Err(at(format!("unknown event `{name}`")));
                }
            }
            _ => return Err(at("second field must be a string `event`".into())),
        }
        count += 1;
    }
    Ok(count)
}

/// Structurally validates a Chrome `trace_event` file: balanced braces,
/// brackets and strings, with a top-level `traceEvents` array.
///
/// Returns the number of trace entries (phase markers) on success.
///
/// # Errors
///
/// Returns a message describing the structural problem.
pub fn validate_chrome_trace(trace: &str) -> Result<usize, String> {
    if !trace.starts_with("{\"traceEvents\":[") {
        return Err("missing top-level traceEvents array".into());
    }
    let mut stack = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in trace.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => stack.push(c),
            '}' if stack.pop() != Some('{') => return Err("unbalanced `}`".into()),
            ']' if stack.pop() != Some('[') => return Err("unbalanced `]`".into()),
            _ => {}
        }
    }
    if in_string {
        return Err("unterminated string".into());
    }
    if !stack.is_empty() {
        return Err(format!("{} unclosed delimiters", stack.len()));
    }
    Ok(trace.matches("\"ph\":").count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_serializer_output() {
        let log = "{\"cycle\":1,\"event\":\"helper_finish\",\"job\":0}\n\
                   {\"cycle\":5,\"event\":\"load_matured\",\"pc\":4096}\n";
        assert_eq!(validate_jsonl(log), Ok(2));
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(validate_jsonl("{\"event\":\"sample\",\"cycle\":1}").is_err(), "order");
        assert!(validate_jsonl("{\"cycle\":1,\"event\":\"nope\"}").is_err(), "unknown name");
        assert!(
            validate_jsonl(
                "{\"cycle\":9,\"event\":\"helper_finish\",\"job\":0}\n\
                 {\"cycle\":3,\"event\":\"helper_finish\",\"job\":1}\n"
            )
            .is_err(),
            "cycle regression"
        );
        assert!(validate_jsonl("not json").is_err(), "garbage");
        assert!(validate_jsonl("{\"cycle\":1,\"event\":\"sample\"} extra").is_err(), "trailing");
        assert!(validate_jsonl("{\"cycle\":1, \"event\":\"sample\"}").is_err(), "whitespace");
        assert!(validate_jsonl("{\"cycle\":1,\"event\":\"sam\\u0070le\"}").is_err(), "escape");
        assert!(validate_jsonl("{\"cycle\":1,\"event\":\"sample\",\"x\":1.5}").is_err(), "float");
        assert!(validate_jsonl("{\"cycle\":1,\"event\":\"sample\",\"x\":[1]}").is_err(), "array");
    }

    #[test]
    fn chrome_validator_checks_structure() {
        assert!(validate_chrome_trace("{\"traceEvents\":[\n]}\n").is_ok());
        assert!(validate_chrome_trace("[]").is_err(), "wrong root");
        assert!(validate_chrome_trace("{\"traceEvents\":[{]}").is_err(), "unbalanced");
        let ok = "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\
                  \"tid\":0,\"s\":\"t\",\"args\":{\"a\":1}}\n]}\n";
        assert_eq!(validate_chrome_trace(ok), Ok(1));
    }
}
