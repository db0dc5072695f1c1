//! Self-test of the benchmark: shortened runs of every workload must
//! print every metric `BENCHMARK.json` names with its unit and zero
//! failures, a deliberately wrong expected result must count as a failed
//! operation, and one seed must always yield the same plan and cells.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A parsed JSON value (just enough JSON for `BENCHMARK.json` and the
/// benchmark's result line).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.i), Some(&c), "expected `{}` at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                    assert_eq!(self.s[self.i - 1], b',', "bad object separator");
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                    assert_eq!(self.s[self.i - 1], b',', "bad array separator");
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => out.push(c as char),
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number `{text}`")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "bad literal at byte {}", self.i);
        self.i += w.len();
        v
    }
}

fn benchmark() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

fn workloads() -> Vec<String> {
    benchmark().get("workloads").arr().iter().map(|w| w.get("name").str().to_string()).collect()
}

/// One shortened benchmark run: its stdout and the parsed last line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (String, Json) {
    // Each run gets its own working directory for the scratch stores.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{seed}-{trace}-{}", extra.join("")));
    std::fs::create_dir_all(&dir).unwrap();
    let seed = seed.to_string();
    let trace_flag = if trace { "1" } else { "0" };
    let mut args = vec!["--workload", workload, "--seed", &seed, "--seconds", "1"];
    args.extend(["--trace", trace_flag, "--quick"]);
    args.extend(extra);
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(&args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output").to_string();
    let scratch_left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(scratch_left.is_empty(), "{workload}: scratch files left behind: {scratch_left:?}");
    (stdout, Parser::parse(&last))
}

fn note<'a>(stdout: &'a str, key: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no `{key}=` line in\n{stdout}"))
}

fn check_metrics(workload: &str, result: &Json, want: &[(String, String)]) {
    assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}: {result:?}");
    assert_eq!(result.get("failed").num(), 0.0, "{workload}");
    assert!(result.get("attempted").num() >= 1.0, "{workload}");
    let metrics = result.get("metrics").obj();
    let got: Vec<&String> = metrics.keys().collect();
    let mut names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    names.sort();
    assert_eq!(got, names, "{workload}: reported metrics differ from BENCHMARK.json");
    for (name, unit) in want {
        let m = &metrics[name];
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(m.get("value").num().is_finite(), "{workload}: {name}");
    }
}

#[test]
fn shortened_runs_print_every_declared_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in workloads() {
        let (_, result) = run(&workload, 3, false, &[]);
        check_metrics(&workload, &result, &end_to_end);
        for (name, _) in &end_to_end {
            let v = result.get("metrics").get(name).get("value").num();
            assert!(v > 0.0, "{workload}: end-to-end metric {name} reads {v}");
        }
        let (_, result) = run(&workload, 3, true, &[]);
        check_metrics(&workload, &result, &per_layer);
    }
}

#[test]
fn a_wrong_expected_result_counts_as_a_failed_operation() {
    for workload in workloads() {
        let (_, result) = run(&workload, 5, false, &["--wrong-expected"]);
        assert_eq!(result.get("correct"), &Json::Bool(false), "{workload}");
        assert!(result.get("failed").num() >= 1.0, "{workload}: {result:?}");
    }
}

#[test]
fn one_seed_always_yields_the_same_plan_and_cells() {
    for workload in workloads() {
        let (a, _) = run(&workload, 11, false, &[]);
        let (b, traced) = run(&workload, 11, true, &[]);
        assert_eq!(note(&a, "plan_digest"), note(&b, "plan_digest"), "{workload}");
        if workload.starts_with("sim-") {
            // The untraced and the traced pass simulate the same cells to
            // the same results, and a second traced pass reports the same
            // simulated counts.
            assert_eq!(note(&a, "suite_digest"), note(&b, "suite_digest"), "{workload}");
            let (_, again) = run(&workload, 11, true, &[]);
            let counts = |r: &Json| -> Vec<(String, f64)> {
                let metrics = r.get("metrics").obj();
                metrics
                    .iter()
                    .filter(|(_, m)| ["count", "cycles", "insts"].contains(&m.get("unit").str()))
                    .map(|(name, m)| (name.clone(), m.get("value").num()))
                    .collect()
            };
            assert!(counts(&traced).len() >= 20, "{workload}");
            assert_eq!(counts(&traced), counts(&again), "{workload}: simulated counts moved");
        }
        let (c, _) = run(&workload, 12, false, &[]);
        assert_ne!(note(&a, "plan_digest"), note(&c, "plan_digest"), "{workload}: seed ignored");
    }
}
