//! `paper --format json` is one stream of JSON lines: the static
//! configuration tables emit a report row per component, like every
//! simulated entry, instead of their aligned text.

use std::process::Command;

use tdo_obs::json::parse;

const PAPER: &str = env!("CARGO_BIN_EXE_paper");

fn paper(args: &[&str]) -> String {
    let out = Command::new(PAPER).args(args).output().expect("paper runs");
    assert!(
        out.status.success(),
        "paper {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn json_output_is_only_json_lines_with_a_table_field() {
    // Both configuration tables plus one simulated entry, so the test
    // covers the two kinds of entry in one stream.
    let out = paper(&[
        "table1_config",
        "table2_config",
        "fig3_overhead",
        "--quick",
        "--no-store",
        "--format",
        "json",
    ]);
    let mut tables = Vec::new();
    for line in out.lines() {
        let fields = parse(line).unwrap_or_else(|e| panic!("not a JSON line ({e}): {line}"));
        let table = fields
            .iter()
            .find(|(k, _)| k == "table")
            .unwrap_or_else(|| panic!("no table field: {line}"));
        let name = format!("{:?}", table.1);
        if !tables.contains(&name) {
            tables.push(name);
        }
    }
    assert!(tables.len() >= 3, "the simulated entry emitted no table: {tables:?}");
    // One row per component: 9 in Table 1, 3 in Table 2.
    assert_eq!(out.lines().filter(|l| l.contains("\"table\":\"table1\"")).count(), 9);
    assert_eq!(out.lines().filter(|l| l.contains("\"table\":\"table2\"")).count(), 3);
}

#[test]
fn config_tables_keep_their_aligned_text_in_table_mode() {
    let out = paper(&["table2_config", "--no-store"]);
    let want = "Table 2: Trident hardware monitoring structures\n\
                -----------------------------------------------\n\
                Branch profiler      256-entry, 4-way associative, 15-saturating counters,\n\
                \x20                    3 standalone 16-bit direction bitmaps\n";
    assert!(out.starts_with(want), "table text changed:\n{out}");
    assert_eq!(out.lines().count(), 10, "title, rule and eight lines");
}
