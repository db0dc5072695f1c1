//! Renders the paper's tables, figures and ablations from one process, so a
//! cell that several of them read is simulated once. With no entry names it
//! prints every entry in order: exactly the fenced blocks of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p tdo-bench --bin paper -- [ENTRY...] [--quick] [--jobs N] ...
//! ```

use tdo_bench::paper::PAPER;
use tdo_bench::{Harness, HarnessOpts, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = PAPER.iter().map(|(name, _)| *name).collect();
    let usage = format!(
        "usage: paper [ENTRY...] [options]\nentries (default: all, in this order):\n  {}\n{USAGE}",
        names.join("\n  ")
    );
    // Leading bare words name entries; everything after is a harness flag.
    let n = args.iter().take_while(|a| !a.starts_with('-')).count();
    let mut entries = Vec::with_capacity(n);
    for word in &args[..n] {
        let Some(&entry) = PAPER.iter().find(|(name, _)| name == word) else {
            eprintln!("error: unknown entry `{word}`\n{usage}");
            std::process::exit(2);
        };
        entries.push(entry);
    }
    if entries.is_empty() {
        entries = PAPER.to_vec();
    }
    let h = Harness::new(HarnessOpts::parse_or_exit(&args[n..], &usage));
    for (_, render) in entries {
        render(&h);
    }
}
