//! Checks one perfbench `--trace 1` run against a benchmark ledger.
//!
//! ```text
//! perfbench --workload W --seed S --trace 1 ... | ledger_check LEDGER W S
//! ```
//!
//! Reads perfbench's output on stdin and compares its last JSON line with
//! the ledger's `--trace 1` run of workload `W` at seed `S` (ledgers are
//! written by `./bench_ledger.sh`). Every work counter, i.e. every row in
//! `count`, `B` or `ratio` units, must equal the ledger's exactly, except
//! `uf.allocs` and `logical.allocs`, which vary from run to run. Prints
//! each mismatch, and exits 1 on a mismatch, on a row missing from either
//! side, or on a run that is not `"correct": true`; 2 on a usage error.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::process::ExitCode;

/// Work counters that do not repeat from run to run.
const UNGATED: [&str; 2] = ["uf.allocs", "logical.allocs"];

/// The gated rows of one perfbench result line: name to value as printed.
fn gated_rows(line: &str) -> BTreeMap<String, String> {
    const VALUE: &str = "{\"value\": ";
    let mut rows = BTreeMap::new();
    let mut rest = line;
    while let Some(at) = rest.find(VALUE) {
        let name = rest[..at]
            .rsplit('"')
            .nth(1)
            .unwrap_or_default()
            .to_string();
        rest = &rest[at + VALUE.len()..];
        let value = rest.split(',').next().unwrap_or_default().trim();
        let unit = rest
            .split("\"unit\": \"")
            .nth(1)
            .and_then(|u| u.split('"').next())
            .unwrap_or_default();
        if matches!(unit, "count" | "B" | "ratio") && !UNGATED.contains(&name.as_str()) {
            rows.insert(name, value.to_string());
        }
    }
    rows
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [ledger, workload, seed] = args.as_slice() else {
        eprintln!("usage: ledger_check LEDGER WORKLOAD SEED < perfbench-output");
        return ExitCode::from(2);
    };
    let mut run = String::new();
    let ledger_text = match (
        std::fs::read_to_string(ledger),
        std::io::stdin().read_to_string(&mut run),
    ) {
        (Ok(text), Ok(_)) => text,
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger_check: {e}");
            return ExitCode::from(2);
        }
    };
    let key = format!("\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 1,");
    let expected = ledger_text.lines().find(|l| l.contains(&key));
    let got = run
        .lines()
        .rfind(|l| l.starts_with('{'))
        .unwrap_or_default();
    let want = gated_rows(expected.unwrap_or_default());
    let have = gated_rows(got);

    let mut bad = 0;
    if want.is_empty() {
        println!("{ledger} has no --trace 1 result of {workload} at seed {seed}");
        bad += 1;
    }
    if !got.contains("\"correct\": true") {
        println!("the run is not correct: {got}");
        bad += 1;
    }
    let names: BTreeSet<&String> = want.keys().chain(have.keys()).collect();
    for name in names {
        let (w, h) = (want.get(name), have.get(name));
        if w != h {
            let show = |v: Option<&String>| v.map_or("missing", String::as_str).to_string();
            println!("{name}: ledger {}, run {}", show(w), show(h));
            bad += 1;
        }
    }
    println!(
        "{workload} seed {seed}: {} work counters checked against {ledger}, {bad} mismatches",
        want.len()
    );
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
