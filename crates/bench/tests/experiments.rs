//! The simulator experiments E6–E8, pinned: each generator's full-size
//! rows must equal the CSV in `tests/golden/experiments/`, and
//! EXPERIMENTS.md must quote their Markdown rendering verbatim.
//!
//! After a deliberate change to a table, rerun with `DBR_BLESS=1` to
//! rewrite the CSV, paste the printed Markdown into EXPERIMENTS.md, and
//! explain the diff there.

use std::path::PathBuf;

use debruijn_analysis::Table;
use debruijn_bench::experiments;

fn repo_file(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(relative)
}

fn check(id: &str, table: &Table) {
    let csv = repo_file(&format!("tests/golden/experiments/{id}.csv"));
    if std::env::var_os("DBR_BLESS").is_some() {
        std::fs::write(&csv, table.to_csv()).unwrap();
    }
    let want = std::fs::read_to_string(&csv)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", csv.display()));
    assert_eq!(
        table.to_csv(),
        want,
        "{id} rows differ from {}",
        csv.display()
    );
    let doc = std::fs::read_to_string(repo_file("EXPERIMENTS.md")).unwrap();
    let markdown = table.to_markdown();
    assert!(
        doc.contains(&markdown),
        "EXPERIMENTS.md does not quote the {id} table:\n{markdown}"
    );
}

#[test]
fn e6_simulation_hops_is_pinned() {
    check("e6", &experiments::simulation_hops());
}

#[test]
fn e7_wildcard_balancing_is_pinned() {
    check("e7", &experiments::wildcard_balancing());
}

#[test]
fn e8_fault_tolerance_is_pinned() {
    check("e8", &experiments::fault_tolerance());
}
