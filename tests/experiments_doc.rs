//! EXPERIMENTS.md quotes the paper rows verbatim: every line of every
//! ` ```rows ` block must be a row `paper_rows` prints today, and every
//! experiment id must be quoted at least once.

use v6testbed::experiments::paper_rows;

/// The lines of every ` ```rows ` fenced block in `doc`.
fn quoted_rows(doc: &str) -> Vec<&str> {
    let mut rows = Vec::new();
    let mut inside = false;
    for line in doc.lines() {
        if inside {
            if line.starts_with("```") {
                inside = false;
            } else if !line.trim().is_empty() {
                rows.push(line);
            }
        } else if line.trim_end() == "```rows" {
            inside = true;
        }
    }
    assert!(!inside, "unterminated ```rows block");
    rows
}

#[test]
fn every_quoted_row_is_a_row_the_code_prints() {
    let doc = include_str!("../EXPERIMENTS.md");
    let printed = paper_rows();
    let quoted = quoted_rows(doc);
    let missing: Vec<&str> = quoted
        .iter()
        .copied()
        .filter(|q| !printed.iter().any(|(_, row)| row == q))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md quotes rows the experiments no longer print:\n{}",
        missing.join("\n")
    );
    let is_quoted = |id: &str| {
        printed
            .iter()
            .any(|(other, row)| *other == id && quoted.contains(&row.as_str()))
    };
    let mut unquoted: Vec<&str> = printed
        .iter()
        .map(|(id, _)| *id)
        .filter(|id| !is_quoted(id))
        .collect();
    unquoted.dedup();
    assert!(
        unquoted.is_empty(),
        "EXPERIMENTS.md quotes no row of {unquoted:?}"
    );
}
