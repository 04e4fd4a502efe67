//! `v6report` — emit, check, and diff canonical run manifests.
//!
//! ```text
//! v6report emit  [--out DIR] [--threads N]
//! v6report check [STEM...] [--reports DIR] [--fresh-out DIR] [--threads N]
//! v6report diff  <before.json> <after.json>
//! ```
//!
//! `emit` regenerates the committed goldens under `reports/`: one
//! manifest per canonical sweep (the 66-cell clean matrix plus every
//! impaired fault variant), the 100k sampled-population census, and
//! `experiments.json`, every row of the paper's figures, tables and
//! ablations. Wall-clock figures are not manifests; `perfbench`
//! measures them. `check` re-runs the same goldens fresh, writes the
//! fresh manifests under `--fresh-out` (default `target/reports`,
//! uploaded as a CI artifact on failure) and exits nonzero on any
//! drift, naming every drifted field. With positional STEM arguments
//! (`v6report check matrix_broken-delegation`) only the named goldens
//! are re-run — the per-sweep CI lanes use this to gate just their own
//! manifest without paying for the full canonical set. `diff` lists the
//! drift between two manifest files without running anything.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use v6report::{diff_manifests, MatrixSpec, RunManifest};
use v6testbed::scenario::FaultVariant;

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

struct Args {
    command: String,
    positional: Vec<String>,
    reports: PathBuf,
    fresh_out: PathBuf,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        positional: Vec::new(),
        reports: PathBuf::from("reports"),
        fresh_out: PathBuf::from("target/reports"),
        threads: default_threads(),
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--out" | "--reports" => args.reports = PathBuf::from(value(&flag)?),
            "--fresh-out" => args.fresh_out = PathBuf::from(value(&flag)?),
            "--threads" => {
                args.threads = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            other if !other.starts_with("--") => args.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn usage() -> String {
    "usage: v6report <emit|check|diff> [flags]\n\
     \x20 emit  [--out DIR] [--threads N]\n\
     \x20 check [STEM...] [--reports DIR] [--fresh-out DIR] [--threads N]\n\
     \x20 diff  <before.json> <after.json>"
        .to_string()
}

fn write_manifest(dir: &Path, stem: &str, manifest: &RunManifest) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, manifest.canonical())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// One committed golden: its file stem and how to regenerate it.
struct Golden {
    stem: String,
    run: Box<dyn Fn(usize) -> RunManifest>,
}

/// Every committed golden, in emit/check order: the matrix sweeps, the
/// sampled population, the paper's experiment rows.
fn goldens() -> Vec<Golden> {
    let mut all: Vec<Golden> = FaultVariant::ALL
        .into_iter()
        .map(|fault| {
            let spec = MatrixSpec::canonical(fault);
            Golden {
                stem: spec.file_stem(),
                run: Box::new(move |threads| RunManifest::run_matrix(&spec, threads)),
            }
        })
        .collect();
    all.push(Golden {
        stem: format!("population_{}k", v6report::CANONICAL_POPULATION_SIZE / 1000),
        run: Box::new(|threads| {
            RunManifest::run_population(&v6report::canonical_population(), threads)
        }),
    });
    all.push(Golden {
        stem: "experiments".into(),
        run: Box::new(|_threads| RunManifest::run_experiments()),
    });
    all
}

fn emit(args: &Args) -> Result<(), String> {
    for golden in goldens() {
        let path = write_manifest(&args.reports, &golden.stem, &(golden.run)(args.threads))?;
        println!("emitted {}", path.display());
    }
    Ok(())
}

/// Compare `fresh` against the committed manifest at `path`. Returns
/// whether the gate passed.
fn check_one(path: &Path, fresh: &RunManifest) -> Result<bool, String> {
    let committed_text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "read {}: {e} (run `just bless-reports` to create the goldens)",
            path.display()
        )
    })?;
    if committed_text == fresh.canonical() {
        println!("ok    {}", path.display());
        return Ok(true);
    }
    let committed = v6report::Json::parse(&committed_text)
        .map_err(|e| format!("parse {}: {e}", path.display()))?;
    let report = diff_manifests(&committed, fresh.json());
    if report.is_clean() {
        // Same data, different bytes: a manifest written by some other
        // serializer. Canonical form is part of the contract.
        println!("DRIFT {}: non-canonical serialization", path.display());
    } else {
        println!(
            "DRIFT {}: {} drifted field(s)",
            path.display(),
            report.drifts.len()
        );
        print!("{}", report.render());
    }
    Ok(false)
}

fn check(args: &Args) -> Result<bool, String> {
    let goldens = goldens();
    // A misspelled stem silently gating nothing would read as a pass;
    // make it an explicit error instead.
    let unknown: Vec<&String> = args
        .positional
        .iter()
        .filter(|s| !goldens.iter().any(|g| &g.stem == *s))
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = goldens.iter().map(|g| g.stem.as_str()).collect();
        return Err(format!(
            "unknown manifest stem(s) {unknown:?}; known: {}",
            known.join(", ")
        ));
    }
    // No positionals → the full canonical set; otherwise only the named
    // stems run (a per-sweep CI lane gates just its own manifest).
    let mut all_ok = true;
    for golden in goldens
        .iter()
        .filter(|g| args.positional.is_empty() || args.positional.contains(&g.stem))
    {
        let fresh = (golden.run)(args.threads);
        // Always persist the fresh manifest: on drift, CI uploads these
        // for post-mortem diffing against the committed goldens.
        write_manifest(&args.fresh_out, &golden.stem, &fresh)?;
        let committed = args.reports.join(format!("{}.json", golden.stem));
        all_ok &= check_one(&committed, &fresh)?;
    }
    Ok(all_ok)
}

fn diff(args: &Args) -> Result<bool, String> {
    let [before_path, after_path] = args.positional.as_slice() else {
        return Err(format!("diff takes exactly two files\n{}", usage()));
    };
    let read = |p: &String| -> Result<v6report::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        v6report::Json::parse(&text).map_err(|e| format!("parse {p}: {e}"))
    };
    let report = diff_manifests(&read(before_path)?, &read(after_path)?);
    if report.is_clean() {
        println!("identical: {before_path} == {after_path}");
        return Ok(true);
    }
    print!("{}", report.render());
    Ok(false)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "emit" => emit(&args).map(|()| true),
        "check" => check(&args),
        "diff" => diff(&args),
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("v6report: drift gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("v6report: {e}");
            ExitCode::from(2)
        }
    }
}
