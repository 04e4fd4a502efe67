//! `v6report` — emit, check, and diff canonical run manifests.
//!
//! ```text
//! v6report emit  [--out DIR]
//! v6report check [STEM...] [--reports DIR] [--fresh-out DIR] [--tolerance F] [--threads N]
//! v6report diff <before.json> <after.json> [--tolerance F]
//! ```
//!
//! `emit` regenerates the committed goldens under `reports/`: one
//! manifest per canonical sweep (the 66-cell clean matrix plus every
//! impaired fault variant) and the 100k sampled-population census.
//! Wall-clock figures are not manifests; `perfbench` measures them.
//! `check` re-runs the same sweeps fresh, writes the fresh manifests
//! under `--fresh-out` (default `target/reports`, uploaded as a CI
//! artifact on failure) and exits nonzero on gated drift, naming every
//! drifted field. With positional STEM arguments (`v6report check
//! matrix_broken-delegation`) only the named goldens are re-run — the
//! per-sweep CI lanes use this to gate just their own manifest without
//! paying for the full canonical set. `diff` classifies the drift
//! between two manifest files without running anything.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use v6report::{diff_manifests, DiffConfig, DriftClass, MatrixSpec, RunManifest};
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
    cfg: DiffConfig,
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
        cfg: DiffConfig::default(),
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
            "--tolerance" => {
                args.cfg.counter_tolerance = value(&flag)?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
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
     \x20 emit  [--out DIR]\n\
     \x20 check [STEM...] [--reports DIR] [--fresh-out DIR] [--tolerance F] [--threads N]\n\
     \x20 diff  <before.json> <after.json> [--tolerance F]"
        .to_string()
}

/// Every committed matrix manifest, in emit/check order.
fn canonical_specs() -> Vec<MatrixSpec> {
    FaultVariant::ALL
        .iter()
        .map(|&fault| MatrixSpec::canonical(fault))
        .collect()
}

fn write_manifest(dir: &Path, stem: &str, manifest: &RunManifest) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, manifest.canonical())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// File stem of the committed sampled-population golden.
fn population_stem() -> String {
    format!("population_{}k", v6report::CANONICAL_POPULATION_SIZE / 1000)
}

fn emit(args: &Args) -> Result<(), String> {
    for spec in canonical_specs() {
        let manifest = RunManifest::run_matrix(&spec, args.threads);
        let path = write_manifest(&args.reports, &spec.file_stem(), &manifest)?;
        println!("emitted {}", path.display());
    }
    let population = RunManifest::run_population(&v6report::canonical_population(), args.threads);
    let path = write_manifest(&args.reports, &population_stem(), &population)?;
    println!("emitted {}", path.display());
    Ok(())
}

/// Compare `fresh` against the committed manifest at `path`. Returns
/// whether the gate passed.
fn check_one(path: &Path, fresh: &RunManifest, cfg: &DiffConfig) -> Result<bool, String> {
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
        return Ok(false);
    }
    let gated = report.gated(cfg);
    let behavioural = report
        .drifts
        .iter()
        .filter(|d| d.class == DriftClass::Behavioural)
        .count();
    println!(
        "{} {}: {} drifted field(s), {} behavioural",
        if gated { "DRIFT" } else { "note " },
        path.display(),
        report.drifts.len(),
        behavioural,
    );
    print!("{}", report.render(cfg));
    Ok(!gated)
}

fn check(args: &Args) -> Result<bool, String> {
    // No positionals → the full canonical set; otherwise only the named
    // stems run (a per-sweep CI lane gates just its own manifest).
    let want = |stem: &str| args.positional.is_empty() || args.positional.iter().any(|s| s == stem);
    let mut matched = 0usize;
    let mut all_ok = true;
    for spec in canonical_specs() {
        if !want(&spec.file_stem()) {
            continue;
        }
        matched += 1;
        let fresh = RunManifest::run_matrix(&spec, args.threads);
        // Always persist the fresh manifest: on drift, CI uploads these
        // for post-mortem diffing against the committed goldens.
        write_manifest(&args.fresh_out, &spec.file_stem(), &fresh)?;
        let committed = args.reports.join(format!("{}.json", spec.file_stem()));
        all_ok &= check_one(&committed, &fresh, &args.cfg)?;
    }
    if want(&population_stem()) {
        matched += 1;
        let fresh = RunManifest::run_population(&v6report::canonical_population(), args.threads);
        write_manifest(&args.fresh_out, &population_stem(), &fresh)?;
        let committed = args.reports.join(format!("{}.json", population_stem()));
        all_ok &= check_one(&committed, &fresh, &args.cfg)?;
    }
    // A misspelled stem silently gating nothing would read as a pass;
    // make it an explicit error instead.
    if !args.positional.is_empty() && matched < args.positional.len() {
        let known: Vec<String> = canonical_specs()
            .iter()
            .map(MatrixSpec::file_stem)
            .chain([population_stem()])
            .collect();
        let unknown: Vec<&String> = args
            .positional
            .iter()
            .filter(|s| !known.contains(s))
            .collect();
        if !unknown.is_empty() {
            return Err(format!(
                "unknown manifest stem(s) {unknown:?}; known: {}",
                known.join(", ")
            ));
        }
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
    print!("{}", report.render(&args.cfg));
    Ok(!report.gated(&args.cfg))
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
