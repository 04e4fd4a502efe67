//! `perfbench --workload <census|matrix|labd> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary and a detail object (host facts,
//! provenance, the named metrics with sample counts) on standard
//! output, then, as the last line, the result object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits 1 when
//! any correctness gate failed, 2 on bad arguments.
//!
//! `perfbench --smoke` runs every workload at tiny size, traced and
//! untraced, and prints every metric name with its unit and value.

use std::time::Instant;

use perfbench::{host, Config, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    cfg: Config,
    smoke: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <census|matrix|labd> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke";

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        cfg: Config {
            seed: v6report::CANONICAL_BASE_SEED,
            seconds: 10.0,
            trace: false,
            tiny: false,
            started,
        },
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.cfg.seconds.is_finite() || args.cfg.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.smoke && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn provenance(out: &mut Outcome, cfg: &Config) {
    let root = host::repo_root();
    out.num("host.nproc", host::nproc() as f64);
    out.text("host.rustc", host::rustc_version());
    out.text("host.os", std::env::consts::OS);
    out.text("host.arch", std::env::consts::ARCH);
    match host::git_rev(&root) {
        Some((rev, dirty)) => {
            out.text("git.rev", rev);
            out.text("git.dirty", dirty.to_string());
        }
        None => out.text("git.rev", "none (not a git checkout)"),
    }
    out.text("source_digest", host::source_digest(&root));
    out.num("seed", cfg.seed as f64);
    out.num("seconds", cfg.seconds);
    out.num("trace", f64::from(u8::from(cfg.trace)));
}

fn summary(out: &Outcome, table: &[(&str, &str)]) {
    for (name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("{name:<44} {v:>16.4} {unit}");
    }
    println!(
        "ops: attempted {} failed {} (ops_failed_frac {})",
        out.attempted,
        out.failures.len(),
        out.failures.len() as f64 / out.attempted.max(1) as f64
    );
    for f in out.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
}

/// Every metric of `table` must be present and finite.
fn missing(out: &Outcome, table: &[(&str, &str)]) -> Vec<String> {
    table
        .iter()
        .filter(|(n, _)| !out.metrics.get(n).is_some_and(|v| v.is_finite()))
        .map(|(n, _)| n.to_string())
        .collect()
}

fn smoke(started: Instant) -> i32 {
    let mut code = 0;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed: 7,
                seconds: 0.2,
                trace,
                tiny: true,
                started,
            };
            let table = if trace { PER_LAYER } else { END_TO_END };
            println!("== {workload} trace={}", u8::from(trace));
            match perfbench::run(workload, &cfg) {
                Ok(out) => {
                    summary(&out, table);
                    let gone = missing(&out, table);
                    if !gone.is_empty() || !out.failures.is_empty() {
                        println!("SMOKE FAILED: missing {gone:?}");
                        code = 1;
                    }
                }
                Err(e) => {
                    println!("SMOKE FAILED: {e}");
                    code = 1;
                }
            }
        }
    }
    code
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.smoke {
        std::process::exit(smoke(started));
    }
    let mut out = match perfbench::run(&args.workload, &args.cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    provenance(&mut out, &args.cfg);
    let table = if args.cfg.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let gone = missing(&out, table);
    assert!(gone.is_empty(), "workload did not report {gone:?}");
    out.num(
        "ops_failed_frac",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
    );
    summary(&out, table);
    println!("{}", perfbench::detail_json(&out));
    println!("{}", perfbench::result_json(&out, table));
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
