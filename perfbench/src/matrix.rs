//! The `matrix` workload: the path CI's `v6report check` and every
//! `v6labd` matrix job run.
//!
//! Sweeps over consecutive base seeds; a sweep is all five fault
//! variants' 66-cell matrices, each run `FleetRunner::run` →
//! `RunManifest::from_fleet` → `canonical()` once on 1 worker and once
//! on every core (order alternating between sweeps).
//!
//! * `cells_per_s` — fast 1-worker sweep rate (330 cells ÷ sweep
//!   wall, manifest building and canonical JSON included);
//! * `cells_per_s_loaded` — fast rate of one manifest on every
//!   core (66 cells ÷ its wall);
//! * `request_us` — fast wall time of that manifest: what
//!   `v6report check` pays per golden;
//! * gates — the 1-worker and N-worker manifests are byte-identical; at
//!   the canonical base seed each equals its `reports/matrix_*.json`,
//!   at every other seed each passes frame conservation.

use std::time::Instant;

use v6fleet::FleetRunner;
use v6report::{MatrixSpec, RunManifest};
use v6testbed::scenario::FaultVariant;

use crate::census::{setup, SetupTimes};
use crate::gates;
use crate::stats::Samples;
use crate::{fast_rate, fast_time, host, Config, Outcome};

/// Run one matrix to its canonical manifest text.
pub fn manifest(spec: &MatrixSpec, threads: usize) -> (v6fleet::FleetReport, String) {
    let scenarios = spec.scenarios();
    let run = FleetRunner::new(threads).run(&scenarios);
    let text = RunManifest::from_fleet(spec, &scenarios, &run.report).canonical();
    (run.report, text)
}

/// Run the matrix workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let root = host::repo_root();
    let mut setups = SetupTimes::default();
    let goldens = setups.rep(cfg, || setup(&root))?;
    let workers = cfg.workers();
    let mut out = Outcome::default();

    let mut sweep_rate = Samples::new();
    let mut xn_us = Samples::new();
    let mut xn_rate = Samples::new();
    let mut cells = 0u64;
    let started = Instant::now();
    let mut k = 0u64;
    while k == 0 || (!cfg.tiny && started.elapsed().as_secs_f64() < cfg.seconds) {
        let base_seed = cfg.seed.wrapping_add(k);
        let mut x1_secs = 0.0;
        let mut sweep_cells = 0u64;
        for fault in FaultVariant::ALL {
            let spec = MatrixSpec { base_seed, fault };
            // Side 0 is the 1-worker run, side 1 the every-core run.
            let order = if k.is_multiple_of(2) { [0, 1] } else { [1, 0] };
            let mut texts = [String::new(), String::new()];
            for side in order {
                let t = Instant::now();
                let (report, text) = manifest(&spec, if side == 0 { 1 } else { workers });
                let secs = t.elapsed().as_secs_f64();
                if side == 0 {
                    x1_secs += secs;
                    sweep_cells += report.results.len() as u64;
                    out.op(gates::matrix_manifest(&goldens, &spec, &report, &text));
                } else {
                    xn_us.push(secs * 1e6);
                    xn_rate.push(report.results.len() as f64 / secs);
                }
                texts[side] = text;
            }
            out.op(gates::same_bytes(
                &format!(
                    "matrix {} base seed {base_seed:#x}: 1 vs {workers} workers",
                    fault.label()
                ),
                &texts[0],
                &texts[1],
            ));
        }
        sweep_rate.push(sweep_cells as f64 / x1_secs);
        cells += sweep_cells;
        setups.rep(cfg, || setup(&root))?;
        k += 1;
    }
    let measured = started.elapsed().as_secs_f64();

    out.metric("cells_per_s", fast_rate(&sweep_rate));
    out.metric("cells_per_s_loaded", fast_rate(&xn_rate));
    out.metric("request_us", fast_time(&xn_us));
    setups.report(&mut out);
    out.metric("peak_rss_mb", host::peak_rss_mb());

    out.num("matrix_cells_per_s", sweep_rate.median());
    out.num("matrix_cells_per_s.p90", fast_rate(&sweep_rate));
    out.num("matrix_cells_per_s_xN", xn_rate.median());
    out.num("matrix_sweeps", k as f64);
    out.num("matrix_cells_x1", cells as f64);
    out.num("matrix_xN", workers as f64);
    out.timing("matrix_manifest_us_xN", &xn_us, 0.99);
    out.num("measured_s", measured);
    Ok(out)
}
