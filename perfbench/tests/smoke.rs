//! The tiny-size smoke mode runs every workload, traced and untraced,
//! and prints every metric by name with its unit; `BENCHMARK.json`
//! names exactly the metrics and workloads the benchmark reports.

use perfbench::{BENCHMARKED, END_TO_END, PER_LAYER};
use v6report::Json;

#[test]
fn smoke_prints_every_metric_with_its_unit() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name) && l.ends_with(&format!(" {unit}"))),
            "{name} ({unit}) missing from:\n{stdout}"
        );
    }
}

fn names(v: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(rows)) = v.get(key) else {
        panic!("BENCHMARK.json has no {key} list")
    };
    rows.iter()
        .map(|r| {
            let field = |f: &str| match r.get(f) {
                Some(Json::Str(s)) => s.clone(),
                _ => String::new(),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_reported_metrics() {
    let root = perfbench::host::repo_root();
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = Json::parse(&text).expect("BENCHMARK.json parses");
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&v, "end_to_end"), table(END_TO_END));
    assert_eq!(names(&v, "per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, BENCHMARKED);
}
