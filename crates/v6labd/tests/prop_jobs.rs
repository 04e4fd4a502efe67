//! Property tests for `JobSpec::parse`, the daemon's `POST /jobs` body
//! parser: arbitrary bytes and arbitrary JSON never panic it, every
//! accepted population spec is within bounds, and an accepted spec
//! survives its own status-JSON echo.

use proptest::prelude::*;
use v6labd::JobSpec;
use v6report::Json;

/// One JSON value of a type a hostile client might send for any field.
fn value() -> impl Strategy<Value = String> {
    prop_oneof![
        any::<u64>().prop_map(|n| n.to_string()),
        (0u64..70).prop_map(|n| n.to_string()),
        any::<i64>().prop_map(|n| n.to_string()),
        Just("1.5".to_string()),
        Just("1e30".to_string()),
        Just("null".to_string()),
        Just("true".to_string()),
        Just("[]".to_string()),
        Just(r#"{"kind":"population"}"#.to_string()),
        prop::sample::select(vec![
            "matrix",
            "population",
            "clean",
            "lossy-uplink",
            "dns64-outage",
            "nat64-exhaustion",
            "broken-delegation",
            "",
        ])
        .prop_map(|s| format!("\"{s}\"")),
    ]
}

/// A JSON object over the keys `JobSpec::parse` reads, plus noise.
fn job_body() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["\"matrix\"", "\"population\"", "\"mystery\"", "7"]),
        prop::collection::vec(
            (
                prop::sample::select(vec![
                    "size",
                    "shards",
                    "seed",
                    "pace_ms",
                    "fault",
                    "base_seed",
                    "kind",
                    "extra",
                ]),
                value(),
            ),
            0..6,
        ),
    )
        .prop_map(|(kind, fields)| {
            let mut body = format!("{{\"kind\":{kind}");
            for (key, value) in fields {
                body.push_str(&format!(",\"{key}\":{value}"));
            }
            body.push('}');
            body
        })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = JobSpec::parse(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn arbitrary_job_json_never_panics_and_stays_in_bounds(body in job_body()) {
        let Ok(spec) = JobSpec::parse(&body) else {
            return;
        };
        if let JobSpec::Population { size, shards, .. } = spec {
            prop_assert!(
                1 <= shards && shards as u64 <= size,
                "accepted {body} with shards {shards} and size {size}"
            );
        }
        // What the daemon echoes back parses to the same spec.
        let echoed = Json::parse(&spec.to_json().canonical()).expect("echo is JSON");
        prop_assert_eq!(JobSpec::parse(&echoed.canonical()), Ok(spec));
    }
}
