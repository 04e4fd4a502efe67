//! RFC 8305 Happy Eyeballs ablation: a dual-stack client browsing a name
//! whose AAAA leads nowhere. Without HE, the user waits out the full
//! connection timeout before IPv4 is tried; with HE the fallback starts
//! 250 ms in. (Address selection per RFC 6724 still prefers the v6 path —
//! HE only changes *when* the fallback launches.)

use std::net::IpAddr;
use v6host::profiles::OsProfile;
use v6host::tasks::{AppTask, TaskOutcome};
use v6testbed::experiments::abl3_happy_eyeballs as run;
use v6testbed::Testbed;

#[test]
fn both_modes_eventually_fall_back_to_v4() {
    for he in [false, true] {
        let (o, _) = run(he);
        match &o {
            TaskOutcome::HttpOk { peer, .. } => {
                assert_eq!(
                    *peer,
                    IpAddr::V4("190.92.158.4".parse().unwrap()),
                    "he={he}: must land on the working A record"
                );
            }
            other => panic!("he={he}: fallback failed: {other:?}"),
        }
    }
}

#[test]
fn happy_eyeballs_is_faster() {
    let (_, without) = run(false);
    let (_, with) = run(true);
    assert!(
        with < without,
        "HE ({with} ms) must beat serial fallback ({without} ms)"
    );
    // Serial fallback can't beat the 500 ms attempt timeout; HE starts the
    // v4 attempt at 250 ms.
    assert!(without >= 500, "serial fallback waited {without} ms");
    assert!(with <= 600, "HE fallback took {with} ms");
}

/// With a *working* v6 destination, HE never even fires the fallback: the
/// connection stays v6 (no accidental v4 preference).
#[test]
fn happy_eyeballs_does_not_steal_from_working_v6() {
    let mut tb = Testbed::paper_default();
    let mut profile = OsProfile::windows_10();
    profile.happy_eyeballs = true;
    let id = tb.add_host(profile);
    tb.boot();
    let o = tb.run_task(
        id,
        AppTask::Browse {
            name: "ip6.me".parse().unwrap(),
            path: "/".into(),
        },
        25,
    );
    assert!(
        matches!(o.peer(), Some(IpAddr::V6(_))),
        "v6 wins when healthy: {o:?}"
    );
}
