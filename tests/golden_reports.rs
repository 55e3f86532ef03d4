//! Golden full reports: every field of a scenario report, not just the
//! figure tables, pinned byte-for-byte.
//!
//! Each golden file holds the codec payload of one run with the fields
//! that count engine work rather than simulated physics removed: the event
//! count and wall clock (`run` line), the pending-event high-water mark
//! (last `timers` field) and the per-class dispatch counts (`dispatch`
//! line). What remains — bins, queue and drop counters, TCP counters,
//! timer cancellations, per-flow results — is the simulated world, and it
//! must not move when the engine changes how it gets there.
//!
//! The scenarios are chosen for exact-tie density: 64 clients overload the
//! 3 Mbps bottleneck, so equal-rate links hand packets over at exactly the
//! instant a serialization ends, and any change to same-instant dispatch
//! order shows up as a different report. Each golden is checked at one and
//! four jobs.
//!
//! To re-bless after an *intentional* change to the simulated physics:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_reports
//! ```

use tcpburst_core::{codec, Protocol, ScenarioBuilder, ScenarioConfig, SweepSupervisor, TopoKind};

const SECS: u64 = 20;
const CLIENTS: usize = 64;

/// `(golden file stem, configuration)` for every pinned run.
fn cases() -> Vec<(&'static str, ScenarioConfig)> {
    let dumbbell = |protocol: Protocol| {
        ScenarioBuilder::paper()
            .topology(|t| t.clients(CLIENTS))
            .transport(|t| t.protocol(protocol))
            .instrumentation(|i| i.secs(SECS))
            .finish()
    };
    let parking_lot = ScenarioBuilder::paper()
        .topology(|t| {
            t.shape(TopoKind::ParkingLot {
                hops: 5,
                flows_per_hop: 4,
            })
        })
        .transport(|t| t.protocol(Protocol::Reno))
        .instrumentation(|i| i.secs(SECS))
        .finish();
    vec![
        ("reno_64", dumbbell(Protocol::Reno)),
        ("tahoe_64", dumbbell(Protocol::Tahoe)),
        ("vegas_64", dumbbell(Protocol::Vegas)),
        ("reno_red_64", dumbbell(Protocol::RenoRed)),
        ("reno_parking_lot_5_4", parking_lot),
    ]
}

/// The codec payload minus the engine-work fields (see the module docs).
fn physics(payload: &str) -> String {
    let mut out = String::with_capacity(payload.len());
    for line in payload.lines() {
        // `run <duration> <events> <wall clock>` keeps the duration;
        // `timers <stale> <cancelled> <pending peak>` drops the peak.
        let keep = match line.split(' ').next() {
            Some("run") => 2,
            Some("timers") => 3,
            Some("dispatch") => continue,
            _ => usize::MAX,
        };
        let kept: Vec<&str> = line.split(' ').take(keep).collect();
        out.push_str(&kept.join(" "));
        out.push('\n');
    }
    out
}

fn golden_path(stem: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../tests/golden/report_{stem}.txt"))
}

/// Runs every case as one grid at `jobs` and returns `(stem, physics
/// payload)` pairs.
fn run_cases(jobs: usize) -> Vec<(&'static str, String)> {
    let cases = cases();
    let configs: Vec<ScenarioConfig> = cases.iter().map(|(_, cfg)| *cfg).collect();
    let reports = SweepSupervisor::from_configs(&configs)
        .jobs(jobs)
        .run_grid()
        .reports()
        .expect("every golden case completes");
    cases
        .iter()
        .zip(reports)
        .map(|((stem, _), report)| {
            let payload = codec::encode(&report).expect("untraced reports are encodable");
            (*stem, physics(&payload))
        })
        .collect()
}

fn check(jobs: usize) {
    for (stem, got) in run_cases(jobs) {
        let path = golden_path(stem);
        if std::env::var("BLESS_GOLDEN").is_ok() {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{} unreadable ({e}); bless with BLESS_GOLDEN=1",
                path.display()
            )
        });
        assert!(
            got == want,
            "{stem} at jobs={jobs} diverged from {}",
            path.display()
        );
    }
}

#[test]
fn full_reports_match_goldens_calendar() {
    check(1);
    check(4);
}

#[test]
fn physics_filter_drops_only_engine_work_fields() {
    let payload =
        "tcpburst-report 2\nrun 3ff0 1234 3fe0\ntimers 1 2 3\ndispatch 1 2 3 4\nflows 0\n";
    assert_eq!(
        physics(payload),
        "tcpburst-report 2\nrun 3ff0\ntimers 1 2\nflows 0\n"
    );
}
