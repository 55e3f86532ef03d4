//! Integration tests of the sweep supervisor: failure policies, watchdog
//! budgets with doubling retries, the invariant
//! auditor on the paper's own configurations, and store resolution that
//! is the same at any job count.

use std::fs;
use std::sync::Arc;
use std::time::Duration;

use tcpburst_core::{
    point_digest, run_point, ExceededBudget, FailurePolicy, Protocol, ResultStore, RunBudget,
    RunError, Scenario, ScenarioBuilder, ScenarioConfig, SweepSupervisor,
};

mod common;
use common::{figure_tables, tcpburst, temp_dir, temp_path};

fn audited_cfg(protocol: Protocol, clients: usize, secs: u64) -> ScenarioConfig {
    ScenarioBuilder::paper()
        .topology(|t| t.clients(clients))
        .transport(|t| t.protocol(protocol))
        .instrumentation(|i| i.secs(secs).audit(true))
        .finish()
}

/// An event cap that the given Reno points finish under.
fn cap_for(base: &ScenarioConfig, clients: &[usize]) -> u64 {
    let events = |&n: &usize| {
        let cfg = ScenarioBuilder::from_config(*base)
            .topology(|t| t.clients(n))
            .transport(|t| t.protocol(Protocol::Reno))
            .finish();
        run_point(&cfg, &RunBudget::UNLIMITED)
            .expect("runs")
            .events_processed
    };
    clients
        .iter()
        .map(events)
        .max()
        .expect("at least one point")
}

#[test]
fn fail_fast_skips_the_tail_serially() {
    // With one job the claim order is the grid order, so the skipped set
    // is exactly the tail after the failure. The event cap lets the two
    // small points finish and stops the third.
    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2))
        .finish();
    let cap = cap_for(&base, &[2, 3]);
    assert!(
        cap_for(&base, &[30]) > cap,
        "30 clients need more events than 3"
    );
    let swept = SweepSupervisor::new(&base, &[Protocol::Reno], &[2, 3, 30, 35, 40])
        .jobs(1)
        .policy(FailurePolicy::FailFast)
        .budget(RunBudget {
            max_events: Some(cap),
            ..RunBudget::UNLIMITED
        })
        .retries(0)
        .run();
    let done: Vec<usize> = swept.sweep.cells.iter().map(|c| c.clients).collect();
    assert_eq!(done, vec![2, 3]);
    assert_eq!(swept.failures.len(), 1);
    assert_eq!(swept.failures[0].point.clients, 30);
    assert!(matches!(
        swept.failures[0].error,
        RunError::BudgetExceeded { .. }
    ));
    let skipped: Vec<usize> = swept.skipped.iter().map(|p| p.clients).collect();
    assert_eq!(skipped, vec![35, 40]);
    assert!(
        !swept.robustness.any(),
        "an in-process sweep has no control plane"
    );
}

#[test]
fn budget_failures_retry_with_doubled_budget() {
    // A 5-second Reno run needs far more than 200 events, so every attempt
    // exhausts its budget: 50, then 100, then 200 events before the point
    // fails with the last attempt's partial report.
    let base = audited_cfg(Protocol::Reno, 5, 5);
    let swept = SweepSupervisor::new(&base, &[Protocol::Reno], &[5])
        .jobs(1)
        .budget(RunBudget {
            max_events: Some(50),
            ..RunBudget::UNLIMITED
        })
        .retries(2)
        .run();
    assert!(swept.sweep.cells.is_empty());
    match &swept.failures[..] {
        [failure] => match &failure.error {
            RunError::BudgetExceeded { exceeded, report } => {
                assert!(matches!(exceeded, ExceededBudget::Events));
                // The diagnostic partial report survives the abort.
                assert!(matches!(
                    report.budget_exceeded,
                    Some(ExceededBudget::Events)
                ));
                assert_eq!(report.events_processed, 200);
                assert!(report.to_string().contains("PARTIAL RUN"));
            }
            other => panic!("expected a budget failure, got {other:?}"),
        },
        other => panic!("expected one failure, got {other:?}"),
    }
}

/// The CLI's failure policies on the in-process path: three Reno points
/// that each outrun a 50-event cap.
fn budget_starved_sweep(extra: &str) -> (bool, String) {
    let dir = temp_dir("policy");
    let sweep = format!(
        "sweep --protocols reno --clients 5,15,25 --secs 3 --no-cache \
         --max-events 50 --retries 0 {extra}"
    );
    let args: Vec<&str> = sweep.split_whitespace().collect();
    let out = tcpburst(&dir, &args, &[]);
    let _ = fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr)
}

fn lines_starting(text: &str, prefix: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .map(str::to_string)
        .collect()
}

#[test]
fn cli_fail_fast_fails_one_point_and_skips_the_rest() {
    let (ok, stderr) = budget_starved_sweep("--jobs 1 --fail-fast");
    assert!(!ok, "a failed point fails the command: {stderr}");
    assert_eq!(lines_starting(&stderr, "FAILED").len(), 1, "{stderr}");
    assert_eq!(lines_starting(&stderr, "SKIPPED").len(), 2, "{stderr}");
    assert!(!stderr.contains("robustness:"), "{stderr}");
}

#[test]
fn cli_keep_going_fails_every_point_at_any_job_count() {
    let (ok, serial) = budget_starved_sweep("--jobs 1 --keep-going");
    assert!(!ok, "failed points fail the command: {serial}");
    let failed = lines_starting(&serial, "FAILED");
    assert_eq!(failed.len(), 3, "{serial}");
    assert!(lines_starting(&serial, "SKIPPED").is_empty(), "{serial}");
    let (_, pooled) = budget_starved_sweep("--jobs 4 --keep-going");
    assert_eq!(
        lines_starting(&pooled, "FAILED"),
        failed,
        "--jobs 4 disagrees"
    );
}

#[test]
fn zero_wall_clock_budget_aborts_into_partial_report() {
    let cfg = audited_cfg(Protocol::Reno, 5, 10);
    let budget = RunBudget {
        max_wall: Some(Duration::ZERO),
        ..RunBudget::UNLIMITED
    };
    match run_point(&cfg, &budget) {
        Err(RunError::BudgetExceeded { exceeded, report }) => {
            assert!(matches!(exceeded, ExceededBudget::WallClock));
            assert!(matches!(
                report.budget_exceeded,
                Some(ExceededBudget::WallClock)
            ));
            assert!(report.events_processed >= 1, "at least one event ran");
        }
        other => panic!("expected a wall-clock abort, got {other:?}"),
    }
}

#[test]
fn audit_passes_on_the_paper_reno_configuration() {
    let cfg = audited_cfg(Protocol::Reno, 64, 5);
    let r = run_point(&cfg, &RunBudget::UNLIMITED).expect("64-client Reno audits clean");
    let audit = r.audit.expect("auditor ran");
    assert!(audit.passed(), "{audit}");
    assert_eq!(
        audit.injected,
        audit.host_delivered
            + audit.queue_drops
            + audit.wire_lost
            + audit.queued_at_end
            + audit.in_flight_at_end,
        "packet conservation holds exactly"
    );
}

#[test]
fn audit_passes_on_the_paper_vegas_configuration() {
    let cfg = audited_cfg(Protocol::Vegas, 64, 5);
    let r = run_point(&cfg, &RunBudget::UNLIMITED).expect("64-client Vegas audits clean");
    let audit = r.audit.expect("auditor ran");
    assert!(audit.passed(), "{audit}");
}

/// Stored points are looked up on the job threads, but the counts, the
/// store's lookups, the tables and the journal must not depend on how
/// many threads did it; and a resume never looks up what the journal
/// already holds.
#[test]
fn store_resolution_is_identical_at_any_job_count() {
    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(0x5EED))
        .finish();
    let protocols = [Protocol::Reno, Protocol::Vegas];
    let clients = [3usize, 5, 8];
    let points: Vec<ScenarioConfig> = protocols
        .iter()
        .flat_map(|&p| {
            clients.iter().map(move |&n| {
                ScenarioBuilder::from_config(base)
                    .topology(|t| t.clients(n))
                    .transport(|t| t.protocol(p))
                    .finish()
            })
        })
        .collect();

    let mut runs = Vec::new();
    for jobs in [1usize, 4] {
        // Half the grid (every other point) is already stored.
        let root = temp_path("store");
        let filler = ResultStore::open(&root).expect("temp store is creatable");
        for cfg in points.iter().step_by(2) {
            assert!(filler
                .put(&point_digest(cfg), &Scenario::run(cfg))
                .expect("put succeeds"));
        }
        let store = Arc::new(ResultStore::open(&root).expect("store reopens"));
        let journal = temp_path("journal");
        let sweep = SweepSupervisor::new(&base, &protocols, &clients)
            .jobs(jobs)
            .store(Arc::clone(&store));
        let s = sweep
            .run_with_journal(&journal)
            .expect("temp journal is writable");
        assert!(s.all_complete() && s.journal_error.is_none());
        let stats = store.stats();
        let journal_bytes = fs::read(&journal).expect("finalized journal exists");

        // Resume from the header plus the first two points: those two are
        // restored from the journal and never looked up in the store.
        let text = String::from_utf8(journal_bytes.clone()).expect("journal is text");
        let kept: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        fs::write(&journal, kept).expect("journal is rewritable");
        let store = Arc::new(ResultStore::open(&root).expect("store reopens"));
        let resumed = SweepSupervisor::new(&base, &protocols, &clients)
            .jobs(jobs)
            .store(Arc::clone(&store))
            .resume_from(&journal)
            .expect("truncated journal is readable");
        let resumed_stats = store.stats();
        assert_eq!(resumed.resumed_points, 2);
        assert_eq!(
            resumed_stats.hits + resumed_stats.misses,
            (points.len() - 2) as u64,
            "jobs={jobs}: a journalled point was looked up in the store"
        );
        assert_eq!(fs::read(&journal).unwrap(), journal_bytes);

        runs.push((
            (s.cache_hits, s.cache_misses),
            stats.hits + stats.misses,
            figure_tables(&s),
            journal_bytes,
            (resumed.cache_hits, resumed.cache_misses),
            figure_tables(&resumed),
        ));
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_file(&journal);
    }
    assert_eq!(runs[0].0, (3, 3), "half the grid was stored");
    assert_eq!(runs[0].1, 6);
    assert_eq!(runs[0].2, runs[0].5, "the resume renders the same tables");
    assert_eq!(runs[0], runs[1], "jobs 1 and 4 disagree");
}
