//! Integration tests of the sweep supervisor: panic isolation, failure
//! policies, watchdog budgets with doubling retries, the invariant
//! auditor on the paper's own configurations, and store resolution that
//! is the same at any job count.

use std::fs;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tcpburst_core::{
    point_digest, run_point, ExceededBudget, FailurePolicy, PointOutcome, Protocol, ResultStore,
    RunBudget, RunError, Scenario, ScenarioBuilder, ScenarioConfig, Supervisor,
    SweepSupervisor,
};

mod common;
use common::{figure_tables, temp_path};

fn audited_cfg(protocol: Protocol, clients: usize, secs: u64) -> ScenarioConfig {
    ScenarioBuilder::paper()
        .topology(|t| t.clients(clients))
        .transport(|t| t.protocol(protocol))
        .instrumentation(|i| i.secs(secs).audit(true))
        .finish()
}

#[test]
fn keep_going_isolates_a_panicking_point() {
    let sup = Supervisor {
        jobs: 2,
        policy: FailurePolicy::KeepGoing,
        budget: RunBudget::UNLIMITED,
        retries: 0,
    };
    let outcomes = sup.run_grid(8, |i, _| {
        if i == 5 {
            panic!("deliberate point failure");
        }
        Ok(i * i)
    });
    assert_eq!(outcomes.len(), 8);
    let mut done = 0;
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            PointOutcome::Done(v) => {
                assert_eq!(*v, i * i);
                done += 1;
            }
            PointOutcome::Failed(RunError::Panicked { message }) => {
                assert_eq!(i, 5, "only point 5 panics");
                assert!(message.contains("deliberate point failure"));
            }
            other => panic!("unexpected outcome at {i}: {other:?}"),
        }
    }
    assert_eq!(done, 7, "the other seven points must survive the panic");
}

#[test]
fn fail_fast_skips_the_tail_serially() {
    // With one worker the claim order is the task order, so the skipped
    // set is exactly the tail after the failure.
    let sup = Supervisor {
        jobs: 1,
        policy: FailurePolicy::FailFast,
        retries: 0,
        ..Supervisor::default()
    };
    let outcomes = sup.run_grid(6, |i, _| {
        if i == 2 {
            panic!("boom");
        }
        Ok(i)
    });
    assert!(matches!(outcomes[0], PointOutcome::Done(0)));
    assert!(matches!(outcomes[1], PointOutcome::Done(1)));
    assert!(matches!(
        outcomes[2],
        PointOutcome::Failed(RunError::Panicked { .. })
    ));
    for o in &outcomes[3..] {
        assert!(matches!(o, PointOutcome::Skipped));
    }
}

#[test]
fn budget_failures_retry_with_doubled_budget() {
    // A 5-second Reno run needs far more than 200 events, so every attempt
    // exhausts its budget; the supervisor must hand the closure 50, then
    // 100, then 200 events before giving up.
    let cfg = audited_cfg(Protocol::Reno, 5, 5);
    let budgets = Mutex::new(Vec::new());
    let sup = Supervisor {
        jobs: 1,
        policy: FailurePolicy::KeepGoing,
        budget: RunBudget {
            max_events: Some(50),
            ..RunBudget::UNLIMITED
        },
        retries: 2,
    };
    let outcomes = sup.run_grid(1, |_, budget| {
        budgets
            .lock()
            .expect("no poisoned lock")
            .push(budget.max_events.expect("event cap set"));
        run_point(&cfg, budget).map(|r| r.events_processed)
    });
    assert_eq!(*budgets.lock().expect("no poisoned lock"), vec![50, 100, 200]);
    match &outcomes[0] {
        PointOutcome::Failed(RunError::BudgetExceeded { exceeded, report }) => {
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
    }
}

#[test]
fn panics_are_never_retried() {
    let attempts = Mutex::new(0u32);
    let sup = Supervisor {
        jobs: 1,
        retries: 5,
        ..Supervisor::default()
    };
    let outcomes = sup.run_grid(1, |_, _| -> Result<(), RunError> {
        *attempts.lock().expect("no poisoned lock") += 1;
        panic!("deterministic panic would recur");
    });
    assert_eq!(*attempts.lock().expect("no poisoned lock"), 1);
    assert!(matches!(
        outcomes[0],
        PointOutcome::Failed(RunError::Panicked { .. })
    ));
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
