//! Property test of journal resume: a sweep resumed from *any* prefix of
//! its run journal must reproduce the uninterrupted sweep's figure tables
//! byte-for-byte, at any worker count.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tcpburst_core::{Protocol, ScenarioBuilder, SupervisedSweep, SweepSupervisor};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_journal() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("tcpburst-resume-{}-{n}.jsonl", std::process::id()))
}

fn figure_tables(s: &SupervisedSweep) -> String {
    format!(
        "{}{}{}{}",
        s.sweep.fig2_cov_table(),
        s.sweep.fig3_throughput_table(),
        s.sweep.fig4_loss_table(),
        s.sweep.fig13_timeout_ratio_table()
    )
}

proptest! {
    // Every case runs a full 6-point sweep twice; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn resume_from_any_prefix_is_byte_identical(
        keep in 0usize..=6,
        resume_jobs in prop_oneof![Just(1usize), Just(4usize)],
        seed in any::<u64>(),
    ) {
        let cfg = ScenarioBuilder::paper()
            .instrumentation(|i| i.secs(2).seed(seed))
            .finish();
        let protocols = [Protocol::Udp, Protocol::Reno];
        let clients = [3usize, 5, 8];
        let path = temp_journal();

        let fresh = SweepSupervisor::new(&cfg, &protocols, &clients)
            .jobs(2)
            .run_with_journal(&path)
            .expect("temp journal is writable");
        prop_assert!(fresh.all_complete());
        prop_assert!(fresh.journal_error.is_none());
        let fresh_tables = figure_tables(&fresh);
        // A completed sweep finalizes its journal into canonical grid
        // order, so the file on disk is a deterministic artifact.
        let fresh_journal = fs::read(&path).expect("finalized journal exists");

        // Simulate a crash part-way through: keep the header plus the first
        // `keep` completed points. The journal is in completion order, so
        // this is an arbitrary subset of the grid, not a canonical prefix.
        let lines: Vec<String> = BufReader::new(fs::File::open(&path).expect("journal exists"))
            .lines()
            .collect::<Result<_, _>>()
            .expect("journal is valid UTF-8");
        prop_assert_eq!(lines.len(), 1 + 6, "header plus one line per point");
        let mut truncated = fs::File::create(&path).expect("journal is rewritable");
        for line in lines.iter().take(1 + keep) {
            writeln!(truncated, "{line}").expect("journal is writable");
        }
        drop(truncated);

        let resumed = SweepSupervisor::new(&cfg, &protocols, &clients)
            .jobs(resume_jobs)
            .resume_from(&path)
            .expect("truncated journal is readable");
        prop_assert_eq!(resumed.resumed_points, keep);
        prop_assert_eq!(resumed.completed_points, 6 - keep);
        prop_assert!(resumed.all_complete());
        prop_assert_eq!(figure_tables(&resumed), fresh_tables);
        // The resumed sweep's finalized journal is byte-identical to the
        // uninterrupted run's, regardless of where the crash cut it or
        // how many threads replayed the remainder.
        prop_assert!(resumed.journal_error.is_none());
        prop_assert_eq!(
            fs::read(&path).expect("refinalized journal exists"),
            fresh_journal.clone(),
            "kill-at-{} + resume must merge to the uninterrupted journal",
            keep
        );

        // After the resume the journal holds the full grid again: resuming
        // a second time re-runs nothing.
        let full = SweepSupervisor::new(&cfg, &protocols, &clients)
            .jobs(1)
            .resume_from(&path)
            .expect("completed journal is readable");
        prop_assert_eq!(full.resumed_points, 6);
        prop_assert_eq!(full.completed_points, 0);
        prop_assert_eq!(figure_tables(&full), fresh_tables);

        let _ = fs::remove_file(&path);
    }
}

#[test]
fn resume_rejects_a_journal_from_a_different_sweep() {
    let cfg_a = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(7))
        .finish();
    let cfg_b = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(8))
        .finish();
    let protocols = [Protocol::Udp];
    let clients = [3usize];
    let path = temp_journal();

    SweepSupervisor::new(&cfg_a, &protocols, &clients)
        .jobs(1)
        .run_with_journal(&path)
        .expect("temp journal is writable");
    // Any knob difference (here the seed) changes the sweep key, so the
    // journal must not silently poison the other sweep's results.
    let err = SweepSupervisor::new(&cfg_b, &protocols, &clients)
        .jobs(1)
        .resume_from(&path)
        .expect_err("mismatched sweep key is rejected");
    assert_eq!(err.kind(), "io");
    let _ = fs::remove_file(&path);
}

/// Journals written by older engines must fail loudly, not mix their
/// lines into a current sweep: schema 3 carries `events` counts from
/// before the lazy transmit clock, schema 4 was keyed by digests of a
/// configuration that still carried a `shards` field, and schema 5
/// carries event counts from before window-full senders absorbed their
/// arrivals.
#[test]
fn resume_rejects_a_schema_3_journal() {
    let cfg = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(7))
        .finish();
    let protocols = [Protocol::Udp];
    let clients = [3usize];
    let path = temp_journal();
    let sweep = SweepSupervisor::new(&cfg, &protocols, &clients).jobs(1);
    sweep
        .run_with_journal(&path)
        .expect("temp journal is writable");
    let raw = fs::read_to_string(&path).expect("journal exists");
    assert!(raw.contains("\"schema_version\":6"));
    for stale in [3, 4, 5] {
        let old = raw.replace(
            "\"schema_version\":6",
            &format!("\"schema_version\":{stale}"),
        );
        fs::write(&path, &old).unwrap();

        let err = sweep
            .resume_from(&path)
            .expect_err("stale journal is rejected");
        assert_eq!(err.kind(), "io");
        assert!(
            err.to_string().contains(&format!("engine schema {stale}")),
            "{err}"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            old,
            "a rejected journal is untouched"
        );
    }
    let _ = fs::remove_file(&path);
}

/// Journal format 1 carried FNV-1a keys and no engine-schema stamp, so
/// nothing in it says which engine produced its results. It is refused
/// as a format, before any sweep-identity check, and left byte-unchanged.
#[test]
fn resume_rejects_a_format_1_journal() {
    let cfg = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(7))
        .finish();
    let path = temp_journal();
    let journal = concat!(
        "{\"journal\":\"tcpburst-sweep\",\"version\":1,\"sweep\":\"9f3c2a7b10e4d865\"}\n",
        "{\"key\":\"5be0c1d2e3f40718\",\"protocol\":\"udp\",\"clients\":3,\"seed\":7,",
        "\"cov\":0.25,\"poisson_cov\":0.25,\"generated\":100,\"delivered\":100,",
        "\"loss_percent\":0,\"timeouts\":0,\"fast_retransmits\":0,\"events\":400}\n",
    );
    fs::write(&path, journal).unwrap();

    let err = SweepSupervisor::new(&cfg, &[Protocol::Udp], &[3])
        .jobs(1)
        .resume_from(&path)
        .expect_err("format-1 journal is rejected");
    assert_eq!(err.kind(), "io");
    let message = err.to_string();
    assert!(
        message.contains("journal format 1 is no longer supported"),
        "{message}"
    );
    assert!(message.contains("start a fresh journal"), "{message}");
    assert!(
        !message.contains("different sweep configuration"),
        "{message}"
    );
    assert_eq!(
        fs::read_to_string(&path).unwrap(),
        journal,
        "a rejected journal is untouched"
    );
    let _ = fs::remove_file(&path);
}
