//! Property test of journal resume: a sweep resumed from *any* prefix of
//! its run journal must reproduce the uninterrupted sweep's full reports
//! (host wall clock aside), figure tables and finalized journal
//! byte-for-byte, whether the rest of the grid is simulated in-process at
//! any job count, served from the result store or run on worker processes.

use std::fs;
use std::sync::Arc;

use proptest::prelude::*;
use tcpburst_core::{
    Protocol, ResultStore, ScenarioBuilder, SupervisedSweep, SweepSupervisor, WorkerCommand,
};

mod common;
use common::{canonical_bytes, figure_tables, temp_path};

/// Every cell's full report, host wall clock aside (the one field a
/// journal leaves out).
fn full_reports(s: &SupervisedSweep) -> Vec<String> {
    s.sweep.cells.iter().map(|cell| canonical_bytes(&cell.report)).collect()
}

proptest! {
    // Every case runs a 6-point sweep, then resumes it three ways; keep
    // the count small.
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
        let path = temp_path("resume");
        let store_root = path.with_extension("store");
        let store = || Arc::new(ResultStore::open(&store_root).expect("temp store opens"));

        // The fresh run also fills a store, for the store-hit resume.
        let fresh = SweepSupervisor::new(&cfg, &protocols, &clients)
            .jobs(2)
            .store(store())
            .run_with_journal(&path)
            .expect("temp journal is writable");
        prop_assert!(fresh.all_complete());
        prop_assert!(fresh.journal_error.is_none());
        let fresh_tables = figure_tables(&fresh);
        let fresh_reports = full_reports(&fresh);
        // A completed sweep finalizes its journal into canonical grid
        // order, so the file on disk is a deterministic artifact.
        let fresh_journal = fs::read_to_string(&path).expect("finalized journal exists");
        let lines: Vec<&str> = fresh_journal.lines().collect();
        prop_assert_eq!(lines.len(), 1 + 6, "header plus one line per point");

        for rest in ["simulated", "stored", "workers"] {
            // Simulate a crash part-way through: keep the header plus the
            // first `keep` completed points.
            fs::write(&path, lines[..=keep].join("\n") + "\n").expect("journal is rewritable");
            let mut sweep = SweepSupervisor::new(&cfg, &protocols, &clients).jobs(resume_jobs);
            if rest == "stored" {
                sweep = sweep.store(store());
            } else if rest == "workers" {
                let program = env!("CARGO_BIN_EXE_tcpburst").into();
                let args = vec!["worker".into(), "--secs".into(), "2".into()];
                sweep = sweep.workers(2).worker_command(WorkerCommand { program, args });
            }
            let resumed = sweep.resume_from(&path).expect("truncated journal is readable");
            prop_assert_eq!(resumed.resumed_points, keep, "{}", rest);
            prop_assert!(resumed.all_complete());
            let rest_points = if rest == "stored" { resumed.cache_hits } else { resumed.completed_points };
            prop_assert_eq!(rest_points, 6 - keep, "{}", rest);
            // The workers really ran: no point fell back to this process.
            prop_assert_eq!(resumed.robustness.in_process_points, 0);
            // Journalled, simulated, stored and worker-computed points are
            // all the full reports of the uninterrupted run.
            prop_assert_eq!(full_reports(&resumed), fresh_reports.clone(), "{}", rest);
            prop_assert_eq!(figure_tables(&resumed), fresh_tables.clone());
            // The resumed sweep's finalized journal is byte-identical to the
            // uninterrupted run's, regardless of where the crash cut it or
            // what computed the remainder.
            prop_assert!(resumed.journal_error.is_none());
            prop_assert_eq!(
                fs::read_to_string(&path).expect("refinalized journal exists"),
                fresh_journal.clone(),
                "kill-at-{} + resume ({}) must merge to the uninterrupted journal",
                keep,
                rest
            );
        }

        // After the resume the journal holds the full grid again: resuming
        // a second time re-runs nothing and restores every full report.
        let full = SweepSupervisor::new(&cfg, &protocols, &clients)
            .jobs(1)
            .resume_from(&path)
            .expect("completed journal is readable");
        prop_assert_eq!(full.resumed_points, 6);
        prop_assert_eq!(full.completed_points, 0);
        prop_assert_eq!(full_reports(&full), fresh_reports);
        prop_assert_eq!(figure_tables(&full), fresh_tables);

        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir_all(&store_root);
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
    let path = temp_path("resume");

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
/// configuration that still carried a `shards` field, schema 5
/// carries event counts from before window-full senders absorbed their
/// arrivals, and schema 6 was keyed by digests of a configuration that
/// still carried a `queue` backend field.
#[test]
fn resume_rejects_a_schema_3_journal() {
    let cfg = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(7))
        .finish();
    let protocols = [Protocol::Udp];
    let clients = [3usize];
    let path = temp_path("resume");
    let sweep = SweepSupervisor::new(&cfg, &protocols, &clients).jobs(1);
    sweep
        .run_with_journal(&path)
        .expect("temp journal is writable");
    let raw = fs::read_to_string(&path).expect("journal exists");
    assert!(raw.contains("\"schema_version\":7"));
    for stale in [3, 4, 5, 6] {
        let old = raw.replace(
            "\"schema_version\":7",
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

/// Journal format 1 carried FNV-1a keys and no engine-schema stamp, and
/// format 2 only each point's figure-table fields, so neither can restore
/// full reports. Both are refused as a format, before any sweep-identity
/// check, and left byte-unchanged.
#[test]
fn resume_rejects_a_format_1_journal() {
    let cfg = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(2).seed(7))
        .finish();
    let path = temp_path("resume");
    let format_1 = concat!(
        "{\"journal\":\"tcpburst-sweep\",\"version\":1,\"sweep\":\"9f3c2a7b10e4d865\"}\n",
        "{\"key\":\"5be0c1d2e3f40718\",\"protocol\":\"udp\",\"clients\":3,\"seed\":7,",
        "\"cov\":0.25,\"poisson_cov\":0.25,\"generated\":100,\"delivered\":100,",
        "\"loss_percent\":0,\"timeouts\":0,\"fast_retransmits\":0,\"events\":400}\n",
    );
    // Format 2 stamped the engine schema on its header and every line.
    let format_2 = format_1
        .replace("\"version\":1,", "\"version\":2,\"schema_version\":7,")
        .replace("\"protocol\"", "\"schema_version\":7,\"protocol\"");
    for (format, journal) in [(1, format_1.to_string()), (2, format_2)] {
        fs::write(&path, &journal).unwrap();
        let err = SweepSupervisor::new(&cfg, &[Protocol::Udp], &[3])
            .jobs(1)
            .resume_from(&path)
            .expect_err("an old-format journal is rejected");
        assert_eq!(err.kind(), "io");
        let message = err.to_string();
        assert!(
            message.contains(&format!(
                "journal format {format} is no longer supported; start a fresh journal"
            )),
            "{message}"
        );
        assert!(
            !message.contains("different sweep configuration"),
            "{message}"
        );
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            journal,
            "a rejected journal is untouched"
        );
    }
    let _ = fs::remove_file(&path);
}
