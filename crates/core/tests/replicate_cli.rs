//! `tcpburst replicate` is a supervised sweep with a seed axis: it takes
//! the job threads, worker processes, journal, resume and failure policies
//! of `sweep`, and its mean ± CI tables are byte-identical on every path.

use std::fs;

mod common;
use common::{tcpburst, temp_dir};

/// 2 protocols x 2 client counts x 3 seeds, uncached, plus `extra` flags.
fn args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let base = "replicate --protocols reno,vegas --clients 5,15 --secs 2 --seeds 3 --no-cache";
    base.split_whitespace()
        .chain(extra.iter().copied())
        .collect()
}

/// Runs `replicate` with `extra` flags; asserts success, returns stdout.
fn replicate(dir: &std::path::Path, extra: &[&str]) -> String {
    let out = tcpburst(dir, &args(extra), &[]);
    assert!(out.status.success(), "replicate {extra:?} fails: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 tables")
}

#[test]
fn replicate_is_byte_identical_across_jobs_workers_and_resume() {
    let dir = temp_dir("replicate");
    let serial = replicate(&dir, &["--jobs", "1"]);
    assert!(
        serial.contains("(3 replications, mean ±95% CI)"),
        "{serial}"
    );
    assert!(!serial.contains(" - "), "every cell is complete: {serial}");
    assert_eq!(replicate(&dir, &["--jobs", "4"]), serial, "--jobs 4");
    assert_eq!(replicate(&dir, &["--workers", "2"]), serial, "--workers 2");

    let journal = dir.join("replicate.jsonl");
    let path = journal.to_str().expect("utf-8 temp path");
    assert_eq!(replicate(&dir, &["--journal", path]), serial, "--journal");
    let fresh = fs::read_to_string(&journal).expect("journal written");
    // Header plus one line per (protocol, clients, seed) point.
    assert_eq!(fresh.lines().count(), 1 + 12);
    // A kill mid-write: the header, three whole entries and half a line.
    let cut: usize = fresh.lines().take(4).map(|l| l.len() + 1).sum();
    let half = fresh[cut..].find('\n').expect("a fourth entry") / 2;
    fs::write(&journal, &fresh[..cut + half]).expect("truncate journal");

    let resumed = tcpburst(&dir, &args(&["--jobs", "2", "--resume", path]), &[]);
    assert!(resumed.status.success(), "resume fails: {resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("resumed 3 point(s) from journal, ran 9 fresh"),
        "{stderr}"
    );
    assert_eq!(String::from_utf8_lossy(&resumed.stdout), serial, "--resume");
    assert_eq!(
        fs::read_to_string(&journal).expect("journal finalized"),
        fresh,
        "the resumed journal is finalized to the fresh run's bytes"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn replicate_honours_budgets_and_reports_failed_points() {
    let dir = temp_dir("replicate");
    let out = tcpburst(&dir, &args(&["--max-events", "50", "--retries", "0"]), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("12 point(s) failed, 0 skipped"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(" - "), "failed cells render `-`: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_refuses_seeds_instead_of_ignoring_them() {
    let dir = temp_dir("replicate");
    let out = tcpburst(
        &dir,
        &["sweep", "--clients", "5", "--secs", "1", "--seeds", "3"],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "sweep --seeds must fail: {stderr}");
    assert!(
        stderr.contains("--seeds"),
        "the error names the flag: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no tables for a refused sweep");
    let _ = fs::remove_dir_all(&dir);
}
