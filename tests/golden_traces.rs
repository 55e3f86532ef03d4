//! Golden-trace guard for the congestion-control refactor.
//!
//! The five TCP variants must produce byte-identical figure tables across
//! refactors of the transport stack. The canonical tables (a small
//! fixed grid: all five variants, 12 and 48 clients, 6 simulated
//! seconds — the 48-client column overloads the bottleneck so loss
//! recovery and retransmission paths are exercised) are committed under
//! `tests/golden/fig_tables.txt`; this test re-renders them and
//! compares byte-for-byte.
//!
//! To re-bless the golden file after an *intentional* behavior change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! A second test asserts the tables are invariant across `--jobs` 1 vs 4,
//! so the golden file pins both execution modes at once.

use tcpburst_core::{Protocol, ScenarioBuilder, SweepSupervisor};

/// All five TCP variants, in canonical order.
const VARIANTS: [Protocol; 5] = [
    Protocol::Tahoe,
    Protocol::Reno,
    Protocol::NewReno,
    Protocol::Vegas,
    Protocol::Sack,
];

/// The modern policies added with the delivery-rate/pacing engine, pinned
/// by their own golden file (`tests/golden/modern_tables.txt`).
const MODERN: [Protocol; 3] = [Protocol::Cubic, Protocol::Hstcp, Protocol::Bbr];

const CLIENTS: [usize; 2] = [12, 48];
const SECS: u64 = 6;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fig_tables.txt")
}

fn modern_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/modern_tables.txt")
}

fn figure_tables(protocols: &[Protocol], jobs: usize) -> String {
    let base = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(SECS))
        .finish();
    let sweep = SweepSupervisor::new(&base, protocols, &CLIENTS)
        .jobs(jobs)
        .run()
        .sweep;
    sweep.tables().concat()
}

#[test]
fn five_variants_match_golden_tables() {
    let got = figure_tables(&VARIANTS, 1);
    let path = golden_path();
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("tests/golden/fig_tables.txt missing; bless it with BLESS_GOLDEN=1");
    assert_eq!(
        got, want,
        "figure tables diverged from tests/golden/fig_tables.txt; if the \
         change is intentional, re-bless with BLESS_GOLDEN=1"
    );
}

/// `GeneralizedAimd { alpha: 0, beta: 1 }` must *be* Reno: `pow(x, 0)` and
/// `pow(x, 1)` are exact in IEEE-754 and `x - x/2 == x/2`, so the default
/// exponents reproduce Reno's figure tables byte-for-byte (after the
/// width-preserving ` GAIMD` → `  Reno` label swap).
#[test]
fn gaimd_default_exponents_reproduce_reno_tables() {
    let reno = figure_tables(&[Protocol::Reno], 1);
    let gaimd = figure_tables(&[Protocol::Gaimd], 1);
    assert_eq!(
        gaimd.replace(" GAIMD", "  Reno"),
        reno,
        "GAIMD(alpha=0, beta=1) diverged from Reno"
    );
}

#[test]
fn tables_invariant_across_backends_and_jobs() {
    assert_eq!(
        figure_tables(&VARIANTS, 4),
        figure_tables(&VARIANTS, 1),
        "figure tables differ with jobs=4"
    );
}

#[test]
fn modern_variants_match_golden_tables() {
    let got = figure_tables(&MODERN, 1);
    let path = modern_golden_path();
    if std::env::var("BLESS_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("tests/golden/modern_tables.txt missing; bless it with BLESS_GOLDEN=1");
    assert_eq!(
        got, want,
        "modern-policy figure tables diverged from tests/golden/modern_tables.txt; \
         if the change is intentional, re-bless with BLESS_GOLDEN=1"
    );
}

/// Cubic, HSTCP and BBR (the one paced policy, so its burst timing rides
/// the paced-send timer path) must be bit-identical across `--jobs` 1 vs 4,
/// exactly like the legacy set.
#[test]
fn modern_tables_invariant_across_backends_and_jobs() {
    assert_eq!(
        figure_tables(&MODERN, 4),
        figure_tables(&MODERN, 1),
        "modern figure tables differ with jobs=4"
    );
}
