//! Integration tests of the content-addressed result store: warm hits are
//! bit-identical to cold runs, poisoned or truncated entries are detected
//! and recomputed rather than trusted, and traced configurations bypass
//! the cache entirely.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tcpburst_core::{
    codec, point_digest, run_point_cached, Digest, Protocol, ResultStore, RunBudget,
    ScenarioBuilder, ScenarioConfig, ENGINE_SCHEMA_VERSION,
};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_store() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("tcpburst-store-{}-{n}", std::process::id()))
}

fn small_cfg(seed: u64) -> ScenarioConfig {
    ScenarioBuilder::paper()
        .topology(|t| t.clients(4))
        .transport(|t| t.protocol(Protocol::Reno))
        .instrumentation(|i| i.secs(2).seed(seed))
        .finish()
}

/// The on-disk location of `cfg`'s entry inside `root`, mirroring the
/// store's two-level fan-out so tests can corrupt it directly.
fn entry_path(root: &PathBuf, cfg: &ScenarioConfig) -> PathBuf {
    let hex = point_digest(cfg).hex();
    root.join(&hex[..2]).join(format!("{}.rpt", &hex[2..]))
}

/// Canonical serialization with the host wall-clock zeroed: the only
/// field that legitimately differs between two runs of the same point.
fn canonical_bytes(report: &tcpburst_core::ScenarioReport) -> String {
    let mut r = report.clone();
    r.wall_clock_secs = 0.0;
    codec::encode(&r).expect("report is encodable")
}

#[test]
fn warm_hit_is_bit_identical_to_cold_run() {
    let root = temp_store();
    let cfg = small_cfg(11);
    let store = ResultStore::open(&root).expect("temp store is creatable");

    let cold = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("small scenario runs");
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.writes), (0, 1, 1));

    let warm = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("cached scenario loads");
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));

    // Byte-identical through the canonical serialization, not merely
    // "close": the cache must never alter a result.
    let cold_bytes = codec::encode(&cold).expect("report is encodable");
    let warm_bytes = codec::encode(&warm).expect("report is encodable");
    assert_eq!(cold_bytes, warm_bytes);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn poisoned_entry_is_detected_and_recomputed() {
    let root = temp_store();
    let cfg = small_cfg(23);
    let store = ResultStore::open(&root).expect("temp store is creatable");
    let fresh = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("small scenario runs");
    let fresh_bytes = canonical_bytes(&fresh);

    // Flip one byte deep in the payload. The header checksum no longer
    // matches, so the entry must be treated as a miss and recomputed.
    let path = entry_path(&root, &cfg);
    let mut raw = fs::read(&path).expect("entry exists");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    fs::write(&path, &raw).expect("entry is rewritable");

    let store = ResultStore::open(&root).expect("store reopens");
    let recomputed = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("poisoned entry is recomputed");
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a poisoned entry must never count as a hit");
    assert_eq!(stats.corrupt, 1);
    assert_eq!(stats.writes, 1, "the recomputed result replaces the entry");
    assert_eq!(canonical_bytes(&recomputed), fresh_bytes);

    // The rewrite healed the cache: the next lookup is a clean hit.
    let store = ResultStore::open(&root).expect("store reopens");
    run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("healed entry loads");
    assert_eq!(store.stats().hits, 1);

    let _ = fs::remove_dir_all(&root);
}

/// Entries written by older engines are never served: schema 3 (before
/// the lazy transmit clock changed the `events` and `pending_peak` it
/// stores) and schema 4 (whose configurations still carried a `shards`
/// field, so every digest differs). Neither is served under its own
/// schema's key, which a current lookup never asks for, nor relabelled
/// into the current key's file.
#[test]
fn schema_3_entries_are_stale_and_never_reused() {
    assert_eq!(ENGINE_SCHEMA_VERSION, 5);
    for (stale, seed) in [(3u32, 41u64), (4, 43)] {
        let root = temp_store();
        let cfg = small_cfg(seed);
        let store = ResultStore::open(&root).expect("temp store is creatable");
        let fresh = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
            .expect("small scenario runs");
        let fresh_bytes = canonical_bytes(&fresh);
        let path = entry_path(&root, &cfg);
        let raw = fs::read_to_string(&path).expect("entry exists");
        let (header, payload) = raw.split_once('\n').expect("entry has a header line");
        let fields: Vec<&str> = header.split(' ').collect();
        assert_eq!(fields[1], "5", "entries are stamped with the schema");

        // The same payload as a well-formed stale entry under the stale
        // schema's key, where that engine would have put it.
        let old = Digest::of(format!("tcpburst-point-v{stale}|{cfg:?}").as_bytes());
        let old_path = root
            .join(&old.hex()[..2])
            .join(format!("{}.rpt", &old.hex()[2..]));
        fs::create_dir_all(old_path.parent().unwrap()).unwrap();
        let stale_entry = format!(
            "{} {stale} {} {} {}\n{payload}",
            fields[0],
            old.hex(),
            fields[3],
            fields[4]
        );
        fs::write(&old_path, stale_entry).unwrap();
        // And relabelled stale in the current file (checksums still valid).
        fs::write(&path, raw.replacen(" 5 ", &format!(" {stale} "), 1)).unwrap();

        let store = ResultStore::open(&root).expect("store reopens");
        let recomputed = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
            .expect("stale entry is recomputed");
        let stats = store.stats();
        assert_eq!(
            stats.hits, 0,
            "a schema-{stale} entry must never count as a hit"
        );
        assert_eq!(
            stats.corrupt, 1,
            "the relabelled schema-{stale} entry is flagged stale"
        );
        assert_eq!(canonical_bytes(&recomputed), fresh_bytes);
        assert!(
            old_path.exists(),
            "the schema-{stale} key is never even looked up"
        );

        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn truncated_entry_is_detected_and_recomputed() {
    let root = temp_store();
    let cfg = small_cfg(37);
    let store = ResultStore::open(&root).expect("temp store is creatable");
    let fresh = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("small scenario runs");
    let fresh_bytes = canonical_bytes(&fresh);
    let path = entry_path(&root, &cfg);
    let raw = fs::read(&path).expect("entry exists");

    // A partial write can truncate anywhere; probe a one-byte cut (the
    // subtlest case), a mid-payload cut, and a header-only remnant.
    for keep in [raw.len() - 1, raw.len() / 2, 16] {
        fs::write(&path, &raw[..keep]).expect("entry is rewritable");
        let store = ResultStore::open(&root).expect("store reopens");
        let recomputed = run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
            .expect("truncated entry is recomputed");
        let stats = store.stats();
        assert_eq!(stats.hits, 0, "truncated at {keep} bytes still hit");
        assert_eq!(stats.corrupt, 1, "truncated at {keep} bytes not flagged");
        assert_eq!(canonical_bytes(&recomputed), fresh_bytes);
    }

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn traced_configurations_bypass_the_store() {
    let root = temp_store();
    let cfg = ScenarioBuilder::paper()
        .topology(|t| t.clients(3))
        .instrumentation(|i| i.secs(1).seed(5).trace_cwnd(true))
        .finish();
    let store = ResultStore::open(&root).expect("temp store is creatable");

    run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("traced scenario runs");
    run_point_cached(&cfg, &RunBudget::UNLIMITED, Some(&store))
        .expect("traced scenario runs again");
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.writes),
        (0, 0, 0),
        "a traced run carries state the codec refuses; it must never touch the store"
    );

    let _ = fs::remove_dir_all(&root);
}
