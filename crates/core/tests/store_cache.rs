//! Integration tests of the content-addressed result store: warm hits are
//! bit-identical to cold runs, poisoned or truncated records are detected
//! and recomputed rather than trusted, the pack survives torn records,
//! other handles' appends and concurrent writers, and traced
//! configurations bypass the cache entirely.

use std::fs;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Barrier};

use tcpburst_core::{
    codec, point_digest, Digest, Protocol, ResultStore, Scenario, ScenarioBuilder, ScenarioConfig,
    ScenarioReport, SweepSupervisor, ENGINE_SCHEMA_VERSION,
};

mod common;
use common::{canonical_bytes, tcpburst, temp_dir, temp_path};

fn small_cfg(seed: u64) -> ScenarioConfig {
    ScenarioBuilder::paper()
        .topology(|t| t.clients(4))
        .transport(|t| t.protocol(Protocol::Reno))
        .instrumentation(|i| i.secs(2).seed(seed))
        .finish()
}

/// Opens the store at `root`, shared the way a grid takes it.
fn open(root: &Path) -> Arc<ResultStore> {
    Arc::new(ResultStore::open(root).expect("the store opens"))
}

/// Runs `cfg` as a one-point grid reading and writing `store`: the path
/// `sweep` and `replicate` take.
fn run_cached(cfg: &ScenarioConfig, store: &Arc<ResultStore>) -> ScenarioReport {
    let grid = SweepSupervisor::from_configs(&[*cfg])
        .store(Arc::clone(store))
        .run_grid();
    grid.reports().expect("the point completes").remove(0)
}

/// The byte range of `cfg`'s first record inside the pack bytes `pack`,
/// found by the digest in its header and sized by the header's length
/// field, so tests can corrupt it directly.
fn record_span(pack: &[u8], cfg: &ScenarioConfig) -> Range<usize> {
    let text = std::str::from_utf8(pack).expect("the pack is text");
    let named = text
        .find(&format!(" {} ", point_digest(cfg).hex()))
        .expect("the point has a record");
    let start = text[..named]
        .rfind("tcpburst-store ")
        .expect("the digest sits in a record header");
    let header_len = text[start..].find('\n').expect("the header ends") + 1;
    let payload_len: usize = text[start..start + header_len]
        .split_whitespace()
        .nth(4)
        .and_then(|len| len.parse().ok())
        .expect("the header ends in the payload length");
    start..start + header_len + payload_len
}

#[test]
fn warm_hit_is_bit_identical_to_cold_run() {
    let root = temp_path("store");
    let cfg = small_cfg(11);
    let store = open(&root);

    let cold = run_cached(&cfg, &store);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.writes), (0, 1, 1));

    let warm = run_cached(&cfg, &store);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));

    // Byte-identical through the canonical serialization, not merely
    // "close": the cache must never alter a result.
    let cold_bytes = codec::encode(&cold).expect("report is encodable");
    let warm_bytes = codec::encode(&warm).expect("report is encodable");
    assert_eq!(cold_bytes, warm_bytes);

    let _ = fs::remove_dir_all(&root);
}

/// `has_records` is what lets a sweep skip threaded lookups into a store
/// that cannot hit: false until the first record lands, true after.
#[test]
fn has_records_tracks_whether_the_pack_holds_anything() {
    let root = temp_path("store");
    let store = open(&root);
    assert!(!store.has_records(), "a new store has no pack");
    fs::create_dir_all(&root).expect("root is creatable");
    fs::write(store.pack_path(), b"").expect("pack is writable");
    assert!(!store.has_records(), "an empty pack holds nothing");
    run_cached(&small_cfg(13), &store);
    assert!(store.has_records());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn poisoned_entry_is_detected_and_recomputed() {
    let root = temp_path("store");
    let cfg = small_cfg(23);
    let store = open(&root);
    let fresh = run_cached(&cfg, &store);
    let fresh_bytes = canonical_bytes(&fresh);

    // Flip one byte deep in the payload. The header checksum no longer
    // matches, so the record must be treated as a miss and recomputed.
    let path = store.pack_path();
    let mut raw = fs::read(&path).expect("pack exists");
    let span = record_span(&raw, &cfg);
    raw[span.start + span.len() / 2] ^= 0x01;
    fs::write(&path, &raw).expect("pack is rewritable");

    let store = open(&root);
    let recomputed = run_cached(&cfg, &store);
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a poisoned entry must never count as a hit");
    assert_eq!(stats.corrupt, 1);
    assert_eq!(stats.writes, 1, "the recomputed result is appended");
    assert_eq!(canonical_bytes(&recomputed), fresh_bytes);

    // The appended record wins over the poisoned one: the next handle's
    // lookup is a clean hit.
    let store = open(&root);
    run_cached(&cfg, &store);
    assert_eq!(store.stats().hits, 1);

    let _ = fs::remove_dir_all(&root);
}

/// Records written by older engines are never served: schema 3 (before
/// the lazy transmit clock changed the `events` and `pending_peak` it
/// stores), schema 4 (whose configurations still carried a `shards`
/// field, so every digest differs), schema 5 (before window-full senders
/// absorbed their arrivals, which changed the stored event counts) and
/// schema 6 (whose configurations still carried a `queue` backend field).
/// None is served under its own schema's key, which a current lookup never
/// asks for, nor relabelled into the current key's record.
#[test]
fn schema_3_entries_are_stale_and_never_reused() {
    assert_eq!(ENGINE_SCHEMA_VERSION, 7);
    for (stale, seed) in [(3u32, 41u64), (4, 43), (5, 47), (6, 53)] {
        let root = temp_path("store");
        let cfg = small_cfg(seed);
        let store = open(&root);
        let fresh = run_cached(&cfg, &store);
        let fresh_bytes = canonical_bytes(&fresh);
        let path = store.pack_path();
        assert!(path.ends_with("results-v7.pack"), "one pack per schema");
        let raw = fs::read_to_string(&path).expect("pack exists");
        assert_eq!(record_span(raw.as_bytes(), &cfg), 0..raw.len());
        let (header, payload) = raw.split_once('\n').expect("record has a header line");
        let fields: Vec<&str> = header.split(' ').collect();
        assert_eq!(fields[1], "7", "records are stamped with the schema");

        // The current record relabelled stale (checksums still valid),
        // then the same payload as a well-formed record under the stale
        // schema's key, as that engine would have written it.
        let old = Digest::of(format!("tcpburst-point-v{stale}|{cfg:?}").as_bytes());
        let stale_pack = format!(
            "{}{} {stale} {} {} {}\n{payload}",
            raw.replacen(" 7 ", &format!(" {stale} "), 1),
            fields[0],
            old.hex(),
            fields[3],
            fields[4]
        );
        fs::write(&path, &stale_pack).unwrap();

        let store = open(&root);
        let recomputed = run_cached(&cfg, &store);
        let stats = store.stats();
        assert_eq!(
            stats.hits, 0,
            "a schema-{stale} record must never count as a hit"
        );
        assert_eq!(
            stats.corrupt, 1,
            "only the relabelled schema-{stale} record is read, and it is flagged stale; \
             the schema-{stale} key is never even looked up"
        );
        assert_eq!(canonical_bytes(&recomputed), fresh_bytes);
        let pack = fs::read_to_string(&path).unwrap();
        assert!(
            pack.starts_with(&stale_pack),
            "the pack is append-only: both stale records are still there"
        );

        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn truncated_entry_is_detected_and_recomputed() {
    let root = temp_path("store");
    let cfg = small_cfg(37);
    let store = open(&root);
    let fresh = run_cached(&cfg, &store);
    let fresh_bytes = canonical_bytes(&fresh);
    let path = store.pack_path();
    let raw = fs::read(&path).expect("pack exists");
    assert_eq!(record_span(&raw, &cfg), 0..raw.len());

    // A partial write can truncate anywhere; probe a one-byte cut (the
    // subtlest case), a mid-payload cut, and a header-only remnant.
    for keep in [raw.len() - 1, raw.len() / 2, 16] {
        fs::write(&path, &raw[..keep]).expect("pack is rewritable");
        let store = open(&root);
        let recomputed = run_cached(&cfg, &store);
        let stats = store.stats();
        assert_eq!(stats.hits, 0, "truncated at {keep} bytes still hit");
        assert_eq!(stats.corrupt, 1, "truncated at {keep} bytes not flagged");
        assert_eq!(stats.writes, 1);
        assert_eq!(canonical_bytes(&recomputed), fresh_bytes);

        // The recomputed record, appended behind the cut, is found by a
        // fresh handle.
        let store = open(&root);
        let served = store
            .get(&point_digest(&cfg))
            .expect("the record appended after the cut is served");
        assert_eq!(canonical_bytes(&served), fresh_bytes);
        assert_eq!(fs::read(&path).unwrap().len(), keep + raw.len());
    }

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_torn_record_does_not_hide_a_later_one() {
    let root = temp_path("store");
    let (torn, later) = (small_cfg(51), small_cfg(53));
    let store = open(&root);
    run_cached(&torn, &store);
    let path = store.pack_path();
    let raw = fs::read(&path).expect("pack exists");
    fs::write(&path, &raw[..raw.len() / 2]).expect("pack is rewritable");

    // The torn record's index line claims more bytes than follow it, so
    // the next record starts inside its claimed span.
    let store = open(&root);
    let report = run_cached(&later, &store);
    assert_eq!(store.stats().writes, 1);

    let store = open(&root);
    let served = store
        .get(&point_digest(&later))
        .expect("the later record is indexed behind the torn one");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&report));
    assert!(store.get(&point_digest(&torn)).is_none());
    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.corrupt), (1, 1, 1));

    let _ = fs::remove_dir_all(&root);
}

/// Appends `bytes` to the file at `path`, as a writer cut short would.
fn append(path: &std::path::Path, bytes: &[u8]) {
    fs::OpenOptions::new()
        .append(true)
        .open(path)
        .and_then(|mut file| file.write_all(bytes))
        .expect("store file is appendable");
}

/// A crash, or another process's append still landing, can leave a torn
/// copy of a record and a torn index line at the tail. Neither replaces
/// the good record, and a line appended after the torn one is still read.
#[test]
fn a_torn_copy_does_not_replace_a_good_record() {
    let root = temp_path("store");
    let (cfg, later) = (small_cfg(57), small_cfg(59));
    let store = open(&root);
    let report = run_cached(&cfg, &store);
    let raw = fs::read(store.pack_path()).expect("pack exists");
    append(&store.pack_path(), &raw[..raw.len() / 2]);
    let torn_line = format!(
        "{} {:016x} {:016x}\n",
        point_digest(&cfg).hex(),
        raw.len(),
        raw.len()
    );
    append(&store.index_path(), &torn_line.as_bytes()[..torn_line.len() / 2]);

    let store = open(&root);
    let served = store
        .get(&point_digest(&cfg))
        .expect("the good record is still served");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&report));
    assert_eq!(store.stats().corrupt, 0);

    let later_report = run_cached(&later, &store);
    let store = open(&root);
    let served = store
        .get(&point_digest(&later))
        .expect("the index line appended after the torn one is read");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&later_report));
    assert!(store.get(&point_digest(&cfg)).is_some());
    let stats = store.stats();
    assert_eq!((stats.hits, stats.corrupt), (2, 0));

    let _ = fs::remove_dir_all(&root);
}

/// Deleting the store, or emptying its files, under open handles loses
/// the cached results but not the ones written afterwards.
#[test]
fn a_store_deleted_or_emptied_under_a_handle_recovers() {
    let root = temp_path("store");
    let cfgs = [small_cfg(79), small_cfg(83), small_cfg(89)];
    let reports: Vec<_> = cfgs.iter().map(Scenario::run).collect();
    let store = open(&root);
    assert!(store.put(&point_digest(&cfgs[0]), &reports[0]).unwrap());
    fs::remove_dir_all(&root).unwrap();

    // The next put sees its files are gone, recreates the root and starts
    // a new pack, which other handles read.
    assert!(store.put(&point_digest(&cfgs[1]), &reports[1]).unwrap());
    let other = open(&root);
    let served = other
        .get(&point_digest(&cfgs[1]))
        .expect("the put after the deletion landed in the new pack");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&reports[1]));
    assert!(other.get(&point_digest(&cfgs[0])).is_none());
    assert!(store.get(&point_digest(&cfgs[0])).is_none());

    // Emptied in place: the reader's next scan starts the index again.
    for path in [store.pack_path(), store.index_path()] {
        fs::write(path, b"").unwrap();
    }
    assert!(store.put(&point_digest(&cfgs[2]), &reports[2]).unwrap());
    let served = other
        .get(&point_digest(&cfgs[2]))
        .expect("a record written after the files were emptied is found");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&reports[2]));
    assert_eq!(other.stats().corrupt, 0);

    let _ = fs::remove_dir_all(&root);
}

/// A point written twice has two records; the later one is served, also
/// by a fresh handle that reads the index backwards from its end.
#[test]
fn the_latest_record_of_a_point_wins() {
    let root = temp_path("store");
    let (cfg, other) = (small_cfg(97), small_cfg(101));
    let (first, second) = (Scenario::run(&cfg), Scenario::run(&other));
    let mut rerun = first.clone();
    rerun.wall_clock_secs += 1.0;
    let store = open(&root);
    assert!(store.put(&point_digest(&cfg), &first).unwrap());
    assert!(store.put(&point_digest(&other), &second).unwrap());
    assert!(store.put(&point_digest(&cfg), &rerun).unwrap());

    let store = open(&root);
    let served = store.get(&point_digest(&cfg)).expect("the point is stored");
    assert_eq!(served.wall_clock_secs, rerun.wall_clock_secs);
    let served = store.get(&point_digest(&other)).expect("older lines are read too");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&second));
    let served = store.get(&point_digest(&cfg)).expect("the point is still stored");
    assert_eq!(served.wall_clock_secs, rerun.wall_clock_secs);
    assert_eq!(store.stats().hits, 3);

    let _ = fs::remove_dir_all(&root);
}

/// An index line is not trusted either: one that claims a record far
/// larger than the pack costs a corrupt lookup, not an allocation of that
/// size.
#[test]
fn an_index_line_claiming_too_much_is_corrupt() {
    let root = temp_path("store");
    let cfg = small_cfg(103);
    let store = open(&root);
    let report = run_cached(&cfg, &store);
    let line = format!("{} {:016x} {:016x}\n", point_digest(&cfg).hex(), 1, u64::MAX);
    append(&store.index_path(), line.as_bytes());

    let store = open(&root);
    let recomputed = run_cached(&cfg, &store);
    let stats = store.stats();
    assert_eq!((stats.hits, stats.corrupt, stats.writes), (0, 1, 1));
    assert_eq!(canonical_bytes(&recomputed), canonical_bytes(&report));

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_handle_finds_records_another_handle_appended_after_its_scan() {
    let root = temp_path("store");
    let (first, second) = (small_cfg(61), small_cfg(67));
    let a = open(&root);
    let b = open(&root);
    let first_report = run_cached(&first, &a);
    let second_report = Scenario::run(&second);

    // B's first lookup scans the pack as it stands: one record.
    assert!(b.get(&point_digest(&first)).is_some());
    assert!(b.get(&point_digest(&second)).is_none());

    assert!(a.put(&point_digest(&second), &second_report).unwrap());
    let served = b
        .get(&point_digest(&second))
        .expect("a miss rescans what was appended since the last scan");
    assert_eq!(canonical_bytes(&served), canonical_bytes(&second_report));
    assert_eq!(
        canonical_bytes(&b.get(&point_digest(&first)).unwrap()),
        canonical_bytes(&first_report)
    );
    let stats = b.stats();
    assert_eq!((stats.hits, stats.misses, stats.corrupt), (3, 1, 0));

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn concurrent_puts_on_one_handle_all_land_intact() {
    const THREADS: usize = 4;
    const PUTS: usize = 25;
    let root = temp_path("store");
    let base = Scenario::run(&small_cfg(71));
    // One report per put, each with its own bytes, under its own digest.
    let cases: Vec<(Digest, String)> = (0..THREADS * PUTS)
        .map(|k| {
            let mut report = base.clone();
            report.wall_clock_secs = k as f64;
            let digest = Digest::of(format!("concurrent put {k}").as_bytes());
            (digest, codec::encode(&report).expect("report is encodable"))
        })
        .collect();

    let store = Arc::new(ResultStore::open(&root).expect("temp store is creatable"));
    let start = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, start, cases) = (Arc::clone(&store), Arc::clone(&start), &cases);
            scope.spawn(move || {
                start.wait();
                for (digest, payload) in &cases[t * PUTS..(t + 1) * PUTS] {
                    let report = codec::decode(payload).expect("payload decodes");
                    assert!(store.put(digest, &report).expect("put succeeds"));
                }
            });
        }
    });
    assert_eq!(store.stats().writes, (THREADS * PUTS) as u64);

    let fresh = open(&root);
    for (digest, payload) in &cases {
        let served = fresh.get(digest).expect("every put is served");
        assert_eq!(&codec::encode(&served).unwrap(), payload);
    }
    assert_eq!(fresh.stats().hits, (THREADS * PUTS) as u64);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_fully_warm_sweep_appends_nothing() {
    let root = temp_path("store");
    let base = small_cfg(73);
    let protocols = [Protocol::Reno, Protocol::Vegas];
    let clients = [3usize, 4];
    let sweep = |store: &Arc<ResultStore>| {
        SweepSupervisor::new(&base, &protocols, &clients)
            .jobs(2)
            .store(Arc::clone(store))
            .run()
    };
    let store = Arc::new(ResultStore::open(&root).expect("temp store is creatable"));
    let cold = sweep(&store);
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, 4));
    let cold_len = fs::metadata(store.pack_path()).unwrap().len();

    let store = Arc::new(ResultStore::open(&root).expect("store reopens"));
    let warm = sweep(&store);
    assert_eq!((warm.cache_hits, warm.cache_misses), (4, 0));
    assert_eq!(store.stats().writes, 0);
    assert_eq!(fs::metadata(store.pack_path()).unwrap().len(), cold_len);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn traced_configurations_bypass_the_store() {
    let root = temp_path("store");
    let cfg = ScenarioBuilder::paper()
        .topology(|t| t.clients(3))
        .instrumentation(|i| i.secs(1).seed(5).trace_cwnd(true))
        .finish();
    let store = open(&root);

    run_cached(&cfg, &store);
    run_cached(&cfg, &store);
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.writes),
        (0, 0, 0),
        "a traced run carries state the codec refuses; it must never touch the store"
    );

    let _ = fs::remove_dir_all(&root);
}

/// A traced sweep or replication never consults the store, so with a store
/// open it prints no `cache:` line; an untraced one still does.
#[test]
fn a_traced_cli_run_prints_no_cache_line() {
    let dir = temp_dir("cache-line");
    let sweep = "sweep --protocols reno --clients 5 --secs 2";
    let replicate = "replicate --protocols reno --clients 5 --secs 2 --seeds 2";
    for cmd in [sweep, replicate] {
        for traced in [true, false] {
            let mut args: Vec<&str> = cmd.split_whitespace().collect();
            if traced {
                args.push("--trace-hops");
            }
            let out = tcpburst(&dir, &args, &[]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{args:?} fails: {stderr}");
            assert_eq!(stderr.contains("cache: "), !traced, "{args:?}: {stderr}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
