//! Content-addressed result store: never recompute a finished grid point.
//!
//! Every completed scenario run is identified by a SHA-256 digest of its
//! *full* configuration plus the engine schema version
//! ([`ENGINE_SCHEMA_VERSION`]), and its [`ScenarioReport`] is persisted
//! under that digest via the exact [`codec`]. Any sweep,
//! `replicate` run, or example that has ever completed a point loads the
//! report from disk instead of simulating — and because the codec
//! round-trips every field bit-for-bit, cached and fresh results are
//! byte-identical by construction (the figure-table golden traces in
//! `scripts/verify.sh` exercise exactly this).
//!
//! ## Keying and invalidation
//!
//! The digest input is `"tcpburst-point-v{N}|{cfg:?}"` — the `Debug` form
//! of [`ScenarioConfig`] is the repo's established stable serialization
//! (the resume journal has always keyed on it) and covers *every* knob:
//! protocol expansion, seed, duration, impairments, RED parameters, audit
//! flag. Two configurations that would provably produce the
//! same result under different knobs still get distinct digests —
//! conservative correctness over maximal hit rate. Invalidation is
//! therefore automatic:
//!
//! * change any config field → different digest → miss;
//! * change the simulation engine → bump [`ENGINE_SCHEMA_VERSION`] →
//!   every old entry (and journal) misses;
//! * corrupt a record on disk → the header checksum fails → treated as a
//!   miss and recomputed, never trusted.
//!
//! ## On-disk layout
//!
//! Two append-only files per schema hold the store, named after
//! [`ENGINE_SCHEMA_VERSION`] so that a schema bump leaves every older
//! record unread rather than scanned on every open:
//!
//! * `<root>/results-v<schema>.pack` holds the records back to back. A
//!   record is a header line `tcpburst-store <schema> <digest>
//!   <payload-sha256> <payload-len>` followed by the codec payload, which
//!   always ends in a newline.
//! * `<root>/results-v<schema>.idx` holds one fixed-width line per record:
//!   `<digest> <offset> <length>`, the last two as 16 hex digits each.
//!
//! * **Writes** append the whole record to the pack with a single
//!   `write_all` on an `O_APPEND` handle, then its index line the same
//!   way. Concurrent writers (worker threads, or several processes
//!   sweeping into one store) therefore do not interleave within a record
//!   or a line on a local file system. A point written twice has two
//!   records and two index lines: the later line wins.
//! * **Reads** go through an in-memory `digest → (offset, length)` map,
//!   filled lazily from the index file in bounded chunks. A lookup that
//!   misses the map first reads the index lines appended since the last
//!   read, so records another handle or process wrote are found, and then
//!   reads older lines backwards from where it stopped until the digest
//!   turns up. So a store opened to re-read a recent grid reads the index
//!   lines written since that grid (99 bytes each), not the whole store;
//!   only a lookup that finds nothing reads the whole index. A hit reads
//!   that one record from the pack and checks all of it before trusting
//!   it, so an index line that points at the wrong bytes can cost a
//!   recompute but never serves a wrong result.
//! * **Torn writes** (cut short by a crash) are harmless. A torn record
//!   never got its index line, so it is never read; the next record is
//!   appended behind it. A torn index line has no newline and is skipped;
//!   a line appended after it still parses, because an entry is read from
//!   the last 98 bytes of its line.
//! * **Deleting the store** under a running sweep is noticed: before each
//!   write and each index re-read, the handle checks that its open files
//!   are still the ones at their paths, and reopens them (recreating the
//!   root) and starts a fresh map when they are not.
//!
//! Stores written before the pack kept one `<2 hex>/<62 hex>.rpt` file
//! per point. Those files are ignored, so the first sweep on such a store
//! re-simulates; the two-hex directories can be deleted, as can the pack
//! and index files of older schemas.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::codec;
use crate::config::ScenarioConfig;
use crate::report::ScenarioReport;

/// Version of the engine's observable behaviour. Bumping it invalidates
/// every result-store entry and every resume journal at once — do so
/// whenever a simulation change moves any reported number, or a change to
/// [`ScenarioConfig`]'s fields moves every digest.
pub const ENGINE_SCHEMA_VERSION: u32 = 7;

// ---------------------------------------------------------------------------
// SHA-256 (in-tree: the workspace builds fully offline, no external crates)
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_INIT: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn sha256_compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(SHA256_K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 of `bytes` (FIPS 180-4), implemented in-tree because the
/// workspace builds fully offline. Verified against the standard test
/// vectors in this module's tests.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut state = SHA256_INIT;
    let mut chunks = bytes.chunks_exact(64);
    for block in &mut chunks {
        sha256_compress(&mut state, block);
    }
    // Padding: 0x80, zeros, and the bit length in the final 8 bytes.
    let rem = chunks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        sha256_compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A 256-bit content digest (SHA-256), the key of the result store and of
/// the v2 resume journal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// Digest of raw bytes.
    pub fn of(bytes: &[u8]) -> Digest {
        Digest(sha256(bytes))
    }

    /// The 64-char lowercase hex form.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            use std::fmt::Write as _;
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Parses the 64-char hex form back; `None` for anything else.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        Self::from_hex_bytes(hex.as_bytes())
    }

    fn from_hex_bytes(hex: &[u8]) -> Option<Digest> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
            *byte = (hex_digit(pair[0])? << 4 | hex_digit(pair[1])?) as u8;
        }
        Some(Digest(out))
    }
}

/// The value of one hex digit, either case.
fn hex_digit(c: u8) -> Option<u32> {
    char::from(c).to_digit(16)
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.hex())
    }
}

/// The content digest of one grid point: full configuration (seed
/// included — it is a config field) plus the engine schema version.
pub fn point_digest(cfg: &ScenarioConfig) -> Digest {
    Digest::of(format!("tcpburst-point-v{ENGINE_SCHEMA_VERSION}|{cfg:?}").as_bytes())
}

/// The digest identifying a whole grid: a hash of its points' digests, in
/// grid order — the journal header key. A journal written under one digest
/// refuses to resume under another.
pub fn sweep_digest(points: &[Digest]) -> Digest {
    let mut bytes = format!("tcpburst-sweep-v{ENGINE_SCHEMA_VERSION}|").into_bytes();
    for point in points {
        bytes.extend_from_slice(&point.0);
    }
    Digest::of(&bytes)
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

const STORE_MAGIC: &str = "tcpburst-store";

/// Read-ahead of the index scan: one read serves every line in it.
const SCAN_CHUNK: usize = 64 * 1024;

/// An index entry without its newline: a 64-hex digest, then the record's
/// offset and length as 16 hex digits each, space separated.
const ENTRY_LEN: usize = 64 + 1 + 16 + 1 + 16;

/// Hit/miss accounting for one [`ResultStore`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups with no (valid) entry.
    pub misses: u64,
    /// Entries found corrupt (bad checksum, truncation, stale schema) and
    /// discarded — each also counts as a miss.
    pub corrupt: u64,
    /// Entries written.
    pub writes: u64,
}

/// A store's open files. The pack has two handles, one to read and one to
/// append, so a positional read never moves the cursor an append's offset
/// is read back from.
struct Files {
    pack: File,
    append: File,
    index: File,
    /// What identified the pack and the index file when they were opened.
    ids: [Option<(u64, u64)>; 2],
}

impl Files {
    /// Opens the pack and the index file at `paths`, creating them when
    /// `create`.
    fn open(paths: &[PathBuf; 2], create: bool) -> io::Result<Files> {
        let append = |path| {
            OpenOptions::new()
                .read(true)
                .append(true)
                .create(create)
                .open(path)
        };
        let (append, index) = (append(&paths[0])?, append(&paths[1])?);
        let pack = File::open(&paths[0])?;
        let ids = [file_id(&pack.metadata()?), file_id(&index.metadata()?)];
        Ok(Files {
            pack,
            append,
            index,
            ids,
        })
    }

    /// True while `paths` still name the files that were opened.
    fn still_at(&self, paths: &[PathBuf; 2]) -> bool {
        paths
            .iter()
            .zip(self.ids)
            .all(|(path, id)| fs::metadata(path).is_ok_and(|meta| file_id(&meta) == id))
    }
}

/// Device and inode of a file. Other platforms have no stable equivalent,
/// so there a store only checks that its files still exist.
#[cfg(unix)]
fn file_id(meta: &fs::Metadata) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    Some((meta.dev(), meta.ino()))
}

#[cfg(not(unix))]
fn file_id(_: &fs::Metadata) -> Option<(u64, u64)> {
    None
}

/// Fills `buf` from `file` at `offset` without touching its cursor.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `file` at `offset`.
#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The in-memory map of the store: where the latest record of each digest
/// starts and how long it is, for every index line read so far.
#[derive(Default)]
struct PackIndex {
    /// The store's files, opened on first use.
    files: Option<Arc<Files>>,
    records: HashMap<Digest, (u64, u64)>,
    /// The index lines in `low..high` are in the map. Lines before `low`
    /// are older than any of them, lines from `high` on newer.
    low: u64,
    high: u64,
    /// The bytes just before `high`: while the index file still holds them
    /// there, it was not cut and refilled since.
    tail: Vec<u8>,
}

impl PackIndex {
    /// Forgets every line read and starts again at `end`, the index file's
    /// length.
    fn restart(&mut self, file: &File, end: u64) -> io::Result<()> {
        self.records.clear();
        let len = end.min(ENTRY_LEN as u64 + 1);
        self.tail = vec![0; len as usize];
        read_at(file, &mut self.tail, end - len)?;
        (self.low, self.high) = (end, end);
        Ok(())
    }
}

/// A persistent, concurrency-safe, content-addressed cache of completed
/// [`ScenarioReport`]s. See the module docs for keying, layout and
/// invalidation.
pub struct ResultStore {
    root: PathBuf,
    /// Guards the map and the files, and orders appends within this handle.
    index: Mutex<PackIndex>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
}

impl fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`. Its files are
    /// opened and indexed on first use.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let root = root.into();
        // One `stat` for an existing store; `create_dir_all` alone would
        // first try a `mkdir` that fails.
        if !fs::metadata(&root).is_ok_and(|m| m.is_dir()) {
            fs::create_dir_all(&root)?;
        }
        Ok(ResultStore {
            root,
            index: Mutex::new(PackIndex::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// The default store location: `$TCPBURST_CACHE` if set, else
    /// `$XDG_CACHE_HOME/tcpburst/store`, else `$HOME/.cache/tcpburst/store`;
    /// `None` when no candidate exists (caching is then disabled unless a
    /// path is given explicitly).
    pub fn default_location() -> Option<PathBuf> {
        if let Some(dir) = std::env::var_os("TCPBURST_CACHE") {
            if !dir.is_empty() {
                return Some(PathBuf::from(dir));
            }
        }
        if let Some(dir) = std::env::var_os("XDG_CACHE_HOME") {
            if !dir.is_empty() {
                return Some(PathBuf::from(dir).join("tcpburst").join("store"));
            }
        }
        if let Some(home) = std::env::var_os("HOME") {
            if !home.is_empty() {
                return Some(
                    PathBuf::from(home)
                        .join(".cache")
                        .join("tcpburst")
                        .join("store"),
                );
            }
        }
        None
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The pack file that holds this schema's records.
    pub fn pack_path(&self) -> PathBuf {
        self.root
            .join(format!("results-v{ENGINE_SCHEMA_VERSION}.pack"))
    }

    /// True when this schema's pack holds at least one byte, so a lookup
    /// can hit. One `stat`; a store with no pack yet answers every lookup
    /// with a miss.
    pub fn has_records(&self) -> bool {
        fs::metadata(self.pack_path()).is_ok_and(|m| m.len() > 0)
    }

    /// The index file that locates each record in the pack.
    pub fn index_path(&self) -> PathBuf {
        self.root
            .join(format!("results-v{ENGINE_SCHEMA_VERSION}.idx"))
    }

    /// Hit/miss/corrupt/write counters accumulated by this handle.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PackIndex> {
        self.index
            .lock()
            .expect("no store operation panics while holding the index lock")
    }

    /// The store's open files. Called with the index lock held. They are
    /// opened on first use, and opened afresh, with an empty map, when
    /// their paths no longer name them (the store was deleted or replaced
    /// under this handle). Without `create`, a store with no pack yet is
    /// an error.
    fn files(&self, index: &mut PackIndex, create: bool) -> io::Result<Arc<Files>> {
        let paths = [self.pack_path(), self.index_path()];
        if let Some(files) = &index.files {
            if files.still_at(&paths) {
                return Ok(Arc::clone(files));
            }
            index.files = None;
        }
        if create {
            fs::create_dir_all(&self.root)?;
        }
        let files = Arc::new(Files::open(&paths, create)?);
        index.restart(&files.index, files.index.metadata()?.len())?;
        index.files = Some(Arc::clone(&files));
        Ok(files)
    }

    /// Loads the report stored under `digest`, or `None` on a miss. A
    /// present-but-invalid record (bad magic, stale schema, checksum or
    /// length mismatch, truncation, undecodable payload) is dropped from
    /// the map and reported as a miss: a poisoned cache entry is
    /// recomputed, never trusted.
    pub fn get(&self, digest: &Digest) -> Option<ScenarioReport> {
        let Some((files, offset, len)) = self.locate(digest) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        // `len` is bounded by the pack's size when the entry was read (see
        // `scan`).
        let mut raw = vec![0u8; len as usize];
        let report = read_at(&files.pack, &mut raw, offset)
            .ok()
            .and_then(|()| String::from_utf8(raw).ok())
            .and_then(|raw| Self::validate(digest, &raw));
        if report.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            // Unless a replacement was appended meanwhile, forget the bad
            // record so it is not re-read; a `put` appends a good one.
            let mut index = self.lock();
            if index.records.get(digest) == Some(&(offset, len)) {
                index.records.remove(digest);
            }
        }
        report
    }

    /// Where the latest record of `digest` lies, reading more of the
    /// index file first if the map does not know it.
    fn locate(&self, digest: &Digest) -> Option<(Arc<Files>, u64, u64)> {
        let mut index = self.lock();
        if !index.records.contains_key(digest) {
            let files = self.files(&mut index, false).ok()?;
            // A scan error leaves what it read so far; the lookup then
            // answers from that.
            let _ = scan(&files, &mut index, digest);
        }
        let &(offset, len) = index.records.get(digest)?;
        Some((Arc::clone(index.files.as_ref()?), offset, len))
    }

    /// Full validation of one record: header fields, payload checksum,
    /// then the codec.
    fn validate(digest: &Digest, raw: &str) -> Option<ScenarioReport> {
        let (header, payload) = raw.split_once('\n')?;
        let mut fields = header.split_whitespace();
        if fields.next()? != STORE_MAGIC {
            return None;
        }
        if fields.next()?.parse::<u32>().ok()? != ENGINE_SCHEMA_VERSION {
            return None;
        }
        if fields.next()? != digest.hex() {
            return None;
        }
        let payload_sha = fields.next()?;
        let payload_len: usize = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        if payload.len() != payload_len || Digest::of(payload.as_bytes()).hex() != payload_sha {
            return None;
        }
        codec::decode(payload)
    }

    /// Persists `report` under `digest`. Returns `Ok(true)` when written,
    /// `Ok(false)` when the report is not encodable (trace payloads,
    /// partial runs — see [`codec::encodable`]) and was skipped.
    ///
    /// The record, then its index line, is appended with one write each
    /// on an `O_APPEND` handle, so neither interleaves with another
    /// writer's.
    pub fn put(&self, digest: &Digest, report: &ScenarioReport) -> io::Result<bool> {
        let Some(payload) = codec::encode(report) else {
            return Ok(false);
        };
        let record = format!(
            "{STORE_MAGIC} {ENGINE_SCHEMA_VERSION} {} {} {}\n{payload}",
            digest.hex(),
            Digest::of(payload.as_bytes()).hex(),
            payload.len()
        );
        let len = record.len() as u64;
        let mut index = self.lock();
        let files = self.files(&mut index, true)?;
        let mut append = &files.append;
        append.write_all(record.as_bytes())?;
        // `O_APPEND` leaves the cursor at the end of this write, wherever
        // other processes' appends put it.
        let offset = append.stream_position()? - len;
        let line = format!("{} {offset:016x} {len:016x}\n", digest.hex());
        let mut index_file = &files.index;
        index_file.write_all(line.as_bytes())?;
        let end = index_file.stream_position()?;
        if index.high == end - line.len() as u64 {
            index.high = end;
            index.tail = line.into_bytes();
        }
        index.records.insert(*digest, (offset, len));
        drop(index);
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }
}

/// Brings the map up to date for a lookup of `digest`: reads the index
/// lines appended since the last read, then, while `digest` is still
/// unknown, older lines backwards from `low`. Reads a `SCAN_CHUNK` window
/// at a time, so a lookup of a recent record reads only the lines written
/// after it.
fn scan(files: &Files, index: &mut PackIndex, digest: &Digest) -> io::Result<()> {
    let end = files.index.metadata()?.len();
    let mut buf = vec![0u8; index.tail.len()];
    let tail_at = index.high - buf.len() as u64;
    if end < index.high || read_at(&files.index, &mut buf, tail_at).is_err() || buf != index.tail {
        // The index file was cut under this handle: start over at its end.
        index.restart(&files.index, end)?;
    }
    // Each record is appended before its index line, so every line read
    // below points into the pack's first `pack_end` bytes, unless the pack
    // was cut since. Capping at `pack_end` bounds what a lookup reads.
    let pack_end = files.pack.metadata()?.len();
    let entry = |line: &[u8]| {
        let (digest, offset, len) = parse_entry(line)?;
        Some((digest, (offset, len.min(pack_end.saturating_sub(offset)))))
    };

    // Newer lines, forwards: each replaces what the map holds. A last line
    // without a newline (torn, or another writer's still landing) waits.
    while index.high < end {
        let want = (end - index.high).min(SCAN_CHUNK as u64) as usize;
        buf.resize(want, 0);
        read_at(&files.index, &mut buf, index.high)?;
        let read = match buf.iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                index
                    .records
                    .extend(buf[..last].split(|&b| b == b'\n').filter_map(entry));
                last + 1
            }
            None if want < SCAN_CHUNK => break,
            // A full window without a newline is garbage: skip it.
            None => want,
        };
        index.high += read as u64;
        index.tail = buf[read.saturating_sub(ENTRY_LEN + 1)..read].to_vec();
    }

    // Older lines, backwards: each fills in only digests the map lacks.
    while index.low > 0 && !index.records.contains_key(digest) {
        let start = index.low.saturating_sub(SCAN_CHUNK as u64);
        buf.resize((index.low - start) as usize, 0);
        read_at(&files.index, &mut buf, start)?;
        // The window's first line may begin before it; the next window
        // reads it whole.
        let first = match buf.iter().position(|&b| b == b'\n') {
            Some(newline) if start > 0 => newline + 1,
            _ => 0,
        };
        for (digest, at) in buf[first..].rsplit(|&b| b == b'\n').filter_map(entry) {
            index.records.entry(digest).or_insert(at);
        }
        index.low = start + first as u64;
    }
    Ok(())
}

/// Parses the entry in the last [`ENTRY_LEN`] bytes of an index line, so
/// a torn line's remnant in front of it does not hide it.
fn parse_entry(line: &[u8]) -> Option<(Digest, u64, u64)> {
    let entry = &line[line.len().checked_sub(ENTRY_LEN)?..];
    if entry[64] != b' ' || entry[81] != b' ' {
        return None;
    }
    let hex = |field: &[u8]| {
        field
            .iter()
            .try_fold(0u64, |n, &c| Some(n << 4 | u64::from(hex_digit(c)?)))
    };
    Some((
        Digest::from_hex_bytes(&entry[..64])?,
        hex(&entry[65..81])?,
        hex(&entry[82..])?,
    ))
}

/// True when results for `cfg` may be served from / written to the store.
///
/// Trace-carrying configurations are excluded because their reports are
/// not codec-encodable.
pub fn cacheable(cfg: &ScenarioConfig) -> bool {
    !cfg.trace_cwnd && !cfg.trace_events && !cfg.trace_hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioBuilder;

    fn temp_root(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "tcpburst-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&path);
        path
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        let hex = |b: &[u8]| Digest::of(b).hex();
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's: the multi-block + length-overflow path.
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&million),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
        // 55/56/63/64/65 bytes straddle every padding boundary.
        for n in [55usize, 56, 63, 64, 65] {
            let data = vec![0x5au8; n];
            assert_eq!(Digest::of(&data), Digest::of(&data.clone()), "n={n}");
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            assert_ne!(Digest::of(&data), Digest::of(&flipped), "n={n}");
        }
    }

    #[test]
    fn digest_hex_round_trips() {
        let d = Digest::of(b"round trip");
        assert_eq!(Digest::from_hex(&d.hex()), Some(d));
        assert_eq!(d.hex().len(), 64);
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(&d.hex()[..63]), None);
    }

    #[test]
    fn point_digest_covers_every_knob() {
        let base = ScenarioBuilder::paper().finish();
        let d = point_digest(&base);
        assert_eq!(d, point_digest(&base));
        let mut other = base;
        other.seed ^= 1;
        assert_ne!(d, point_digest(&other));
        let mut other = base;
        other.num_clients += 1;
        assert_ne!(d, point_digest(&other));
        let mut other = base;
        other.audit = !other.audit;
        assert_ne!(d, point_digest(&other));
    }

    #[test]
    fn store_round_trips_a_real_report() {
        let root = temp_root("roundtrip");
        let store = ResultStore::open(&root).expect("open");
        let cfg = ScenarioBuilder::paper()
            .topology(|t| t.clients(3))
            .instrumentation(|i| i.secs(1))
            .finish();
        let digest = point_digest(&cfg);
        assert!(store.get(&digest).is_none());
        let report = crate::Scenario::run(&cfg);
        assert!(store.put(&digest, &report).expect("put"));
        let cached = store.get(&digest).expect("hit");
        assert_eq!(cached.cov.to_bits(), report.cov.to_bits());
        assert_eq!(cached.delivered_packets, report.delivered_packets);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cacheable_excludes_traces() {
        let mut cfg = ScenarioBuilder::paper().finish();
        assert!(cacheable(&cfg));
        cfg.trace_cwnd = true;
        assert!(!cacheable(&cfg));
        cfg.trace_cwnd = false;
        cfg.trace_events = true;
        assert!(!cacheable(&cfg));
    }
}
