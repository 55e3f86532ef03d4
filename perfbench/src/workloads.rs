//! The five closed-loop workloads. Each one has a reference computed
//! serially in-process before any timing, a set-up, an untraced pass that
//! goes through the path a user takes, and a traced pass that replays the
//! same points through the per-layer calls with a span around each.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tcpburst_core::experiments::{Sweep, SweepCell};
use tcpburst_core::net_transport::{read_frame, write_frame};
use tcpburst_core::{
    codec, point_digest, submit_job, FrameTransport, JournalEntry, PipeTransport, Protocol,
    ResultStore, RobustnessCounters, RunJournal, Scenario, ScenarioBuilder, ScenarioConfig,
    ScenarioReport, SupervisedSweep, SweepSupervisor, TopoKind, WorkerCommand,
};

use crate::sys::{connected_to, ChildGuard, TempDir};
use crate::trace::Tracer;

pub const NAMES: [&str; 5] = [
    "run-mix",
    "sweep-cold",
    "sweep-warm",
    "sweep-workers",
    "sweep-serve",
];

/// Grid sizes. `smoke` shrinks every workload so the whole set runs in
/// seconds; the full sizes put each pass between ~0.2 s and ~2 s.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub run_mix_secs: u64,
    pub cold_secs: u64,
    pub cold_clients: Vec<usize>,
    pub warm_secs: u64,
    pub warm_seeds: u64,
    pub short_clients: Vec<usize>,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                run_mix_secs: 1,
                cold_secs: 1,
                cold_clients: vec![5, 64],
                warm_secs: 1,
                warm_seeds: 1,
                short_clients: vec![1, 2],
            }
        } else {
            Sizes {
                run_mix_secs: 30,
                cold_secs: 15,
                cold_clients: vec![5, 15, 25, 35, 39, 45, 55, 64],
                warm_secs: 1,
                warm_seeds: 8,
                short_clients: (1..=32).collect(),
            }
        }
    }
}

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub jobs: usize,
    pub tcpburst: PathBuf,
    pub tmp: PathBuf,
    pub sizes: Sizes,
}

impl Ctx {
    /// Threads the calibration loop runs on: one for the serial
    /// `run-mix`, `nproc` for the workloads that keep every core busy.
    pub fn calib_threads(&self) -> usize {
        if self.workload == "run-mix" {
            1
        } else {
            self.jobs
        }
    }

    /// The `k`-th config seed drawn from the workload seed (splitmix64), so
    /// the program only ever sees seeds derived from `--seed`.
    pub fn seed_k(&self, k: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) >> 16
    }
}

/// What one pass did.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassOut {
    pub points: usize,
    pub failed: usize,
}

/// Counters gathered by traced passes.
#[derive(Debug, Default)]
pub struct Counts {
    pub traced_passes: u64,
    pub des_events: u64,
    pub stale_fired: u64,
    pub cancelled_in_place: u64,
    pub pending_peak: u64,
    pub net_tx: u64,
    pub net_delivery: u64,
    pub acks: u64,
    pub timeouts: u64,
    pub fast_retransmits: u64,
    pub store_hits: u64,
    pub store_lookups: u64,
    pub events_per_s: BTreeMap<String, Vec<f64>>,
    pub codec_bytes: Vec<usize>,
    /// Per traced pass: summed per-point time, threads, and wall time.
    pub busy: Vec<(f64, usize, f64)>,
}

impl Counts {
    /// Adds a freshly simulated report's engine counters.
    pub fn add_report(&mut self, r: &ScenarioReport) {
        self.des_events += r.events_processed;
        self.stale_fired += r.timers.stale_fired;
        self.cancelled_in_place += r.timers.cancelled_in_place;
        self.pending_peak = self.pending_peak.max(r.timers.pending_peak);
        self.net_tx += r.dispatch.net_tx.count;
        self.net_delivery += r.dispatch.net_delivery.count;
        self.acks += r.tcp_totals.acks_received;
        self.timeouts += r.tcp_totals.timeouts;
        self.fast_retransmits += r.tcp_totals.fast_retransmits;
    }
}

/// Observations the untraced side makes along the way.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    pub spawn_ms: Vec<f64>,
    pub register_ms: Vec<f64>,
    pub robustness: RobustnessCounters,
    pub retries: u64,
}

pub trait Workload {
    /// Untimed work between passes (emptying a store, re-arming workers).
    fn prepare_pass(&mut self) -> Result<(), String> {
        Ok(())
    }
    fn pass(&mut self) -> Result<PassOut, String>;
    fn traced_pass(&mut self, tr: &Tracer, counts: &mut Counts) -> Result<PassOut, String>;
    fn observed(&self) -> Observed {
        Observed::default()
    }
}

/// The report without its host-dependent `wall_clock_secs` and without
/// the audit a traced run adds, for byte-for-byte comparison.
pub fn canon(r: &ScenarioReport) -> String {
    let mut r = r.clone();
    r.wall_clock_secs = 0.0;
    r.audit = None;
    format!("{r:?}")
}

/// The four figure tables exactly as `tcpburst sweep` prints them.
pub fn tables(s: &Sweep) -> String {
    format!(
        "{}\n{}\n{}\n{}\n",
        s.fig2_cov_table(),
        s.fig3_throughput_table(),
        s.fig4_loss_table(),
        s.fig13_timeout_ratio_table()
    )
}

pub fn point_cfg(base: &ScenarioConfig, p: Protocol, n: usize) -> ScenarioConfig {
    ScenarioBuilder::from_config(*base)
        .topology(|t| t.clients(n))
        .transport(|t| t.protocol(p))
        .finish()
}

/// Opens the result store in `dir/store`.
fn open_store(dir: &TempDir) -> Result<Arc<ResultStore>, String> {
    ResultStore::open(dir.path().join("store"))
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Deletes `dir/store` and opens a fresh, empty store there.
fn empty_store(dir: &TempDir) -> Result<Arc<ResultStore>, String> {
    let _ = std::fs::remove_dir_all(dir.path().join("store"));
    open_store(dir)
}

fn grid(protocols: &[Protocol], clients: &[usize]) -> Vec<(Protocol, usize)> {
    protocols
        .iter()
        .flat_map(|&p| clients.iter().map(move |&n| (p, n)))
        .collect()
}

/// A grid of one seed, with its serial in-process reference.
#[derive(Clone)]
pub struct Grid {
    pub base: ScenarioConfig,
    /// `--secs`/`--seed` as CLI flags: the worker processes and the daemon
    /// rebuild `base` from exactly these.
    pub flags: Vec<String>,
    pub protocols: Vec<Protocol>,
    pub clients: Vec<usize>,
    pub points: Vec<(Protocol, usize)>,
    pub ref_tables: String,
    pub ref_reports: Vec<String>,
    /// Reports of the reference, in grid order.
    pub reports: Vec<ScenarioReport>,
    /// Serial in-process simulate time of each point, seconds.
    pub sim_s: Vec<f64>,
}

impl Grid {
    pub fn new(
        secs: u64,
        seed: u64,
        protocols: &[Protocol],
        clients: &[usize],
    ) -> Result<Grid, String> {
        let flags = vec![
            "--secs".to_string(),
            secs.to_string(),
            "--seed".to_string(),
            seed.to_string(),
        ];
        let mut builder = ScenarioBuilder::paper();
        for pair in flags.chunks(2) {
            builder
                .apply_cli_flag(&pair[0], Some(&pair[1]))
                .map_err(|e| e.to_string())?;
        }
        let base = builder.try_finish().map_err(|e| e.to_string())?;
        let points = grid(protocols, clients);
        let mut cells = Vec::new();
        let mut sim_s = Vec::new();
        for &(p, n) in &points {
            let t = Instant::now();
            let report = Scenario::run(&point_cfg(&base, p, n));
            sim_s.push(t.elapsed().as_secs_f64());
            cells.push(SweepCell {
                protocol: p,
                clients: n,
                report,
            });
        }
        let reports: Vec<ScenarioReport> = cells.iter().map(|c| c.report.clone()).collect();
        let sweep = Sweep::from_cells(cells, protocols.to_vec(), clients.to_vec());
        Ok(Grid {
            base,
            flags,
            protocols: protocols.to_vec(),
            clients: clients.to_vec(),
            points,
            ref_tables: tables(&sweep),
            ref_reports: reports.iter().map(canon).collect(),
            reports,
            sim_s,
        })
    }

    fn supervisor(&self, jobs: usize) -> SweepSupervisor {
        SweepSupervisor::new(&self.base, &self.protocols, &self.clients).jobs(jobs)
    }

    /// Failed points of a supervised sweep: every point whose cell is
    /// missing or differs from the reference, or the whole grid if the
    /// rendered tables differ.
    fn check(&self, s: &SupervisedSweep) -> usize {
        if tables(&s.sweep) != self.ref_tables {
            return self.points.len();
        }
        self.points
            .iter()
            .zip(&self.ref_reports)
            .filter(|(&(p, n), want)| s.sweep.report(p, n).is_none_or(|r| canon(r) != **want))
            .count()
    }

    /// Failed points when only the rendered tables are available.
    fn check_tables(&self, rendered: &str) -> usize {
        if rendered == self.ref_tables {
            0
        } else {
            self.points.len()
        }
    }

    fn journal_entry(&self, i: usize, cfg: &ScenarioConfig, r: &ScenarioReport) -> JournalEntry {
        let (p, n) = self.points[i];
        JournalEntry::from_report(point_digest(cfg).hex(), p, n, self.base.seed, r)
    }
}

/// Runs `f` over `n` points on `jobs` scoped threads claiming from one
/// counter, each thread with its own context from `make`.
fn fan_out<C, T: Send>(
    jobs: usize,
    n: usize,
    make: impl Fn() -> Result<C, String> + Sync,
    f: impl Fn(&mut C, usize) -> T + Sync,
) -> Result<Vec<T>, String> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.max(1))
            .map(|_| {
                scope.spawn(|| -> Result<Vec<(usize, T)>, String> {
                    let mut ctx = make()?;
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            return Ok(mine);
                        }
                        mine.push((i, f(&mut ctx, i)));
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "replay thread panicked".to_string())??,
            );
        }
        Ok::<_, String>(all)
    })?;
    out.sort_by_key(|(i, _)| *i);
    Ok(out.into_iter().map(|(_, t)| t).collect())
}

/// A frame echo over a pipe pair or a loopback TCP connection: a thread
/// on the far side reads each frame and writes it back.
pub struct Echo {
    w: Option<Box<dyn Write + Send>>,
    r: Box<dyn Read + Send>,
    tcp: Option<TcpStream>,
    thread: Option<JoinHandle<()>>,
}

fn echo_loop(mut r: impl Read, mut w: impl Write) {
    while let Ok(Some(frame)) = read_frame(&mut r, "echo") {
        if write_frame(&mut w, &frame, "echo").is_err() {
            return;
        }
    }
}

impl Echo {
    pub fn pipe() -> Result<Echo, String> {
        let (r1, w1) = std::io::pipe().map_err(|e| e.to_string())?;
        let (r2, w2) = std::io::pipe().map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || echo_loop(r1, w2));
        Ok(Echo {
            w: Some(Box::new(w1)),
            r: Box::new(r2),
            tcp: None,
            thread: Some(thread),
        })
    }

    pub fn tcp() -> Result<Echo, String> {
        let e = |e: std::io::Error| e.to_string();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(e)?;
        let client = TcpStream::connect(listener.local_addr().map_err(e)?).map_err(e)?;
        let (server, _) = listener.accept().map_err(e)?;
        client.set_nodelay(true).map_err(e)?;
        server.set_nodelay(true).map_err(e)?;
        let server_r = server.try_clone().map_err(e)?;
        let thread = std::thread::spawn(move || echo_loop(server_r, server));
        Ok(Echo {
            w: Some(Box::new(client.try_clone().map_err(e)?)),
            r: Box::new(client.try_clone().map_err(e)?),
            tcp: Some(client),
            thread: Some(thread),
        })
    }

    pub fn round_trip(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        let w = self.w.as_mut().ok_or("echo closed")?;
        write_frame(w, payload, "bench").map_err(|e| e.to_string())?;
        read_frame(&mut self.r, "bench")
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "echo closed early".to_string())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        self.w.take();
        if let Some(s) = &self.tcp {
            let _ = s.shutdown(Shutdown::Write);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Wire {
    None,
    Pipe,
    Tcp,
}

/// The traced replay of one cold grid pass: every point goes through
/// digest → store get → scenario new/run/report (audited) → [codec encode
/// → frame round trip → codec decode] → store put → journal append, then
/// journal finalize and table rendering. `wire` picks the frame hop that
/// the process pool (pipe) or the daemon (TCP) puts between compute and
/// store.
fn replay_cold(
    g: &Grid,
    jobs: usize,
    dir: &Path,
    wire: Wire,
    tr: &Tracer,
    counts: &mut Counts,
) -> Result<PassOut, String> {
    let store_dir = dir.join("replay-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ResultStore::open(&store_dir).map_err(|e| e.to_string())?;
    let journal_path = dir.join("replay-journal.jsonl");
    let sweep_digest = g.supervisor(jobs).digest();
    let journal = RunJournal::create(&journal_path, &sweep_digest).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let results = tr.span("pass", 0, None, |root| {
        fan_out(
            jobs,
            g.points.len(),
            || match wire {
                Wire::None => Ok(None),
                Wire::Pipe => Echo::pipe().map(Some),
                Wire::Tcp => Echo::tcp().map(Some),
            },
            |echo, i| {
                let (p, n) = g.points[i];
                tr.span("point", root, Some(i), |pt| -> Result<_, String> {
                    let mut cfg = point_cfg(&g.base, p, n);
                    cfg.audit = true;
                    let t0 = Instant::now();
                    let digest = tr.span("store.digest", pt, Some(i), |_| point_digest(&cfg));
                    if tr
                        .span("store.get", pt, Some(i), |_| store.get(&digest))
                        .is_some()
                    {
                        return Err(format!("point {i} hit a store emptied before the pass"));
                    }
                    let mut scenario =
                        tr.span("scenario.new", pt, Some(i), |_| Scenario::new(&cfg));
                    tr.span("scenario.run", pt, Some(i), |_| {
                        scenario.run_to_completion()
                    });
                    let mut report =
                        tr.span("scenario.report", pt, Some(i), |_| scenario.into_report());
                    let audit_ok = report.audit.as_ref().is_some_and(|a| a.passed());
                    let sim = report.clone();
                    if let Some(echo) = echo.as_mut() {
                        let payload = tr
                            .span("codec.encode", pt, Some(i), |_| codec::encode(&report))
                            .ok_or("report refused by the codec")?;
                        let name = if wire == Wire::Pipe {
                            "frame.pipe"
                        } else {
                            "frame.tcp"
                        };
                        let back =
                            tr.span(name, pt, Some(i), |_| echo.round_trip(payload.as_bytes()))?;
                        let text = String::from_utf8(back).map_err(|e| e.to_string())?;
                        report = tr
                            .span("codec.decode", pt, Some(i), |_| codec::decode(&text))
                            .ok_or("frame payload failed to decode")?;
                    }
                    tr.span("store.put", pt, Some(i), |_| store.put(&digest, &report))
                        .map_err(|e| e.to_string())?;
                    let entry = g.journal_entry(i, &cfg, &report);
                    tr.span("journal.append", pt, Some(i), |_| journal.append(&entry))
                        .map_err(|e| e.to_string())?;
                    Ok((report, sim, audit_ok, t0.elapsed().as_secs_f64(), entry))
                })
            },
        )
    })?;
    let mut cells = Vec::new();
    let mut entries = Vec::new();
    let mut failed = 0;
    let mut busy = 0.0;
    for (i, res) in results.into_iter().enumerate() {
        let (report, sim, audit_ok, secs, entry) = res?;
        counts.add_report(&sim);
        if let Some(payload) = codec::encode(&report) {
            counts.codec_bytes.push(payload.len());
        }
        busy += secs;
        if !audit_ok {
            failed += 1;
        }
        let (p, n) = g.points[i];
        cells.push(SweepCell {
            protocol: p,
            clients: n,
            report,
        });
        entries.push(entry);
    }
    tr.span("journal.finalize", 0, None, |_| journal.finalize(&entries))
        .map_err(|e| e.to_string())?;
    let sweep = Sweep::from_cells(cells, g.protocols.clone(), g.clients.clone());
    let rendered = tr.span("experiments.render", 0, None, |_| tables(&sweep));
    let stats = store.stats();
    counts.store_hits += stats.hits;
    counts.store_lookups += stats.hits + stats.misses;
    counts
        .busy
        .push((busy, jobs, started.elapsed().as_secs_f64()));
    failed = failed.max(g.check_tables(&rendered));
    Ok(PassOut {
        points: g.points.len(),
        failed,
    })
}

// ---------------------------------------------------------------------------
// run-mix
// ---------------------------------------------------------------------------

pub struct RunMix {
    entries: Vec<(String, ScenarioConfig)>,
    reference: Vec<String>,
}

/// The Fig. 2 heavy-congestion column (64 clients under each of the six
/// simulated paper protocols) plus Reno on a parking lot and a Waxman graph.
pub fn run_mix_entries(ctx: &Ctx) -> Result<Vec<(String, ScenarioConfig)>, String> {
    let secs = ctx.sizes.run_mix_secs;
    let seed = ctx.seed_k(0);
    let mut out = Vec::new();
    for p in Protocol::PAPER_SET {
        let cfg = ScenarioBuilder::paper()
            .topology(|t| t.clients(64))
            .transport(|t| t.protocol(p))
            .instrumentation(|i| i.secs(secs).seed(seed))
            .try_finish()
            .map_err(|e| e.to_string())?;
        out.push((format!("{}-64", p.cli_name()), cfg));
    }
    for (name, spec) in [
        ("reno-parking-lot", "parking-lot:5,4"),
        ("reno-waxman", "waxman:16,0.6,0.4"),
    ] {
        let shape: TopoKind = spec.parse().map_err(|e| format!("{spec}: {e}"))?;
        let cfg = ScenarioBuilder::paper()
            .topology(|t| t.shape(shape))
            .transport(|t| t.protocol(Protocol::Reno))
            .instrumentation(|i| i.secs(secs).seed(seed))
            .try_finish()
            .map_err(|e| e.to_string())?;
        out.push((name.to_string(), cfg));
    }
    Ok(out)
}

fn run_entries(entries: &[(String, ScenarioConfig)]) -> Vec<ScenarioReport> {
    entries
        .iter()
        .map(|(_, cfg)| {
            let mut s = Scenario::new(cfg);
            s.run_to_completion();
            s.into_report()
        })
        .collect()
}

/// Runs the run-mix scenarios with spans; shared by the run-mix traced
/// pass and the events/s probe of the other workloads.
pub fn traced_entries(
    entries: &[(String, ScenarioConfig)],
    tr: &Tracer,
    counts: &mut Counts,
) -> Vec<ScenarioReport> {
    let mut reports = Vec::new();
    tr.span("pass", 0, None, |root| {
        for (i, (name, cfg)) in entries.iter().enumerate() {
            let mut cfg = *cfg;
            cfg.audit = true;
            let report = tr.span("point", root, Some(i), |pt| {
                let mut s = tr.span("scenario.new", pt, Some(i), |_| Scenario::new(&cfg));
                let t = Instant::now();
                tr.span("scenario.run", pt, Some(i), |_| s.run_to_completion());
                let run_s = t.elapsed().as_secs_f64();
                let r = tr.span("scenario.report", pt, Some(i), |_| s.into_report());
                counts
                    .events_per_s
                    .entry(name.clone())
                    .or_default()
                    .push(r.events_processed as f64 / run_s);
                r
            });
            reports.push(report);
        }
    });
    reports
}

impl RunMix {
    pub fn reference(ctx: &Ctx) -> Result<Vec<String>, String> {
        Ok(run_entries(&run_mix_entries(ctx)?)
            .iter()
            .map(canon)
            .collect())
    }

    pub fn setup(ctx: &Ctx, reference: &[String]) -> Result<RunMix, String> {
        Ok(RunMix {
            entries: run_mix_entries(ctx)?,
            reference: reference.to_vec(),
        })
    }

    fn failures(&self, reports: &[ScenarioReport]) -> usize {
        reports
            .iter()
            .zip(&self.reference)
            .filter(|(r, want)| canon(r) != **want)
            .count()
    }
}

impl Workload for RunMix {
    fn pass(&mut self) -> Result<PassOut, String> {
        let reports = run_entries(&self.entries);
        Ok(PassOut {
            points: self.entries.len(),
            failed: self.failures(&reports),
        })
    }

    fn traced_pass(&mut self, tr: &Tracer, counts: &mut Counts) -> Result<PassOut, String> {
        let started = Instant::now();
        let reports = traced_entries(&self.entries, tr, counts);
        let busy: f64 = tr.durations("point").iter().rev().take(reports.len()).sum();
        counts.busy.push((busy, 1, started.elapsed().as_secs_f64()));
        let mut failed = self.failures(&reports);
        for r in &reports {
            counts.add_report(r);
            if !r.audit.as_ref().is_some_and(|a| a.passed()) {
                failed += 1;
            }
        }
        Ok(PassOut {
            points: reports.len(),
            failed: failed.min(reports.len()),
        })
    }
}

// ---------------------------------------------------------------------------
// sweep-cold
// ---------------------------------------------------------------------------

pub struct SweepCold {
    grid: Arc<Grid>,
    jobs: usize,
    dir: TempDir,
    store: Option<Arc<ResultStore>>,
    observed: Observed,
}

impl SweepCold {
    /// Opens the store in `dir`, whose empty `store` directory the caller
    /// made outside the timing.
    pub fn setup(ctx: &Ctx, grid: &Arc<Grid>, dir: TempDir) -> Result<SweepCold, String> {
        let store = open_store(&dir)?;
        Ok(SweepCold {
            grid: Arc::clone(grid),
            jobs: ctx.jobs,
            dir,
            store: Some(store),
            observed: Observed::default(),
        })
    }
}

impl Workload for SweepCold {
    fn prepare_pass(&mut self) -> Result<(), String> {
        self.store = Some(empty_store(&self.dir)?);
        Ok(())
    }

    fn pass(&mut self) -> Result<PassOut, String> {
        let store = Arc::clone(self.store.as_ref().ok_or("store not open")?);
        let s = self
            .grid
            .supervisor(self.jobs)
            .store(store)
            .run_with_journal(&self.dir.path().join("journal.jsonl"))
            .map_err(|e| e.to_string())?;
        self.observed.retries += (s.failures.len() + s.skipped.len()) as u64;
        Ok(PassOut {
            points: self.grid.points.len(),
            failed: self.grid.check(&s),
        })
    }

    fn traced_pass(&mut self, tr: &Tracer, counts: &mut Counts) -> Result<PassOut, String> {
        replay_cold(
            &self.grid,
            self.jobs,
            self.dir.path(),
            Wire::None,
            tr,
            counts,
        )
    }

    fn observed(&self) -> Observed {
        self.observed.clone()
    }
}

// ---------------------------------------------------------------------------
// sweep-warm
// ---------------------------------------------------------------------------

pub struct SweepWarm {
    grids: Vec<Arc<Grid>>,
    jobs: usize,
    store: Arc<ResultStore>,
    _dir: TempDir,
    observed: Observed,
}

impl SweepWarm {
    pub fn grids(ctx: &Ctx) -> Result<Vec<Arc<Grid>>, String> {
        (0..ctx.sizes.warm_seeds)
            .map(|k| {
                Grid::new(
                    ctx.sizes.warm_secs,
                    ctx.seed_k(100 + k),
                    &Protocol::PAPER_SET,
                    &ctx.sizes.cold_clients,
                )
                .map(Arc::new)
            })
            .collect()
    }

    /// Opens a fresh store and fills it with every reference report.
    pub fn setup(ctx: &Ctx, grids: &[Arc<Grid>], dir: TempDir) -> Result<SweepWarm, String> {
        let store = open_store(&dir)?;
        for g in grids {
            for (i, &(p, n)) in g.points.iter().enumerate() {
                store
                    .put(&point_digest(&point_cfg(&g.base, p, n)), &g.reports[i])
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(SweepWarm {
            grids: grids.to_vec(),
            jobs: ctx.jobs,
            store,
            _dir: dir,
            observed: Observed::default(),
        })
    }
}

impl Workload for SweepWarm {
    fn pass(&mut self) -> Result<PassOut, String> {
        let mut out = PassOut::default();
        for g in &self.grids {
            let s = g.supervisor(self.jobs).store(Arc::clone(&self.store)).run();
            self.observed.retries += (s.failures.len() + s.skipped.len()) as u64;
            out.points += g.points.len();
            // A miss means the pass simulated instead of reading.
            out.failed += g
                .check(&s)
                .max(g.points.len() - s.cache_hits.min(g.points.len()));
        }
        Ok(out)
    }

    fn traced_pass(&mut self, tr: &Tracer, counts: &mut Counts) -> Result<PassOut, String> {
        let started = Instant::now();
        let before = self.store.stats();
        let mut out = PassOut::default();
        let mut busy = 0.0;
        for g in &self.grids {
            let reports = tr.span("pass", 0, None, |root| {
                fan_out(
                    self.jobs,
                    g.points.len(),
                    || Ok(()),
                    |_, i| {
                        let (p, n) = g.points[i];
                        let t0 = Instant::now();
                        let r = tr.span("point", root, Some(i), |pt| {
                            let cfg = point_cfg(&g.base, p, n);
                            let digest =
                                tr.span("store.digest", pt, Some(i), |_| point_digest(&cfg));
                            tr.span("store.get", pt, Some(i), |_| self.store.get(&digest))
                        });
                        (r, t0.elapsed().as_secs_f64())
                    },
                )
            })?;
            let mut cells = Vec::new();
            for (i, (r, secs)) in reports.into_iter().enumerate() {
                busy += secs;
                let (p, n) = g.points[i];
                match r {
                    Some(report) => cells.push(SweepCell {
                        protocol: p,
                        clients: n,
                        report,
                    }),
                    None => out.failed += 1,
                }
            }
            let sweep = Sweep::from_cells(cells, g.protocols.clone(), g.clients.clone());
            let rendered = tr.span("experiments.render", 0, None, |_| tables(&sweep));
            out.failed += g.check_tables(&rendered);
            out.points += g.points.len();
        }
        let after = self.store.stats();
        counts.store_hits += after.hits - before.hits;
        counts.store_lookups += (after.hits + after.misses) - (before.hits + before.misses);
        counts
            .busy
            .push((busy, self.jobs, started.elapsed().as_secs_f64()));
        out.failed = out.failed.min(out.points);
        Ok(out)
    }

    fn observed(&self) -> Observed {
        self.observed.clone()
    }
}

// ---------------------------------------------------------------------------
// sweep-workers
// ---------------------------------------------------------------------------

/// Every protocol the CLI accepts, paper set first.
const ALL_PROTOCOLS: &str =
    "udp,reno,reno-red,vegas,vegas-red,reno-delayack,tahoe,newreno,sack,gaimd,cubic,hstcp,bbr";

/// The short-point grid shared by `sweep-workers` and `sweep-serve`: one
/// simulated second per point, every protocol, small client counts.
pub fn short_grid(ctx: &Ctx) -> Result<Grid, String> {
    let protocols: Vec<Protocol> = ALL_PROTOCOLS
        .split(',')
        .map(|p| p.parse().map_err(|e| format!("{p}: {e}")))
        .collect::<Result<_, String>>()?;
    Grid::new(1, ctx.seed_k(200), &protocols, &ctx.sizes.short_clients)
}

pub struct SweepWorkers {
    grid: Arc<Grid>,
    jobs: usize,
    dir: TempDir,
    command: WorkerCommand,
    store: Option<Arc<ResultStore>>,
    observed: Observed,
}

/// Spawns one `tcpburst worker` and waits for its `ready` handshake;
/// returns the spawn-to-ready time in milliseconds.
fn spawn_ready(command: &WorkerCommand) -> Result<f64, String> {
    let t = Instant::now();
    let mut child = ChildGuard(
        Command::new(&command.program)
            .args(&command.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", command.program.display()))?,
    );
    let stdin = child.0.stdin.take().ok_or("worker stdin")?;
    let stdout = child.0.stdout.take().ok_or("worker stdout")?;
    let mut transport = PipeTransport::new(BufReader::new(stdout), stdin, "worker");
    let hello = transport
        .recv_text()
        .map_err(|e| e.to_string())?
        .ok_or("worker exited before its handshake")?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !hello.starts_with("ready ") {
        return Err(format!("unexpected worker handshake {hello:?}"));
    }
    drop(transport);
    child.wait().map_err(|e| e.to_string())?;
    Ok(ms)
}

impl SweepWorkers {
    pub fn setup(ctx: &Ctx, grid: &Arc<Grid>, dir: TempDir) -> Result<SweepWorkers, String> {
        let store = open_store(&dir)?;
        let mut args = vec!["worker".to_string()];
        args.extend(grid.flags.iter().cloned());
        let command = WorkerCommand {
            program: ctx.tcpburst.clone(),
            args,
        };
        let mut observed = Observed::default();
        for _ in 0..ctx.jobs {
            observed.spawn_ms.push(spawn_ready(&command)?);
        }
        Ok(SweepWorkers {
            grid: Arc::clone(grid),
            jobs: ctx.jobs,
            dir,
            command,
            store: Some(store),
            observed,
        })
    }
}

impl Workload for SweepWorkers {
    fn prepare_pass(&mut self) -> Result<(), String> {
        self.store = Some(empty_store(&self.dir)?);
        Ok(())
    }

    fn pass(&mut self) -> Result<PassOut, String> {
        let store = Arc::clone(self.store.as_ref().ok_or("store not open")?);
        let s = self
            .grid
            .supervisor(self.jobs)
            .workers(self.jobs)
            .worker_command(self.command.clone())
            .store(store)
            .run_with_journal(&self.dir.path().join("journal.jsonl"))
            .map_err(|e| e.to_string())?;
        self.observed.robustness.merge(&s.robustness);
        self.observed.retries += (s.failures.len() + s.skipped.len()) as u64;
        Ok(PassOut {
            points: self.grid.points.len(),
            failed: self.grid.check(&s),
        })
    }

    fn traced_pass(&mut self, tr: &Tracer, counts: &mut Counts) -> Result<PassOut, String> {
        replay_cold(
            &self.grid,
            self.jobs,
            self.dir.path(),
            Wire::Pipe,
            tr,
            counts,
        )
    }

    fn observed(&self) -> Observed {
        self.observed.clone()
    }
}

// ---------------------------------------------------------------------------
// sweep-serve
// ---------------------------------------------------------------------------

const TOKEN: &str = "perfbench-token";

/// The `serve` child and the thread draining its stderr; dropping kills
/// and reaps the child, then joins the thread.
struct Daemon {
    child: Option<ChildGuard>,
    drain: Option<JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.take();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

pub struct SweepServe {
    grid: Arc<Grid>,
    jobs: usize,
    tcpburst: PathBuf,
    dir: TempDir,
    addr: String,
    port: u16,
    workers: Vec<ChildGuard>,
    // Declared after the workers so they drop (are killed) first.
    _daemon: Daemon,
    observed: Observed,
}

impl SweepServe {
    /// Starts `tcpburst serve` on an OS-assigned loopback port and
    /// registers the first set of workers.
    pub fn setup(ctx: &Ctx, grid: &Arc<Grid>, dir: TempDir) -> Result<SweepServe, String> {
        let mut daemon = ChildGuard(
            Command::new(&ctx.tcpburst)
                .args(["serve", "--listen", "127.0.0.1:0", "--token", TOKEN])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawning serve: {e}"))?,
        );
        // The daemon's stderr stays drained for its whole life, so a late
        // diagnostic never meets a closed pipe.
        let stderr = daemon.0.stderr.take().ok_or("serve stderr")?;
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line.clone()).is_err() {
                    eprintln!("serve: {line}");
                }
            }
        });
        let daemon = Daemon {
            child: Some(daemon),
            drain: Some(drain),
        };
        let line = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "serve did not report its address within 10 s".to_string())?;
        drop(rx);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("serve did not report its address: {line:?}"))?
            .to_string();
        let port = addr
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("bad daemon address {addr}"))?;
        let mut w = SweepServe {
            grid: Arc::clone(grid),
            jobs: ctx.jobs,
            tcpburst: ctx.tcpburst.clone(),
            dir,
            addr,
            port,
            workers: Vec::new(),
            _daemon: daemon,
            observed: Observed::default(),
        };
        w.arm_workers()?;
        Ok(w)
    }

    /// Spawns workers until `jobs` are connected to the daemon. Workers
    /// leave after each job, so every pass needs a fresh set.
    fn arm_workers(&mut self) -> Result<(), String> {
        while self.workers.len() < self.jobs {
            let t = Instant::now();
            let child = ChildGuard(
                Command::new(&self.tcpburst)
                    .args(["worker", "--connect", &self.addr, "--token", TOKEN])
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawning worker: {e}"))?,
            );
            while !connected_to(child.pid(), self.port) {
                if t.elapsed() > Duration::from_secs(10) {
                    return Err("worker did not connect to the daemon within 10 s".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            self.observed
                .register_ms
                .push(t.elapsed().as_secs_f64() * 1e3);
            self.workers.push(child);
        }
        Ok(())
    }

    fn argv(&self) -> Vec<String> {
        let clients: Vec<String> = self.grid.clients.iter().map(usize::to_string).collect();
        let mut argv = vec![
            "sweep".to_string(),
            "--clients".to_string(),
            clients.join(","),
            "--protocols".to_string(),
            ALL_PROTOCOLS.to_string(),
        ];
        argv.extend(self.grid.flags.iter().cloned());
        for (flag, value) in [
            ("--cache", self.dir.path().join("store")),
            ("--journal", self.dir.path().join("journal.jsonl")),
        ] {
            argv.push(flag.to_string());
            argv.push(value.to_string_lossy().into_owned());
        }
        argv.push("--jobs".to_string());
        argv.push(self.jobs.to_string());
        argv
    }
}

/// Parses the `robustness: k=v ...` line `tcpburst sweep` prints to stderr
/// when any robustness counter is non-zero.
fn parse_robustness(err: &str) -> RobustnessCounters {
    let mut c = RobustnessCounters::default();
    for line in err.lines().filter_map(|l| l.strip_prefix("robustness: ")) {
        for kv in line.split_whitespace() {
            let Some((k, v)) = kv.split_once('=') else {
                continue;
            };
            let v: u64 = v.parse().unwrap_or(0);
            match k {
                "requeued_points" => c.requeued_points += v,
                "worker_restarts" => c.worker_restarts += v,
                "heartbeat_misses" => c.heartbeat_misses += v,
                "backoff_retries" => c.backoff_retries += v,
                _ => {}
            }
        }
    }
    c
}

impl Workload for SweepServe {
    fn prepare_pass(&mut self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(self.dir.path().join("store"));
        self.arm_workers()
    }

    fn pass(&mut self) -> Result<PassOut, String> {
        let mut out = Vec::new();
        let mut err = Vec::new();
        let ok = submit_job(&self.addr, TOKEN, &self.argv(), &mut out, &mut err)?;
        // Workers leave once the job drains; reaping them is part of the pass.
        let deadline = Instant::now() + Duration::from_secs(10);
        for mut w in self.workers.drain(..) {
            while w.0.try_wait().map_err(|e| e.to_string())?.is_none() {
                if Instant::now() > deadline {
                    return Err("a worker did not leave after its job".into());
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let err = String::from_utf8_lossy(&err);
        self.observed.robustness.merge(&parse_robustness(&err));
        let failed = if ok {
            self.grid.check_tables(&String::from_utf8_lossy(&out))
        } else {
            eprintln!("sweep-serve: job failed: {err}");
            self.grid.points.len()
        };
        Ok(PassOut {
            points: self.grid.points.len(),
            failed,
        })
    }

    fn traced_pass(&mut self, tr: &Tracer, counts: &mut Counts) -> Result<PassOut, String> {
        replay_cold(
            &self.grid,
            self.jobs,
            self.dir.path(),
            Wire::Tcp,
            tr,
            counts,
        )
    }

    fn observed(&self) -> Observed {
        self.observed.clone()
    }
}
