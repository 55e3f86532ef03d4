//! `perfbench`: the tcpburst benchmark runner. See README.md in this
//! directory for the workloads, the metrics and how to run it; `run.py`
//! builds this binary and the `tcpburst` CLI and then runs it.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --tcpburst PATH --root DIR [--smoke] [--stamp-* TEXT]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod calib;
mod probes;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use tcpburst_core::{CHAOS_ENV, CHAOS_ID_ENV};
use tcpburst_transport::VARIANT_REGISTRY;

use probes::median;
use sys::{system_cpu_s, RssSampler, TempDir};
use trace::Tracer;
use workloads::{
    run_mix_entries, short_grid, traced_entries, Counts, Ctx, Grid, Observed, PassOut, RunMix,
    Sizes, SweepCold, SweepServe, SweepWarm, SweepWorkers, Workload, NAMES,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    tcpburst: PathBuf,
    root: PathBuf,
    stamp: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        tcpburst: PathBuf::new(),
        root: PathBuf::from("."),
        stamp: Vec::new(),
    };
    let (mut have_seed, mut have_secs) = (false, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => {
                a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?;
                have_seed = true;
            }
            "--seconds" => {
                a.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                have_secs = a.seconds > 0.0;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--tcpburst" => a.tcpburst = PathBuf::from(value),
            "--root" => a.root = PathBuf::from(value),
            other => match other.strip_prefix("--stamp-") {
                Some(key) => a.stamp.push((key.to_string(), value)),
                None => return Err(format!("unknown flag {other}")),
            },
        }
    }
    if !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    if !have_seed || !have_secs {
        return Err("--seed and a positive --seconds are required".into());
    }
    if !a.tcpburst.is_file() {
        return Err(format!("--tcpburst {} is not a file", a.tcpburst.display()));
    }
    Ok(a)
}

/// Timings of a run of passes, with the calibration run before each.
#[derive(Default)]
struct Passes {
    pass_s: Vec<f64>,
    cpu_s: Vec<f64>,
    calib_s: Vec<f64>,
    attempted: usize,
    failed: usize,
}

impl Passes {
    fn add(&mut self, out: PassOut, secs: f64, cpu: f64, calib: f64) {
        self.pass_s.push(secs);
        self.cpu_s.push(cpu);
        self.calib_s.push(calib);
        self.attempted += out.points;
        self.failed += out.failed;
    }
}

/// Closed loop: the next pass starts when the previous one returns, until
/// `budget_s` has passed and at least `min` passes are done.
fn run_passes(
    w: &mut dyn Workload,
    budget_s: f64,
    min: usize,
    threads: usize,
    mut traced: Option<(&Tracer, &mut Counts)>,
) -> Result<Passes, String> {
    let mut p = Passes::default();
    let started = Instant::now();
    while p.pass_s.len() < min || started.elapsed().as_secs_f64() < budget_s {
        // Calibrate before the untimed preparation, whose file deletions
        // leave kernel work behind that would slow the calibration loop.
        let calib = calib::calibrate(threads)?;
        w.prepare_pass()?;
        let cpu0 = system_cpu_s();
        let t0 = Instant::now();
        let out = match traced.as_mut() {
            Some((tr, counts)) => {
                counts.traced_passes += 1;
                w.traced_pass(tr, counts)?
            }
            None => w.pass()?,
        };
        let secs = t0.elapsed().as_secs_f64();
        p.add(out, secs, system_cpu_s() - cpu0, calib);
    }
    Ok(p)
}

/// What the workload's reference needs, computed before any timing.
enum Reference {
    RunMix(Vec<String>),
    Grid(Arc<Grid>),
    Grids(Vec<Arc<Grid>>),
}

fn reference(ctx: &Ctx) -> Result<Reference, String> {
    Ok(match ctx.workload.as_str() {
        "run-mix" => Reference::RunMix(RunMix::reference(ctx)?),
        "sweep-cold" => Reference::Grid(Arc::new(Grid::new(
            ctx.sizes.cold_secs,
            ctx.seed_k(1),
            &tcpburst_core::Protocol::PAPER_SET,
            &ctx.sizes.cold_clients,
        )?)),
        "sweep-warm" => Reference::Grids(SweepWarm::grids(ctx)?),
        _ => Reference::Grid(Arc::new(short_grid(ctx)?)),
    })
}

/// A scratch directory with an empty `store` directory in it: the
/// benchmark's own scaffolding, made outside the set-up timing.
fn scratch(ctx: &Ctx) -> Result<TempDir, String> {
    let dir = TempDir::new(&ctx.tmp, &ctx.workload).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir.path().join("store")).map_err(|e| e.to_string())?;
    Ok(dir)
}

/// Sets the workload up. Every workload but `run-mix` gets `dir`, a
/// scratch directory made by [`scratch`] before the timer started.
fn setup(ctx: &Ctx, r: &Reference, dir: Option<TempDir>) -> Result<Box<dyn Workload>, String> {
    let dir = || dir.ok_or_else(|| "no scratch directory".to_string());
    Ok(match (ctx.workload.as_str(), r) {
        ("run-mix", Reference::RunMix(want)) => Box::new(RunMix::setup(ctx, want)?),
        ("sweep-cold", Reference::Grid(g)) => Box::new(SweepCold::setup(ctx, g, dir()?)?),
        ("sweep-warm", Reference::Grids(gs)) => Box::new(SweepWarm::setup(ctx, gs, dir()?)?),
        ("sweep-workers", Reference::Grid(g)) => Box::new(SweepWorkers::setup(ctx, g, dir()?)?),
        ("sweep-serve", Reference::Grid(g)) => Box::new(SweepServe::setup(ctx, g, dir()?)?),
        _ => unreachable!("reference kind matches the workload"),
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, threads] = argv.as_slice() {
        if flag == "--calibrate" {
            let threads = threads.parse().unwrap_or(1);
            println!("{}", calib::run_loops(threads));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and prints the result; `Ok(false)` when any point
/// failed its check.
fn run(args: &Args) -> Result<bool, String> {
    // Hermetic: no inherited cache location or fault-injection hooks
    // reach this process or the workers it spawns.
    for var in [
        CHAOS_ENV,
        CHAOS_ID_ENV,
        tcpburst_core::workers::CRASH_AT_ENV,
        "TCPBURST_CACHE",
    ] {
        std::env::remove_var(var);
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tmp = TempDir::new(&args.root.join(".bench_tmp"), &args.workload)
        .map_err(|e| format!("{}: {e}", args.root.display()))?;
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        jobs,
        tcpburst: args.tcpburst.clone(),
        tmp: tmp.path().to_path_buf(),
        sizes: Sizes::new(args.smoke),
    };
    let t_ref = Instant::now();
    let reference = reference(&ctx)?;
    let ref_s = t_ref.elapsed().as_secs_f64();

    let (min_setups, min_passes) = if args.smoke { (1, 1) } else { (5, 3) };
    let threads = ctx.calib_threads();
    let calib_before = calib::calibrate(threads)?;
    // Earlier set-ups are torn down in batches, outside the timing, so one
    // set-up never pays for deleting the previous one's files.
    let mut setup_s = Vec::new();
    let mut live: Vec<Box<dyn Workload>> = Vec::new();
    while setup_s.len() < min_setups || (setup_s.iter().sum::<f64>() < 0.5 && setup_s.len() < 200) {
        if live.len() == 4 {
            live.clear();
        }
        let dir = match ctx.workload.as_str() {
            "run-mix" => None,
            _ => Some(scratch(&ctx)?),
        };
        let t = Instant::now();
        live.push(setup(&ctx, &reference, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = live.pop().expect("at least one set-up ran");
    drop(live);

    // Started after the set-ups, whose overlapping copies are not part of
    // the system a pass runs.
    let sampler = RssSampler::start();

    // One untimed, checked pass first, so lazy first-touch costs (page
    // cache, file-system metadata) land outside the timed passes.
    let warmup = run_passes(w.as_mut(), 0.0, 1, threads, None)?;
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = run_passes(w.as_mut(), untraced_budget, min_passes, threads, None)?;
    let mut attempted = warmup.attempted + untraced.attempted;
    let mut failed = warmup.failed + untraced.failed;
    let points_per_pass = untraced.attempted / untraced.pass_s.len().max(1);

    let mut metrics = Metrics(Vec::new());
    if args.trace {
        let (m, a, f) = traced_metrics(&ctx, args, w.as_mut(), &untraced, min_passes)?;
        metrics = m;
        attempted += a;
        failed += f;
    }
    drop(w);
    let peak_rss_mb = sampler.finish();
    if args.trace {
        metrics.put("points.attempted", attempted as f64, "count");
        metrics.put("points.failed", failed as f64, "count");
        metrics.put(
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
    } else {
        // One host-speed factor per run, from the median calibration.
        let mut calibs = untraced.calib_s.clone();
        calibs.push(calib_before);
        let speed = calib::REFERENCE_S / median(&calibs);
        metrics.put("setup_s", median(&setup_s) * speed, "s");
        metrics.put("pass_s", median(&untraced.pass_s) * speed, "s");
        // Mean, not median: one reading resolves only 10 ms of CPU, and
        // the rounding error averages out over the passes.
        let cpu_mean = untraced.cpu_s.iter().sum::<f64>() / untraced.cpu_s.len() as f64;
        metrics.put("cpu_s", cpu_mean * speed, "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
        metrics.put(
            "ok_ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }

    let sim_s_per_pass = match &reference {
        Reference::RunMix(want) => (ctx.sizes.run_mix_secs as usize * want.len()) as f64,
        Reference::Grid(g) => g.base.duration.as_nanos() as f64 / 1e9 * g.points.len() as f64,
        Reference::Grids(gs) => gs
            .iter()
            .map(|g| g.base.duration.as_nanos() as f64 / 1e9 * g.points.len() as f64)
            .sum(),
    };
    eprintln!(
        "perfbench: pass_s {:?}",
        untraced
            .pass_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let mut sorted = untraced.pass_s.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mut stamp = format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"host_cores\": {jobs}, \"cpu_model\": {}, \
         \"points_per_pass\": {points_per_pass}, \"sim_s_per_pass\": {sim_s_per_pass}, \
         \"passes\": {}, \"pass_s_q1\": {}, \"pass_s_q3\": {}, \"pass_s_p90\": {}, \
         \"setups\": {}, \"reference_s\": {ref_s}, \"raw_setup_s\": {}, \"raw_pass_s\": {}, \
         \"raw_cpu_s\": {}, \"calib_s\": {}, \"calib_threads\": {threads}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"smoke\": {}",
        json_str(&args.workload),
        args.seed,
        json_str(&cpu_model()),
        sorted.len(),
        sorted[sorted.len() / 4],
        sorted[sorted.len() * 3 / 4],
        sorted[(sorted.len() * 9 / 10).min(sorted.len() - 1)],
        setup_s.len(),
        median(&setup_s),
        median(&untraced.pass_s),
        untraced.cpu_s.iter().sum::<f64>() / untraced.cpu_s.len() as f64,
        median(&untraced.calib_s),
        args.smoke,
    );
    for (k, v) in &args.stamp {
        let _ = write!(stamp, ", {}: {}", json_str(k), json_str(v));
    }
    stamp.push_str("}}");
    println!("{stamp}");
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()?
    );
    if !correct {
        eprintln!("perfbench: {failed} of {attempted} points failed their check");
    }
    Ok(correct)
}

/// The traced run: traced passes with spans, then the layer probes, then
/// every per-layer metric. Returns the metrics and the points attempted
/// and failed along the way.
fn traced_metrics(
    ctx: &Ctx,
    args: &Args,
    w: &mut dyn Workload,
    untraced: &Passes,
    min_passes: usize,
) -> Result<(Metrics, usize, usize), String> {
    let tr = Tracer::new();
    let mut counts = Counts::default();
    let threads = ctx.calib_threads();
    let traced = run_passes(
        w,
        args.seconds / 2.0,
        min_passes,
        threads,
        Some((&tr, &mut counts)),
    )?;
    let mut attempted = traced.attempted;
    let mut failed = traced.failed;
    let per_pass = |v: u64| v as f64 / counts.traced_passes.max(1) as f64;

    // Probes, for the layers this workload's passes do not reach.
    let probe = Tracer::new();
    let mut pc = Counts::default();
    let entries = run_mix_entries(ctx)?;
    if counts.events_per_s.is_empty() {
        traced_entries(&entries, &probe, &mut pc);
    }
    let short = Arc::new(short_grid(ctx)?);
    probes::layer_io(&probe, &short, &ctx.tmp)?;
    let mut mini = |name: &str| -> Result<(f64, Observed), String> {
        if ctx.workload == name {
            return Ok((median(&untraced.pass_s), w.observed()));
        }
        let dir = scratch(ctx)?;
        let mut m: Box<dyn Workload> = if name == "sweep-workers" {
            Box::new(SweepWorkers::setup(ctx, &short, dir)?)
        } else {
            Box::new(SweepServe::setup(ctx, &short, dir)?)
        };
        let p = run_passes(m.as_mut(), 0.0, 3, ctx.jobs, None)?;
        attempted += p.attempted;
        failed += p.failed;
        Ok((median(&p.pass_s), m.observed()))
    };
    let (pool_s, pool) = mini("sweep-workers")?;
    let (serve_s, serve) = mini("sweep-serve")?;
    let observed = w.observed();

    let span_median = |name: &str, scale: f64| {
        let mine = tr.durations(name);
        let v = if mine.is_empty() {
            probe.durations(name)
        } else {
            mine
        };
        median(&v) * scale
    };
    let sim_total: f64 = short.sim_s.iter().sum();
    let overhead_ms =
        |pass_s: f64| (ctx.jobs as f64 * pass_s - sim_total) / short.points.len() as f64 * 1e3;
    let (hold_ops, acks, samples) = if args.smoke {
        (20_000, 2_000, 20_000)
    } else {
        (1_000_000, 200_000, 1_000_000)
    };
    let peak = counts.pending_peak.max(pc.pending_peak).max(16);
    let nets: Vec<_> = entries
        .iter()
        .filter(|(n, _)| n == "reno-64" || n == "reno-parking-lot")
        .map(|(_, c)| *c)
        .collect();
    let builds: Vec<_> = entries
        .iter()
        .filter(|(n, _)| n == "reno-64" || n.starts_with("reno-p") || n.starts_with("reno-w"))
        .map(|(_, c)| *c)
        .collect();

    let mut m = Metrics(Vec::new());
    m.put("des.events", per_pass(counts.des_events), "count");
    m.put("des.stale_fired", per_pass(counts.stale_fired), "count");
    m.put(
        "des.cancelled_in_place",
        per_pass(counts.cancelled_in_place),
        "count",
    );
    m.put("des.pending_peak", peak as f64, "count");
    m.put(
        "des.hold_ns_per_op",
        probes::hold_ns_per_op(peak as usize, hold_ops),
        "ns",
    );
    m.put("net.tx", per_pass(counts.net_tx), "count");
    m.put("net.delivery", per_pass(counts.net_delivery), "count");
    m.put(
        "net.ns_per_packet",
        probes::net_ns_per_packet(&nets, if args.smoke { 20 } else { 400 })?,
        "ns",
    );
    m.put("net.build_us", probes::net_build_us(&builds)?, "us");
    for v in VARIANT_REGISTRY {
        m.put(
            format!("transport.ns_per_ack.{}", v.name),
            probes::transport_ns_per_ack(v.variant, acks),
            "ns",
        );
    }
    m.put("transport.acks", per_pass(counts.acks), "count");
    m.put("transport.timeouts", per_pass(counts.timeouts), "count");
    m.put(
        "transport.fast_retransmits",
        per_pass(counts.fast_retransmits),
        "count",
    );
    m.put(
        "traffic.ns_per_packet",
        probes::traffic_ns_per_packet(samples),
        "ns",
    );
    m.put(
        "stats.ns_per_sample",
        probes::stats_ns_per_sample(samples),
        "ns",
    );
    m.put("scenario.new_ms", span_median("scenario.new", 1e3), "ms");
    m.put("scenario.run_s", span_median("scenario.run", 1.0), "s");
    m.put(
        "scenario.report_ms",
        span_median("scenario.report", 1e3),
        "ms",
    );
    let eps = if counts.events_per_s.is_empty() {
        &pc.events_per_s
    } else {
        &counts.events_per_s
    };
    for (name, _) in &entries {
        let v = eps.get(name).map_or(0.0, |v| median(v));
        m.put(format!("scenario.events_per_s.{name}"), v, "1/s");
    }
    let busy: Vec<f64> = counts
        .busy
        .iter()
        .map(|&(busy, threads, wall)| busy / (threads as f64 * wall))
        .collect();
    m.put("parallel.busy_ratio", median(&busy), "ratio");
    m.put("store.digest_us", span_median("store.digest", 1e6), "us");
    m.put("store.get_us", span_median("store.get", 1e6), "us");
    m.put("store.put_us", span_median("store.put", 1e6), "us");
    m.put("store.lookups", per_pass(counts.store_lookups), "count");
    m.put(
        "store.hit_ratio",
        counts.store_hits as f64 / counts.store_lookups.max(1) as f64,
        "ratio",
    );
    m.put("codec.encode_us", span_median("codec.encode", 1e6), "us");
    m.put("codec.decode_us", span_median("codec.decode", 1e6), "us");
    let bytes: Vec<f64> = if counts.codec_bytes.is_empty() {
        short
            .reports
            .iter()
            .filter_map(tcpburst_core::codec::encode)
            .map(|p| p.len() as f64)
            .collect()
    } else {
        counts.codec_bytes.iter().map(|&b| b as f64).collect()
    };
    m.put(
        "codec.bytes_per_report",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "bytes",
    );
    m.put(
        "journal.append_us",
        span_median("journal.append", 1e6),
        "us",
    );
    m.put(
        "journal.finalize_ms",
        span_median("journal.finalize", 1e3),
        "ms",
    );
    m.put("supervise.retries", observed.retries as f64, "count");
    m.put(
        "experiments.render_ms",
        span_median("experiments.render", 1e3),
        "ms",
    );
    m.put("workers.spawn_ms", median(&pool.spawn_ms), "ms");
    m.put("workers.point_overhead_ms", overhead_ms(pool_s), "ms");
    m.put(
        "workers.requeued_points",
        pool.robustness.requeued_points as f64,
        "count",
    );
    m.put(
        "workers.restarts",
        pool.robustness.worker_restarts as f64,
        "count",
    );
    m.put("frame.pipe_rtt_us", span_median("frame.pipe", 1e6), "us");
    m.put("daemon.register_ms", median(&serve.register_ms), "ms");
    m.put("daemon.point_overhead_ms", overhead_ms(serve_s), "ms");
    m.put(
        "daemon.heartbeat_misses",
        serve.robustness.heartbeat_misses as f64,
        "count",
    );
    m.put(
        "daemon.backoff_retries",
        serve.robustness.backoff_retries as f64,
        "count",
    );
    m.put("frame.tcp_rtt_us", span_median("frame.tcp", 1e6), "us");
    let traced_s = median(&traced.pass_s);
    let untraced_s = median(&untraced.pass_s);
    m.put("trace.pass_s_traced", traced_s, "s");
    m.put("trace.pass_s_untraced", untraced_s, "s");
    m.put("trace.overhead_ratio", traced_s / untraced_s, "ratio");
    let self_time = tr.self_time_by_layer();
    for layer in [
        "pass",
        "point",
        "scenario",
        "store",
        "codec",
        "frame",
        "journal",
        "experiments",
    ] {
        let s = self_time.get(layer).copied().unwrap_or(0.0);
        m.put(
            format!("self_ms.{layer}"),
            s * 1e3 / counts.traced_passes.max(1) as f64,
            "ms",
        );
    }

    let out_dir = args.root.join(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"spans\": {}, \"probe_spans\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        tr.to_json(),
        probe.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok((m, attempted, failed))
}
