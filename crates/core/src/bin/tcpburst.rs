//! `tcpburst` — command-line front end for the paper-reproduction harness.
//!
//! Every scenario flag is owned by one stage of the
//! [`ScenarioBuilder`]; the CLI only keeps the flags that orchestrate
//! *many* scenarios (`--jobs`, `--seeds`, comma-separated `--clients`
//! lists). Flag parsing, dispatch and the usage text below all derive from
//! [`ScenarioBuilder::CLI_FLAGS`], so the help can never go stale.

use std::env;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use tcpburst_core::experiments::{
    cwnd_evolution_from, paper_traced_clients, table1, topology_ascii,
};
use tcpburst_des::SimDuration;
use tcpburst_core::{
    remote_worker_main, run_point, store, submit_job, worker_main, ExecTuning, FailurePolicy,
    Gateway, JobConn, Protocol, RemoteExec, ReplicatedSweep, ResultStore, RunBudget, RunError,
    ScenarioBuilder, SupervisedSweep, SweepSupervisor, TopoKind, WorkerCommand, WorkerOptions,
    DEFAULT_TOKEN,
};

fn usage() -> String {
    format!(
        "\
tcpburst — reproduce 'On the Burstiness of the TCP Congestion-Control
Mechanism in a Distributed Computing System' (ICDCS 2000)

USAGE:
    tcpburst run       [scenario flags]
    tcpburst sweep     [scenario flags] [--clients a,b,c,...] [--jobs N]
    tcpburst replicate [scenario flags] [--clients a,b,c,...] [--seeds R]
                       [--jobs N]  (takes every sweep flag below)
    tcpburst cwnd      [scenario flags]
    tcpburst table1
    tcpburst serve     --listen ADDR [--token T] [--once]
                       [--liveness-ms N] [--grace-ms N]
    tcpburst worker    --connect ADDR [--token T] [--heartbeat-ms N]
                       [--max-reconnects N]
    tcpburst submit    --connect ADDR [--token T] sweep|replicate [flags...]

SCENARIO FLAGS (one builder stage each):
{}
ORCHESTRATION:
    --clients a,b,c        sweep/replicate client-count axis
    --protocols a,b,c      sweep/replicate protocol set (default: the
                           paper's six, or the --variant's own column when
                           one is named; accepts any PROTOCOLS name)
    --seeds R              replicate only: replications per grid point
                           (seeds --seed .. --seed + R; default 5)
    --jobs N               worker threads; 0 = all cores
    --workers N            spread fresh grid points across N crash-isolated
                           worker *processes* (0 = all cores; default 1 =
                           in-process threads); output is byte-identical at
                           every N

RESULT CACHE (sweep and replicate; `run` always simulates):
    --cache PATH           content-addressed result store location (default:
                           $TCPBURST_CACHE, else $XDG_CACHE_HOME/tcpburst/
                           store, else ~/.cache/tcpburst/store)
    --no-cache             skip the result store for this invocation
                           Completed grid points persist under a digest of
                           their full configuration, seed and engine schema;
                           a repeated sweep loads them instead of simulating
                           (bit-identical by construction). Trace-capturing
                           configurations bypass the cache; an engine schema
                           bump invalidates it.

ROBUSTNESS (supervision and watchdog budgets):
    --keep-going           run every grid point; report failures at the end
                           (default)
    --fail-fast            stop claiming new points after the first failure
    --retries N            budget-failure retries per point, doubling the
                           budget each time (default 1)
    --max-events N         abort a run after N scheduler events
    --max-sim-secs S       abort a run after S simulated seconds
    --max-wall-secs S      abort a run after S wall-clock seconds
                           (budgets apply to `run` too: the partial report
                           prints, marked PARTIAL RUN, and the exit is
                           nonzero)
    --journal PATH         append each completed sweep or replicate point,
                           with its full report (wall clock excepted), to a
                           JSONL journal (truncates PATH)
    --resume PATH          restore points already in the journal as full
                           reports; the output is byte-identical to an
                           uninterrupted sweep (a journal from another engine
                           schema or an older format is refused; traced
                           sweeps journal no points and re-run them)

SWEEP SERVICE (distributed fan-out over TCP):
    serve                  long-running daemon: accepts sweep jobs and
                           worker registrations on --listen (prints the
                           bound address to stderr; --once exits after one
                           job)
    worker --connect       remote worker: dials the daemon, authenticates
                           with the shared --token, steals grid points,
                           heartbeats while computing, reconnects with
                           exponential backoff + jitter and a digest-keyed
                           resume handshake
    submit                 sends a sweep or replicate job to the daemon and
                           streams its output back; exits nonzero if it
                           failed
    --token T              shared job token (both sides default to
                           '{DEFAULT_TOKEN}')
    --liveness-ms N        daemon: declare a worker dead after N ms of
                           silence and requeue its in-flight point
                           (default 2000)
    --grace-ms N           daemon: with zero live workers for N ms, finish
                           the sweep in-process (default 1500)
    --heartbeat-ms N       worker: heartbeat interval while a point is
                           computing (default 400)
    --max-reconnects N     worker: reconnect attempts before giving up
                           (default 8)
    A sweep's finalized journal and figure tables are byte-identical to
    the serial in-process run at any worker count and under any injected
    fault schedule; killed/stalled/partitioned workers cost requeues, not
    results (counters on stderr: requeued_points, worker_restarts,
    heartbeat_misses, backoff_retries).

PROTOCOLS:
    udp, reno, reno-red, vegas, vegas-red, reno-delayack, tahoe, newreno,
    sack, gaimd, cubic, hstcp, bbr

    --variant swaps only the TCP congestion-control policy, keeping the
    gateway and ACK behaviour from --protocol; gaimd:<alpha>,<beta> sets
    the Ott-Swanson exponents (gaimd alone means alpha=0, beta=1 = Reno).
    The full policy vocabulary is listed under `variants` above; bbr is
    the only policy that paces its transmissions.

DEFAULTS:
    39 clients, reno, 30 s, seed 0x1CDC2000; sweeps use the paper's
    protocol set. Sweeps fan grid points across --jobs worker threads; the
    output is bit-identical for every --jobs value (--jobs 1 is fully
    serial), with or without --impair. Figure tables go to stdout; the
    supervision summary and per-point failures go to stderr.

EXAMPLES:
    tcpburst run --clients 39 --protocol reno --impair flap:3s/10s,corrupt:1e-5
    tcpburst sweep --clients 5,15,25,35,39 --secs 60 --jobs 0
    tcpburst sweep --clients 5,15 --journal sweep.jsonl
    tcpburst sweep --clients 5,15 --resume sweep.jsonl
    tcpburst sweep --clients 5,15,25 --workers 4 --no-cache
    tcpburst sweep --clients 20,39 --protocols reno,gaimd --secs 10
    tcpburst run --clients 39 --variant gaimd:0.31,0.875
    tcpburst run --topology parking-lot:5,4 --trace-hops --impair cross:2000/1500
    tcpburst sweep --topology incast:16 --protocols reno,cubic --secs 10
",
        ScenarioBuilder::cli_help()
    )
}

/// Where the result store lives, if anywhere.
enum CacheChoice {
    /// `ResultStore::default_location()`, best-effort (no cache if it has
    /// no usable location).
    Default,
    /// `--no-cache`.
    Off,
    /// `--cache PATH`; failing to open this one is a hard error.
    Explicit(PathBuf),
}

struct Args {
    cfg: tcpburst_core::ScenarioConfig,
    /// Remembered separately because the config stores the protocol only as
    /// its expanded transport/gateway knobs.
    protocol: Protocol,
    client_list: Vec<usize>,
    protocol_set: Vec<Protocol>,
    /// `--seeds`, when given: only `replicate` has a seed axis.
    seeds: Option<usize>,
    jobs: usize,
    workers: usize,
    cache: CacheChoice,
    policy: FailurePolicy,
    retries: u32,
    budget: RunBudget,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
}

/// Sweep-service flags, stripped from the argument tail before scenario
/// parsing so `serve`/`worker`/`submit` can share the flag space.
struct NetOpts {
    listen: Option<String>,
    connect: Option<String>,
    token: String,
    once: bool,
    heartbeat: Duration,
    liveness: Duration,
    grace: Duration,
    max_reconnects: u32,
}

/// Extracts the sweep-service flags; everything else passes through to
/// the scenario parser (or, for `submit`, travels as the job argv).
fn split_net_flags(args: &[String]) -> Result<(NetOpts, Vec<String>), String> {
    let mut net = NetOpts {
        listen: None,
        connect: None,
        token: DEFAULT_TOKEN.to_string(),
        once: false,
        heartbeat: Duration::from_millis(400),
        liveness: Duration::from_millis(2000),
        grace: Duration::from_millis(1500),
        max_reconnects: 8,
    };
    let mut rest = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match flag.as_str() {
            "--listen" => net.listen = Some(value("--listen")?),
            "--connect" => net.connect = Some(value("--connect")?),
            "--token" => {
                let t = value("--token")?;
                if t.is_empty() || t.split_whitespace().count() != 1 {
                    return Err("--token must be one non-empty word".into());
                }
                net.token = t;
            }
            "--once" => net.once = true,
            "--heartbeat-ms" => {
                let ms: u64 = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
                net.heartbeat = Duration::from_millis(ms.max(1));
            }
            "--liveness-ms" => {
                let ms: u64 = value("--liveness-ms")?
                    .parse()
                    .map_err(|e| format!("--liveness-ms: {e}"))?;
                net.liveness = Duration::from_millis(ms.max(1));
            }
            "--grace-ms" => {
                let ms: u64 = value("--grace-ms")?
                    .parse()
                    .map_err(|e| format!("--grace-ms: {e}"))?;
                net.grace = Duration::from_millis(ms);
            }
            "--max-reconnects" => {
                net.max_reconnects = value("--max-reconnects")?
                    .parse()
                    .map_err(|e| format!("--max-reconnects: {e}"))?;
            }
            _ => rest.push(flag),
        }
    }
    Ok((net, rest))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut builder = ScenarioBuilder::paper()
        .instrumentation(|i| i.secs(30).seed(0x1CDC_2000));
    let mut protocol = Protocol::Reno;
    let mut client_list = vec![5, 15, 25, 35, 39, 45, 60];
    let mut protocol_set: Vec<Protocol> = Protocol::PAPER_SET.to_vec();
    let mut protocols_explicit = false;
    let mut variant_protocol: Option<Protocol> = None;
    let mut seeds = None;
    let mut jobs = 0usize;
    let mut workers = 1usize;
    let mut cache = CacheChoice::Default;
    let mut policy = FailurePolicy::KeepGoing;
    let mut retries = 1u32;
    let mut budget = RunBudget::UNLIMITED;
    let mut journal = None;
    let mut resume = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--seeds" => {
                let v = argv.next().ok_or("--seeds requires a value")?;
                let n: usize = v.parse().map_err(|e| format!("--seeds: {e}"))?;
                if n == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                seeds = Some(n);
            }
            "--protocols" => {
                let v = argv.next().ok_or("--protocols requires a value")?;
                protocol_set = v
                    .split(',')
                    .map(|s| s.trim().parse().map_err(String::from))
                    .collect::<Result<_, String>>()?;
                if protocol_set.is_empty() {
                    return Err("--protocols requires at least one name".into());
                }
                protocols_explicit = true;
            }
            "--jobs" => {
                let v = argv.next().ok_or("--jobs requires a value")?;
                jobs = v.parse().map_err(|e| format!("--jobs: {e}"))?;
            }
            "--workers" => {
                let v = argv.next().ok_or("--workers requires a value")?;
                workers = v.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache" => {
                let v = argv.next().ok_or("--cache requires a value")?;
                cache = CacheChoice::Explicit(PathBuf::from(v));
            }
            "--no-cache" => cache = CacheChoice::Off,
            "--keep-going" => policy = FailurePolicy::KeepGoing,
            "--fail-fast" => policy = FailurePolicy::FailFast,
            "--retries" => {
                let v = argv.next().ok_or("--retries requires a value")?;
                retries = v.parse().map_err(|e| format!("--retries: {e}"))?;
            }
            "--max-events" => {
                let v = argv.next().ok_or("--max-events requires a value")?;
                let n: u64 = v.parse().map_err(|e| format!("--max-events: {e}"))?;
                budget.max_events = Some(n);
            }
            "--max-sim-secs" => {
                let v = argv.next().ok_or("--max-sim-secs requires a value")?;
                let s: f64 = v.parse().map_err(|e| format!("--max-sim-secs: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--max-sim-secs must be positive".into());
                }
                budget.max_sim_time = Some(SimDuration::from_nanos((s * 1e9) as u64));
            }
            "--max-wall-secs" => {
                let v = argv.next().ok_or("--max-wall-secs requires a value")?;
                let s: f64 = v.parse().map_err(|e| format!("--max-wall-secs: {e}"))?;
                if s.is_nan() || s < 0.0 {
                    return Err("--max-wall-secs must be non-negative".into());
                }
                budget.max_wall = Some(Duration::from_secs_f64(s));
            }
            "--journal" => {
                let v = argv.next().ok_or("--journal requires a value")?;
                journal = Some(PathBuf::from(v));
            }
            "--resume" => {
                let v = argv.next().ok_or("--resume requires a value")?;
                resume = Some(PathBuf::from(v));
            }
            _ => {
                let Some(spec) = ScenarioBuilder::flag_spec(&flag) else {
                    return Err(format!("unknown flag: {flag}"));
                };
                let value = match spec.metavar {
                    Some(_) => Some(
                        argv.next()
                            .ok_or_else(|| format!("{flag} requires a value"))?,
                    ),
                    None => None,
                };
                // The --clients value doubles as the sweep axis; a single
                // number is a one-point axis. The last entry still lands in
                // the builder so `run` sees a sensible value.
                if flag == "--clients" {
                    let v = value.as_deref().unwrap_or_default();
                    client_list = v
                        .split(',')
                        .map(|s| s.trim().parse().map_err(|e| format!("--clients: {e}")))
                        .collect::<Result<_, _>>()?;
                    let Some(last) = client_list.last() else {
                        return Err("--clients requires at least one count".into());
                    };
                    builder.apply_cli_flag("--clients", Some(&last.to_string()))?;
                    continue;
                }
                if flag == "--protocol" {
                    protocol = value.as_deref().unwrap_or_default().parse()?;
                }
                if flag == "--variant" {
                    // Keep the headline label in sync with the policy swap;
                    // bare names map onto their FIFO protocol rows, and any
                    // gaimd spec is labelled GAIMD.
                    let v = value.as_deref().unwrap_or_default();
                    let name = v.split(':').next().unwrap_or(v);
                    if let Ok(p) = name.parse::<Protocol>() {
                        protocol = p;
                        variant_protocol = Some(p);
                    }
                }
                builder.apply_cli_flag(&flag, value.as_deref())?;
            }
        }
    }
    // `sweep --variant cubic` with no explicit --protocols means "sweep
    // that one policy", not "sweep the paper set and ignore the flag".
    if !protocols_explicit {
        if let Some(p) = variant_protocol {
            protocol_set = vec![p];
        }
    }
    if journal.is_some() && resume.is_some() {
        return Err("--journal and --resume are mutually exclusive; \
                    --resume already appends to the journal it resumes"
            .into());
    }
    let cfg = builder.try_finish()?;
    Ok(Args {
        cfg,
        protocol,
        client_list,
        protocol_set,
        seeds,
        jobs,
        workers,
        cache,
        policy,
        retries,
        budget,
        journal,
        resume,
    })
}

/// Resolves the `--cache`/`--no-cache` choice into an open store. The
/// default location is best-effort (an unopenable default degrades to "no
/// cache" with a note); an explicit `--cache PATH` that cannot open is a
/// hard error.
fn open_store(choice: &CacheChoice) -> Result<Option<Arc<ResultStore>>, String> {
    match choice {
        CacheChoice::Off => Ok(None),
        CacheChoice::Explicit(path) => ResultStore::open(path.clone())
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("--cache {}: {e}", path.display())),
        CacheChoice::Default => match ResultStore::default_location() {
            Some(root) => match ResultStore::open(root.clone()) {
                Ok(s) => Ok(Some(Arc::new(s))),
                Err(e) => {
                    eprintln!(
                        "note: result cache disabled ({}: {e})",
                        root.display()
                    );
                    Ok(None)
                }
            },
            None => Ok(None),
        },
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    // A budget abort or audit failure still prints the (partial) report —
    // that diagnostic is the whole point — and then fails the command.
    let (r, failure) = match run_point(&args.cfg, &args.budget) {
        Ok(r) => (r, None),
        Err(RunError::BudgetExceeded { exceeded, report }) => {
            (*report, Some(format!("{exceeded} budget exceeded")))
        }
        Err(RunError::InvariantViolation { violations, report }) => {
            (*report, Some(format!("{} invariant violation(s)", violations.len())))
        }
        Err(e) => return Err(e.to_string()),
    };
    let secs = args.cfg.duration.as_nanos() as f64 / 1e9;
    let mut headline = format!(
        "{} / {} clients / {secs} s",
        args.protocol.label(),
        args.cfg.num_flows(),
    );
    if args.cfg.topology != TopoKind::Dumbbell {
        headline.push_str(&format!(" / {}", args.cfg.topology.cli_spec()));
    }
    if args.cfg.ecn {
        headline.push_str(" / ECN");
    }
    if !args.cfg.impair.is_none() {
        headline.push_str(&format!(" / impair {}", args.cfg.impair));
    }
    println!("{headline}");
    println!("{r}");
    println!(
        "c.o.v. ratio vs Poisson: {:.2}x   avg queue: {:.1} pkts   mean delay: {:.1} ms",
        r.cov_ratio(),
        r.avg_queue_len,
        r.mean_delay_secs * 1e3
    );
    if let Some(hops) = &r.hop_series {
        println!("per-hop series ({} hops, one sample per c.o.v. bin):", hops.occupancy.len());
        for (i, (occ, util)) in hops.occupancy.iter().zip(&hops.utilization).enumerate() {
            let peak_occ = occ.iter().map(|(_, v)| v).fold(0.0f64, f64::max);
            let n = util.len().max(1) as f64;
            let mean_util: f64 = util.iter().map(|(_, v)| v).sum::<f64>() / n;
            println!(
                "  hop {i}: peak queue {peak_occ:.0} pkts, mean utilization {:.1}%",
                mean_util * 100.0
            );
        }
    }
    println!(
        "engine: {} events in {:.2} s ({:.0} events/s)",
        r.events_processed,
        r.wall_clock_secs,
        r.events_per_sec()
    );
    match failure {
        None => Ok(()),
        Some(msg) => Err(msg),
    }
}

/// The sweep body, shared by the `sweep` and `replicate` commands
/// (stdout/stderr) and the daemon's job loop (buffers streamed back to the
/// submitter). `replicate` runs every point on seeds `--seed .. --seed + R`
/// and folds them into mean ± CI tables; `remote` attaches the daemon's
/// remote-worker executor.
fn run_sweep(
    args: &Args,
    replicate: bool,
    remote: Option<Arc<RemoteExec>>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    if args.seeds.is_some() && !replicate {
        return Err("--seeds applies only to replicate; a sweep runs the one --seed".into());
    }
    // A traced sweep never consults the store, so it reports no cache line.
    let store = open_store(&args.cache)?.filter(|_| store::cacheable(&args.cfg));
    let mut supervisor = SweepSupervisor::new(&args.cfg, &args.protocol_set, &args.client_list)
        .jobs(args.jobs)
        .policy(args.policy)
        .budget(args.budget)
        .retries(args.retries);
    if replicate {
        let seeds: Vec<u64> = (0..args.seeds.unwrap_or(5) as u64)
            .map(|i| args.cfg.seed + i)
            .collect();
        supervisor = supervisor.seeds(&seeds);
    }
    if let Some(store) = &store {
        supervisor = supervisor.store(Arc::clone(store));
    }
    if let Some(remote) = remote {
        supervisor = supervisor.remote(remote);
    } else if args.workers != 1 {
        // Worker processes re-execute this binary's hidden `worker`
        // subcommand; each point frame carries its whole configuration.
        let command = WorkerCommand::current_exe(vec!["worker".to_string()])
            .map_err(|e| format!("resolving worker binary: {e}"))?;
        supervisor = supervisor.workers(args.workers).worker_command(command);
    }
    let supervised: SupervisedSweep = match (&args.journal, &args.resume) {
        (Some(path), None) => supervisor.run_with_journal(path).map_err(|e| e.to_string())?,
        (None, Some(path)) => supervisor.resume_from(path).map_err(|e| e.to_string())?,
        _ => supervisor.run(),
    };
    // Figure tables on stdout stay byte-identical whether the sweep ran
    // fresh, journalled, resumed, cached, in-process, in worker processes
    // or on remote workers under chaos; supervision bookkeeping goes to
    // stderr.
    let tables = if replicate {
        ReplicatedSweep::from_sweep(&supervised.sweep).tables()
    } else {
        supervised.sweep.tables()
    };
    for table in tables {
        writeln!(out, "{table}").map_err(|e| format!("writing output: {e}"))?;
    }
    if supervised.resumed_points > 0 {
        let _ = writeln!(
            err,
            "resumed {} point(s) from journal, ran {} fresh",
            supervised.resumed_points, supervised.completed_points
        );
    }
    if store.is_some() {
        let (hits, misses) = (supervised.cache_hits, supervised.cache_misses);
        let _ = writeln!(
            err,
            "cache: {hits} hit(s), {misses} miss(es){}",
            if misses == 0 && hits > 0 {
                " (100% cache hits)"
            } else {
                ""
            }
        );
    }
    if supervised.robustness.any() {
        let _ = writeln!(err, "robustness: {}", supervised.robustness);
    }
    if let Some(e) = &supervised.journal_error {
        let _ = writeln!(err, "warning: journal finalize failed: {e}");
    }
    for f in &supervised.failures {
        let _ = writeln!(err, "FAILED  {f}");
    }
    for p in &supervised.skipped {
        let _ = writeln!(err, "SKIPPED {p} (fail-fast abort)");
    }
    if supervised.all_complete() {
        Ok(())
    } else {
        Err(format!(
            "{} point(s) failed, {} skipped",
            supervised.failures.len(),
            supervised.skipped.len()
        ))
    }
}

/// The `serve` daemon loop: accept submitted jobs, run each with the
/// gateway's remote workers attached, stream the output back.
fn cmd_serve(net: &NetOpts) -> Result<(), String> {
    let listen = net.listen.as_deref().ok_or("serve requires --listen ADDR")?;
    let gateway =
        Arc::new(Gateway::bind(listen, &net.token).map_err(|e| format!("--listen {listen}: {e}"))?);
    // The bound address goes to stderr so scripts can discover an
    // ephemeral (`:0`) port.
    eprintln!("listening on {}", gateway.local_addr());
    loop {
        let Some(mut job) = gateway
            .next_job() else {
            return Err("gateway accept loop died".into());
        };
        serve_one_job(&gateway, &mut job, net);
        if net.once {
            return Ok(());
        }
    }
}

fn serve_one_job(gateway: &Arc<Gateway>, job: &mut JobConn, net: &NetOpts) {
    let argv = job.argv().to_vec();
    let Some((cmd @ ("sweep" | "replicate"), tail)) =
        argv.split_first().map(|(s, t)| (s.as_str(), t))
    else {
        job.finish(false, "only 'sweep' and 'replicate' jobs are supported");
        return;
    };
    let args = match parse_args(tail.iter().cloned()) {
        Ok(args) => args,
        Err(e) => {
            job.finish(false, &format!("job argv: {e}"));
            return;
        }
    };
    let tuning = ExecTuning {
        liveness: net.liveness,
        grace: net.grace,
    };
    let exec = Arc::new(RemoteExec::new(Arc::clone(gateway), tuning));
    let mut out = Vec::new();
    let mut err = Vec::new();
    let result = run_sweep(&args, cmd == "replicate", Some(exec), &mut out, &mut err);
    if !out.is_empty() {
        job.send_out(&String::from_utf8_lossy(&out));
    }
    if !err.is_empty() {
        job.send_err(&String::from_utf8_lossy(&err));
    }
    match result {
        Ok(()) => job.finish(true, ""),
        Err(e) => job.finish(false, &e),
    }
}

fn cmd_cwnd(args: &Args) {
    let fig = cwnd_evolution_from(
        &args.cfg,
        args.protocol,
        args.cfg.num_clients,
        &paper_traced_clients(args.cfg.num_clients),
    );
    println!("{}", fig.table());
}

fn main() -> ExitCode {
    let all: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = all.first().cloned() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = all[1..].to_vec();
    // Networking flags (--listen/--connect/--token/...) are peeled off
    // before scenario parsing so `serve`, `submit` and remote `worker`
    // share the scenario grammar with the in-process commands.
    let (net, scenario_rest) = match split_net_flags(&rest) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if cmd == "serve" {
        return match cmd_serve(&net) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "submit" {
        // Ship the scenario argv to a daemon verbatim; it is parsed there.
        let Some(addr) = net.connect.clone() else {
            eprintln!("error: submit requires --connect ADDR");
            return ExitCode::FAILURE;
        };
        let mut out = std::io::stdout().lock();
        let mut err = std::io::stderr().lock();
        return match submit_job(&addr, &net.token, &scenario_rest, &mut out, &mut err) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd == "worker" {
        if let Some(addr) = net.connect.clone() {
            // Remote worker: dial a daemon, authenticate, steal points
            // until the job drains; reconnect with backoff on failures.
            let opts = WorkerOptions {
                connect: addr,
                token: net.token.clone(),
                heartbeat: net.heartbeat,
                max_reconnects: net.max_reconnects,
                ..WorkerOptions::default()
            };
            return ExitCode::from(remote_worker_main(&opts) as u8);
        }
    }
    let args = match parse_args(scenario_rest.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if cmd == "worker" {
        // Hidden subcommand: serve the grid points a sweep parent sends
        // over stdin/stdout until EOF. Each point frame carries its whole
        // configuration, so scenario flags are accepted and ignored.
        return ExitCode::from(worker_main() as u8);
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "sweep" | "replicate" => run_sweep(
            &args,
            cmd == "replicate",
            None,
            &mut std::io::stdout().lock(),
            &mut std::io::stderr().lock(),
        ),
        "cwnd" => {
            cmd_cwnd(&args);
            Ok(())
        }
        "table1" => {
            println!("{}", table1());
            println!("{}", topology_ascii());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => {
            eprintln!("error: unknown command {other}\n");
            eprint!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // Runtime failures (point failures, journal I/O) are not usage
        // errors: report them without re-printing the help.
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
