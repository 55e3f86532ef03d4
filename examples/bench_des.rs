//! Dependency-free microbenchmark of the event engine, plus a steady-state
//! allocation audit.
//!
//! Three measurements:
//!
//! 1. **Scenario**: the paper's 64-client Reno run — the real workload,
//!    with eager timer cancellation active. Each timed rep runs between
//!    two host-speed calibrations (below) and is scaled by their mean.
//! 2. **Alloc check**: warms the first third of a run, then counts global
//!    allocations over each of the two equal windows that follow; the
//!    second window runs the batch-dispatch hot loop. Amortized container
//!    growth (time bins, calendar resizes) shows up in one window; a
//!    per-event allocation shows up in both, by the hundred thousand. The
//!    second window must stay under a fixed ceiling.
//! 3. **Hold model**: the classic priority-queue benchmark — prefill to a
//!    target size, then alternate pop/push with exponential increments —
//!    swept across queue sizes.
//!
//! Results go to `BENCH_des.json` (`BENCH_des_smoke.json` with `--smoke`,
//! which shrinks everything so CI can assert the harness works in seconds).
//!
//! `--regress` instead *checks* the disabled-impairments fast path: it
//! re-times the recorded scenario and exits with status 1 if simulated
//! seconds per wall-clock second, scaled by host speed, fell more than 10%
//! below the `BENCH_des.json` baseline — the guard that the
//! fault-injection hooks cost nothing when off. The gate measures simulated
//! time rather than events because the work one event stands for is not
//! fixed: the engine skips events that would change nothing, so fewer
//! events can mean a faster run, and events/s recorded before such a change
//! cannot be compared with events/s after it.
//!
//! ```sh
//! cargo run --release --example bench_des               # full benchmark
//! cargo run --release --example bench_des -- --smoke    # CI smoke test
//! cargo run --release --example bench_des -- --regress  # compare to baseline
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tcpburst_core::{Protocol, RunBudget, Scenario, ScenarioBuilder, ScenarioReport};
use tcpburst_des::{EventQueue, SimDuration, SimRng, SimTime};

/// Counting wrapper around the system allocator, backing the steady-state
/// allocation audit. Lives in the example only: the library crates all
/// carry `#![forbid(unsafe_code)]`, and examples are separate compilation
/// units, so that guarantee is untouched.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// atomic increment on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Host-speed calibration: a binary-heap hold loop from `std`, not from
/// the workspace, so no change to the engine under test moves it. The 2 MiB
/// queue outgrows the private caches, so cache and memory contention slow
/// it as they slow the scenario. Returns the loop's wall-clock seconds.
fn calib_loop() -> f64 {
    const QUEUE: usize = 1 << 18;
    const HOLDS: usize = 150_000;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1000 + 1
    };
    let mut heap = BinaryHeap::with_capacity(QUEUE);
    let mut t = 0u64;
    for _ in 0..QUEUE {
        t += next();
        heap.push(Reverse(t));
    }
    let start = Instant::now();
    for _ in 0..HOLDS {
        let Reverse(now) = heap.pop().expect("the heap never empties");
        heap.push(Reverse(now + next()));
    }
    std::hint::black_box(heap.peek());
    start.elapsed().as_secs_f64()
}

/// One timed scenario run.
fn timed_scenario(clients: usize, secs: u64) -> ScenarioReport {
    let cfg = ScenarioBuilder::paper()
        .topology(|t| t.clients(clients))
        .transport(|t| t.protocol(Protocol::Reno))
        .instrumentation(|i| i.secs(secs))
        .finish();
    // The bench never reads cwnd traces, so no sender may allocate one —
    // trace storage is gated on the instrumentation stage's trace_cwnd.
    let mut s = Scenario::new(&cfg);
    assert_eq!(
        s.cwnd_trace_allocations(),
        0,
        "untraced bench run allocated cwnd trace storage"
    );
    s.run_to_completion();
    s.into_report()
}

/// A timed rep and the mean of the calibration readings taken right
/// before and right after it.
struct Rep {
    report: ScenarioReport,
    calib_s: f64,
}

impl Rep {
    /// Simulated seconds advanced per wall-clock second of the run loop.
    fn sim_secs_per_wall_s(&self, secs: u64) -> f64 {
        secs as f64 / self.report.wall_clock_secs
    }

    /// Simulated seconds advanced per calibration-loop time: the host-speed
    /// independent rate. A host twice as slow doubles both the run and the
    /// calibration, and this stays put.
    fn sim_secs_per_calib(&self, secs: u64) -> f64 {
        self.sim_secs_per_wall_s(secs) * self.calib_s
    }
}

/// Best of `reps` calibrated scenario runs, by host-adjusted rate.
///
/// The simulation is deterministic, so every rep does identical work and
/// the fastest rep is the one least disturbed by the host machine; taking
/// the best is the standard way to strip scheduler/cache noise from a
/// wall-clock benchmark. Each rep is scaled by the calibrations on either
/// side of it, so host drift between reps cancels, and a disturbance of
/// one calibration counts half. Every rep is asserted to reach the same
/// simulated end state.
fn best_scenario(reps: usize, clients: usize, secs: u64) -> Rep {
    let mut best: Option<Rep> = None;
    for _ in 0..reps {
        let before = calib_loop();
        let report = timed_scenario(clients, secs);
        let rep = Rep {
            report,
            calib_s: (before + calib_loop()) / 2.0,
        };
        match &best {
            Some(b) => {
                assert_eq!(rep.report.cov, b.report.cov, "reps diverged on c.o.v.");
                if rep.sim_secs_per_calib(secs) > b.sim_secs_per_calib(secs) {
                    best = Some(rep);
                }
            }
            None => best = Some(rep),
        }
    }
    best.expect("at least one rep")
}

/// Hold-model ops/second at a steady queue size of `n` events.
fn hold_model(n: usize, ops: usize) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(n);
    let mut rng = SimRng::seed_from_u64(0xDE5_BE7C ^ n as u64);
    // Mean gap 1 ms; nanosecond resolution keeps timestamps distinct.
    let gap = |rng: &mut SimRng| (rng.exponential(1.0) * 1e6) as u64 + 1;
    let mut t = 0u64;
    for i in 0..n {
        t += gap(&mut rng);
        q.push(SimTime::from_nanos(t), i as u64);
    }
    let start = Instant::now();
    for i in 0..ops {
        let (popped, _) = q.pop().expect("hold model never empties");
        let next = popped.as_nanos() + gap(&mut rng);
        q.push(SimTime::from_nanos(next), i as u64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    // One hold = one pop + one push = 2 queue operations.
    (ops * 2) as f64 / elapsed
}

/// Steady-state allocation audit: run the first third of the scenario to
/// warm every container (scheduler calendar and batch, per-flow state,
/// outboxes, time bins), then count global allocations over the second
/// third (budgeted loop, stopped at two thirds) and the last third (the
/// batch-dispatch hot loop).
///
/// Returns `(first_window_allocs, second_window_allocs, total_events)`.
fn alloc_check(clients: usize, secs: u64) -> (u64, u64, u64) {
    assert_eq!(secs % 3, 0, "alloc_check needs three equal thirds");
    let cfg = ScenarioBuilder::paper()
        .topology(|t| t.clients(clients))
        .transport(|t| t.protocol(Protocol::Reno))
        .instrumentation(|i| i.secs(secs))
        .finish();
    let until = |s: u64| RunBudget {
        max_sim_time: Some(SimDuration::from_secs(s)),
        ..RunBudget::UNLIMITED
    };
    let mut s = Scenario::new(&cfg);
    s.run_with_budget(&until(secs / 3));
    let start = ALLOCATIONS.load(Ordering::Relaxed);
    s.run_with_budget(&until(2 * secs / 3));
    let middle = ALLOCATIONS.load(Ordering::Relaxed);
    s.run_to_completion();
    let end = ALLOCATIONS.load(Ordering::Relaxed);
    (middle - start, end - middle, s.into_report().events_processed)
}

/// The ceiling the second window must stay under: the hot loop itself is
/// allocation-free, so the only permitted allocations are amortized
/// container growth — binned-counter time-series doublings, and calendar
/// queue resizes (each rebuild reallocates the whole O(nbuckets) bucket
/// array, so a single resize shows up as ~100 allocations). A few hundred
/// over a third of a run of ~650k events is amortized noise; a per-event
/// allocation would register in the hundreds of thousands.
const STEADY_ALLOC_CEILING: u64 = 512;

/// Timed reps of the full benchmark and of `--regress`: the baseline and
/// the gate take the best of the same number.
const REPS: usize = 30;

/// Pulls a numeric `"key": value` field out of the `"scenario"` object of
/// a previously written `BENCH_des.json` without a JSON dependency: the
/// file is our own output, so a positional scan is reliable.
fn baseline_field(json: &str, key: &str) -> Option<f64> {
    let rest = &json[json.find("\"scenario\"")?..];
    let key = format!("\"{key}\": ");
    let tail = &rest[rest.find(&key)? + key.len()..];
    let end = tail.find([',', '}', '\n'])?;
    tail[..end].trim().parse().ok()
}

/// `--regress`: compare fresh calibrated runs against the recorded
/// baseline. Returns the process exit code.
///
/// Shared and throttled hosts drift in absolute speed by 10%+ between the
/// minute the baseline was recorded and the minute the gate runs, and
/// within a minute, which would flake any absolute throughput comparison.
/// So every timed rep runs between two calibration loops and is scaled by
/// their mean: throttling moves both together and cancels out, while a
/// real engine regression moves only the scenario and is caught.
fn regress(baseline_path: &str) -> u8 {
    let json = match std::fs::read_to_string(baseline_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e} (run bench_des first)");
            return 1;
        }
    };
    let (Some(baseline), Some(calib_then), Some(norm_then)) = (
        baseline_field(&json, "sim_secs_per_wall_s"),
        baseline_field(&json, "calib_s"),
        baseline_field(&json, "sim_secs_per_calib"),
    ) else {
        eprintln!(
            "no scenario sim_secs_per_wall_s, calib_s and sim_secs_per_calib in {baseline_path}"
        );
        return 1;
    };
    let (clients, secs, reps) = (64, 30, REPS);
    println!(
        "regress: {clients}-client Reno, {secs} simulated s, best of {reps} calibrated reps"
    );
    let run = best_scenario(reps, clients, secs);
    let now = run.sim_secs_per_wall_s(secs);
    let host_speed = calib_then / run.calib_s;
    let ratio = run.sim_secs_per_calib(secs) / norm_then;
    println!(
        "  baseline {baseline:.1} simulated s per wall s ({:.1} host-adjusted, host speed \
         {host_speed:.2}x of record time), now {now:.1} ({:+.1}%)",
        norm_then / run.calib_s,
        (ratio - 1.0) * 100.0
    );
    // The regressions this gate exists to catch (an impairment hook left
    // hot, a per-event allocation) cost far more than 10%.
    if ratio < 0.90 {
        eprintln!("  FAIL: more than 10% below the host-adjusted baseline");
        1
    } else {
        println!("  OK: within the 10% budget");
        0
    }
}

fn main() {
    if std::env::args().any(|a| a == "--regress") {
        let code = regress("BENCH_des.json");
        std::process::exit(code.into());
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, secs, reps, sizes, ops, path): (usize, u64, usize, &[usize], usize, &str) =
        if smoke {
            (8, 3, 1, &[256], 20_000, "BENCH_des_smoke.json")
        } else {
            (64, 30, REPS, &[1_000, 10_000, 100_000], 2_000_000, "BENCH_des.json")
        };

    println!(
        "scenario: {clients}-client Reno, {secs} simulated s (best of {reps} calibrated reps)"
    );
    let best = best_scenario(reps, clients, secs);
    let r = &best.report;
    println!(
        "  {} events in {:.3} s ({:.0} events/s, {:.1} simulated s per s; calibration {:.4} s, \
         {:.3} simulated s per calibration; {} stale fired, {} cancelled)",
        r.events_processed,
        r.wall_clock_secs,
        r.events_per_sec(),
        best.sim_secs_per_wall_s(secs),
        best.calib_s,
        best.sim_secs_per_calib(secs),
        r.timers.stale_fired,
        r.timers.cancelled_in_place,
    );

    let mut json = String::from("{\n");
    // The host-speed context every other number in this file depends on.
    let _ = writeln!(
        json,
        "  \"host_cores\": {},",
        tcpburst_core::available_jobs()
    );
    let _ = writeln!(
        json,
        "  \"scenario\": {{\"clients\": {clients}, \"protocol\": \"Reno\", \"sim_secs\": {secs}, \
         \"reps\": {reps}, \"events\": {}, \"wall_clock_s\": {:.4}, \"events_per_sec\": {:.0}, \
         \"sim_secs_per_wall_s\": {:.1}, \"calib_s\": {:.5}, \"sim_secs_per_calib\": {:.3}, \
         \"stale_fired\": {}, \"cancelled_in_place\": {}, \"pending_peak\": {}}},",
        r.events_processed,
        r.wall_clock_secs,
        r.events_per_sec(),
        best.sim_secs_per_wall_s(secs),
        best.calib_s,
        best.sim_secs_per_calib(secs),
        r.timers.stale_fired,
        r.timers.cancelled_in_place,
        r.timers.pending_peak,
    );

    println!("alloc check: allocations in two equal windows after a warm-up third");
    let (first, steady, alloc_events) = alloc_check(clients, secs);
    println!(
        "  {first} then {steady} allocations over ~{} events each (ceiling {STEADY_ALLOC_CEILING} \
         on the second)",
        alloc_events / 3
    );
    assert!(
        steady <= STEADY_ALLOC_CEILING,
        "steady-state hot loop allocated {steady} times \
         (ceiling {STEADY_ALLOC_CEILING}): a per-event allocation crept in"
    );
    let _ = writeln!(
        json,
        "  \"alloc_check\": {{\"first_window_allocs\": {first}, \"steady_allocs\": {steady}, \
         \"ceiling\": {STEADY_ALLOC_CEILING}, \"total_events\": {alloc_events}}},"
    );
    json.push_str("  \"hold_model\": [\n");

    println!("hold model: steady-size pop/push");
    for (i, &n) in sizes.iter().enumerate() {
        let ops_per_sec = hold_model(n, ops);
        println!("  size {n:>7}: {ops_per_sec:.2e} ops/s");
        let _ = writeln!(
            json,
            "    {{\"queue_size\": {n}, \"ops_per_sec\": {ops_per_sec:.0}}}{}",
            if i + 1 < sizes.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, &json).expect("write bench json");
    println!("wrote {path}");
}
