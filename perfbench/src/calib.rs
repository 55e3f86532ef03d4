//! Host-speed calibration. The host this benchmark runs on may change
//! speed by tens of percent over minutes (shared cores, frequency), which
//! would swamp any change in the code measured. A fixed loop owned by the
//! benchmark — a binary-heap hold model from `std`, not from the
//! workspace, so no change to the code under test moves it — runs before
//! every timed step, and timings are scaled to the speed at which this
//! loop takes [`REFERENCE_S`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Seconds the calibration loop takes at the reference host speed.
pub const REFERENCE_S: f64 = 0.02;

/// A 2 MiB queue: larger than the private caches, like the engine's own
/// working set, so cache and memory contention slow it as they slow the
/// workloads.
const QUEUE: usize = 1 << 18;
const HOLDS: usize = 150_000;

fn hold_loop() -> f64 {
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

/// Runs the loop in a child process (`perfbench --calibrate THREADS`), so
/// its memory never counts toward this process's peak resident set, and
/// returns the child's reading.
pub fn calibrate(threads: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--calibrate", &threads.to_string()])
        .output()
        .map_err(|e| format!("calibration: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("calibration output: {e}"))
}

/// The body of `perfbench --calibrate THREADS`: runs the loop on that many
/// threads at once and returns the mean thread time in seconds.
pub fn run_loops(threads: usize) -> f64 {
    let threads = threads.max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(hold_loop)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .sum::<f64>()
            / threads as f64
    })
}
