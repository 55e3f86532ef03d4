//! Host-side accounting read from Linux `/proc`: CPU time and resident
//! memory of this process and of every child it starts, plus guards that
//! remove temporary directories and reap child processes on every exit
//! path, panics included.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which the Linux
/// ABI fixes at 100 per second on every architecture this runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// Fields 14..17 of `/proc/<pid>/stat`: utime, stime, cutime, cstime.
fn stat_ticks(pid: &str) -> Option<[u64; 4]> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let f = |i: usize| fields.get(i - 3).and_then(|v| v.parse().ok());
    Some([f(14)?, f(15)?, f(16)?, f(17)?])
}

/// Live descendants of `pid`, found through the kernel's per-task
/// `children` lists.
pub fn descendants(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut stack = vec![pid];
    while let Some(p) = stack.pop() {
        let Ok(tasks) = fs::read_dir(format!("/proc/{p}/task")) else {
            continue;
        };
        for task in tasks.flatten() {
            let list = fs::read_to_string(task.path().join("children")).unwrap_or_default();
            for child in list.split_whitespace().filter_map(|c| c.parse().ok()) {
                out.push(child);
                stack.push(child);
            }
        }
    }
    out
}

/// CPU seconds (user + system) consumed so far by this process, by the
/// children it has reaped, and by its live descendants. The difference of
/// two readings is the CPU the whole system of processes spent between
/// them, provided every child that ends in between is reaped by us.
pub fn system_cpu_s() -> f64 {
    let own = stat_ticks("self").map_or(0, |t| t.iter().sum());
    let live: u64 = descendants(std::process::id())
        .iter()
        .filter_map(|p| stat_ticks(&p.to_string()))
        .map(|t| t[0] + t[1])
        .sum();
    (own + live) as f64 / TICKS_PER_SEC
}

/// Peak resident set (VmHWM) of a process in KiB.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A process's program name and first argument (for `tcpburst`, the
/// subcommand: `worker` or `serve`).
fn role(pid: u32) -> (String, String) {
    let raw = fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
    let mut args = raw
        .split(|&b| b == 0)
        .map(|a| String::from_utf8_lossy(a).into_owned());
    let program = args.next().unwrap_or_default();
    let program = program.rsplit('/').next().unwrap_or_default().to_string();
    (program, args.next().unwrap_or_default())
}

/// Per role: the most processes alive at once and the largest peak
/// resident set (KiB) any of them reached.
type Roles = BTreeMap<String, (u64, u64)>;

/// Samples this process's live descendants every few milliseconds,
/// recording per role how many run at once and how large they grow.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    roles: Arc<Mutex<Roles>>,
    thread: Option<JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let roles = Arc::new(Mutex::new(Roles::new()));
        let (stop_flag, seen) = (Arc::clone(&stop), Arc::clone(&roles));
        let thread = std::thread::spawn(move || {
            let me = std::process::id();
            let (own_program, _) = role(me);
            while !stop_flag.load(Ordering::Relaxed) {
                let mut now: Roles = BTreeMap::new();
                for pid in descendants(me) {
                    // Our own program is the benchmark, not the system: a
                    // calibration child, or a child between fork and exec
                    // that still wears our command line and address space.
                    let (program, arg) = role(pid);
                    if program == own_program || program.is_empty() {
                        continue;
                    }
                    if let Some(kib) = vm_hwm_kib(&pid.to_string()) {
                        let e = now.entry(format!("{program} {arg}")).or_default();
                        e.0 += 1;
                        e.1 = e.1.max(kib);
                    }
                }
                let mut all = seen.lock().expect("rss roles poisoned");
                for (k, (n, kib)) in now {
                    let e = all.entry(k).or_default();
                    e.0 = e.0.max(n);
                    e.1 = e.1.max(kib);
                }
                drop(all);
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        RssSampler {
            stop,
            roles,
            thread: Some(thread),
        }
    }

    /// Stops sampling and returns the system's peak resident memory in
    /// MiB: this process's own peak plus, per child role, the most
    /// processes of that role alive at once times the largest peak one of
    /// them reached. Summing per role rather than per sample keeps the
    /// figure independent of when a sample happened to land.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("rss sampler thread panicked");
        }
        let own = vm_hwm_kib("self").unwrap_or(0);
        let children: u64 = self
            .roles
            .lock()
            .expect("rss roles poisoned")
            .values()
            .map(|&(n, kib)| n * kib)
            .sum();
        (own + children) as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A child process that is killed and reaped when the guard drops.
pub struct ChildGuard(pub Child);

impl ChildGuard {
    pub fn pid(&self) -> u32 {
        self.0.id()
    }

    /// Waits for a clean exit; the guard's drop still reaps on error paths.
    pub fn wait(mut self) -> std::io::Result<std::process::ExitStatus> {
        self.0.wait()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A scratch directory removed when the guard drops.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(parent: &Path, name: &str) -> std::io::Result<TempDir> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("{name}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Whether `pid` holds an established TCP connection to local `port`:
/// its socket inodes are matched against `/proc/net/tcp` rows whose
/// remote endpoint is the port (state 01 = ESTABLISHED).
pub fn connected_to(pid: u32, port: u16) -> bool {
    let Ok(fds) = fs::read_dir(format!("/proc/{pid}/fd")) else {
        return false;
    };
    let inodes: Vec<String> = fds
        .flatten()
        .filter_map(|fd| fs::read_link(fd.path()).ok())
        .filter_map(|l| {
            let l = l.to_string_lossy().into_owned();
            l.strip_prefix("socket:[")
                .and_then(|s| s.strip_suffix(']'))
                .map(str::to_string)
        })
        .collect();
    if inodes.is_empty() {
        return false;
    }
    let table = fs::read_to_string("/proc/net/tcp").unwrap_or_default();
    let want = format!(":{port:04X}");
    table.lines().skip(1).any(|row| {
        let cols: Vec<&str> = row.split_whitespace().collect();
        cols.len() > 9
            && cols[2].ends_with(&want)
            && cols[3] == "01"
            && inodes.iter().any(|i| i == cols[9])
    })
}
