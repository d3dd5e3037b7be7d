//! What the benchmark reads from `/proc` about itself and its host.

use std::fs;
use std::sync::OnceLock;

/// A `kB` field of `/proc/self/status`, in bytes; 0 when it is missing.
fn status_bytes(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_bytes("VmHWM") / (1024.0 * 1024.0)
}

/// Current resident set (`VmRSS`) of this process in bytes.
pub fn resident_bytes() -> f64 {
    status_bytes("VmRSS")
}

fn schedstat_ns(path: &str) -> u64 {
    // "<on-cpu ns> <runqueue wait ns> <timeslices>"
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// Nanoseconds of CPU (user + system) this process has used, threads
/// that already exited included. `/proc/self/stat` counts in clock ticks
/// (100 Hz on every Linux this runs on), so read it over whole seconds.
pub fn process_cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(fields.next()) + ticks(fields.next())) * NS_PER_TICK
}

/// Host-wide count of connections dropped because a listener's accept
/// backlog was full (`TcpExt: ListenOverflows`). The client sees such a
/// drop as a connect that takes a second longer.
pub fn listen_overflows() -> u64 {
    let netstat = fs::read_to_string("/proc/net/netstat").unwrap_or_default();
    let mut lines = netstat.lines().filter(|l| l.starts_with("TcpExt:"));
    let (Some(names), Some(values)) = (lines.next(), lines.next()) else {
        return 0;
    };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "ListenOverflows")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

// The two affinity calls of the C library every Rust binary on Linux
// already links. `mask` points to `len` bytes of CPU bitmap; `pid` 0 is
// the calling thread.
extern "C" {
    fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
}

/// CPU bitmap words: room for 1,024 CPUs, the kernel's default limit.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending; empty when the
/// kernel will not say.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the length
    // passed; the call writes at most that many bytes and keeps no pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread — and every thread it spawns from now
/// on, which inherit the mask — to `cpus`. Returns whether the kernel
/// accepted it; a refusal leaves the thread where it was.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|c| **c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the length passed; the
    // call only reads it.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

/// The CPUs this process was given, read once before any thread is
/// pinned (`main` calls this first). Falls back to counting them.
pub fn initial_cpus() -> &'static [usize] {
    static INITIAL: OnceLock<Vec<usize>> = OnceLock::new();
    INITIAL.get_or_init(|| {
        let cpus = allowed_cpus();
        if cpus.is_empty() {
            (0..std::thread::available_parallelism().map_or(1, usize::from)).collect()
        } else {
            cpus
        }
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    initial_cpus().len()
}

/// Soft limit on open file descriptors.
pub fn fd_limit() -> u64 {
    fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))?
                .split_whitespace()
                .nth(3)?
                .parse()
                .ok()
        })
        .unwrap_or(u64::MAX)
}

/// Running kernel release.
pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc -V` of the toolchain on the path.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

/// The checked-out commit, `unknown` outside a git repository.
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
        assert!(fd_limit() >= 16);
        assert!(!kernel().is_empty());
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
        // Whole ticks of 10 ms: a young test process may still read 0.
        assert!(process_cpu_ns().is_multiple_of(10_000_000));
        assert!(initial_cpus().len() == nproc() && nproc() >= 1);
        assert!(
            pin_current_thread(initial_cpus()),
            "re-pinning to the same set"
        );
        assert!(!pin_current_thread(&[]));
    }
}
