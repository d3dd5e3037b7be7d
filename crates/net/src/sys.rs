//! The epoll syscall surface — the **only** module in the workspace that
//! contains `unsafe` code.
//!
//! The build environment has no crates.io access, so there is no `libc` or
//! `mio` to lean on: the four epoll entry points (plus `close`) are
//! declared `extern "C"` directly against the C library the binary links
//! anyway. Everything unsafe is confined to this module and wrapped in the
//! safe [`Epoll`] type; the reactor above it is `#![deny(unsafe_code)]`
//! like the rest of the workspace. The module is unit-tested directly
//! (readiness on socket pairs, interest modification, deregistration,
//! error propagation, the microsecond wait and its millisecond fallback).

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_long, c_void};
use std::sync::atomic::{AtomicU64, Ordering};

// ---- process-wide syscall counters ---------------------------------------
//
// Every kernel crossing the reactor makes is tallied here with one relaxed
// atomic increment (the counters are never used for synchronization). The
// totals feed the repo benchmark's ledger (`net.syscalls_per_session`,
// `net.syscalls_per_segment`, …), so a regression that doubles the
// syscalls per session shows there even when wall-clock noise hides it.

static READS: AtomicU64 = AtomicU64::new(0);
static WRITES: AtomicU64 = AtomicU64::new(0);
static WRITEVS: AtomicU64 = AtomicU64::new(0);
static ACCEPTS: AtomicU64 = AtomicU64::new(0);
static EPOLL_WAITS: AtomicU64 = AtomicU64::new(0);

/// Monotonic process-wide totals of the syscalls issued by every reactor
/// in this process (plus their cross-thread wake-up writes). Obtained
/// from [`syscall_counts`]; subtract two snapshots to meter a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyscallCounts {
    /// `read` calls (socket reads and self-pipe drains).
    pub reads: u64,
    /// Plain `write` calls (self-pipe wake-ups).
    pub writes: u64,
    /// `writev` calls (vectored flushes of outbound queues).
    pub writevs: u64,
    /// `accept` calls (including the final `EWOULDBLOCK` probe).
    pub accepts: u64,
    /// `epoll_pwait2` / `epoll_wait` calls (including `EINTR` retries).
    pub epoll_waits: u64,
}

impl SyscallCounts {
    /// Total syscalls across all categories.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.writevs + self.accepts + self.epoll_waits
    }

    /// Component-wise difference against an `earlier` snapshot.
    pub fn since(&self, earlier: &SyscallCounts) -> SyscallCounts {
        SyscallCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            writevs: self.writevs - earlier.writevs,
            accepts: self.accepts - earlier.accepts,
            epoll_waits: self.epoll_waits - earlier.epoll_waits,
        }
    }
}

/// Snapshots the process-wide syscall totals.
pub fn syscall_counts() -> SyscallCounts {
    SyscallCounts {
        reads: READS.load(Ordering::Relaxed),
        writes: WRITES.load(Ordering::Relaxed),
        writevs: WRITEVS.load(Ordering::Relaxed),
        accepts: ACCEPTS.load(Ordering::Relaxed),
        epoll_waits: EPOLL_WAITS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_read() {
    READS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_write() {
    WRITES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_writev() {
    WRITEVS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_accept() {
    ACCEPTS.fetch_add(1, Ordering::Relaxed);
}

/// The file is readable (or a peer hang-up / error makes `read` return
/// without blocking — those are folded into "readable" by [`Event`]).
pub const EPOLLIN: u32 = 0x001;
/// The file is writable.
pub const EPOLLOUT: u32 = 0x004;
/// An error condition happened on the file.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up happened on the file.
pub const EPOLLHUP: u32 = 0x010;
/// The peer closed its writing half of the connection.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const ENOSYS: i32 = 38;

/// `struct epoll_event` from `<sys/epoll.h>`. Packed on x86-64 only,
/// exactly as the kernel ABI (and libc) define it.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

/// `struct timespec` as the 64-bit Linux ABIs define it (`time_t` and
/// `long` are both `long` there).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEpollEvent) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut RawEpollEvent,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut RawEpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file was registered with.
    pub token: u64,
    /// The raw `EPOLL*` readiness bits.
    pub events: u32,
}

impl Event {
    /// Reading will not block: data, EOF, peer shutdown or a pending
    /// error (which `read` also surfaces without blocking).
    pub fn is_readable(&self) -> bool {
        self.events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0
    }

    /// Writing will not block (or will surface the pending error).
    pub fn is_writable(&self) -> bool {
        self.events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }
}

/// A safe wrapper around one epoll instance.
///
/// # Examples
///
/// ```
/// use p2ps_net::sys::{Epoll, EPOLLIN};
/// use std::io::Write;
/// use std::os::fd::AsRawFd;
/// use std::os::unix::net::UnixStream;
///
/// let mut ep = Epoll::new()?;
/// let (mut a, b) = UnixStream::pair()?;
/// ep.add(b.as_raw_fd(), 7, EPOLLIN)?;
/// a.write_all(b"x")?;
/// let mut events = Vec::new();
/// ep.wait(&mut events, 1_000_000)?;
/// assert_eq!(events[0].token, 7);
/// assert!(events[0].is_readable());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
    /// Kernel-filled scratch; sized once, reused every wait.
    buf: Vec<RawEpollEvent>,
    /// Cleared for good the first time the kernel answers `epoll_pwait2`
    /// with `ENOSYS` (Linux < 5.11): from then on [`wait`](Self::wait)
    /// sleeps with `epoll_wait` in whole milliseconds.
    pwait2: bool,
}

// Vec<RawEpollEvent> has no Debug; keep the derive working.
impl std::fmt::Debug for RawEpollEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (events, data) = (self.events, self.data);
        write!(f, "RawEpollEvent {{ events: {events:#x}, data: {data} }}")
    }
}

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The `epoll_create1` errno as an [`io::Error`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags integer and returns a new
        // fd or -1; no pointers are involved.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            fd,
            buf: vec![RawEpollEvent { events: 0, data: 0 }; 1024],
            pwait2: true,
        })
    }

    /// Registers `fd` with the given readiness interest and token.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno — in particular `EEXIST` for a doubly added
    /// fd and `EBADF` for a closed one.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Changes the interest set and token of a registered `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno — `ENOENT` if the fd was never added.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno — `ENOENT` if the fd was never added.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = RawEpollEvent {
            events,
            data: token,
        };
        // A null event pointer is the portable form for EPOLL_CTL_DEL
        // (pre-2.6.9 kernels faulted on non-null).
        let ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut RawEpollEvent
        };
        // SAFETY: `ptr` is either null (DEL) or points at a live,
        // properly laid out RawEpollEvent for the duration of the call;
        // the kernel only reads it.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, ptr) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits up to `timeout_us` microseconds (0 polls) and fills `out`
    /// with the ready events. Never returns early without an event: the
    /// sleep is `epoll_pwait2`'s nanosecond timeout, or — on a kernel
    /// without it — `epoll_wait` with the timeout rounded *up* to a
    /// millisecond. Retries transparently on `EINTR`.
    ///
    /// # Errors
    ///
    /// The `epoll_pwait2` / `epoll_wait` errno (other than `EINTR`).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_us: u64) -> io::Result<usize> {
        out.clear();
        let n = loop {
            EPOLL_WAITS.fetch_add(1, Ordering::Relaxed);
            let rc = if self.pwait2 {
                let timeout = Timespec {
                    tv_sec: (timeout_us / 1_000_000) as c_long,
                    tv_nsec: (timeout_us % 1_000_000 * 1_000) as c_long,
                };
                // SAFETY: `buf` is a live allocation of `buf.len()`
                // correctly laid out events and the kernel writes at most
                // that many; `timeout` outlives the call and is only read;
                // a null signal mask leaves the thread's mask alone.
                unsafe {
                    epoll_pwait2(
                        self.fd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        &timeout,
                        std::ptr::null(),
                    )
                }
            } else {
                let timeout_ms = timeout_us.div_ceil(1_000).min(c_int::MAX as u64) as c_int;
                // SAFETY: `buf` as above; the timeout is passed by value.
                unsafe {
                    epoll_wait(
                        self.fd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as c_int,
                        timeout_ms,
                    )
                }
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if self.pwait2 && err.raw_os_error() == Some(ENOSYS) {
                self.pwait2 = false;
            } else if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.buf[..n] {
            let raw = *raw; // copy out of the (possibly packed) slot
            out.push(Event {
                token: raw.data,
                events: raw.events,
            });
        }
        Ok(n)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed exactly once.
        let _ = unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_after_write_with_the_registered_token() {
        let mut ep = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), 0xfeed, EPOLLIN).unwrap();

        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no data yet, no events");

        a.write_all(b"ping").unwrap();
        ep.wait(&mut events, 1_000_000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 0xfeed);
        assert!(events[0].is_readable());
        assert!(!events[0].is_writable(), "EPOLLOUT was not requested");
    }

    #[test]
    fn modify_switches_interest_to_writable() {
        let mut ep = Epoll::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), 1, EPOLLIN).unwrap();
        ep.modify(b.as_raw_fd(), 2, EPOLLOUT).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 1_000_000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 2, "modify replaces the token too");
        assert!(events[0].is_writable(), "an idle socket is writable");
    }

    #[test]
    fn delete_stops_notifications() {
        let mut ep = Epoll::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), 3, EPOLLIN).unwrap();
        a.write_all(b"x").unwrap();
        ep.delete(b.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 50_000).unwrap();
        assert!(events.is_empty(), "deregistered fd must not report");
    }

    #[test]
    fn peer_close_reports_readable() {
        // EOF must wake a reader: the reactor relies on this to reap
        // connections whose peer went away.
        let mut ep = Epoll::new().unwrap();
        let (a, mut b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), 4, EPOLLIN | EPOLLRDHUP).unwrap();
        drop(a);
        let mut events = Vec::new();
        ep.wait(&mut events, 1_000_000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_readable());
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 0, "and the read sees EOF");
    }

    #[test]
    fn level_triggered_rereports_until_drained() {
        let mut ep = Epoll::new().unwrap();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        ep.add(b.as_raw_fd(), 5, EPOLLIN).unwrap();
        a.write_all(b"abc").unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 1_000_000).unwrap();
        assert_eq!(events.len(), 1, "first report");
        ep.wait(&mut events, 1_000_000).unwrap();
        assert_eq!(events.len(), 1, "still readable, reported again");
        let mut buf = [0u8; 8];
        let _ = b.read(&mut buf).unwrap();
        ep.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained, no further report");
    }

    #[test]
    fn errors_propagate_as_io_errors() {
        let ep = Epoll::new().unwrap();
        let bogus_fd = {
            let (s, _t) = UnixStream::pair().unwrap();
            s.as_raw_fd()
        }; // both ends dropped: the fd is closed by here
        assert!(ep.add(bogus_fd, 0, EPOLLIN).is_err(), "EBADF surfaces");
        let (_a, b) = UnixStream::pair().unwrap();
        assert!(
            ep.modify(b.as_raw_fd(), 0, EPOLLIN).is_err(),
            "ENOENT surfaces for a never-added fd"
        );
        assert!(ep.delete(b.as_raw_fd()).is_err());
    }

    #[test]
    fn zero_timeout_does_not_block() {
        let mut ep = Epoll::new().unwrap();
        let start = std::time::Instant::now();
        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_millis(100));
    }

    fn idle_wait(ep: &mut Epoll, timeout_us: u64) -> std::time::Duration {
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        ep.wait(&mut events, timeout_us).unwrap();
        assert!(events.is_empty(), "nothing is registered");
        start.elapsed()
    }

    #[test]
    fn a_microsecond_timeout_is_neither_cut_short_nor_rounded_to_a_tick() {
        let mut ep = Epoll::new().unwrap();
        // The best of a few tries: the host may take the CPU away for
        // longer than the bound, but not every time.
        let slept = (0..5).map(|_| idle_wait(&mut ep, 300)).min().unwrap();
        assert!(slept >= std::time::Duration::from_micros(300), "{slept:?}");
        if ep.pwait2 {
            assert!(slept < std::time::Duration::from_millis(20), "{slept:?}");
        }
    }

    #[test]
    fn the_millisecond_fallback_rounds_up_and_never_returns_early() {
        let mut ep = Epoll::new().unwrap();
        ep.pwait2 = false; // what an ENOSYS from the kernel leaves behind
        for timeout_us in [1, 300, 1_000, 1_001, 2_500] {
            let slept = idle_wait(&mut ep, timeout_us);
            assert!(
                slept >= std::time::Duration::from_micros(timeout_us),
                "{timeout_us} us wait returned after {slept:?}"
            );
        }
        assert_eq!(idle_wait(&mut ep, 0).as_secs(), 0, "0 still polls");
    }

    #[test]
    fn syscall_counters_record_and_diff() {
        let before = syscall_counts();
        record_read();
        record_write();
        record_writev();
        record_accept();
        let mut ep = Epoll::new().unwrap();
        let mut events = Vec::new();
        ep.wait(&mut events, 0).unwrap();
        let after = syscall_counts();
        let delta = after.since(&before);
        // Other tests run concurrently, so deltas are lower bounds.
        assert!(delta.reads >= 1);
        assert!(delta.writes >= 1);
        assert!(delta.writevs >= 1);
        assert!(delta.accepts >= 1);
        assert!(delta.epoll_waits >= 1);
        assert!(delta.total() >= 5);
    }
}
