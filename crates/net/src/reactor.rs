//! The event loop: nonblocking sockets, buffered writes, timers.
//!
//! One [`Reactor`] thread multiplexes any number of listeners and
//! connections through level-triggered epoll. The reactor owns the
//! *transport* half of every connection — accept, nonblocking reads,
//! a per-connection outbound queue of [`Bytes`] chunks flushed with
//! vectored writes, interest management, and a two-level [`TimerWheel`]
//! — while a [`Handler`] owns the *protocol* half (typically a
//! `p2ps_proto::FrameDecoder` per connection). Bytes go up via
//! [`Handler::on_data`]; frames come back down as zero-copy chunks via
//! [`Ctx::send`]; deadlines are [`Ctx::set_timer`] (relative, in ms: read
//! timeouts) and [`Ctx::set_timer_at_us`] (absolute: paced segment
//! transmissions) round trips.
//!
//! Time is **one microsecond clock** per reactor ([`Ctx::now_us`], since
//! the reactor was created). The wheel runs on it and the loop sleeps
//! with a microsecond timeout until the earliest deadline, so a timer
//! fires as soon after its deadline as the kernel wakes the thread, and
//! never before it. Two pairs of monitor rows say when that took long: `wake_late_total` /
//! `wake_late_us_max` for waits that timed out later than asked, and
//! `turn_overrun_total` / `turn_us_max` for loop turns that held the
//! thread too long between two waits.
//!
//! A loop turn is **bounded**: it dispatches at most [`TIMERS_PER_TURN`]
//! (64) timer callbacks. Due timers beyond that wait in a backlog, in the
//! order they came due, and the next wait only polls (timeout 0), so
//! sockets, accepts and commands are looked at at least once every 64
//! timer callbacks however many timers come due at once: hundreds of
//! paced streams whose deadlines coincide no longer hold a session's
//! reply behind all of their segments. A backlogged timer fires a turn or
//! a few after its deadline, never before it; `timers_deferred_total`
//! counts the timers that did not fire in the turn they came due in.
//!
//! Writes are flushed **per dispatch, not per send**: [`Ctx::send`] only
//! queues the chunk and marks the connection, and when the handler
//! callback that queued returns, every marked connection is flushed once
//! — a frame's header and payload, or all the segments of a pacing
//! catch-up burst, leave in one `writev`. A connection is flushed early
//! when [`MAX_GATHER_SLICES`] chunks wait on it (one `writev` could not
//! carry more anyway), which also keeps [`Ctx::pending_write_bytes`] a
//! measure of what the socket refused rather than of what the callback
//! has queued so far. A connection whose socket refused bytes is not
//! tried again until epoll reports it writable.
//!
//! Other threads talk to a running reactor through its cloneable
//! [`Handle`]: registering listeners, delivering typed commands to the
//! handler, and shutdown — all woken through a self-pipe so the epoll
//! wait never has to poll for them.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use p2ps_monitor::{Counter, Gauge, Monitor};
use p2ps_proto::{ChunkQueue, MAX_GATHER_SLICES};

use crate::sys::{Epoll, Event, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::TimerWheel;

/// Timer wheel tick in µs: how finely the wheel sorts deadlines into
/// slots (not a rounding — a timer fires at its deadline).
const WHEEL_TICK_US: u64 = 64;
/// Slots per wheel level: the fine level spans 32.8 ms, which holds every
/// pacing deadline of a `δt` up to that; one coarse rotation is 16.8 s.
const WHEEL_SLOTS: usize = 512;
/// A timed-out wait that returns this much after its timeout, or a loop
/// turn that keeps the thread this long, is counted as late.
const LATE_US: u64 = 2_000;
/// Most timer callbacks one loop turn dispatches before the loop polls
/// its sockets again. It has to be far below the number of streams a
/// busy reactor paces (a turn that fired 512 pace timers due at one
/// instant held every read, accept and command for ~15 ms) and above
/// what a lightly loaded turn sees, which then runs as if unbounded.
const TIMERS_PER_TURN: usize = 64;

/// Tuning knobs for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// A connection whose outbound queue exceeds this many bytes is
    /// treated as a dead-slow consumer and closed.
    pub max_write_buffer: usize,
    /// Longest epoll sleep when no timer is due sooner (bounds shutdown
    /// latency even if a wake-up is somehow lost).
    pub idle_wait_ms: u64,
    /// Introspection scope this reactor registers its transport metrics
    /// on (connection count, queued write bytes, timer backlog, byte
    /// counters). Defaults to a detached root, so an unwired reactor
    /// costs only the relaxed atomic updates; [`crate::ReactorPool`]
    /// replaces it with a per-shard `reactor={i}` child scope.
    pub monitor: Monitor,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_write_buffer: 64 * 1024 * 1024,
            idle_wait_ms: 100,
            monitor: Monitor::default(),
        }
    }
}

/// Identifies one live connection. Slot indices are reused, so the id
/// carries a generation: operations on a stale id are silently ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    idx: u32,
    gen: u32,
}

/// The protocol side of a reactor: invoked for every transport event.
///
/// Callbacks run on the reactor thread. They may call any [`Ctx`] method,
/// including closing the very connection being dispatched (remaining
/// events for it are dropped).
pub trait Handler {
    /// Typed commands other threads deliver through [`Handle::send`].
    type Cmd: Send + 'static;

    /// A command arrived from a [`Handle`].
    fn on_command(&mut self, ctx: &mut Ctx<'_>, cmd: Self::Cmd);

    /// A listener registered with `tag` accepted `conn`.
    fn on_accept(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, listener_tag: u64);

    /// Bytes arrived on `conn`. Fragmentation is arbitrary; feed them to
    /// an incremental decoder.
    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]);

    /// A timer armed with [`Ctx::set_timer`] for `kind` fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: u32);

    /// `conn` is gone: the peer closed it, an I/O error occurred, or its
    /// outbound queue overran [`ReactorConfig::max_write_buffer`]. Not
    /// called for closes the handler itself requested via [`Ctx::close`]
    /// or [`Ctx::close_after_flush`]. The connection is already removed;
    /// `Ctx` calls on it are no-ops.
    fn on_close(&mut self, ctx: &mut Ctx<'_>, conn: ConnId);
}

enum Control<C> {
    AddListener(TcpListener, u64),
    RemoveListener(u64),
    User(C),
}

/// A cloneable remote control for a running [`Reactor`].
pub struct Handle<C> {
    tx: Sender<Control<C>>,
    waker: Arc<UnixStream>,
    stop: Arc<AtomicBool>,
}

impl<C> Clone for Handle<C> {
    fn clone(&self) -> Self {
        Handle {
            tx: self.tx.clone(),
            waker: Arc::clone(&self.waker),
            stop: Arc::clone(&self.stop),
        }
    }
}

impl<C> std::fmt::Debug for Handle<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

impl<C> Handle<C> {
    /// Hands a bound listener to the reactor; accepted connections reach
    /// the handler's `on_accept` with `tag`. The listener is switched to
    /// nonblocking here, before it crosses threads.
    ///
    /// # Errors
    ///
    /// Propagates the `set_nonblocking` error; delivery itself cannot
    /// fail while the reactor lives (and is silently dropped after
    /// shutdown, like every other control).
    pub fn add_listener(&self, listener: TcpListener, tag: u64) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        self.push(Control::AddListener(listener, tag));
        Ok(())
    }

    /// Removes (and drops) the listener registered with `tag`. Already
    /// accepted connections are unaffected.
    pub fn remove_listener(&self, tag: u64) {
        self.push(Control::RemoveListener(tag));
    }

    /// Delivers a typed command to the handler.
    pub fn send(&self, cmd: C) {
        self.push(Control::User(cmd));
    }

    /// Asks the reactor to exit its run loop. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake();
    }

    fn push(&self, ctl: Control<C>) {
        if self.tx.send(ctl).is_ok() {
            self.wake();
        }
    }

    fn wake(&self) {
        // One byte on the self-pipe; WouldBlock means a wake-up is
        // already pending, which is just as good.
        crate::sys::record_write();
        let _ = (&*self.waker).write(&[1u8]);
    }
}

const BASE_INTEREST: u32 = EPOLLIN | EPOLLRDHUP;

struct Conn {
    stream: TcpStream,
    /// Outbound queue: the gather/partial-advance bookkeeping is the
    /// shared `p2ps_proto::ChunkQueue`, the same type the blocking
    /// `FrameEncoder` drains through.
    wq: ChunkQueue,
    /// Chunks queued since the last flush attempt; non-zero while the
    /// connection sits in [`Inner::dirty`].
    unflushed: usize,
    interest: u32,
    timers: ArmedTimers,
    close_after_flush: bool,
    closing: bool,
    /// Deliver `on_close` at sweep time (peer/error closes only).
    notify: bool,
}

/// The one live arming of each timer kind on a connection, as `(kind,
/// seq)` pairs: the first kind inline, any further ones in `more`. A
/// handler arms one or two kinds per connection, so arming and firing
/// compare a pair or two instead of hashing.
#[derive(Default)]
struct ArmedTimers {
    first: Option<(u32, u64)>,
    more: Vec<(u32, u64)>,
}

impl ArmedTimers {
    /// Makes `seq` the live arming of `kind`, replacing any earlier one.
    fn arm(&mut self, kind: u32, seq: u64) {
        let mut armed = self.first.iter_mut().chain(&mut self.more);
        if let Some(entry) = armed.find(|(k, _)| *k == kind) {
            entry.1 = seq;
        } else if self.first.is_none() {
            self.first = Some((kind, seq));
        } else {
            self.more.push((kind, seq));
        }
    }

    /// Disarms the entry `matches` picks, if any; says whether one was.
    fn remove(&mut self, matches: impl Fn(&(u32, u64)) -> bool) -> bool {
        if self.first.as_ref().is_some_and(&matches) {
            self.first = self.more.pop();
            return true;
        }
        match self.more.iter().position(matches) {
            Some(i) => {
                self.more.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TimerKey {
    idx: u32,
    gen: u32,
    kind: u32,
    seq: u64,
}

/// Transport metrics registered on the reactor's monitor scope at
/// construction time. Every update below is one relaxed atomic — the
/// event loop takes no lock for any of them (the registration lock is
/// only held once, inside [`Reactor::new`]).
struct Stats {
    /// Live connections on this reactor (accepted + adopted − closed).
    connections: Gauge,
    /// Bytes sitting in outbound queues, not yet accepted by sockets.
    queued_write_bytes: Gauge,
    /// Armed timer entries, in the wheel or due and waiting their turn
    /// (refreshed once per loop turn).
    timer_entries: Gauge,
    /// Total bytes read from sockets.
    bytes_read: Counter,
    /// Total bytes the kernel accepted from outbound queues.
    bytes_written: Counter,
    /// Connections accepted from listeners.
    accepts: Counter,
    /// Typed commands delivered through [`Handle::send`].
    commands: Counter,
    /// Timer callbacks actually dispatched to the handler.
    timer_fires: Counter,
    /// Due timers a turn left to later turns ([`TIMERS_PER_TURN`]), each
    /// counted once.
    timers_deferred: Counter,
    /// `read` syscalls this reactor issued (sockets + self-pipe).
    sys_reads: Counter,
    /// `writev` syscalls this reactor issued flushing outbound queues.
    sys_writevs: Counter,
    /// `accept` syscalls this reactor issued (incl. the EWOULDBLOCK probe).
    sys_accepts: Counter,
    /// `epoll_wait` calls this reactor's loop made.
    sys_epoll_waits: Counter,
    /// Timed-out waits that returned more than [`LATE_US`] late.
    wake_late: Counter,
    /// The latest such return, in µs past the timeout.
    wake_late_us_max: Gauge,
    /// Loop turns that took more than [`LATE_US`] from wake-up to the
    /// next wait.
    turn_overrun: Counter,
    /// The longest loop turn, in µs.
    turn_us_max: Gauge,
}

impl Stats {
    fn register(monitor: &Monitor) -> Stats {
        Stats {
            connections: monitor.gauge("connections", "live connections on this reactor"),
            queued_write_bytes: monitor.gauge(
                "queued_write_bytes",
                "outbound bytes queued but not yet accepted by sockets",
            ),
            timer_entries: monitor.gauge("timer_entries", "armed timer entries not yet fired"),
            bytes_read: monitor.counter("bytes_read_total", "bytes read from sockets"),
            bytes_written: monitor.counter("bytes_written_total", "bytes written to sockets"),
            accepts: monitor.counter("accepts_total", "connections accepted from listeners"),
            commands: monitor.counter("commands_total", "typed commands delivered to the handler"),
            timer_fires: monitor.counter("timer_fires_total", "timer callbacks dispatched"),
            timers_deferred: monitor.counter(
                "timers_deferred_total",
                "due timers left to a later loop turn by the per-turn bound",
            ),
            sys_reads: monitor.counter("syscalls_read_total", "read syscalls issued"),
            sys_writevs: monitor.counter("syscalls_writev_total", "writev syscalls issued"),
            sys_accepts: monitor.counter("syscalls_accept_total", "accept syscalls issued"),
            sys_epoll_waits: monitor.counter("syscalls_epoll_wait_total", "epoll_wait calls made"),
            wake_late: monitor.counter(
                "wake_late_total",
                "timed-out waits that returned more than 2 ms after their timeout",
            ),
            wake_late_us_max: monitor.gauge(
                "wake_late_us_max",
                "latest return of a timed-out wait, in us past its timeout",
            ),
            turn_overrun: monitor.counter(
                "turn_overrun_total",
                "loop turns that took more than 2 ms from wake-up to the next wait",
            ),
            turn_us_max: monitor.gauge("turn_us_max", "longest loop turn in us"),
        }
    }

    /// Counts `us` on `late` when it is past [`LATE_US`] and keeps the
    /// largest value seen in `max` (the reactor thread is the only writer).
    fn note_latency(late: &Counter, max: &Gauge, us: u64) {
        if us > LATE_US {
            late.incr();
        }
        if us as i64 > max.get() {
            max.set(us as i64);
        }
    }
}

struct Inner {
    epoll: Epoll,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<u32>,
    listeners: Vec<Option<(TcpListener, u64)>>,
    wheel: TimerWheel<TimerKey>,
    closing: Vec<u32>,
    /// Connections the running handler callback queued chunks on; flushed
    /// when it returns.
    dirty: Vec<ConnId>,
    next_seq: u64,
    start: Instant,
    cfg: ReactorConfig,
    stats: Stats,
}

const TAG_LISTENER: u64 = 1 << 62;
const TAG_CONN: u64 = 2 << 62;
const TOK_WAKER: u64 = u64::MAX;
const GEN_MASK: u64 = (1 << 30) - 1;

fn tok_listener(idx: u32) -> u64 {
    TAG_LISTENER | u64::from(idx)
}

fn tok_conn(idx: u32, gen: u32) -> u64 {
    TAG_CONN | ((u64::from(gen) & GEN_MASK) << 32) | u64::from(idx)
}

impl Inner {
    /// The reactor's one clock: µs since it was created.
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn valid(&self, id: ConnId) -> bool {
        let idx = id.idx as usize;
        idx < self.conns.len()
            && self.gens[idx] == id.gen
            && self.conns[idx].as_ref().is_some_and(|c| !c.closing)
    }

    fn conn_mut(&mut self, id: ConnId) -> Option<&mut Conn> {
        if !self.valid(id) {
            return None;
        }
        self.conns[id.idx as usize].as_mut()
    }

    fn alloc(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.conns.push(None);
                self.gens.push(0);
                (self.conns.len() - 1) as u32
            }
        };
        let gen = self.gens[idx as usize];
        self.epoll
            .add(stream.as_raw_fd(), tok_conn(idx, gen), BASE_INTEREST)?;
        self.conns[idx as usize] = Some(Conn {
            stream,
            wq: ChunkQueue::new(),
            unflushed: 0,
            interest: BASE_INTEREST,
            timers: ArmedTimers::default(),
            close_after_flush: false,
            closing: false,
            notify: false,
        });
        self.stats.connections.add(1);
        Ok(ConnId { idx, gen })
    }

    fn mark_closing(&mut self, id: ConnId, notify: bool) {
        if let Some(conn) = self.conn_mut(id) {
            conn.closing = true;
            conn.notify = notify;
            self.closing.push(id.idx);
        }
    }

    /// Flushes every connection the handler callback that just returned
    /// queued chunks on.
    fn flush_dirty(&mut self) {
        while let Some(id) = self.dirty.pop() {
            self.flush_unless_blocked(id);
        }
    }

    /// [`flush`](Self::flush) of a connection with unflushed chunks,
    /// except when its socket refused bytes last time: epoll's writable
    /// event flushes that one.
    fn flush_unless_blocked(&mut self, id: ConnId) {
        let Some(conn) = self.conn_mut(id) else {
            return;
        };
        // Nothing unflushed: the connection was flushed early, at the
        // gather limit, after it was marked.
        if std::mem::take(&mut conn.unflushed) > 0 && conn.interest & EPOLLOUT == 0 {
            self.flush(id);
        }
    }

    /// Flushes as much of the outbound queue as the socket accepts.
    /// Returns false when the connection errored (already marked).
    fn flush(&mut self, id: ConnId) -> bool {
        loop {
            {
                let Some(conn) = self.conn_mut(id) else {
                    return true;
                };
                if conn.wq.pending_bytes() == 0 {
                    conn.wq.clear(); // zero-length chunks carry no bytes
                    let close = conn.close_after_flush;
                    self.set_writable_interest(id, false);
                    if close {
                        self.mark_closing(id, false);
                    }
                    return true;
                }
            }
            crate::sys::record_writev();
            self.stats.sys_writevs.incr();
            let res = {
                let Some(conn) = self.conn_mut(id) else {
                    return true;
                };
                let mut slices: [IoSlice<'_>; MAX_GATHER_SLICES] =
                    [IoSlice::new(&[]); MAX_GATHER_SLICES];
                let count = conn.wq.gather(&mut slices);
                (&conn.stream).write_vectored(&slices[..count])
            };
            match res {
                Ok(0) => {
                    self.mark_closing(id, true);
                    return false;
                }
                Ok(n) => {
                    if let Some(conn) = self.conn_mut(id) {
                        conn.wq.advance(n);
                    }
                    self.stats.queued_write_bytes.add(-(n as i64));
                    self.stats.bytes_written.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_writable_interest(id, true);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.mark_closing(id, true);
                    return false;
                }
            }
        }
    }

    fn set_writable_interest(&mut self, id: ConnId, on: bool) {
        let Some(conn) = self.conn_mut(id) else {
            return;
        };
        let want = if on {
            BASE_INTEREST | EPOLLOUT
        } else {
            BASE_INTEREST
        };
        if conn.interest != want {
            conn.interest = want;
            let fd = conn.stream.as_raw_fd();
            let _ = self.epoll.modify(fd, tok_conn(id.idx, id.gen), want);
        }
    }
}

/// Reactor-side context handed to every [`Handler`] callback.
pub struct Ctx<'a> {
    inner: &'a mut Inner,
}

impl Ctx<'_> {
    /// Queues one chunk on `conn`'s outbound queue. The queue is flushed
    /// once when the running handler callback returns — however many
    /// chunks it queued, on however many connections — and early whenever
    /// [`MAX_GATHER_SLICES`] chunks wait on `conn`. Chunks are written in
    /// order with vectored writes; a `Bytes` view (e.g. a `FrameEncoder`
    /// payload chunk) is never copied, only sliced as the socket drains
    /// it.
    ///
    /// Silently ignored on a stale or closing connection. A queue that
    /// overruns [`ReactorConfig::max_write_buffer`] closes the connection
    /// (the handler sees `on_close`).
    pub fn send(&mut self, conn: ConnId, chunk: Bytes) {
        let limit = self.inner.cfg.max_write_buffer;
        let len = chunk.len();
        let Some(c) = self.inner.conn_mut(conn) else {
            return;
        };
        c.wq.push(chunk);
        c.unflushed += 1;
        let unflushed = c.unflushed;
        let over = c.wq.pending_bytes() > limit;
        self.inner.stats.queued_write_bytes.add(len as i64);
        if over {
            self.inner.mark_closing(conn, true);
        } else if unflushed >= MAX_GATHER_SLICES {
            self.inner.flush_unless_blocked(conn);
        } else if unflushed == 1 {
            self.inner.dirty.push(conn);
        }
    }

    /// Adopts an already-connected outbound stream into the reactor: the
    /// stream is switched to nonblocking, registered with epoll and
    /// handled exactly like an accepted connection (reads surface via
    /// [`Handler::on_data`], writes queue through [`send`](Self::send)).
    ///
    /// This is how client-side sessions (e.g. a requesting peer's
    /// supplier connections) become reactor-hosted: some other thread
    /// performs the blocking connect/handshake, then ships the stream to
    /// the reactor inside a typed command, whose handler adopts it. Any
    /// bytes already buffered in the kernel are reported on the next
    /// event-loop turn (level-triggered readiness).
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking` / epoll registration failures; the
    /// stream is dropped (closed) on error.
    pub fn adopt(&mut self, stream: TcpStream) -> io::Result<ConnId> {
        self.inner.alloc(stream)
    }

    /// Closes `conn` now, discarding any unsent bytes — chunks the running
    /// callback queued included; use
    /// [`close_after_flush`](Self::close_after_flush) to say goodbye
    /// first. The handler gets no `on_close` for a close it asked for.
    pub fn close(&mut self, conn: ConnId) {
        if let Some(c) = self.inner.conn_mut(conn) {
            let discarded = c.wq.pending_bytes();
            c.wq.clear();
            self.inner.stats.queued_write_bytes.add(-(discarded as i64));
        }
        self.inner.mark_closing(conn, false);
    }

    /// Closes `conn` once its outbound queue has fully drained (for
    /// "reply then hang up" exchanges). No `on_close` is delivered.
    pub fn close_after_flush(&mut self, conn: ConnId) {
        let Some(c) = self.inner.conn_mut(conn) else {
            return;
        };
        if c.wq.pending_bytes() == 0 {
            self.inner.mark_closing(conn, false);
        } else {
            c.close_after_flush = true;
        }
    }

    /// Arms (or re-arms, replacing the previous deadline) the `kind`
    /// timer of `conn` to fire `delay_ms` milliseconds from now — the
    /// form for timeouts. See [`set_timer_at_us`](Self::set_timer_at_us)
    /// for when it fires.
    pub fn set_timer(&mut self, conn: ConnId, kind: u32, delay_ms: u64) {
        let deadline_us = self.inner.now_us() + delay_ms * 1_000;
        self.set_timer_at_us(conn, kind, deadline_us);
    }

    /// Arms (or re-arms, replacing the previous deadline) the `kind`
    /// timer of `conn` to fire at `deadline_us` on the reactor's clock
    /// ([`now_us`](Self::now_us)) — the form for a schedule, whose
    /// deadlines must not drift with the time each one was armed at. The
    /// loop sleeps until the deadline and the timer comes due in the
    /// first turn at or after it, never before; one already past comes
    /// due in the next turn. A due timer fires in that turn unless 64
    /// callbacks of timers that came due before it run first: then it
    /// waits for a later turn, keeping its place in line.
    pub fn set_timer_at_us(&mut self, conn: ConnId, kind: u32, deadline_us: u64) {
        let seq = self.inner.next_seq;
        self.inner.next_seq += 1;
        let Some(c) = self.inner.conn_mut(conn) else {
            return;
        };
        c.timers.arm(kind, seq);
        self.inner.wheel.insert(
            deadline_us,
            TimerKey {
                idx: conn.idx,
                gen: conn.gen,
                kind,
                seq,
            },
        );
    }

    /// Disarms the `kind` timer of `conn`, if armed.
    pub fn cancel_timer(&mut self, conn: ConnId, kind: u32) {
        if let Some(c) = self.inner.conn_mut(conn) {
            c.timers.remove(|&(k, _)| k == kind);
        }
    }

    /// Microseconds since the reactor was created: the clock of
    /// [`set_timer_at_us`](Self::set_timer_at_us) deadlines.
    pub fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    /// [`now_us`](Self::now_us) in whole milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.inner.now_us() / 1_000
    }

    /// Bytes queued but not yet accepted by `conn`'s socket — the
    /// backpressure signal for pacing decisions. Beyond what the socket
    /// refused it counts at most the [`MAX_GATHER_SLICES`]` - 1` chunks
    /// the running callback queued since the last flush.
    pub fn pending_write_bytes(&self, conn: ConnId) -> usize {
        if !self.inner.valid(conn) {
            return 0;
        }
        self.inner.conns[conn.idx as usize]
            .as_ref()
            .map_or(0, |c| c.wq.pending_bytes())
    }

    /// Number of live connections.
    pub fn conn_count(&self) -> usize {
        self.inner
            .conns
            .iter()
            .flatten()
            .filter(|c| !c.closing)
            .count()
    }
}

/// A single-threaded epoll event loop generic over the handler's command
/// type. See the [crate docs](crate) for the division of labor.
///
/// # Examples
///
/// An echo server on one reactor thread:
///
/// ```
/// use p2ps_net::{Ctx, ConnId, Handler, Reactor, ReactorConfig};
/// use std::io::{Read, Write};
///
/// struct Echo;
/// impl Handler for Echo {
///     type Cmd = ();
///     fn on_command(&mut self, _: &mut Ctx<'_>, _: ()) {}
///     fn on_accept(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u64) {}
///     fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
///         ctx.send(conn, bytes::Bytes::from(data.to_vec()));
///     }
///     fn on_timer(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u32) {}
///     fn on_close(&mut self, _: &mut Ctx<'_>, _: ConnId) {}
/// }
///
/// let (reactor, handle) = Reactor::new(ReactorConfig::default())?;
/// let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
/// let addr = listener.local_addr()?;
/// handle.add_listener(listener, 0)?;
/// let thread = std::thread::spawn(move || reactor.run(&mut Echo));
///
/// let mut client = std::net::TcpStream::connect(addr)?;
/// client.write_all(b"ping")?;
/// let mut buf = [0u8; 4];
/// client.read_exact(&mut buf)?;
/// assert_eq!(&buf, b"ping");
///
/// handle.shutdown();
/// thread.join().unwrap()?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Reactor<C> {
    inner: Inner,
    rx: Receiver<Control<C>>,
    waker_rx: UnixStream,
    stop: Arc<AtomicBool>,
}

impl<C> std::fmt::Debug for Reactor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("conns", &self.inner.conns.iter().flatten().count())
            .finish()
    }
}

impl<C: Send + 'static> Reactor<C> {
    /// Creates a reactor and its [`Handle`]. Nothing runs until
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates epoll / self-pipe creation errors.
    pub fn new(cfg: ReactorConfig) -> io::Result<(Self, Handle<C>)> {
        let epoll = Epoll::new()?;
        let (waker_tx, waker_rx) = UnixStream::pair()?;
        waker_tx.set_nonblocking(true)?;
        waker_rx.set_nonblocking(true)?;
        epoll.add(waker_rx.as_raw_fd(), TOK_WAKER, EPOLLIN)?;
        let (tx, rx) = std::sync::mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Stats::register(&cfg.monitor);
        let reactor = Reactor {
            inner: Inner {
                epoll,
                conns: Vec::new(),
                gens: Vec::new(),
                free: Vec::new(),
                listeners: Vec::new(),
                wheel: TimerWheel::new(WHEEL_TICK_US, WHEEL_SLOTS),
                closing: Vec::new(),
                dirty: Vec::new(),
                next_seq: 0,
                start: Instant::now(),
                cfg,
                stats,
            },
            rx,
            waker_rx,
            stop: Arc::clone(&stop),
        };
        let handle = Handle {
            tx,
            waker: Arc::new(waker_tx),
            stop,
        };
        Ok((reactor, handle))
    }

    /// Runs the event loop until [`Handle::shutdown`]. Every connection
    /// and listener is dropped (closed) on exit.
    ///
    /// # Errors
    ///
    /// Only fatal `epoll_wait` failures; per-connection errors surface as
    /// [`Handler::on_close`] instead.
    pub fn run<H: Handler<Cmd = C>>(mut self, handler: &mut H) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<TimerKey> = Vec::new();
        // Due timers not dispatched yet, in the order they came due.
        let mut due: VecDeque<TimerKey> = VecDeque::new();
        let mut scratch = vec![0u8; 64 * 1024];
        // When the previous wait returned: where the running turn began.
        let mut woke: Option<u64> = None;
        while !self.stop.load(Ordering::Relaxed) {
            let stats = &self.inner.stats;
            let asleep = self.inner.now_us();
            if let Some(woke) = woke {
                Stats::note_latency(&stats.turn_overrun, &stats.turn_us_max, asleep - woke);
            }
            // With due timers left over the wait only polls: it is not
            // asked to sleep, so it cannot wake late either.
            let backlog = due.len();
            let timeout = if backlog > 0 {
                0
            } else {
                let idle_us = self.inner.cfg.idle_wait_ms * 1_000;
                self.inner.wheel.next_timeout(asleep, idle_us)
            };
            self.inner.epoll.wait(&mut events, timeout)?;
            self.inner.stats.sys_epoll_waits.incr();
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            let mut now = self.inner.now_us();
            woke = Some(now);
            let timed_out = events.is_empty();
            if timed_out && backlog == 0 {
                let late = now.saturating_sub(asleep + timeout);
                Stats::note_latency(&stats.wake_late, &stats.wake_late_us_max, late);
            }
            for ev in events.drain(..) {
                if ev.token == TOK_WAKER {
                    self.drain_waker();
                    self.process_controls(handler);
                } else if ev.token & TAG_CONN != 0 {
                    let idx = (ev.token & 0xffff_ffff) as u32;
                    let gen = ((ev.token >> 32) & GEN_MASK) as u32;
                    let id = ConnId { idx, gen };
                    if ev.is_readable() {
                        self.read_ready(id, handler, &mut scratch);
                    }
                    if ev.is_writable() {
                        self.inner.flush(id);
                    }
                } else if ev.token & TAG_LISTENER != 0 {
                    let idx = (ev.token & 0xffff_ffff) as usize;
                    self.accept_ready(idx, handler);
                }
            }
            if !timed_out {
                now = self.inner.now_us(); // the handlers took their time
            }
            self.inner.wheel.advance(now, &mut fired);
            due.extend(fired.drain(..));
            let taken = self.fire_due(&mut due, handler);
            // What is left is the backlog's unfired rest plus this turn's
            // own newcomers; only the newcomers are counted.
            let deferred = due.len() - backlog.saturating_sub(taken);
            self.inner.stats.timers_deferred.add(deferred as u64);
            self.sweep_closed(handler);
            let armed = self.inner.wheel.len() + due.len();
            self.inner.stats.timer_entries.set(armed as i64);
        }
        Ok(())
    }

    /// Runs one handler callback, then flushes every connection it queued
    /// chunks on — the only way a callback is invoked.
    fn dispatch<H>(&mut self, handler: &mut H, call: impl FnOnce(&mut H, &mut Ctx<'_>)) {
        call(
            handler,
            &mut Ctx {
                inner: &mut self.inner,
            },
        );
        self.inner.flush_dirty();
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            crate::sys::record_read();
            self.inner.stats.sys_reads.incr();
            // A short read emptied the pipe, like a socket's below.
            if !matches!((&self.waker_rx).read(&mut buf), Ok(n) if n == buf.len()) {
                return;
            }
        }
    }

    fn process_controls<H: Handler<Cmd = C>>(&mut self, handler: &mut H) {
        while let Ok(ctl) = self.rx.try_recv() {
            match ctl {
                Control::AddListener(listener, tag) => {
                    let idx = self
                        .inner
                        .listeners
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or_else(|| {
                            self.inner.listeners.push(None);
                            self.inner.listeners.len() - 1
                        });
                    match self.inner.epoll.add(
                        listener.as_raw_fd(),
                        tok_listener(idx as u32),
                        EPOLLIN,
                    ) {
                        Ok(()) => self.inner.listeners[idx] = Some((listener, tag)),
                        Err(e) => {
                            // The caller's add_listener already returned:
                            // this must not vanish silently — dropping the
                            // listener closes a port someone was handed.
                            eprintln!(
                                "p2ps-net: failed to register listener (tag {tag}) with epoll: {e}; \
                                 the listener is closed and its port will refuse connections"
                            );
                        }
                    }
                }
                Control::RemoveListener(tag) => {
                    for slot in &mut self.inner.listeners {
                        if slot.as_ref().is_some_and(|(_, t)| *t == tag) {
                            if let Some((listener, _)) = slot.take() {
                                let _ = self.inner.epoll.delete(listener.as_raw_fd());
                            }
                        }
                    }
                }
                Control::User(cmd) => {
                    self.inner.stats.commands.incr();
                    self.dispatch(handler, |h, ctx| h.on_command(ctx, cmd));
                }
            }
        }
    }

    fn accept_ready<H: Handler<Cmd = C>>(&mut self, lidx: usize, handler: &mut H) {
        loop {
            crate::sys::record_accept();
            self.inner.stats.sys_accepts.incr();
            let accepted = match self.inner.listeners.get(lidx).and_then(Option::as_ref) {
                Some((listener, tag)) => (listener.accept(), *tag),
                None => return,
            };
            match accepted {
                (Ok((stream, _peer)), tag) => {
                    let Ok(id) = self.inner.alloc(stream) else {
                        continue;
                    };
                    self.inner.stats.accepts.incr();
                    self.dispatch(handler, |h, ctx| h.on_accept(ctx, id, tag));
                }
                (Err(e), _) if e.kind() == io::ErrorKind::WouldBlock => return,
                (Err(e), _) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (ECONNABORTED
                // etc.): skip this one, keep the listener.
                (Err(_), _) => return,
            }
        }
    }

    fn read_ready<H: Handler<Cmd = C>>(&mut self, id: ConnId, handler: &mut H, scratch: &mut [u8]) {
        // Level-triggered epoll re-reports unread data, so a bounded
        // number of reads per event keeps one firehose connection from
        // starving the rest — and a read that does not fill the buffer
        // has drained the socket, so nothing is spent on asking again
        // (EOF, too, is re-reported).
        for _ in 0..8 {
            if !self.inner.valid(id) {
                return;
            }
            crate::sys::record_read();
            self.inner.stats.sys_reads.incr();
            let res = {
                let conn = self.inner.conns[id.idx as usize].as_ref().expect("valid");
                (&conn.stream).read(scratch)
            };
            match res {
                Ok(0) => {
                    self.inner.mark_closing(id, true);
                    return;
                }
                Ok(n) => {
                    self.inner.stats.bytes_read.add(n as u64);
                    self.dispatch(handler, |h, ctx| h.on_data(ctx, id, &scratch[..n]));
                    if n < scratch.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.inner.mark_closing(id, true);
                    return;
                }
            }
        }
    }

    /// Fires due timers from the front of `due` until [`TIMERS_PER_TURN`]
    /// callbacks ran or none is left, dropping stale entries on the way.
    /// Returns how many entries it took.
    fn fire_due<H: Handler<Cmd = C>>(
        &mut self,
        due: &mut VecDeque<TimerKey>,
        handler: &mut H,
    ) -> usize {
        let (mut taken, mut callbacks) = (0, 0);
        while callbacks < TIMERS_PER_TURN {
            let Some(key) = due.pop_front() else {
                break;
            };
            taken += 1;
            callbacks += usize::from(self.fire_timer(key, handler));
        }
        taken
    }

    /// Dispatches `key` unless it is stale; says whether it did.
    fn fire_timer<H: Handler<Cmd = C>>(&mut self, key: TimerKey, handler: &mut H) -> bool {
        let id = ConnId {
            idx: key.idx,
            gen: key.gen,
        };
        let Some(conn) = self.inner.conn_mut(id) else {
            return false; // connection gone or recycled: stale timer
        };
        // Only the latest arming of this kind is live; older ones were
        // cancelled or replaced.
        if !conn.timers.remove(|&entry| entry == (key.kind, key.seq)) {
            return false;
        }
        self.inner.stats.timer_fires.incr();
        self.dispatch(handler, |h, ctx| h.on_timer(ctx, id, key.kind));
        true
    }

    fn sweep_closed<H: Handler<Cmd = C>>(&mut self, handler: &mut H) {
        // A connection marked twice appears twice in the list; the second
        // pop finds its slot already empty and moves on.
        while let Some(idx) = self.inner.closing.pop() {
            let Some(conn) = self.inner.conns[idx as usize].take() else {
                continue;
            };
            let gen = self.inner.gens[idx as usize];
            let notify = conn.notify;
            let _ = self.inner.epoll.delete(conn.stream.as_raw_fd());
            self.inner.gens[idx as usize] = (gen + 1) & (GEN_MASK as u32);
            self.inner.free.push(idx);
            self.inner.stats.connections.add(-1);
            self.inner
                .stats
                .queued_write_bytes
                .add(-(conn.wq.pending_bytes() as i64));
            drop(conn); // closes the socket
            if notify {
                self.dispatch(handler, |h, ctx| h.on_close(ctx, ConnId { idx, gen }));
            }
        }
    }
}
