//! Integration tests driving a live reactor thread over loopback TCP.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use p2ps_monitor::Monitor;
use p2ps_net::{ConnId, Ctx, Handler, Reactor, ReactorConfig};
use p2ps_proto::MAX_GATHER_SLICES;

/// Replies to every received chunk, closes idle connections after a read
/// timeout, and emits a one-byte "tick" on a pacing timer.
struct TestHandler {
    read_timeout_ms: u64,
    ticks: Option<(u64, u32)>, // (interval_ms, count)
    closed: Arc<AtomicUsize>,
}

const K_READ: u32 = 0;
const K_TICK: u32 = 1;

impl Handler for TestHandler {
    type Cmd = ();

    fn on_command(&mut self, _ctx: &mut Ctx<'_>, _cmd: ()) {}

    fn on_accept(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _tag: u64) {
        ctx.set_timer(conn, K_READ, self.read_timeout_ms);
        if let Some((interval, _)) = self.ticks {
            ctx.set_timer(conn, K_TICK, interval);
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        ctx.set_timer(conn, K_READ, self.read_timeout_ms); // reset
        if data == b"bye" {
            ctx.send(conn, Bytes::from(&b"!"[..]));
            ctx.close_after_flush(conn);
            return;
        }
        ctx.send(conn, Bytes::from(data.to_vec()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: u32) {
        match kind {
            K_READ => ctx.close(conn),
            K_TICK => {
                ctx.send(conn, Bytes::from(&b"t"[..]));
                if let Some((interval, ref mut left)) = self.ticks {
                    *left -= 1;
                    if *left > 0 {
                        ctx.set_timer(conn, K_TICK, interval);
                    } else {
                        ctx.close_after_flush(conn);
                    }
                }
            }
            _ => unreachable!("unknown timer kind"),
        }
    }

    fn on_close(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }
}

type ReactorThread = std::thread::JoinHandle<std::io::Result<()>>;

/// Runs `handler` on a reactor thread of its own behind a fresh loopback
/// listener.
fn serve<H: Handler<Cmd = ()> + Send + 'static>(
    cfg: ReactorConfig,
    mut handler: H,
) -> (std::net::SocketAddr, p2ps_net::Handle<()>, ReactorThread) {
    let (reactor, handle) = Reactor::new(cfg).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    handle.add_listener(listener, 7).unwrap();
    let thread = std::thread::spawn(move || reactor.run(&mut handler));
    (addr, handle, thread)
}

fn start(
    handler_cfg: (u64, Option<(u64, u32)>),
) -> (
    std::net::SocketAddr,
    p2ps_net::Handle<()>,
    ReactorThread,
    Arc<AtomicUsize>,
) {
    let closed = Arc::new(AtomicUsize::new(0));
    let (read_timeout_ms, ticks) = handler_cfg;
    let handler = TestHandler {
        read_timeout_ms,
        ticks,
        closed: Arc::clone(&closed),
    };
    let (addr, handle, thread) = serve(ReactorConfig::default(), handler);
    (addr, handle, thread, closed)
}

#[test]
fn many_echo_clients_on_one_thread() {
    let (addr, handle, thread, _) = start((60_000, None));
    let mut clients: Vec<TcpStream> = (0..100)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // Interleave writes across every client before reading any reply:
    // a serial server would deadlock or stall here.
    for (i, c) in clients.iter_mut().enumerate() {
        c.write_all(format!("hello-{i}").as_bytes()).unwrap();
    }
    for (i, c) in clients.iter_mut().enumerate() {
        let expected = format!("hello-{i}");
        let mut buf = vec![0u8; expected.len()];
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.read_exact(&mut buf).unwrap();
        assert_eq!(buf, expected.as_bytes());
    }
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn read_timeout_closes_idle_connections_without_blocking_others() {
    let (addr, handle, thread, closed) = start((100, None));
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut active = TcpStream::connect(addr).unwrap();
    let start_t = Instant::now();
    // The active client keeps chatting while the idle one times out.
    for _ in 0..5 {
        active.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        active
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        active.read_exact(&mut buf).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    assert!(start_t.elapsed() >= Duration::from_millis(150));
    // By now the idle connection must have been closed by its timer.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(idle.read(&mut buf).unwrap(), 0, "idle conn saw EOF");
    handle.shutdown();
    thread.join().unwrap().unwrap();
    assert_eq!(
        closed.load(Ordering::Relaxed),
        0,
        "timer closes are handler-initiated: no on_close"
    );
}

#[test]
fn pacing_timers_deliver_on_schedule_then_flush_close() {
    let (addr, handle, thread, _) = start((60_000, Some((20, 5))));
    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start_t = Instant::now();
    let mut got = Vec::new();
    let mut buf = [0u8; 16];
    loop {
        match c.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
    let elapsed = start_t.elapsed();
    assert_eq!(got, b"ttttt", "five paced ticks then EOF");
    assert!(
        elapsed >= Duration::from_millis(95),
        "5 ticks at 20 ms spacing cannot finish in {elapsed:?}"
    );
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn peer_close_notifies_handler() {
    let (addr, handle, thread, closed) = start((60_000, None));
    let c = TcpStream::connect(addr).unwrap();
    // Make sure the conn is registered before we drop it.
    std::thread::sleep(Duration::from_millis(50));
    drop(c);
    let deadline = Instant::now() + Duration::from_secs(5);
    while closed.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(closed.load(Ordering::Relaxed), 1, "handler saw the close");
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn close_after_flush_delivers_the_goodbye_byte() {
    let (addr, handle, thread, _) = start((60_000, None));
    for _ in 0..10 {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"bye").unwrap();
        let mut all = Vec::new();
        c.read_to_end(&mut all).unwrap();
        assert_eq!(all, b"!", "reply arrives before the close");
    }
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn listeners_can_come_and_go_at_runtime() {
    let (addr1, handle, thread, _) = start((60_000, None));
    let extra = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr2 = extra.local_addr().unwrap();
    handle.add_listener(extra, 8).unwrap();
    for addr in [addr1, addr2] {
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        c.read_exact(&mut buf).unwrap();
    }
    handle.remove_listener(8);
    // Removal is asynchronous; poll until connects start failing or the
    // accepted conn is never served. After removal the OS refuses new
    // connections to addr2 once the listener socket is closed.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut refused = false;
    while Instant::now() < deadline {
        match TcpStream::connect_timeout(&addr2, Duration::from_millis(200)) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(refused, "removed listener keeps accepting");
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// Answers each request in ONE `on_data` callback with as many `send`s
/// as the request asks for: `[b's', n]` queues `n` one-byte chunks,
/// `[b'c', n]` queues `n` chunks of 64 KiB and then closes after flush,
/// `[b'o']` queues 1 KiB chunks until the write buffer overruns.
struct BurstHandler {
    closed: Arc<AtomicUsize>,
}

const BIG_CHUNK: usize = 64 * 1024;

impl Handler for BurstHandler {
    type Cmd = ();

    fn on_command(&mut self, _: &mut Ctx<'_>, (): ()) {}
    fn on_accept(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u64) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u32) {}

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        match *data {
            [b's', n] => {
                for i in 0..n {
                    ctx.send(conn, Bytes::from(vec![i]));
                }
            }
            [b'c', n] => {
                for i in 0..n {
                    ctx.send(conn, Bytes::from(vec![i; BIG_CHUNK]));
                }
                ctx.close_after_flush(conn);
            }
            [b'o'] => {
                for _ in 0..64 {
                    ctx.send(conn, Bytes::from(vec![0u8; 1024]));
                }
            }
            _ => unreachable!("unknown request {data:?}"),
        }
    }

    fn on_close(&mut self, _: &mut Ctx<'_>, _: ConnId) {
        self.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// One of a reactor's own monitor rows.
fn counter(monitor: &Monitor, name: &str) -> i64 {
    let snap = monitor.snapshot();
    snap.find(&[], name).expect("registered").value().as_i64()
}

struct Burst {
    addr: std::net::SocketAddr,
    handle: p2ps_net::Handle<()>,
    thread: ReactorThread,
    closed: Arc<AtomicUsize>,
    monitor: Monitor,
}

impl Burst {
    fn start(max_write_buffer: usize) -> Burst {
        let monitor = Monitor::root();
        let cfg = ReactorConfig {
            max_write_buffer,
            monitor: monitor.clone(),
            ..ReactorConfig::default()
        };
        let closed = Arc::new(AtomicUsize::new(0));
        let handler = BurstHandler {
            closed: Arc::clone(&closed),
        };
        let (addr, handle, thread) = serve(cfg, handler);
        Burst {
            addr,
            handle,
            thread,
            closed,
            monitor,
        }
    }

    fn connect(&self) -> TcpStream {
        let c = TcpStream::connect(self.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c
    }

    /// This reactor's own `writev` count — what `sys::syscall_counts`
    /// totals over every reactor of the process, which here includes the
    /// sibling tests' reactors.
    fn writevs(&self) -> i64 {
        counter(&self.monitor, "syscalls_writev_total")
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().unwrap().unwrap();
    }
}

#[test]
fn sends_of_one_callback_leave_in_one_writev() {
    let burst = Burst::start(1 << 20);
    let mut c = burst.connect();
    // Under the gather limit: one flush when the callback returns. Past
    // it: one early flush at the limit, one for the rest.
    for (sends, writevs) in [
        (1, 1),
        (MAX_GATHER_SLICES - 1, 1),
        (MAX_GATHER_SLICES + 10, 2),
    ] {
        let before = burst.writevs();
        c.write_all(&[b's', sends as u8]).unwrap();
        let mut got = vec![0u8; sends];
        c.read_exact(&mut got).unwrap();
        let expected: Vec<u8> = (0..sends as u8).collect();
        assert_eq!(got, expected, "{sends} sends: bytes in order");
        assert_eq!(
            burst.writevs() - before,
            writevs,
            "{sends} sends in one callback"
        );
    }
    burst.stop();
}

#[test]
fn close_after_flush_right_after_queued_sends_delivers_every_byte() {
    // 6 MiB queued in one callback and closed in the same breath: far
    // more than a loopback socket takes at once, so the close has to
    // wait out several writable events.
    const CHUNKS: u8 = 96;
    let burst = Burst::start(64 << 20);
    let mut c = burst.connect();
    c.write_all(&[b'c', CHUNKS]).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the socket fill
    let mut all = Vec::new();
    c.read_to_end(&mut all).unwrap();
    assert_eq!(all.len(), CHUNKS as usize * BIG_CHUNK);
    for (i, chunk) in all.chunks(BIG_CHUNK).enumerate() {
        assert!(chunk.iter().all(|b| *b == i as u8), "chunk {i} intact");
    }
    assert_eq!(
        burst.closed.load(Ordering::Relaxed),
        0,
        "a close the handler asked for is not reported back"
    );
    burst.stop();
}

#[test]
fn overrunning_the_write_buffer_inside_one_callback_closes_with_on_close() {
    let burst = Burst::start(16 * 1024);
    let mut c = burst.connect();
    c.write_all(b"o").unwrap();
    // The connection is dropped, not drained: EOF (or a reset) well
    // short of the 64 KiB the callback tried to queue.
    let mut all = Vec::new();
    let _ = c.read_to_end(&mut all);
    assert!(all.len() <= 16 * 1024, "{} bytes got through", all.len());
    let deadline = Instant::now() + Duration::from_secs(5);
    while burst.closed.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        burst.closed.load(Ordering::Relaxed),
        1,
        "on_close delivered"
    );
    burst.stop();
}

/// Counts what reaches `on_data`: callbacks, bytes, and callbacks that
/// filled the reactor's whole 64 KiB read buffer.
#[derive(Default)]
struct ReadLog {
    calls: AtomicUsize,
    bytes: AtomicUsize,
    full: AtomicUsize,
}

struct SinkHandler(Arc<ReadLog>);

const READ_BUFFER: usize = 64 * 1024;

impl Handler for SinkHandler {
    type Cmd = ();

    fn on_command(&mut self, _: &mut Ctx<'_>, (): ()) {}
    fn on_timer(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u32) {}
    fn on_close(&mut self, _: &mut Ctx<'_>, _: ConnId) {}

    fn on_accept(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _: u64) {
        ctx.set_timer(conn, K_READ, 30_000);
    }

    fn on_data(&mut self, _: &mut Ctx<'_>, _: ConnId, data: &[u8]) {
        self.0.calls.fetch_add(1, Ordering::Relaxed);
        self.0
            .full
            .fetch_add(usize::from(data.len() == READ_BUFFER), Ordering::Relaxed);
        self.0.bytes.fetch_add(data.len(), Ordering::Release);
    }
}

struct Sink {
    addr: std::net::SocketAddr,
    handle: p2ps_net::Handle<()>,
    thread: ReactorThread,
    log: Arc<ReadLog>,
    monitor: Monitor,
}

impl Sink {
    fn start() -> Sink {
        let monitor = Monitor::root();
        let cfg = ReactorConfig {
            monitor: monitor.clone(),
            ..ReactorConfig::default()
        };
        let log = Arc::new(ReadLog::default());
        let (addr, handle, thread) = serve(cfg, SinkHandler(Arc::clone(&log)));
        Sink {
            addr,
            handle,
            thread,
            log,
            monitor,
        }
    }

    /// Blocks until the handler has seen `bytes` bytes in total.
    fn await_bytes(&self, bytes: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.log.bytes.load(Ordering::Acquire) < bytes {
            assert!(
                Instant::now() < deadline,
                "the reactor never read {bytes} bytes"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().unwrap().unwrap();
    }
}

#[test]
fn a_short_read_is_not_followed_by_a_probe_read() {
    let sink = Sink::start();
    let mut c = TcpStream::connect(sink.addr).unwrap();
    c.write_all(b"warm").unwrap();
    sink.await_bytes(4); // the listener wake-up and the accept are behind us

    // One small message: one readiness event, one read. The read came
    // back short of the buffer, which proves the socket empty.
    let reads = counter(&sink.monitor, "syscalls_read_total");
    c.write_all(b"hello").unwrap();
    sink.await_bytes(4 + 5);
    // Were an EAGAIN probe to follow, it would have been issued before
    // the handler could be seen to have the bytes — or right after.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(counter(&sink.monitor, "syscalls_read_total") - reads, 1);

    // A message of many buffers: every read returns bytes, and only one
    // that filled the buffer (which proves nothing) is followed by
    // another. How the kernel cuts the stream into readiness events is
    // its business, so the bound is per read: reads = callbacks, plus at
    // most one empty-handed probe per buffer-filling read.
    const BIG: usize = 10 * READ_BUFFER + 1_000;
    let (reads, calls, full) = (
        counter(&sink.monitor, "syscalls_read_total"),
        sink.log.calls.load(Ordering::Relaxed),
        sink.log.full.load(Ordering::Relaxed),
    );
    c.write_all(&vec![7u8; BIG]).unwrap();
    sink.await_bytes(4 + 5 + BIG);
    std::thread::sleep(Duration::from_millis(20));
    let reads = (counter(&sink.monitor, "syscalls_read_total") - reads) as usize;
    let calls = sink.log.calls.load(Ordering::Relaxed) - calls;
    let full = sink.log.full.load(Ordering::Relaxed) - full;
    assert!(
        reads >= BIG.div_ceil(READ_BUFFER),
        "{reads} reads for {BIG} bytes"
    );
    assert!(
        (calls..=calls + full).contains(&reads),
        "{reads} reads for {calls} callbacks, {full} of them buffer-filling"
    );
    sink.stop();
}

#[test]
fn an_idle_reactor_with_a_far_timer_sleeps_its_idle_wait() {
    // One connection, one 30 s read timer, no traffic: the loop has
    // nothing to wake for but its 100 ms idle wait. (A wheel that reports
    // "the next non-empty slot" regardless of the rotation the timer
    // belongs to wakes once per rotation instead.)
    let sink = Sink::start();
    let mut c = TcpStream::connect(sink.addr).unwrap();
    c.write_all(b"warm").unwrap();
    sink.await_bytes(4);
    let waits = counter(&sink.monitor, "syscalls_epoll_wait_total");
    std::thread::sleep(Duration::from_millis(300));
    let waits = counter(&sink.monitor, "syscalls_epoll_wait_total") - waits;
    assert!(waits <= 5, "{waits} epoll waits in 300 idle ms");
    assert_eq!(counter(&sink.monitor, "timer_entries"), 1);
    sink.stop();
}

/// Timers the backlog tests arm on one connection, all due together.
const DUE_AT_ONCE: u32 = 256;
/// The reactor's bound on timer callbacks per loop turn.
const TIMERS_PER_TURN: usize = 64;
/// Distance between two of those timers' deadlines: more than the
/// wheel's 64 µs tick, so they come due in deadline order.
const SPACING_US: u64 = 100;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Timer { kind: u32, at_us: u64 },
    Data,
}

/// On a connection's byte `a`, arms [`DUE_AT_ONCE`] timers (kind `k` due
/// at `base + 1 ms + k · SPACING_US`), tells the test, waits for it to
/// write a byte on a second connection, and holds the reactor until the
/// last deadline has passed. Every timer callback and every other read is
/// logged. With `edits`, the callback of timer 10 cancels timer 200,
/// re-arms 201 2 ms later and re-arms 202 at a deadline long past.
struct BacklogHandler {
    log: Arc<Mutex<Vec<Seen>>>,
    /// `base`, then the re-armed deadline of timer 201.
    clock: Arc<[AtomicU64; 2]>,
    armed: mpsc::Sender<()>,
    go: mpsc::Receiver<()>,
    edits: bool,
}

impl Handler for BacklogHandler {
    type Cmd = ();

    fn on_command(&mut self, _: &mut Ctx<'_>, (): ()) {}
    fn on_accept(&mut self, _: &mut Ctx<'_>, _: ConnId, _: u64) {}
    fn on_close(&mut self, _: &mut Ctx<'_>, _: ConnId) {}

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
        if data != b"a" {
            self.log.lock().unwrap().push(Seen::Data);
            return;
        }
        let base = ctx.now_us();
        self.clock[0].store(base, Ordering::Release);
        for kind in 0..DUE_AT_ONCE {
            ctx.set_timer_at_us(conn, kind, deadline_us(base, kind));
        }
        self.armed.send(()).unwrap();
        self.go.recv_timeout(Duration::from_secs(10)).unwrap();
        let past_last = deadline_us(base, DUE_AT_ONCE - 1) + 1;
        while let Some(left) = past_last.checked_sub(ctx.now_us()) {
            std::thread::sleep(Duration::from_micros(left));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, kind: u32) {
        let at_us = ctx.now_us();
        self.log.lock().unwrap().push(Seen::Timer { kind, at_us });
        if self.edits && kind == 10 {
            ctx.cancel_timer(conn, 200);
            let rearmed = at_us + 2_000;
            self.clock[1].store(rearmed, Ordering::Release);
            ctx.set_timer_at_us(conn, 201, rearmed);
            ctx.set_timer_at_us(conn, 202, 0);
        }
    }
}

fn deadline_us(base: u64, kind: u32) -> u64 {
    base + 1_000 + u64::from(kind) * SPACING_US
}

struct Backlog {
    log: Arc<Mutex<Vec<Seen>>>,
    clock: Arc<[AtomicU64; 2]>,
    monitor: Monitor,
    handle: p2ps_net::Handle<()>,
    thread: ReactorThread,
}

impl Backlog {
    /// Runs the [`BacklogHandler`] scenario up to the moment the reactor
    /// holds [`DUE_AT_ONCE`] due timers and a byte waits on a second
    /// connection, then waits until `timers` timer callbacks were logged.
    fn run(edits: bool, timers: usize) -> Backlog {
        let monitor = Monitor::root();
        let cfg = ReactorConfig {
            monitor: monitor.clone(),
            ..ReactorConfig::default()
        };
        let log = Arc::new(Mutex::new(Vec::new()));
        let clock = Arc::new([0, 0].map(AtomicU64::new));
        let (armed, armed_rx) = mpsc::channel();
        let (go_tx, go) = mpsc::channel();
        let handler = BacklogHandler {
            log: Arc::clone(&log),
            clock: Arc::clone(&clock),
            armed,
            go,
            edits,
        };
        let (addr, handle, thread) = serve(cfg, handler);
        let backlog = Backlog {
            log,
            clock,
            monitor,
            handle,
            thread,
        };
        // The second connection is accepted and read from before the
        // timers are armed, so its next byte is one readiness event away.
        let mut other = TcpStream::connect(addr).unwrap();
        other.write_all(b"w").unwrap();
        backlog.await_log(|log| log == [Seen::Data]);
        let mut timed = TcpStream::connect(addr).unwrap();
        timed.write_all(b"a").unwrap();
        armed_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        other.write_all(b"b").unwrap();
        go_tx.send(()).unwrap();
        backlog.await_log(|log| {
            let fired = log.iter().filter(|s| matches!(s, Seen::Timer { .. }));
            fired.count() >= timers
        });
        backlog
    }

    fn await_log(&self, done: impl Fn(&[Seen]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done(&self.log.lock().unwrap()) {
            assert!(Instant::now() < deadline, "the reactor stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The logged timer callbacks, `(kind, at_us)`, and how many of them
    /// came before the second connection's byte was read.
    fn timers(&self) -> (Vec<(u32, u64)>, usize) {
        let log = self.log.lock().unwrap();
        let mut timers = Vec::new();
        let mut before_data = None;
        // Past the warm-up read.
        for seen in &log[1..] {
            match *seen {
                Seen::Timer { kind, at_us } => timers.push((kind, at_us)),
                Seen::Data => before_data = before_data.or(Some(timers.len())),
            }
        }
        (timers, before_data.expect("the byte was read"))
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().unwrap().unwrap();
    }
}

#[test]
fn a_byte_waiting_behind_256_due_timers_is_read_before_the_65th_fires() {
    let backlog = Backlog::run(false, DUE_AT_ONCE as usize);
    let (timers, before_data) = backlog.timers();
    assert_eq!(
        before_data, TIMERS_PER_TURN,
        "timer callbacks dispatched before the waiting byte was read"
    );
    // Every timer fired once, in deadline order, none before its deadline.
    let kinds: Vec<u32> = timers.iter().map(|&(kind, _)| kind).collect();
    assert_eq!(kinds, (0..DUE_AT_ONCE).collect::<Vec<_>>());
    let base = backlog.clock[0].load(Ordering::Acquire);
    for &(kind, at_us) in &timers {
        let deadline = deadline_us(base, kind);
        assert!(
            at_us >= deadline,
            "timer {kind} fired at {at_us} µs, due {deadline}"
        );
    }
    // 192 timers came due in the first turn and were left to later ones;
    // the polls that drained them were not sleeps, so none woke late.
    assert_eq!(counter(&backlog.monitor, "timer_fires_total"), 256);
    assert_eq!(counter(&backlog.monitor, "timers_deferred_total"), 192);
    assert_eq!(counter(&backlog.monitor, "wake_late_total"), 0);
    backlog.stop();
}

#[test]
fn a_backlogged_timer_cancelled_or_rearmed_meanwhile_fires_only_as_rearmed() {
    // Timer 10 fires in the first turn; 200–202 wait in the backlog.
    let backlog = Backlog::run(true, DUE_AT_ONCE as usize - 1);
    let (timers, _) = backlog.timers();
    let kinds: Vec<u32> = timers.iter().map(|&(kind, _)| kind).collect();
    let edited = [200, 201, 202];
    let untouched: Vec<u32> = (0..DUE_AT_ONCE).filter(|k| !edited.contains(k)).collect();
    assert_eq!(
        kinds
            .iter()
            .copied()
            .filter(|k| !edited.contains(k))
            .collect::<Vec<_>>(),
        untouched
    );
    assert!(!kinds.contains(&200), "a cancelled timer fired");
    let fires_of = |kind| timers.iter().filter(|&&(k, _)| k == kind).count();
    assert_eq!(fires_of(201), 1, "timer 201 fires once, as re-armed");
    assert_eq!(fires_of(202), 1, "timer 202 fires once, as re-armed");
    let rearmed = backlog.clock[1].load(Ordering::Acquire);
    let (_, at_us) = timers.iter().find(|&&(k, _)| k == 201).unwrap();
    assert!(
        *at_us >= rearmed,
        "timer 201 fired at {at_us} µs, re-armed for {rearmed}"
    );
    // Re-armed in the past, 202 came due in the second turn: behind the
    // whole backlog, not at its old place in it.
    let last_untouched = kinds.iter().position(|&k| k == DUE_AT_ONCE - 1).unwrap();
    let rearmed_202 = kinds.iter().position(|&k| k == 202).unwrap();
    assert!(
        rearmed_202 > last_untouched,
        "timer 202 fired at its old place: {kinds:?}"
    );
    backlog.stop();
}
