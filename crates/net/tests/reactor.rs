//! Integration tests driving a live reactor thread over loopback TCP.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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

fn start(
    handler_cfg: (u64, Option<(u64, u32)>),
) -> (
    std::net::SocketAddr,
    p2ps_net::Handle<()>,
    std::thread::JoinHandle<std::io::Result<()>>,
    Arc<AtomicUsize>,
) {
    let (reactor, handle) = Reactor::new(ReactorConfig::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    handle.add_listener(listener, 7).unwrap();
    let closed = Arc::new(AtomicUsize::new(0));
    let closed2 = Arc::clone(&closed);
    let (read_timeout_ms, ticks) = handler_cfg;
    let thread = std::thread::spawn(move || {
        reactor.run(&mut TestHandler {
            read_timeout_ms,
            ticks,
            closed: closed2,
        })
    });
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

struct Burst {
    addr: std::net::SocketAddr,
    handle: p2ps_net::Handle<()>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    closed: Arc<AtomicUsize>,
    monitor: Monitor,
}

impl Burst {
    fn start(max_write_buffer: usize) -> Burst {
        let monitor = Monitor::root();
        let (reactor, handle) = Reactor::new(ReactorConfig {
            max_write_buffer,
            monitor: monitor.clone(),
            ..ReactorConfig::default()
        })
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        handle.add_listener(listener, 0).unwrap();
        let closed = Arc::new(AtomicUsize::new(0));
        let closed2 = Arc::clone(&closed);
        let thread = std::thread::spawn(move || reactor.run(&mut BurstHandler { closed: closed2 }));
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
        let snap = self.monitor.snapshot();
        let writevs = snap.find(&[], "syscalls_writev_total");
        writevs.expect("registered").value().as_i64()
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
