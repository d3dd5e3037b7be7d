//! Loopback HTTP endpoint serving the Prometheus text exposition, a
//! sampled timeseries window, and per-session flight-recorder timelines
//! — plus a tiny client used by `p2psd status` and tests.
//!
//! The server is deliberately minimal: one thread, a nonblocking accept
//! loop, one snapshot rendered per request, `Connection: close`. The
//! same thread samples the tree into its timeseries window once a
//! second (the first sample before the first accept) and keeps five
//! minutes of it. Three resources exist:
//!
//! * `GET /metrics` (also `/`) — the Prometheus text exposition.
//! * `GET /timeseries` — the retained window as CSV
//!   (`series,time_ms,value`).
//! * `GET /trace/<session>` — the session's flight-recorder ring as
//!   one `at_ms code a b` line per event; 404 when the session (or its
//!   `events` ring) is not in the tree.
//!
//! Each connection gets 500 ms from accept to deliver its request head
//! and 500 ms to take the response, so no client holds the thread (and
//! with it the sampling) for longer. It binds loopback only; metric
//! exposure to a wider network is a deployment decision this crate does
//! not make.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::bridge::SeriesWindow;
use crate::{monotonic_ms, Monitor};

/// Milliseconds between two samples of the timeseries window.
const SAMPLE_EVERY_MS: u64 = 1_000;
/// How far back the timeseries window reaches.
const RETENTION_MS: u64 = 300_000;
/// How long the accept loop sleeps when no client is waiting.
const IDLE_SLEEP: Duration = Duration::from_millis(25);
/// Time from accept by which a client must have sent its request head.
const HEAD_DEADLINE: Duration = Duration::from_millis(500);
/// Time from the start of the response by which a client must have
/// taken all of it.
const WRITE_DEADLINE: Duration = Duration::from_millis(500);

/// Serves `Monitor` snapshots, their sampled timeseries window and
/// flight-recorder traces over loopback HTTP, from one thread.
///
/// Dropping the server (or calling [`StatusServer::shutdown`]) stops
/// the thread.
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port — read it
    /// back with [`StatusServer::addr`]) and starts serving snapshots
    /// of `monitor` with metric families prefixed `{prefix}_`.
    pub fn start(port: u16, monitor: Monitor, prefix: &str) -> io::Result<StatusServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let prefix = prefix.to_string();
        let thread = thread::Builder::new()
            .name("p2ps-status".to_string())
            .spawn(move || {
                let mut window = SeriesWindow::default();
                let mut next_sample_ms = 0;
                while !stop_flag.load(Ordering::Relaxed) {
                    let now_ms = monotonic_ms();
                    if now_ms >= next_sample_ms {
                        window.sample(&monitor, &prefix, now_ms, RETENTION_MS);
                        next_sample_ms = now_ms + SAMPLE_EVERY_MS;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &monitor, &prefix, &window);
                        }
                        Err(_) => thread::sleep(IDLE_SLEEP),
                    }
                }
            })
            .map_err(io::Error::other)?;
        Ok(StatusServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Renders a session's flight-recorder ring as the `/trace/<id>` body:
/// one `at_ms code a b` line per retained event, oldest first. `None`
/// when no session scope with that id carries an `events` ring.
fn render_trace(monitor: &Monitor, session: &str) -> Option<String> {
    let snap = monitor.snapshot();
    for node in snap.nodes() {
        if node.kind() != Some("session") || node.label("session") != Some(session) {
            continue;
        }
        let Some(recorder) = node.metric("events").and_then(|m| m.handle().as_recorder()) else {
            continue;
        };
        let mut out = String::new();
        for ev in recorder.events() {
            out.push_str(&format!("{} {} {} {}\n", ev.at_ms, ev.code, ev.a, ev.b));
        }
        return Some(out);
    }
    None
}

fn serve_one(
    mut stream: TcpStream,
    monitor: &Monitor,
    prefix: &str,
    window: &SeriesWindow,
) -> io::Result<()> {
    let head_by = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let left = head_by.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // "GET <path> HTTP/1.1" — everything we need is the path.
    let request_line = String::from_utf8_lossy(&head);
    let path = request_line
        .split_whitespace()
        .nth(1)
        .unwrap_or("/")
        .to_string();
    let response = match path.as_str() {
        "/" | "/metrics" => ok_response(
            "text/plain; version=0.0.4; charset=utf-8",
            &monitor.snapshot().to_prometheus(prefix),
        ),
        "/timeseries" => ok_response("text/csv; charset=utf-8", &window.to_csv()),
        p => match p.strip_prefix("/trace/") {
            Some(session) => match render_trace(monitor, session) {
                Some(body) => ok_response("text/plain; charset=utf-8", &body),
                None => not_found("no such session trace\n"),
            },
            None => not_found("unknown path\n"),
        },
    };
    let write_by = Instant::now() + WRITE_DEADLINE;
    let mut rest = response.as_bytes();
    while !rest.is_empty() {
        let left = write_by.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn ok_response(content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    )
}

fn not_found(body: &str) -> String {
    format!(
        "HTTP/1.1 404 Not Found\r\n\
         Content-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    )
}

/// Fetches `path` from a [`StatusServer`] at `addr` (`host:port`).
/// Blocks until the server closes the connection; non-200 statuses
/// (e.g. 404 for an unknown trace) surface as [`io::ErrorKind::NotFound`].
pub fn fetch_path(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let Some(i) = raw.find("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed HTTP response from status endpoint",
        ));
    };
    let body = raw[i + 4..].to_string();
    if !raw.starts_with("HTTP/1.1 200") {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("status endpoint: {}", raw.lines().next().unwrap_or("")),
        ));
    }
    Ok(body)
}

/// Fetches the Prometheus exposition body from a [`StatusServer`] at
/// `addr` (`host:port`).
pub fn fetch_status(addr: &str) -> io::Result<String> {
    fetch_path(addr, "/metrics")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_snapshot_over_http() {
        let root = Monitor::root();
        let depth = root
            .child("reactor", 0)
            .gauge("queue_depth", "queued bytes");
        depth.set(512);
        let mut server = StatusServer::start(0, root.clone(), "p2ps").unwrap();
        let addr = server.addr().to_string();

        let body = fetch_status(&addr).unwrap();
        assert!(
            body.contains("p2ps_reactor_queue_depth{reactor=\"0\"} 512"),
            "{body}"
        );

        // A second fetch sees updated values.
        depth.set(1024);
        let body = fetch_status(&addr).unwrap();
        assert!(body.contains("p2ps_reactor_queue_depth{reactor=\"0\"} 1024"));

        server.shutdown();
        assert!(fetch_status(&addr).is_err(), "endpoint gone after shutdown");
    }

    /// The rows of `series` in a `/timeseries` CSV body, as `(t, value)`.
    fn rows<'a>(csv: &'a str, series: &str) -> Vec<(&'a str, &'a str)> {
        csv.lines()
            .filter_map(|l| l.strip_prefix(series)?.strip_prefix(','))
            .filter_map(|rest| rest.split_once(','))
            .collect()
    }

    #[test]
    fn timeseries_route_serves_the_bridge_window() {
        let root = Monitor::root();
        root.counter("ticks_total", "ticks").add(2);
        let server = StatusServer::start(0, root.clone(), "p2ps").unwrap();
        let addr = server.addr().to_string();

        // The first sample is taken before the first accept.
        let mut csv = fetch_path(&addr, "/timeseries").unwrap();
        assert!(csv.starts_with("series,time_ms,value\n"), "{csv}");
        let first = rows(&csv, "p2ps_ticks_total");
        assert_eq!(first.first().map(|r| r.1), Some("2"), "{csv}");

        // Then one sample a second: a second row within 1.5 s.
        let until = Instant::now() + Duration::from_millis(1_500);
        while rows(&csv, "p2ps_ticks_total").len() < 2 && Instant::now() < until {
            thread::sleep(Duration::from_millis(50));
            csv = fetch_path(&addr, "/timeseries").unwrap();
        }
        let rows = rows(&csv, "p2ps_ticks_total");
        assert!(rows.len() >= 2, "no second sample within 1.5 s: {csv}");
        assert!(rows[0].0.parse::<u64>().unwrap() < rows[1].0.parse::<u64>().unwrap());
    }

    /// A second client's `/timeseries` answers within 2 s, whatever the
    /// client before it does.
    fn answers_within_2s(addr: &str) {
        let asked = Instant::now();
        let csv = fetch_path(addr, "/timeseries").unwrap();
        let took = asked.elapsed();
        assert!(csv.starts_with("series,time_ms,value\n"));
        assert!(
            took < Duration::from_secs(2),
            "second client waited {took:?}"
        );
    }

    #[test]
    fn a_dribbling_request_head_cannot_hold_the_thread() {
        let root = Monitor::root();
        let server = StatusServer::start(0, root, "p2ps").unwrap();
        let addr = server.addr().to_string();

        let mut hog = TcpStream::connect(&addr).unwrap();
        let dribbler = thread::spawn(move || {
            // One byte of a request head every 400 ms, never its end,
            // until the server hangs up.
            for &b in b"GET /metrics HTTP/1.1\r\nX-Slow: aaaaaaaaaaaaaaaaaaaa" {
                if hog.write_all(&[b]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(400));
            }
        });
        thread::sleep(Duration::from_millis(100));
        answers_within_2s(&addr);
        dribbler.join().unwrap();
    }

    #[test]
    fn a_client_that_never_reads_cannot_hold_the_thread() {
        // 10k gauges, each its own family with a 500-byte help line: a
        // ~6 MB exposition, more than the loopback socket buffers take
        // while the client never reads.
        let root = Monitor::root();
        let help = "pads the exposition ".repeat(25);
        let scopes: Vec<_> = (0..100).map(|i| root.child(&format!("f{i}"), 0)).collect();
        for scope in &scopes {
            for j in 0..100 {
                scope.gauge(&format!("g{j}"), &help);
            }
        }
        let server = StatusServer::start(0, root, "p2ps").unwrap();
        let addr = server.addr().to_string();
        // Once this answers, the first sample of the big tree is taken.
        fetch_path(&addr, "/timeseries").unwrap();

        let mut hog = TcpStream::connect(&addr).unwrap();
        hog.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        thread::sleep(Duration::from_millis(100));
        answers_within_2s(&addr);
    }

    #[test]
    fn trace_route_dumps_a_session_ring() {
        let root = Monitor::root();
        let session = root.child("reactor", 1).child("session", 42);
        let rec = session.events("events", "protocol timeline");
        rec.record_at(10, 6, 0, 3);
        rec.record_at(20, 6, 1, 4);
        let server = StatusServer::start(0, root.clone(), "p2ps").unwrap();
        let addr = server.addr().to_string();

        let body = fetch_path(&addr, "/trace/42").unwrap();
        assert_eq!(body, "10 6 0 3\n20 6 1 4\n");

        let err = fetch_path(&addr, "/trace/41").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "unknown session");
        let err = fetch_path(&addr, "/bogus").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "unknown path");
    }

    #[test]
    fn hostile_state_labels_are_escaped_in_the_exposition() {
        // Satellite guard: label values containing backslashes, quotes
        // and newlines must render escaped, keeping the exposition
        // parseable line-by-line.
        const STATES: &[&str] = &["ok", "hos\"tile\\state\nnewline"];
        let root = Monitor::root();
        let scope = root.child("path", "a\\b\"c\nd");
        scope
            .state("state", "hostile states", STATES)
            .set(STATES[1]);
        let server = StatusServer::start(0, root.clone(), "p2ps").unwrap();

        let body = fetch_status(&server.addr().to_string()).unwrap();
        assert!(
            body.contains(r#"path="a\\b\"c\nd""#),
            "scope label must be escaped: {body}"
        );
        assert!(
            body.contains(r#"state="hos\"tile\\state\nnewline""#),
            "state label must be escaped: {body}"
        );
        // No raw (unescaped) newline may survive inside a sample line:
        // every line is either a comment or ends in a numeric value.
        for line in body.lines() {
            assert!(
                line.starts_with('#') || line.rsplit(' ').next().unwrap().parse::<f64>().is_ok(),
                "unparseable exposition line (broken escaping?): {line:?}"
            );
        }
    }
}
