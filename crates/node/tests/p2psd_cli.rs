//! Black-box tests of the `p2psd` binary: exit codes and `--port` must be
//! script-friendly (the things a shell wrapper or CI harness depends on).

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn p2psd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_p2psd"))
}

/// Kills the child on drop so a failing assertion cannot leak a
/// `directory`/`seed` process that runs forever.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn no_subcommand_exits_2() {
    let out = p2psd().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(!out.stderr.is_empty(), "usage goes to stderr");
}

#[test]
fn unknown_subcommand_exits_2() {
    let out = p2psd().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flag_exits_nonzero() {
    let out = p2psd().args(["stream", "--bogus", "1"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --bogus"), "stderr: {stderr}");
}

#[test]
fn connection_refused_exits_nonzero() {
    // Reserve a port and close it again: nothing listens there, so the
    // stream subcommand must fail its directory query and exit 1.
    let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    let out = p2psd()
        .args(["stream", "--dir", &addr.to_string(), "--retries", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn rejection_exits_nonzero() {
    // A directory with no registered suppliers: admission can never
    // succeed, so the requester exhausts its retries and must exit 1.
    let dir = p2ps_node::DirectoryServer::start().unwrap();
    let out = p2psd()
        .args([
            "stream",
            "--dir",
            &dir.addr().to_string(),
            "--retries",
            "1",
            "--segments",
            "4",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    dir.shutdown();
}

#[test]
fn directory_binds_the_requested_port() {
    // Grab a free port, release it, hand it to p2psd. Another process
    // can steal the port in the gap, so retry with a fresh probe (the
    // child exits 1 on a bind conflict — that's the sibling test below).
    let (mut child, port) = (0..16)
        .find_map(|_| {
            let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let port = probe.local_addr().unwrap().port();
            drop(probe);
            let child = p2psd()
                .args(["directory", "--port", &port.to_string()])
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .unwrap();
            let mut child = Reaper(child);
            std::thread::sleep(Duration::from_millis(100));
            match child.0.try_wait().unwrap() {
                None => Some((child, port)), // still serving: bind succeeded
                Some(_) => None,             // lost the port race; retry
            }
        })
        .expect("a freshly released loopback port should be bindable");

    // The directory announces its address on stdout once bound.
    let mut stdout = child.0.stdout.take().unwrap();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read(&mut byte).unwrap() == 1 && byte[0] != b'\n' {
        line.push(byte[0]);
    }
    let line = String::from_utf8(line).unwrap();
    assert!(
        line.contains(&format!("127.0.0.1:{port}")),
        "directory must bind the requested port, announced: {line}"
    );

    // And it actually serves the protocol on that port.
    let got = p2ps_node::query_candidates(
        std::net::SocketAddr::from(([127, 0, 0, 1], port)),
        "nothing-registered",
        4,
    )
    .unwrap();
    assert!(got.is_empty());
}

#[test]
fn directory_bind_failure_exits_nonzero() {
    // Occupy a port, then ask p2psd for it: it must report the bind
    // error and exit 1 instead of silently serving elsewhere.
    let taken = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let port = taken.local_addr().unwrap().port();
    let mut child = p2psd()
        .args(["directory", "--port", &port.to_string()])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    // Bind happens before the serve loop, so the failure is immediate;
    // poll briefly rather than blocking on a child that would never exit
    // if the bug regressed.
    let mut status = None;
    for _ in 0..100 {
        if let Some(s) = child.try_wait().unwrap() {
            status = Some(s);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("p2psd directory kept running despite the port being taken");
    };
    assert_eq!(status.code(), Some(1));
}

#[test]
fn help_documents_every_flag_and_exit_code() {
    for invocation in [
        vec!["--help"],
        vec!["-h"],
        vec!["help"],
        vec!["stream", "--help"],
    ] {
        let out = p2psd().args(&invocation).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{invocation:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The authoritative flag list: notably --threads (the multi-core
        // knob) and the observability flags, plus the exit-code table.
        for needle in [
            "--threads",
            "--status-port",
            "--status-addr",
            "--trace",
            "--dir",
            "--serve-secs",
            "/timeseries",
            "exit codes",
        ] {
            assert!(
                stdout.contains(needle),
                "{invocation:?}: help output lacks {needle:?}"
            );
        }
    }
}

/// Reads lines from a child's stdout until `predicate` matches one,
/// returning the match.
fn wait_for_line(stdout: &mut impl Read, predicate: impl Fn(&str) -> bool) -> String {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while stdout.read(&mut byte).unwrap() == 1 {
        if byte[0] != b'\n' {
            buf.push(byte[0]);
            continue;
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        if predicate(&line) {
            return line;
        }
        buf.clear();
    }
    panic!("child stdout closed before the expected line appeared");
}

#[test]
fn status_subcommand_renders_a_live_directory() {
    // A directory with an ephemeral status endpoint…
    let child = p2psd()
        .args(["directory", "--status-port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut child = Reaper(child);
    let mut stdout = child.0.stdout.take().unwrap();
    let status_line = wait_for_line(&mut stdout, |l| l.contains("status endpoint on"));
    let status_addr = status_line
        .rsplit("http://")
        .next()
        .unwrap()
        .trim_end_matches("/metrics")
        .to_owned();

    // …scraped by a second p2psd: the human table must carry the
    // per-reactor row and the directory's stripe occupancy.
    let out = p2psd()
        .args(["status", "--status-addr", &status_addr])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let rendered = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "reactors:",
        "queued-bytes",
        "late-wakes",
        "turn-max-us",
        "index stripes: 16",
        "sessions",
    ] {
        assert!(
            rendered.contains(needle),
            "status output lacks {needle:?}: {rendered}"
        );
    }
}

#[test]
fn status_endpoint_serves_timeseries_and_answers_unknown_traces() {
    // A directory with a status endpoint: its bridge samples the tree
    // once a second, but the /timeseries route must answer (with at
    // least the CSV header) immediately.
    let child = p2psd()
        .args(["directory", "--status-port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut child = Reaper(child);
    let mut stdout = child.0.stdout.take().unwrap();
    let status_line = wait_for_line(&mut stdout, |l| l.contains("status endpoint on"));
    let status_addr = status_line
        .rsplit("http://")
        .next()
        .unwrap()
        .trim_end_matches("/metrics")
        .to_owned();

    let csv = p2ps_monitor::fetch_path(&status_addr, "/timeseries").unwrap();
    assert!(
        csv.starts_with("series,time_ms,value"),
        "timeseries route must serve CSV, got: {csv}"
    );

    // A directory hosts no sessions, so any session trace is a 404 —
    // and `status --trace` surfaces that as a runtime error, exit 1.
    let out = p2psd()
        .args(["status", "--status-addr", &status_addr, "--trace", "42"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn status_against_nothing_exits_nonzero() {
    let probe = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    let out = p2psd()
        .args(["status", "--status-addr", &addr.to_string()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}
