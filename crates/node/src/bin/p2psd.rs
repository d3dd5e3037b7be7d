//! `p2psd` — run the peer-to-peer streaming system from a shell.
//!
//! Run `p2psd --help` for the authoritative flag list and exit-code
//! conventions (the README's "Running `p2psd`" section carries the same
//! text); the short version:
//!
//! ```text
//! p2psd directory [--port 0] [--status-port P]
//! p2psd seed    --dir HOST:PORT [media flags] [--threads T] [--status-port P]
//! p2psd stream  --dir HOST:PORT [media flags] [--threads T] [--status-port P]
//!               [--m M] [--retries N] [--serve-secs S]
//! p2psd status  --status-addr HOST:PORT
//! ```
//!
//! `directory` runs until killed; `seed` serves until killed; `stream`
//! performs the paper's §4.2 admission + streaming, prints the measured
//! buffering delay, then (optionally) stays around serving as a supplier
//! for `--serve-secs`. `--status-port` serves the process's live
//! introspection tree in the Prometheus text format on the loopback
//! interface; `status` scrapes such an endpoint and renders it as
//! human-readable tables (see `docs/OBSERVABILITY.md`).

use std::net::SocketAddr;
use std::time::Duration;

use p2ps_core::assignment::SegmentDuration;
use p2ps_core::{PeerClass, PeerId};
use p2ps_media::MediaInfo;
use p2ps_metrics::Table;
use p2ps_monitor::{
    fetch_path, fetch_status, BridgeConfig, Monitor, StatusServer, TimeseriesBridge,
};
use p2ps_node::{Args, Clock, DirectoryServer, NodeConfig, PeerNode};
use p2ps_proto::SessionEvent;

const FLAGS: &[&str] = &[
    "dir",
    "id",
    "class",
    "item",
    "segments",
    "dt-ms",
    "segment-bytes",
    "m",
    "retries",
    "serve-secs",
    "port",
    "threads",
    "status-port",
    "status-addr",
    "trace",
];

/// The one authoritative description of the CLI: every subcommand, every
/// flag with its default, and the exit-code conventions. The README's
/// "Running `p2psd`" section embeds this same text; keep them in sync.
const USAGE: &str = "p2psd - peer-to-peer media streaming daemon (ICDCS'02 P2P media streaming)

usage: p2psd <directory|seed|stream|status> [--flags]

subcommands:
  directory   run the lookup service until killed
      --port P            loopback port to bind (default 0 = ephemeral)
  seed        synthesize the media item and serve it until killed
  stream      probe M candidates, receive the stream, report the delay
    flags shared by seed and stream:
      --dir HOST:PORT     directory address (required)
      --id N              peer id (default: the process id)
      --class K           bandwidth class, 1 = highest (default 1)
      --item NAME         media item name (default \"p2ps-demo\")
      --segments N        segment count (default 120)
      --dt-ms MS          segment duration (delta-t) in ms (default 250)
      --segment-bytes B   segment payload bytes (default 16384)
      --threads T         reactor threads for this node's pool (default 1);
                          the supplier listener and requester sessions
                          shard across them -- the multi-core knob
    stream only:
      --m M               candidates to probe per attempt (default 8)
      --retries N         admission attempts before giving up (default 10)
      --serve-secs S      keep supplying this long after completing (default 0)
  status      scrape a running p2psd and print human-readable tables
      --status-addr HOST:PORT   the endpoint another p2psd opened with
                                --status-port (required)
      --trace SESSION     instead of the tables, dump the session's flight
                          recorder: one decoded protocol event per line

observability (directory, seed and stream):
      --status-port P     serve live metrics on 127.0.0.1:P (0 = ephemeral);
                          the bound address is printed on startup. Routes:
                          /metrics (Prometheus text), /timeseries (sampled
                          history as CSV), /trace/<session> (flight-recorder
                          dump). See docs/OBSERVABILITY.md.

exit codes (script-friendly):
  0   success (including --help / -h / help)
  1   runtime error: unknown flag or bad value, bind failure, connection
      refused, admission rejection after retries, broken stream
  2   bad usage: missing or unknown subcommand
";

fn media_info(args: &Args) -> Result<MediaInfo, Box<dyn std::error::Error>> {
    let item = args.get("item").unwrap_or("p2ps-demo").to_owned();
    let segments: u64 = args.get_or("segments", 120)?;
    let dt_ms: u64 = args.get_or("dt-ms", 250)?;
    let bytes: u32 = args.get_or("segment-bytes", 16 * 1024)?;
    Ok(MediaInfo::new(
        item,
        segments,
        SegmentDuration::from_millis(dt_ms),
        bytes,
    ))
}

fn node_config(args: &Args) -> Result<NodeConfig, Box<dyn std::error::Error>> {
    let dir: SocketAddr = args.require("dir")?;
    let id: u64 = args.get_or("id", std::process::id() as u64)?;
    let class: u8 = args.get_or("class", 1)?;
    let mut config = NodeConfig::new(
        PeerId::new(id),
        PeerClass::new(class)?,
        media_info(args)?,
        dir,
    );
    config.threads = args.get_or("threads", 1)?;
    Ok(config)
}

/// Starts the status endpoint when `--status-port` was given and prints
/// where it landed (scripts and tests parse this line). The endpoint
/// carries a timeseries bridge: a sampler thread snapshots the monitor
/// tree once a second so `/timeseries` can serve recent history as CSV.
fn maybe_status_server(
    args: &Args,
    monitor: &Monitor,
) -> Result<Option<(StatusServer, TimeseriesBridge)>, Box<dyn std::error::Error>> {
    if args.get("status-port").is_none() {
        return Ok(None);
    }
    let port: u16 = args.get_or("status-port", 0)?;
    let bridge = TimeseriesBridge::start(monitor.clone(), "p2ps", BridgeConfig::default());
    let server = StatusServer::start_with_bridge(port, monitor.clone(), "p2ps", bridge.handle())?;
    println!("status endpoint on http://{}/metrics", server.addr());
    Ok(Some((server, bridge)))
}

/// Renders a `/trace/<session>` dump — `at_ms code a b` per line — as a
/// human-readable timeline by decoding each event back through the
/// shared [`SessionEvent`] catalog. Unknown codes (a newer daemon than
/// this `status` client) are kept raw rather than dropped.
fn render_trace(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        let mut parts = line.split_whitespace();
        let (Some(at), Some(code), Some(a), Some(b)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let decoded = code
            .parse::<u8>()
            .ok()
            .zip(a.parse::<u64>().ok().zip(b.parse::<u64>().ok()))
            .and_then(|(code, (a, b))| SessionEvent::decode(code, a, b));
        match decoded {
            Some(ev) => out.push_str(&format!("{at:>10}  {ev}\n")),
            None => out.push_str(&format!("{at:>10}  raw code={code} a={a} b={b}\n")),
        }
    }
    if out.is_empty() {
        out.push_str("trace: no events recorded\n");
    }
    out
}

/// One parsed exposition sample: family name, label pairs, value.
struct Sample {
    family: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses the Prometheus text format back into samples. Comments and
/// malformed lines are skipped — `status` renders what it understands.
fn parse_samples(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((head, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (family, labels) = match head.split_once('{') {
            Some((f, rest)) => {
                let body = rest.trim_end_matches('}');
                let labels = body
                    .split(',')
                    .filter_map(|pair| {
                        let (k, v) = pair.split_once('=')?;
                        Some((k.to_owned(), v.trim_matches('"').to_owned()))
                    })
                    .collect();
                (f, labels)
            }
            None => (head, Vec::new()),
        };
        out.push(Sample {
            family: family.to_owned(),
            labels,
            value,
        });
    }
    out
}

fn fmt_int(v: f64) -> String {
    format!("{}", v as i64)
}

/// Renders a scraped exposition as the `p2psd status` tables: one row
/// per reactor shard, one per in-flight requester session, plus totals.
fn render_status(text: &str) -> String {
    let samples = parse_samples(text);
    let value_at = |family: &str, labels: &[(&str, &str)]| -> Option<f64> {
        samples
            .iter()
            .find(|s| {
                s.family == family
                    && s.labels.len() == labels.len()
                    && labels.iter().all(|(k, v)| s.label(k) == Some(v))
            })
            .map(|s| s.value)
    };
    let mut out = String::new();

    // Per-reactor rows, keyed off the always-present connection gauge.
    let mut reactors: Vec<&str> = samples
        .iter()
        .filter(|s| s.family == "p2ps_reactor_connections")
        .filter_map(|s| s.label("reactor"))
        .collect();
    reactors.sort_by_key(|r| r.parse::<u64>().unwrap_or(u64::MAX));
    reactors.dedup();
    if !reactors.is_empty() {
        let mut table = Table::new([
            "reactor",
            "conns",
            "nodes",
            "streams",
            "timers",
            "queued-bytes",
            "bytes-in",
            "bytes-out",
            "late-wakes",
            "wake-max-us",
            "overruns",
            "turn-max-us",
            "deferred",
        ]);
        for r in &reactors {
            let labels = [("reactor", *r)];
            let cell = |family: &str| {
                value_at(family, &labels)
                    .map(fmt_int)
                    .unwrap_or_else(|| "-".into())
            };
            table.row([
                (*r).to_owned(),
                cell("p2ps_reactor_connections"),
                cell("p2ps_reactor_hosted_nodes"),
                cell("p2ps_reactor_active_streams"),
                cell("p2ps_reactor_timer_entries"),
                cell("p2ps_reactor_queued_write_bytes"),
                cell("p2ps_reactor_bytes_read_total"),
                cell("p2ps_reactor_bytes_written_total"),
                cell("p2ps_reactor_wake_late_total"),
                cell("p2ps_reactor_wake_late_us_max"),
                cell("p2ps_reactor_turn_overrun_total"),
                cell("p2ps_reactor_turn_us_max"),
                cell("p2ps_reactor_timers_deferred_total"),
            ]);
        }
        out.push_str("reactors:\n");
        out.push_str(&table.render());
    }

    // Per-session rows; lag is computed against the snapshot clock the
    // endpoint exports alongside the tree.
    let now_ms = value_at("p2ps_snapshot_now_ms", &[]).unwrap_or(0.0);
    let mut sessions: Vec<(&str, &str)> = samples
        .iter()
        .filter(|s| s.family == "p2ps_session_total_segments")
        .filter_map(|s| Some((s.label("reactor")?, s.label("session")?)))
        .collect();
    sessions.sort();
    sessions.dedup();
    if sessions.is_empty() {
        out.push_str("\nsessions: none in flight\n");
    } else {
        let mut table = Table::new([
            "session", "reactor", "state", "received", "total", "owed", "lag-ms", "late-us",
        ]);
        for (reactor, session) in &sessions {
            let labels = [("reactor", *reactor), ("session", *session)];
            let cell = |family: &str| {
                value_at(family, &labels)
                    .map(fmt_int)
                    .unwrap_or_else(|| "-".into())
            };
            // A state cell renders as one 0/1 sample per possible state;
            // the active one carries the value 1.
            let state = samples
                .iter()
                .find(|s| {
                    s.family == "p2ps_session_state"
                        && s.value == 1.0
                        && s.label("reactor") == Some(reactor)
                        && s.label("session") == Some(session)
                })
                .and_then(|s| s.label("state"))
                .unwrap_or("-");
            let lag = value_at("p2ps_session_last_progress_ms", &labels)
                .map(|last| fmt_int((now_ms - last).max(0.0)))
                .unwrap_or_else(|| "-".into());
            table.row([
                (*session).to_owned(),
                (*reactor).to_owned(),
                state.to_owned(),
                cell("p2ps_session_received_segments"),
                cell("p2ps_session_total_segments"),
                cell("p2ps_session_owed_segments"),
                lag,
                cell("p2ps_session_startup_lateness_us"),
            ]);
        }
        out.push_str("\nsessions:\n");
        out.push_str(&table.render());
    }

    if let Some(stalls) = value_at("p2ps_watchdog_stalls_total", &[]) {
        out.push_str(&format!("\nwatchdog stalls: {}\n", fmt_int(stalls)));
    }
    if let Some(records) = value_at("p2ps_records", &[]) {
        out.push_str(&format!("index: {} supplier records\n", fmt_int(records)));
    }
    for (family, label) in [
        ("p2ps_registrations_total", "registrations"),
        ("p2ps_queries_total", "queries"),
    ] {
        if let Some(v) = value_at(family, &[]) {
            out.push_str(&format!("directory {label}: {}\n", fmt_int(v)));
        }
    }
    out
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--help` must short-circuit before Args::parse, which would reject
    // a trailing `--help` as a flag missing its value.
    if raw.iter().any(|a| a == "--help" || a == "-h")
        || raw.first().map(String::as_str) == Some("help")
    {
        print!("{USAGE}");
        return Ok(());
    }
    let args = Args::parse(raw, FLAGS)?;
    match args.positional(0) {
        Some("directory") => {
            let port: u16 = args.get_or("port", 0)?;
            let server = DirectoryServer::start_on(port)?;
            let _status = maybe_status_server(&args, server.monitor())?;
            println!("directory listening on {}", server.addr());
            println!("press Ctrl-C to stop");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some("seed") => {
            let config = node_config(&args)?;
            let item = config.info.name().to_owned();
            let node = PeerNode::spawn_seed(config, Clock::new())?;
            let _status = maybe_status_server(&args, node.monitor())?;
            println!(
                "seed {} ({}) serving {item:?} on port {}",
                node.id(),
                node.class(),
                node.port()
            );
            println!("press Ctrl-C to stop");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some("stream") => {
            let config = node_config(&args)?;
            let m: usize = args.get_or("m", 8)?;
            let retries: u32 = args.get_or("retries", 10)?;
            let serve_secs: u64 = args.get_or("serve-secs", 0)?;
            let node = PeerNode::spawn(config, Clock::new())?;
            let _status = maybe_status_server(&args, node.monitor())?;
            println!(
                "requesting peer {} ({}) probing M={m} candidates…",
                node.id(),
                node.class()
            );
            let outcome = node.request_stream_with_retry(m, retries, Duration::from_millis(500))?;
            println!(
                "admitted: {} supplier(s) of classes {:?}",
                outcome.supplier_count,
                outcome
                    .supplier_classes
                    .iter()
                    .map(|c| c.get())
                    .collect::<Vec<_>>()
            );
            println!(
                "buffering delay: measured {} us ({} ms), Theorem-1 optimum {} ms; session {} ms",
                outcome.measured_delay_us,
                outcome.measured_delay_ms,
                outcome.theoretical_delay_ms,
                outcome.duration_ms
            );
            if serve_secs > 0 {
                println!("now supplying on port {} for {serve_secs}s…", node.port());
                std::thread::sleep(Duration::from_secs(serve_secs));
            }
            node.shutdown();
            Ok(())
        }
        Some("status") => {
            let addr = args.require::<String>("status-addr")?;
            if let Some(session) = args.get("trace") {
                let raw = fetch_path(&addr, &format!("/trace/{session}"))?;
                print!("{}", render_trace(&raw));
            } else {
                let text = fetch_status(&addr)?;
                print!("{}", render_status(&text));
            }
            Ok(())
        }
        other => {
            eprintln!(
                "usage: p2psd <directory|seed|stream|status> [--flags]\n  (got {other:?}; run `p2psd --help` for the full flag list)"
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("p2psd: {e}");
        std::process::exit(1);
    }
}
