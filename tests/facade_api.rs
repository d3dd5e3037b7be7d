//! Smoke tests of the `p2ps` facade: the documented entry points work as
//! a downstream user would call them, and **every** module the facade
//! re-exports is exercised, so a dropped re-export fails this suite (and
//! CI) instead of surfacing in downstream code.

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use p2ps::core::admission::{
    AdmissionVector, BackoffPolicy, Protocol, RequesterState, SupplierConfig, SupplierState,
};
use p2ps::core::assignment::{
    contiguous, edf, otsp2p, round_robin, schedule::TransmissionSchedule,
    verify::exhaustive_min_delay, SegmentDuration,
};
use p2ps::core::{Bandwidth, CapacityTracker, PeerClass, PeerId};
use p2ps::lookup::chord::{ChordId, ChordRing, LookupResult};
use p2ps::lookup::{CandidateInfo, Directory, Rendezvous, SharedDirectory};
use p2ps::media::{
    BufferEvent, MediaFile, MediaInfo, PlaybackBuffer, PlaybackReport, Segment, SegmentStore,
};
use p2ps::metrics::{
    AsciiPlot, CsvWriter, Histogram, OnlineStats, Reservoir, StepSeries, Table, TimeSeries,
    WindowedAverage,
};
use p2ps::node::{Args, Clock, DirectoryServer};
use p2ps::proto::{
    decode_frame, encode_frame, CandidateRecord, DecodeError, FrameDecoder, FrameEncoder, Message,
    SessionPlan, MAX_FRAME_LEN,
};
use p2ps::sim::{ArrivalPattern, PiecewiseRate, SimConfig, Simulation};

fn class(k: u8) -> PeerClass {
    PeerClass::new(k).unwrap()
}

#[test]
fn the_readme_quickstart_works() {
    let classes: Vec<PeerClass> = [2u8, 3, 4, 4].into_iter().map(class).collect();
    let assignment = otsp2p(&classes).unwrap();
    assert_eq!(assignment.buffering_delay_slots(), 4);
    assert_eq!(edf(&classes).unwrap().buffering_delay_slots(), 4);
}

#[test]
fn core_assignment_module_is_complete() {
    // All four strategies plus the schedule and brute-force verifier.
    let classes: Vec<PeerClass> = [2u8, 2].into_iter().map(class).collect();
    for a in [
        otsp2p(&classes).unwrap(),
        edf(&classes).unwrap(),
        contiguous(&classes).unwrap(),
        round_robin(&classes).unwrap(),
    ] {
        assert!(a.buffering_delay_slots() >= 2);
        let schedule = TransmissionSchedule::new(&a, u64::from(a.period()));
        assert_eq!(schedule.iter().count(), a.period() as usize);
    }
    assert_eq!(exhaustive_min_delay(&classes).unwrap(), 2);
    assert_eq!(SegmentDuration::from_millis(10).as_millis(), 10);
}

#[test]
fn core_admission_module_is_complete() {
    let v = AdmissionVector::initial(class(2), 4).unwrap();
    assert!(v.favors(class(1)));
    let mut cap = CapacityTracker::new();
    cap.add_supplier(PeerClass::HIGHEST);
    assert_eq!(cap.sessions(), 1.0);
    assert!(BackoffPolicy::new(100, 2).delay_after(2) >= 200);
    let cfg = SupplierConfig::new(4, 60_000, Protocol::Dac).unwrap();
    let mut rng = SmallRng::seed_from_u64(7);
    let mut supplier = SupplierState::new(class(1), cfg, 0).unwrap();
    assert!(!supplier.is_busy());
    let _ = supplier.handle_request(0, class(1), &mut rng);
    let _requester_type_is_exported: Option<RequesterState> = None;
    assert_eq!(Bandwidth::FULL_RATE.fraction_of_rate(), 1.0);
    assert_eq!(PeerId::new(7).get(), 7);
    let err: p2ps::core::Error = PeerClass::new(0).unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn media_module_is_complete() {
    let info = MediaInfo::new("facade", 4, SegmentDuration::from_millis(100), 64);
    let file = MediaFile::synthesize(info.clone());
    assert!(file.verify(&file.segment(0)));

    let mut store = SegmentStore::new(2);
    store.insert(Segment::new(0, Bytes::from_static(b"a")));
    store.insert(Segment::new(1, Bytes::from_static(b"b")));
    assert!(store.is_complete());

    let mut buf = PlaybackBuffer::new(2, SegmentDuration::from_millis(100));
    buf.record_arrival(0, 5);
    buf.record_arrival(1, 350);
    let report: PlaybackReport = buf.report(100);
    assert!(report.max_lateness_ms() > 0);
    let _event_type_is_exported: Option<BufferEvent> = None;
}

#[test]
fn lookup_module_is_complete() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut dir = Directory::new();
    dir.register("facade", PeerId::new(1), PeerClass::HIGHEST);
    assert_eq!(dir.supplier_count("facade"), 1);
    assert_eq!(dir.sample("facade", 8, &mut rng).len(), 1);
    assert_eq!(
        dir.suppliers("facade"),
        vec![CandidateInfo::new(PeerId::new(1), PeerClass::HIGHEST)]
    );

    let shared = SharedDirectory::new();
    assert_eq!(shared.stripe_count(), 16);
    shared.with_item_mut("facade", |d| d.register("facade", PeerId::new(2), class(2)));
    assert_eq!(
        shared.with_item("facade", |d| d.supplier_count("facade")),
        1
    );
    assert_eq!(shared.items(), vec!["facade".to_owned()]);

    let mut ring = ChordRing::new();
    for i in 0..8 {
        ring.join(PeerId::new(100 + i));
    }
    ring.register("facade", PeerId::new(1), class(3));
    assert_eq!(ring.supplier_count("facade"), 1);
    let found: LookupResult = ring.lookup(ChordId::of_item("facade"));
    assert!(found.hops as usize <= ring.len());
    assert_eq!(ring.sample("facade", 4, &mut rng).len(), 1);
}

#[test]
fn proto_module_is_complete() {
    let msg = Message::StartSession {
        session: 9,
        plan: SessionPlan {
            item: "facade".into(),
            segments: vec![0, 1],
            period: 2,
            total_segments: 8,
            dt_ms: 100,
        },
    };
    let mut buf = BytesMut::new();
    encode_frame(&msg, &mut buf);
    assert!(buf.len() <= MAX_FRAME_LEN);
    assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), msg);

    let rec = CandidateRecord {
        id: PeerId::new(1),
        class: class(2),
        port: 9000,
    };
    let mut enc = FrameEncoder::new();
    enc.push(&Message::Candidates { list: vec![rec] });
    let mut dec = FrameDecoder::new();
    while let Some(chunk) = enc.pop_chunk() {
        dec.feed(&chunk);
    }
    let got = dec.poll().unwrap().unwrap();
    assert!(matches!(got, Message::Candidates { ref list } if list.len() == 1));

    let mut garbage = BytesMut::new();
    garbage.extend_from_slice(&[1, 0, 0, 0, 0x7f]);
    assert_eq!(
        decode_frame(&mut garbage),
        Err(DecodeError::UnknownTag(0x7f))
    );
}

#[test]
fn metrics_module_is_complete() {
    let stats: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
    assert_eq!(stats.mean(), 2.0);

    let mut series = TimeSeries::new("x");
    series.push(0.0, 1.0);
    series.push(1.0, 3.0);
    assert_eq!(series.len(), 2);

    let mut steps = StepSeries::new("cap", 0.0);
    steps.add(1.0, 2.5);
    assert_eq!(steps.current(), 2.5);

    let mut hist = Histogram::new(0.0, 10.0, 5);
    hist.record(4.0);
    assert_eq!(hist.count(), 1);

    let mut reservoir = Reservoir::new(8, 42);
    reservoir.record(1.0);
    assert_eq!(reservoir.observed(), 1);

    let mut window = WindowedAverage::new("w", 1.0);
    window.record(0.5, 2.0);
    assert_eq!(window.window_mean(0), Some(2.0));

    let mut table = Table::new(["a"]);
    table.row(["1"]);
    assert_eq!(table.row_count(), 1);

    let mut csv = CsvWriter::new(Vec::new());
    csv.write_row(["t", "v"]).unwrap();
    assert!(!csv.into_inner().is_empty());

    let plot = AsciiPlot::new("facade", 20, 5).series(&series).render();
    assert!(plot.contains("facade"));
}

#[test]
fn node_module_is_complete() {
    let clock = Clock::new();
    let t0 = clock.now_ms();
    assert!(clock.now_ms() >= t0);

    let args = Args::parse(["--m", "4", "video"], &["m"]).unwrap();
    assert_eq!(args.get_or("m", 0usize).unwrap(), 4);
    assert_eq!(args.positional(0), Some("video"));

    let dir = DirectoryServer::start().unwrap();
    p2ps::node::register_supplier(dir.addr(), "facade", PeerId::new(5), class(2), 9_999).unwrap();
    // Registration lands on its own reactor connection; retry the query
    // briefly instead of racing it.
    let mut candidates = Vec::new();
    for _ in 0..50 {
        candidates = p2ps::node::query_candidates(dir.addr(), "facade", 8).unwrap();
        if !candidates.is_empty() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(candidates.len(), 1);
    assert_eq!(candidates[0].id, PeerId::new(5));
    dir.shutdown();

    // The thread-safe registry (a striped index plus ports) is usable
    // directly too.
    let reg = p2ps::node::ShardedRegistry::new(4);
    reg.register(
        "facade",
        p2ps::proto::CandidateRecord {
            id: PeerId::new(1),
            class: class(2),
            port: 1,
        },
    );
    let mut rng = SmallRng::seed_from_u64(5);
    assert_eq!(reg.sample("facade", 2, &mut rng).len(), 1);

    // The heavier PeerNode / Swarm / NodeError / StreamOutcome surface is
    // exercised end-to-end in tests/swarm_end_to_end.rs, and the shared
    // serving reactor in crates/node/tests/concurrent_sessions.rs.
    let _error_type_is_exported: Option<p2ps::node::NodeError> = None;
    let _outcome_type_is_exported: Option<p2ps::node::StreamOutcome> = None;
    let _node_type_is_exported: Option<p2ps::node::PeerNode> = None;
    let _swarm_type_is_exported: Option<p2ps::node::Swarm> = None;
    let _config_type_is_exported: Option<p2ps::node::NodeConfig> = None;
    let _reactor_type_is_exported: Option<p2ps::node::NodeReactor> = None;
}

#[test]
fn net_module_is_complete() {
    // The timer wheel is plain data structure surface.
    let mut wheel: p2ps::net::TimerWheel<u32> = p2ps::net::TimerWheel::new(2, 16);
    wheel.insert(4, 7);
    let mut fired = Vec::new();
    wheel.advance(10, &mut fired);
    assert_eq!(fired, vec![7]);

    // The confined-unsafe epoll wrapper works through the facade.
    use std::os::fd::AsRawFd;
    let mut ep = p2ps::net::sys::Epoll::new().unwrap();
    let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
    ep.add(b.as_raw_fd(), 9, p2ps::net::sys::EPOLLIN).unwrap();
    use std::io::Write;
    (&a).write_all(b"x").unwrap();
    let mut events = Vec::new();
    ep.wait(&mut events, 1_000_000).unwrap();
    assert_eq!(events[0].token, 9);
    assert!(events[0].is_readable());

    // Reactor + handle types are reachable; the full loop is exercised in
    // crates/net/tests/reactor.rs.
    let _cfg = p2ps::net::ReactorConfig::default();
    let _conn_id_type: Option<p2ps::net::ConnId> = None;
}

#[test]
fn sim_module_is_complete() {
    let mut rng = SmallRng::seed_from_u64(11);
    let custom = PiecewiseRate::new(vec![(0.0, 1.0, 1.0)]);
    let times = ArrivalPattern::Custom(custom).generate(10, 3_600, &mut rng);
    assert_eq!(times.len(), 10);
    let _builder_type_is_exported: Option<p2ps::sim::SimConfigBuilder> = None;
    let _series_type_is_exported: Option<&p2ps::sim::ClassSeries> = None;
    let _error_type_is_exported: Option<p2ps::sim::ConfigError> = None;
}

#[test]
fn a_small_simulation_runs_through_the_facade() {
    let config = SimConfig::builder()
        .requesting_peers(120)
        .seed_suppliers(4)
        .arrival_window_hours(4)
        .duration_hours(8)
        .session_minutes(30)
        .pattern(ArrivalPattern::InitialBurst)
        .protocol(Protocol::Dac)
        .build()
        .unwrap();
    let report: p2ps::sim::SimReport = Simulation::new(config, 1).run();
    assert!(report.final_capacity() > 2.0);
    assert!(report.final_overall_admission_rate() > 0.0);
}

#[test]
fn the_prelude_covers_the_common_names() {
    use p2ps::prelude::*;

    let classes = vec![PeerClass::new(2).unwrap(), PeerClass::new(2).unwrap()];
    let assignment: Assignment = otsp2p(&classes).unwrap();
    assert_eq!(assignment.buffering_delay_slots(), 2);
    assert_eq!(edf(&classes).unwrap().buffering_delay_slots(), 2);
    assert!(AdmissionVector::all_ones(4).unwrap().is_fully_relaxed());
    let _info = MediaInfo::new("p", 1, SegmentDuration::from_millis(10), 16);
    let _pattern = ArrivalPattern::Constant;
}
