//! Pins the reactor property that motivated the directory migration: an
//! idle connected client must not delay other peers' traffic. Also pins
//! the client's kept-alive connection: one per thread, reused only while
//! young and open.
//!
//! The old accept loop served connections *serially*: one client that
//! connected and went quiet held the loop inside its 5-second read
//! timeout, stalling every other peer's registration and query. Against
//! that implementation this test fails by construction (the query round
//! below cannot complete in under ~5 s); on the reactor each connection
//! only owns a decoder and a timer, so the round completes in
//! milliseconds.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use p2ps_core::{PeerClass, PeerId};
use p2ps_node::{query_candidates, register_supplier, DirectoryServer};

#[test]
fn idle_client_does_not_delay_other_peers() {
    let dir = DirectoryServer::start().unwrap();

    // Three clients connect and say nothing — the flash-crowd straggler.
    let idlers: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(dir.addr()).unwrap())
        .collect();
    // Make sure they are accepted (and, on the old code, one of them is
    // monopolizing the serve loop) before the real peer shows up.
    std::thread::sleep(Duration::from_millis(100));

    let start = Instant::now();
    for i in 0..8u64 {
        register_supplier(
            dir.addr(),
            "video",
            PeerId::new(i),
            PeerClass::new(1 + (i % 4) as u8).unwrap(),
            9_000 + i as u16,
        )
        .unwrap();
    }
    let mut got = Vec::new();
    while start.elapsed() < Duration::from_secs(2) {
        got = query_candidates(dir.addr(), "video", 8).unwrap();
        if got.len() == 8 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = start.elapsed();
    assert_eq!(got.len(), 8, "all registrations visible");
    // The old serial loop cannot answer before the first idle client's
    // 5-second read timeout expires; the reactor answers immediately.
    assert!(
        elapsed < Duration::from_secs(2),
        "register+query took {elapsed:?} with idle clients connected"
    );
    drop(idlers);
    dir.shutdown();
}

#[test]
fn idle_clients_are_reaped_while_service_continues() {
    let dir = DirectoryServer::start().unwrap();
    let mut idle = TcpStream::connect(dir.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Service keeps flowing while the idle connection ages out.
    register_supplier(dir.addr(), "v", PeerId::new(1), PeerClass::HIGHEST, 4321).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let got = query_candidates(dir.addr(), "v", 4).unwrap();
        if got.len() == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "registration never surfaced");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The directory's 5-second idle timer must eventually close the
    // silent connection (a slowloris defence the serial loop offered
    // only by blocking everyone else).
    use std::io::Read;
    let mut buf = [0u8; 1];
    match idle.read(&mut buf) {
        Ok(0) => {} // clean EOF: reaped
        Ok(n) => panic!("unexpected {n} bytes from the directory"),
        Err(e) => panic!("expected EOF from the reaped connection, got {e}"),
    }

    // This thread's kept-alive connection is now older than the reuse
    // window (and reaped too): the next query must go out on a fresh one.
    let got = query_candidates(dir.addr(), "v", 4).unwrap();
    assert_eq!(got.len(), 1, "a query after the idle close still answers");
    assert_eq!(got[0].port, 4321);
    dir.shutdown();
}

#[test]
fn one_thread_uses_one_connection_and_reads_its_own_writes() {
    let dir = DirectoryServer::start().unwrap();
    for i in 0..100u64 {
        register_supplier(
            dir.addr(),
            "video",
            PeerId::new(i),
            PeerClass::new(1 + (i % 4) as u8).unwrap(),
            9_000 + i as u16,
        )
        .unwrap();
    }
    // No retry loop: the query follows the registrations on the same
    // connection, so the server has applied all of them before it answers.
    let got = query_candidates(dir.addr(), "video", 100).unwrap();
    assert_eq!(got.len(), 100, "a thread reads its own registrations");
    let snap = dir.monitor().snapshot();
    let accepts = snap
        .find(&[("reactor", "0")], "accepts_total")
        .unwrap()
        .value()
        .as_i64();
    assert_eq!(accepts, 1, "101 messages from one thread, one connection");
    dir.shutdown();
}

#[test]
fn a_directory_restarted_on_the_same_port_gets_the_next_registration() {
    // Another process can take the port between the shutdown and the
    // rebind; start over on a fresh port then.
    for _ in 0..16 {
        let first = DirectoryServer::start().unwrap();
        let addr = first.addr();
        register_supplier(addr, "v", PeerId::new(1), PeerClass::HIGHEST, 4321).unwrap();
        // The answer proves the server accepted the connection, so its
        // shutdown closes it (a connection still in the accept backlog
        // would be reset, and the next write would fail outright).
        assert_eq!(query_candidates(addr, "v", 4).unwrap().len(), 1);
        first.shutdown();
        let Ok(second) = DirectoryServer::start_on(addr.port()) else {
            continue;
        };
        // The kept-alive connection is young but points at the closed
        // server: the registration must notice and go out on a fresh one.
        register_supplier(addr, "v", PeerId::new(2), PeerClass::HIGHEST, 4322).unwrap();
        let got = query_candidates(addr, "v", 4).unwrap();
        let snap = second.monitor().snapshot();
        let registrations = snap
            .find(&[], "registrations_total")
            .unwrap()
            .value()
            .as_i64();
        assert_eq!(
            registrations, 1,
            "the restarted server got the registration"
        );
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].id, got[0].port), (PeerId::new(2), 4322));
        second.shutdown();
        return;
    }
    panic!("no freshly released loopback port could be bound again");
}
