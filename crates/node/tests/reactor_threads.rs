//! A `NodeReactor` runs its reactor threads and no other: progress
//! deadlines live on the reactor's timer wheel, not on a helper thread.
//! Its own test binary, so no other test's threads come and go while the
//! task list is counted.

use std::time::{Duration, Instant};

use p2ps_node::NodeReactor;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The thread count once it falls to `want`, or whatever it is after a
/// second: a joined thread may linger in the task list for a moment.
fn settled_threads(want: usize) -> usize {
    let until = Instant::now() + Duration::from_secs(1);
    loop {
        let now = threads();
        if now == want || Instant::now() >= until {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_node_reactor_spawns_exactly_its_reactor_threads() {
    let baseline = threads();
    let reactor = NodeReactor::with_threads(2).unwrap();
    assert_eq!(reactor.thread_count(), 2);
    assert_eq!(
        threads(),
        baseline + 2,
        "two reactor threads and nothing else"
    );
    reactor.shutdown();
    assert_eq!(
        settled_threads(baseline),
        baseline,
        "shutdown joins them all"
    );
}
