//! The introspection tree: scoped nodes, atomic metric primitives, and
//! live-handle snapshots.
//!
//! A [`Monitor`] is a cheap clonable handle to one node in the tree.
//! Components create child scopes with [`Monitor::child`] and register
//! metrics with [`Monitor::counter`] / [`Monitor::gauge`] /
//! [`Monitor::state`]; parents hold only weak references to children,
//! so dropping every handle to a scope (a session ending, a reactor
//! shutting down) removes its whole subtree from subsequent snapshots
//! without any explicit deregistration call.
//!
//! Locking discipline: each node guards its metric and child lists with
//! a mutex taken only during registration and snapshotting. Metric
//! *updates* never touch those locks — every [`Counter`], [`Gauge`] and
//! [`StateCell`] operation is a single relaxed atomic instruction.

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use p2ps_metrics::prometheus::{MetricKind, PrometheusText};
use parking_lot::Mutex;

use crate::recorder::{EventRing, Recorder, DEFAULT_EVENT_CAPACITY};

/// A handle to one scope (node) in the introspection tree.
///
/// Clones share the same underlying node. The node stays visible in
/// snapshots for as long as at least one `Monitor` handle (or an `Arc`
/// inside a snapshot) keeps it alive; its parent only holds a weak
/// reference.
#[derive(Clone)]
pub struct Monitor {
    inner: Arc<Node>,
}

pub(crate) struct Node {
    /// Label key for this scope ("reactor", "session", …); empty for a
    /// root created by [`Monitor::root`].
    kind: String,
    /// Label value ("0", "42", …); empty for a root.
    id: String,
    /// Strong upward ref: holding a leaf handle keeps the whole path to
    /// the root reachable from snapshots. Downward refs are weak, so
    /// there is no cycle.
    _parent: Option<Arc<Node>>,
    metrics: Mutex<Vec<MetricEntry>>,
    children: Mutex<Vec<Weak<Node>>>,
}

struct MetricEntry {
    name: String,
    help: String,
    handle: MetricHandle,
}

impl Monitor {
    /// Creates a new, empty tree root.
    pub fn root() -> Monitor {
        Monitor {
            inner: Arc::new(Node {
                kind: String::new(),
                id: String::new(),
                _parent: None,
                metrics: Mutex::new(Vec::new()),
                children: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Returns the child scope labeled `{kind}={id}`, creating it if no
    /// live handle to it exists. Two callers asking for the same
    /// `(kind, id)` under the same parent share one node, so e.g. the
    /// reactor's own shard scope and a session registering under that
    /// shard merge in the rendered tree.
    ///
    /// Takes the parent's registration lock; call at attach/session
    /// boundaries, not on per-segment paths.
    pub fn child(&self, kind: &str, id: impl fmt::Display) -> Monitor {
        let id = id.to_string();
        let mut children = self.inner.children.lock();
        children.retain(|w| w.strong_count() > 0);
        for weak in children.iter() {
            if let Some(node) = weak.upgrade() {
                if node.kind == kind && node.id == id {
                    return Monitor { inner: node };
                }
            }
        }
        let node = Arc::new(Node {
            kind: kind.to_string(),
            id,
            _parent: Some(self.inner.clone()),
            metrics: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
        });
        children.push(Arc::downgrade(&node));
        Monitor { inner: node }
    }

    /// Registers (or retrieves) a monotone counter named `name` on this
    /// scope. Registering the same name twice returns a handle to the
    /// same underlying atomic.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered on this scope as a
    /// different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, || MetricHandle::Counter(Counter::new())) {
            MetricHandle::Counter(c) => c,
            other => panic!(
                "metric `{name}` already registered as a {}",
                other.kind_name()
            ),
        }
    }

    /// Registers (or retrieves) a signed gauge named `name` on this
    /// scope.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered on this scope as a
    /// different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, || MetricHandle::Gauge(Gauge::new())) {
            MetricHandle::Gauge(g) => g,
            other => panic!(
                "metric `{name}` already registered as a {}",
                other.kind_name()
            ),
        }
    }

    /// Registers (or retrieves) a state cell named `name` on this
    /// scope, holding one of the given state `names` (initially the
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty, or if `name` is already registered
    /// on this scope as a different metric kind.
    pub fn state(&self, name: &str, help: &str, names: &'static [&'static str]) -> StateCell {
        assert!(!names.is_empty(), "state cell needs at least one state");
        match self.register(name, help, || MetricHandle::State(StateCell::new(names))) {
            MetricHandle::State(s) => s,
            other => panic!(
                "metric `{name}` already registered as a {}",
                other.kind_name()
            ),
        }
    }

    /// Registers (or retrieves) a flight-recorder event ring named
    /// `name` on this scope, with the default capacity
    /// ([`DEFAULT_EVENT_CAPACITY`] events; the ring overwrites its
    /// oldest events once full). Renders into the Prometheus exposition
    /// as a counter of events ever recorded; the retained timeline is
    /// read through [`Recorder::events`] (e.g. via a snapshot row's
    /// [`MetricHandle::as_recorder`]).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered on this scope as a
    /// different metric kind.
    pub fn events(&self, name: &str, help: &str) -> Recorder {
        match self.register(name, help, || {
            MetricHandle::Events(Recorder::with_ring(Arc::new(EventRing::new(
                DEFAULT_EVENT_CAPACITY,
            ))))
        }) {
            MetricHandle::Events(r) => r,
            other => panic!(
                "metric `{name}` already registered as a {}",
                other.kind_name()
            ),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> MetricHandle,
    ) -> MetricHandle {
        let mut metrics = self.inner.metrics.lock();
        if let Some(entry) = metrics.iter().find(|e| e.name == name) {
            return entry.handle.attached(&self.inner);
        }
        // The copy stored in the node stays scope-detached — a handle
        // retaining its own node would be a reference cycle and the
        // scope would never leave the tree.
        let handle = make();
        metrics.push(MetricEntry {
            name: name.to_string(),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle.attached(&self.inner)
    }

    /// Walks the live tree rooted here into a [`Snapshot`]. Rows carry
    /// *live* handles: reading a row later re-reads the atomic, and an
    /// observer can flip a [`StateCell`] through the row it found.
    pub fn snapshot(&self) -> Snapshot {
        let mut nodes = Vec::new();
        let mut path = Vec::new();
        collect(&self.inner, &mut path, &mut nodes);
        Snapshot {
            nodes,
            taken_ms: crate::monotonic_ms(),
        }
    }
}

fn collect(node: &Arc<Node>, path: &mut Vec<(String, String)>, out: &mut Vec<SnapshotNode>) {
    let scoped = !node.kind.is_empty();
    if scoped {
        path.push((node.kind.clone(), node.id.clone()));
    }
    let metrics: Vec<SnapshotMetric> = node
        .metrics
        .lock()
        .iter()
        .map(|e| SnapshotMetric {
            name: e.name.clone(),
            help: e.help.clone(),
            handle: e.handle.attached(node),
        })
        .collect();
    out.push(SnapshotNode {
        labels: path.clone(),
        metrics,
    });
    let live: Vec<Arc<Node>> = node
        .children
        .lock()
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    for child in &live {
        collect(child, path, out);
    }
    if scoped {
        path.pop();
    }
}

impl Default for Monitor {
    /// A detached root: metrics registered on it work normally but are
    /// only visible to snapshots taken from this root. Lets config
    /// structs embed a `Monitor` without requiring every caller to wire
    /// one up.
    fn default() -> Self {
        Monitor::root()
    }
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("kind", &self.inner.kind)
            .field("id", &self.inner.id)
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind)
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

/// Monotone `u64` counter; all operations are relaxed atomics.
///
/// A handed-out counter keeps its scope alive: a component may retain
/// only the handle and its row stays visible in snapshots.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
    _scope: Option<Arc<Node>>,
}

impl Counter {
    fn new() -> Self {
        Counter {
            value: Arc::new(AtomicU64::new(0)),
            _scope: None,
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Signed level gauge; all operations are relaxed atomics.
///
/// A handed-out gauge keeps its scope alive: a component may retain
/// only the handle and its row stays visible in snapshots.
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    _scope: Option<Arc<Node>>,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            value: Arc::new(AtomicI64::new(0)),
            _scope: None,
        }
    }

    /// Sets the level to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds the (possibly negative) delta `d`.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Holds exactly one of a fixed set of named states (e.g. a session's
/// `probing` → `streaming` → … lifecycle); all operations are relaxed
/// atomics.
#[derive(Clone, Debug)]
pub struct StateCell {
    cell: Arc<AtomicUsize>,
    names: &'static [&'static str],
    _scope: Option<Arc<Node>>,
}

impl StateCell {
    fn new(names: &'static [&'static str]) -> Self {
        StateCell {
            cell: Arc::new(AtomicUsize::new(0)),
            names,
            _scope: None,
        }
    }

    /// Switches to the state called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of this cell's states.
    pub fn set(&self, name: &str) {
        let idx = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown state `{name}` (states: {:?})", self.names));
        self.cell.store(idx, Ordering::Relaxed);
    }

    /// Index of the current state within [`StateCell::names`].
    pub fn index(&self) -> usize {
        self.cell.load(Ordering::Relaxed).min(self.names.len() - 1)
    }

    /// Name of the current state.
    pub fn name(&self) -> &'static str {
        self.names[self.index()]
    }

    /// `true` if the current state is called `name`.
    pub fn is(&self, name: &str) -> bool {
        self.name() == name
    }

    /// The full set of states this cell can hold.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }
}

/// A live handle to one registered metric, as stored in snapshots.
#[derive(Clone, Debug)]
pub enum MetricHandle {
    /// A monotone counter.
    Counter(Counter),
    /// A signed gauge.
    Gauge(Gauge),
    /// A named-state cell.
    State(StateCell),
    /// A flight-recorder event ring.
    Events(Recorder),
}

impl MetricHandle {
    /// Clone with the scope node attached, so the returned handle keeps
    /// the scope alive in snapshots.
    fn attached(&self, node: &Arc<Node>) -> MetricHandle {
        match self {
            MetricHandle::Counter(c) => MetricHandle::Counter(Counter {
                value: c.value.clone(),
                _scope: Some(node.clone()),
            }),
            MetricHandle::Gauge(g) => MetricHandle::Gauge(Gauge {
                value: g.value.clone(),
                _scope: Some(node.clone()),
            }),
            MetricHandle::State(s) => MetricHandle::State(StateCell {
                cell: s.cell.clone(),
                names: s.names,
                _scope: Some(node.clone()),
            }),
            MetricHandle::Events(r) => MetricHandle::Events(r.attached_to(node)),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            MetricHandle::Counter(_) => "counter",
            MetricHandle::Gauge(_) => "gauge",
            MetricHandle::State(_) => "state",
            MetricHandle::Events(_) => "event ring",
        }
    }

    /// The counter behind this handle, if it is one.
    pub fn as_counter(&self) -> Option<&Counter> {
        match self {
            MetricHandle::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// The gauge behind this handle, if it is one.
    pub fn as_gauge(&self) -> Option<&Gauge> {
        match self {
            MetricHandle::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// The state cell behind this handle, if it is one.
    pub fn as_state(&self) -> Option<&StateCell> {
        match self {
            MetricHandle::State(s) => Some(s),
            _ => None,
        }
    }

    /// The flight recorder behind this handle, if it is one.
    pub fn as_recorder(&self) -> Option<&Recorder> {
        match self {
            MetricHandle::Events(r) => Some(r),
            _ => None,
        }
    }

    /// Reads the current value through the handle. An event ring reads
    /// as a counter of events ever recorded.
    pub fn value(&self) -> SampleValue {
        match self {
            MetricHandle::Counter(c) => SampleValue::Counter(c.get()),
            MetricHandle::Gauge(g) => SampleValue::Gauge(g.get()),
            MetricHandle::State(s) => SampleValue::State {
                index: s.index(),
                names: s.names,
            },
            MetricHandle::Events(r) => SampleValue::Counter(r.count()),
        }
    }
}

/// One value read from a metric at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A state-cell reading: the active index into `names`.
    State {
        /// Index of the active state.
        index: usize,
        /// The cell's full state set.
        names: &'static [&'static str],
    },
}

impl SampleValue {
    /// The value as a signed integer (state cells yield their index).
    pub fn as_i64(&self) -> i64 {
        match self {
            SampleValue::Counter(c) => *c as i64,
            SampleValue::Gauge(g) => *g,
            SampleValue::State { index, .. } => *index as i64,
        }
    }

    /// The active state name, for state-cell readings.
    pub fn state_name(&self) -> Option<&'static str> {
        match self {
            SampleValue::State { index, names } => names.get(*index).copied(),
            _ => None,
        }
    }
}

/// A flattened walk of the tree at one instant. Node rows hold live
/// metric handles, so values read through a snapshot are always fresh;
/// only the *structure* (which scopes and metrics exist) is frozen.
#[derive(Clone, Debug)]
pub struct Snapshot {
    nodes: Vec<SnapshotNode>,
    taken_ms: u64,
}

impl Snapshot {
    /// All scope rows, depth-first from the snapshot root.
    pub fn nodes(&self) -> &[SnapshotNode] {
        &self.nodes
    }

    /// [`crate::monotonic_ms`] at the moment the walk ran — exported in
    /// the exposition as `{prefix}_snapshot_now_ms` so remote consumers
    /// can compute lags against progress timestamps.
    pub fn taken_ms(&self) -> u64 {
        self.taken_ms
    }

    /// Finds the metric called `metric` on the scope whose label path
    /// is exactly `labels` (in order).
    pub fn find(&self, labels: &[(&str, &str)], metric: &str) -> Option<&SnapshotMetric> {
        self.nodes
            .iter()
            .find(|n| n.matches(labels))
            .and_then(|n| n.metric(metric))
    }

    /// Renders the whole snapshot in the Prometheus text exposition
    /// format. A metric `name` on a scope of kind `k` becomes the
    /// family `{prefix}_{k}_{name}` with the scope's full label path;
    /// root-level metrics become `{prefix}_{name}`. State cells emit
    /// one 0/1 sample per possible state with a `state="…"` label.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = PrometheusText::new();
        out.sample(
            &format!("{prefix}_snapshot_now_ms"),
            MetricKind::Gauge,
            "monotonic milliseconds at snapshot time",
            &[],
            self.taken_ms as f64,
        );
        for node in &self.nodes {
            let kind = node.labels.last().map(|(k, _)| k.as_str());
            let labels: Vec<(&str, &str)> = node
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            for m in &node.metrics {
                let family = match kind {
                    Some(k) => format!("{prefix}_{k}_{}", m.name),
                    None => format!("{prefix}_{}", m.name),
                };
                match m.value() {
                    SampleValue::Counter(v) => {
                        out.sample(&family, MetricKind::Counter, &m.help, &labels, v as f64);
                    }
                    SampleValue::Gauge(v) => {
                        out.sample(&family, MetricKind::Gauge, &m.help, &labels, v as f64);
                    }
                    SampleValue::State { index, names } => {
                        for (i, state) in names.iter().enumerate() {
                            let mut with_state = labels.clone();
                            with_state.push(("state", state));
                            out.sample(
                                &family,
                                MetricKind::Gauge,
                                &m.help,
                                &with_state,
                                (i == index) as u8 as f64,
                            );
                        }
                    }
                }
            }
        }
        out.render()
    }
}

/// One scope row in a [`Snapshot`]: its accumulated label path and the
/// metrics registered on it.
#[derive(Clone, Debug)]
pub struct SnapshotNode {
    labels: Vec<(String, String)>,
    metrics: Vec<SnapshotMetric>,
}

impl SnapshotNode {
    /// The `(kind, id)` label pairs from the snapshot root down to this
    /// scope. Empty for the root row itself.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// The value of label `key` on this scope's path, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The innermost label key — this scope's own kind.
    pub fn kind(&self) -> Option<&str> {
        self.labels.last().map(|(k, _)| k.as_str())
    }

    /// Metrics registered on this scope (not on its children).
    pub fn metrics(&self) -> &[SnapshotMetric] {
        &self.metrics
    }

    /// The metric called `name` on this scope, if registered.
    pub fn metric(&self, name: &str) -> Option<&SnapshotMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    fn matches(&self, labels: &[(&str, &str)]) -> bool {
        self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|((k, v), (wk, wv))| k == wk && v == wv)
    }
}

/// One metric row in a [`Snapshot`] — name, help text, and a live
/// handle to the underlying atomic.
#[derive(Clone, Debug)]
pub struct SnapshotMetric {
    name: String,
    help: String,
    handle: MetricHandle,
}

impl SnapshotMetric {
    /// Metric name as registered (without family prefix or scope kind).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Help text as registered.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// The live handle; lets observers write state cells through a
    /// snapshot row.
    pub fn handle(&self) -> &MetricHandle {
        &self.handle
    }

    /// Reads the current value through the live handle.
    pub fn value(&self) -> SampleValue {
        self.handle.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_scopes_are_shared_by_kind_and_id() {
        let root = Monitor::root();
        let a = root.child("reactor", 3);
        let b = root.child("reactor", "3");
        a.counter("accepts", "accepted connections").add(2);
        let c = b.counter("accepts", "accepted connections");
        assert_eq!(c.get(), 2, "same scope, same atomic");
        let snap = root.snapshot();
        // Root row + exactly one reactor row.
        assert_eq!(snap.nodes().len(), 2);
    }

    #[test]
    fn dropping_all_handles_removes_the_subtree() {
        let root = Monitor::root();
        {
            let session = root.child("reactor", 0).child("session", 42);
            session.gauge("owed", "segments owed").set(7);
            let snap = root.snapshot();
            assert!(snap
                .find(&[("reactor", "0"), ("session", "42")], "owed")
                .is_some());
        }
        // The session handle — and the intermediate reactor handle — are
        // gone; the next snapshot no longer shows them.
        let snap = root.snapshot();
        assert!(snap
            .find(&[("reactor", "0"), ("session", "42")], "owed")
            .is_none());
        assert_eq!(snap.nodes().len(), 1, "only the root row remains");
    }

    #[test]
    fn snapshot_rows_read_fresh_values() {
        let root = Monitor::root();
        let bytes = root.child("reactor", 0).counter("bytes_read", "bytes");
        bytes.add(10);
        let snap = root.snapshot();
        let row = snap.find(&[("reactor", "0")], "bytes_read").unwrap();
        assert_eq!(row.value(), SampleValue::Counter(10));
        bytes.add(5);
        assert_eq!(
            row.value(),
            SampleValue::Counter(15),
            "handles are live, not frozen"
        );
    }

    #[test]
    fn state_cell_reads_and_writes_through_snapshot() {
        const STATES: &[&str] = &["probing", "streaming", "stalled"];
        let root = Monitor::root();
        let scope = root.child("session", 1);
        let state = scope.state("state", "lifecycle", STATES);
        assert_eq!(state.name(), "probing");
        state.set("streaming");
        let snap = root.snapshot();
        let row = snap.find(&[("session", "1")], "state").unwrap();
        assert_eq!(row.value().state_name(), Some("streaming"));
        row.handle().as_state().unwrap().set("stalled");
        assert!(state.is("stalled"), "observer write visible to owner");
    }

    #[test]
    fn prometheus_rendering_expands_states_and_paths() {
        const STATES: &[&str] = &["probing", "streaming"];
        let root = Monitor::root();
        root.counter("watchdog_stalls_total", "stall events").add(1);
        let session = root.child("reactor", 1).child("session", 9);
        session.state("state", "lifecycle", STATES).set("streaming");
        session.gauge("owed", "segments owed").set(-3);
        let text = root.snapshot().to_prometheus("p2ps");
        assert!(text.contains("p2ps_watchdog_stalls_total 1"));
        assert!(
            text.contains("p2ps_session_owed{reactor=\"1\",session=\"9\"} -3"),
            "{text}"
        );
        assert!(
            text.contains("p2ps_session_state{reactor=\"1\",session=\"9\",state=\"probing\"} 0")
        );
        assert!(
            text.contains("p2ps_session_state{reactor=\"1\",session=\"9\",state=\"streaming\"} 1")
        );
        assert!(text.contains("# TYPE p2ps_snapshot_now_ms gauge"));
    }

    #[test]
    fn event_rings_register_and_read_through_snapshots() {
        let root = Monitor::root();
        let session = root.child("reactor", 0).child("session", 7);
        let rec = session.events("events", "protocol timeline");
        rec.record_at(5, 6, 0, 3);
        rec.record_at(9, 6, 1, 4);

        let snap = root.snapshot();
        let row = snap
            .find(&[("reactor", "0"), ("session", "7")], "events")
            .unwrap();
        assert_eq!(row.value(), SampleValue::Counter(2));
        let through = row.handle().as_recorder().unwrap();
        let evs = through.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            (evs[1].at_ms, evs[1].code, evs[1].a, evs[1].b),
            (9, 6, 1, 4)
        );

        // The exposition renders the ring as an event counter.
        let text = snap.to_prometheus("p2ps");
        assert!(
            text.contains("p2ps_session_events{reactor=\"0\",session=\"7\"} 2"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let root = Monitor::root();
        root.counter("x", "a counter");
        root.gauge("x", "now a gauge?");
    }

    #[test]
    fn concurrent_updates_and_snapshots_do_not_interfere() {
        let root = Monitor::root();
        let counter = root.child("reactor", 0).counter("events", "events");
        let mut threads = Vec::new();
        for _ in 0..4 {
            let c = counter.clone();
            threads.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr();
                }
            }));
        }
        let r = root.clone();
        let snapper = std::thread::spawn(move || {
            for _ in 0..50 {
                let _ = r.snapshot().to_prometheus("p2ps");
            }
        });
        for t in threads {
            t.join().unwrap();
        }
        snapper.join().unwrap();
        assert_eq!(counter.get(), 40_000);
    }
}
