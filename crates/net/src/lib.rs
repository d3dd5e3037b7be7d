//! A minimal Linux epoll reactor for nonblocking `std::net` sockets.
//!
//! The paper's capacity-amplification argument (§3–§4) only pays off when
//! one supplier process can hold many concurrent streaming sessions and
//! the lookup service can absorb flash-crowd query storms. Thread-per-
//! connection cannot get there; this crate provides the event-driven
//! substrate that can:
//!
//! * [`sys`] — the epoll syscalls behind a safe wrapper. The build
//!   environment has no crates.io (no `mio`, no `libc`), so the four
//!   entry points are declared `extern "C"` directly. **This is the only
//!   module in the workspace containing `unsafe`**, it is small, and it
//!   is unit-tested directly.
//! * [`TimerWheel`] — two-level hashed-wheel deadlines for read timeouts
//!   and §3 paced segment transmissions: thousands of timers at O(1)
//!   insert, each fired at its deadline and never before.
//! * [`Reactor`] / [`Handler`] / [`Ctx`] — the event loop: level-
//!   triggered readiness, per-connection buffered writes of zero-copy
//!   [`bytes::Bytes`] chunks, timer dispatch, adoption of outbound
//!   connections ([`Ctx::adopt`]), and a cloneable [`Handle`] for
//!   cross-thread listener registration, typed commands and shutdown.
//! * [`ReactorPool`] / [`PoolHandle`] — multi-reactor sharding for >1
//!   core: N reactors, each with its own handler instance, with
//!   listeners, commands and the connections they create hash-routed to
//!   one shard by key.
//!
//! The reactor is deliberately *sans protocol*: it moves raw bytes and
//! deadlines. Framing lives in `p2ps_proto`'s `FrameDecoder` /
//! `FrameEncoder`, and the directory / supplier state machines live in
//! `p2ps_node` — each layer testable without the others.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod reactor;
#[allow(unsafe_code)]
pub mod sys;
mod timer;

pub use pool::{PoolHandle, ReactorPool};
pub use reactor::{ConnId, Ctx, Handle, Handler, Reactor, ReactorConfig};
pub use timer::TimerWheel;
