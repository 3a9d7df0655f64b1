//! `nvm-server`: a memcached-text-protocol network front door over the
//! [`nvm_kv::Store`] facade.
//!
//! The server speaks the classic memcached text protocol — `get`,
//! `gets`, multi-key `get`, `set`, `delete`, `stats` — over TCP, and
//! maps every operation onto the unified `Store` API. It codes against
//! the facade *only*: no index, heap, or pmem internals leak into this
//! crate (the CI script lints the imports), which is the point — the
//! facade is sufficient to build a real network service on.
//!
//! What makes it more than a toy shim is the write path: concurrent
//! `set`s from *different connections* are staged into the store's
//! shared group-commit batch and persisted under one fence sequence
//! (1 fence for the value heap, 1 for every overwrite's pointer swap
//! together, and K+2 for the index's K fresh inserts, amortized over
//! all writes in the batch), while `get`s ride the lock-free seqlock
//! read path and never wait on writers. See [`server`] for the sweep
//! choreography and [`session`] for the per-connection ordering rules.
//!
//! ```text
//! cargo run --release -p nvm-server -- --addr 127.0.0.1:11211
//! printf 'set greeting 0 0 5\r\nhello\r\nget greeting\r\nquit\r\n' \
//!   | nc 127.0.0.1 11211
//! ```

pub mod protocol;
pub mod server;
pub mod session;
pub mod stats;

pub use server::{serve, ServerConfig, ServerHandle};
pub use session::Session;
pub use stats::ServerStats;
