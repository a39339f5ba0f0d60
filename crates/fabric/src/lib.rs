//! Message-passing fabric for the DSMTX runtime.
//!
//! A commodity cluster has no shared memory: every byte that moves between
//! two workers moves through an explicit message. This crate is the
//! in-process stand-in for the OpenMPI layer the paper builds on. Each
//! DSMTX "process" is an OS thread whose program state is private; the only
//! way state crosses a thread boundary is through the queues built here.
//!
//! The centerpiece is the **batched queue** ([`queue`]): the paper measures
//! that a single `MPI_Send`/`MPI_Recv` pair costs 500–2,295 instructions to
//! move 8 bytes, and that buffering produced values until a batch fills
//! raises sustained queue bandwidth from ~13 MB/s to ~480 MB/s (§4.2, §5.3).
//! [`channel`] opens one single-producer, single-consumer link;
//! [`SendPort`] buffers items and ships a whole packet when the batch
//! threshold fills, and [`RecvPort`] unpacks them in order. An optional
//! [`CostModel`] charges the modelled per-message overhead so the
//! unbatched/batched contrast of Figure 5(b) can be reproduced on real
//! threads.
//!
//! The rest supports that queue:
//!
//! * [`channel_faulted`] opens a link whose send path runs under a
//!   [`FaultInjector`] drawn from a seeded [`FaultPlan`]. A link
//!   delivers in order and exactly once, as MPI does, so a fault can
//!   only fail a ship attempt (a drop, or a stall window of attempts).
//!   [`SendPort::try_flush`] is the queue's one ship path: each call is
//!   one attempt, a [`RetryPolicy`] bounds how many attempts faults may
//!   consume, and the caller's own wait paces them ([`SendPort::flush`]
//!   just retries `try_flush`);
//! * [`FabricStats`] is a set of traffic and fault counters: each port
//!   keeps its own, and [`FabricStats::merge`] folds them into a run's.
//!
//! The crate has no topology type: the runtime (`dsmtx::MtxSystem::run`)
//! opens each link itself and hands its two ends to the roles it joins.
//!
//! # Example
//!
//! ```
//! use dsmtx_fabric::queue::channel;
//!
//! let (mut tx, mut rx) = channel::<u64>(/*batch*/ 64, /*capacity*/ 1024);
//! for v in 0..1000u64 {
//!     tx.produce(v).unwrap();
//! }
//! tx.flush().unwrap();
//! for v in 0..1000u64 {
//!     assert_eq!(rx.consume().unwrap(), v);
//! }
//! ```

pub mod cost;
pub mod error;
pub mod fault;
pub mod queue;
pub mod stats;

pub use cost::CostModel;
pub use error::{FabricError, Result};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultRates, RetryPolicy};
pub use queue::{channel, channel_faulted, RecvPort, SendPort};
pub use stats::FabricStats;
