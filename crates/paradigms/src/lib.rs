//! Loop-parallelization paradigms on top of the DSMTX runtime.
//!
//! The paper's evaluation parallelizes each benchmark with the paradigm
//! that fits its structure (Table 2): Spec-DOALL, `DSWP+[…]` /
//! `Spec-DSWP+[…]` pipelines, and a TLS-only baseline. This crate gives
//! each paradigm a first-class executor over the core runtime:
//!
//! * [`executor::SpecDoall`] — one parallel stage, iterations split
//!   round-robin; all cross-iteration dependences speculated.
//! * [`executor::Pipeline`] — DSWP/Spec-DSWP pipelines built stage by
//!   stage (`[S, DOALL, S]`-style), with decoupled, acyclic communication.
//! * [`executor::Tls`] — the TLS baseline: one transaction per iteration
//!   on a replica ring, synchronized dependences forwarded
//!   replica-to-replica, putting communication latency on the critical
//!   path (the cyclic pattern of Figure 1).
//!
//! [`paradigm::Paradigm`] carries the paper's naming (e.g.
//! `Spec-DSWP+[S,DOALL,S]`) and [`paradigm::taxonomy`] reproduces the
//! Figure 2 capability/assumption matrix.

//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dsmtx::{IterOutcome, MtxId, WorkerCtx};
//! use dsmtx_mem::MasterMem;
//! use dsmtx_paradigms::{no_recovery, SpecDoall};
//! use dsmtx_uva::{OwnerId, RegionAllocator};
//!
//! let mut heap = RegionAllocator::new(OwnerId(0));
//! let out = heap.alloc_words(8)?;
//! let body = Arc::new(move |ctx: &mut WorkerCtx, mtx: MtxId| {
//!     ctx.write_no_forward(out.add_words(mtx.0), mtx.0 * mtx.0)?;
//!     Ok(IterOutcome::Continue)
//! });
//! let result = SpecDoall::new(2).run(MasterMem::new(), body, no_recovery(), Some(8))?;
//! assert_eq!(result.master.read(out.add_words(5)), 25);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod executor;
pub mod paradigm;

pub use executor::{no_recovery, set_trace_default, ExecError, Pipeline, SpecDoall, Tls, Tuning};
pub use paradigm::{taxonomy, Paradigm, SpecKind, TaxonomyRow};
