//! Versioned speculative memory for DSMTX.
//!
//! Every DSMTX thread executes against a *private* software memory — the
//! stand-in for the private physical address space of a cluster node. The
//! pieces:
//!
//! * [`page::Page`] — a 4 KiB page of 512 words, the Copy-On-Access
//!   transfer unit.
//! * [`table::PageTable`] — a worker's page table. No page is resident at
//!   first (the paper's access-protected heap); the first touch raises a
//!   [`PageFault`] which the runtime services by copying the committed
//!   page out of the commit unit's image. Rollback re-protects everything
//!   by dropping resident pages.
//! * [`spec::SpecMem`] — a page table plus one program-ordered access log:
//!   speculative stores are recorded for uncommitted-value forwarding and
//!   commit, speculative loads for value-based validation by the
//!   try-commit unit.
//! * [`master::MasterMem`] — the commit unit's committed image. Fresh pages
//!   are zero-filled, mirroring demand-zero allocation.
//!
//! The layer works per page wherever a caller hands it a run of words or
//! keeps hitting one page: [`MasterMem::write_words`] and
//! [`MasterMem::read_words`] probe the page map once per page, and a
//! [`PageTable`] lookup is one probe, or none when the access lands on the
//! page the previous one resolved.
//!
//! Memory versioning falls out of this structure: each worker's private
//! pages are an independent version of the data, so false (anti/output)
//! memory dependences between MTXs never manifest — exactly the "multiple
//! versions of the block array" behaviour the paper describes for
//! `164.gzip` and `256.bzip2`.

//! # Example
//!
//! ```
//! use dsmtx_mem::{MasterMem, SpecMem};
//! use dsmtx_uva::{OwnerId, VAddr};
//! # use dsmtx_mem::Page;
//!
//! // The commit unit owns committed memory ...
//! let mut master = MasterMem::new();
//! let addr = VAddr::new(OwnerId(0), 8);
//! master.write(addr, 7);
//!
//! // ... and a worker speculates against its private view, faulting
//! // committed pages in on first touch (Copy-On-Access).
//! let mut spec = SpecMem::new();
//! let v = spec.read(addr, |page| Ok::<Page, std::convert::Infallible>(master.page(page)))?;
//! assert_eq!(v, 7);
//! // The access was logged for validation by the try-commit unit.
//! assert_eq!(spec.log().len(), 1);
//! # Ok::<(), std::convert::Infallible>(())
//! ```

pub mod cache;
pub mod master;
pub mod page;
pub mod shard;
pub mod spec;
pub mod table;

pub use cache::PageCache;
pub use master::MasterMem;
pub use page::{Page, PageDiff};
pub use shard::{route, shard_of, store_shard_load, ShardMap};
pub use spec::{AccessKind, AccessRecord, SpecMem};
pub use table::{PageFault, PageTable};
