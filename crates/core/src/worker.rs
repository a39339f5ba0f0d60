//! Worker threads: the Table-1 running operations.
//!
//! A worker executes the subTXs of one pipeline stage. Each iteration it:
//!
//! 1. **`begin`** (`mtx_begin`): receives the data frame of this iteration
//!    from every earlier stage — applying forwarded uncommitted stores to
//!    its private memory and buffering `mtx_produce`d user values — plus
//!    the ring frame from its predecessor replica when the stage is a
//!    synchronization ring (TLS / DOACROSS).
//! 2. Runs the stage body, which speculatively reads/writes DSMTX memory
//!    through this context. The first touch of a protected page copies it
//!    out of the committed image (Copy-On-Access, one-sided: the commit
//!    unit takes no part).
//! 3. **`end`** (`mtx_end`): sends the subTX's filtered, ordered access
//!    stream to the speculation units as one frame — the try-commit
//!    shards validate it and the commit unit commits its stores — and a
//!    data frame (forwards + produces) to the executor of this iteration
//!    in every later stage (`mtx_writeAll` semantics).
//!
//! Data frames ship at once, because a later stage is waiting for them.
//! Unit frames ride the queue's batch threshold instead (§4.2's
//! batching), and `UnitLink::wait` — the one blocking primitive of a
//! worker — ships whatever of them is still buffered before the worker
//! blocks. Every blocking point, and every `begin`, also polls the
//! control plane so the worker can unwind into the §4.3 recovery
//! rendezvous or terminate.

use std::collections::VecDeque;

use dsmtx_fabric::{FabricError, FabricStats, RecvPort, SendPort};
use dsmtx_mem::{AccessKind, AccessRecord, SpecMem};
use dsmtx_uva::{RegionAllocator, VAddr};

use crate::commit::CommittedImage;
use crate::config::PipelineShape;
use crate::control::{ControlPlane, Interrupt, EPOCH_UNSEEN};
use crate::ids::{MtxId, StageId, WorkerId};
use crate::poll;
use crate::program::{IterOutcome, StageFn};
use crate::report::ValPlaneStats;
use crate::trace::{TraceBuffer, TraceKind};
use crate::wire::{AccessBlock, Msg};

/// A write-combining store buffer over one subTX's access log.
///
/// Filters the program-ordered access stream down to the records the
/// speculation units actually need, without changing any verdict:
///
/// * a **load** survives only as the *first* access to its address — a
///   repeat load re-observes the same private page (nothing else writes
///   it inside the subTX), so replay would check the identical value
///   against the identical image state; a load *after a local store*
///   observes the forwarded store value, which replay reproduces
///   trivially;
/// * **stores** to the same address coalesce into the first store's
///   stream position carrying the *final* value. Every load of that
///   address at or after the first store was suppressed by the rule
///   above, so no surviving record observes an intermediate value, and
///   the end-of-stream image (what group commit applies) is unchanged.
///
/// Open-addressed table keyed on raw address bits, generation-stamped so
/// reset is O(1) between subTXs.
///
/// Public because the dependence analyzer (`dsmtx-analyze`) reuses it to
/// compute the validation-visible view of a recorded sequential access
/// stream — the same records the runtime would actually ship.
pub struct AccessFilter {
    slots: Vec<FilterSlot>,
    /// Current generation; a slot with a different stamp is empty.
    gen: u64,
    /// `slots.len() - 1`; length is a power of two.
    mask: usize,
}

#[derive(Clone, Copy)]
struct FilterSlot {
    key: u64,
    gen: u64,
    /// A load of `key` already survived (or was made redundant by a
    /// store).
    loaded: bool,
    /// Output index of the surviving store to `key`, `u32::MAX` if none.
    store_at: u32,
}

const NO_STORE: u32 = u32::MAX;

impl AccessFilter {
    /// A fresh filter (reusable across subTXs/iterations).
    pub fn new() -> Self {
        AccessFilter {
            slots: vec![
                FilterSlot {
                    key: 0,
                    gen: 0,
                    loaded: false,
                    store_at: NO_STORE,
                };
                64
            ],
            gen: 0,
            mask: 63,
        }
    }

    /// Grows the table to hold at least `2 * n` keys at < 50% load.
    fn reserve(&mut self, n: usize) {
        let want = (2 * n.max(32)).next_power_of_two();
        if want > self.slots.len() {
            self.slots = vec![
                FilterSlot {
                    key: 0,
                    gen: 0,
                    loaded: false,
                    store_at: NO_STORE,
                };
                want
            ];
            self.mask = want - 1;
            self.gen = 0;
        }
    }

    #[inline]
    fn slot_of(&mut self, key: u64) -> &mut FilterSlot {
        // Fibonacci-style multiplicative hash, taking high bits so that
        // word-aligned addresses (low 3 bits zero) still spread.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let mut i = h as usize & self.mask;
        loop {
            let s = &self.slots[i];
            if s.gen != self.gen || s.key == key {
                return &mut self.slots[i];
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Filters `records` into `out` (cleared first). Returns the number
    /// of suppressed records.
    pub fn filter_into(&mut self, records: &[AccessRecord], out: &mut Vec<AccessRecord>) -> u64 {
        out.clear();
        self.reserve(records.len());
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Generation wrapped: old stamps would read as live.
            for s in &mut self.slots {
                s.gen = u64::MAX;
            }
            self.gen = 1;
        }
        let gen = self.gen;
        let mut filtered = 0u64;
        for r in records {
            let key = r.addr.raw();
            let s = self.slot_of(key);
            if s.gen != gen {
                *s = FilterSlot {
                    key,
                    gen,
                    loaded: false,
                    store_at: NO_STORE,
                };
            }
            match r.kind {
                AccessKind::Load => {
                    if s.loaded || s.store_at != NO_STORE {
                        filtered += 1;
                    } else {
                        s.loaded = true;
                        out.push(*r);
                    }
                }
                AccessKind::Store => {
                    if s.store_at == NO_STORE {
                        s.store_at = out.len() as u32;
                        out.push(*r);
                    } else {
                        out[s.store_at as usize].value = r.value;
                        filtered += 1;
                    }
                }
            }
        }
        filtered
    }
}

impl Default for AccessFilter {
    fn default() -> Self {
        Self::new()
    }
}

/// The execution context handed to stage bodies.
///
/// All program state must flow through this context (speculative memory,
/// produces/consumes); Rust state captured by the stage closure does not
/// roll back on misspeculation.
pub struct WorkerCtx {
    pub(crate) worker: WorkerId,
    pub(crate) stage: StageId,
    pub(crate) shape: PipelineShape,
    /// This worker's own trace buffer.
    pub(crate) trace: TraceBuffer,

    spec: SpecMem,
    /// Where first touches copy committed pages from.
    committed: CommittedImage,
    heap: RegionAllocator,

    /// Outgoing data queues to later-stage workers (plus the ring
    /// successor, which is in the same stage).
    out: Vec<(WorkerId, SendPort<Msg>)>,
    /// Incoming data queues from earlier-stage workers (plus the ring
    /// predecessor).
    inn: Vec<(WorkerId, RecvPort<Msg>)>,
    /// The link to the speculation units plus the control plane: the
    /// stream that must ship before this worker blocks.
    link: UnitLink,

    /// Write-combining store buffer filtering each subTX's access log.
    filter: AccessFilter,
    /// Scratch: the filtered access stream of the current subTX.
    filtered: Vec<AccessRecord>,
    /// Scratch: the packed block of the current subTX.
    block: AccessBlock,
    /// Validation-plane compaction counters (merged into the run report).
    valplane: ValPlaneStats,

    // ---- per-iteration state ----
    cur: Option<MtxId>,
    /// Speculative attempt number of the current subTX: the recovery
    /// count observed at `begin`. Propagated to every downstream unit on
    /// the wire frames so lifecycle events of a retry chain onto a new
    /// span of the same MTX.
    attempt: u32,
    /// Buffered user values per producing stage.
    users: Vec<VecDeque<u64>>,
    /// Buffered ring (synchronized-dependence) values for this iteration.
    ring_in_vals: VecDeque<u64>,
    /// Stores to forward at `end`, in program order: to one later stage
    /// (from [`WorkerCtx::write_to_stage`]), or to every later stage when
    /// `None` (from [`WorkerCtx::write`]).
    forwards: Vec<(Option<StageId>, VAddr, u64)>,
    /// User values produced this iteration, with their target stage.
    produces: Vec<(StageId, u64)>,
    /// Ring values produced this iteration for the successor iteration.
    ring_produces: Vec<u64>,
    /// Ring loopback when the ring stage has a single replica.
    ring_loopback: VecDeque<u64>,
    /// After a recovery at boundary *b*, iteration *b + 1* has no ring
    /// frame (its producer, iteration *b*, was re-executed by the commit
    /// unit): the executor of *b + 1* must skip the ring receive and
    /// re-derive synchronized state from committed memory.
    ring_skip: Option<MtxId>,
}

/// A worker's one link to the speculation units, with its view of the
/// control plane.
///
/// Unit frames are produced without a flush: they ship when a batch
/// fills. A worker must not block while it still holds some, because
/// what it waits for can depend on the units reaching those frames' MTX.
/// For example, stage 0 waits for room on the full queue to a stage-1
/// replica; that replica misspeculated and waits for the recovery; and
/// the commit unit reaches the squashed MTX only through frames stage 0
/// still holds. So every blocking wait of a worker goes through
/// [`UnitLink::wait`], which ships them first.
struct UnitLink {
    ctrl: ControlPlane,
    /// The control epoch this worker last saw ([`ControlPlane::poll`]).
    epoch: u64,
    /// Blocks, loop-exit and misspeculation notices to the units.
    port: SendPort<Msg>,
}

impl UnitLink {
    /// Ships every buffered unit frame, waiting while the transport is
    /// full. The commit unit drains its inputs on every turn, so this
    /// wait ends.
    fn ship(&mut self) -> Result<(), Interrupt> {
        let Self { ctrl, epoch, port } = self;
        poll::wait(ctrl, epoch, || shipped(port))
    }

    /// The worker's one blocking primitive: [`poll::wait`] on `step`,
    /// except that the buffered unit frames ship before the first poll
    /// that finds nothing.
    fn wait<T>(
        &mut self,
        mut step: impl FnMut() -> Result<Option<T>, Interrupt>,
    ) -> Result<T, Interrupt> {
        if let Some(v) = step()? {
            return Ok(v);
        }
        self.ship()?;
        poll::wait(&self.ctrl, &mut self.epoch, step)
    }
}

/// Everything needed to construct a [`WorkerCtx`]; assembled by the system
/// builder.
pub(crate) struct WorkerWiring {
    pub worker: WorkerId,
    pub shape: PipelineShape,
    pub ctrl: ControlPlane,
    pub trace: TraceBuffer,
    pub heap: RegionAllocator,
    pub out: Vec<(WorkerId, SendPort<Msg>)>,
    pub inn: Vec<(WorkerId, RecvPort<Msg>)>,
    pub unit_out: SendPort<Msg>,
    pub committed: CommittedImage,
}

impl WorkerCtx {
    pub(crate) fn new(w: WorkerWiring) -> Self {
        let stage = w.shape.stage_of(w.worker);
        let n_stages = w.shape.n_stages() as usize;
        WorkerCtx {
            worker: w.worker,
            stage,
            shape: w.shape,
            trace: w.trace,
            spec: SpecMem::new(),
            committed: w.committed,
            heap: w.heap,
            out: w.out,
            inn: w.inn,
            link: UnitLink {
                ctrl: w.ctrl,
                epoch: EPOCH_UNSEEN,
                port: w.unit_out,
            },
            filter: AccessFilter::new(),
            filtered: Vec::new(),
            block: AccessBlock::new(),
            valplane: ValPlaneStats::default(),
            cur: None,
            attempt: 0,
            users: vec![VecDeque::new(); n_stages],
            ring_in_vals: VecDeque::new(),
            forwards: Vec::new(),
            produces: Vec::new(),
            ring_produces: Vec::new(),
            ring_loopback: VecDeque::new(),
            ring_skip: None,
        }
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// The pipeline stage this worker executes.
    pub fn stage(&self) -> StageId {
        self.stage
    }

    /// Replica index within the stage.
    pub fn replica(&self) -> u16 {
        self.shape.replica_of(self.worker)
    }

    /// Replica count of this worker's stage.
    pub fn replicas(&self) -> u16 {
        self.shape.kind(self.stage).replicas()
    }

    /// The worker's private UVA allocator — the hooked `malloc`/`free` of
    /// §3.3. Allocation is purely local.
    pub fn heap(&mut self) -> &mut RegionAllocator {
        &mut self.heap
    }

    // ------------------------------------------------------------------
    // Memory operations
    // ------------------------------------------------------------------

    /// Speculative load (validated by the try-commit unit).
    ///
    /// # Errors
    ///
    /// None at present: a first touch copies the committed page without
    /// waiting. The `Result` lets stage bodies use `?` on memory
    /// operations and waiting calls alike.
    pub fn read(&mut self, addr: VAddr) -> Result<u64, Interrupt> {
        self.spec.read(addr, |page| Ok(self.committed.page(page)))
    }

    /// Unvalidated load, for data the plan knows cannot conflict (e.g.
    /// read-only after loop entry, or this worker's private scratch). This
    /// is the manual-parallelization bandwidth optimization; misuse turns
    /// detectable misspeculation into silent wrong answers.
    ///
    /// # Errors
    ///
    /// None at present, as for [`WorkerCtx::read`].
    pub fn read_private(&mut self, addr: VAddr) -> Result<u64, Interrupt> {
        self.spec
            .read_unlogged(addr, |page| Ok(self.committed.page(page)))
    }

    /// Speculative store with `mtx_writeAll` semantics: validated,
    /// committed, and forwarded to all later subTXs of this MTX.
    ///
    /// # Errors
    ///
    /// None at present, as for [`WorkerCtx::read`].
    pub fn write(&mut self, addr: VAddr, value: u64) -> Result<(), Interrupt> {
        self.write_no_forward(addr, value)?;
        self.forwards.push((None, addr, value));
        Ok(())
    }

    /// Speculative store forwarded only to one later stage's subTX of
    /// this MTX (plus validation and commit) — `mtx_writeTo` with a stage
    /// destination. A bandwidth optimization over [`WorkerCtx::write`]
    /// when only one stage reads the value.
    ///
    /// # Errors
    ///
    /// None at present, as for [`WorkerCtx::read`].
    ///
    /// # Panics
    ///
    /// Panics unless `stage` is strictly later than this worker's stage.
    pub fn write_to_stage(
        &mut self,
        stage: StageId,
        addr: VAddr,
        value: u64,
    ) -> Result<(), Interrupt> {
        assert!(
            stage > self.stage,
            "write_to_stage must target a later stage"
        );
        assert!(stage.0 < self.shape.n_stages(), "no such stage");
        self.write_no_forward(addr, value)?;
        self.forwards.push((Some(stage), addr, value));
        Ok(())
    }

    /// Speculative store that is validated and committed but *not*
    /// forwarded to later stages (the plan knows no later subTX of this
    /// MTX reads it) — the `mtx_writeTo(commit)` pattern.
    ///
    /// # Errors
    ///
    /// None at present, as for [`WorkerCtx::read`].
    pub fn write_no_forward(&mut self, addr: VAddr, value: u64) -> Result<(), Interrupt> {
        self.spec
            .write(addr, value, |page| Ok(self.committed.page(page)))
    }

    /// Private store: stays in this worker's memory version only. Used for
    /// per-worker scratch (the memory-versioning optimization); rolled
    /// back on recovery like everything else.
    ///
    /// # Errors
    ///
    /// None at present, as for [`WorkerCtx::read`].
    pub fn write_private(&mut self, addr: VAddr, value: u64) -> Result<(), Interrupt> {
        self.spec
            .write_unlogged(addr, value, |page| Ok(self.committed.page(page)))
    }

    // ------------------------------------------------------------------
    // Pipeline data
    // ------------------------------------------------------------------

    /// Sends a user value to the next stage's subTX of this iteration
    /// (`mtx_produce`).
    ///
    /// # Panics
    ///
    /// Panics when called from the last stage.
    pub fn produce(&mut self, value: u64) {
        let next = StageId(self.stage.0 + 1);
        assert!(
            next.0 < self.shape.n_stages(),
            "produce from the last stage"
        );
        self.produces.push((next, value));
    }

    /// Sends a user value to a specific later stage.
    ///
    /// # Panics
    ///
    /// Panics unless `stage` is strictly later than this worker's stage.
    pub fn produce_to(&mut self, stage: StageId, value: u64) {
        assert!(stage > self.stage, "produce_to must target a later stage");
        assert!(stage.0 < self.shape.n_stages(), "no such stage");
        self.produces.push((stage, value));
    }

    /// Consumes a value produced by the previous stage (`mtx_consume`).
    ///
    /// # Panics
    ///
    /// Panics when no value is available — produce/consume counts are part
    /// of the parallelization plan and must match.
    pub fn consume(&mut self) -> u64 {
        assert!(self.stage.0 > 0, "consume at the first stage");
        self.consume_from(StageId(self.stage.0 - 1))
    }

    /// Consumes a value produced by `stage` for this iteration.
    ///
    /// # Panics
    ///
    /// Panics when no value is available from that stage.
    pub fn consume_from(&mut self, stage: StageId) -> u64 {
        self.try_consume_from(stage)
            .unwrap_or_else(|| panic!("no value from {stage} in {:?}", self.cur))
    }

    /// Consumes a value from `stage` if one was produced for this
    /// iteration.
    pub fn try_consume_from(&mut self, stage: StageId) -> Option<u64> {
        self.users[stage.0 as usize].pop_front()
    }

    /// Forwards a synchronized cross-iteration value to the next iteration
    /// (ring stages only: the TLS/DOACROSS mechanism).
    ///
    /// # Panics
    ///
    /// Panics when this stage is not the declared ring stage.
    pub fn sync_produce(&mut self, value: u64) {
        assert_eq!(
            self.shape.ring_stage(),
            Some(self.stage),
            "sync_produce outside the ring stage"
        );
        self.ring_produces.push(value);
    }

    /// Takes the synchronized values forwarded by the previous iteration
    /// (none for iteration 0), in the order they were produced. The
    /// values are gone once the iterator is dropped, read or not.
    pub fn sync_take(&mut self) -> impl Iterator<Item = u64> + '_ {
        self.ring_in_vals.drain(..)
    }

    // ------------------------------------------------------------------
    // Speculation control
    // ------------------------------------------------------------------

    /// Declares this iteration misspeculated (`mtx_misspec`) — e.g. failed
    /// control-flow speculation — notifies the commit unit, and waits for
    /// the recovery (or termination) interrupt.
    ///
    /// # Errors
    ///
    /// Always returns an interrupt; call as `return ctx.misspec();`.
    pub fn misspec<T>(&mut self) -> Result<T, Interrupt> {
        let mtx = self.cur.expect("misspec outside an iteration");
        // Abort the subTX: nothing of it may reach the other units.
        self.spec.clear_log();
        self.forwards.clear();
        self.produces.clear();
        self.ring_produces.clear();
        self.link
            .port
            .produce(Msg::WorkerMisspec {
                mtx,
                attempt: self.attempt,
            })
            .map_err(classify)?;
        // Block until the commit unit orchestrates recovery; the wait
        // ships the notice together with every frame the commit unit
        // needs to reach this MTX.
        self.link.wait(|| Ok(None::<T>))
    }

    // ------------------------------------------------------------------
    // Iteration lifecycle (used by the worker main loop; public for
    // custom executors)
    // ------------------------------------------------------------------

    /// Enters the subTX of `mtx` (`mtx_begin`): checks the control plane,
    /// then refreshes memory with the uncommitted stores of earlier subTXs
    /// and buffers their produces.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn begin(&mut self, mtx: MtxId) -> Result<(), Interrupt> {
        // A subTX that never waits never polls inside a wait. Polling here
        // keeps such a worker from running ahead past a recovery it would
        // never join (§4.3: every thread must reach the barriers).
        if let Some(intr) = self.link.ctrl.poll(&mut self.link.epoch) {
            return Err(intr);
        }
        self.cur = Some(mtx);
        // The recovery count at entry is the attempt number: a subTX
        // re-dispatched after recovery *r* is attempt *r*, so its events
        // (and every downstream unit's, via the wire frames) land on a
        // fresh span chained to the original.
        self.attempt = self.link.ctrl.recoveries() as u32;
        self.trace.record(
            Some(mtx),
            self.attempt,
            Some(self.stage),
            TraceKind::SubTxBegin,
        );
        for s in 0..self.stage.0 {
            let src = self.shape.executor(StageId(s), mtx);
            self.recv_frame(src, mtx, false)?;
        }
        if self.shape.ring_stage() == Some(self.stage) && mtx.0 >= 1 {
            if self.ring_skip.take() == Some(mtx) {
                // The producing iteration was re-executed sequentially
                // during recovery; synchronized state must be re-derived
                // from committed memory (`sync_take` will be empty).
            } else {
                let src = self.shape.executor(self.stage, MtxId(mtx.0 - 1));
                if src == self.worker {
                    // Single-replica ring: values loop back locally. The
                    // swap hands the emptied `ring_in_vals` buffer to the
                    // loopback, so neither regrows.
                    std::mem::swap(&mut self.ring_in_vals, &mut self.ring_loopback);
                } else {
                    self.recv_frame(src, mtx, true)?;
                }
            }
        }
        // All upstream frames are in; user code runs next. The gap back
        // to SubTxBegin is this subTX's queue wait.
        self.trace.record(
            Some(mtx),
            self.attempt,
            Some(self.stage),
            TraceKind::ExecBegin,
        );
        Ok(())
    }

    /// Exits the subTX of `mtx` (`mtx_end`): queues the access stream for
    /// the speculation units (it ships when its batch fills, or before
    /// this worker next blocks), and ships data frames to later stages
    /// and the ring frame to the successor iteration.
    ///
    /// # Errors
    ///
    /// Interrupted by recovery or termination.
    pub fn end(&mut self, mtx: MtxId, outcome: IterOutcome) -> Result<(), Interrupt> {
        debug_assert_eq!(self.cur, Some(mtx), "end without matching begin");
        let attempt = self.attempt;
        // User code is done; everything from here to SubTxEnd is packing
        // the frames and shipping the data-plane ones.
        self.trace
            .record(Some(mtx), attempt, Some(self.stage), TraceKind::FlushBegin);
        let stage = self.stage;
        let exit = outcome == IterOutcome::Exit;
        let Self {
            spec,
            filter,
            filtered,
            block,
            valplane,
            ..
        } = self;

        // Filter the access log through the write-combining store buffer,
        // then pack the survivors into the subTX's block. Every buffer
        // here keeps its capacity for the next subTX.
        valplane.records_filtered += filter.filter_into(spec.log(), filtered);
        spec.clear_log();
        block.clear();
        for r in filtered.iter() {
            block.push(r.kind, r.addr.raw(), r.value);
        }

        // The loop-exit notice goes first, so the commit unit knows of the
        // exit before any shard can validate this MTX.
        if exit {
            send(&mut self.link.port, Msg::LoopExit { mtx })?;
        }
        // One frame carrying an exact-size copy of the block; the commit
        // unit frees it once the MTX commits. The fabric charges the frame
        // one queue slot plus the packed payload.
        let block = Box::new(self.block.clone());
        self.valplane.records_post += 1;
        self.valplane.bytes_post += std::mem::size_of::<Msg>() as u64 + block.wire_bytes();
        self.valplane.blocks += 1;
        self.valplane.block_records += u64::from(block.len());
        send(
            &mut self.link.port,
            Msg::ValBlock {
                mtx,
                attempt,
                stage,
                block,
            },
        )?;
        if exit {
            // The loop ends once this MTX commits; ship now rather than
            // after the batch fills with iterations past the exit.
            self.link.ship()?;
        }

        // Data frames to the executor of this iteration in each later
        // stage: forwarded stores + user values.
        for t in (stage.0 + 1)..self.shape.n_stages() {
            let t = StageId(t);
            let dst = self.shape.executor(t, mtx);
            let Self {
                out,
                link,
                forwards,
                produces,
                ..
            } = self;
            let port = port_to(out, dst);
            send(port, Msg::FrameBegin { mtx })?;
            // In program order, so the last store to an address wins.
            for &(_, addr, value) in forwards
                .iter()
                .filter(|(to, _, _)| to.is_none_or(|to| to == t))
            {
                send(
                    port,
                    Msg::Forward {
                        addr: addr.raw(),
                        value,
                    },
                )?;
            }
            for &(ps, value) in produces.iter().filter(|(ps, _)| *ps == t) {
                debug_assert_eq!(ps, t);
                send(port, Msg::User { value })?;
            }
            send(port, Msg::FrameEnd { mtx })?;
            link.wait(|| shipped(port))?;
        }
        self.forwards.clear();
        self.produces.clear();

        // Ring frame for the successor iteration.
        if self.shape.ring_stage() == Some(stage) {
            match self.shape.ring_next(self.worker) {
                None => {
                    self.ring_loopback.clear();
                    self.ring_loopback.extend(&self.ring_produces);
                }
                Some(dst) => {
                    let next_mtx = MtxId(mtx.0 + 1);
                    let Self {
                        out,
                        link,
                        ring_produces,
                        ..
                    } = self;
                    let port = port_to(out, dst);
                    send(port, Msg::FrameBegin { mtx: next_mtx })?;
                    for &value in ring_produces.iter() {
                        send(port, Msg::User { value })?;
                    }
                    send(port, Msg::FrameEnd { mtx: next_mtx })?;
                    link.wait(|| shipped(port))?;
                }
            }
            self.ring_produces.clear();
        }

        // Reset per-iteration state.
        for q in &mut self.users {
            q.clear();
        }
        self.ring_in_vals.clear();
        self.trace
            .record(Some(mtx), attempt, Some(stage), TraceKind::SubTxEnd);
        self.cur = None;
        Ok(())
    }

    fn recv_frame(&mut self, src: WorkerId, mtx: MtxId, is_ring: bool) -> Result<(), Interrupt> {
        let src_stage = self.shape.stage_of(src).0 as usize;
        let Self {
            inn,
            spec,
            users,
            ring_in_vals,
            link,
            ..
        } = self;
        let port = inn
            .iter_mut()
            .find(|(id, _)| *id == src)
            .map(|(_, p)| p)
            .unwrap_or_else(|| panic!("no data queue from {src}"));

        let first = link.wait(|| port.try_consume().map_err(classify))?;
        match first {
            Msg::FrameBegin { mtx: m } => {
                assert_eq!(m, mtx, "frame out of order from {src}: got {m}, want {mtx}")
            }
            other => panic!("expected FrameBegin from {src}, got {other:?}"),
        }
        loop {
            let msg = link.wait(|| port.try_consume().map_err(classify))?;
            match msg {
                Msg::Forward { addr, value } => spec.apply_forwarded(VAddr::from_raw(addr), value),
                Msg::User { value } => {
                    if is_ring {
                        ring_in_vals.push_back(value);
                    } else {
                        users[src_stage].push_back(value);
                    }
                }
                Msg::FrameEnd { mtx: m } => {
                    assert_eq!(m, mtx, "frame end mismatch from {src}");
                    return Ok(());
                }
                other => panic!("unexpected message in frame from {src}: {other:?}"),
            }
        }
    }

    /// Blocks until an interrupt arrives (used when this worker has no
    /// iterations left under an iteration limit).
    pub(crate) fn idle_until_interrupt(&mut self) -> Result<(), Interrupt> {
        self.link.wait(|| Ok(None::<()>))
    }

    /// Raises a timeout-driven recovery request on the control plane and
    /// blocks until the commit unit answers with a status change. The
    /// request, not the raiser, picks the boundary: the commit unit always
    /// recovers at its next commit so no committed-but-unapplied MTX is
    /// lost.
    pub(crate) fn request_fault_recovery(&mut self) -> Interrupt {
        self.link.ctrl.raise_fabric_fault();
        loop {
            match self.link.wait(|| Ok(None::<()>)) {
                Ok(()) => unreachable!("step never yields"),
                // Shipping the held frames ran out of retries again; the
                // request raised above already covers it.
                Err(Interrupt::FabricTimeout) => {}
                Err(intr) => return intr,
            }
        }
    }

    /// Participates in the §4.3 recovery protocol:
    /// barrier → flush queues → barrier → re-protect heap → barrier.
    ///
    /// `boundary` is the squashed MTX being re-executed by the commit
    /// unit; its successor iteration will have no ring frame.
    pub(crate) fn do_recovery(&mut self, boundary: MtxId) {
        let ctrl = self.link.ctrl.clone();
        let barrier = ctrl.barrier();
        barrier.wait(); // B1: everyone is in recovery mode.
        for (_, port) in &mut self.out {
            port.clear();
        }
        self.link.port.clear();
        for (_, port) in &mut self.inn {
            port.drain();
        }
        barrier.wait(); // B2: all speculative queue state is gone.
        self.spec.rollback(); // Reinstate heap access protection.
        for q in &mut self.users {
            q.clear();
        }
        self.ring_in_vals.clear();
        self.ring_loopback.clear();
        self.forwards.clear();
        self.produces.clear();
        self.ring_produces.clear();
        self.cur = None;
        self.filtered.clear();
        self.block.clear();
        // Iteration boundary+1's ring producer was re-executed by the
        // commit unit: its executor must re-derive synchronized state
        // from committed memory instead of waiting for a frame.
        self.ring_skip = Some(boundary.next());
        barrier.wait(); // B3: the commit unit re-executed; recommence.
        self.link.epoch = EPOCH_UNSEEN;
    }

    /// Committed pages this worker copied in on a first touch so far.
    pub fn coa_faults(&self) -> u64 {
        self.spec.faults_served()
    }

    /// This worker's validation-plane compaction counters (merged across
    /// workers into [`crate::RunReport::valplane`]).
    pub fn valplane(&self) -> ValPlaneStats {
        self.valplane.clone()
    }

    /// The traffic counters of every link end this worker holds (merged
    /// across roles into [`crate::RunReport::stats`]).
    pub(crate) fn link_stats(&self) -> impl Iterator<Item = &FabricStats> {
        let out = self.out.iter().map(|(_, port)| port.stats());
        let inn = self.inn.iter().map(|(_, port)| port.stats());
        out.chain(inn).chain([self.link.port.stats()])
    }
}

impl std::fmt::Debug for WorkerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("worker", &self.worker)
            .field("stage", &self.stage)
            .field("cur", &self.cur)
            .finish_non_exhaustive()
    }
}

/// Maps a fabric failure to the interrupt the runtime handles it with: an
/// exhausted retry budget asks for recovery, anything else means the peer
/// is gone.
fn classify(e: FabricError) -> Interrupt {
    match e {
        FabricError::Timeout => Interrupt::FabricTimeout,
        _ => Interrupt::ChannelDown,
    }
}

/// Buffered, non-blocking enqueue; hard errors on peer death or an
/// exhausted fault-retry budget (an overfull batch flushes eagerly).
fn send(port: &mut SendPort<Msg>, msg: Msg) -> Result<(), Interrupt> {
    port.produce(msg).map_err(classify)
}

/// One non-blocking attempt to ship `port`'s buffered values, as a wait
/// step: `Some(())` once nothing is pending. A full transport or an
/// injected fault with budget left reads as "not yet"; a dead peer or an
/// exhausted retry budget is an interrupt.
fn shipped(port: &mut SendPort<Msg>) -> Result<Option<()>, Interrupt> {
    match port.try_flush() {
        Ok(done) => Ok(done.then_some(())),
        Err(FabricError::Retriable) => Ok(None),
        Err(e) => Err(classify(e)),
    }
}

fn port_to(ports: &mut [(WorkerId, SendPort<Msg>)], dst: WorkerId) -> &mut SendPort<Msg> {
    ports
        .iter_mut()
        .find(|(id, _)| *id == dst)
        .map(|(_, p)| p)
        .unwrap_or_else(|| panic!("no data queue to {dst}"))
}

/// The worker thread body: iterate over assigned MTXs, handling recovery
/// and termination.
pub(crate) fn worker_main(mut ctx: WorkerCtx, stage_fn: StageFn, limit: Option<u64>) -> WorkerCtx {
    let mut next = ctx.shape.next_assigned(ctx.worker, MtxId(0));
    loop {
        let exhausted = limit.is_some_and(|l| next.0 >= l);
        let result = if exhausted {
            ctx.idle_until_interrupt()
        } else {
            run_iteration(&mut ctx, next, &stage_fn)
        };
        // A transfer exhausted its retry budget: ask the commit unit for a
        // recovery round, and handle its answer like any other interrupt.
        let result = match result {
            Err(Interrupt::FabricTimeout) => Err(ctx.request_fault_recovery()),
            other => other,
        };
        match result {
            Ok(()) => next = ctx.shape.next_assigned(ctx.worker, next.next()),
            Err(Interrupt::Recovery { boundary }) => {
                ctx.do_recovery(boundary);
                next = ctx.shape.next_assigned(ctx.worker, boundary.next());
            }
            Err(Interrupt::Terminate) => break,
            Err(Interrupt::ChannelDown) => {
                // A peer thread is gone; convert into a typed shutdown so
                // every other thread unwinds instead of hanging.
                ctx.link.ctrl.report_channel_down();
                break;
            }
            Err(Interrupt::FabricTimeout) => {
                unreachable!("request_fault_recovery absorbs timeouts")
            }
        }
    }
    ctx
}

fn run_iteration(ctx: &mut WorkerCtx, mtx: MtxId, stage_fn: &StageFn) -> Result<(), Interrupt> {
    ctx.begin(mtx)?;
    let outcome = stage_fn(ctx, mtx)?;
    ctx.end(mtx, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmtx_fabric::{channel, channel_faulted, CostModel, FaultPlan, FaultRates, RetryPolicy};

    #[test]
    fn shipping_wait_reports_dead_peer_as_channel_down() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        // Batch larger than what we enqueue: produce only buffers, the
        // flush discovers the dropped consumer.
        let (mut tx, rx) = channel::<Msg>(8, 4);
        drop(rx);
        tx.produce(Msg::User { value: 0 }).unwrap();
        let r = poll::wait(&ctrl, &mut epoch, || shipped(&mut tx));
        assert_eq!(r.unwrap_err(), Interrupt::ChannelDown);
    }

    #[test]
    fn shipping_wait_converts_exhausted_retries_into_fabric_timeout() {
        let ctrl = ControlPlane::new(1);
        let mut epoch = ctrl.epoch();
        let plan = FaultPlan::new(7, FaultRates::only_drop(1.0));
        let (mut tx, _rx) = channel_faulted::<Msg>(
            8,
            4,
            CostModel::FREE,
            Some(plan.injector(0)),
            RetryPolicy { max_attempts: 4 },
        );
        tx.produce(Msg::User { value: 0 }).unwrap();
        let r = poll::wait(&ctrl, &mut epoch, || shipped(&mut tx));
        assert_eq!(r.unwrap_err(), Interrupt::FabricTimeout);
    }

    #[test]
    fn classify_maps_fabric_errors() {
        assert_eq!(classify(FabricError::Timeout), Interrupt::FabricTimeout);
        assert_eq!(classify(FabricError::Disconnected), Interrupt::ChannelDown);
        assert_eq!(classify(FabricError::Retriable), Interrupt::ChannelDown);
    }

    fn rec(kind: AccessKind, addr: u64, value: u64) -> AccessRecord {
        AccessRecord {
            kind,
            addr: VAddr::from_raw(addr),
            value,
        }
    }

    fn filter(records: &[AccessRecord]) -> (Vec<AccessRecord>, u64) {
        let mut f = AccessFilter::new();
        let mut out = Vec::new();
        let n = f.filter_into(records, &mut out);
        (out, n)
    }

    /// Reference implementation of the filtering contract: first load per
    /// address (unless locally stored before), one store per address at
    /// first-store position with the final value.
    fn filter_reference(records: &[AccessRecord]) -> Vec<AccessRecord> {
        use std::collections::HashMap;
        let mut out: Vec<AccessRecord> = Vec::new();
        let mut seen_load: HashMap<u64, ()> = HashMap::new();
        let mut store_at: HashMap<u64, usize> = HashMap::new();
        for r in records {
            let key = r.addr.raw();
            match r.kind {
                AccessKind::Load => {
                    if !seen_load.contains_key(&key) && !store_at.contains_key(&key) {
                        seen_load.insert(key, ());
                        out.push(*r);
                    }
                }
                AccessKind::Store => match store_at.get(&key) {
                    Some(&i) => out[i].value = r.value,
                    None => {
                        store_at.insert(key, out.len());
                        out.push(*r);
                    }
                },
            }
        }
        out
    }

    #[test]
    fn filter_suppresses_repeat_loads_and_coalesces_stores() {
        let (out, n) = filter(&[
            rec(AccessKind::Load, 8, 5),
            rec(AccessKind::Load, 8, 5),     // repeat load: suppressed
            rec(AccessKind::Store, 8, 9),    // first store: survives here
            rec(AccessKind::Load, 8, 9),     // load after store: suppressed
            rec(AccessKind::Store, 8, 11),   // coalesces into the first store
            rec(AccessKind::Load, 16, 0),    // different address: survives
            rec(AccessKind::Store, 4096, 1), // different page: survives
        ]);
        assert_eq!(n, 3);
        assert_eq!(
            out,
            vec![
                rec(AccessKind::Load, 8, 5),
                rec(AccessKind::Store, 8, 11), // final value, first position
                rec(AccessKind::Load, 16, 0),
                rec(AccessKind::Store, 4096, 1),
            ]
        );
    }

    #[test]
    fn filter_passes_disjoint_streams_through_untouched() {
        let records: Vec<AccessRecord> = (0..100u64)
            .map(|i| {
                rec(
                    if i % 2 == 0 {
                        AccessKind::Load
                    } else {
                        AccessKind::Store
                    },
                    8 * i,
                    i,
                )
            })
            .collect();
        let (out, n) = filter(&records);
        assert_eq!(n, 0);
        assert_eq!(out, records);
    }

    #[test]
    fn filter_matches_reference_on_pseudorandom_streams() {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut f = AccessFilter::new();
        let mut out = Vec::new();
        for round in 0..20 {
            let mut records = Vec::new();
            for i in 0..(50 + round * 37) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A small address universe forces heavy collisions.
                let addr = 8 * (x % 23);
                let kind = if x & 4 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                records.push(rec(kind, addr, x.wrapping_add(i)));
            }
            // Reuse one filter across rounds: generation stamping must
            // isolate subTXs from each other.
            let n = f.filter_into(&records, &mut out);
            assert_eq!(out, filter_reference(&records), "round {round}");
            assert_eq!(n as usize, records.len() - out.len());
        }
    }

    #[test]
    fn filtered_stream_preserves_final_image_and_first_observations() {
        // The soundness invariant the compaction rests on: replaying the
        // filtered stream yields the same final store image, and every
        // surviving load observes what the full stream's first load of
        // that address observed.
        let mut x = 1u64;
        let mut records = Vec::new();
        for i in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = 8 * (x % 17);
            let kind = if x & 8 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            records.push(rec(kind, addr, i));
        }
        let (out, _) = filter(&records);
        use std::collections::HashMap;
        let mut full_image: HashMap<u64, u64> = HashMap::new();
        for r in &records {
            if r.kind == AccessKind::Store {
                full_image.insert(r.addr.raw(), r.value);
            }
        }
        let mut filt_image: HashMap<u64, u64> = HashMap::new();
        for r in &out {
            if r.kind == AccessKind::Store {
                assert!(
                    !filt_image.contains_key(&r.addr.raw()),
                    "one store per address after coalescing"
                );
                filt_image.insert(r.addr.raw(), r.value);
            }
        }
        assert_eq!(full_image, filt_image);
        for r in &out {
            if r.kind == AccessKind::Load {
                let first = records
                    .iter()
                    .find(|q| q.addr == r.addr)
                    .expect("load came from the stream");
                assert_eq!(first.kind, AccessKind::Load, "no store precedes it");
                assert_eq!(first.value, r.value);
            }
        }
    }
}
