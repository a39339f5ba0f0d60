//! Batched message queues.
//!
//! The enhanced message queue of §4.2: instead of paying the full
//! per-message transport overhead for every produced value, the send side
//! buffers values and ships a whole packet when the batch threshold fills
//! (or on [`SendPort::flush`]). The receive side unpacks packets and hands
//! values out one at a time. Unlike `MPI_Bsend`, buffer space is managed
//! automatically; callers never allocate or recycle it. Internally the
//! receiver returns drained batch buffers to the sender over a freelist
//! channel, so steady-state traffic ships packets without allocating —
//! a fresh buffer is only allocated when the freelist is momentarily
//! empty (startup, or the consumer running behind).
//!
//! Queues are single-producer single-consumer, matching the paper's
//! point-to-point channels between pipeline stages. A stream ends when
//! its sender is dropped: the receiver still gets every packet shipped
//! before, then [`FabricError::Disconnected`]. Each end counts its own
//! traffic in a [`FabricStats`] of its own ([`SendPort::stats`],
//! [`RecvPort::stats`]).
//!
//! # Fault injection
//!
//! A link delivers in order and exactly once, as an MPI point-to-point
//! channel does (MPI's non-overtaking rule): the transport is one bounded
//! FIFO with one producer and one consumer, so the receiver accepts every
//! packet as it arrives. A queue built through [`channel_faulted`]
//! carries an optional [`FaultInjector`] that can only fail a ship
//! attempt: an injected drop or stall leaves the packet queued and
//! consumes an attempt from a bounded [`RetryPolicy`] budget
//! ([`FabricError::Retriable`] while budget remains,
//! [`FabricError::Timeout`] once it exhausts). Recovery pairs
//! [`SendPort::clear`] with [`RecvPort::drain`].

use std::collections::VecDeque;
use std::time::Instant;

use crossbeam::channel;

use crate::cost::CostModel;
use crate::error::{FabricError, Result};
use crate::fault::{FaultDecision, FaultInjector, RetryPolicy};
use crate::stats::FabricStats;

/// A packet on the wire: one batch of values.
#[derive(Debug)]
struct Packet<T> {
    batch: Vec<T>,
    /// When the packet hit the transport; the receiver turns this into
    /// the queue-dwell histogram (`fabric.queue_dwell_us`).
    shipped: Instant,
}

/// Producer end of a batched queue.
///
/// Values accumulate in a local buffer until `batch` of them are pending,
/// then move as a single transport packet. Call [`SendPort::flush`] at
/// communication points (e.g. end of a subTX) to push out a partial batch.
#[derive(Debug)]
pub struct SendPort<T> {
    tx: channel::Sender<Packet<T>>,
    buf: Vec<T>,
    batch: usize,
    item_bytes: u64,
    cost: CostModel,
    /// What this end shipped, and the faults injected on its ship path.
    stats: FabricStats,
    fault: Option<FaultInjector>,
    retry: RetryPolicy,
    /// Consecutive consumed attempts for the packet at the head.
    attempts: u32,
    /// Batch buffers recycled by the receiver after unpacking.
    free_rx: channel::Receiver<Vec<T>>,
}

/// Consumer end of a batched queue.
#[derive(Debug)]
pub struct RecvPort<T> {
    rx: channel::Receiver<Packet<T>>,
    cur: VecDeque<T>,
    item_bytes: u64,
    cost: CostModel,
    /// What this end unpacked and drained.
    stats: FabricStats,
    /// Returns drained batch buffers to the sender for reuse.
    free_tx: channel::Sender<Vec<T>>,
}

/// Creates a batched SPSC queue.
///
/// * `batch` — number of items that triggers an automatic flush (≥ 1).
/// * `capacity` — maximum number of in-flight packets; bounds how far a
///   producer stage can run ahead of its consumer (the paper bounds
///   outstanding MTX versions the same way).
///
/// # Panics
///
/// Panics if `batch` or `capacity` is zero.
pub fn channel<T>(batch: usize, capacity: usize) -> (SendPort<T>, RecvPort<T>) {
    channel_with(batch, capacity, CostModel::FREE)
}

/// Creates a batched SPSC queue with an explicit cost model.
///
/// # Panics
///
/// Panics if `batch` or `capacity` is zero.
pub fn channel_with<T>(
    batch: usize,
    capacity: usize,
    cost: CostModel,
) -> (SendPort<T>, RecvPort<T>) {
    channel_faulted(batch, capacity, cost, None, RetryPolicy::DEFAULT)
}

/// Creates a batched SPSC queue whose send path runs under an optional
/// fault injector with the given retry budget.
///
/// # Panics
///
/// Panics if `batch` or `capacity` is zero.
pub fn channel_faulted<T>(
    batch: usize,
    capacity: usize,
    cost: CostModel,
    fault: Option<FaultInjector>,
    retry: RetryPolicy,
) -> (SendPort<T>, RecvPort<T>) {
    assert!(batch >= 1, "batch must be at least 1");
    assert!(capacity >= 1, "capacity must be at least 1");
    let (tx, rx) = channel::bounded(capacity);
    // The freelist is bounded by the transport's depth: at most `capacity`
    // packets are in flight, so a burst returns about that many husks,
    // and a freelist that holds them all serves the next burst without
    // allocating. Past that bound a returned husk is dropped (counted in
    // [`FabricStats::freelist_drops`]) and the next ship allocates fresh,
    // which is not an error.
    let (free_tx, free_rx) = channel::bounded(capacity);
    (
        SendPort {
            tx,
            buf: Vec::with_capacity(batch),
            batch,
            item_bytes: std::mem::size_of::<T>() as u64,
            cost,
            stats: FabricStats::new(),
            fault,
            retry,
            attempts: 0,
            free_rx,
        },
        RecvPort {
            rx,
            cur: VecDeque::new(),
            item_bytes: std::mem::size_of::<T>() as u64,
            cost,
            stats: FabricStats::new(),
            free_tx,
        },
    )
}

impl<T> SendPort<T> {
    /// Enqueues one value, shipping a packet when the batch fills.
    ///
    /// If the transport is momentarily full — or an injected fault eats the
    /// ship attempt — the value simply stays buffered; like the paper's
    /// queue, buffer space is managed automatically and a producer is never
    /// forced to block mid-compute. Use [`SendPort::flush`] or
    /// [`SendPort::try_flush`] at communication points to guarantee
    /// delivery.
    ///
    /// # Errors
    ///
    /// * [`FabricError::Disconnected`] if the consumer was dropped.
    /// * [`FabricError::Timeout`] if the fault-retry budget exhausted.
    pub fn produce(&mut self, value: T) -> Result<()> {
        self.buf.push(value);
        if self.buf.len() >= self.batch {
            match self.try_flush() {
                Ok(_) => {}
                // The attempt was faulted; the batch stays buffered and a
                // later flush retries.
                Err(FabricError::Retriable) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ships any buffered values, retrying [`SendPort::try_flush`] until
    /// nothing is pending. A full transport waits for the consumer to
    /// drain it; under a fault plan every faulted attempt draws on the
    /// retry budget. No-op when nothing is pending.
    ///
    /// # Errors
    ///
    /// * [`FabricError::Disconnected`] if the consumer was dropped.
    /// * [`FabricError::Timeout`] if the fault-retry budget exhausted.
    pub fn flush(&mut self) -> Result<()> {
        loop {
            match self.try_flush() {
                Ok(true) => return Ok(()),
                Ok(false) | Err(FabricError::Retriable) => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
    }

    /// A buffer for the next batch: a husk the receiver recycled when one
    /// is waiting, a fresh allocation otherwise.
    fn next_buf(&mut self) -> Vec<T> {
        self.free_rx
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.batch))
    }

    /// Ships buffered values without blocking: the one ship path of the
    /// queue. Each attempt draws one decision from the fault injector
    /// (none without a fault plan).
    ///
    /// Returns `Ok(true)` when nothing remains pending (sent, or nothing
    /// to send) and `Ok(false)` when the transport is full — retry later.
    /// Interruptible senders (the DSMTX recovery protocol) poll this from
    /// their own wait.
    ///
    /// # Errors
    ///
    /// * [`FabricError::Retriable`] — an injected fault consumed this
    ///   attempt; the packet stays queued and budget remains.
    /// * [`FabricError::Timeout`] — the retry budget exhausted.
    /// * [`FabricError::Disconnected`] if the consumer was dropped.
    pub fn try_flush(&mut self) -> Result<bool> {
        if self.buf.is_empty() {
            return Ok(true);
        }
        if let Some(fault) = &mut self.fault {
            match fault.decide() {
                FaultDecision::None => {}
                FaultDecision::Drop => {
                    self.stats.fault_drops += 1;
                    return self.consume_attempt(true);
                }
                FaultDecision::Stall => {
                    self.stats.fault_stalls += 1;
                    return self.consume_attempt(true);
                }
            }
        }
        // `take` leaves a capacity-zero Vec; a real buffer is pulled from
        // the freelist only after the packet ships, so a full transport
        // wastes no allocation.
        let batch = std::mem::take(&mut self.buf);
        let items = batch.len() as u64;
        match self.tx.try_send(Packet {
            batch,
            shipped: Instant::now(),
        }) {
            Ok(()) => {
                self.cost.charge_send();
                self.stats.record_packet(items, items * self.item_bytes);
                self.attempts = 0;
                self.buf = self.next_buf();
                Ok(true)
            }
            Err(channel::TrySendError::Full(Packet { batch, .. })) => {
                self.buf = batch;
                self.consume_attempt(false)
            }
            Err(channel::TrySendError::Disconnected(_)) => Err(FabricError::Disconnected),
        }
    }

    /// Books one consumed attempt against the retry budget.
    ///
    /// `faulted` distinguishes an injected fault ([`FabricError::Retriable`])
    /// from a merely full transport (`Ok(false)`); both draw budget while a
    /// fault plan is active, so a stalled peer converges to
    /// [`FabricError::Timeout`] instead of blocking forever.
    fn consume_attempt(&mut self, faulted: bool) -> Result<bool> {
        if self.fault.is_none() {
            // Without a fault plan a full transport is plain backpressure.
            return Ok(false);
        }
        self.stats.retries += 1;
        self.attempts += 1;
        if self.attempts >= self.retry.max_attempts {
            self.attempts = 0;
            self.stats.send_timeouts += 1;
            return Err(FabricError::Timeout);
        }
        if faulted {
            Err(FabricError::Retriable)
        } else {
            Ok(false)
        }
    }

    /// Discards all locally buffered (not yet shipped) values and the
    /// pending retry count.
    ///
    /// Used during misspeculation recovery: buffered speculative values
    /// must not survive the rollback (§4.3 step "flush queues"). The peer
    /// [`RecvPort::drain`]s in the same recovery round.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.attempts = 0;
    }

    /// Number of values currently buffered (not yet shipped).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The configured batch threshold.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// This end's traffic and fault counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }
}

impl<T> RecvPort<T> {
    /// Blocks until one value is available and returns it.
    ///
    /// # Errors
    ///
    /// [`FabricError::Disconnected`] once the producer was dropped and
    /// every packet it shipped was delivered.
    pub fn consume(&mut self) -> Result<T> {
        loop {
            if let Some(v) = self.cur.pop_front() {
                return Ok(v);
            }
            let pkt = self.rx.recv().map_err(|_| FabricError::Disconnected)?;
            self.unpack(pkt);
        }
    }

    /// Returns an emptied batch buffer to the sender's freelist; dropped
    /// if the freelist is full (counted) or the sender is gone (not a
    /// drop — nobody is left to reuse it).
    fn recycle(&mut self, mut batch: Vec<T>) {
        batch.clear();
        if let Err(channel::TrySendError::Full(_)) = self.free_tx.try_send(batch) {
            self.stats.freelist_drops += 1;
        }
    }

    /// Records one packet's dwell and accepts its batch into the delivery
    /// buffer: the link is in order and exactly once, so every packet is
    /// the next one. The emptied buffer goes home for reuse.
    fn unpack(&mut self, pkt: Packet<T>) {
        let Packet { mut batch, shipped } = pkt;
        self.stats
            .record_queue_dwell_us(shipped.elapsed().as_micros() as u64);
        self.cost.charge_recv();
        let items = batch.len() as u64;
        self.stats.record_recv(items, items * self.item_bytes);
        self.cur.extend(batch.drain(..));
        self.recycle(batch);
    }

    /// Returns one value if immediately available, without blocking.
    ///
    /// `Ok(None)` means no data is currently queued.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RecvPort::consume`].
    pub fn try_consume(&mut self) -> Result<Option<T>> {
        loop {
            if let Some(v) = self.cur.pop_front() {
                return Ok(Some(v));
            }
            match self.rx.try_recv() {
                Ok(pkt) => self.unpack(pkt),
                Err(channel::TryRecvError::Empty) => return Ok(None),
                Err(channel::TryRecvError::Disconnected) => return Err(FabricError::Disconnected),
            }
        }
    }

    /// Discards every value currently in flight or partially unpacked.
    ///
    /// Used during misspeculation recovery while all threads are inside the
    /// recovery barriers, so no new speculative packets can race in.
    pub fn drain(&mut self) -> usize {
        let unpacked = self.cur.len();
        self.cur.clear();
        // Items still packed on the wire were never counted as received;
        // account for them as drained so in-flight bookkeeping settles.
        let mut still_packed = 0;
        while let Ok(Packet { batch, .. }) = self.rx.try_recv() {
            still_packed += batch.len();
        }
        self.stats.drained_items += still_packed as u64;
        unpacked + still_packed
    }

    /// This end's traffic counters.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_order() {
        let (mut tx, mut rx) = channel::<u32>(4, 16);
        for v in 0..10 {
            tx.produce(v).unwrap();
        }
        tx.flush().unwrap();
        for v in 0..10 {
            assert_eq!(rx.consume().unwrap(), v);
        }
    }

    #[test]
    fn try_consume_sees_nothing_before_flush() {
        let (mut tx, mut rx) = channel::<u32>(100, 16);
        tx.produce(7).unwrap();
        assert_eq!(rx.try_consume().unwrap(), None);
        tx.flush().unwrap();
        assert_eq!(rx.try_consume().unwrap(), Some(7));
        assert_eq!(rx.try_consume().unwrap(), None);
    }

    #[test]
    fn batch_of_one_ships_immediately() {
        let (mut tx, mut rx) = channel::<u8>(1, 16);
        tx.produce(9).unwrap();
        assert_eq!(rx.try_consume().unwrap(), Some(9));
    }

    #[test]
    fn dropped_sender_reports_disconnect() {
        let (tx, mut rx) = channel::<u8>(8, 16);
        drop(tx);
        assert_eq!(rx.consume(), Err(FabricError::Disconnected));
    }

    #[test]
    fn dropped_receiver_reports_disconnect_on_flush() {
        let (mut tx, rx) = channel::<u8>(8, 16);
        tx.produce(1).unwrap();
        drop(rx);
        assert_eq!(tx.flush(), Err(FabricError::Disconnected));
    }

    #[test]
    fn drain_discards_in_flight_and_partial() {
        let (mut tx, mut rx) = channel::<u32>(2, 16);
        for v in 0..6 {
            tx.produce(v).unwrap();
        }
        // Unpack the first packet partially.
        assert_eq!(rx.consume().unwrap(), 0);
        let dropped = rx.drain();
        assert_eq!(dropped, 5);
        assert_eq!(rx.try_consume().unwrap(), None);
    }

    #[test]
    fn clear_discards_unshipped_only() {
        let (mut tx, mut rx) = channel::<u32>(4, 16);
        for v in 0..4 {
            tx.produce(v).unwrap(); // exactly one full batch ships
        }
        tx.produce(99).unwrap(); // stays buffered
        assert_eq!(tx.buffered(), 1);
        tx.clear();
        assert_eq!(tx.buffered(), 0);
        tx.flush().unwrap();
        drop(tx);
        let mut seen = Vec::new();
        while let Ok(v) = rx.consume() {
            seen.push(v);
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn batch_buffers_are_recycled_through_the_freelist() {
        let (mut tx, mut rx) = channel::<u32>(4, 16);
        for v in 0..4 {
            tx.produce(v).unwrap(); // fills the batch: one packet ships
        }
        for _ in 0..4 {
            rx.consume().unwrap();
        }
        // The receiver sends the drained husk home, emptied but with its
        // capacity intact.
        let husk = tx.free_rx.try_recv().expect("drained husk returned home");
        assert!(husk.is_empty());
        assert!(husk.capacity() >= 4);

        // Round two (husk above was stolen by the test, so this ship
        // allocates): the sender pulls the returned husk on its next ship.
        for v in 0..4 {
            tx.produce(v).unwrap();
        }
        for _ in 0..4 {
            rx.consume().unwrap();
        }
        for v in 0..4 {
            tx.produce(v).unwrap(); // ship reuses the freelisted husk
        }
        assert!(
            tx.free_rx.try_recv().is_err(),
            "husk taken for the next batch"
        );
        assert!(tx.buf.capacity() >= 4, "recycled buffer keeps capacity");
    }

    #[test]
    fn freelist_is_bounded_and_overflow_drops_are_counted() {
        // A deep transport keeps a freelist as deep as itself.
        let (tx, mut rx) = channel::<u32>(4, 64);
        for _ in 0..64 + 5 {
            rx.recycle(Vec::with_capacity(4));
        }
        assert_eq!(rx.stats().freelist_drops(), 5, "overflow husks are counted");
        // Every parked husk is still reclaimable by the sender.
        for _ in 0..64 {
            assert!(tx.free_rx.try_recv().is_ok());
        }
        assert!(
            tx.free_rx.try_recv().is_err(),
            "freelist holds only `capacity`"
        );
    }

    #[test]
    fn shallow_transport_keeps_shallow_freelist() {
        let (tx, mut rx) = channel::<u32>(4, 2);
        for _ in 0..3 {
            rx.recycle(Vec::new());
        }
        // The freelist holds `capacity` (2) husks.
        assert_eq!(rx.stats().freelist_drops(), 1);
        assert!(tx.free_rx.try_recv().is_ok());
        assert!(tx.free_rx.try_recv().is_ok());
        assert!(tx.free_rx.try_recv().is_err());
    }

    #[test]
    fn stats_count_packets_items_bytes() {
        let (mut tx, _rx) = channel::<u64>(4, 16);
        for v in 0..8u64 {
            tx.produce(v).unwrap();
        }
        let stats = tx.stats();
        assert_eq!(stats.packets(), 2);
        assert_eq!(stats.items(), 8);
        assert_eq!(stats.bytes(), 64);
        assert!((stats.mean_batch() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recv_side_stats_mirror_send_side() {
        let (mut tx, mut rx) = channel::<u64>(4, 16);
        for v in 0..8u64 {
            tx.produce(v).unwrap();
        }
        assert_eq!(tx.stats().in_flight_items(), 8);
        for _ in 0..8 {
            rx.consume().unwrap();
        }
        // Each end counted its own side only.
        assert_eq!(tx.stats().recv_items(), 0);
        assert_eq!(rx.stats().items(), 0);
        assert_eq!(rx.stats().recv_packets(), 2);
        assert_eq!(rx.stats().recv_items(), 8);
        assert_eq!(rx.stats().recv_bytes(), 64);
        assert_eq!(rx.stats().queue_dwell_us().count(), 2);
        assert_eq!(tx.stats().batch_items().count(), 2);
        let mut link = FabricStats::new();
        link.merge(tx.stats());
        link.merge(rx.stats());
        assert_eq!(link.in_flight_items(), 0);
    }

    #[test]
    fn drain_counts_only_still_packed_items() {
        let (mut tx, mut rx) = channel::<u32>(2, 16);
        for v in 0..6 {
            tx.produce(v).unwrap();
        }
        // Unpack the first packet partially: 2 items become "received".
        assert_eq!(rx.consume().unwrap(), 0);
        rx.drain();
        assert_eq!(rx.stats().recv_items(), 2);
        assert_eq!(rx.stats().drained_items(), 4);
        let mut link = FabricStats::new();
        link.merge(tx.stats());
        link.merge(rx.stats());
        assert_eq!(link.in_flight_items(), 0);
    }

    #[test]
    fn flush_blocking_on_full_records_send_stall() {
        let (mut tx, mut rx) = channel::<u32>(1, 1);
        tx.produce(1).unwrap(); // ships, fills the single transport slot
        tx.produce(2).unwrap(); // transport full: stays buffered
        assert_eq!(tx.buffered(), 1);
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut got = Vec::new();
            while let Ok(v) = rx.consume() {
                got.push(v);
            }
            got
        });
        tx.flush().unwrap(); // retries until the consumer drains the slot
        assert_eq!(tx.stats().packets(), 2);
        drop(tx); // ends the stream
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    }

    #[test]
    fn cross_thread_transfer() {
        let (mut tx, mut rx) = channel::<u64>(32, 64);
        let producer = std::thread::spawn(move || {
            for v in 0..10_000u64 {
                tx.produce(v).unwrap();
            }
            tx.flush().unwrap();
        });
        let mut expected = 0u64;
        while let Ok(v) = rx.consume() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 10_000);
        producer.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_panics() {
        let _ = channel::<u8>(0, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_panics() {
        let _ = channel::<u8>(1, 0);
    }
}

#[cfg(test)]
mod try_flush_tests {
    use super::*;

    #[test]
    fn try_flush_reports_full_and_retries() {
        let (mut tx, mut rx) = channel::<u32>(1, 1);
        tx.produce(1).unwrap(); // fills the single transport slot
        tx.produce(2).unwrap(); // transport full: stays buffered
        assert!(!tx.try_flush().unwrap(), "transport full");
        assert_eq!(tx.buffered(), 1, "batch put back");
        assert_eq!(rx.consume().unwrap(), 1);
        assert!(tx.try_flush().unwrap());
        assert_eq!(rx.consume().unwrap(), 2);
    }

    #[test]
    fn try_flush_empty_is_true() {
        let (mut tx, _rx) = channel::<u32>(4, 4);
        assert!(tx.try_flush().unwrap());
    }

    #[test]
    fn produce_never_blocks_when_transport_full() {
        let (mut tx, mut rx) = channel::<u32>(1, 1);
        for v in 0..100 {
            tx.produce(v).unwrap(); // must not block even with capacity 1
        }
        // Everything is recoverable: drain interleaved with flushes.
        let mut seen = Vec::new();
        loop {
            while let Some(v) = rx.try_consume().unwrap() {
                seen.push(v);
            }
            if tx.try_flush().unwrap() && tx.buffered() == 0 {
                while let Some(v) = rx.try_consume().unwrap() {
                    seen.push(v);
                }
                break;
            }
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates};

    fn faulted_pair<T>(
        rates: FaultRates,
        seed: u64,
        retry: RetryPolicy,
    ) -> (SendPort<T>, RecvPort<T>) {
        let plan = FaultPlan::new(seed, rates);
        channel_faulted(4, 64, CostModel::FREE, Some(plan.injector(0)), retry)
    }

    /// Pump every produced value through a faulted link, retrying faulted
    /// attempts, and return what the receiver saw.
    fn pump(values: &[u32], rates: FaultRates, seed: u64) -> Vec<u32> {
        let (mut tx, mut rx) = faulted_pair::<u32>(rates, seed, RetryPolicy::DEFAULT);
        let mut seen = Vec::new();
        for &v in values {
            tx.produce(v).unwrap();
            while let Some(got) = rx.try_consume().unwrap() {
                seen.push(got);
            }
        }
        loop {
            let done = match tx.try_flush() {
                Ok(done) => done,
                Err(FabricError::Retriable) => false,
                Err(e) => panic!("unexpected {e}"),
            };
            while let Some(got) = rx.try_consume().unwrap() {
                seen.push(got);
            }
            if done {
                break;
            }
        }
        seen
    }

    #[test]
    fn drops_are_retried_to_exact_delivery() {
        let vals: Vec<u32> = (0..200).collect();
        assert_eq!(pump(&vals, FaultRates::only_drop(0.3), 11), vals);
    }

    #[test]
    fn permanent_fault_times_out_after_budget() {
        let retry = RetryPolicy { max_attempts: 8 };
        let (mut tx, _rx) = faulted_pair::<u32>(FaultRates::only_drop(1.0), 15, retry);
        tx.produce(1).unwrap();
        let mut outcome = None;
        for _ in 0..100 {
            match tx.try_flush() {
                Err(FabricError::Retriable) => continue,
                other => {
                    outcome = Some(other);
                    break;
                }
            }
        }
        assert_eq!(outcome, Some(Err(FabricError::Timeout)));
        assert_eq!(tx.stats().send_timeouts(), 1);
        assert_eq!(tx.stats().retries(), 8);
        assert!(tx.stats().fault_drops() >= 8);
    }

    #[test]
    fn blocking_flush_times_out_under_permanent_fault() {
        let retry = RetryPolicy { max_attempts: 4 };
        let (mut tx, _rx) = faulted_pair::<u32>(FaultRates::only_drop(1.0), 16, retry);
        tx.buf.push(1);
        assert_eq!(tx.flush(), Err(FabricError::Timeout));
    }

    #[test]
    fn stall_window_consumes_budget_then_recovers() {
        let retry = RetryPolicy { max_attempts: 32 };
        // Stall every draw with short windows: attempts burn during the
        // window, then ships succeed again.
        let (mut tx, mut rx) = faulted_pair::<u32>(FaultRates::only_stall(0.3, 4), 17, retry);
        let vals: Vec<u32> = (0..100).collect();
        for &v in &vals {
            tx.produce(v).unwrap();
        }
        tx.flush().unwrap();
        assert!(tx.stats().fault_stalls() > 0);
        drop(tx);
        let mut seen = Vec::new();
        while let Ok(v) = rx.consume() {
            seen.push(v);
        }
        assert_eq!(seen, vals);
    }

    #[test]
    fn full_transport_counts_attempts_only_when_faulted() {
        // Fault-free: a full transport never times out, it just reports
        // Ok(false) forever (existing backpressure semantics).
        let (mut tx, _rx) = channel::<u32>(1, 1);
        tx.produce(1).unwrap();
        tx.produce(2).unwrap();
        for _ in 0..200 {
            assert!(!tx.try_flush().unwrap());
        }
        // Faulted: the same situation draws down the budget.
        let retry = RetryPolicy { max_attempts: 8 };
        let plan = FaultPlan::new(3, FaultRates::only_drop(0.0));
        let (mut ftx, _frx) =
            channel_faulted::<u32>(1, 1, CostModel::FREE, Some(plan.injector(0)), retry);
        ftx.produce(1).unwrap(); // ships, fills the slot
        ftx.produce(2).unwrap(); // full: buffered
        let mut timed_out = false;
        for _ in 0..100 {
            match ftx.try_flush() {
                Ok(false) => continue,
                Err(FabricError::Timeout) => {
                    timed_out = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(timed_out, "stalled peer must converge to Timeout");
    }

    #[test]
    fn faulted_cross_thread_transfer_is_exact() {
        let plan = FaultPlan::new(0xFEED, FaultRates::uniform(0.2));
        let (mut tx, mut rx) = channel_faulted::<u64>(
            8,
            32,
            CostModel::FREE,
            Some(plan.injector(7)),
            // A huge budget: the consumer thread may be descheduled, and
            // this test is about delivery, not timeout conversion.
            RetryPolicy {
                max_attempts: 1_000_000,
            },
        );
        let producer = std::thread::spawn(move || {
            for v in 0..5_000u64 {
                tx.produce(v).unwrap();
            }
            tx.flush().unwrap();
            tx.stats().faults_total()
        });
        let mut expected = 0u64;
        while let Ok(v) = rx.consume() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, 5_000);
        let faults = producer.join().unwrap();
        assert!(faults > 0, "schedule must actually fire");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates};
    use proptest::prelude::*;

    proptest! {
        /// Any batch/capacity combination delivers the exact sequence when
        /// the consumer drains interleaved with flush retries.
        #[test]
        fn exact_delivery_for_any_tuning(
            values in proptest::collection::vec(any::<u32>(), 0..300),
            batch in 1usize..20,
            capacity in 1usize..8,
        ) {
            let (mut tx, mut rx) = channel::<u32>(batch, capacity);
            let mut seen = Vec::with_capacity(values.len());
            for &v in &values {
                tx.produce(v).unwrap();
                // Interleave draining so small capacities make progress.
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
            }
            loop {
                let done = tx.try_flush().unwrap();
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
                if done && tx.buffered() == 0 {
                    break;
                }
            }
            prop_assert_eq!(seen, values);
        }

        /// Stats account exactly for every produced item.
        #[test]
        fn stats_count_every_item(
            n in 0u64..500,
            batch in 1usize..64,
        ) {
            let (mut tx, mut rx) = channel::<u64>(batch, 1024);
            for v in 0..n {
                tx.produce(v).unwrap();
            }
            tx.flush().unwrap();
            prop_assert_eq!(tx.stats().items(), n);
            prop_assert_eq!(tx.stats().bytes(), n * 8);
            let mut count = 0;
            while rx.try_consume().unwrap().is_some() {
                count += 1;
            }
            prop_assert_eq!(count, n);
        }

        /// drain() always leaves the receiver empty, regardless of what
        /// was in flight or partially unpacked.
        #[test]
        fn drain_leaves_nothing(
            produced in 0usize..200,
            consumed_first in 0usize..200,
            batch in 1usize..16,
        ) {
            let (mut tx, mut rx) = channel::<usize>(batch, 256);
            for v in 0..produced {
                tx.produce(v).unwrap();
            }
            tx.flush().unwrap();
            for _ in 0..consumed_first.min(produced) {
                let _ = rx.try_consume().unwrap();
            }
            rx.drain();
            prop_assert_eq!(rx.try_consume().unwrap(), None);
        }

        /// Any seeded fault schedule still delivers the exact sequence
        /// once faulted attempts are retried.
        #[test]
        fn exact_delivery_under_any_fault_schedule(
            n in 0u32..300,
            seed in any::<u64>(),
            p in 0.0f64..0.6,
            batch in 1usize..12,
        ) {
            let plan = FaultPlan::new(seed, FaultRates::uniform(p));
            let (mut tx, mut rx) = channel_faulted::<u32>(
                batch, 64, CostModel::FREE,
                Some(plan.injector(0)), RetryPolicy::DEFAULT,
            );
            let mut seen = Vec::new();
            for v in 0..n {
                tx.produce(v).unwrap();
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
            }
            loop {
                let done = match tx.try_flush() {
                    Ok(done) => done,
                    Err(FabricError::Retriable) => false,
                    Err(e) => panic!("unexpected fabric error: {e}"),
                };
                while let Some(got) = rx.try_consume().unwrap() {
                    seen.push(got);
                }
                if done {
                    break;
                }
            }
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }
}
