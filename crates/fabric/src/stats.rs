//! Transfer statistics and fabric telemetry.
//!
//! Figure 5(a) of the paper reports per-application bandwidth, computed by
//! dividing the total data transferred through DSMTX by execution time.
//! Every queue in the fabric shares a [`FabricStats`] handle so that the
//! runtime can make the same measurement.
//!
//! Beyond the send-side totals, the handle now carries the receive side of
//! the ledger (packets/items/bytes unpacked, items discarded by recovery
//! drains), a queue-depth gauge with a high-water mark, and log-bucketed
//! histograms of flush batch sizes and queue dwell — enough to see
//! whether the batching layer of §4.2 is actually amortizing transport
//! overhead, and how long packets wait in it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dsmtx_obs::{schema, Gauge, Histogram, Registry};

/// Shared counters of fabric traffic.
///
/// Cloning is cheap; clones observe the same underlying counters, so
/// every link of a run records into one handle.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    inner: Arc<Counters>,
    /// Items sent but not yet unpacked or drained; high-water mark is the
    /// deepest the fabric ever got.
    depth: Gauge,
    /// Items per shipped packet.
    batch_items: Histogram,
    /// Microseconds a packet dwelled in the transport between its ship
    /// and its unpack (the fabric-level component of queue wait).
    queue_dwell_us: Histogram,
}

#[derive(Debug, Default)]
struct Counters {
    /// Packets handed to the underlying transport (one per batch flush).
    packets: AtomicU64,
    /// Logical items produced (before batching).
    items: AtomicU64,
    /// Payload bytes moved (item size × items).
    bytes: AtomicU64,
    /// Packets unpacked by receivers.
    recv_packets: AtomicU64,
    /// Logical items unpacked by receivers.
    recv_items: AtomicU64,
    /// Payload bytes unpacked by receivers.
    recv_bytes: AtomicU64,
    /// Items discarded still-packed by recovery drains.
    drained_items: AtomicU64,
    /// Ship attempts discarded by an injected drop.
    fault_drops: AtomicU64,
    /// Ship attempts deferred by an injected delay.
    fault_delays: AtomicU64,
    /// Packets shipped twice by an injected duplicate.
    fault_dups: AtomicU64,
    /// Packets held and swapped on the wire by an injected reorder.
    fault_reorders: AtomicU64,
    /// Ship attempts swallowed by an endpoint stall window.
    fault_stalls: AtomicU64,
    /// Send attempts consumed while a fault plan was active (faulted or
    /// transport-full); each one draws from the retry budget.
    retries: AtomicU64,
    /// Sends that exhausted the retry budget.
    send_timeouts: AtomicU64,
    /// Items arriving in duplicate packets and discarded by seq dedup.
    dup_items_discarded: AtomicU64,
    /// Packets that arrived ahead of sequence and were stashed.
    ooo_packets: AtomicU64,
    /// Recycled batch buffers dropped because the bounded freelist was
    /// full (the next ship allocates fresh instead of reusing).
    freelist_drops: AtomicU64,
}

impl FabricStats {
    /// Creates a fresh set of zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a packet of `items` logical items totalling `bytes` bytes.
    pub fn record_packet(&self, items: u64, bytes: u64) {
        self.inner.packets.fetch_add(1, Ordering::Relaxed);
        self.inner.items.fetch_add(items, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.batch_items.record(items);
        self.depth.add(items as i64);
    }

    /// Records a received (unpacked) packet of `items` items / `bytes`
    /// bytes.
    pub fn record_recv(&self, items: u64, bytes: u64) {
        self.inner.recv_packets.fetch_add(1, Ordering::Relaxed);
        self.inner.recv_items.fetch_add(items, Ordering::Relaxed);
        self.inner.recv_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.depth.sub(items as i64);
    }

    /// Records `items` in-flight items discarded by a recovery drain.
    pub fn record_drained(&self, items: u64) {
        self.inner.drained_items.fetch_add(items, Ordering::Relaxed);
        self.depth.sub(items as i64);
    }

    /// Records one injected fault of the given class on the ship path.
    pub fn record_fault_drop(&self) {
        self.inner.fault_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an injected delay decision.
    pub fn record_fault_delay(&self) {
        self.inner.fault_delays.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an injected duplicate (packet shipped twice).
    pub fn record_fault_duplicate(&self) {
        self.inner.fault_dups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an injected reorder (packet held past its successor).
    pub fn record_fault_reorder(&self) {
        self.inner.fault_reorders.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a ship attempt swallowed by a stall window.
    pub fn record_fault_stall(&self) {
        self.inner.fault_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one consumed send attempt under an active fault plan.
    pub fn record_retry(&self) {
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a send that exhausted its retry budget.
    pub fn record_send_timeout(&self) {
        self.inner.send_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `items` discarded by receiver-side duplicate rejection.
    pub fn record_dup_discarded(&self, items: u64) {
        self.inner
            .dup_items_discarded
            .fetch_add(items, Ordering::Relaxed);
    }

    /// Records a packet stashed because it arrived ahead of sequence.
    pub fn record_ooo_stashed(&self) {
        self.inner.ooo_packets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a recycled buffer dropped by a full freelist.
    pub fn record_freelist_drop(&self) {
        self.inner.freelist_drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one packet's ship → unpack dwell in the transport.
    pub fn record_queue_dwell_us(&self, us: u64) {
        self.queue_dwell_us.record(us);
    }

    /// Number of transport packets sent so far.
    pub fn packets(&self) -> u64 {
        self.inner.packets.load(Ordering::Relaxed)
    }

    /// Number of logical items sent so far.
    pub fn items(&self) -> u64 {
        self.inner.items.load(Ordering::Relaxed)
    }

    /// Total payload bytes sent so far.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Number of transport packets unpacked so far.
    pub fn recv_packets(&self) -> u64 {
        self.inner.recv_packets.load(Ordering::Relaxed)
    }

    /// Number of logical items unpacked so far.
    pub fn recv_items(&self) -> u64 {
        self.inner.recv_items.load(Ordering::Relaxed)
    }

    /// Total payload bytes unpacked so far.
    pub fn recv_bytes(&self) -> u64 {
        self.inner.recv_bytes.load(Ordering::Relaxed)
    }

    /// Items discarded still-packed by recovery drains.
    pub fn drained_items(&self) -> u64 {
        self.inner.drained_items.load(Ordering::Relaxed)
    }

    /// Injected drops so far.
    pub fn fault_drops(&self) -> u64 {
        self.inner.fault_drops.load(Ordering::Relaxed)
    }

    /// Injected delays so far.
    pub fn fault_delays(&self) -> u64 {
        self.inner.fault_delays.load(Ordering::Relaxed)
    }

    /// Injected duplicates so far.
    pub fn fault_dups(&self) -> u64 {
        self.inner.fault_dups.load(Ordering::Relaxed)
    }

    /// Injected reorders so far.
    pub fn fault_reorders(&self) -> u64 {
        self.inner.fault_reorders.load(Ordering::Relaxed)
    }

    /// Stall-window attempts so far.
    pub fn fault_stalls(&self) -> u64 {
        self.inner.fault_stalls.load(Ordering::Relaxed)
    }

    /// Total injected faults across every class.
    pub fn faults_total(&self) -> u64 {
        self.fault_drops()
            + self.fault_delays()
            + self.fault_dups()
            + self.fault_reorders()
            + self.fault_stalls()
    }

    /// Send attempts consumed under an active fault plan.
    pub fn retries(&self) -> u64 {
        self.inner.retries.load(Ordering::Relaxed)
    }

    /// Sends that exhausted their retry budget.
    pub fn send_timeouts(&self) -> u64 {
        self.inner.send_timeouts.load(Ordering::Relaxed)
    }

    /// Items discarded by receiver-side duplicate rejection.
    pub fn dup_items_discarded(&self) -> u64 {
        self.inner.dup_items_discarded.load(Ordering::Relaxed)
    }

    /// Packets stashed because they arrived ahead of sequence.
    pub fn ooo_packets(&self) -> u64 {
        self.inner.ooo_packets.load(Ordering::Relaxed)
    }

    /// Recycled buffers dropped by a full freelist.
    pub fn freelist_drops(&self) -> u64 {
        self.inner.freelist_drops.load(Ordering::Relaxed)
    }

    /// Items currently sent but neither unpacked nor drained.
    pub fn in_flight_items(&self) -> u64 {
        self.items()
            .saturating_sub(self.recv_items() + self.drained_items())
    }

    /// Deepest the fabric ever got, in items (high-water of the depth
    /// gauge).
    pub fn depth_high_water(&self) -> u64 {
        self.depth.high_water().max(0) as u64
    }

    /// Average batch size (items per packet), or 0.0 if nothing was sent.
    pub fn mean_batch(&self) -> f64 {
        let p = self.packets();
        if p == 0 {
            0.0
        } else {
            self.items() as f64 / p as f64
        }
    }

    /// Histogram of items per shipped packet.
    pub fn batch_items(&self) -> &Histogram {
        &self.batch_items
    }

    /// Histogram of ship → unpack packet dwell times (µs).
    pub fn queue_dwell_us(&self) -> &Histogram {
        &self.queue_dwell_us
    }

    /// Exports every counter, the depth gauge, and the histograms into
    /// `reg` under the shared [`dsmtx_obs::schema`] names.
    pub fn to_registry(&self, reg: &Registry) {
        reg.counter(schema::FABRIC_SENT_PACKETS, &[])
            .add(self.packets());
        reg.counter(schema::FABRIC_SENT_ITEMS, &[])
            .add(self.items());
        reg.counter(schema::FABRIC_SENT_BYTES, &[])
            .add(self.bytes());
        reg.counter(schema::FABRIC_RECV_PACKETS, &[])
            .add(self.recv_packets());
        reg.counter(schema::FABRIC_RECV_ITEMS, &[])
            .add(self.recv_items());
        reg.counter(schema::FABRIC_RECV_BYTES, &[])
            .add(self.recv_bytes());
        reg.counter(schema::FABRIC_DRAINED_ITEMS, &[])
            .add(self.drained_items());
        reg.gauge(schema::FABRIC_IN_FLIGHT_ITEMS, &[])
            .set(self.in_flight_items() as i64);
        reg.gauge(schema::FABRIC_DEPTH_HIGH_WATER, &[])
            .set(self.depth_high_water() as i64);
        reg.install_histogram(schema::FABRIC_BATCH_ITEMS, &[], self.batch_items.clone());
        reg.install_histogram(
            schema::FABRIC_QUEUE_DWELL_US,
            &[],
            self.queue_dwell_us.clone(),
        );
        reg.counter(schema::FABRIC_FAULT_DROPS, &[])
            .add(self.fault_drops());
        reg.counter(schema::FABRIC_FAULT_DELAYS, &[])
            .add(self.fault_delays());
        reg.counter(schema::FABRIC_FAULT_DUPS, &[])
            .add(self.fault_dups());
        reg.counter(schema::FABRIC_FAULT_REORDERS, &[])
            .add(self.fault_reorders());
        reg.counter(schema::FABRIC_FAULT_STALLS, &[])
            .add(self.fault_stalls());
        reg.counter(schema::FABRIC_RETRIES, &[]).add(self.retries());
        reg.counter(schema::FABRIC_SEND_TIMEOUTS, &[])
            .add(self.send_timeouts());
        reg.counter(schema::FABRIC_DUP_ITEMS_DISCARDED, &[])
            .add(self.dup_items_discarded());
        reg.counter(schema::FABRIC_OOO_PACKETS, &[])
            .add(self.ooo_packets());
        reg.counter(schema::FABRIC_FREELIST_DROPS, &[])
            .add(self.freelist_drops());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = FabricStats::new();
        s.record_packet(10, 80);
        s.record_packet(30, 240);
        assert_eq!(s.packets(), 2);
        assert_eq!(s.items(), 40);
        assert_eq!(s.bytes(), 320);
        assert!((s.mean_batch() - 20.0).abs() < 1e-12);
        assert_eq!(s.batch_items().count(), 2);
        assert_eq!(s.batch_items().max(), 30);
    }

    #[test]
    fn clones_share_counters() {
        let s = FabricStats::new();
        let t = s.clone();
        s.record_packet(1, 8);
        t.record_packet(2, 16);
        assert_eq!(s.items(), 3);
        assert_eq!(t.bytes(), 24);
    }

    #[test]
    fn empty_stats_have_zero_mean_batch() {
        assert_eq!(FabricStats::new().mean_batch(), 0.0);
    }

    #[test]
    fn recv_and_drain_settle_in_flight() {
        let s = FabricStats::new();
        s.record_packet(10, 80);
        s.record_packet(6, 48);
        assert_eq!(s.in_flight_items(), 16);
        assert_eq!(s.depth_high_water(), 16);
        s.record_recv(10, 80);
        assert_eq!(s.recv_packets(), 1);
        assert_eq!(s.recv_items(), 10);
        assert_eq!(s.recv_bytes(), 80);
        assert_eq!(s.in_flight_items(), 6);
        s.record_drained(6);
        assert_eq!(s.drained_items(), 6);
        assert_eq!(s.in_flight_items(), 0);
        // High water stays at the peak even after the fabric empties.
        assert_eq!(s.depth_high_water(), 16);
    }

    #[test]
    fn stall_histograms_record_only_stalls() {
        let s = FabricStats::new();
        assert!(s.queue_dwell_us().is_empty());
        s.record_queue_dwell_us(25);
        assert_eq!(s.queue_dwell_us().count(), 1);
        assert_eq!(s.queue_dwell_us().sum(), 25);
    }

    #[test]
    fn fault_counters_accumulate_and_merge() {
        let a = FabricStats::new();
        a.record_fault_drop();
        a.record_fault_delay();
        a.record_fault_duplicate();
        a.record_fault_reorder();
        a.record_fault_stall();
        a.record_retry();
        a.record_retry();
        a.record_send_timeout();
        a.record_dup_discarded(5);
        a.record_ooo_stashed();
        a.record_freelist_drop();
        assert_eq!(a.faults_total(), 5);
        assert_eq!(a.retries(), 2);
        assert_eq!(a.send_timeouts(), 1);
        assert_eq!(a.dup_items_discarded(), 5);
        assert_eq!(a.ooo_packets(), 1);
        assert_eq!(a.freelist_drops(), 1);
    }

    #[test]
    fn registry_export_covers_fault_schema() {
        let s = FabricStats::new();
        s.record_fault_drop();
        s.record_retry();
        s.record_send_timeout();
        let reg = Registry::new();
        s.to_registry(&reg);
        let dump = reg.to_jsonl();
        for name in [
            schema::FABRIC_FAULT_DROPS,
            schema::FABRIC_FAULT_DELAYS,
            schema::FABRIC_FAULT_DUPS,
            schema::FABRIC_FAULT_REORDERS,
            schema::FABRIC_FAULT_STALLS,
            schema::FABRIC_RETRIES,
            schema::FABRIC_SEND_TIMEOUTS,
            schema::FABRIC_DUP_ITEMS_DISCARDED,
            schema::FABRIC_OOO_PACKETS,
            schema::FABRIC_FREELIST_DROPS,
        ] {
            assert!(dump.contains(name), "missing {name} in:\n{dump}");
        }
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
    }

    #[test]
    fn registry_export_covers_the_schema() {
        let s = FabricStats::new();
        s.record_packet(4, 32);
        s.record_recv(4, 32);
        let reg = Registry::new();
        s.to_registry(&reg);
        let dump = reg.to_jsonl();
        for name in [
            schema::FABRIC_SENT_PACKETS,
            schema::FABRIC_SENT_ITEMS,
            schema::FABRIC_SENT_BYTES,
            schema::FABRIC_RECV_PACKETS,
            schema::FABRIC_RECV_ITEMS,
            schema::FABRIC_RECV_BYTES,
            schema::FABRIC_DRAINED_ITEMS,
            schema::FABRIC_IN_FLIGHT_ITEMS,
            schema::FABRIC_DEPTH_HIGH_WATER,
            schema::FABRIC_BATCH_ITEMS,
            schema::FABRIC_QUEUE_DWELL_US,
        ] {
            assert!(dump.contains(name), "missing {name} in:\n{dump}");
        }
        for line in dump.lines() {
            dsmtx_obs::json::validate(line).unwrap();
        }
    }
}
