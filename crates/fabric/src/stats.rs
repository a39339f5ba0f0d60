//! Transfer statistics and fabric telemetry.
//!
//! Figure 5(a) of the paper reports per-application bandwidth, computed by
//! dividing the total data transferred through DSMTX by execution time.
//! Each end of a link keeps its own [`FabricStats`]: the send end counts
//! what it shipped and the faults injected on its ship path, the receive
//! end what it unpacked and drained. Nothing is shared between
//! the two ends' threads, as on a cluster with no shared memory, so a
//! record is a plain add. The runtime folds every port's counters into
//! one set with [`FabricStats::merge`] once the run is over.
//!
//! Beyond the send-side totals, the counters carry the receive side of
//! the ledger (packets/items/bytes unpacked, items discarded by recovery
//! drains) and log-bucketed histograms of flush batch sizes and queue
//! dwell — enough to see whether the batching layer of §4.2 is actually
//! amortizing transport overhead, and how long packets wait in it. A send
//! end writes only the first and a receive end only the second; a
//! histogram allocates its buckets on its first record, so the one an
//! end never writes costs nothing.

use dsmtx_obs::{schema, Histogram, Registry};

/// Traffic and fault counters of one link end, or of every link of a run
/// once merged.
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Packets handed to the underlying transport (one per batch flush).
    packets: u64,
    /// Logical items produced (before batching).
    items: u64,
    /// Payload bytes moved (item size × items).
    bytes: u64,
    /// Packets unpacked by receivers.
    recv_packets: u64,
    /// Logical items unpacked by receivers.
    recv_items: u64,
    /// Payload bytes unpacked by receivers.
    recv_bytes: u64,
    /// Items discarded still-packed by recovery drains.
    pub(crate) drained_items: u64,
    /// Ship attempts failed by an injected drop.
    pub(crate) fault_drops: u64,
    /// Ship attempts failed inside an endpoint stall window.
    pub(crate) fault_stalls: u64,
    /// Send attempts consumed while a fault plan was active (faulted or
    /// transport-full); each one draws from the retry budget.
    pub(crate) retries: u64,
    /// Sends that exhausted the retry budget.
    pub(crate) send_timeouts: u64,
    /// Recycled batch buffers dropped because the bounded freelist was
    /// full (the next ship allocates fresh instead of reusing).
    pub(crate) freelist_drops: u64,
    /// Items per shipped packet.
    batch_items: Histogram,
    /// Microseconds a packet dwelled in the transport between its ship
    /// and its unpack (the fabric-level component of queue wait).
    queue_dwell_us: Histogram,
}

impl FabricStats {
    /// Creates a fresh set of zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a packet of `items` logical items totalling `bytes` bytes.
    pub fn record_packet(&mut self, items: u64, bytes: u64) {
        self.packets += 1;
        self.items += items;
        self.bytes += bytes;
        self.batch_items.record(items);
    }

    /// Records a received (unpacked) packet of `items` items / `bytes`
    /// bytes.
    pub fn record_recv(&mut self, items: u64, bytes: u64) {
        self.recv_packets += 1;
        self.recv_items += items;
        self.recv_bytes += bytes;
    }

    /// Records one packet's ship → unpack dwell in the transport.
    pub fn record_queue_dwell_us(&mut self, us: u64) {
        self.queue_dwell_us.record(us);
    }

    /// Adds every counter and histogram of `other` into this set.
    pub fn merge(&mut self, other: &FabricStats) {
        self.packets += other.packets;
        self.items += other.items;
        self.bytes += other.bytes;
        self.recv_packets += other.recv_packets;
        self.recv_items += other.recv_items;
        self.recv_bytes += other.recv_bytes;
        self.drained_items += other.drained_items;
        self.fault_drops += other.fault_drops;
        self.fault_stalls += other.fault_stalls;
        self.retries += other.retries;
        self.send_timeouts += other.send_timeouts;
        self.freelist_drops += other.freelist_drops;
        self.batch_items.merge(&other.batch_items);
        self.queue_dwell_us.merge(&other.queue_dwell_us);
    }

    /// Number of transport packets sent.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Number of logical items sent.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Total payload bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of transport packets unpacked.
    pub fn recv_packets(&self) -> u64 {
        self.recv_packets
    }

    /// Number of logical items unpacked.
    pub fn recv_items(&self) -> u64 {
        self.recv_items
    }

    /// Total payload bytes unpacked.
    pub fn recv_bytes(&self) -> u64 {
        self.recv_bytes
    }

    /// Items discarded still-packed by recovery drains.
    pub fn drained_items(&self) -> u64 {
        self.drained_items
    }

    /// Injected drops.
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// Stall-window attempts.
    pub fn fault_stalls(&self) -> u64 {
        self.fault_stalls
    }

    /// Total injected faults across both classes.
    pub fn faults_total(&self) -> u64 {
        self.fault_drops + self.fault_stalls
    }

    /// Send attempts consumed under an active fault plan.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends that exhausted their retry budget.
    pub fn send_timeouts(&self) -> u64 {
        self.send_timeouts
    }

    /// Recycled buffers dropped by a full freelist.
    pub fn freelist_drops(&self) -> u64 {
        self.freelist_drops
    }

    /// Items sent but neither unpacked nor drained. Meaningful once both
    /// ends of every link are merged in.
    pub fn in_flight_items(&self) -> u64 {
        self.items
            .saturating_sub(self.recv_items + self.drained_items)
    }

    /// Average batch size (items per packet), or 0.0 if nothing was sent.
    pub fn mean_batch(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.items as f64 / self.packets as f64
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

    /// Exports every counter and the histograms into `reg` under the
    /// shared [`dsmtx_obs::schema`] names.
    pub fn to_registry(&self, reg: &mut Registry) {
        for (name, value) in [
            (schema::FABRIC_SENT_PACKETS, self.packets),
            (schema::FABRIC_SENT_ITEMS, self.items),
            (schema::FABRIC_SENT_BYTES, self.bytes),
            (schema::FABRIC_RECV_PACKETS, self.recv_packets),
            (schema::FABRIC_RECV_ITEMS, self.recv_items),
            (schema::FABRIC_RECV_BYTES, self.recv_bytes),
            (schema::FABRIC_DRAINED_ITEMS, self.drained_items),
            (schema::FABRIC_FAULT_DROPS, self.fault_drops),
            (schema::FABRIC_FAULT_STALLS, self.fault_stalls),
            (schema::FABRIC_RETRIES, self.retries),
            (schema::FABRIC_SEND_TIMEOUTS, self.send_timeouts),
            (schema::FABRIC_FREELIST_DROPS, self.freelist_drops),
        ] {
            reg.add(name, &[], value);
        }
        reg.set(
            schema::FABRIC_IN_FLIGHT_ITEMS,
            &[],
            self.in_flight_items() as i64,
        );
        reg.install_histogram(schema::FABRIC_BATCH_ITEMS, &[], self.batch_items.clone());
        reg.install_histogram(
            schema::FABRIC_QUEUE_DWELL_US,
            &[],
            self.queue_dwell_us.clone(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = FabricStats::new();
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
    fn empty_stats_have_zero_mean_batch() {
        assert_eq!(FabricStats::new().mean_batch(), 0.0);
    }

    #[test]
    fn recv_and_drain_settle_in_flight() {
        // The two ends of a link count separately; the merge settles.
        let (mut send, mut recv) = (FabricStats::new(), FabricStats::new());
        send.record_packet(10, 80);
        send.record_packet(6, 48);
        assert_eq!(send.in_flight_items(), 16);
        recv.record_recv(10, 80);
        assert_eq!(recv.recv_packets(), 1);
        assert_eq!(recv.recv_items(), 10);
        assert_eq!(recv.recv_bytes(), 80);
        let mut run = FabricStats::new();
        run.merge(&send);
        run.merge(&recv);
        assert_eq!(run.in_flight_items(), 6);
        recv.drained_items += 6;
        let mut run = FabricStats::new();
        run.merge(&send);
        run.merge(&recv);
        assert_eq!(run.drained_items(), 6);
        assert_eq!(run.in_flight_items(), 0);
    }

    #[test]
    fn stall_histograms_record_only_stalls() {
        let mut s = FabricStats::new();
        assert!(s.queue_dwell_us().is_empty());
        s.record_queue_dwell_us(25);
        assert_eq!(s.queue_dwell_us().count(), 1);
        assert_eq!(s.queue_dwell_us().sum(), 25);
    }

    #[test]
    fn fault_counters_accumulate_and_merge() {
        let mut a = FabricStats::new();
        a.fault_drops += 1;
        a.fault_stalls += 1;
        a.retries += 2;
        a.send_timeouts += 1;
        a.freelist_drops += 1;
        a.record_packet(4, 32);
        a.record_queue_dwell_us(7);
        let mut b = FabricStats::new();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.faults_total(), 4);
        assert_eq!(b.retries(), 4);
        assert_eq!(b.send_timeouts(), 2);
        assert_eq!(b.freelist_drops(), 2);
        assert_eq!(b.items(), 8);
        assert_eq!(b.batch_items().count(), 2);
        assert_eq!(b.queue_dwell_us().sum(), 14);
        // Merging reads `a`; it never shares or moves its counters.
        assert_eq!(a.faults_total(), 2);
        assert_eq!(a.batch_items().count(), 1);
    }

    #[test]
    fn registry_export_covers_fault_schema() {
        let mut s = FabricStats::new();
        s.fault_drops += 1;
        s.retries += 1;
        s.send_timeouts += 1;
        let mut reg = Registry::new();
        s.to_registry(&mut reg);
        let dump = reg.to_jsonl();
        for name in [
            schema::FABRIC_FAULT_DROPS,
            schema::FABRIC_FAULT_STALLS,
            schema::FABRIC_RETRIES,
            schema::FABRIC_SEND_TIMEOUTS,
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
        let mut s = FabricStats::new();
        s.record_packet(4, 32);
        s.record_recv(4, 32);
        let mut reg = Registry::new();
        s.to_registry(&mut reg);
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
