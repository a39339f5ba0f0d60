//! Cluster hardware model.

/// Parametric model of a commodity cluster.
///
/// Defaults mirror the paper's evaluation platform (§5.1): 32 Dell
/// PowerEdge 1950 nodes, 4 cores per node (two dual-core Xeon 5160 @
/// 3 GHz), InfiniBand interconnect, OpenMPI messaging whose send/receive
/// primitives cost 500–2,295 instructions per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Core execution rate in instructions per second.
    pub instr_per_sec: f64,
    /// One-way inter-node message latency in seconds.
    pub latency: f64,
    /// Per-node NIC bandwidth in bytes per second.
    pub bandwidth: f64,
    /// CPU instructions charged per message send.
    pub send_instr: f64,
    /// CPU instructions charged per message receive.
    pub recv_instr: f64,
    /// Items (8-byte words) coalesced per message by the DSMTX queue.
    /// 1 models direct `MPI_Send` per produce (the non-optimized bar of
    /// Figure 5(b)).
    pub batch_items: f64,
    /// Maximum iterations a worker may run ahead of the commit unit
    /// (bounded by queue capacity / outstanding MTX versions).
    pub max_runahead: u64,
    /// Parallelism of the try-commit and commit units. The paper (§3.2)
    /// notes their serialization can bottleneck at high worker counts and
    /// that both algorithms are parallelizable; values > 1 model that
    /// extension (address-sharded validation/commit).
    pub unit_shards: u32,
    /// Fraction of validation-plane traffic that survives compaction
    /// (access-stream filtering plus packed frames). 1.0 models one
    /// message per access record; the ratio of shipped to per-record bytes
    /// that `repro valplane` measures plugs in directly. Scales both the
    /// words shipped on the validation/commit planes and the per-word
    /// check/apply work (filtered records are neither sent nor checked).
    pub val_compaction: f64,
}

impl ClusterConfig {
    /// The paper's platform with the batched-queue optimization on.
    pub fn paper() -> Self {
        ClusterConfig {
            nodes: 32,
            cores_per_node: 4,
            instr_per_sec: 3.0e9,
            latency: 2.0e-6,
            bandwidth: 1.0e9,
            send_instr: 500.0,
            recv_instr: 2295.0,
            batch_items: 512.0,
            max_runahead: 512,
            unit_shards: 1,
            val_compaction: 1.0,
        }
    }

    /// The paper's platform with batching disabled (every 8-byte produce
    /// pays the full MPI send/receive cost).
    pub fn paper_unbatched() -> Self {
        ClusterConfig {
            batch_items: 1.0,
            ..Self::paper()
        }
    }

    /// Total cores in the machine.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Seconds of CPU time for `n` instructions.
    pub fn instr_time(&self, n: f64) -> f64 {
        n / self.instr_per_sec
    }

    /// Sender-side CPU time to ship `words` 8-byte items through the
    /// batched queue (the §4.2 amortization).
    pub fn send_cpu_time(&self, words: f64) -> f64 {
        let messages = (words / self.batch_items).ceil().max(0.0);
        self.instr_time(messages * self.send_instr)
    }

    /// Receiver-side CPU time to accept `words` items.
    pub fn recv_cpu_time(&self, words: f64) -> f64 {
        let messages = (words / self.batch_items).ceil().max(0.0);
        self.instr_time(messages * self.recv_instr)
    }

    /// Wire occupancy time for `bytes` on one NIC.
    pub fn wire_time(&self, bytes: f64) -> f64 {
        bytes / self.bandwidth
    }

    /// Approximate completion time of a tree barrier over `threads`
    /// participants.
    pub fn barrier_time(&self, threads: u32) -> f64 {
        let rounds = (threads.max(2) as f64).log2().ceil();
        2.0 * rounds * self.latency
    }

    /// Sustained throughput (bytes/second) of one producer/consumer pair
    /// pushing 8-byte items — the §5.3 microbenchmark. The bottleneck is
    /// the slower of wire bandwidth and per-message CPU cost.
    pub fn queue_throughput(&self) -> f64 {
        let bytes_per_msg = 8.0 * self.batch_items;
        let cpu = self
            .instr_time(self.send_instr)
            .max(self.instr_time(self.recv_instr));
        let per_msg = cpu.max(self.wire_time(bytes_per_msg));
        bytes_per_msg / per_msg
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_is_128_cores() {
        assert_eq!(ClusterConfig::paper().total_cores(), 128);
    }

    #[test]
    fn batching_amortizes_cpu_cost() {
        let c = ClusterConfig::paper();
        let u = ClusterConfig::paper_unbatched();
        // Shipping 512 words costs one message batched, 512 unbatched.
        assert!(u.send_cpu_time(512.0) > 100.0 * c.send_cpu_time(512.0));
    }

    #[test]
    fn queue_throughput_reproduces_the_section_5_3_contrast() {
        // Paper: DSMTX queues sustain 480.7 MB/s; MPI_Send 13.1 MB/s.
        let batched = ClusterConfig::paper().queue_throughput();
        let direct = ClusterConfig::paper_unbatched().queue_throughput();
        assert!(
            batched / direct > 20.0,
            "batched {batched:.0} vs direct {direct:.0}"
        );
        // Same order of magnitude as the measured numbers.
        assert!(direct > 1.0e6 && direct < 1.0e8, "direct {direct}");
        assert!(batched > 1.0e8 && batched < 5.0e9, "batched {batched}");
    }

    #[test]
    fn barrier_grows_with_threads() {
        let c = ClusterConfig::paper();
        assert!(c.barrier_time(128) > c.barrier_time(4));
    }

    #[test]
    fn wire_time_is_linear() {
        let c = ClusterConfig::paper();
        assert!((c.wire_time(2.0e9) - 2.0).abs() < 1e-9);
    }
}
