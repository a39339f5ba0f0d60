//! Real-thread queue throughput measurement (§5.3).
//!
//! The paper measures 480.7 MB/s through the DSMTX batched queues against
//! 13.1 MB/s using `MPI_Send` directly. This module reproduces the
//! *contrast* on real threads: one producer pushes 8-byte values through a
//! [`dsmtx_fabric`] queue whose cost model charges the OpenMPI
//! per-message instruction count, once with batching and once shipping
//! every value individually.

use std::time::Instant;

use dsmtx_fabric::queue::channel_with;
use dsmtx_fabric::CostModel;

/// Result of one throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueThroughput {
    /// Items per packet used.
    pub batch: usize,
    /// Measured payload bandwidth in bytes/second.
    pub bytes_per_sec: f64,
}

/// Streams `words` 8-byte values through a queue with the given batch
/// size, charging the OpenMPI per-message cost, and returns the sustained
/// bandwidth.
pub fn measure_queue_throughput(words: u64, batch: usize) -> QueueThroughput {
    let (mut tx, mut rx) = channel_with::<u64>(batch, 1024, CostModel::OPENMPI);
    let start = Instant::now();
    let producer = std::thread::spawn(move || {
        for v in 0..words {
            tx.produce(v).expect("consumer alive");
        }
        // Dropping the flushed sender ends the stream.
        tx.flush().expect("consumer alive");
    });
    let mut expected = 0u64;
    while let Ok(v) = rx.consume() {
        debug_assert_eq!(v, expected);
        expected += 1;
        std::hint::black_box(v);
    }
    producer.join().expect("producer");
    assert_eq!(expected, words);
    let secs = start.elapsed().as_secs_f64();
    QueueThroughput {
        batch,
        bytes_per_sec: (words * 8) as f64 / secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_wins_by_a_large_factor() {
        // Modest word count keeps this test quick on one CPU.
        let batched = measure_queue_throughput(200_000, 512);
        let direct = measure_queue_throughput(20_000, 1);
        assert!(
            batched.bytes_per_sec > 5.0 * direct.bytes_per_sec,
            "batched {:.0} vs direct {:.0}",
            batched.bytes_per_sec,
            direct.bytes_per_sec
        );
    }
}
