//! The wire protocol: every message that crosses a thread boundary.
//!
//! Two logical planes share one message type, so every link
//! [`crate::MtxSystem::run`] opens is a [`dsmtx_fabric::channel_faulted`]
//! queue of [`Msg`]:
//!
//! * **data plane** (worker → later-stage worker, or TLS ring neighbour):
//!   per-iteration frames carrying forwarded uncommitted stores and
//!   `mtx_produce`d user values;
//! * **unit plane** (worker → speculation units, one link per worker):
//!   the filtered, program-ordered access stream of each subTX, shipped
//!   as one [`Msg::ValBlock`] — a packed [`AccessBlock`] that carries the
//!   framing and every surviving record in a single message. Every
//!   try-commit shard replays the records of its page partition from
//!   that block, and the commit unit applies its stores at group commit.
//!   A [`Msg::LoopExit`] goes ahead of the block of a subTX that ended
//!   the loop, and explicit misspeculation notices share the stream.
//!
//! Every link starts at a worker. Copy-On-Access sends no message: a
//! worker or try-commit shard copies the committed page out of the
//! commit unit's image itself. Neither do verdicts: the commit unit
//! reads each try-commit shard's validated-through cursor in place.

use dsmtx_mem::{AccessKind, AccessRecord};
use dsmtx_uva::VAddr;

use crate::ids::{MtxId, StageId};

/// A packed subTX access stream: struct-of-arrays with delta-encoded
/// addresses, raw values, and a 2-bit kind stream.
///
/// The wire layout, per record:
///
/// * **kind**: 2 bits, packed four-per-byte LSB-first (`01` load, `10`
///   store; `00`/`11` are invalid),
/// * **address**: the difference against the previous record's raw
///   [`VAddr`] bits (the first record is a delta against 0), zigzag-mapped
///   and LEB128 varint encoded — consecutive accesses are usually nearby,
///   so most deltas fit in 1–3 bytes instead of 8,
/// * **value**: raw `u64` (values are unpredictable; compressing them
///   would buy little and cost cycles).
///
/// Encoding is append-only via [`AccessBlock::push`]; decoding is a
/// cursor-style iterator ([`AccessBlock::iter`]) that yields
/// [`AccessRecord`]s without allocating, so the try-commit replay runs
/// straight out of the received block.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AccessBlock {
    /// Number of records.
    len: u32,
    /// 2-bit kinds, four per byte, LSB-first.
    kinds: Vec<u8>,
    /// Zigzag + LEB128 deltas of the raw address bits.
    addrs: Vec<u8>,
    /// Raw store/observed values, one per record.
    values: Vec<u64>,
    /// Encoder state: the previous record's raw address.
    prev_addr: u64,
}

const KIND_LOAD: u8 = 0b01;
const KIND_STORE: u8 = 0b10;

#[inline]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

impl AccessBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records in the block.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the block carries no records (still a valid frame: every
    /// shard's replay cursor advances past an empty subTX).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload bytes this block occupies on the wire (excluding the
    /// fixed-size enum slot that carries it).
    pub fn wire_bytes(&self) -> u64 {
        (std::mem::size_of::<u32>() + self.kinds.len() + self.addrs.len()) as u64
            + 8 * self.values.len() as u64
    }

    /// Appends one record.
    pub fn push(&mut self, kind: AccessKind, addr: u64, value: u64) {
        let k = match kind {
            AccessKind::Load => KIND_LOAD,
            AccessKind::Store => KIND_STORE,
        };
        let slot = (self.len % 4) as usize;
        if slot == 0 {
            self.kinds.push(0);
        }
        *self.kinds.last_mut().expect("pushed above") |= k << (2 * slot);
        let mut z = zigzag(addr.wrapping_sub(self.prev_addr) as i64);
        loop {
            let byte = (z & 0x7F) as u8;
            z >>= 7;
            if z == 0 {
                self.addrs.push(byte);
                break;
            }
            self.addrs.push(byte | 0x80);
        }
        self.prev_addr = addr;
        self.values.push(value);
        self.len += 1;
    }

    /// Clears the block for reuse, keeping its capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.kinds.clear();
        self.addrs.clear();
        self.values.clear();
        self.prev_addr = 0;
    }

    /// Decodes the records in order, without allocating.
    pub fn iter(&self) -> AccessBlockIter<'_> {
        AccessBlockIter {
            block: self,
            i: 0,
            addr_pos: 0,
            prev_addr: 0,
        }
    }
}

/// Decoding cursor over an [`AccessBlock`].
#[derive(Debug)]
pub struct AccessBlockIter<'a> {
    block: &'a AccessBlock,
    i: u32,
    addr_pos: usize,
    prev_addr: u64,
}

impl Iterator for AccessBlockIter<'_> {
    type Item = AccessRecord;

    fn next(&mut self) -> Option<AccessRecord> {
        if self.i >= self.block.len {
            return None;
        }
        let i = self.i as usize;
        let kind = match (self.block.kinds[i / 4] >> (2 * (i % 4))) & 0b11 {
            KIND_LOAD => AccessKind::Load,
            KIND_STORE => AccessKind::Store,
            k => panic!("corrupt kind stream: {k:#b} at record {i}"),
        };
        let mut z = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.block.addrs[self.addr_pos];
            self.addr_pos += 1;
            z |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let addr = self.prev_addr.wrapping_add(unzigzag(z) as u64);
        self.prev_addr = addr;
        self.i += 1;
        Some(AccessRecord {
            kind,
            addr: VAddr::from_raw(addr),
            value: self.block.values[i],
        })
    }
}

/// A message on any DSMTX queue.
#[derive(Debug)]
pub enum Msg {
    // ------------------------------------------------------ data plane --
    /// Start of the data frame for one iteration.
    FrameBegin {
        /// The iteration (MTX) the frame belongs to.
        mtx: MtxId,
    },
    /// An uncommitted speculative store forwarded to a later subTX
    /// (`mtx_writeAll`/`mtx_writeTo`).
    Forward {
        /// Raw [`dsmtx_uva::VAddr`] bits.
        addr: u64,
        /// The stored value.
        value: u64,
    },
    /// A user value sent with `mtx_produce`.
    User {
        /// The produced value.
        value: u64,
    },
    /// End of the data frame for one iteration.
    FrameEnd {
        /// The iteration (MTX) the frame belongs to.
        mtx: MtxId,
    },

    // ------------------------------------------------------ unit plane --
    /// A complete packed subTX access stream: framing plus every surviving
    /// record in one message. The try-commit shards validate it and the
    /// commit unit commits its stores.
    ValBlock {
        /// Enclosing MTX.
        mtx: MtxId,
        /// Speculative attempt number (propagated trace context).
        attempt: u32,
        /// Pipeline stage executing the subTX.
        stage: StageId,
        /// The packed records (possibly empty: the frame still advances
        /// every shard's replay cursor).
        block: Box<AccessBlock>,
    },
    /// The subTX of `mtx` observed the sequential loop exit: commit
    /// everything at or before `mtx`, squash the rest, stop. Sent ahead
    /// of that subTX's [`Msg::ValBlock`] on the same link, so the commit
    /// unit knows of the exit before any shard can validate the MTX.
    LoopExit {
        /// The last iteration.
        mtx: MtxId,
    },
    /// A worker detected misspeculation itself (`mtx_misspec`), e.g. failed
    /// control-flow speculation.
    WorkerMisspec {
        /// The misspeculated MTX.
        mtx: MtxId,
        /// Speculative attempt number (propagated trace context).
        attempt: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_is_small_enough_to_queue_cheaply() {
        // The boxes keep block payloads out of line so a queue slot stays
        // three words.
        assert!(
            std::mem::size_of::<Msg>() <= 24,
            "{}",
            std::mem::size_of::<Msg>()
        );
    }

    fn roundtrip(records: &[(AccessKind, u64, u64)]) {
        let mut block = AccessBlock::new();
        for &(k, a, v) in records {
            block.push(k, a, v);
        }
        assert_eq!(block.len() as usize, records.len());
        let decoded: Vec<(AccessKind, u64, u64)> = block
            .iter()
            .map(|r| (r.kind, r.addr.raw(), r.value))
            .collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn block_roundtrips_records_exactly() {
        roundtrip(&[]);
        roundtrip(&[(AccessKind::Load, 0, 0)]);
        roundtrip(&[
            (AccessKind::Load, 4096, 17),
            (AccessKind::Store, 4104, 23),
            (AccessKind::Store, 4096, 99),
            (AccessKind::Load, u64::MAX, u64::MAX),
            (AccessKind::Store, 0, 1),
            (AccessKind::Load, 1 << 62, 7),
        ]);
    }

    #[test]
    fn block_roundtrips_a_pseudorandom_stream() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut records = Vec::new();
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let kind = if x & 1 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            records.push((kind, x, x.wrapping_mul(i)));
        }
        roundtrip(&records);
    }

    #[test]
    fn nearby_addresses_encode_in_few_bytes() {
        // A word-strided access stream: each delta is 8 bytes, which
        // zigzag+varint encodes in one byte — the whole point of the
        // delta encoding.
        let mut block = AccessBlock::new();
        for i in 0..64u64 {
            block.push(AccessKind::Store, 0x1000 + 8 * i, i);
        }
        // 64 values (8 B) + 16 kind bytes + ~65 addr bytes + 4 B header:
        // well under half of 64 one-record messages at 24 B each.
        assert!(
            block.wire_bytes() < 64 * 24 / 2,
            "wire_bytes = {}",
            block.wire_bytes()
        );
        // First delta (0x1000) takes 2 varint bytes; the remaining 63
        // deltas (+8 zigzagged = 16) take 1 byte each.
        assert_eq!(block.addrs.len(), 2 + 63);
    }

    #[test]
    fn clear_resets_the_encoder_state() {
        let mut block = AccessBlock::new();
        block.push(AccessKind::Load, 123, 1);
        block.clear();
        assert!(block.is_empty());
        block.push(AccessKind::Store, 456, 2);
        let r: Vec<_> = block.iter().collect();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].addr.raw(), 456);
        assert_eq!(r[0].kind, AccessKind::Store);
    }
}
