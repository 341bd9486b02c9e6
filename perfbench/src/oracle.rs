//! The correctness oracle every run is checked against.
//!
//! Payloads are windows into one seed-derived byte buffer: message `i`
//! of a conversation is `len` bytes starting at offset `i * STEP mod
//! WINDOW`.  Checking a delivery against the window of the sequence
//! number the receiver expects next verifies every byte and the FIFO
//! order at once, without generating bytes on the hot path.  A message
//! delivered out of place matches only if its offset collides, which
//! takes a reordering distance of `WINDOW` messages.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use mpf_shm::SmallRng;

/// Bytes of distinct window offsets (the offset period in messages).
const WINDOW: usize = 1 << 20;
/// Offset advance per message; odd, so the period is the full `WINDOW`.
const STEP: usize = 4099;

/// Seed-derived payload bytes shared by senders and checkers.
#[derive(Debug)]
pub struct Payloads {
    buf: Vec<u8>,
    len: usize,
    /// Per-byte XOR key of the worker's reply transform.
    key: [u8; 16],
}

impl Payloads {
    /// Payloads of `len` bytes for workload stream `seed`.
    pub fn new(seed: u64, len: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut buf = vec![0u8; WINDOW + len];
        for chunk in buf.chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        let mut key = [0u8; 16];
        for k in key.chunks_mut(8) {
            k.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        Payloads { buf, len, key }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload of message `seq`.
    pub fn get(&self, seq: u64) -> &[u8] {
        let off = (seq as usize).wrapping_mul(STEP) % WINDOW;
        &self.buf[off..off + self.len]
    }

    /// A request payload carrying its sequence id in its first 8 bytes
    /// (so a handler can name the request it serves), the rest the
    /// seed-derived window.
    pub fn request(&self, seq: u64) -> Vec<u8> {
        assert!(self.len >= 8, "requests need room for a sequence id");
        let mut req = self.get(seq).to_vec();
        req[..8].copy_from_slice(&seq.to_le_bytes());
        req
    }

    /// The sequence id a request carries, if it is long enough.
    pub fn request_seq(req: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(req.get(..8)?.try_into().ok()?))
    }

    /// Whether `req` is exactly request `seq`.
    pub fn request_ok(&self, seq: u64, req: &[u8]) -> bool {
        req.len() == self.len
            && Self::request_seq(req) == Some(seq)
            && req[8..] == self.get(seq)[8..]
    }

    /// The worker's reply transform: byte-wise XOR with a seed-derived
    /// key, then reversed.
    pub fn transform(&self, req: &[u8]) -> Vec<u8> {
        req.iter()
            .enumerate()
            .map(|(i, b)| b ^ self.key[i % 16])
            .rev()
            .collect()
    }
}

/// First-violation latch shared by every thread of a run.
#[derive(Debug, Default)]
pub struct Oracle {
    violated: AtomicBool,
    first: Mutex<Option<String>>,
}

impl Oracle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a violation (the first message is kept).
    pub fn fail(&self, why: String) {
        self.violated.store(true, Ordering::SeqCst);
        let mut first = self.first.lock().expect("oracle latch poisoned");
        first.get_or_insert(why);
    }

    pub fn violated(&self) -> bool {
        self.violated.load(Ordering::SeqCst)
    }

    /// The first violation, if any.
    pub fn verdict(&self) -> Result<(), String> {
        match self.first.lock().expect("oracle latch poisoned").clone() {
            Some(why) => Err(why),
            None => Ok(()),
        }
    }
}

/// Checks one conversation's deliveries: every payload is the window of
/// the next sequence number, so loss, duplication, reordering and any
/// corrupted byte all show as a mismatch.
#[derive(Debug)]
pub struct FifoCheck {
    name: &'static str,
    next: u64,
}

impl FifoCheck {
    pub fn new(name: &'static str) -> Self {
        FifoCheck { name, next: 0 }
    }

    /// Sequence number the next delivery must carry.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Checks a delivery; on success returns its sequence number.
    pub fn check(&mut self, p: &Payloads, got: &[u8]) -> Result<u64, String> {
        let seq = self.next;
        if got != p.get(seq) {
            return Err(describe(self.name, seq, p, got));
        }
        self.next += 1;
        Ok(seq)
    }
}

fn describe(name: &str, seq: u64, p: &Payloads, got: &[u8]) -> String {
    let want = p.get(seq);
    if got.len() != want.len() {
        return format!(
            "{name}: message {seq} has {} bytes, expected {}",
            got.len(),
            want.len()
        );
    }
    // A whole-window match with a nearby sequence number is a reorder,
    // loss or duplicate; anything else is corruption.
    for delta in 1..=64u64 {
        for other in [seq.checked_sub(delta), Some(seq + delta)]
            .into_iter()
            .flatten()
        {
            if got == p.get(other) {
                return format!(
                    "{name}: message {seq} expected, message {other} delivered (FIFO order broken)"
                );
            }
        }
    }
    let at = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
    format!("{name}: message {seq} corrupted at byte {at}")
}

/// Exactly-once check across the receivers of one conversation (one
/// for FCFS, each BROADCAST receiver otherwise): each receiver runs its
/// own [`FifoCheck`], and the tally proves every message reached every
/// receiver exactly once by the end.
#[derive(Debug)]
pub struct Tally {
    receivers: Vec<FifoCheck>,
}

impl Tally {
    pub fn new(name: &'static str, receivers: usize) -> Self {
        Tally {
            receivers: (0..receivers).map(|_| FifoCheck::new(name)).collect(),
        }
    }

    /// Receiver `r` delivered `got`.
    pub fn deliver(&mut self, r: usize, p: &Payloads, got: &[u8]) -> Result<u64, String> {
        self.receivers[r]
            .check(p, got)
            .map_err(|e| format!("receiver {r}: {e}"))
    }

    /// Messages receiver `r` has delivered so far.
    pub fn delivered(&self, r: usize) -> u64 {
        self.receivers[r].next()
    }

    /// After the sender published `sent` messages: every receiver saw
    /// each one exactly once.
    pub fn complete(&self, sent: u64) -> Result<(), String> {
        for (r, c) in self.receivers.iter().enumerate() {
            if c.next() != sent {
                return Err(format!("receiver {r} got {} of {sent} messages", c.next()));
            }
        }
        Ok(())
    }
}

/// Region state after teardown: every block free, no conversation
/// alive, nothing waiting for a reclamation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Teardown {
    pub free_blocks: u32,
    pub total_blocks: u32,
    pub live_lnvcs: usize,
    pub reclaimable_messages: u32,
    pub reclaimable_blocks: u64,
}

impl Teardown {
    pub fn check(&self, what: &str) -> Result<(), String> {
        if self.free_blocks == self.total_blocks
            && self.live_lnvcs == 0
            && self.reclaimable_messages == 0
            && self.reclaimable_blocks == 0
        {
            Ok(())
        } else {
            Err(format!("{what}: teardown not conserved: {self:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Payloads {
        Payloads::new(7, 16)
    }

    #[test]
    fn in_order_deliveries_pass() {
        let p = p();
        let mut c = FifoCheck::new("t");
        for seq in 0..1000 {
            assert_eq!(c.check(&p, p.get(seq)), Ok(seq));
        }
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let p = p();
        let mut c = FifoCheck::new("t");
        let mut bad = p.get(0).to_vec();
        bad[5] ^= 1;
        let err = c.check(&p, &bad).unwrap_err();
        assert!(err.contains("corrupted at byte 5"), "{err}");
    }

    #[test]
    fn reordered_sequence_is_rejected() {
        let p = p();
        let mut c = FifoCheck::new("t");
        c.check(&p, p.get(0)).unwrap();
        let err = c.check(&p, p.get(2)).unwrap_err();
        assert!(err.contains("FIFO order broken"), "{err}");
    }

    #[test]
    fn duplicated_broadcast_delivery_is_rejected() {
        let p = p();
        let mut t = Tally::new("t", 2);
        for r in 0..2 {
            t.deliver(r, &p, p.get(0)).unwrap();
        }
        // Receiver 1 sees message 0 a second time.
        assert!(t.deliver(1, &p, p.get(0)).is_err());
        // A receiver that missed a message fails the final tally.
        let mut t = Tally::new("t", 2);
        t.deliver(0, &p, p.get(0)).unwrap();
        assert!(t.complete(1).is_err());
        t.deliver(1, &p, p.get(0)).unwrap();
        assert!(t.complete(1).is_ok());
    }

    #[test]
    fn requests_and_replies_round_trip() {
        let p = Payloads::new(3, 64);
        let req = p.request(41);
        assert!(p.request_ok(41, &req));
        assert!(!p.request_ok(42, &req));
        let rep = p.transform(&req);
        assert_ne!(rep, req);
        assert_eq!(rep.len(), 64);
        assert_eq!(Payloads::request_seq(&req), Some(41));
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(Payloads::new(9, 32).get(5), Payloads::new(9, 32).get(5));
        assert_ne!(Payloads::new(9, 32).get(5), Payloads::new(10, 32).get(5));
    }

    #[test]
    fn teardown_requires_full_conservation() {
        let ok = Teardown {
            free_blocks: 8,
            total_blocks: 8,
            live_lnvcs: 0,
            reclaimable_messages: 0,
            reclaimable_blocks: 0,
        };
        assert!(ok.check("t").is_ok());
        assert!(Teardown {
            free_blocks: 7,
            ..ok
        }
        .check("t")
        .is_err());
        assert!(Teardown {
            live_lnvcs: 1,
            ..ok
        }
        .check("t")
        .is_err());
    }
}
