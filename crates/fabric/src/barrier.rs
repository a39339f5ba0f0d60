//! Reusable barrier used by the misspeculation-recovery protocol.
//!
//! §4.3 of the paper requires three global barriers during rollback: one to
//! ensure every thread has entered recovery mode, one after the speculative
//! queues are flushed, and one before parallel execution recommences. This
//! barrier is reusable and hands back the generation number so tests can
//! assert protocol phases.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

#[derive(Debug)]
struct State {
    /// Threads still expected in the current generation.
    remaining: usize,
    /// Completed generations.
    generation: u64,
}

#[derive(Debug)]
struct Inner {
    parties: usize,
    state: Mutex<State>,
    cond: Condvar,
}

/// A reusable counting barrier for a fixed set of participants.
///
/// Cloning yields another handle onto the same barrier.
#[derive(Debug, Clone)]
pub struct Barrier {
    inner: Arc<Inner>,
}

impl Barrier {
    /// Creates a barrier for `parties` participants.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "barrier needs at least one party");
        Barrier {
            inner: Arc::new(Inner {
                parties,
                state: Mutex::new(State {
                    remaining: parties,
                    generation: 0,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// Blocks until all parties have called `wait` for this generation.
    ///
    /// Returns the generation number that just completed (starting at 0).
    pub fn wait(&self) -> u64 {
        let mut st = self.inner.state.lock();
        let gen = st.generation;
        st.remaining -= 1;
        if st.remaining == 0 {
            st.remaining = self.inner.parties;
            st.generation += 1;
            self.inner.cond.notify_all();
            gen
        } else {
            while st.generation == gen {
                self.inner.cond.wait(&mut st);
            }
            gen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn single_party_never_blocks() {
        let b = Barrier::new(1);
        assert_eq!(b.wait(), 0);
        assert_eq!(b.wait(), 1);
        assert_eq!(b.wait(), 2);
    }

    #[test]
    fn all_parties_rendezvous() {
        const N: usize = 4;
        let b = Barrier::new(N);
        let before = StdArc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..N {
            let b = b.clone();
            let before = before.clone();
            handles.push(std::thread::spawn(move || {
                before.fetch_add(1, Ordering::SeqCst);
                b.wait();
                // After the barrier, every increment must be visible.
                assert_eq!(before.load(Ordering::SeqCst), N);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        const N: usize = 3;
        const ROUNDS: u64 = 5;
        let b = Barrier::new(N);
        let mut handles = Vec::new();
        for _ in 0..N {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    assert_eq!(b.wait(), round);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        let _ = Barrier::new(0);
    }
}
