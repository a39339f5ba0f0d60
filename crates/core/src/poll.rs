//! The runtime's one wait primitive.
//!
//! Every place a runtime thread waits for something is a call to [`wait`]:
//! poll the control plane, try to make progress, back off. So every
//! thread notices a recovery or a termination wherever it waits (a thread
//! stuck in a blocking receive could never reach the recovery barriers,
//! §4.3), and the backoff plays fairly on machines with few cores. The
//! only role waits outside it are the recovery barriers, which a role
//! enters only once it has seen the `Recovering` status: the commit unit
//! publishes it, and [`wait`] hands it to every other role.

use std::time::{Duration, Instant};

use crate::control::{ControlPlane, Interrupt};

/// True when this process has exactly one CPU to run on.
///
/// Spinning only makes sense when the producer we are waiting for can run
/// *concurrently* on another core; on a single-core host a spin round
/// burns the very quantum the producer needs, so the backoff skips
/// straight to yielding.
fn single_core() -> bool {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CORES: AtomicUsize = AtomicUsize::new(0);
    let mut n = CORES.load(Ordering::Relaxed);
    if n == 0 {
        n = std::thread::available_parallelism().map_or(1, |c| c.get());
        CORES.store(n, Ordering::Relaxed);
    }
    n == 1
}

/// Backs off after the `round`-th unproductive attempt (1-based): spin
/// briefly, then yield, then sleep.
fn back_off(round: u32) {
    if round < 16 && !single_core() {
        std::hint::spin_loop();
    } else if round < 256 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Runs `step` until it yields a value. Each attempt first polls the
/// control plane, then runs `step`, then backs off; the backoff restarts
/// with every call.
///
/// * `seen_epoch` is the caller's cached control epoch (see
///   [`ControlPlane::poll`]). An interrupt wins over ready work: while the
///   control plane has news the caller has not seen, `wait` returns it
///   without running `step`.
/// * `deadline` bounds an unproductive wait (when `Some`). A peer silenced
///   by injected faults (or a real hang) must not pin this thread forever:
///   expiry converts the silence into a recovery request. The clock starts
///   at the first unproductive attempt, so a ready value never pays for an
///   `Instant::now`.
///
/// # Errors
///
/// Returns the interrupt published on the control plane, the error `step`
/// returned, or [`Interrupt::FabricTimeout`] once `deadline` expires.
pub fn wait<T>(
    ctrl: &ControlPlane,
    seen_epoch: &mut u64,
    deadline: Option<Duration>,
    mut step: impl FnMut() -> Result<Option<T>, Interrupt>,
) -> Result<T, Interrupt> {
    let mut round = 0u32;
    let mut expiry: Option<Instant> = None;
    loop {
        if let Some(intr) = ctrl.poll(seen_epoch) {
            return Err(intr);
        }
        if let Some(v) = step()? {
            return Ok(v);
        }
        if let Some(limit) = deadline {
            let now = Instant::now();
            match expiry {
                None => expiry = Some(now + limit),
                Some(at) if now >= at => return Err(Interrupt::FabricTimeout),
                Some(_) => {}
            }
        }
        round = round.saturating_add(1);
        back_off(round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Status;
    use crate::ids::MtxId;

    #[test]
    fn wait_returns_value_when_ready() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let mut tries = 0;
        let v = wait(&ctrl, &mut seen, None, || {
            tries += 1;
            Ok(if tries >= 3 { Some(42) } else { None })
        })
        .unwrap();
        assert_eq!(v, 42);
        assert_eq!(tries, 3);
    }

    #[test]
    fn wait_aborts_on_interrupt() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        ctrl.publish(Status::Recovering { boundary: MtxId(2) });
        let r: Result<(), _> = wait(&ctrl, &mut seen, None, || Ok(None));
        assert_eq!(r.unwrap_err(), Interrupt::Recovery { boundary: MtxId(2) });
    }

    #[test]
    fn wait_propagates_step_errors() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let r: Result<(), _> = wait(&ctrl, &mut seen, None, || Err(Interrupt::ChannelDown));
        assert_eq!(r.unwrap_err(), Interrupt::ChannelDown);
    }

    #[test]
    fn wait_times_out_on_silence() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let started = Instant::now();
        let r: Result<(), _> = wait(&ctrl, &mut seen, Some(Duration::from_millis(10)), || {
            Ok(None)
        });
        assert_eq!(r.unwrap_err(), Interrupt::FabricTimeout);
        assert!(started.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn wait_with_deadline_prefers_data_and_interrupts() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        let v = wait(&ctrl, &mut seen, Some(Duration::from_secs(10)), || {
            Ok(Some(7))
        })
        .unwrap();
        assert_eq!(v, 7);
        ctrl.publish(Status::Terminating { last: None });
        let r: Result<(), _> = wait(&ctrl, &mut seen, Some(Duration::from_secs(10)), || Ok(None));
        assert_eq!(r.unwrap_err(), Interrupt::Terminate);
    }

    #[test]
    fn interrupt_wins_over_ready_work() {
        let ctrl = ControlPlane::new(1);
        let mut seen = ctrl.epoch();
        ctrl.publish(Status::Recovering { boundary: MtxId(4) });
        let mut steps = 0;
        let r = wait(&ctrl, &mut seen, None, || {
            steps += 1;
            Ok(Some(9))
        });
        assert_eq!(r, Err(Interrupt::Recovery { boundary: MtxId(4) }));
        assert_eq!(steps, 0, "step ran before the interrupt was seen");
        // The interrupt is consumed: the next wait hands out the value.
        let r = wait(&ctrl, &mut seen, None, || {
            steps += 1;
            Ok(Some(9))
        });
        assert_eq!(r, Ok(9));
        assert_eq!(steps, 1);
    }
}
