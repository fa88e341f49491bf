//! [`SolveCx`]: per-session mutable state threaded through every solve.

use crate::error::SolveError;
use crate::request::SolveRequest;
use decss_shortcuts::ShortcutWorkspace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The mutable context a [`Solver`](crate::Solver) runs in: the reusable
/// scratch (the heavy-traffic path — repeated solves on same-size
/// instances allocate nothing after the first call) plus the armed
/// deadline/cancellation state of the current request.
#[derive(Debug, Default)]
pub struct SolveCx {
    workspace: ShortcutWorkspace,
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl SolveCx {
    /// A fresh context with empty scratch.
    pub fn new() -> Self {
        SolveCx::default()
    }

    /// The shared flat scratch ([`ShortcutWorkspace`]) solvers thread
    /// through the shortcut pipeline. Grows to the largest instance
    /// seen, never shrinks.
    pub fn workspace(&mut self) -> &mut ShortcutWorkspace {
        &mut self.workspace
    }

    /// Arms the deadline clock and cancellation flag for one solve.
    /// Called by [`SolverSession`](crate::SolverSession) at solve entry;
    /// call it yourself when driving a [`Solver`](crate::Solver)
    /// directly and you want the request's budget honored.
    pub fn arm(&mut self, req: &SolveRequest) {
        self.deadline = req.deadline.map(|budget| Instant::now() + budget);
        self.cancel = req.cancel.clone();
    }

    /// Phase-boundary check: errors if the armed cancellation flag is
    /// set or the armed deadline has passed. Solvers call this between
    /// phases (best-effort budgets: a running phase completes first).
    ///
    /// # Errors
    ///
    /// [`SolveError::Cancelled`] / [`SolveError::DeadlineExceeded`].
    pub fn checkpoint(&self) -> Result<(), SolveError> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(SolveError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(SolveError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_context_never_trips() {
        let cx = SolveCx::new();
        assert_eq!(cx.checkpoint(), Ok(()));
    }

    #[test]
    fn cancellation_flag_trips_the_checkpoint() {
        let mut cx = SolveCx::new();
        let flag = Arc::new(AtomicBool::new(false));
        cx.arm(&SolveRequest::new("x").cancel_flag(flag.clone()));
        assert_eq!(cx.checkpoint(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(cx.checkpoint(), Err(SolveError::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips_the_checkpoint() {
        let mut cx = SolveCx::new();
        cx.arm(&SolveRequest::new("x").deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(cx.checkpoint(), Err(SolveError::DeadlineExceeded));
        // Re-arming with a roomy budget clears the trip.
        cx.arm(&SolveRequest::new("x").deadline(Duration::from_secs(3600)));
        assert_eq!(cx.checkpoint(), Ok(()));
    }
}
