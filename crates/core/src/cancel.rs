//! Cooperative cancellation: cheap, clonable tokens with optional
//! monotonic deadlines.
//!
//! A [`CancelToken`] is an `Arc`'d atomic flag plus an optional
//! [`Deadline`]. Long-running compute *polls* it at natural loop
//! boundaries via [`CancelToken::checkpoint`] — nothing is ever
//! interrupted preemptively, so a worker always finishes the item it is
//! on and scratch state never ends up half-written. The execution layer
//! polls between claims in [`exec::run_map`], and the finder / placer /
//! congestion hot loops poll between iterations, so a cancelled request
//! returns within one checkpoint interval (one seed search, one placer
//! iteration, one congestion stripe).
//!
//! [`exec::run_map`]: crate::exec::run_map
//!
//! Tokens form a tree: [`CancelToken::child_with_deadline`] derives a
//! token that trips when its own deadline passes **or** when any
//! ancestor is cancelled — the service runtime gives every connection a
//! root token (tripped on connection loss) and every request a child
//! carrying that request's deadline.
//!
//! Determinism note: a token that never fires is invisible — every layer
//! runs one code path with or without a token, and `Some(live token)`
//! produces byte-identical results to `None` (property-tested in `exec`). Cancellation
//! outcomes themselves are inherently timing-dependent, which is why
//! the service layer never caches a cancelled response.
//!
//! # Example
//!
//! ```
//! use gtl_core::cancel::{CancelReason, CancelToken};
//!
//! let token = CancelToken::new();
//! assert!(token.checkpoint().is_ok());
//! token.cancel();
//! let err = token.checkpoint().unwrap_err();
//! assert_eq!(err.reason, CancelReason::Cancelled);
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a computation was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (connection loss, shutdown).
    Cancelled,
    /// The token's [`Deadline`] passed.
    DeadlineExceeded,
}

/// The structured error a cancelled computation returns.
///
/// Carries the [`CancelReason`] so callers can distinguish a deadline
/// expiry (answerable with a `deadline_exceeded` response) from an
/// explicit cancellation (usually nobody left to answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// What tripped the token.
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            CancelReason::Cancelled => f.write_str("computation cancelled"),
            CancelReason::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

impl std::error::Error for Cancelled {}

/// A point on the monotonic clock after which a computation should stop.
///
/// A thin wrapper over [`Instant`] so deadline arithmetic (anchoring at
/// request arrival, saturating on absurd durations) lives in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// A deadline `after` from now.
    ///
    /// # Panics
    ///
    /// Panics if `now + after` overflows the clock (like
    /// `Instant + Duration` itself). Code building deadlines from
    /// untrusted durations should use [`Deadline::anchored`], which
    /// saturates to "no deadline" instead.
    pub fn after(after: Duration) -> Self {
        Self::at(Instant::now() + after)
    }

    /// A deadline `after` from `anchor` (e.g. request arrival), or
    /// `None` when the sum overflows the clock — an unrepresentably far
    /// deadline is the same as no deadline.
    pub fn anchored(anchor: Instant, after: Duration) -> Option<Self> {
        anchor.checked_add(after).map(Self::at)
    }

    /// The absolute instant.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// [`CancelToken::checkpoint`] over an optional token: `Ok(())` when no
/// token is attached. Compute threads `Option<&CancelToken>` (the
/// execution layer, the finder, the placer loop) and probes through
/// this.
///
/// # Errors
///
/// [`Cancelled`] once a present token fires.
pub fn checkpoint(token: Option<&CancelToken>) -> Result<(), Cancelled> {
    match token {
        Some(token) => token.checkpoint(),
        None => Ok(()),
    }
}

/// Token state machine: `LIVE → CANCELLED | DEADLINE`, monotonic (the
/// first cause wins and is never overwritten).
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    deadline: Option<Instant>,
    parent: Option<CancelToken>,
}

/// A cheap, clonable cancellation probe (see the [module docs](self)).
///
/// Clones share one flag: cancelling any clone trips them all. Children
/// created with [`CancelToken::child_with_deadline`] have their own flag
/// and deadline but also report cancelled when an ancestor does.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A live token with no deadline; fires only on [`cancel`].
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token that trips itself once `deadline` passes.
    pub fn with_deadline(deadline: Deadline) -> Self {
        Self::build(Some(deadline.instant()), None)
    }

    /// A child that trips on its own `deadline` *or* whenever `self`
    /// (or any of `self`'s ancestors) is cancelled. Cancelling the
    /// child does not affect the parent.
    pub fn child_with_deadline(&self, deadline: Deadline) -> Self {
        Self::build(Some(deadline.instant()), Some(self.clone()))
    }

    fn build(deadline: Option<Instant>, parent: Option<CancelToken>) -> Self {
        Self { inner: Arc::new(Inner { state: AtomicU8::new(LIVE), deadline, parent }) }
    }

    /// Trips the token (and every clone sharing its flag). Idempotent;
    /// a deadline that already fired keeps its `DeadlineExceeded`
    /// reason.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The reason the token has fired, or `None` while it is live.
    ///
    /// Lazily latches the deadline: the first probe past the deadline
    /// transitions the state, so every later probe agrees on the
    /// reason.
    pub fn state(&self) -> Option<CancelReason> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => return Some(CancelReason::Cancelled),
            DEADLINE => return Some(CancelReason::DeadlineExceeded),
            _ => {}
        }
        if let Some(at) = self.inner.deadline {
            if Instant::now() >= at {
                // Latch; lose the race gracefully if `cancel` got there
                // first (its reason then wins, matching the load above).
                let _ = self.inner.state.compare_exchange(
                    LIVE,
                    DEADLINE,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return match self.inner.state.load(Ordering::Relaxed) {
                    CANCELLED => Some(CancelReason::Cancelled),
                    _ => Some(CancelReason::DeadlineExceeded),
                };
            }
        }
        self.inner.parent.as_ref().and_then(CancelToken::state)
    }

    /// Whether the token has fired (flag, own deadline, or ancestor).
    pub fn is_cancelled(&self) -> bool {
        self.state().is_some()
    }

    /// The cooperative probe: `Ok(())` while live, [`Cancelled`] once
    /// the token fires. Call it at loop boundaries: `token.checkpoint()?`.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] with the firing [`CancelReason`].
    pub fn checkpoint(&self) -> Result<(), Cancelled> {
        match self.state() {
            None => Ok(()),
            Some(reason) => Err(Cancelled { reason }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert!(token.checkpoint().is_ok());
        assert_eq!(token.state(), None);
    }

    #[test]
    fn cancel_trips_all_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert_eq!(token.checkpoint().unwrap_err().reason, CancelReason::Cancelled);
        assert_eq!(clone.checkpoint().unwrap_err().reason, CancelReason::Cancelled);
        // Idempotent.
        token.cancel();
        assert_eq!(token.state(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let token = CancelToken::with_deadline(Deadline::at(Instant::now()));
        let err = token.checkpoint().unwrap_err();
        assert_eq!(err.reason, CancelReason::DeadlineExceeded);
        assert_eq!(err.to_string(), "deadline exceeded");
        // The latched reason survives a later explicit cancel.
        token.cancel();
        assert_eq!(token.state(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_stays_live() {
        let token = CancelToken::with_deadline(Deadline::after(Duration::from_secs(3600)));
        assert!(token.checkpoint().is_ok());
    }

    #[test]
    fn child_sees_parent_cancellation_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Deadline::after(Duration::from_secs(3600)));
        assert!(child.checkpoint().is_ok());
        parent.cancel();
        assert_eq!(child.checkpoint().unwrap_err().reason, CancelReason::Cancelled);

        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Deadline::after(Duration::from_secs(3600)));
        child.cancel();
        assert!(parent.checkpoint().is_ok(), "child cancel must not leak upward");
    }

    #[test]
    fn child_deadline_fires_independently_of_parent() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Deadline::at(Instant::now()));
        assert_eq!(child.checkpoint().unwrap_err().reason, CancelReason::DeadlineExceeded);
        assert!(parent.checkpoint().is_ok());
    }

    #[test]
    fn anchored_deadline_saturates() {
        assert!(Deadline::anchored(Instant::now(), Duration::from_millis(5)).is_some());
        // An unrepresentably far deadline is "no deadline".
        assert!(Deadline::anchored(Instant::now(), Duration::from_secs(u64::MAX)).is_none());
    }

    #[test]
    fn deadline_accessors() {
        let now = Instant::now();
        let d = Deadline::at(now);
        assert_eq!(d.instant(), now);
        assert!(d.expired());
        assert!(!Deadline::after(Duration::from_secs(3600)).expired());
    }
}
