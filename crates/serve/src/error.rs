//! Typed rejection of bad query parameters.

/// Error returned when a query (or a serving-policy configuration)
/// carries invalid parameters — the serving layer's counterpart of
/// [`bas_sketch::MergeError`].
///
/// Every validation in this crate goes through this enum; the
/// panicking convenience methods (e.g.
/// [`QueryEngine::heavy_hitters`](crate::QueryEngine::heavy_hitters))
/// panic with its [`Display`](std::fmt::Display) message, so callers
/// that prefer `Result`s use the `try_*` / windowed APIs and callers
/// that prefer panics lose nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryError {
    /// A heavy-hitter threshold outside `(0, 1)`.
    InvalidPhi {
        /// The rejected threshold.
        phi: f64,
    },
    /// A range query with `a > b` or `b ≥ n`.
    InvalidRange {
        /// Inclusive lower bound.
        a: u64,
        /// Inclusive upper bound.
        b: u64,
        /// Universe size.
        n: u64,
    },
    /// A window length of zero intervals.
    InvalidWindowLen {
        /// The rejected length.
        len: usize,
    },
    /// The window reaches back to an interval whose sealed plane the
    /// bank no longer retains.
    WindowUnavailable {
        /// The boundary interval that was requested.
        interval: u64,
    },
    /// An audited engine refused the query: the key has already been
    /// asked about `limit` times in the current interval (see
    /// [`AuditPolicy`](crate::AuditPolicy)). Answering further probes
    /// would hand an adaptive adversary the per-key feedback budget the
    /// robustness analysis bounds.
    AuditRejected {
        /// The item whose query budget is exhausted.
        item: u64,
        /// The per-key, per-interval query cap that was reached.
        limit: u64,
    },
}

impl QueryError {
    /// Validates a heavy-hitter threshold.
    pub fn check_phi(phi: f64) -> Result<(), QueryError> {
        if phi > 0.0 && phi < 1.0 {
            Ok(())
        } else {
            Err(QueryError::InvalidPhi { phi })
        }
    }

    /// Validates an inclusive range over a universe of size `n`.
    pub fn check_range(a: u64, b: u64, n: u64) -> Result<(), QueryError> {
        if a <= b && b < n {
            Ok(())
        } else {
            Err(QueryError::InvalidRange { a, b, n })
        }
    }

    /// Validates a window length in intervals.
    pub fn check_window_len(len: usize) -> Result<(), QueryError> {
        if len > 0 {
            Ok(())
        } else {
            Err(QueryError::InvalidWindowLen { len })
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QueryError::InvalidPhi { phi } => {
                write!(f, "phi must be in (0,1), got {phi}")
            }
            QueryError::InvalidRange { a, b, n } => {
                write!(f, "invalid range [{a}, {b}] over universe [0, {n})")
            }
            QueryError::InvalidWindowLen { len } => {
                write!(f, "window length must be at least 1 interval, got {len}")
            }
            QueryError::WindowUnavailable { interval } => {
                write!(
                    f,
                    "sealed plane for interval {interval} is no longer retained by the bank"
                )
            }
            QueryError::AuditRejected { item, limit } => {
                write!(
                    f,
                    "query audit rejected item {item}: per-key budget of {limit} queries \
                     for this plane lifetime is exhausted"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_validation() {
        assert!(QueryError::check_phi(0.5).is_ok());
        assert_eq!(
            QueryError::check_phi(0.0),
            Err(QueryError::InvalidPhi { phi: 0.0 })
        );
        assert!(QueryError::check_phi(1.0).is_err());
        assert!(QueryError::check_phi(f64::NAN).is_err());
    }

    #[test]
    fn range_validation() {
        assert!(QueryError::check_range(2, 5, 10).is_ok());
        assert!(QueryError::check_range(5, 2, 10).is_err());
        assert!(QueryError::check_range(0, 10, 10).is_err());
    }

    #[test]
    fn messages_name_the_parameter() {
        assert!(QueryError::InvalidPhi { phi: 2.0 }
            .to_string()
            .contains("phi must be in (0,1)"));
        assert!(QueryError::InvalidRange { a: 5, b: 2, n: 10 }
            .to_string()
            .contains("invalid range"));
        assert!(QueryError::InvalidWindowLen { len: 0 }
            .to_string()
            .contains("window length"));
        assert!(QueryError::WindowUnavailable { interval: 7 }
            .to_string()
            .contains("interval 7"));
        let rejected = QueryError::AuditRejected { item: 3, limit: 10 }.to_string();
        assert!(
            rejected.contains("item 3") && rejected.contains("10"),
            "{rejected}"
        );
        // It is a std error like MergeError.
        let e: Box<dyn std::error::Error> = Box::new(QueryError::InvalidWindowLen { len: 0 });
        assert!(e.to_string().contains("at least 1"));
    }
}
