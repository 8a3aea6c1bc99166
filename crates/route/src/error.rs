//! Error type for routing analysis.

use std::error::Error;
use std::fmt;

use copack_geom::{GeomError, NetId};

/// Errors raised by routing and density analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// The assignment violates the monotonic via rule: within one ball row,
    /// two nets appear on the fingers in the opposite order to their balls.
    NonMonotonic {
        /// 1-based row where the violation was found.
        row: u32,
        /// Net whose ball is further left but finger further right.
        left_ball: NetId,
        /// Net whose ball is further right but finger further left.
        right_ball: NetId,
    },
    /// A net of the quadrant is missing from the assignment.
    Unplaced {
        /// The unplaced net.
        net: NetId,
    },
    /// A crossing wire's forced span leaves no room for the clamping
    /// margin: the terminating vias bracketing it in finger order sit in
    /// the wrong order or less than two margins apart. Only a via plan of
    /// another quadrant places them so.
    EmptySpan {
        /// 1-based row whose line the wire crosses.
        row: u32,
        /// The crossing net.
        net: NetId,
    },
    /// An underlying model error.
    Geom(GeomError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonMonotonic {
                row,
                left_ball,
                right_ball,
            } => write!(
                f,
                "assignment breaks the monotonic rule on row y={row}: \
                 {left_ball} sits left of {right_ball} on the balls but right of it on the fingers"
            ),
            Self::Unplaced { net } => write!(f, "net {net} has no finger slot"),
            Self::EmptySpan { row, net } => write!(
                f,
                "net {net} has no room to cross row y={row}: \
                 the vias bracketing it leave an empty span (is the via plan this quadrant's?)"
            ),
            Self::Geom(e) => write!(f, "model error: {e}"),
        }
    }
}

impl Error for RouteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Geom(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for RouteError {
    fn from(e: GeomError) -> Self {
        Self::Geom(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = RouteError::NonMonotonic {
            row: 2,
            left_ball: NetId::new(3),
            right_ball: NetId::new(5),
        };
        let s = e.to_string();
        assert!(s.contains("y=2") && s.contains("N3") && s.contains("N5"));
        assert!(!RouteError::Unplaced { net: NetId::new(1) }
            .to_string()
            .is_empty());
        let s = RouteError::EmptySpan {
            row: 4,
            net: NetId::new(7),
        }
        .to_string();
        assert!(s.contains("y=4") && s.contains("N7"));
    }

    #[test]
    fn geom_errors_convert_and_chain() {
        let e: RouteError = GeomError::NoRows.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<RouteError>();
    }
}
