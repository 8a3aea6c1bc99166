//! In-memory event capture.

use crate::event::Event;
use crate::recorder::Recorder;

/// A [`Recorder`] that appends every event to a `Vec`.
///
/// This is the workhorse for tests (assert on the exact event stream),
/// for threaded planning (one buffer per quadrant worker, merged in side
/// order afterwards), and for `--metrics` (summarised after the run).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    events: Vec<Event>,
    record_rejected: bool,
}

impl TraceBuffer {
    /// An empty buffer that records everything except per-proposal
    /// [`Event::MoveRejected`] events.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer that also opts into [`Event::MoveRejected`]
    /// events (high volume; used by the Metropolis-acceptance tests).
    #[must_use]
    pub fn with_rejected() -> Self {
        Self {
            events: Vec::new(),
            record_rejected: true,
        }
    }

    /// The captured events, in record order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the buffer, yielding the captured events.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of captured events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends one event directly (for callers that are not event
    /// sources themselves, e.g. the CLI emitting [`Event::Note`]s).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }
}

impl Recorder for TraceBuffer {
    fn wants_rejected(&self) -> bool {
        self.record_rejected
    }

    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_captures_in_order() {
        let mut buf = TraceBuffer::new();
        assert!(buf.enabled());
        assert!(!buf.wants_rejected());
        buf.record(&Event::SideBegin { side: 2 });
        buf.record(&Event::SideEnd {
            side: 2,
            seconds: 0.5,
        });
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.events()[0], Event::SideBegin { side: 2 });
    }
}
