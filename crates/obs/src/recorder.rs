//! The [`Recorder`] trait and its trivial implementations.

use crate::event::Event;

/// A sink for telemetry [`Event`]s.
///
/// Instrumented code holds a `&mut dyn Recorder` and calls
/// [`record`](Self::record) at each event site. Hot loops are expected to
/// cache [`enabled`](Self::enabled) (and, for per-proposal events,
/// [`wants_rejected`](Self::wants_rejected)) in a local `bool` once at
/// startup, so a disabled recorder costs one never-taken branch per
/// event site — nothing allocates, nothing formats.
///
/// Recorders are `&mut`-threaded, never shared: parallel code gives each
/// worker its own recorder (usually a [`TraceBuffer`](crate::TraceBuffer))
/// and merges the buffers deterministically afterwards.
pub trait Recorder {
    /// Whether this recorder wants events at all. Callers may skip event
    /// construction entirely when this is `false`; the value must stay
    /// constant for the lifetime of a run.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this recorder wants high-volume [`Event::MoveRejected`]
    /// events in addition to the per-step aggregates. Defaults to `false`
    /// because rejected proposals dominate event volume at low
    /// temperature. Must stay constant for the lifetime of a run.
    fn wants_rejected(&self) -> bool {
        false
    }

    /// Consumes one event. Implementations must not panic on I/O errors;
    /// sinks that can fail store the first error and go inert (see
    /// [`JsonlSink`](crate::JsonlSink)).
    fn record(&mut self, event: &Event);
}

/// The default recorder: drops everything, reports itself disabled.
///
/// With this recorder every instrumented path is bit-identical to the
/// uninstrumented code — asserted by the golden-output tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        assert!(!r.wants_rejected());
    }
}
