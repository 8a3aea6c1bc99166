//! Line-delimited JSON trace files.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::Event;
use crate::recorder::Recorder;

/// Failure opening a trace sink.
#[derive(Debug)]
pub enum ObsError {
    /// The trace file could not be created.
    Io {
        /// Path the caller asked for.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "cannot open trace file {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
        }
    }
}

/// A [`Recorder`] that writes one JSON object per line to a writer.
///
/// Recording stages the event in an in-memory queue (a cheap clone, tens
/// of nanoseconds) so the annealer's hot loop never pays for JSON
/// serialisation; the queue is serialised and written out every
/// `DRAIN_THRESHOLD` (65 536) events and at [`finish`](Self::finish). This is
/// what keeps the kernel's moves/sec within budget with a live sink —
/// `bench_exchange` measures it.
///
/// The sink never panics and never aborts a run: the first write failure
/// is stored and the sink goes inert (stops writing, keeps accepting
/// events). Callers check [`error`](Self::error) — or the [`finish`]
/// result — after the run and surface a warning; a broken trace file
/// must not destroy hours of annealing.
///
/// [`finish`]: Self::finish
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    queue: Vec<Event>,
    scratch: String,
    error: Option<io::Error>,
}

/// Queued events are flushed to the writer once the queue reaches this
/// length, bounding the sink's memory at a few MB for arbitrarily long
/// runs.
pub const DRAIN_THRESHOLD: usize = 1 << 16;

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a trace file at `path`. Open failures are
    /// loud — an unwritable `--trace` path is a user error to report
    /// before the run starts, not after.
    pub fn create(path: &Path) -> Result<Self, ObsError> {
        let file = File::create(path).map_err(|source| ObsError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Ok(Self::new(BufWriter::new(file)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer (tests inject failing writers here).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            queue: Vec::new(),
            scratch: String::new(),
            error: None,
        }
    }

    /// The first write error, if any occurred. Once set, no further
    /// writes are attempted. Errors surface when the queue drains —
    /// call [`drain`](Self::drain) or [`finish`](Self::finish) to force
    /// one.
    #[must_use]
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Serialises and writes every queued event now. Stops at (and
    /// stores) the first write error; the queue is cleared either way.
    pub fn drain(&mut self) {
        let queue = std::mem::take(&mut self.queue);
        if self.error.is_some() {
            return;
        }
        for event in &queue {
            self.scratch.clear();
            event.write_json(&mut self.scratch);
            self.scratch.push('\n');
            if let Err(e) = self.writer.write_all(self.scratch.as_bytes()) {
                self.error = Some(e);
                break;
            }
        }
    }

    /// Drains the queue, flushes the writer, and returns it — or the
    /// first error seen (stored, from the drain, or from the flush).
    pub fn finish(mut self) -> Result<W, io::Error> {
        self.drain();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.queue.push(event.clone());
        if self.queue.len() >= DRAIN_THRESHOLD {
            self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writer that fails after `ok_writes` successful writes.
    #[derive(Debug)]
    struct FailAfter {
        ok_writes: usize,
        sunk: Vec<u8>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("injected failure"));
            }
            self.ok_writes -= 1;
            self.sunk.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&Event::SideBegin { side: 0 });
        sink.record(&Event::SideEnd {
            side: 0,
            seconds: 1.5,
        });
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"ev":"side_begin","side":0}"#);
        assert_eq!(lines[1], r#"{"ev":"side_end","side":0,"seconds":1.5}"#);
    }

    #[test]
    fn first_error_makes_the_sink_inert() {
        let mut sink = JsonlSink::new(FailAfter {
            ok_writes: 1,
            sunk: Vec::new(),
        });
        sink.record(&Event::SideBegin { side: 0 });
        sink.record(&Event::SideBegin { side: 1 });
        // Events are staged; the failure surfaces at the drain.
        assert!(sink.error().is_none());
        sink.drain();
        assert!(sink.error().is_some());
        // Further events are accepted without panicking or writing.
        sink.record(&Event::SideBegin { side: 2 });
        sink.drain();
        let err = sink.finish().unwrap_err();
        assert_eq!(err.to_string(), "injected failure");
    }

    #[test]
    fn queue_drains_at_the_threshold() {
        let mut sink = JsonlSink::new(Vec::new());
        for _ in 0..DRAIN_THRESHOLD {
            sink.record(&Event::SideBegin { side: 0 });
        }
        // The threshold drain already pushed everything to the writer.
        assert_eq!(sink.queue.len(), 0);
        assert!(!sink.writer.is_empty());
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), DRAIN_THRESHOLD);
    }

    #[test]
    fn create_reports_the_path_on_failure() {
        let path = Path::new("/nonexistent-dir-for-copack-obs/trace.jsonl");
        let err = JsonlSink::create(path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("trace.jsonl"), "{msg}");
        let ObsError::Io { source, .. } = &err;
        assert_eq!(source.kind(), io::ErrorKind::NotFound);
    }
}
