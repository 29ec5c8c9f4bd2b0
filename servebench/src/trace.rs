//! Socket-level tracing from the client side: a stream wrapper that
//! `Client`'s connector returns, splitting every request into client
//! encode → socket write → server wait → client decode spans.
//!
//! Spans stay in memory and are written once, when the run ends.

use crate::drive::Kind;
use std::cell::RefCell;
use std::io::{self, BufWriter, Read, Write};
use std::rc::Rc;
use std::time::Instant;

/// The four phases of one request frame, plus the request itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The whole request, as the load generator timed it.
    Request,
    /// From the call until its first byte is written: request encoding.
    Encode,
    /// From the first written byte until the client starts reading.
    Write,
    /// From the first read until the first response byte arrives.
    Wait,
    /// From the first response byte until the call returns: reading
    /// the rest of the frame and decoding it.
    Decode,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::Encode => "encode",
            Phase::Write => "write",
            Phase::Wait => "wait",
            Phase::Decode => "decode",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's base.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Which phase.
    pub phase: Phase,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing `Request` span (none for the request).
    pub parent: Option<usize>,
    /// Request id shared by the request and its phases.
    pub request: u64,
    /// Request kind.
    pub kind: Kind,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Open {
    id: u64,
    kind: Kind,
    root: usize,
    phase: Phase,
    mark: u64,
}

/// Per-connection span and byte recorder.
pub struct Tracer {
    base: Instant,
    /// The recorded spans, in the order they closed (a request's span
    /// comes before its phases).
    pub spans: Vec<Span>,
    open: Option<Open>,
    next_id: u64,
    /// Bytes written to the socket.
    pub bytes_out: u64,
    /// Bytes read from the socket.
    pub bytes_in: u64,
    /// Request frames written (a request resent after `Busy` writes
    /// more than one).
    pub frames_out: u64,
    /// Streams the connector opened.
    pub connects: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `base`.
    pub fn new(base: Instant) -> Self {
        Self {
            base,
            spans: Vec::new(),
            open: None,
            next_id: 0,
            bytes_out: 0,
            bytes_in: 0,
            frames_out: 0,
            connects: 0,
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Starts a request span; the stream fills in its phases.
    pub fn begin(&mut self, kind: Kind) {
        let now = self.now();
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            phase: Phase::Request,
            start: now,
            end: now,
            parent: None,
            request: id,
            kind,
        });
        self.open = Some(Open {
            id,
            kind,
            root: self.spans.len() - 1,
            phase: Phase::Encode,
            mark: now,
        });
    }

    /// Ends the request span begun last.
    pub fn end(&mut self) {
        let now = self.now();
        if let Some(open) = self.open.take() {
            self.close(&open, now);
            self.spans[open.root].end = now;
        }
    }

    fn close(&mut self, open: &Open, now: u64) {
        self.spans.push(Span {
            phase: open.phase,
            start: open.mark,
            end: now,
            parent: Some(open.root),
            request: open.id,
            kind: open.kind,
        });
    }

    /// Moves the open request into `phase` at `now`, closing the
    /// current phase's span.
    fn enter(&mut self, phase: Phase, now: u64) {
        if let Some(mut open) = self.open.take() {
            if open.phase != phase {
                self.close(&open, now);
                open.phase = phase;
                open.mark = now;
            }
            self.open = Some(open);
        }
    }

    fn on_write(&mut self, now: u64) {
        let phase = self.open.as_ref().map(|o| o.phase);
        if phase != Some(Phase::Write) {
            self.frames_out += 1;
        }
        self.enter(Phase::Write, now);
    }

    fn on_read_start(&mut self, now: u64) {
        if self.open.as_ref().map(|o| o.phase) == Some(Phase::Write) {
            self.enter(Phase::Wait, now);
        }
    }

    fn on_read_done(&mut self, now: u64) {
        if self.open.as_ref().map(|o| o.phase) == Some(Phase::Wait) {
            self.enter(Phase::Decode, now);
        }
    }

    /// Per-request phase durations `(kind, [encode, write, wait,
    /// decode])` in nanoseconds, summed over the request's frames.
    pub fn phase_totals(&self) -> Vec<(Kind, [u64; 4])> {
        let mut out: Vec<(Kind, [u64; 4])> = Vec::new();
        let mut index = std::collections::HashMap::new();
        for span in &self.spans {
            let slot = match span.phase {
                Phase::Request => {
                    index.insert(span.request, out.len());
                    out.push((span.kind, [0; 4]));
                    continue;
                }
                Phase::Encode => 0,
                Phase::Write => 1,
                Phase::Wait => 2,
                Phase::Decode => 3,
            };
            if let Some(&at) = index.get(&span.request) {
                out[at].1[slot] += span.len();
            }
        }
        out
    }
}

/// A stream that records every read and write on its tracer, if it has
/// one, and passes them straight through otherwise.
pub struct TracedStream<S> {
    inner: S,
    tracer: Option<Rc<RefCell<Tracer>>>,
}

impl<S> TracedStream<S> {
    /// Wraps a freshly connected stream.
    pub fn new(inner: S, tracer: Option<Rc<RefCell<Tracer>>>) -> Self {
        if let Some(t) = &tracer {
            t.borrow_mut().connects += 1;
        }
        Self { inner, tracer }
    }
}

impl<S: Write> Write for TracedStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let Some(tracer) = &self.tracer else {
            return self.inner.write(buf);
        };
        {
            let mut t = tracer.borrow_mut();
            let now = t.now();
            t.on_write(now);
        }
        let n = self.inner.write(buf)?;
        tracer.borrow_mut().bytes_out += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Read> Read for TracedStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(tracer) = &self.tracer else {
            return self.inner.read(buf);
        };
        {
            let mut t = tracer.borrow_mut();
            let now = t.now();
            t.on_read_start(now);
        }
        let n = self.inner.read(buf)?;
        let mut t = tracer.borrow_mut();
        t.bytes_in += n as u64;
        if n > 0 {
            let now = t.now();
            t.on_read_done(now);
        }
        Ok(n)
    }
}

/// Streams every span of every connection to `out` as CSV, once, at the
/// end of the run; connections are numbered in the order given.
pub fn write_spans(out: impl Write, connections: &[Vec<Span>]) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    writeln!(out, "connection,request,kind,span,start_ns,end_ns,parent")?;
    for (conn, spans) in connections.iter().enumerate() {
        for s in spans {
            write!(
                out,
                "{conn},{},{},{},{},{},",
                s.request,
                s.kind.name(),
                s.phase.name(),
                s.start,
                s.end
            )?;
            match s.parent {
                Some(p) => writeln!(out, "{p}")?,
                None => writeln!(out)?,
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback stand-in: reads come from a canned response.
    struct Canned {
        response: Vec<u8>,
        pos: usize,
        written: Vec<u8>,
    }

    impl Read for Canned {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.response.len() - self.pos);
            buf[..n].copy_from_slice(&self.response[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Canned {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn phases_of_a_traced_request_cover_it() {
        let tracer = Rc::new(RefCell::new(Tracer::new(Instant::now())));
        let mut response = Vec::new();
        bas_server::write_frame(&mut response, &bas_server::Response::Pong).unwrap();
        let mut stream = TracedStream::new(
            Canned {
                response,
                pos: 0,
                written: Vec::new(),
            },
            Some(tracer.clone()),
        );
        tracer.borrow_mut().begin(Kind::Ping);
        bas_server::write_frame(&mut stream, &bas_server::Request::Ping).unwrap();
        stream.flush().unwrap();
        let _: Option<bas_server::Response> = bas_server::read_frame(&mut stream, 1 << 20).unwrap();
        tracer.borrow_mut().end();
        let t = tracer.borrow();
        let phases: Vec<Phase> = t.spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            [
                Phase::Request,
                Phase::Encode,
                Phase::Write,
                Phase::Wait,
                Phase::Decode
            ]
        );
        let root = t.spans[0];
        let covered: u64 = t.spans[1..].iter().map(Span::len).sum();
        assert_eq!(covered, root.len());
        assert_eq!(t.frames_out, 1);
        assert!(t.bytes_out > 4 && t.bytes_in > 4);
    }

    #[test]
    fn spans_are_written_one_line_each() {
        let span = |phase, parent| Span {
            phase,
            start: 10,
            end: 25,
            parent,
            request: 7,
            kind: Kind::Point,
        };
        let connections = [
            vec![span(Phase::Request, None), span(Phase::Wait, Some(0))],
            vec![span(Phase::Decode, Some(3))],
        ];
        let mut csv = Vec::new();
        write_spans(&mut csv, &connections).unwrap();
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "connection,request,kind,span,start_ns,end_ns,parent\n\
             0,7,point,request,10,25,\n\
             0,7,point,wait,10,25,0\n\
             1,7,point,decode,10,25,3\n"
        );
    }
}
