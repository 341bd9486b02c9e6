//! Traced runs: spans around the calls the benchmark makes into each
//! layer, kept in bounded per-thread buffers and written at exit as
//! Chrome `trace_event` JSON (the format `mpf-trace --export` writes).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start, end)` in nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Benchmark thread that made the call (its track in the viewer).
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The message or request sequence id the call handled; spans of
    /// one serve request share it.
    pub seq: u64,
}

/// A bounded span buffer: keeps the first `cap` spans, counts the rest.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanBuf {
    /// Per-thread span capacity (about 1 MB of exported JSON).
    pub const DEFAULT_CAP: usize = 1 << 13;

    pub fn new(cap: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(cap.min(Self::DEFAULT_CAP)),
            cap,
            dropped: 0,
        }
    }

    pub fn push(&mut self, s: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves `other`'s spans into this buffer, still bounded by `cap`.
    pub fn absorb(&mut self, other: SpanBuf) {
        self.dropped += other.dropped;
        for s in other.spans {
            self.push(s);
        }
    }
}

/// Nanoseconds since `epoch` (the run's time origin).
#[inline]
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Renders spans as Chrome `trace_event` JSON.  Every span is a
/// complete (`"ph":"X"`) slice on track `tid`; its category is the layer
/// (the name's prefix before the first dot).
pub fn chrome_json(spans: &[Span], os_pid: u32, thread_names: &[(u32, String)]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for (tid, name) in thread_names {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{os_pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for s in spans {
        sep(&mut out);
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{os_pid},\"tid\":{},\"args\":{{\"seq\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.tid,
            s.seq
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64) -> Span {
        Span {
            name: "ipc.send",
            tid: 1,
            start_ns: 1000,
            end_ns: 2500,
            seq,
        }
    }

    #[test]
    fn buffer_is_bounded() {
        let mut b = SpanBuf::new(4);
        for i in 0..10 {
            b.push(span(i));
        }
        assert_eq!(b.spans().len(), 4);
        assert_eq!(b.dropped(), 6);
        let mut c = SpanBuf::new(5);
        c.absorb(b);
        assert_eq!(c.spans().len(), 4);
        assert_eq!(c.dropped(), 6);
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_json(&[span(7)], 42, &[(1, "sender".to_string())]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains(
            "\"name\":\"ipc.send\",\"cat\":\"ipc\",\"ph\":\"X\",\"ts\":1.000,\"dur\":1.500"
        ));
        assert!(json.contains("\"args\":{\"seq\":7}"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.ends_with("]}"));
    }
}
