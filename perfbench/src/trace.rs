//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span carries its name, start and end (nanoseconds on the run's
//! clock), its parent span and the request id shared by one transaction,
//! reconfiguration batch or set-up. Spans go to a buffer allocated before
//! the run and are written out when it ends. A disabled tracer does
//! nothing and reads no clock, so untraced runs pay nothing for it.

use std::io::Write;
use std::ops::Range;
use std::time::Instant;

/// Nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    pub fn new() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

/// No parent / no span.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u32,
}

#[derive(Debug)]
pub struct Tracer {
    pub clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    req: u32,
    next_req: u32,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off(clock: Clock) -> Tracer {
        Tracer::with_capacity(clock, false, 0)
    }

    pub fn with_capacity(clock: Clock, enabled: bool, capacity: usize) -> Tracer {
        Tracer {
            clock,
            enabled,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(64),
            req: 0,
            next_req: 1,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far (a mark for span ranges).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts a new request; spans opened from now on carry its id.
    #[inline]
    pub fn begin_request(&mut self) {
        if self.enabled {
            self.req = self.next_req;
            self.next_req += 1;
        }
    }

    /// Opens a span now under the innermost open span.
    #[inline]
    pub fn open(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return NONE;
        }
        let now = self.clock.now();
        self.open_at(name, now)
    }

    /// Opens a span that started at `start`.
    #[inline]
    pub fn open_at(&mut self, name: &'static str, start: u64) -> u32 {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req: self.req,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` now.
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id != NONE {
            let now = self.clock.now();
            self.close_at(id, now);
        }
    }

    /// Closes span `id` at `end` (an already-read clock value).
    #[inline]
    pub fn close_at(&mut self, id: u32, end: u64) {
        if id == NONE {
            return;
        }
        self.spans[id as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Durations of the spans named `name` among spans `range`.
    pub fn durations(&self, range: Range<usize>, name: &str) -> Vec<u64> {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self times of the spans named `name` among spans `range`.
    pub fn self_times(&self, range: Range<usize>, name: &str) -> Vec<u64> {
        let selfs = self_times(&self.spans);
        range
            .filter(|&i| self.spans[i].name == name)
            .map(|i| selfs[i])
            .collect()
    }

    /// Writes every span as CSV: id, parent, request, name, start, end and
    /// self time (nanoseconds).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,req,name,start_ns,end_ns,self_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{}",
                s.req, s.name, s.start, s.end, selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end), b.clamp(s.start, s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("txn", 0, 100, NONE),
            span("timer.schedule", 10, 30, 0),
            span("timer.fire", 40, 90, 0),
            // A grandchild is covered by its parent, not by the root.
            span("inner", 50, 60, 2),
            // Overlapping siblings under one parent count once.
            span("reconf", 200, 300, NONE),
            span("a", 210, 250, 4),
            span("b", 240, 260, 4),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![30, 20, 40, 10, 50, 40, 20]);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut tr = Tracer::with_capacity(Clock::new(), true, 8);
        tr.begin_request();
        let root = tr.open_at("setup", 0);
        let child = tr.open_at("core.parse", 5);
        tr.close_at(child, 15);
        tr.close_at(root, 40);
        tr.begin_request();
        let other = tr.open_at("txn", 50);
        tr.close_at(other, 60);
        let s = tr.spans();
        assert_eq!((s[1].parent, s[1].req), (root, 1));
        assert_eq!((s[2].parent, s[2].req), (NONE, 2));
        assert_eq!(tr.self_times(0..3, "setup"), vec![30]);
        assert_eq!(tr.durations(1..3, "core.parse"), vec![10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off(Clock::new());
        let id = tr.open("txn");
        assert_eq!(id, NONE);
        tr.close(id);
        assert_eq!(tr.mark(), 0);
    }

    #[test]
    fn full_buffer_counts_drops() {
        let mut tr = Tracer::with_capacity(Clock::new(), true, 1);
        let a = tr.open_at("a", 0);
        tr.close_at(a, 1);
        let b = tr.open_at("b", 2);
        assert_eq!(b, NONE);
        tr.close_at(b, 3);
        assert_eq!((tr.mark(), tr.dropped), (1, 1));
    }
}
