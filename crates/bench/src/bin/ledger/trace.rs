//! Bench-side spans: name, start, end, parent, operation id.
//!
//! Every span is recorded from the ledger's own files, around a public
//! call into a product crate — nothing inside the product is touched. Spans
//! stay in memory for the whole run and are written out once, at exit, in
//! a columnar form (`[name, start_ns, end_ns, parent, op]` rows against a
//! name table) so a 100k-request phase stays a few megabytes.
//!
//! A disabled tracer reads no clock and stores nothing: the untraced pass
//! that produces the end-to-end numbers runs the same code with
//! `Tracer::off()`.

use std::time::Instant;

/// Parent id meaning "no parent" (a top-level span).
pub const ROOT: u32 = 0;

struct Span {
    name: u16,
    start_ns: u64,
    end_ns: u64,
    /// 1-based index of the causing span, or [`ROOT`].
    parent: u32,
    /// Shared by every span of one operation (batch, request, write).
    op: u64,
}

/// In-memory span store for one workload process.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Open `in_span` spans, innermost last; new spans parent to the top.
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer; span times are nanoseconds since this call.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            elapsed_ns(self.origin)
        } else {
            0
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        let at = match self.names.iter().position(|n| *n == name) {
            Some(at) => at,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        u16::try_from(at).unwrap_or(u16::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans
    /// recorded while `f` runs become its children.
    pub fn in_span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.name_id(name);
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = elapsed_ns(self.origin);
        self.spans.push(Span {
            name: id,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let me = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        self.open.push(me);
        let out = f(self);
        self.open.pop();
        let end_ns = elapsed_ns(self.origin);
        if let Some(span) = self.spans.get_mut(me as usize - 1) {
            span.end_ns = end_ns;
        }
        out
    }

    /// Records a finished span whose endpoints were read elsewhere (a
    /// request is sent on one loop iteration and completes on a later one).
    /// Returns the span's id for use as a later span's `parent`.
    pub fn add_span(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.name_id(name);
        let parent = if parent == ROOT {
            self.open.last().copied().unwrap_or(ROOT)
        } else {
            parent
        };
        self.spans.push(Span {
            name: id,
            start_ns,
            end_ns,
            parent,
            op,
        });
        u32::try_from(self.spans.len()).unwrap_or(u32::MAX)
    }

    /// Total duration and count of every span named `name`.
    pub fn span_total_ns(&self, name: &str) -> (u64, u64) {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return (0, 0);
        };
        self.spans
            .iter()
            .filter(|s| usize::from(s.name) == id)
            .fold((0, 0), |(ns, n), s| {
                (ns + s.end_ns.saturating_sub(s.start_ns), n + 1)
            })
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The whole store as one JSON object (`names` table plus `spans` rows).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        out.push_str(
            "{\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"names\":[",
        );
        for (i, name) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push('"');
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, s.parent, s.op
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Nanoseconds elapsed since `origin`, saturating (a run never lasts 584
/// years).
pub fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_stores_nothing() {
        let mut t = Tracer::off();
        let v = t.in_span("outer", 1, |t| {
            t.add_span("inner", 1, 0, 5, ROOT);
            42
        });
        assert_eq!(v, 42);
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.span_total_ns("outer"), (0, 0));
    }

    #[test]
    fn nested_spans_carry_parent_and_operation() {
        let mut t = Tracer::on();
        t.in_span("batch", 7, |t| {
            t.in_span("embed_batch", 7, |_| ());
            t.add_span("probe", 7, 10, 30, ROOT);
        });
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.spans[0].parent, ROOT);
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[2].parent, 1);
        assert!(t.spans.iter().all(|s| s.op == 7));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.span_total_ns("probe"), (20, 1));
        let json = t.to_json();
        assert!(json.contains("\"names\":[\"batch\",\"embed_batch\",\"probe\"]"));
        assert!(json.contains("[2,10,30,1,7]"));
    }
}
