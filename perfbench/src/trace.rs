//! In-memory spans around calls into the library's layers.
//!
//! A span is `(name, start, end, parent, run)`: `run` groups the spans of
//! one request, trial or replay. Spans stay in memory while the workload
//! runs and are written out once, at the end, as tab-separated lines. A
//! disabled tracer runs the closure and records nothing, so a replay can be
//! timed with spans on and off to price the tracing itself.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer; the parent link of its children.
pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// (`None` when tracing is off) to parent its own child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span buffer poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                run,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned")[id].end_ns = end_ns;
        out
    }

    /// Writes `id name start_ns end_ns parent run` lines (`-` for no
    /// parent).
    pub fn write_tsv(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trun")?;
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}
