//! In-memory span recording for the traced run.
//!
//! Nothing inside the program is instrumented: every span is opened and
//! closed by the benchmark around a call into a public function. Spans
//! stay in memory while the workload runs and are written out once, at the
//! end, as one JSON object per line.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.server.submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The frame this span belongs to; spans of one frame share it.
    pub frame_id: Option<u64>,
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle to the span store; cheap to clone, shared across threads.
/// [`Tracer::off`] records nothing and costs one branch per call.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Recorder>>);

impl Tracer {
    /// A tracer that drops everything (the end-to-end run).
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A recording tracer (the traced run).
    pub fn on() -> Tracer {
        Tracer(Some(Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Whether spans are kept.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<u32>,
        frame_id: Option<u64>,
    ) -> Option<u32> {
        let rec = self.0.as_ref()?;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        let mut spans = rec.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame_id,
        });
        Some((spans.len() - 1) as u32)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: Option<u32>) {
        if let (Some(rec), Some(id)) = (self.0.as_ref(), id) {
            let end_ns = rec.epoch.elapsed().as_nanos() as u64;
            rec.spans.lock().expect("span store poisoned")[id as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        frame_id: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, frame_id);
        let out = f();
        self.end(id);
        out
    }

    /// Everything recorded so far, in recording order.
    pub fn snapshot(&self) -> Vec<Span> {
        match &self.0 {
            Some(rec) => rec.spans.lock().expect("span store poisoned").clone(),
            None => Vec::new(),
        }
    }
}

/// Each span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Groups spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Writes the spans as JSON lines (`name, start_ns, end_ns, parent,
/// frame_id`), creating the directory if needed.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"frame_id\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(u64::from)),
            opt(s.frame_id)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            frame_id: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("poll", 40, 90, Some(0)),
            span("recv", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("frame", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),   // overlaps a by 20
            span("c", 100, 150, Some(0)), // hangs over the parent's end
            span("d", 0, 5, Some(0)),     // entirely outside
        ];
        // Covered: [20, 80) and [100, 110) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("frame", 0, 100, None),
            span("submit", 10, 30, Some(0)),
            span("frame", 100, 160, None),
            span("submit", 100, 150, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["frame"].count, 2);
        assert_eq!(totals["frame"].total_ns, 160);
        assert_eq!(totals["frame"].self_ns, 90);
        assert_eq!(totals["submit"].total_ns, 70);
    }

    #[test]
    fn off_records_nothing_and_on_nests() {
        let off = Tracer::off();
        assert_eq!(off.begin("x", None, None), None);
        assert!(off.snapshot().is_empty());

        let on = Tracer::on();
        let root = on.begin("frame", None, Some(7));
        let got = on.span("submit", root, Some(7), || 5);
        on.end(root);
        assert_eq!(got, 5);
        let spans = on.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[0].frame_id, Some(7));
    }
}
