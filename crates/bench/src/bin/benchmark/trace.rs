//! The benchmark's own span recorder: spans are opened and closed around
//! calls into each layer's public functions, kept in memory, and written
//! out as JSON Lines when the run ends. Nothing inside the program under
//! test is instrumented.
//!
//! The tree is `workload > setup | pass > <crate>.<call>`. Backends report
//! their phase split (`SimTimings`) as durations, not timestamps, so those
//! phases become synthetic child spans laid back to back from the start of
//! the call that reported them; whatever the phases leave uncovered is the
//! call's own self time.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; while disabled every call is a plain
/// timed call, so untraced passes pay only for the `Instant` reads the
/// end-to-end metrics need anyway.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span under the innermost open one; `None` while disabled.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        let id = self.push(name, now, now);
        self.open.push(id);
        Some(id)
    }

    /// Closes a span returned by [`Recorder::open`] (a no-op for `None`).
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Runs `call`, timing it from outside, and records it as a span when
    /// enabled. Returns the call's value, its wall time and its span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> T,
    ) -> (T, Duration, Option<usize>) {
        let start = Instant::now();
        let value = call();
        let end = Instant::now();
        let span = self.enabled.then(|| {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(name, s, e)
        });
        (value, end - start, span)
    }

    /// Adds synthetic child spans under `parent`, back to back from its
    /// start, one per reported phase (zero-length phases are skipped).
    pub fn phases(&mut self, parent: Option<usize>, phases: &[(&'static str, Duration)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_ns;
        for &(name, length) in phases {
            let length = u64::try_from(length.as_nanos()).unwrap_or(u64::MAX);
            if length == 0 {
                continue;
            }
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: Some(parent),
                name,
                start_ns: at,
                end_ns: at.saturating_add(length),
            });
            at = at.saturating_add(length);
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\",\"seed\":{seed}}}",
                span.id, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the span. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Self time per name inside each span named `root` (a pass or a set-up),
/// with the root's duration: one map per root, in recording order.
pub fn self_time_per_root(spans: &[Span], root: &str) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
    let own = self_times(spans);
    let mut roots: BTreeMap<usize, (u64, BTreeMap<&'static str, u64>)> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == root) {
        roots.insert(span.id, (span.duration_ns(), BTreeMap::new()));
    }
    for span in spans {
        // Walk up to the nearest enclosing root, if any.
        let mut at = Some(span.id);
        while let Some(id) = at {
            if let Some((_, names)) = roots.get_mut(&id) {
                *names.entry(span.name).or_insert(0) += own[span.id];
                break;
            }
            at = spans[id].parent;
        }
    }
    roots.into_values().collect()
}

/// Share of a root span's duration that its descendants' self times
/// cover — one minus the root's own self-time share.
pub fn coverage(duration_ns: u64, names: &BTreeMap<&'static str, u64>, root: &str) -> f64 {
    if duration_ns == 0 {
        return 1.0;
    }
    let uncovered = names.get(root).copied().unwrap_or(0);
    1.0 - uncovered as f64 / duration_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // pass [0, 100): a [10, 40) with child a.x [20, 30); b [35, 60)
        // overlapping a; c [90, 120) sticking out of the pass.
        let spans = vec![
            span(0, None, "pass", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "a.x", 20, 30),
            span(3, Some(0), "b", 35, 60),
            span(4, Some(0), "c", 90, 120),
        ];
        // Children of the pass cover [10, 60) and [90, 100): 60 ns.
        assert_eq!(self_times(&spans), vec![40, 20, 10, 25, 30]);

        let per_root = self_time_per_root(&spans, "pass");
        assert_eq!(per_root.len(), 1);
        let (duration, names) = &per_root[0];
        assert_eq!(*duration, 100);
        assert_eq!((names["pass"], names["a"], names["a.x"]), (40, 20, 10));
        assert!((coverage(*duration, names, "pass") - 0.6).abs() < 1e-12);
        assert!(self_time_per_root(&spans, "setup").is_empty());
    }

    #[test]
    fn phases_lay_out_back_to_back_under_the_call() {
        let mut rec = Recorder::new(true);
        let pass = rec.open("pass");
        let ((), _, call) = rec.time("core.simulate", || {
            std::thread::sleep(Duration::from_millis(2));
        });
        rec.phases(
            call,
            &[
                ("core.front_end", Duration::from_micros(100)),
                ("core.execution", Duration::ZERO),
                ("core.finalize", Duration::from_micros(300)),
            ],
        );
        rec.close(pass);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4, "zero-length phases are skipped");
        let call = &spans[1];
        assert_eq!(call.parent, Some(0));
        assert_eq!(
            (spans[2].name, spans[2].start_ns),
            ("core.front_end", call.start_ns)
        );
        assert_eq!(spans[3].start_ns, call.start_ns + 100_000);
        assert_eq!(self_times(spans)[1], call.duration_ns() - 400_000);
    }

    #[test]
    fn a_disabled_recorder_times_but_records_nothing() {
        let mut rec = Recorder::new(false);
        let pass = rec.open("pass");
        let (value, elapsed, span) = rec.time("x", || 7);
        rec.close(pass);
        assert_eq!((value, span), (7, None));
        assert!(elapsed >= Duration::ZERO);
        assert!(rec.spans().is_empty());
    }
}
