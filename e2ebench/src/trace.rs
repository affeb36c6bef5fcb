//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded around calls into the library from the benchmark's
//! own code (the library itself carries no instrumentation), kept in
//! memory, and summarised when the run ends. Each span names the layer
//! call, its enclosing span and the replay iteration it belongs to.

use std::time::Instant;

/// Name of the root span of one replayed design iteration.
pub const ITERATION: &str = "replay.iteration";

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `fabchain.forward`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recorder (`None` = root).
    pub parent: Option<usize>,
    /// Replay iteration the span belongs to (shared by all its spans).
    pub iter: usize,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. Recorders on other pool lanes share the
/// epoch, so their spans can be adopted into the main recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: usize,
}

impl Tracer {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// The shared time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Tags every span opened from now on with replay iteration `iter`.
    pub fn set_iter(&mut self, iter: usize) {
        self.iter = iter;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            iter: self.iter,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Hands over the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "take with open spans");
        std::mem::take(&mut self.spans)
    }

    /// Adopts spans recorded on another lane: their roots become children
    /// of the innermost open span here.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let offset = self.spans.len();
        let host = self.open.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(host);
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of half-open intervals (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on parallel lanes may overlap, so
/// the covered part is the union of their intervals).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let host = &spans[p];
            children[p].push((s.start_ns.max(host.start_ns), s.end_ns.min(host.end_ns)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, ch)| s.duration_ns() - union_len(ch).min(s.duration_ns()))
        .collect()
}

/// Share of the replayed iterations' wall time during which at least one
/// layer call was running: the union of every non-root span's interval
/// inside each `replay.iteration` root, summed over iterations, over the
/// roots' summed durations. On one lane this is the sum of the spans'
/// self times over the iteration wall time.
pub fn coverage(spans: &[Span]) -> f64 {
    let mut covered = 0u64;
    let mut wall = 0u64;
    for (ri, root) in spans.iter().enumerate() {
        if root.name != ITERATION {
            continue;
        }
        wall += root.duration_ns();
        let mut inner: Vec<(u64, u64)> = spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| i != ri && s.iter == root.iter && s.name != ITERATION)
            .map(|(_, s)| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
            .filter(|&(s, e)| e > s)
            .collect();
        covered += union_len(&mut inner);
    }
    if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64
    }
}

/// Median and tail of a sample of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub median: f64,
    /// The highest percentile of {50, 90, 99, 99.9} with at least ten
    /// samples beyond it, and its value; `None` below eleven samples.
    pub tail: Option<(f64, f64)>,
}

/// Median of a sample (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Summarises a sample per [`Stat`].
pub fn stat(values: &[f64]) -> Stat {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Percentiles in per mille; nearest rank `⌈n·p⌉`, leaving `n − rank`
    // samples beyond it.
    let tail = [999, 990, 900, 500]
        .into_iter()
        .map(|pm: usize| (pm, (n * pm).div_ceil(1000)))
        .find(|&(_, rank)| rank >= 1 && n - rank >= 10)
        .map(|(pm, rank)| (pm as f64 / 10.0, v[rank - 1]));
    Stat {
        count: n,
        median: if n == 0 { 0.0 } else { median(&v) },
        tail,
    }
}

/// Self times in milliseconds of every span named `name`.
pub fn self_ms(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 * 1e-6)
        .collect()
}

/// Durations in milliseconds of every span named `name`.
pub fn duration_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 * 1e-6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            iter: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(ITERATION, None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 40, 40]);
        assert!((coverage(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(stat(&v).tail, Some((90.0, 90.0)));
        assert_eq!(stat(&v[..10]).tail, None);
        assert_eq!(stat(&v[..20]).tail, Some((50.0, 10.0)));
    }
}
