//! The benchmark's own span recorder, plus the small statistics and
//! process helpers every workload shares.
//!
//! Spans are recorded only around the benchmark's calls into a layer of
//! the suite (never inside the program). Each span holds a name, a start,
//! an end and its parent; spans stay in memory and are summarised when
//! the run ends. A layer's *self time* is its span time minus the time
//! its child spans cover. When tracing is off, [`span`] is one branch
//! around the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn recording on or off for the calling thread (spans are recorded on
/// the thread that drives the workload).
pub fn set_enabled(on: bool) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.origin.get_or_insert_with(Instant::now);
    });
}

pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f` inside a span named `name` (a no-op wrapper when tracing is
/// off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let start = r.origin.expect("set_enabled ran").elapsed();
        let parent = r.open.last().copied();
        let idx = r.spans.len();
        r.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.expect("set_enabled ran").elapsed();
            r.spans[idx].end = end;
            r.open.pop();
        });
    }
    out
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Self time (seconds) per span name: each span's duration minus the part
/// of it covered by its direct children (children of one parent are
/// sequential, so their durations do not overlap).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_cover = vec![Duration::ZERO; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for (s, cover) in spans.iter().zip(child_cover) {
        let own = (s.end - s.start).saturating_sub(cover);
        *out.entry(s.name).or_insert(0.0) += own.as_secs_f64();
    }
    out
}

/// Total duration (seconds) per span name.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start).as_secs_f64();
    }
    out
}

/// Total time (seconds) covered by root spans.
pub fn root_time(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start).as_secs_f64())
        .sum()
}

// ───────────────────────── measured window ───────────────────────────────

/// The measured window: passes keep starting while one more pass, as long
/// as the longer of the last two, still fits in the window. At least one
/// pass always runs.
pub struct Window {
    start: Instant,
    seconds: f64,
    recent: [f64; 2],
    passes: usize,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
            recent: [0.0; 2],
            passes: 0,
        }
    }

    pub fn more(&self) -> bool {
        self.passes == 0
            || self.start.elapsed().as_secs_f64() + self.recent[0].max(self.recent[1])
                <= self.seconds
    }

    /// Record a finished pass of `secs` seconds.
    pub fn done(&mut self, secs: f64) {
        self.recent = [self.recent[1], secs];
        self.passes += 1;
    }
}

// ───────────────────────── statistics ────────────────────────────────────

/// Arithmetic mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sample (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of p99/p90/p75/p50 with at least ten samples beyond it,
/// as `(label, value)`.
pub fn well_sampled_tail(xs: &[f64]) -> (&'static str, f64) {
    for (label, q) in [("p99", 0.99), ("p90", 0.90), ("p75", 0.75)] {
        if (xs.len() as f64) * (1.0 - q) >= 10.0 {
            return (label, quantile(xs, q));
        }
    }
    ("p50", median(xs))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time a closure, returning its result and elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(a),
            end: Duration::from_millis(b),
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp("pass", 0, 100, None),
            sp("build", 10, 40, Some(0)),
            sp("inner", 15, 25, Some(1)),
            sp("sift", 50, 90, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st["pass"] - 0.030).abs() < 1e-9);
        assert!((st["build"] - 0.020).abs() < 1e-9);
        assert!((st["inner"] - 0.010).abs() < 1e-9);
        assert!((st["sift"] - 0.040).abs() < 1e-9);
        let total: f64 = st.values().sum();
        assert!((total - root_time(&spans)).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        set_enabled(false);
        assert_eq!(span("x", || 7), 7);
        assert!(take().is_empty());
        set_enabled(true);
        span("outer", || span("inner", || ()));
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(well_sampled_tail(&xs).0, "p50");
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(well_sampled_tail(&many).0, "p99");
    }
}
