//! Spans around the benchmark's calls into each layer's public
//! functions, plus the counters recorded at the same boundaries.
//!
//! Spans are kept in memory as `(layer, start, end, parent)` records and
//! reduced to per-layer call counts and self times (a span's duration
//! minus the part its child spans cover) when a pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Calls and self time of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub self_ns: u64,
}

/// Span and counter recorder for one traced pass.
pub struct Spans {
    on: bool,
    epoch: Instant,
    records: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            on: true,
            epoch: Instant::now(),
            records: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Spans {
    /// A recorder that records nothing, for the untimed reference work
    /// that shares the traced code path.
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::default()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.records.len();
        let parent = self.open.last().copied();
        self.records.push(Span {
            layer,
            start: self.now(),
            end: 0,
            parent,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.records[id].end = self.now();
        result
    }

    /// Closes the spans a panic unwound through, so later spans nest
    /// correctly.
    pub fn recover(&mut self) {
        let now = self.now();
        for id in self.open.drain(..) {
            self.records[id].end = now;
        }
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// The counters recorded so far.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Per-layer calls and self times of every closed span.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.records)
    }
}

/// Reduces span records to per-layer call counts and self times: each
/// span's duration minus the durations of its direct children.
pub fn layer_times(records: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; records.len()];
    for span in records {
        if let Some(p) = span.parent {
            child_ns[p] += span.end - span.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in records.iter().zip(child_ns) {
        let layer = out.entry(span.layer).or_default();
        layer.calls += 1;
        layer.self_ns += (span.end - span.start).saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |layer, start, end, parent| Span {
            layer,
            start,
            end,
            parent,
        };
        // unit [0,100) holds run [10,60) which holds reset [20,30), and
        // a second run [70,90).
        let records = [
            span("unit", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("reset", 20, 30, Some(1)),
            span("run", 70, 90, Some(0)),
        ];
        let t = layer_times(&records);
        assert_eq!(
            t["unit"],
            LayerTime {
                calls: 1,
                self_ns: 100 - 50 - 20
            }
        );
        assert_eq!(
            t["run"],
            LayerTime {
                calls: 2,
                self_ns: (50 - 10) + 20
            }
        );
        assert_eq!(
            t["reset"],
            LayerTime {
                calls: 1,
                self_ns: 10
            }
        );
        // Self times partition the root span.
        let total: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorder_nests_spans_and_counts() {
        let mut spans = Spans::default();
        let v = spans.span("outer", |s| {
            s.add("n", 2.0);
            s.span("inner", |s| {
                s.add("n", 3.0);
                7
            })
        });
        assert_eq!(v, 7);
        assert_eq!(spans.counts()["n"], 5.0);
        let t = spans.layer_times();
        assert_eq!(t["outer"].calls, 1);
        assert_eq!(t["inner"].calls, 1);
        assert_eq!(spans.records[1].parent, Some(0));
    }
}
