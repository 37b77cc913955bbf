//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the simulator's public functions; nothing inside the simulator is
//! instrumented. A span's self time is its duration minus the part of it
//! that its children cover (children recorded on sweep worker threads may
//! overlap, so coverage is the union of their intervals).

use std::time::Instant;

/// The layer a span times. The names are the per-layer metric prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole workload operation (root span).
    Op,
    /// System construction: parent of the three set-up layers.
    Setup,
    /// `ChipletSystemSpec::build`.
    Topology,
    /// Route computation set-up (`ChipletRouting::xy`, `Composable::build`).
    Routing,
    /// `Network::new`.
    NetworkNew,
    /// `SyntheticTraffic::tick` / `CoherenceEngine::tick`.
    Tick,
    /// `Network::begin_cycle` (calendar delivery).
    BeginCycle,
    /// `Scheme::pre_cycle`.
    PreCycle,
    /// `Network::finish_cycle` (NI injection, router pipeline, consumption).
    FinishCycle,
    /// `Scheme::post_cycle`.
    PostCycle,
    /// `System::run_until_drained`.
    Drain,
    /// One fig7 curve: a barrier-separated batch of sweep points.
    Curve,
    /// One `runner::run_point` call on a sweep worker.
    Point,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 13] = [
        Layer::Op,
        Layer::Setup,
        Layer::Topology,
        Layer::Routing,
        Layer::NetworkNew,
        Layer::Tick,
        Layer::BeginCycle,
        Layer::PreCycle,
        Layer::FinishCycle,
        Layer::PostCycle,
        Layer::Drain,
        Layer::Curve,
        Layer::Point,
    ];

    /// Span name as written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::Setup => "setup",
            Layer::Topology => "topology.build",
            Layer::Routing => "routing.build",
            Layer::NetworkNew => "network.new",
            Layer::Tick => "workload.tick",
            Layer::BeginCycle => "network.begin_cycle",
            Layer::PreCycle => "scheme.pre_cycle",
            Layer::FinishCycle => "network.finish_cycle",
            Layer::PostCycle => "scheme.post_cycle",
            Layer::Drain => "sim.drain",
            Layer::Curve => "sweep.curve",
            Layer::Point => "sweep.point",
        }
    }

    /// Position in [`Layer::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span times.
    pub layer: Layer,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            start,
            end: start,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end = end;
    }

    /// Times `f` as one span nested in the innermost open one.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(layer);
        let r = f();
        self.exit(id);
        r
    }

    /// Adds a span measured elsewhere (a sweep worker thread) under the
    /// innermost open span.
    pub fn record(&mut self, layer: Layer, start: Instant, end: Instant) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
        });
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                let dur = s.end.saturating_sub(s.start);
                dur.saturating_sub(covered(kids, s.start, s.end))
            })
            .collect()
    }

    /// Summed self time per layer, in seconds, indexed like [`Layer::ALL`].
    pub fn self_seconds_by_layer(&self) -> [f64; Layer::ALL.len()] {
        let mut out = [0.0; Layer::ALL.len()];
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            out[s.layer.index()] += st as f64 * 1e-9;
        }
        out
    }

    /// Durations (end - start) of every span of `layer`, in seconds.
    pub fn durations(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end.saturating_sub(s.start) as f64 * 1e-9)
            .collect()
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`; parent
    /// is empty for roots).
    pub fn write_csv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(out, "{i},{parent},{},{},{}", s.layer.name(), s.start, s.end)?;
        }
        Ok(())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_merges_overlaps_and_clips() {
        assert_eq!(covered(&mut [(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(&mut [(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.enter(Layer::Op);
        t.span(Layer::Tick, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(op);
        let st = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, op);
        let op_dur = spans[0].end - spans[0].start;
        let tick_dur = spans[1].end - spans[1].start;
        assert_eq!(st[0], op_dur - tick_dur);
        assert_eq!(st[1], tick_dur);
        let by = t.self_seconds_by_layer();
        assert!(by[Layer::Tick.index()] >= 2e-3);
    }
}
