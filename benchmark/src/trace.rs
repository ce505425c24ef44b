//! Spans around the calls the benchmark makes into each layer.
//!
//! The spans live in the benchmark's own files, at the public boundary of
//! the library crates; spans inside the program are a later change. Every
//! span is aggregated per name in memory (count, busy, self). The raw
//! spans — name, start, end, parent span, request id — are kept for one
//! request id in [`RAW_SAMPLE`] and for the coarse per-cell spans, and
//! written out when the run ends.
//!
//! Workload loops are generic over [`Spans`]: untraced runs instantiate
//! them with [`NoSpans`], a zero-sized type whose calls compile to
//! nothing, so end-to-end numbers carry no tracing cost at all.

use std::time::Instant;

use crate::json::Json;

/// Raw spans are kept for request ids divisible by this.
pub const RAW_SAMPLE: u64 = 64;

/// Request id of a span that belongs to no request.
pub const NO_REQUEST: u64 = u64::MAX;

/// Bound on raw spans held in memory (a 12-second run stays far below).
const RAW_CAP: usize = 400_000;

/// The span names: one per call site kind, named after the layer
/// (`<crate>.<module>`) the call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// One cell of a workload: set-up plus timed region.
    Cell,
    /// Building the system under test (and warming it up).
    Setup,
    /// The timed region of a cell.
    Timed,
    /// `EventQueue::pop` / `schedule`.
    Queue,
    /// `RequestGenerator::next`, `RateSchedule::next_arrival`,
    /// `StreamingArrivals::fill_epoch`.
    Requests,
    /// `Composer::compose`.
    Compose,
    /// `select_candidates_with` called by the driver (`scale_churn`).
    Select,
    /// `StreamSystem::commit_session` called by the driver.
    Commit,
    /// `StreamSystem::close_session`.
    Close,
    /// `GlobalStateBoard::refresh_nodes`.
    Refresh,
    /// `GlobalStateBoard::aggregate_links`.
    Aggregate,
    /// `SystemAuditor::audit_at` + `GlobalStateBoard::audit_against`.
    Audit,
    /// `workload::build_system` timed on its own.
    BuildSystem,
    /// `workload::run_scenario`, one span per cell or figure point.
    RunScenario,
    /// The driver's own replay of inner calls (all `Replay*` nest here).
    Replay,
    /// Replayed `select_candidates_with`.
    ReplaySelect,
    /// Replayed `reserve_component_transient`, a batch per replay.
    ReplayReserve,
    /// Replayed `StreamSystem::virtual_path`, memo hits.
    ReplayPathHit,
    /// Replayed `Overlay::virtual_path` after `invalidate_routes_for`.
    ReplayPathMiss,
}

impl Span {
    pub const ALL: [Span; 19] = [
        Span::Cell,
        Span::Setup,
        Span::Timed,
        Span::Queue,
        Span::Requests,
        Span::Compose,
        Span::Select,
        Span::Commit,
        Span::Close,
        Span::Refresh,
        Span::Aggregate,
        Span::Audit,
        Span::BuildSystem,
        Span::RunScenario,
        Span::Replay,
        Span::ReplaySelect,
        Span::ReplayReserve,
        Span::ReplayPathHit,
        Span::ReplayPathMiss,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Cell => "driver.cell",
            Span::Setup => "driver.setup",
            Span::Timed => "driver.timed",
            Span::Queue => "simcore.queue",
            Span::Requests => "workload.requests",
            Span::Compose => "core.protocol.compose",
            Span::Select => "core.selection.select",
            Span::Commit => "model.system.commit",
            Span::Close => "model.system.close",
            Span::Refresh => "state.global.refresh",
            Span::Aggregate => "state.global.aggregate",
            Span::Audit => "model.audit",
            Span::BuildSystem => "workload.scenario.build_system",
            Span::RunScenario => "workload.scenario.run_scenario",
            Span::Replay => "driver.replay",
            Span::ReplaySelect => "driver.replay.select",
            Span::ReplayReserve => "driver.replay.reserve",
            Span::ReplayPathHit => "driver.replay.path_hit",
            Span::ReplayPathMiss => "driver.replay.path_miss",
        }
    }

    /// Coarse spans are few per run; their raw records are always kept.
    fn coarse(self) -> bool {
        matches!(
            self,
            Span::Cell
                | Span::Setup
                | Span::Timed
                | Span::BuildSystem
                | Span::RunScenario
                | Span::Aggregate
        )
    }
}

/// What a workload loop needs from a span sink.
pub trait Spans {
    /// True while spans are being recorded. Loops use it to skip work
    /// that only exists for the trace (replays, counter bucketing).
    fn active(&self) -> bool;
    /// Opens a span as a child of the innermost open one.
    fn enter(&mut self, span: Span, request: u64);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Switches recording on or off between two spans of the same
    /// parent, so one run can alternate traced and untraced slices and
    /// measure the tracing overhead under identical conditions.
    fn set_active(&mut self, active: bool);
    /// Per-name totals so far (all zero for [`NoSpans`]).
    fn totals(&self, span: Span) -> SpanTotals;
}

/// The untraced sink: a zero-sized type; every call is a no-op the
/// compiler removes.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSpans;

impl Spans for NoSpans {
    #[inline(always)]
    fn active(&self) -> bool {
        false
    }
    #[inline(always)]
    fn enter(&mut self, _span: Span, _request: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn set_active(&mut self, _active: bool) {}
    fn totals(&self, _span: Span) -> SpanTotals {
        SpanTotals::default()
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    /// Σ (end − start).
    pub busy_ns: u64,
    /// Σ time covered by direct child spans.
    pub child_ns: u64,
}

impl SpanTotals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Busy time not covered by child spans.
    pub fn self_s(&self) -> f64 {
        self.busy_ns.saturating_sub(self.child_ns) as f64 / 1e9
    }

    /// Mean duration in nanoseconds (0 when never entered).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    /// Index of this span's raw record, if it is being kept.
    raw: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    span: Span,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u64,
}

/// The traced sink.
#[derive(Debug)]
pub struct Recorder {
    active: bool,
    epoch: Instant,
    totals: [SpanTotals; Span::ALL.len()],
    stack: Vec<Open>,
    raw: Vec<RawSpan>,
    raw_dropped: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            active: true,
            epoch: Instant::now(),
            totals: [SpanTotals::default(); Span::ALL.len()],
            stack: Vec::with_capacity(8),
            raw: Vec::new(),
            raw_dropped: 0,
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The trace file: per-name aggregates plus the sampled raw spans.
    pub fn to_json(&self) -> Json {
        let aggregate = Span::ALL
            .iter()
            .filter(|&&s| self.totals(s).count > 0)
            .map(|&s| {
                let t = self.totals(s);
                Json::obj([
                    ("name", Json::str(s.name())),
                    ("count", Json::int(t.count)),
                    ("busy_s", Json::num(t.busy_s())),
                    ("self_s", Json::num(t.self_s())),
                ])
            })
            .collect();
        let raw = self
            .raw
            .iter()
            .enumerate()
            .map(|(id, r)| {
                Json::obj([
                    ("id", Json::int(id as u64)),
                    ("name", Json::str(r.span.name())),
                    ("start_us", Json::num(r.start_ns as f64 / 1e3)),
                    ("end_us", Json::num(r.end_ns as f64 / 1e3)),
                    (
                        "parent",
                        r.parent.map_or(Json::Null, |p| Json::int(u64::from(p))),
                    ),
                    (
                        "request",
                        if r.request == NO_REQUEST {
                            Json::Null
                        } else {
                            Json::int(r.request)
                        },
                    ),
                ])
            })
            .collect();
        Json::obj([
            (
                "raw_sample",
                Json::str(format!(
                    "request id % {RAW_SAMPLE} == 0, plus per-cell spans"
                )),
            ),
            ("raw_dropped", Json::int(self.raw_dropped)),
            ("aggregate", Json::Arr(aggregate)),
            ("spans", Json::Arr(raw)),
        ])
    }
}

impl Spans for Recorder {
    #[inline]
    fn active(&self) -> bool {
        self.active
    }

    fn enter(&mut self, span: Span, request: u64) {
        if !self.active {
            return;
        }
        let start_ns = self.now_ns();
        let keep = span.coarse() || (request != NO_REQUEST && request.is_multiple_of(RAW_SAMPLE));
        let raw = if keep && self.raw.len() < RAW_CAP {
            let parent = self.stack.iter().rev().find_map(|open| open.raw);
            self.raw.push(RawSpan {
                span,
                start_ns,
                end_ns: start_ns,
                parent,
                request,
            });
            Some((self.raw.len() - 1) as u32)
        } else {
            self.raw_dropped += u64::from(keep);
            None
        };
        self.stack.push(Open {
            span,
            start_ns,
            child_ns: 0,
            raw,
        });
    }

    fn exit(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        let busy = end_ns - open.start_ns;
        let totals = &mut self.totals[open.span as usize];
        totals.count += 1;
        totals.busy_ns += busy;
        totals.child_ns += open.child_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += busy;
        }
        if let Some(id) = open.raw {
            self.raw[id as usize].end_ns = end_ns;
        }
    }

    fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    fn totals(&self, span: Span) -> SpanTotals {
        self.totals[span as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut rec = Recorder::default();
        rec.enter(Span::Timed, NO_REQUEST);
        rec.enter(Span::Compose, 64);
        rec.enter(Span::ReplaySelect, 64);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit();
        rec.exit();
        rec.enter(Span::Compose, 65);
        rec.exit();
        rec.exit();
        let compose = rec.totals(Span::Compose);
        assert_eq!(compose.count, 2);
        assert!(compose.busy_ns >= 2_000_000);
        assert_eq!(compose.child_ns, rec.totals(Span::ReplaySelect).busy_ns);
        assert!(compose.self_s() < compose.busy_s());
        // Raw: the coarse root, request 64's two spans; request 65 is not sampled.
        assert_eq!(rec.raw.len(), 3);
        assert_eq!(rec.raw[1].parent, Some(0));
        assert_eq!(rec.raw[2].parent, Some(1));
        assert!(rec.raw.iter().all(|r| r.end_ns >= r.start_ns));
        let dump = rec.to_json();
        assert_eq!(Json::parse(&dump.pretty()).unwrap(), dump);
    }

    #[test]
    fn inactive_slices_record_nothing() {
        let mut rec = Recorder::default();
        rec.enter(Span::Timed, NO_REQUEST);
        rec.set_active(false);
        rec.enter(Span::Compose, 0);
        rec.exit();
        rec.set_active(true);
        rec.exit();
        assert_eq!(rec.totals(Span::Compose).count, 0);
        assert_eq!(rec.totals(Span::Timed).count, 1);
    }
}
