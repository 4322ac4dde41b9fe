//! Phase engine: the one place simulation statistics accumulate.
//!
//! The dataflow compilers lower a Transformer into a sequence of *phases*
//! (FC compute, a ring-broadcast step, a Softmax normalization, ...). The
//! executor prices each phase in closed form — resource contention inside
//! a phase, such as the Figure 9 ring schedule, is resolved by the
//! schedulers in `transpim-acu` — and records it here as a *lump*: a
//! makespan, an energy and a byte count, attributed to one breakdown
//! [`Category`] (which is how the Figure 11 breakdowns are produced) and to
//! the current scope. Phases are barriers, matching the step-synchronous
//! structure of the paper's dataflow (Section III).
//!
//! # Exact accounting
//!
//! Lumps accumulate in integer fixed point (2^-64 ns, pJ and bytes; see
//! `stats.rs`), so totals do not depend on the order of the additions. Each
//! lump is recorded once, in its scope's tally; beside the tallies the
//! engine keeps only a running time per category, which places spans and
//! utilization samples on the timeline. The run's total is derived at the
//! end, as the exact sum of the scope tallies.
//!
//! A repeated body therefore prices as body × count: take a [`Mark`],
//! record one iteration, then [`Engine::repeat_since`]. A mark costs what
//! the body touches, not what the engine holds: it copies the running time
//! when taken and each scope's tally when the body first records into that
//! scope, and `repeat_since` multiplies just those, skipping the fields the
//! body left unchanged. One mark is open at a time — a repeat whose body
//! nests a repeat leaves the mark to the inner one — and its buffer is
//! reused, so a repeat iteration allocates nothing. The f64 [`SimStats`] and
//! [`ScopedStats`] are built once, by [`Engine::into_stats`]. A value or
//! total past the tally's range (2^64 ns, pJ or bytes) does not panic where
//! it is recorded: the tally saturates and flags it, the total's merge
//! carries the flag (and raises it for a sum of in-range scopes past the
//! range), and [`Engine::into_stats`] returns the error once per run.
//!
//! # Observability
//!
//! The engine carries a [`SinkHandle`] (`transpim-obs`). With an enabled
//! sink attached, every lump is emitted as a span on its category's track,
//! followed by a cumulative utilization counter. With the default (null)
//! handle, the emission paths are never entered and the engine behaves
//! exactly as an uninstrumented one.
//!
//! A window of lumps can run quiet ([`Engine::set_quiet`]) and be emitted
//! afterwards as one summary ([`Engine::emit_summary`], from a
//! [`Snapshot`] of every tally): the executor prices iterations 1..N of a
//! repeat that way, so a trace grows with the compiled program, not with
//! the unrolled decode length.

use crate::stats::{from_units, Category, Lump, OutOfRange, ScopedStats, SimStats, Tally};
use transpim_obs::{CounterEvent, SinkHandle, SpanEvent};

/// Track layout of the simulator's trace emission. Keeping the layout in
/// one place means every emitter (the phase engine, the ring scheduler in
/// `transpim-acu`, the executor in `transpim`) lands on consistent
/// timeline rows in a trace viewer.
pub mod tracks {
    use crate::resource::ResourceId;
    use crate::stats::Category;
    use transpim_obs::TrackId;

    /// Row shared by all ring-broadcast hop events.
    pub const RING: TrackId = TrackId(16);

    /// Row shared by all fault-injection events (ECC corrections, retries,
    /// degradation markers). Named lazily on the first fault so fault-free
    /// traces stay byte-identical.
    pub const FAULT: TrackId = TrackId(17);

    /// First row of the per-resource occupancy range.
    pub const RESOURCE_BASE: u64 = 64;

    /// Row of one breakdown category's phase spans.
    pub fn category(c: Category) -> TrackId {
        TrackId(1 + c.index() as u64)
    }

    /// Row of one contended resource's occupancy timeline.
    pub fn resource(r: ResourceId) -> TrackId {
        TrackId(RESOURCE_BASE + u64::from(r.0))
    }
}

/// Name of `category`'s utilization counter: `util.<label>`.
fn util_counter(category: Category) -> &'static str {
    match category {
        Category::DataMovement => "util.data-movement",
        Category::Arithmetic => "util.arithmetic",
        Category::Reduction => "util.reduction",
        Category::Other => "util.other",
    }
}

/// The phase engine: records lumps, advances simulated time, and
/// accumulates per-scope statistics, from which it derives the global ones.
///
/// # Example
///
/// ```
/// use transpim_hbm::engine::Engine;
/// use transpim_hbm::stats::Category;
///
/// let mut e = Engine::new();
/// e.set_scope("fc");
/// e.lump(Category::Arithmetic, 100.0, 5_000.0, 0.0);
/// let (stats, scoped) = e.into_stats().expect("in range");
/// assert_eq!(stats.latency_ns, 100.0);
/// assert_eq!(scoped.get("fc").unwrap().latency_ns, 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    /// Time recorded per category, in tally units (saturating): the
    /// timeline the spans and utilization samples are placed on.
    time: [u128; 4],
    /// One slot per scope label seen by [`Engine::set_scope`], so recording
    /// a lump indexes a `Vec` instead of looking a label up.
    scopes: Vec<Scope>,
    scope: usize,
    /// `(scope slot, its tally before the open mark's body first recorded
    /// into it)`. The buffer outlives the mark, so the next mark reuses it.
    touched: Vec<(usize, Tally)>,
    /// Whether a mark is open.
    open: bool,
    sink: SinkHandle,
    latency_scale: f64,
    tracks_named: bool,
    quiet: bool,
}

/// One scope's label and tally.
#[derive(Debug, Clone)]
struct Scope {
    label: String,
    tally: Tally,
    /// The open mark holds a snapshot of this tally.
    snapped: bool,
}

/// The open mark on an [`Engine`], taken before recording a repeat body
/// and closed by [`Engine::repeat_since`].
#[derive(Debug)]
#[must_use = "a mark stays open until Engine::repeat_since closes it"]
pub struct Mark {
    scope: usize,
    /// The running time when the mark was taken.
    time: [u128; 4],
}

/// The running time and every scope tally of an [`Engine`], taken at the
/// start of a traced summary window; see [`Engine::emit_summary`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    time: [u128; 4],
    scopes: Vec<Tally>,
}

/// The sum of a running time's categories (saturating: a total past the
/// range fails [`Engine::into_stats`] through the scope tallies).
fn total_units(time: &[u128; 4]) -> u128 {
    time.iter().fold(0, |a, &b| a.saturating_add(b))
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// New engine at time zero, in scope `init`, with the null (disabled)
    /// sink.
    pub fn new() -> Self {
        Self {
            time: [0; 4],
            scopes: vec![Scope {
                label: String::from("init"),
                tally: Tally::default(),
                snapped: false,
            }],
            scope: 0,
            touched: Vec::new(),
            open: false,
            sink: SinkHandle::null(),
            latency_scale: 1.0,
            tracks_named: false,
            quiet: false,
        }
    }

    /// New engine that emits every lump to `sink`.
    pub fn with_sink(sink: SinkHandle) -> Self {
        Self { sink, ..Self::new() }
    }

    /// The attached sink handle (the null handle when tracing is off).
    pub fn sink(&self) -> &SinkHandle {
        &self.sink
    }

    /// Suppress (or re-enable) span/counter emission while keeping the
    /// statistics accounting bit-for-bit unchanged. The executor prices
    /// iterations 1..N of every repeat quietly, then reports them with
    /// [`Engine::emit_summary`].
    pub fn set_quiet(&mut self, quiet: bool) {
        self.quiet = quiet;
    }

    /// Whether lumps currently emit observability events: a sink is
    /// attached and quiet mode is off.
    pub fn emitting(&self) -> bool {
        self.sink.is_enabled() && !self.quiet
    }

    /// Current simulated time: nanoseconds elapsed since the engine
    /// started. The next lump's span starts here.
    pub fn now_ns(&self) -> f64 {
        from_units(total_units(&self.time))
    }

    /// The latency stretch applied to every lump (≥ 1; refresh model).
    pub fn latency_scale(&self) -> f64 {
        self.latency_scale
    }

    /// Stretch every lump's latency by `scale` (≥ 1): used to model
    /// sustained-throughput losses such as DRAM refresh
    /// ([`crate::timing::TimingParams::refresh_overhead`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale < 1.0`.
    pub fn set_latency_scale(&mut self, scale: f64) {
        assert!(scale >= 1.0, "latency scale must be ≥ 1, got {scale}");
        self.latency_scale = scale;
    }

    /// Set the label under which subsequent lumps are recorded (e.g. the
    /// current Transformer layer kind).
    pub fn set_scope(&mut self, scope: &str) {
        if self.scopes[self.scope].label == scope {
            return;
        }
        self.scope = match self.scopes.iter().position(|s| s.label == scope) {
            Some(slot) => slot,
            None => {
                let tally = Tally::default();
                self.scopes.push(Scope { label: scope.to_owned(), tally, snapped: false });
                self.scopes.len() - 1
            }
        };
    }

    /// Record one phase of `category`: `latency_ns` of makespan (before the
    /// latency stretch), `energy_pj` of energy and `bytes` moved.
    ///
    /// A value outside the tally range — negative or not finite (a pricing
    /// bug), or 2^64 ns, pJ or bytes (about 584 simulated years) and more —
    /// fails the run in [`Engine::into_stats`].
    pub fn lump(&mut self, category: Category, latency_ns: f64, energy_pj: f64, bytes: f64) {
        debug_assert!(latency_ns >= 0.0 && energy_pj >= 0.0 && bytes >= 0.0);
        let latency = latency_ns * self.latency_scale;
        let emit = self.emitting();
        if emit {
            self.name_category_tracks();
            self.sink.span(
                &SpanEvent::new(
                    &self.scopes[self.scope].label,
                    category.label(),
                    tracks::category(category),
                    self.now_ns(),
                    latency,
                )
                .with_args(&[("energy_pj", energy_pj.into()), ("bytes", bytes.into())]),
            );
        }
        let lump = Lump::new(category, latency, energy_pj, bytes);
        if self.open && !self.scopes[self.scope].snapped {
            self.snapshot_scope();
        }
        self.time[lump.category] = self.time[lump.category].saturating_add(lump.time);
        self.scopes[self.scope].tally.record(&lump);
        if emit {
            self.sample_utilization(category);
        }
    }

    /// Snapshot the current scope's tally into the open mark: the body is
    /// about to record into it for the first time since the mark.
    fn snapshot_scope(&mut self) {
        let scope = &mut self.scopes[self.scope];
        self.touched.push((self.scope, scope.tally));
        scope.snapped = true;
    }

    /// Sample the cumulative busy fraction of `category` so far — plotted
    /// by trace viewers as a utilization-over-time curve.
    fn sample_utilization(&self, category: Category) {
        let now_ns = self.now_ns();
        if now_ns > 0.0 {
            self.sink.counter(&CounterEvent::sample(
                util_counter(category),
                tracks::category(category),
                now_ns,
                "busy_frac",
                from_units(self.time[category.index()]) / now_ns,
            ));
        }
    }

    fn name_category_tracks(&mut self) {
        if self.tracks_named {
            return;
        }
        for c in Category::ALL {
            self.sink.track_name(tracks::category(c), &format!("phase:{}", c.label()));
        }
        self.sink.track_name(tracks::RING, "ring hops");
        self.tracks_named = true;
    }

    /// Emit what was recorded quietly since `start` as the summary of a
    /// collapsed window of `iterations` repeat iterations:
    ///
    /// * one `repeat` span on the ring track covering the window, whose
    ///   `count` argument is `iterations`;
    /// * per category, one span per scope that recorded a lump in the
    ///   window, carrying that scope's time (as its duration), energy and
    ///   bytes, with the lump count as its `count` argument. A category's
    ///   spans sit back to back from the window's start, in scope order,
    ///   so they end inside the window;
    /// * every category's utilization counter, sampled at the window's end.
    ///
    /// Phase aggregates over the summary spans (weighting each by its
    /// `count`) therefore equal those over the lumps' own spans. Does
    /// nothing unless the engine is emitting.
    pub fn emit_summary(&mut self, start: &Snapshot, iterations: u64) {
        if !self.emitting() {
            return;
        }
        self.name_category_tracks();
        let start_units = total_units(&start.time);
        let start_ns = from_units(start_units);
        self.sink.span(
            &SpanEvent::new("repeat", "repeat", tracks::RING, start_ns, self.now_ns() - start_ns)
                .with_args(&[("count", iterations.into())]),
        );
        for c in Category::ALL {
            let mut at = start_units;
            for (slot, scope) in self.scopes.iter().enumerate() {
                let before = start.scopes.get(slot).copied().unwrap_or_default();
                let d = scope.tally.since(&before, c);
                if d.lumps == 0 {
                    continue;
                }
                self.sink.span(
                    &SpanEvent::new(
                        &scope.label,
                        c.label(),
                        tracks::category(c),
                        from_units(at),
                        from_units(d.time),
                    )
                    .with_args(&[
                        ("energy_pj", d.energy_pj.into()),
                        ("bytes", d.bytes.into()),
                        ("count", d.lumps.into()),
                    ]),
                );
                at = at.saturating_add(d.time);
            }
        }
        for c in Category::ALL {
            self.sample_utilization(c);
        }
    }

    /// Every tally, for the summary of a traced window
    /// ([`Engine::emit_summary`]).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { time: self.time, scopes: self.scopes.iter().map(|s| s.tally).collect() }
    }

    /// Open a mark before recording a body that will repeat. It copies the
    /// running time now and each scope's tally when the body first records
    /// into it; [`Engine::repeat_since`] closes it.
    ///
    /// # Panics
    ///
    /// If a mark is already open: marks do not nest.
    pub fn mark(&mut self) -> Mark {
        assert!(!self.open, "a mark is already open; marks do not nest");
        self.touched.clear();
        self.open = true;
        Mark { scope: self.scope, time: self.time }
    }

    /// Whether the current scope is the one `mark` was taken in — the
    /// condition for [`Engine::repeat_since`].
    pub fn in_scope_of(&self, mark: &Mark) -> bool {
        self.scope == mark.scope
    }

    /// Close `mark`, recording everything recorded since it another
    /// `times` times, in O(scopes the body touched): exactly the statistics
    /// of recording the same lumps again `times` times, since the tallies
    /// are integers. `times` = 0 only closes the mark. It emits nothing, so
    /// call it with the engine quiet ([`Engine::set_quiet`]) and let the
    /// window's [`Engine::emit_summary`] report what it added.
    ///
    /// # Panics
    ///
    /// If `times` > 0 and the scope differs from the one at `mark` (a
    /// repetition of the body would then start in another scope).
    pub fn repeat_since(&mut self, mark: Mark, times: u64) {
        debug_assert!(self.open, "a Mark exists only while it is open");
        if times > 0 {
            debug_assert!(!self.emitting(), "repeat_since emits nothing; run it in a quiet window");
            assert!(self.in_scope_of(&mark), "a repeated body must end in the scope it started in");
        }
        self.open = false;
        for (slot, before) in &self.touched {
            let scope = &mut self.scopes[*slot];
            scope.snapped = false;
            if times > 0 {
                scope.tally.repeat_since(before, times);
            }
        }
        if times > 0 {
            for (now, before) in self.time.iter_mut().zip(mark.time) {
                *now = now.saturating_add((*now - before).saturating_mul(u128::from(times)));
            }
        }
    }

    /// Consume the engine, returning `(global, per-scope)` statistics. The
    /// global statistics are those of the merged scope tallies: every lump
    /// was recorded in exactly one scope. Scopes that recorded no lump are
    /// left out.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`] if any value recorded, or any total, left the tally
    /// range.
    pub fn into_stats(self) -> Result<(SimStats, ScopedStats), OutOfRange> {
        debug_assert!(!self.open, "the mark is closed by the end of a run");
        let mut total = Tally::default();
        for s in &self.scopes {
            total.merge(&s.tally);
        }
        let total = total.to_stats()?;
        let scoped = self
            .scopes
            .into_iter()
            .filter(|s| !s.tally.is_empty())
            .map(|s| Ok((s.label, s.tally.to_stats()?)))
            .collect::<Result<_, OutOfRange>>()?;
        Ok((total, scoped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpim_obs::{ChromeTraceSink, FanoutSink};

    #[test]
    fn sink_records_phases_in_order() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("fc");
        e.lump(Category::Arithmetic, 5.0, 1.0, 0.0);
        e.set_scope("attn");
        e.lump(Category::DataMovement, 3.0, 2.0, 16.0);
        let events = chrome.borrow().sorted_events();
        let spans: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "fc");
        assert_eq!(spans[0].ts, 0.0);
        assert_eq!(spans[1].name, "attn");
        assert_eq!(spans[1].ts, 0.005); // 5 ns in µs
        assert_eq!(spans[1].dur, Some(0.003));
        // Category tracks are named once.
        assert!(events
            .iter()
            .any(|e| e.ph == "M" && e.tid == tracks::category(Category::Arithmetic).0));
        // The data-movement lump is 3 of the 8 ns so far.
        let util = events.iter().find(|e| e.name == "util.data-movement").expect("counter");
        assert_eq!(util.args["busy_frac"], transpim_obs::ArgValue::Num(3.0 / 8.0));
    }

    #[test]
    fn utilization_counters_are_named_after_their_category() {
        for c in Category::ALL {
            assert_eq!(util_counter(c), format!("util.{}", c.label()));
        }
    }

    /// One repeat-body iteration: a scope that only the body uses, a lump
    /// that lands in whatever scope the iteration starts in, and a
    /// non-dyadic latency so f64 summation would round.
    fn body(e: &mut Engine) {
        e.lump(Category::Other, 0.7, 0.3, 64.0);
        e.set_scope("dec.attn");
        e.lump(Category::DataMovement, 3.9, 2.2, 17.0);
        e.lump(Category::Arithmetic, 5.3, 1.7, 0.0);
    }

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.set_latency_scale(1.25);
        e.set_scope("dec.fc");
        e.lump(Category::Reduction, 1.1, 0.9, 0.0);
        e
    }

    /// Record `count` iterations of `body` the way the executor prices a
    /// repeat: iteration 1 starts in the enclosing scope, the
    /// rest in the one the body leaves, so when those differ iteration 2
    /// is the one that repeats.
    fn repeat(e: &mut Engine, count: u64, body: impl Fn(&mut Engine)) {
        let mut mark = e.mark();
        body(e);
        let mut rest = count - 1;
        if rest > 0 && !e.in_scope_of(&mark) {
            e.repeat_since(mark, 0);
            mark = e.mark();
            body(e);
            rest -= 1;
        }
        e.repeat_since(mark, rest);
    }

    #[test]
    fn repeat_since_equals_recording_the_body_count_times() {
        for count in [1u64, 2, 7, 1000] {
            let mut rerun = engine();
            for _ in 0..count {
                body(&mut rerun);
            }
            let mut repeated = engine();
            repeat(&mut repeated, count, body);
            assert_eq!(repeated.into_stats(), rerun.into_stats(), "count {count}");
        }
    }

    #[test]
    fn a_released_mark_adds_nothing() {
        // A body that ends in the scope it starts in (`dec.fc`).
        let round_trip = |e: &mut Engine| {
            body(e);
            e.set_scope("dec.fc");
        };
        // A mark taken after a released one multiplies only its own body.
        let mut e = engine();
        let released = e.mark();
        round_trip(&mut e);
        e.repeat_since(released, 0);
        let mark = e.mark();
        e.lump(Category::Arithmetic, 1.5, 0.5, 0.0);
        e.repeat_since(mark, 2);
        let mut want = engine();
        round_trip(&mut want);
        for _ in 0..3 {
            want.lump(Category::Arithmetic, 1.5, 0.5, 0.0);
        }
        assert_eq!(e.into_stats(), want.into_stats());
    }

    #[test]
    fn a_summary_window_spanning_a_re_mark_reports_every_lump() {
        // `body` changes scope, so `repeat` releases the first iteration's
        // mark and re-marks before the template iteration: the summary must
        // read exactly as if every iteration had been recorded.
        let summarize = |marked: bool| {
            let chrome = ChromeTraceSink::shared();
            let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
            e.set_scope("dec.fc");
            e.lump(Category::Reduction, 1.0, 0.5, 0.0);
            let start = e.snapshot();
            e.set_quiet(true);
            if marked {
                repeat(&mut e, 6, body);
            } else {
                (0..6).for_each(|_| body(&mut e));
            }
            e.set_quiet(false);
            e.emit_summary(&start, 6);
            let trace = chrome.borrow().to_json_string().expect("serializes");
            (trace, e.into_stats())
        };
        assert_eq!(summarize(true), summarize(false));
    }

    #[test]
    #[should_panic(expected = "marks do not nest")]
    fn a_second_open_mark_panics() {
        let mut e = engine();
        let _outer = e.mark();
        let _inner = e.mark();
    }

    #[test]
    #[should_panic(expected = "must end in the scope it started in")]
    fn repeat_since_rejects_a_body_that_changes_scope() {
        let mut e = engine();
        let mark = e.mark();
        body(&mut e);
        e.repeat_since(mark, 3);
    }

    #[test]
    fn a_total_past_the_range_fails_the_run_although_each_scope_fits() {
        // 0.75 · 2^64 ns is in range; two scopes of it sum past the range.
        let big = 0.75 * 2f64.powi(64);
        let mut e = Engine::new();
        e.set_scope("a");
        e.lump(Category::Arithmetic, big, 1.0, 0.0);
        e.set_scope("b");
        e.lump(Category::Arithmetic, big, 1.0, 0.0);
        assert_eq!(e.into_stats(), Err(OutOfRange));
        // One such scope alone is a valid run.
        let mut e = Engine::new();
        e.set_scope("a");
        e.lump(Category::Arithmetic, big, 1.0, 0.0);
        assert_eq!(e.into_stats().expect("in range").0.latency_ns, big);
    }

    #[test]
    fn unused_scopes_are_not_reported() {
        let mut e = Engine::new();
        e.set_scope("never");
        e.set_scope("fc");
        e.lump(Category::Arithmetic, 0.0, 0.0, 0.0);
        let (_, scoped) = e.into_stats().unwrap();
        assert_eq!(scoped.iter().map(|(k, _)| k).collect::<Vec<_>>(), ["fc"]);
    }

    #[test]
    fn quiet_mode_suppresses_emission_but_not_stats() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("fc");
        e.lump(Category::Arithmetic, 5.0, 1.0, 0.0);
        e.set_quiet(true);
        assert!(!e.emitting());
        e.lump(Category::Arithmetic, 5.0, 1.0, 0.0);
        e.set_quiet(false);
        e.lump(Category::Arithmetic, 5.0, 1.0, 0.0);
        assert_eq!(e.now_ns(), 15.0);
        let spans = chrome.borrow().sorted_events().iter().filter(|e| e.ph == "X").count();
        assert_eq!(spans, 2, "quiet phase emits no span");
    }

    #[test]
    fn summary_covers_the_quiet_window() {
        let chrome = ChromeTraceSink::shared();
        let mut e = Engine::with_sink(SinkHandle::from_shared(chrome.clone()));
        e.set_scope("dec.fc");
        e.lump(Category::Reduction, 1.0, 0.5, 0.0);
        let start = e.snapshot();
        e.set_quiet(true);
        repeat(&mut e, 5, body);
        e.set_quiet(false);
        e.emit_summary(&start, 5);
        let end_ns = e.now_ns();
        let events = chrome.borrow().sorted_events();
        let num = |e: &transpim_obs::ChromeEvent, key: &str| match e.args.get(key) {
            Some(transpim_obs::ArgValue::Num(n)) => *n,
            other => panic!("{key}: {other:?}"),
        };
        let window = events.iter().find(|e| e.name == "repeat").expect("window span");
        assert_eq!((window.ts, num(window, "count")), (0.001, 5.0));
        // Iteration 0 records its first lump in dec.fc, the others in
        // dec.attn: one span per (scope, category), weighted by lumps.
        let summary: Vec<_> = events
            .iter()
            .filter(|e| e.ph == "X" && e.name != "repeat" && e.ts >= window.ts)
            .map(|e| (e.cat.as_str(), e.name.as_str(), num(e, "count")))
            .collect();
        assert_eq!(
            summary,
            [
                ("data-movement", "dec.attn", 5.0),
                ("arithmetic", "dec.attn", 5.0),
                ("other", "dec.fc", 1.0),
                ("other", "dec.attn", 4.0),
            ]
        );
        let movement = events.iter().find(|e| e.cat == "data-movement").unwrap();
        assert!((num(movement, "bytes") - 85.0).abs() < 1e-9);
        assert!((movement.dur.unwrap() - 5.0 * 3.9e-3).abs() < 1e-12);
        // Every category is sampled again at the window's end.
        let samples: Vec<_> = events.iter().filter(|e| e.ph == "C" && e.ts > window.ts).collect();
        assert_eq!(samples.len(), 4);
        assert!(samples.iter().all(|c| c.ts == end_ns / 1000.0));
    }

    #[test]
    fn null_sink_runs_match_untraced_runs_exactly() {
        let mut plain = engine();
        body(&mut plain);
        // A sink that reports itself disabled (an empty fanout) gives the
        // handle the no-op path.
        let mut nulled = Engine::with_sink(SinkHandle::new(FanoutSink::new(Vec::new())));
        nulled.set_latency_scale(1.25);
        nulled.set_scope("dec.fc");
        nulled.lump(Category::Reduction, 1.1, 0.9, 0.0);
        body(&mut nulled);
        assert_eq!(plain.into_stats(), nulled.into_stats());
    }

    #[test]
    fn engine_accumulates_by_scope() {
        let mut e = Engine::new();
        e.set_scope("a");
        e.lump(Category::Arithmetic, 5.0, 1.0, 0.0);
        e.set_scope("b");
        e.lump(Category::DataMovement, 3.0, 1.0, 8.0);
        e.lump(Category::DataMovement, 4.0, 1.0, 8.0);
        let (stats, scoped) = e.into_stats().unwrap();
        assert_eq!(stats.latency_ns, 12.0);
        assert_eq!(scoped.get("a").unwrap().latency_ns, 5.0);
        assert_eq!(scoped.get("b").unwrap().latency_ns, 7.0);
        assert_eq!(scoped.get("b").unwrap().bytes_moved, 16.0);
        assert!(scoped.get("init").is_none());
    }
}
