//! The simulation kernel: a clock, an event queue, and a model.
//!
//! Models implement [`Model`]; the engine pops events in time order, hands
//! them to the model together with a [`Ctx`] through which the model
//! schedules follow-up events and draws randomness, then merges newly
//! scheduled events back into the queue.
//!
//! A model may also say which of its events are *background* (they only
//! re-arm themselves once nothing else is going on) and when it is
//! *quiescent*. The engine keeps a count of queued foreground events, and
//! [`Engine::run_until`] stops as soon as that count is zero and the model
//! is quiescent, instead of idling on to its horizon.

use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::Millis;

/// A simulation model: an event type plus a handler.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// React to `ev`; schedule follow-ups through `ctx`.
    fn handle(&mut self, ev: Self::Event, ctx: &mut Ctx<Self::Event>);

    /// Short stable label for `ev`, used as the `kind` label of the
    /// engine's `sim_events_total` counter. Models with one event family
    /// may keep the default.
    fn event_label(_ev: &Self::Event) -> &'static str {
        "event"
    }

    /// Whether `ev` is *background*: an event that, once the model is
    /// [`quiescent`](Model::quiescent), changes nothing but re-arms itself
    /// (a periodic heartbeat with nothing to hand out). The engine counts
    /// the queued events that are not background. It must be a function
    /// of the event alone, so that the count taken at push and the one
    /// given back at pop agree. Default: every event is foreground.
    fn is_background(_ev: &Self::Event) -> bool {
        false
    }

    /// Whether, with only background events left in the queue, the model
    /// can no longer change: no record, no output, no draw from the RNG.
    /// [`Engine::run_until`] stops at the first such moment. Default:
    /// never, so a model that does not opt in runs to its horizon.
    fn quiescent(&self) -> bool {
        false
    }
}

/// Handler-side view of the kernel: the current time, the RNG, and a buffer
/// of newly scheduled events.
pub struct Ctx<'a, E> {
    now: Millis,
    rng: &'a mut SimRng,
    pending: &'a mut Vec<(Millis, E)>,
}

impl<'a, E> Ctx<'a, E> {
    /// Current simulation time.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// The run's root RNG (models typically hold their own forks; this is
    /// for ad-hoc draws).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Schedule `ev` at an absolute time (clamped to now if in the past —
    /// the simulation clock never moves backwards).
    pub fn schedule_at(&mut self, at: Millis, ev: E) {
        self.pending.push((at.max(self.now), ev));
    }
}

/// Engine-local run statistics, accumulated per step and flushed to the
/// recorder in one batch at the end of each `run_*` call — the shared
/// registry is never touched on the per-event hot path.
struct EngineStats {
    per_kind: std::collections::BTreeMap<&'static str, u64>,
    queue_hwm: u64,
    /// Wall-clock start of the current recording window (first recorded
    /// step since the last flush).
    wall_start: Option<std::time::Instant>,
    /// Accumulated wall time of flushed windows, in microseconds.
    wall_us: u64,
}

impl EngineStats {
    const fn new() -> EngineStats {
        EngineStats {
            per_kind: std::collections::BTreeMap::new(),
            queue_hwm: 0,
            wall_start: None,
            wall_us: 0,
        }
    }
}

/// The simulation engine.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    rng: SimRng,
    now: Millis,
    processed: u64,
    /// Queued events that are not [`Model::is_background`].
    foreground: u64,
    /// What the handler of the current step scheduled; drained into the
    /// queue after it returns and kept, so a step allocates nothing.
    pending: Vec<(Millis, M::Event)>,
    recorder: &'static obs::Recorder,
    stats: EngineStats,
}

impl<M: Model> Engine<M> {
    /// Wrap `model` with a fresh kernel seeded by `seed`.
    pub fn new(model: M, seed: u64) -> Engine<M> {
        Engine {
            model,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            now: Millis::ZERO,
            processed: 0,
            foreground: 0,
            pending: Vec::new(),
            recorder: obs::global(),
            stats: EngineStats::new(),
        }
    }

    /// Redirect this engine's instrumentation to `recorder` instead of
    /// the process-wide default (tests inject a leaked local recorder to
    /// stay isolated from the global one).
    #[cfg(test)]
    pub(crate) fn set_recorder(&mut self, recorder: &'static obs::Recorder) {
        self.recorder = recorder;
    }

    /// Current simulation time.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedule an event at an absolute time before/while running.
    pub fn schedule_at(&mut self, at: Millis, ev: M::Event) {
        self.push(at.max(self.now), ev);
    }

    /// The one way into the queue, so the foreground count sees every
    /// event.
    fn push(&mut self, at: Millis, ev: M::Event) {
        self.foreground += u64::from(!M::is_background(&ev));
        self.queue.push(at, ev);
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let recording = self.recorder.is_enabled();
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        self.foreground -= u64::from(!M::is_background(&ev));
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        if recording {
            if self.stats.wall_start.is_none() {
                self.stats.wall_start = Some(std::time::Instant::now());
            }
            *self.stats.per_kind.entry(M::event_label(&ev)).or_insert(0) += 1;
        }
        let mut pending = std::mem::take(&mut self.pending);
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            pending: &mut pending,
        };
        self.model.handle(ev, &mut ctx);
        for (t, e) in pending.drain(..) {
            self.push(t, e);
        }
        self.pending = pending;
        if recording {
            self.stats.queue_hwm = self.stats.queue_hwm.max(self.queue.len() as u64);
        }
        self.processed += 1;
        true
    }

    /// Flush locally accumulated run statistics into the recorder:
    /// `sim_events_total{kind}`, the `sim_queue_depth_hwm` high-water
    /// mark, and the simulated-vs-wall-time gauges (`sim_time_ms`,
    /// `sim_wall_ms`, and their ratio `sim_speedup`). Called at the end
    /// of every `run_*`; idempotent, and a no-op while disabled.
    pub(crate) fn flush_stats(&mut self) {
        if !self.recorder.is_enabled() {
            return;
        }
        for (kind, n) in std::mem::take(&mut self.stats.per_kind) {
            self.recorder
                .count_labeled("sim_events_total", &[("kind", kind)], n);
        }
        self.recorder
            .gauge_max("sim_queue_depth_hwm", self.stats.queue_hwm as f64);
        if let Some(t0) = self.stats.wall_start.take() {
            self.stats.wall_us += t0.elapsed().as_micros() as u64;
        }
        let wall_ms = self.stats.wall_us as f64 / 1000.0;
        self.recorder.gauge_set("sim_time_ms", self.now.0 as f64);
        self.recorder.gauge_set("sim_wall_ms", wall_ms);
        if wall_ms > 0.0 {
            self.recorder
                .gauge_set("sim_speedup", self.now.0 as f64 / wall_ms);
        }
    }

    /// Run until the queue empties, the clock passes `horizon` (events
    /// strictly after `horizon` are left unprocessed), or the model goes
    /// quiet: every queued event is [background](Model::is_background) and
    /// the model is [quiescent](Model::quiescent). From that moment on
    /// each event only re-arms itself, so running on to `horizon` could
    /// add nothing; `now()` is then the time of the last event that
    /// changed something. The horizon stays the safety net for models
    /// that never go quiet.
    pub fn run_until(&mut self, horizon: Millis) {
        let _span = self.recorder.span("sim_run").arg("horizon_ms", horizon.0);
        while let Some(t) = self.queue.peek_time() {
            if t > horizon || (self.foreground == 0 && self.model.quiescent()) {
                break;
            }
            self.step();
        }
        self.flush_stats();
    }

    /// Run at most `limit` further events; returns how many were processed.
    /// It ignores quiescence, so it can step a model past the point where
    /// `run_until` stops: the reference `tests/quiescence.rs` holds
    /// `run_until` to.
    pub fn run_capped(&mut self, limit: u64) -> u64 {
        let mut n = 0;
        while n < limit && self.step() {
            n += 1;
        }
        self.flush_stats();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        seen: Vec<(Millis, u32)>,
    }

    enum Ev {
        Tag(u32),
        Chain(u32),
    }

    impl Model for Echo {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
            match ev {
                Ev::Tag(n) => self.seen.push((ctx.now(), n)),
                Ev::Chain(n) => {
                    self.seen.push((ctx.now(), n));
                    if n > 0 {
                        ctx.schedule_at(ctx.now() + Millis(5), Ev::Chain(n - 1));
                    }
                }
            }
        }
        fn event_label(ev: &Ev) -> &'static str {
            match ev {
                Ev::Tag(_) => "tag",
                Ev::Chain(_) => "chain",
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new(Echo { seen: vec![] }, 0);
        e.schedule_at(Millis(30), Ev::Tag(3));
        e.schedule_at(Millis(10), Ev::Tag(1));
        e.schedule_at(Millis(20), Ev::Tag(2));
        e.run_until(Millis::MAX);
        assert_eq!(
            e.model().seen,
            vec![(Millis(10), 1), (Millis(20), 2), (Millis(30), 3)]
        );
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut e = Engine::new(Echo { seen: vec![] }, 0);
        e.schedule_at(Millis(0), Ev::Chain(3));
        e.run_until(Millis::MAX);
        assert_eq!(e.now(), Millis(15));
        assert_eq!(e.model().seen.len(), 4);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut e = Engine::new(Echo { seen: vec![] }, 0);
        e.schedule_at(Millis(0), Ev::Chain(10));
        e.run_until(Millis(12));
        // Events at 0, 5, 10 processed; 15 not.
        assert_eq!(e.model().seen.len(), 3);
        assert_eq!(e.now(), Millis(10));
        e.run_until(Millis::MAX);
        assert_eq!(e.model().seen.len(), 11);
    }

    #[test]
    fn run_until_stops_once_only_background_events_remain() {
        // A heartbeat re-arms forever; three one-shot jobs are the work.
        struct Beat {
            beats: u32,
            jobs_left: u32,
            always_quiet: bool,
        }
        enum BEv {
            Beat,
            Job,
        }
        impl Model for Beat {
            type Event = BEv;
            fn handle(&mut self, ev: BEv, ctx: &mut Ctx<BEv>) {
                match ev {
                    BEv::Beat => {
                        self.beats += 1;
                        ctx.schedule_at(ctx.now() + Millis(10), BEv::Beat);
                    }
                    BEv::Job => self.jobs_left -= 1,
                }
            }
            fn is_background(ev: &BEv) -> bool {
                matches!(ev, BEv::Beat)
            }
            fn quiescent(&self) -> bool {
                self.always_quiet || self.jobs_left == 0
            }
        }
        // A model that calls itself quiescent throughout still runs every
        // queued foreground event: the engine's count gates the stop.
        for always_quiet in [false, true] {
            let mut e = Engine::new(
                Beat {
                    beats: 0,
                    jobs_left: 3,
                    always_quiet,
                },
                0,
            );
            e.schedule_at(Millis(0), BEv::Beat);
            for t in [5, 25, 47] {
                e.schedule_at(Millis(t), BEv::Job);
            }
            e.run_until(Millis::from_mins(60));
            assert_eq!(e.model().jobs_left, 0);
            assert_eq!(e.now(), Millis(47), "stops at the last job");
            assert_eq!(e.model().beats, 5, "beats at 0, 10, 20, 30, 40");
            // Stepping on by hand ignores quiescence.
            assert_eq!(e.run_capped(3), 3);
            assert_eq!(e.model().beats, 8);
        }
    }

    #[test]
    fn run_capped_stops() {
        let mut e = Engine::new(Echo { seen: vec![] }, 0);
        e.schedule_at(Millis(0), Ev::Chain(1000));
        let n = e.run_capped(10);
        assert_eq!(n, 10);
    }

    #[test]
    fn schedule_at_past_clamps_to_now() {
        struct PastScheduler {
            fired_at: Option<Millis>,
        }
        enum PEv {
            Trigger,
            Late,
        }
        impl Model for PastScheduler {
            type Event = PEv;
            fn handle(&mut self, ev: PEv, ctx: &mut Ctx<PEv>) {
                match ev {
                    PEv::Trigger => ctx.schedule_at(Millis(1), PEv::Late),
                    PEv::Late => self.fired_at = Some(ctx.now()),
                }
            }
        }
        let mut e = Engine::new(PastScheduler { fired_at: None }, 0);
        e.schedule_at(Millis(100), PEv::Trigger);
        e.run_until(Millis::MAX);
        assert_eq!(e.model().fired_at, Some(Millis(100)));
    }

    #[test]
    fn stats_flush_to_injected_recorder() {
        // A leaked local recorder keeps this test isolated from the
        // process-wide one (which stays disabled across the test suite).
        let rec: &'static obs::Recorder = Box::leak(Box::new(obs::Recorder::new()));
        rec.enable();
        let mut e = Engine::new(Echo { seen: vec![] }, 0);
        e.set_recorder(rec);
        e.schedule_at(Millis(30), Ev::Tag(7));
        e.schedule_at(Millis(0), Ev::Chain(2));
        e.run_until(Millis::MAX);
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter_labeled("sim_events_total", &[("kind", "chain")]),
            3
        );
        assert_eq!(
            snap.counter_labeled("sim_events_total", &[("kind", "tag")]),
            1
        );
        assert!(snap.gauge("sim_queue_depth_hwm").unwrap() >= 1.0);
        assert_eq!(snap.gauge("sim_time_ms"), Some(30.0));
        assert!(snap.gauge("sim_wall_ms").is_some());
        assert!(snap.spans.iter().any(|s| s.name == "sim_run"));
    }

    #[test]
    fn default_event_label_is_event() {
        struct One;
        impl Model for One {
            type Event = ();
            fn handle(&mut self, _: (), _: &mut Ctx<()>) {}
        }
        assert_eq!(One::event_label(&()), "event");
    }

    #[test]
    fn determinism_across_runs() {
        fn run(seed: u64) -> Vec<u64> {
            struct R {
                draws: Vec<u64>,
            }
            enum Ev {
                Draw(u32),
            }
            impl Model for R {
                type Event = Ev;
                fn handle(&mut self, Ev::Draw(n): Ev, ctx: &mut Ctx<Ev>) {
                    self.draws.push(ctx.rng().u64());
                    if n > 0 {
                        let d = ctx.rng().below(10) + 1;
                        ctx.schedule_at(ctx.now() + Millis(d), Ev::Draw(n - 1));
                    }
                }
            }
            let mut e = Engine::new(R { draws: vec![] }, seed);
            e.schedule_at(Millis(0), Ev::Draw(20));
            e.run_until(Millis::MAX);
            e.into_model().draws
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
