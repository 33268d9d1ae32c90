//! The timing [`Evaluator`] wrapper.
//!
//! The service owns its evaluator, so wrapping the evaluator is the one
//! way to see a probe from outside: [`Timed`] forwards both trait
//! methods unchanged and, when a traced pass gave it a sink, records a
//! child span per call and (for the replay pass) keeps what the probe
//! was asked and what it answered.

use crate::span::SpanSink;
use antarex_serve::pool::Evaluation;
use antarex_serve::{Evaluator, ProbeSegment};
use antarex_tuner::Configuration;
use std::sync::{Arc, Mutex};

/// One probe as the service issued it.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedProbe {
    /// The design point probed.
    pub config: Configuration,
    /// The workload features it ran under.
    pub features: Vec<f64>,
    /// What the wrapped evaluator returned.
    pub evaluation: Evaluation,
}

/// Where a traced pass sends what [`Timed`] sees.
#[derive(Debug, Default)]
pub struct ProbeTap {
    /// Receives one `evaluate` span per probe.
    pub sink: SpanSink,
    /// When set, also receives every probe's inputs and result.
    pub capture: Option<Mutex<Vec<CapturedProbe>>>,
}

impl ProbeTap {
    /// A tap that records spans only.
    pub fn spans_only() -> Arc<Self> {
        Arc::new(ProbeTap::default())
    }

    /// A tap that records spans and captures probes.
    pub fn capturing() -> Arc<Self> {
        Arc::new(ProbeTap {
            sink: SpanSink::default(),
            capture: Some(Mutex::new(Vec::new())),
        })
    }

    /// Takes the probes captured since the last call.
    pub fn take_probes(&self) -> Vec<CapturedProbe> {
        self.capture.as_ref().map_or_else(Vec::new, |probes| {
            std::mem::take(&mut *probes.lock().expect("a probe panicked while captured"))
        })
    }
}

/// An evaluator that times the one it wraps.
#[derive(Debug)]
pub struct Timed<E> {
    inner: E,
    tap: Option<Arc<ProbeTap>>,
}

impl<E> Timed<E> {
    /// Wraps `inner`; with `tap` absent (every untraced pass) the
    /// wrapper only forwards.
    pub fn new(inner: E, tap: Option<Arc<ProbeTap>>) -> Self {
        Timed { inner, tap }
    }

    /// The wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn observe<R>(
        &self,
        config: &Configuration,
        features: &[f64],
        probe: impl FnOnce() -> R,
        evaluation: impl Fn(&R) -> &Evaluation,
    ) -> R {
        let Some(tap) = &self.tap else {
            return probe();
        };
        let start_ns = tap.sink.now_ns();
        let result = probe();
        tap.sink.child("evaluate", start_ns, tap.sink.now_ns());
        if let Some(capture) = &tap.capture {
            capture
                .lock()
                .expect("a probe panicked while captured")
                .push(CapturedProbe {
                    config: config.clone(),
                    features: features.to_vec(),
                    evaluation: evaluation(&result).clone(),
                });
        }
        result
    }
}

impl<E: Evaluator> Evaluator for Timed<E> {
    fn evaluate(&self, config: &Configuration, features: &[f64]) -> Evaluation {
        self.observe(
            config,
            features,
            || self.inner.evaluate(config, features),
            |evaluation| evaluation,
        )
    }

    fn evaluate_segmented(
        &self,
        config: &Configuration,
        features: &[f64],
    ) -> (Evaluation, Vec<ProbeSegment>) {
        self.observe(
            config,
            features,
            || self.inner.evaluate_segmented(config, features),
            |(evaluation, _)| evaluation,
        )
    }
}
