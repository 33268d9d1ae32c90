//! Metric names, units and bounds, and the result line.
//!
//! The tables here are the program's side of `BENCHMARK.json`; a test
//! holds the two together. A run prints every metric by name with its
//! unit and, as the last line of standard output, one JSON object with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller readings are better.
    Lower,
    /// Larger readings are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the reading.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression; 0 for per-layer metrics, which
    /// carry no bound.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn higher(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

/// What a user of the system sees; measured with tracing off at one
/// pool worker, reported by every workload.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s", 0.25),
    higher("ops_per_s", "op/s", 0.25),
    lower("batch_ms_p50", "ms", 0.25),
    lower("batch_ms_p95", "ms", 0.25),
    lower("allocs_per_op", "1/op", 0.06),
    lower("peak_rss_mb", "MB", 0.06),
    higher("ok_share", "ratio", 0.10),
];

/// Single layers, from the traced and replay passes. A layer that does
/// not run on a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 60] = [
    lower("trace_overhead_share", "ratio", 0.0),
    lower("failed_share", "ratio", 0.0),
    lower("serve.service.self_ns_per_op", "ns", 0.0),
    lower("serve.service.self_share", "ratio", 0.0),
    lower("serve.service.unattributed_share", "ratio", 0.0),
    lower("serve.evaluator.calls", "count", 0.0),
    lower("serve.evaluator.busy_share", "ratio", 0.0),
    lower("serve.evaluator.call_us_p50", "us", 0.0),
    lower("serve.evaluator.call_us_p95", "us", 0.0),
    lower("tuner.manager.select_ns", "ns", 0.0),
    lower("tuner.manager.learn_ns", "ns", 0.0),
    lower("serve.store.with_ns", "ns", 0.0),
    lower("serve.cache.key_ns", "ns", 0.0),
    lower("serve.cache.get_ns", "ns", 0.0),
    lower("serve.cache.insert_ns", "ns", 0.0),
    higher("serve.cache.hit_rate", "ratio", 0.0),
    lower("serve.cache.quarantined", "count", 0.0),
    lower("serve.admission.tier_ns", "ns", 0.0),
    lower("serve.admission.update_ns", "ns", 0.0),
    lower("serve.admission.shed", "count", 0.0),
    lower("serve.admission.degraded", "count", 0.0),
    lower("serve.admission.tier_transitions", "count", 0.0),
    lower("serve.pool.probes", "count", 0.0),
    lower("serve.pool.shed", "count", 0.0),
    lower("serve.pool.sched_ns_per_probe", "ns", 0.0),
    lower("sim.sched.steal_ns_per_task", "ns", 0.0),
    lower("serve.pool.dispatch_us_per_batch_2w", "us", 0.0),
    higher("serve.pool.speedup_2w", "ratio", 0.0),
    lower("serve.chaos.retries", "count", 0.0),
    lower("serve.chaos.hedges", "count", 0.0),
    lower("serve.chaos.quarantined", "count", 0.0),
    lower("serve.breaker.trips", "count", 0.0),
    lower("serve.journal.entries", "count", 0.0),
    lower("serve.journal.append_ns", "ns", 0.0),
    lower("serve.journal.snapshot_ms", "ms", 0.0),
    lower("serve.journal.restore_ms", "ms", 0.0),
    lower("serve.journal.replay_ns_per_entry", "ns", 0.0),
    lower("serve.journal.recover_ms", "ms", 0.0),
    lower("obs.trace.derive_ns", "ns", 0.0),
    lower("obs.trace.record_ns", "ns", 0.0),
    lower("obs.trace.events_per_op", "1/op", 0.0),
    lower("obs.trace.dropped_share", "ratio", 0.0),
    lower("obs.energy.record_window_us", "us", 0.0),
    lower("obs.hist.record_ns", "ns", 0.0),
    lower("ir.parse_us", "us", 0.0),
    lower("precision.variant_us", "us", 0.0),
    lower("vm.lower_us", "us", 0.0),
    higher("vm.code_cache.hit_rate", "ratio", 0.0),
    lower("vm.run_ns_per_elem", "ns", 0.0),
    lower("rtrm.powercap.split_us", "us", 0.0),
    lower("rtrm.cluster_ctrl.plan_ns_per_node", "ns", 0.0),
    lower("rtrm.cluster_ctrl.sense_ns", "ns", 0.0),
    lower("rtrm.cluster_ctrl.split_us", "us", 0.0),
    higher("rtrm.cluster_ctrl.speedup_2w", "ratio", 0.0),
    lower("rtrm.cluster_ctrl.crashes", "count", 0.0),
    lower("rtrm.cluster_ctrl.requeues", "count", 0.0),
    lower("rtrm.cluster_ctrl.throttle_events", "count", 0.0),
    lower("rtrm.checkpoint.count", "count", 0.0),
    lower("sim.faults.generate_ms", "ms", 0.0),
    lower("sim.node.build_ns", "ns", 0.0),
];

/// Readings of one run, checked against a metric table when printed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Readings(BTreeMap<&'static str, f64>);

impl Readings {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The reading under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Pairs every metric of `table` with its reading. A per-layer
    /// metric nobody set reads 0 (its layer did not run); an end-to-end
    /// metric must have been set.
    ///
    /// # Panics
    ///
    /// Panics on a reading whose name is not in `table`, or a missing
    /// bounded metric — either is a bug in this crate.
    pub fn against(&self, table: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|def| def.name == *name),
                "reading {name:?} is not a metric of this mode"
            );
        }
        table
            .iter()
            .map(|def| {
                let value = self.get(def.name).unwrap_or_else(|| {
                    assert!(def.bound == 0.0, "no reading for {:?}", def.name);
                    0.0
                });
                (*def, value)
            })
            .collect()
    }
}

/// The outcome of one run of one workload in one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Ops driven during the timed passes.
    pub attempted: u64,
    /// Ops that reached no terminal state.
    pub failed: u64,
    /// Every metric of the mode with its reading.
    pub metrics: Vec<(MetricDef, f64)>,
}

impl RunResult {
    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`. Floats print
    /// with every digit they were measured with.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (index, (def, value)) in self.metrics.iter().enumerate() {
            if index > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (def, value) in &self.metrics {
            let _ = write!(out, "{:<40} {:>18.6} {:<6}", def.name, value, def.unit);
            if def.bound > 0.0 {
                let _ = write!(
                    out,
                    " ({} is better, bound {:.0}%)",
                    def.better.label(),
                    def.bound * 100.0
                );
            }
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// A JSON reader, for `BENCHMARK.json` and for result lines
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` or `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the byte offset and what was expected there.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value()?;
        parser.blank();
        if parser.at == parser.bytes.len() {
            Ok(value)
        } else {
            Err(parser.expected("end of document"))
        }
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    /// The items of an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The value of a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn expected(&self, what: &str) -> String {
        format!("byte {}: expected {what}", self.at)
    }

    fn blank(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.blank();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.blank();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.blank();
                    let key = self.string()?;
                    self.blank();
                    if !self.eat(":") {
                        return Err(self.expected("':'"));
                    }
                    members.push((key, self.value()?));
                    self.blank();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.expected("',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.blank();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.blank();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.expected("',' or ']'"));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|number| number.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.expected("a value"))
            }
            None => Err(self.expected("a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.expected("'\"'"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.expected("UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(&c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(self.expected("a supported escape")),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(&byte) => {
                    out.push(byte);
                    self.at += 1;
                }
                None => return Err(self.expected("'\"'")),
            }
        }
    }
}
