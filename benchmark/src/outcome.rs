//! What one run of one workload reports.

use std::collections::BTreeMap;

use sparker_profiles::JsonValue;

/// Attempts and failures of a run. Every child exit, HTTP reply and
/// end-of-run comparison is one attempt; `notes` keeps the first few
/// failure messages for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one attempt; `problem` is `Some` when it failed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(note) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    /// Count one attempt that must satisfy `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.record((!ok).then(note));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

pub struct Outcome {
    pub tally: Tally,
    /// `(name, value)`; names come from `spec::END_TO_END` or
    /// `spec::PER_LAYER`, which also carry the units.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sizes, sample counts and secondary numbers, for the results file.
    pub detail: BTreeMap<String, JsonValue>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The metrics as `{"name": {"value": v, "unit": "u"}}`, in `units` order.
    pub fn metrics_json(&self, units: &[(&'static str, &'static str)]) -> JsonValue {
        let mut map = BTreeMap::new();
        for (name, value) in &self.metrics {
            let unit = units
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |(_, unit)| unit);
            map.insert(
                name.to_string(),
                object([
                    ("value", number(*value)),
                    ("unit", JsonValue::String(unit.to_string())),
                ]),
            );
        }
        JsonValue::Object(map)
    }

    /// The one-line result the benchmark contract asks for.
    pub fn result_line(&self, units: &[(&'static str, &'static str)]) -> String {
        object([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", number(self.tally.attempted as f64)),
            ("failed", number(self.tally.failed as f64)),
            ("metrics", self.metrics_json(units)),
        ])
        .to_string()
    }
}

pub fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON number; non-finite values (which JSON cannot carry) become null
/// and make the run incorrect.
pub fn number(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Number(v)
    } else {
        JsonValue::Null
    }
}

pub fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}
