//! The generic result row streamed out of scenario executions.
//!
//! A record is an ordered list of `(key, value)` fields rather than a fixed
//! struct, so one sink implementation can render every scenario kind — the
//! text sink aligns columns from the keys, the JSON sink emits one object
//! per record, and callers read typed values back by field name.

/// One typed field value of an [`EvalRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field (names, labels).
    Text(String),
    /// An unsigned integer field (counts, parameter totals).
    Int(u64),
    /// A floating-point field (accuracies, PSNR, latencies). `f32` sources
    /// are widened losslessly, so reconstructing the `f32` is exact.
    Float(f64),
}

impl FieldValue {
    /// Render the value as JSON (strings escaped, non-finite floats as
    /// `null`).
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::Text(s) => json_string(s),
            FieldValue::Int(v) => v.to_string(),
            FieldValue::Float(v) if v.is_finite() => format!("{v}"),
            FieldValue::Float(_) => "null".to_string(),
        }
    }

    /// Render the value for human-readable table output.
    pub fn display(&self) -> String {
        match self {
            FieldValue::Text(s) => s.clone(),
            FieldValue::Int(v) => v.to_string(),
            FieldValue::Float(v) => format!("{v:.4}"),
        }
    }
}

/// `s` as a JSON string literal, escaped by `sesr_telemetry::json` (the
/// one JSON writer in the workspace).
pub(crate) fn json_string(s: &str) -> String {
    sesr_telemetry::json::Value::Str(s.to_owned()).render()
}

/// One result row: an ordered list of named, typed fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalRecord {
    fields: Vec<(String, FieldValue)>,
}

impl EvalRecord {
    /// An empty record.
    pub fn new() -> Self {
        EvalRecord { fields: Vec::new() }
    }

    /// Append a text field.
    pub fn text(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields
            .push((key.to_string(), FieldValue::Text(value.into())));
        self
    }

    /// Append an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), FieldValue::Int(value)));
        self
    }

    /// Append a float field.
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push((key.to_string(), FieldValue::Float(value)));
        self
    }

    /// Append a float field only when `value` is present (the key is simply
    /// absent otherwise, which sinks render as a blank/`-` cell).
    pub fn maybe_float(self, key: &str, value: Option<f64>) -> Self {
        match value {
            Some(v) => self.float(key, v),
            None => self,
        }
    }

    /// Append an integer field only when `value` is present.
    pub fn maybe_int(self, key: &str, value: Option<u64>) -> Self {
        match value {
            Some(v) => self.int(key, v),
            None => self,
        }
    }

    /// The ordered fields.
    pub fn fields(&self) -> &[(String, FieldValue)] {
        &self.fields
    }

    /// Look a field up by key.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A text field's value, if present and textual.
    pub fn get_text(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(FieldValue::Text(s)) => Some(s),
            _ => None,
        }
    }

    /// An integer field's value, if present and integral.
    pub fn get_int(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(FieldValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// A float field's value, if present and floating.
    pub fn get_float(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(FieldValue::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// Render the record as one JSON object (fields in order).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), v.to_json()))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_getters_roundtrip() {
        let record = EvalRecord::new()
            .text("model", "SESR-M2")
            .int("params", 10_608)
            .float("psnr", 27.5)
            .maybe_float("paper_psnr", None)
            .maybe_int("paper_params", Some(10_608));
        assert_eq!(record.get_text("model"), Some("SESR-M2"));
        assert_eq!(record.get_int("params"), Some(10_608));
        assert_eq!(record.get_float("psnr"), Some(27.5));
        assert_eq!(record.get("paper_psnr"), None);
        assert_eq!(record.get_int("paper_params"), Some(10_608));
        assert_eq!(record.get_float("params"), None, "type-checked getter");
        assert_eq!(record.fields().len(), 4);
    }

    #[test]
    fn f32_fields_reconstruct_exactly() {
        let value: f32 = 0.123_456_79;
        let record = EvalRecord::new().float("acc", f64::from(value));
        assert_eq!(record.get_float("acc").unwrap() as f32, value);
    }

    #[test]
    fn json_escapes_and_handles_non_finite() {
        let record = EvalRecord::new()
            .text("name", "a\"b\\c\nd")
            .float("bad", f64::NAN)
            .float("good", 1.5);
        let json = record.to_json();
        assert!(json.contains(r#""name": "a\"b\\c\nd""#), "{json}");
        assert!(json.contains(r#""bad": null"#));
        assert!(json.contains(r#""good": 1.5"#));
    }

    #[test]
    fn json_pins_the_exact_escaped_text() {
        let record = EvalRecord::new().text("k\"ey", "q\"b\\s\nn\u{1}c");
        assert_eq!(record.to_json(), r#"{"k\"ey": "q\"b\\s\nn\u0001c"}"#);
    }
}
