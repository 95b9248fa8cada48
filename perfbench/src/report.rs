//! The run's output: an info line describing the host and the samples,
//! then, as the last line of stdout, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

use crate::stats::Ops;

/// Metrics and context collected during one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric. A non-finite value is reported as 0 and fails the
    /// run when printed.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a numeric context entry to the info line.
    pub fn info_num(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), json_num(value)));
    }

    /// Adds a string context entry to the info line.
    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info.push((key.to_string(), json_str(value)));
    }

    /// Prints the info line, then the result line.
    pub fn print(self, ops: &mut Ops) {
        let mut info = String::from("{\"info\": {");
        for (i, (k, v)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(info, "{sep}{}: {v}", json_str(k));
        }
        info.push_str("}}");
        println!("{info}");

        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            ops.record(value.is_finite(), &format!("metric {name} is finite"));
            let v = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            ops.all_ok(),
            ops.attempted(),
            ops.failed()
        );
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives it.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
