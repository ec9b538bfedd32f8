//! In-memory span recorder for the traced run.
//!
//! One span per call into a layer: layer name, start, end, the request
//! index as the id spans of one request share, and the session (or
//! pass) as the parent. Spans are recorded from the benchmark's own
//! files, around the calls into each crate's public functions; nothing
//! inside the program is instrumented. The first [`RAW_CAP`] spans of a
//! layer are kept raw, the rest only aggregated; the file is written
//! when the run ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Raw spans kept per layer; later ones are only counted and summed.
pub const RAW_CAP: usize = 200_000;

/// Handle to one layer of a [`Spans`] recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerId(usize);

#[derive(Debug)]
struct Layer {
    name: String,
    /// `(start_ns, end_ns, request, parent)`.
    raw: Vec<(u64, u64, u32, u32)>,
    count: u64,
    total_ns: u64,
}

/// The recorder.
#[derive(Debug, Default)]
pub struct Spans {
    layers: Vec<Layer>,
}

impl Spans {
    /// Registers (or finds) a layer by name.
    pub fn layer(&mut self, name: &str) -> LayerId {
        if let Some(i) = self.layers.iter().position(|l| l.name == name) {
            return LayerId(i);
        }
        self.layers.push(Layer {
            name: name.to_string(),
            raw: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        LayerId(self.layers.len() - 1)
    }

    /// Records one span.
    #[inline]
    pub fn record(
        &mut self,
        layer: LayerId,
        start_ns: u64,
        end_ns: u64,
        request: u32,
        parent: u32,
    ) {
        let l = &mut self.layers[layer.0];
        l.count += 1;
        l.total_ns += end_ns.saturating_sub(start_ns);
        if l.raw.len() < RAW_CAP {
            l.raw.push((start_ns, end_ns, request, parent));
        }
    }

    /// Moves every layer of `other` into this recorder (same-named
    /// layers merge; raw spans still capped).
    pub fn absorb(&mut self, other: Spans) {
        for layer in other.layers {
            let id = self.layer(&layer.name);
            let l = &mut self.layers[id.0];
            l.count += layer.count;
            l.total_ns += layer.total_ns;
            let room = RAW_CAP - l.raw.len();
            l.raw.extend(layer.raw.into_iter().take(room));
        }
    }

    /// Writes the span file: one JSON object, spans as
    /// `[start_ns, end_ns, request, parent]` rows per layer.
    pub fn write_file(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(File::create(path)?);
        self.write_json(&mut w, workload, seed)?;
        // A dropped BufWriter swallows write errors; flush to see them.
        w.flush()
    }

    /// Serialises the span document into `w`.
    pub fn write_json(&self, w: &mut impl Write, workload: &str, seed: u64) -> io::Result<()> {
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"raw_cap\": {RAW_CAP}, \"layers\": ["
        )?;
        for (i, l) in self.layers.iter().enumerate() {
            write!(
                w,
                "{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"spans\": [",
                l.name, l.count, l.total_ns
            )?;
            for (j, (s, e, r, p)) in l.raw.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                write!(w, "{sep}[{s},{e},{r},{p}]")?;
            }
            let sep = if i + 1 == self.layers.len() { "" } else { "," };
            writeln!(w, "]}}{sep}")?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn records_aggregates_and_caps() {
        let mut spans = Spans::default();
        let a = spans.layer("solver.run");
        assert_eq!(spans.layer("solver.run"), a);
        for i in 0..(RAW_CAP as u64 + 5) {
            spans.record(a, i, i + 2, i as u32, 0);
        }
        assert_eq!(spans.layers[0].count, RAW_CAP as u64 + 5);
        assert_eq!(spans.layers[0].total_ns, 2 * (RAW_CAP as u64 + 5));
        assert_eq!(spans.layers[0].raw.len(), RAW_CAP);
    }

    #[test]
    fn span_file_is_valid_json() {
        let mut spans = Spans::default();
        let a = spans.layer("snapstore.get");
        let b = spans.layer("snapstore.put");
        spans.record(a, 10, 30, 7, 1);
        spans.record(b, 30, 90, 7, 1);
        spans.record(b, 100, 110, 8, 1);
        let mut other = Spans::default();
        let c = other.layer("snapstore.put");
        other.record(c, 1, 2, 9, 2);
        spans.absorb(other);
        let mut text = Vec::new();
        spans.write_json(&mut text, "svc.tree", 3).unwrap();
        let doc = Json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let layers = doc.get("layers").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[1].get("count").unwrap().as_f64(), Some(3.0));
        assert_eq!(layers[1].get("total_ns").unwrap().as_f64(), Some(71.0));
        let first = layers[0].get("spans").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap();
        assert_eq!(first[2].as_f64(), Some(7.0), "request id is shared");
    }
}
