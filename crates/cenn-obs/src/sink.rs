//! Streaming sinks: JSONL and CSV.

use std::io::{BufWriter, Write};
use std::path::Path;

use crate::json;
use crate::recorder::Recorder;
use crate::schema::{Event, FieldValue, LutLevel};

/// Streams one JSON object per event, newline-delimited.
///
/// In canonical mode (see [`Event::canonical`]) wall-clock fields are
/// zeroed before writing, making the emitted file byte-for-byte
/// reproducible — the mode the CI golden fixture uses.
pub struct JsonlSink<W: Write + Send> {
    out: W,
    canonical: bool,
    error: Option<std::io::Error>,
}

impl JsonlSink<BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file sink at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>, canonical: bool) -> std::io::Result<Self> {
        Ok(Self::new(
            BufWriter::new(std::fs::File::create(path)?),
            canonical,
        ))
    }

    /// Opens (creating if absent, appending if present) a JSONL file
    /// sink at `path` — the restart-recovery spelling: a rehydrated
    /// session keeps extending its pre-crash event log instead of
    /// erasing it.
    ///
    /// # Errors
    ///
    /// Propagates file-open errors.
    pub fn append(path: impl AsRef<Path>, canonical: bool) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::new(BufWriter::new(file), canonical))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer. `canonical` zeroes wall-clock fields on write.
    pub fn new(out: W, canonical: bool) -> Self {
        Self {
            out,
            canonical,
            error: None,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write + Send> Recorder for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = if self.canonical {
            event.canonical().to_jsonl()
        } else {
            event.to_jsonl()
        };
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// The fixed CSV header [`CsvSink`] writes: a flat union of the event
/// fields, with LUT levels flattened into per-level hit/miss columns.
/// Fields an event type does not carry are left empty.
pub const CSV_HEADER: &str = "event,schema,step,time,label,threads,cells,total_nanos,residual,\
l1_hits,l1_misses,l2_hits,l2_misses,dram_fetches,dram_points,\
conv_cycles,stall_cycles,dram_bytes,halo_bytes,primary_reads,support_reads,reg_moves,writebacks,\
energy_j,resident_bytes,spill_bytes,\
steps,accesses,mr_l1,mr_l2,mr_combined,peak_resident_bytes,kind,detail,count,value,\
phase,p50_nanos,p90_nanos,p99_nanos,max_nanos,session,system";

/// Streams one CSV row per event under the flat [`CSV_HEADER`] (written
/// on the first record). Same canonical-mode semantics as [`JsonlSink`].
pub struct CsvSink<W: Write + Send> {
    out: W,
    canonical: bool,
    wrote_header: bool,
    error: Option<std::io::Error>,
}

impl CsvSink<BufWriter<std::fs::File>> {
    /// Creates (truncating) a CSV file sink at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>, canonical: bool) -> std::io::Result<Self> {
        Ok(Self::new(
            BufWriter::new(std::fs::File::create(path)?),
            canonical,
        ))
    }
}

impl<W: Write + Send> CsvSink<W> {
    /// Wraps a writer. `canonical` zeroes wall-clock fields on write.
    pub fn new(out: W, canonical: bool) -> Self {
        Self {
            out,
            canonical,
            wrote_header: false,
            error: None,
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Projects an event onto [`CSV_HEADER`]: a field fills the column of
    /// its own name (a metric's `name` fills `label`), LUT levels flatten
    /// into the six hit/miss columns, and fields with no column (`sweeps`,
    /// `shards`, `buckets`, `corr`, `lut_counters`) stay JSONL-only.
    fn row(event: &Event) -> String {
        let header: Vec<&str> = CSV_HEADER.split(',').collect();
        let mut cols = vec![String::new(); header.len()];
        let mut set = |name: &str, cell: String| {
            if let Some(i) = header.iter().position(|h| *h == name) {
                cols[i] = cell;
            }
        };
        for (name, value) in event.fields() {
            match value {
                FieldValue::Str(s) if name == "name" => set("label", escape_csv(s)),
                FieldValue::Str(s) => set(name, escape_csv(s)),
                FieldValue::Lut(levels) => {
                    for l in levels {
                        let cells = match l.level {
                            LutLevel::L1 => [("l1_hits", l.hits), ("l1_misses", l.misses)],
                            LutLevel::L2 => [("l2_hits", l.hits), ("l2_misses", l.misses)],
                            LutLevel::Dram => {
                                [("dram_fetches", l.hits), ("dram_points", l.inserts)]
                            }
                        };
                        for (col, n) in cells {
                            set(col, n.to_string());
                        }
                    }
                }
                FieldValue::Sweeps(_) | FieldValue::Ints(_) => {}
                number => {
                    // The JSON writer's deterministic number format.
                    let mut cell = String::new();
                    json::value(&mut cell, number);
                    set(name, cell);
                }
            }
        }
        cols.join(",")
    }
}

fn escape_csv(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl<W: Write + Send> Recorder for CsvSink<W> {
    fn record(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        if !self.wrote_header {
            if let Err(e) = writeln!(self.out, "{CSV_HEADER}") {
                self.error = Some(e);
                return;
            }
            self.wrote_header = true;
        }
        let ev = if self.canonical {
            event.canonical()
        } else {
            event.clone()
        };
        if let Err(e) = writeln!(self.out, "{}", Self::row(&ev)) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{LutLevelMetrics, RunSummary, StepMetrics, SweepTiming};
    use crate::validate_jsonl_line;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Step(StepMetrics {
                step: 1,
                time: 0.1,
                threads: 1,
                cells: 16,
                total_nanos: 555,
                residual: 0.25,
                sweeps: vec![SweepTiming {
                    label: "dynamic".into(),
                    nanos: 500,
                }],
                lut: vec![
                    LutLevelMetrics {
                        level: LutLevel::L1,
                        hits: 3,
                        misses: 1,
                        inserts: 1,
                    },
                    LutLevelMetrics {
                        level: LutLevel::L2,
                        hits: 1,
                        misses: 0,
                        inserts: 0,
                    },
                    LutLevelMetrics {
                        level: LutLevel::Dram,
                        hits: 0,
                        misses: 0,
                        inserts: 0,
                    },
                ],
                shards: vec![4],
            }),
            Event::RunSummary(RunSummary {
                steps: 1,
                accesses: 4,
                ..RunSummary::default()
            }),
        ]
    }

    #[test]
    fn jsonl_sink_streams_valid_lines() {
        let mut sink = JsonlSink::new(Vec::new(), false);
        for e in sample_events() {
            sink.record(&e);
        }
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            validate_jsonl_line(line).unwrap();
        }
        assert!(text.contains("\"total_nanos\":555"));
    }

    #[test]
    fn canonical_jsonl_zeroes_wall_clock() {
        let mut sink = JsonlSink::new(Vec::new(), true);
        for e in sample_events() {
            sink.record(&e);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.contains("\"total_nanos\":0"));
        assert!(text.contains("\"nanos\":0"));
        assert!(!text.contains("555"));
    }

    /// One event of each of the seven kinds, with string fields that need
    /// escaping (a comma, a quote and a newline).
    fn one_of_each_kind() -> Vec<Event> {
        let levels = vec![
            LutLevelMetrics {
                level: LutLevel::L1,
                hits: 10,
                misses: 4,
                inserts: 4,
            },
            LutLevelMetrics {
                level: LutLevel::L2,
                hits: 3,
                misses: 1,
                inserts: 1,
            },
            LutLevelMetrics {
                level: LutLevel::Dram,
                hits: 1,
                misses: 0,
                inserts: 8,
            },
        ];
        vec![
            Event::Step(StepMetrics {
                step: 2,
                time: 0.25,
                threads: 3,
                cells: 64,
                total_nanos: 900,
                residual: 0.5,
                sweeps: vec![
                    SweepTiming {
                        label: "dynamic".into(),
                        nanos: 700,
                    },
                    SweepTiming {
                        label: "update".into(),
                        nanos: 200,
                    },
                ],
                lut: levels.clone(),
                shards: vec![6, 8],
            }),
            Event::MemTraffic(crate::MemTraffic {
                label: "ddr3, \"fast\"\nbank".into(),
                conv_cycles: 100.5,
                stall_cycles: 2.25,
                dram_bytes: 4096.0,
                halo_bytes: 128.0,
                primary_reads: 7,
                support_reads: 3,
                reg_moves: 56,
                writebacks: 64,
                energy_j: 1e-6,
                resident_bytes: 2048,
                spill_bytes: 512,
            }),
            Event::RunSummary(RunSummary {
                steps: 10,
                time: 1.0,
                threads: 2,
                cells: 640,
                total_nanos: 12345,
                accesses: 100,
                mr_l1: 0.25,
                mr_l2: 0.5,
                mr_combined: 0.125,
                residual: 0.0625,
                lut: levels,
                peak_resident_bytes: 4096,
                spill_bytes: 0,
                lut_counters: "totals-only".into(),
            }),
            Event::Guard(crate::GuardEvent {
                step: 10,
                kind: "scrub_repair".into(),
                detail: "func=0, idx=8".into(),
                count: 1,
                value: 1.5,
            }),
            Event::SpanSummary(crate::SpanSummary {
                phase: "template_apply".into(),
                count: 4,
                total_nanos: 1000,
                p50_nanos: 255,
                p90_nanos: 400,
                p99_nanos: 400,
                max_nanos: 400,
                buckets: vec![0, 0, 0, 0, 0, 0, 0, 1, 2, 1],
            }),
            Event::Session(crate::SessionEvent {
                session: 3,
                step: 20,
                kind: "stepped".into(),
                system: "fisher".into(),
                detail: "say \"hi\"".into(),
                count: 10,
                corr: 4,
            }),
            Event::Metric(crate::MetricSample {
                name: "serve.queue_depth".into(),
                kind: "gauge".into(),
                value: -3,
                count: 0,
                p50_nanos: 0,
                p99_nanos: 0,
            }),
        ]
    }

    #[test]
    fn every_event_kind_writes_its_full_jsonl_line_and_csv_row() {
        let mut jsonl = JsonlSink::new(Vec::new(), false);
        let mut csv = CsvSink::new(Vec::new(), false);
        for e in one_of_each_kind() {
            jsonl.record(&e);
            csv.record(&e);
        }
        let jsonl = String::from_utf8(jsonl.into_inner()).unwrap();
        let csv = String::from_utf8(csv.into_inner()).unwrap();
        let want_jsonl = concat!(
            r#"{"event":"step","schema":1,"step":2,"time":0.25,"threads":3,"cells":64,"#,
            r#""total_nanos":900,"residual":0.5,"sweeps":[{"label":"dynamic","nanos":700},"#,
            r#"{"label":"update","nanos":200}],"lut":[{"level":"l1","hits":10,"misses":4,"#,
            r#""inserts":4},{"level":"l2","hits":3,"misses":1,"inserts":1},{"level":"dram","#,
            r#""hits":1,"misses":0,"inserts":8}],"shards":[6,8]}"#,
            "\n",
            r#"{"event":"mem_traffic","schema":1,"label":"ddr3, \"fast\"\nbank","#,
            r#""conv_cycles":100.5,"stall_cycles":2.25,"dram_bytes":4096,"halo_bytes":128,"#,
            r#""primary_reads":7,"support_reads":3,"reg_moves":56,"writebacks":64,"#,
            r#""energy_j":0.000001,"resident_bytes":2048,"spill_bytes":512}"#,
            "\n",
            r#"{"event":"run_summary","schema":1,"steps":10,"time":1,"threads":2,"cells":640,"#,
            r#""total_nanos":12345,"accesses":100,"mr_l1":0.25,"mr_l2":0.5,"mr_combined":0.125,"#,
            r#""residual":0.0625,"lut":[{"level":"l1","hits":10,"misses":4,"inserts":4},"#,
            r#"{"level":"l2","hits":3,"misses":1,"inserts":1},{"level":"dram","hits":1,"#,
            r#""misses":0,"inserts":8}],"peak_resident_bytes":4096,"spill_bytes":0,"#,
            r#""lut_counters":"totals-only"}"#,
            "\n",
            r#"{"event":"guard","schema":1,"step":10,"kind":"scrub_repair","#,
            r#""detail":"func=0, idx=8","count":1,"value":1.5}"#,
            "\n",
            r#"{"event":"span_summary","schema":1,"phase":"template_apply","count":4,"#,
            r#""total_nanos":1000,"p50_nanos":255,"p90_nanos":400,"p99_nanos":400,"#,
            r#""max_nanos":400,"buckets":[0,0,0,0,0,0,0,1,2,1]}"#,
            "\n",
            r#"{"event":"session","schema":1,"session":3,"step":20,"kind":"stepped","#,
            r#""system":"fisher","detail":"say \"hi\"","count":10,"corr":4}"#,
            "\n",
            r#"{"event":"metric","schema":1,"name":"serve.queue_depth","kind":"gauge","#,
            r#""value":-3,"count":0,"p50_nanos":0,"p99_nanos":0}"#,
            "\n",
        );
        assert_eq!(jsonl, want_jsonl);
        for line in jsonl.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let want_csv = [
            CSV_HEADER,
            "step,1,2,0.25,,3,64,900,0.5,10,4,3,1,1,8,,,,,,,,,,,,,,,,,,,,,,,,,,,,",
            "mem_traffic,1,,,\"ddr3, \"\"fast\"\"\nbank\",,,,,,,,,,,100.5,2.25,4096,128,7,3,56,64,\
             0.000001,2048,512,,,,,,,,,,,,,,,,,",
            "run_summary,1,,1,,2,640,12345,0.0625,10,4,3,1,1,8,,,,,,,,,,,0,10,100,0.25,0.5,0.125,\
             4096,,,,,,,,,,,",
            "guard,1,10,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,scrub_repair,\"func=0, idx=8\",1,1.5,,,,,,,",
            "span_summary,1,,,,,,1000,,,,,,,,,,,,,,,,,,,,,,,,,,,4,,template_apply,255,400,400,400,,",
            "session,1,20,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,stepped,\"say \"\"hi\"\"\",10,,,,,,,3,fisher",
            "metric,1,,,serve.queue_depth,,,,,,,,,,,,,,,,,,,,,,,,,,,,gauge,,0,-3,,0,,0,,,",
            "",
        ]
        .join("\n");
        assert_eq!(csv, want_csv);
    }

    #[test]
    fn csv_sink_writes_header_and_aligned_rows() {
        let mut sink = CsvSink::new(Vec::new(), true);
        for e in sample_events() {
            sink.record(&e);
        }
        sink.record(&Event::MemTraffic(crate::MemTraffic {
            label: "ddr3, fast".into(),
            dram_bytes: 128.0,
            ..crate::MemTraffic::default()
        }));
        sink.flush().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let cols = CSV_HEADER.split(',').count();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("\"ddr3, fast\""), "{}", lines[3]);
        // Quoted comma must not change the column count.
        for line in &lines[1..] {
            let effective = line.replace("\"ddr3, fast\"", "x");
            assert_eq!(effective.split(',').count(), cols, "row misaligned: {line}");
        }
    }
}
