//! Self-tests of the benchmark: its printed metrics match
//! `BENCHMARK.json`, every workload runs clean at a reduced size, each
//! workload exercises the layers it claims to, and the seed reproduces
//! and varies the generated inputs.

use std::time::Duration;
use ubrc_perfbench::gate::{check_cell, references};
use ubrc_perfbench::metrics::{END_TO_END, PER_LAYER};
use ubrc_perfbench::workload::{generate, BenchWorkload, Layout, Size};
use ubrc_perfbench::{e2e, result_json, traced};

/// A parsed JSON value (just enough of JSON for `BENCHMARK.json`).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn arr(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected `{}` at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Value {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Value::Obj(pairs);
                }
                loop {
                    self.ws();
                    let Value::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    pairs.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Value::Obj(pairs);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Value::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Value::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Value::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                let word: String = self.s[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| c as char)
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    "null" => Value::Null,
                    w => panic!("unexpected word `{w}`"),
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Value::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }
}

fn parse(text: &str) -> Value {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing data after the JSON value");
    v
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root"))
}

#[test]
fn benchmark_json_lists_every_printed_metric_with_its_unit() {
    let doc = benchmark_json();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).expect("metric list present").arr();
        assert_eq!(listed.len(), defs.len(), "{key}: one entry per metric");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").unwrap().str(), def.name, "{key} order");
            assert_eq!(
                entry.get("unit").unwrap().str(),
                def.unit,
                "{} unit",
                def.name
            );
            assert_eq!(
                entry.get("better").unwrap().str(),
                def.better.as_str(),
                "{}",
                def.name
            );
        }
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .arr()
        .iter()
        .map(|w| w.get("name").unwrap().str())
        .collect();
    let ours: Vec<&str> = BenchWorkload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_layer_metric_names_the_end_to_end_metric_it_should_move() {
    for d in PER_LAYER {
        let moves = END_TO_END.iter().any(|e| d.meaning.contains(e.name));
        let diagnostic = d.meaning.starts_with("diagnostic");
        assert!(moves || diagnostic, "{}: `{}`", d.name, d.meaning);
    }
}

#[test]
fn result_line_prints_every_metric_with_its_unit() {
    let values: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
    let line = result_json(&values, 3, 0).to_string();
    let doc = parse(&line);
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(doc.get("attempted"), Some(&Value::Num(3.0)));
    assert_eq!(doc.get("failed"), Some(&Value::Num(0.0)));
    let metrics = doc.get("metrics").unwrap();
    for d in END_TO_END {
        let m = metrics.get(d.name).expect("metric printed");
        assert_eq!(m.get("unit").unwrap().str(), d.unit);
        assert_eq!(m.get("value"), Some(&Value::Num(1.5)));
    }
}

#[test]
fn every_workload_runs_clean_at_smoke_size() {
    for w in BenchWorkload::ALL {
        let layout = Layout::new(w, 3, Size::Smoke);
        let r = e2e::run(&layout, Duration::ZERO);
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        assert_eq!(r.cells_run, layout.cells.len());
        for v in [r.sim_insts_per_cpu_s, r.host_ns_per_cycle, r.setup_s] {
            assert!(v > 0.0 && v.is_finite(), "{}: {v}", w.name());
        }
        assert!(r.sim_ipc_geomean > 0.1, "{}", w.name());
        let (peak_mb, failures) = e2e::rss_probe(&layout);
        assert!(failures.is_empty() && peak_mb > 0.0, "{}", w.name());
    }
}

#[test]
fn the_gate_fails_rejected_cells_and_wrong_instruction_counts() {
    let mut layout = Layout::new(BenchWorkload::StUsebased, 3, Size::Smoke);
    layout.cells.truncate(2);
    // Fewer physical than architectural registers: the runner rejects it.
    layout.cells[0].config.phys_regs = 8;
    let r = e2e::run(&layout, Duration::ZERO);
    assert_eq!(r.cells_run, 2);
    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    assert!(r.failures[0].starts_with(&layout.cells[0].label));

    let programs = layout.generate();
    let mut refs = references(&programs);
    let cell = &layout.cells[1];
    let result = ubrc_sim::simulate(
        programs[cell.members[0]].assemble().unwrap(),
        cell.config.clone(),
    );
    assert!(check_cell(cell, Ok(&result), &refs).is_ok());
    refs[cell.members[0]] = Ok(result.retired + 1);
    let why = check_cell(cell, Ok(&result), &refs).unwrap_err();
    assert!(why.contains("functional run executed"), "{why}");
    refs[cell.members[0]] = Err("checks failed".into());
    assert!(check_cell(cell, Ok(&result), &refs).is_err());
}

#[test]
fn traced_runs_report_every_layer_and_exercise_what_they_claim() {
    for w in BenchWorkload::ALL {
        let r = traced::run(&Layout::new(w, 3, Size::Smoke), Duration::ZERO);
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        let names: Vec<&str> = r.metrics.iter().map(|&(n, _)| n).collect();
        let defined: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, defined, "{}", w.name());
        let get = |name: &str| r.metrics.iter().find(|&&(n, _)| n == name).unwrap().1;
        for (name, value) in &r.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{}: {name} = {value}",
                w.name()
            );
        }
        assert!(get("emu.steps_per_s") > 0.0);
        assert!(get("frontend.pred_ops_per_s") > 0.0);
        assert!(get("memsys.accesses_per_s") > 0.0);
        let cached = w != BenchWorkload::StMonolithic;
        for core in [
            "core.regcache_ops_per_s",
            "core.read_hit_ratio",
            "core.writes_filtered_ratio",
        ] {
            assert_eq!(get(core) > 0.0, cached, "{}: {core}", w.name());
        }
        if !cached {
            assert_eq!(get("core.backing_contention_per_kcycle"), 0.0);
        }
        let soft = w == BenchWorkload::SoftRecovery;
        assert_eq!(get("sim.recoveries") > 0.0, soft, "{}", w.name());
        assert_eq!(get("sim.machine_checks") > 0.0, soft, "{}", w.name());
        let spans = r.tracer.spans();
        for layer in [
            "workloads.generate",
            "isa.assemble",
            "emu.machine_new",
            "sim.construct",
            "sim.run_checked",
            "sim.stage.issue",
            "emu.run",
            "frontend.replay",
            "memsys.replay",
            "core.replay",
        ] {
            assert!(
                spans.iter().any(|s| s.name == layer),
                "{}: no {layer} span",
                w.name()
            );
        }
        for s in spans.iter().filter(|s| s.name.starts_with("sim.stage.")) {
            let parent = &spans[s.parent.expect("stage spans are nested")];
            assert_eq!(parent.name, "sim.run_checked");
            assert_eq!(parent.subject, s.subject);
        }
    }
}

#[test]
fn the_same_seed_reproduces_the_simulation_exactly() {
    for w in BenchWorkload::ALL {
        let a = e2e::run(&Layout::new(w, 11, Size::Smoke), Duration::ZERO);
        let b = e2e::run(&Layout::new(w, 11, Size::Smoke), Duration::ZERO);
        assert_eq!(
            a.sim_ipc_geomean.to_bits(),
            b.sim_ipc_geomean.to_bits(),
            "{}",
            w.name()
        );
        assert_eq!(a.sim_cycles, b.sim_cycles, "{}", w.name());
    }
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    for w in BenchWorkload::ALL {
        let a = generate(w, 11, Size::Smoke);
        let b = generate(w, 12, Size::Smoke);
        assert_eq!(a.len(), b.len());
        let differing = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.source != y.source)
            .count();
        assert!(
            differing > 0,
            "{}: seed does not reach the programs",
            w.name()
        );
        let plans = |seed| -> Vec<_> {
            Layout::new(w, seed, Size::Smoke)
                .cells
                .into_iter()
                .map(|c| c.config.fault_plan)
                .collect()
        };
        if w == BenchWorkload::SoftRecovery {
            assert_ne!(plans(11), plans(12), "seed does not reach the fault plans");
        }
    }
}
