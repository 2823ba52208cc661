//! The benchmark against its own contract: every metric `BENCHMARK.json`
//! names is emitted, finite and with its unit, on every workload, traced
//! and untraced; and a falsified oracle answer fails the run.

use std::collections::BTreeMap;

use slab_perfbench::{report, run, Config, Sizes, Workload};

/// A JSON value: just enough of the grammar for `BENCHMARK.json` and the
/// benchmark's own result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                    assert_eq!(self.s[self.i - 1], b',');
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
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let Json::Arr(items) = Parser::parse(&text).get(section).clone() else {
        panic!("{section} is not an array")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        sizes: Sizes::tiny(),
        corrupt_oracle: false,
    }
}

#[test]
fn tiny_runs_emit_every_declared_metric_finite_with_its_unit() {
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let want = declared(section);
        for workload in Workload::ALL {
            let cfg = tiny(workload, trace);
            let result = run(&cfg);
            assert!(
                result.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                result.details
            );
            assert!(
                result.attempted > 0 && result.failed == 0,
                "{}",
                workload.name()
            );
            let line = Parser::parse(&report::result_line(&result));
            let Json::Obj(metrics) = line.get("metrics").clone() else {
                panic!("metrics object")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let Json::Num(v) = m.get("value") else {
                        panic!("{} {name}: value is not a finite number", workload.name())
                    };
                    assert!(v.is_finite());
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(got, want_sorted, "{} trace={trace}", workload.name());
            assert_eq!(line.get("correct"), &Json::Bool(true));
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let result = run(&tiny(workload, false));
        for m in &result.metrics {
            assert!(
                m.value > 0.0,
                "{} {} reads {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn a_falsified_oracle_answer_fails_the_run() {
    for workload in Workload::ALL {
        let cfg = Config {
            corrupt_oracle: true,
            ..tiny(workload, false)
        };
        let result = run(&cfg);
        assert!(
            !result.correct,
            "{}: corrupted oracle went unnoticed",
            workload.name()
        );
        assert!(result.failed > 0, "{}", workload.name());
        let line = Parser::parse(&report::result_line(&result));
        assert_eq!(line.get("correct"), &Json::Bool(false));
    }
}

#[test]
fn declared_workloads_are_the_benchmarks() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let Json::Arr(items) = Parser::parse(&text).get("workloads").clone() else {
        panic!()
    };
    let names: Vec<&str> = items.iter().map(|w| w.get("name").str()).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
