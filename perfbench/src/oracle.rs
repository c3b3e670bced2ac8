//! The independent oracle: expected output from the DOM evaluator
//! (`twigm_baselines::inmem`), never from the engine under test, and the
//! check of a run's stdout against it.

use std::collections::HashMap;

use twigm::MultiTwigM;
use twigm_baselines::inmem::{Document, InMemEval};
use twigm_sax::{Event, SaxReader};

use crate::workload::{Mode, Workload};

/// What a correct run prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// Ids in any order (a single query): compared as a sorted list.
    Set(Vec<u64>),
    /// Ids in document order without duplicates (a union).
    Ordered(Vec<u64>),
    /// `Q<i>\t<id>` lines in any order (standing `-q` queries).
    Pairs(Vec<(usize, u64)>),
}

impl Expected {
    /// Number of result lines a correct run prints.
    pub fn len(&self) -> usize {
        match self {
            Expected::Set(v) | Expected::Ordered(v) => v.len(),
            Expected::Pairs(v) => v.len(),
        }
    }

    /// Whether the oracle found nothing (such a workload is refused).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The expectation as text: its kind, then the lines a correct run
    /// prints (in canonical order).
    pub fn to_text(&self) -> String {
        let (kind, lines): (&str, Vec<String>) = match self {
            Expected::Set(v) => ("set", v.iter().map(u64::to_string).collect()),
            Expected::Ordered(v) => ("ordered", v.iter().map(u64::to_string).collect()),
            Expected::Pairs(v) => (
                "pairs",
                v.iter().map(|(q, id)| format!("Q{q}\t{id}")).collect(),
            ),
        };
        let mut text = format!("{kind}\n");
        for line in lines {
            text.push_str(&line);
            text.push('\n');
        }
        text
    }

    /// Parses [`Expected::to_text`]'s output.
    pub fn from_text(text: &str) -> Result<Expected, String> {
        let (kind, body) = text.split_once('\n').ok_or("empty expectation")?;
        match kind {
            "set" => Ok(Expected::Set(parse_ids(body)?)),
            "ordered" => Ok(Expected::Ordered(parse_ids(body)?)),
            "pairs" => Ok(Expected::Pairs(parse_pairs(body)?)),
            other => Err(format!("unknown expectation kind {other:?}")),
        }
    }

    /// Checks `stdout` against the expectation.
    pub fn check(&self, stdout: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(stdout).map_err(|_| "stdout is not UTF-8".to_string())?;
        match self {
            Expected::Set(want) => {
                let mut got = parse_ids(text)?;
                got.sort_unstable();
                compare(want, &got)
            }
            Expected::Ordered(want) => compare(want, &parse_ids(text)?),
            Expected::Pairs(want) => {
                let mut got = parse_pairs(text)?;
                got.sort_unstable();
                compare(want, &got)
            }
        }
    }
}

fn compare<T: PartialEq + std::fmt::Debug>(want: &[T], got: &[T]) -> Result<(), String> {
    if want == got {
        return Ok(());
    }
    let at = want.iter().zip(got).position(|(a, b)| a != b);
    Err(match at {
        Some(i) => format!(
            "line {i}: expected {:?}, got {:?} ({} vs {} lines)",
            want[i],
            got[i],
            want.len(),
            got.len()
        ),
        None => format!("expected {} lines, got {}", want.len(), got.len()),
    })
}

fn parse_ids(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .map(|l| l.parse().map_err(|_| format!("not an id: {l:?}")))
        .collect()
}

/// Parses one `Q<i>\t<id>` line.
pub fn parse_pair(line: &str) -> Option<(usize, u64)> {
    let (q, id) = line.strip_prefix('Q')?.split_once('\t')?;
    Some((q.parse().ok()?, id.parse().ok()?))
}

fn parse_pairs(text: &str) -> Result<Vec<(usize, u64)>, String> {
    text.lines()
        .map(|l| parse_pair(l).ok_or_else(|| format!("not a Q<i>\\t<id> line: {l:?}")))
        .collect()
}

/// Computes the expected output of `workload` on `xml` with the DOM
/// evaluator.
pub fn expected(workload: &Workload, xml: &[u8]) -> Result<Expected, String> {
    let doc = Document::parse_bytes(xml).map_err(|e| format!("oracle parse: {e}"))?;
    let mut eval = InMemEval::new(&doc);
    let mut per_query = Vec::new();
    for text in &workload.queries {
        let query = twigm_xpath::parse(text).map_err(|e| format!("{text}: {e}"))?;
        per_query.push(
            eval.evaluate(&query)
                .into_iter()
                .map(|id| id.get())
                .collect::<Vec<u64>>(),
        );
    }
    Ok(match workload.mode {
        Mode::Path => {
            let mut ids = per_query.concat();
            ids.sort_unstable();
            Expected::Set(ids)
        }
        Mode::Union | Mode::UnionThreaded => {
            let mut ids = per_query.concat();
            ids.sort_unstable();
            ids.dedup();
            Expected::Ordered(ids)
        }
        Mode::Feed => {
            let mut pairs: Vec<(usize, u64)> = per_query
                .iter()
                .enumerate()
                .flat_map(|(q, ids)| ids.iter().map(move |&id| (q, id)))
                .collect();
            pairs.sort_unstable();
            Expected::Pairs(pairs)
        }
    })
}

/// For each `(Qi, id)` result of the standing queries, the index of the
/// input byte at which it became decided: the last byte of the event
/// after which `take_tagged_results` first returned it.
pub fn decision_bytes(
    workload: &Workload,
    xml: &[u8],
) -> Result<HashMap<(usize, u64), u64>, String> {
    let mut engine = MultiTwigM::new();
    for text in &workload.queries {
        let query = twigm_xpath::parse(text).map_err(|e| format!("{text}: {e}"))?;
        engine.add_query(&query).map_err(|e| e.to_string())?;
    }
    let mut decided = HashMap::new();
    let mut reader = SaxReader::from_bytes(xml);
    loop {
        let event = reader.next_event().map_err(|e| e.to_string())?;
        let Some(event) = event else { break };
        match event {
            Event::Start(tag) => {
                let sym = engine.symbols().lookup(tag.name());
                let mut attrs = Vec::new();
                if engine.needs_attributes(sym) {
                    for a in tag.attributes() {
                        attrs.push(a.map_err(|e| e.to_string())?);
                    }
                }
                engine.start_element_sym(sym, &attrs, tag.level(), tag.id());
            }
            Event::End(tag) => {
                let sym = engine.symbols().lookup(tag.name());
                engine.end_element_sym(sym, tag.level());
            }
            Event::Text(text) => engine.text(&text),
            _ => {}
        }
        let last_byte = reader.offset().saturating_sub(1);
        for r in engine.take_tagged_results() {
            decided.entry((r.query, r.node.get())).or_insert(last_byte);
        }
    }
    Ok(decided)
}
