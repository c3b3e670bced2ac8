//! The in-memory baseline (Galax / XMLTaskForce class) and differential
//! oracle.
//!
//! [`Document`] parses the whole XML input into an arena DOM;
//! [`InMemEval`] evaluates `XP{/,//,*,[]}` over it with straightforward
//! random-access recursion. The evaluator is polynomial (each
//! (node, query-node) pair is decided at most once thanks to a memo
//! table) and obviously correct, which makes it the oracle the property
//! tests compare every streaming engine against. Its resource profile —
//! memory a small multiple of document size, no output before the end of
//! parsing — is exactly what figures 8 and 10 of the paper show for the
//! non-streaming systems.

use std::io::Read;

use twigm::fxhash::FxHashMap;
use twigm_sax::{Event, NodeId, SaxError, SaxReader};
use twigm_xpath::{Axis, CmpOp, Literal, NameTest, Path, PredExpr, Step, StrFunc, Value};

/// One element node in the arena DOM.
#[derive(Debug, Clone)]
pub struct DomNode {
    /// Element tag.
    pub tag: String,
    /// Depth (root element = 1).
    pub level: u32,
    /// Pre-order id, identical to the id the SAX reader assigns.
    pub id: NodeId,
    /// Parent element, `None` for the root.
    pub parent: Option<usize>,
    /// Child elements in document order.
    pub children: Vec<usize>,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Concatenated direct text content.
    pub text: String,
}

/// An XML document parsed entirely into memory.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<DomNode>,
}

impl Document {
    /// Parses a complete document from a reader.
    pub fn parse<R: Read>(src: R) -> Result<Document, SaxError> {
        let mut nodes: Vec<DomNode> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut reader = SaxReader::new(src);
        while let Some(event) = reader.next_event()? {
            match event {
                Event::Start(tag) => {
                    let index = nodes.len();
                    let parent = stack.last().copied();
                    let attrs = tag
                        .attributes()
                        .map(|a| a.map(|a| (a.name.to_string(), a.value.into_owned())))
                        .collect::<Result<_, _>>()?;
                    nodes.push(DomNode {
                        tag: tag.name().to_string(),
                        level: tag.level(),
                        id: tag.id(),
                        parent,
                        children: Vec::new(),
                        attrs,
                        text: String::new(),
                    });
                    if let Some(p) = parent {
                        nodes[p].children.push(index);
                    }
                    stack.push(index);
                }
                Event::End(_) => {
                    stack.pop();
                }
                Event::Text(text) => {
                    if let Some(&top) = stack.last() {
                        nodes[top].text.push_str(&text);
                    }
                }
                Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
            }
        }
        Ok(Document { nodes })
    }

    /// Parses an in-memory document.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Document, SaxError> {
        Self::parse(bytes)
    }

    /// All nodes, in document order.
    pub fn nodes(&self) -> &[DomNode] {
        &self.nodes
    }

    /// Number of element nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a document with no elements (cannot be produced by
    /// parsing, which requires a root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maximum element depth.
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Is any tag repeated along a root-to-leaf path (the paper's
    /// definition of *recursive* data)?
    pub fn is_recursive(&self) -> bool {
        self.nodes.iter().any(|n| {
            let mut cursor = n.parent;
            while let Some(p) = cursor {
                if self.nodes[p].tag == n.tag {
                    return true;
                }
                cursor = self.nodes[p].parent;
            }
            false
        })
    }
}

/// A string test applied by a predicate terminal.
#[derive(Clone, Copy)]
enum Test<'a> {
    Exists,
    Cmp(CmpOp, &'a Literal),
    Fn(StrFunc, &'a str),
}

/// The random-access evaluator.
pub struct InMemEval<'d> {
    doc: &'d Document,
    /// Memo for predicate-chain checks: (query-step identity, node) →
    /// verdict. The step identity is its address within the query, which
    /// is stable for the lifetime of the evaluation.
    memo: FxHashMap<(usize, usize), bool>,
}

impl<'d> InMemEval<'d> {
    /// Creates an evaluator for one document.
    pub fn new(doc: &'d Document) -> Self {
        InMemEval {
            doc,
            memo: FxHashMap::default(),
        }
    }

    /// Evaluates an absolute query, returning matching element ids in
    /// document order.
    pub fn evaluate(&mut self, query: &Path) -> Vec<NodeId> {
        // The memo is keyed on step addresses within `query`; a previous
        // call may have memoized a different query whose steps could
        // share addresses after a drop.
        self.memo.clear();
        // Current frontier: indices of nodes matching the query prefix.
        let mut frontier: Vec<usize> = Vec::new();
        for (i, step) in query.steps.iter().enumerate() {
            let next: Vec<usize> = if i == 0 {
                // Relative to the virtual document root (level 0).
                self.doc
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| match step.axis {
                        Axis::Child => n.level == 1,
                        Axis::Descendant => true,
                    })
                    .filter(|(_, n)| step.test.matches(&n.tag))
                    .map(|(idx, _)| idx)
                    .collect()
            } else {
                // Mark descendants / children of the frontier.
                let mut marked = vec![false; self.doc.nodes.len()];
                for &f in &frontier {
                    match step.axis {
                        Axis::Child => {
                            for &c in &self.doc.nodes[f].children {
                                marked[c] = true;
                            }
                        }
                        Axis::Descendant => mark_descendants(self.doc, f, &mut marked),
                    }
                }
                marked
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .filter(|(idx, _)| step.test.matches(&self.doc.nodes[*idx].tag))
                    .map(|(idx, _)| idx)
                    .collect()
            };
            frontier = next
                .into_iter()
                .filter(|&idx| self.step_predicates_hold(step, idx))
                .collect();
            if frontier.is_empty() {
                break;
            }
        }
        // A trailing `/@attr` selector keeps only elements carrying the
        // attribute (the id returned is the owner element's, matching
        // the streaming engines).
        if let Some(attr) = &query.attr {
            frontier.retain(|&idx| self.doc.nodes[idx].attrs.iter().any(|(k, _)| k == attr));
        }
        frontier.sort_unstable();
        frontier
            .into_iter()
            .map(|idx| self.doc.nodes[idx].id)
            .collect()
    }

    fn step_predicates_hold(&mut self, step: &Step, node: usize) -> bool {
        step.predicates
            .iter()
            .all(|p| self.pred_holds(p, node, step))
    }

    fn pred_holds(&mut self, pred: &PredExpr, node: usize, step: &Step) -> bool {
        match pred {
            PredExpr::And(a, b) => self.pred_holds(a, node, step) && self.pred_holds(b, node, step),
            PredExpr::Or(a, b) => self.pred_holds(a, node, step) || self.pred_holds(b, node, step),
            PredExpr::Exists(value) => self.value_holds(value, node, Test::Exists),
            PredExpr::Compare(value, op, lit) => self.value_holds(value, node, Test::Cmp(*op, lit)),
            PredExpr::StrFn(func, value, arg) => {
                self.value_holds(value, node, Test::Fn(*func, arg))
            }
            PredExpr::Position(n) => self.position_of(node, &step.test) == *n,
            PredExpr::Not(inner) => !self.pred_holds(inner, node, step),
            PredExpr::CountCmp(value, op, n) => {
                let count = self.value_targets(value, node).len();
                op.eval_f64(count as f64, *n as f64)
            }
        }
    }

    /// 1-based position of `node` among its siblings matching `test`
    /// (1 for the document root).
    fn position_of(&self, node: usize, test: &NameTest) -> u32 {
        let Some(parent) = self.doc.nodes[node].parent else {
            return 1;
        };
        let mut position = 0;
        for &c in &self.doc.nodes[parent].children {
            if test.matches(&self.doc.nodes[c].tag) {
                position += 1;
            }
            if c == node {
                return position;
            }
        }
        unreachable!("node is among its parent's children")
    }

    /// Does `value`, relative to `node`, select something (and satisfy
    /// the test, when given)?
    fn value_holds(&mut self, value: &Value, node: usize, test: Test<'_>) -> bool {
        let string_test = |s: &str| match test {
            Test::Exists => true,
            Test::Cmp(op, lit) => op.eval(s, lit),
            Test::Fn(func, arg) => func.eval(s, arg),
        };
        self.value_targets(value, node).into_iter().any(|target| {
            if let Some(attr) = &value.attr {
                self.doc.nodes[target]
                    .attrs
                    .iter()
                    .any(|(k, v)| k == attr && string_test(v))
            } else if value.text || !matches!(test, Test::Exists) {
                let text = &self.doc.nodes[target].text;
                !text.is_empty() && string_test(text)
            } else {
                true
            }
        })
    }

    /// The elements selected by the value's relative path (the context
    /// node itself when the path is empty).
    fn value_targets(&mut self, value: &Value, node: usize) -> Vec<usize> {
        let mut frontier = vec![node];
        for step in &value.steps {
            let mut next = Vec::new();
            for &f in &frontier {
                match step.axis {
                    Axis::Child => {
                        for &c in &self.doc.nodes[f].children {
                            if step.test.matches(&self.doc.nodes[c].tag) {
                                next.push(c);
                            }
                        }
                    }
                    Axis::Descendant => {
                        collect_descendants(self.doc, f, &step.test, &mut next);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            // Apply nested predicates with memoization keyed on the
            // step's address.
            let key = step as *const Step as usize;
            let mut filtered = Vec::with_capacity(next.len());
            for idx in next {
                let verdict = match self.memo.get(&(key, idx)) {
                    Some(&v) => v,
                    None => {
                        let v = self.step_predicates_hold(step, idx);
                        self.memo.insert((key, idx), v);
                        v
                    }
                };
                if verdict {
                    filtered.push(idx);
                }
            }
            frontier = filtered;
            if frontier.is_empty() {
                break;
            }
        }
        frontier
    }
}

fn mark_descendants(doc: &Document, node: usize, marked: &mut [bool]) {
    for &c in &doc.nodes[node].children {
        if !marked[c] {
            marked[c] = true;
            mark_descendants(doc, c, marked);
        }
    }
}

fn collect_descendants(doc: &Document, node: usize, test: &NameTest, out: &mut Vec<usize>) {
    for &c in &doc.nodes[node].children {
        if test.matches(&doc.nodes[c].tag) {
            out.push(c);
        }
        collect_descendants(doc, c, test, out);
    }
}

/// Convenience: parse and evaluate in one call.
pub fn evaluate_in_memory(query: &Path, xml: &[u8]) -> Result<Vec<NodeId>, SaxError> {
    let doc = Document::parse_bytes(xml)?;
    Ok(InMemEval::new(&doc).evaluate(query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::parse;

    fn run(query: &str, xml: &str) -> Vec<u64> {
        evaluate_in_memory(&parse(query).unwrap(), xml.as_bytes())
            .unwrap()
            .into_iter()
            .map(NodeId::get)
            .collect()
    }

    #[test]
    fn document_structure() {
        let doc = Document::parse_bytes(b"<a x=\"1\"><b>t1</b>t0<b/></a>").unwrap();
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.depth(), 2);
        assert!(!doc.is_recursive());
        let root = &doc.nodes()[0];
        assert_eq!(root.tag, "a");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.text, "t0");
        assert_eq!(root.attrs, vec![("x".to_string(), "1".to_string())]);
        assert_eq!(doc.nodes()[1].text, "t1");
    }

    #[test]
    fn recursion_detection() {
        assert!(Document::parse_bytes(b"<a><b><a/></b></a>")
            .unwrap()
            .is_recursive());
        assert!(!Document::parse_bytes(b"<a><b><c/></b></a>")
            .unwrap()
            .is_recursive());
    }

    #[test]
    fn basic_paths() {
        let xml = "<r><a><b/></a><a/><c><a><b/></a></c></r>";
        assert_eq!(run("//a/b", xml).len(), 2);
        assert_eq!(run("/r/a", xml).len(), 2);
        assert_eq!(run("//a", xml).len(), 3);
        assert_eq!(run("/r/*/a", xml).len(), 1);
    }

    #[test]
    fn results_in_document_order() {
        let xml = "<r><b/><a><b/></a><b/></r>";
        assert_eq!(run("//b", xml), vec![1, 3, 4]);
    }

    #[test]
    fn predicates() {
        let xml = "<r><a><d/><c/></a><a><c/></a></r>";
        assert_eq!(run("//a[d]/c", xml).len(), 1);
        assert_eq!(run("//a[d or c]/c", xml).len(), 2);
        assert_eq!(run("//a[d and c]/c", xml).len(), 1);
    }

    #[test]
    fn value_predicates() {
        let xml = r#"<r><i p="5">x</i><i p="9">y</i><i>y</i></r>"#;
        assert_eq!(run("//i[@p > 4]", xml).len(), 2);
        assert_eq!(run("//i[@p = '5']", xml).len(), 1);
        assert_eq!(run("//i[text() = 'y']", xml).len(), 2);
        assert_eq!(run("//i[text() != 'y']", xml).len(), 1);
    }

    #[test]
    fn nested_and_deep_value_paths() {
        let xml = r#"<r><a><b><c id="k">7</c></b></a><a><b/></a></r>"#;
        assert_eq!(run("//a[b/c/@id = 'k']", xml).len(), 1);
        assert_eq!(run("//a[b[c]]", xml).len(), 1);
        assert_eq!(run("//a[b/c < 10]", xml).len(), 1);
        assert_eq!(run("//a[.//c]", xml).len(), 1);
    }

    #[test]
    fn paper_figure1_example() {
        let xml = "<a><a><b><b><c/><e/></b></b><d/></a></a>";
        // e is under the inner b (b2), d under the inner a (a2): the
        // match (a2, b2, c1) satisfies; c1 selected.
        assert_eq!(run("//a[d]//b[e]//c", xml).len(), 1);
    }

    #[test]
    fn empty_results() {
        assert!(run("//zzz", "<r/>").is_empty());
        assert!(run("/a/b", "<r><b/></r>").is_empty());
    }
}
