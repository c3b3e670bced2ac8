//! The query-tree AST for `XP{/,//,*,[]}`.

use std::fmt;

/// The axis connecting a step to its context: `/` (child) or `//`
/// (descendant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `/` — the step matches children of the context node.
    Child,
    /// `//` — the step matches descendants at any depth.
    Descendant,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Child => f.write_str("/"),
            Axis::Descendant => f.write_str("//"),
        }
    }
}

/// A node test: a tag name or the wildcard `*`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NameTest {
    /// Match a specific element tag.
    Tag(String),
    /// `*` — match any element.
    Wildcard,
}

impl NameTest {
    /// Does this test accept the given element tag?
    pub fn matches(&self, tag: &str) -> bool {
        match self {
            NameTest::Tag(t) => t == tag,
            NameTest::Wildcard => true,
        }
    }

    /// The tag if this is a specific name test.
    pub fn tag(&self) -> Option<&str> {
        match self {
            NameTest::Tag(t) => Some(t),
            NameTest::Wildcard => None,
        }
    }
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Tag(t) => f.write_str(t),
            NameTest::Wildcard => f.write_str("*"),
        }
    }
}

/// One location step: axis, name test, and predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis connecting this step to the previous one (for the first
    /// step of an absolute path: to the document root).
    pub axis: Axis,
    /// The name test.
    pub test: NameTest,
    /// Zero or more predicates, all of which must hold (conjunction).
    pub predicates: Vec<PredExpr>,
}

impl Step {
    /// A predicate-free step.
    pub fn new(axis: Axis, test: NameTest) -> Self {
        Step {
            axis,
            test,
            predicates: Vec::new(),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.test)?;
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// A comparison operator in a value test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on string operands with XPath-style
    /// coercion: if both operands parse as numbers the comparison is
    /// numeric; otherwise `=`/`!=` compare strings and the relational
    /// operators are false.
    pub fn eval(self, lhs: &str, rhs: &Literal) -> bool {
        match rhs {
            Literal::Number(n) => match lhs.trim().parse::<f64>() {
                Ok(l) => self.eval_num(l, *n),
                Err(_) => false,
            },
            Literal::String(s) => match self {
                CmpOp::Eq => lhs == s,
                CmpOp::Ne => lhs != s,
                _ => match (lhs.trim().parse::<f64>(), s.trim().parse::<f64>()) {
                    (Ok(l), Ok(r)) => self.eval_num(l, r),
                    _ => false,
                },
            },
        }
    }

    /// Numeric comparison (used by `count()` conditions).
    pub fn eval_f64(self, l: f64, r: f64) -> bool {
        self.eval_num(l, r)
    }

    fn eval_num(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

/// A literal operand of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A quoted string.
    String(String),
    /// An unquoted number.
    Number(f64),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::String(s) => write!(f, "'{s}'"),
            Literal::Number(n) => write!(f, "{n}"),
        }
    }
}

/// The value side of a predicate term: what node-set or string the term
/// refers to, relative to the context element.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Relative path steps from the context element (may be empty, in
    /// which case `attr`/`text` apply to the context element itself).
    pub steps: Vec<Step>,
    /// A trailing attribute selector `@name`.
    pub attr: Option<String>,
    /// A trailing `text()` selector.
    pub text: bool,
}

impl Value {
    /// A bare relative path (existence of a matching element).
    pub fn path(steps: Vec<Step>) -> Self {
        Value {
            steps,
            attr: None,
            text: false,
        }
    }

    /// An attribute of the context element.
    pub fn attr(name: impl Into<String>) -> Self {
        Value {
            steps: Vec::new(),
            attr: Some(name.into()),
            text: false,
        }
    }

    /// The text of the context element.
    pub fn text() -> Self {
        Value {
            steps: Vec::new(),
            attr: None,
            text: true,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for step in &self.steps {
            if first {
                // A relative path's first `/` is implicit; `//` is not.
                if step.axis == Axis::Descendant {
                    f.write_str(".//")?;
                }
                first = false;
            } else {
                write!(f, "{}", step.axis)?;
            }
            write!(f, "{step}")?;
        }
        if let Some(attr) = &self.attr {
            if !self.steps.is_empty() {
                f.write_str("/")?;
            }
            write!(f, "@{attr}")?;
        } else if self.text {
            if !self.steps.is_empty() {
                f.write_str("/")?;
            }
            f.write_str("text()")?;
        }
        Ok(())
    }
}

/// A string function usable in predicates (XPath 1.0 core functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrFunc {
    /// `contains(x, 'lit')`
    Contains,
    /// `starts-with(x, 'lit')`
    StartsWith,
    /// `ends-with(x, 'lit')` (XPath 2.0, widely supported)
    EndsWith,
}

impl StrFunc {
    /// Applies the function.
    pub fn eval(self, haystack: &str, needle: &str) -> bool {
        match self {
            StrFunc::Contains => haystack.contains(needle),
            StrFunc::StartsWith => haystack.starts_with(needle),
            StrFunc::EndsWith => haystack.ends_with(needle),
        }
    }

    /// The function's XPath name.
    pub fn name(self) -> &'static str {
        match self {
            StrFunc::Contains => "contains",
            StrFunc::StartsWith => "starts-with",
            StrFunc::EndsWith => "ends-with",
        }
    }
}

impl fmt::Display for StrFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PredExpr {
    /// Existential test: the value designates at least one node
    /// (element / attribute / non-empty text).
    Exists(Value),
    /// Value comparison: some node designated by the value satisfies the
    /// comparison with the literal.
    Compare(Value, CmpOp, Literal),
    /// A string-function test: some node designated by the value has a
    /// string satisfying the function.
    StrFn(StrFunc, Value, String),
    /// A positional test `[n]`: the element is the n-th sibling matching
    /// the step (child-axis steps only; 1-based).
    Position(u32),
    /// Negation: `not(expr)`. Sound in streaming evaluation because a
    /// branch match is final when the element's end tag arrives.
    Not(Box<PredExpr>),
    /// A node-count comparison: `count(path) >= 3`.
    CountCmp(Value, CmpOp, u32),
    /// Conjunction.
    And(Box<PredExpr>, Box<PredExpr>),
    /// Disjunction.
    Or(Box<PredExpr>, Box<PredExpr>),
}

impl fmt::Display for PredExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredExpr::Exists(v) => write!(f, "{v}"),
            PredExpr::Compare(v, op, lit) => write!(f, "{v} {op} {lit}"),
            PredExpr::StrFn(func, v, arg) => write!(f, "{func}({v}, '{arg}')"),
            PredExpr::Position(n) => write!(f, "{n}"),
            PredExpr::Not(inner) => write!(f, "not({inner})"),
            PredExpr::CountCmp(v, op, n) => write!(f, "count({v}) {op} {n}"),
            PredExpr::And(a, b) => write!(f, "({a} and {b})"),
            PredExpr::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

/// An absolute `XP{/,//,*,[]}` query: `/step/step//step...`. The last
/// step is the *return node* (the paper's `sol`).
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The location steps, outermost first. Never empty.
    pub steps: Vec<Step>,
    /// A trailing attribute selector: `//a/@href` returns, for each
    /// element matched by the steps, the element's id when the attribute
    /// is present (the paper's implementation "supports attributes as
    /// well as elements", footnote 2). `None` for element queries.
    pub attr: Option<String>,
}

impl Path {
    /// A plain element path.
    pub fn new(steps: Vec<Step>) -> Self {
        Path { steps, attr: None }
    }

    /// The return-node step (the paper's `sol`).
    pub fn return_step(&self) -> &Step {
        self.steps.last().expect("paths have at least one step")
    }

    /// True if no step anywhere (including nested predicates) has a
    /// predicate — i.e. the query is in `XP{/,//,*}`, the class a DFA
    /// can evaluate.
    /// A trailing attribute selector counts as a predicate (it must be
    /// checked per element).
    pub fn is_predicate_free(&self) -> bool {
        self.attr.is_none() && self.steps.iter().all(|s| s.predicates.is_empty())
    }

    /// Total number of query-tree nodes (steps plus predicate steps),
    /// the paper's `|Q|`.
    pub fn size(&self) -> usize {
        fn value_size(v: &Value) -> usize {
            v.steps.iter().map(step_size).sum::<usize>()
                + usize::from(v.attr.is_some())
                + usize::from(v.text)
        }
        fn expr_size(e: &PredExpr) -> usize {
            match e {
                PredExpr::Exists(v) => value_size(v),
                PredExpr::Compare(v, _, _) => value_size(v).max(1),
                PredExpr::StrFn(_, v, _) => value_size(v).max(1),
                PredExpr::Position(_) => 1,
                PredExpr::Not(inner) => expr_size(inner),
                PredExpr::CountCmp(v, _, _) => value_size(v).max(1),
                PredExpr::And(a, b) | PredExpr::Or(a, b) => expr_size(a) + expr_size(b),
            }
        }
        fn step_size(s: &Step) -> usize {
            1 + s.predicates.iter().map(expr_size).sum::<usize>()
        }
        self.steps.iter().map(step_size).sum::<usize>() + usize::from(self.attr.is_some())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            write!(f, "{}{step}", step.axis)?;
        }
        if let Some(attr) = &self.attr {
            write!(f, "/@{attr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(axis: Axis, tag: &str) -> Step {
        Step::new(axis, NameTest::Tag(tag.into()))
    }

    #[test]
    fn display_simple_path() {
        let p = Path {
            steps: vec![step(Axis::Descendant, "a"), step(Axis::Child, "b")],
            attr: None,
        };
        assert_eq!(p.to_string(), "//a/b");
    }

    #[test]
    fn display_predicates_and_values() {
        let mut a = step(Axis::Descendant, "a");
        a.predicates
            .push(PredExpr::Exists(Value::path(vec![step(Axis::Child, "d")])));
        a.predicates.push(PredExpr::Compare(
            Value::attr("year"),
            CmpOp::Ge,
            Literal::Number(2000.0),
        ));
        let p = Path {
            steps: vec![a],
            attr: None,
        };
        assert_eq!(p.to_string(), "//a[d][@year >= 2000]");
    }

    #[test]
    fn display_text_and_nested_attr() {
        let v = Value {
            steps: vec![step(Axis::Child, "price")],
            attr: Some("currency".into()),
            text: false,
        };
        assert_eq!(v.to_string(), "price/@currency");
        assert_eq!(Value::text().to_string(), "text()");
        let v = Value {
            steps: vec![step(Axis::Descendant, "keyword")],
            attr: None,
            text: true,
        };
        assert_eq!(v.to_string(), ".//keyword/text()");
    }

    #[test]
    fn cmp_op_numeric_coercion() {
        assert!(CmpOp::Lt.eval("3", &Literal::Number(5.0)));
        assert!(!CmpOp::Lt.eval("7", &Literal::Number(5.0)));
        assert!(CmpOp::Eq.eval(" 5.0 ", &Literal::Number(5.0)));
        assert!(!CmpOp::Lt.eval("abc", &Literal::Number(5.0)));
    }

    #[test]
    fn cmp_op_string_semantics() {
        assert!(CmpOp::Eq.eval("abc", &Literal::String("abc".into())));
        assert!(CmpOp::Ne.eval("abc", &Literal::String("abd".into())));
        // Relational on strings only works when both sides are numeric.
        assert!(CmpOp::Lt.eval("3", &Literal::String("5".into())));
        assert!(!CmpOp::Lt.eval("abc", &Literal::String("abd".into())));
    }

    #[test]
    fn classification() {
        let path_only = Path {
            steps: vec![step(Axis::Descendant, "a")],
            attr: None,
        };
        assert!(path_only.is_predicate_free());

        let mut with_pred = step(Axis::Child, "a");
        with_pred
            .predicates
            .push(PredExpr::Exists(Value::path(vec![step(Axis::Child, "b")])));
        let with_pred = Path {
            steps: vec![with_pred],
            attr: None,
        };
        assert!(!with_pred.is_predicate_free());

        let with_attr = Path {
            steps: vec![step(Axis::Child, "a")],
            attr: Some("id".into()),
        };
        assert!(!with_attr.is_predicate_free());
    }

    #[test]
    fn query_size_counts_predicate_steps() {
        // //a[d]//b[e]//c has 5 query nodes (paper figure 1(b)).
        let mut a = step(Axis::Descendant, "a");
        a.predicates
            .push(PredExpr::Exists(Value::path(vec![step(Axis::Child, "d")])));
        let mut b = step(Axis::Descendant, "b");
        b.predicates
            .push(PredExpr::Exists(Value::path(vec![step(Axis::Child, "e")])));
        let c = step(Axis::Descendant, "c");
        let q = Path {
            steps: vec![a, b, c],
            attr: None,
        };
        assert_eq!(q.size(), 5);
    }

    #[test]
    fn name_test_matching() {
        assert!(NameTest::Wildcard.matches("anything"));
        assert!(NameTest::Tag("a".into()).matches("a"));
        assert!(!NameTest::Tag("a".into()).matches("b"));
        assert_eq!(NameTest::Tag("a".into()).tag(), Some("a"));
        assert_eq!(NameTest::Wildcard.tag(), None);
    }
}
