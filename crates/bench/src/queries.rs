//! The query sets (paper figure 6).
//!
//! The figure itself is an image that did not survive into the paper's
//! extracted text, so the concrete query strings are reconstructed from
//! the classes the prose specifies (§5.1):
//!
//! * Q1–Q4 ∈ `XP{/,//,*}` — no predicates;
//! * Q5–Q8 ∈ `XP{/,//,[]}` — predicates restricted to an attribute or a
//!   single child axis; Q8 carries a value test and returns few results;
//! * Q9–Q10 ∈ `XP{/,//,*,[]}` — multiple predicates per node, paths and
//!   nesting inside predicates, `*` anywhere.
//!
//! For the Benchmark (auction) dataset the paper ran "the benchmark
//! queries provided by XMark which only contain /, //, * and predicates";
//! B1–B8 below are XPath renderings of those navigation patterns.

use twigm_xpath::{parse, Path};

/// A named query over a dataset.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Display name (Q1…Q10, B1…B8).
    pub name: &'static str,
    /// The query text.
    pub text: &'static str,
    /// The paper's class annotation.
    pub class: &'static str,
}

impl QuerySpec {
    /// Parses the query (all specs are valid by construction/tests).
    pub fn parse(&self) -> Path {
        parse(self.text).unwrap_or_else(|e| panic!("query {} invalid: {e}", self.name))
    }
}

const fn spec(name: &'static str, text: &'static str, class: &'static str) -> QuerySpec {
    QuerySpec { name, text, class }
}

/// Q1–Q10 over the Book dataset.
pub fn book_queries() -> Vec<QuerySpec> {
    vec![
        spec("Q1", "/bib/book/title", "XP{/,//,*}"),
        spec("Q2", "//section//figure", "XP{/,//,*}"),
        spec("Q3", "/bib/*/title", "XP{/,//,*}"),
        spec("Q4", "//section/*//image", "XP{/,//,*}"),
        spec("Q5", "//section[title]/p", "XP{/,//,[]}"),
        spec("Q6", "//section[figure]//title", "XP{/,//,[]}"),
        spec("Q7", "//book[@year]//section[@id]/title", "XP{/,//,[]}"),
        spec("Q8", "//book[@year = '1999']/title", "XP{/,//,[]} + value"),
        spec("Q9", "//section[figure[image]]//p", "XP{/,//,*,[]}"),
        spec("Q10", "//book//*[title][figure/@width]/p", "XP{/,//,*,[]}"),
    ]
}

/// Q1–Q10 over the Protein dataset (same class ladder, protein schema).
pub fn protein_queries() -> Vec<QuerySpec> {
    vec![
        spec(
            "Q1",
            "/ProteinDatabase/ProteinEntry/protein/name",
            "XP{/,//,*}",
        ),
        spec("Q2", "//reference//author", "XP{/,//,*}"),
        spec("Q3", "/ProteinDatabase/*/header/uid", "XP{/,//,*}"),
        spec("Q4", "//refinfo/*/author", "XP{/,//,*}"),
        spec("Q5", "//ProteinEntry[keywords]/protein", "XP{/,//,[]}"),
        spec("Q6", "//refinfo[year]/title", "XP{/,//,[]}"),
        spec("Q7", "//ProteinEntry[@id]//gene", "XP{/,//,[]}"),
        spec("Q8", "//accinfo[mol-type = 'mRNA']", "XP{/,//,[]} + value"),
        spec(
            "Q9",
            "//ProteinEntry[reference/refinfo[authors]]//keyword",
            "XP{/,//,*,[]}",
        ),
        spec(
            "Q10",
            "//*[header][summary/type = 'protein']/sequence",
            "XP{/,//,*,[]}",
        ),
    ]
}

/// B1–B8 over the Benchmark (auction) dataset.
pub fn auction_queries() -> Vec<QuerySpec> {
    vec![
        spec("B1", "/site//regions/africa/item/name", "XP{/,//,*}"),
        spec(
            "B2",
            "//people/person[@id = 'person0']/name",
            "XP{/,//,[]} + value",
        ),
        spec("B3", "//open_auction[bidder]/current", "XP{/,//,[]}"),
        spec("B4", "//item[payment]/name", "XP{/,//,[]}"),
        spec(
            "B5",
            "//person[profile/@income > 50000]/name",
            "XP{/,//,[]} + value",
        ),
        spec(
            "B6",
            "//open_auction[bidder/increase > 20]/itemref",
            "XP{/,//,*,[]}",
        ),
        spec("B7", "//description//listitem//text", "XP{/,//,*}"),
        spec("B8", "//closed_auction[annotation]/price", "XP{/,//,[]}"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm_xpath::{Axis, NameTest};

    #[test]
    fn all_queries_parse() {
        for q in book_queries()
            .iter()
            .chain(protein_queries().iter())
            .chain(auction_queries().iter())
        {
            let parsed = q.parse();
            assert!(!parsed.steps.is_empty(), "{}", q.name);
        }
    }

    #[test]
    fn class_ladder_matches_the_paper() {
        for queries in [book_queries(), protein_queries()] {
            for q in &queries[..4] {
                assert!(
                    q.parse().is_predicate_free(),
                    "{} ({}) must be predicate-free",
                    q.name,
                    q.text
                );
            }
            for q in &queries[4..] {
                assert!(
                    !q.parse().is_predicate_free(),
                    "{} ({}) must have predicates",
                    q.name,
                    q.text
                );
            }
            // Q9/Q10 are full-language queries: predicates and `//` or `*`.
            for q in &queries[8..] {
                let steps = q.parse().steps;
                assert!(
                    steps
                        .iter()
                        .any(|s| s.axis == Axis::Descendant || s.test == NameTest::Wildcard),
                    "{} ({})",
                    q.name,
                    q.text
                );
            }
        }
    }

    #[test]
    fn queries_find_matches_on_generated_data() {
        use twigm_datagen::Dataset;
        // Every non-value-test query should match something on a modest
        // sample, otherwise the benchmark measures nothing.
        let cases = [
            (Dataset::Book, book_queries(), 300_000),
            (Dataset::Protein, protein_queries(), 300_000),
            (Dataset::Auction, auction_queries(), 300_000),
        ];
        for (ds, queries, size) in cases {
            let (xml, _) = ds.generate_vec(size);
            for q in &queries {
                let ids = twigm::evaluate(&q.parse(), &xml[..]).unwrap();
                if q.class.contains("value") {
                    continue; // selective by design; may be empty at this size
                }
                assert!(
                    !ids.is_empty(),
                    "{} {} found nothing on {}",
                    q.name,
                    q.text,
                    ds.name()
                );
            }
        }
    }
}
