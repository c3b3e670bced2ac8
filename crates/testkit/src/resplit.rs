//! Stream-robustness driver: the same document re-fed under adversarial
//! byte-chunk splits must produce identical results and identical
//! Theorem 4.4 peak-memory accounting.
//!
//! Chunking is exercised through the public [`FeedReader`] push API —
//! the seam a network or pipeline deployment would use — so a parse that
//! resumes mid-tag, mid-entity-reference or mid-CDATA-section is
//! byte-for-byte equivalent to a whole-buffer parse.

use twigm::engine::StreamEngine;
use twigm_sax::{Attribute, FeedEvent, FeedReader, SaxError, Symbol};

/// A family of chunk boundaries to re-feed a document under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// One byte at a time — every boundary at once.
    OneByte,
    /// Fixed-size chunks of `k` bytes.
    EveryK(usize),
    /// Cuts placed right after `<`, `&` and `]]` — mid-tag, mid-entity
    /// and mid-CDATA-terminator boundaries specifically.
    Boundaries,
}

/// All strategies a standard check battery runs.
pub const STRATEGIES: [SplitStrategy; 4] = [
    SplitStrategy::OneByte,
    SplitStrategy::EveryK(3),
    SplitStrategy::EveryK(7),
    SplitStrategy::Boundaries,
];

/// The sorted interior cut positions a strategy makes on `xml`.
pub fn split_points(xml: &[u8], strategy: SplitStrategy) -> Vec<usize> {
    let mut cuts = Vec::new();
    match strategy {
        SplitStrategy::OneByte => cuts.extend(1..xml.len()),
        SplitStrategy::EveryK(k) => {
            let k = k.max(1);
            cuts.extend((1..xml.len()).filter(|i| i % k == 0));
        }
        SplitStrategy::Boundaries => {
            for i in 0..xml.len().saturating_sub(1) {
                let cut = match xml[i] {
                    b'<' | b'&' => true,
                    b']' => xml.get(i + 1) == Some(&b']'),
                    _ => false,
                };
                if cut {
                    cuts.push(i + 1);
                }
            }
        }
    }
    cuts
}

/// Runs `engine` over `xml` delivered as the chunks induced by `cuts`
/// (sorted interior positions), via [`FeedReader`]. Returns the matched
/// ids and the engine, mirroring `twigm::engine::run_engine`.
pub fn run_engine_chunked<E: StreamEngine>(
    mut engine: E,
    xml: &[u8],
    cuts: &[usize],
) -> Result<(Vec<twigm_sax::NodeId>, E), SaxError> {
    let table = engine.symbols().cloned();
    let lookup = |name: &str| table.as_ref().map_or(Symbol::UNKNOWN, |t| t.lookup(name));
    let mut parser = FeedReader::new();
    let mut start = 0usize;
    let mut chunks: Vec<&[u8]> = Vec::with_capacity(cuts.len() + 1);
    for &cut in cuts {
        chunks.push(&xml[start..cut]);
        start = cut;
    }
    chunks.push(&xml[start..]);

    for (i, chunk) in chunks.iter().enumerate() {
        parser.feed(chunk);
        if i + 1 == chunks.len() {
            parser.finish();
        }
        loop {
            match parser.next_event()? {
                FeedEvent::NeedData | FeedEvent::Done => break,
                FeedEvent::Event(event) => match event {
                    twigm_sax::Event::Start(tag) => {
                        let sym = lookup(tag.name());
                        let mut attrs: Vec<Attribute<'_>> = Vec::new();
                        if engine.needs_attributes(sym) {
                            for a in tag.attributes() {
                                attrs.push(a?);
                            }
                        }
                        engine.start_element_sym(sym, tag.name(), &attrs, tag.level(), tag.id());
                    }
                    twigm_sax::Event::End(tag) => {
                        engine.end_element_sym(lookup(tag.name()), tag.name(), tag.level())
                    }
                    twigm_sax::Event::Text(t) => engine.text(&t),
                    _ => {}
                },
            }
        }
    }
    let results = engine.take_results();
    Ok((results, engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twigm::engine::run_engine;
    use twigm::TwigM;
    use twigm_xpath::parse;

    #[test]
    fn split_points_cover_the_document() {
        let xml = b"<a>&amp;<![CDATA[x]]></a>";
        assert_eq!(
            split_points(xml, SplitStrategy::OneByte).len(),
            xml.len() - 1
        );
        let cuts = split_points(xml, SplitStrategy::Boundaries);
        // After '<' (4 tags + CDATA open), after '&', after ']]'.
        assert!(cuts.contains(&1), "mid-tag cut");
        assert!(cuts.contains(&4), "mid-entity cut");
        assert!(!cuts.is_empty() && cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chunked_run_matches_whole_run() {
        let xml = b"<r><a p=\"1\">t&amp;x<b/></a><a><b/></a></r>";
        let query = parse("//a[@p]/b").unwrap();
        let (whole, engine) = run_engine(TwigM::new(&query).unwrap(), &xml[..]).unwrap();
        let whole_peak = engine.stats().peak_entries;
        for strategy in STRATEGIES {
            let cuts = split_points(xml, strategy);
            let (ids, engine) =
                run_engine_chunked(TwigM::new(&query).unwrap(), xml, &cuts).unwrap();
            assert_eq!(ids, whole, "{strategy:?}");
            assert_eq!(engine.stats().peak_entries, whole_peak, "{strategy:?}");
        }
    }
}
