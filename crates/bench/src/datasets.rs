//! Dataset materialization and caching.
//!
//! Experiments stream datasets from disk (like the paper's systems did),
//! so memory measurements reflect engine state, not input buffers. Files
//! are generated once into `target/twigm-datasets/` and reused.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use twigm_datagen::Dataset;

/// Default fraction of the paper's dataset sizes (keeps a full figure run
/// in the minutes range; pass `--full` to binaries for 1.0).
pub const DEFAULT_SCALE: f64 = 0.25;

/// The paper's dataset sizes in bytes (figure 5): Book 9 MB, Benchmark
/// (XMark auction) 34 MB, Protein 75 MB.
pub fn paper_size(dataset: Dataset) -> usize {
    match dataset {
        Dataset::Book => 9 * 1024 * 1024,
        Dataset::Auction => 34 * 1024 * 1024,
        Dataset::Protein => 75 * 1024 * 1024,
    }
}

/// Directory where generated datasets are cached.
pub fn cache_dir() -> PathBuf {
    // Keep artifacts under target/ so `cargo clean` removes them.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir.push("target");
    dir.push("twigm-datasets");
    dir
}

/// Path of a cached dataset at a given byte size.
pub fn dataset_path(dataset: Dataset, bytes: usize) -> PathBuf {
    let mut path = cache_dir();
    path.push(format!("{}-{}.xml", dataset.name().to_lowercase(), bytes));
    path
}

/// Ensures the dataset exists on disk; returns its path.
pub fn ensure_dataset(dataset: Dataset, bytes: usize) -> std::io::Result<PathBuf> {
    let path = dataset_path(dataset, bytes);
    if path.exists() {
        return Ok(path);
    }
    fs::create_dir_all(cache_dir())?;
    write_once(&path, |writer| dataset.generate(bytes, writer).map(|_| ()))?;
    Ok(path)
}

/// Creates `path` from what `fill` writes, through a temp file of this
/// writer's own, so callers racing on a cold cache never share one. The
/// temp file is linked into place only if `path` does not exist yet: a
/// writer that loses the race keeps the winner's file.
fn write_once(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    static WRITERS: AtomicU64 = AtomicU64::new(0);
    let writer = WRITERS.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("xml.{}-{writer}.tmp", std::process::id()));
    let written = (|| {
        let mut out = BufWriter::new(fs::File::create(&tmp)?);
        fill(&mut out)?;
        out.flush()
    })();
    let linked = written.and_then(|()| fs::hard_link(&tmp, path));
    let _ = fs::remove_file(&tmp);
    match linked {
        Err(_) if path.exists() => Ok(()),
        other => other,
    }
}

/// Duplicates a dataset k times into one well-formed document (the
/// paper's scaling methodology, §5.4: "we duplicated the Book dataset
/// between 2 and 6 times"). The copies are wrapped in a `<dup>` root and
/// each copy's original root becomes a child, so `//`-queries see k
/// copies of every match.
pub fn ensure_duplicated(dataset: Dataset, bytes: usize, k: usize) -> std::io::Result<PathBuf> {
    assert!(k >= 1);
    let base = ensure_dataset(dataset, bytes)?;
    if k == 1 {
        return Ok(base);
    }
    let mut path = cache_dir();
    path.push(format!(
        "{}-{}-x{}.xml",
        dataset.name().to_lowercase(),
        bytes,
        k
    ));
    if path.exists() {
        return Ok(path);
    }
    let body = fs::read(&base)?;
    // Strip the XML declaration of the base copy.
    let content_start = match body.windows(2).position(|w| w == b"?>") {
        Some(i) => i + 2,
        None => 0,
    };
    write_once(&path, |writer| {
        writer.write_all(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?><dup>")?;
        for _ in 0..k {
            writer.write_all(&body[content_start..])?;
        }
        writer.write_all(b"</dup>")
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_reuses() {
        let path = ensure_dataset(Dataset::Book, 20_000).unwrap();
        assert!(path.exists());
        let len = fs::metadata(&path).unwrap().len();
        assert!(len >= 20_000);
        // Second call must not regenerate (same mtime).
        let mtime = fs::metadata(&path).unwrap().modified().unwrap();
        let path2 = ensure_dataset(Dataset::Book, 20_000).unwrap();
        assert_eq!(path, path2);
        assert_eq!(fs::metadata(&path2).unwrap().modified().unwrap(), mtime);
    }

    #[test]
    fn concurrent_callers_on_a_cold_cache_agree() {
        // A size no other test uses, fresh for this run.
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos() as usize;
        let bytes = 41_000 + nanos % 8_000;
        let path = dataset_path(Dataset::Book, bytes);
        let _ = fs::remove_file(&path);
        let paths: Vec<PathBuf> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| ensure_dataset(Dataset::Book, bytes)))
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().unwrap().unwrap())
                .collect()
        });
        assert!(paths.iter().all(|p| *p == path));
        let xml = fs::read(&path).unwrap();
        assert!(xml.len() >= bytes);
        let mut reader = twigm_sax::SaxReader::from_bytes(&xml);
        while reader.next_event().unwrap().is_some() {}
        let prefix = format!("book-{bytes}.xml.");
        let leftovers = fs::read_dir(cache_dir())
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with(&prefix)
            })
            .count();
        assert_eq!(leftovers, 0, "temp files left behind");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplication_multiplies_content_and_stays_wellformed() {
        let p1 = ensure_duplicated(Dataset::Book, 20_000, 1).unwrap();
        let p3 = ensure_duplicated(Dataset::Book, 20_000, 3).unwrap();
        let len1 = fs::metadata(&p1).unwrap().len();
        let len3 = fs::metadata(&p3).unwrap().len();
        assert!(len3 > 2 * len1);
        let bytes = fs::read(&p3).unwrap();
        let mut reader = twigm_sax::SaxReader::from_bytes(&bytes);
        let mut roots = 0;
        while let Some(e) = reader.next_event().unwrap() {
            if let twigm_sax::Event::Start(t) = e {
                if t.level() == 2 && t.name() == "bib" {
                    roots += 1;
                }
            }
        }
        assert_eq!(roots, 3);
    }

    #[test]
    fn paper_sizes_match_figure5() {
        assert_eq!(paper_size(Dataset::Book), 9 * 1024 * 1024);
        assert_eq!(paper_size(Dataset::Auction), 34 * 1024 * 1024);
        assert_eq!(paper_size(Dataset::Protein), 75 * 1024 * 1024);
    }
}
