//! Per-collector MRT archives and the production read path over them.
//!
//! A collector publishes one MRT archive per feed, and MRT frames carry
//! no collector id: the reader attributes every record of an archive to
//! the collector it came from. The benchmark encodes its inputs the same
//! way, outside every timed window, and replays them through
//! `MrtSource` → `MergedStream`, the path a deployment reads archives
//! through. Archive bytes sit behind an `Arc`, so each replay shares
//! them instead of copying them.

use kepler::bgp::mrt::MrtWriter;
use kepler::bgp::Asn;
use kepler::bgpstream::{BgpRecord, CollectorId, MergedStream, MrtSource, RecordSource};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

/// The collector-side identity written into every frame.
const LOCAL_AS: Asn = Asn(64_700);
const LOCAL_IP: IpAddr = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 254));

/// One stream's input: an encoded MRT archive per collector.
pub struct Archives {
    feeds: Vec<(CollectorId, Arc<[u8]>)>,
    records: u64,
}

impl Archives {
    /// Encodes a time-sorted record stream, one archive per collector.
    pub fn encode(records: impl IntoIterator<Item = BgpRecord>) -> Archives {
        let mut feeds: BTreeMap<CollectorId, Vec<u8>> = BTreeMap::new();
        let mut n = 0u64;
        for rec in records {
            let buf = feeds.entry(rec.collector).or_default();
            MrtWriter::new(buf)
                .write_record(&rec.to_mrt(LOCAL_AS, LOCAL_IP))
                .expect("benchmark records fit in an MRT frame");
            n += 1;
        }
        let feeds = feeds.into_iter().map(|(c, bytes)| (c, Arc::from(bytes))).collect();
        Archives { feeds, records: n }
    }

    /// Records encoded across all archives.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total archive size in bytes.
    pub fn bytes(&self) -> usize {
        self.feeds.iter().map(|(_, b)| b.len()).sum()
    }

    /// A fresh merged stream over every archive. Hard decode errors end
    /// that collector's feed and are counted into `errors`.
    pub fn stream(&self, errors: &Rc<Cell<u64>>) -> MergedStream {
        let sources = self
            .feeds
            .iter()
            .map(|(c, bytes)| {
                Box::new(ArchiveSource {
                    inner: MrtSource::new(Cursor::new(Arc::clone(bytes)), *c),
                    errors: Rc::clone(errors),
                }) as Box<dyn RecordSource>
            })
            .collect();
        MergedStream::new(sources)
    }
}

/// An `MrtSource` whose terminal decode error stays countable after the
/// source is boxed inside a `MergedStream`.
struct ArchiveSource {
    inner: MrtSource<Cursor<Arc<[u8]>>>,
    errors: Rc<Cell<u64>>,
}

impl ArchiveSource {
    fn count_error(&mut self) {
        if self.inner.take_error().is_some() {
            self.errors.set(self.errors.get() + 1);
        }
    }
}

impl RecordSource for ArchiveSource {
    fn next_record(&mut self) -> Option<BgpRecord> {
        let rec = self.inner.next_record();
        if rec.is_none() {
            self.count_error();
        }
        rec
    }

    fn peek_time(&mut self) -> Option<u64> {
        let t = self.inner.peek_time();
        if t.is_none() {
            self.count_error();
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kepler_bench::pipeline_record;

    #[test]
    fn archives_round_trip_with_collector_ids_intact() {
        let records: Vec<BgpRecord> = (0..2_000).map(pipeline_record).collect();
        let archives = Archives::encode(records.clone());
        assert_eq!(archives.records(), 2_000);
        assert_eq!(archives.feeds.len(), 4, "one archive per collector");
        let errors = Rc::new(Cell::new(0));
        let replayed: Vec<BgpRecord> = archives.stream(&errors).collect();
        assert_eq!(errors.get(), 0);
        assert_eq!(replayed.len(), records.len());
        // The merge reorders equal timestamps across collectors, so the
        // per-collector sequences are what must survive bit-for-bit.
        for c in 0..4u16 {
            let want: Vec<&BgpRecord> =
                records.iter().filter(|r| r.collector == CollectorId(c)).collect();
            let got: Vec<&BgpRecord> =
                replayed.iter().filter(|r| r.collector == CollectorId(c)).collect();
            assert_eq!(got, want, "collector {c}");
        }
        assert!(replayed.windows(2).all(|w| w[0].time <= w[1].time), "merged stream is sorted");
    }

    #[test]
    fn truncated_archive_counts_one_decode_error() {
        let archives = Archives::encode((0..40).map(pipeline_record));
        let (c, bytes) = archives.feeds[0].clone();
        let torn = Archives {
            feeds: vec![(c, Arc::from(&bytes[..bytes.len() - 3]))],
            records: archives.records,
        };
        let errors = Rc::new(Cell::new(0));
        let n = torn.stream(&errors).count();
        assert_eq!(n, 9, "the torn last frame of collector 0's ten is lost");
        assert_eq!(errors.get(), 1);
    }
}
