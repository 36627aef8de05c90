//! MapIR: the serializable data-environment operation stream.
//!
//! A runtime built with [`RuntimeBuilder::capture`](crate::RuntimeBuilder)
//! records every data-environment operation a program issues — map
//! enter/exit with direction and `always` modifier, target-region launches
//! with their map lists, raw USM access ranges and global references,
//! `nowait`/`taskwait` edges, host reads/writes, and the allocation calls
//! that give extents their addresses — **without executing** the data
//! environment: no device allocations, no transfers, no dispatches, no
//! kernel bodies. Because the recorder sits behind the ordinary
//! [`OmpRuntime`](crate::OmpRuntime) API, every workload implementing
//! [`Workload`](../../workloads) is capturable with no per-workload changes.
//!
//! The captured [`MapIr`] is what the `omp-mapcheck` static checker
//! abstractly interprets, once per runtime configuration. A line-oriented
//! text serialization ([`MapIr::to_text`] / [`MapIr::parse`]) lets captures
//! be stored next to a workload and re-checked without re-running it.

use crate::mapping::{MapDir, MapEntry};
use crate::modes::Tokens;
use apu_mem::{AddrRange, VirtAddr};
use std::fmt::Write as _;
use std::mem::discriminant;

/// A kernel launch as captured in MapIR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOp {
    /// Kernel name (diagnostics).
    pub name: String,
    /// Map clauses of the construct, in declaration order.
    pub maps: Vec<MapEntry>,
    /// Raw (unmapped) host ranges the kernel dereferences — the
    /// `unified_shared_memory` style.
    pub raw: Vec<AddrRange>,
    /// Referenced declare-target globals (registry indices).
    pub globals: Vec<usize>,
    /// Launched with `nowait`: exit maps are deferred to the thread's next
    /// `taskwait`.
    pub nowait: bool,
}

impl KernelOp {
    /// `name` as one token of a whitespace-tokenized text form (MapIR,
    /// `sweepresult` rows): whitespace becomes `_`.
    pub fn name_token(name: &str) -> String {
        name.chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect()
    }
}

/// One captured data-environment operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOp {
    /// `host_alloc` — gives later extents their addresses.
    HostAlloc {
        /// Allocated host range.
        range: AddrRange,
    },
    /// `host_free`.
    HostFree {
        /// Freed base address.
        addr: VirtAddr,
    },
    /// `omp_target_alloc` — device pool memory, GPU-translated in every
    /// configuration (raw accesses inside it are always safe).
    PoolAlloc {
        /// Allocated device range.
        range: AddrRange,
    },
    /// `omp_target_free`.
    PoolFree {
        /// Freed base address.
        addr: VirtAddr,
    },
    /// Host-side write to a range (CPU initialization or update).
    HostWrite {
        /// Written range.
        range: AddrRange,
    },
    /// Host-side read of a range (result consumption, convergence checks).
    HostRead {
        /// Read range.
        range: AddrRange,
    },
    /// `declare target` global registration.
    GlobalDecl {
        /// Registry index.
        id: usize,
        /// Host storage of the global.
        host: AddrRange,
    },
    /// One entry of a `target enter data` (or the enter half of `target
    /// data`).
    MapEnter {
        /// The map clause item.
        entry: MapEntry,
    },
    /// One entry of a `target exit data` (or the exit half of `target
    /// data`).
    MapExit {
        /// The map clause item.
        entry: MapEntry,
        /// `map(delete: ...)` — forced removal.
        delete: bool,
    },
    /// `target update to(...) from(...)`.
    Update {
        /// Ranges updated host-to-device.
        to: Vec<AddrRange>,
        /// Ranges updated device-to-host.
        from: Vec<AddrRange>,
    },
    /// A `target` construct launch.
    Kernel(KernelOp),
    /// `taskwait`: reclaims the thread's outstanding `nowait` regions and
    /// runs their deferred exit maps.
    Taskwait,
}

/// One record: the issuing host thread plus the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapRecord {
    /// Issuing host thread.
    pub thread: u32,
    /// The operation.
    pub op: MapOp,
}

/// A captured program: the ordered stream of data-environment operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapIr {
    /// Records in program issue order (interleaved across threads exactly
    /// as the workload issued them).
    pub records: Vec<MapRecord>,
}

impl MapIr {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    pub fn push(&mut self, thread: u32, op: MapOp) {
        self.records.push(MapRecord { thread, op });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of captured kernel launches.
    pub fn kernels(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.op, MapOp::Kernel(_)))
            .count()
    }
}

/// The format's first line.
const HEADER: &str = "mapir v1";

/// The blank range and map entry a [`Reader`] fills in.
const NO_RANGE: AddrRange = AddrRange::new(VirtAddr(0), 0);
const NO_ENTRY: MapEntry = MapEntry::to(NO_RANGE);

/// Each op's keyword beside a blank op of its kind: the one keyword list
/// the writer finds an op's keyword in and the reader fills a blank from.
#[rustfmt::skip]
static OPS: [(&str, MapOp); 12] = [
    ("host_alloc", MapOp::HostAlloc { range: NO_RANGE }),
    ("host_free", MapOp::HostFree { addr: VirtAddr(0) }),
    ("pool_alloc", MapOp::PoolAlloc { range: NO_RANGE }),
    ("pool_free", MapOp::PoolFree { addr: VirtAddr(0) }),
    ("host_write", MapOp::HostWrite { range: NO_RANGE }),
    ("host_read", MapOp::HostRead { range: NO_RANGE }),
    ("global", MapOp::GlobalDecl { id: 0, host: NO_RANGE }),
    ("enter", MapOp::MapEnter { entry: NO_ENTRY }),
    ("exit", MapOp::MapExit { entry: NO_ENTRY, delete: false }),
    ("update", MapOp::Update { to: Vec::new(), from: Vec::new() }),
    ("kernel", MapOp::Kernel(KernelOp {
        name: String::new(), maps: Vec::new(), raw: Vec::new(), globals: Vec::new(), nowait: false,
    })),
    ("taskwait", MapOp::Taskwait),
];

/// The one spelling of a flag (`always`, `delete`, `nowait`).
const FLAGS: Tokens<bool, 2> = Tokens {
    what: "flag",
    table: [(false, "0"), (true, "1")],
};

/// Every op's fields after its keyword, in wire order: the one layout that
/// [`MapIr::to_text`] writes and [`MapIr::parse`] reads. `$c` is a
/// [`Writer`] over a `&MapOp` or a [`Reader`] over a `&mut MapOp`, so the
/// same patterns bind shared or unique references to the same fields. Two
/// layouts are irregular: `exit` writes `delete` between `always` and the
/// range, and `update` and `kernel` write every list's count before any
/// list's items (`n` holds the lengths the writer writes, and the reader
/// reads the counts over them).
macro_rules! layout {
    (entry $e:expr, $c:ident) => {{
        let MapEntry { range, dir, always } = $e;
        $c.token(&MapDir::TOKENS, dir)?;
        $c.token(&FLAGS, always)?;
        $c.range(range)
    }};
    ($op:expr, $c:ident) => {
        match $op {
            MapOp::HostAlloc { range }
            | MapOp::PoolAlloc { range }
            | MapOp::HostWrite { range }
            | MapOp::HostRead { range } => $c.range(range),
            MapOp::HostFree { addr: VirtAddr(a) } | MapOp::PoolFree { addr: VirtAddr(a) } => {
                $c.num(a)
            }
            MapOp::GlobalDecl { id, host } => {
                $c.num(id)?;
                $c.range(host)
            }
            MapOp::MapEnter { entry } => layout!(entry entry, $c),
            MapOp::MapExit { entry, delete } => {
                let MapEntry { range, dir, always } = entry;
                $c.token(&MapDir::TOKENS, dir)?;
                $c.token(&FLAGS, always)?;
                $c.token(&FLAGS, delete)?;
                $c.range(range)
            }
            MapOp::Update { to, from } => {
                let mut n = [to.len(), from.len()];
                n.iter_mut().try_for_each(|n| $c.num(n))?;
                $c.items(to, n[0], NO_RANGE, |c, r| c.range(r))?;
                $c.items(from, n[1], NO_RANGE, |c, r| c.range(r))
            }
            MapOp::Kernel(k) => {
                let KernelOp { name, maps, raw, globals, nowait } = k;
                $c.name(name)?;
                $c.token(&FLAGS, nowait)?;
                let mut n = [maps.len(), raw.len(), globals.len()];
                n.iter_mut().try_for_each(|n| $c.num(n))?;
                $c.items(maps, n[0], NO_ENTRY, |c, e| layout!(entry e, c))?;
                $c.items(raw, n[1], NO_RANGE, |c, r| c.range(r))?;
                $c.items(globals, n[2], 0, |c, g| c.num(g))
            }
            MapOp::Taskwait => Ok(()),
        }
    };
}

impl MapIr {
    /// Serialize to the line-oriented `mapir v1` text format: the header,
    /// then per record its thread, its op's keyword and the op's fields.
    /// Round-trips through [`parse`](Self::parse).
    pub fn to_text(&self) -> String {
        let mut out = format!("{HEADER}\n");
        for r in &self.records {
            let _ = Writer(&mut out).record(r);
        }
        out
    }

    /// Parse the `mapir v1` text format, accepting exactly what
    /// [`to_text`](Self::to_text) writes (blank lines aside): a missing,
    /// malformed or left-over token is a `line N: …` error. Counted items
    /// are read one at a time from the tokens their line holds, so a count
    /// never sizes an allocation.
    pub fn parse(text: &str) -> Result<MapIr, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, HEADER)) => {}
            other => return Err(format!("bad header: {:?}", other.map(|(_, l)| l))),
        }
        let mut ir = MapIr::new();
        for (no, line) in lines.filter(|(_, l)| !l.trim().is_empty()) {
            let record = Reader(line.split_whitespace()).record();
            ir.records
                .push(record.map_err(|e| format!("line {}: {e}", no + 1))?);
        }
        Ok(ir)
    }
}

/// Writes one record's line.
struct Writer<'a>(&'a mut String);

impl Writer<'_> {
    fn record(mut self, r: &MapRecord) -> std::fmt::Result {
        let kind = discriminant(&r.op);
        let row = OPS.iter().find(|(_, op)| discriminant(op) == kind);
        let keyword = row.expect("every op has a row").0;
        write!(self.0, "{} {keyword}", r.thread)?;
        layout!(&r.op, self)?;
        writeln!(self.0)
    }

    fn num(&mut self, v: &impl std::fmt::Display) -> std::fmt::Result {
        write!(self.0, " {v}")
    }

    /// A token already spelled, pushed without formatting.
    fn word(&mut self, word: &str) -> std::fmt::Result {
        self.0.push(' ');
        self.0.push_str(word);
        Ok(())
    }

    fn token<T: Copy + PartialEq, const N: usize>(
        &mut self,
        table: &Tokens<T, N>,
        v: &T,
    ) -> std::fmt::Result {
        self.word(table.token(*v))
    }

    fn name(&mut self, name: &str) -> std::fmt::Result {
        self.word(&KernelOp::name_token(name))
    }

    fn range(&mut self, r: &AddrRange) -> std::fmt::Result {
        self.num(&r.start.as_u64())?;
        self.num(&r.len)
    }

    /// Every item of a list; the count and the blank are the reader's.
    fn items<T>(
        &mut self,
        items: &[T],
        _count: usize,
        _blank: T,
        mut item: impl FnMut(&mut Self, &T) -> std::fmt::Result,
    ) -> std::fmt::Result {
        items.iter().try_for_each(|v| item(self, v))
    }
}

/// Reads one record from the tokens of its line.
struct Reader<'a>(std::str::SplitWhitespace<'a>);

impl<'a> Reader<'a> {
    fn record(mut self) -> Result<MapRecord, String> {
        let mut thread = 0;
        self.num(&mut thread)?;
        let keyword = self.next("op")?;
        let row = OPS.iter().find(|(k, _)| *k == keyword);
        let (_, blank) = row.ok_or_else(|| format!("unknown op {keyword:?}"))?;
        let mut op = blank.clone();
        layout!(&mut op, self)?;
        match self.0.next() {
            Some(extra) => Err(format!("unexpected {extra:?} after the op")),
            None => Ok(MapRecord { thread, op }),
        }
    }

    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        self.0.next().ok_or_else(|| format!("missing {what}"))
    }

    fn num<T: std::str::FromStr>(&mut self, v: &mut T) -> Result<(), String> {
        let t = self.next("number")?;
        *v = t.parse().map_err(|_| format!("bad number {t:?}"))?;
        Ok(())
    }

    fn token<T: Copy + PartialEq, const N: usize>(
        &mut self,
        table: &Tokens<T, N>,
        v: &mut T,
    ) -> Result<(), String> {
        let t = self.next(table.what)?;
        *v = table.parse(t).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn name(&mut self, name: &mut String) -> Result<(), String> {
        *name = self.next("name")?.to_string();
        Ok(())
    }

    /// The one range reader: a range must end inside the address space.
    fn range(&mut self, r: &mut AddrRange) -> Result<(), String> {
        let (mut start, mut len) = (0u64, 0u64);
        self.num(&mut start)?;
        self.num(&mut len)?;
        if start.checked_add(len).is_none() {
            return Err(format!("range {start} +{len} overflows"));
        }
        *r = AddrRange::new(VirtAddr(start), len);
        Ok(())
    }

    /// Read `count` items one at a time, each from `blank`: a count larger
    /// than the line's tokens fails when they run out.
    fn items<T: Copy>(
        &mut self,
        items: &mut Vec<T>,
        count: usize,
        blank: T,
        mut item: impl FnMut(&mut Self, &mut T) -> Result<(), String>,
    ) -> Result<(), String> {
        (0..count).try_for_each(|_| {
            let mut v = blank;
            item(self, &mut v).map(|()| items.push(v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(start: u64, len: u64) -> AddrRange {
        AddrRange::new(VirtAddr(start), len)
    }

    fn sample() -> MapIr {
        let mut ir = MapIr::new();
        ir.push(
            0,
            MapOp::HostAlloc {
                range: r(4096, 8192),
            },
        );
        ir.push(
            0,
            MapOp::HostWrite {
                range: r(4096, 8192),
            },
        );
        ir.push(
            0,
            MapOp::GlobalDecl {
                id: 0,
                host: r(1 << 20, 8),
            },
        );
        ir.push(
            0,
            MapOp::MapEnter {
                entry: MapEntry::to(r(4096, 8192)),
            },
        );
        ir.push(
            1,
            MapOp::Kernel(KernelOp {
                name: "axpy".to_string(),
                maps: vec![
                    MapEntry::alloc(r(4096, 8192)),
                    MapEntry::tofrom(r(64, 8)).always(),
                ],
                raw: vec![r(1 << 30, 4096)],
                globals: vec![0],
                nowait: true,
            }),
        );
        ir.push(1, MapOp::Taskwait);
        ir.push(
            0,
            MapOp::Update {
                to: vec![r(4096, 64)],
                from: vec![],
            },
        );
        ir.push(
            0,
            MapOp::MapExit {
                entry: MapEntry::from(r(4096, 8192)),
                delete: true,
            },
        );
        ir.push(
            0,
            MapOp::PoolAlloc {
                range: r(1 << 30, 4096),
            },
        );
        ir.push(
            0,
            MapOp::PoolFree {
                addr: VirtAddr(1 << 30),
            },
        );
        ir.push(0, MapOp::HostRead { range: r(4096, 64) });
        ir.push(
            0,
            MapOp::HostFree {
                addr: VirtAddr(4096),
            },
        );
        ir
    }

    #[test]
    fn text_round_trips() {
        let ir = sample();
        let text = ir.to_text();
        let back = MapIr::parse(&text).unwrap();
        assert_eq!(ir, back);
        // And the serialization is stable.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn text_bytes_are_pinned() {
        // Capture digests, request digests and cache keys hash these bytes.
        let golden = "mapir v1
0 host_alloc 4096 8192
0 host_write 4096 8192
0 global 0 1048576 8
0 enter to 0 4096 8192
1 kernel axpy 1 2 1 1 alloc 0 4096 8192 tofrom 1 64 8 1073741824 4096 0
1 taskwait
0 update 1 0 4096 64
0 exit from 0 1 4096 8192
0 pool_alloc 1073741824 4096
0 pool_free 1073741824
0 host_read 4096 64
0 host_free 4096
";
        assert_eq!(sample().to_text(), golden);
        assert_eq!(MapIr::parse(golden), Ok(sample()));
    }

    /// `parse(text)` fails naming line 2, the line after the header.
    fn line_2_error(op: &str) -> String {
        let err = MapIr::parse(&format!("mapir v1\n{op}")).unwrap_err();
        assert!(err.starts_with("line 2: "), "{op}: {err}");
        err
    }

    #[test]
    fn a_count_past_the_line_is_a_parse_error_not_an_allocation() {
        // A Vec::with_capacity of this count asked for 24 TiB and aborted.
        line_2_error("0 kernel k 0 1099511627776 0 0");
        let max = u64::MAX;
        line_2_error(&format!("0 kernel k 0 0 {max} 0"));
        line_2_error(&format!("0 kernel k 0 0 0 {max} 7"));
        line_2_error(&format!("0 update {max} 0 4096 64"));
        line_2_error(&format!("0 update 0 {max}"));
        // One count too many runs out of tokens too.
        line_2_error("0 update 2 0 4096 64");
        line_2_error("0 kernel k 0 1 1 0 to 0 4096 64");
    }

    #[test]
    fn a_token_left_after_an_op_is_a_parse_error() {
        line_2_error("0 taskwait 1");
        line_2_error("0 host_free 4096 8192");
        line_2_error("0 enter to 0 4096 8192 0");
        line_2_error("0 update 1 0 4096 64 4096");
        line_2_error("0 kernel k 0 0 0 1 3 4");
    }

    #[test]
    fn a_flag_other_than_0_or_1_is_a_parse_error() {
        let err = line_2_error("0 enter to 2 4096 8192");
        assert!(err.contains("'2'"), "{err}");
        line_2_error("0 exit from 0 7 4096 8192");
        line_2_error("0 kernel k yes 0 0 0");
        line_2_error("0 kernel k 0 1 0 0 alloc -1 0 8");
        // The two flag spellings parse.
        assert!(MapIr::parse("mapir v1\n0 exit from 1 0 4096 8192\n").is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MapIr::parse("not mapir").is_err());
        assert!(MapIr::parse("mapir v1\n0 enter to").is_err());
        assert!(MapIr::parse("mapir v1\n0 frobnicate 1 2").is_err());
    }

    #[test]
    fn parse_rejects_a_range_past_the_address_space() {
        let err = MapIr::parse("mapir v1\n0 host_write 18446744073709551000 4096").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
        // The last range that ends inside the address space parses.
        assert!(MapIr::parse("mapir v1\n0 host_write 18446744073709547519 4096").is_ok());
    }

    #[test]
    fn kernel_count() {
        assert_eq!(sample().kernels(), 1);
        assert!(!sample().is_empty());
        assert_eq!(sample().len(), 12);
    }
}
