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
use apu_mem::{AddrRange, VirtAddr};
use std::fmt::Write as _;

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

    /// Host ranges the kernel reads: `to`/`tofrom` maps (the device copy is
    /// expected to hold host data) plus every raw access.
    pub fn reads(&self) -> Vec<AddrRange> {
        let mut out: Vec<AddrRange> = self
            .maps
            .iter()
            .filter(|e| e.dir.copies_to())
            .map(|e| e.range)
            .collect();
        out.extend(self.raw.iter().copied());
        out
    }

    /// Host ranges the kernel writes: `from`/`tofrom` maps (results flow
    /// back on exit) plus every raw access.
    pub fn writes(&self) -> Vec<AddrRange> {
        let mut out: Vec<AddrRange> = self
            .maps
            .iter()
            .filter(|e| e.dir.copies_from())
            .map(|e| e.range)
            .collect();
        out.extend(self.raw.iter().copied());
        out
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

    /// Serialize to the line-oriented `mapir v1` text format. Round-trips
    /// through [`parse`](Self::parse).
    pub fn to_text(&self) -> String {
        let mut out = String::from("mapir v1\n");
        for r in &self.records {
            let t = r.thread;
            match &r.op {
                MapOp::HostAlloc { range } => {
                    let _ = writeln!(out, "{t} host_alloc {} {}", range.start.as_u64(), range.len);
                }
                MapOp::HostFree { addr } => {
                    let _ = writeln!(out, "{t} host_free {}", addr.as_u64());
                }
                MapOp::PoolAlloc { range } => {
                    let _ = writeln!(out, "{t} pool_alloc {} {}", range.start.as_u64(), range.len);
                }
                MapOp::PoolFree { addr } => {
                    let _ = writeln!(out, "{t} pool_free {}", addr.as_u64());
                }
                MapOp::HostWrite { range } => {
                    let _ = writeln!(out, "{t} host_write {} {}", range.start.as_u64(), range.len);
                }
                MapOp::HostRead { range } => {
                    let _ = writeln!(out, "{t} host_read {} {}", range.start.as_u64(), range.len);
                }
                MapOp::GlobalDecl { id, host } => {
                    let _ = writeln!(out, "{t} global {id} {} {}", host.start.as_u64(), host.len);
                }
                MapOp::MapEnter { entry } => {
                    let _ = writeln!(
                        out,
                        "{t} enter {} {} {} {}",
                        entry.dir.token(),
                        entry.always as u8,
                        entry.range.start.as_u64(),
                        entry.range.len
                    );
                }
                MapOp::MapExit { entry, delete } => {
                    let _ = writeln!(
                        out,
                        "{t} exit {} {} {} {} {}",
                        entry.dir.token(),
                        entry.always as u8,
                        *delete as u8,
                        entry.range.start.as_u64(),
                        entry.range.len
                    );
                }
                MapOp::Update { to, from } => {
                    let _ = write!(out, "{t} update {} {}", to.len(), from.len());
                    for r in to.iter().chain(from.iter()) {
                        let _ = write!(out, " {} {}", r.start.as_u64(), r.len);
                    }
                    out.push('\n');
                }
                MapOp::Kernel(k) => {
                    let _ = write!(
                        out,
                        "{t} kernel {} {} {} {} {}",
                        KernelOp::name_token(&k.name),
                        k.nowait as u8,
                        k.maps.len(),
                        k.raw.len(),
                        k.globals.len()
                    );
                    for e in &k.maps {
                        let _ = write!(
                            out,
                            " {} {} {} {}",
                            e.dir.token(),
                            e.always as u8,
                            e.range.start.as_u64(),
                            e.range.len
                        );
                    }
                    for r in &k.raw {
                        let _ = write!(out, " {} {}", r.start.as_u64(), r.len);
                    }
                    for g in &k.globals {
                        let _ = write!(out, " {g}");
                    }
                    out.push('\n');
                }
                MapOp::Taskwait => {
                    let _ = writeln!(out, "{t} taskwait");
                }
            }
        }
        out
    }

    /// Parse the `mapir v1` text format produced by
    /// [`to_text`](Self::to_text).
    pub fn parse(text: &str) -> Result<MapIr, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "mapir v1")) => {}
            other => return Err(format!("bad header: {:?}", other.map(|(_, l)| l))),
        }
        let mut ir = MapIr::new();
        for (no, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let ctx = |what: &str| format!("line {}: missing {what}", no + 1);
            let thread: u32 = next_num(&mut tok).ok_or_else(|| ctx("thread"))?;
            let kind = tok.next().ok_or_else(|| ctx("op"))?;
            let op = match kind {
                "host_alloc" => MapOp::HostAlloc {
                    range: next_range(&mut tok).ok_or_else(|| ctx("range"))?,
                },
                "host_free" => MapOp::HostFree {
                    addr: VirtAddr(next_num(&mut tok).ok_or_else(|| ctx("addr"))?),
                },
                "pool_alloc" => MapOp::PoolAlloc {
                    range: next_range(&mut tok).ok_or_else(|| ctx("range"))?,
                },
                "pool_free" => MapOp::PoolFree {
                    addr: VirtAddr(next_num(&mut tok).ok_or_else(|| ctx("addr"))?),
                },
                "host_write" => MapOp::HostWrite {
                    range: next_range(&mut tok).ok_or_else(|| ctx("range"))?,
                },
                "host_read" => MapOp::HostRead {
                    range: next_range(&mut tok).ok_or_else(|| ctx("range"))?,
                },
                "global" => MapOp::GlobalDecl {
                    id: next_num::<u64>(&mut tok).ok_or_else(|| ctx("id"))? as usize,
                    host: next_range(&mut tok).ok_or_else(|| ctx("range"))?,
                },
                "enter" => MapOp::MapEnter {
                    entry: next_entry(&mut tok).ok_or_else(|| ctx("entry"))?,
                },
                "exit" => {
                    let dir = MapDir::TOKENS
                        .get(tok.next().ok_or_else(|| ctx("dir"))?)
                        .ok_or_else(|| ctx("dir"))?;
                    let always = next_num::<u8>(&mut tok).ok_or_else(|| ctx("always"))? != 0;
                    let delete = next_num::<u8>(&mut tok).ok_or_else(|| ctx("delete"))? != 0;
                    let range = next_range(&mut tok).ok_or_else(|| ctx("range"))?;
                    MapOp::MapExit {
                        entry: MapEntry { range, dir, always },
                        delete,
                    }
                }
                "update" => {
                    let nto: usize = next_num::<u64>(&mut tok).ok_or_else(|| ctx("nto"))? as usize;
                    let nfrom: usize =
                        next_num::<u64>(&mut tok).ok_or_else(|| ctx("nfrom"))? as usize;
                    let mut ranges = Vec::with_capacity(nto + nfrom);
                    for _ in 0..nto + nfrom {
                        ranges.push(next_range(&mut tok).ok_or_else(|| ctx("range"))?);
                    }
                    let from = ranges.split_off(nto);
                    MapOp::Update { to: ranges, from }
                }
                "kernel" => {
                    let name = tok.next().ok_or_else(|| ctx("name"))?.to_string();
                    let nowait = next_num::<u8>(&mut tok).ok_or_else(|| ctx("nowait"))? != 0;
                    let nmaps = next_num::<u64>(&mut tok).ok_or_else(|| ctx("nmaps"))? as usize;
                    let nraw = next_num::<u64>(&mut tok).ok_or_else(|| ctx("nraw"))? as usize;
                    let nglobals =
                        next_num::<u64>(&mut tok).ok_or_else(|| ctx("nglobals"))? as usize;
                    let mut maps = Vec::with_capacity(nmaps);
                    for _ in 0..nmaps {
                        maps.push(next_entry(&mut tok).ok_or_else(|| ctx("map"))?);
                    }
                    let mut raw = Vec::with_capacity(nraw);
                    for _ in 0..nraw {
                        raw.push(next_range(&mut tok).ok_or_else(|| ctx("raw"))?);
                    }
                    let mut globals = Vec::with_capacity(nglobals);
                    for _ in 0..nglobals {
                        globals
                            .push(next_num::<u64>(&mut tok).ok_or_else(|| ctx("global"))? as usize);
                    }
                    MapOp::Kernel(KernelOp {
                        name,
                        maps,
                        raw,
                        globals,
                        nowait,
                    })
                }
                "taskwait" => MapOp::Taskwait,
                other => return Err(format!("line {}: unknown op {other:?}", no + 1)),
            };
            let overflows = |r: &AddrRange| r.start.as_u64().checked_add(r.len).is_none();
            if let Some(r) = ranges(&op).into_iter().find(overflows) {
                let (start, len) = (r.start.as_u64(), r.len);
                return Err(format!("line {}: range {start} +{len} overflows", no + 1));
            }
            ir.push(thread, op);
        }
        Ok(ir)
    }
}

/// Every range `op` names.
fn ranges(op: &MapOp) -> Vec<AddrRange> {
    match op {
        MapOp::HostAlloc { range }
        | MapOp::PoolAlloc { range }
        | MapOp::HostWrite { range }
        | MapOp::HostRead { range }
        | MapOp::GlobalDecl { host: range, .. } => vec![*range],
        MapOp::MapEnter { entry } | MapOp::MapExit { entry, .. } => vec![entry.range],
        MapOp::Update { to, from } => [&to[..], from].concat(),
        MapOp::Kernel(k) => [k.maps.iter().map(|e| e.range).collect(), k.raw.clone()].concat(),
        MapOp::HostFree { .. } | MapOp::PoolFree { .. } | MapOp::Taskwait => Vec::new(),
    }
}

fn next_num<'a, T: std::str::FromStr>(tok: &mut impl Iterator<Item = &'a str>) -> Option<T> {
    tok.next()?.parse().ok()
}

fn next_range<'a>(tok: &mut impl Iterator<Item = &'a str>) -> Option<AddrRange> {
    let start: u64 = next_num(tok)?;
    let len: u64 = next_num(tok)?;
    Some(AddrRange::new(VirtAddr(start), len))
}

fn next_entry<'a>(tok: &mut impl Iterator<Item = &'a str>) -> Option<MapEntry> {
    let dir = MapDir::TOKENS.get(tok.next()?)?;
    let always = next_num::<u8>(tok)? != 0;
    let range = next_range(tok)?;
    Some(MapEntry { range, dir, always })
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
    fn read_write_sets_follow_directions() {
        let k = KernelOp {
            name: "k".into(),
            maps: vec![
                MapEntry::to(r(0, 8)),
                MapEntry::from(r(16, 8)),
                MapEntry::tofrom(r(32, 8)),
                MapEntry::alloc(r(48, 8)),
            ],
            raw: vec![r(64, 8)],
            globals: vec![],
            nowait: false,
        };
        assert_eq!(k.reads(), vec![r(0, 8), r(32, 8), r(64, 8)]);
        assert_eq!(k.writes(), vec![r(16, 8), r(32, 8), r(64, 8)]);
    }

    #[test]
    fn kernel_count() {
        assert_eq!(sample().kernels(), 1);
        assert!(!sample().is_empty());
        assert_eq!(sample().len(), 12);
    }
}
