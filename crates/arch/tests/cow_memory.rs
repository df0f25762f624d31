//! Property test: copy-on-write [`Memory`] is observationally identical
//! to an eager deep copy.
//!
//! The COW implementation shares page allocations between clones and
//! un-shares lazily on write, with an "open page" write handle cached
//! outside the page map and a frozen base layer shared under every
//! clone's private pages. None of that machinery may be visible through
//! the API: any interleaving of reads, multi-byte writes, clones,
//! `clone_from` overwrites, freezes, equality tests and drops must
//! produce exactly the bytes a naive per-instance byte map would. Each
//! generated case drives a small population of (memory, model) pairs
//! through a random op sequence and checks every read against the
//! model, including reads that straddle page boundaries. A frozen
//! template, written before the case and cloned into the population,
//! must never see a write made through any of its clones.

use protean_arch::Memory;
use protean_testkit::{Checker, Rng};
use std::collections::HashMap;

/// The oracle: an eagerly-copied sparse byte map with the same
/// little-endian multi-byte semantics as [`Memory`].
#[derive(Clone, Default)]
struct Model(HashMap<u64, u8>);

impl Model {
    fn read(&self, addr: u64, size: u64) -> u64 {
        let mut v = 0u64;
        for i in (0..size).rev() {
            let b = self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v = (v << 8) | b as u64;
        }
        v
    }

    fn write(&mut self, addr: u64, size: u64, value: u64) {
        for i in 0..size {
            self.0
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Content equality: a stored zero equals an absent byte.
    fn same_bytes(&self, other: &Model) -> bool {
        let covers = |a: &Model, b: &Model| {
            a.0.iter()
                .all(|(addr, v)| b.0.get(addr).copied().unwrap_or(0) == *v)
        };
        covers(self, other) && covers(other, self)
    }
}

/// Addresses concentrate on three pages and their boundaries so page
/// straddles, repeat hits on the open page, and cross-page sharing all
/// occur within a few hundred ops.
fn gen_addr(rng: &mut Rng) -> u64 {
    let page = 0x1000 * rng.gen_range(0..3u64);
    let offset = if rng.gen_range(0..4u32) == 0 {
        // Near the page end: sizes up to 8 straddle into the next page.
        0xff8 + rng.gen_range(0..8u64)
    } else {
        rng.gen_range(0..0x1000u64)
    };
    page + offset
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Write,
    Read,
    Clone,
    CloneFrom,
    CloneTemplate,
    Freeze,
    Eq,
    Drop,
}

#[test]
fn cow_memory_matches_deep_copy_model() {
    Checker::new("cow_memory_matches_deep_copy_model")
        .cases(96)
        .run(
            |rng| {
                let template: Vec<(u64, u64, u64)> = (0..rng.gen_range(0..40))
                    .map(|_| (gen_addr(rng), rng.gen_range(1..9), rng.gen::<u64>()))
                    .collect();
                let ops: Vec<(OpKind, u64, u64, u64, usize, usize)> = (0..250)
                    .map(|_| {
                        let kind = match rng.gen_range(0..14) {
                            0..=4 => OpKind::Write,
                            5..=7 => OpKind::Read,
                            8 => OpKind::Clone,
                            9 => OpKind::CloneFrom,
                            10 => OpKind::CloneTemplate,
                            11 => OpKind::Freeze,
                            12 => OpKind::Eq,
                            _ => OpKind::Drop,
                        };
                        (
                            kind,
                            gen_addr(rng),
                            rng.gen_range(1..9),
                            rng.gen::<u64>(),
                            rng.gen_range(0..8) as usize,
                            rng.gen_range(0..8) as usize,
                        )
                    })
                    .collect();
                (template, ops)
            },
            |(template, ops)| {
                let mut frozen = (Memory::new(), Model::default());
                for &(addr, size, value) in template {
                    frozen.0.write(addr, size, value);
                    frozen.1.write(addr, size, value);
                }
                frozen.0.freeze();
                let mut pairs: Vec<(Memory, Model)> = vec![(Memory::new(), Model::default())];
                for &(kind, addr, size, value, a, b) in ops {
                    let a = a % pairs.len();
                    match kind {
                        OpKind::Write => {
                            let (mem, model) = &mut pairs[a];
                            mem.write(addr, size, value);
                            model.write(addr, size, value);
                        }
                        OpKind::Read => {
                            let (mem, model) = &pairs[a];
                            assert_eq!(
                                mem.read(addr, size),
                                model.read(addr, size),
                                "read {size}B @ {addr:#x} diverged from model"
                            );
                        }
                        OpKind::Clone => {
                            if pairs.len() < 6 {
                                let clone = (pairs[a].0.clone(), pairs[a].1.clone());
                                pairs.push(clone);
                            }
                        }
                        OpKind::CloneFrom => {
                            let b = b % pairs.len();
                            if a != b {
                                let model = pairs[b].1.clone();
                                let (lo, hi) = pairs.split_at_mut(a.max(b));
                                let (dst, src) = if a < b {
                                    (&mut lo[a].0, &hi[0].0)
                                } else {
                                    (&mut hi[0].0, &lo[b].0)
                                };
                                dst.clone_from(src);
                                pairs[a].1 = model;
                            }
                        }
                        OpKind::CloneTemplate => {
                            pairs[a].0.clone_from(&frozen.0);
                            pairs[a].1 = frozen.1.clone();
                        }
                        OpKind::Freeze => pairs[a].0.freeze(),
                        OpKind::Eq => {
                            let b = b % pairs.len();
                            assert_eq!(
                                pairs[a].0 == pairs[b].0,
                                pairs[a].1.same_bytes(&pairs[b].1),
                                "memory equality diverged from model"
                            );
                        }
                        OpKind::Drop => {
                            if pairs.len() > 1 {
                                pairs.remove(a);
                            }
                        }
                    }
                }
                // Final sweep: every surviving instance and the frozen
                // template still agree with their models, bytewise and
                // through multi-byte reads.
                for (mem, model) in pairs.iter().chain([&frozen]) {
                    for page in 0..3u64 {
                        for offset in (0..0x1000).step_by(8) {
                            let addr = 0x1000 * page + offset;
                            assert_eq!(mem.read(addr, 8), model.read(addr, 8));
                        }
                    }
                    assert_eq!(mem.read(0xff9, 8), model.read(0xff9, 8));
                    assert_eq!(mem.read(0x1ffd, 8), model.read(0x1ffd, 8));
                }
            },
        );
}
