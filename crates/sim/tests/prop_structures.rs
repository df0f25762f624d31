//! Property tests on the simulator's hardware structures.

use protean_sim::{Btb, Cache, CacheConfig, Rsb, TagePredictor};
use protean_testkit::{Checker, Rng};

fn cache_cfg(sets_pow: u32, ways: usize) -> CacheConfig {
    CacheConfig {
        size_bytes: (1 << sets_pow) * ways * 64,
        ways,
        line_bytes: 64,
        latency: 3,
    }
}

fn vec_of<T>(
    rng: &mut Rng,
    len: std::ops::Range<usize>,
    mut f: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| f(rng)).collect()
}

/// An accessed line is resident until at least `ways` other lines of
/// the same set are accessed (LRU lower bound), and `probe` never
/// changes state.
#[test]
fn cache_access_then_probe() {
    Checker::new("cache_access_then_probe").run(
        |rng| vec_of(rng, 1..128, |r| r.gen_range(0u64..0x10_0000)),
        |addrs| {
            let mut cache = Cache::new(cache_cfg(4, 4), true);
            for a in addrs {
                cache.access(*a);
                assert!(cache.probe(*a), "just-accessed line must be resident");
            }
            assert_eq!(cache.hits + cache.misses, addrs.len() as u64);
        },
    );
}

/// meta_any and meta_all agree on uniform ranges and bracket each
/// other in general.
#[test]
fn cache_meta_consistency() {
    Checker::new("cache_meta_consistency").run(
        |rng| {
            (
                rng.gen_range(0u64..0x1000),
                rng.gen_range(1u64..64),
                rng.gen::<bool>(),
            )
        },
        |&(base, size, set_value)| {
            let mut cache = Cache::new(cache_cfg(3, 2), true);
            cache.access(base);
            cache.access(base + size);
            cache.meta_set(base, size, set_value);
            let any = cache.meta_any(base, size);
            let all = cache.meta_all(base, size);
            // all => any.
            assert!(!all || any);
            if set_value {
                assert!(any);
            }
        },
    );
}

fn check_invalidate_resets_meta(addr: u64) {
    let mut cache = Cache::new(cache_cfg(3, 2), true);
    cache.access(addr);
    cache.access(addr + 7); // the range may straddle a line boundary
    cache.meta_set(addr, 8, false);
    assert!(!cache.meta_any(addr, 8));
    cache.invalidate(addr);
    cache.invalidate(addr + 7);
    assert!(!cache.probe(addr));
    cache.access(addr);
    assert!(cache.meta_any(addr, 8), "refill restores protected default");
}

/// Invalidate really removes a line, and re-fill restores the
/// metadata default.
#[test]
fn cache_invalidate_resets_meta() {
    Checker::new("cache_invalidate_resets_meta").run(
        |rng| rng.gen_range(0u64..0x8000),
        |&addr| check_invalidate_resets_meta(addr),
    );
}

/// Former proptest counterexample (`shrinks to addr = 18233`): an
/// 8-byte range straddling a line boundary, where only the lower line
/// is re-filled after invalidation. `meta_any` must still report the
/// protected default because the non-resident upper line contributes
/// the fill value.
#[test]
fn regression_invalidate_straddling_line_boundary() {
    check_invalidate_resets_meta(18233);
}

/// The BTB only ever returns a target that was stored for exactly
/// that PC.
#[test]
fn btb_never_lies() {
    Checker::new("btb_never_lies").run(
        |rng| vec_of(rng, 1..64, |r| (r.gen_range(0u64..0x4000), r.gen::<u64>())),
        |updates| {
            let mut btb = Btb::new(64);
            let mut last = std::collections::HashMap::new();
            for (pc, target) in updates {
                let pc = pc & !3;
                btb.update(pc, *target);
                last.insert(pc, *target);
            }
            for (pc, _) in updates {
                let pc = pc & !3;
                if let Some(t) = btb.lookup(pc) {
                    assert_eq!(t, last[&pc], "stale or aliased target for {pc:#x}");
                }
            }
        },
    );
}

/// RSB: pushes and pops behave like a bounded stack (LIFO suffix).
#[test]
fn rsb_is_a_bounded_stack() {
    Checker::new("rsb_is_a_bounded_stack").run(
        |rng| vec_of(rng, 1..40, |r| r.gen::<u64>()),
        |values| {
            let cap = 8;
            let mut rsb = Rsb::new(cap);
            for v in values {
                rsb.push(*v);
            }
            let expected: Vec<u64> = values.iter().rev().take(cap).copied().collect();
            let mut got = Vec::new();
            while let Some(v) = rsb.pop() {
                got.push(v);
            }
            assert_eq!(got, expected);
        },
    );
}

/// One operation of [`rsb_checkpoints_match_a_snapshot_model`].
#[derive(Clone, Copy, Debug)]
enum RsbOp {
    Push(u64),
    Pop,
    Checkpoint,
    /// Restore the live checkpoint at this index (mod the live count).
    Restore(usize),
    /// Release the live checkpoints older than the one at this index.
    Release(usize),
}

/// RSB checkpoints by id: random push/pop/checkpoint/restore/release
/// sequences against a model that keeps a `Vec` copy of every live
/// checkpoint. Restoring any live id reproduces its contents exactly and
/// drops every newer id; a checkpoint reuses the newest id while the
/// contents are unchanged; the live count is exactly the model's.
/// Capacities 0–4 with long sequences drive both the RSB ring and the
/// checkpoint ring through wrap-around (and the latter through growth).
#[test]
fn rsb_checkpoints_match_a_snapshot_model() {
    Checker::new("rsb_checkpoints_match_a_snapshot_model").run(
        |rng| {
            let cap = rng.gen_range(0..5usize);
            let ops = vec_of(rng, 1..400, |r| match r.gen_range(0..5u32) {
                0 => RsbOp::Push(r.gen()),
                1 => RsbOp::Pop,
                2 => RsbOp::Checkpoint,
                3 => RsbOp::Restore(r.gen_range(0..64)),
                _ => RsbOp::Release(r.gen_range(0..64)),
            });
            (cap, ops)
        },
        |(cap, ops)| {
            let cap = *cap;
            let mut rsb = Rsb::new(cap);
            // Model: contents oldest → newest, the live checkpoints
            // oldest first, and whether the contents changed since the
            // newest checkpoint.
            let mut stack: Vec<u64> = Vec::new();
            let mut live: Vec<(u32, Vec<u64>)> = Vec::new();
            let mut dirty = true;
            for &op in ops {
                match op {
                    RsbOp::Push(v) => {
                        rsb.push(v);
                        if cap > 0 {
                            if stack.len() == cap {
                                stack.remove(0);
                            }
                            stack.push(v);
                            dirty = true;
                        }
                    }
                    RsbOp::Pop => {
                        let want = stack.pop();
                        dirty |= want.is_some();
                        assert_eq!(rsb.pop(), want);
                    }
                    RsbOp::Checkpoint => {
                        let id = rsb.checkpoint();
                        match live.last() {
                            Some((last, snap)) if !dirty => {
                                assert_eq!(id, *last, "unchanged contents reuse the newest id");
                                assert_eq!(snap, &stack);
                            }
                            _ => {
                                assert!(
                                    live.iter().all(|(l, _)| *l != id),
                                    "a fresh id must not alias a live one"
                                );
                                live.push((id, stack.clone()));
                            }
                        }
                        dirty = false;
                    }
                    RsbOp::Restore(k) if !live.is_empty() => {
                        let k = k % live.len();
                        rsb.restore(live[k].0);
                        live.truncate(k + 1);
                        stack.clone_from(&live[k].1);
                        dirty = false;
                        assert_eq!(rsb.snapshot(), stack, "restore reproduces the checkpoint");
                    }
                    RsbOp::Release(k) if !live.is_empty() => {
                        let k = k % live.len();
                        rsb.release_before(live[k].0);
                        live.drain(..k);
                    }
                    RsbOp::Restore(_) | RsbOp::Release(_) => {}
                }
                assert_eq!(rsb.snapshot(), stack);
                assert_eq!(rsb.live_checkpoints(), live.len(), "live-checkpoint count");
            }
        },
    );
}

/// TAGE history snapshot/restore is exact, and predictions are
/// deterministic functions of (state, pc).
#[test]
fn tage_snapshot_determinism() {
    Checker::new("tage_snapshot_determinism").run(
        |rng| {
            (
                vec_of(rng, 1..64, |r| r.gen_range(0u64..0x1000)),
                (0..64).map(|_| rng.gen::<bool>()).collect::<Vec<bool>>(),
            )
        },
        |(pcs, outcomes)| {
            let mut p = TagePredictor::new();
            for (i, pc) in pcs.iter().enumerate() {
                let pc = pc & !3;
                let pred = p.predict(pc);
                assert_eq!(pred, p.predict(pc), "predict must be repeatable");
                let h = p.history();
                p.restore_history(h);
                assert_eq!(p.history(), h);
                p.update(pc, pred, outcomes[i % outcomes.len()]);
            }
        },
    );
}
