//! Deterministic scoped fan-out.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluate `f(i)` for every `i in 0..n` across up to `width` threads
/// and return the results in index order.
///
/// `width` counts the calling thread: `1` is fully serial, `0` asks for
/// the platform default (one worker per available core).
///
/// # Determinism
///
/// There is no work stealing and no per-worker queue: workers pull the
/// next index from one shared counter and results are merged
/// *positionally* — output `i` is `f(i)`, whatever thread computed it.
/// A pure `f` therefore produces bitwise-identical output at every
/// width, serial included.
///
/// # Panics
/// A panic in any `f(i)` propagates to the caller once every worker
/// has stopped.
pub fn fan_out<T, F>(n: usize, width: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = match width {
        0 => std::thread::available_parallelism().map_or(1, |w| w.get()),
        w => w,
    };
    let workers = width.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let pull = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return out;
            }
            out.push((i, f(i)));
        }
    };
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
        let extras: Vec<_> = (1..workers).map(|_| s.spawn(pull)).collect();
        // The calling thread is a worker too.
        let mine = pull();
        extras
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .chain(mine)
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        let serial: Vec<usize> = fan_out(50, 1, |i| i * i);
        for width in [0, 2, 3, 7, 64] {
            assert_eq!(fan_out(50, width, |i| i * i), serial, "width {width}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(fan_out(0, 0, |i| i), Vec::<usize>::new());
        assert_eq!(fan_out(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn panics_propagate_and_release_permits() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
        // Every worker was joined before the panic resumed: nothing is
        // left holding a thread, and the next fan-out runs full width.
        assert_eq!(fan_out(8, 4, |i| i), (0..8).collect::<Vec<_>>());
    }
}
