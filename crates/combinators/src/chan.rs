//! Unbounded FIFO channels built from `MVar`s.
//!
//! §4 of the paper notes that "using only MVars, many complex datatypes
//! for concurrent communication can be built, including typed channels,
//! semaphores and so on". This is the classic Concurrent Haskell `Chan`:
//! a linked list of stream cells, with one `MVar` holding the read end
//! and one the write end.
//!
//! Reads take the read-end `MVar` with the §5.1 safe pattern
//! ([`crate::modify_mvar_with`]), so an asynchronous exception arriving
//! while a reader waits for data leaves the channel intact — exactly the
//! exception-safety the paper's combinators exist to provide. Writes
//! run fully masked (the §7.4 pattern): a masked writer can only be
//! interrupted while another writer holds the write end, before it has
//! taken anything.

use std::marker::PhantomData;

use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};

use crate::locking::modify_mvar_with;

/// An unbounded multi-producer multi-consumer FIFO channel.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
/// use conch_combinators::Chan;
///
/// let mut rt = Runtime::new();
/// let prog = Chan::<i64>::new().and_then(|ch| {
///     ch.send(1).then(ch.send(2)).then(ch.recv()).and_then(move |a| {
///         ch.recv().map(move |b| (a, b))
///     })
/// });
/// assert_eq!(rt.run(prog).unwrap(), (1, 2));
/// ```
pub struct Chan<T> {
    /// Holds the stream cell the next read will consume.
    read_end: MVar<Value>,
    /// Holds the (empty) stream cell the next write will fill.
    write_end: MVar<Value>,
    marker: PhantomData<fn(T) -> T>,
}

impl<T> Clone for Chan<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Chan<T> {}

impl<T> std::fmt::Debug for Chan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Chan(read={:?}, write={:?})",
            self.read_end, self.write_end
        )
    }
}

impl<T: FromValue + IntoValue + 'static> Chan<T> {
    /// Creates an empty channel.
    pub fn new() -> Io<Chan<T>> {
        // hole <- newEmptyMVar; read <- newMVar hole; write <- newMVar hole
        Io::new_empty_mvar::<Value>().and_then(|hole| {
            let hole_v = Value::MVar(hole.id());
            let hole_v2 = hole_v.clone();
            Io::new_mvar::<Value>(hole_v).and_then(move |read_end| {
                Io::new_mvar::<Value>(hole_v2).map(move |write_end| Chan {
                    read_end,
                    write_end,
                    marker: PhantomData,
                })
            })
        })
    }

    /// Appends a value to the channel. Never blocks indefinitely: the
    /// write-end `MVar` is only held for the duration of a write, and
    /// the old hole is empty by construction.
    ///
    /// The whole write is one masked take → new hole → put → put. After
    /// the take nothing blocks, so a masked thread cannot be interrupted
    /// there (§5.3) and the write needs neither an `unblock` window nor
    /// a rollback: once the write end is taken, the value is delivered.
    /// The take itself blocks (and is interruptible) only while another
    /// writer holds the write end, before anything is taken.
    pub fn send(&self, v: T) -> Io<()> {
        let item_payload = v.into_value();
        let write_end = self.write_end;
        Io::block(write_end.take().and_then(move |old_hole: Value| {
            let old_hole: MVar<Value> = MVar::from_id(
                old_hole
                    .as_mvar_id()
                    .expect("write end holds a stream cell"),
            );
            Io::new_empty_mvar::<Value>().and_then(move |new_hole| {
                let item =
                    Value::Pair(Box::new(item_payload), Box::new(Value::MVar(new_hole.id())));
                old_hole
                    .put(item)
                    .then(write_end.put(Value::MVar(new_hole.id())))
            })
        }))
    }

    /// Removes and returns the channel's oldest value, blocking while the
    /// channel is empty.
    ///
    /// Blocking happens inside the stream-cell `takeMVar`, which is
    /// interruptible (§5.3); if an asynchronous exception arrives while
    /// waiting, the read end is restored and the channel stays usable.
    pub fn recv(&self) -> Io<T> {
        modify_mvar_with(self.read_end, move |stream: Value| {
            let stream: MVar<Value> =
                MVar::from_id(stream.as_mvar_id().expect("read end holds a stream cell"));
            stream.take().map(move |item| match item {
                Value::Pair(v, next) => (*next, T::from_value_or_panic(*v)),
                other => panic!("malformed stream cell: {other}"),
            })
        })
    }

    /// Non-blocking receive: `Some(v)` if a value is ready.
    ///
    /// Restores both the stream cell and the read end if the channel is
    /// empty, so it composes with concurrent senders.
    pub fn try_recv(&self) -> Io<Option<T>> {
        modify_mvar_with(self.read_end, move |stream_v: Value| {
            let stream: MVar<Value> =
                MVar::from_id(stream_v.as_mvar_id().expect("read end holds a stream cell"));
            let stream_v2 = stream_v.clone();
            stream.try_take().map(move |item| match item {
                None => (stream_v2, None),
                Some(Value::Pair(v, next)) => (*next, Some(T::from_value_or_panic(*v))),
                Some(other) => panic!("malformed stream cell: {other}"),
            })
        })
    }
}

impl<T: FromValue + IntoValue + 'static> FromValue for Chan<T> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Pair(r, w) => Some(Chan {
                read_end: MVar::from_id(r.as_mvar_id()?),
                write_end: MVar::from_id(w.as_mvar_id()?),
                marker: PhantomData,
            }),
            _ => None,
        }
    }
}

impl<T: FromValue + IntoValue + 'static> IntoValue for Chan<T> {
    fn into_value(self) -> Value {
        Value::Pair(
            Box::new(Value::MVar(self.read_end.id())),
            Box::new(Value::MVar(self.write_end.id())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeout;
    use conch_runtime::prelude::*;

    #[test]
    fn fifo_order() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| {
            ch.send(1)
                .then(ch.send(2))
                .then(ch.send(3))
                .then(conch_runtime::io::sequence(vec![
                    ch.recv(),
                    ch.recv(),
                    ch.recv(),
                ]))
        });
        assert_eq!(rt.run(prog).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new()
            .and_then(|ch| Io::fork(Io::sleep(50).then(ch.send(9))).then(ch.recv()));
        assert_eq!(rt.run(prog).unwrap(), 9);
        assert!(rt.clock() >= 50);
    }

    #[test]
    fn crosses_thread_boundaries() {
        let mut rt = Runtime::new();
        // Producer and consumer threads; consumer reports sum via MVar.
        let prog = Chan::<i64>::new().and_then(|ch| {
            Io::new_empty_mvar::<i64>().and_then(move |result| {
                let producer = conch_runtime::io::for_each(10, move |i| ch.send(i as i64));
                fn consume(ch: Chan<i64>, n: u64, acc: i64, result: MVar<i64>) -> Io<()> {
                    if n == 0 {
                        result.put(acc)
                    } else {
                        ch.recv()
                            .and_then(move |v| consume(ch, n - 1, acc + v, result))
                    }
                }
                Io::fork(producer)
                    .then(Io::fork(consume(ch, 10, 0, result)))
                    .then(result.take())
                    .map(|sum| sum)
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 45);
    }

    #[test]
    fn try_recv_on_empty_is_none() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| ch.try_recv());
        assert_eq!(rt.run(prog).unwrap(), None);
    }

    #[test]
    fn try_recv_then_recv_consistent() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| {
            ch.send(7)
                .then(ch.try_recv())
                .and_then(move |a| ch.send(8).then(ch.recv()).map(move |b| (a, b)))
        });
        assert_eq!(rt.run(prog).unwrap(), (Some(7), 8));
    }

    #[test]
    fn interrupted_reader_leaves_channel_usable() {
        let mut rt = Runtime::new();
        // A reader blocks on an empty channel and is killed; afterwards
        // the channel still delivers to a new reader.
        let prog = Chan::<i64>::new().and_then(|ch| {
            let doomed = ch.recv().map(|_| ()).catch(|_| Io::unit());
            Io::fork(doomed).and_then(move |reader| {
                Io::sleep(10)
                    .then(Io::throw_to(reader, Exception::kill_thread()))
                    .then(Io::sleep(10))
                    .then(ch.send(42))
                    .then(ch.recv())
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 42);
    }

    #[test]
    fn timeout_recv_composes() {
        let mut rt = Runtime::new();
        let prog = Chan::<i64>::new().and_then(|ch| timeout(20, ch.recv()));
        assert_eq!(rt.run(prog).unwrap(), None);
    }

    /// A masked sender is killed while it sends: `send` never blocks, so
    /// under the mask the kill cannot land inside it, and the value must
    /// arrive on every schedule.
    #[test]
    fn masked_send_is_never_lost_to_a_kill() {
        use conch_explore::{Explorer, RunOutcome, TestCase};
        fn program() -> Io<(i64, Option<i64>)> {
            Chan::<i64>::new().and_then(|ch| {
                Io::new_empty_mvar::<i64>().and_then(move |done| {
                    let sender = Io::block(ch.send(42).then(done.put(1)));
                    // Forked from a masked parent, the worker is masked
                    // from birth: the kill can only be pending.
                    Io::block(Io::fork(sender)).and_then(move |worker| {
                        Io::throw_to(worker, Exception::kill_thread())
                            .then(Io::sleep(10))
                            .then(done.try_take())
                            .and_then(move |d| ch.try_recv().map(move |v| (d.unwrap_or(0), v)))
                    })
                })
            })
        }
        let result = Explorer::new().check(|| {
            TestCase::new(
                program(),
                |out: &RunOutcome<(i64, Option<i64>)>| match &out.result {
                    Ok((1, Some(42))) => Ok(()),
                    other => Err(format!("masked send lost: {other:?}")),
                },
            )
        });
        let report = result.expect_pass();
        assert!(report.complete, "{report:?}");
    }

    #[test]
    fn value_round_trip() {
        let mut rt = Runtime::new();
        // A Chan can itself travel through an MVar (it is just a pair of
        // MVar references).
        let prog = Chan::<i64>::new().and_then(|ch| {
            Io::new_empty_mvar::<Chan<i64>>().and_then(move |carrier| {
                carrier
                    .put(ch)
                    .then(carrier.take())
                    .and_then(move |ch2| ch2.send(5).then(ch.recv()))
            })
        });
        assert_eq!(rt.run(prog).unwrap(), 5);
    }
}
