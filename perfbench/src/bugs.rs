//! The seeded-bug corpus the PCT hunts run against.
//!
//! The two X4 bugs (`OutputRace`, `BrokenBracket`) are two-thread
//! programs. `LostUnlock` is a five-thread program written here from the
//! public `Io` API: the paper's §5.1 motivating bug, an unmasked
//! take–modify–put on a shared lock `MVar`. A `KillThread` landing
//! inside the victim's critical section loses the lock, and the run
//! deadlocks. Every worker first runs a private prefix of visible `MVar`
//! steps, each a delivery point, so a kill that is pending early almost
//! always lands harmlessly in the prefix: the bug needs the throw itself
//! to fall inside the victim's critical section, an ordering the sampler
//! must force. Its median first failure is about ten samples, against
//! one for `OutputRace` and about forty for `BrokenBracket`.

use conch_explore::RunOutcome;
use conch_runtime::exception::Exception;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    OutputRace,
    BrokenBracket,
    LostUnlock,
}

pub const BUGS: [Bug; 3] = [Bug::OutputRace, Bug::BrokenBracket, Bug::LostUnlock];

impl Bug {
    pub fn name(self) -> &'static str {
        match self {
            Bug::OutputRace => "output_race",
            Bug::BrokenBracket => "broken_bracket",
            Bug::LostUnlock => "lost_unlock",
        }
    }
}

const WORKERS: u64 = 4;
/// Private put/take pairs a worker runs before contending for the lock;
/// more make the bug deeper and each sample dearer.
const PREFIX_STEPS: u64 = 16;

/// One worker: a private prefix, then bump the shared counter with an
/// *unmasked* take–compute–put, absorb a kill anywhere, signal done.
fn worker(lock: MVar<i64>, done: MVar<i64>) -> Io<()> {
    Io::new_empty_mvar::<i64>()
        .and_then(|scratch| {
            let mut prefix = Io::unit();
            for _ in 0..PREFIX_STEPS {
                prefix = prefix.then(scratch.put(0)).then(scratch.take().map(|_| ()));
            }
            prefix
        })
        .then(lock.take())
        .and_then(move |v| Io::compute(1).then(lock.put(v + 1)))
        .catch(|_| Io::unit())
        .then(done.put(1))
}

/// Four workers contend for `lock`; main waits for the first three,
/// kills the fourth, waits for it and returns the counter: 4 if the kill
/// missed the victim's update, 3 if it landed before the victim's `take`.
pub fn lost_unlock() -> Io<i64> {
    fn spawn(
        lock: MVar<i64>,
        left: u64,
        dones: Vec<MVar<i64>>,
    ) -> Io<(Vec<MVar<i64>>, conch_runtime::ThreadId)> {
        Io::new_empty_mvar::<i64>().and_then(move |done| {
            Io::fork(worker(lock, done)).and_then(move |tid| {
                let mut dones = dones;
                dones.push(done);
                if left == 1 {
                    Io::pure((dones, tid))
                } else {
                    spawn(lock, left - 1, dones)
                }
            })
        })
    }
    Io::new_mvar(0_i64).and_then(|lock| {
        spawn(lock, WORKERS, Vec::new()).and_then(move |(dones, victim)| {
            let mut wait = Io::unit();
            for (i, done) in dones.into_iter().enumerate() {
                if i as u64 == WORKERS - 1 {
                    wait = wait.then(Io::throw_to(victim, Exception::kill_thread()));
                }
                wait = wait.then(done.take().map(|_| ()));
            }
            wait.then(lock.take())
        })
    })
}

/// The property: every schedule ends with the lock released.
pub fn lost_unlock_check(out: &RunOutcome<i64>) -> Result<(), String> {
    match &out.result {
        Ok(n) if *n == WORKERS as i64 || *n == WORKERS as i64 - 1 => Ok(()),
        Ok(n) => Err(format!("counter reads {n}")),
        Err(e) => Err(format!("lock lost: {e}")),
    }
}
