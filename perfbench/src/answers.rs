//! The `verify` workload's known answers: for each X1 space, every
//! outcome a schedule may reach, derived by hand from the program, with
//! the reason it is reachable. A closure verdict is right iff every
//! explored schedule lands in the table and every entry is reached.
//! Explored and pruned counts are layer counts, not answers: a reduction
//! that skips redundant schedules changes them and keeps the verdict.

use conch_explore::RunOutcome;
use conch_runtime::error::RunError;
use conch_runtime::io::Io;

/// The three large X1 spaces the closure pass explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    LogFanin,
    AcceptLoop,
    Pipeline,
}

pub const SPACES: [Space; 3] = [Space::LogFanin, Space::AcceptLoop, Space::Pipeline];

impl Space {
    pub fn name(self) -> &'static str {
        match self {
            Space::LogFanin => "log_fanin(4,4)",
            Space::AcceptLoop => "accept_loop(2)",
            Space::Pipeline => "pipeline(3)",
        }
    }

    pub fn program(self) -> Io<i64> {
        match self {
            Space::LogFanin => conch_bench::log_fanin_workload(4, 4),
            Space::AcceptLoop => conch_bench::accept_loop_workload(2),
            Space::Pipeline => conch_bench::pipeline_workload(3),
        }
    }

    /// Every reachable answer, with why.
    pub fn answers(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Space::LogFanin => &[(
                "ok 10 ....",
                "producers put 1..=4 into private MVars and main sums them after \
                 its four log dots: 1+2+3+4 = 10 and the console reads `....` on \
                 every interleaving",
            )],
            Space::AcceptLoop => &[(
                "ok 3",
                "clients submit 2^0 and 2^1; main waits until the server has \
                 served 3 before killing it, so the total is 3 on every schedule",
            )],
            Space::Pipeline => &[
                (
                    "ok 4",
                    "the kill lands after stage 1 has passed the value on (or is \
                     absorbed by a finished thread): 1 plus one per stage = 4",
                ),
                (
                    "ok 1",
                    "the kill lands inside stage 1's catch: it forwards -1, and \
                     the two later stages add one each: -1+2 = 1",
                ),
                (
                    "deadlock stage1-killed",
                    "the kill lands before the forked stage 1 installs its catch \
                     (the paper's Fork rule starts the child before its first \
                     step), so stage 1 dies uncaught and nothing ever reaches the \
                     tail: stages 2, 3 and main are stuck",
                ),
            ],
        }
    }
}

/// The table key of one explored schedule's outcome.
pub fn classify(space: Space, out: &RunOutcome<i64>) -> String {
    match &out.result {
        Ok(v) if space == Space::LogFanin => format!("ok {v} {}", out.output),
        Ok(v) => format!("ok {v}"),
        Err(RunError::Deadlock { .. }) if out.stats.kill_thread_deaths == 1 => {
            "deadlock stage1-killed".to_owned()
        }
        Err(e) => format!("error {e}"),
    }
}
