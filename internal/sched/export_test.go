package sched

import "context"

// ForEach runs fn(i) for i in [0, n) on the executor's threads. It blocks
// until all tasks complete. Tasks are claimed in order by every participant,
// matching the task-queue model of Figure 4.
func (e *Executor) ForEach(n int, fn func(i int)) {
	e.ForEachErr(context.Background(), n, func(i int) error {
		fn(i)
		return nil
	})
}
