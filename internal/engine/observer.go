package engine

import "time"

// TaskObserver receives one completed chunk execution from a dedicated
// engine worker goroutine: the owning engine's id, the worker's index
// within that engine, and the chunk's wall-clock start/end.
//
// The observer is a pure observer of scheduling that already happened:
// installing one never changes chunk boundaries, claim order or
// numeric results. It runs on the worker goroutine after the chunk's
// WaitGroup release, so it must be fast and must not call back into
// the engine.
type TaskObserver func(engineID int64, worker int, start, end time.Time)

// SetTaskObserver installs fn as this engine's task observer — every
// handle derived from one New call shares it, and no other engine's
// chunks reach it; nil uninstalls it. A nil engine has no workers and
// nothing to observe.
func (e *Engine) SetTaskObserver(fn TaskObserver) {
	if e == nil || e.st == nil {
		return
	}
	var obs *TaskObserver
	if fn != nil {
		obs = new(TaskObserver)
		*obs = fn
	}
	e.st.observer.Store(obs)
}
