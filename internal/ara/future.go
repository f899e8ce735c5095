package ara

import (
	"errors"
	"fmt"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// Errors surfaced by futures.
var (
	// ErrServiceNotAvailable reports a failed discovery or send.
	ErrServiceNotAvailable = errors.New("ara: service not available")
	// ErrTimeout reports that a future was abandoned by its timeout.
	ErrTimeout = errors.New("ara: request timed out")
)

// RemoteError is an application-level error returned by a server.
type RemoteError struct {
	Code someip.ReturnCode
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("ara: remote error %s", e.Code)
}

// Result is the outcome of a method call.
type Result struct {
	Payload []byte
	Err     error
	// Tag carries the DEAR tag of the response message, when the runtime
	// uses the modified (tagged) SOME/IP binding. Nil otherwise.
	Tag *logical.Tag
}

// Future is the asynchronous result of a method call, mirroring
// ara::core::Future. It resolves at most once.
type Future struct {
	k      *des.Kernel
	done   bool
	result Result
	cbs    []func(Result)
	// waiter and waiters hold the processes blocked in Get/GetTimeout,
	// in FIFO order: waiter (when set) first, then waiters. The common
	// single waiter needs no slice; waiter is filled only while waiters
	// is empty, so a later arrival never jumps the queue.
	waiter  *des.Process
	waiters []*des.Process
}

// NewFuture creates an unresolved future (exported for transactor use).
func NewFuture(k *des.Kernel) *Future { return &Future{k: k} }

// Done reports whether the future has resolved.
func (f *Future) Done() bool { return f.done }

// Result returns the resolved result (including the response tag, which
// Get drops). ok is false while the future is unresolved.
func (f *Future) Result() (r Result, ok bool) { return f.result, f.done }

// Resolve completes the future. Second and later calls are ignored
// (e.g. a late response after a timeout).
//
// Registered callbacks are delivered by a single closure-free kernel
// event carrying the future itself as its argument — the schedule+fire
// round trip allocates nothing. Running all callbacks inside one event
// preserves the historical per-callback-event order exactly: the old
// events held consecutive sequence numbers at the same instant, so no
// other event could interleave between them, and anything a callback
// schedules still lands after the whole batch either way.
func (f *Future) Resolve(r Result) {
	if f.done {
		return
	}
	f.done = true
	f.result = r
	if len(f.cbs) > 0 {
		f.k.AfterTransientFn(0, fireCallbacks, f)
	}
	if f.waiter != nil {
		f.waiter.Unpark()
		f.waiter = nil
	}
	for _, w := range f.waiters {
		w.Unpark()
	}
	f.waiters = nil
}

// addWaiter queues p behind the processes already blocked on f.
func (f *Future) addWaiter(p *des.Process) {
	if f.waiter == nil && len(f.waiters) == 0 {
		f.waiter = p
		return
	}
	f.waiters = append(f.waiters, p)
}

// removeWaiter drops the first queued occurrence of p, if any.
func (f *Future) removeWaiter(p *des.Process) {
	if f.waiter == p {
		f.waiter = nil
		return
	}
	for i, w := range f.waiters {
		if w == p {
			f.waiters = append(f.waiters[:i:i], f.waiters[i+1:]...)
			return
		}
	}
}

// fireCallbacks is the package-level delivery body of the resolution
// event: it drains the callbacks registered before resolution and runs
// them with the (immutable, already-resolved) result.
func fireCallbacks(a any) {
	f := a.(*Future)
	cbs := f.cbs
	f.cbs = nil
	for _, cb := range cbs {
		cb(f.result)
	}
}

// Then registers a callback to run (as a kernel event) when the future
// resolves; immediately if already resolved.
func (f *Future) Then(cb func(Result)) {
	if f.done {
		r := f.result
		f.k.AfterTransient(0, func() { cb(r) })
		return
	}
	f.cbs = append(f.cbs, cb)
}

// Get blocks the calling process until resolution, mirroring
// ara::core::Future::get(). This is what a client uses to serialize its
// calls — the "wait for the future to resolve" fix discussed under
// Figure 1 of the paper.
func (f *Future) Get(p *des.Process) ([]byte, error) {
	for !f.done {
		f.addWaiter(p)
		p.Park()
	}
	return f.result.Payload, f.result.Err
}

// GetTimeout is Get with a deadline.
func (f *Future) GetTimeout(p *des.Process, d logical.Duration) ([]byte, error) {
	deadline := p.Now().Add(d)
	for !f.done {
		if p.Now() >= deadline {
			return nil, ErrTimeout
		}
		f.addWaiter(p)
		ev := f.k.At(deadline, func() { p.Unpark() })
		p.Park()
		ev.Cancel()
		// Drop ourselves from waiters if still present (timeout path).
		f.removeWaiter(p)
	}
	return f.result.Payload, f.result.Err
}

// ResolvedFuture returns an already-resolved future.
func ResolvedFuture(k *des.Kernel, r Result) *Future {
	f := NewFuture(k)
	f.Resolve(r)
	return f
}
