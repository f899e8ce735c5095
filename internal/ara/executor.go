package ara

import (
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// Ctx is handed to method/event handlers. It exposes simulated time and
// lets handlers consume execution time, which is how worst-case execution
// times are modelled.
type Ctx struct {
	p   *des.Process
	rt  *Runtime
	msg *someip.Message
}

// Message returns the SOME/IP message that triggered this handler, or nil
// for tasks not associated with a message. The DEAR transactors use it to
// retrieve the tag that the modified binding extracted from the wire.
func (c *Ctx) Message() *someip.Message { return c.msg }

// Now returns the current simulated (global) time.
func (c *Ctx) Now() logical.Time { return c.p.Now() }

// LocalNow returns the current local platform time.
func (c *Ctx) LocalNow() logical.Time { return c.rt.Clock().Now() }

// Exec consumes d of simulated execution time (the handler's computation).
func (c *Ctx) Exec(d logical.Duration) { c.p.Sleep(d) }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Process returns the simulated worker thread running the handler.
func (c *Ctx) Process() *des.Process { return c.p }

// task is one unit of work for the executor: fn(c, arg) runs on a
// worker, with c bound to that worker's process. The (fn, arg) form lets
// the request path submit its one carrier instead of allocating a capture
// closure per invocation.
type task struct {
	c   *Ctx
	fn  func(c *Ctx, arg any)
	arg any
}

// ExecConfig configures the executor of a runtime.
type ExecConfig struct {
	// Workers is the number of simulated worker threads (default 4).
	Workers int
	// DispatchJitter draws the latency between a task becoming runnable
	// and a worker thread actually starting it — the OS scheduling delay.
	// Default: exponential with mean 50µs. This is nondeterminism
	// source #1/#2 of the paper: processing order follows dispatch order,
	// not arrival order.
	DispatchJitter func(*des.Rand) logical.Duration
	// Serialized enforces mutual exclusion between handler executions
	// (the paper's server "enforces mutual exclusion between the
	// execution of method invocations" while leaving their order free).
	Serialized bool
}

func defaultJitter(r *des.Rand) logical.Duration {
	return logical.Duration(r.Exp(float64(50 * logical.Microsecond)))
}

// Where the dispatch state machine waits. Each state mirrors a point
// where the dispatcher process the executor once ran was unstarted or
// blocked, and decides which action schedules the next dispatch event.
const (
	dispatchWaitTask   = iota // the queue is empty: the next submit schedules dispatch
	dispatchPending           // a dispatch event is queued
	dispatchWaitPermit        // the head task waits: the next permit release schedules dispatch
)

// Executor dispatches tasks onto at most Workers simulated worker
// threads. It models the AP communication-management default, in which
// "the runtime maps each invocation to a different thread": each task
// starts after its own dispatch jitter, at most Workers run at once, and
// the rest queue in FIFO order.
//
// The executor is a small state machine driven by plain kernel events.
// A dispatch event pops queued tasks while permits remain, draws each
// one's jitter and schedules its start event at now+jitter; the start
// event resumes an idle pooled worker process synchronously. Workers are
// long-lived processes spawned lazily, one per permit, so the number of
// goroutines is bounded by Workers rather than by the number of requests.
type Executor struct {
	k     *des.Kernel
	rng   *des.Rand
	cfg   ExecConfig
	mutex *Mutex
	state int
	// queue[head:] are the tasks waiting for a permit, in FIFO order.
	// Popping advances head so the backing array is reused once drained.
	queue []task
	head  int
	// idle holds the workers free to take a task. A free permit is an
	// idle worker or, while fewer than Workers exist, one not yet spawned.
	idle     []*worker
	spawned  int
	inFlight int
	executed uint64
}

// worker is one pooled worker thread. While reserved, t is the task its
// next start event hands it.
type worker struct {
	e *Executor
	p *des.Process
	t task
}

// NewExecutor creates an executor. Workers spawn on demand, when a task
// is dispatched and no idle worker is left.
func NewExecutor(k *des.Kernel, rng *des.Rand, cfg ExecConfig) *Executor {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.DispatchJitter == nil {
		cfg.DispatchJitter = defaultJitter
	}
	return &Executor{
		k:     k,
		rng:   rng,
		cfg:   cfg,
		mutex: NewMutex(),
	}
}

// Executed reports the number of completed tasks.
func (e *Executor) Executed() uint64 { return e.executed }

// InFlight reports tasks submitted but not yet completed.
func (e *Executor) InFlight() int { return e.inFlight }

// Submit schedules fn to run on a worker thread after the dispatch jitter.
// The ctx passed to fn carries no runtime (Ctx.Runtime returns nil);
// only the runtime's own request and notification tasks are bound to it.
func (e *Executor) Submit(fn func(*Ctx)) {
	e.submit(task{c: &Ctx{}, fn: runFunc, arg: fn})
}

// runFunc is the task body of a Submit: arg is the submitted function.
func runFunc(c *Ctx, arg any) { arg.(func(*Ctx))(c) }

func (e *Executor) submit(t task) {
	e.inFlight++
	e.queue = append(e.queue, t)
	if e.state == dispatchWaitTask {
		e.scheduleDispatch()
	}
}

func (e *Executor) scheduleDispatch() {
	e.state = dispatchPending
	e.k.AtTransientFn(e.k.Now(), dispatchFn, e)
}

// dispatchFn is the dispatch event: it hands queued tasks to free
// permits in FIFO order, drawing each task's jitter as it goes, and
// records what it stopped on.
func dispatchFn(a any) {
	e := a.(*Executor)
	for {
		if e.head == len(e.queue) {
			e.queue = e.queue[:0]
			e.head = 0
			e.state = dispatchWaitTask
			return
		}
		w := e.reserve()
		if w == nil {
			e.state = dispatchWaitPermit
			return
		}
		w.t = e.queue[e.head]
		e.queue[e.head] = task{}
		e.head++
		jitter := e.cfg.DispatchJitter(e.rng)
		e.k.AtTransientFn(e.k.Now().Add(jitter), startFn, w)
	}
}

// reserve takes a permit: an idle worker, a freshly spawned one while
// fewer than Workers exist, or nil when all are busy.
func (e *Executor) reserve() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return w
	}
	if e.spawned == e.cfg.Workers {
		return nil
	}
	e.spawned++
	w := &worker{e: e}
	w.p = e.k.SpawnParked("executor.worker", w.run)
	return w
}

// release returns a worker's permit, waking the dispatcher if the head
// task was waiting for one.
func (e *Executor) release(w *worker) {
	e.idle = append(e.idle, w)
	if e.state == dispatchWaitPermit {
		e.scheduleDispatch()
	}
}

// startFn is a task's start event: it resumes the reserved worker, which
// runs the task until it blocks or completes.
func startFn(a any) { a.(*worker).p.Resume() }

// run is the body of a pooled worker process: one task per Resume.
func (w *worker) run(p *des.Process) {
	e := w.e
	for {
		t := w.t
		w.t = task{}
		if e.cfg.Serialized {
			e.mutex.Lock(p)
		}
		t.c.p = p
		t.fn(t.c, t.arg)
		e.executed++
		e.inFlight--
		if e.cfg.Serialized {
			e.mutex.Unlock()
		}
		e.release(w)
		p.Suspend()
	}
}

// Mutex is a mutual-exclusion lock for simulated processes. Waiters
// queue in FIFO order, but Unlock does not hand the lock over: it only
// schedules the first waiter's wake at the current instant. Any process
// that runs earlier at that instant — the unlocker re-locking, or one
// whose event is already queued — takes the lock first, and the woken
// waiter then queues again at the back. The E1 (Figure 1) distribution
// depends on this barging.
type Mutex struct {
	locked  bool
	waiters []*des.Process
}

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{} }

// Lock blocks the process until the mutex is acquired.
func (m *Mutex) Lock(p *des.Process) {
	for m.locked {
		m.waiters = append(m.waiters, p)
		p.Park()
	}
	m.locked = true
}

// Unlock releases the mutex and schedules the first waiter's wake (see
// Mutex: the waiter is not guaranteed the lock).
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("ara: Unlock of unlocked Mutex")
	}
	m.locked = false
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w.Unpark()
	}
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }
