// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue ordered by
// (time, sequence number). Simulated threads of control are Processes:
// goroutines that run strictly one at a time, handing a baton back to the
// kernel whenever they block on a simulated operation (Sleep, WaitUntil,
// mailbox receive, ...). Because exactly one entity runs at any instant and
// all ties are broken by the deterministic sequence counter, a simulation
// is a pure function of its seed and inputs — the Go runtime scheduler has
// no influence on results.
//
// This substrate stands in for the paper's physical testbed (two
// MinnowBoard platforms and an Ethernet switch): it simulates physical
// time, drifting local clocks, network latency and OS thread dispatch with
// seeded randomness, which is exactly the machinery needed to reproduce
// the nondeterministic interleavings studied in the paper — reproducibly.
package des

import (
	"fmt"

	"repro/internal/logical"
)

// Event is a scheduled unit of work. It can be canceled before it fires.
// The work is either a plain closure (fire) or a closure-free (fn, arg)
// pair — see AtTransientFn — so hot paths can schedule without allocating
// a capture closure per event.
type Event struct {
	k   *Kernel
	at  logical.Time
	seq uint64
	// fire is the scheduled closure (handle-returning API and plain
	// transients). nil when the event carries a (fn, arg) pair instead.
	fire func()
	// fn/arg are the closure-free form: fn is a long-lived (typically
	// package-level) function and arg its per-event argument, usually a
	// pooled carrier. Storing the pair in the pooled Event removes the
	// per-schedule closure allocation on hot paths.
	fn       func(arg any)
	arg      any
	daemon   bool
	canceled bool
	// transient marks events scheduled through AtTransient/AfterTransient:
	// no reference escapes to the caller, so the kernel recycles the Event
	// through its free list after firing. Cancel can never reach a
	// transient event, which is what makes recycling safe.
	transient bool
	// local marks events that are guaranteed never to emit onto a
	// federation channel, directly or transitively: while a local event
	// fires, Channel.Send panics and every event it schedules inherits
	// the mark, so the guarantee is closed under scheduling and enforced
	// at run time. The federation coordinator skips local events when
	// computing a partition's earliest-output-time bound (NextEmitTime),
	// which is what lets partitions free-run through dense local-only
	// phases. Events become local by being scheduled with AtLocalFn or
	// from a local event.
	local bool
	index int // heap index, -1 once popped
	// emitIndex is the event's position in the kernel's emit shadow heap
	// (see Kernel.emit), -1 when absent. Only maintained on federated
	// kernels; single-kernel mode never populates the shadow heap.
	emitIndex int
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if !e.daemon && e.index >= 0 {
		e.k.pending--
	}
}

// Time returns the simulated time at which the event fires.
func (e *Event) Time() logical.Time { return e.at }

// eventQueue is the kernel's priority queue: a 4-ary min-heap over
// *Event specialized to the (at, seq) key, replacing container/heap to
// eliminate the per-push/pop interface dispatch (Less/Swap/Len calls
// through an interface, plus the any-boxing of Push/Pop operands) on
// the hottest kernel path. Behaviour is provably identical to the old
// binary heap: (at, seq) is a strict total order — seq is unique per
// kernel — so every correct heap pops events in exactly the same
// sequence, which is what keeps every golden byte-identical across the
// swap. The 4-ary layout halves tree depth, trading one extra child
// comparison per level for better cache locality on sift-down.
//
// Event.index is maintained on every move so Cancel can keep telling
// queued events (index >= 0) from popped ones (index == -1).
type eventQueue []*Event

// before reports the strict (at, seq) order. Keys are never equal:
// seq is unique per kernel.
func (a *Event) before(b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, restoring the heap by sifting up.
func (q *eventQueue) push(e *Event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !e.before(p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = e
	e.index = i
	*q = h
}

// pop removes and returns the minimum event, restoring the heap by
// sifting the displaced tail element down.
func (q *eventQueue) pop() *Event {
	h := *q
	min := h[0]
	min.index = -1
	n := len(h) - 1
	e := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n == 0 {
		return min
	}
	// Sift e down from the root.
	i := 0
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		// Pick the smallest of up to four children.
		best := c
		bestEv := h[c]
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(bestEv) {
				best = j
				bestEv = h[j]
			}
		}
		if !bestEv.before(e) {
			break
		}
		h[i] = bestEv
		bestEv.index = i
		i = best
	}
	h[i] = e
	e.index = i
	return min
}

// emitHeap is the kernel's shadow priority queue over emit-capable
// events: the same 4-ary (at, seq) min-heap as eventQueue, but holding
// only live non-local events and maintaining Event.emitIndex instead of
// Event.index. Federated kernels keep it in lock-step with the main
// queue so NextEmitTime — the coordinator's earliest-output-time bound,
// consulted on every park — is O(1) at the head instead of a full
// O(queued) scan. Canceled events are discarded lazily at the head.
type emitHeap []*Event

// push inserts e, restoring the heap by sifting up.
func (q *emitHeap) push(e *Event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !e.before(p) {
			break
		}
		h[i] = p
		p.emitIndex = i
		i = parent
	}
	h[i] = e
	e.emitIndex = i
	*q = h
}

// removeAt deletes the event at heap position i (the main queue popped
// it, or it was discarded as canceled): the tail element takes its
// place and is sifted in either direction as needed.
func (q *emitHeap) removeAt(i int) {
	h := *q
	h[i].emitIndex = -1
	n := len(h) - 1
	e := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	// Sift e up from i, then down if it did not move.
	j := i
	for j > 0 {
		parent := (j - 1) >> 2
		p := h[parent]
		if !e.before(p) {
			break
		}
		h[j] = p
		p.emitIndex = j
		j = parent
	}
	if j == i {
		for {
			c := j<<2 + 1
			if c >= n {
				break
			}
			best := c
			bestEv := h[c]
			for m := c + 1; m < c+4 && m < n; m++ {
				if h[m].before(bestEv) {
					best = m
					bestEv = h[m]
				}
			}
			if !bestEv.before(e) {
				break
			}
			h[j] = bestEv
			bestEv.emitIndex = j
			j = best
		}
	}
	h[j] = e
	e.emitIndex = j
}

// Tracer receives logical trace events from a kernel (see
// Kernel.Trace). The canonical implementation is the trace package's
// Recorder; the indirection keeps des free of higher-layer imports.
// Implementations must not call back into the kernel.
type Tracer interface {
	// TraceEvent records one logical event: the kernel's current time,
	// the emitting component's label, the event kind and the payload
	// (which implementations digest, not retain).
	TraceEvent(at logical.Time, component, kind string, payload []byte)
}

// teeTracer fans one kernel's trace stream out to several sinks.
type teeTracer struct {
	sinks []Tracer
}

// TraceEvent forwards the event to every sink in installation order.
func (t *teeTracer) TraceEvent(at logical.Time, component, kind string, payload []byte) {
	for _, s := range t.sinks {
		s.TraceEvent(at, component, kind, payload)
	}
}

// TeeTracer composes several trace sinks into one Tracer so recording
// and online monitoring coexist on the kernel's single tracer hook: a
// trace recorder and a runtime-verification engine installed together
// observe the identical event stream. Nil entries are dropped; with no
// remaining sinks it returns nil (tracing disabled), and a single sink
// is returned unwrapped, preserving Kernel.Trace's nil-check fast path.
func TeeTracer(sinks ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &teeTracer{sinks: kept}
}

// Kernel is the simulation engine. Create one with NewKernel, spawn
// processes and schedule events, then call Run.
type Kernel struct {
	now      logical.Time
	seq      uint64
	queue    eventQueue
	pending  int // non-daemon, non-canceled events still queued
	procs    []*Process
	running  bool
	stopped  bool
	shutdown bool
	fired    uint64
	rootRand *Rand
	// free recycles transient Events: scheduling is the hot path shared by
	// every federated kernel, and pooling removes the per-event allocation.
	free []*Event
	// firingLocal is set while a local-marked event fires: newly scheduled
	// events inherit the mark and Channel.Send panics (see Event.local).
	firingLocal bool
	// emitTracked enables the emit shadow heap (set once when the kernel
	// joins a federation; see TrackEmit). Single-kernel mode leaves it
	// off, keeping enqueue/dequeue free of shadow maintenance.
	emitTracked bool
	// emit shadows the queue's live non-local events (see emitHeap).
	emit emitHeap
	// tracer, when set, receives Trace calls (nil = tracing disabled;
	// the hot-path cost is one nil check).
	tracer Tracer
}

// NewKernel returns a kernel whose clock starts at time zero and whose
// random streams all derive from seed.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rootRand: NewRand(seed)}
}

// Now returns the current simulated time.
func (k *Kernel) Now() logical.Time { return k.now }

// EventsFired returns the number of events executed so far (useful for
// progress accounting and benchmarks).
func (k *Kernel) EventsFired() uint64 { return k.fired }

// Rand derives a named, independent random stream from the kernel seed.
// The same (seed, label) pair always yields the same stream.
func (k *Kernel) Rand(label string) *Rand { return k.rootRand.Stream(label) }

// SetTracer installs (or, with nil, removes) the kernel's trace sink.
// Under a Federation each partition kernel gets its own tracer, and
// the per-partition traces merge into the canonical whole (see the
// trace package).
func (k *Kernel) SetTracer(t Tracer) { k.tracer = t }

// Trace emits one logical event to the kernel's tracer, stamped with
// the current simulated time. With no tracer installed it is a single
// nil check, so instrumented components may call it unconditionally.
// Component labels must be stable across execution modes (and each
// component must live on exactly one kernel of a federation) for the
// merged trace to be mode-independent.
func (k *Kernel) Trace(component, kind string, payload []byte) {
	if k.tracer != nil {
		k.tracer.TraceEvent(k.now, component, kind, payload)
	}
}

// At schedules fn to run at simulated time t. Scheduling in the past (or
// present) fires the event at the current time but never before events
// already queued for that time. The returned Event may be canceled.
func (k *Kernel) At(t logical.Time, fn func()) *Event {
	return k.schedule(t, false, fn)
}

// After schedules fn to run d from now.
func (k *Kernel) After(d logical.Duration, fn func()) *Event {
	return k.At(k.now.Add(d), fn)
}

// AtDaemon schedules a housekeeping event. Daemon events fire in normal
// time order but do not keep the simulation alive: Run stops once only
// daemon events remain. Self-rescheduling services (clock sync, periodic
// maintenance) use daemon events so that RunAll terminates.
func (k *Kernel) AtDaemon(t logical.Time, fn func()) *Event {
	return k.schedule(t, true, fn)
}

// AfterDaemon schedules a daemon event d from now.
func (k *Kernel) AfterDaemon(d logical.Duration, fn func()) *Event {
	return k.AtDaemon(k.now.Add(d), fn)
}

func (k *Kernel) schedule(t logical.Time, daemon bool, fn func()) *Event {
	e := k.scheduleReuse(t, daemon, fn, false)
	return e
}

// enqueue inserts e into the main queue and, on federated kernels, into
// the emit shadow heap when the event could emit cross-partition.
func (k *Kernel) enqueue(e *Event) {
	k.queue.push(e)
	e.emitIndex = -1
	if k.emitTracked && !e.local {
		k.emit.push(e)
	}
}

// dequeue removes the minimum event from the main queue and drops its
// emit shadow entry if it still has one.
func (k *Kernel) dequeue() *Event {
	e := k.queue.pop()
	if e.emitIndex >= 0 {
		k.emit.removeAt(e.emitIndex)
	}
	return e
}

// TrackEmit switches the kernel to federated mode: from now on the
// emit shadow heap mirrors the queue's live non-local events so that
// NextEmitTime is O(1). Events already queued are folded in, so the
// call is correct at any point; NewFederation makes it on creation.
func (k *Kernel) TrackEmit() {
	if k.emitTracked {
		return
	}
	k.emitTracked = true
	for _, e := range k.queue {
		if !e.local && !e.canceled {
			k.emit.push(e)
		}
	}
}

// AtTransient schedules fn at simulated time t without returning a handle.
// The event cannot be canceled; in exchange the kernel recycles its Event
// structure after firing, eliminating the per-event allocation on hot
// scheduling paths (network delivery, mailbox puts, future resolution).
// When fn would have to be a fresh capture closure, prefer AtTransientFn,
// which also removes the closure allocation.
func (k *Kernel) AtTransient(t logical.Time, fn func()) {
	k.scheduleReuse(t, false, fn, true)
}

// AfterTransient schedules fn to run d from now as a transient event (see
// AtTransient).
func (k *Kernel) AfterTransient(d logical.Duration, fn func()) {
	k.scheduleReuse(k.now.Add(d), false, fn, true)
}

// AtTransientFn schedules the closure-free form of a transient event: at
// time t the kernel calls fn(arg). Because fn is typically a package-level
// function and arg a pooled carrier (or an already-live pointer), the
// schedule+fire round trip allocates nothing — the (fn, arg) pair lives in
// the pooled Event itself, where AtTransient's fn closure would otherwise
// be a fresh heap allocation per event. This is the scheduling form of
// every converted hot path: datagram delivery, mailbox timed puts, future
// resolution, process wakeups and federation batch injection.
func (k *Kernel) AtTransientFn(t logical.Time, fn func(arg any), arg any) {
	k.scheduleFn(t, fn, arg, k.firingLocal)
}

// AfterTransientFn schedules fn(arg) to run d from now as a transient
// event (see AtTransientFn).
func (k *Kernel) AfterTransientFn(d logical.Duration, fn func(arg any), arg any) {
	k.scheduleFn(k.now.Add(d), fn, arg, k.firingLocal)
}

// AtLocalFn schedules fn(arg) at time t like AtTransientFn, and marks the
// event local: it declares that fn, and everything it transitively
// schedules, never emits onto a federation channel. The declaration is
// enforced: Channel.Send panics while any of the chain's events fire,
// and every event they schedule inherits the mark (see Event.local). In
// exchange, a federated kernel excludes the chain from its
// earliest-output-time bound (NextEmitTime), so dense local-only
// activity — load generators, intra-platform traffic — stops throttling
// downstream partitions' grant windows. A self-rescheduling fn started
// here is a complete local process without a goroutine.
func (k *Kernel) AtLocalFn(t logical.Time, fn func(arg any), arg any) {
	k.scheduleFn(t, fn, arg, true)
}

// scheduleFn is the closure-free scheduling hot path: like scheduleReuse
// with transient=true but carrying a (fn, arg) pair instead of a closure.
func (k *Kernel) scheduleFn(t logical.Time, fn func(arg any), arg any, local bool) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var e *Event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*e = Event{k: k, at: t, seq: k.seq, fn: fn, arg: arg, transient: true, local: local}
	} else {
		e = &Event{k: k, at: t, seq: k.seq, fn: fn, arg: arg, transient: true, local: local}
	}
	k.enqueue(e)
	k.pending++
}

// scheduleWake queues a caller-owned Event structure in place: the
// non-transient, cancelable analogue of the free-list reuse that
// AtTransient gets. The caller guarantees single ownership (at most one
// live incarnation; process wake events qualify — a process sleeps at
// most once at a time). When the previous incarnation is still queued —
// canceled but not yet popped — the structure cannot be reused and a
// fresh Event is allocated instead; either way the returned handle is
// the one to cancel.
func (k *Kernel) scheduleWake(e *Event, t logical.Time, fn func()) *Event {
	if e.k != nil && e.index >= 0 {
		return k.schedule(t, false, fn)
	}
	if t < k.now {
		t = k.now
	}
	k.seq++
	*e = Event{k: k, at: t, seq: k.seq, fire: fn, local: k.firingLocal}
	k.enqueue(e)
	k.pending++
	return e
}

func (k *Kernel) scheduleReuse(t logical.Time, daemon bool, fn func(), transient bool) *Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var e *Event
	if n := len(k.free); transient && n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*e = Event{k: k, at: t, seq: k.seq, fire: fn, daemon: daemon, transient: true, local: k.firingLocal}
	} else {
		e = &Event{k: k, at: t, seq: k.seq, fire: fn, daemon: daemon, transient: transient, local: k.firingLocal}
	}
	k.enqueue(e)
	if !daemon {
		k.pending++
	}
	return e
}

// ReserveEvents grows the transient-event free list so that the next n
// AtTransient calls allocate nothing. The federation coordinator uses it
// to inject drained cross-partition message batches without per-message
// allocations; it is also safe (and cheap) to call speculatively.
func (k *Kernel) ReserveEvents(n int) {
	short := n - len(k.free)
	if short <= 0 {
		return
	}
	block := make([]Event, short)
	for i := range block {
		k.free = append(k.free, &block[i])
	}
}

// recycle returns a fired transient event to the free list. Only transient
// events are pooled: handles returned by At/After may be held (and
// canceled) long after firing, and reusing them would let a stale Cancel
// hit an unrelated future event.
func (k *Kernel) recycle(e *Event) {
	e.fire = nil
	e.fn = nil
	e.arg = nil
	k.free = append(k.free, e)
}

// Stop makes Run return after the currently firing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes queued events in (time, sequence) order until only daemon
// events remain, Stop is called, or the next event lies strictly beyond
// the until horizon. It returns the simulated time at which it stopped.
// Run must not be called reentrantly and the kernel must not be shared
// across goroutines other than through Process operations.
func (k *Kernel) Run(until logical.Time) logical.Time {
	if k.running {
		panic("des: Kernel.Run called reentrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for len(k.queue) > 0 && k.pending > 0 && !k.stopped {
		next := k.queue[0]
		if next.at > until {
			break
		}
		k.dequeue()
		if next.canceled {
			continue
		}
		if !next.daemon {
			k.pending--
		}
		if next.at > k.now {
			k.now = next.at
		}
		k.fired++
		k.firingLocal = next.local
		if next.fn != nil {
			next.fn(next.arg)
		} else {
			next.fire()
		}
		k.firingLocal = false
		if next.transient {
			k.recycle(next)
		}
	}
	if !k.stopped && k.now < until && until < logical.Forever {
		// The simulation went quiescent before the horizon; advance the
		// clock so that successive Run calls observe monotonic time.
		k.now = until
	}
	return k.now
}

// RunAll executes events until the queue is empty or Stop is called.
func (k *Kernel) RunAll() logical.Time { return k.Run(logical.Forever) }

// NextEventTime returns the firing time of the earliest queued live
// event, discarding canceled events from the head of the queue as it
// goes (they would be skipped at firing time anyway). The federation
// coordinator uses the result as the partition's earliest-output-time
// bound, so keeping it tight — never a stale canceled timestamp —
// directly widens the windows granted to downstream partitions.
func (k *Kernel) NextEventTime() (logical.Time, bool) {
	for len(k.queue) > 0 && k.queue[0].canceled {
		k.dequeue()
	}
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// NextEmitTime returns the earliest queued event that could emit onto a
// federation channel — i.e. the earliest live event without the local
// mark (see Event.local). The federation coordinator uses it as the
// partition's earliest-output-time bound: events below the result are
// provably incapable of sending cross-partition, so downstream grants
// may reach past them. On federated kernels (TrackEmit) the answer is
// the head of the emit shadow heap — O(1) after lazily discarding
// canceled heads — where it used to be a full O(queued) scan, the
// dominant cost of dense-local workloads like the city scenario. The
// scan remains as the untracked fallback.
func (k *Kernel) NextEmitTime() (logical.Time, bool) {
	if k.emitTracked {
		for len(k.emit) > 0 && k.emit[0].canceled {
			k.emit.removeAt(0)
		}
		if len(k.emit) == 0 {
			return 0, false
		}
		return k.emit[0].at, true
	}
	var best logical.Time
	found := false
	for _, e := range k.queue {
		if e.local || e.canceled {
			continue
		}
		if !found || e.at < best {
			best = e.at
			found = true
		}
	}
	return best, found
}

// LocalFiring reports whether the currently firing event carries the
// local (never-emits) mark — the flag Channel.Send enforces against.
func (k *Kernel) LocalFiring() bool { return k.firingLocal }

// RunLive executes every queued event — daemon events included — whose
// time is at or before until, then advances the clock to until. Unlike
// Run it does not stop at quiescence: it is the step function for
// real-time drivers (see RealTime), which interleave RunLive with
// waiting on the physical clock and injecting external events. Stop is
// honored.
func (k *Kernel) RunLive(until logical.Time) logical.Time {
	if k.running {
		panic("des: Kernel.RunLive called reentrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	for len(k.queue) > 0 && !k.stopped {
		next := k.queue[0]
		if next.at > until {
			break
		}
		k.dequeue()
		if next.canceled {
			continue
		}
		if !next.daemon {
			k.pending--
		}
		if next.at > k.now {
			k.now = next.at
		}
		k.fired++
		k.firingLocal = next.local
		if next.fn != nil {
			next.fn(next.arg)
		} else {
			next.fire()
		}
		k.firingLocal = false
		if next.transient {
			k.recycle(next)
		}
	}
	if k.now < until {
		k.now = until
	}
	return k.now
}

// Shutdown unblocks every parked, sleeping, suspended or not yet started
// process with a termination signal so that their goroutines unwind and
// exit. It must be called after Run returns if processes may still be
// blocked; otherwise their goroutines leak. User process code must not
// swallow panics of type Killed.
func (k *Kernel) Shutdown() {
	k.shutdown = true
	for _, p := range k.procs {
		if p.state == procBlocked || p.state == procSleeping || p.state == procSuspended || p.state == procNew {
			p.kill()
		}
	}
}

// QueueLen reports the number of pending (possibly canceled) events.
func (k *Kernel) QueueLen() int { return len(k.queue) }

// Pending reports the number of queued non-daemon, non-canceled events —
// the count that keeps Run alive. The federation coordinator uses it for
// global quiescence detection across kernels.
func (k *Kernel) Pending() int { return k.pending }

// String summarizes the kernel state for diagnostics.
func (k *Kernel) String() string {
	return fmt.Sprintf("kernel(now=%s queued=%d fired=%d)", k.now, len(k.queue), k.fired)
}
