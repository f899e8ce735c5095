package ara

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/logical"
)

func zeroJitter(*des.Rand) logical.Duration { return 0 }

func TestExecutorPeakConcurrencyEqualsWorkers(t *testing.T) {
	k := des.NewKernel(1)
	e := NewExecutor(k, des.NewRand(1), ExecConfig{Workers: 3})
	inside, peak := 0, 0
	for i := 0; i < 10; i++ {
		e.Submit(func(c *Ctx) {
			inside++
			if inside > peak {
				peak = inside
			}
			// Long against the 50µs mean dispatch jitter, so the
			// tasks overlap and only the permit count limits them.
			c.Exec(logical.Millisecond)
			inside--
		})
	}
	k.RunAll()
	if peak != 3 {
		t.Errorf("peak concurrency = %d, want Workers = 3", peak)
	}
	if e.Executed() != 10 {
		t.Errorf("executed = %d, want 10", e.Executed())
	}
}

// Under zero jitter every task starts in submission order, even though
// their different execution times make them complete out of order.
func TestExecutorFIFOStartOrderUnderZeroJitter(t *testing.T) {
	k := des.NewKernel(1)
	e := NewExecutor(k, des.NewRand(1), ExecConfig{Workers: 2, DispatchJitter: zeroJitter})
	var started, finished []int
	for i := 0; i < 8; i++ {
		i := i
		e.Submit(func(c *Ctx) {
			started = append(started, i)
			c.Exec(logical.Duration(8-i) * logical.Microsecond)
			finished = append(finished, i)
		})
	}
	k.RunAll()
	for i, got := range started {
		if got != i {
			t.Fatalf("start order = %v, want FIFO", started)
		}
	}
	inOrder := true
	for i, got := range finished {
		inOrder = inOrder && got == i
	}
	if inOrder {
		t.Errorf("completion order %v is FIFO too; the test no longer separates start from completion", finished)
	}
}

// The executor runs its tasks on at most Workers pooled processes: a
// thousand tasks add no more goroutines than that, and Shutdown reclaims
// all of them.
func TestExecutorGoroutinesBoundedByWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	k := des.NewKernel(1)
	e := NewExecutor(k, des.NewRand(1), ExecConfig{Workers: 2})
	peak := 0
	for i := 0; i < 1000; i++ {
		e.Submit(func(c *Ctx) {
			if g := runtime.NumGoroutine() - base; g > peak {
				peak = g
			}
			c.Exec(logical.Microsecond)
		})
	}
	k.RunAll()
	if e.Executed() != 1000 {
		t.Fatalf("executed = %d, want 1000", e.Executed())
	}
	if peak > 2 {
		t.Errorf("goroutines rose by %d while running, want at most Workers = 2", peak)
	}
	k.Shutdown()
	// A killed worker's goroutine exits just after handing the baton
	// back, so allow it a moment to disappear.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if extra := runtime.NumGoroutine() - base; extra > 0 {
		t.Errorf("%d goroutines left after Shutdown, want 0", extra)
	}
}

// Unlock schedules the first waiter's wake rather than handing it the
// lock, so a process that runs earlier at the same instant takes the lock
// first and the woken waiter queues again. E1's Figure 1 distribution
// depends on this; the test pins it.
func TestMutexUnlockDoesNotHandOff(t *testing.T) {
	k := des.NewKernel(1)
	m := NewMutex()
	var order []string
	hold := func(name string) func(p *des.Process) {
		return func(p *des.Process) {
			m.Lock(p)
			order = append(order, name)
			p.Sleep(10)
			m.Unlock()
		}
	}
	k.Spawn("a", hold("a"))
	k.Spawn("b", hold("b"))
	// c's start event at t=10 is scheduled after a's wake (queued when a
	// went to sleep at t=0) but before the wake a's Unlock schedules for
	// b, so c runs in between and barges past the waiting b.
	k.At(5, func() { k.SpawnAt(10, "c", hold("c")) })
	k.RunAll()
	want := []string{"a", "c", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
