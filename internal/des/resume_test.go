package des

import (
	"runtime"
	"testing"
	"time"
)

// A parked-spawned process schedules nothing; Resume runs it inside the
// calling event, and each later Resume continues it from Suspend.
func TestSpawnParkedRunsOnlyOnResume(t *testing.T) {
	k := NewKernel(1)
	var ran []int
	p := k.SpawnParked("w", func(p *Process) {
		for i := 0; ; i++ {
			ran = append(ran, i)
			p.Suspend()
		}
	})
	if k.QueueLen() != 0 {
		t.Fatalf("SpawnParked queued %d events, want 0", k.QueueLen())
	}
	k.At(5, func() {
		p.Resume()
		if len(ran) != 1 {
			t.Errorf("first Resume did not run the body synchronously: %v", ran)
		}
		p.Resume()
		if len(ran) != 2 {
			t.Errorf("second Resume did not continue from Suspend: %v", ran)
		}
	})
	k.RunAll()
	if fired := k.EventsFired(); fired != 1 {
		t.Errorf("fired %d events, want only the resuming one", fired)
	}
	k.Shutdown()
}

// Unpark and Interrupt do not wake a suspended process: only Resume does.
func TestSuspendIgnoresUnparkAndInterrupt(t *testing.T) {
	k := NewKernel(1)
	woken := 0
	p := k.SpawnParked("w", func(p *Process) {
		for {
			p.Suspend()
			woken++
		}
	})
	k.At(1, p.Resume)
	k.At(2, func() { p.Unpark(); p.Interrupt() })
	k.RunAll()
	if woken != 0 {
		t.Fatalf("suspended process woken %d times by Unpark/Interrupt", woken)
	}
	k.At(3, p.Resume)
	k.RunAll()
	if woken != 1 {
		t.Errorf("Resume woke the process %d times, want 1", woken)
	}
	k.Shutdown()
}

func TestResumeOfRunnableProcessPanics(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("sleeper", func(p *Process) { p.Sleep(10) })
	k.Run(5)
	defer func() {
		if recover() == nil {
			t.Error("Resume of a sleeping process did not panic")
		}
		k.Shutdown()
	}()
	p.Resume()
}

// Shutdown reclaims the goroutines of suspended processes and of
// processes that never started.
func TestShutdownKillsSuspendedAndUnstarted(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	suspended := k.SpawnParked("suspended", func(p *Process) { p.Suspend() })
	k.SpawnParked("never-resumed", func(p *Process) {})
	k.SpawnAt(100, "beyond-horizon", func(p *Process) {})
	k.At(1, suspended.Resume)
	k.Run(10)
	k.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if extra := runtime.NumGoroutine() - base; extra > 0 {
		t.Errorf("%d goroutines left after Shutdown, want 0", extra)
	}
}
