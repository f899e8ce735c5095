package ara

import (
	"encoding/binary"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// calcIface is a small test service: a counter with set/add/get methods,
// a tick event, and one field — the Figure 1 shape.
var calcIface = &ServiceInterface{
	Name:  "Calculator",
	ID:    0x1001,
	Major: 1,
	Methods: []MethodSpec{
		{ID: 0x0001, Name: "set_value"},
		{ID: 0x0002, Name: "add"},
		{ID: 0x0003, Name: "get_value"},
		{ID: 0x0004, Name: "log", FireAndForget: true},
	},
	Events: []EventSpec{
		{ID: someip.EventID(1), Name: "tick", Eventgroup: 1},
	},
	Fields: []FieldSpec{
		{Name: "limit", Get: 0x0010, Set: 0x0011, Notifier: someip.EventID(2), Eventgroup: 2},
	},
}

func u32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

func decodeU32(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

type fixture struct {
	k        *des.Kernel
	net      *simnet.Network
	h1, h2   *simnet.Host
	server   *Runtime
	client   *Runtime
	skeleton *Skeleton
	value    uint32
}

// newFixture wires a calc server on h1 and a client runtime on h2 with
// deterministic (zero-jitter, serialized) execution unless cfg overrides.
func newFixture(t *testing.T, seed uint64, serverExec ExecConfig) *fixture {
	t.Helper()
	k := des.NewKernel(seed)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("p1", k.NewLocalClock(des.ClockConfig{}, nil))
	h2 := n.AddHost("p2", k.NewLocalClock(des.ClockConfig{}, nil))
	server, err := NewRuntime(h1, Config{Name: "server", Exec: serverExec})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewRuntime(h2, Config{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{k: k, net: n, h1: h1, h2: h2, server: server, client: client}
	sk, err := server.NewSkeleton(calcIface, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.skeleton = sk
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sk.Handle("set_value", func(c *Ctx, args []byte) ([]byte, error) {
		f.value = decodeU32(args)
		return nil, nil
	}))
	must(sk.Handle("add", func(c *Ctx, args []byte) ([]byte, error) {
		f.value += decodeU32(args)
		return nil, nil
	}))
	must(sk.Handle("get_value", func(c *Ctx, args []byte) ([]byte, error) {
		return u32(f.value), nil
	}))
	k.At(0, func() { sk.Offer() })
	return f
}

// serialExec gives deterministic single-worker zero-jitter execution.
func serialExec() ExecConfig {
	return ExecConfig{
		Workers:        1,
		DispatchJitter: func(*des.Rand) logical.Duration { return 0 },
		Serialized:     true,
	}
}

func TestMethodCallRoundTrip(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	var got uint32
	var callErr error
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			callErr = err
			return
		}
		if _, err := px.Call("set_value", u32(41)).Get(c.Process()); err != nil {
			callErr = err
			return
		}
		if _, err := px.Call("add", u32(1)).Get(c.Process()); err != nil {
			callErr = err
			return
		}
		res, err := px.Call("get_value", nil).Get(c.Process())
		if err != nil {
			callErr = err
			return
		}
		got = decodeU32(res)
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if callErr != nil {
		t.Fatal(callErr)
	}
	if got != 42 {
		t.Errorf("got %d, want 42 (serialized calls)", got)
	}
}

func TestUnknownMethodReturnsError(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	var err error
	f.client.Spawn("main", func(c *Ctx) {
		px, ferr := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if ferr != nil {
			err = ferr
			return
		}
		_, err = px.CallID(0x7777, nil, false).Get(c.Process())
	})
	f.k.Run(logical.Time(10 * logical.Second))
	re, ok := err.(*RemoteError)
	if !ok {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Code != someip.EUnknownMethod {
		t.Errorf("code = %v, want E_UNKNOWN_METHOD", re.Code)
	}
}

func TestCallBeforeOfferFails(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("p1", k.NewLocalClock(des.ClockConfig{}, nil))
	h2 := n.AddHost("p2", k.NewLocalClock(des.ClockConfig{}, nil))
	if _, err := NewRuntime(h1, Config{Name: "server"}); err != nil {
		t.Fatal(err)
	}
	client, err := NewRuntime(h2, Config{Name: "client"})
	if err != nil {
		t.Fatal(err)
	}
	var findErr error
	client.Spawn("main", func(c *Ctx) {
		_, findErr = client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(100*logical.Millisecond))
	})
	k.Run(logical.Time(logical.Second))
	if findErr == nil {
		t.Error("discovery should time out when nothing is offered")
	}
}

func TestHandlerErrorMapsToReturnCode(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	if err := f.skeleton.Handle("set_value", func(c *Ctx, args []byte) ([]byte, error) {
		return nil, &RemoteError{Code: someip.ENotReady}
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	f.client.Spawn("main", func(c *Ctx) {
		px, ferr := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if ferr != nil {
			err = ferr
			return
		}
		_, err = px.Call("set_value", u32(1)).Get(c.Process())
	})
	f.k.Run(logical.Time(10 * logical.Second))
	re, ok := err.(*RemoteError)
	if !ok || re.Code != someip.ENotReady {
		t.Errorf("err = %v, want E_NOT_READY", err)
	}
}

func TestFireAndForget(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	logged := 0
	if err := f.skeleton.Handle("log", func(c *Ctx, args []byte) ([]byte, error) {
		logged++
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			t.Error(err)
			return
		}
		fut := px.Call("log", []byte("hi"))
		if !fut.Done() {
			t.Error("fire&forget future should resolve immediately")
		}
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if logged != 1 {
		t.Errorf("logged = %d, want 1", logged)
	}
}

func TestEventSubscribeNotify(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	var got []uint32
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			t.Error(err)
			return
		}
		acked := false
		if err := px.Subscribe("tick", func(c *Ctx, payload []byte) {
			got = append(got, decodeU32(payload))
		}, func(ok bool) { acked = ok }); err != nil {
			t.Error(err)
			return
		}
		// Wait for the ack, then trigger three notifications.
		for !acked {
			c.Exec(logical.Duration(10 * logical.Millisecond))
		}
		for i := uint32(1); i <= 3; i++ {
			f.skeleton.NotifyID(someip.EventID(1), 1, u32(i))
			c.Exec(logical.Duration(10 * logical.Millisecond))
		}
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("got = %v, want [1 2 3]", got)
	}
}

func TestNotifyWithoutSubscribersIsNoop(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	f.k.At(logical.Time(logical.Millisecond), func() {
		f.skeleton.NotifyID(someip.EventID(1), 1, u32(9))
	})
	f.k.Run(logical.Time(logical.Second)) // must not panic or deliver anywhere
}

func TestFieldGetSetNotify(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	srvField, err := f.skeleton.Field("limit")
	if err != nil {
		t.Fatal(err)
	}
	srvField.Update(u32(100))

	var observed []uint32
	var got uint32
	var setBack uint32
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			t.Error(err)
			return
		}
		fc, err := px.Field("limit")
		if err != nil {
			t.Error(err)
			return
		}
		if err := fc.OnChange(func(c *Ctx, payload []byte) {
			observed = append(observed, decodeU32(payload))
		}, nil); err != nil {
			t.Error(err)
			return
		}
		c.Exec(logical.Duration(50 * logical.Millisecond)) // let subscription settle
		v, err := fc.GetSync(c.Process())
		if err != nil {
			t.Error(err)
			return
		}
		got = decodeU32(v)
		v2, err := fc.SetSync(c.Process(), u32(250))
		if err != nil {
			t.Error(err)
			return
		}
		setBack = decodeU32(v2)
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if got != 100 {
		t.Errorf("Get = %d, want 100", got)
	}
	if setBack != 250 {
		t.Errorf("Set response = %d, want 250", setBack)
	}
	if len(observed) == 0 || observed[len(observed)-1] != 250 {
		t.Errorf("notifier observed %v, want trailing 250", observed)
	}
	if decodeU32(srvField.Value()) != 250 {
		t.Errorf("server value = %d", decodeU32(srvField.Value()))
	}
}

func TestFieldValidatorRejectsSet(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	srvField, _ := f.skeleton.Field("limit")
	srvField.Update(u32(1))
	srvField.SetValidator(func(proposed []byte) error {
		if decodeU32(proposed) > 10 {
			return &RemoteError{Code: someip.ENotOK}
		}
		return nil
	})
	var err error
	f.client.Spawn("main", func(c *Ctx) {
		px, ferr := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if ferr != nil {
			err = ferr
			return
		}
		fc, _ := px.Field("limit")
		_, err = fc.SetSync(c.Process(), u32(11))
	})
	f.k.Run(logical.Time(10 * logical.Second))
	if err == nil {
		t.Error("validator should have rejected the set")
	}
	if decodeU32(srvField.Value()) != 1 {
		t.Errorf("value changed to %d despite rejection", decodeU32(srvField.Value()))
	}
}

// TestNonBlockingCallsNondeterministic reproduces the mechanism of
// Figure 1: three non-blocking calls processed by a multi-threaded server
// yield different results for different scheduler seeds.
func TestNonBlockingCallsNondeterministic(t *testing.T) {
	run := func(seed uint64) uint32 {
		k := des.NewKernel(seed)
		n := simnet.NewNetwork(k, simnet.Config{})
		h1 := n.AddHost("p1", k.NewLocalClock(des.ClockConfig{}, nil))
		h2 := n.AddHost("p2", k.NewLocalClock(des.ClockConfig{}, nil))
		server, _ := NewRuntime(h1, Config{Name: "server", Exec: ExecConfig{
			Workers:    4,
			Serialized: true, // mutual exclusion, but order is up to dispatch
		}})
		client, _ := NewRuntime(h2, Config{Name: "client"})
		var value uint32
		sk, _ := server.NewSkeleton(calcIface, 1)
		_ = sk.Handle("set_value", func(c *Ctx, args []byte) ([]byte, error) {
			value = decodeU32(args)
			return nil, nil
		})
		_ = sk.Handle("add", func(c *Ctx, args []byte) ([]byte, error) {
			value += decodeU32(args)
			return nil, nil
		})
		_ = sk.Handle("get_value", func(c *Ctx, args []byte) ([]byte, error) {
			return u32(value), nil
		})
		k.At(0, func() { sk.Offer() })
		var result uint32
		client.Spawn("main", func(c *Ctx) {
			px, err := client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
			if err != nil {
				t.Error(err)
				return
			}
			// Non-blocking: issue all three, then wait only for the last.
			px.Call("set_value", u32(1))
			px.Call("add", u32(2))
			res, err := px.Call("get_value", nil).Get(c.Process())
			if err == nil {
				result = decodeU32(res)
			}
		})
		k.Run(logical.Time(10 * logical.Second))
		return result
	}
	seen := map[uint32]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		v := run(seed)
		if v > 3 {
			t.Fatalf("impossible value %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Errorf("only saw values %v across seeds; expected nondeterministic spread", seen)
	}
	// Same seed must reproduce exactly.
	if run(7) != run(7) {
		t.Error("same seed gave different results")
	}
}

func TestSerializedBlockingCallsAlwaysDeterministic(t *testing.T) {
	// The Figure 1 fix: wait for each future before the next call. The
	// result must be 3 for every seed even with a jittery multi-thread
	// executor.
	for seed := uint64(0); seed < 10; seed++ {
		f := newFixture(t, seed, ExecConfig{Workers: 4, Serialized: true})
		var got uint32
		f.client.Spawn("main", func(c *Ctx) {
			px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := px.Call("set_value", u32(1)).Get(c.Process()); err != nil {
				t.Error(err)
			}
			if _, err := px.Call("add", u32(2)).Get(c.Process()); err != nil {
				t.Error(err)
			}
			res, err := px.Call("get_value", nil).Get(c.Process())
			if err != nil {
				t.Error(err)
			}
			got = decodeU32(res)
		})
		f.k.Run(logical.Time(10 * logical.Second))
		if got != 3 {
			t.Errorf("seed %d: got %d, want 3", seed, got)
		}
	}
}

func TestTwoClientsShareServer(t *testing.T) {
	f := newFixture(t, 1, serialExec())
	client2, err := NewRuntime(f.h2, Config{Name: "client2"})
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]uint32{}
	mk := func(rt *Runtime, name string, v uint32) {
		rt.Spawn("main", func(c *Ctx) {
			px, err := rt.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := px.Call("add", u32(v)).Get(c.Process()); err != nil {
				t.Error(err)
				return
			}
			res, err := px.Call("get_value", nil).Get(c.Process())
			if err != nil {
				t.Error(err)
				return
			}
			results[name] = decodeU32(res)
		})
	}
	mk(f.client, "c1", 10)
	mk(client2, "c2", 100)
	f.k.Run(logical.Time(10 * logical.Second))
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	if f.value != 110 {
		t.Errorf("final value = %d, want 110", f.value)
	}
}

func TestPeriodicCallback(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h := n.AddHost("p", k.NewLocalClock(des.ClockConfig{}, nil))
	rt, err := NewRuntime(h, Config{Name: "swc"})
	if err != nil {
		t.Fatal(err)
	}
	var times []logical.Time
	rt.Every(logical.Duration(5*logical.Millisecond), logical.Duration(50*logical.Millisecond), func(c *Ctx) {
		times = append(times, c.Now())
	})
	k.Run(logical.Time(240 * logical.Millisecond))
	// Activations at 5, 55, 105, 155, 205 ms.
	if len(times) != 5 {
		t.Fatalf("activations = %d (%v)", len(times), times)
	}
	for i, want := range []int64{5, 55, 105, 155, 205} {
		if times[i] != logical.Time(want)*logical.Time(logical.Millisecond) {
			t.Errorf("activation %d at %v, want %dms", i, times[i], want)
		}
	}
}

func TestPeriodicCallbackSkipsOverruns(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h := n.AddHost("p", k.NewLocalClock(des.ClockConfig{}, nil))
	rt, _ := NewRuntime(h, Config{Name: "swc"})
	var times []logical.Time
	first := true
	rt.Every(0, logical.Duration(10*logical.Millisecond), func(c *Ctx) {
		times = append(times, c.Now())
		if first {
			first = false
			c.Exec(logical.Duration(25 * logical.Millisecond)) // overrun two slots
		}
	})
	k.Run(logical.Time(45 * logical.Millisecond))
	// Activations: 0 (runs to 25ms), then next grid slot 30, then 40.
	if len(times) != 3 {
		t.Fatalf("activations = %v", times)
	}
	want := []int64{0, 30, 40}
	for i := range want {
		if times[i] != logical.Time(want[i])*logical.Time(logical.Millisecond) {
			t.Errorf("activation %d at %v, want %dms", i, times[i], want[i])
		}
	}
}

func TestPeriodicFollowsLocalClockDrift(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	// 1% fast local clock: 10ms local period ≈ 9.90ms global.
	h := n.AddHost("p", k.NewLocalClock(des.ClockConfig{DriftPPB: 10_000_000}, nil))
	rt, _ := NewRuntime(h, Config{Name: "swc"})
	var times []logical.Time
	rt.Every(0, logical.Duration(10*logical.Millisecond), func(c *Ctx) {
		times = append(times, c.Now())
	})
	k.Run(logical.Time(100 * logical.Millisecond))
	if len(times) < 10 {
		t.Fatalf("activations = %d", len(times))
	}
	// The second activation should be earlier than 10ms of global time.
	gap := times[1] - times[0]
	if gap >= logical.Time(10*logical.Millisecond) {
		t.Errorf("gap = %v, want < 10ms for a fast clock", logical.Duration(gap))
	}
	if gap < logical.Time(9800*logical.Microsecond) {
		t.Errorf("gap = %v, implausibly small", logical.Duration(gap))
	}
}

func TestPeriodicStop(t *testing.T) {
	k := des.NewKernel(1)
	n := simnet.NewNetwork(k, simnet.Config{})
	h := n.AddHost("p", k.NewLocalClock(des.ClockConfig{}, nil))
	rt, _ := NewRuntime(h, Config{Name: "swc"})
	count := 0
	var h2 *PeriodicHandle
	h2 = rt.Every(0, logical.Duration(10*logical.Millisecond), func(c *Ctx) {
		count++
		if count == 3 {
			h2.Stop()
		}
	})
	k.Run(logical.Time(logical.Second))
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestValidateCatchesBadInterfaces(t *testing.T) {
	bad := []*ServiceInterface{
		{Name: "zero-id", ID: 0},
		{Name: "sd-id", ID: someip.SDService},
		{Name: "event-method", ID: 1, Methods: []MethodSpec{{ID: someip.EventID(1), Name: "m"}}},
		{Name: "plain-event", ID: 1, Events: []EventSpec{{ID: 5, Name: "e"}}},
		{Name: "dup", ID: 1, Methods: []MethodSpec{{ID: 1, Name: "a"}, {ID: 1, Name: "b"}}},
		{Name: "field-evt-get", ID: 1, Fields: []FieldSpec{{Name: "f", Get: someip.EventID(1)}}},
		{Name: "field-plain-notifier", ID: 1, Fields: []FieldSpec{{Name: "f", Notifier: 5}}},
	}
	for _, si := range bad {
		if err := si.Validate(); err == nil {
			t.Errorf("%s: want validation error", si.Name)
		}
	}
	if err := calcIface.Validate(); err != nil {
		t.Errorf("calcIface should validate: %v", err)
	}
}

func TestInterfaceLookups(t *testing.T) {
	if _, ok := calcIface.Method("set_value"); !ok {
		t.Error("Method lookup failed")
	}
	if _, ok := calcIface.Method("nope"); ok {
		t.Error("Method lookup false positive")
	}
	if _, ok := calcIface.Event("tick"); !ok {
		t.Error("Event lookup failed")
	}
	if _, ok := calcIface.Field("limit"); !ok {
		t.Error("Field lookup failed")
	}
	if e, ok := calcIface.EventByID(someip.EventID(1)); !ok || e.Name != "tick" {
		t.Error("EventByID lookup failed")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := des.NewKernel(1)
	m := NewMutex()
	var order []string
	inside := 0
	body := func(name string, hold logical.Duration) func(p *des.Process) {
		return func(p *des.Process) {
			m.Lock(p)
			inside++
			if inside != 1 {
				t.Error("mutual exclusion violated")
			}
			order = append(order, name)
			p.Sleep(hold)
			inside--
			m.Unlock()
		}
	}
	k.Spawn("a", body("a", 10))
	k.Spawn("b", body("b", 10))
	k.Spawn("c", body("c", 10))
	k.RunAll()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("FIFO order violated: %v", order)
	}
}

func TestFutureThenAndResolvedFuture(t *testing.T) {
	k := des.NewKernel(1)
	fut := NewFuture(k)
	var got []string
	fut.Then(func(r Result) { got = append(got, string(r.Payload)) })
	k.At(10, func() { fut.Resolve(Result{Payload: []byte("x")}) })
	k.RunAll()
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("got = %v", got)
	}
	// Then on resolved future fires too.
	fut.Then(func(r Result) { got = append(got, "again") })
	k.RunAll()
	if len(got) != 2 {
		t.Errorf("got = %v", got)
	}
	// Double resolve ignored.
	fut.Resolve(Result{Payload: []byte("y")})
	if string(fut.result.Payload) != "x" {
		t.Error("second resolve overwrote result")
	}
	rf := ResolvedFuture(k, Result{Payload: []byte("z")})
	if !rf.Done() {
		t.Error("ResolvedFuture not done")
	}
}

func TestFutureGetTimeout(t *testing.T) {
	k := des.NewKernel(1)
	fut := NewFuture(k)
	var err error
	k.Spawn("w", func(p *des.Process) {
		_, err = fut.GetTimeout(p, logical.Duration(50*logical.Millisecond))
	})
	k.RunAll()
	if err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
	// Late resolve after timeout is harmless.
	fut.Resolve(Result{Payload: []byte("late")})
	k.RunAll()
}

// Waiters wake in arrival order, including when the first one leaves on
// timeout before a later process arrives.
func TestFutureWakesWaitersInFIFOOrder(t *testing.T) {
	k := des.NewKernel(1)
	fut := NewFuture(k)
	var woke []string
	wait := func(name string, timeout logical.Duration) func(p *des.Process) {
		return func(p *des.Process) {
			var err error
			if timeout > 0 {
				_, err = fut.GetTimeout(p, timeout)
			} else {
				_, err = fut.Get(p)
			}
			if err == nil {
				woke = append(woke, name)
			}
		}
	}
	k.Spawn("a", wait("a", 5))
	k.Spawn("b", wait("b", 0))
	k.Spawn("c", wait("c", 100))
	k.SpawnAt(10, "d", wait("d", 0))
	k.At(20, func() { fut.Resolve(Result{}) })
	k.RunAll()
	want := []string{"b", "c", "d"}
	if len(woke) != len(want) {
		t.Fatalf("woke %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke %v, want %v", woke, want)
		}
	}
}

func TestExecutorCounters(t *testing.T) {
	k := des.NewKernel(1)
	e := NewExecutor(k, des.NewRand(1), ExecConfig{Workers: 2, DispatchJitter: func(*des.Rand) logical.Duration { return 0 }})
	for i := 0; i < 5; i++ {
		e.Submit(func(c *Ctx) { c.Exec(10) })
	}
	if e.InFlight() != 5 {
		t.Errorf("in flight = %d", e.InFlight())
	}
	k.RunAll()
	if e.Executed() != 5 || e.InFlight() != 0 {
		t.Errorf("executed = %d, inflight = %d", e.Executed(), e.InFlight())
	}
}
